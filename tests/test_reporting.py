import io
import json

from qshift import cli
from qshift.reporting import Check, Report, write_rows
from qshift.serial import canon_dumps


def to_json_obj(check):
    """The dict each report line used to be encoded from: the oracle."""
    obj = {"check": check.name, "ok": check.ok, "mode": "exact"}
    if check.index is not None:
        obj["n"] = check.index
    if check.detail:
        obj["detail"] = check.detail
    return obj


def written(rows):
    out = io.StringIO()
    write_rows(rows, out)
    return out.getvalue()


def assert_lines_match_oracle(rows):
    lines = written(rows).split("\n")
    assert lines.pop() == ""
    assert lines == [canon_dumps(to_json_obj(Check(*row))) for row in rows]


def reports_printed(monkeypatch, argv):
    """Run the CLI and keep every report it prints."""
    printed = []
    print_report = cli._print_report

    def keep(report, command):
        printed.append(report)
        print_report(report, command)

    monkeypatch.setattr(cli, "_print_report", keep)
    code = cli.main(argv)
    monkeypatch.undo()
    return code, printed


def test_verify_and_theorem_lines_match_the_dict_encoding(
        tmp_path, monkeypatch, capsys):
    trace = tmp_path / "trace.json"
    assert cli.main(["construct", "--stream", "dense_singletons.json",
                     "--steps", "10", "--out", str(trace)]) == 0
    blob = json.loads(trace.read_text())
    # J_6 moved onto a shifted point, and pi_3 moved off its shifted set
    blob["steps"][6]["J"] = {"lower": "1/4", "upper": "2/5"}
    blob["steps"][3]["pi"] = {"breakpoints": [["0", "1000000"]],
                              "leftSlope": "1", "rightSlope": "1"}
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))
    cases = [(["verify", "--stream", "dense_singletons.json",
               "--out", str(trace)], 0),
             (["verify", "--stream", "dense_singletons.json",
               "--out", str(tampered)], 1),
             (["verify", "--stream", "tail_start.json",
               "--out", str(trace)], 1)]
    cases += [(["theorem", "--stream", name], 0) for name in
              ("theorem_identity.json", "theorem_translation.json")]
    capsys.readouterr()
    details = set()
    for argv, code in cases:
        got, (report,) = reports_printed(monkeypatch, argv)
        assert got == code, argv
        lines = capsys.readouterr().out.splitlines()
        assert bool(report.failed) == bool(code) and len(report.rows) > 90
        assert lines[:-1] == [canon_dumps(to_json_obj(c))
                              for c in report.checks], argv
        assert json.loads(lines[-1])["failures"] == report.failed
        details.update(row[3] for row in report.rows if not row[1])
    assert any(d.startswith("J_6 contains ") for d in details)
    assert any(d.startswith("pi_n moves") for d in details)


def test_hand_made_rows_match_the_dict_encoding():
    odd = ['"', "\\", 'a"b\\c', "\n\t\r\b\f", "\x00\x01\x1f\x7f",
           "é ℚ ∅ ≤", "😀", "\ud800", "J_0 contains -1/3", " "]
    rows = [("gap-disjoint", True, 0, "J_0"),
            ("stream-hash", False, None, ""),
            ("candidate-leq", True, 3, ""),
            ("claim2", False, None, "witness 0"),
            ("big", True, 10 ** 30, ""),
            ("negative", False, -1, "x")]
    rows += [(text, i % 2 == 0, i if i % 3 else None, text)
             for i, text in enumerate(odd)]
    rows += [("name " + text, True, 7, "detail " + text)
             for text in odd]
    assert_lines_match_oracle(rows)
    # repeated heads come from the same per-call memo
    assert_lines_match_oracle(rows * 3)
    assert written([]) == ""


def test_rows_are_written_in_bounded_chunks():
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    rows = [("gap-disjoint", True, m, f"J_{m % 7}")
            for m in range(10_000)]
    write_rows(rows, Recorder())
    assert [w.count("\n") for w in writes] == [1024] * 9 + [784]
    assert "".join(writes) == written(rows)


def test_report_counts_failures_and_builds_checks_on_demand():
    report = Report()
    assert report.passed and report.summary() == "all 0 checks passed"
    assert report.add("a", True, 0) is True
    assert report.add("b", 0, detail="why") is False
    other = Report()
    other.add("c", False, 2)
    other.add("d", True)
    report.extend(other)
    assert report.rows == [("a", True, 0, ""),
                           ("b", False, None, "why"),
                           ("c", False, 2, ""),
                           ("d", True, None, "")]
    assert report.failed == 2 and not report.passed
    assert report.checks == [Check(*row) for row in report.rows]
    assert report.failures == [Check("b", False, None, "why"),
                               Check("c", False, 2)]
    assert report.summary() == "2 of 4 checks failed: b, c[2]"
    for k in range(6):
        report.add("e", False, k)
    assert report.summary() == "8 of 10 checks failed: b, c[2], e[0], " \
        "e[1], e[2]"


def _grid_rows(name, sets, labels, failing):
    """The rows a grid stands for: every (m, k) cell in m-major order, a
    failing cell in place of its pass."""
    hits = {(m, k): detail for m, k, detail in failing}
    return [(name, False, m, hits[m, k]) if (m, k) in hits
            else (name, True, m, label)
            for m in range(sets) for k, label in enumerate(labels)]


def test_grids_expand_in_place_across_extended_reports():
    first = Report()
    first.add("stream-hash", True, detail="trace header matches")
    first.add_grid("gap-disjoint", 3, ["J_0", "J_1"], [])
    second = Report()
    second.add("claim", False, 0)
    cells = [(0, 1, "J_1 contains 1/2"), (2, 0, "J_0 contains 3"),
             (2, 2, "J_2 contains -1/3")]
    second.add_grid("gap-disjoint", 4, ["J_0", "J_1", "J_2"], cells)
    second.add_grid("no-labels", 5, [], [])
    second.add("last", True)
    report = Report()
    report.extend(first)
    report.add("between", True, 7)
    report.extend(second)
    rows = ([("stream-hash", True, None, "trace header matches")]
            + _grid_rows("gap-disjoint", 3, ["J_0", "J_1"], [])
            + [("between", True, 7, ""), ("claim", False, 0, "")]
            + _grid_rows("gap-disjoint", 4, ["J_0", "J_1", "J_2"], cells)
            + [("last", True, None, "")])
    assert report.rows == rows and report.count == len(rows) == 22
    assert report.checks == [Check(*row) for row in rows]
    assert report.failures == [Check(*row) for row in rows if not row[1]]
    assert report.failed == 4 and not report.passed
    assert report.summary() == ("4 of 22 checks failed: claim[0], "
                                "gap-disjoint[0], gap-disjoint[2], "
                                "gap-disjoint[2]")
    assert list(report.failed_rows()) == [row for row in rows if not row[1]]
    assert written(report.entries) == written(rows)
    assert_lines_match_oracle(rows)


def test_grid_lines_are_written_in_bounded_chunks():
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    report = Report()
    labels = [f"J_{k}" for k in range(30)]
    report.add_grid("gap-disjoint", 100, labels, [(50, 3, "J_3 contains 1")])
    write_rows(report.entries, Recorder())
    assert "".join(writes) == written(report.rows)
    # whole sets, and one write past each 1024 lines
    assert [w.count("\n") for w in writes] == [1050] * 2 + [900]
