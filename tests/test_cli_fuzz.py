"""Seeded single-field mutations of stream specs, traces and theorem
instances, run through ``main()`` in process.

Each mutation replaces, deletes or duplicates one field of a valid
document; a second set moves every tail ratio toward 1.  Every case
must return exit code 0, 1 or 2 without raising, print no traceback,
and leave stdout empty when it exits 2.
"""

import copy
import json
import subprocess
import sys
from collections import Counter
from importlib import resources
from random import Random

import pytest

from qshift.cli import main

SPECS = resources.files("qshift").joinpath("specs")

# replacement values: each JSON type, and look-alikes of the fields read
FILLERS = (None, True, False, 0, 1, -1, 2 ** 70, 0.5, "", "0", "1", "-1",
           "1/2", "-3/7", "1/0", "2/4", "x", [], {}, ["0"], [["0", "0"]],
           {"points": [], "tails": []}, {"atom": "0"})

# 1 - 10**-j for j = 1..12: ratios whose powers shrink ever more slowly,
# so the powers below a bound grow ever longer
NEAR_ONE = tuple(f"{10 ** j - 1}/{10 ** j}" for j in range(1, 13))


def _paths(obj, path=()):
    """The path of every field below the root: dict keys and list indices."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def mutate(doc, rng):
    """A copy of ``doc`` with one field replaced (by a filler or by another
    value of the same document), deleted or duplicated."""
    out = copy.deepcopy(doc)
    paths = list(_paths(out))
    path = rng.choice(paths)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(FILLERS))
    elif op == 1:
        donor = out
        for k in rng.choice(paths):
            donor = donor[k]
        parent[key] = copy.deepcopy(donor)
    elif op == 2:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key + "_"] = copy.deepcopy(parent[key])
    return out


def ratios_toward_one(doc):
    """Copies of ``doc`` with one ``ratio`` field set to each of
    ``NEAR_ONE``."""
    for path in _paths(doc):
        if path[-1] != "ratio":
            continue
        for ratio in NEAR_ONE:
            out = copy.deepcopy(doc)
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            parent["ratio"] = ratio
            yield out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in captured.err, argv
    if code == 2:
        assert captured.out == "", argv
    return code


def _cases(tmp_path, capsys):
    """(command line builder, valid document, mutation count, ratio flag)
    per input kind: a builder takes the path a mutated document is
    written to; the flag marks the documents whose ``ratio`` fields reach
    the tail search (``verify`` replays from the unmutated stream, so a
    trace's ratios never do)."""
    tail = str(SPECS / "tail_start.json")
    trace = tmp_path / "valid.trace.json"
    assert main(["construct", "--stream", tail, "--steps", "3",
                 "--out", str(trace)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.json")
    construct = lambda path: ["construct", "--stream", path, "--steps", "3",
                              "--out", out]
    theorem = lambda path: ["theorem", "--stream", path]
    return [
        (construct, json.loads((SPECS / "tail_start.json").read_text()), 300,
         True),
        (construct, json.loads((SPECS / "dense_singletons.json").read_text()),
         200, True),
        (lambda path: ["verify", "--stream", tail, "--out", path],
         json.loads(trace.read_text()), 900, False),
        (theorem, json.loads((SPECS / "theorem_translation.json").read_text()),
         300, True),
        (theorem, json.loads((SPECS / "theorem_identity.json").read_text()),
         300, True),
    ]


def test_single_field_mutations_end_in_a_defined_exit_code(tmp_path, capsys):
    rng = Random(26)
    doc_path = tmp_path / "mutated.json"
    codes = {0: 0, 1: 0, 2: 0}
    for argv, doc, count, ratios in _cases(tmp_path, capsys):
        # the valid document itself passes
        doc_path.write_text(json.dumps(doc))
        assert _run(capsys, argv(str(doc_path))) == 0
        for _ in range(count):
            doc_path.write_text(json.dumps(mutate(doc, rng)))
            codes[_run(capsys, argv(str(doc_path)))] += 1
        for near in ratios_toward_one(doc) if ratios else ():
            doc_path.write_text(json.dumps(near))
            codes[_run(capsys, argv(str(doc_path)))] += 1
    # the corpus reaches every exit code
    assert min(codes.values()) >= 20, codes


@pytest.mark.parametrize("ratio, code", [
    ("999/1000", 0), ("9999/10000", 2), ("99999/100000", 2)])
def test_ratio_near_one_ends_quickly(tmp_path, ratio, code):
    stream = tmp_path / "stream.json"
    stream.write_text(json.dumps({"increments": [
        {"points": [], "tails": [{"limit": "0", "coeff": "1",
                                  "ratio": ratio, "headDrop": 0}]},
        {"points": ["1/3"], "tails": []},
        {"points": ["1/5"], "tails": []}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "qshift.cli", "construct",
         "--stream", str(stream), "--steps", "2",
         "--out", str(tmp_path / "trace.json")],
        capture_output=True, text=True, timeout=3)
    assert proc.returncode == code, proc.stderr
    # a term whose denominator has more than 4300 digits is refused
    assert proc.stderr.startswith("limit error:") if code else \
        proc.stderr == ""


# -- documents at the size limits, each run in its own interpreter -------------

DIGITS = 4300  # rationals._MAX_DIGITS: the longest numerator or denominator
IDENTITY_MAP = {"breakpoints": [["0", "0"]], "leftSlope": "1",
                "rightSlope": "1"}


def _tail(limit, coeff, ratio, drop=0):
    return {"limit": limit, "coeff": coeff, "ratio": ratio, "headDrop": drop}


def _nest(kind, depth, leaf):
    """``leaf`` wrapped in ``depth`` levels of a value or subgroup term."""
    for _ in range(depth):
        leaf = ({"conj": {"by": IDENTITY_MAP, "inner": leaf}}
                if kind == "conj" else {kind: [leaf]})
    return leaf


def _limit_cases(tmp_path):
    """(name, argv, exit code or None for any of 0, 1, 2) around every size
    limit of the readers: headDrop, digit counts, nesting, step counts, and
    tails sharing a limit whose covering progressions have periods around
    ``_AP_MODULUS_CAP``."""
    cases = []

    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def stream(name, increment, code, steps="3"):
        path = write(name, {"increments": [increment, {"points": ["1/3"],
                                                      "tails": []}]})
        cases.append((name, ["construct", "--stream", path, "--steps", steps,
                             "--out", str(tmp_path / f"{name}.trace")], code))

    def theorem(name, edit, code):
        blob = json.loads((SPECS / "theorem_identity.json").read_text())
        edit(blob)
        cases.append((name, ["theorem", "--stream", write(name, blob),
                             "--cases", "5"], code))

    # headDrop: the folded coefficient may have at most DIGITS digits
    for ratio, width in (("1/2", 1), ("10/11", 2)):
        last = (DIGITS - 1) // width
        for drop, code in ((0, 0), (64, None), (last, None), (last + 1, 2),
                           (10 ** 9, 2), (2 ** 64, 2)):
            stream(f"drop-{width}-{drop}",
                   {"points": [], "tails": [_tail("0", "1", ratio, drop)]},
                   code)
    # digit counts, in every field a stream or an instance reads
    for digits, code in ((DIGITS, None), (DIGITS + 1, 2)):
        big, small = "7" * digits, "1/" + "7" * digits
        stream(f"point-{digits}", {"points": [big, small], "tails": []}, code)
        stream(f"limit-{digits}",
               {"points": [], "tails": [_tail(small, "1", "1/2")]}, code)
        stream(f"coeff-{digits}",
               {"points": [], "tails": [_tail("0", small, "1/2")]}, code)
        stream(f"ratio-{digits}",
               {"points": [], "tails": [_tail("0", "1", small)]}, code)

        def atom(blob, value=big):
            blob["x"][0] = {"atom": value}
        theorem(f"atom-{digits}", atom, code)
    # nesting of values (in a stabilizer) and of subgroup terms: at most
    # 100 levels are read
    for depth in (99, 100, 101):
        code = 2 if depth > 100 else None
        for kind in ("set", "seq"):
            def nested(blob, kind=kind, depth=depth):
                blob["H"][0] = {"stab": _nest(kind, depth, {"atom": "1"})}
            theorem(f"{kind}-{depth}", nested, code)
        for kind in ("conj", "inter"):
            def nested(blob, kind=kind, depth=depth):
                blob["H"][0] = _nest(kind, depth, blob["H"][0])
            theorem(f"{kind}-{depth}", nested, code)
    # step counts: the option, a trace's N and its list of steps
    cases += [(f"steps-{steps}", ["construct", "--stream",
                                  str(SPECS / "empty.json"), "--steps", steps,
                                  "--out", str(tmp_path / "steps.trace")],
               code)
              for steps, code in (("10001", 2), (str(10 ** 30), 2),
                                  ("-1", 2))]
    valid = tmp_path / "valid.trace.json"
    empty = str(SPECS / "empty.json")
    assert main(["construct", "--stream", empty, "--steps", "2",
                 "--out", str(valid)]) == 0
    trace = json.loads(valid.read_text())
    for name, n, count, code in (("N-10000", 10000, 3, None),
                                 ("N-10001", 10001, 3, 2),
                                 ("steps-10002", 2, 10002, 2),
                                 ("index-10001", 2, 3, 2)):
        doc = copy.deepcopy(trace)
        doc["N"] = n
        doc["steps"] = [copy.deepcopy(doc["steps"][i % 3])
                        for i in range(count)]
        if name.startswith("index"):
            doc["steps"][2]["n"] = 10001
        cases.append((name, ["verify", "--stream", empty,
                             "--out", write(name, doc)], code))
    for digits, code in ((DIGITS, 1), (DIGITS + 1, 2)):
        doc = copy.deepcopy(trace)
        doc["steps"][1]["J"]["upper"] = "7" * digits
        cases.append((f"gap-{digits}", ["verify", "--stream", empty,
                                        "--out", write(f"gap-{digits}", doc)],
                      code))
    # tails sharing the limit 1 whose ratios 2^-b cover the terms of the
    # tail with ratio 1/2 with period lcm(b, ...), around 2^20
    for steps, code in (((1023, 1024), None), ((1024, 1025), 2),
                        ((1021, 1031), 2), ((2, 3, 5, 7, 11, 13), None)):
        covers = [_tail("1", "1", f"1/{2 ** b}") for b in steps]

        def groups(blob, covers=covers):
            blob["H"][0] = {"fix": {"points": ["0"],
                                    "tails": [_tail("1", "1", "1/2")]}}
            blob["H"][1] = {"fix": {"points": ["0"], "tails": covers}}
        theorem("period-" + "-".join(map(str, steps)), groups, code)
    return cases


def test_documents_at_the_size_limits_end_in_a_defined_exit_code(
        tmp_path, capsys):
    cases = _limit_cases(tmp_path)
    capsys.readouterr()
    codes = Counter()
    for name, argv, want in cases:
        proc = subprocess.run([sys.executable, "-m", "qshift.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        code = proc.returncode
        assert code in (0, 1, 2), (name, code, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr, (name, proc.stderr[-500:])
        if code == 2:
            assert proc.stdout == "", name
        if want is not None:
            assert code == want, (name, code, proc.stderr[:300])
        codes[code] += 1
    assert len(cases) >= 45 and min(codes.values()) >= 3, codes
