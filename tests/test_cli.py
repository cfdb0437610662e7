import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from random import Random

import pytest

from qshift import cli, serial
from qshift.cli import main
from qshift.construction import (EStream, EvacuationError, ShiftStep,
                                 ShiftTrace, rational_enum)
from qshift.ndsets import NDSet, ndset_points
from qshift.plmaps import PLMap
from qshift.rationals import LimitError, Q, QshiftError
from qshift.sampling import rng_geomtail, rng_rational
from qshift.serial import (SerializationError, canon_dumps, ndset_from_obj,
                           plmap_from_obj, stream_to_obj, write_json_file)
from qshift.theorem import CertificateError

SPECS = resources.files("qshift").joinpath("specs")


def run_cli(*argv):
    return main(list(argv))


def test_construct_empty_stream(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run_cli("construct", "--stream", str(SPECS / "empty.json"),
                   "--steps", "3", "--out", str(out))
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["passed"] is True and summary["steps"] == 4
    trace = json.loads(out.read_text())
    assert all(step["pi"]["breakpoints"] == [["0", "0"]]
               for step in trace["steps"])


def test_construct_then_verify(tmp_path, capsys):
    out = tmp_path / "trace.json"
    spec = str(SPECS / "dense_singletons.json")
    assert run_cli("construct", "--stream", spec, "--steps", "8",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--stream", spec, "--out", str(out)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["command"] == "verify" and summary["passed"] is True
    assert summary["checks"] > 100


def test_verify_rejects_corrupted_trace(tmp_path, capsys):
    from fractions import Fraction
    out = tmp_path / "trace.json"
    spec = str(SPECS / "dense_singletons.json")
    run_cli("construct", "--stream", spec, "--steps", "6", "--out", str(out))
    blob = json.loads(out.read_text())
    pi = blob["steps"][3]["pi"]
    # still a valid map, but it translates everything a mile away
    pi["breakpoints"] = [[x, str(Fraction(y) + 10 ** 6)]
                         for x, y in pi["breakpoints"]]
    out.write_text(json.dumps(blob))
    capsys.readouterr()
    code = run_cli("verify", "--stream", spec, "--out", str(out))
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    failed = [json.loads(l) for l in lines if not json.loads(l).get("ok", True)]
    names = {f["check"] for f in failed}
    assert "fixes-shifted" in names or "sigma-telescoping" in names


def test_verify_unreadable_inputs(tmp_path):
    spec = str(SPECS / "dense_singletons.json")
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run_cli("verify", "--stream", spec, "--out", str(empty)) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("verify", "--stream", spec, "--out", str(broken)) == 2
    missing_keys = tmp_path / "keys.json"
    missing_keys.write_text('{"steps": []}')
    assert run_cli("verify", "--stream", spec, "--out", str(missing_keys)) == 2
    assert run_cli("construct", "--stream", str(broken), "--steps", "2",
                   "--out", str(tmp_path / "t.json")) == 2


def test_verify_wrong_stream_fails_hash(tmp_path, capsys):
    out = tmp_path / "trace.json"
    run_cli("construct", "--stream", str(SPECS / "dense_singletons.json"),
            "--steps", "5", "--out", str(out))
    capsys.readouterr()
    code = run_cli("verify", "--stream", str(SPECS / "tail_start.json"),
                   "--out", str(out))
    assert code == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert any(rec.get("check") == "stream-hash" and rec["ok"] is False
               for rec in lines)


def test_golden_traces_reproduced(tmp_path):
    cases = [("empty.json", 3, "empty_N3.trace.json"),
             ("dense_singletons.json", 10, "dense_singletons_N10.trace.json")]
    for spec, steps, golden in cases:
        golden_bytes = (SPECS / "golden" / golden).read_bytes()
        for attempt in (1, 2, 3):
            out = tmp_path / f"{golden}.{attempt}"
            code = run_cli("construct", "--stream", str(SPECS / spec),
                           "--steps", str(steps), "--out", str(out))
            assert code == 0
            assert out.read_bytes() == golden_bytes, (spec, attempt)


def test_golden_trace_pure_backend(tmp_path):
    golden_bytes = (SPECS / "golden" /
                    "dense_singletons_N10.trace.json").read_bytes()
    out = tmp_path / "pure.json"
    env = dict(os.environ, QSHIFT_BACKEND="pure")
    proc = subprocess.run(
        [sys.executable, "-m", "qshift.cli", "construct",
         "--stream", str(SPECS / "dense_singletons.json"),
         "--steps", "10", "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == golden_bytes


def test_theorem_bundled_instances(capsys):
    for name in ("theorem_identity.json", "theorem_translation.json"):
        code = run_cli("theorem", "--stream", name, "--cases", "30")
        assert code == 0, name
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["passed"] is True


def test_theorem_corrupted_tau(tmp_path, capsys):
    blob = json.loads((SPECS / "theorem_translation.json").read_text())
    blob["tau"][2]["breakpoints"] = [["0", "1"]]  # translation by 1, not 3
    bad = tmp_path / "bad_instance.json"
    bad.write_text(json.dumps(blob))
    code = run_cli("theorem", "--stream", str(bad))
    assert code == 1


def test_theorem_missing_file():
    assert run_cli("theorem", "--stream", "no_such_instance.json") == 2


def test_props_small(capsys):
    code = run_cli("props", "--seed", "0", "--cases", "5")
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[-1]["command"] == "props" and lines[-1]["passed"] is True
    assert all(rec["ok"] for rec in lines[:-1])


def test_props_zero_cases_vacuous(capsys):
    assert run_cli("props", "--seed", "3", "--cases", "0") == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert all(rec.get("cases", 0) == 0 for rec in lines[:-1])


def test_props_seed_variation(capsys):
    for seed in ("1", "2", "3"):
        assert run_cli("props", "--seed", seed, "--cases", "8") == 0
        capsys.readouterr()


def test_verify_rejects_misnumbered_steps(tmp_path, capsys):
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "3",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    for step, n in ((0, -1), (2, 3), (1, 0)):
        bad = json.loads(json.dumps(blob))
        bad["steps"][step]["n"] = n
        path = tmp_path / f"bad{step}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert run_cli("verify", "--stream", spec, "--out", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


def test_oversized_integer_literal_is_input_error(tmp_path, capsys):
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "2",
                   "--out", str(out)) == 0
    # json.load refuses integers over Python's 4300-digit conversion limit
    text = out.read_text()
    big = tmp_path / "big_n.json"
    big.write_text(text.replace('"N":2', '"N":' + "9" * 5000, 1))
    assert big.read_text() != text
    capsys.readouterr()
    assert run_cli("verify", "--stream", spec, "--out", str(big)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_head_drop_bounded_at_parse_time(tmp_path, capsys):
    for drop in (100000, 10 ** 12):
        stream = tmp_path / f"drop{drop}.json"
        stream.write_text(json.dumps({"increments": [{"points": [], "tails": [
            {"limit": "0", "coeff": "1", "ratio": "1/2",
             "headDrop": drop}]}]}))
        capsys.readouterr()
        code = run_cli("construct", "--stream", str(stream), "--steps", "1",
                       "--out", str(tmp_path / "t.json"))
        assert code == 2, drop
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "headDrop" in err
    # a drop well inside the bound still folds into the coefficient
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"increments": [{"points": [], "tails": [
        {"limit": "0", "coeff": "1", "ratio": "1/2", "headDrop": 40}]}]}))
    assert run_cli("construct", "--stream", str(ok), "--steps", "1",
                   "--out", str(tmp_path / "t.json")) == 0


def test_negative_counts_rejected_at_parse_time(tmp_path):
    out = tmp_path / "trace.json"
    for argv in (["construct", "--stream", str(SPECS / "empty.json"),
                  "--steps", "-1", "--out", str(out)],
                 ["props", "--cases", "-1"],
                 ["theorem", "--stream", "theorem_identity.json",
                  "--cases", "-3"]):
        proc = subprocess.run([sys.executable, "-m", "qshift.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2, argv
        assert "must be nonnegative" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not out.exists()


def test_unwritable_out_is_input_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qshift.cli", "construct",
         "--stream", str(SPECS / "empty.json"), "--steps", "1",
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: cannot write")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _cli(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "qshift.cli", *argv],
                          capture_output=True, text=True, env=env)


def _assert_input_error(proc, needle):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and needle in proc.stderr
    assert "Traceback" not in proc.stderr


def test_theorem_flags_a_non_decreasing_chain(tmp_path):
    # H_1 = the full group is not inside H_0 = Fix({0}); the full group
    # normalizes to Fix of the empty set, so the pair is decided exactly
    blob = json.loads((SPECS / "theorem_identity.json").read_text())
    blob["H"][1] = "full"
    bad = tmp_path / "full_h1.json"
    bad.write_text(json.dumps(blob))
    proc = _cli("theorem", "--stream", str(bad))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stderr) == {"failedClaim": "decreasing", "n": 0}
    records = [rec for rec in map(json.loads, proc.stdout.splitlines())
               if rec.get("check") == "decreasing"]
    assert [rec["n"] for rec in records] == [0, 1, 2]
    assert [rec["ok"] for rec in records] == [False, True, True]


def test_theorem_flags_a_stab_group_above_its_predecessor(tmp_path):
    # Stab(atom 1) = Fix({1}) is not inside H_0 = Fix({0}); decided
    # exactly, so every seed flags it with the moved point 0
    blob = json.loads((SPECS / "theorem_identity.json").read_text())
    blob["H"][1] = {"stab": {"atom": "1"}}
    bad = tmp_path / "stab_h1.json"
    bad.write_text(json.dumps(blob))
    for seed in range(10):
        proc = _cli("theorem", "--stream", str(bad), "--seed", str(seed))
        assert proc.returncode == 1, (seed, proc.stderr)
        assert json.loads(proc.stderr) == {"failedClaim": "decreasing",
                                           "n": 0}
        first = [rec for rec in map(json.loads, proc.stdout.splitlines())
                 if rec.get("check") == "decreasing" and rec["n"] == 0]
        assert first == [{"check": "decreasing", "detail": "witness 0",
                          "mode": "exact", "n": 0, "ok": False}], seed


def _tail(coeff, ratio):
    return {"limit": "0", "coeff": coeff, "ratio": ratio, "headDrop": 0}


def _theorem_with_groups(tmp_path, name, supports):
    """theorem_identity.json with H[n] = Fix(supports[n]) for each given n."""
    blob = json.loads((SPECS / "theorem_identity.json").read_text())
    for n, (points, tails) in enumerate(supports):
        blob["H"][n] = {"fix": {"points": points, "tails": tails}}
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


def test_theorem_decides_containment_across_power_ratio_tails(tmp_path):
    # every 8^-k is a term of 4^-j or of (1/2) * 4^-j, although neither
    # 1/8 nor 1/4 is a power of the other, so the chain decreases
    quarters = [_tail("1", "1/4"), _tail("1/2", "1/4")]
    path = _theorem_with_groups(tmp_path, "eighths.json", [
        (["0"], [_tail("1", "1/8")]), (["0"], quarters),
        (["0", "2"], quarters), (["0", "2", "3"], quarters)])
    proc = _cli("theorem", "--stream", str(path))
    assert proc.returncode == 1, proc.stderr
    # claim 2 fails for real: the branch's atoms 1 and 4 are not fixed
    assert json.loads(proc.stderr) == {"failedClaim": "claim2", "n": 1}
    records = [json.loads(line) for line in proc.stdout.splitlines()[:-1]]
    assert [r["ok"] for r in records if r["check"] == "decreasing"] == \
        [True] * 3
    assert [(r["n"], r["detail"]) for r in records if not r["ok"]] == \
        [(1, "witness 1/2"), (2, "witness 1/4"), (3, "witness 1/4")]


def test_theorem_slow_tail_beside_a_near_point_is_decided(tmp_path):
    # the point 10^-9 crowds the limit of a tail with ratio 999/1000 for
    # about 20,700 terms; neither answer needs to walk them
    slow = [_tail("1", "999/1000")]
    near = ["0", "1/1000000000"]
    for supports, decreasing, detail in (
            ([(["0"], slow), (near, slow)], True, None),
            ([(["0"], slow), (near, [])], False, "witness 1")):
        path = _theorem_with_groups(tmp_path, "slow.json", supports)
        proc = subprocess.run(
            [sys.executable, "-m", "qshift.cli", "theorem", "--stream",
             str(path)], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        first = [json.loads(line) for line in proc.stdout.splitlines()
                 if '"decreasing"' in line][0]
        assert first["ok"] is decreasing and first.get("detail") == detail


def test_theorem_past_the_period_cap_is_a_limit_error(tmp_path):
    # tails with ratios 2^-p for the primes p up to 19 cover the powers of
    # 1/2 with period 9,699,690, past the 2^20 the containment test allows
    covers = [_tail("1", f"1/{2 ** p}") for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    path = _theorem_with_groups(tmp_path, "period.json", [
        (["0"], [_tail("1", "1/2")]), (["0"], covers)])
    proc = subprocess.run(
        [sys.executable, "-m", "qshift.cli", "theorem", "--stream",
         str(path)], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("limit error:")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_integer_options_take_ascii_digits_only(tmp_path):
    out = tmp_path / "trace.json"
    theorem = ["theorem", "--stream", "theorem_identity.json"]
    for argv in (["props", "--seed", "\u0661", "--cases", "\u0663"],
                 ["props", "--seed", "1_0", "--cases", "1"],
                 ["props", "--cases", " 3"],
                 ["props", "--cases", "+3"],
                 ["props", "--seed", "3\n"],
                 theorem + ["--seed", "\u0661"],
                 theorem + ["--cases", "2_5"],
                 ["construct", "--stream", str(SPECS / "empty.json"),
                  "--steps", "\u0663", "--out", str(out)]):
        proc = _cli(*argv)
        assert proc.returncode == 2, argv
        assert "not an integer" in proc.stderr, argv
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not out.exists()
    # a seed may be negative, and the benchmark's theorem options still work
    assert _cli("props", "--seed", "-4", "--cases", "1").returncode == 0
    assert _cli(*theorem, "--seed", "-1", "--cases", "250").returncode == 0


def test_construct_steps_capped_at_parse_time(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qshift.cli", "construct",
         "--stream", str(SPECS / "tail_start.json"),
         "--steps", "100000000", "--out", str(out)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert f"must be at most {cli._MAX_STEPS}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not out.exists()
    assert cli.step_count(str(cli._MAX_STEPS)) == cli._MAX_STEPS
    with pytest.raises(argparse.ArgumentTypeError):
        cli.step_count(str(cli._MAX_STEPS + 1))


def test_trace_read_is_capped_at_the_construct_step_cap(
        monkeypatch, tmp_path, capsys):
    # the longest trace construct writes is read; one step more, or a
    # header N past the cap, is refused before any step is replayed
    spec = str(SPECS / "empty.json")
    out = tmp_path / "trace.json"
    cap = cli._MAX_STEPS
    assert run_cli("construct", "--stream", spec, "--steps", str(cap),
                   "--out", str(out)) == 0
    capsys.readouterr()
    blob = json.loads(out.read_text())
    assert blob["N"] == cap and len(blob["steps"]) == cap + 1
    trace, _, n = serial.trace_from_obj(blob)
    assert n == cap and len(trace.steps) == cap + 1

    # verify prints a row per (set, gap) pair: a replay this long would
    # write about 10**8 lines, so reaching it fails at once
    def replay(trace, stream):
        raise AssertionError("a trace past the step cap was replayed")

    monkeypatch.setattr(cli, "verify_shift_trace", replay)
    extra = dict(blob["steps"][-1], n=cap + 1)
    for edit, layout in itertools.product(
            ({"N": cap + 1}, {"steps": blob["steps"] + [extra]},
             {"N": cap + 1, "steps": blob["steps"] + [extra]}), (0, 1)):
        out.write_text(_layouts({**blob, **edit})[layout])
        assert run_cli("verify", "--stream", spec, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: malformed trace: N and every "
                                "step index must be at most 10000\n")


def test_construct_coefficient_past_text_limit_is_input_error(tmp_path):
    # the shifted tails' coefficients outgrow the 4300 digits a rational
    # literal may have, although every parsed literal is shorter; with
    # CPython's int <-> str limit off ("0"), only rat_str's cap refuses
    coeff = "1/" + "7" * 4299
    stream = tmp_path / "stream.json"
    stream.write_text(json.dumps({"increments": [
        {"points": ["0", "1/2", "1/3"], "tails": []},
        {"points": [], "tails": [{"limit": "1/7", "coeff": coeff,
                                  "ratio": "1/2", "headDrop": 0}]},
        {"points": ["1/5", "2/9"], "tails": [
            {"limit": "3/11", "coeff": "-" + coeff, "ratio": "2/3",
             "headDrop": 0}]}]}))
    out = tmp_path / "trace.json"
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONINTMAXSTRDIGITS"}
    for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}):
        proc = _cli("construct", "--stream", str(stream), "--steps", "1",
                    "--out", str(out), env={**env, **limit})
        _assert_input_error(proc, "more than 4300 digits")
        assert not out.exists()


# sha256 of the stdout of the checks commands and of verify: a change that
# keeps their records keeps these bytes.  theorem prints the same records
# for both bundled instances and every seed.  {trace} is dense_singletons
# constructed through step 10; {tampered} is that trace with J_6 moved onto
# the shifted point 117/418, which fails four gap-disjoint records
CHECKS_STDOUT_SHA256 = {
    ("theorem", "--stream", "theorem_identity.json", "--seed", "0",
     "--cases", "250"):
        "8f546270920881daa2801b8b18a66123b33835ff69345086222a0a5d0109af8b",
    ("theorem", "--stream", "theorem_identity.json", "--seed", "5",
     "--cases", "250"):
        "8f546270920881daa2801b8b18a66123b33835ff69345086222a0a5d0109af8b",
    ("theorem", "--stream", "theorem_translation.json", "--seed", "0",
     "--cases", "250"):
        "8f546270920881daa2801b8b18a66123b33835ff69345086222a0a5d0109af8b",
    ("theorem", "--stream", "theorem_translation.json", "--seed", "5",
     "--cases", "250"):
        "8f546270920881daa2801b8b18a66123b33835ff69345086222a0a5d0109af8b",
    ("props", "--seed", "0", "--cases", "50"):
        "26f559230e5be66bfde2989fe58a2af93e3ccc9df311f900d93fc7745792e634",
    ("verify", "--stream", "dense_singletons.json", "--out", "{trace}"):
        "5b8c40f9189840dcdd6e1c6d0cb7be299b6d37c02f6f454892838a8ffe8c3b54",
    ("verify", "--stream", "dense_singletons.json", "--out", "{tampered}"):
        "1d338f62c21c9375d6d442846e1f88ca332027cbf3b10069cf2b8ce3fc2a9660",
}


def test_checks_stdout_bytes_pinned(tmp_path, capsys):
    trace, tampered = tmp_path / "trace.json", tmp_path / "tampered.json"
    assert run_cli("construct", "--stream", "dense_singletons.json",
                   "--steps", "10", "--out", str(trace)) == 0
    blob = json.loads(trace.read_text())
    assert blob["steps"][6]["J"] == {"lower": "1/3", "upper": "2/5"}
    assert "117/418" in blob["steps"][7]["shifted"]["points"]
    blob["steps"][6]["J"] = {"lower": "1/4", "upper": "2/5"}
    tampered.write_text(json.dumps(blob))
    capsys.readouterr()
    for argv, digest in CHECKS_STDOUT_SHA256.items():
        code = run_cli(*(a.format(trace=trace, tampered=tampered)
                         for a in argv))
        assert code == (1 if "{tampered}" in argv else 0), argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, \
            argv


# sha256 of props stdout for more (seed, cases) pairs: the samplers must
# draw the same values, and each suite must test the same laws in order
PROPS_STDOUT_SHA256 = {
    (1, 50): "e4d023ae5ec9619c7b134b31d0db714678252f3e087ac7e1feacef6b611ab416",
    (2, 50): "8dc69e3b9193ad232d2f7eeab9834de798ec7ad038bfe5be7e3282358d021455",
    (7, 50): "160a1ab4feb9f2a974f128cf5de362fdbb3c361522c6d6813bc08c38c93dad46",
    (11, 50): "fdebeed9bf213672c7f4ca3daa61ed5b0d7c2074df9ac8f65ef95a09d3efef89",
    (12345, 50):
        "5f33c3af5a67b591ff3379b15c5f27ccebdaf27baa7cc4f48c7d8a03670ed66b",
    (9, 13): "deb0a72a417cc17c95ce6ce09462a7cfcf4fa6db59bf735fa5d70547f56b8f3a",
    (0, 1): "9c1ff3c07a8f2e78f54f81ddce9e60580302b443984bac4b887864d3f99338e1",
    (3, 200): "508edcf2bf775f27402b5308a2b6592ea186438587d641c2a138fd05dbf60c29",
}


def test_props_stdout_bytes_pinned(capsys):
    for (seed, cases), digest in PROPS_STDOUT_SHA256.items():
        assert run_cli("props", "--seed", str(seed), "--cases",
                       str(cases)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


_IMAGE, _INVERT = NDSet.image, PLMap.invert


def _lossy_image(self, f):
    # drops the last point of every image with two points or more
    img = _IMAGE(self, f)
    return img if len(img.points) < 2 else NDSet(img.points[:-1], img.tails)


def _lossy_invert(self):
    # returns a map with three breakpoints or more unchanged
    return self if len(self.breakpoints) > 2 else _INVERT(self)


# props stdout with a law broken on purpose: every failing suite's shrunk
# counterexample bytes.  The broken image fails ndset-equivariance,
# closure-coherence, hfa-support-sufficiency, subgroup-conj-routes and
# construction-roundtrip; the broken inverse fails group-laws and
# subgroup-conj-routes
BROKEN_PROPS_STDOUT_SHA256 = [
    (NDSet, "image", _lossy_image,
     "81e50a7d143e3d43510a73e7d06e03bb8402fc44800ce893542ad8a778c4e888"),
    (PLMap, "invert", _lossy_invert,
     "9cf88687c4005673c414f81e3bffb2d7599018b11f8915daa9d1e3d23996fc6f"),
]


def test_props_counterexamples_pinned(monkeypatch, capsys):
    for cls, attr, broken, digest in BROKEN_PROPS_STDOUT_SHA256:
        monkeypatch.setattr(cls, attr, broken)
        assert run_cli("props", "--seed", "0", "--cases", "50") == 1
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, attr


def _nested(inner, depth, wrap):
    for _ in range(depth):
        inner = wrap(inner)
    return inner


def test_deeply_nested_input_is_input_error(tmp_path):
    identity = {"breakpoints": [["0", "0"]], "leftSlope": "1",
                "rightSlope": "1"}
    blob = json.loads((SPECS / "theorem_identity.json").read_text())
    deep_value = dict(blob, x=[_nested({"atom": "0"}, 300,
                                       lambda v: {"set": [v]})] + blob["x"])
    deep_term = dict(blob, H=blob["H"][:1] + [_nested(
        blob["H"][1], 300,
        lambda t: {"conj": {"by": identity, "inner": t}})] + blob["H"][2:])
    for name, inst, needle in (
            ("value", deep_value, "malformed value: nested more than 100"),
            ("term", deep_term, "malformed subgroup term: nested more than")):
        path = tmp_path / f"deep_{name}.json"
        path.write_text(json.dumps(inst))
        _assert_input_error(_cli("theorem", "--stream", str(path)), needle)
    # a stream spec deeper than the JSON decoder recurses
    stream = tmp_path / "deep_stream.json"
    stream.write_text('{"increments": ' + "[" * 2000 + "]" * 2000 + "}")
    _assert_input_error(
        _cli("construct", "--stream", str(stream), "--steps", "1",
             "--out", str(tmp_path / "trace.json")),
        "maximum recursion depth exceeded")


def test_nesting_up_to_the_limit_is_read(tmp_path, capsys):
    identity = {"breakpoints": [["0", "0"]], "leftSlope": "1",
                "rightSlope": "1"}
    blob = json.loads((SPECS / "theorem_identity.json").read_text())
    # H_1 still Fix({0}), H_2 and H_3 both Fix({0, 1, 2}), after 100
    # levels of nesting
    base = blob["H"][3]
    blob["H"][1] = {"stab": _nested({"atom": "0"}, 100,
                                    lambda v: {"seq": [v]})}
    blob["H"][2] = _nested(base, 100, lambda t: {"inter": [t]})
    blob["H"][3] = _nested(base, 100,
                           lambda t: {"conj": {"by": identity, "inner": t}})
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(blob))
    assert run_cli("theorem", "--stream", str(path)) == 0
    capsys.readouterr()
    for n, deeper in ((1, {"stab": {"set": [blob["H"][1]["stab"]]}}),
                      (3, {"inter": [blob["H"][3]]})):
        path.write_text(json.dumps(dict(
            blob, H=blob["H"][:n] + [deeper] + blob["H"][n + 1:])))
        assert run_cli("theorem", "--stream", str(path)) == 2, n
        assert "nested more than 100 levels" in capsys.readouterr().err


def test_non_ascii_digits_are_input_error(tmp_path):
    stream = tmp_path / "digits.json"
    stream.write_text(json.dumps(
        {"increments": [{"points": ["\u0661/\u0663"], "tails": []}]}))
    out = tmp_path / "trace.json"
    _assert_input_error(_cli("construct", "--stream", str(stream), "--steps",
                             "1", "--out", str(out)), "not a rational literal")
    assert not out.exists()


def test_construct_prints_only_its_failed_checks_to_stderr(
        monkeypatch, tmp_path, capsys):
    build = cli.run_shift_construction

    def moved_pi_3(stream, upto):
        steps = list(build(stream, upto).steps)
        s = steps[3]
        steps[3] = ShiftStep(s.n, s.interval, s.gap,
                             PLMap([(Q(0), Q(10 ** 6))], Q(1), Q(1)),
                             s.sigma_next, s.shifted)
        return ShiftTrace(steps)

    out = str(tmp_path / "trace.json")
    monkeypatch.setattr(cli, "run_shift_construction", moved_pi_3)
    assert run_cli("construct", "--stream", "dense_singletons.json",
                   "--steps", "8", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err
    # the same lines verify prints for the failed checks of that trace
    assert run_cli("verify", "--stream", "dense_singletons.json",
                   "--out", out) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()[:-1]
              if not json.loads(line)["ok"]]
    assert captured.err.splitlines() == failed


def test_rational_digit_cap_holds_without_the_int_str_limit(tmp_path):
    # PYTHONINTMAXSTRDIGITS=0 lifts CPython's own 4300-digit limit on
    # int(), so only parse_rational's explicit cap refuses the longer point
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
    for digits, code in ((4300, 0), (4301, 2)):
        stream = tmp_path / f"point{digits}.json"
        stream.write_text(json.dumps({"increments": [
            {"points": ["0"], "tails": []},
            {"points": ["1/" + "7" * digits], "tails": []}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "qshift.cli", "construct",
             "--stream", str(stream), "--steps", "2",
             "--out", str(tmp_path / f"trace{digits}.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == code, (digits, proc.stderr)
        assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert "more than 4300 digits" in proc.stderr


@pytest.mark.parametrize("error, code, line", [
    (SerializationError("no such spec file: x.json"), 2,
     "input error: no such spec file: x.json"),
    (LimitError("the least power of a tail ratio below a bound has more "
                "than 4300 digits"), 2,
     "limit error: the least power of a tail ratio below a bound has more "
     "than 4300 digits"),
    (EvacuationError(Q(1), (Q(0), Q(2))), 1,
     "evacuation error: closure point 1 lies in blocked interval [0, 2]"),
    (CertificateError(2, "tau does not map the base prefix"), 1,
     "certificate error: certificate invalid at index 2: tau does not map "
     "the base prefix"),
], ids=["SerializationError", "LimitError", "EvacuationError",
        "CertificateError"])
def test_error_exits_with_its_code_without_traceback(
        monkeypatch, tmp_path, capsys, error, code, line):
    def refuse(stream, upto):
        raise error

    out = tmp_path / "trace.json"
    monkeypatch.setattr(cli, "run_shift_construction", refuse)
    for argv in (["construct", "--stream", "dense_singletons.json",
                  "--steps", "3", "--out", str(out)],
                 ["theorem", "--stream", "theorem_identity.json"]):
        assert run_cli(*argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"
    assert not out.exists()


def test_construct_writes_no_file_for_a_trace_with_no_text(
        monkeypatch, tmp_path, capsys):
    # the whole text is built before --out is opened
    real = cli.run_shift_construction
    huge = Q(1, 3 ** 9100)

    def grow(stream, upto):
        steps = list(real(stream, upto).steps)
        last = steps[-1]
        steps[-1] = ShiftStep(last.n, last.interval, last.gap, last.pi,
                              last.sigma_next, NDSet([huge], []))
        return ShiftTrace(steps)

    out = tmp_path / "trace.json"
    monkeypatch.setattr(cli, "run_shift_construction", grow)
    assert run_cli("construct", "--stream", "dense_singletons.json",
                   "--steps", "3", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: step 3 holds a rational of more "
                            "than 4300 digits, which has no text form\n")
    assert not out.exists()


def test_boolean_head_drop_is_input_error(tmp_path):
    # JSON true would otherwise pass as the int 1
    stream = tmp_path / "stream.json"
    stream.write_text(json.dumps({"increments": [{"points": [], "tails": [
        {"limit": "0", "coeff": "1", "ratio": "1/2", "headDrop": True}]}]}))
    proc = _cli("construct", "--stream", str(stream), "--steps", "1",
                "--out", str(tmp_path / "t.json"))
    _assert_input_error(proc, "headDrop")


def _verify_edited_trace(tmp_path, old, new):
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert _cli("construct", "--stream", spec, "--steps", "1",
                "--out", str(out)).returncode == 0
    text = out.read_text()
    assert old in text
    out.write_text(text.replace(old, new, 1))
    return _cli("verify", "--stream", spec, "--out", str(out))


def test_boolean_trace_header_n_is_input_error(tmp_path):
    # with two steps, "N": true would compare equal to the header's 1
    _assert_input_error(_verify_edited_trace(tmp_path, '"N":1,', '"N":true,'),
                        "trace header")


def test_boolean_step_n_is_input_error(tmp_path):
    _assert_input_error(_verify_edited_trace(tmp_path, '"n":1,', '"n":true,'),
                        "n must be an int")


def test_empty_trace_or_negative_n_is_input_error(tmp_path):
    # the header of an empty trace can match it, yet it certifies nothing
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert _cli("construct", "--stream", spec, "--steps", "1",
                "--out", str(out)).returncode == 0
    blob = json.loads(out.read_text())
    for edit, needle in (({"N": -1, "steps": []}, "steps must not be empty"),
                         ({"N": -1}, "N must be nonnegative")):
        out.write_text(json.dumps({**blob, **edit}))
        _assert_input_error(_cli("verify", "--stream", spec, "--out", str(out)),
                            needle)


def test_short_or_empty_certificate_is_input_error(tmp_path):
    # fewer declared groups than certificate levels, or no levels at all,
    # end at parse time rather than inside the claim checks
    blob = json.loads((SPECS / "theorem_identity.json").read_text())
    bad = tmp_path / "bad_instance.json"
    for edit, needle in (({"H": blob["H"][:1]}, "one group per entry of x"),
                         ({"H": []}, "one group per entry of x"),
                         ({"x": [], "t": [], "tau": []},
                          "x must not be empty")):
        bad.write_text(json.dumps({**blob, **edit}))
        _assert_input_error(_cli("theorem", "--stream", str(bad)), needle)


def test_report_and_trace_bytes_match_json_dumps(tmp_path, capsys):
    from qshift.serial import canon_dumps

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    out = tmp_path / "trace.json"
    spec = str(SPECS / "tail_start.json")
    assert run_cli("construct", "--stream", spec, "--steps", "6",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--stream", spec, "--out", str(out)) == 0
    text = capsys.readouterr().out
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) > 50 and records[-1]["command"] == "verify"
    assert text == "".join(dumps(r) + "\n" for r in records)
    assert [canon_dumps(r) for r in records] == [dumps(r) for r in records]
    trace = json.loads(out.read_text())
    assert out.read_text() == canon_dumps(trace) + "\n" == dumps(trace) + "\n"


def test_verify_rejects_unbounded_gap(tmp_path, capsys):
    # the gap-disjoint sweep tests every J as a closed interval
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "1",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    for end in ("lower", "upper"):
        bad = json.loads(json.dumps(blob))
        bad["steps"][1]["J"][end] = None
        path = tmp_path / f"open_{end}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert run_cli("verify", "--stream", spec, "--out", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "J must be bounded" in err


def _json_paths(obj, path=()):
    """Paths to every dict value and list item below ``obj``."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def test_verify_survives_every_field_mutation(tmp_path, capsys):
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "3",
                   "--out", str(out)) == 0
    text = out.read_text()
    blob = json.loads(text)
    bad = tmp_path / "bad.json"
    codes = {}
    for path in _json_paths(blob):
        for value in (None, 7, [], {}, "1/0", "2"):
            mutated = json.loads(text)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            if node[path[-1]] == value:
                continue
            node[path[-1]] = value
            bad.write_text(json.dumps(mutated))
            code = run_cli("verify", "--stream", spec, "--out", str(bad))
            assert code in (1, 2), (path, value)
            codes[code] = codes.get(code, 0) + 1
    capsys.readouterr()
    assert codes[1] >= 50 and codes[2] >= 500, codes


# -- verify decodes a recorded sigma_next or shifted only on a mismatch -------

def eager_trace_from_obj(o):
    """Reference reader: the trace as trace_from_obj reads it, with every
    recorded shifted set and sigma_next map decoded at once, in the order
    verify compares them (step by step, shifted first), from the parsed
    document."""
    trace, recorded_hash, n = serial.trace_from_obj(o)
    steps = []
    for s, raw in zip(trace.steps, o["steps"]):
        shifted = ndset_from_obj(raw["shifted"])
        steps.append(ShiftStep(s.n, s.interval, s.gap, s.pi,
                               plmap_from_obj(raw["sigma_next"]), shifted))
    return ShiftTrace(steps), recorded_hash, n


def _refuse_text(text):
    raise serial.TextMismatch


# verify's trace readers: the text reader with its json fallback, the json
# path alone, and the json path with the eager reference reader
READERS = ((serial.trace_from_text, serial.trace_from_obj),
           (_refuse_text, serial.trace_from_obj),
           (_refuse_text, eager_trace_from_obj))


def verify_three_ways(monkeypatch, capsys, spec, trace):
    """verify's (exit code, stdout, stderr), asserted equal through each
    of READERS."""
    runs = []
    for text_reader, obj_reader in READERS:
        with monkeypatch.context() as m:
            m.setattr(cli, "trace_from_text", text_reader)
            m.setattr(cli, "trace_from_obj", obj_reader)
            capsys.readouterr()
            code = run_cli("verify", "--stream", str(spec), "--out", str(trace))
            runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]
    return runs[0]


def _layouts(obj):
    """A trace object written as construct writes it and as json.dumps
    writes it."""
    return canon_dumps(obj) + "\n", json.dumps(obj)


def _stream_files(tmp_path):
    """A singleton stream like qbench's point_stream and seeded tail
    streams, written as spec files, with the last step to construct."""
    point = EStream([ndset_points(rational_enum(i)) for i in range(22)])
    rng = Random(2026)
    streams = [(point, 20)] + [
        (EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                  for _ in range(10)]), 8) for _ in range(3)]
    for i, (s, upto) in enumerate(streams):
        path = tmp_path / f"stream{i}.json"
        write_json_file(str(path), stream_to_obj(s))
        yield path, upto


def _corpus_files(tmp_path):
    """The streams of the tampered-record corpus, with the last step to
    construct: the bundled specs, the 60-step singleton stream and seeded
    streams of one point and one tail per increment, the last two written
    as spec files."""
    for name in ("dense_singletons.json", "tail_start.json", "empty.json"):
        yield SPECS / name, 15
    rng = Random(2424)
    streams = [(EStream([ndset_points(rational_enum(i)) for i in range(62)]),
                60)] + [
        (EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                  for _ in range(14)]), 12) for _ in range(6)]
    for i, (s, upto) in enumerate(streams):
        path = tmp_path / f"corpus{i}.json"
        write_json_file(str(path), stream_to_obj(s))
        yield path, upto


def _json_path_reads(monkeypatch):
    """The list to which each call of ``cli.parse_json_text``, the json
    path's parse of a trace, appends the path read.  Of verify_three_ways'
    runs, the json path alone and the eager reader parse once each; the
    text path parses only when it falls back."""
    calls = []
    real = cli.parse_json_text
    monkeypatch.setattr(cli, "parse_json_text", lambda text, path: (
        calls.append(path) or real(text, path)))
    return calls


def _not_json(blob, k, key):
    """The canonical text of the trace ``blob`` with step ``k``'s ``key``
    record cut short by its closing brace: the text path finds the span
    where the layout puts it, and the span is not JSON."""
    edited = json.loads(json.dumps(blob))
    edited["steps"][k][key] = "cut"
    return _layouts(edited)[0].replace(
        '"cut"', canon_dumps(blob["steps"][k][key])[:-1], 1)


def _verify_not_json(monkeypatch, capsys, spec, bad, reads):
    """verify on a trace holding a record that is not JSON: the text path
    falls back, and the json path refuses the file."""
    reads.clear()
    code, text, err = verify_three_ways(monkeypatch, capsys, spec, bad)
    assert (code, text) == (2, "") and err.startswith(
        f"input error: cannot read {bad}: ")
    assert len(reads) == 3


def _tampered_shifted(rec):
    """(label, record, expected exit) for each applicable edit of a
    recorded shifted set: equal sets out of normal form, malformed head
    drops and an unequal set."""
    def edit(fn):
        out = json.loads(json.dumps(rec))
        fn(out)
        return out
    if len(rec["points"]) > 1:
        yield "reordered", edit(lambda r: r["points"].reverse()), 0
    if rec["tails"]:
        t = rec["tails"][0]
        term = Fraction(t["limit"]) + Fraction(t["coeff"]) * Fraction(t["ratio"])
        yield "point on tail", edit(lambda r: r["points"].append(str(term))), 0

        def drop_head(r):
            r["tails"][0]["coeff"] = str(Fraction(t["coeff"]) / Fraction(t["ratio"]))
            r["tails"][0]["headDrop"] = 1
        yield "head drop", edit(drop_head), 0
        for drop in (False, 0.0):
            yield (f"headDrop {drop!r}",
                   edit(lambda r: r["tails"][0].update(headDrop=drop)), 2)
    if rec["points"]:
        yield "point missing", edit(lambda r: r["points"].pop()), 1


def test_lazy_verify_matches_eager_on_intact_and_tampered_traces(
        tmp_path, capsys, monkeypatch):
    # these 198 edits, the 624 of the sigma_next test below and the 673
    # field mutations make a corpus of 1,495 corrupted traces
    reads = _json_path_reads(monkeypatch)
    out, bad = tmp_path / "trace.json", tmp_path / "bad.json"
    kinds, cut = {}, 0
    for spec, upto in _corpus_files(tmp_path):
        assert run_cli("construct", "--stream", str(spec), "--steps",
                       str(upto), "--out", str(out)) == 0
        reads.clear()
        code, intact, err = verify_three_ways(monkeypatch, capsys, spec, out)
        assert code == 0 and err == "" and len(reads) == 2
        blob = json.loads(out.read_text())
        assert out.read_text() == _layouts(blob)[0]
        bad.write_text(_layouts(blob)[1])
        assert verify_three_ways(monkeypatch, capsys, spec, bad) == (
            0, intact, "")
        for k in range(0, len(blob["steps"]), 4):
            bad.write_text(_not_json(blob, k, "shifted"))
            _verify_not_json(monkeypatch, capsys, spec, bad, reads)
            cut += 1
            for (label, rec, want), layout in itertools.product(
                    _tampered_shifted(blob["steps"][k]["shifted"]), (0, 1)):
                edited = json.loads(json.dumps(blob))
                edited["steps"][k]["shifted"] = rec
                bad.write_text(_layouts(edited)[layout])
                reads.clear()
                code, text, err = verify_three_ways(monkeypatch, capsys,
                                                    spec, bad)
                assert code == want, (label, k, layout)
                # a canonical trace whose records decode is decided on the
                # text path
                assert len(reads) == 2 + (layout == 1 or want == 2), (
                    label, k, layout)
                if want == 0:
                    assert text == intact and err == ""
                elif want == 2:
                    assert text == "" and err == (
                        "input error: malformed tail: headDrop must be a "
                        "nonnegative int\n")
                else:
                    failed = [json.loads(line) for line in text.splitlines()
                              if '"ok":false' in line]
                    assert failed == [{"check": "shifted-matches", "ok": False,
                                       "mode": "exact", "n": k}]
                kinds[label] = kinds.get(label, 0) + 1
    assert cut == 52 and sum(kinds.values()) == 2 * 198
    assert len(kinds) == 6 and min(kinds.values()) >= 20, kinds


def _tampered_sigma(rec):
    """(label, record, expected exit, reason in the input error) for
    edits of a recorded sigma_next map: rationals swapped for other JSON
    types, a missing or an extra key, equal maps out of normal form,
    unsorted breakpoints and an unequal map."""
    def edit(fn):
        out = json.loads(json.dumps(rec))
        fn(out)
        return out
    not_text = "rational must be a string"
    keys = "expected keys ['breakpoints', 'leftSlope', 'rightSlope']"
    for value in (1, True, 1.0):
        yield (f"rightSlope {value!r}",
               edit(lambda r, v=value: r.update(rightSlope=v)), 2, not_text)
        yield (f"breakpoint {value!r}",
               edit(lambda r, v=value: r["breakpoints"][0].__setitem__(0, v)),
               2, not_text)
    yield "no rightSlope", edit(lambda r: r.pop("rightSlope")), 2, keys
    yield "extra key", edit(lambda r: r.update(note="x")), 2, keys

    def doubled(r):
        p = Fraction(r["breakpoints"][0][1])
        r["breakpoints"][0][1] = f"{2 * p.numerator}/{2 * p.denominator}"
    yield "2p/2q", edit(doubled), 0, ""
    # a breakpoint on the right ray, one unit past the last one
    x, y = map(Fraction, rec["breakpoints"][-1])
    ray = [str(x + 1), str(y + Fraction(rec["rightSlope"]))]
    yield "collinear", edit(lambda r: r["breakpoints"].append(ray)), 0, ""
    yield ("unsorted",
           edit(lambda r: r.update(breakpoints=[ray] + r["breakpoints"])), 2,
           "breakpoints must increase in both coordinates")

    def shifted_up(r):
        for bp in r["breakpoints"]:
            bp[1] = str(Fraction(bp[1]) + 1)
    yield "unequal", edit(shifted_up), 1, ""


def test_lazy_verify_matches_eager_on_hostile_sigma_records(
        tmp_path, capsys, monkeypatch):
    reads = _json_path_reads(monkeypatch)
    out, bad = tmp_path / "trace.json", tmp_path / "bad.json"
    kinds, cut = {}, 0
    for spec, upto in _corpus_files(tmp_path):
        assert run_cli("construct", "--stream", str(spec), "--steps",
                       str(upto), "--out", str(out)) == 0
        code, intact, err = verify_three_ways(monkeypatch, capsys, spec, out)
        assert code == 0 and err == ""
        blob = json.loads(out.read_text())
        for k in range(0, len(blob["steps"]), 4):
            bad.write_text(_not_json(blob, k, "sigma_next"))
            _verify_not_json(monkeypatch, capsys, spec, bad, reads)
            cut += 1
            for (label, rec, want, reason), layout in itertools.product(
                    _tampered_sigma(blob["steps"][k]["sigma_next"]), (0, 1)):
                edited = json.loads(json.dumps(blob))
                edited["steps"][k]["sigma_next"] = rec
                bad.write_text(_layouts(edited)[layout])
                reads.clear()
                code, text, err = verify_three_ways(monkeypatch, capsys,
                                                    spec, bad)
                assert code == want, (label, k, layout)
                assert len(reads) == 2 + (layout == 1 or want == 2), (
                    label, k, layout)
                if want == 0:
                    assert text == intact and err == ""
                elif want == 2:
                    assert text == "" and err.startswith(
                        "input error: malformed map: ") and reason in err
                else:
                    assert err == ""
                    failed = [json.loads(line) for line in text.splitlines()
                              if '"ok":false' in line]
                    assert failed == [{"check": "sigma-telescoping",
                                       "ok": False, "mode": "exact", "n": k}]
                kinds[label] = kinds.get(label, 0) + 1
    assert cut == 52 and sum(kinds.values()) == 2 * 624
    assert len(kinds) == 12 and min(kinds.values()) >= 30, kinds


def test_malformed_records_are_reported_in_replay_order(
        tmp_path, capsys, monkeypatch):
    # sigma_next and shifted records are decoded when verify compares
    # them, step by step and shifted first: the first malformed one in
    # that order is reported, whatever its kind
    spec = SPECS / "tail_start.json"
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", str(spec), "--steps", "5",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    set_error = ("input error: malformed tail: headDrop must be a "
                 "nonnegative int\n")
    for (shifted_at, sigma_at), layout in itertools.product(
            ((1, 3), (3, 1), (2, 2)), (0, 1)):
        edited = json.loads(json.dumps(blob))
        edited["steps"][shifted_at]["shifted"]["tails"][0]["headDrop"] = False
        edited["steps"][sigma_at]["sigma_next"]["leftSlope"] = 1
        out.write_text(_layouts(edited)[layout])
        code, text, err = verify_three_ways(monkeypatch, capsys, spec, out)
        assert (code, text) == (2, ""), (shifted_at, sigma_at)
        if shifted_at <= sigma_at:
            assert err == set_error
        else:
            assert err.startswith("input error: malformed map: ") and \
                "rational must be a string" in err


def test_lazy_verify_matches_eager_on_every_field_mutation(
        tmp_path, capsys, monkeypatch):
    # the mutations of test_verify_survives_every_field_mutation
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "3",
                   "--out", str(out)) == 0
    bad = tmp_path / "bad.json"
    codes = ([], [])
    for mutated in _field_mutations(out.read_text()):
        for layout, text in enumerate(_layouts(mutated)):
            bad.write_text(text)
            codes[layout].append(
                verify_three_ways(monkeypatch, capsys, spec, bad)[0])
    assert codes[0] == codes[1]
    assert len(codes[0]) == 673 and set(codes[0]) == {1, 2}


def _field_mutations(text):
    """The corpus of test_verify_survives_every_field_mutation: the trace
    ``text`` with one dict value or list item replaced."""
    for path in _json_paths(json.loads(text)):
        for value in (None, 7, [], {}, "1/0", "2"):
            mutated = json.loads(text)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            if node[path[-1]] != value:
                node[path[-1]] = value
                yield mutated


def verify_with_fresh_parses(monkeypatch, capsys, spec, trace):
    """verify's (exit code, stdout, stderr), asserted equal to what it
    gives when the trace reader parses every rational text afresh."""
    runs = []
    for fresh in (False, True):
        with monkeypatch.context() as m:
            if fresh:
                m.setattr(serial, "_memo_rat", lambda memo: serial._rat_from)
            capsys.readouterr()
            code = run_cli("verify", "--stream", str(spec), "--out", str(trace))
            runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    return runs[0]


def test_memoized_parse_matches_fresh_parse(tmp_path, capsys, monkeypatch):
    out, bad = tmp_path / "trace.json", tmp_path / "bad.json"
    for name in ("dense_singletons.json", "tail_start.json", "empty.json"):
        spec = SPECS / name
        assert run_cli("construct", "--stream", str(spec), "--steps", "15",
                       "--out", str(out)) == 0
        code, text, err = verify_with_fresh_parses(monkeypatch, capsys, spec,
                                                   out)
        assert code == 0 and err == "" and '"passed":true' in text
    spec = SPECS / "dense_singletons.json"
    assert run_cli("construct", "--stream", str(spec), "--steps", "3",
                   "--out", str(out)) == 0
    codes = []
    for mutated in _field_mutations(out.read_text()):
        bad.write_text(json.dumps(mutated))
        codes.append(verify_with_fresh_parses(monkeypatch, capsys, spec,
                                              bad)[0])
    assert len(codes) == 673 and set(codes) == {1, 2}


def test_shifted_record_is_read_after_every_other_field(tmp_path, capsys):
    # verify decodes a recorded shifted set when it compares it, after the
    # whole trace was read: a later step's malformed map is reported before
    # an earlier step's malformed shifted set
    spec = str(SPECS / "tail_start.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "3",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    blob["steps"][0]["shifted"]["tails"][0]["headDrop"] = False
    good_pi = blob["steps"][2]["pi"]
    messages = []
    for pi in (dict(good_pi, leftSlope="0"), good_pi):
        blob["steps"][2]["pi"] = pi
        out.write_text(json.dumps(blob))
        capsys.readouterr()
        assert run_cli("verify", "--stream", spec, "--out", str(out)) == 2
        got = capsys.readouterr()
        assert got.out == ""
        messages.append(got.err)
    assert messages == [
        "input error: malformed map: ray slopes must be positive\n",
        "input error: malformed tail: headDrop must be a nonnegative int\n"]


def test_verify_reports_a_replayed_set_too_long_for_text(
        tmp_path, capsys, monkeypatch):
    # pi_0 is still a valid map, with breakpoints of about 2200 digits, and
    # it fixes shifted_0 = {0}; it sends increment 1's point 1 to a
    # rational of more than 4300 digits, which str() refuses.  The
    # mismatch is reported; it is no crash.  The record it is compared
    # with is still read: a malformed one is an input error, also when
    # every sigma_next records pi_0, so that no record differs before it
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "3",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    assert all(st["pi"]["breakpoints"] == [["0", "0"]] for st in blob["steps"])
    d = 10 ** 2200
    blob["steps"][0]["pi"]["breakpoints"] = [
        ["1/2", "1/2"], [f"{d}/{d + 1}", f"{d + 2}/{d + 3}"], ["3/2", "3/2"]]
    for text in _layouts(blob):
        out.write_text(text)
        code, stdout, err = verify_three_ways(monkeypatch, capsys, spec, out)
        assert (code, err) == (1, "")
        failed = {(r["check"], r["n"]) for r in map(json.loads,
                                                    stdout.splitlines())
                  if r.get("ok") is False}
        assert failed == {("shifted-matches", n) for n in (1, 2, 3)} | {
            ("sigma-telescoping", n) for n in (0, 1, 2, 3)}
    for st in blob["steps"]:
        st["sigma_next"] = blob["steps"][0]["pi"]
    blob["steps"][1]["shifted"]["points"][0] = 0
    for text in _layouts(blob):
        out.write_text(text)
        assert verify_three_ways(monkeypatch, capsys, spec, out) == (
            2, "", "input error: malformed set: rational must be a string\n")


def test_verify_reports_a_moved_point_too_long_for_text(tmp_path):
    # pi_0 sends point 1 to a rational of about 4400 digits, past what
    # str() converts, and pi_1 moves it: the failing fixes-shifted detail
    # says so instead of ending in a traceback
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert _cli("construct", "--stream", spec, "--steps", "4",
                "--out", str(out)).returncode == 0
    blob = json.loads(out.read_text())
    b, c = 10 ** 2199 + 7, 10 ** 2198 + 3
    blob["steps"][0]["pi"]["breakpoints"] = [
        ["0", "0"], [f"{b}/{b + 1}", f"{c}/{c + 1}"], ["2", "2"]]
    blob["steps"][1]["pi"]["breakpoints"] = [
        ["1/2", "1/2"], ["1", "11/10"], ["3/2", "3/2"]]
    out.write_text(json.dumps(blob))
    proc = _cli("verify", "--stream", spec, "--out", str(out))
    assert proc.returncode == 1 and proc.stderr == ""
    failed = [r for r in map(json.loads, proc.stdout.splitlines())
              if r.get("check") == "fixes-shifted" and not r["ok"]]
    assert failed == [{"check": "fixes-shifted", "mode": "exact", "n": 1,
                       "ok": False,
                       "detail": "pi_n moves a rational too long to print"}]


def test_main_calls_the_cmd_function_bound_at_call_time(monkeypatch):
    # tracers replace cli.cmd_* in the module namespace; main must not
    # hold on to the original functions
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args) or 7)
    assert run_cli("verify", "--stream", "s.json", "--out", "t.json") == 7
    assert [(a.command, a.stream, a.out) for a in seen] == [
        ("verify", "s.json", "t.json")]
    assert cli.build_parser() is cli.build_parser()


def test_verify_decodes_only_mismatched_shifted_records(
        tmp_path, capsys, monkeypatch):
    spec = str(SPECS / "tail_start.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "8",
                   "--out", str(out)) == 0
    decoded = []
    real = serial.ndset_from_obj

    def counting(o):
        decoded.append(o)
        return real(o)
    monkeypatch.setattr(serial, "ndset_from_obj", counting)
    increments = json.loads(SPECS.joinpath("tail_start.json").read_text())[
        "increments"]
    assert run_cli("verify", "--stream", spec, "--out", str(out)) == 0
    assert decoded == increments

    blob = json.loads(out.read_text())
    k = max(k for k, st in enumerate(blob["steps"])
            if len(st["shifted"]["points"]) > 1)
    blob["steps"][k]["shifted"]["points"].reverse()
    out.write_text(json.dumps(blob))
    decoded.clear()
    assert run_cli("verify", "--stream", spec, "--out", str(out)) == 0
    assert decoded == increments + [blob["steps"][k]["shifted"]]
    capsys.readouterr()


def test_text_reader_decodes_no_record_of_an_intact_trace(
        tmp_path, capsys, monkeypatch):
    # the point stream's trace: 55 of its 61 pi records are the identity,
    # in runs that non-identity records interrupt
    spec, _ = next(_stream_files(tmp_path))
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", str(spec), "--steps", "20",
                   "--out", str(out)) == 0
    text = out.read_text()
    blob = json.loads(text)
    pis = [canon_dumps(st["pi"]) for st in blob["steps"]]
    assert len(set(pis)) < sum(a != b for a, b in zip(pis, pis[1:])) + 1
    capsys.readouterr()
    assert run_cli("verify", "--stream", str(spec), "--out", str(out)) == 0
    intact = capsys.readouterr().out
    calls = {"loads": [], "ndset": [], "plmap": []}
    for name, key in (("ndset_from_obj", "ndset"),
                      ("plmap_from_obj", "plmap")):
        real = getattr(serial, name)
        monkeypatch.setattr(serial, name, lambda o, *a, real=real, key=key: (
            calls[key].append(o) or real(o, *a)))
    real_loads = json.loads
    monkeypatch.setattr(serial.json, "loads", lambda t, **kw: (
        calls["loads"].append(t) or real_loads(t, **kw)))
    assert run_cli("verify", "--stream", str(spec), "--out", str(out)) == 0
    assert capsys.readouterr().out == intact
    # the stream's spec is the one text parsed as a whole; each distinct
    # pi text is decoded once, and no shifted or sigma_next record
    assert calls["loads"] == [spec.read_text()]
    assert calls["ndset"] == json.loads(spec.read_text())["increments"]
    assert calls["plmap"] == [json.loads(t) for t in dict.fromkeys(pis)]


def _hostile_layouts(blob):
    """(label, file text, whether it is the intact trace) for texts near
    the layout construct writes."""
    canon = _layouts(blob)[0]
    head, steps, tail = canon.partition(',"steps":[')
    yield "canonical", canon, True
    yield "CRLF", canon[:-1] + "\r\n", True
    yield "trailing JSON whitespace", canon + " \t\r\n", True
    yield "re-indented", json.dumps(blob, indent=1), True
    yield "keys reversed", json.dumps(_reversed_keys(blob),
                                      separators=(",", ":")), True
    yield "UTF-8 BOM", "\ufeff" + canon, False
    for extra in ("x", "{}", "\x0c", "\x0b", "\u00a0", "\u2028"):
        yield f"trailing {extra!r}", canon + extra, False
    yield "first of duplicate N", f'{{"N":0,{canon[1:]}', True
    yield "last of duplicate N", f'{head},"N":0,"steps":[{steps}', False
    yield ("N true", canon.replace(f'{{"N":{blob["N"]},', '{"N":true,', 1),
           False)
    for n in ("1.0", "-1", "10001", "1" + "0" * 5000):
        yield (f"N of {len(n)} characters" if len(n) > 5 else f"N {n}",
               canon.replace(f'{{"N":{blob["N"]},', f'{{"N":{n},', 1), False)

    def edited(fn):
        out = json.loads(json.dumps(blob))
        fn(out)
        return canon_dumps(out) + "\n"
    last = blob["steps"][-1]
    yield ("text after pi", canon.replace(',"shifted":', 'x,"shifted":', 1),
           False)
    yield "text after a step", canon.replace('}},{"I":', '}x,{"I":', 1), False
    yield "no closing brace", canon[:-2] + "\n", False
    yield "extra key in a step", edited(
        lambda b: b["steps"][1].update(note=1)), False
    yield ("nested sigma_next in shifted", edited(
        lambda b: b["steps"][1]["shifted"].update(sigma_next=last["pi"])),
        False)
    yield "nested step in shifted", edited(
        lambda b: b["steps"][1]["shifted"].update(
            more=[{"I": last["I"]}])), False
    yield "nested shifted in pi", edited(
        lambda b: b["steps"][2]["pi"].update(shifted=[])), False
    yield "quote and brace in a point", edited(
        lambda b: b["steps"][1]["shifted"]["points"].append(
            '1"},{"I":{"lower":"0"')), False
    yield "quote and brace in the hash", edited(
        lambda b: b.update(streamHash=b["streamHash"] + '"}')), False
    yield ("quote and brace in pi", edited(
        lambda b: b["steps"][0]["pi"].update(leftSlope='1"},"shifted":')),
        False)
    yield "sigma_next breaking its run", edited(
        lambda b: b["steps"][1].update(sigma_next={
            "breakpoints": [["0", "1"]], "leftSlope": "1",
            "rightSlope": "1"})), False


def test_text_reader_replay_error_defers_to_the_json_path(
        tmp_path, capsys, monkeypatch):
    # pi_0 moves 10^-10 and the tail of terms (99/100)^k: whether it fixes
    # the tail asks for a power of 99/100 past the digit cap, a limit error
    # in the replay of step 0.  Once the last sigma_next record is no
    # JSON, which the text reader meets only when the replay compares it,
    # the json path's error is the one reported
    spec = tmp_path / "stream.json"
    spec.write_text(json.dumps({"increments": [{"points": [], "tails": [
        {"limit": "0", "coeff": "1", "ratio": "99/100", "headDrop": 0}]}]}))
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", str(spec), "--steps", "1",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    blob["steps"][0]["pi"]["breakpoints"] = [
        ["-1", "-1"], ["1/10000000000", "2/10000000000"], ["1", "1"]]
    text = _layouts(blob)[0]
    out.write_text(text)
    assert verify_three_ways(monkeypatch, capsys, spec, out) == (
        2, "", "limit error: the least power of a tail ratio below a bound "
        "has more than 4300 digits\n")
    cut = text.rindex('"sigma_next":') + len('"sigma_next":')
    out.write_text(text[:cut] + '{"breakpoints":[}'
                   + text[text.index('],"streamHash":'):])
    code, stdout, err = verify_three_ways(monkeypatch, capsys, spec, out)
    assert (code, stdout) == (2, "") and err.startswith(
        f"input error: cannot read {out}: Expecting value")


def _reversed_keys(obj):
    if isinstance(obj, dict):
        return {k: _reversed_keys(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reversed_keys(v) for v in obj]
    return obj


def test_text_reader_hostile_layouts_match_the_json_path(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "trace.json"
    labels = set()
    for spec, upto in _stream_files(tmp_path):
        assert run_cli("construct", "--stream", str(spec), "--steps",
                       str(upto), "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("verify", "--stream", str(spec), "--out", str(out)) == 0
        intact = capsys.readouterr().out
        blob = json.loads(out.read_text())
        for label, text, same in _hostile_layouts(blob):
            # bytes as given: CRLF stays CRLF
            out.write_bytes(text.encode())
            got = verify_three_ways(monkeypatch, capsys, spec, out)
            assert (got == (0, intact, "")) == same, (label, got[0], got[2])
            assert "Traceback" not in got[2]
            labels.add(label)
    assert len(labels) == 30


def test_text_reader_reads_what_the_json_reader_reads(tmp_path):
    # on a canonical trace the two readers agree field by field, and each
    # text record equals the value the json reader decodes.  On the hostile
    # layouts the text path stops with a QshiftError, which makes verify
    # fall back, in the reader or in the replay, unless the file is a
    # trace in the canonical layout whose records are all JSON
    out = tmp_path / "trace.json"
    completes = {"canonical", "CRLF", "trailing JSON whitespace",
                 "quote and brace in the hash", "sigma_next breaking its run"}
    for spec, upto in _stream_files(tmp_path):
        assert run_cli("construct", "--stream", str(spec), "--steps",
                       str(upto), "--out", str(out)) == 0
        text = out.read_text()
        by_text = serial.trace_from_text(text)
        by_json = eager_trace_from_obj(json.loads(text))
        assert by_text[1:] == by_json[1:]
        for a, b in zip(by_text[0].steps, by_json[0].steps, strict=True):
            assert (a.n, a.interval, a.gap, a.pi) == (b.n, b.interval,
                                                      b.gap, b.pi)
            assert b.shifted == a.shifted and b.sigma_next == a.sigma_next
        stream = serial.stream_from_obj(json.loads(spec.read_text()))
        for label, hostile, _ in _hostile_layouts(json.loads(text)):
            out.write_bytes(hostile.encode())
            read = serial.read_text_file(str(out))
            if label in completes:
                cli._verify_read(serial.trace_from_text(read), stream)
            else:
                with pytest.raises(QshiftError):
                    cli._verify_read(serial.trace_from_text(read), stream)
    # a record is unequal to a value of another kind or another value
    steps = by_text[0].steps
    for record, value in ((steps[0].shifted, PLMap.identity()),
                          (steps[0].sigma_next, NDSet([Q(5)], [])),
                          (steps[0].shifted, NDSet([Q(5)], []))):
        assert record != value and value != record and not record == value


def test_theorem_witness_too_long_to_print_is_a_failed_check(tmp_path):
    # H_1 = Fix({1, R}) with R = 10^-2150 is not inside H_0, the Fix of
    # the tail of terms R^k: the escaping term R^2 has 4,301 digits, more
    # than rat_str writes, so the failing record names no number
    ratio = "1/1" + "0" * 2150
    path = _theorem_with_groups(tmp_path, "long_witness.json", [
        ([], [{"limit": "0", "coeff": "1", "ratio": ratio, "headDrop": 0}]),
        (["1", ratio], [])])
    proc = _cli("theorem", "--stream", str(path))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr) == {"failedClaim": "decreasing", "n": 0}
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert records[-1]["checks"] == 102
    assert [r["detail"] for r in records
            if r.get("check") == "decreasing" and r["n"] == 0] == [
        "witness a rational too long to print"]


def test_reader_errors_carry_one_prefix(tmp_path, capsys):
    spec = str(SPECS / "dense_singletons.json")
    out = tmp_path / "trace.json"
    assert run_cli("construct", "--stream", spec, "--steps", "3",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    for step, record, key in ((1, "pi", "leftSlope"),
                              (2, "sigma_next", "rightSlope")):
        bad = json.loads(json.dumps(blob))
        bad["steps"][step][record][key] = 1
        out.write_text(json.dumps(bad))
        capsys.readouterr()
        assert run_cli("verify", "--stream", spec, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "input error: malformed map: rational must be a string\n")
    stream = tmp_path / "stream.json"
    stream.write_text(json.dumps({"increments": [{"points": [], "tails": [
        {"limit": 1, "coeff": "1", "ratio": "1/2", "headDrop": 0}]}]}))
    assert run_cli("construct", "--stream", str(stream), "--steps", "1",
                   "--out", str(tmp_path / "out.json")) == 2
    assert capsys.readouterr().err == (
        "input error: malformed tail: rational must be a string\n")
