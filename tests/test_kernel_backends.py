"""Conformance of the two rational kernels, the compiled extension and
its pure-Python port, with stdlib Fraction as the oracle both must match;
and, under each kernel, the CLI's output bytes and the absence of any
Fraction in the objects it builds."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from random import Random

import pytest

from qshift._qarith import BACKEND
from qshift._qarith.pure import Q as PureQ


def test_backend_reports_something_sane():
    assert BACKEND in ("pure", "speedups")


def test_pure_kernel_is_not_fraction():
    assert PureQ is not Fraction
    code = ("import sys, qshift.cli; from qshift._qarith import BACKEND; "
            "print(BACKEND, 'fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, QSHIFT_BACKEND="pure"),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["pure", "False"]


def test_construction_and_normalization(kernels):
    for Q in kernels:
        assert (Q(6, 4).numerator, Q(6, 4).denominator) == (3, 2)
        assert (Q(-6, -4).numerator, Q(-6, -4).denominator) == (3, 2)
        assert (Q(6, -4).numerator, Q(6, -4).denominator) == (-3, 2)
        assert (Q(0, 7).numerator, Q(0, 7).denominator) == (0, 1)
        assert Q(Q(2, 3)) == Q(2, 3)
        with pytest.raises(ZeroDivisionError):
            Q(1, 0)
        with pytest.raises(TypeError):
            Q(1.5)


def test_random_op_conformance(kernels):
    for Q in kernels:
        rng = Random(101)

        def pair(a, b):
            return Fraction(a, b), Q(a, b)

        values = [pair(rng.randint(-40, 40), rng.randint(1, 40))
                  for _ in range(60)]
        for (pa, fa) in values:
            assert (pa.numerator, pa.denominator) == \
                (fa.numerator, fa.denominator)
            assert str(pa) == str(fa)
            assert float(pa) == float(fa)
        for (pa, fa) in values:
            for (pb, fb) in values[:20]:
                for op in ("__add__", "__sub__", "__mul__"):
                    pres = getattr(pa, op)(pb)
                    fres = getattr(fa, op)(fb)
                    assert (pres.numerator, pres.denominator) == \
                        (fres.numerator, fres.denominator), op
                if pb != 0:
                    pres, fres = pa / pb, fa / fb
                    assert (pres.numerator, pres.denominator) == \
                        (fres.numerator, fres.denominator)
                assert (pa < pb) == (fa < fb)
                assert (pa <= pb) == (fa <= fb)
                assert (pa == pb) == (fa == fb)


def test_int_mixing(kernels):
    for Q in kernels:
        f = Q(3, 2)
        assert f + 1 == Q(5, 2) and 1 + f == Q(5, 2)
        assert f - 2 == Q(-1, 2) and 2 - f == Q(1, 2)
        assert f * 4 == Q(6) and 4 * f == Q(6)
        assert f / 3 == Q(1, 2) and 3 / f == Q(2)
        assert f < 2 and f > 1 and f != 1 and Q(4, 2) == 2
        assert hash(Q(5)) == hash(5)
        assert bool(Q(0)) is False and bool(f) is True


def test_powers(kernels):
    for Q in kernels:
        assert Q(2, 3) ** 3 == Q(8, 27)
        assert Q(2, 3) ** 0 == Q(1)
        assert Q(2, 3) ** -2 == Q(9, 4)
        assert Q(-2, 3) ** -3 == Q(-27, 8)
        with pytest.raises(ZeroDivisionError):
            Q(0) ** -1
        # matches Fraction on a sweep
        for n in range(-6, 7):
            assert str(Q(-3, 5) ** n) == str(Fraction(-3, 5) ** n)


def test_sorting_and_sets(kernels):
    for Q in kernels:
        rng = Random(55)
        raw = [(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(200)]
        pure_sorted = sorted(Fraction(a, b) for a, b in raw)
        fast_sorted = sorted(Q(a, b) for a, b in raw)
        assert [str(q) for q in pure_sorted] == [str(q) for q in fast_sorted]
        assert len({Q(1, 2), Q(2, 4), Q(3, 6)}) == 1


def test_forced_backend_env():
    code = ("from qshift._qarith import BACKEND, Q; "
            "print(BACKEND); print(Q(6, 4))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, QSHIFT_BACKEND="pure"),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["pure", "3/2"]


# Runs qshift commands in one interpreter: argv[1] is the compiled
# kernel's file ('' for none), argv[2] a JSON list of command lines.
RUNNER = """
import importlib.util, json, sys
path, argvs = sys.argv[1], json.loads(sys.argv[2])
if path:
    spec = importlib.util.spec_from_file_location(
        "qshift._qarith._speedups", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[spec.name] = module
from qshift._qarith import BACKEND
from qshift.cli import main
print(BACKEND)
for argv in argvs:
    print(main(argv))
"""


def test_cli_bytes_identical_across_backends(speedups, tmp_path):
    specs = resources.files("qshift").joinpath("specs")
    outputs = {}
    for backend, path in (("pure", ""), ("speedups", speedups.__file__)):
        out = tmp_path / backend
        out.mkdir()
        argvs = [["construct", "--stream", str(specs / name), "--steps",
                  "10", "--out", str(out / name)]
                 for name in ("empty.json", "dense_singletons.json",
                              "tail_start.json")]
        argvs.append(["props", "--cases", "20"])
        proc = subprocess.run(
            [sys.executable, "-c", RUNNER, path, json.dumps(argvs)],
            env=dict(os.environ, QSHIFT_BACKEND=backend),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        first, rest = proc.stdout.split("\n", 1)
        assert first == backend
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        outputs[backend] = (rest.replace(str(out), "OUT"), files)
    assert len(outputs["pure"][1]) == 3
    assert outputs["pure"] == outputs["speedups"]


# Builds the bundled streams, their traces and the traces read back under
# one kernel, then walks every slot, tuple, list and dict they hold:
# argv[1] is the compiled kernel's file ('' for the pure kernel), argv[2]
# the specs directory.  Prints the number of Q values met, or raises on
# the first Fraction.
WALKER = """
import importlib.util, os, sys
from fractions import Fraction
if sys.argv[1]:
    spec = importlib.util.spec_from_file_location(
        "qshift._qarith._speedups", sys.argv[1])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[spec.name] = module
from qshift._qarith import BACKEND, Q
from qshift.construction import run_shift_construction
from qshift.serial import (read_json_file, stream_from_obj, trace_from_obj,
                           trace_to_obj)
if sys.argv[1]:
    assert BACKEND == "speedups" and Q is module.Q
else:
    assert BACKEND == "pure"

def walk(x, path):
    if isinstance(x, Fraction):
        raise AssertionError(f"Fraction at {path}: {x!r}")
    if isinstance(x, Q):
        return 1
    if isinstance(x, (tuple, list)):
        return sum(walk(y, f"{path}[{i}]") for i, y in enumerate(x))
    if isinstance(x, dict):
        return sum(walk(y, f"{path}[{k!r}]") for k, y in x.items())
    slots = [s for c in type(x).__mro__ for s in getattr(c, "__slots__", ())]
    return sum(walk(getattr(x, s, None), f"{path}.{s}") for s in slots)

total = 0
for name in ("empty.json", "dense_singletons.json", "tail_start.json"):
    stream = stream_from_obj(read_json_file(os.path.join(sys.argv[2], name)))
    trace = run_shift_construction(stream, 10)
    read_back, _, _ = trace_from_obj(trace_to_obj(trace, stream))
    stream.level(10)  # fill the cached levels, so the walk meets them
    for what, obj in (("stream", stream), ("trace", trace),
                      ("read", read_back)):
        total += walk(obj, f"{name}:{what}")
print(total)
"""


def _walk(script, backend, path):
    specs = resources.files("qshift").joinpath("specs")
    proc = subprocess.run(
        [sys.executable, "-c", script, path, str(specs)],
        env=dict(os.environ, QSHIFT_BACKEND=backend),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_no_fraction_in_compiled_kernel_objects(speedups):
    assert _walk(WALKER, "speedups", speedups.__file__) > 1000


def test_no_fraction_in_pure_kernel_objects():
    # a Fraction mixed with a Q raises TypeError; one that is only
    # stored is found here
    assert _walk(WALKER, "pure", "") > 1000


# The walk above meets a read trace's shifted sets as the parsed JSON they
# are kept as; this one decodes them first and walks the sets.
DECODED_WALKER = WALKER.split("total = 0")[0] + """
total = 0
for name in ("empty.json", "dense_singletons.json", "tail_start.json"):
    stream = stream_from_obj(read_json_file(os.path.join(sys.argv[2], name)))
    trace = run_shift_construction(stream, 10)
    read_back, _, _ = trace_from_obj(trace_to_obj(trace, stream))
    total += walk([st.shifted.decode() for st in read_back.steps],
                  f"{name}:decoded")
print(total)
"""


def test_no_fraction_in_decoded_shifted_sets(speedups):
    for backend, path in (("pure", ""), ("speedups", speedups.__file__)):
        assert _walk(DECODED_WALKER, backend, path) > 100
