"""Workload inputs, the CLI commands each workload times, and their gates.

A workload is a batch of *units* that one pass runs through: a recursion
unit is a stream file that ``qshift construct`` turns into a trace and
``qshift verify`` re-checks; a ``checks`` unit is a seed for ``qshift
props`` and one ``qshift theorem`` pass over both bundled instances.  A
pass is the same work every time, so each unit's op times can be reduced
to a median over passes and exact counters can be compared between passes.

Every op passes through a correctness gate.  An op that raises, exits
with an unexpected code, reports a failed verdict or writes a trace
whose digest differs from the unit's first trace counts as failed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import time
from fractions import Fraction
from random import Random

# Batch sizes per workload.  A tail stream's cost varies about 2x with its
# seed, and timings on a shared host jump by up to half for a second or
# two at a time.  So a run times many short ops and reports medians: many
# small seeded streams for tail_stream, several seeds for checks, and one
# seed-independent stream repeated for point_stream.
SIZES = {
    "tail_stream": {"streams": 48, "steps": 12},
    "point_stream": {"streams": 1, "steps": 60},
    "checks": {"seeds": 12, "props_cases": 50, "theorem_cases": 250},
}
TINY_SIZES = {
    "tail_stream": {"streams": 2, "steps": 4},
    "point_stream": {"streams": 1, "steps": 6},
    "checks": {"seeds": 1, "props_cases": 4, "theorem_cases": 10},
}
WORKLOADS = tuple(SIZES)
RECURSION = ("tail_stream", "point_stream")
THEOREM_INSTANCES = ("theorem_identity.json", "theorem_translation.json")

# Which command each end-to-end op metric times, per workload.
COMMANDS = {
    "tail_stream": ("construct", "verify"),
    "point_stream": ("construct", "verify"),
    "checks": ("props", "theorem"),
}


# -- inputs ------------------------------------------------------------------

def _tail_increments(rng, count):
    """One random point and one random geometric tail per increment, so
    every stream of the batch has the same shape and only values vary."""
    from qshift.ndsets import NDSet
    from qshift.sampling import rng_geomtail, rng_rational

    return [NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
            for _ in range(count)]


def _point_increments(count):
    """Singletons rational_enum(0), rational_enum(1), ...: the bundled
    dense_singletons order, extended."""
    from qshift.construction import rational_enum
    from qshift.ndsets import ndset_points

    return [ndset_points(rational_enum(i)) for i in range(count)]


def prepare(workload, seed, workdir, size):
    """Generate and write the workload's inputs; return its list of units.

    Each unit is a dict of the argv lists its ops run, and paths the gates
    read.  Only files written here reach the program.
    """
    from qshift.construction import EStream
    from qshift.serial import stream_to_obj, write_json_file

    units = []
    if workload in RECURSION:
        steps = size["steps"]
        for i in range(size["streams"]):
            if workload == "tail_stream":
                incs = _tail_increments(Random(f"tail:{seed}:{i}"), steps + 2)
            else:
                incs = _point_increments(steps + 2)
            stream = os.path.join(workdir, f"stream{i}.json")
            trace = os.path.join(workdir, f"trace{i}.json")
            write_json_file(stream, stream_to_obj(EStream(incs)))
            units.append({
                "stream": stream, "trace": trace,
                "ops": [["construct", "--stream", stream, "--steps",
                         str(steps), "--out", trace],
                        ["verify", "--stream", stream, "--out", trace]],
            })
    elif workload == "checks":
        rng = Random(f"checks:{seed}")
        for _ in range(size["seeds"]):
            s = str(rng.randrange(1 << 31))
            units.append({"ops": [
                ["props", "--seed", s, "--cases", str(size["props_cases"])],
                [["theorem", "--stream", inst, "--seed", s,
                  "--cases", str(size["theorem_cases"])]
                 for inst in THEOREM_INSTANCES],
            ]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return units


def inputs_digest(workdir, units):
    """sha256 of every input file and every argv, so runs with one seed
    can confirm they were given the same inputs."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    argv = json.dumps([u["ops"] for u in units]).replace(workdir, "WORKDIR")
    h.update(argv.encode())
    return h.hexdigest()


# -- running commands ------------------------------------------------------------

def run_cli(argv):
    """One in-process ``qshift`` invocation: (exit code, stdout, seconds)."""
    from qshift.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(list(argv))
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _summary_ok(records, command):
    last = records[-1] if records else {}
    return last.get("command") == command and last.get("passed") is True


class Runner:
    """Runs ops for one workload, gating each and collecting exact counters."""

    def __init__(self, workload, units):
        self.workload = workload
        self.units = units
        self.digests = {}  # unit index -> sha256 of its first trace
        self.counters = {}  # unit index -> exact counters of that unit
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, index, which):
        """Run op ``which`` (0 or 1) of unit ``index``; seconds or None."""
        argv = self.units[index]["ops"][which]
        self.attempted += 1
        try:
            seconds, problem = self._run_and_gate(index, which, argv)
        except Exception as exc:  # the run must go on and count the failure
            seconds, problem = None, f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"unit {index} op {which}: {problem}")
            return None
        return seconds

    def _run_and_gate(self, index, which, argv):
        command = COMMANDS[self.workload][which]
        if command == "theorem":
            seconds = 0.0
            checks = 0
            for one in argv:
                code, out, dt = run_cli(one)
                seconds += dt
                records = _records(out)
                if code != 0 or not _summary_ok(records, "theorem"):
                    return seconds, f"theorem {one[2]} exit {code}"
                checks += records[-1]["checks"]
            return seconds, self._settle(index, {"theorem_checks": checks})
        code, out, seconds = run_cli(argv)
        records = _records(out)
        if code != 0 or not _summary_ok(records, command):
            return seconds, f"{command} exit {code}"
        if command == "props":
            props = [r for r in records if "property" in r]
            if not props or not all(r["ok"] is True for r in props):
                return seconds, "props record not ok"
            return seconds, self._settle(index, {"props_records": len(props)})
        if command == "verify":
            checks = records[:-1]
            if records[-1]["failures"] != 0 or not all(r["ok"] for r in checks):
                return seconds, "verify reported a failure"
            return seconds, self._settle(index, {
                "construction.verify_records": len(checks),
                "construction.gap_disjoint_records": sum(
                    r["check"] == "gap-disjoint" for r in checks)})
        with open(self.units[index]["trace"], "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            return seconds, self._settle(index, trace_counters(data))
        if digest != self.digests[index]:
            return seconds, "trace differs from this unit's first trace"
        return seconds, None

    def _settle(self, index, counts):
        """Record a unit's exact counters; a later op must repeat them."""
        seen = self.counters.setdefault(index, {})
        for key, value in counts.items():
            if seen.setdefault(key, value) != value:
                return f"{key} changed from {seen[key]} to {value}"
        return None

    def totals(self):
        """Exact counters over the batch: bit widths as maxima, others summed."""
        out = {}
        for counts in self.counters.values():
            for key, value in counts.items():
                if key.endswith("_max_bits"):
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def trace_sha256(self):
        """One digest over every unit's trace, in unit order."""
        if not self.digests:
            return None
        h = hashlib.sha256()
        for index in sorted(self.digests):
            h.update(self.digests[index].encode())
        return h.hexdigest()


def _bits(text):
    num, _, den = text.partition("/")
    return max(abs(int(num)).bit_length(), int(den or 1).bit_length())


def trace_counters(data):
    """Exact sizes read from a trace file's bytes."""
    steps = json.loads(data)["steps"]
    last = steps[-1]
    return {
        "serial.trace_bytes": len(data),
        "plmaps.sigma_breakpoints": len(last["sigma_next"]["breakpoints"]),
        "ndsets.shifted_points": len(last["shifted"]["points"]),
        "ndsets.shifted_tails": len(last["shifted"]["tails"]),
        "qarith.sigma_max_bits": max(
            _bits(v) for st in steps for bp in st["sigma_next"]["breakpoints"]
            for v in bp),
        "qarith.shifted_max_bits": max(
            [_bits(p) for st in steps for p in st["shifted"]["points"]]
            + [_bits(t[k]) for st in steps for t in st["shifted"]["tails"]
               for k in ("limit", "coeff", "ratio")] + [0]),
    }


# -- negative controls ---------------------------------------------------------------

def _rat(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _perturb_pi(obj):
    """Move the first recorded breakpoint of a middle step's pi upwards."""
    bad = copy.deepcopy(obj)
    k = len(bad["steps"]) // 2
    bps = bad["steps"][k]["pi"]["breakpoints"]
    y = Fraction(bps[0][1])
    y_next = Fraction(bps[1][1]) if len(bps) > 1 else y + 2
    bps[0][1] = _rat((y + y_next) / 2)
    return bad, "sigma-telescoping"


def _gap_onto_shifted(obj):
    """Centre J_0 on a closure point of the last shifted set."""
    bad = copy.deepcopy(obj)
    shifted = bad["steps"][-1]["shifted"]
    p = Fraction(shifted["points"][0] if shifted["points"]
                 else shifted["tails"][0]["limit"])
    eps = Fraction(1, 1000)
    bad["steps"][0]["J"] = {"lower": _rat(p - eps), "upper": _rat(p + eps)}
    return bad, "gap-disjoint"


def negative_controls(unit, workdir):
    """Verify two corrupted copies of a unit's trace; each must exit 1
    with its check family among the failures.  Returns name -> outcome."""
    with open(unit["trace"], encoding="utf-8") as fh:
        obj = json.load(fh)
    outcomes = {}
    for name, mutate in (("pi_breakpoint", _perturb_pi),
                         ("gap_on_shifted_point", _gap_onto_shifted)):
        bad, family = mutate(obj)
        path = os.path.join(workdir, f"control-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        code, out, _ = run_cli(["verify", "--stream", unit["stream"],
                                "--out", path])
        failing = {r.get("check") for r in _records(out) if r.get("ok") is False}
        if code == 1 and family in failing:
            outcomes[name] = "rejected"
        else:
            outcomes[name] = f"not rejected: exit {code}, failing {sorted(failing)}"
    return outcomes
