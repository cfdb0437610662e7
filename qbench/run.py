#!/usr/bin/env python3
"""qshift benchmark: times the ``qshift`` commands end to end, and each
package layer beneath them in a separate traced run.

Usage, from the root of a checkout:

    python3 qbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py):

* ``tail_stream``  -- ``construct`` then ``verify`` on seeded streams whose
  increments each add one point and one geometric tail;
* ``point_stream`` -- ``construct`` then ``verify`` on the singleton stream
  rational_enum(0), rational_enum(1), ... (seed-independent);
* ``checks``       -- ``props --cases 50`` then ``theorem --cases 250`` on
  both bundled instances, for several seeds derived from ``--seed``.

The load is closed-loop with one caller: one process, one thread, each
command called in-process through ``qshift.cli.main`` with ``--jobs 1`` and
its output captured.  A run makes passes over the workload's batch until
another pass would overrun ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of the time from spawning one to its inputs being
written), ``first_cmd_s`` / ``second_cmd_s`` (seconds of one call of the
workload's first / second command: the median over the batch of each
unit's median over passes) and ``peak_rss_mb``.  ``--trace 1`` makes one
untraced pass, then traced passes, and reports the per-layer metrics of
layers.py per pass plus ``trace_overhead``.

Host speed: on a shared VM the same op can take 1.5x longer for seconds
or minutes at a time.  So a fixed reference kernel of pure-Python work
that never touches qshift is timed between consecutive ops (and around
each set-up probe), and every end-to-end time is reported scaled to a
host on which that kernel takes REFERENCE_NOMINAL_S: seconds x nominal /
(mean of the kernel runs just before and after it).  The unscaled medians
are in the record line under ``timing.raw_s``.

The last stdout line is the result object; the line before it is a record
with the run's metadata, trace digest, exact counters and negative-control
outcomes.  Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
END_TO_END = {"setup_s": "s", "first_cmd_s": "s", "second_cmd_s": "s",
              "peak_rss_mb": "MB"}
PROBE_TIMEOUT_S = 60
# About what the reference kernel takes on a quiet 2-vCPU VM with CPython
# 3.11; end-to-end times are scaled to it (see "Host speed" above).
REFERENCE_NOMINAL_S = 0.010

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, qshift_modules  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the benchmark's self-tests")
    p.add_argument("--probe", action="store_true",
                   help="internal: only set up, and print when ready")
    return p.parse_args(argv)


def import_qshift():
    """Import qshift from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "qshift", "__init__.py")):
        sys.exit(f"qbench: no qshift package under {SRC}")
    sys.path.insert(0, SRC)
    import qshift

    if not os.path.abspath(qshift.__file__).startswith(SRC + os.sep):
        sys.exit(f"qbench: imported qshift from {qshift.__file__}, not {SRC}")
    return qshift


def sizes(args):
    table = workloads.TINY_SIZES if args.tiny else workloads.SIZES
    return table[args.workload]


def make_workdir(args):
    path = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(path)
    return path


# -- set-up --------------------------------------------------------------------

def probe(args):
    """Child side of a set-up probe: import, write inputs, report readiness."""
    import_qshift()
    workdir = make_workdir(args)
    try:
        units = workloads.prepare(args.workload, args.seed, workdir, sizes(args))
        ready = time.perf_counter()
        digest = workloads.inputs_digest(workdir, units)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"ready": ready, "inputs_sha256": digest}))


def reference_seconds():
    """Time one run of fixed pure-Python work that never touches qshift
    (stdlib Fraction arithmetic, tuple sorting and hashing): how fast the
    host runs Python code at this moment."""
    start = time.perf_counter()
    for _ in range(6):
        acc = Fraction(0)
        rows = []
        for k in range(1, 300):
            acc = acc * Fraction(k, k + 1) + Fraction(1, k)
            rows.append((acc.denominator % 101, acc.numerator % 103, k))
        rows.sort()
        len({r[:2] for r in rows})
    return time.perf_counter() - start


def measure_setup(args):
    """Set-up samples of fresh interpreters, and the input digests they saw.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child, so the
    child's readiness stamp minus the parent's spawn stamp covers the
    interpreter start, ``import qshift`` and writing the inputs.  Each
    sample is (seconds, reference seconds around it).
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    samples, digests = [], set()
    before = reference_seconds()
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"qbench: set-up probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        after = reference_seconds()
        samples.append((rec["ready"] - spawned, (before + after) / 2))
        before = after
        digests.add(rec["inputs_sha256"])
    return samples, digests


# -- the measured loop ------------------------------------------------------------

def run_passes(runner, budget_s, after_pass=None, bracket=False):
    """Passes over the batch until another would overrun the budget.

    Returns (samples, passes): samples[unit][op] holds one (seconds,
    reference seconds) pair per pass in which the op passed its gate.
    With ``bracket``, the reference is timed between consecutive ops and
    an op's reference is the mean of the runs just before and after it;
    otherwise it is None.
    """
    samples = [([], []) for _ in runner.units]
    ref = reference_seconds() if bracket else None
    start = time.perf_counter()
    passes, last = 0, 0.0
    while passes == 0 or time.perf_counter() - start + last <= budget_s:
        began = time.perf_counter()
        for index in range(len(runner.units)):
            for which in (0, 1):
                seconds = runner.run_op(index, which)
                around = None
                if bracket:
                    after = reference_seconds()
                    around, ref = (ref + after) / 2, after
                if seconds is not None:
                    samples[index][which].append((seconds, around))
        last = time.perf_counter() - began
        passes += 1
        if after_pass is not None:
            after_pass()
    return samples, passes


def scaled(seconds, reference):
    """Seconds at the nominal host speed: REFERENCE_NOMINAL_S / reference."""
    return seconds * REFERENCE_NOMINAL_S / reference


def op_seconds(samples, which, scale):
    """Median over units of each unit's median seconds for op ``which``,
    each op scaled by the reference around it when ``scale`` is set."""
    medians = [statistics.median(scaled(s, r) if scale else s
                                 for s, r in t[which])
               for t in samples if t[which]]
    return statistics.median(medians) if medians else None


def total_seconds(samples, scale):
    return sum(scaled(s, r) if scale else s
               for t in samples for op in t for s, r in op)


def end_to_end_metrics(runner, budget_s, setup_samples):
    """End-to-end metrics, scaled to the nominal host speed, and the raw
    timings behind them."""
    samples, passes = run_passes(runner, budget_s, bracket=True)
    references = [r for t in samples for op in t for _, r in op]
    metrics = {
        "setup_s": statistics.median(scaled(s, r) for s, r in setup_samples),
        "first_cmd_s": op_seconds(samples, 0, scale=True),
        "second_cmd_s": op_seconds(samples, 1, scale=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "raw_s": {"setup_s": statistics.median(s for s, _ in setup_samples),
                  "first_cmd_s": op_seconds(samples, 0, scale=False),
                  "second_cmd_s": op_seconds(samples, 1, scale=False)},
        "reference_median_s":
            statistics.median(references) if references else None,
        "op_counts": [sum(len(t[w]) for t in samples) for w in (0, 1)],
        "setup_samples": setup_samples,
    }
    return metrics, passes, detail


def traced_metrics(runner, budget_s, spans_path):
    """One untraced pass, then traced passes; per-layer metrics per pass.
    The spans go to ``spans_path``."""
    untraced, _ = run_passes(runner, 0, bracket=True)
    keep = [prefix for prefix, _, _, kinds in layers.FUNCTIONS
            if "total_s" in kinds]
    tracer = Tracer(keep=keep + [f"properties.{s}" for s in layers.SUITES])
    snapshots = []

    def snapshot():
        snapshots.append({name: row["calls"]
                          for name, row in tracer.per_function().items()})

    tracer.install(layers.targets(), qshift_modules())
    try:
        times, passes = run_passes(runner, budget_s, snapshot, bracket=True)
    finally:
        tracer.uninstall()
    per_pass = [{k: v - prev.get(k, 0) for k, v in cur.items()}
                for prev, cur in zip([{}] + snapshots, snapshots)]
    problems = []
    if any(calls != per_pass[0] for calls in per_pass):
        problems.append("call counts differ between identical passes")

    rows = tracer.per_function()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    metrics = {}
    for prefix, _, _, kinds in layers.FUNCTIONS:
        row = rows.get(prefix, zero)
        for kind in kinds:
            metrics[f"{prefix}.{kind}"] = (
                per_pass[0].get(prefix, 0) if kind == "calls"
                else row[kind] / passes)
    for suite in layers.SUITES:
        row = rows.get(f"properties.{suite}", zero)
        metrics[f"properties.{suite}.total_s"] = row["total_s"] / passes
    # ops scaled by the reference around them, so host drift between the
    # untraced and the traced passes does not read as tracing cost
    metrics["trace_overhead"] = (total_seconds(times, True) / passes
                                 / total_seconds(untraced, True))
    spans = {
        "passes": passes,
        "self_s_sum": sum(r["self_s"] for r in rows.values()) / passes,
        "root_total_s": sum(rows.get(r, zero)["total_s"]
                            for r in layers.ROOTS) / passes,
        "untraced_op_s": total_seconds(untraced, False),
        "traced_op_s": total_seconds(times, False) / passes,
    }
    write_spans(spans_path, tracer, spans)
    return metrics, passes, spans, problems


def write_spans(path, tracer, summary):
    """Keep the stored spans and per-edge aggregates for later reading."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "spans": tracer.spans,
                   "edges": [[n, p, c, s] for (n, p), (c, s)
                             in sorted(tracer.edges.items(), key=str)]}, fh)


# -- run metadata and cross-run checks ------------------------------------------------

def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the package sources: identifies the code when no git
    metadata is present."""
    base = os.path.join(SRC, "qshift")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_against_earlier_runs(key, counters):
    """Exact counters must repeat across runs of one source and seed."""
    path = os.path.join(OUT, "counters.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(key, {})
    problems = [f"{name} is {value}, an earlier run had {seen[name]}"
                for name, value in counters.items()
                if name in seen and seen[name] != value]
    seen.update(counters)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return problems


# -- main ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    qshift = import_qshift()
    os.makedirs(OUT, exist_ok=True)
    setup_samples, probe_digests = (
        measure_setup(args) if args.trace == 0 else ([], set()))

    workdir = make_workdir(args)
    try:
        units = workloads.prepare(args.workload, args.seed, workdir, sizes(args))
        inputs_sha = workloads.inputs_digest(workdir, units)
        runner = workloads.Runner(args.workload, units)
        problems = []
        if probe_digests - {inputs_sha}:
            problems.append("set-up probes generated different inputs")
        if args.trace == 0:
            metrics, passes, detail = end_to_end_metrics(
                runner, args.seconds, setup_samples)
        else:
            metrics, passes, detail, traced_problems = traced_metrics(
                runner, args.seconds,
                os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
            problems += traced_problems
        controls = {}
        if args.workload in workloads.RECURSION:
            if 0 in runner.digests:
                controls = workloads.negative_controls(units[0], workdir)
            else:
                controls = {"all": "not run: unit 0 wrote no trace"}
            runner.attempted += 2
            runner.failed += sum(v != "rejected" for v in controls.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counters = runner.totals()
    if args.trace == 1:
        counters["ndsets.GeomTail.contains.calls"] = (
            metrics["ndsets.GeomTail.contains.calls"])
    source = source_sha256()
    problems += check_against_earlier_runs(
        f"{source}:{args.workload}:{args.seed}:"
        f"{json.dumps(sizes(args), sort_keys=True)}", counters)
    if args.trace == 1:
        metrics.update({name: counters.get(name, 0)
                        for name, _, _ in layers.COUNTERS})

    spec = {name: unit for name, unit, _ in layers.per_layer_spec()}
    spec.update(END_TO_END)
    meta = {
        "record": "qbench-run",
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "sizes": sizes(args),
        "commands": workloads.COMMANDS[args.workload],
        "backend": qshift.BACKEND,
        "QSHIFT_BACKEND": os.environ.get("QSHIFT_BACKEND"),
        "python": platform.python_version(),
        "commit": git_commit(), "source_sha256": source,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": passes,
        "inputs_sha256": inputs_sha,
        "trace_sha256": runner.trace_sha256(),
        "counters": counters,
        "controls": controls,
        "timing" if args.trace == 0 else "spans": detail,
        "errors": runner.errors,
        "problems": problems,
    }
    print(json.dumps(meta, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": spec[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
