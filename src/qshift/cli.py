"""Command-line interface.

Subcommands:

* ``construct`` -- run the gap-evacuation recursion on a stream spec and
  write a trace file; self-verifies the fresh trace.
* ``verify``    -- independently re-check a trace file against a stream.
* ``theorem``   -- run both certificate directions on a bundled or local
  theorem instance.
* ``props``     -- run the seeded property suites.

Reports are JSON lines; identical configurations produce byte-identical
files and output.  Exit codes: 0 all checks passed, 1 a check failed, 2 a
refused command line.  Any other refusal is a ``QshiftError``, printed as
``label: message``; its class sets the label and the exit code:

    serial.SerializationError     input error        2
    rationals.LimitError          limit error        2
    construction.EvacuationError  evacuation error   1
    theorem.CertificateError      certificate error  1
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from importlib import resources
from typing import Optional

from .construction import run_shift_construction, verify_shift_trace
from .properties import run_properties
from .rationals import QshiftError
from .reporting import Report, write_rows
from .serial import (_MAX_STEPS, SerializationError, canon_dumps,
                     instance_from_obj, parse_json_text, read_json_file,
                     read_text_file, stream_from_obj, stream_hash,
                     trace_from_obj, trace_from_text, trace_text,
                     write_text_file)
from .theorem import branch_from_shifts, shifts_from_branch

EXIT_OK = 0
EXIT_FAIL = 1


def _emit(obj, stream=None) -> None:
    # one write per line, where print makes two
    (stream or sys.stdout).write(canon_dumps(obj) + "\n")


def _print_report(report: Report, command: str) -> None:
    write_rows(report.entries, sys.stdout)
    _emit({"command": command, "passed": report.passed,
           "checks": report.count, "failures": report.failed})


def _resolve_spec(name: str) -> str:
    if os.path.exists(name):
        return name
    bundled = resources.files("qshift").joinpath("specs", name)
    if bundled.is_file():
        return str(bundled)
    raise SerializationError(f"no such spec file: {name}")


def cmd_construct(args) -> int:
    stream = stream_from_obj(read_json_file(_resolve_spec(args.stream)))
    trace = run_shift_construction(stream, args.steps)
    digest = stream_hash(stream)
    # the whole text is built first: a trace with no text form writes no file
    write_text_file(args.out, trace_text(trace, digest))
    report = verify_shift_trace(trace, stream)
    if not report.passed:
        write_rows(report.failed_rows(), sys.stderr)
        return EXIT_FAIL
    _emit({"command": "construct", "passed": True, "steps": len(trace.steps),
           "out": args.out, "streamHash": digest})
    return EXIT_OK


def _verify_read(read, stream) -> Report:
    """The report on a trace read as ``(trace, recorded hash, N)``."""
    trace, recorded_hash, recorded_n = read
    report = Report()
    report.add("stream-hash", recorded_hash == stream_hash(stream),
               detail="trace header matches the supplied stream")
    report.add("step-count", recorded_n == len(trace.steps) - 1,
               detail="trace header matches the step list")
    report.extend(verify_shift_trace(trace, stream))
    return report


def cmd_verify(args) -> int:
    """Replay the trace file ``--out`` against the stream.  The file is
    read once.  A trace in the layout ``construct`` writes is read as text
    (``serial.trace_from_text``), its ``shifted`` and ``sigma_next``
    records kept as spans of the text: each equals the replayed value
    whose canonical text it is, and is decoded only when it is not.  If
    that reader refuses the text, or the replay with it ends in an error
    (a malformed record, or a span that is not JSON), the report so far
    is dropped and the text is read with ``json`` and ``trace_from_obj``
    and replayed again: that path's verdict, messages and error order are
    the ones printed."""
    stream = stream_from_obj(read_json_file(_resolve_spec(args.stream)))
    text = read_text_file(args.out)
    try:
        report = _verify_read(trace_from_text(text), stream)
    except QshiftError:
        # TextMismatch, or an error of the replay: a file the json path
        # refuses can raise in the replay before its bad record is reached,
        # so the text path stands only when it ran to the end, every record
        # being JSON.  The json path runs after the handler, which frees
        # the text path's frames
        report = None
    if report is None:
        report = _verify_read(
            trace_from_obj(parse_json_text(text, args.out)), stream)
    _print_report(report, "verify")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_theorem(args) -> int:
    inst, cert, hs = instance_from_obj(read_json_file(_resolve_spec(args.stream)))
    report = Report()

    _, _, branch_to_shift = shifts_from_branch(inst, cert, hs)
    report.extend(branch_to_shift)

    upto = len(inst.base)
    stream = inst.induced_stream(upto + 1)
    trace = run_shift_construction(stream, upto + 1)
    report.extend(verify_shift_trace(trace, stream))
    chain = inst.branch_prefixes(upto)
    _, shift_to_branch = branch_from_shifts(inst, chain,
                                            [st.pi for st in trace.steps])
    report.extend(shift_to_branch)

    _print_report(report, "theorem")
    if not report.passed:
        first = report.failures[0]
        _emit({"failedClaim": first.name, "n": first.index}, sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_props(args) -> int:
    results = run_properties(args.seed, args.cases)
    ok = True
    for rec in results:
        ok = ok and rec["ok"]
        _emit(rec)
    _emit({"command": "props", "passed": ok,
           "properties": len(results), "seed": args.seed, "cases": args.cases})
    return EXIT_OK if ok else EXIT_FAIL


def integer(text: str) -> int:
    """argparse type for an integer: ASCII digits after an optional minus
    (int() would also take other scripts' digits, underscores, spaces)."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def nonnegative(text: str) -> int:
    """argparse type for a nonnegative integer in ASCII digits."""
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def step_count(text: str) -> int:
    """argparse type for ``construct --steps``: 0 to ``_MAX_STEPS``."""
    value = nonnegative(text)
    if value > _MAX_STEPS:
        raise argparse.ArgumentTypeError(
            f"must be at most {_MAX_STEPS}: {value}")
    return value


@functools.cache  # built once per process, not once per call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshift",
        description="exact order-automorphism shift construction and "
                    "certificate checking over the rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the recursion, write a trace")
    p.add_argument("--stream", required=True, help="stream spec JSON file")
    p.add_argument("--steps", type=step_count, required=True,
                   help=f"last step index, at most {_MAX_STEPS}")
    p.add_argument("--out", required=True, help="trace output path")

    p = sub.add_parser("verify", help="re-check a trace file")
    p.add_argument("--stream", required=True, help="stream spec JSON file")
    p.add_argument("--out", required=True, help="trace file to verify")

    p = sub.add_parser("theorem", help="check a theorem instance file")
    p.add_argument("--stream", required=True,
                   help="instance JSON file (bundled name or path)")
    # accepted for compatibility; every theorem check is exact
    p.add_argument("--seed", type=integer, default=0,
                   help="ignored: does not change the output")
    p.add_argument("--cases", type=nonnegative, default=100,
                   help="ignored: does not change the output")

    p = sub.add_parser("props", help="run the property suites")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--cases", type=nonnegative, default=200)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* is the one called
        return globals()["cmd_" + args.command](args)
    except QshiftError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
