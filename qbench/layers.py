"""The qshift functions the traced run wraps, and the per-layer metric names.

Each entry is ``(metric prefix, module, attribute path, kinds)``: the
traced run reports ``<prefix>.<kind>`` per pass for every kind listed.
``calls`` and ``self_s`` come from the span tracer; ``total_s`` is the
time inside outermost calls, so it includes the callees.
"""

import importlib

CS = ("calls", "self_s")
CST = ("calls", "self_s", "total_s")

FUNCTIONS = [
    ("rationals.simplest_between", "rationals", "simplest_between", CS),
    ("plmaps.PLMap.__init__", "plmaps", "PLMap.__init__", CS),
    ("plmaps.PLMap.apply", "plmaps", "PLMap.apply", CS),
    ("plmaps.PLMap.compose", "plmaps", "PLMap.compose", CS),
    ("plmaps.PLMap.invert", "plmaps", "PLMap.invert", CS),
    ("plmaps.squeeze_map", "plmaps", "squeeze_map", CS),
    ("ndsets.NDSet.__init__", "ndsets", "NDSet.__init__", CS),
    ("ndsets.NDSet.image", "ndsets", "NDSet.image", CS),
    ("ndsets.NDSet.union", "ndsets", "NDSet.union", CS),
    ("ndsets.NDSet.contains", "ndsets", "NDSet.contains", CS),
    ("ndsets.NDSet.closure_contains", "ndsets", "NDSet.closure_contains", CS),
    ("ndsets.NDSet.closure_meets_closed", "ndsets",
     "NDSet.closure_meets_closed", CS),
    ("ndsets.NDSet.find_gap", "ndsets", "NDSet.find_gap", CS),
    ("ndsets.NDSet.subset_of_closure", "ndsets", "NDSet.subset_of_closure", CS),
    ("ndsets.GeomTail.contains", "ndsets", "GeomTail.contains", CS),
    ("construction.evacuate", "construction", "evacuate", CST),
    ("construction.EStream.level", "construction", "EStream.level", CST),
    ("construction.run_shift_construction", "construction",
     "run_shift_construction", CST),
    ("construction.verify_shift_trace", "construction",
     "verify_shift_trace", CST),
    ("subgroups.fix_violation", "subgroups", "fix_violation", CS),
    ("subgroups.member", "subgroups", "member", CS),
    ("subgroups.normalize", "subgroups", "normalize", CS),
    ("subgroups.check_shift_witness", "subgroups", "check_shift_witness", CS),
    ("hfa.act", "hfa", "act", CS),
    ("hfa.atoms_support", "hfa", "atoms_support", CS),
    ("theorem.shifts_from_branch", "theorem", "shifts_from_branch", CS),
    ("theorem.branch_from_shifts", "theorem", "branch_from_shifts", CS),
    ("serial.stream_from_obj", "serial", "stream_from_obj", CS),
    ("serial.trace_to_obj", "serial", "trace_to_obj", CS),
    ("serial.trace_from_obj", "serial", "trace_from_obj", CS),
    ("serial.canon_dumps", "serial", "canon_dumps", CS),
    ("serial.read_json_file", "serial", "read_json_file", CS),
    ("serial.write_json_file", "serial", "write_json_file", CS),
    ("cli.cmd_construct", "cli", "cmd_construct", CST),
    ("cli.cmd_verify", "cli", "cmd_verify", CST),
    ("cli.cmd_props", "cli", "cmd_props", CST),
    ("cli.cmd_theorem", "cli", "cmd_theorem", CST),
]

# The property suites, keyed as in qshift.properties.PROPERTIES.
SUITES = [
    "group-laws", "eval-compose", "squeeze-postconditions",
    "ndset-equivariance", "gap-soundness", "closure-coherence",
    "hfa-action-laws", "hfa-support-sufficiency", "hfa-conjugation-identity",
    "subgroup-normalize", "subgroup-conj-routes", "fix-leq-order",
    "construction-roundtrip", "enumeration-coverage",
]

# Exact sizes read from the recursion workloads' outputs (zero on checks).
COUNTERS = [
    ("qarith.sigma_max_bits", "bits", "lower"),
    ("qarith.shifted_max_bits", "bits", "lower"),
    ("plmaps.sigma_breakpoints", "count", "lower"),
    ("ndsets.shifted_points", "count", "lower"),
    ("ndsets.shifted_tails", "count", "lower"),
    ("construction.verify_records", "count", "higher"),
    ("construction.gap_disjoint_records", "count", "higher"),
    ("serial.trace_bytes", "bytes", "lower"),
]

ROOTS = [name for name, module, _, _ in FUNCTIONS if module == "cli"]
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_spec():
    """(name, unit, better) for every per-layer metric, in report order."""
    spec = [(name, unit, better) for name, unit, better in COUNTERS]
    for prefix, _, _, kinds in FUNCTIONS:
        spec.extend((f"{prefix}.{kind}", UNITS[kind], "lower") for kind in kinds)
    spec.extend((f"properties.{suite}.total_s", "s", "lower") for suite in SUITES)
    spec.append(("trace_overhead", "ratio", "lower"))
    return spec


def targets():
    """(span name, owner, attribute) for Tracer.install."""
    out = []
    for prefix, module, path, _ in FUNCTIONS:
        owner = importlib.import_module(f"qshift.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        out.append((prefix, owner, attr))
    properties = importlib.import_module("qshift.properties")
    for suite in SUITES:
        out.append((f"properties.{suite}", properties,
                    properties.PROPERTIES[suite].__name__))
    return out
