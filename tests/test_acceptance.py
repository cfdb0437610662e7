"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single PASS line when its criterion holds, so a
verbose run doubles as the acceptance report.
"""

import time
from importlib import resources
from random import Random

from qshift.construction import (EStream, rational_enum,
                                 run_shift_construction, verify_shift_trace,
                                 witness_subgroup)
from qshift.hfa import Atom, in_sym
from qshift.ndsets import GeomTail, NDSet, ndset_points
from qshift.plmaps import PLMap
from qshift.properties import brute_scan_gap
from qshift.rationals import Q
from qshift.sampling import (rng_hfa, rng_interval, rng_ndset, rng_plmap,
                             rng_rational)
from qshift.subgroups import (Conj, Fix, ShiftProblem, Stab,
                              check_shift_witness, member)
from qshift.theorem import (BranchCertificate, TreeInstance,
                            branch_from_shifts, essential_shift,
                            orbit_member, shifts_from_branch)

SPECS = resources.files("qshift").joinpath("specs")


def _report(name, started):
    print(f"PASS {name} ({time.time() - started:.2f}s)")


def test_criterion_1_group_law_suite():
    started = time.time()
    rng = Random(1001)
    for _ in range(1000):
        f, g, h = rng_plmap(rng), rng_plmap(rng), rng_plmap(rng)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(f.invert()) == PLMap.identity()
        assert f.invert().compose(f) == PLMap.identity()
        assert f.compose(PLMap.identity()) == f
        assert PLMap.identity().compose(f) == f
        p, q = rng_rational(rng), rng_rational(rng)
        if p < q:
            assert f.apply(p) < f.apply(q)
    for _ in range(1000):
        f, g, q = rng_plmap(rng), rng_plmap(rng), rng_rational(rng)
        assert f.compose(g).apply(q) == f.apply(g.apply(q))
    elapsed = time.time() - started
    assert elapsed < 5, f"group-law suite took {elapsed:.2f}s"
    _report("criterion 1: group laws, 1000 + 1000 random cases", started)


def _dense_stream(count):
    return EStream([ndset_points(rational_enum(i)) for i in range(count)])


def test_criterion_2_dense_singletons_n20():
    started = time.time()
    stream = _dense_stream(21)
    trace = run_shift_construction(stream, 20)
    report = verify_shift_trace(trace, stream)
    assert report.passed, report.summary()
    assert all(c.ok for c in report.checks if c.name == "fixes-shifted")
    # strengthened closed-interval disjointness for every (m, k) pair
    disjoint = [c for c in report.checks if c.name == "gap-disjoint"]
    assert len(disjoint) == 21 * 21 and all(c.ok for c in disjoint)
    w = witness_subgroup(trace)
    rng = Random(1002)
    for _ in range(100):
        gap = w.find_gap(rng_interval(rng))
        assert w.closure_meets_closed(gap.lower, gap.upper) is None
    elapsed = time.time() - started
    assert elapsed < 30, f"construction suite took {elapsed:.2f}s"
    _report("criterion 2: dense-singleton stream, N=20, verified", started)


def test_criterion_3_tail_start_n10():
    started = time.time()
    stream = EStream([NDSet(tails=[GeomTail(0, 1, Q(1, 2))])]
                     + [ndset_points(Q(1, 2 * k + 1)) for k in range(1, 11)])
    trace = run_shift_construction(stream, 10)
    report = verify_shift_trace(trace, stream)
    assert report.passed, report.summary()
    w = witness_subgroup(trace)
    rng = Random(1003)
    for _ in range(100):
        gap = w.find_gap(rng_interval(rng))
        assert w.closure_meets_closed(gap.lower, gap.upper) is None
    elapsed = time.time() - started
    assert elapsed < 30, f"tail-start suite took {elapsed:.2f}s"
    _report("criterion 3: geometric-tail start, N=10, verified", started)


def test_criterion_4_shift_witness_prefix_check():
    started = time.time()
    stream = _dense_stream(21)
    trace = run_shift_construction(stream, 20)
    groups = [Fix(stream.level(n)) for n in range(21)]
    pis = [st.pi for st in trace.steps[:-1]]
    candidate = witness_subgroup(trace)
    report = check_shift_witness(ShiftProblem(groups, pis, candidate))
    assert report.passed, report.summary()
    for n in range(len(pis)):
        mutated = list(pis)
        mutated[n] = PLMap.translation(10 ** 6).compose(mutated[n])
        rep = check_shift_witness(ShiftProblem(groups, mutated, candidate))
        failed = [c.index for c in rep.checks
                  if c.name == "member" and not c.ok]
        assert failed == [n], f"mutating step {n} failed at {failed}"
    _report("criterion 4: witness check + 20 single-map mutations", started)


def test_criterion_5_conjugation_identity_and_essential_shift():
    started = time.time()
    rng = Random(1005)
    for _ in range(500):
        pi, f = rng_plmap(rng), rng_plmap(rng)
        x = rng_hfa(rng)
        twisted = pi.invert().compose(f).compose(pi)
        assert member(Conj(pi, Stab(x)), f) == in_sym(twisted, x)
    xs = [Atom(i) for i in range(5)]
    stream = EStream([ndset_points(i) for i in range(5)] + [NDSet()])
    trace = run_shift_construction(stream, 5)
    assert verify_shift_trace(trace, stream).passed
    _, report = essential_shift(xs, [st.pi for st in trace.steps])
    assert report.passed, report.summary()
    _report("criterion 5: conjugation two-route x500 + essential shift",
            started)


def test_criterion_6_branch_from_shifts_composite():
    started = time.time()
    inst = TreeInstance([Atom(i + 1) for i in range(12)], ndset_points(0))
    upto = 13
    stream = inst.induced_stream(upto)
    trace = run_shift_construction(stream, upto)
    assert verify_shift_trace(trace, stream).passed
    chain = inst.branch_prefixes(11)
    ts, report = branch_from_shifts(inst, chain,
                                    [st.pi for st in trace.steps])
    assert report.passed, report.summary()
    chain_checks = [c for c in report.checks
                    if c.name == "chain" and c.index <= 10]
    fixed_checks = [c for c in report.checks
                    if c.name == "fixed-point" and c.index <= 10]
    orbit_checks = [c for c in report.checks
                    if c.name == "orbit-member" and c.index <= 10]
    assert len(chain_checks) >= 11 and all(c.ok for c in chain_checks)
    assert len(fixed_checks) >= 11 and all(c.ok for c in fixed_checks)
    assert len(orbit_checks) >= 11 and all(c.ok for c in orbit_checks)
    for t in ts[:11]:
        assert orbit_member(inst, t)
    _report("criterion 6: branch-from-shifts composite, n <= 10", started)


def test_criterion_7_shifts_from_branch_translation():
    started = time.time()
    xs = [Atom(i) for i in range(11)]
    inst = TreeInstance(xs, NDSet())
    cert = BranchCertificate(xs, [Atom(i + 3) for i in range(11)],
                             [PLMap.translation(3)] * 11)
    pis, ks, report = shifts_from_branch(inst, cert,
                                         inst.declared_groups(11))
    assert report.passed, report.summary()
    tele = [c for c in report.checks if c.name == "telescoping"]
    claim1 = [c for c in report.checks if c.name == "claim1"]
    claim2 = [c for c in report.checks if c.name == "claim2"]
    assert len(tele) == 11 and all(c.ok for c in tele)
    assert len(claim1) == 11 and all(c.ok for c in claim1)
    assert len(claim2) == 11 and all(c.ok for c in claim2)
    _report("criterion 7: shifts-from-branch, claims 1 and 2, n <= 10",
            started)


def test_criterion_8_gap_oracle_equivalence():
    started = time.time()
    rng = Random(1008)
    for _ in range(200):
        e = rng_ndset(rng)
        iv = rng_interval(rng)
        gap = e.find_gap(iv)
        assert iv.contains_closed(gap.lower, gap.upper)
        witness = brute_scan_gap(e, gap, 128)
        assert witness is None, f"{witness} inside {gap}"
    _report("criterion 8: 200 gaps clean under denominator-128 scan",
            started)


def test_criterion_9_golden_determinism(tmp_path):
    from qshift.cli import main
    started = time.time()
    cases = [("empty.json", 3, "empty_N3.trace.json"),
             ("dense_singletons.json", 10, "dense_singletons_N10.trace.json")]
    for spec, steps, golden in cases:
        want = (SPECS / "golden" / golden).read_bytes()
        for run in (1, 2, 3, 4):
            out = tmp_path / f"{golden}.{run}"
            assert main(["construct", "--stream", str(SPECS / spec),
                         "--steps", str(steps), "--out", str(out)]) == 0
            assert out.read_bytes() == want, (spec, run)
    _report("criterion 9: golden traces byte-stable over repeated runs",
            started)
