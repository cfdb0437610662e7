from random import Random

import pytest

from qshift.construction import (EStream, rational_enum,
                                 run_shift_construction, witness_subgroup)
from qshift.hfa import Atom, SeqNode, SetNode, atoms_support, in_sym
from qshift.ndsets import (EMPTY_NDSET, GeomTail, NDSet, ndset_points,
                           tail_final_piece)
from qshift.plmaps import PLMap, squeeze_map
from qshift.properties import _rng_term
from qshift.rationals import Interval, Q
from qshift.sampling import (fix_members, rng_geomtail, rng_hfa, rng_ndset,
                             rng_plmap, rng_rational)
from qshift.subgroups import (FULL_GROUP, Conj, Fix, Inter, ShiftProblem,
                              Stab, check_shift_witness, fix_leq,
                              fix_violation, member, normalize)


def test_member_full_and_fix_basics():
    rng = Random(2)
    for _ in range(20):
        assert member(FULL_GROUP, rng_plmap(rng))
    assert member(Fix(EMPTY_NDSET), PLMap.translation(5))
    assert not member(Fix(ndset_points(0)), PLMap.translation(1))
    assert member(Fix(ndset_points(0)), PLMap.scaling(2))


def test_member_fix_tail():
    tail_set = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    # doubling fixes the limit 0 but no term
    assert not member(Fix(tail_set), PLMap.scaling(2))
    assert member(Fix(tail_set), PLMap.identity())
    # a bump strictly above the whole tail leaves it fixed
    bump = PLMap([(2, 2), (3, Q(5, 2)), (4, 4)])
    assert member(Fix(tail_set), bump)
    # a bump inside (1/2, 1) moves no term either
    inner = PLMap([(Q(1, 2), Q(1, 2)), (Q(3, 4), Q(2, 3)), (1, 1)])
    assert member(Fix(tail_set), inner)
    # but a map with a non-unit slope through the limit fails
    kink = PLMap([(Q(-1), Q(-1))], 1, Q(1, 2))
    assert not member(Fix(tail_set), kink)


def test_member_stab_and_conj():
    x = SetNode([Atom(0), Atom(1)])
    assert member(Stab(x), PLMap.identity())
    assert not member(Stab(Atom(0)), PLMap.translation(1))
    pi = PLMap.translation(5)
    # f stabilizes pi(x) iff pi^-1 f pi stabilizes x
    f = PLMap([(5, 5), (Q(11, 2), Q(21, 4)), (6, 6)])
    assert member(Conj(pi, Stab(x)), f) == in_sym(
        pi.invert().compose(f).compose(pi), x)


def test_member_inter():
    h = Inter([Fix(ndset_points(0)), Fix(ndset_points(1))])
    assert member(h, PLMap([(0, 0), (1, 1)]))
    assert not member(h, PLMap([(0, 0), (1, 2), (3, 3)]))  # moves 1
    assert member(h, PLMap([(0, 0), (1, 1), (2, 3)]))      # moves only 2


def test_normalize_rules():
    e = NDSet([Q(1)], [GeomTail(0, 1, Q(1, 2))])
    pi = PLMap.translation(7)
    assert normalize(Conj(PLMap.identity(), Fix(e))) == Fix(e)
    assert normalize(Conj(pi, Fix(e))) == Fix(e.image(pi))
    assert normalize(FULL_GROUP) == Fix(EMPTY_NDSET)
    assert normalize(Conj(pi, FULL_GROUP)) == Fix(EMPTY_NDSET)
    x = SetNode([Atom(0)])
    assert normalize(Stab(x)) == Fix(ndset_points(0))
    assert normalize(Conj(pi, Stab(x))) == Fix(ndset_points(7))
    rho = PLMap.scaling(2)
    assert normalize(Conj(pi, Conj(rho, Fix(e)))) == \
        normalize(Conj(pi.compose(rho), Fix(e)))
    flat = normalize(Inter([Inter([Fix(e), FULL_GROUP]), Fix(e)]))
    assert flat == Fix(e)
    assert normalize(Inter([Stab(x), Fix(ndset_points(2))])) == \
        Fix(ndset_points(0, 2))
    assert normalize(Inter([])) == Fix(EMPTY_NDSET)


def test_stab_is_fix_of_the_atom_support():
    # the proved rule behind normalize's Stab case, against in_sym: maps
    # fixing all, some or none of the atoms, and unconstrained maps
    rng = Random(1601)
    seen = {True: 0, False: 0}
    for _ in range(400):
        x = rng_hfa(rng)
        support = atoms_support(x)
        some = NDSet(points=[p for p in support.points if rng.random() < 0.5])
        maps = [rng_plmap(rng), PLMap.identity()]
        maps += fix_members(support, rng, 2) + fix_members(some, rng, 2)
        for f in maps:
            got = in_sym(f, x)
            assert got == (fix_violation(f, support) is None), (x, f)
            seen[got] += 1
    assert min(seen.values()) >= 300, seen


def test_normalize_gives_fix_with_the_same_members():
    rng = Random(1602)
    moved = 0
    for _ in range(300):
        h = _rng_term(rng)
        n = normalize(h)
        assert isinstance(n, Fix), h
        probes = [rng_plmap(rng), PLMap.identity()]
        probes += fix_members(n.support, rng, 2)
        for f in probes:
            assert member(h, f) == member(n, f), (h, f)
            moved += not member(n, f)
    assert moved >= 200, moved


def test_normalize_preserves_membership():
    rng = Random(31)
    for _ in range(200):
        e = rng_ndset(rng, max_points=2, max_tails=1)
        pi = rng_plmap(rng)
        h = Conj(pi, Fix(e))
        f = rng_plmap(rng)
        assert member(h, f) == member(normalize(h), f)
        g = fix_members(e.image(pi), rng, 1)[0]
        assert member(h, g) and member(normalize(h), g)


def test_fix_leq_examples():
    e = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    assert fix_leq(e, e) is None
    assert fix_leq(ndset_points(0), ndset_points(1)) == Q(1)
    # the limit of a fixed tail cannot move
    assert fix_leq(e, ndset_points(0)) is None
    # sampled confirmation: generated members of Fix(tail) all fix 0
    rng = Random(41)
    for g in fix_members(e, rng, 50):
        assert g.apply(Q(0)) == 0


def test_check_shift_witness_trivial():
    problem = ShiftProblem([FULL_GROUP] * 4, [PLMap.identity()] * 3,
                           EMPTY_NDSET)
    report = check_shift_witness(problem)
    assert report.passed


def _dense_problem(upto=8):
    incs = [ndset_points(rational_enum(i)) for i in range(upto + 2)]
    stream = EStream(incs)
    trace = run_shift_construction(stream, upto)
    groups = [Fix(stream.level(n)) for n in range(upto + 1)]
    pis = [st.pi for st in trace.steps[:-1]]
    return ShiftProblem(groups, pis, witness_subgroup(trace))


def test_check_shift_witness_end_to_end():
    report = check_shift_witness(_dense_problem())
    assert report.passed


def test_check_shift_witness_mutation():
    problem = _dense_problem()
    for n in (0, 3, 7):
        pis = list(problem.witness)
        pis[n] = PLMap.translation(10 ** 6).compose(pis[n])
        mutated = ShiftProblem(problem.groups, pis, problem.candidate)
        report = check_shift_witness(mutated)
        failed = [c.index for c in report.checks
                  if c.name == "member" and not c.ok]
        assert failed == [n]


def test_check_shift_witness_stab_groups():
    # Stab groups normalize to Fix of their atoms, so candidate-leq is
    # decided on the supports, with the least moved atom as witness
    x = SetNode([Atom(5), SeqNode([Atom(2), Atom(5)])])
    atoms = atoms_support(x)
    assert atoms == ndset_points(2, 5)
    groups = [Stab(x), Stab(x)]
    report = check_shift_witness(
        ShiftProblem(groups, [PLMap.identity()], atoms))
    assert report.passed
    report = check_shift_witness(
        ShiftProblem(groups, [PLMap.identity()], EMPTY_NDSET))
    leq = [c for c in report.checks if c.name == "candidate-leq"]
    assert [(c.ok, c.detail) for c in leq] == [(False, "witness 2")] * 2
    assert report.failed == 2


def test_shift_problem_validation():
    with pytest.raises(ValueError):
        ShiftProblem([FULL_GROUP], [PLMap.identity()] * 2, EMPTY_NDSET)


def fix_violation_scan(f, support):
    """Every point evaluated in order, then the tails: the reference for
    fix_violation's witness."""
    for p in support.points:
        if f.apply(p) != p:
            return p
    for t in support.tails:
        k0, slope = tail_final_piece(f, t)
        if slope != 1 or f.apply(t.term(k0)) != t.term(k0):
            return t.term(k0)
        for k in range(k0):
            if f.apply(t.term(k)) != t.term(k):
                return t.term(k)
    return None


def test_fix_violation_matches_full_scan():
    rng = Random(1717)
    outcomes = {"none": 0, "moved": 0, "on-breakpoint": 0}
    for _ in range(600):
        base = rng_ndset(rng)
        kind = rng.random()
        if kind < 0.4:
            f = fix_members(base, rng, 1)[0]
        elif kind < 0.7:
            c, d = sorted({rng_rational(rng, 10), rng_rational(rng, 10)}
                          | {Q(-11), Q(11)})[:2]
            f = squeeze_map(Interval(c - 1, d + 1),
                            [((c, d), Interval(c - 1, c - Q(1, 2)))])
        else:
            f = rng_plmap(rng)
        xs = [x for x, _ in f.breakpoints]
        # breakpoints (ends of identity pieces among them), points just
        # inside and beyond them, and random points
        extra = [x for x in xs if rng.random() < 0.5]
        extra += [(x + y) / 2 for x, y in zip(xs, xs[1:])
                  if rng.random() < 0.3]
        extra += [xs[0] - 1, xs[-1] + 1][:rng.randint(0, 2)]
        support = NDSet(list(base.points) + extra, base.tails)
        got = fix_violation(f, support)
        assert got == fix_violation_scan(f, support), (f, support)
        if got is None:
            outcomes["none"] += 1
        else:
            outcomes["moved"] += 1
            outcomes["on-breakpoint"] += got in xs
    assert min(outcomes.values()) >= 20, outcomes


def test_fix_violation_matches_full_scan_on_tail_streams():
    # every step's map against the set it fixes and the set it moves
    rng = Random(1212)
    moved = identity = scanned = 0
    for _ in range(8):
        s = EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                     for _ in range(14)])
        trace = run_shift_construction(s, 12)
        for step, sigma in zip(trace.steps, trace.sigmas):
            moving = s.level(step.n + 1).image(sigma)
            for support in (step.shifted, moving):
                got = fix_violation(step.pi, support)
                assert got == fix_violation_scan(step.pi, support)
                moved += got is not None
                identity += step.pi.is_identity
                if not step.pi.is_identity:
                    scanned += len(support.tails)
    assert moved >= 10 and identity >= 50 and scanned >= 50, (
        moved, identity, scanned)


def test_first_moved_skips_identity_pieces():
    bump = PLMap([(0, 0), (1, 2), (3, 3)])
    pts = [Q(-5), Q(0), Q(3), Q(4), Q(7)]
    assert bump.first_moved(pts) is None
    assert bump.first_moved(sorted(pts + [Q(1)])) == Q(1)
    # a piece with slope 1 that is not the identity moves every point
    shift = PLMap([(0, 0), (1, 2), (2, 3)], 1, 1)
    assert shift.first_moved([Q(-1), Q(0), Q(3, 2), Q(5)]) == Q(3, 2)
    # the one fixed point of a non-identity piece is fixed
    f = PLMap([(0, 0), (2, 4)], 1, 2)
    assert f.first_moved([Q(0), Q(1)]) == Q(1)
    assert f.first_moved([Q(-3), Q(0)]) is None
