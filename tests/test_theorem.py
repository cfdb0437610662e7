from importlib import resources
from random import Random

import pytest

from qshift.construction import EStream, run_shift_construction, \
    verify_shift_trace
from qshift.hfa import Atom, SeqNode, atom_seq, atoms_support
from qshift.ndsets import EMPTY_NDSET, GeomTail, NDSet, ndset_points
from qshift.plmaps import PLMap
from qshift.rationals import Q
from qshift.sampling import fix_members, rng_plmap
from qshift.serial import instance_from_obj, read_json_file
from qshift.subgroups import (FULL_GROUP, Conj, Fix, Inter, Stab, fix_leq,
                              member, normalize)
from qshift.theorem import (BranchCertificate, CertificateError, TreeInstance,
                            branch_from_shifts, essential_shift, orbit_member,
                            order_iso_fixing, shifts_from_branch)

SPECS = resources.files("qshift").joinpath("specs")


def _instance(size=12):
    return TreeInstance([Atom(i + 1) for i in range(size)], ndset_points(0))


def test_declared_groups_match_the_direct_formula():
    # H_n is the base support united with the atoms of the length n-1
    # prefix, written out here without the induced stream; counts past
    # the base sequence repeat the last group
    for name in ("theorem_identity.json", "theorem_translation.json"):
        inst, _, _ = instance_from_obj(read_json_file(str(SPECS / name)))
        base, support = inst.base, inst.base_support
        for count in range(len(base) + 6):
            want = [Fix(support.union(NDSet(
                        points=[x.value for x in base[:max(0, n - 1)]])))
                    for n in range(count)]
            assert inst.declared_groups(count) == want, (name, count)


def test_order_iso_fixing_constructs_witness():
    f = order_iso_fixing(ndset_points(0), [(Q(1), Q(1, 2)), (Q(2), Q(7))])
    assert f is not None
    assert f.apply(Q(1)) == Q(1, 2) and f.apply(Q(2)) == Q(7)
    assert f.apply(Q(0)) == 0


def test_order_iso_fixing_obstructions():
    support = ndset_points(0)
    # target crosses the fixed point: monotone impossible
    assert order_iso_fixing(support, [(Q(1), Q(-1))]) is None
    # order pattern flipped
    assert order_iso_fixing(support, [(Q(1), Q(5)), (Q(2), Q(4))]) is None
    # conflicting images for one argument
    assert order_iso_fixing(support, [(Q(1), Q(2)), (Q(1), Q(3))]) is None
    # support point must stay put
    assert order_iso_fixing(support, [(Q(0), Q(1))]) is None
    assert order_iso_fixing(support, [(Q(0), Q(0))]) == PLMap.identity()


def test_order_iso_fixing_respects_tail_gaps():
    support = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    # 3/16 sits between the terms 1/8 and 1/4; it may move inside that
    # gap but not across a term
    inside = order_iso_fixing(support, [(Q(3, 16), Q(7, 32))])
    assert inside is not None
    for k in range(8):
        t = Q(1, 2) ** k
        assert inside.apply(t) == t
    assert order_iso_fixing(support, [(Q(3, 16), Q(3, 8))]) is None


def test_orbit_member_examples():
    inst = _instance()
    assert orbit_member(inst, inst.prefix(3))
    assert not orbit_member(inst, atom_seq([2, 1, 3]))   # wrong pattern
    assert not orbit_member(inst, atom_seq([-1, 2]))     # crosses support
    assert orbit_member(inst, atom_seq([Q(1, 2), 7]))    # same-gap placement
    assert orbit_member(inst, SeqNode([]))
    with pytest.raises(ValueError):
        orbit_member(inst, SeqNode([Atom(1), SeqNode([])]))


def test_branch_from_shifts_identity_maps():
    inst = _instance(4)
    chain = inst.branch_prefixes(3)
    ts, report = branch_from_shifts(inst, chain, [PLMap.identity()] * 4)
    assert report.passed
    assert ts == [SeqNode(inst.base[:n]) for n in range(4)]


def test_branch_from_shifts_end_to_end():
    inst = _instance(8)
    upto = 9
    stream = inst.induced_stream(upto)
    trace = run_shift_construction(stream, upto)
    assert verify_shift_trace(trace, stream).passed
    chain = inst.branch_prefixes(8)
    ts, report = branch_from_shifts(inst, chain,
                                    [st.pi for st in trace.steps])
    assert report.passed, report.summary()
    for t in ts:
        assert orbit_member(inst, t)


def test_branch_from_shifts_mutation_detected():
    inst = _instance(8)
    upto = 9
    trace = run_shift_construction(inst.induced_stream(upto), upto)
    pis = [st.pi for st in trace.steps]
    pis[3] = PLMap.translation(10 ** 5).compose(pis[3])
    chain = inst.branch_prefixes(8)
    _, report = branch_from_shifts(inst, chain, pis)
    assert not report.passed
    bad = [c for c in report.failures]
    assert any(c.name in ("chain", "fixed-point") for c in bad)


def test_branch_from_shifts_validates_chain():
    inst = _instance(4)
    with pytest.raises(ValueError):
        branch_from_shifts(inst, [inst.prefix(2), inst.prefix(1)],
                           [PLMap.identity()] * 2)
    with pytest.raises(ValueError):
        branch_from_shifts(inst, inst.branch_prefixes(2), [PLMap.identity()])


def test_shifts_from_branch_identity():
    xs = [Atom(i) for i in range(3)]
    inst = TreeInstance(xs, EMPTY_NDSET)
    cert = BranchCertificate(xs, xs, [PLMap.identity()] * 3)
    pis, ks, report = shifts_from_branch(inst, cert,
                                         inst.declared_groups(3))
    assert report.passed
    assert all(p.is_identity for p in pis)


def test_shifts_from_branch_translation():
    c = Q(3)
    xs = [Atom(i) for i in range(4)]
    inst = TreeInstance(xs, EMPTY_NDSET)
    cert = BranchCertificate(xs, [Atom(i + 3) for i in range(4)],
                             [PLMap.translation(c)] * 4)
    pis, ks, report = shifts_from_branch(inst, cert,
                                         inst.declared_groups(4))
    assert report.passed, report.summary()
    assert pis[0] == PLMap.translation(3)
    assert all(p.is_identity for p in pis[1:])
    for n, (k, pi) in enumerate(zip(ks, pis)):
        assert member(k, pi), n


def test_shifts_from_branch_tau_inconsistency():
    xs = [Atom(i) for i in range(4)]
    inst = TreeInstance(xs, EMPTY_NDSET)
    ts = [Atom(i + 3) for i in range(3)] + [Atom(99)]
    cert = BranchCertificate(xs, ts, [PLMap.translation(3)] * 4)
    with pytest.raises(CertificateError) as err:
        shifts_from_branch(inst, cert, inst.declared_groups(4))
    assert err.value.index == 3


def test_shifts_from_branch_nontrivial_maps():
    # branch moved by a kinked map: tau_n all equal a fixed automorphism
    xs = [Atom(i) for i in range(4)]
    tau = PLMap([(0, 0), (1, 2), (2, 3)])
    inst = TreeInstance(xs, EMPTY_NDSET)
    ts = [Atom(tau.apply(x.value)) for x in xs]
    cert = BranchCertificate(xs, ts, [tau] * 4)
    pis, ks, report = shifts_from_branch(inst, cert,
                                         inst.declared_groups(4))
    assert report.passed
    assert pis[0] == tau and all(p.is_identity for p in pis[1:])


def _conjugated_by_tau(cert, hs):
    # K_n written with tau_{n-1} in place of the composed pi maps
    return [normalize(hs[0])] + [normalize(Conj(cert.tau[n - 1], hs[n]))
                                 for n in range(1, len(cert))]


def test_shifted_groups_match_conjugation_by_tau():
    tau = PLMap([(0, 0), (1, 2), (2, 3)])
    xs = [Atom(i) for i in range(4)]
    kinked = TreeInstance(xs, EMPTY_NDSET)
    cases = [(kinked, BranchCertificate(
        xs, [Atom(tau.apply(x.value)) for x in xs], [tau] * 4),
        kinked.declared_groups(4))]
    for name in ("theorem_identity.json", "theorem_translation.json"):
        cases.append(instance_from_obj(read_json_file(str(SPECS / name))))
    for inst, cert, hs in cases:
        _, ks, report = shifts_from_branch(inst, cert, hs)
        assert report.passed
        assert ks == _conjugated_by_tau(cert, hs)


def test_shifts_from_branch_checks_every_pair_decreasing():
    # every pair is decided exactly, the full group and Stab included
    xs = [Atom(i + 1) for i in range(4)]
    inst = TreeInstance(xs, EMPTY_NDSET)
    cert = BranchCertificate(xs, xs, [PLMap.identity()] * 4)
    hs = [FULL_GROUP, Stab(Atom(1)), Fix(ndset_points(1)),
          Fix(ndset_points(1, 2))]
    _, _, report = shifts_from_branch(inst, cert, hs)
    records = [c for c in report.checks if c.name == "decreasing"]
    assert [c.index for c in records] == list(range(len(cert) - 1))
    assert all(c.ok for c in records)
    # with the first two groups swapped the chain grows at n = 0
    _, _, report = shifts_from_branch(inst, cert, hs[:2][::-1] + hs[2:])
    first = report.failures[0]
    assert (first.name, first.index) == ("decreasing", 0)
    assert first.detail == "witness 1"
    # a last group fixing a point off the branch fails claim 2 there only
    _, _, report = shifts_from_branch(inst, cert,
                                      hs[:3] + [Fix(ndset_points(1, 2, 100))])
    assert [(c.name, c.index, c.detail) for c in report.failures] == \
        [("claim2", 3, "witness 100")]
    # a first group fixing such a point fails the generators' claim too
    _, _, report = shifts_from_branch(inst, cert, [Fix(ndset_points(100))] * 4)
    assert [(c.name, c.index) for c in report.failures] == \
        [("claim2-generators", None)] + [("claim2", n) for n in range(4)]


def _half_free_half_fixing(support, rng, count):
    """Half unconstrained maps, half members of Fix(support): the maps
    the sampled checks drew."""
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(rng_plmap(rng))
        else:
            out.extend(fix_members(support, rng, 1))
    return out


def _sampled_decreasing(groups, rng):
    """The sampled ``decreasing`` verdicts: exact for a pair of Fix terms,
    else 20 maps, as checked before every term normalized to Fix."""
    verdicts = []
    for n in range(len(groups) - 1):
        lo, hi = groups[n + 1], groups[n]
        if isinstance(lo, Fix) and isinstance(hi, Fix):
            ok = fix_leq(lo.support, hi.support) is None
        else:
            support = lo.support if isinstance(lo, Fix) else NDSet()
            ok = all(member(hi, g)
                     for g in _half_free_half_fixing(support, rng, 20)
                     if member(lo, g))
        verdicts.append(ok)
    return verdicts


def _sampled_claim2(inst, cert, ks, rng, samples):
    """The sampled ``claim2-generators`` and ``claim2`` verdicts, on the
    shifted groups as written."""
    branch_prefix = SeqNode(cert.t)
    k_top = Inter([Stab(branch_prefix), ks[0]])
    gen_support = inst.base_support.union(atoms_support(branch_prefix))
    gens = fix_members(gen_support, rng, samples)
    return ([all(member(k_top, g) for g in gens)]
            + [all(member(k, g) for g in gens) for k in ks])


def test_sampling_never_refuses_what_the_exact_checks_accept():
    # the sampled checks are the oracle: where the exact check says yes,
    # no sample may say no
    xs = [Atom(i + 1) for i in range(4)]
    chain = TreeInstance(xs, EMPTY_NDSET)
    hs = [FULL_GROUP, Stab(Atom(1)), Fix(ndset_points(1)),
          Fix(ndset_points(1, 2))]
    cases = [(chain, BranchCertificate(xs, xs, [PLMap.identity()] * 4), hs),
             (chain, BranchCertificate(xs, xs, [PLMap.identity()] * 4),
              hs[:2][::-1] + hs[2:])]
    for name in ("theorem_identity.json", "theorem_translation.json"):
        cases.append(instance_from_obj(read_json_file(str(SPECS / name))))
    yes = 0
    for inst, cert, hs in cases:
        pis, _, report = shifts_from_branch(inst, cert, hs)
        exact = [c.ok for c in report.checks
                 if c.name in ("decreasing", "claim2-generators", "claim2")]
        # the un-normalized shifted groups, conjugated by the composed maps
        written, sigma = [], PLMap.identity()
        for n, h in enumerate(hs[:len(cert)]):
            written.append(Conj(sigma, h))
            sigma = pis[n].compose(sigma)
        for seed in range(6):
            rng = Random(seed)
            sampled = (_sampled_decreasing(hs[:len(cert)], rng)
                       + _sampled_claim2(inst, cert, written, rng, 40))
            assert len(sampled) == len(exact)
            for e, s in zip(exact, sampled):
                assert s or not e, (cert.t, seed, exact, sampled)
                yes += e
    assert yes >= 100, yes


def test_essential_shift_identity_and_single():
    xs = [Atom(0), Atom(1)]
    ys, report = essential_shift(xs, [PLMap.identity()])
    assert ys == xs and report.passed
    ys, report = essential_shift([Atom(5)], [])
    assert ys == [Atom(5)] and report.passed


def test_essential_shift_through_moving_maps():
    # y_1 = pi_0(x_1) moves, so the conjugate must be taken by pi_0
    xs = [Atom(0), Atom(1)]
    ys, report = essential_shift(xs, [PLMap.translation(3)])
    assert ys == [Atom(0), Atom(4)] and report.passed
    assert [c.name for c in report.checks] == [
        "conjugation-two-route", "conjugation-two-route",
        "sequence-stabilizer"]


def test_essential_shift_with_verified_witness():
    xs = [Atom(0), Atom(1), Atom(2)]
    stream = EStream([ndset_points(0), ndset_points(1), ndset_points(2),
                      EMPTY_NDSET])
    trace = run_shift_construction(stream, 3)
    assert verify_shift_trace(trace, stream).passed
    ys, report = essential_shift(xs, [st.pi for st in trace.steps])
    assert report.passed, report.summary()
    assert ys[0] == xs[0]  # the empty composition leaves x_0 alone
