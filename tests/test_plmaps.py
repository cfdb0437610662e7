from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qshift import construction, properties
from qshift.construction import (EStream, rational_enum,
                                 run_shift_construction)
from qshift.ndsets import NDSet, ndset_points
from qshift.plmaps import PLMap, invert_squeezes, squeeze_map
from qshift.rationals import Interval, Q
from qshift.sampling import (bump_in_gap, rng_distinct_rationals,
                             rng_geomtail, rng_plmap, rng_rational)


def test_apply_identity_and_translation():
    assert PLMap.identity().apply(Q(7, 3)) == Q(7, 3)
    assert PLMap.translation(1).apply(Q(1, 2)) == Q(3, 2)


def test_apply_interpolation():
    # hand evaluation: on [0,1] the segment through (0,0),(1,2) has
    # slope 2, so 1/4 lands on 1/2
    f = PLMap([(0, 0), (1, 2)])
    assert f.apply(Q(1, 4)) == Q(1, 2)
    # ray evaluations
    assert f.apply(Q(-1)) == Q(-1)
    assert f.apply(Q(2)) == Q(3)


def test_compose_cases():
    f = PLMap([(0, 0), (1, 3)])
    assert f.compose(PLMap.identity()) == f
    assert PLMap.identity().compose(f) == f
    assert PLMap.translation(1).compose(PLMap.translation(2)) == \
        PLMap.translation(3)
    # hand oracle: g(1/2) = 3/2 on the slope-3 segment, then doubling
    doubling = PLMap.scaling(2)
    assert doubling.compose(f).apply(Q(1, 2)) == Q(3)


def test_invert_cases():
    assert PLMap.identity().invert() == PLMap.identity()
    assert PLMap.translation(1).invert() == PLMap.translation(-1)
    f = PLMap([(0, 0), (1, 2)])
    g = f.invert()
    assert g.breakpoints == ((Q(0), Q(0)), (Q(2), Q(1)))
    assert f.compose(g) == PLMap.identity()
    assert g.compose(f) == PLMap.identity()


def test_canonical_form():
    # collinear middle breakpoint is dropped
    assert PLMap([(0, 0), (1, 1), (2, 2)]) == PLMap.identity()
    # affine map normalizes its nominal breakpoint to input 0
    assert PLMap([(5, 7)]) == PLMap.translation(2)
    assert PLMap([(1, 2)], 2, 2) == PLMap.affine(2, 0)
    # structural equality is functional equality
    a = PLMap([(0, 0), (1, 2), (2, 4)], 1, 2)
    b = PLMap([(0, 0), (2, 4)], 1, 2)
    assert a == b


def test_validation():
    with pytest.raises(ValueError):
        PLMap([])
    with pytest.raises(ValueError):
        PLMap([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        PLMap([(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        PLMap([(0, 0)], left_slope=0)
    with pytest.raises(ValueError):
        PLMap([(0, 0)], right_slope=-1)


small_rationals = st.builds(Q, st.integers(-20, 20), st.integers(1, 12))


@settings(max_examples=150)
@given(st.randoms(use_true_random=False), small_rationals, small_rationals)
def test_group_laws_hypothesis(pyrng, p, q):
    f, g, h = rng_plmap(pyrng), rng_plmap(pyrng), rng_plmap(pyrng)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert f.compose(f.invert()) == PLMap.identity()
    assert f.invert().compose(f) == PLMap.identity()
    if p < q:
        assert f.apply(p) < f.apply(q)
    assert f.compose(g).apply(p) == f.apply(g.apply(p))


def test_squeeze_empty_targets_is_identity():
    assert squeeze_map(Interval(0, 10), []) == PLMap.identity()


def test_squeeze_moves_blocked_into_gap():
    # deterministic middle-third images: 4 -> 4/3, 6 -> 5/3
    g = squeeze_map(Interval(0, 10), [((Q(4), Q(6)), Interval(1, 2))])
    assert g.apply(Q(4)) == Q(4, 3) and g.apply(Q(4)) >= 1
    assert g.apply(Q(6)) == Q(5, 3) and g.apply(Q(6)) <= 2
    assert g.apply(Q(0)) == 0 and g.apply(Q(10)) == 10
    assert g.apply(Q(-5)) == Q(-5) and g.apply(Q(12)) == Q(12)


def test_squeeze_two_targets_and_interior_samples():
    g = squeeze_map(Interval(0, 12),
                    [((Q(3), Q(4)), Interval(1, 2)),
                     ((Q(8), Q(9)), Interval(5, 6))])
    assert Interval(1, 2).contains(g.apply(Q(3)))
    assert Interval(1, 2).contains(g.apply(Q(4)))
    assert Interval(5, 6).contains(g.apply(Q(17, 2)))
    rng = Random(3)
    samples = sorted({rng_rational(rng, 15) for _ in range(100)})
    for a, b in zip(samples, samples[1:]):
        assert g.apply(a) < g.apply(b)


def test_squeeze_rejects_inconsistent_targets():
    # second gap sits left of the first: images cannot increase
    with pytest.raises(ValueError, match="images not increasing"):
        squeeze_map(Interval(0, 12),
                    [((Q(3), Q(4)), Interval(5, 6)),
                     ((Q(8), Q(9)), Interval(1, 2))])


def test_squeeze_validates_geometry():
    with pytest.raises(ValueError):
        squeeze_map(Interval(0, 10), [((Q(4), Q(11)), Interval(1, 2))])
    with pytest.raises(ValueError):
        squeeze_map(Interval(0, 10), [((Q(4), Q(6)), Interval(1, 11))])
    with pytest.raises(ValueError):
        squeeze_map(Interval(0, None), [])


def test_invert_squeezes_matches_compose_then_invert():
    rng = Random(2401)
    several = skipped = 0
    for _ in range(300):
        squeezes = []
        for k in range(rng.randint(0, 6)):
            # cover (10k, 10k + 9); a blocked interval, or a point, and a
            # gap on either side of it inside the cover; sometimes none
            p = sorted(Q(20 * k + i, 2)
                       for i in rng.sample(range(1, 18), 4))
            blocked, gap = ((p[0], p[1]), Interval(p[2], p[3]))
            if rng.random() < 0.5:
                blocked, gap = ((p[2], p[3]), Interval(p[0], p[1]))
            if rng.random() < 0.3:
                blocked = (blocked[0], blocked[0])
            targets = [] if rng.random() < 0.2 else [(blocked, gap)]
            squeezes.append(squeeze_map(Interval(10 * k, 10 * k + 9),
                                        targets))
        want = PLMap.identity()
        for f in squeezes:
            want = want.compose(f)
        got = invert_squeezes(squeezes)
        assert got == want.invert() and got._slopes == want.invert()._slopes
        assert_public(got)
        moving = [not f.is_identity for f in squeezes]
        several += sum(moving) >= 2
        skipped += any(moving) and not all(moving)
    assert several >= 100 and skipped >= 30, (several, skipped)
    f = squeeze_map(Interval(0, 9), [((Q(1), Q(2)), Interval(5, 6))])
    g = squeeze_map(Interval(3, 12), [((Q(4), Q(5)), Interval(7, 8))])
    # overlapping or unordered covers; maps that move a ray
    for bad in ([g, f], [f, g], [f, f], [f, PLMap.translation(1)],
                [PLMap.translation(1)], [PLMap.scaling(2)],
                [PLMap([(0, 0), (1, 2), (2, 3)])]):
        with pytest.raises(ValueError, match="disjoint intervals"):
            invert_squeezes(bad)


def test_compose_matches_pointwise_oracle():
    rng = Random(606)
    for _ in range(300):
        f, g = rng_plmap(rng), rng_plmap(rng)
        h = f.compose(g)
        # the same map built by evaluating f(g(x)) at every candidate
        # breakpoint of the composite
        xs = sorted(set(g._xs) | {g.invert().apply(x) for x in f._xs})
        assert h == PLMap([(x, f.apply(g.apply(x))) for x in xs],
                          f.left_slope * g.left_slope,
                          f.right_slope * g.right_slope)
        # and pointwise at those breakpoints, between them and beyond them
        probes = xs + [(x + y) / 2 for x, y in zip(xs, xs[1:])]
        probes += [xs[0] - 1, xs[-1] + 1]
        for x in probes:
            assert h.apply(x) == f.apply(g.apply(x)), x


def test_next_breakpoint_queries():
    f = PLMap([(0, 0), (1, 2), (3, 4)], 1, 2)
    assert f.piece_beside(Q(1), False) == (0, 2)
    assert f.piece_beside(Q(3, 2), False) == (1, 1)
    assert f.piece_beside(Q(0), False) == (None, 1)
    assert f.piece_beside(Q(9), False) == (3, 2)
    assert f.piece_beside(Q(1), True) == (3, 1)
    assert f.piece_beside(Q(3), True) == (None, 2)


def test_piece_beside_matches_apply():
    rng = Random(909)
    for _ in range(300):
        f = rng_plmap(rng)
        xs = list(f._xs)
        affine = len(xs) == 1 and f.left_slope == f.right_slope
        probes = xs + [(x + y) / 2 for x, y in zip(xs, xs[1:])]
        probes += [xs[0] - 1, xs[-1] + 1, rng_rational(rng)]
        for q in probes:
            for right in (True, False):
                bp, slope = f.piece_beside(q, right)
                beyond = [x for x in xs if (x > q if right else x < q)]
                want = (min(beyond) if right else max(beyond)) if beyond else None
                assert bp == want, (f, q, right)
                # the slope read off apply between q and that breakpoint
                # (one unit out along a ray), and at a point nearer q
                sign = 1 if right else -1
                far = q + sign if bp is None else bp
                near = (q + far) / 2
                for z in (far, near):
                    assert (f.apply(z) - f.apply(q)) / (z - q) == slope
                # a canonical map bends at every breakpoint but the nominal
                # one of an affine map, so the slope changes just beyond
                # the one reported
                if bp is not None and not affine:
                    after = [x for x in beyond if x != bp]
                    z = (bp + sign if not after else
                         (bp + (min(after) if right else max(after))) / 2)
                    assert (f.apply(z) - f.apply(bp)) / (z - bp) != slope


def compose_oracle(f, g):
    """Composition by evaluation: f at every breakpoint of g and every
    breakpoint of f pulled back through g, sorted and canonicalized by
    the public constructor."""
    pts = {x: f.apply(y) for x, y in g.breakpoints}
    for x, y in f.breakpoints:
        pts[g.invert().apply(x)] = y
    return PLMap(sorted(pts.items()), f.left_slope * g.left_slope,
                 f.right_slope * g.right_slope)


def assert_public(h):
    """h is what the public, checking constructor makes of its own table."""
    assert all(isinstance(v, Q) for bp in h.breakpoints for v in bp)
    assert isinstance(h.left_slope, Q) and isinstance(h.right_slope, Q)
    assert PLMap(h.breakpoints, h.left_slope, h.right_slope) == h


def assert_compose_matches(f, g):
    h = f.compose(g)
    assert_public(h)
    assert h == compose_oracle(f, g), (f, g)


def random_squeeze(rng):
    """A squeeze map on a random cover with one or two targets."""
    c, *inner, d = rng_distinct_rationals(rng, 6, 10)
    gap1, gap2 = Interval(inner[0], inner[1]), Interval(inner[2], inner[3])
    # blocked intervals inside the cover, in the same order as the gaps
    w = (d - c) / 8
    if rng.random() < 0.5:
        return squeeze_map(Interval(c, d), [((c + w, c + w), gap1)])
    return squeeze_map(Interval(c, d), [((c + w, c + 2 * w), gap1),
                                        ((c + 5 * w, c + 6 * w), gap2)])


def bump_product(rng):
    m = PLMap.identity()
    for _ in range(rng.randint(1, 3)):
        a, b = rng_distinct_rationals(rng, 2, 10)
        m = m.compose(bump_in_gap(Interval(a, b), rng))
    return m


def test_compose_identity_pieces_match_oracle():
    rng = Random(4242)
    affine = [PLMap.identity(), PLMap.translation(Q(3, 2)), PLMap.scaling(3),
              PLMap.affine(Q(1, 2), -2), PLMap.affine(2, 5)]
    maps = affine + [bump_product(rng) for _ in range(12)]
    maps += [random_squeeze(rng) for _ in range(12)]
    maps += [rng_plmap(rng) for _ in range(6)]
    for f in maps:
        for g in maps:
            assert_compose_matches(f, g)
    for f in maps:
        assert f.compose(PLMap.identity()) == f
        assert PLMap.identity().compose(f) == f
        assert f.compose(f.invert()) == PLMap.identity()


def test_compose_affine_other_keeps_nominal_breakpoint_off_table():
    # other's nominal breakpoint (0, 5) falls inside an identity piece of
    # self, and is not a breakpoint of the composite
    bump = PLMap([(10, 10), (11, 12), (13, 13)])
    h = bump.compose(PLMap.translation(5))
    assert h == compose_oracle(bump, PLMap.translation(5))
    assert h.breakpoints == ((Q(5), Q(10)), (Q(6), Q(12)), (Q(8), Q(13)))
    # identity after translation: one pinned breakpoint at input 0
    t = PLMap.identity().compose(PLMap.affine(2, 5))
    assert t.breakpoints == ((Q(0), Q(5)),)
    assert_public(t)


def _tail_stream(seed, steps):
    rng = Random(f"tail:{seed}")
    return EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                    for _ in range(steps + 2)])


def test_compose_matches_oracle_on_recorded_recursion_maps():
    streams = [_tail_stream(seed, 8) for seed in (1, 2, 3)]
    streams.append(EStream([ndset_points(rational_enum(i))
                            for i in range(24)]))
    compared = 0
    for stream in streams:
        trace = run_shift_construction(stream, len(stream.increments) - 2)
        sigma = PLMap.identity()
        for step in trace.steps:
            assert_compose_matches(step.pi, sigma)
            assert_compose_matches(sigma, step.pi)
            assert_compose_matches(step.pi.invert(), sigma)
            sigma = step.pi.compose(sigma)
            assert sigma == step.sigma_next
            assert_public(step.pi.invert())
            assert_public(sigma.invert())
            compared += 1
    assert compared >= 50


def test_invert_affine_maps():
    for f, want in ((PLMap.translation(3), PLMap.translation(-3)),
                    (PLMap.scaling(4), PLMap.scaling(Q(1, 4))),
                    (PLMap.affine(2, 5), PLMap.affine(Q(1, 2), Q(-5, 2))),
                    (PLMap.identity(), PLMap.identity())):
        g = f.invert()
        assert g == want
        assert g.breakpoints[0][0] == 0
        assert_public(g)
        assert g.invert() == f
    rng = Random(77)
    for _ in range(200):
        f = rng_plmap(rng)
        g = f.invert()
        assert_public(g)
        assert g == PLMap(tuple((y, x) for x, y in f.breakpoints),
                          1 / f.left_slope, 1 / f.right_slope)


def test_identity_is_shared():
    assert PLMap.identity() is PLMap.identity()
    assert PLMap.identity().is_identity


def test_compose_with_identity_is_the_other_map():
    rng = Random(4243)
    # the shared identity, a decoded one, and one canonicalized from
    # redundant breakpoints
    identities = [PLMap.identity(), PLMap([(0, 0)]), PLMap([(1, 1), (2, 2)])]
    assert all(i.is_identity for i in identities)
    assert identities[1] is not identities[0]
    near = [PLMap([(0, 0)], 1, 2), PLMap([(0, 0)], 2, 1),
            PLMap.translation(Q(1, 1000)), PLMap.scaling(Q(999, 1000)),
            PLMap([(0, 0), (1, 2), (3, 3)])]
    assert not any(f.is_identity for f in near)
    maps = near + [rng_plmap(rng) for _ in range(30)]
    maps += [bump_product(rng) for _ in range(10)]
    for i in identities:
        for f in maps:
            assert i.compose(f) is f
            assert f.compose(i) is f
        assert i.compose(identities[1]) is identities[1]
    for f in near:
        for g in maps:
            assert_compose_matches(f, g)
            assert_compose_matches(g, f)



def squeeze_oracle(cover, targets):
    """The squeeze map's breakpoints run through the public constructor."""
    c, d = cover.lower, cover.upper
    bps = [(c, c)]
    for (u, v), gap in targets:
        g, w = gap.lower, gap.upper - gap.lower
        bps += ([(u, g + w / 2)] if u == v
                else [(u, g + w / 3), (v, g + 2 * w / 3)])
    bps.append((d, d))
    return PLMap(tuple(bps))


def test_squeeze_map_matches_public_constructor(monkeypatch):
    calls = []

    def recording(cover, targets):
        calls.append((cover, list(targets)))
        return squeeze_map(cover, targets)

    monkeypatch.setattr(properties, "squeeze_map", recording)
    monkeypatch.setattr(construction, "squeeze_map", recording)
    for seed in range(4):
        properties.prop_squeeze(Random(f"{seed}:squeeze-postconditions"), 50)
    from_props = len(calls)
    for seed in (1, 2, 3):
        stream = _tail_stream(seed, 12)
        run_shift_construction(stream, len(stream.increments) - 2)
    assert from_props >= 150 and len(calls) - from_props >= 20, len(calls)
    for cover, targets in calls:
        got = squeeze_map(cover, targets)
        want = squeeze_oracle(cover, targets)
        assert got == want and got._slopes == want._slopes, (cover, targets)
        assert_public(got)
