"""The samplers draw from shared grids of rationals through one
``getrandbits`` primitive and build maps unchecked; the bodies they
replaced are kept here as oracles, which must return equal values and
leave the generator in the same state."""

from random import Random

import pytest

from qshift.hfa import Atom, SeqNode, SetNode
from qshift.ndsets import GeomTail, NDSet
from qshift.plmaps import PLMap
from qshift.rationals import Interval, Q
from qshift.sampling import (_below, _grid, _ranks, bump_in_gap, fix_members,
                             rng_distinct_rationals, rng_geomtail, rng_hfa,
                             rng_interval, rng_ndset, rng_plmap,
                             rng_positive_rational, rng_rational)

SPANS = (4, 8, 10, 12, 14)


def old_rng_rational(rng, span=12):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def old_rng_positive_rational(rng, span=8):
    return Q(rng.randint(1, span), rng.randint(1, span))


def old_rng_distinct_rationals(rng, count, span=12):
    seen = set()
    while len(seen) < count:
        seen.add(old_rng_rational(rng, span))
    return sorted(seen)


def old_rng_plmap(rng, max_breaks=4):
    k = rng.randint(0, max_breaks)
    if k == 0:
        return PLMap.affine(old_rng_positive_rational(rng),
                            old_rng_rational(rng))
    xs = old_rng_distinct_rationals(rng, k)
    ys = old_rng_distinct_rationals(rng, k)
    return PLMap(tuple(zip(xs, ys)),
                 old_rng_positive_rational(rng), old_rng_positive_rational(rng))


def old_bump_in_gap(gap, rng):
    a, b = gap.lower, gap.upper
    w = b - a
    u = Q(rng.randint(1, 7), 8)
    v = Q(rng.randint(1, 7), 8)
    while v == u:
        v = Q(rng.randint(1, 7), 8)
    return PLMap(((a, a), (a + u * w, a + v * w), (b, b)))


def old_rng_interval(rng, span=12):
    a, b = old_rng_distinct_rationals(rng, 2, span)
    return Interval(a, b)


def old_rng_geomtail(rng):
    limit = old_rng_rational(rng, 8)
    coeff = old_rng_positive_rational(rng, 4)
    if rng.random() < 0.5:
        coeff = -coeff
    den = rng.randint(2, 6)
    num = rng.randint(1, den - 1)
    return GeomTail(limit, coeff, Q(num, den), head_drop=rng.randint(0, 2))


def old_rng_ndset(rng, max_points=3, max_tails=2):
    pts = [old_rng_rational(rng, 10)
           for _ in range(rng.randint(0, max_points))]
    tails = [old_rng_geomtail(rng) for _ in range(rng.randint(0, max_tails))]
    return NDSet(pts, tails)


def old_rng_hfa(rng, max_depth=3, max_width=3):
    if max_depth == 0 or rng.random() < 0.45:
        return Atom(old_rng_rational(rng, 8))
    width = rng.randint(0, max_width)
    children = [old_rng_hfa(rng, max_depth - 1, max_width)
                for _ in range(width)]
    if rng.random() < 0.5:
        return SetNode(children)
    return SeqNode(children)


def old_fix_members(support, rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.1:
            out.append(PLMap.identity())
            continue
        m = PLMap.identity()
        for _ in range(rng.randint(1, 2)):
            gap = support.find_gap(old_rng_interval(rng, 10))
            m = m.compose(old_bump_in_gap(gap, rng))
        out.append(m)
    return out


def _same_draws(new, old, seed, count=40):
    a, b = Random(seed), Random(seed)
    got = [new(a) for _ in range(count)]
    want = [old(b) for _ in range(count)]
    assert got == want, seed
    assert all(type(x) is type(y) for x, y in zip(got, want)), seed
    assert a.getstate() == b.getstate(), seed
    return got


def _public_build(m):
    """The same map through the validating constructor."""
    return PLMap(m.breakpoints, m.left_slope, m.right_slope)


def _same_tables(m, want):
    assert m == want
    assert (m._xs, m._ys, m._slopes) == (want._xs, want._ys, want._slopes)


def test_rational_draws_match_randint_bodies():
    for seed in range(200):
        for span in SPANS:
            _same_draws(lambda r: rng_rational(r, span),
                        lambda r: old_rng_rational(r, span), seed)
            _same_draws(lambda r: rng_positive_rational(r, span),
                        lambda r: old_rng_positive_rational(r, span), seed)
    # the default spans
    for seed in range(200):
        _same_draws(rng_rational, old_rng_rational, seed)
        _same_draws(rng_positive_rational, old_rng_positive_rational, seed)


def test_trusted_maps_match_public_constructor_builds():
    for seed in range(300):
        for max_breaks in (0, 2, 4):
            got = _same_draws(lambda r: rng_plmap(r, max_breaks),
                              lambda r: old_rng_plmap(r, max_breaks), seed,
                              count=10)
            for m in got:
                _same_tables(m, _public_build(m))


def test_bumps_match_public_constructor_builds():
    rng = Random(20)
    gaps = [Interval(Q(0), Q(1)), Interval(Q(-3, 2), Q(-1, 7))]
    gaps += [Interval(*rng_distinct_rationals(rng, 2, 14)) for _ in range(100)]
    for seed, gap in enumerate(gaps):
        got = _same_draws(lambda r: bump_in_gap(gap, r),
                          lambda r: old_bump_in_gap(gap, r), seed, count=10)
        for m in got:
            _same_tables(m, _public_build(m))
            assert not m.is_identity
            assert m.apply(gap.lower) == gap.lower
            assert m.apply(gap.upper) == gap.upper


def test_sampled_maps_skip_the_validating_constructor(monkeypatch):
    calls = []
    init = PLMap.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PLMap, "__init__", counted)
    rng = Random(3)
    maps = [rng_plmap(rng) for _ in range(200)]
    maps += [bump_in_gap(Interval(Q(0), Q(1)), rng) for _ in range(20)]
    assert len(set(maps)) > 100
    assert calls == []


BELOW_NS = tuple(range(1, 70)) + (100, 257, 2 ** 20, 2 ** 31 - 1)


def test_below_matches_randrange_and_randint():
    for seed in range(100):
        for n in BELOW_NS:
            _same_draws(lambda r: _below(r, n), lambda r: r.randrange(n),
                        seed, count=8)
            _same_draws(lambda r: -5 + _below(r, n + 6),
                        lambda r: r.randint(-5, n), seed, count=8)


def test_samplers_match_randint_bodies():
    supports = [NDSet([]), NDSet([Q(0), Q(1, 2)]),
                NDSet([Q(-1)], [GeomTail(Q(0), Q(1), Q(1, 2))])]
    supports += [rng_ndset(Random(seed)) for seed in range(20)]
    for seed in range(100):
        for span in SPANS:
            _same_draws(lambda r: rng_interval(r, span),
                        lambda r: old_rng_interval(r, span), seed, count=10)
            many = 2 * span
            _same_draws(lambda r: rng_distinct_rationals(r, many, span),
                        lambda r: old_rng_distinct_rationals(r, many, span),
                        seed, count=2)
        _same_draws(rng_geomtail, old_rng_geomtail, seed)
        _same_draws(rng_ndset, old_rng_ndset, seed, count=10)
        _same_draws(lambda r: rng_ndset(r, 2, 1),
                    lambda r: old_rng_ndset(r, 2, 1), seed, count=10)
        _same_draws(rng_hfa, old_rng_hfa, seed, count=10)
        support = supports[seed % len(supports)]
        _same_draws(lambda r: fix_members(support, r, 3),
                    lambda r: old_fix_members(support, r, 3), seed, count=3)


def test_ranks_index_the_sorted_distinct_grid_values():
    for span in SPANS:
        ranks, values = _ranks(span)
        assert all(a < b for a, b in zip(values, values[1:])), span
        grid = _grid(span)
        assert len(ranks) == len(grid) == 2 * span + 1
        for rank_row, row in zip(ranks, grid):
            assert len(rank_row) == len(row) == span
            assert all(values[i] == q for i, q in zip(rank_row, row)), span
        assert set(values) == {q for row in grid for q in row}


def test_distinct_rationals_refuse_more_than_the_grid_holds():
    sizes = {4: 23, 8: 87, 10: 127, 12: 183, 14: 255}
    for span, size in sizes.items():
        assert len(_ranks(span)[1]) == size
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"span {span} has {size} "):
            rng_distinct_rationals(rng, size + 1, span)
        assert rng.getstate() == state, span
        assert rng_distinct_rationals(rng, size, span) == list(_ranks(span)[1])
