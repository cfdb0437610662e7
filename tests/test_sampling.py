"""The samplers draw from shared grids of rationals and build maps
unchecked; the bodies they replaced are kept here as oracles, which must
return equal values and leave the generator in the same state."""

from random import Random

from qshift.plmaps import PLMap
from qshift.rationals import Interval, Q
from qshift.sampling import (bump_in_gap, rng_distinct_rationals, rng_plmap,
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
