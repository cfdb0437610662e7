"""Seeded random generators for maps, sets, and nested values.

All sampling flows through random.Random instances supplied by the
caller, so identical seeds give identical corpora everywhere (test
suites, CLI property runs); the certificate checks never sample.
"""

from __future__ import annotations

from functools import cache
from random import Random
from typing import List, Tuple

from .hfa import Atom, HFAValue, SeqNode, SetNode
from .ndsets import GeomTail, NDSet
from .plmaps import PLMap, _canonicalize
from .rationals import Interval, Q

_ONE = Q(1)


@cache
def _grid(span: int) -> Tuple[Tuple[Q, ...], ...]:
    """``Q(n, d)`` at row ``n + span``, column ``d - 1``, for
    ``-span <= n <= span`` and ``1 <= d <= span``; built once per span."""
    return tuple(tuple(Q(n, d) for d in range(1, span + 1))
                 for n in range(-span, span + 1))


def rng_rational(rng: Random, span: int = 12) -> Q:
    # randint(a, b) draws a + randrange(b - a + 1): this returns
    # Q(randint(-span, span), randint(1, span)) from the same draws, and
    # rng_positive_rational Q(randint(1, span), randint(1, span))
    return _grid(span)[rng.randrange(2 * span + 1)][rng.randrange(span)]


def rng_positive_rational(rng: Random, span: int = 8) -> Q:
    return _grid(span)[span + 1 + rng.randrange(span)][rng.randrange(span)]


def rng_distinct_rationals(rng: Random, count: int, span: int = 12) -> List[Q]:
    seen = set()
    while len(seen) < count:
        seen.add(rng_rational(rng, span))
    return sorted(seen)


def rng_plmap(rng: Random, max_breaks: int = 4) -> PLMap:
    # built unchecked: sorted distinct inputs and outputs increase together,
    # and the slopes drawn are positive
    k = rng.randint(0, max_breaks)
    if k == 0:
        slope = rng_positive_rational(rng)
        return PLMap._trusted(*_canonicalize(((Q(0), rng_rational(rng)),),
                                             slope, slope))
    xs = rng_distinct_rationals(rng, k)
    ys = rng_distinct_rationals(rng, k)
    return PLMap._trusted(*_canonicalize(
        tuple(zip(xs, ys)),
        rng_positive_rational(rng), rng_positive_rational(rng)))


def rng_interval(rng: Random, span: int = 12) -> Interval:
    a, b = rng_distinct_rationals(rng, 2, span)
    return Interval(a, b)


def rng_geomtail(rng: Random) -> GeomTail:
    limit = rng_rational(rng, 8)
    coeff = rng_positive_rational(rng, 4)
    if rng.random() < 0.5:
        coeff = -coeff
    den = rng.randint(2, 6)
    num = rng.randint(1, den - 1)
    return GeomTail(limit, coeff, Q(num, den), head_drop=rng.randint(0, 2))


def rng_ndset(rng: Random, max_points: int = 3, max_tails: int = 2) -> NDSet:
    pts = [rng_rational(rng, 10) for _ in range(rng.randint(0, max_points))]
    tails = [rng_geomtail(rng) for _ in range(rng.randint(0, max_tails))]
    return NDSet(pts, tails)


def sample_points(e: NDSet, terms_per_tail: int = 8) -> Tuple[Q, ...]:
    """Presentation points of ``e`` plus leading tail terms, for spot
    checks."""
    out = list(e.points)
    for t in e.tails:
        out.extend(t.term(k) for k in range(terms_per_tail))
    return tuple(sorted(set(out)))


def rng_hfa(rng: Random, max_depth: int = 3, max_width: int = 3) -> HFAValue:
    if max_depth == 0 or rng.random() < 0.45:
        return Atom(rng_rational(rng, 8))
    width = rng.randint(0, max_width)
    children = [rng_hfa(rng, max_depth - 1, max_width) for _ in range(width)]
    if rng.random() < 0.5:
        return SetNode(children)
    return SeqNode(children)


def bump_in_gap(gap: Interval, rng: Random) -> PLMap:
    """Non-identity map equal to the identity outside the open gap."""
    a, b = gap.lower, gap.upper
    w = b - a
    u = Q(rng.randint(1, 7), 8)
    v = Q(rng.randint(1, 7), 8)
    while v == u:
        v = Q(rng.randint(1, 7), 8)
    # 0 < u, v < 1: the breakpoints increase in both coordinates
    return PLMap._trusted(*_canonicalize(
        ((a, a), (a + u * w, a + v * w), (b, b)), _ONE, _ONE))


def fix_members(support: NDSet, rng: Random, count: int) -> List[PLMap]:
    """Sample automorphisms fixing the support pointwise.

    Each sample composes a few bumps supported in closure-free gaps of
    the set, so membership in Fix(support) holds by construction; the
    identity is included occasionally.
    """
    out: List[PLMap] = []
    for _ in range(count):
        if rng.random() < 0.1:
            out.append(PLMap.identity())
            continue
        m = PLMap.identity()
        for _ in range(rng.randint(1, 2)):
            window = rng_interval(rng, 10)
            gap = support.find_gap(window)
            m = m.compose(bump_in_gap(gap, rng))
        out.append(m)
    return out


__all__ = [
    "rng_rational", "rng_positive_rational", "rng_distinct_rationals",
    "rng_plmap", "rng_interval", "rng_geomtail", "rng_ndset", "rng_hfa",
    "sample_points", "bump_in_gap", "fix_members",
]
