"""Piecewise-linear order automorphisms of the rationals.

A map is finitely many breakpoints (input, output), linear interpolation
between consecutive ones, and ray slopes on both sides.  Data is always
rational and slopes positive, so every map is a strictly increasing
bijection of the rationals onto themselves, and the collection is a group
under composition.

Maps are canonicalized on construction (no breakpoint collinear with its
neighbours; a fully affine map keeps exactly one nominal breakpoint at
input 0), so structural equality coincides with functional equality.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Optional, Sequence, Tuple

from .rationals import Interval, Q, rat, rat_str

BreakpointList = Tuple[Tuple[Q, Q], ...]


def _canonicalize(bps, left_slope, right_slope):
    """The inputs and outputs of the kept breakpoints, and the slopes of
    the pieces they bound: piece i runs from breakpoint i-1 to breakpoint
    i, so the first and the last piece are the rays."""
    # slope sequence around each breakpoint; drop points where it does
    # not change
    n = len(bps)
    slopes = [left_slope]
    for i in range(n - 1):
        (x0, y0), (x1, y1) = bps[i], bps[i + 1]
        slopes.append((y1 - y0) / (x1 - x0))
    slopes.append(right_slope)
    kept = [i for i in range(n) if slopes[i] != slopes[i + 1]]
    if not kept:
        # affine map: pin the nominal breakpoint at input 0
        x0, y0 = bps[0]
        return (Q(0),), (y0 - left_slope * x0,), (left_slope, right_slope)
    # the slope right of a kept point holds up to the next kept point
    return (tuple(bps[i][0] for i in kept), tuple(bps[i][1] for i in kept),
            (left_slope,) + tuple(slopes[i + 1] for i in kept))


class PLMap:
    __slots__ = ("breakpoints", "left_slope", "right_slope", "_xs", "_ys",
                 "_slopes")

    def __init__(self, breakpoints: Iterable, left_slope=1, right_slope=1):
        bps = tuple((rat(x), rat(y)) for x, y in breakpoints)
        ls = rat(left_slope)
        rs = rat(right_slope)
        if not bps:
            raise ValueError("a map needs at least one breakpoint")
        if not (ls > 0 and rs > 0):
            raise ValueError("ray slopes must be positive")
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must increase in both coordinates")
        self._fill(*_canonicalize(bps, ls, rs))

    def _fill(self, xs, ys, slopes) -> "PLMap":
        put = object.__setattr__
        put(self, "breakpoints", tuple(zip(xs, ys)))
        put(self, "left_slope", slopes[0])
        put(self, "right_slope", slopes[-1])
        put(self, "_xs", xs)
        put(self, "_ys", ys)
        put(self, "_slopes", slopes)
        return self

    @staticmethod
    def _trusted(xs, ys, slopes) -> "PLMap":
        """A map from tables that are already canonical, unchecked:
        increasing ``Q`` inputs and outputs, and piece slopes as in
        ``_slopes``.  Internal results only; input from outside goes
        through ``PLMap(...)``."""
        return object.__new__(PLMap)._fill(xs, ys, slopes)

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    # -- factories ---------------------------------------------------

    @staticmethod
    def identity() -> "PLMap":
        return _IDENTITY

    @staticmethod
    def translation(offset) -> "PLMap":
        return PLMap(((0, rat(offset)),))

    @staticmethod
    def scaling(factor) -> "PLMap":
        return PLMap(((0, 0),), rat(factor), rat(factor))

    @staticmethod
    def affine(slope, intercept) -> "PLMap":
        return PLMap(((0, rat(intercept)),), rat(slope), rat(slope))

    # -- basics ------------------------------------------------------

    def __eq__(self, other):
        # another presentation type (a map as a trace records it) may
        # compare itself with a map
        if not isinstance(other, PLMap):
            return NotImplemented
        return (self.breakpoints == other.breakpoints
                and self.left_slope == other.left_slope
                and self.right_slope == other.right_slope)

    def __hash__(self):
        return hash((self.breakpoints, self.left_slope, self.right_slope))

    def __repr__(self):
        pts = ", ".join(f"({rat_str(x)}, {rat_str(y)})"
                        for x, y in self.breakpoints)
        return (f"PLMap([{pts}], left={rat_str(self.left_slope)}, "
                f"right={rat_str(self.right_slope)})")

    @property
    def is_identity(self) -> bool:
        # canonical: a map with one breakpoint and unit ray slopes is
        # affine, pinned at input 0
        return (len(self._xs) == 1 and self._xs[0] == self._ys[0]
                and self._slopes[0] == 1 and self._slopes[1] == 1)

    # -- evaluation --------------------------------------------------

    def apply(self, q) -> Q:
        """Exact image of q under the map."""
        q = rat(q)
        i = bisect_right(self._xs, q)
        j = i - 1 if i else 0  # the breakpoint anchoring piece i
        return self._ys[j] + self._slopes[i] * (q - self._xs[j])

    def piece_beside(self, q, right: bool) -> Tuple[Optional[Q], Q]:
        """The linear piece of the map on one side of q: the nearest
        breakpoint input strictly beyond q on that side (None if there is
        none) and the slope between q and it."""
        q = rat(q)
        xs = self._xs
        i = bisect_right(xs, q) if right else bisect_left(xs, q)
        j = i if right else i - 1
        return (xs[j] if 0 <= j < len(xs) else None), self._slopes[i]

    # -- group structure ----------------------------------------------

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other: (self.compose(other))(q) == self(other(q)).

        One ordered pass over other's outputs and self's inputs, which
        meet in the middle coordinate.  A composite piece's slope is the
        product of the two piece slopes, and a point is kept only where
        that slope changes.  Where self is the identity on a piece, other's
        breakpoints inside it are copied with their slopes, unevaluated.
        Composing with the identity returns the other map itself: maps are
        immutable and canonical.
        """
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        fx, fy, fs = self._xs, self._ys, self._slopes
        gx, gy, gs = other._xs, other._ys, other._slopes
        nf, ng = len(fx), len(gx)
        xs, zs, slopes = [], [], [fs[0] * gs[0]]
        lo = 0
        for i in range(nf + 1):
            # other's breakpoints with outputs in piece i of self, short
            # of its right end
            hi = bisect_left(gy, fx[i], lo) if i < nf else ng
            j = i - 1 if i else 0
            s, ax, ay = fs[i], fx[j], fy[j]
            if lo < hi and s == 1 and ax == ay:
                # other is canonical, so only the first copied point can
                # be collinear with what precedes it
                x, z = gx[lo], gy[lo]
                if gs[lo + 1] != slopes[-1]:
                    xs.append(x)
                    zs.append(z)
                    slopes.append(gs[lo + 1])
                xs += gx[lo + 1:hi]
                zs += gy[lo + 1:hi]
                slopes += gs[lo + 2:hi + 1]
            else:
                for k in range(lo, hi):
                    x, z, t = gx[k], ay + s * (gy[k] - ax), s * gs[k + 1]
                    if t != slopes[-1]:
                        xs.append(x)
                        zs.append(z)
                        slopes.append(t)
            if i == nf:
                break
            # self's breakpoint i, pulled back through other
            u, z = fx[i], fy[i]
            if hi < ng and gy[hi] == u:
                x, lo = gx[hi], hi + 1
            else:
                a = hi - 1 if hi else 0
                x, lo = gx[a] + (u - gy[a]) / gs[hi], hi
            t = fs[i + 1] * gs[lo]
            if t != slopes[-1]:
                xs.append(x)
                zs.append(z)
                slopes.append(t)
        if not xs:
            # affine: every candidate (x, z) lies on one line
            s = slopes[0]
            return PLMap._trusted((Q(0),), (z - s * x,), (s, s))
        return PLMap._trusted(tuple(xs), tuple(zs), tuple(slopes))

    def invert(self) -> "PLMap":
        # slopes invert piece by piece, so the table stays canonical;
        # only an affine map's nominal breakpoint must move back to input 0
        xs, ys = self._xs, self._ys
        slopes = tuple(1 / s for s in self._slopes)
        if len(xs) == 1 and slopes[0] == slopes[1]:
            return PLMap._trusted((Q(0),), (xs[0] - slopes[0] * ys[0],),
                                  slopes)
        return PLMap._trusted(ys, xs, slopes)

    def first_moved(self, points: Sequence[Q]) -> Optional[Q]:
        """The first of the increasing ``points`` that the map moves, or
        None.  Points in a piece on which the map is the identity are
        skipped by bisection, unevaluated."""
        xs, ys, slopes = self._xs, self._ys, self._slopes
        k, m = 0, len(points)
        while k < m:
            p = points[k]
            i = bisect_right(xs, p)
            j = i - 1 if i else 0
            s = slopes[i]
            if s == 1 and xs[j] == ys[j]:
                k = bisect_left(points, xs[i], k + 1) if i < len(xs) else m
            elif ys[j] + s * (p - xs[j]) != p:
                return p
            else:
                k += 1
        return None


_IDENTITY = PLMap(((0, 0),))


def squeeze_map(cover: Interval,
                targets: Sequence[Tuple[Tuple[Q, Q], Interval]]) -> PLMap:
    """Increasing map fixing everything outside ``cover`` that sends each
    blocked closed interval into its paired open gap.

    Deterministic rule: blocked endpoints go to the endpoints of the
    gap's middle third (to its midpoint for a degenerate blocked
    interval).  Raises ``ValueError`` when the requested images cannot
    be ordered increasingly.
    """
    if not cover.is_finite:
        raise ValueError("cover must have rational endpoints")
    c, d = cover.lower, cover.upper
    prev_v = None
    images = []
    for (u, v), gap in targets:
        u, v = rat(u), rat(v)
        if u > v:
            raise ValueError("blocked interval endpoints out of order")
        if not cover.contains_closed(u, v):
            raise ValueError("blocked interval not strictly inside cover")
        if not gap.is_finite or not cover.contains_open(gap):
            raise ValueError("gap not inside cover")
        if prev_v is not None and not prev_v < u:
            raise ValueError("blocked intervals must be disjoint and sorted")
        prev_v = v
        g, h = gap.lower, gap.upper
        w = h - g
        if u == v:
            images.append(((u, g + w / 2),))
        else:
            images.append(((u, g + w / 3), (v, g + 2 * w / 3)))
    bps = [(c, c)]
    for pair_bps in images:
        bps.extend(pair_bps)
    bps.append((d, d))
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if not (x0 < x1 and y0 < y1):
            raise ValueError(
                f"images not increasing near ({rat_str(x0)}, {rat_str(y0)})")
    # the check above is the public constructor's order check, and the
    # ray slopes are 1, so only canonicalization is left to do
    return PLMap._trusted(*_canonicalize(bps, Q(1), Q(1)))


def invert_squeezes(squeezes: Sequence[PLMap]) -> PLMap:
    """The inverse of the composite of squeeze maps whose covers are
    disjoint and increasing, with no ``compose`` or ``invert``.

    Each squeeze map is the identity outside its cover and has unit ray
    slopes, so the composite's table is theirs laid end to end, identity
    tables skipped.  Its inverse swaps inputs and outputs and inverts the
    slopes.  A squeeze map that is not the identity fixes its cover's ends
    but moves something between, so the table has two breakpoints at
    least and needs no affine pinning.  Raises ValueError for maps that
    are not the identity outside increasing, disjoint intervals.
    """
    xs: list = []
    ys: list = []
    slopes = [Q(1)]
    for f in squeezes:
        if not f.is_identity:
            # unit rays through fixed end breakpoints: the identity outside
            # [first, last]; and that interval lies beyond the previous one
            if not (f._slopes[0] == f._slopes[-1] == 1
                    and f._xs[0] == f._ys[0] and f._xs[-1] == f._ys[-1]
                    and not (xs and f._xs[0] <= xs[-1])):
                raise ValueError("maps must be the identity outside "
                                 "increasing, disjoint intervals")
            xs += f._xs
            ys += f._ys
            slopes += f._slopes[1:]
    if not xs:
        return _IDENTITY
    return PLMap._trusted(tuple(ys), tuple(xs), tuple(1 / s for s in slopes))


__all__ = ["PLMap", "squeeze_map", "invert_squeezes"]
