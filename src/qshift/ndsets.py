"""Finitely presented nowhere-dense subsets of the rationals.

A set is finitely many isolated points plus finitely many geometric
tails; a tail with limit L, coefficient c and ratio r in (0,1) is the
term set {L + c*r^k : k >= 0}.  Such sets are closed under union and
under images of piecewise-linear maps, membership (also in the closure)
is decidable, and every open interval contains a rational closed
subinterval disjoint from the closure -- which `find_gap` produces
deterministically.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from .plmaps import PLMap
from .rationals import Interval, Q, rat, rat_str, simplest_between


def _min_pow_lt(r: Q, bound: Q, strict: bool = True) -> Optional[int]:
    """Minimal k >= 0 with r**k < bound (<= when strict=False); None if no k."""
    if bound <= 0:
        return None
    one = Q(1)
    if (one < bound) if strict else (one <= bound):
        return 0
    # exponential then binary search on the exponent
    hi = 1
    while not ((r ** hi < bound) if strict else (r ** hi <= bound)):
        hi *= 2
        if hi > 1 << 40:
            raise OverflowError("power search exponent out of range")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if (r ** mid < bound) if strict else (r ** mid <= bound):
            hi = mid
        else:
            lo = mid
    return hi


def _pow_matching_denominator(base_den: int, target_den: int) -> Optional[int]:
    """d >= 0 with base_den**d == target_den, or None."""
    d = 0
    v = 1
    while v < target_den:
        v *= base_den
        d += 1
    return d if v == target_den else None


def _exact_log(r: Q, t: Q) -> Optional[int]:
    """Integer e (any sign) with r**e == t, for 0 < r < 1 and t > 0."""
    if t > 1:
        e = _exact_log(r, 1 / t)
        return None if e is None else -e
    d = _pow_matching_denominator(r.denominator, t.denominator)
    return d if d is not None and r ** d == t else None


class GeomTail:
    """Geometric term sequence limit + coeff * ratio**k, k >= 0.

    A nonzero head_drop passed to the constructor is folded into the
    coefficient, so stored tails always start at exponent 0.  The closed
    hull [lo, hi] spans the limit and the head term; the closure lies
    inside it.

    Queries work in the exponent coordinate t = (q - limit) / coeff, in
    which every tail looks the same: its terms are the powers ratio**k,
    its closure adds t = 0, and its hull is [0, 1].  The coordinate runs
    with q when coeff > 0 and against it when coeff < 0, so one
    implementation serves tails on either side of their limit.
    """

    __slots__ = ("limit", "coeff", "ratio", "lo", "hi")

    def __init__(self, limit, coeff, ratio, head_drop: int = 0):
        limit, coeff, ratio = rat(limit), rat(coeff), rat(ratio)
        if coeff == 0:
            raise ValueError("tail coefficient must be nonzero")
        if not (0 < ratio < 1):
            raise ValueError("tail ratio must lie strictly between 0 and 1")
        if head_drop < 0:
            raise ValueError("head drop must be nonnegative")
        if head_drop:
            coeff = coeff * ratio ** head_drop
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ratio", ratio)
        head = limit + coeff
        object.__setattr__(self, "lo", min(limit, head))
        object.__setattr__(self, "hi", max(limit, head))

    def __setattr__(self, name, value):
        raise AttributeError("GeomTail is immutable")

    def _key(self):
        return (self.limit, self.coeff, self.ratio)

    def __eq__(self, other):
        return isinstance(other, GeomTail) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"GeomTail({rat_str(self.limit)}, {rat_str(self.coeff)}, "
                f"{rat_str(self.ratio)})")

    def term(self, k: int) -> Q:
        return self.limit + self.coeff * self.ratio ** k

    def contains(self, q: Q) -> bool:
        if q < self.lo or q > self.hi:
            return False
        t = (q - self.limit) / self.coeff
        if t <= 0:
            return False
        # t == ratio**k demands matching prime powers of the reduced forms
        k = _pow_matching_denominator(self.ratio.denominator, t.denominator)
        if k is None:
            return False
        return self.ratio.numerator ** k == t.numerator

    def first_k_inside(self, x: Q) -> Optional[int]:
        """Minimal k with term(k) strictly between the limit and x; None
        when x is not on the terms' side of the limit."""
        return _min_pow_lt(self.ratio, (x - self.limit) / self.coeff)

    def neighbours(self, q: Q) -> Tuple[Optional[Q], Optional[Q]]:
        """Closure points of the tail nearest to q strictly below and
        strictly above it (None where there is none).

        Must not be called with q equal to the limit, which has no
        nearest closure point on the side the terms approach from.
        """
        t = (q - self.limit) / self.coeff
        if t == 0:
            raise ValueError("no nearest tail point beside its own limit")
        if t < 0:
            under, over = None, self.limit
        else:
            # the largest power of ratio below t, and the smallest above
            under = self.term(_min_pow_lt(self.ratio, t))
            k = _min_pow_lt(self.ratio, t, strict=False)
            over = self.term(k - 1) if k else None
        return (under, over) if self.coeff > 0 else (over, under)

    def closure_meets_closed(self, a: Q, b: Q) -> Optional[Q]:
        """Some closure point of the tail in [a, b], or None."""
        if b < self.lo or a > self.hi:
            return None
        if a <= self.limit <= b:
            return self.limit
        # [a, b] now lies beside the limit on the terms' side; the only
        # candidate is the largest power of ratio not above the t of the
        # end farther from the limit: the term nearest that end
        far = b if self.coeff > 0 else a
        w = self.term(_min_pow_lt(self.ratio, (far - self.limit) / self.coeff,
                                  strict=False))
        return w if a <= w <= b else None


def tail_final_piece(f: PLMap, t: GeomTail):
    """First exponent k0 whose terms all sit in one linear piece of f
    adjacent to the tail's limit, together with that piece's slope.

    Terms with k >= k0 then map through f(limit) + slope*(term - limit).
    """
    x_star, slope = f.piece_beside(t.limit, t.coeff > 0)
    return (0 if x_star is None else t.first_k_inside(x_star)), slope


def fix_violation(f: PLMap, support: "NDSet") -> Optional[Q]:
    """A member of the set that f moves, or None when f fixes it all.

    A tail is fixed iff the linear piece of f adjacent to its limit (on
    the terms' side) is the identity and the finitely many terms outside
    that piece are fixed individually.  The identity moves nothing.
    """
    if f.is_identity:
        return None
    p = f.first_moved(support.points)
    if p is not None:
        return p
    for t in support.tails:
        k0, slope = tail_final_piece(f, t)
        if slope != 1 or f.apply(t.term(k0)) != t.term(k0):
            return t.term(k0)
        for k in range(k0):
            if f.apply(t.term(k)) != t.term(k):
                return t.term(k)
    return None


class SubsetVerdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class SubsetResult:
    __slots__ = ("verdict", "witness")

    def __init__(self, verdict: SubsetVerdict, witness: Optional[Q] = None):
        self.verdict = verdict
        self.witness = witness

    def __repr__(self):
        w = f", witness={rat_str(self.witness)}" if self.witness is not None else ""
        return f"SubsetResult({self.verdict.value}{w})"


_AP_SCAN_LIMIT = 64
_AP_MODULUS_CAP = 1 << 20
_HEAD_CAP = 5000


def _held_points(pts, tails) -> set:
    """The points of the sorted sequence that lie on one of the tails; a
    point is tested only against the tails whose hull contains it."""
    held = set()
    for t in tails:
        for p in pts[bisect_left(pts, t.lo):bisect_right(pts, t.hi)]:
            if t.contains(p):
                held.add(p)
    return held


def _extend_through(t: GeomTail, mine: "NDSet", theirs: "NDSet") -> GeomTail:
    """A tail of the normalized set ``mine`` extended backwards through the
    members of ``mine`` and ``theirs`` it abuts; ``t`` itself when its
    previous term is not a member of ``theirs``, because it is not one of
    ``mine`` (the tail already reaches back through all of them)."""
    prev = t.limit + t.coeff / t.ratio
    if not theirs.contains(prev):
        return t
    coeff = t.coeff
    while theirs.contains(prev) or mine.contains(prev):
        coeff = coeff / t.ratio
        prev = t.limit + coeff / t.ratio
    return GeomTail(t.limit, coeff, t.ratio)


class NDSet:
    """Finite points plus geometric tails, in a normalized presentation.

    The points are sorted and none lies on a tail; the tails are sorted,
    and each is extended backwards through every member of the set it
    abuts.  Sets assembled from the same points and tails, in any order,
    with duplicates or with head terms listed as points, therefore get
    equal presentations.  Tails whose ratios are powers of one another are
    not merged, so ``==`` is structural and can call equal sets different:
    the tails {1/4^k} and {1/2 * 1/4^k} together hold exactly the terms of
    the single tail {1/2^k}, yet the two presentations differ.
    """

    __slots__ = ("points", "tails")

    def __init__(self, points: Iterable = (), tails: Iterable[GeomTail] = ()):
        pts = sorted(map(rat, points))
        # sorting brings equal points together, so one comparison each
        # drops the duplicates (sorted input costs len - 1 comparisons and
        # no point is hashed)
        pts = pts[:1] + [q for p, q in zip(pts, pts[1:]) if p != q]
        tails = set(tails)
        given = set(pts) if tails else ()
        # extend each tail backwards through the members of the set it
        # abuts, so equal sets get equal presentations no matter how they
        # were assembled; the members tested are the given points and the
        # given tails' terms, which no extension changes, so the result
        # does not depend on the order the tails are taken in (the inline
        # hull test spares a call per tail and step, most of them misses)
        extended = set()
        for t in tails:
            coeff = t.coeff
            prev = t.limit + coeff / t.ratio
            while prev in given or any(s.lo <= prev <= s.hi and s.contains(prev)
                                       for s in tails):
                coeff = coeff / t.ratio
                prev = t.limit + coeff / t.ratio
            extended.add(t if coeff == t.coeff
                         else GeomTail(t.limit, coeff, t.ratio))
        tl = tuple(sorted(extended, key=GeomTail._key))
        # drop the points a tail holds, including those absorbed above
        covered = _held_points(pts, tl)
        object.__setattr__(self, "points", tuple(
            [p for p in pts if p not in covered] if covered else pts))
        object.__setattr__(self, "tails", tl)

    @classmethod
    def _normalized(cls, points: Tuple[Q, ...],
                    tails: Tuple[GeomTail, ...]) -> "NDSet":
        """Wrap parts that already form a normalized presentation."""
        out = object.__new__(cls)
        object.__setattr__(out, "points", points)
        object.__setattr__(out, "tails", tails)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("NDSet is immutable")

    def _key(self):
        return (self.points, tuple(t._key() for t in self.tails))

    def __eq__(self, other):
        # another presentation type (a set as a trace records it) may
        # compare itself with a set
        if not isinstance(other, NDSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        pts = "{" + ", ".join(rat_str(p) for p in self.points) + "}"
        return f"NDSet({pts}, {list(self.tails)!r})"

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.tails

    @property
    def limits(self) -> Tuple[Q, ...]:
        return tuple(sorted({t.limit for t in self.tails}))

    # -- membership ----------------------------------------------------

    def contains(self, q) -> bool:
        q = rat(q)
        pts = self.points
        i = bisect_left(pts, q)
        if i < len(pts) and pts[i] == q:
            return True
        return any(t.contains(q) for t in self.tails)

    def closure_contains(self, q) -> bool:
        q = rat(q)
        return self.contains(q) or any(t.limit == q for t in self.tails)

    # -- algebra --------------------------------------------------------

    def union(self, other: "NDSet") -> "NDSet":
        """Merge of two normalized presentations; equal to
        ``NDSet(self.points + other.points, self.tails + other.tails)``.

        Each side's tails already reach back through all of that side's
        members, so a tail can only grow through a member of the other
        side, and a point can only become covered by a tail of the other
        side or by a tail of its own side that grew.
        """
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        mine = [_extend_through(t, self, other) for t in self.tails]
        theirs = [_extend_through(t, other, self) for t in other.tails]
        covered = _held_points(self.points, theirs + [
            t for t, old in zip(mine, self.tails) if t is not old])
        covered |= _held_points(other.points, mine + [
            t for t, old in zip(theirs, other.tails) if t is not old])
        # insert the smaller side's points into a copy of the larger
        # side's, left to right, each by bisection past the previous one
        small, large = sorted((self.points, other.points), key=len)
        points = list(large)
        i = 0
        for p in small:
            i = bisect_left(points, p, i)
            if i == len(points) or points[i] != p:
                points.insert(i, p)
            i += 1
        if covered:
            points = [p for p in points if p not in covered]
        return NDSet._normalized(
            tuple(points), tuple(sorted({*mine, *theirs}, key=GeomTail._key)))

    def image(self, f: PLMap) -> "NDSet":
        """Exact image under an increasing piecewise-linear bijection."""
        pts: List[Q] = [f.apply(p) for p in self.points]
        tails: List[GeomTail] = []
        for t in self.tails:
            k0, slope = tail_final_piece(f, t)
            pts.extend(f.apply(t.term(k)) for k in range(k0))
            tails.append(GeomTail(f.apply(t.limit),
                                  slope * t.coeff * t.ratio ** k0, t.ratio))
        return NDSet(pts, tails)

    # -- closure geometry ------------------------------------------------

    def within(self, a, b) -> "NDSet":
        """The part of the presentation that can meet [a, b]: the points
        inside it and the tails whose hull meets it.  Its closure agrees
        with this set's on [a, b], because a tail's closure lies in its
        hull, and part of a normalized presentation is normalized."""
        a, b = rat(a), rat(b)
        pts = self.points
        return NDSet._normalized(
            pts[bisect_left(pts, a):bisect_right(pts, b)],
            tuple(t for t in self.tails if t.lo <= b and a <= t.hi))

    def closure_meets_closed(self, a, b) -> Optional[Q]:
        """A closure point inside the closed interval [a, b], or None."""
        a, b = rat(a), rat(b)
        if a > b:
            raise ValueError("interval endpoints out of order")
        pts = self.points
        i = bisect_left(pts, a)
        if i < len(pts) and pts[i] <= b:
            return pts[i]
        for t in self.tails:
            w = t.closure_meets_closed(a, b)
            if w is not None:
                return w
        return None

    def closure_meets_sorted(self, intervals: Sequence[Tuple[Q, Q]]
                             ) -> Optional[Q]:
        """A closure point inside one of the sorted, disjoint closed
        intervals, or None: the first point inside one, else the first
        tail's witness.  The points are swept against the intervals by
        bisection from the previous position, and each tail is tested
        only on the intervals that meet its hull."""
        pts = self.points
        i = 0
        for a, b in intervals:
            i = bisect_left(pts, a, i)
            if i == len(pts):
                break
            if pts[i] <= b:
                return pts[i]
        upper = itemgetter(1)
        for t in self.tails:
            j = bisect_left(intervals, t.lo, key=upper)
            while j < len(intervals) and intervals[j][0] <= t.hi:
                w = t.closure_meets_closed(*intervals[j])
                if w is not None:
                    return w
                j += 1
        return None

    def neighbours(self, q) -> Tuple[Optional[Q], Optional[Q]]:
        """Closure points nearest to q strictly below and strictly above
        it (None where there is none); requires q off the closure."""
        q = rat(q)
        if self.closure_contains(q):
            raise ValueError("query point lies in the closure")
        return self._neighbours(q)

    def _neighbours(self, q: Q) -> Tuple[Optional[Q], Optional[Q]]:
        """``neighbours`` of a Q already known to lie off the closure."""
        pts = self.points
        i = bisect_left(pts, q)
        lo = pts[i - 1] if i else None
        hi = pts[i] if i < len(pts) else None
        for t in self.tails:
            below, above = t.neighbours(q)
            if below is not None and (lo is None or below > lo):
                lo = below
            if above is not None and (hi is None or above < hi):
                hi = above
        return lo, hi

    def find_gap(self, interval: Interval) -> Interval:
        """Deterministic rational (a, b) with [a, b] inside the interval
        and disjoint from the closure.

        Probes dyadic subdivision points of the interval left to right
        until one misses the closure, takes the maximal closure-free gap
        around it inside the interval, brackets the gap's middle third,
        and snaps the endpoints to the simplest rationals in each half of
        the bracket.
        """
        window = interval.finite_window()
        x, y = window.lower, window.upper
        span = y - x
        level = 1
        while level <= 64:
            step = span / (1 << level)
            for j in range(1, 1 << level, 2):
                m = x + j * step
                if not self.closure_contains(m):
                    g, h = self._neighbours(m)
                    g = x if g is None else max(g, x)
                    h = y if h is None else min(h, y)
                    third = (h - g) / 3
                    mid = (g + h) / 2
                    a = simplest_between(g + third, mid, True, False)
                    b = simplest_between(mid, h - third, False, True)
                    return Interval(a, b)
            level += 1
        raise RuntimeError("no closure gap found; set is not nowhere dense")

    # -- subset of closure ------------------------------------------------

    def _tail_cover_aps(self, t: GeomTail) -> List[Tuple[int, int]]:
        """Arithmetic progressions of exponents k whose terms land in this
        set's tails (start, step): {start + step*j : j >= 0}."""
        out: List[Tuple[int, int]] = []
        for s in self.tails:
            if s.limit != t.limit:
                continue
            if (s.coeff > 0) != (t.coeff > 0):
                continue
            ratio_quot = t.coeff / s.coeff
            d = _exact_log(s.ratio, t.ratio)
            if d is not None:
                # t.ratio == s.ratio**d: term k of t is term d*k + e of s,
                # which exists once d*k + e >= 0
                e = _exact_log(s.ratio, ratio_quot)
                if e is not None:
                    out.append((max(0, -(e // d)), 1))
                continue
            m = _exact_log(t.ratio, s.ratio)
            if m is not None:
                # s.ratio == t.ratio**m: covered k are m*j - e for j >= 0
                e = _exact_log(t.ratio, ratio_quot)
                if e is not None:
                    out.append((-e if e <= 0 else -e % m, m))
        return out

    def _tail_subset_of_closure(self, t: GeomTail) -> SubsetResult:
        aps = self._tail_cover_aps(t)
        full = [ap for ap in aps if ap[1] == 1]
        if full:
            head = min(ap[0] for ap in full)
        else:
            head = None
            if aps:
                modulus = 1
                for _, step in aps:
                    modulus = modulus * step // math.gcd(modulus, step)
                    if modulus > _AP_MODULUS_CAP:
                        modulus = None
                        break
                if modulus is not None:
                    residues = set()
                    for start, step in aps:
                        residues.update((start + step * i) % modulus
                                        for i in range(modulus // step))
                    if len(residues) == modulus:
                        head = max(start for start, _ in aps) + modulus
        if head is not None:
            if head > _HEAD_CAP:
                return SubsetResult(SubsetVerdict.UNKNOWN)
            for k in range(head):
                if not self.closure_contains(t.term(k)):
                    return SubsetResult(SubsetVerdict.NO, t.term(k))
            return SubsetResult(SubsetVerdict.YES)
        # no covering family: hunt for an explicit escaped term
        covered = lambda k: any(k >= s and (k - s) % m == 0 for s, m in aps)
        tried = 0
        k = 0
        while tried < _AP_SCAN_LIMIT:
            if not covered(k):
                if not self.closure_contains(t.term(k)):
                    return SubsetResult(SubsetVerdict.NO, t.term(k))
                tried += 1
            k += 1
        return SubsetResult(SubsetVerdict.UNKNOWN)

    def subset_of_closure(self, other: "NDSet") -> SubsetResult:
        """Whether every member of self lies in the closure of other.

        NO always carries a witness point of self outside the closure;
        UNKNOWN can only arise from tail-against-tail comparisons the
        exponent analysis cannot settle.
        """
        for p in self.points:
            if not other.closure_contains(p):
                return SubsetResult(SubsetVerdict.NO, p)
        unknown = False
        for t in self.tails:
            res = other._tail_subset_of_closure(t)
            if res.verdict is SubsetVerdict.NO:
                return res
            if res.verdict is SubsetVerdict.UNKNOWN:
                unknown = True
        return SubsetResult(SubsetVerdict.UNKNOWN if unknown else SubsetVerdict.YES)


EMPTY_NDSET = NDSet()


def ndset_points(*values) -> NDSet:
    return NDSet(points=[rat(v) for v in values])


__all__ = [
    "GeomTail", "NDSet", "EMPTY_NDSET", "ndset_points",
    "SubsetResult", "SubsetVerdict", "tail_final_piece", "fix_violation",
]
