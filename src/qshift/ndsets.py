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
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from .plmaps import PLMap
from .rationals import (_MAX_DIGITS, Frozen, Interval, LimitError, Q, rat,
                        rat_str, simplest_between)


_TOO_LONG = 10 ** _MAX_DIGITS  # the least denominator with more digits
_ONE = Q(1)


def _min_pow_lt(r: Q, bound: Q) -> Optional[Tuple[int, Q]]:
    """Least k >= 0 with r**k <= bound, and r**k; None when bound <= 0.

    Squares r until a square is <= bound, then reads the bits of k - 1
    from the highest down, one multiplication per bit.  Raises
    ``LimitError`` exactly when r**k's denominator has more than
    ``_MAX_DIGITS`` digits; the squaring stops at the first such square.
    """
    if bound <= 0:
        return None
    if bound >= 1:
        return 0, _ONE
    # (n/d)**e is n**e/d**e in lowest terms, above bn/bd iff n**e*bd > bn*d**e
    bn, bd = bound.numerator, bound.denominator
    n, d = r.numerator, r.denominator
    squares = [(n, d)]
    while n * bd > bn * d and d < _TOO_LONG:
        n, d = n * n, d * d
        squares.append((n, d))
    if n * bd <= bn * d:
        # squares[-1] is r**(2**m): r**j > bound exactly for j < k <= 2**m
        j, n, d = 0, 1, 1
        for i in range(len(squares) - 2, -1, -1):
            sn, sd = squares[i]
            if n * sn * bd > bn * d * sd:
                j, n, d = j + (1 << i), n * sn, d * sd
        n, d = n * r.numerator, d * r.denominator
        if d < _TOO_LONG:
            return j + 1, Q(n, d)
    raise LimitError(f"the least power of a tail ratio below a bound has "
                     f"more than {_MAX_DIGITS} digits")


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


def _common_root(u: Q, v: Q) -> Optional[Q]:
    """A rational of which u and v in (0, 1) are both powers, or None when
    they are multiplicatively independent.

    Euclid's algorithm on the exponents of a shared root, run as exact
    division by the ratio with the smaller denominator: while u and v
    are powers of one root, numerators and denominators divide.
    """
    un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
    while ud != vd:
        if ud < vd:
            un, ud, vn, vd = vn, vd, un, ud
        if un % vn or ud % vd:
            return None
        un, ud = un // vn, ud // vd
    return Q(un, ud) if un == vn else None


class GeomTail(Frozen):
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

    ``prev`` is the term before the head, limit + coeff / ratio: the only
    member through which the tail can be extended backwards.  Like the
    hull it is derived, so it takes no part in equality or hashing.
    """

    __slots__ = ("limit", "coeff", "ratio", "lo", "hi", "prev")

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
        object.__setattr__(self, "prev", limit + coeff / ratio)

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
        t = (x - self.limit) / self.coeff
        found = _min_pow_lt(self.ratio, t)
        if found is None:
            return None
        return found[0] + 1 if found[1] == t else found[0]

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
            # ratio**k <= t; term k is q itself when they are equal
            k, power = _min_pow_lt(self.ratio, t)
            over = self.limit + self.coeff * power / self.ratio if k else None
            if power == t:
                power = power * self.ratio
            under = self.limit + self.coeff * power
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
        _, power = _min_pow_lt(self.ratio, (far - self.limit) / self.coeff)
        w = self.limit + self.coeff * power
        return w if a <= w <= b else None


def tail_final_piece(f: PLMap, t: GeomTail):
    """First exponent k0 whose terms all sit in one linear piece of f
    adjacent to the tail's limit, together with that piece's slope.

    Terms with k >= k0 then map through f(limit) + slope*(term - limit).
    """
    x_star, slope = f.piece_beside(t.limit, t.coeff > 0)
    return (0 if x_star is None else t.first_k_inside(x_star)), slope


def _identity_on(f: PLMap, lo: Q, hi: Q) -> bool:
    """Whether f is the identity on [lo, hi]: the linear piece of f right
    of lo has slope 1, reaches hi, and fixes lo."""
    x_star, slope = f.piece_beside(lo, True)
    return (slope == 1 and (x_star is None or hi <= x_star)
            and f.apply(lo) == lo)


def fix_violation(f: PLMap, support: "NDSet") -> Optional[Q]:
    """A member of the set that f moves, or None when f fixes it all.

    A tail is fixed iff the linear piece of f adjacent to its limit (on
    the terms' side) is the identity and the finitely many terms outside
    that piece are fixed individually.  The identity moves nothing, and
    neither does a map on a tail whose hull lies in one piece on which
    the map is the identity; such a tail is skipped unevaluated, as
    ``PLMap.first_moved`` skips points.
    """
    if f.is_identity:
        return None
    p = f.first_moved(support.points)
    if p is not None:
        return p
    for t in support.tails:
        if _identity_on(f, t.lo, t.hi):
            continue
        k0, slope = tail_final_piece(f, t)
        if slope != 1 or f.apply(t.term(k0)) != t.term(k0):
            return t.term(k0)
        for k in range(k0):
            if f.apply(t.term(k)) != t.term(k):
                return t.term(k)
    return None


_AP_MODULUS_CAP = 1 << 20
_HEAD_CAP = 5000


def _held_points(pts, tails) -> set:
    """The points of the sorted sequence that lie on one of the tails; a
    point is tested only against the tails whose hull contains it, and a
    tail whose hull misses the points' span costs two comparisons."""
    held = set()
    if not pts:
        return held
    first, last = pts[0], pts[-1]
    for t in tails:
        if t.lo <= last and first <= t.hi:
            for p in pts[bisect_left(pts, t.lo):bisect_right(pts, t.hi)]:
                if t.contains(p):
                    held.add(p)
    return held


def _merge_sorted(a: Sequence, b: Sequence, key=None) -> list:
    """Sorted merge of two sorted sequences without repeats, dropping the
    items of one equal (by ``key``) to items of the other: the shorter
    one's items go into a copy of the longer, left to right, each by
    bisection past the previous one."""
    small, large = sorted((a, b), key=len)
    out = list(large)
    i = 0
    for x in small:
        k = x if key is None else key(x)
        i = bisect_left(out, k, i, key=key)
        if i == len(out) or (out[i] if key is None else key(out[i])) != k:
            out.insert(i, x)
        i += 1
    return out


def _extend_through(t: GeomTail, mine: "NDSet", theirs: "NDSet") -> GeomTail:
    """A tail of the normalized set ``mine`` extended backwards through the
    members of ``mine`` and ``theirs`` it abuts; ``t`` itself when its
    previous term is not a member of ``theirs``, because it is not one of
    ``mine`` (the tail already reaches back through all of them)."""
    prev = t.prev
    if not theirs.contains(prev):
        return t
    coeff = t.coeff
    while theirs.contains(prev) or mine.contains(prev):
        coeff = coeff / t.ratio
        prev = t.limit + coeff / t.ratio
    return GeomTail(t.limit, coeff, t.ratio)


class NDSet(Frozen):
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
            prev = t.prev
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

    # A tail's closure lies in its hull [lo, hi], so every tail query below
    # first tests the hull inline and does the tail's arithmetic only for
    # the tails whose hull can hold the answer.

    def contains(self, q) -> bool:
        q = rat(q)
        pts = self.points
        i = bisect_left(pts, q)
        if i < len(pts) and pts[i] == q:
            return True
        return any(t.lo <= q <= t.hi and t.contains(q) for t in self.tails)

    def closure_contains(self, q) -> bool:
        q = rat(q)
        pts = self.points
        i = bisect_left(pts, q)
        if i < len(pts) and pts[i] == q:
            return True
        return any(t.lo <= q <= t.hi and (q == t.limit or t.contains(q))
                   for t in self.tails)

    def _hull(self) -> Tuple[Q, Q]:
        """The least and the greatest closure point of a nonempty set."""
        pts = self.points
        lo, hi = (pts[0], pts[-1]) if pts else (self.tails[0].lo,
                                                self.tails[0].hi)
        for t in self.tails:
            if t.lo < lo:
                lo = t.lo
            if t.hi > hi:
                hi = t.hi
        return lo, hi

    # -- algebra --------------------------------------------------------

    def union(self, other: "NDSet") -> "NDSet":
        """Merge of two normalized presentations; equal to
        ``NDSet(self.points + other.points, self.tails + other.tails)``.

        Each side's tails already reach back through all of that side's
        members, so a tail can only grow through a member of the other
        side, and a point can only become covered by a tail of the other
        side or by a tail of its own side that grew.  A tail grows only
        through its previous term, so only the tails whose previous term
        lies in the other side's hull are tested; when none grows, the
        tails merge by bisection.
        """
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        points = _merge_sorted(self.points, other.points)
        if not (self.tails or other.tails):
            return NDSet._normalized(tuple(points), ())
        mine, theirs = self._extended(other), other._extended(self)
        grown_mine = [t for t, old in zip(mine, self.tails) if t is not old]
        grown_theirs = [t for t, old in zip(theirs, other.tails)
                        if t is not old]
        covered = _held_points(self.points, theirs + grown_mine)
        covered |= _held_points(other.points, mine + grown_theirs)
        if covered:
            points = [p for p in points if p not in covered]
        if grown_mine or grown_theirs:
            tails = sorted({*mine, *theirs}, key=GeomTail._key)
        else:
            tails = _merge_sorted(mine, theirs, GeomTail._key)
        return NDSet._normalized(tuple(points), tuple(tails))

    def _extended(self, other: "NDSet") -> List[GeomTail]:
        """This set's tails, each extended backwards through the members of
        the union with ``other`` it abuts (``_extend_through``); a tail
        whose previous term lies outside other's hull is kept untested."""
        if not self.tails:
            return []
        lo, hi = other._hull()
        return [_extend_through(t, self, other) if lo <= t.prev <= hi else t
                for t in self.tails]

    def image(self, f: PLMap) -> "NDSet":
        """Exact image under an increasing piecewise-linear bijection.

        ``self`` when f is the identity on the set's hull.  An increasing
        bijection keeps the points sorted and off the tails, and maps a
        tail whose terms all lie in the linear piece beside its limit to a
        tail, in the same ``_key`` order (the tail itself when that piece
        is the identity).  So the image needs normalizing only when a tail
        leaves head terms behind as points, or when an image tail's
        previous term is a member.  That term is the image of the tail's
        previous term, so not a member, unless the previous term lies past
        the piece; only then is it looked up.
        """
        if f.is_identity or self.is_empty or _identity_on(f, *self._hull()):
            return self  # normalized and immutable already
        pts: List[Q] = [f.apply(p) for p in self.points]
        tails: List[GeomTail] = []
        heads = False
        unsure: List[Q] = []  # previous terms of image tails to look up
        for t in self.tails:
            x_star, slope = f.piece_beside(t.limit, t.coeff > 0)
            k0 = 0 if x_star is None else t.first_k_inside(x_star)
            limit = f.apply(t.limit)
            if k0:
                heads = True
                pts.extend(f.apply(t.term(k)) for k in range(k0))
                image = GeomTail(limit, slope * t.coeff * t.ratio ** k0,
                                 t.ratio)
            elif slope == 1 and limit == t.limit:
                image = t
            else:
                image = GeomTail(limit, slope * t.coeff, t.ratio)
            tails.append(image)
            if x_star is not None and (t.prev > x_star if t.coeff > 0
                                       else t.prev < x_star):
                unsure.append(image.prev)
        if not heads:
            out = NDSet._normalized(tuple(pts), tuple(tails))
            if not any(map(out.contains, unsure)):
                return out
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
            if t.lo <= b and a <= t.hi:
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
            # a hull beside q offers its near end, the limit or the head
            # term, both closure points; only a hull around q is searched
            if t.hi < q:
                below, above = t.hi, None
            elif q < t.lo:
                below, above = None, t.lo
            else:
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

    def _tail_cover_aps(self, t: GeomTail
                        ) -> Tuple[List[Tuple[int, int]], int]:
        """Progressions (start, step), each {start + step*j : j >= 0}, of
        the exponents k whose term of t is a term of one of this set's
        tails; and how many tails beside t share at most one term with it.

        With t.ratio = rho**a and s.ratio = rho**b for a common root rho
        with gcd(a, b) = 1, term k of t is term j of s iff t.coeff/s.coeff
        = rho**e and b*j = a*k + e with j >= 0: step b.  Ratios without a
        common root are independent: two common terms k != k' would make
        t.ratio**(k - k') a power of s.ratio.
        """
        aps: List[Tuple[int, int]] = []
        independent = 0
        for s in self.tails:
            if s.limit != t.limit or (s.coeff > 0) != (t.coeff > 0):
                continue
            rho = _common_root(t.ratio, s.ratio)
            if rho is None:
                independent += 1
                continue
            a, b = _exact_log(rho, t.ratio), _exact_log(rho, s.ratio)
            e = _exact_log(rho, t.coeff / s.coeff)
            if e is None:
                continue
            # a*k + e == 0 (mod b) fixes k mod b; j >= 0 is k >= -e/a
            residue = -e * pow(a, -1, b) % b
            low = max(0, -(e // a))
            aps.append((low + (residue - low) % b, b))
        return aps, independent

    def _tail_escape(self, t: GeomTail) -> Optional[Q]:
        """The term of t of least exponent off this set's closure, or None.

        Past the largest start of the progressions, whether they cover k
        depends on k mod their period.  If they cover every residue, only
        the exponents below that start need a closure test.  Else a term
        escapes: past the head K0, where t's terms come nearer its limit
        than every closure point but the limit and the terms of tails
        with that limit, only those tails hold terms of t, an independent
        one at most one.  So one of the first ``independent + 1`` exponents
        past K0 in an uncovered residue class escapes.  The scan stops
        there with ``_HEAD_CAP`` for K0; finding none proves K0 past it.
        """
        aps, independent = self._tail_cover_aps(t)
        start = max((s for s, _ in aps), default=0)
        period = math.lcm(*(step for _, step in aps))
        if period > _AP_MODULUS_CAP:
            raise LimitError(f"tails cover the terms of a tail with period "
                             f"{period}, past {_AP_MODULUS_CAP}")
        covered = {k % period for s, step in aps
                   for k in range(s, s + period, step)}
        full = len(covered) == period
        end = start if full else (max(start, _HEAD_CAP)
                                  + period * (independent + 1))
        power = _ONE
        for k in range(end):
            if not any(k >= s and (k - s) % step == 0 for s, step in aps):
                term = t.limit + t.coeff * power
                if not self.closure_contains(term):
                    return term
            power = power * t.ratio
        if full:
            return None
        raise LimitError(f"a closure crowds the limit of a tail it does not "
                         f"contain for more than {_HEAD_CAP} terms")

    def subset_of_closure(self, other: "NDSet") -> Optional[Q]:
        """A member of self off the closure of other, or None: the least
        such point, else the first escaping term of the first tail with
        one.  Raises ``LimitError`` past the caps of ``_tail_escape``."""
        for p in self.points:
            if not other.closure_contains(p):
                return p
        for t in self.tails:
            w = other._tail_escape(t)
            if w is not None:
                return w
        return None


EMPTY_NDSET = NDSet()


def ndset_points(*values) -> NDSet:
    return NDSet(points=[rat(v) for v in values])


__all__ = [
    "GeomTail", "NDSet", "EMPTY_NDSET", "ndset_points",
    "tail_final_piece", "fix_violation",
]
