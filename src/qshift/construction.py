"""Recursive gap-evacuation construction and its independent verifier.

Given an increasing chain of nowhere-dense sets E_0 <= E_1 <= ... (fed as
increments) and the fixed enumeration I_0, I_1, ... of open rational
intervals, the construction produces maps pi_n and gap intervals
J_n <= I_n such that

* pi_n fixes the current shifted set sigma_n``E_n pointwise
  (sigma_0 = id, sigma_{n+1} = pi_n . sigma_n), and
* every shifted set sigma_m``E_m stays closure-disjoint from every
  recorded closed gap [a_k, b_k] -- a closed-interval strengthening that
  is maintained inductively and keeps the running union of shifted sets
  nowhere dense at every finite stage.

The verifier replays a finished trace from the map sequence alone,
re-deriving every shifted set and checking all conditions through the
membership oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from .ndsets import EMPTY_NDSET, NDSet, fix_violation
from .plmaps import PLMap, invert_squeezes, squeeze_map
from .rationals import (Frozen, Interval, Q, QshiftError, Record, Value,
                        describe_rat, rat_str, simplest_between)
from .reporting import Report

if TYPE_CHECKING:
    from .serial import Recorded

# -- canonical enumerations -------------------------------------------------

_POS_ENUM: List[Q] = []
_POS_DIAG = 2  # next antidiagonal (numerator + denominator) to expand


def _extend_positive_enum() -> None:
    global _POS_DIAG
    s = _POS_DIAG
    nums = range(1, s) if s % 2 == 0 else range(s - 1, 0, -1)
    for a in nums:
        if math.gcd(a, s - a) == 1:
            _POS_ENUM.append(Q(a, s - a))
    _POS_DIAG += 1


def rational_enum(i: int) -> Q:
    """Fixed zig-zag enumeration of all rationals: 0, 1, -1, 2, -2, 1/2, ..."""
    if i < 0:
        raise ValueError("enumeration index must be nonnegative")
    if i == 0:
        return Q(0)
    j, neg = divmod(i - 1, 2)
    while len(_POS_ENUM) <= j:
        _extend_positive_enum()
    q = _POS_ENUM[j]
    return -q if neg else q


def canonical_interval(n: int) -> Interval:
    """Fixed enumeration of open intervals with rational endpoints.

    Unpairs n diagonally into (i, j), decodes both through the rational
    enumeration, and returns the open interval between the two values
    (or (q, q+1) when they coincide).  Every rational-endpoint open
    interval appears at some index; repeats are harmless.
    """
    if n < 0:
        raise ValueError("interval index must be nonnegative")
    t = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - t * (t + 1) // 2
    i = t - j
    qi, qj = rational_enum(i), rational_enum(j)
    if qi == qj:
        return Interval(qi, qi + 1)
    return Interval(min(qi, qj), max(qi, qj))


def pair_index(i: int, j: int) -> int:
    """Inverse of the diagonal unpairing used by canonical_interval."""
    t = i + j
    return t * (t + 1) // 2 + j


# -- streams ----------------------------------------------------------------

class EStream(Frozen, Record):
    """Increasing chain of nowhere-dense sets, presented as increments.

    Level n is the union of the first n+1 increments; past the last
    increment the chain stays constant (further increments are empty).
    ``_levels`` caches the levels built so far.
    """

    __slots__ = ("increments", "_levels")

    def __init__(self, increments: Sequence[NDSet]):
        object.__setattr__(self, "increments", tuple(increments))
        object.__setattr__(self, "_levels", [])

    def __len__(self):
        return len(self.increments)

    def increment(self, n: int) -> NDSet:
        """Increment n, so that level n is level n-1 united with it; empty
        past the last increment."""
        if n < 0:
            raise ValueError("increment index must be nonnegative")
        return self.increments[n] if n < len(self.increments) else EMPTY_NDSET

    def level(self, n: int) -> NDSet:
        if n < 0:
            raise ValueError("level index must be nonnegative")
        if not self.increments:
            return EMPTY_NDSET
        n = min(n, len(self.increments) - 1)
        while len(self._levels) <= n:
            k = len(self._levels)
            prev = self._levels[k - 1] if k else EMPTY_NDSET
            self._levels.append(prev.union(self.increments[k]))
        return self._levels[n]


# -- evacuation --------------------------------------------------------------

class EvacuationError(QshiftError):
    """A blocked interval meets the closure of the set to be fixed."""
    exit_code = 1
    label = "evacuation error"

    def __init__(self, witness: Q, blocked: Tuple[Q, Q]):
        self.witness = witness
        self.blocked = blocked
        super().__init__(
            f"closure point {rat_str(witness)} lies in blocked interval "
            f"[{rat_str(blocked[0])}, {rat_str(blocked[1])}]")


def _merge_closed(intervals: Sequence[Tuple[Q, Q]]) -> List[Tuple[Q, Q]]:
    """Sorted, disjoint closed intervals with the same union."""
    out: List[Tuple[Q, Q]] = []
    # intervals sharing a lower end merge whatever their order, so
    # sorting by it alone gives the same result
    for a, b in sorted(intervals, key=itemgetter(0)):
        if a > b:
            raise ValueError("interval endpoints out of order")
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _insert_closed(merged: List[Tuple[Q, Q]], a: Q,
                   b: Q) -> List[Tuple[Q, Q]]:
    """``_merge_closed(merged + [(a, b)])`` for sorted, disjoint closed
    ``merged``: the intervals that meet or touch [a, b] are found by
    bisection and merged with it, the others are kept as they are."""
    if a > b:
        raise ValueError("interval endpoints out of order")
    # both ends increase along merged: the intervals from i on end at or
    # above a, and those before j start at or below b
    i = bisect_left(merged, a, key=itemgetter(1))
    j = bisect_right(merged, b, i, key=itemgetter(0))
    if i < j:
        a, b = min(a, merged[i][0]), max(b, merged[j - 1][1])
    return merged[:i] + [(a, b)] + merged[j:]


def evacuate(c_fix: NDSet, c_move: NDSet,
             blocked: Sequence[Tuple[Q, Q]]) -> PLMap:
    """Map fixing ``c_fix`` pointwise whose image of ``c_move`` is
    closure-disjoint from every blocked closed interval.

    Raises ``EvacuationError`` naming the first blocked interval, in the
    given order, that meets the closure of ``c_fix``, with a closure point
    inside it.  Otherwise the map is ``_evacuate_merged``'s on the merged
    blocked list: the identity when nothing is to move.
    """
    merged_blocked = _merge_closed(blocked)
    # merged closed intervals have no holes, so the closure meets one of
    # them iff it meets a blocked interval; the ordered scan runs only to
    # name the first blocked interval hit and its witness
    if c_fix.closure_meets_sorted(merged_blocked) is not None:
        for a, b in blocked:
            w = c_fix.closure_meets_closed(a, b)
            if w is not None:
                raise EvacuationError(w, (a, b))
    pi = _evacuate_merged(c_fix, c_move, merged_blocked)
    return PLMap.identity() if pi is None else pi


def _evacuate_merged(c_fix: NDSet, c_move: NDSet,
                     merged_blocked: Sequence[Tuple[Q, Q]]
                     ) -> Optional[PLMap]:
    """``evacuate`` on sorted, disjoint closed intervals that the caller
    knows miss the closure of ``c_fix``; None, in place of the identity,
    when the closure of ``c_move`` misses them already.

    For each blocked interval, an open cover with rational endpoints is
    chosen whose closure misses the closure of ``c_fix``; covers are
    merged when they overlap.  Inside each cover the blocked intervals
    are squeezed into closure-free gaps of ``c_move`` and the resulting
    map is inverted: pulling a blocked interval into a gap of the moving
    set and inverting moves the set off the blocked interval.
    """
    if c_move.closure_meets_sorted(merged_blocked) is None:
        return None  # nothing to move

    # Covers come out sorted by lower end, so they merge as they are
    # built.  Each cover lies in the gap of the closure of c_fix that holds
    # its blocked interval, and the gaps are ordered.  Inside one gap
    # (L, R) the lower end never decreases as a grows: a - 1 plainly, and
    # simplest_between(L, a) because the simplest rational of (L, a) is
    # also the simplest of (L, a') for a' < a when it lies there, and is
    # at least a' otherwise.
    merged: List[Tuple[Q, Q, List[Tuple[Q, Q]]]] = []
    for a, b in merged_blocked:
        # [a, b] misses the closure of c_fix (the caller's contract), so a
        # and b have the same nearest closure points
        below, above = c_fix.neighbours(a)
        u = a - 1 if below is None else simplest_between(below, a)
        v = b + 1 if above is None else simplest_between(b, above)
        if merged and u <= merged[-1][1]:
            pu, pv, blk = merged[-1]
            blk.append((a, b))
            merged[-1] = (pu, max(pv, v), blk)
        else:
            merged.append((u, v, [(a, b)]))

    # merged covers are disjoint and increasing: their squeeze maps are
    # inverted together, in one pass
    squeezes = []
    for u, v, blk in merged:
        targets = []
        cursor = u
        for a, b in blk:
            gap = c_move.find_gap(Interval(cursor, v))
            targets.append(((a, b), gap))
            cursor = gap.upper
        squeezes.append(squeeze_map(Interval(u, v), targets))
    return invert_squeezes(squeezes)


# -- the recursion ------------------------------------------------------------

class ShiftStep(Value):
    # ``sigma_next`` and ``shifted`` are a PLMap and an NDSet, or records
    # read from a trace file (serial.Recorded): JSON text that compares
    # equal to the value it encodes, and decodes to it
    __slots__ = ("n", "interval", "gap", "pi", "sigma_next", "shifted")
    __hash__ = None  # mutable

    def __init__(self, n: int, interval: Interval, gap: Interval, pi: PLMap,
                 sigma_next: Union[PLMap, Recorded],
                 shifted: Union[NDSet, Recorded]):
        self.n, self.interval, self.gap, self.pi = n, interval, gap, pi
        self.sigma_next, self.shifted = sigma_next, shifted

    def __repr__(self):
        return f"ShiftStep(n={self.n}, J={self.gap!r})"


class ShiftTrace(Value):
    __slots__ = ("steps",)
    __hash__ = None  # mutable

    def __init__(self, steps: Sequence[ShiftStep]):
        self.steps = tuple(steps)

    def __len__(self):
        return len(self.steps)

    @property
    def sigmas(self) -> List[PLMap]:
        """sigma_n for n = 0..len: compositions of the recorded maps."""
        out = [PLMap.identity()]
        for step in self.steps:
            out.append(step.pi.compose(out[-1]))
        return out


def run_shift_construction(stream: EStream, upto: int) -> ShiftTrace:
    """Execute the recursion through step ``upto`` inclusive."""
    if upto < 0:
        raise ValueError("step count must be nonnegative")
    sigma = PLMap.identity()
    shifted = stream.increment(0)
    blocked: List[Tuple[Q, Q]] = []
    steps: List[ShiftStep] = []
    for n in range(upto + 1):
        # evacuate's precondition, held by induction: the closure of
        # shifted_{n-1} missed blocked_{n-1}.  A closure of a union is the
        # union of the closures, and a merged interval the union of the
        # gaps it merges, so only pi_{n-1}``incoming_{n-1} against
        # blocked_{n-1} and shifted_n against J_n can meet
        hit = False
        if n:
            moved = incoming.image(pi)
            # when evacuate moved nothing, incoming missed blocked already
            hit = (not unmoved
                   and moved.closure_meets_sorted(blocked) is not None)
            # pi_{n-1} fixes shifted, so sigma_n``E_n is shifted united
            # with pi_{n-1}``incoming; built only when a step uses it
            shifted = shifted.union(moved)
        interval = canonical_interval(n)
        gap = shifted.find_gap(interval)
        hit = hit or shifted.closure_meets_closed(gap.lower,
                                                  gap.upper) is not None
        # kept merged, as evacuate's body requires
        blocked = _insert_closed(blocked, gap.lower, gap.upper)
        # evacuate's covers lie in gaps of the closure of shifted, and
        # inside them shifted united with incoming looks like incoming
        # alone: the increment's image gives the moving set's map
        incoming = stream.increment(n + 1).image(sigma)
        if hit:
            # the full sweep names the first blocked interval hit
            evacuate(shifted, incoming, blocked)
        pi = _evacuate_merged(shifted, incoming, blocked)
        unmoved = pi is None
        if unmoved:
            pi = PLMap.identity()
        sigma = pi.compose(sigma)
        steps.append(ShiftStep(n, interval, gap, pi, sigma, shifted))
    return ShiftTrace(steps)


def witness_subgroup(trace: ShiftTrace) -> NDSet:
    """Union of all recorded shifted sets: the support generating the
    subgroup below every shifted stabilizer of the prefix."""
    out = EMPTY_NDSET
    for step in trace.steps:
        shifted = step.shifted
        if not isinstance(shifted, NDSet):
            shifted = shifted.decode()
        out = out.union(shifted)
    return out


def verify_shift_trace(trace: ShiftTrace, stream: EStream) -> Report:
    """Independent replay of a trace.

    Recomputes every composition from the recorded maps, re-derives each
    shifted set from the stream, and checks: the recorded fields match
    the replay, gaps sit inside their enumerated intervals, each map
    fixes its shifted set pointwise, and every shifted set is
    closure-disjoint from every recorded closed gap.  All checks go
    through membership oracles; nothing from the construction's internal
    choices is trusted.  Shifted set n is derived as shifted set n-1
    united with the image of increment n while every step index so far is
    right and every earlier map fixes its replayed set (the identity the
    construction uses, now proven for this trace), and as the image of
    level n otherwise.
    """
    report = Report()
    sigma = PLMap.identity()
    shifted: List[NDSet] = []
    chained = True
    compared = None, None
    for step in trace.steps:
        n = step.n
        chained &= report.add("step-index", n == len(shifted), n)
        if chained and shifted:
            # every earlier pi_m fixed its shifted set exactly, so
            # sigma_n``E_{n-1} is the previous replayed set
            derived = shifted[-1].union(stream.increment(n).image(sigma))
        else:
            derived = stream.level(n).image(sigma)
        shifted.append(derived)
        # a record read from a file is decoded only when its canonical
        # text differs from the derived set's encoding
        report.add("shifted-matches", derived == step.shifted, n)
        report.add("interval-enumeration",
                   step.interval == canonical_interval(n), n)
        report.add("gap-in-interval",
                   step.interval.contains_open(step.gap), n)
        moved = fix_violation(step.pi, derived)
        chained &= report.add("fixes-shifted", moved is None, n,
                              detail="pi_n in Fix(shifted_n)" if moved is None
                              else f"pi_n moves {describe_rat(moved)}")
        sigma = step.pi.compose(sigma)
        # an identity pi leaves sigma as it was, and a decoded trace shares
        # a repeated record; maps are immutable, so each pair of objects
        # is compared once
        if sigma is not compared[0] or step.sigma_next is not compared[1]:
            compared = sigma, step.sigma_next
            telescopes = sigma == step.sigma_next
        report.add("sigma-telescoping", telescopes, n)

    # When every step index is right and every pi_m fixes shifted_m, the
    # replayed sets increase (shifted_{m+1} contains
    # sigma_{m+1}(E_m) = pi_m(shifted_m) = shifted_m), so one query
    # against the last set clears gap k for every m; a hit, or any earlier
    # failure, leaves gap k to be queried against each set.  The family
    # is one report entry holding only its failing cells.
    gaps = [(step.gap.lower, step.gap.upper) for step in trace.steps]
    unclear = [k for k, (a, b) in enumerate(gaps) if not chained
               or shifted[-1].closure_meets_closed(a, b) is not None]
    labels = [f"J_{k}" for k in range(len(gaps))]
    failing = []
    for m, s in enumerate(shifted):
        for k in unclear:
            w = s.closure_meets_closed(*gaps[k])
            if w is not None:
                failing.append((m, k,
                                f"{labels[k]} contains {describe_rat(w)}"))
    report.add_grid("gap-disjoint", len(shifted), labels, failing)
    return report


__all__ = [
    "rational_enum", "canonical_interval", "pair_index", "EStream",
    "EvacuationError", "evacuate", "ShiftStep", "ShiftTrace",
    "run_shift_construction", "witness_subgroup", "verify_shift_trace",
]
