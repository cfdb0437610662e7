"""Exact rationals, open intervals over them, and simplest-fraction search.

The rational type ``Q`` comes from the kernel backend (compiled or pure);
everything here works purely through arithmetic and comparisons, so it is
backend-agnostic.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from ._qarith import BACKEND, Q

RatLike = Union["Q", int, str]

# ASCII digits only: int() would read other scripts' digits too
_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)

# digits allowed in a numerator or denominator, read or written: CPython's
# default limit on int <-> str conversion, checked here so that the cap
# holds whatever PYTHONINTMAXSTRDIGITS says
_MAX_DIGITS = 4300


class QshiftError(ValueError):
    """A refusal: the CLI prints ``label: message`` and exits ``exit_code``."""
    exit_code = 2
    label = "input error"


class LimitError(QshiftError):
    """A query whose exact answer lies past an explicit size limit."""
    label = "limit error"


def rat(value: RatLike) -> Q:
    """Coerce an int, a 'p/q' string, or a Q into a Q."""
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def parse_rational(text: str) -> Q:
    """Parse the canonical 'p/q' form (bare 'p' for integers)."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num_text, den_text = m.groups()
    # the length test first: no shorter text can hold too many digits
    if len(text) > _MAX_DIGITS and max(
            len(num_text.lstrip("+-")), len(den_text or "")) > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits in the numerator "
                         f"or denominator of a rational literal")
    num = int(num_text)
    den = int(den_text) if den_text is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Q(num, den)


def rat_str(q: Q) -> str:
    """Canonical text form: 'p/q', with '/q' omitted for integers.

    Refuses with ``ValueError`` a numerator or denominator of more than
    ``_MAX_DIGITS`` digits, the longest that ``parse_rational`` reads back.
    """
    if q.denominator == 1:
        text = str(q.numerator)
    else:
        text = f"{q.numerator}/{q.denominator}"
    # the length test first: no shorter text can hold too many digits
    if len(text) > _MAX_DIGITS and max(
            len(part.lstrip("-")) for part in text.split("/")) > _MAX_DIGITS:
        raise ValueError(f"more than {_MAX_DIGITS} digits in the numerator "
                         f"or denominator of a rational")
    return text


def describe_rat(q: Q) -> str:
    """``rat_str(q)`` for a message, or a note when q is too long for it:
    a tampered map can send a point to a rational of any length."""
    try:
        return rat_str(q)
    except ValueError:
        return "a rational too long to print"


def floor_rat(q: Q) -> int:
    return q.numerator // q.denominator


def ceil_rat(q: Q) -> int:
    return -((-q.numerator) // q.denominator)


def simplest_between(lo: Q, hi: Q, include_lo: bool = False,
                     include_hi: bool = False) -> Q:
    """Rational with smallest denominator in the given interval.

    Endpoint inclusion is controlled by the flags; the interval must be
    nonempty.  Deterministic, and cheap: one descent along the continued
    fraction of the endpoints, on integer numerators and denominators,
    building a single ``Q`` at the end.
    """
    if lo > hi or (lo == hi and not (include_lo and include_hi)):
        raise ValueError(f"empty interval ({rat_str(lo)}, {rat_str(hi)})")
    if lo == hi:
        return lo
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if (ln < 0 or (ln == 0 and include_lo)) and (hn > 0 or (hn == 0 and include_hi)):
        return Q(0)
    sign = 1
    if hn < 0 or (hn == 0 and not include_hi):
        # mirror onto the nonnegative side: x lies in (lo, hi) iff -x
        # lies in (-hi, -lo)
        sign = -1
        ln, ld, hn, hd = -hn, hd, -ln, ld
        include_lo, include_hi = include_hi, include_lo
    # now 0 <= lo < hi; hd == 0 below stands for hi = +inf.  Take the
    # smallest admissible integer if one exists; otherwise lo and hi share
    # the integer part fl, and x = fl + 1/y with y between 1/(hi - fl) and
    # 1/(lo - fl), the inclusion flags swapped.  (p1/q1, p0/q0) are the
    # last two convergents of the partial quotients fl taken so far.
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        fl, rem = divmod(ln, ld)
        first = fl if rem == 0 and include_lo else fl + 1
        if first * hd < hn or (include_hi and first * hd == hn):
            return Q(sign * (first * p1 + p0), first * q1 + q0)
        p0, q0, p1, q1 = p1, q1, fl * p1 + p0, fl * q1 + q0
        ln, ld, hn, hd = hd, hn - fl * hd, ld, rem
        include_lo, include_hi = include_hi, include_lo


class Interval:
    """Open interval of rationals; either endpoint may be infinite (None)."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Optional[RatLike], upper: Optional[RatLike]):
        lo = rat(lower) if lower is not None else None
        hi = rat(upper) if upper is not None else None
        if lo is not None and hi is not None and not lo < hi:
            raise ValueError(f"empty interval ({rat_str(lo)}, {rat_str(hi)})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lower == other.lower and self.upper == other.upper)

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self):
        lo = rat_str(self.lower) if self.lower is not None else "-inf"
        hi = rat_str(self.upper) if self.upper is not None else "+inf"
        return f"Interval({lo}, {hi})"

    @property
    def is_finite(self) -> bool:
        return self.lower is not None and self.upper is not None

    def contains(self, q: Q) -> bool:
        if self.lower is not None and not q > self.lower:
            return False
        if self.upper is not None and not q < self.upper:
            return False
        return True

    def contains_open(self, other: "Interval") -> bool:
        """Whether the open interval ``other`` is a subset of this one."""
        if self.lower is not None:
            if other.lower is None or other.lower < self.lower:
                return False
        if self.upper is not None:
            if other.upper is None or other.upper > self.upper:
                return False
        return True

    def contains_closed(self, a: Q, b: Q) -> bool:
        """Whether the closed interval [a, b] is a subset of this one."""
        if a > b:
            raise ValueError("closed interval endpoints out of order")
        if self.lower is not None and not self.lower < a:
            return False
        if self.upper is not None and not b < self.upper:
            return False
        return True

    def finite_window(self) -> "Interval":
        """A finite open subinterval, equal to self when already finite."""
        if self.is_finite:
            return self
        if self.lower is None and self.upper is None:
            return Interval(0, 1)
        if self.lower is None:
            return Interval(self.upper - 1, self.upper)
        return Interval(self.lower, self.lower + 1)


__all__ = [
    "BACKEND", "Q", "Interval", "LimitError", "QshiftError", "rat",
    "parse_rational", "rat_str", "describe_rat", "floor_rat", "ceil_rat",
    "simplest_between",
]
