"""Pure-Python rational kernel: a slotted ``Q`` that mirrors ``_speedups``.

It keeps the contract both kernels share (see ``qshift._qarith``) and is
ported from ``_speedups.pyx`` method by method, so the two read alike:
``numerator`` and ``denominator`` are plain slots, dispatch takes a ``Q``
first, then an ``int``, else ``NotImplemented``, and results are built
without a second trip through the constructor.  A result is normalized
only where it can share a factor: ``+``, ``-`` and ``/`` between two
``Q`` values and division by an int.  The other operations keep coprime
parts coprime by construction.

stdlib :class:`fractions.Fraction` is the test oracle both kernels are
checked against; it is not used here.
"""

from math import gcd

_new = object.__new__


def _make(n, d):
    # assumes d > 0 and gcd(n, d) == 1
    r = _new(Q)
    r.numerator = n
    r.denominator = d
    return r


def _norm(n, d):
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if d < 0:
        n = -n
        d = -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    # built inline: a call to _make costs about a tenth of a Q addition
    r = _new(Q)
    r.numerator = n
    r.denominator = d
    return r


class Q:
    __slots__ = ("numerator", "denominator")

    def __new__(cls, n=0, d=None):
        if d is None:
            if type(n) is Q:
                return n
            if isinstance(n, int):
                return _make(n, 1)
            raise TypeError(f"cannot build rational from {type(n).__name__}")
        if not (isinstance(n, int) and isinstance(d, int)):
            raise TypeError("rational components must be int")
        return _norm(n, d)

    def __add__(a, b):
        if type(b) is Q:
            return _norm(a.numerator * b.denominator + b.numerator * a.denominator,
                         a.denominator * b.denominator)
        if isinstance(b, int):
            return _make(a.numerator + b * a.denominator, a.denominator)
        return NotImplemented

    __radd__ = __add__  # called with an int on the left only

    def __sub__(a, b):
        if type(b) is Q:
            return _norm(a.numerator * b.denominator - b.numerator * a.denominator,
                         a.denominator * b.denominator)
        if isinstance(b, int):
            return _make(a.numerator - b * a.denominator, a.denominator)
        return NotImplemented

    def __rsub__(a, b):
        if isinstance(b, int):
            return _make(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __mul__(a, b):
        if type(b) is Q:
            g1 = gcd(a.numerator, b.denominator)
            g2 = gcd(b.numerator, a.denominator)
            return _make((a.numerator // g1) * (b.numerator // g2),
                         (a.denominator // g2) * (b.denominator // g1))
        if isinstance(b, int):
            g = gcd(b, a.denominator)
            return _make(a.numerator * (b // g), a.denominator // g)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Q:
            return _norm(a.numerator * b.denominator, a.denominator * b.numerator)
        if isinstance(b, int):
            return _norm(a.numerator, a.denominator * b)
        return NotImplemented

    def __rtruediv__(a, b):
        if isinstance(b, int):
            return _norm(b * a.denominator, a.numerator)
        return NotImplemented

    def __pow__(a, exp, mod=None):
        if mod is not None or not isinstance(exp, int):
            return NotImplemented
        if exp >= 0:
            return _make(a.numerator ** exp, a.denominator ** exp)
        if a.numerator == 0:
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        num = a.denominator ** -exp
        den = a.numerator ** -exp
        if den < 0:
            num = -num
            den = -den
        return _make(num, den)

    def __neg__(a):
        return _make(-a.numerator, a.denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        if a.numerator < 0:
            return _make(-a.numerator, a.denominator)
        return a

    def __bool__(a):
        return a.numerator != 0

    def __float__(a):
        return a.numerator / a.denominator

    def __hash__(a):
        if a.denominator == 1:
            return hash(a.numerator)
        return hash((a.numerator, a.denominator))

    def __eq__(a, b):
        if type(b) is Q:
            return a.numerator == b.numerator and a.denominator == b.denominator
        if isinstance(b, int):
            return a.denominator == 1 and a.numerator == b
        return NotImplemented

    def __lt__(a, b):
        if type(b) is Q:
            return a.numerator * b.denominator < b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator < b * a.denominator
        return NotImplemented

    def __le__(a, b):
        if type(b) is Q:
            return a.numerator * b.denominator <= b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator <= b * a.denominator
        return NotImplemented

    def __gt__(a, b):
        if type(b) is Q:
            return a.numerator * b.denominator > b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator > b * a.denominator
        return NotImplemented

    def __ge__(a, b):
        if type(b) is Q:
            return a.numerator * b.denominator >= b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator >= b * a.denominator
        return NotImplemented

    def __str__(a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __repr__(a):
        return f"Q({a.numerator}, {a.denominator})"

    def __reduce__(a):
        return (Q, (a.numerator, a.denominator))


__all__ = ["Q"]
