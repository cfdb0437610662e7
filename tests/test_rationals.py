import math
import sys
from random import Random

import pytest
from hypothesis import given, strategies as st

from qshift.rationals import (Interval, Q, ceil_rat, floor_rat, parse_rational,
                              rat, rat_str, simplest_between)


def test_parse_and_format_roundtrip():
    for text in ["0", "5", "-3", "7/3", "-22/7", "1000000000000000000001/9"]:
        q = parse_rational(text)
        assert rat_str(q) == text


def test_parse_rejects_garbage():
    for text in ["", "1/0", "a/b", "1.5", "1/ 2", "--3", "1/-2"]:
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_reads_ascii_digits_only():
    # Arabic-Indic, Devanagari and fullwidth digits are Unicode \\d, and
    # int() reads them
    for text in ["\u0661/\u0663", "\u0663", "-\u0967", "\uff11/\uff12",
                 "1/\u0663", "\u0661/3"]:
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(text)


def test_parse_caps_digits_per_numerator_and_denominator():
    top = "9" * 4300
    for text in (top, "-" + top, "+" + top, f"{top}/{top}", " 1/" + top):
        parse_rational(text)
    for text in ("9" + top, "-9" + top, "1/9" + top, "0" + top):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_rational(text)


def test_format_caps_digits_whatever_the_int_str_limit():
    # with CPython's own limit off, only rat_str's cap refuses
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        top = 10 ** 4300 - 1
        for q in (Q(top), Q(-top), Q(-1, top), Q(top, top - 1)):
            assert parse_rational(rat_str(q)) == q
        for q in (Q(top + 1), Q(-top - 1), Q(1, top + 1), Q(top + 1, top)):
            with pytest.raises(ValueError, match="more than 4300 digits"):
                rat_str(q)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rat_coercions():
    assert rat(3) == Q(3)
    assert rat("3/4") == Q(3, 4)
    assert rat(Q(1, 2)) == Q(1, 2)
    with pytest.raises(TypeError):
        rat(1.5)


def test_floor_ceil():
    assert floor_rat(Q(7, 3)) == 2
    assert ceil_rat(Q(7, 3)) == 3
    assert floor_rat(Q(-7, 3)) == -3
    assert ceil_rat(Q(-7, 3)) == -2
    assert floor_rat(Q(4)) == ceil_rat(Q(4)) == 4


rationals = st.builds(Q, st.integers(-60, 60), st.integers(1, 60))


@given(rationals, rationals)
def test_simplest_between_lands_inside(a, b):
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    q = simplest_between(lo, hi)
    assert lo < q < hi


@given(rationals, rationals)
def test_simplest_between_minimizes_denominator(a, b):
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    q = simplest_between(lo, hi, include_lo=True, include_hi=True)
    assert lo <= q <= hi
    # brute force: no fraction with a smaller denominator fits
    for d in range(1, q.denominator):
        first = ceil_rat(lo * d)
        last = floor_rat(hi * d)
        assert first > last, f"{first}/{d} lies in [{lo}, {hi}]"


def test_simplest_between_endpoint_flags():
    third, half, two_thirds = Q(1, 3), Q(1, 2), Q(2, 3)
    assert simplest_between(third, half, include_lo=True) == third
    assert simplest_between(half, two_thirds, include_hi=True) == two_thirds
    assert simplest_between(third, half) == Q(2, 5)
    with pytest.raises(ValueError):
        simplest_between(half, half)
    assert simplest_between(half, half, True, True) == half


def recursive_simplest_nonneg(lo, inc_lo, hi, inc_hi):
    """The recursive descent over Q that the integer kernel replaced, for
    0 <= lo < hi (hi=None: +inf)."""
    fl = floor_rat(lo)
    if lo == fl and inc_lo:
        first_int = fl
    else:
        first_int = fl + 1
    if hi is None or first_int < hi or (first_int == hi and inc_hi):
        return Q(first_int)
    # interval lies strictly inside (fl, fl + 1); write x = fl + 1/y
    y_lo = 1 / (hi - fl)
    if lo == fl:
        y_hi = None
    else:
        y_hi = 1 / (lo - fl)
    y = recursive_simplest_nonneg(y_lo, inc_hi, y_hi, inc_lo)
    return fl + 1 / y


def recursive_simplest_between(lo, hi, include_lo=False, include_hi=False):
    if lo > hi or (lo == hi and not (include_lo and include_hi)):
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if (lo < 0 or (lo == 0 and include_lo)) and (hi > 0 or (hi == 0 and include_hi)):
        return Q(0)
    if hi < 0 or (hi == 0 and not include_hi):
        return -recursive_simplest_nonneg(-hi, include_hi, -lo, include_lo)
    return recursive_simplest_nonneg(lo, include_lo, hi, include_hi)


def oracle_intervals(rng):
    """Seeded intervals of every shape the descent branches on."""
    for i in range(24000):
        size = 10 ** rng.choice((1, 2, 3, 12))
        a = Q(rng.randint(-size, size), rng.randint(1, size))
        shape = i % 6
        if shape == 0:  # a point, both ends included
            yield a, a, True, True
            continue
        if shape == 1:  # a narrow interval: a long continued fraction
            b = a + Q(1, rng.randint(1, size) * rng.randint(1, size))
        elif shape == 2:  # ends on an integer or at 0
            b = Q(rng.choice((0, rng.randint(-3, 3))))
        elif shape == 3:  # mirrored, so negative intervals match positive ones
            b = -a + Q(rng.randint(0, 2), rng.randint(1, size))
        else:
            b = Q(rng.randint(-size, size), rng.randint(1, size))
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        yield lo, hi, bool(i & 8), bool(i & 16)


def test_simplest_between_matches_recursive_oracle():
    seen = set()
    count = 0
    for lo, hi, inc_lo, inc_hi in oracle_intervals(Random(314)):
        got = simplest_between(lo, hi, inc_lo, inc_hi)
        assert got == recursive_simplest_between(lo, hi, inc_lo, inc_hi), \
            (lo, hi, inc_lo, inc_hi)
        assert type(got) is Q
        count += 1
        seen.add((inc_lo, inc_hi, lo == hi, (lo > 0) - (hi < 0),
                  max(lo.denominator, abs(lo.numerator)) >= 10 ** 11))
    assert count >= 20000
    # every flag pair, on positive, negative and zero-straddling intervals,
    # with 12-digit endpoints among them, and points with both ends included
    for inc_lo in (False, True):
        for inc_hi in (False, True):
            for side in (-1, 0, 1):
                assert (inc_lo, inc_hi, False, side, True) in seen
    assert (True, True, True, 1, True) in seen
    assert (True, True, True, -1, True) in seen


def test_interval_basics():
    iv = Interval(0, 1)
    assert iv.contains(Q(1, 2))
    assert not iv.contains(Q(0)) and not iv.contains(Q(1))
    assert iv.contains_open(Interval(0, 1))
    assert iv.contains_open(Interval(Q(1, 4), Q(3, 4)))
    assert not iv.contains_open(Interval(Q(1, 2), 2))
    assert iv.contains_closed(Q(1, 4), Q(3, 4))
    assert not iv.contains_closed(Q(0), Q(1, 2))
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_interval_infinite_sides():
    left = Interval(None, 0)
    assert left.contains(Q(-100)) and not left.contains(Q(0))
    assert left.finite_window() == Interval(-1, 0)
    assert Interval(None, None).finite_window() == Interval(0, 1)
    assert Interval(3, None).finite_window() == Interval(3, 4)
    assert Interval(None, None).contains_closed(Q(-5), Q(5))


def test_gcd_stays_canonical():
    q = Q(6, 4)
    assert (q.numerator, q.denominator) == (3, 2)
    assert math.gcd(q.numerator, q.denominator) == 1
    assert Q(-6, -4) == Q(3, 2)
    assert Q(6, -4) == Q(-3, 2)
