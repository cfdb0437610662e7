"""Fuzz of both rational kernels against stdlib Fraction, the oracle:
every operator in both operand orders with Q and int operands of up to
200 digits, zero products and quotients, integer powers, comparisons,
hashes and text."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

BIG = 10 ** 200 - 1
ints = st.one_of(st.integers(-12, 12), st.integers(-BIG, BIG))
nonzero = ints.filter(bool)
# an operand is an int or the (numerator, denominator) of a rational
operands = st.one_of(ints, st.tuples(ints, nonzero))

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge)


def build(kind, x):
    return kind(*x) if type(x) is tuple else x


def parts(q):
    return q.numerator, q.denominator


@settings(max_examples=300, deadline=None)
@given(n=ints, d=nonzero)
def test_construction_text_and_float_match_fraction(kernels, n, d):
    want = Fraction(n, d)
    for Q in kernels:
        q = Q(n, d)
        assert type(q) is Q and parts(q) == parts(want)
        assert parts(Q(n)) == (n, 1) and Q(q) == q
        assert str(q) == str(want) and float(q) == float(want)


@settings(max_examples=300, deadline=None)
@given(a=operands, b=operands)
def test_binary_operators_match_fraction(kernels, a, b):
    for Q in kernels:
        for x, y in ((a, b), (b, a)):
            if type(x) is int and type(y) is int:
                continue
            fx, fy = build(Fraction, x), build(Fraction, y)
            qx, qy = build(Q, x), build(Q, y)
            for op in ARITHMETIC:
                try:
                    want = op(fx, fy)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(qx, qy)
                    continue
                got = op(qx, qy)
                assert type(got) is Q and parts(got) == parts(want), op
            for op in COMPARISONS:
                assert op(qx, qy) is op(fx, fy), op


@settings(max_examples=200, deadline=None)
@given(n=nonzero, d=nonzero, k=ints)
def test_zero_products_and_quotients_are_zero_over_one(kernels, n, d, k):
    for Q in kernels:
        x, zero = Q(n, d), Q(0)
        for r in (zero * x, x * zero, zero * k, k * zero, x * 0, 0 * x,
                  zero / x, 0 / x, zero / n, x - x, x + -x, Q(0, d)):
            assert type(r) is Q and parts(r) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(a=st.tuples(ints, nonzero), e=st.integers(-8, 8))
def test_integer_powers_match_fraction(kernels, a, e):
    try:
        want = Fraction(*a) ** e
    except ZeroDivisionError:
        want = None
    for Q in kernels:
        if want is None:
            with pytest.raises(ZeroDivisionError):
                Q(*a) ** e
        else:
            got = Q(*a) ** e
            assert type(got) is Q and parts(got) == parts(want)
        with pytest.raises(ZeroDivisionError):
            Q(0) ** -1


@settings(max_examples=200, deadline=None)
@given(n=ints, d=nonzero, k=nonzero)
def test_hashes_agree_with_int_and_across_kernels(kernels, n, d, k):
    for Q in kernels:
        assert hash(Q(n)) == hash(n)
        assert hash(Q(n * k, d * k)) == hash(Q(n, d))
        assert Q(n * k, k) == n and hash(Q(n * k, k)) == hash(n)
    pure, compiled = kernels
    assert hash(pure(n, d)) == hash(compiled(n, d))


def test_fraction_operands_are_refused(kernels):
    for Q in kernels:
        q, f = Q(1, 2), Fraction(1, 2)
        for op in ARITHMETIC + COMPARISONS[2:]:
            for x, y in ((q, f), (f, q)):
                with pytest.raises(TypeError):
                    op(x, y)
        assert q != f and f != q
