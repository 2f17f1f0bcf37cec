from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitz.combinat import (
    bernoulli,
    central_binomial,
    elem_sym_table,
    rising,
)
from hurwitz.partitions import partitions


def test_rising_examples():
    assert rising(5, 2) == 30
    assert rising(3, -2) == Fraction(1, 2)
    assert rising(7, 0) == 1


def test_rising_zero_factor_is_an_error():
    with pytest.raises(ZeroDivisionError):
        rising(2, -3)  # factors (-1)(0)(1)


@given(
    a=st.integers(min_value=-6, max_value=12),
    k=st.integers(min_value=-4, max_value=6),
    m=st.integers(min_value=-4, max_value=6),
)
def test_rising_is_a_cocycle(a, k, m):
    # rising(a, k) * rising(a+k, m) == rising(a, k+m) wherever defined
    try:
        lhs = rising(a, k) * rising(a + k, m)
        rhs = rising(a, k + m)
    except ZeroDivisionError:
        return
    assert lhs == rhs


@given(a=st.integers(min_value=5, max_value=30), k=st.integers(min_value=1, max_value=4))
def test_rising_negative_is_the_exact_reciprocal(a, k):
    assert rising(a, -k) * rising(a - k, k) == 1


def test_central_binomial_examples():
    assert central_binomial(0) == 1
    assert central_binomial(1) == 2
    assert central_binomial(4) == 70


def test_elem_sym_generating_polynomial():
    # sum_k e_k(2a+1) x^k == prod (1 + (2a_i+1) x) as exact polynomials
    for d in range(1, 9):
        for alpha in partitions(d):
            vals = [2 * a + 1 for a in alpha]
            # expand the product
            poly = [Fraction(1)]
            for v in vals:
                poly = [
                    (poly[i] if i < len(poly) else 0)
                    + (v * poly[i - 1] if i > 0 else 0)
                    for i in range(len(poly) + 1)
                ]
            assert elem_sym_table(vals) == poly


def test_bernoulli_examples():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(0)


def test_bernoulli_binomial_recurrence():
    # sum_{j=0}^{n} C(n+1, j) B_j == 0 for n >= 1, with B_0 = 1, B_1 = -1/2
    from math import comb

    B = {0: Fraction(1), 1: Fraction(-1, 2)}
    for n in range(2, 17):
        B[n] = bernoulli(n) if n % 2 == 0 else Fraction(0)
    for n in range(1, 16):
        assert sum(comb(n + 1, j) * B[j] for j in range(n + 1)) == 0
