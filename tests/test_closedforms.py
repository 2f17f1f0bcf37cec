from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz.closedforms import (
    _sinh_ratio_even_coeffs,
    bernoulli_constant,
    classical_genus0,
    classical_genus1,
    mn_single_cycle,
    monotone_genus0,
    monotone_genus1,
)
from hurwitz.combinat import central_binomial, elem_sym_table, rising
from hurwitz.oracle import count_classical_transitive, count_monotone_transitive
from hurwitz.partitions import Partition, aut_order, partitions
from hurwitz.polynomials import PolynomialQ
from hurwitz.verify import normalized_value, polynomiality_extract


def test_monotone_genus0_examples():
    assert monotone_genus0((1,)) == 1
    assert monotone_genus0((3,)) == 4
    assert monotone_genus0((2, 2)) == 54


def test_monotone_genus1_examples():
    assert monotone_genus1((1,)) == 0
    assert monotone_genus1((2,)) == 1
    assert monotone_genus1((1, 1)) == 1


def test_classical_examples():
    assert classical_genus0((3,)) == 6
    assert classical_genus0((2, 2)) == 288
    assert classical_genus1((3,)) == 54


def _elem_sym(values, k):
    """e_k of the values in Fractions, by the triangular recurrence."""
    e = [Fraction(1)] + [Fraction(0)] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


def _genus1_per_k(alpha, monotone):
    """The genus-1 formulas as they were written first: one Fraction e_k
    table rebuilt for every k."""
    alpha = Partition(alpha)
    d, ell = alpha.size, alpha.length
    if monotone:
        vals = [2 * a + 1 for a in alpha]
        bracket = rising(2 * d + 1, ell) - 3 * rising(2 * d + 1, ell - 1)
    else:
        vals = list(alpha)
        bracket = Fraction(d) ** ell - Fraction(d) ** (ell - 1)
    for k in range(2, ell + 1):
        weight = rising(2 * d + 1, ell - k) if monotone else Fraction(d) ** (ell - k)
        bracket -= factorial(k - 2) * weight * _elem_sym(vals, k)
    out = Fraction(factorial(d), 24 * aut_order(alpha)) * bracket
    if not monotone:
        out *= factorial(d + ell)
    for a in alpha:
        out *= central_binomial(a) if monotone else Fraction(a**a, factorial(a))
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=24))
@example([1] * 12)
@example([2] * 13)
@example([3, 2, 2] + [1] * 10)
@example([1] * 30)
def test_genus1_formulas_equal_the_per_k_tables(parts):
    assert elem_sym_table(parts) == [_elem_sym(parts, k) for k in range(len(parts) + 1)]
    assert monotone_genus1(parts) == _genus1_per_k(parts, True)
    assert classical_genus1(parts) == _genus1_per_k(parts, False)


def test_formulas_match_oracle():
    for d in range(1, 6):
        for alpha in partitions(d):
            ell = len(alpha)
            r0, r1 = d + ell - 2, d + ell
            if r0 >= 0:
                assert monotone_genus0(alpha) == count_monotone_transitive(alpha, r0)
                assert classical_genus0(alpha) == count_classical_transitive(alpha, r0)
            assert monotone_genus1(alpha) == count_monotone_transitive(alpha, r1)
            assert classical_genus1(alpha) == count_classical_transitive(alpha, r1)


def test_mn_single_cycle_examples():
    assert mn_single_cycle(1, 2) == 1
    assert mn_single_cycle(2, 2) == 1
    assert mn_single_cycle(1, 1) == 0
    assert mn_single_cycle(4, 1) == 0


def successive_product_coeffs(power, terms):
    """(sinh(z/2)/(z/2))^power by `power` successive series products."""
    base = [Fraction(1, 4**m * factorial(2 * m + 1)) for m in range(terms)]
    out = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    for _ in range(power):
        nxt = [Fraction(0)] * terms
        for i, a in enumerate(out):
            for j in range(terms - i):
                nxt[i + j] += a * base[j]
        out = nxt
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(1, 12))
@example(0, 1)
@example(120, 6)
def test_sinh_power_recurrence_matches_successive_products(power, terms):
    assert _sinh_ratio_even_coeffs(power, terms) == successive_product_coeffs(power, terms)


def test_mn_single_cycle_against_oracle():
    for g in range(1, 4):
        for d in range(1, 6):
            r = 2 * g - 2 + 1 + d
            assert mn_single_cycle(g, d) == count_monotone_transitive((d,), r), (g, d)


def test_bernoulli_constant_values():
    assert bernoulli_constant(2) == Fraction(1, 240)
    assert bernoulli_constant(3) == Fraction(-1, 1008)
    assert bernoulli_constant(4) == Fraction(1, 1440)
    with pytest.raises(ValueError):
        bernoulli_constant(1)


def test_scaling_examples():
    # c_{g,alpha} = 2^(3g-3) a_{g,alpha} on every alpha of size 3g-3
    from hurwitz.pipeline import rational_form
    from hurwitz.tables import paper_form

    for g in (2, 3):
        top = 3 * g - 3
        mono = {a: c for a, c in rational_form(g).terms.items() if a.size == top}
        clas = paper_form(g, classical=True).terms
        assert mono and mono == {a: 2**top * c for a, c in clas.items() if a.size == top}


def test_scaling_single_coefficients():
    from hurwitz.pipeline import rational_form
    from hurwitz.tables import paper_form

    mono = rational_form(2)
    clas = paper_form(2, classical=True)
    assert mono.coefficient((3,)) == Fraction(5, 720)
    assert clas.coefficient((3,)) == Fraction(5, 8 * 720)
    assert mono.coefficient((3,)) == 8 * clas.coefficient((3,))
    assert mono.coefficient((1, 1, 1)) == 8 * clas.coefficient((1, 1, 1))


def test_polynomiality_small_cases():
    p03 = polynomiality_extract(0, 3)
    assert p03.coeffs == {(0, 0, 0): Fraction(1)}  # identically one

    p11 = polynomiality_extract(1, 1)
    assert p11.coeffs == {(0,): Fraction(-1, 12), (1,): Fraction(1, 12)}

    p21 = polynomiality_extract(2, 1)
    assert isinstance(p21, PolynomialQ)
    assert p21((Fraction(2),)) == Fraction(1, 12)  # H_2((2)) normalized


def test_normalized_value_definition():
    # H_2((2)) = 1: 1 * |Aut| / (d! C(4,2)) = 1/12
    assert normalized_value(2, (2,)) == Fraction(1, 12)


def test_polynomiality_rejects_excluded_pairs():
    with pytest.raises(ValueError):
        polynomiality_extract(0, 1)
    with pytest.raises(ValueError):
        polynomiality_extract(0, 2)
