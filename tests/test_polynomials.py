from fractions import Fraction

import pytest

from hurwitz.combinat import central_binomial
from hurwitz.oracle import count_monotone_transitive
from hurwitz.polynomials import (
    InconsistentDataError,
    PolynomialQ,
    SingularSystemError,
    interpolate,
)


def test_univariate_square():
    poly = interpolate([((1,), 1), ((2,), 4), ((3,), 9)], 2)
    assert poly.coeffs == {(2,): Fraction(1)}
    assert poly((7,)) == 49


def test_constant_data():
    poly = interpolate([((1,), 5), ((2,), 5)], 1)
    assert poly.coeffs == {(0,): Fraction(5)}
    assert poly.degree == 0


def test_underdetermined_raises():
    with pytest.raises(SingularSystemError):
        interpolate([((1,), 1)], 2)


def test_inconsistent_raises():
    with pytest.raises(InconsistentDataError):
        interpolate([((1,), 1), ((2,), 4), ((3,), 9), ((4,), 17)], 2)


def test_genus1_single_part_slope():
    # normalized genus-1 single-cycle numbers sampled from the oracle fit
    # a line whose value at d is (d-1)/12, verified on the held-out d=5
    from math import factorial

    def normalized(d):
        r = d + 1  # genus 1, single part
        count = count_monotone_transitive((d,), r)
        return Fraction(count, factorial(d) * central_binomial(d))

    pts = [((Fraction(d),), normalized(d)) for d in range(1, 5)]
    poly = interpolate(pts, 1)
    assert poly.coeffs == {(0,): Fraction(-1, 12), (1,): Fraction(1, 12)}
    assert poly((5,)) == normalized(5)


def test_polynomial_evaluation_and_str():
    poly = PolynomialQ(2, {(1, 0): Fraction(2), (0, 2): Fraction(1, 3)})
    assert poly((3, 6)) == 6 + 12
    # the dataclass equality compares the cleaned coefficients
    assert poly == PolynomialQ(2, {(1, 0): 2, (0, 2): Fraction(1, 3), (1, 1): 0})
    assert poly != PolynomialQ(3, {(1, 0, 0): 2, (0, 2, 0): Fraction(1, 3)})
