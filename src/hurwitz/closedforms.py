"""Closed formulas and polynomiality extraction.

Genus 0 and 1 have explicit product formulas in both families:

    monotone genus 0:  d!/|Aut| * rising(2d+1, l-3) * prod C(2a_j, a_j)
    monotone genus 1:  (1/24) d!/|Aut| prod C(2a_j, a_j)
                       * ( rising(2d+1, l) - 3 rising(2d+1, l-1)
                           - sum_{k=2}^{l} (k-2)! rising(2d+1, l-k) e_k(2a+1) )
    classical genus 0: d!/|Aut| * (d+l-2)! d^(l-3) * prod a_j^{a_j}/a_j!
    classical genus 1: (1/24) d!/|Aut| (d+l)! prod a_j^{a_j}/a_j!
                       * ( d^l - d^(l-1) - sum_{k=2}^{l} (k-2)! d^(l-k) e_k(a) )

Single-cycle monotone numbers in any genus g >= 1 come from the
Matsumoto-Novak formula

    (2d)!/d! C(2g-2+2d, 2g-2) (2g(2g-1))^-1 [z^{2g}/(2g)!] (sinh(z/2)/(z/2))^{2d-2},

and the constant of the genus-g rational form from -B_{2g}/(2g(2g-2)).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .combinat import bernoulli, central_binomial, elem_sym_table, rising
from .inversion import value_from_form
from .partitions import Partition, aut_order, partitions
from .polynomials import InconsistentDataError, PolynomialQ, interpolate, monomials_upto


def monotone_genus0(alpha) -> Fraction:
    alpha = Partition(alpha)
    d, ell = alpha.size, alpha.length
    if d < 1:
        raise ValueError("alpha must be nonempty")
    out = Fraction(factorial(d), aut_order(alpha)) * rising(2 * d + 1, ell - 3)
    for a in alpha:
        out *= central_binomial(a)
    return out


def monotone_genus1(alpha) -> Fraction:
    alpha = Partition(alpha)
    d, ell = alpha.size, alpha.length
    if d < 1:
        raise ValueError("alpha must be nonempty")
    bracket = rising(2 * d + 1, ell) - 3 * rising(2 * d + 1, ell - 1)
    e = elem_sym_table([2 * a + 1 for a in alpha])
    for k in range(2, ell + 1):
        bracket -= factorial(k - 2) * rising(2 * d + 1, ell - k) * e[k]
    out = Fraction(factorial(d), 24 * aut_order(alpha)) * bracket
    for a in alpha:
        out *= central_binomial(a)
    return out


def classical_genus0(alpha) -> Fraction:
    alpha = Partition(alpha)
    d, ell = alpha.size, alpha.length
    if d < 1:
        raise ValueError("alpha must be nonempty")
    out = Fraction(factorial(d), aut_order(alpha)) * factorial(d + ell - 2)
    out *= Fraction(d) ** (ell - 3)
    for a in alpha:
        out *= Fraction(a**a, factorial(a))
    return out


def classical_genus1(alpha) -> Fraction:
    alpha = Partition(alpha)
    d, ell = alpha.size, alpha.length
    if d < 1:
        raise ValueError("alpha must be nonempty")
    bracket = Fraction(d) ** ell - Fraction(d) ** (ell - 1)
    e = elem_sym_table(alpha)
    for k in range(2, ell + 1):
        bracket -= factorial(k - 2) * Fraction(d) ** (ell - k) * e[k]
    out = Fraction(factorial(d), 24 * aut_order(alpha)) * factorial(d + ell) * bracket
    for a in alpha:
        out *= Fraction(a**a, factorial(a))
    return out


def _sinh_ratio_even_coeffs(power: int, terms: int) -> list[Fraction]:
    """Even coefficients c_m of (sinh(z/2)/(z/2))^power = sum c_m z^(2m).

    With f = sum f_k x^k, x = z^2, f_0 = 1, the power P = f^N obeys J.C.P.
    Miller's recurrence m P_m = sum_{k=1..m} ((N+1) k - m) f_k P_{m-k}
    (Knuth, TAOCP vol. 2, 4.7): O(terms^2) steps whatever N is.
    """
    f = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(terms)]
    out = [Fraction(1)]
    for m in range(1, terms):
        total = sum(((power + 1) * k - m) * f[k] * out[m - k] for k in range(1, m + 1))
        out.append(total / m)
    return out


def mn_single_cycle(g: int, d: int) -> Fraction:
    """Monotone H_g((d)) for a single cycle, any genus g >= 1."""
    if g < 1 or d < 1:
        raise ValueError("need g >= 1 and d >= 1")
    coeff = _sinh_ratio_even_coeffs(2 * d - 2, g + 1)[g] * factorial(2 * g)
    return (
        Fraction(factorial(2 * d), factorial(d))
        * comb(2 * g - 2 + 2 * d, 2 * g - 2)
        * Fraction(1, 2 * g * (2 * g - 1))
        * coeff
    )


def bernoulli_constant(g: int) -> Fraction:
    """c_{g,()} = -B_{2g} / (2g (2g-2)) for g >= 2."""
    if g < 2:
        raise ValueError("the constant law starts at genus 2")
    return -bernoulli(2 * g) / (2 * g * (2 * g - 2))


# -- polynomiality -------------------------------------------------------


def normalized_value(g: int, alpha) -> Fraction:
    """H_g(alpha) |Aut alpha| / (d! prod C(2 a_j, a_j)): the quantity that
    is polynomial in the parts for fixed (g, len)."""
    alpha = Partition(alpha)
    h = _monotone_value(g, alpha)
    denom = Fraction(factorial(alpha.size))
    for a in alpha:
        denom *= central_binomial(a)
    return h * aut_order(alpha) / denom


def _monotone_value(g: int, alpha) -> Fraction:
    """Cheapest exact source of H_g(alpha) per genus."""
    if g == 0:
        return monotone_genus0(alpha)
    if g == 1:
        return monotone_genus1(alpha)
    from .pipeline import rational_form  # local: avoids an import cycle

    return value_from_form(rational_form(g), alpha)


# polynomiality_extract keeps the last _HOLDOUTS sample partitions out of the fit
_HOLDOUTS = 3


def _sample_partitions(ell: int, count: int):
    """The first count partitions with exactly ell parts, by ascending size."""
    out = []
    size = ell
    while len(out) < count:
        out.extend(a for a in partitions(size) if a.length == ell)
        size += 1
    return out[:count]


def polynomiality_extract(g: int, ell: int) -> PolynomialQ:
    """Interpolate the polynomial behind the normalized monotone numbers.

    The fit is at the degree the theorem states, 3g - 3 + ell, on one sample
    partition per monomial (with every coordinate permutation included,
    since the polynomial is symmetric).  Raises unless the fit has that
    degree and verifies on held-out partitions.
    """
    if (g, ell) in {(0, 1), (0, 2)}:
        raise ValueError(f"no polynomial exists for (g, ell) = {(g, ell)}")
    from itertools import permutations as iperm

    degree = 3 * g - 3 + ell
    samples = _sample_partitions(ell, len(monomials_upto(ell, degree)) + _HOLDOUTS)
    held = samples[-_HOLDOUTS:]
    values = {a: normalized_value(g, a) for a in samples}
    points = [(perm, values[a]) for a in samples[:-_HOLDOUTS] for perm in set(iperm(tuple(a)))]
    poly = interpolate(points, degree)
    if not any(sum(e) == degree for e in poly.coeffs):
        raise InconsistentDataError(f"the fit for (g, ell) = {(g, ell)} is not of degree {degree}")
    if any(poly(tuple(a)) != values[a] for a in held):
        raise InconsistentDataError(f"the fit for (g, ell) = {(g, ell)} fails a held-out partition")
    return poly
