"""Changes of variables and Lagrange-inversion coefficient extraction.

Each family has one change of variables, given by two linear series: a
base series and a main series with companions main_j, whose q_k
coefficient is k^j times that of main.

Monotone: q_j = p_j (1 - gamma)^{-2j}, with base gamma = sum_k C(2k,k) q_k,
main eta = sum (2k+1) C(2k,k) q_k and eta_j = sum (2k+1) k^j C(2k,k) q_k.
The multivariate Lagrange implicit function theorem turns p-extraction
into q-extraction:

    [p_alpha] F = [q_alpha] (1 - eta) F (1 - gamma)^{-(2d+1)},  d = |alpha|.

Classical: r_j = p_j e^{j delta}, with base delta = sum k^k r_k / k!,
main phi = sum k^{k+1} r_k / k! and phi_j = sum k^{k+j+1} r_k / k!.  The
same theorem gives

    [p_alpha] F = [r_alpha] e^{d delta} (1 - phi) F.

A form records its family, so `value_from_form` reads it from the form: a
`LogForm` is monotone genus 1, and `RationalForm.classical` picks the
classical value d! r! [p_alpha] or the monotone one d! [p_alpha].

One coefficient is computed in a quotient ring.  Only monomials that
divide q_alpha as a multiset can contribute to [q_alpha] of a product, and
the monomials that do not divide it span an ideal (every multiple of a
non-divisor is a non-divisor).  Dropping them is therefore the quotient map
onto Q[q] / (monomials not dividing q_alpha), a ring homomorphism that
commutes with +, *, pow, inverse, exp and log.  So `lagrange_extract` and
`classical_extract` project F onto the divisors of alpha
(`series.DivisorSeries`) and build their kernel there, and
`value_from_form` expands the form there directly (every expander takes
the unit series `one` of the grading it works in).  Every coefficient the
quotient keeps is the exact coefficient of the full series, so the
extracted values are exact; for alpha = (6, 6) the quotient has 3
monomials where weight 12 has 272.  Whole series (`expand_rational_form`,
`expand_log_form`) stay truncated by weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinat import central_binomial
from .forms import LogForm, RationalForm
from .partitions import Partition
from .series import DivisorSeries, MSeries, _canonical, divisors


@dataclass(frozen=True)
class AuxSeries:
    """The linear series of one change of variables, truncated at a common
    grading: base (gamma or delta), main (eta or phi) and main_j (eta_j or
    phi_j)."""

    base: MSeries
    main: MSeries
    main_k: tuple[MSeries, ...]  # main_k[j-1] is main_j

    def main_j(self, j: int) -> MSeries:
        if j < 1 or j > len(self.main_k):
            raise ValueError(f"main_{j} not materialized (have 1..{len(self.main_k)})")
        return self.main_k[j - 1]


def _aux(one: MSeries, j_max: int, base, main) -> AuxSeries:
    """The series with q_k coefficients base(k), main(k) and k^j main(k)
    for j = 1..j_max, in the grading of the series one."""
    mains = tuple(one.linear(lambda k, j=j: k**j * main(k)) for j in range(1, j_max + 1))
    return AuxSeries(one.linear(base), one.linear(main), mains)


def aux_series(one: MSeries, j_max: int = 0) -> AuxSeries:
    """gamma, eta and eta_1..eta_{j_max} in the grading of the series one
    (``MSeries.constant(1, w)`` for q-series of weight w)."""
    return _aux(one, j_max, central_binomial, lambda k: (2 * k + 1) * central_binomial(k))


def classical_aux_series(one: MSeries, j_max: int = 0) -> AuxSeries:
    """delta, phi and phi_1..phi_{j_max} in the grading of the series one."""
    return _aux(
        one,
        j_max,
        lambda k: Fraction(k**k, factorial(k)),
        lambda k: Fraction(k ** (k + 1), factorial(k)),
    )


def _project(F: MSeries, alpha: Partition) -> DivisorSeries:
    """F in the quotient by the monomials that do not divide q_alpha."""
    if not F._fits(alpha, F.bounds):
        raise ValueError(f"series truncated below q_{tuple(alpha)}")
    keep = divisors(alpha)
    out = DivisorSeries(alpha)
    out.nums, out.den = _canonical({k: n for k, n in F.nums.items() if k in keep}, F.den)
    return out


def lagrange_extract(F: MSeries, alpha) -> Fraction:
    """[p_alpha] of a q-basis series F, via Lagrange inversion."""
    alpha = Partition(alpha)
    Fa = _project(F, alpha)
    one = DivisorSeries.constant(1, alpha)
    aux = aux_series(one)
    return ((one - aux.main) * (one - aux.base).pow(-(2 * alpha.size + 1)) * Fa)[alpha]


def classical_extract(F: MSeries, alpha) -> Fraction:
    """[p_alpha] of an r-basis series F, via the classical analogue."""
    alpha = Partition(alpha)
    Fa = _project(F, alpha)
    one = DivisorSeries.constant(1, alpha)
    aux = classical_aux_series(one)
    return (aux.base.scale(alpha.size).exp() * (one - aux.main) * Fa)[alpha]


def expand_log_form(form: LogForm, one: MSeries) -> MSeries:
    """q-series of a log(1/(1-eta)), log(1/(1-gamma)) combination, in the
    grading of the series one."""
    aux = aux_series(one, 0)
    return aux.main.log_geometric().scale(form.coeff_eta) + aux.base.log_geometric().scale(
        form.coeff_gamma
    )


def expand_rational_form(form: RationalForm, one: MSeries) -> MSeries:
    """Series of a rational form in its own basis (q monotone, r classical),
    in the grading of the series one."""
    j_max = max((max(a) for a in form.terms if a), default=0)
    aux = (classical_aux_series if form.classical else aux_series)(one, j_max)
    # by_power[k] = sum of c_alpha main_alpha over the alpha with
    # (1 - main)^(-k); the constant sits at k = 0
    top = max(map(form.denominator_power, form.terms), default=0)
    by_power = [one.scale(form.constant)] + [one.scale(0)] * top
    for alpha, c in form.terms.items():
        term = one.scale(c)
        for j in alpha:
            term = term * aux.main_j(j)
        k = form.denominator_power(alpha)
        by_power[k] = by_power[k] + term
    # sum_k by_power[k] (1 - main)^(-k), by Horner from the top power down
    inv = (one - aux.main).inverse()
    total = by_power[top]
    for k in range(top - 1, -1, -1):
        total = total * inv + by_power[k]
    if not form.classical:
        if total.constant_term() != 0:
            raise AssertionError("monotone forms have no constant term")
    return total


def value_from_form(form: LogForm | RationalForm, alpha) -> Fraction:
    """H_g(alpha) from the form of its genus and family: d! [p_alpha] of
    the expanded form, times r! for a classical one."""
    alpha = Partition(alpha)
    one = DivisorSeries.constant(1, alpha)
    d = alpha.size
    if isinstance(form, LogForm):
        return factorial(d) * lagrange_extract(expand_log_form(form, one), alpha)
    series = expand_rational_form(form, one)
    if form.classical:
        r = 2 * form.genus - 2 + alpha.length + d
        return factorial(d) * factorial(r) * classical_extract(series, alpha)
    return factorial(d) * lagrange_extract(series, alpha)
