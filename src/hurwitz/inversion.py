"""Changes of variables and Lagrange-inversion coefficient extraction.

Monotone side.  The implicit change of variables is

    q_j = p_j (1 - gamma)^{-2j},     gamma = sum_k C(2k,k) q_k,

with companions eta = sum (2k+1) C(2k,k) q_k and
eta_j = sum (2k+1) k^j C(2k,k) q_k.  The multivariate Lagrange implicit
function theorem turns p-extraction into q-extraction:

    [p_alpha] F = [q_alpha] (1 - eta) F (1 - gamma)^{-(2d+1)},  d = |alpha|.

Classical side.  r_j = p_j e^{j delta} with delta = sum k^k r_k / k!,
phi = sum k^{k+1} r_k / k!, phi_j = sum k^{k+j+1} r_k / k!.  The same
theorem gives

    [p_alpha] F = [r_alpha] e^{d delta} (1 - phi) F.

One coefficient is computed in a quotient ring.  Only monomials that
divide q_alpha as a multiset can contribute to [q_alpha] of a product, and
the monomials that do not divide it span an ideal (every multiple of a
non-divisor is a non-divisor).  Dropping them is therefore the quotient map
onto Q[q] / (monomials not dividing q_alpha), a ring homomorphism that
commutes with +, *, pow, inverse, exp and log.  So `lagrange_extract` and
`classical_extract` project F onto the divisors of alpha
(`series.DivisorSeries`) and build their kernel there, and the
`*_from_*_form` functions expand the form there directly (every expander
takes the unit series `one` of the grading it works in).  Every
coefficient the quotient keeps is the exact coefficient of the full series,
so the extracted values are exact; for alpha = (6, 6) the quotient has 3
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
from .series import DivisorSeries, MSeries


@dataclass(frozen=True)
class AuxSeries:
    """The linear series gamma, eta, eta_j truncated at a common weight."""

    gamma: MSeries
    eta: MSeries
    eta_k: tuple[MSeries, ...]  # eta_k[j-1] is eta_j

    def eta_j(self, j: int) -> MSeries:
        if j < 1 or j > len(self.eta_k):
            raise ValueError(f"eta_{j} not materialized (have 1..{len(self.eta_k)})")
        return self.eta_k[j - 1]


def aux_series(one: MSeries, j_max: int = 0) -> AuxSeries:
    """gamma, eta and eta_1..eta_{j_max} in the grading of the series one
    (``MSeries.constant(1, w)`` for q-series of weight w)."""
    bounds = one.bounds
    gamma = one.linear(central_binomial, *bounds)
    eta = one.linear(lambda k: (2 * k + 1) * central_binomial(k), *bounds)
    etas = tuple(
        one.linear(lambda k, j=j: (2 * k + 1) * k**j * central_binomial(k), *bounds)
        for j in range(1, j_max + 1)
    )
    return AuxSeries(gamma, eta, etas)


def _project(F: MSeries, alpha: Partition) -> DivisorSeries:
    """F in the quotient by the monomials that do not divide q_alpha."""
    if not F._fits(alpha, F.bounds):
        raise ValueError(f"series truncated below q_{tuple(alpha)}")
    return DivisorSeries(alpha, F.coeffs)


def lagrange_extract(F: MSeries, alpha) -> Fraction:
    """[p_alpha] of a q-basis series F, via Lagrange inversion."""
    alpha = Partition(alpha)
    Fa = _project(F, alpha)
    d = alpha.size
    if d == 0:
        return F.constant_term()
    one = DivisorSeries.constant(1, alpha)
    aux = aux_series(one, 0)
    kernel = (one - aux.eta) * (one - aux.gamma).pow(-(2 * d + 1))
    return (kernel * Fa)[alpha]


def classical_extract(F: MSeries, alpha) -> Fraction:
    """[p_alpha] of an r-basis series F, via the classical analogue."""
    alpha = Partition(alpha)
    Fa = _project(F, alpha)
    d = alpha.size
    if d == 0:
        return F.constant_term()
    one = DivisorSeries.constant(1, alpha)
    aux = classical_aux_series(one, 0)
    kernel = aux.delta.scale(d).exp() * (one - aux.phi)
    return (kernel * Fa)[alpha]


@dataclass(frozen=True)
class ClassicalAux:
    """The linear series delta, phi, phi_j truncated at a common weight."""

    delta: MSeries
    phi: MSeries
    phi_k: tuple[MSeries, ...]

    def phi_j(self, j: int) -> MSeries:
        if j < 1 or j > len(self.phi_k):
            raise ValueError(f"phi_{j} not materialized (have 1..{len(self.phi_k)})")
        return self.phi_k[j - 1]


def classical_aux_series(one: MSeries, j_max: int = 0) -> ClassicalAux:
    """delta, phi and phi_1..phi_{j_max} in the grading of the series one."""
    bounds = one.bounds
    delta = one.linear(lambda k: Fraction(k**k, factorial(k)), *bounds)
    phi = one.linear(lambda k: Fraction(k ** (k + 1), factorial(k)), *bounds)
    phis = tuple(
        one.linear(lambda k, j=j: Fraction(k ** (k + j + 1), factorial(k)), *bounds)
        for j in range(1, j_max + 1)
    )
    return ClassicalAux(delta, phi, phis)


def expand_log_form(form: LogForm, one: MSeries) -> MSeries:
    """q-series of a log(1/(1-eta)), log(1/(1-gamma)) combination, in the
    grading of the series one."""
    aux = aux_series(one, 0)
    return aux.eta.log_geometric().scale(form.coeff_eta) + aux.gamma.log_geometric().scale(
        form.coeff_gamma
    )


def expand_rational_form(form: RationalForm, one: MSeries) -> MSeries:
    """Series of a rational form in its own basis (q monotone, r classical),
    in the grading of the series one."""
    j_max = max((max(a) for a in form.terms if a), default=0)
    if form.classical:
        caux = classical_aux_series(one, j_max)
        base, series_j = caux.phi, caux.phi_j
    else:
        maux = aux_series(one, j_max)
        base, series_j = maux.eta, maux.eta_j
    inv = (one - base).inverse()
    inv_pows = [one]

    def inv_pow(k: int) -> MSeries:
        # a loop, not recursion: a self-referencing closure would keep every
        # power alive until the cyclic garbage collector ran
        while len(inv_pows) <= k:
            inv_pows.append(inv_pows[-1] * inv)
        return inv_pows[k]

    total = one.scale(form.constant)
    for alpha, c in form.terms.items():
        term = one.scale(c)
        for j in alpha:
            term = term * series_j(j)
        total = total + term * inv_pow(form.denominator_power(alpha))
    if not form.classical:
        if total.constant_term() != 0:
            raise AssertionError("monotone forms have no constant term")
    return total


def monotone_from_log_form(form: LogForm, alpha) -> Fraction:
    """H_1(alpha) = d! [p_alpha] of the expanded log form."""
    alpha = Partition(alpha)
    series = expand_log_form(form, DivisorSeries.constant(1, alpha))
    return factorial(alpha.size) * lagrange_extract(series, alpha)


def monotone_from_rational_form(form: RationalForm, alpha) -> Fraction:
    """H_g(alpha) = d! [p_alpha] of the expanded rational form."""
    alpha = Partition(alpha)
    series = expand_rational_form(form, DivisorSeries.constant(1, alpha))
    return factorial(alpha.size) * lagrange_extract(series, alpha)


def classical_from_rational_form(form: RationalForm, alpha) -> Fraction:
    """Classical H_g(alpha) = d! r! [p_alpha] of the expanded form."""
    alpha = Partition(alpha)
    r = 2 * form.genus - 2 + alpha.length + alpha.size
    series = expand_rational_form(form, DivisorSeries.constant(1, alpha))
    return factorial(alpha.size) * factorial(r) * classical_extract(series, alpha)

