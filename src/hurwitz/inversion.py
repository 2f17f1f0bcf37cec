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
commutes with +, *, pow, inverse, exp and log, and every coefficient it
keeps is the exact coefficient of the full series; for alpha = (6, 6) the
quotient has 3 monomials where weight 12 has 272.  The kernels
`lagrange_extract` and `classical_extract` take F in that grading
(`series.DivisorSeries`) and nowhere else, and read alpha and d from it.
`value_from_form` builds the change of variables there once, and the
expanders expand the form in the grading of the `aux` they are given.

`expand_rational_form` makes one product per prefix of the sorted terms
(the trie of their parts): a term multiplies the main_j of its prefix
shared with the term before it by one main_j per further part.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinat import central_binomial
from .forms import LogForm, RationalForm
from .partitions import Frozen, Partition
from .series import DivisorSeries, MSeries


class AuxSeries(Frozen):
    """The linear series of one change of variables, truncated at a common
    grading: base (gamma or delta), main (eta or phi) and main_j (eta_j or
    phi_j)."""

    __slots__ = ("base", "main", "main_k")

    def __init__(self, base: MSeries, main: MSeries, main_k: tuple[MSeries, ...]):
        self._set(base, main, main_k)  # main_k[j-1] is main_j

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


def _unit(F: DivisorSeries) -> DivisorSeries:
    """The unit of F's grading, which must be a divisor grading."""
    if not isinstance(F, DivisorSeries):
        raise TypeError(f"the kernels read a DivisorSeries, not {type(F).__name__}")
    return F.constant(1, *F.bounds)


def lagrange_extract(F: DivisorSeries, aux: AuxSeries) -> Fraction:
    """[p_alpha] of a q-basis series F in the divisor grading of alpha, via
    Lagrange inversion.  ``aux`` is gamma and eta in that grading."""
    one = _unit(F)
    return ((one - aux.main) * (one - aux.base).pow(-(2 * F.max_weight + 1)) * F)[F.alpha]


def classical_extract(F: DivisorSeries, aux: AuxSeries) -> Fraction:
    """[p_alpha] of an r-basis series F in the divisor grading of alpha, via
    the classical analogue.  ``aux`` is delta and phi in that grading."""
    one = _unit(F)
    return (aux.base.scale(F.max_weight).exp() * (one - aux.main) * F)[F.alpha]


def expand_log_form(form: LogForm, aux: AuxSeries) -> MSeries:
    """Series of a log(1/(1-eta)), log(1/(1-gamma)) combination in the
    grading of ``aux``, gamma and eta."""
    main, base = aux.main.log_geometric(), aux.base.log_geometric()
    return main.scale(form.coeff_eta) + base.scale(form.coeff_gamma)


def expand_rational_form(form: RationalForm, aux: AuxSeries) -> MSeries:
    """Series of a rational form in its own basis (q monotone, r classical),
    in the grading of ``aux``, the form's change of variables with main_j
    for every part of its terms."""
    one = aux.main.constant(1, *aux.main.bounds)
    # by_power[k] = sum of c_alpha main_alpha over the alpha with
    # (1 - main)^(-k); the constant sits at k = 0
    top = max(map(form.denominator_power, form.terms), default=0)
    by_power = [one.scale(form.constant)] + [one.scale(0)] * top
    # prefix[i] = product of main_j over the first i + 1 parts of the term
    # before; in sorted order, a term reuses the products of the prefix it
    # shares with that term
    prefix: list[MSeries] = []
    previous: tuple = ()
    for alpha in sorted(form.terms):
        i = 0
        while i < len(prefix) and i < len(alpha) and alpha[i] == previous[i]:
            i += 1
        del prefix[i:]
        for j in alpha[i:]:
            prefix.append(prefix[-1] * aux.main_j(j) if prefix else aux.main_j(j))
        term = prefix[-1] if alpha else one
        k = form.denominator_power(alpha)
        by_power[k] = by_power[k] + term.scale(form.terms[alpha])
        previous = alpha
    # sum_k by_power[k] (1 - main)^(-k), by Horner from the top power down
    inv = (one - aux.main).inverse()
    total = by_power[top]
    for k in range(top - 1, -1, -1):
        total = total * inv + by_power[k]
    if not form.classical and total.constant_term() != 0:
        raise AssertionError("monotone forms have no constant term")
    return total


def value_from_form(form: LogForm | RationalForm, alpha) -> Fraction:
    """H_g(alpha) from the form of its genus and family: d! [p_alpha] of
    the expanded form, times r! for a classical one."""
    alpha = Partition(alpha)
    one = DivisorSeries.constant(1, alpha)
    d = alpha.size
    if isinstance(form, LogForm):
        aux = aux_series(one)
        return factorial(d) * lagrange_extract(expand_log_form(form, aux), aux)
    j_max = max((max(a) for a in form.terms if a), default=0)
    aux = (classical_aux_series if form.classical else aux_series)(one, j_max)
    series = expand_rational_form(form, aux)
    if form.classical:
        r = 2 * form.genus - 2 + alpha.length + d
        return factorial(d) * factorial(r) * classical_extract(series, aux)
    return factorial(d) * lagrange_extract(series, aux)
