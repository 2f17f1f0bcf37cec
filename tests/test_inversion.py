import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from hurwitz.forms import LogForm, RationalForm
from hurwitz.inversion import (
    _project,
    aux_series,
    classical_aux_series,
    classical_extract,
    expand_log_form,
    expand_rational_form,
    lagrange_extract,
    value_from_form,
)
from hurwitz.joincut import solve_classical, solve_monotone
from hurwitz.partitions import Partition, partitions
from hurwitz.pipeline import genus1_closed, rational_form
from hurwitz.series import DivisorSeries, MSeries
from hurwitz.tables import paper_form


def test_aux_series_coefficients():
    aux = aux_series(MSeries.constant(1, 4), 3)
    assert aux.base[(1,)] == 2           # gamma
    assert aux.main[(2,)] == 30          # eta
    assert aux.main_j(3)[(1,)] == 6      # eta_3
    with pytest.raises(ValueError):
        aux.main_j(4)


def test_classical_aux_series_coefficients():
    aux = classical_aux_series(MSeries.constant(1, 3), 2)
    assert aux.base[(2,)] == 2           # delta: 2^2/2!
    assert aux.main[(3,)] == Fraction(27, 2)  # phi: 3^4/3!
    assert aux.main_j(1)[(1,)] == 1      # phi_1


def test_lagrange_extract_examples():
    aux = aux_series(MSeries.constant(1, 3))
    # [p_1] gamma = 2, computed through the q-side extraction
    assert lagrange_extract(aux.base, (1,)) == 2
    # constants have no positive-weight p coefficients
    const = MSeries.constant(7, 3)
    for d in range(1, 4):
        for alpha in partitions(d):
            assert lagrange_extract(const, alpha) == 0
    # coefficients the series does not carry are refused, not read as 0
    for short, alpha in ((const, (2, 2)), (DivisorSeries((2, 1)), (2, 2))):
        with pytest.raises(ValueError):
            lagrange_extract(short, alpha)


def test_log_form_extractions():
    series = expand_log_form(genus1_closed(), MSeries.constant(1, 4))
    # the eta and gamma linear terms cancel exactly at q_1
    assert series[(1,)] == 0
    assert lagrange_extract(series, (1,)) == 0
    assert lagrange_extract(series, (2,)) == Fraction(1, 2)


def test_log_form_matches_joincut_genus1():
    table = solve_monotone(6, 12)
    form = genus1_closed()
    for d in range(1, 7):
        for alpha in partitions(d):
            assert value_from_form(form, alpha) == table.genus_value(1, alpha)


def test_rational_form_expansion_properties():
    form = paper_form(2)
    series = expand_rational_form(form, MSeries.constant(1, 4))
    assert series.constant_term() == 0
    assert factorial(1) * lagrange_extract(series, (1,)) == 0
    assert factorial(2) * lagrange_extract(series, (2,)) == 1


@pytest.mark.parametrize("genus, classical", [(2, False), (3, False), (2, True), (3, True), (4, False)])
def test_rational_form_expansion_equals_per_term_reference(genus, classical):
    # every coefficient of weight <= 8 against sum c_alpha main_alpha (1-main)^(-k),
    # for the four checked-in tables and the pipeline's genus-4 form
    form = rational_form(genus) if genus > 3 else paper_form(genus, classical)
    one = MSeries.constant(1, 8)
    aux = (classical_aux_series if form.classical else aux_series)(one, 3 * form.genus - 3)
    ref = one.scale(form.constant)
    for alpha, c in form.terms.items():
        term = one.scale(c)
        for j in alpha:
            term = term * aux.main_j(j)
        ref = ref + term * (one - aux.main).pow(-form.denominator_power(alpha))
    assert expand_rational_form(form, one) == ref


@pytest.mark.parametrize(
    "one", [MSeries.constant(1, 12), DivisorSeries.constant(1, (4, 3, 2, 2, 1, 1, 1, 1, 1))]
)
def test_rational_form_expansion_makes_one_product_per_prefix(monkeypatch, one):
    # DivisorSeries multiplies through MSeries.__mul__, so both gradings count
    assert "__mul__" not in vars(DivisorSeries)
    calls = []
    mul = MSeries.__mul__
    monkeypatch.setattr(MSeries, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for genus in (2, 3):
        for classical in (False, True):
            form = paper_form(genus, classical)
            calls.clear()
            expand_rational_form(form, one)
            # one product per prefix of two or more parts of a term (a single
            # part is main_j itself), one per Horner step over the powers of
            # (1 - main)^(-1), and one per power of main in its inverse
            prefixes = {a[:i] for a in form.terms for i in range(2, len(a) + 1)}
            top = max(map(form.denominator_power, form.terms))
            assert len(calls) == len(prefixes) + top + one._depth(one.bounds), (genus, classical)


def test_round_trip_through_the_change_of_variables():
    rng = random.Random(7)
    monos = [tuple(a) for d in range(6) for a in partitions(d)]
    F = MSeries(
        5,
        {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in monos},
    )
    # F in the q basis: p_j = q_j (1-gamma)^(2j), one monomial at a time
    one_minus = MSeries.constant(1, 5) - aux_series(MSeries.constant(1, 5)).base
    Fq = MSeries(5)
    for m, c in F.coeffs.items():
        Fq = Fq + MSeries(5, {m: c}) * one_minus.pow(2 * sum(m))
    for m in monos:
        assert lagrange_extract(Fq, Partition(m)) == F[m]


def test_classical_extraction_against_joincut():
    table = solve_classical(4, 12)
    for g in (2, 3):
        form = paper_form(g, classical=True)
        for d in range(1, 5):
            for alpha in partitions(d):
                got = value_from_form(form, alpha)
                assert got == table.genus_value(g, alpha), (g, alpha)


def test_project_filters_the_numerators_like_the_fraction_path():
    # the reference rebuilds every coefficient as a Fraction
    rng = random.Random(11)
    for w in range(7):
        monos = [tuple(a) for d in range(w + 1) for a in partitions(d)]
        F = MSeries(w, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in monos})
        for alpha in (a for d in range(w + 1) for a in partitions(d)):
            got = _project(F, alpha)
            assert got == DivisorSeries(alpha, F.coeffs)
            assert got.den > 0 and gcd(got.den, *got.nums.values()) == 1


def test_classical_extract_of_constants():
    assert classical_extract(MSeries.constant(3, 2), ()) == 3
    assert classical_extract(MSeries.constant(3, 2), (1,)) == 0


def test_rational_form_validation():
    with pytest.raises(ValueError):
        RationalForm(genus=1, terms={})
    with pytest.raises(ValueError):
        RationalForm(genus=2, terms={Partition((4,)): Fraction(1)})
    # zero terms are dropped and keys and values normalised, by keyword too
    form = RationalForm(genus=2, terms={(1, 2): 3, (3,): 0}, classical=True)
    assert form.terms == {Partition((2, 1)): Fraction(3)} and form.classical
    assert RationalForm(3).terms == {} and not RationalForm(3).classical


def test_forms_are_immutable_values_equal_by_fields():
    log = LogForm(Fraction(1, 24), Fraction(-1, 8))
    form = RationalForm(genus=2, terms={(1,): 3})
    assert log == LogForm(coeff_eta=Fraction(1, 24), coeff_gamma=Fraction(-1, 8))
    assert hash(log) == hash(LogForm(Fraction(1, 24), Fraction(-1, 8)))
    assert log != LogForm(Fraction(1, 24), Fraction(1, 8))
    assert log != (Fraction(1, 24), Fraction(-1, 8)) and log != form
    assert form == RationalForm(2, {Partition((1,)): Fraction(3)}, False)
    assert form != RationalForm(2, {(1,): 3}, classical=True) and form != {(1,): 3}
    with pytest.raises(TypeError):
        hash(form)
    for obj, name in ((log, "coeff_eta"), (form, "terms"), (form, "genus")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(log) == "LogForm(coeff_eta=Fraction(1, 24), coeff_gamma=Fraction(-1, 8))"


def test_log_form_fields():
    form = LogForm(Fraction(1, 24), Fraction(-1, 8))
    assert form.coeff_eta == Fraction(1, 24)
    assert form.coeff_gamma == Fraction(-1, 8)
