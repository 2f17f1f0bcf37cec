import random
from fractions import Fraction
from math import factorial

import pytest

from hurwitz.forms import LogForm, RationalForm
from hurwitz.inversion import (
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


def _divisor_aux(alpha, j_max=0, classical=False):
    one = DivisorSeries.constant(1, alpha)
    return (classical_aux_series if classical else aux_series)(one, j_max)


def test_lagrange_extract_examples():
    # [p_1] gamma = 2, computed through the q-side extraction
    aux = _divisor_aux((1,))
    assert lagrange_extract(aux.base, aux) == 2
    # constants have no positive-weight p coefficients
    for d in range(1, 4):
        for alpha in partitions(d):
            aux = _divisor_aux(alpha)
            assert lagrange_extract(DivisorSeries.constant(7, alpha), aux) == 0


@pytest.mark.parametrize("kernel, classical", [(lagrange_extract, False), (classical_extract, True)])
def test_kernels_refuse_a_series_outside_the_grading_of_aux(kernel, classical):
    aux = _divisor_aux((2, 2), classical=classical)
    for alpha in ((2, 1), (2, 2, 1), (4,)):
        with pytest.raises(ValueError, match="cannot combine gradings"):
            kernel(DivisorSeries.constant(1, alpha), aux)


@pytest.mark.parametrize("kernel, classical", [(lagrange_extract, False), (classical_extract, True)])
def test_kernels_refuse_a_weight_graded_series(kernel, classical):
    # the weight grading names no alpha: F is refused, also when aux shares it
    for aux in (_divisor_aux((2, 2), classical=classical),
                (classical_aux_series if classical else aux_series)(MSeries.constant(1, 4))):
        with pytest.raises(TypeError, match="not MSeries"):
            kernel(MSeries.constant(3, 4), aux)


def test_log_form_extractions():
    series = expand_log_form(genus1_closed(), aux_series(MSeries.constant(1, 4)))
    # the eta and gamma linear terms cancel exactly at q_1
    assert series[(1,)] == 0
    for alpha, want in (((1,), 0), ((2,), Fraction(1, 2))):
        aux = _divisor_aux(alpha)
        assert lagrange_extract(expand_log_form(genus1_closed(), aux), aux) == want


def test_log_form_matches_joincut_genus1():
    table = solve_monotone(6, 12)
    form = genus1_closed()
    for d in range(1, 7):
        for alpha in partitions(d):
            assert value_from_form(form, alpha) == table.genus_value(1, alpha)


def test_rational_form_expansion_properties():
    form = paper_form(2)
    series = expand_rational_form(form, aux_series(MSeries.constant(1, 4), 3))
    assert series.constant_term() == 0
    for alpha, want in (((1,), 0), ((2,), 1)):
        aux = _divisor_aux(alpha, 3)
        value = lagrange_extract(expand_rational_form(form, aux), aux)
        assert factorial(sum(alpha)) * value == want


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
    assert expand_rational_form(form, aux) == ref


@pytest.mark.parametrize(
    "one", [MSeries.constant(1, 12), DivisorSeries.constant(1, (4, 3, 2, 2, 1, 1, 1, 1, 1))]
)
def test_rational_form_expansion_makes_one_product_per_prefix(monkeypatch, one):
    auxes = {c: (classical_aux_series if c else aux_series)(one, 6) for c in (False, True)}
    # DivisorSeries multiplies through MSeries.__mul__, so both gradings count
    assert "__mul__" not in vars(DivisorSeries)
    calls = []
    mul = MSeries.__mul__
    monkeypatch.setattr(MSeries, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for genus in (2, 3):
        for classical in (False, True):
            form = paper_form(genus, classical)
            calls.clear()
            expand_rational_form(form, auxes[classical])
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
    # in the divisor grading of each monomial, as value_from_form reads it
    for m in monos:
        assert lagrange_extract(DivisorSeries(m, Fq.coeffs), _divisor_aux(m)) == F[m]


def test_classical_extraction_against_joincut():
    table = solve_classical(4, 12)
    for g in (2, 3):
        form = paper_form(g, classical=True)
        for d in range(1, 5):
            for alpha in partitions(d):
                got = value_from_form(form, alpha)
                assert got == table.genus_value(g, alpha), (g, alpha)


def test_classical_extract_of_constants():
    for alpha, want in (((), 3), ((1,), 0)):
        aux = _divisor_aux(alpha, classical=True)
        assert classical_extract(DivisorSeries.constant(3, alpha), aux) == want


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
