import hashlib
from fractions import Fraction
from math import factorial

import pytest

from test_series import derivative

from hurwitz.combinat import bernoulli, central_binomial
from hurwitz.forms import RationalForm
from hurwitz.inversion import value_from_form
from hurwitz.joincut import solve_monotone
from hurwitz.partitions import Partition, partitions
from hurwitz.pipeline import (
    decompose_basis,
    delta1_element,
    genus1_closed,
    integrate_phi,
    normalized_delta1,
    rational_form,
    recompose_basis,
)
from hurwitz.qyseries import BiSeries, expand_ring_element
from hurwitz.ring import RingElement
from hurwitz.series import MSeries

Y = RingElement.from_u_poly({1: Fraction(1, 4), 0: Fraction(-1, 4)})
H1 = RingElement.monomial(hs=(1,))


def test_genus1_normalized_lift():
    assert normalized_delta1(1) == Y * Y + (Y * H1).scale(Fraction(1, 6))
    assert normalized_delta1(1).in_ring(2)


def test_genus1_decomposition_components():
    decomp = decompose_basis(1, normalized_delta1(1))
    assert decomp[0] == RingElement.zero()
    assert decomp[1] == RingElement(
        {(0, 0, ()): Fraction(-1, 16), (0, 0, (1,)): Fraction(1, 24)}
    )
    assert decomp[2] == RingElement.monomial().scale(Fraction(1, 24))


def test_decompose_recompose_identity():
    for g in range(1, 5):
        elem = normalized_delta1(g)
        decomp = decompose_basis(g, elem)
        assert recompose_basis(decomp) == elem


def test_structural_bounds_through_genus4():
    for g in range(1, 5):
        elem = normalized_delta1(g)
        assert elem.in_ring(3 * g - 1)
        decomp = decompose_basis(g, elem)  # raises if cond1/cond2 fail
        for j, Fj in enumerate(decomp):
            if Fj:
                assert Fj.weighted_degree() <= 3 * g - 1 - j


def test_genus2_rational_form_published_values():
    form = rational_form(2)
    scaled = {tuple(a): 720 * c for a, c in form.terms.items()}
    assert scaled == {
        (): 3,
        (1,): -5,
        (2,): -6,
        (3,): 5,
        (1, 1): -10,
        (2, 1): 29,
        (1, 1, 1): 28,
    }
    assert 720 * form.constant == -3
    # the empty-partition coefficient is the Bernoulli constant
    assert form.terms[Partition()] == -bernoulli(4) / (4 * 2) == Fraction(1, 240)


def test_genus3_constant_pair():
    form = rational_form(3)
    norm = Fraction(factorial(9), 4)
    assert norm * form.terms[Partition()] == -90
    assert norm * form.constant == 90
    assert norm * form.terms[Partition((6,))] == 70
    assert norm * form.terms[Partition((1,) * 6)] == 68600


def test_integrate_phi_rejects_genus_one():
    decomp = decompose_basis(1, normalized_delta1(1))
    with pytest.raises(ValueError):
        integrate_phi(1, decomp)


def test_genus1_closed_form_constants():
    lf = genus1_closed()
    assert (lf.coeff_eta, lf.coeff_gamma) == (Fraction(1, 24), Fraction(-1, 8))


def test_pipeline_extractions_match_joincut():
    table = solve_monotone(6, 16)  # worst case: g=3, alpha=(1^6) needs r=16
    for g in (2, 3):
        form = rational_form(g)
        for d in range(1, 7):
            for alpha in partitions(d):
                assert value_from_form(form, alpha) == table.genus_value(
                    g, alpha
                ), (g, alpha)


def test_genus2_single_values():
    form = rational_form(2)
    assert value_from_form(form, (1,)) == 0
    assert value_from_form(form, (2,)) == 1


def test_single_cycle_law_beyond_acceptance_range():
    # the single-cycle closed formula keeps matching the pipeline at
    # genus 4 and 5 (acceptance only requires genus <= 3)
    from hurwitz.closedforms import mn_single_cycle

    for g in (4, 5):
        form = rational_form(g)
        for d in range(1, 5):
            assert value_from_form(form, (d,)) == mn_single_cycle(g, d)


def test_single_part_polynomial_equals_form_coefficients():
    # expanding the rational form to first order in the q's gives the
    # closed single-part polynomial
    #     P(d) = (2g-2) c_0 (2d+1) + sum_k c_{(k)} (2d+1) d^k,
    # which must agree with the interpolated length-1 polynomial
    from hurwitz.closedforms import polynomiality_extract

    g = 2
    form = rational_form(g)
    poly = polynomiality_extract(g, 1)
    for d in range(1, 9):
        expected = (2 * g - 2) * form.coefficient(()) * (2 * d + 1)
        for k in range(1, 3 * g - 2):
            expected += form.coefficient((k,)) * (2 * d + 1) * d**k
        assert poly((Fraction(d),)) == expected, d


# -- series-level cross-checks against the join-cut tables ------------------
#
# Both checks convert a pipeline object (a closed y-expression) to the
# original (p, x) coordinates and compare with the literal lift
# sum_k k x^k d/dp_k applied to the join-cut genus slices.


def _genus_slice_p(table, g: int, D: int) -> MSeries:
    coeffs = {}
    for d in range(1, D + 1):
        for alpha in partitions(d):
            v = Fraction(table.genus_value(g, alpha), factorial(d))
            if v:
                coeffs[tuple(alpha)] = v
    return MSeries(D, coeffs)


def _gamma_in_p(wp: int) -> MSeries:
    """gamma as a p-series: the fixed point of
    gamma = sum_k C(2k,k) p_k (1-gamma)^(-2k); each round fixes one more
    weight, since gamma has no constant term."""
    one = MSeries.constant(1, wp)
    gamma = MSeries(wp)
    for _ in range(wp):
        square = (one - gamma).inverse().pow(2)
        gamma = MSeries(wp)
        for k in range(1, wp + 1):
            gamma = gamma + MSeries(wp, {(k,): central_binomial(k)}) * square.pow(k)
    return gamma


def _lift_px(G: BiSeries) -> BiSeries:
    """The original-coordinate lift sum_k k x^k d/dp_k (G read in (p, x))."""
    out = BiSeries(*G.bounds)
    for k in range(1, G.wq + 1):
        out = out + BiSeries(*G.bounds, {((), k, 0): k}) * derivative(G, k)
    return out


def _to_px(elem: RingElement, wp: int, wx: int) -> BiSeries:
    """The (q, y)-series of elem read in (p, x): q_k = p_k (1-gamma)^(-2k)
    and y = x (1-gamma)^(-2), one monomial at a time."""
    series = expand_ring_element(elem, wp, wx)
    base = (MSeries.constant(1, wp) - _gamma_in_p(wp)).inverse()
    out = BiSeries(wp, wx, 0)
    for (mono, a, b), c in series.coeffs.items():
        factor = BiSeries.from_mseries(base.pow(2 * (sum(mono) + a)), wp, wx, 0)
        out = out + BiSeries(wp, wx, 0, {(mono, a, b): c}) * factor
    return out


def _region(series: BiSeries, wp: int, wx: int):
    return {
        k: v for k, v in series.coeffs.items() if sum(k[0]) <= wp and k[1] <= wx
    }


def test_double_lift_of_genus0_matches_joincut():
    # q-weight <= 3 comparison of y^2 (1-4y)^(-2) against two literal lifts
    wp_in, wcmp, xcmp = 6, 3, 3
    table = solve_monotone(wp_in, 2 * wp_in - 2)
    G0 = BiSeries.from_mseries(_genus_slice_p(table, 0, wp_in), wp_in, xcmp, 0)
    lifted_twice = _lift_px(_lift_px(G0))
    algebraic = _to_px(RingElement(
        {(4, 0, ()): Fraction(1, 16), (2, 0, ()): Fraction(-1, 8), (0, 0, ()): Fraction(1, 16)}
    ), wcmp, xcmp)
    assert _region(lifted_twice, wcmp, xcmp) == _region(algebraic, wcmp, xcmp)


def test_lift_of_genus1_matches_joincut():
    # weight <= 4 comparison of the genus-1 lift against the literal lift
    wp_in, wcmp, xcmp = 8, 4, 4
    table = solve_monotone(wp_in, 2 * wp_in)
    G1 = BiSeries.from_mseries(_genus_slice_p(table, 1, wp_in), wp_in, xcmp, 0)
    lifted = _lift_px(G1)
    algebraic = _to_px(delta1_element(1), wcmp, xcmp)
    assert _region(lifted, wcmp, xcmp) == _region(algebraic, wcmp, xcmp)


def test_basis_decomp_container():
    decomp = decompose_basis(2, normalized_delta1(2))
    assert isinstance(decomp, tuple)
    assert len(decomp) == 6
    assert isinstance(rational_form(2), RationalForm)


def test_decompose_checks_the_gamma_cancellation_identity():
    comps = list(decompose_basis(3, normalized_delta1(3)))
    comps[3] = comps[3] + H1
    with pytest.raises(AssertionError, match="gamma-cancellation identity failed"):
        decompose_basis(3, recompose_basis(tuple(comps)))


def test_decompose_widens_the_running_denominator():
    # U^2 - U = (2/3) * basis 2, whose U^2 coefficient is 3/2: the leading
    # numerator 3 does not divide the top row's 1, so the rows below are
    # put over a denominator 3 times wider before basis 2 is subtracted
    E = RingElement({(4, 0, ()): 1, (2, 0, ()): -1})
    decomp = decompose_basis(1, E)
    assert decomp[:2] == (RingElement.zero(), RingElement.zero())
    assert decomp[2] == RingElement.monomial().scale(Fraction(2, 3))
    assert recompose_basis(decomp) == E


def test_decompose_rejects_dishonest_elements():
    with pytest.raises(ValueError):
        decompose_basis(1, RingElement.monomial(u2=1))  # half power
    with pytest.raises(ValueError):
        decompose_basis(1, RingElement.monomial(u2=8))  # degree 4 > 2


def _fingerprint(terms) -> str:
    items = sorted((tuple(k), str(c)) for k, c in terms.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()


# SHA-256 of the sorted (key, str(coefficient)) lists of E_g and of the
# genus-g rational form, computed with the Fraction-coefficient ring that
# preceded the integer-numerator one; any changed coefficient changes them.
FINGERPRINTS = {
    2: ("366609dd03747bd5d19b0aca3366fba72b625f910f1d97cf50a9ce2b59336b6e",
        "98a4064c69ed9ee425d7cbf2ac1993a4056d4fae177dae28b6ce49dec50d0a0c"),
    3: ("acea4d6a9ffb3f54b882975c8926ee82d5495884b970626b8f28bd1180447ceb",
        "e71bcdeae50a85d84af5a990ee413e156e154b5a2cc4dd0e66f2a4faef3efde7"),
    4: ("8de205ad93fe4dffeb3acbd52a7b66d5bc137762e5ba54cd2000a994e043fa75",
        "f99785676a6453c64a9d79c4be3989186624b276a5db9a6903f7795ef7f96156"),
    5: ("54ce2b5656e1374ce02a808f29fdabf0da71ce4ad9bcb1210128f987f8aed552",
        "b509a7a364e8d28888713dbd4cd0bd82e7d7528ea4ea03ba0d27c51555c003d6"),
    6: ("eb8c1ecd1dd4adbc52a303ddf1d611dcef2f75e0e8088629e400155435e70a12",
        "080824a19819ca3de59d4cad5a0011d8ad21017479a102c6a3db3b5e1a09cfd7"),
}


@pytest.mark.parametrize("g", sorted(FINGERPRINTS))
def test_recursion_fingerprints_are_frozen(g):
    assert (_fingerprint(normalized_delta1(g).terms), _fingerprint(rational_form(g).terms)) == FINGERPRINTS[g]


def test_fingerprint_sees_one_changed_coefficient():
    terms = dict(rational_form(2).terms)
    alpha = next(iter(terms))
    terms[alpha] += Fraction(1, 10**9)
    assert _fingerprint(terms) != FINGERPRINTS[2][1]


def test_genus7_lift_size():
    # E_7 term count, the baseline measured before the integer ring core
    assert len(normalized_delta1(7).terms) == 10347
