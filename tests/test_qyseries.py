from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import COEFF, KINDS, as_biseries, assert_matches, clean, dense_biseries, derivative, regrade

from hurwitz.combinat import rising

from hurwitz.inversion import aux_series
from hurwitz.qyseries import (
    BiSeries,
    _binomial_coeffs,
    expand_ring_element,
    lift_literal,
    over_one_minus_eta,
    transfer_literal,
)
from hurwitz.ring import RingElement, apply_T, apply_delta1
from hurwitz.series import MSeries


def y_binomial(numer2, wq, w1, w2, var=1):
    """(1 - 4 y_var)^(numer2 / 2) expanded in the chosen y variable."""
    coeffs = _binomial_coeffs(numer2, w1 if var == 1 else w2)
    keys = (((), m, 0) if var == 1 else ((), 0, m) for m in range(len(coeffs)))
    return BiSeries(wq, w1, w2, dict(zip(keys, coeffs)))


def test_y_binomial_is_the_generalized_binomial_series():
    s = y_binomial(-3, 2, 4, 0)  # (1-4y)^(-3/2)
    assert s.coeffs[((), 0, 0)] == 1
    assert s.coeffs[((), 1, 0)] == 6
    assert s.coeffs[((), 2, 0)] == 30  # (2k+1) C(2k,k) at k = 2


def test_expand_ring_element_basic():
    # V expands to the geometric series of eta
    v = RingElement.monomial(v=1)
    series = expand_ring_element(v, 2, 0)
    one = MSeries.constant(1, 2)
    expect = (one - aux_series(one).main).inverse()
    assert series.coeffs == {(m, 0, 0): c for m, c in expect.coeffs.items()}


def test_lift_matches_algebra_on_a_mixed_element():
    wq, w1 = 3, 5
    elem = RingElement({(2, 0, (1,)): Fraction(2, 3), (1, 1, ()): Fraction(-1, 2)})
    alg = expand_ring_element(apply_delta1(elem), wq, w1)
    lit = lift_literal(expand_ring_element(elem, wq + w1, w1))
    assert lit.bounds == alg.bounds == (wq, w1, 0)
    assert alg == lit


def test_transfer_matches_algebra_on_powers():
    wq, w1 = 3, 5
    for e in (2, 3, 4):
        elem = RingElement.monomial(u2=2 * e)
        alg = expand_ring_element(apply_T(elem), wq, w1)
        lit = transfer_literal(expand_ring_element(elem, wq, w1 + wq))
        assert lit.bounds == alg.bounds == (wq, w1, 0)
        assert alg == lit, e


def test_pi2_projection_against_literal_series():
    # both sides of the i = 2 projection as q-series to weight 5:
    # V * proj( y2^2 (1-4y2)^(-7/2) ) vs the fitted element
    from hurwitz.ring import pi2_project

    wq = 5
    for i in (1, 2, 3):
        bounds = (wq, 0, wq + i)
        y2_pow = BiSeries(*bounds, {((), 0, i): Fraction(1)})
        binom = y_binomial(-3 - 2 * i, *bounds, var=2)
        projected = ref_project((y2_pow * binom).coeffs, (wq, 0, 0))
        literal = BiSeries(wq, 0, 0, projected) * _v((wq, 0, 0))
        algebraic = expand_ring_element(pi2_project(i), wq, 0)
        assert literal.coeffs == algebraic.coeffs, i


# -- the y-operations against plain Fraction dicts (see test_series) ----------


def ref_dy(a, var):
    out = {}
    for (mono, p, q), c in a.items():
        deg = p if var == 1 else q
        if deg:
            key = (mono, p - 1, q) if var == 1 else (mono, p, q - 1)
            out[key] = out.get(key, 0) + deg * c
    return clean(out)


def ref_split(a, bounds):
    out = {}
    for (mono, n, _), c in a.items():  # a y2-free series
        for i in range(1, n):
            key = (mono, i, n - i)
            if BiSeries._fits(key, bounds):
                out[key] = out.get(key, 0) + c
    return clean(out)


def ref_project(a, bounds):
    out = {}
    for (mono, p, q), c in a.items():
        key = (tuple(sorted(mono + (q,) * (q > 0), reverse=True)), p, 0)
        if BiSeries._fits(key, bounds):
            out[key] = out.get(key, 0) + c
    return clean(out)


def product_lift(G):
    """The lift composed from q- and y-derivatives and series products,
    the prefactor 4 y1 (1-4y1)^(-3/2) (1-eta)^(-1) built as one series."""
    bounds = G.bounds

    def term(key, c):
        return BiSeries(*bounds, {key: c})

    one = MSeries.constant(1, G.wq)
    v = as_biseries((one - aux_series(one).main).inverse(), bounds)
    prefactor = term(((), 1, 0), 4) * y_binomial(-3, *bounds) * v
    out, euler = BiSeries(*bounds), BiSeries(*bounds)
    for k in range(1, G.wq + 1):
        d = derivative(G, k)
        out = out + term(((), k, 0), k) * d
        euler = euler + term(((k,), 0, 0), k) * d
    for var, y in ((1, ((), 1, 0)), (2, ((), 0, 1))):
        euler = euler + term(y, 1) * BiSeries(*bounds, ref_dy(G.coeffs, var))
    return out + prefactor * euler


# outside the lift's box (wq - w1, w1, w2) both sides read truncated input;
# wq - w1 >= 1 keeps q-weights 1-4 in the box, where terms collide
LIFT_INPUTS = st.integers(1, 3).flatmap(
    lambda w1: st.tuples(st.integers(w1 + 1, w1 + 4), st.just(w1), st.integers(0, 2))
).flatmap(lambda bounds: dense_biseries(bounds))


@given(G=LIFT_INPUTS)
@settings(max_examples=60, deadline=None)
def test_lift_term_map_against_product_composition(G):
    assert lift_literal(G) == regrade(product_lift(G), (G.wq - G.w1, G.w1, G.w2))


def test_lift_term_map_adds_colliding_terms():
    # d/dq_2 of q_2 q_1 and d/dq_1 of q_1^2 y1 both land on q_1 y1^2
    G = BiSeries(3, 2, 1, {((2, 1), 0, 0): Fraction(1, 3), ((1, 1), 1, 0): 5})
    assert lift_literal(G)[((1,), 2, 0)] == Fraction(32, 3)
    assert lift_literal(G) == regrade(product_lift(G), (1, 2, 1))


# -- each literal operator returns exactly the box its input determines ------

# extra terms: (q monomial, y1 degree, y2 degree, coefficient)
BEYOND = st.lists(
    st.tuples(
        st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 6), st.integers(0, 2), COEFF
    ),
    max_size=6,
)


@given(G=KINDS[1].filter(lambda G: G.wq >= G.w1), extra=BEYOND)
@settings(max_examples=60, deadline=None)
def test_lift_is_exact_on_its_box(G, extra):
    # terms of q-weight > wq, which G truncated away, leave the lift unchanged
    wq, w1, w2 = G.bounds
    beyond = {(tuple(m), min(a, w1), min(b, w2)): c for m, a, b, c in extra if sum(m) > wq}
    wider = BiSeries(wq + 3, w1, w2, {**G.coeffs, **beyond})
    lifted = lift_literal(G)
    assert lifted.bounds == (wq - w1, w1, w2)
    assert regrade(lift_literal(wider), lifted.bounds) == lifted


@st.composite
def y2_free_series(draw):
    """A y2-free BiSeries at (wq, W1, W2) with W1 >= wq and any W2 <= wq + 1."""
    wq = draw(st.integers(1, 3))
    W1, W2 = draw(st.integers(wq, wq + 3)), draw(st.integers(0, wq + 1))
    monos = st.lists(st.integers(1, wq), max_size=3)
    terms = draw(st.lists(st.tuples(monos, st.integers(0, W1), COEFF), max_size=6))
    return BiSeries(wq, W1, W2, {(tuple(m), a, 0): c for m, a, c in terms})


@given(F=y2_free_series(), extra=BEYOND)
@settings(max_examples=60, deadline=None)
def test_transfer_is_exact_on_its_box(F, extra):
    # terms of y1-degree > W1, which F truncated away, leave T(F) unchanged
    wq, W1, W2 = F.bounds
    beyond = {(tuple(m), W1 + 1 + a % 3, 0): c for m, a, _b, c in extra}
    wider = BiSeries(wq, W1 + 3, W2, {**F.coeffs, **beyond})
    transferred = transfer_literal(F)
    assert transferred.bounds == (wq, W1 - wq, 0)
    assert regrade(transfer_literal(wider), transferred.bounds) == transferred


def composed_transfer(F):
    """T(F) composed from series: (1-4y1) F, the split, the y2 weight
    (1-4y2)^(-3/2) and the projection, each on its own, then cut to T's
    box (wq, W1 - wq, 0) and times (1-eta)^(-1) as a series inverse."""
    wq, W1, _ = F.bounds
    inner = (wq, W1, wq)  # the projection reads y2-degrees up to wq only
    one_minus_4y1 = BiSeries(*inner, {((), 0, 0): 1, ((), 1, 0): -4})
    split = BiSeries(*inner, ref_split((one_minus_4y1 * regrade(F, inner)).coeffs, inner))
    weighted = y_binomial(-3, *inner, var=2) * split
    box = (wq, W1 - wq, 0)
    return BiSeries(*box, ref_project(weighted.coeffs, inner)) * _v(box)


@given(F=y2_free_series())
@settings(max_examples=60, deadline=None)
def test_transfer_term_map_against_series_composition(F):
    assert transfer_literal(F) == composed_transfer(F)


@given(F=y2_free_series())
@settings(max_examples=30, deadline=None)
def test_transfer_ignores_the_y2_bound(F):
    wq, W1, _ = F.bounds
    without_y2, wider = regrade(F, (wq, W1, 0)), regrade(F, (wq, W1, wq + 1))
    assert transfer_literal(without_y2) == transfer_literal(wider)


def test_operators_refuse_bounds_they_cannot_be_exact_on():
    with pytest.raises(ValueError, match="wq=2, w1=3"):
        lift_literal(BiSeries(2, 3, 0))
    with pytest.raises(ValueError, match="wq=3, W1=2"):
        transfer_literal(BiSeries(3, 2, 3))
    with pytest.raises(ValueError, match="y2-free"):
        transfer_literal(BiSeries(1, 3, 1, {((), 2, 1): 1}))


def test_y_binomial_against_fraction_formula():
    for numer2 in range(-9, 8):
        for var in (1, 2):
            got = y_binomial(numer2, 1, 7, 7, var=var)
            want = {
                ((), m, 0) if var == 1 else ((), 0, m): 4**m * rising(Fraction(-numer2, 2), m)
                / factorial(m)
                for m in range(8)
            }
            assert_matches(got, (BiSeries, (1, 7, 7), clean(want)))


# -- the solve for (1-eta)^(-1) and the grouped expansion ---------------------


def _v(bounds):
    """(1-eta)^(-1) built as a series inverse, in the grading ``bounds``."""
    one = MSeries.constant(1, bounds[0])
    return as_biseries((one - aux_series(one).main).inverse(), bounds)


@given(F=KINDS[1], power=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_solve_equals_product_with_the_inverse(F, power):
    assert over_one_minus_eta(F, power) == F * _v(F.bounds).pow(power)


def per_term_expansion(E, wq, w1, w2=0):
    """A ring element's series term by term: c V^(v + len hs) prod eta_j
    (1-4y1)^(-u2/2) as one series product per term, V a series inverse."""
    one = MSeries.constant(1, wq)
    j_max = max((max(hs) for (_, _, hs) in E.terms if hs), default=0)
    aux = aux_series(one, j_max=j_max)
    out = BiSeries(wq, w1, w2)
    for (u2, v, hs), c in E.terms.items():
        qpart = (one - aux.main).inverse().pow(v + len(hs))
        for j in hs:
            qpart = qpart * aux.main_j(j)
        term = as_biseries(qpart, (wq, w1, w2)).scale(c)
        if u2:
            term = term * y_binomial(-u2, wq, w1, w2)
        out = out + term
    return out


def test_grouped_expansion_equals_per_term_expansion():
    hs_choices = [(), (1,), (1, 1), (3,)]
    elements = [
        RingElement.monomial(),
        RingElement.monomial(u2=3, v=2, hs=(1, 1), coeff=Fraction(-7, 6)),
        # odd and even u2, v = 0..2 and every H part, several terms per
        # (V, H) group
        RingElement(
            {
                (u2, v, hs): Fraction((-1) ** u2 * (u2 + 2 * v + 1), 1 + len(hs) + v)
                for u2 in range(6)
                for v in range(3)
                for hs in hs_choices
            }
        ),
        # 1 - (1-4y1)^(-1) in one group: the y-polynomial's constant cancels
        RingElement({(0, 1, (3,)): 1, (2, 1, (3,)): -1, (1, 0, ()): Fraction(-3, 2)}),
    ]
    for E in elements:
        for bounds in ((3, 4, 0), (5, 2, 3), (0, 3, 1), (4, 0, 0)):
            assert expand_ring_element(E, *bounds) == per_term_expansion(E, *bounds), bounds
