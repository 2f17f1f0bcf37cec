from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.partitions import partitions
from hurwitz.qyseries import BiSeries
from hurwitz.series import DivisorSeries, MSeries, divisors

COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def small_series(max_weight=4):
    monos = st.lists(
        st.integers(min_value=1, max_value=max_weight), min_size=0, max_size=3
    ).map(lambda parts: tuple(sorted(parts, reverse=True)))
    return st.dictionaries(monos, COEFF, max_size=5).map(
        lambda d: MSeries(max_weight, d)
    )


def small_biseries():
    """BiSeries with bounds drawn at or below (4, 3, 2), and keys that may
    overshoot them, so that cleaning and the componentwise minimum of the
    bounds are exercised."""
    monos = st.lists(st.integers(min_value=1, max_value=4), max_size=3)
    keys = st.tuples(monos, st.integers(0, 3), st.integers(0, 2))
    return st.builds(
        lambda wq, w1, w2, d: BiSeries(wq, w1, w2, {(tuple(m), a, b): c for (m, a, b), c in d}),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(0, 2),
        st.lists(st.tuples(keys, COEFF), max_size=5),
    )


def small_divisor_series():
    """DivisorSeries over the divisors of (3, 2, 2, 1, 1), so that operands
    may differ in alpha and the gcd of the bounds is exercised, with keys
    that may not divide alpha."""
    monos = st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )
    return st.builds(
        DivisorSeries,
        st.sampled_from(sorted(divisors((3, 2, 2, 1, 1)))),
        st.dictionaries(monos, COEFF, max_size=6),
    )


# every law is checked on each kind of series in every example
KINDS = (small_series(), small_biseries(), small_divisor_series())


def draw(data, n):
    return [[data.draw(kind) for _ in range(n)] for kind in KINDS]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(data):
    for a, b in draw(data, 2):
        assert a * b == b * a


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_multiplication_associates(data):
    for a, b, c in draw(data, 3):
        assert (a * b) * c == a * (b * c)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_distributivity(data):
    for a, b, c in draw(data, 3):
        assert a * (b + c) == a * b + a * c


def test_truncation_policy_is_min_of_bounds():
    a = MSeries(5, {(4,): 1})
    b = MSeries(3, {(1,): 1})
    assert (a * b).max_weight == 3
    assert (a + b).max_weight == 3
    assert (a * b).is_zero()  # weight 5 > 3 truncated away

    a = BiSeries(5, 1, 4, {((4,), 1, 0): 1, ((1,), 0, 1): 1})
    b = BiSeries(3, 2, 1, {((1,), 0, 0): 1, ((), 1, 1): 1})
    for out in (a * b, b * a, a + b):
        assert (out.wq, out.w1, out.w2) == (3, 1, 1)
    # q-weight 5 > 3, y1-degree 2 > 1 and y2-degree 2 > 1 are truncated away
    assert (a * b).coeffs == {((1, 1), 0, 1): 1}
    assert (a + b).coeffs == {((1,), 0, 1): 1, ((1,), 0, 0): 1, ((), 1, 1): 1}

    a = DivisorSeries((3, 2, 1, 1), {(3, 1): 1, (1,): 2, (): 1})
    b = DivisorSeries((2, 2, 1), {(2,): 1, (1,): 1})
    for out in (a * b, b * a, a + b):
        assert out.alpha == (2, 1)  # the gcd
    # (3, 1) and (1, 1) do not divide (2, 1) and are truncated away
    assert (a * b).coeffs == {(2, 1): 2, (2,): 1, (1,): 1}
    assert (a + b).coeffs == {(1,): 3, (): 1, (2,): 1}


@given(a=small_series(), b=small_series(), alpha=st.sampled_from(
    [tuple(p) for d in range(5) for p in partitions(d)]
))
@settings(max_examples=40, deadline=None)
def test_divisor_projection_is_a_ring_map(a, b, alpha):
    def proj(s):
        return DivisorSeries(alpha, s.coeffs)

    assert proj(a * b) == proj(a) * proj(b)
    assert proj(a + b) == proj(a) + proj(b)
    unit = a - a.constant_term() + 2
    assert proj(unit.inverse()) == proj(unit).inverse()
    assert proj(unit.pow(-3)) == proj(unit).pow(-3)
    free = b - b.constant_term()
    assert proj(free.exp()) == proj(free).exp()
    assert proj(free.log_geometric()) == proj(free).log_geometric()


def test_inverse_and_pow():
    one_minus = MSeries(6, {(): 1, (1,): -1})
    inv = one_minus.inverse()
    # geometric: all coefficients of powers of q_1 equal 1
    assert all(inv[(1,) * k] == 1 for k in range(7))
    assert (one_minus * inv) == MSeries.constant(1, 6)
    assert one_minus.pow(-2) == inv * inv


def test_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        MSeries(3, {(1,): 1}).inverse()


def test_derivative():
    s = MSeries(4, {(2, 1): Fraction(3), (1, 1): Fraction(1)})
    assert s.derivative(1)[(2,)] == 3
    assert s.derivative(1)[(1,)] == 2
    assert s.derivative(2)[(1,)] == 3


def test_exp_log_inverse_on_geometric():
    x = MSeries(6, {(1,): 1})
    # exp(log(1/(1-x))) == 1/(1-x)
    assert x.log_geometric().exp() == (MSeries.constant(1, 6) - x).inverse()


def test_substitute_requires_constant_free_images():
    s = MSeries(3, {(1,): 1})
    with pytest.raises(ValueError):
        s.substitute({1: MSeries.constant(1, 3)})


@given(a=small_series(), b=small_series())
@settings(max_examples=30, deadline=None)
def test_substitution_is_a_ring_map(a, b):
    # images: q_k -> q_k + q_k^2 (constant-free, weight-preserving)
    images = {
        k: MSeries(4, {(k,): 1, (k, k): 1}) for k in range(1, 5)
    }
    lhs = (a * b).substitute(images)
    rhs = a.substitute(images) * b.substitute(images)
    assert lhs == rhs


def test_truncate_cannot_extend():
    s = MSeries(3, {(1,): 1})
    with pytest.raises(ValueError):
        s.truncate(5)
    bi = BiSeries(3, 2, 1, {((1,), 1, 1): 1})
    for wider in ((4, 2, 1), (3, 3, 1), (3, 2, 2)):
        with pytest.raises(ValueError):
            bi.truncate(*wider)
    assert bi.truncate(3, 1, 1) == BiSeries(3, 1, 1, {((1,), 1, 1): 1})
    assert bi.truncate(3, 0, 1).is_zero()
    ds = DivisorSeries((2, 1), {(2, 1): 1, (1,): 1})
    for wider in ((2, 2), (1, 1), (3,)):
        with pytest.raises(ValueError):
            ds.truncate(wider)
    assert ds.truncate((1,)) == DivisorSeries((1,), {(1,): 1})
