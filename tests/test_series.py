import operator
import re
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.partitions import partitions
from hurwitz.qyseries import BiSeries
from hurwitz.series import DivisorSeries, MSeries, _key, divisors, join_table

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
    overshoot them, so that cleaning is exercised."""
    monos = st.lists(st.integers(min_value=1, max_value=4), max_size=3)
    keys = st.tuples(monos, st.integers(0, 3), st.integers(0, 2))
    return st.builds(
        lambda wq, w1, w2, d: BiSeries(wq, w1, w2, {(tuple(m), a, b): c for (m, a, b), c in d}),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(0, 2),
        st.lists(st.tuples(keys, COEFF), max_size=5),
    )


@st.composite
def dense_biseries(draw, bounds=None):
    """BiSeries with bounds up to (5, 4, 4) and several (y1, y2) degrees on
    each q-monomial, all within the y bounds, so that sums of two y-degrees
    often pass w1 or w2 and the product's bound checks bind."""
    wq, w1, w2 = bounds or draw(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)))
    monos = st.lists(st.integers(1, wq), max_size=3)
    ys = st.lists(
        st.tuples(st.integers(0, w1), st.integers(0, w2), st.integers(-9, 9)),
        min_size=2,
        max_size=6,
    )
    groups = draw(st.lists(st.tuples(monos, ys), min_size=1, max_size=4))
    return BiSeries(wq, w1, w2, {(tuple(m), a, b): c for m, terms in groups for a, b, c in terms})


def small_divisor_series():
    """DivisorSeries over the divisors of (3, 2, 2, 1, 1), with keys that
    may not divide alpha, so that cleaning is exercised."""
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


def regrade(s, bounds):
    """s cut down or widened to the grading ``bounds``."""
    return type(s)(*bounds, s.coeffs)


def as_biseries(F, bounds):
    """The q-series F as a BiSeries in the grading ``bounds``, at y-degree 0."""
    return BiSeries(*bounds, {(m, 0, 0): c for m, c in F.coeffs.items()})


def draw(data, n):
    """n series of each kind, all in the grading of the first one drawn."""
    out = []
    for kind in KINDS:
        first = data.draw(kind)
        out.append([first] + [regrade(data.draw(kind), first.bounds) for _ in range(n - 1)])
    return out


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


def test_operands_of_two_gradings_are_refused():
    pairs = (
        (MSeries(5, {(4,): 1}), MSeries(3, {(1,): 1})),
        (BiSeries(5, 1, 4, {((4,), 1, 0): 1}), BiSeries(5, 2, 4, {((1,), 0, 0): 1})),
        (DivisorSeries((3, 2, 1, 1), {(1,): 2}), DivisorSeries((2, 2, 1), {(1,): 1})),
    )
    ops = (operator.add, operator.sub, operator.mul)
    for a, b in pairs:
        for op in ops:
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match=rf"{re.escape(str(x.bounds))} and"):
                    op(x, y)
            for x, y in ((a, 2), (2, a), (a, Fraction(1, 2))):
                with pytest.raises(TypeError):
                    op(x, y)
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(TypeError):
        MSeries(3) + BiSeries(3, 0, 0)


@given(a=small_series(), b=small_series(), alpha=st.sampled_from(
    [tuple(p) for d in range(5) for p in partitions(d)]
))
@settings(max_examples=40, deadline=None)
def test_divisor_projection_is_a_ring_map(a, b, alpha):
    def proj(s):
        return DivisorSeries(alpha, s.coeffs)

    assert proj(a * b) == proj(a) * proj(b)
    assert proj(a + b) == proj(a) + proj(b)
    unit = a - MSeries.constant(a.constant_term() - 2, a.max_weight)
    assert proj(unit.inverse()) == proj(unit).inverse()
    assert proj(unit.pow(-3)) == proj(unit).pow(-3)
    free = b - MSeries.constant(b.constant_term(), b.max_weight)
    assert proj(free.exp()) == proj(free).exp()
    assert proj(free.log_geometric()) == proj(free).log_geometric()


@pytest.mark.parametrize("alpha", [(3, 2, 2, 1, 1), (1,) * 12, (4, 3, 2, 2, 1, 1, 1, 1, 1)])
def test_join_table_against_brute_force(alpha):
    divs = divisors(alpha)
    table = join_table(alpha)
    assert set(table) == divs
    for k1 in divs:
        row = table[k1]
        for k2 in divs:
            # q_k1 q_k2 divides q_alpha when no part occurs more often
            joined = Counter(k1) + Counter(k2)
            if joined <= Counter(alpha):
                assert row[k2] == _key(k1 + k2)
            else:
                assert k2 not in row
    if alpha == (4, 3, 2, 2, 1, 1, 1, 1, 1):  # the EXTRACTION_CAP worst shape
        assert len(divs) == 72


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
    with pytest.raises(ZeroDivisionError):
        MSeries(3, {(1,): 1}).pow(-2)


def test_exp_log_inverse_on_geometric():
    x = MSeries(6, {(1,): 1})
    # exp(log(1/(1-x))) == 1/(1-x)
    assert x.log_geometric().exp() == (MSeries.constant(1, 6) - x).inverse()


# -- reference laws: the integer kernel against plain Fraction dicts ---------
#
# A reference value is (type, bounds, {key: Fraction}) with none of the
# kernel's integer bookkeeping.  Both operands of a sum or product share
# one grading, read only through whether a key fits it; product keys are
# formed here, and pow, inverse, exp and log are sums of powers run until the
# power vanishes.  Every kernel result must equal it and be canonical.


def assert_canonical(s):
    assert s.den > 0
    assert all(isinstance(n, int) and n for n in s.nums.values())
    assert gcd(s.den, *s.nums.values()) == 1  # so den == 1 for zero


def ref(s):
    return type(s), s.bounds, {k: Fraction(n, s.den) for k, n in s.nums.items()}


def clean(d):
    return {k: c for k, c in d.items() if c}


def ref_add(x, y):
    kind, bounds, a = x
    out = dict(a)
    for k, c in y[2].items():
        out[k] = out.get(k, 0) + c
    return kind, bounds, clean(out)


def ref_scale(x, c):
    kind, bounds, a = x
    return kind, bounds, clean({k: c * v for k, v in a.items()})


def product_key(kind, k1, k2):
    if kind is BiSeries:
        return (tuple(sorted(k1[0] + k2[0], reverse=True)), k1[1] + k2[1], k1[2] + k2[2])
    return tuple(sorted(k1 + k2, reverse=True))


def ref_mul(x, y):
    kind, bounds, a = x
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in y[2].items():
            k = product_key(kind, k1, k2)
            if kind._fits(k, bounds):
                out[k] = out.get(k, 0) + c1 * c2
    return kind, bounds, clean(out)


def ref_one(x):
    return x[0], x[1], {x[0]._ONE: Fraction(1)}


def ref_power_sum(x, coeff):
    """sum_m coeff(m) x^m for a constant-free x, nilpotent under truncation."""
    out, power, m = ref_scale(ref_one(x), coeff(0)), ref_one(x), 0
    while True:
        power, m = ref_mul(power, x), m + 1
        if not power[2]:
            return out
        out = ref_add(out, ref_scale(power, coeff(m)))


def ref_inverse(x):
    kind, bounds, a = x
    c0 = a[kind._ONE]
    t = kind, bounds, clean({**{k: v / c0 for k, v in a.items()}, kind._ONE: 0})
    return ref_scale(ref_power_sum(t, lambda m: (-1) ** m), 1 / c0)


def ref_pow(x, n):
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    out = ref_one(x)
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def derivative(s, k):
    """d/dq_k of an MSeries or BiSeries: a key holding q_k m times becomes
    m times the key with one q_k removed."""
    bi = isinstance(s, BiSeries)
    out = {}
    for key, c in s.coeffs.items():
        mono = key[0] if bi else key
        if k in mono:
            i = mono.index(k)
            rest = mono[:i] + mono[i + 1:]
            out[(rest, *key[1:]) if bi else rest] = mono.count(k) * c
    return type(s)(*s.bounds, out)


def ref_derivative(x, k):
    kind, bounds, a = x
    out = {}
    for key, c in a.items():
        mono = key[0] if kind is BiSeries else key
        if k in mono:
            rest = list(mono)
            rest.remove(k)
            new = (tuple(rest), key[1], key[2]) if kind is BiSeries else tuple(rest)
            out[new] = out.get(new, 0) + mono.count(k) * c
    return kind, bounds, clean(out)


def assert_matches(got, want):
    kind, bounds, coeffs = want
    assert_canonical(got)
    assert type(got) is kind and got.bounds == bounds
    assert dict(got.coeffs) == coeffs


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_kernel_against_fraction_reference(data):
    for kind in (*KINDS, dense_biseries()):
        a = data.draw(kind)
        b = regrade(data.draw(kind), a.bounds)
        c = data.draw(COEFF)
        n = data.draw(st.integers(-3, 3))
        k = data.draw(st.integers(1, 4))
        x, y = ref(a), ref(b)
        one = type(a)._ONE
        c0 = data.draw(COEFF.filter(bool))
        unit = type(a)(*a.bounds, {**x[2], one: c0})
        free = type(a)(*a.bounds, {m: v for m, v in x[2].items() if m != one})
        assert_matches(a, x)
        for got, want in (
            (a + b, ref_add(x, y)),
            (a - b, ref_add(x, ref_scale(y, -1))),
            (a.scale(c), ref_scale(x, c)),
            (a * b, ref_mul(x, y)),
            (a.pow(abs(n)), ref_pow(x, abs(n))),
            (unit.inverse(), ref_inverse(ref(unit))),
            (unit.pow(n), ref_pow(ref(unit), n)),
            (derivative(a, k), ref_derivative(x, k)),
            (free.exp(), ref_power_sum(ref(free), lambda m: Fraction(1, factorial(m)))),
            (free.log_geometric(), ref_power_sum(ref(free), lambda m: Fraction(1, m) if m else 0)),
        ):
            assert_matches(got, want)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_grouped_biseries_product_against_fraction_reference(data):
    a = data.draw(dense_biseries())
    b = data.draw(dense_biseries(a.bounds))
    assert_matches(a * b, ref_mul(ref(a), ref(b)))
    assert_matches(b * a, ref_mul(ref(b), ref(a)))


def count_products(monkeypatch) -> list:
    """A list that grows by one entry per series product from here on."""
    calls = []

    def counted(mul):
        def wrapper(a, b):
            calls.append((a, b))
            return mul(a, b)

        return wrapper

    for cls in (MSeries, BiSeries):
        monkeypatch.setattr(cls, "__mul__", counted(cls.__mul__))
    return calls


@pytest.mark.parametrize("alpha", [(3, 2, 2, 1, 1), (1,) * 7, (5, 4, 3)])
def test_negative_power_is_one_power_sum(monkeypatch, alpha):
    # (1 - gamma)^(-(2d+1)) of the lagrange extraction, gamma = sum_k k q_k
    d = sum(alpha)
    one = DivisorSeries.constant(1, alpha)
    base = one - one.linear(lambda k: k)
    want = ref_pow(ref(base), -(2 * d + 1))
    calls = count_products(monkeypatch)
    got = base.pow(-(2 * d + 1))
    assert len(calls) <= len(alpha)
    assert_matches(got, want)


def test_power_makes_at_most_n_products(monkeypatch):
    series = (
        MSeries(6, {(): 2, (1,): 1, (2, 1): Fraction(-3, 2)}),
        MSeries(6, {(1,): 1, (2,): 2}),
        BiSeries(4, 3, 2, {((), 0, 0): -1, ((1,), 1, 0): 2, ((), 0, 1): 3}),
        BiSeries(4, 3, 2, {((2,), 0, 0): 1, ((), 1, 1): -2}),
        DivisorSeries((3, 2, 2, 1), {(): 3, (2, 1): 1, (1,): -1}),
        DivisorSeries((3, 2, 2, 1), {(2,): 1, (1,): 5}),
    )
    for x in series:
        for n in range(8):
            want = ref_pow(ref(x), n)
            calls = count_products(monkeypatch)
            got = x.pow(n)
            monkeypatch.undo()
            assert len(calls) <= n, (x, n)
            assert_matches(got, want)


def test_grouped_biseries_product_of_overshooting_pairs_is_zero():
    # every term pair passes w1 or w2, although every q pair fits
    a = BiSeries(3, 1, 1, {((), 1, 0): 2, ((1,), 0, 1): 3})
    b = BiSeries(3, 1, 1, {((), 1, 1): 5, ((2,), 1, 1): -1})
    zero = BiSeries(3, 1, 1)
    assert a * b == zero and b * a == zero
    assert ref_mul(ref(a), ref(b))[2] == {}


def test_coeffs_view_builds_fractions_on_access():
    s = MSeries(3, {(2, 1): Fraction(2, 3), (1,): Fraction(-1, 2), (): 0})
    assert (s.den, s.nums) == (6, {(2, 1): 4, (1,): -3})
    assert len(s.coeffs) == 2 and (1,) in s.coeffs and () not in s.coeffs
    assert s.coeffs == {(2, 1): Fraction(2, 3), (1,): Fraction(-1, 2)}
    assert (s - s).den == 1 and not (s - s).coeffs
    assert (s.scale(6).den, s.scale(6).nums) == (1, {(2, 1): 4, (1,): -3})
    assert (s.scale(Fraction(3, 2)).den, s.scale(Fraction(3, 2)).nums) == (4, {(2, 1): 4, (1,): -3})


def test_keys_differing_in_part_order_are_summed():
    s = MSeries(3, {(1, 2): Fraction(1, 3), (2, 1): Fraction(1, 6), (1,): 1, (): 0})
    assert_canonical(s)
    assert s.coeffs == {(2, 1): Fraction(1, 2), (1,): 1}
    bi = BiSeries(3, 1, 1, {((1, 2), 1, 0): 2, ((2, 1), 1, 0): -2, ((1,), 0, 1): 1})
    assert bi == BiSeries(3, 1, 1, {((1,), 0, 1): 1})
    assert DivisorSeries((2, 1), {(1, 2): 1, (2, 1): 1}).coeffs == {(2, 1): 2}


def test_linear_series_takes_the_grading_of_its_unit():
    def c(k):
        return Fraction(k * k + 1, k)

    one = DivisorSeries.constant(1, (3, 3, 1))
    s = one.linear(c)
    assert type(s) is DivisorSeries and s.bounds == one.bounds
    assert set(s.coeffs) == {(3,), (1,)}
    assert s.coeffs == {(3,): c(3), (1,): c(1)}
    one = MSeries.constant(1, 5)
    s = one.linear(c)
    assert type(s) is MSeries and s.bounds == one.bounds
    assert s.coeffs == {(k,): c(k) for k in range(1, 6)}
