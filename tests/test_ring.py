import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import pipeline, ring
from hurwitz.combinat import central_binomial, rising
from hurwitz.ring import (
    RingElement,
    _t_row,
    apply_T,
    apply_delta1,
    delta1_sq_H0,
    eta_y_upoly,
    invert_one_minus_T,
    pi2_project,
)

Y = RingElement.from_u_poly({1: Fraction(1, 4), 0: Fraction(-1, 4)})
H1 = RingElement.monomial(hs=(1,))


def test_ring_element_arithmetic():
    a = RingElement.monomial(u2=2, coeff=2)
    b = RingElement.monomial(v=1, hs=(1,))
    assert (a + b) - b == a
    assert a * b == RingElement.monomial(u2=2, v=1, hs=(1,), coeff=2)
    assert (a * b).weighted_degree() == 2  # U has weight 1, H_1 weight 1
    assert not RingElement.zero()


def test_honesty_and_degree():
    assert RingElement.monomial(u2=4, hs=(2,)).in_ring(4)
    assert not RingElement.monomial(u2=4, hs=(2,)).in_ring(3)
    assert not RingElement.monomial(u2=3).is_honest()  # half power
    assert not RingElement.monomial(v=1).is_honest()


def test_shifts_guard_negative_exponents():
    a = RingElement.monomial(u2=1, v=1)
    assert a.shift_u2(-1) == RingElement.monomial(v=1)
    with pytest.raises(ValueError):
        a.shift_u2(-2)
    with pytest.raises(ValueError):
        a.shift_v(-2)


def test_eta_y_upolys():
    # eta_1(y) = (3/2)(U^2 - U) times U^(1/2); degrees grow by one
    assert dict(eta_y_upoly(0)) == {1: Fraction(1)}
    assert dict(eta_y_upoly(1)) == {2: Fraction(3, 2), 1: Fraction(-3, 2)}
    for j in range(5):
        assert max(dict(eta_y_upoly(j))) == j + 1


def test_pi2_projection_examples():
    assert pi2_project(0) == RingElement({(0, 1, ()): 1, (0, 0, ()): -1})  # V - 1
    assert pi2_project(1) == RingElement.monomial(hs=(1,), coeff=Fraction(1, 6))
    # i = 2: p(k) = k(k-1)/60
    assert pi2_project(2) == RingElement(
        {(0, 0, (2,)): Fraction(1, 60), (0, 0, (1,)): Fraction(-1, 60)}
    )


def test_transfer_operator_examples():
    assert not apply_T(RingElement.monomial())
    assert not apply_T(Y)
    assert apply_T(Y * Y) == Y * H1.scale(Fraction(1, 6))
    with pytest.raises(ValueError):
        apply_T(RingElement.monomial(u2=1))


def test_invert_one_minus_T():
    assert invert_one_minus_T(RingElement.monomial()) == RingElement.monomial()
    y2 = Y * Y
    inv = invert_one_minus_T(y2)
    assert inv == y2 + Y * H1.scale(Fraction(1, 6))
    # weighted degree is preserved
    y3 = y2 * Y
    assert invert_one_minus_T(y3).weighted_degree() == y3.weighted_degree()


def test_invert_random_elements_roundtrip():
    # (1-T) o invert is the identity on elements of weighted degree <= 8
    rng = random.Random(3)
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            u2 = 2 * rng.randint(0, 6)
            hs = tuple(sorted(rng.choice([(), (1,), (2,), (1, 1), (2, 2)])))
            if u2 // 2 + sum(hs) > 8:
                continue
            terms[(u2, 0, hs)] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        elem = RingElement(terms)
        inv = invert_one_minus_T(elem)
        assert inv - apply_T(inv) == elem


def test_inversion_applies_T_once_per_level_and_once_to_check(monkeypatch):
    # the right sides the genus recursion inverts, recorded cold for g = 1..5
    rhs = []
    monkeypatch.setattr(
        pipeline, "invert_one_minus_T", lambda F: rhs.append(F) or invert_one_minus_T(F)
    )
    pipeline.normalized_delta1.cache_clear()
    for g in range(1, 6):
        pipeline.normalized_delta1(g)
    # every input term of T through the shared term map, with the U exponent
    # of its row, split into the pass and the check (the call inside apply_T);
    # T feeds the map one term at a time, against the cached row T(U^e)
    top = max(F.u_degree2() for F in rhs) // 2
    row_exponent = {id(_t_row(e).groups): e for e in range(top + 1)}
    pass_in, check_in, checks = [], [], []
    add_times = ring._add_times

    def counted_add_times(groups, col, v, hs, factor):
        assert len(col) == 1 and id(factor) in row_exponent
        if checks:
            check_in.append((v, hs))
        else:
            pass_in.append((2 * row_exponent[id(factor)], v, hs))
        add_times(groups, col, v, hs, factor)

    def counted_apply_T(F):
        checks.append(len(F.terms))
        return apply_T(F)

    monkeypatch.setattr(ring, "_add_times", counted_add_times)
    monkeypatch.setattr(ring, "apply_T", counted_apply_T)
    for F in rhs[1:]:
        for seen in (pass_in, check_in, checks):
            seen.clear()
        X = invert_one_minus_T(F)
        # the pass meets each term of each nonempty level U^e, e >= 2, once
        assert sorted(pass_in) == sorted((u2, v, hs) for (u2, v, hs) in X.terms if u2 >= 4)
        # apply_T runs once, for the check, and meets each term of X once
        assert checks == [len(X.terms)]
        assert sorted(check_in) == sorted((v, hs) for (_u2, v, hs) in X.terms)
        assert len(pass_in) + len(check_in) <= 2 * len(X.terms)


def test_inversion_matches_the_neumann_sum():
    # F + T F + T^2 F + ... stops, because T lowers the U degree
    rng = random.Random(19)
    widened = 0
    for _ in range(16):
        terms = {(24, rng.randint(0, 2), (1,)): Fraction(rng.randint(1, 9), rng.choice([1, 3, 7]))}
        for _ in range(rng.randint(1, 10)):
            key = (2 * rng.randint(0, 12), rng.randint(0, 3), rng.choice([(), (1,), (2,), (1, 1), (1, 3)]))
            terms[key] = Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3, 5, 9, 16, 35]))
        F = RingElement(terms)
        want = power = F
        while power:
            power = apply_T(power)
            want = want + power
        X = invert_one_minus_T(F)
        assert X == want
        # X's denominator divides F's unless the pass widened its own
        widened += bool(F.den % X.den)
    assert widened


def test_delta_annihilates_constants():
    assert not apply_delta1(RingElement.monomial())
    assert not apply_delta1(RingElement.monomial().scale(Fraction(5, 3)))


def test_delta1_sq_H0_is_Y_squared():
    assert delta1_sq_H0() == Y * Y
    # evaluation at y = 0 means U = 1: sum of coefficients vanishes
    assert sum(delta1_sq_H0().terms.values()) == 0


def test_degree_bound_after_lift():
    # the normalized lift of (1-eta)^(-m) r gains two weighted degrees:
    # multiply back by (1-eta)^(m+1) (1-4y)^(1/2) and check membership
    r = RingElement.monomial(u2=2, hs=(1,))  # degree 2
    for m in (0, 1, 3):
        out = apply_delta1(r.shift_v(m))
        normalized = out.shift_v(-(m + 1)).shift_u2(-1)
        assert normalized.in_ring(4), m


def newton_fit_projection(i):
    """proj(i) by fitting p(k) = a(k) / ((2k+1) C(2k,k)) on k = 1..i+1 with
    Newton forward differences, verified on k = i+2..i+4."""
    def a(k):
        m = k - i
        return Fraction(0) if m < 0 else 4**m * rising(Fraction(3, 2) + i, m) / factorial(m)

    values = [a(k) / ((2 * k + 1) * central_binomial(k)) for k in range(1, i + 2)]
    coeffs = {}
    falling = [1]  # (k-1)(k-2)...(k-r) as integer coefficients, lowest first
    for r in range(len(values)):
        step = values[0] / factorial(r)
        for e, b in enumerate(falling):
            coeffs[e] = coeffs.get(e, 0) + step * b
        values = [y - x for x, y in zip(values, values[1:])]
        falling = [x - (r + 1) * y for x, y in zip([0] + falling, falling + [0])]
    for k in range(i + 2, i + 5):
        p_k = sum(c * k**e for e, c in coeffs.items())
        assert p_k * (2 * k + 1) * central_binomial(k) == a(k), (i, k)
    p0 = coeffs.pop(0)
    terms = {(0, 1, ()): p0, (0, 0, ()): -p0}  # p0 eta (1-eta)^(-1) = p0 (V - 1)
    terms.update({(0, 0, (j,)): c for j, c in coeffs.items()})
    return RingElement(terms)


def test_pi2_projection_matches_newton_fit():
    # the closed form equals the fitted projection for every index up to 30
    for i in range(31):
        assert pi2_project(i) == newton_fit_projection(i), i


# -- reference laws: the integer kernels against plain Fraction dicts --------
#
# The reference works on {(u2, v, hs): Fraction} dicts with none of the
# kernels' integer bookkeeping; each kernel result must equal it and be in
# canonical form.

COEFF = st.fractions(min_value=-20, max_value=20, max_denominator=12)
H_PARTS = st.lists(st.integers(1, 3), max_size=2).map(lambda hs: tuple(sorted(hs)))


def ring_dicts(honest=False):
    u2 = st.integers(0, 5).map(lambda e: 2 * e) if honest else st.integers(0, 9)
    v = st.just(0) if honest else st.integers(0, 2)
    return st.dictionaries(st.tuples(u2, v, H_PARTS), COEFF, max_size=5)


def assert_canonical(x: RingElement):
    nums = [n for col in x.groups.values() for n in col.values()]
    assert x.den > 0
    assert all(x.groups.values()), "no empty group"
    assert all(isinstance(n, int) and n for n in nums)
    assert gcd(x.den, *nums) == 1
    assert nums or x.den == 1
    assert all(list(hs) == sorted(hs) for (_v, hs) in x.groups)


def clean(d):
    return {k: c for k, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return clean(out)


def ref_scale(a, c):
    return clean({k: c * x for k, x in a.items()})


def ref_mul(a, b):
    out = {}
    for (u1, v1, h1), c1 in a.items():
        for (u0, v0, h0), c0 in b.items():
            k = (u1 + u0, v1 + v0, tuple(sorted(h1 + h0)))
            out[k] = out.get(k, Fraction(0)) + c1 * c0
    return clean(out)


def ref_upoly(poly, u2_shift=0, v=0, hs=()):
    return clean({(2 * e + u2_shift, v, hs): Fraction(c) for e, c in poly.items()})


def ref_eta_poly(j):
    # P_0 = U, P_{j+1} = U(U-1) P_j' + (U-1) P_j / 2
    p = {1: Fraction(1)}
    for _ in range(j):
        nxt = {}
        for e, c in p.items():
            for de, f in ((1, e * c + c / 2), (0, -e * c - c / 2)):
                nxt[e + de] = nxt.get(e + de, Fraction(0)) + f
        p = clean(nxt)
    return p


def ref_delta1(F, m):
    """Product rule on each monomial U^(u2/2) V^(v+m) H_hs."""
    half_u = ref_upoly({1: 1, 0: -1}, u2_shift=1, v=1)  # (U-1) U^(1/2) V
    out = {}
    for (u2, v, hs), c in F.items():
        v += m
        parts = []
        if u2:  # D U^e = e (U-1)^2 U^(e+1/2) V
            parts.append(ref_scale(ref_mul(ref_upoly({1: 1, 0: -1}), half_u), Fraction(u2, 2)))
            parts[-1] = ref_mul(parts[-1], {(u2, v, hs): c})
        if v:  # v V^(v-1) D V, D V = P_1 U^(1/2) V^2 + (U-1) U^(1/2) V^2 H_1
            dv = ref_add(ref_upoly(ref_eta_poly(1), 1, 2), ref_mul(half_u, {(0, 1, (1,)): 1}))
            parts.append(ref_mul(dv, {(u2, v - 1, hs): v * c}))
        for i, j in enumerate(hs):  # D H_j in place of the i-th factor
            rest = hs[:i] + hs[i + 1:]
            dh = ref_upoly(ref_eta_poly(j + 1), 1, 1)
            dh = ref_add(dh, ref_mul(half_u, {(0, 0, (j + 1,)): 1}))
            dh = ref_add(dh, ref_upoly(ref_eta_poly(1), 1, 1, (j,)))
            dh = ref_add(dh, ref_mul(half_u, {(0, 0, (1, j)): 1}))
            parts.append(ref_mul(dh, {(u2, v, rest): c}))
        for p in parts:
            out = ref_add(out, p)
    return out


def ref_T(F):
    """T(U^e) = sum_k C(e,k) 4^k T(Y^k), T(Y^k) = sum_{i<k} Y^(k-i) proj(i)."""
    out = {}
    for (u2, v, hs), c in F.items():
        e = u2 // 2
        for k in range(2, e + 1):
            for i in range(1, k):
                y_pow = {(2 * t, 0, ()): Fraction(comb(k - i, t) * (-1) ** (k - i - t), 4 ** (k - i))
                         for t in range(k - i + 1)}
                term = ref_mul(y_pow, dict(pi2_project(i).terms))
                term = ref_mul(term, {(0, v, hs): c * comb(e, k) * 4**k})
                out = ref_add(out, term)
    return out


def test_closed_form_transfer_rows_against_y_power_basis():
    # T(U^e) = sum_k C(e,k) 4^k T(Y^k), T(Y^k) = sum_{i<k} Y^(k-i) proj(i),
    # built by ring products as before the closed form
    e_max = 40
    zero = RingElement.zero()
    y_pow = [RingElement.monomial()]
    for _ in range(e_max):
        y_pow.append(y_pow[-1] * Y)
    t_y = [zero, zero] + [
        sum((y_pow[k - i] * pi2_project(i) for i in range(1, k)), zero)
        for k in range(2, e_max + 1)
    ]
    for e in range(e_max + 1):
        want = sum((t_y[k].scale(comb(e, k) * 4**k) for k in range(2, e + 1)), zero)
        assert _t_row(e) == want, e


@settings(max_examples=60, deadline=None)
@given(ring_dicts(), ring_dicts(), COEFF)
def test_arithmetic_laws_against_fraction_reference(a, b, c):
    x, y = RingElement(a), RingElement(b)
    for got, want in (
        (x, clean(a)),
        (x + y, ref_add(a, b)),
        (x - y, ref_add(a, ref_scale(b, Fraction(-1)))),
        (x * y, ref_mul(a, b)),
        (x.scale(c), ref_scale(a, c)),
        (x.shift_u2(2), {(u2 + 2, v, hs): q for (u2, v, hs), q in clean(a).items()}),
        (x.shift_v(1), {(u2, v + 1, hs): q for (u2, v, hs), q in clean(a).items()}),
    ):
        assert_canonical(got)
        assert got.terms == want
        assert got == RingElement(want)


def snapshot(x: RingElement):
    """x's denominator and a deep copy of its groups."""
    return x.den, {vh: dict(col) for vh, col in x.groups.items()}


def columns(x: RingElement) -> set[int]:
    return {id(col) for col in x.groups.values()}


@settings(max_examples=40, deadline=None)
@given(ring_dicts(), ring_dicts(), ring_dicts(honest=True), COEFF)
def test_operations_leave_their_operands_unchanged(a, b, h, c):
    # the kernels add into columns in place and _reduced takes ownership of
    # what it is given: no result may share a column with an operand
    x, y, z = RingElement(a), RingElement(b), RingElement(h)
    before = [snapshot(e) for e in (x, y, z)]
    results = [
        x + y, y + x, x + x, x - y, x - x, x * y, y * x, x * x, x.scale(c),
        x.shift_u2(2), x.shift_v(1), apply_delta1(x), apply_T(z), invert_one_minus_T(z),
    ]
    assert [snapshot(e) for e in (x, y, z)] == before
    for r in results:
        assert not columns(r) & (columns(x) | columns(y) | columns(z))


def test_a_pipeline_run_leaves_the_cached_factors_unchanged():
    for cached in (pipeline.rational_form, pipeline.normalized_delta1):
        cached.cache_clear()
    factors = [ring._DU, ring._dv_factor(), ring._dh_factor(1), pipeline.normalized_delta1(1)]
    factors += [_t_row(e) for e in range(8)]
    before = [snapshot(x) for x in factors]
    for g in range(2, 6):
        pipeline.rational_form(g)
    assert [snapshot(x) for x in factors] == before
    assert pipeline.normalized_delta1(1) is factors[3] and _t_row(7) is factors[-1]


@settings(max_examples=40, deadline=None)
@given(ring_dicts(), st.integers(0, 2))
def test_delta1_against_fraction_reference(a, m):
    got = apply_delta1(RingElement(a).shift_v(m))
    assert_canonical(got)
    assert got.terms == ref_delta1(clean(a), m)


@settings(max_examples=40, deadline=None)
@given(ring_dicts(honest=True))
def test_transfer_against_fraction_reference(a):
    got = apply_T(RingElement(a))
    assert_canonical(got)
    assert got.terms == ref_T(clean(a))


def test_terms_view_builds_fractions_on_access():
    x = RingElement({(2, 0, (1,)): Fraction(2, 3), (0, 1, ()): Fraction(-1, 2)})
    assert (x.den, x.groups) == (6, {(0, (1,)): {2: 4}, (1, ()): {0: -3}})
    assert len(x.terms) == 2 and (0, 1, ()) in x.terms
    assert x.terms == {(2, 0, (1,)): Fraction(2, 3), (0, 1, ()): Fraction(-1, 2)}
    assert RingElement.zero().den == 1 and not RingElement.zero().terms


def test_numerators_over_a_negative_denominator_are_reduced():
    x = RingElement.from_groups({(0, ()): {0: 6}, (0, (1,)): {2: 3}, (1, ()): {0: 0}}, -9)
    assert_canonical(x)
    assert (x.den, x.groups) == (3, {(0, ()): {0: -2}, (0, (1,)): {2: -1}})
    assert x == RingElement({(0, 0, ()): Fraction(-2, 3), (2, 0, (1,)): Fraction(-1, 3)})


def test_keys_differing_in_h_order_are_summed():
    x = RingElement({(0, 0, (1, 2)): 1, (0, 0, (2, 1)): 1})
    assert_canonical(x)
    assert x.terms == {(0, 0, (1, 2)): 2}
    y = RingElement({(1, 0, (3, 1, 2)): Fraction(1, 3), (1, 0, (2, 3, 1)): Fraction(1, 6)})
    assert_canonical(y)
    assert y.terms == {(1, 0, (1, 2, 3)): Fraction(1, 2)}
    # a pair that cancels leaves no term behind, next to one that stays
    z = RingElement({(0, 1, (1, 2)): 3, (0, 1, (2, 1)): -3, (2, 0, ()): Fraction(1, 2)})
    assert_canonical(z)
    assert z == RingElement.monomial(u2=2, coeff=Fraction(1, 2)) and z.den == 2
    assert RingElement({(0, 0, (1, 2)): 1, (0, 0, (2, 1)): -1}) == RingElement.zero()
