"""Genus recursion: from the double lift of genus zero to rational forms.

For genus g >= 1 the recursion determines the normalized lift

    E_g = (1 - eta)^(2g-1) (1 - 4y)^(1/2) D H_g

from the equation

    (1 - T) E_g = (1 - eta)^(2g-2) ( D^2 H_{g-1}
                                     + sum_{g'=1}^{g-1} D H_{g'} D H_{g-g'} ),

whose right side is an honest ring element of weighted degree <= 3g - 1.
E_g decomposes uniquely against the triangular basis

    (1 - 4y)^(-1/2),  eta(y) - gamma(y),  eta_1(y), ..., eta_{3g-2}(y)

(u-polynomial degrees 0, 1, 2, 3, ... after multiplying by (1-4y)^(1/2))
with coefficients F_0, ..., F_{3g-1} that are polynomials in the H_k alone.
Two structural identities must hold: F_0 = 0, and for g >= 2

    -F_1 (1 - eta) + sum_{j>=2} F_j eta_{j-1} = 0

(as a polynomial identity after clearing V).  The second cancels every
gamma out of the inversion of the lift, leaving

    (1 - eta)^(2g-1) Phi D H_g = F_2 eta + sum_{j=3}^{3g-1} F_j eta_{j-2},

and the t-integral of the dilated series ( q_j -> q_j t ) evaluates
term-by-term through

    int_0^1 t^m (1 - eta t)^(-(m+2g-1)) dt
        = sum_{i=0}^{2g-3} C(2g-3, i) eta^i / ((m+1+i) (1-eta)^(m+1+i)),

which collects, after writing eta = 1 - (1 - eta), into the rational form
of the genus-g generating function.  Genus one instead integrates to the
closed log form (1/24) log 1/(1-eta) - (1/8) log 1/(1-gamma).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .forms import LogForm, RationalForm
from .partitions import Partition
from .ring import (
    RingElement,
    apply_delta1,
    delta1_sq_H0,
    eta_y_upoly,
    invert_one_minus_T,
)

# Set as the largest genus whose cold ``hurwitz rational-form --genus g``
# finished within 60 s on a 2-vCPU Xeon VM (Python 3.11.7).  With ring
# elements kept by (V, H) group, g = 9 / 10 take 3.6-4.3 / 9.6-10.4 s cold at
# 61 / 113 MB peak RSS (3.8-4.6 / 11.7-12.7 s at 77 / 140 MB before, 4 runs
# interleaved), and g = 11 (cap raised, one run) 27 s at 216 MB (30 s at
# 269 MB before): it fits, but a raised cap needs a check at its edge first.
GENUS_CAP = 10


@lru_cache(maxsize=None)
def normalized_delta1(g: int) -> RingElement:
    """E_g = (1-eta)^(2g-1) (1-4y)^(1/2) D H_g, asserted to lie in R_{3g-1}."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if g > GENUS_CAP:
        raise ValueError(f"genus {g} above the configured cap {GENUS_CAP}")
    if g == 1:
        rhs = delta1_sq_H0()
    else:
        prev = delta1_element(g - 1)
        rhs = apply_delta1(prev)
        # the sum over g' = 1..g-1 is symmetric under g' <-> g - g'
        for gp in range(1, g // 2 + 1):
            prod = delta1_element(gp) * delta1_element(g - gp)
            rhs = rhs + (prod if 2 * gp == g else prod.scale(2))
        rhs = rhs.shift_v(-(2 * g - 2))
    if not rhs.is_honest():
        raise AssertionError(f"genus {g} right side left the ring")
    out = invert_one_minus_T(rhs)
    if not out.in_ring(3 * g - 1):
        raise AssertionError(
            f"genus {g} solution violates the degree bound: {out.weighted_degree()}"
        )
    return out


@lru_cache(maxsize=None)
def delta1_element(g: int) -> RingElement:
    """D H_g itself: U^(1/2) V^(2g-1) E_g."""
    return normalized_delta1(g).shift_u2(1).shift_v(2 * g - 1)


@lru_cache(maxsize=None)
def _basis_int_poly(j: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The U-polynomial of basis element j after multiplying by
    (1-4y)^(1/2), of degree exactly j, as integer coefficients over a
    positive denominator q: (q, ((e, q * coefficient), ...))."""
    if j < 2:
        return (1, ((0, 1),)) if j == 0 else (1, ((1, 1), (0, -1)))
    poly = eta_y_upoly(j - 1)
    q = lcm(*(c.denominator for _e, c in poly))
    return q, tuple((e, c.numerator * (q // c.denominator)) for e, c in poly)


def decompose_basis(g: int, E: RingElement) -> tuple[RingElement, ...]:
    """Solve the triangular system writing E_g over the y-series basis: the
    components F_0..F_{3g-1}.

    Asserts F_0 = 0, the weighted-degree bounds, and (g >= 2) the gamma
    cancellation identity."""
    if not E.in_ring(3 * g - 1):
        raise ValueError("decompose_basis expects the normalized honest element")
    # numerators by U degree, all over the one denominator ``den``
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for (_v, hs), col in E.groups.items():
        for u2, n in col.items():
            by_degree.setdefault(u2 // 2, {})[hs] = n
    den = E.den
    comps: list[RingElement] = [RingElement.zero()] * (3 * g)
    for j in range(3 * g - 1, -1, -1):
        q, basis = _basis_int_poly(j)
        lead = dict(basis)[j]
        top = by_degree.pop(j, None)
        if not top:
            continue
        comps[j] = RingElement.from_groups(
            {(0, hs): {0: n * q} for hs, n in top.items()}, den * lead
        )
        # subtracting basis * F_j puts the rows over den * lead / k
        k = gcd(lead, *top.values())
        widen = lead // k
        if widen != 1:
            for row in by_degree.values():
                for hs in row:
                    row[hs] *= widen
            den *= widen
        for e, b in basis:
            if e == j:
                continue
            row = by_degree.setdefault(e, {})
            for hs, n in top.items():
                s = row.get(hs, 0) - b * (n // k)
                if s:
                    row[hs] = s
                else:
                    row.pop(hs, None)
    remaining = {e: row for e, row in by_degree.items() if row}
    if remaining:
        raise AssertionError(f"decomposition left a remainder at degrees {sorted(remaining)}")
    if comps[0]:
        raise AssertionError("F_0 must vanish (the lift has no constant term in y)")
    for j, Fj in enumerate(comps):
        if Fj and Fj.weighted_degree() > 3 * g - 1 - j:
            raise AssertionError(f"F_{j} exceeds weighted degree {3*g-1-j}")
    if g >= 2:
        # -F_1 + sum_j F_j H_{j-1} as numerators over the components' lcm
        common = lcm(*(Fj.den for Fj in comps[1:]))
        ident: dict[tuple[int, ...], int] = {}
        for j in range(1, 3 * g):
            f = common // comps[j].den
            f, extra = (-f, ()) if j == 1 else (f, (j - 1,))
            for (_v, hs), col in comps[j].groups.items():
                key = tuple(sorted(hs + extra))
                ident[key] = ident.get(key, 0) + f * col[0]
        if any(ident.values()):
            raise AssertionError("gamma-cancellation identity failed")
    return tuple(comps)


def recompose_basis(B: tuple[RingElement, ...]) -> RingElement:
    """Inverse of decompose_basis (used by the invariance tests)."""
    out = RingElement.zero()
    for j, Fj in enumerate(B):
        if Fj:
            q, basis = _basis_int_poly(j)
            out = out + RingElement.from_groups({(0, ()): {2 * e: n for e, n in basis}}, q) * Fj
    return out


def integrate_phi(g: int, B: tuple[RingElement, ...]) -> RationalForm:
    """The t-integration producing the genus-g rational form, g >= 2."""
    if g < 2:
        raise ValueError("integrate_phi handles genus >= 2; genus one is the log form")
    # every term is accumulated as an integer numerator over ``den``: the
    # lcm of the component denominators times lcm(1..m+2g-2), m <= len(hs)
    comps = B[2:]
    m_max = max((len(hs) for Fj in comps for (_v, hs) in Fj.groups), default=0)
    den_c = lcm(*(Fj.den for Fj in comps))
    den_t = lcm(*range(1, m_max + 2 * g - 1))

    def profile(m: int, extra_eta: int) -> list[tuple[int, int]]:
        # eta^extra_eta int_0^1 t^m (1 - eta t)^(-(m+2g-1)) dt over den_t as
        # (k, numerator of (1-eta)^(-k)): each eta^(i+extra_eta) (1-eta)^(-(m+1+i))
        # expanded via eta = 1 - (1-eta)
        out: dict[int, int] = {}
        for i in range(2 * g - 2):
            w = comb(2 * g - 3, i) * (den_t // (m + 1 + i))
            s = i + extra_eta
            for t in range(s + 1):
                k = m + 1 + i - t
                out[k] = out.get(k, 0) + w * comb(s, t) * (-1) ** t
        return list(out.items())

    profiles = {(m, x): profile(m, x) for m in range(m_max + 1) for x in (0, 1)}
    # acc[alpha][k]: numerator of eta_alpha (1-eta)^(-k)
    acc: dict[tuple[int, ...], dict[int, int]] = {}

    def integral_terms(alpha: tuple[int, ...], num: int, m: int, extra_eta: int):
        row = acc.setdefault(alpha, {})
        for k, w in profiles[m, extra_eta]:
            row[k] = row.get(k, 0) + num * w

    f = den_c // B[2].den
    for (_v, hs), col in B[2].groups.items():
        integral_terms(hs, col[0] * f, len(hs), extra_eta=1)
    for j in range(3, 3 * g):
        f = den_c // B[j].den
        for (_v, hs), col in B[j].groups.items():
            alpha = tuple(sorted(hs + (j - 2,)))
            integral_terms(alpha, col[0] * f, len(alpha) - 1, extra_eta=0)

    terms: dict[Partition, int] = {}
    constant = 0
    for alpha, row in acc.items():
        for k, c in row.items():
            if not c:
                continue
            if alpha:
                if k != len(alpha) + 2 * g - 2:
                    raise AssertionError(
                        f"stray power (1-eta)^-{k} at eta_{alpha} (expected {len(alpha) + 2*g-2})"
                    )
                terms[Partition(alpha)] = c
            elif k == 2 * g - 2:
                terms[Partition()] = c
            elif k == 0:
                constant = c
            else:
                raise AssertionError(f"stray constant-family power (1-eta)^-{k}")
    if constant != -terms.get(Partition(), 0):
        raise AssertionError("constant term does not balance the empty-partition term")
    den = den_c * den_t
    return RationalForm(genus=g, terms={a: Fraction(c, den) for a, c in terms.items()})


def genus1_closed() -> LogForm:
    """The genus-one generating function in closed form."""
    return LogForm(Fraction(1, 24), Fraction(-1, 8))


@lru_cache(maxsize=None)
def rational_form(g: int) -> RationalForm:
    """Run the full pipeline for genus g >= 2 and return the rational form."""
    if g < 2:
        raise ValueError("rational forms exist for genus >= 2; use genus1_closed")
    return integrate_phi(g, decompose_basis(g, normalized_delta1(g)))
