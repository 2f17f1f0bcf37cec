"""The polynomial ring carrying the genus recursion, and its operators.

Generators and their shorthand in this module:

    U   = (1 - 4 y)^(-1)            (exponents may be half-integers)
    V   = (1 - eta)^(-1)
    H_k = eta_k (1 - eta)^(-1)      (k >= 1)

A ring element is a finite rational linear combination of monomials
U^(u2/2) V^v H_{k1} H_{k2} ..., keyed by (u2, v, (k1 <= k2 <= ...)) with
u2, v nonnegative integers (u2 counts half-units of the U exponent).  The
honest ring R consists of elements with v = 0 and even u2; the weighted
degree of an honest monomial is u2/2 + k1 + k2 + ... and R_d collects
weighted degrees <= d.

An element is stored as integer numerators over one common denominator,
grouped by (V power, H part): ``groups`` maps (v, hs) to its U column
{u2: numerator}, and ``den`` is a positive int, the coefficient of
U^(u2/2) V^v H_hs being groups[(v, hs)][u2] / den.  Every operation
returns the canonical form: no zero numerator, no empty column,
gcd(den, *numerators) == 1, and den == 1 for zero.  A rational
combination has exactly one such form, so ``==`` compares ``groups`` and
``den`` and stays exact value equality.  ``terms`` is the Fraction-valued
read view by monomial key; its Fractions are built on access and never
stored.

The y-dependent series are never stored as series; they are resolved on
sight into U-polynomials times a half power of U:

    eta_j(y) = (y d/dy)^j (1-4y)^(-3/2) = P_j(U) U^(1/2),
    eta(y) - gamma(y) = 4y (1-4y)^(-3/2) = (U - 1) U^(1/2),

with P_0 = U and P_{j+1} = U(U-1) P_j' + (U-1) P_j / 2.

The lifting derivation acts on the generators by

    D U^e  = e (U-1)^2 U^(e+1/2) V,
    D V    = P_1(U) U^(1/2) V^2 + (U-1) U^(1/2) V^2 H_1,
    D H_j  = P_{j+1}(U) U^(1/2) V + (U-1) U^(1/2) V H_{j+1}
             + P_1(U) U^(1/2) V H_j + (U-1) U^(1/2) V H_j H_1,

and extends by the product rule.  The transfer operator T is linear over
V and the H_k and acts on the U powers of honest elements.  On the power
basis Y^k, Y = y (1-4y)^(-1) = (U-1)/4, it is T(1) = T(Y) = 0 and
T(Y^k) = sum_{i=1}^{k-1} Y^(k-i) proj(i) for k >= 2, where proj(i) is the
projection of y^i (1-4y)^(-3/2-i) back to the eta_j series, divided by
(1 - eta).  Its y^k coefficient is (2k+1) C(2k,k) p_i(k) with
p_i(k) = k(k-1)...(k-i+1) / (2^i (2i+1)!!), so
proj(i) = sum_j s(i, j) H_j / (2^i (2i+1)!!) in signed Stirling numbers of
the first kind, and proj(0) = V - 1.  Expanding U^e = (1 + 4Y)^e, swapping
the sums over k and i and using
sum_{m>=0} C(e, i+m) (U-1)^m = sum_a C(e-1-a, i-1) U^a gives T on U^e in
closed form:

    T(U^e) = sum_{i=1}^{e-1} 4^i proj(i)
             ( sum_{a=0}^{e-i} C(e-1-a, i-1) U^a - C(e, i) ).

The product, D and T share one term map, ``_add_times``: a U column
times an element, added into numerators by (V power, H part), so each
factor group merges its H part once per column, not once per term.  D
multiplies each group's U column by the cached elements D U, D V / V and
D H_j; T adds each term n U^e V^v H_hs as the one-term column n times
the cached element T(U^e), moved to V^v H_hs.  (1 - T)^(-1) runs in
place on a copy of its input over one running denominator: going down
the U levels from the top, each level is final when the pass reaches
it and adds its T into the levels below.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

Key = tuple[int, int, tuple[int, ...]]
Groups = dict[tuple[int, tuple[int, ...]], dict[int, int]]

ONE_KEY: Key = (0, 0, ())


class Terms(Mapping):
    """Read-only view monomial -> Fraction coefficient of a RingElement."""

    __slots__ = ("_groups", "_den")

    def __init__(self, groups: Groups, den: int):
        self._groups = groups
        self._den = den

    def __getitem__(self, key: Key) -> Fraction:
        u2, v, hs = key
        return Fraction(self._groups[(v, hs)][u2], self._den)

    def __iter__(self):
        return ((u2, v, hs) for (v, hs), col in self._groups.items() for u2 in col)

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def __contains__(self, key) -> bool:
        u2, v, hs = key
        return u2 in self._groups.get((v, hs), ())


def _merge(hs: tuple[int, ...], extra: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted H-index tuple of the product H_hs H_extra."""
    if not extra:
        return hs
    if not hs:
        return extra
    return tuple(sorted(hs + extra))


def _element(groups: Groups, den: int) -> "RingElement":
    """Wrap numerators over den that are already in canonical form."""
    res = RingElement.__new__(RingElement)
    res.groups = groups
    res.den = den
    return res


def _reduced(groups: Groups, den: int) -> "RingElement":
    """The canonical form of the numerators ``groups`` over any nonzero int
    den; takes ownership of ``groups`` and its columns."""
    empty = []
    for vh, col in groups.items():
        if not col or 0 in col.values():
            groups[vh] = col = {u2: n for u2, n in col.items() if n}
            if not col:
                empty.append(vh)
    for vh in empty:
        del groups[vh]
    g = gcd(den, *[n for col in groups.values() for n in col.values()])
    if den < 0:
        g = -g
    if g != 1:
        for col in groups.values():
            for u2 in col:
                col[u2] //= g
        den //= g
    return _element(groups, den)


def _add_times(groups: Groups, col, v: int, hs, factor: Groups) -> None:
    """groups += sum_{(u2, f) in col} f U^(u2/2) V^v H_hs * (the element with
    numerators ``factor``), as numerators by (V power, H part), then by u2:
    each factor group merges its H part with hs once and sums its U
    products under int keys."""
    for (dv, dh), fcol in factor.items():
        acc = groups.setdefault((v + dv, _merge(hs, dh)), {})
        get = acc.get
        for du, c in fcol.items():
            for u2, f in col:
                u = u2 + du
                acc[u] = get(u, 0) + f * c


class RingElement:
    """Immutable-by-convention exact linear combination of ring monomials,
    as integer numerators ``groups`` by (V power, H part), then by u2, over
    one denominator ``den``."""

    __slots__ = ("groups", "den")

    def __init__(self, terms=None):
        clean: dict[Key, Fraction] = {}
        for (u2, v, hs), c in (terms or {}).items():
            if u2 < 0 or v < 0:
                raise ValueError("negative exponents are not representable")
            # keys that differ only in the order of their H indices add up
            key = (u2, v, tuple(sorted(hs)))
            clean[key] = clean.get(key, 0) + Fraction(c)
        clean = {k: c for k, c in clean.items() if c}
        # reduced fractions over the lcm of their denominators are canonical
        den = lcm(*(c.denominator for c in clean.values()))
        self.groups: Groups = {}
        for (u2, v, hs), c in clean.items():
            self.groups.setdefault((v, hs), {})[u2] = c.numerator * (den // c.denominator)
        self.den = den

    @property
    def terms(self) -> Terms:
        """The coefficients as Fractions by monomial, computed on access."""
        return Terms(self.groups, self.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElement":
        return cls()

    @classmethod
    def monomial(cls, u2=0, v=0, hs=(), coeff=1) -> "RingElement":
        return cls({(u2, v, tuple(hs)): Fraction(coeff)})

    @classmethod
    def from_u_poly(cls, poly: dict[int, Fraction], u2_shift=0, v=0, hs=()) -> "RingElement":
        """Element sum_e poly[e] U^(e + u2_shift/2) V^v H_hs."""
        return cls(
            {(2 * e + u2_shift, v, tuple(hs)): c for e, c in poly.items()}
        )

    @classmethod
    def from_groups(cls, groups: Groups, den: int) -> "RingElement":
        """The element with numerators ``groups`` (sorted H parts) over den,
        a nonzero int, reduced; takes ownership of ``groups``."""
        return _reduced(groups, den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        if fa == 1:
            out = {vh: dict(col) for vh, col in self.groups.items()}
        else:
            out = {vh: {u2: n * fa for u2, n in col.items()} for vh, col in self.groups.items()}
        for vh, col in other.groups.items():
            acc = out.get(vh)
            if acc is None:
                out[vh] = {u2: n * fb for u2, n in col.items()}
                continue
            get = acc.get
            for u2, n in col.items():
                acc[u2] = get(u2, 0) + n * fb
        return _reduced(out, den)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        p = c.numerator
        out = {vh: {u2: p * n for u2, n in col.items()} for vh, col in self.groups.items()}
        return _reduced(out, self.den * c.denominator)

    def __mul__(self, other: "RingElement") -> "RingElement":
        # one _add_times per left group, over the right side's groups
        out: Groups = {}
        for (v, hs), col in self.groups.items():
            _add_times(out, col.items(), v, hs, other.groups)
        return _reduced(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.den == other.den
            and self.groups == other.groups
        )

    def __bool__(self) -> bool:
        return bool(self.groups)

    def __repr__(self) -> str:
        return f"RingElement({len(self.terms)} terms)"

    def shift_u2(self, du2: int) -> "RingElement":
        """Multiply by U^(du2/2); negative shifts must stay representable."""
        if any(u2 + du2 < 0 for col in self.groups.values() for u2 in col):
            raise ValueError("shift would create a negative U exponent")
        out = {vh: {u2 + du2: n for u2, n in col.items()} for vh, col in self.groups.items()}
        return _element(out, self.den)

    def shift_v(self, dv: int) -> "RingElement":
        """Multiply by V^dv; negative shifts must stay representable."""
        if any(v + dv < 0 for (v, _hs) in self.groups):
            raise ValueError("shift would create a negative V exponent")
        return _element({(v + dv, hs): dict(col) for (v, hs), col in self.groups.items()}, self.den)

    # -- structure checks ----------------------------------------------

    def is_honest(self) -> bool:
        """True if the element lies in the ring proper: no V, integer U."""
        return all(v == 0 for (v, _hs) in self.groups) and not any(
            u2 % 2 for col in self.groups.values() for u2 in col
        )

    def weighted_degree(self) -> Fraction:
        """Max over monomials of u2/2 + sum of H indices (-1 for zero)."""
        if not self.groups:
            return Fraction(-1)
        return Fraction(max(max(col) + 2 * sum(hs) for (_v, hs), col in self.groups.items()), 2)

    def in_ring(self, d: int) -> bool:
        return self.is_honest() and self.weighted_degree() <= d

    def u_degree2(self) -> int:
        return max((max(col) for col in self.groups.values()), default=-1)


# -- U-polynomial helpers ------------------------------------------------


@lru_cache(maxsize=None)
def eta_y_upoly(j: int) -> tuple[tuple[int, Fraction], ...]:
    """P_j with eta_j(y) = P_j(U) U^(1/2); P_0 = U."""
    if j == 0:
        return ((1, Fraction(1)),)
    prev = dict(eta_y_upoly(j - 1))
    out: dict[int, Fraction] = {}
    for e, c in prev.items():
        f = (Fraction(e) + Fraction(1, 2)) * c
        out[e + 1] = out.get(e + 1, Fraction(0)) + f
        out[e] = out.get(e, Fraction(0)) - f
    return tuple(sorted((e, c) for e, c in out.items() if c))


def _eta_y_element(j: int, extra_v: int, hs=()) -> RingElement:
    """eta_j(y) U^(1/2-free form): P_j(U) U^(1/2) V^extra_v H_hs."""
    return RingElement.from_u_poly(dict(eta_y_upoly(j)), u2_shift=1, v=extra_v, hs=hs)


# factor multiplying a monomial when the derivation hits its U part:
# (U-1)^2 U^(1/2) V
_DU = RingElement(
    {
        (5, 1, ()): Fraction(1),
        (3, 1, ()): Fraction(-2),
        (1, 1, ()): Fraction(1),
    }
)

# (U-1) U^(1/2) = the resolved form of eta(y) - gamma(y)
_ETA_MINUS_GAMMA = RingElement({(3, 0, ()): Fraction(1), (1, 0, ()): Fraction(-1)})


@lru_cache(maxsize=None)
def _dv_factor() -> RingElement:
    """D V / V = P_1(U) U^(1/2) V + (U-1) U^(1/2) V H_1."""
    return _eta_y_element(1, 1) + _ETA_MINUS_GAMMA * RingElement.monomial(v=1, hs=(1,))


@lru_cache(maxsize=None)
def _dh_factor(j: int) -> RingElement:
    """D H_j with the H_j factor removed where it survives."""
    keep = _eta_y_element(j + 1, 1)
    up = _ETA_MINUS_GAMMA * RingElement.monomial(v=1, hs=(j + 1,))
    same = _eta_y_element(1, 1, hs=(j,))
    prod = _ETA_MINUS_GAMMA * RingElement.monomial(v=1, hs=(j, 1))
    return keep + up + same + prod


def apply_delta1(F: RingElement) -> RingElement:
    """The lifting derivation applied to F, by the product rule, one
    (V power, H part) group of F's terms at a time."""
    dv = _dv_factor()
    dh = {j: _dh_factor(j) for j in {j for (_v, hs) in F.groups for j in hs}}
    # one denominator for every factor: (u2/2) D U, D V / V and the D H_j
    den = lcm(2 * _DU.den, dv.den, *(x.den for x in dh.values()))
    fu = den // (2 * _DU.den)
    out: Groups = {}
    for (v, hs), col in F.groups.items():
        _add_times(out, [(u2, n * u2 * fu) for u2, n in col.items() if u2], v, hs, _DU.groups)
        if v:
            f = v * (den // dv.den)
            _add_times(out, [(u2, n * f) for u2, n in col.items()], v, hs, dv.groups)
        for j in set(hs):
            stripped = list(hs)
            stripped.remove(j)
            x = dh[j]
            f = hs.count(j) * (den // x.den)
            _add_times(out, [(u2, n * f) for u2, n in col.items()], v, tuple(stripped), x.groups)
    return _reduced(out, F.den * den)


def delta1_sq_H0() -> RingElement:
    """The genus-0 double lift: y^2 (1-4y)^(-2) = Y^2 = ((U-1)/4)^2."""
    return RingElement(
        {
            (4, 0, ()): Fraction(1, 16),
            (2, 0, ()): Fraction(-1, 8),
            (0, 0, ()): Fraction(1, 16),
        }
    )


# -- the transfer operator T ---------------------------------------------


@lru_cache(maxsize=None)
def pi2_project(i: int) -> RingElement:
    """(1 - eta)^(-1) * projection of y^i (1-4y)^(-3/2-i) onto the series
    generated by eta, eta_1, eta_2, ... (constant term dropped).

    The coefficient of y^k is (2k+1) C(2k,k) p(k) with p(k) the falling
    factorial k(k-1)...(k-i+1) over 2^i (2i+1)!! = (2i+1)!/i!.  The result
    is V - 1 for i = 0 (eta (1-eta)^(-1)) and sum_j p_j H_j otherwise.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return RingElement({(0, 1, ()): 1, ONE_KEY: -1})
    falling = [1]  # k(k-1)...(k-m+1) as integer coefficients, lowest first
    for m in range(i):
        falling = [x - m * y for x, y in zip([0] + falling, falling + [0])]
    den = factorial(2 * i + 1) // factorial(i)
    return RingElement({(0, 0, (j,)): Fraction(s, den) for j, s in enumerate(falling) if s})


@lru_cache(maxsize=None)
def _t_row(e: int) -> RingElement:
    """T(U^e), from its closed form (see the module docstring)."""
    projs = [pi2_project(i) for i in range(1, e)]
    den = lcm(*(p.den for p in projs))
    out: Groups = {}
    for i, p in enumerate(projs, 1):
        # 4^i (sum_a C(e-1-a, i-1) U^a - C(e, i)) times proj(i), over den
        f = 4**i * (den // p.den)
        upoly = [(2 * a, f * comb(e - 1 - a, i - 1)) for a in range(e - i + 1)]
        upoly[0] = (0, upoly[0][1] - f * comb(e, i))
        _add_times(out, upoly, 0, (), p.groups)
    return _reduced(out, den)


def _require_integer_u(F: RingElement) -> None:
    if any(u2 % 2 for col in F.groups.values() for u2 in col):
        raise ValueError("T is defined on integer U exponents only")


def apply_T(F: RingElement) -> RingElement:
    """T on an honest element (integer U exponents), linear over V, H_k:
    each term n U^e V^v H_hs adds the one-term column n times T(U^e)."""
    _require_integer_u(F)
    rows = {u2: _t_row(u2 // 2) for col in F.groups.values() for u2 in col}
    den = lcm(*(row.den for row in rows.values()))
    out: Groups = {}
    for (v, hs), col in F.groups.items():
        for u2, n in col.items():
            row = rows[u2]
            _add_times(out, ((0, n * (den // row.den)),), v, hs, row.groups)
    return _reduced(out, F.den * den)


def invert_one_minus_T(F: RingElement) -> RingElement:
    """(1 - T)^(-1) F: the X with X = F + T X, one U level at a time.

    T writes only lower U exponents, and T(1) = T(U) = 0.  So X starts as a
    copy of F over one running denominator, and going down the levels from
    the top, X's U^e part is final when the pass reaches it and adds its T
    into the levels below, which leaves X = F + T X.

    Post-verifies (1 - T)(result) == F exactly.
    """
    _require_integer_u(F)
    groups = {vh: dict(col) for vh, col in F.groups.items()}
    den = F.den
    for u2 in range(F.u_degree2(), 3, -2):
        level = [(vh, col[u2]) for vh, col in groups.items() if col.get(u2)]
        if not level:
            continue
        row = _t_row(u2 // 2)
        g = gcd(row.den, *(n for _vh, n in level))
        k = row.den // g
        if k != 1:
            # T of the level is over den * k: widen the whole element
            for col in groups.values():
                for u in col:
                    col[u] *= k
            den *= k
        for (v, hs), n in level:
            _add_times(groups, ((0, n // g),), v, hs, row.groups)
    X = _reduced(groups, den)
    if X - apply_T(X) != F:
        raise AssertionError("(1 - T) inverse verification failed")
    return X
