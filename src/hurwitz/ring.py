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

An element is stored as integer numerators over one common denominator:
``nums`` maps each monomial to an int and ``den`` is a positive int, the
coefficient of a monomial being nums[key] / den.  Every operation returns
the canonical form: no zero numerator, gcd(den, *nums) == 1, and den == 1
for zero.  A rational combination has exactly one such form, so ``==``
compares ``nums`` and ``den`` and stays exact value equality.  The
kernels (sums, products, shifts, the lift D and the transfer T) work on
the ints and reduce once per result.  ``terms`` is the Fraction-valued
read view; its Fractions are built on access and never stored.

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

D and T are both term maps: each term of the input adds a multiple of a
cached element (a factor of D, or the row T(U^e)), times part of the
term's own monomial, into one integer accumulator.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

Key = tuple[int, int, tuple[int, ...]]

ONE_KEY: Key = (0, 0, ())


class Terms(Mapping):
    """Read-only view monomial -> Fraction coefficient of a RingElement."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict[Key, int], den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key: Key) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, key) -> bool:
        return key in self._nums


def _merge(hs: tuple[int, ...], extra: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted H-index tuple of the product H_hs H_extra."""
    if not extra:
        return hs
    if not hs:
        return extra
    return tuple(sorted(hs + extra))


def _element(nums: dict[Key, int], den: int) -> "RingElement":
    """Wrap numerators over den that are already in canonical form."""
    res = RingElement.__new__(RingElement)
    res.nums = nums
    res.den = den
    return res


def _reduced(nums: dict[Key, int], den: int) -> "RingElement":
    """The canonical form of sum nums[k]/den for any nonzero int den; takes
    ownership of ``nums``."""
    for k in [k for k, n in nums.items() if not n]:
        del nums[k]
    if den < 0:
        nums = {k: -n for k, n in nums.items()}
        den = -den
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {k: n // g for k, n in nums.items()}
        den //= g
    return _element(nums, den)


def _rows(x: "RingElement"):
    """x as (den, rows), each row ((v, hs), ((u2, numerator), ...)) holding
    the terms that share a V power and an H part."""
    rows: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
    for (u2, v, hs), n in x.nums.items():
        rows.setdefault((v, hs), []).append((u2, n))
    return x.den, tuple((vh, tuple(col)) for vh, col in rows.items())


def _add_times(out: dict[Key, int], u2: int, v: int, hs, f: int, rows):
    """out += f U^(u2/2) V^v H_hs * (the element with numerator ``rows``)."""
    get = out.get
    for (dv, dh), col in rows:
        vv, merged = v + dv, _merge(hs, dh)
        for du, c in col:
            key = (u2 + du, vv, merged)
            out[key] = get(key, 0) + f * c


class RingElement:
    """Immutable-by-convention exact linear combination of ring monomials,
    as integer numerators ``nums`` over one denominator ``den``."""

    __slots__ = ("nums", "den")

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
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self.den = den

    @property
    def terms(self) -> Terms:
        """The coefficients as Fractions, computed on access."""
        return Terms(self.nums, self.den)

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
    def from_nums(cls, nums: dict[Key, int], den: int) -> "RingElement":
        """The element sum_k nums[k]/den (den a nonzero int), reduced; takes
        ownership of ``nums``."""
        return _reduced(nums, den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = dict(self.nums) if fa == 1 else {k: n * fa for k, n in self.nums.items()}
        get = out.get
        for k, n in other.nums.items():
            out[k] = get(k, 0) + n * fb
        return _reduced(out, den)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        p = c.numerator
        return _reduced({k: p * n for k, n in self.nums.items()}, self.den * c.denominator)

    def __mul__(self, other: "RingElement") -> "RingElement":
        # group both sides by (V power, H part), so each pair of groups merges
        # its H parts once and sums its U products under int keys
        groups: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        _, left_rows = _rows(self)
        _, right_rows = _rows(other)
        for (v1, h1), left in left_rows:
            for (v0, h0), right in right_rows:
                acc = groups.setdefault((v1 + v0, _merge(h1, h0)), {})
                get = acc.get
                for u1, c1 in left:
                    for u0, c0 in right:
                        u = u1 + u0
                        acc[u] = get(u, 0) + c1 * c0
        out = {(u, v, hs): n for (v, hs), acc in groups.items() for u, n in acc.items()}
        return _reduced(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self) -> str:
        return f"RingElement({len(self.nums)} terms)"

    def shift_u2(self, du2: int) -> "RingElement":
        """Multiply by U^(du2/2); negative shifts must stay representable."""
        out = {}
        for (u2, v, hs), n in self.nums.items():
            if u2 + du2 < 0:
                raise ValueError("shift would create a negative U exponent")
            out[(u2 + du2, v, hs)] = n
        return _element(out, self.den)

    def shift_v(self, dv: int) -> "RingElement":
        """Multiply by V^dv; negative shifts must stay representable."""
        out = {}
        for (u2, v, hs), n in self.nums.items():
            if v + dv < 0:
                raise ValueError("shift would create a negative V exponent")
            out[(u2, v + dv, hs)] = n
        return _element(out, self.den)

    # -- structure checks ----------------------------------------------

    def is_honest(self) -> bool:
        """True if the element lies in the ring proper: no V, integer U."""
        return all(v == 0 and u2 % 2 == 0 for (u2, v, _hs) in self.nums)

    def weighted_degree(self) -> Fraction:
        """Max over monomials of u2/2 + sum of H indices (-1 for zero)."""
        if not self.nums:
            return Fraction(-1)
        return Fraction(max(u2 + 2 * sum(hs) for (u2, _v, hs) in self.nums), 2)

    def in_ring(self, d: int) -> bool:
        return self.is_honest() and self.weighted_degree() <= d

    def u_degree2(self) -> int:
        return max((u2 for (u2, _v, _hs) in self.nums), default=-1)


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
def _dv_factor():
    """D V / V = P_1(U) U^(1/2) V + (U-1) U^(1/2) V H_1, as _rows."""
    return _rows(_eta_y_element(1, 1) + _ETA_MINUS_GAMMA * RingElement.monomial(v=1, hs=(1,)))


@lru_cache(maxsize=None)
def _dh_factor(j: int):
    """D H_j with the H_j factor removed where it survives, as _rows."""
    keep = _eta_y_element(j + 1, 1)
    up = _ETA_MINUS_GAMMA * RingElement.monomial(v=1, hs=(j + 1,))
    same = _eta_y_element(1, 1, hs=(j,))
    prod = _ETA_MINUS_GAMMA * RingElement.monomial(v=1, hs=(j, 1))
    return _rows(keep + up + same + prod)


def apply_delta1(F: RingElement) -> RingElement:
    """The lifting derivation applied to F, by the product rule."""
    du_den, du = _rows(_DU)
    dv_den, dv = _dv_factor()
    dh = {j: _dh_factor(j) for j in {j for (_u2, _v, hs) in F.nums for j in hs}}
    # one denominator for every factor: (u2/2) D U, D V / V and the D H_j
    den = lcm(2 * du_den, dv_den, *(d for d, _ in dh.values()))
    out: dict[Key, int] = {}
    for (u2, v, hs), n in F.nums.items():
        if u2:
            _add_times(out, u2, v, hs, n * u2 * (den // (2 * du_den)), du)
        if v:
            _add_times(out, u2, v, hs, n * v * (den // dv_den), dv)
        for j in set(hs):
            stripped = list(hs)
            stripped.remove(j)
            d, rows = dh[j]
            _add_times(out, u2, v, tuple(stripped), n * hs.count(j) * (den // d), rows)
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
def _t_rows(e: int):
    """T(U^e) as _rows, from its closed form (see the module docstring)."""
    projs = [pi2_project(i) for i in range(1, e)]
    den = lcm(*(p.den for p in projs))
    out: dict[Key, int] = {}
    get = out.get
    for i, p in enumerate(projs, 1):
        upoly = [comb(e - 1 - a, i - 1) for a in range(e - i + 1)]
        upoly[0] -= comb(e, i)
        f = 4**i * (den // p.den)
        for (_u2, _v, hs), n in p.nums.items():
            for a, c in enumerate(upoly):
                key = (2 * a, 0, hs)
                out[key] = get(key, 0) + f * n * c
    return _rows(_reduced(out, den))


def apply_T(F: RingElement) -> RingElement:
    """T on an honest element (integer U exponents), linear over V, H_k:
    each term n U^e V^v H_hs adds n V^v H_hs T(U^e)."""
    if any(u2 % 2 for (u2, _v, _hs) in F.nums):
        raise ValueError("T is defined on integer U exponents only")
    rows = {u2: _t_rows(u2 // 2) for (u2, _v, _hs) in F.nums}
    den = lcm(*(d for d, _row in rows.values()))
    out: dict[Key, int] = {}
    for (u2, v, hs), n in F.nums.items():
        d, row = rows[u2]
        _add_times(out, 0, v, hs, n * (den // d), row)
    return _reduced(out, F.den * den)


def invert_one_minus_T(F: RingElement) -> RingElement:
    """(1 - T)^(-1) F: the X with X = F + T X, one U level at a time.

    T writes only lower U exponents, and T(1) = T(U) = 0.  So X starts as F,
    and going down the U exponents from the top, X's U^e part is final when
    the pass reaches it; adding T of that part to X leaves X = F + T X.

    Post-verifies (1 - T)(result) == F exactly.
    """
    X = F
    for u2 in range(F.u_degree2(), 3, -2):
        level = {k: n for k, n in X.nums.items() if k[0] == u2}
        if level:
            X = X + apply_T(RingElement.from_nums(level, X.den))
    if X - apply_T(X) != F:
        raise AssertionError("(1 - T) inverse verification failed")
    return X
