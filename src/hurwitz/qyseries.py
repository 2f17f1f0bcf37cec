"""Truncated series in the q's plus two catalytic variables, and the
literal lifting/projection/splitting operators acting on them.

`BiSeries` is `series.MSeries` graded by (q-weight, y1-degree,
y2-degree): it supplies only that grading (the key join of
(q monomial, y1 degree, y2 degree), its q-weight and the bounds
(wq, w1, w2)); cleaning, +, -, *, ==, the q-derivative and powers are the
MSeries code.  Like every series of that kernel a BiSeries holds
integer numerators over one denominator in canonical form.  The
operators below that act term by term (the Euler part of the lift, the
split and the projection) map the numerators directly and reduce once per
result with the kernel's own normaliser, not the ring's.

This module is the series-level oracle for the algebraic operator ring:
everything here is defined directly from the operator formulas

    lift(G)  = sum_k k y1^k dG/dq_k
               + 4 y1 (1-4y1)^(-3/2) (1-eta)^(-1)
                 ( sum_k k q_k dG/dq_k + y1 dG/dy1 + y2 dG/dy2 ),
    proj(M)  = [y2^0] M + sum_k q_k [y2^k] M,
    split(F) = (y2 F(y1) - y1 F(y2)) / (y1 - y2) + F(0),
    T(F)     = (1-eta)^(-1) proj( (1-4y2)^(-3/2) split( (1-4y1) F ) ),

with no reference to the ring representation, so agreement between the
two is a genuine two-route check.  That is why `ring.RingElement` keeps
its own arithmetic instead of joining this kernel, and why the two
normalise their numerators with separate code although both use the same
canonical form: the literal-vs-ring check only means something while its
two sides share no arithmetic code, since a defect in shared code would
show on both sides alike.
"""

from __future__ import annotations

from .inversion import aux_series
from .ring import RingElement
from .series import MSeries, _canonical, _key

QKey = tuple[tuple[int, ...], int, int]  # (q monomial, y1 degree, y2 degree)


class BiSeries(MSeries):
    """`MSeries` graded by (q-weight, y1-degree, y2-degree): a series in
    Q[[q]][[y1, y2]] truncated at q-weight wq and y-degrees w1, w2.  Keys
    are (q monomial, y1 degree, y2 degree); all arithmetic is inherited."""

    __slots__ = ("w1", "w2")

    _ONE = ((), 0, 0)

    def __init__(self, wq: int, w1: int, w2: int, coeffs=None):
        self.w1 = w1
        self.w2 = w2
        super().__init__(wq, coeffs)

    # -- the grading ---------------------------------------------------

    @property
    def wq(self) -> int:
        return self.max_weight

    @property
    def bounds(self) -> tuple[int, int, int]:
        return (self.max_weight, self.w1, self.w2)

    @staticmethod
    def _canon(key) -> QKey:
        mono, a, b = key
        return (_key(mono), a, b)

    @staticmethod
    def _q(key) -> tuple[int, ...]:
        return key[0]

    @staticmethod
    def _with_q(key, mono) -> QKey:
        return (mono, key[1], key[2])

    @staticmethod
    def _weight(key) -> int:
        return sum(key[0])

    @staticmethod
    def _fits(key, bounds) -> bool:
        return sum(key[0]) <= bounds[0] and key[1] <= bounds[1] and key[2] <= bounds[2]

    @staticmethod
    def _join(k1, k2, bounds):
        a = k1[1] + k2[1]
        b = k1[2] + k2[2]
        if a > bounds[1] or b > bounds[2]:
            return None
        return (_key(k1[0] + k2[0]), a, b)

    # Bound in this class's own dict, not only inherited, so that per-layer
    # tracing, which wraps the functions a class itself defines, keeps
    # BiSeries products and sums apart from MSeries ones.
    __mul__ = MSeries.__mul__
    __add__ = MSeries.__add__

    def __repr__(self) -> str:
        return f"BiSeries(wq={self.wq}, w1={self.w1}, w2={self.w2}, {len(self.nums)} terms)"

    # -- what MSeries has no version of ----------------------------------

    @classmethod
    def from_mseries(cls, F: MSeries, wq: int, w1: int, w2: int) -> "BiSeries":
        out = cls(wq, w1, w2)
        bounds, fits = out.bounds, out._fits
        nums = {(m, 0, 0): n for m, n in F.nums.items() if fits((m, 0, 0), bounds)}
        out.nums, out.den = _canonical(nums, F.den)
        return out

    @classmethod
    def y_binomial(cls, numer2: int, wq: int, w1: int, w2: int, var=1) -> "BiSeries":
        """(1 - 4 y_var)^(numer2 / 2) expanded in the chosen y variable."""
        cap = w1 if var == 1 else w2
        nums = {}
        c = 1
        for m in range(cap + 1):
            if m:
                # c_m = 4^m (s)_m / m! for s = -numer2/2, so c_m m =
                # c_(m-1) 2 (2m - 2 - numer2); c_m is an integer (no odd
                # prime divides a denominator of binom(s, m), and 2 divides
                # them at most 2m - 1 times), so the division is exact
                c = c * 2 * (2 * m - 2 - numer2) // m
            if c:
                nums[((), m, 0) if var == 1 else ((), 0, m)] = c
        out = cls(wq, w1, w2)
        out.nums = nums
        return out


# -- the literal operators ------------------------------------------------


def _one_minus_eta_inverse(wq: int, w1: int, w2: int) -> BiSeries:
    """(1-eta)^(-1), a series in q alone."""
    one = MSeries.constant(1, wq)
    return BiSeries.from_mseries((one - aux_series(one).main).inverse(), wq, w1, w2)


def prefactor(wq: int, w1: int, w2: int) -> BiSeries:
    """4 y1 (1-4y1)^(-3/2) (1-eta)^(-1) as a concrete series."""
    y1 = BiSeries(wq, w1, w2, {((), 1, 0): 4})
    return y1 * BiSeries.y_binomial(-3, wq, w1, w2) * _one_minus_eta_inverse(wq, w1, w2)


def lift_literal(G: BiSeries) -> BiSeries:
    """The transformed-coordinate lifting operator, term by term."""
    wq, w1, w2 = G.wq, G.w1, G.w2
    out = BiSeries(wq, w1, w2)
    for k in range(1, wq + 1):
        d = G.derivative(k)
        if not d.is_zero():
            out = out + BiSeries(wq, w1, w2, {((), k, 0): k}) * d
    # sum_k k q_k d/dq_k + y1 d/dy1 + y2 d/dy2 scales q^mono y1^a y2^b by
    # its total degree |mono| + a + b
    euler = {(mono, a, b): (sum(mono) + a + b) * n for (mono, a, b), n in G.nums.items()}
    return out + prefactor(wq, w1, w2) * G._new(G.bounds, *_canonical(euler, G.den))


def split_1_to_2(F: BiSeries) -> BiSeries:
    """(y2 F(y1) - y1 F(y2)) / (y1 - y2) + F(0) for a y2-free series."""
    out: dict[QKey, int] = {}
    for (mono, n, b), c in F.nums.items():
        if b:
            raise ValueError("split expects a y2-free series")
        # y1^n maps to sum_{i=1}^{n-1} y1^i y2^(n-i); constants and y1 die;
        # (mono, i, n - i) determines n, so no two terms meet
        for i in range(1, n):
            if i > F.w1 or n - i > F.w2:
                continue
            out[(mono, i, n - i)] = c
    return F._new(F.bounds, *_canonical(out, F.den))


def project_2(M: BiSeries) -> BiSeries:
    """[y2^0] M + sum_k q_k [y2^k] M: y2^b becomes q_b, beyond q-weight wq
    dropped."""
    out: dict[QKey, int] = {}
    get = out.get
    for (mono, a, b), n in M.nums.items():
        if b:
            if sum(mono) + b > M.wq:
                continue
            mono = _key(mono + (b,))
        key = (mono, a, 0)
        out[key] = get(key, 0) + n
    return M._new(M.bounds, *_canonical(out, M.den))


def transfer_literal(F: BiSeries) -> BiSeries:
    """T as literally composed from split, the y2 weight, and projection."""
    wq, w1, w2 = F.wq, F.w1, F.w2
    one_minus_4y1 = BiSeries(
        wq, w1, w2, {((), 0, 0): 1, ((), 1, 0): -4}
    )
    inner = split_1_to_2(one_minus_4y1 * F)
    inner = BiSeries.y_binomial(-3, wq, w1, w2, var=2) * inner
    return _one_minus_eta_inverse(wq, w1, w2) * project_2(inner)


# -- expanding ring elements into series -----------------------------------


def expand_ring_element(E: RingElement, wq: int, w1: int, w2: int = 0) -> BiSeries:
    """Concrete (q, y1)-series of a ring element."""
    one = MSeries.constant(1, wq)
    aux = aux_series(one, j_max=max((max(hs) for (_, _, hs) in E.terms if hs), default=0))
    v_series = (one - aux.main).inverse()
    out = BiSeries(wq, w1, w2)
    qcache: dict[tuple[int, tuple[int, ...]], MSeries] = {}
    for (u2, v, hs), c in E.terms.items():
        key = (v, hs)
        if key not in qcache:
            qpart = v_series.pow(v + len(hs))
            for j in hs:
                qpart = qpart * aux.main_j(j)
            qcache[key] = qpart
        term = BiSeries.from_mseries(qcache[key], wq, w1, w2).scale(c)
        if u2:
            term = term * BiSeries.y_binomial(-u2, wq, w1, w2)
        out = out + term
    return out
