"""Truncated series in the q's plus two catalytic variables, and the
literal lifting and transfer operators acting on them.

`BiSeries` is `series.MSeries` graded by (q-weight, y1-degree,
y2-degree): it supplies that grading (keys (q monomial, y1 degree,
y2 degree) within the bounds (wq, w1, w2)) and the `_product` hook, one
loop over the term pairs that drops each pair beyond the bounds and sorts
no q-monomial when either factor's is empty; cleaning, +, -, *, ==,
scale and powers are the MSeries code.  Like every series of
that kernel a BiSeries holds integer numerators over one denominator in
canonical form.  The literal operators below map the numerators term by
term (the lift's derivative with its prefactor's y part, and the whole
transfer, each before its (1-eta)^(-1)) and reduce once per result with
the kernel's own normaliser, not the ring's.

eta = sum_k c_k q_k, c_k = (2k+1) C(2k,k), and eta_j = sum_k c_k k^j q_k
come from that formula, in this grading.  No operator here builds a
series inverse: the (1-eta)^(-1) of the lift and of T is
`over_one_minus_eta`, which solves S = F + eta S one q-weight at a time,
reading each S[m] off the S of the monomials below it, and moves each
q-monomial's y-terms together.  `expand_ring_element` reads a ring
element by its (V power, H part) groups: each group is one q-part, prod
eta_j (1-eta)^(-(v + len hs)) through the same solve, times one integer
y1-polynomial, the sum of its terms' c (1-4y1)^(-u2/2); the outer
products of all groups go into one dict, reduced once.

Each literal operator returns exactly the box its truncated input
determines, with no parameter for it.  `lift_literal` takes G at
(wq, w1, w2) to its lift at (wq - w1, w1, w2), since sum_k k y1^k d/dq_k
trades q-weight for y1-degree, and refuses wq < w1.  `transfer_literal`
takes a y2-free F at (wq, W1, W2) to T(F) at (wq, W1 - wq, 0): y2 lives
only between its split and its projection, which turns y2-degree into
q-weight, so W2 plays no part, and it refuses only W1 < wq and a y2 term.
Each refusal is a ValueError.  So the lift of a ring element expanded at
(wq + w1, w1) and the transfer of one expanded at (wq, w1 + wq) land on
the box (wq, w1, 0) of the ring operator's expansion, and the two compare
coefficient by coefficient.

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

from functools import lru_cache
from math import comb

from .partitions import partitions
from .ring import RingElement
from .series import MSeries, _canonical, _key

QKey = tuple[tuple[int, ...], int, int]  # (q monomial, y1 degree, y2 degree)


class BiSeries(MSeries):
    """`MSeries` graded by (q-weight, y1-degree, y2-degree): a series in
    Q[[q]][[y1, y2]] truncated at q-weight wq and y-degrees w1, w2.  Keys
    are (q monomial, y1 degree, y2 degree).  The arithmetic is inherited;
    only the grading hooks are its own."""

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
    def _fits(key, bounds) -> bool:
        return sum(key[0]) <= bounds[0] and key[1] <= bounds[1] and key[2] <= bounds[2]

    @staticmethod
    def _product(a: dict, b: dict, bounds) -> dict:
        """The unreduced numerators of the product of the terms ``a`` and
        ``b``: one loop over the term pairs, the inner operand's q-weights
        computed once; a pair with an empty q-monomial skips the sort."""
        wq, w1, w2 = bounds
        inner = [(sum(m), m, a2, b2, n2) for (m, a2, b2), n2 in b.items()]
        out: dict[QKey, int] = {}
        get = out.get
        for (m1, a1, b1), n1 in a.items():
            room, ra, rb = wq - sum(m1), w1 - a1, w2 - b1
            for wt2, m2, a2, b2, n2 in inner:
                if wt2 <= room and a2 <= ra and b2 <= rb:
                    key = (_key(m1 + m2) if m1 and m2 else m1 or m2, a1 + a2, b1 + b2)
                    out[key] = get(key, 0) + n1 * n2
        return out

    # Bound in this class's own dict, not only inherited, so that per-layer
    # tracing, which wraps the functions a class itself defines, keeps
    # BiSeries products and sums apart from MSeries ones.
    __mul__ = MSeries.__mul__
    __add__ = MSeries.__add__

    def __repr__(self) -> str:
        return f"BiSeries(wq={self.wq}, w1={self.w1}, w2={self.w2}, {len(self.nums)} terms)"


def _binomial_coeffs(numer2: int, cap: int) -> list[int]:
    """The coefficients of y^0..y^cap in (1 - 4y)^(numer2 / 2)."""
    out = [1]
    for m in range(1, cap + 1):
        # c_m = 4^m (s)_m / m! for s = -numer2/2, so c_m m =
        # c_(m-1) 2 (2m - 2 - numer2); c_m is an integer (no odd prime
        # divides a denominator of binom(s, m), and 2 divides them at most
        # 2m - 1 times), so the division is exact
        out.append(out[-1] * 2 * (2 * m - 2 - numer2) // m)
    return out


# -- the literal operators ------------------------------------------------


@lru_cache(maxsize=16)
def _eta_coefficients(wq: int) -> dict[int, int]:
    """k -> c_k = (2k+1) C(2k,k), the q_k coefficient of eta, for k <= wq."""
    return {k: (2 * k + 1) * comb(2 * k, k) for k in range(1, wq + 1)}


@lru_cache(maxsize=16)
def _monomials(wq: int) -> tuple:
    """Every q-monomial of weight <= wq in ascending weight, each with the
    pairs (k, the monomial less one part k) over its distinct parts k."""
    out = []
    for w in range(wq + 1):
        for mono in map(tuple, partitions(w)):
            drops = []
            for k in set(mono):
                i = mono.index(k)
                drops.append((k, mono[:i] + mono[i + 1:]))
            out.append((mono, drops))
    return tuple(out)


def over_one_minus_eta(F: BiSeries, power: int = 1) -> BiSeries:
    """F (1-eta)^(-power), without a series inverse: ``power`` solves of
    S = F + eta S, each in ascending q-weight,

        S[m] = F[m] + sum over the distinct parts k of m of c_k S[m less one k],

    c_k the q_k coefficient of eta.  Each q-monomial's y-terms move together."""
    c = _eta_coefficients(F.wq)
    rows: dict = {}
    for (mono, a, b), n in F.nums.items():
        rows.setdefault(mono, {})[(a, b)] = n
    for _ in range(power):
        solved: dict = {}
        for mono, drops in _monomials(F.wq):
            row = dict(rows.get(mono, ()))
            get = row.get
            for k, rest in drops:
                if rest in solved:
                    ck = c[k]
                    for ab, n in solved[rest].items():
                        row[ab] = get(ab, 0) + ck * n
            if row:
                solved[mono] = row
        rows = solved
    out = {(mono, a, b): n for mono, row in rows.items() for (a, b), n in row.items()}
    return F._new(F.bounds, *_canonical(out, F.den))


def lift_literal(G: BiSeries) -> BiSeries:
    """The transformed-coordinate lifting operator, term by term, on the
    box its input determines: G at (wq, w1, w2) gives the lift at
    (wq - w1, w1, w2).  The d/dq_k part sends q-weight w + k and y1-degree
    b - k to (w, b), so an output term reads input q-weights up to
    w + b <= wq and no truncated one; the Euler part keeps the q-weight.
    Raises ValueError if wq < w1, where that box is empty."""
    wq, w1, w2 = G.bounds
    if wq < w1:
        raise ValueError(f"the lift needs q-weight wq >= y1-degree w1, got wq={wq}, w1={w1}")
    bounds = (wq - w1, w1, w2)
    jacobi: dict[QKey, int] = {}
    get = jacobi.get
    euler: dict[QKey, int] = {}
    # the prefactor's y part 4 y1 (1-4y1)^(-3/2), its y1^m coefficient at m - 1
    y_part = [4 * c for c in _binomial_coeffs(-3, w1 - 1)]
    for (mono, a, b), n in G.nums.items():
        weight = sum(mono)
        # sum_k k y1^k d/dq_k sends q^mono y1^a y2^b, for each part k of
        # multiplicity m, to k m q^(mono - k) y1^(a + k) y2^b, kept if it
        # lands in the box; terms of different sources meet on one key
        for k in set(mono):
            if weight - k <= bounds[0] and a + k <= w1:
                i = mono.index(k)
                key = (mono[:i] + mono[i + 1:], a + k, b)
                jacobi[key] = get(key, 0) + k * mono.count(k) * n
        # sum_k k q_k d/dq_k + y1 d/dy1 + y2 d/dy2 scales q^mono y1^a y2^b
        # by its total degree |mono| + a + b, and the y part adds y1^m for
        # m = 1..w1 - a; (1-eta)^(-1) acts on q alone, so it comes last
        if weight <= bounds[0]:
            for m, c in enumerate(y_part[: w1 - a], 1):
                key = (mono, a + m, b)
                euler[key] = euler.get(key, 0) + c * (weight + a + b) * n
    euler_part = over_one_minus_eta(G._new(bounds, *_canonical(euler, G.den)))
    return G._new(bounds, *_canonical(jacobi, G.den)) + euler_part


def transfer_literal(F: BiSeries) -> BiSeries:
    """T as one term map, on the box its input determines: F y2-free at
    (wq, W1, W2) gives T(F) at (wq, W1 - wq, 0).  (1-4y1) sends y1^n to
    y1^n - 4 y1^(n+1), the split sends y1^N to y1^i y2^(N - i) for
    i = 1..N-1, the y2 weight (1-4y2)^(-3/2) adds y2^m, and the projection
    turns y2^(N - i + m) into the part N - i + m of the q-monomial.  A term
    is kept while its q-weight is <= wq and i <= W1 - wq; as N - i <= wq,
    it reads only input y1-degrees N <= W1, and W2 plays no part.
    Raises ValueError if W1 < wq or F has a y2 term."""
    wq, W1, _ = F.bounds
    if W1 < wq:
        raise ValueError(f"the transfer needs y1-degree W1 >= q-weight wq, got wq={wq}, W1={W1}")
    top = W1 - wq
    weight = _binomial_coeffs(-3, wq)
    out: dict[QKey, int] = {}
    get = out.get
    for (mono, n, b), c in F.nums.items():
        if b:
            raise ValueError("the transfer expects a y2-free series")
        room = wq - sum(mono)
        for N, f in ((n, c), (n + 1, -4 * c)):
            # the projected part k = N - i + m must fit the q-weight
            for i in range(max(1, N - room), min(N - 1, top) + 1):
                for k in range(N - i, room + 1):
                    key = (_key(mono + (k,)), i, 0)
                    out[key] = get(key, 0) + f * weight[k - N + i]
    return over_one_minus_eta(F._new((wq, top, 0), *_canonical(out, F.den)))


# -- expanding ring elements into series -----------------------------------


def expand_ring_element(E: RingElement, wq: int, w1: int, w2: int = 0) -> BiSeries:
    """Concrete (q, y1)-series of a ring element, one (V power, H part)
    group at a time: the group's q-part prod eta_j (1-eta)^(-(v + len hs))
    times its y1-polynomial, the sum of c (1-4y1)^(-u2/2) over its terms."""
    one = BiSeries.constant(1, wq, 0, 0)
    eta = _eta_coefficients(wq)
    out: dict[QKey, int] = {}
    get = out.get
    for (v, hs), col in E.groups.items():
        poly = [0] * (w1 + 1)
        for u2, n in col.items():
            for a, c in enumerate(_binomial_coeffs(-u2, w1)):
                poly[a] += n * c
        ys = [(a, c) for a, c in enumerate(poly) if c]
        q = one
        for j in hs:
            q = q * one._new(one.bounds, {((k,), 0, 0): c * k**j for k, c in eta.items()})  # eta_j
        # eta and the eta_j have integer coefficients: the q-part's den is 1
        q = over_one_minus_eta(q, v + len(hs))
        for (mono, _, _), n in q.nums.items():
            for a, c in ys:
                key = (mono, a, 0)
                out[key] = get(key, 0) + n * c
    return one._new((wq, w1, w2), *_canonical(out, E.den))
