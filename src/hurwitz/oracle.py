"""Counting of transitive transposition factorizations in S_d, two ways.

A factorization of type (alpha, r) is a tuple (rho, tau_1, ..., tau_r) with
rho of cycle type alpha, each tau_i a transposition, rho tau_1 ... tau_r
equal to the identity, and the generated subgroup transitive on {1..d}.
Monotone factorizations additionally require, writing tau_i = (a_i b_i)
with a_i < b_i, that b_1 <= ... <= b_r.

Permutations compose left to right (x -> q(p(x)) for the product p q); any
consistent convention yields the same counts, but one has to be fixed.

Two independent counters serve both families:

* a literal count (literal_counts), a forward DP over (product, component
  label of each point) that needs no reduction, and
* totals that count sequences without the transitivity condition, read
  off the character table of S_n, followed by an inclusion-exclusion over
  the orbit set partition (transitive_counts).

Monotone sequences of r transpositions on n points are the terms of
h_r(J_2, ..., J_n), J_b = sum_{a<b} (a b) the Jucys-Murphy elements, and
classical ones those of (J_2 + ... + J_n)^r.  Both elements are central,
so each acts on the irreducible V_lambda by a scalar: h_r of the contents
j - i of the boxes (i, j) of lambda, or the r-th power of their sum
(Jucys 1974, Murphy 1981).  A central element acting by eig_lambda is
sum_lambda eig_lambda dim(lambda) / n! sum_sigma chi^lambda(sigma) sigma,
so its sequences with a product of cycle type mu number

    |C_mu| / n! * sum_lambda dim(lambda) chi^lambda(mu) eig_lambda(r).

The characters come from the Murnaghan-Nakayama rule on beta-sets
(_character), dim(lambda) = chi^lambda(1^n), and each total is one exact
division by n!: a remainder, which only a wrong character or eigenvalue
can leave, raises AssertionError.

The inclusion-exclusion reads the totals by type as rows in r, and the
splits of each partition alpha from one cached reduction plan
(_reduction_plan): for each size of the orbit of the point 1, its number
of point sets and the pairs (type of that orbit, type of the rest).
Disjoint-support monotone sequences merge in exactly one monotone
interleaving (their b-values are disjoint sets), so the monotone
reduction needs no interleaving factors; the classical reduction needs
the binomial C(r, r') to choose time slots.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from operator import mul

from .partitions import Partition, aut_order, partitions, short_decimal, subpartitions

# Bound on 2^d*max(d, r)^2 for transitive_counts: the inclusion-exclusion
# walks about r^2 pairs of ever longer integers for each split of a
# partition, and the splits and the character table grow with d about as
# fast as 2^d; r counts as at least d, since no transitive count on d
# points is nonzero below r = d - 1.  Set so that the slowest cold table
# stays inside a 60 s budget with room for run-to-run noise.  Cold
# tables at the edge r = isqrt(ORACLE_MAX_WORK >> d), one process each,
# 2-vCPU VM: classical (6, 1700) 47.8 s and 43 MB peak RSS, the slowest,
# (7, 1202) 44.9 s, (5, 2404) 37.9 s, (8, 850) 35.0 s, (9, 601) 27.0 s,
# (4, 3400) 21.5 s, (10, 425) 19.8 s, (12, 212) 10.4 s, (3, 4808) 9.6 s,
# (14, 106) 4.5 s, (16, 53) 3.7 s, (18, 26) 4.7 s and 110 MB, the largest
# RSS; monotone 11.5 s at most ((9, 601)).  No r fits at d >= 19.
ORACLE_MAX_WORK = 2**6 * 1700**2
# Bound on d for literal_counts, whose states are (product, labels): up to
# d! times the Bell number of d.  Cold tables (one process each, 2-vCPU VM):
# (6, 10) 0.10 s monotone, 0.25 s classical, 18 MB peak RSS; (7, 12) 1.3 s
# and 3.7 s, 39 MB; (7, 14) classical 4.1 s, 46 MB.  At d = 8 monotone
# (8, 8) already takes 3.5 s and 100 MB.
LITERAL_MAX_POINTS = 7


class ResourceLimitError(ValueError):
    """Raised when a query exceeds the oracle's feasibility bounds."""


# -- permutation helpers (tuples of images on 0..n-1) ------------------


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product: (p*q)(x) = q(p(x))."""
    return tuple(map(q.__getitem__, p))


def cycle_type(p: tuple[int, ...]) -> Partition:
    n = len(p)
    seen = [False] * n
    lens = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lens.append(length)
    return Partition(lens)


# -- route 1: a literal count of transitive sequences -----------------


@lru_cache(maxsize=None)
def literal_counts(d: int, rmax: int, monotone: bool) -> dict:
    """Transitive counts (alpha, r) -> int for every |alpha| = d, r <= rmax.

    A walk over blocks of transpositions on states (product, labels): one
    block J_b = {(a b) : a < b} per b, in order, for monotone sequences, one
    of every transposition for classical ones.  A point's label is the
    smallest point of its component under the edges so far: layers[r] maps
    label -> product -> number of sequences, and a transposition (a b)
    composes the product and merges the labels of a and b.  The edges
    connect every point (so the group they generate, which contains rho, is
    transitive) exactly when all labels are 0.
    """
    if d > LITERAL_MAX_POINTS:
        raise ResourceLimitError(f"literal oracle refuses d={short_decimal(d)} > {LITERAL_MAX_POINTS}")
    start = tuple(range(d))
    blocks = [[(a, b, tuple(b if x == a else a if x == b else x for x in start)) for a in range(b)]
              for b in range(1, d)]
    if not monotone:
        blocks = [[t for block in blocks for t in block]]
    layers = [{start: {start: 1}}] + [{} for _ in range(rmax)]  # label -> product -> count
    for block in blocks:
        for r in range(1, rmax + 1):
            layer = layers[r]
            for label, prods in layers[r - 1].items():
                for a, b, swap in block:
                    lo, hi = sorted((label[a], label[b]))
                    out = layer.setdefault(tuple(lo if x == hi else x for x in label), {})
                    for prod, n in prods.items():
                        q = compose(prod, swap)
                        out[q] = out.get(q, 0) + n
    table: dict[tuple[Partition, int], int] = {}
    for r, layer in enumerate(layers):
        for prod, n in layer.get((0,) * d, {}).items():
            key = (cycle_type(prod), r)
            table[key] = table.get(key, 0) + n
    return table


# -- route 2: character totals + set-partition inclusion-exclusion -----


@lru_cache(maxsize=None)
def _character(beta: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lambda(mu) by Murnaghan-Nakayama, lambda given by a beta-set beta
    (increasing): removing a rim hook of length k moves a bead x to a free
    position x - k >= 0, with the sign (-1)^(beads strictly between)."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    out = 0
    for x in beta:
        y = x - k
        if y >= 0 and y not in beta:
            sign = -1 if sum(y < z < x for z in beta) % 2 else 1
            out += sign * _character(tuple(sorted(y if z == x else z for z in beta)), rest)
    return out


def _eigenvalues(lam: Partition, rmax: int, monotone: bool) -> list[int]:
    """The scalars by which the family's element of degree r, r <= rmax,
    acts on V_lambda: h_r(contents) or (sum of contents)^r."""
    contents = [j - i for i, part in enumerate(lam) for j in range(part)]
    if not monotone:
        s = sum(contents)
        return [s**r for r in range(rmax + 1)]
    h = [1] + [0] * rmax
    for c in contents:
        if c:
            for k in range(1, rmax + 1):
                h[k] += c * h[k - 1]
    return h


def _totals(n: int, rmax: int, monotone: bool) -> dict:
    """Non-transitive counts on n points, (type(product), r) -> count, r <= rmax:
    |C_mu| / n! * sum_lambda dim(lambda) chi^lambda(mu) eig_lambda(r), each
    one checked division."""
    nfact = factorial(n)
    lams = partitions(n)
    betas = [tuple(part + i for i, part in enumerate(reversed(lam))) for lam in lams]
    dims = [_character(beta, (1,) * n) for beta in betas]
    columns = list(zip(*(_eigenvalues(lam, rmax, monotone) for lam in lams)))  # [r][lambda]
    out = {}
    for mu in lams:
        size = nfact // (prod(mu) * aut_order(mu))  # |C_mu| = n! / z_mu
        weights = [size * dim * _character(beta, mu) for dim, beta in zip(dims, betas)]
        for r, column in enumerate(columns):
            total, rest = divmod(sum(map(mul, weights, column)), nfact)
            if rest:
                raise AssertionError(f"total at {tuple(mu)}, r={r} is {total} + {rest}/{nfact}")
            if total:
                out[mu, r] = total
    return out


@lru_cache(maxsize=None)
def _monotone_totals(n: int, rmax: int) -> dict:
    """h_r(J_2, ..., J_n) with J_b = sum_{a<b} (a b)."""
    return _totals(n, rmax, True)


@lru_cache(maxsize=None)
def _classical_totals(n: int, rmax: int) -> dict:
    """(J_2 + ... + J_n)^r."""
    return _totals(n, rmax, False)


@lru_cache(maxsize=None)
def _reduction_plan(alpha: Partition) -> tuple:
    """The orbit reduction of alpha: for each size nsub < |alpha| of the orbit
    of the point 1, its C(|alpha| - 1, nsub - 1) point sets and the splits
    (beta, delta) of alpha into that orbit's type and the rest's."""
    n = alpha.size
    return tuple((nsub, comb(n - 1, nsub - 1), tuple(subpartitions(alpha, nsub))) for nsub in range(1, n))


@lru_cache(maxsize=None)
def transitive_counts(d: int, rmax: int, monotone: bool) -> dict:
    """Transitive counts (alpha, r) -> int for every |alpha| <= d, r <= rmax,
    by inverting the orbit decomposition of the non-transitive totals.  A
    negative count, or a nonzero one off Riemann-Hurwitz, raises
    AssertionError; 2^d*max(d, rmax)^2 > ORACLE_MAX_WORK raises
    ResourceLimitError before any work, the shift 2^d included.

    A sequence on {1..d} splits over its orbit set partition into transitive
    pieces.  Fixing the block containing the point 1 (size n', type beta',
    r' transpositions) and letting the complement carry an arbitrary
    sequence gives

        A_d(alpha, r) = sum C(d-1, n'-1) [interleave] T(beta', r') A(alpha-beta', r-r'),

    with [interleave] = 1 for monotone sequences (b-values of distinct
    blocks are distinct, so exactly one merge is monotone) and C(r, r')
    classically.  Solving for the n' = d term yields T_d.
    """
    if d >= ORACLE_MAX_WORK.bit_length() or (1 << d) * max(d, rmax) ** 2 > ORACLE_MAX_WORK:
        raise ResourceLimitError(
            f"character oracle caps 2^d*max(d,r)^2 at {ORACLE_MAX_WORK}, "
            f"got d={short_decimal(d)}, r={short_decimal(rmax)}"
        )
    totals = _monotone_totals if monotone else _classical_totals
    width = rmax + 1
    sums: list[dict[Partition, list[int]]] = [{}]  # sums[n][kind][r]: totals on n points
    trans: dict[tuple[Partition, int], int] = {}
    rows: dict[Partition, list[int]] = {}
    for n in range(1, d + 1):
        by_kind: dict[Partition, list[int]] = {}
        for (kind, r), c in totals(n, rmax).items():
            by_kind.setdefault(kind, [0] * width)[r] = c
        sums.append(by_kind)
        for alpha in partitions(n):
            row = list(by_kind.get(alpha, [0] * width))
            for nsub, ways, splits in _reduction_plan(alpha):
                for beta, delta in splits:
                    rest = sums[n - nsub].get(delta)
                    if rest is None:
                        continue
                    for rsub, t in enumerate(rows[beta]):
                        if not t:
                            continue
                        wt = ways * t
                        c = 1  # the interleavings C(rsub + k, rsub), stepped along k
                        for k, a in enumerate(rest[: width - rsub]):
                            if k and not monotone:
                                c = c * (rsub + k) // k
                            if a:
                                row[rsub + k] -= wt * c * a
            rows[alpha] = row
            for r, val in enumerate(row):
                trans[(alpha, r)] = val
                # a count lives at r = 2g - 2 + |alpha| + len(alpha), g >= 0
                excess = r + 2 - n - len(alpha)
                if val < 0 or (val and (excess < 0 or excess % 2)):
                    raise AssertionError(
                        f"count {val} at {tuple(alpha)}, r={r} is negative or off Riemann-Hurwitz"
                    )
    return trans


# -- public operations --------------------------------------------------


def _count(alpha, r: int, monotone: bool) -> int:
    alpha = Partition(alpha)
    if alpha.size < 1:
        raise ValueError("alpha must be a partition of d >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    return transitive_counts(alpha.size, r, monotone).get((alpha, r), 0)


def count_monotone_transitive(alpha, r: int) -> int:
    """Number of transitive monotone factorizations of type (alpha, r)."""
    return _count(alpha, r, True)


def count_classical_transitive(alpha, r: int) -> int:
    """Number of transitive factorizations of type (alpha, r), monotone or not."""
    return _count(alpha, r, False)
