"""Brute-force counting of transitive transposition factorizations in S_d.

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
* a dynamic program over blocks of transpositions (_layered_totals) that
  counts sequences without the transitivity condition, followed by an
  inclusion-exclusion over the orbit set partition.  The DP works on
  ranks: the permutations of n points are numbered once (_ranked), each
  transposition becomes a list mapping rank(p) to rank(p * (a b)), and a
  layer of products is a dense list of counts indexed by rank.  Disjoint-support
  monotone sequences merge in exactly one monotone interleaving (their
  b-values are disjoint sets), so the reduction needs no interleaving
  factors; the classical reduction needs the binomial C(r, r') to choose
  time slots.

Both walk the same blocks: one block J_b = {(a b) : a < b} per b, in order,
for monotone sequences (the terms of h_r(J_2, ..., J_d)), and one block of
every transposition for classical ones (the terms of (J_2 + ... + J_d)^r).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .partitions import Partition, partitions, subpartitions

DP_MAX_POINTS = 8
# Bound on d!*r^2: the DP extends up to d! ranks through r layers per block,
# and the inclusion-exclusion is quadratic in r.  Cold tables at the edge
# r = isqrt(DP_MAX_WORK // d!) (one process each, 2-vCPU VM): the slowest is
# classical (4, 1639) at 4.9-5.4 s, 26 MB peak RSS; classical (5, 733) 2.2 s,
# (7, 113) 1.2 s, (8, 40) 3.1-3.9 s (81 MB, the largest RSS); monotone at most
# 2.4 s, at (8, 40).  The constant was set when the classical reduction
# recomputed each binomial C(r, r') and (4, 1639) took 39-41 s; it has not
# been re-measured since the binomials are stepped along r.
DP_MAX_WORK = factorial(8) * 40**2
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

    The block walk of _layered_totals on states (product, labels), where a
    point's label is the smallest point of its component under the edges
    so far: layers[r] maps label -> product -> number of sequences, and a
    transposition (a b) composes the product and merges the labels of a and
    b.  The edges connect every point (so the group they generate, which
    contains rho, is transitive) exactly when all labels are 0.
    """
    if d > LITERAL_MAX_POINTS:
        raise ResourceLimitError(f"literal oracle refuses d={d} > {LITERAL_MAX_POINTS}")
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


# -- route 2: DP totals + set-partition inclusion-exclusion ------------


@lru_cache(maxsize=None)
def _ranked(n: int) -> tuple[list, dict]:
    """The permutations of n points in lexicographic order, so that rank 0 is
    the identity: the cycle type of each rank, and for each transposition
    (a b), a < b, its action, the list rank(p * (a b)) indexed by rank(p).
    A permutation is a bytes of its images here, so p * (a b), which swaps
    the values a and b, is one translate."""
    perms = [bytes(p) for p in permutations(range(n))]
    rank = {p: i for i, p in enumerate(perms)}
    actions = {}
    for b in range(1, n):
        for a in range(b):
            swap = bytes.maketrans(bytes((a, b)), bytes((b, a)))
            actions[a, b] = [rank[p.translate(swap)] for p in perms]
    return [cycle_type(p) for p in perms], actions


def _layered_totals(n: int, rmax: int, blocks) -> dict:
    """Non-transitive counts on n points, (type(product), r) -> count, of the
    sequences made of a run of transpositions (a, b) from each block in turn.

    layers[r][i] counts the sequences of r transpositions whose product has
    rank i.  A block extends the layers in place with r ascending, so that
    layers[r - 1] already holds the runs from this block that the next (a b)
    may follow.
    """
    types, actions = _ranked(n)
    layers = [[0] * len(types) for _ in range(rmax + 1)]
    layers[0][0] = 1
    for block in blocks:
        acts = [actions[t] for t in block]
        for r in range(1, rmax + 1):
            layer = layers[r]
            nonzero = [(i, c) for i, c in enumerate(layers[r - 1]) if c]
            for act in acts:
                for i, c in nonzero:
                    layer[act[i]] += c
    out: dict[tuple[Partition, int], int] = {}
    for r, layer in enumerate(layers):
        for kind, cnt in zip(types, layer):
            if cnt:
                out[kind, r] = out.get((kind, r), 0) + cnt
    return out


@lru_cache(maxsize=None)
def _monotone_totals(n: int, rmax: int) -> dict:
    """h_r(J_2, ..., J_n) with J_b = sum_{a<b} (a b): one block per b, in order."""
    return _layered_totals(n, rmax, [[(a, b) for a in range(b)] for b in range(1, n)])


@lru_cache(maxsize=None)
def _classical_totals(n: int, rmax: int) -> dict:
    """(J_2 + ... + J_n)^r: one block of every transposition."""
    return _layered_totals(n, rmax, [[(a, b) for b in range(1, n) for a in range(b)]])


@lru_cache(maxsize=None)
def transitive_counts(d: int, rmax: int, monotone: bool) -> dict:
    """Transitive counts (alpha, r) -> int for every |alpha| <= d, r <= rmax,
    by inverting the orbit decomposition of the non-transitive totals.  A
    negative count, or a nonzero one off Riemann-Hurwitz, raises
    AssertionError; d > DP_MAX_POINTS or d!*rmax^2 > DP_MAX_WORK raises
    ResourceLimitError before any work.

    A sequence on {1..d} splits over its orbit set partition into transitive
    pieces.  Fixing the block containing the point 1 (size n', type beta',
    r' transpositions) and letting the complement carry an arbitrary
    sequence gives

        A_d(alpha, r) = sum C(d-1, n'-1) [interleave] T(beta', r') A(alpha-beta', r-r'),

    with [interleave] = 1 for monotone sequences (b-values of distinct
    blocks are distinct, so exactly one merge is monotone) and C(r, r')
    classically.  Solving for the n' = d term yields T_d.
    """
    if d > DP_MAX_POINTS:
        raise ResourceLimitError(f"DP oracle refuses d={d} > {DP_MAX_POINTS}")
    if factorial(d) * rmax * rmax > DP_MAX_WORK:
        raise ResourceLimitError(
            f"DP oracle caps d!*r^2 at {DP_MAX_WORK}, got d={d}, r={rmax}: "
            f"{factorial(d) * rmax * rmax}"
        )
    totals = _monotone_totals if monotone else _classical_totals
    trans: dict[tuple[Partition, int], int] = {}
    for n in range(1, d + 1):
        tot = totals(n, rmax)
        for alpha in partitions(n):
            row = [tot.get((alpha, r), 0) for r in range(rmax + 1)]
            for nsub in range(1, n):
                rest = totals(n - nsub, rmax)
                ways = comb(n - 1, nsub - 1)
                for beta, delta in subpartitions(alpha, nsub):
                    for rsub in range(rmax + 1):
                        t = trans.get((beta, rsub), 0)
                        if not t:
                            continue
                        wt = ways * t
                        c = 1  # the interleavings C(r, rsub), stepped along r
                        for r in range(rsub, rmax + 1):
                            if r > rsub and not monotone:
                                c = c * r // (r - rsub)
                            a = rest.get((delta, r - rsub), 0)
                            if a:
                                row[r] -= wt * c * a
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
