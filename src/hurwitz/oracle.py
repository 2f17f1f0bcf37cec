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
* a dynamic program on permutation ranks that counts sequences without the
  transitivity condition, followed by an inclusion-exclusion over the
  orbit set partition (transitive_counts).

The ranked DP numbers the permutations of n points once (_ranked): each
transposition becomes a list mapping rank(p) to rank(p * (a b)), and a
rank layer, the products of r transpositions, is a dense list of counts
indexed by rank.  Monotone sequences are the terms of h_r(J_2, ..., J_n),
J_b = sum_{a<b} (a b), classical ones those of (J_2 + ... + J_n)^r.

One store per family (_rank_store) holds, for each number of points n,
the totals by cycle type of every layer r reached so far, and the layers
a later growth can still read.  A request grows the store only past its
end (_grow, one layer per _step), so no table is counted twice in a
session, whatever the order of the requests:

    classical:  layers_n[r] = (every transposition) . layers_n[r - 1]
    monotone:   layers_n[r] = embed(layers_{n-1}[r]) + J_n . layers_n[r - 1]

The monotone recursion is h_r(J_2..J_n) = h_r(J_2..J_{n-1}) +
h_{r-1}(J_2..J_n) J_n: level n is level n - 1, embedded as the
permutations that fix the last point, plus the sequences whose last
transposition moves it, so a step costs n - 1 transpositions, not
C(n, 2).  A classical level keeps only its last layer; a monotone level
keeps its last layer and those the level above has not read yet (none at
the top level, DP_MAX_POINTS).  A layer and its totals are appended
together, and a growth that raises, by a bug or an interrupt, empties its
family's store before the error propagates.  The store is an lru_cache,
so cache_clear() (and verify's cold start) empties it.

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
from itertools import permutations
from math import comb, factorial

from .partitions import Partition, partitions, subpartitions

DP_MAX_POINTS = 8
# Bound on d!*r^2: a level of the DP grows through r layers of up to d!
# ranks, and the inclusion-exclusion is quadratic in r.  Cold tables at the
# edge r = isqrt(DP_MAX_WORK // d!), four runs, one process each, 2-vCPU VM:
# classical (4, 1639) 3.2-3.7 s and 23 MB peak RSS, (5, 733) 1.3-2.0 s,
# (6, 299) 0.6-0.8 s, (7, 113) 0.8-0.9 s, (8, 40) 2.4-3.1 s and 36 MB;
# monotone (4, 1639) 0.5-0.8 s, (5, 733) 0.6 s, (6, 299) 0.2-0.4 s,
# (7, 113) 0.4 s, (8, 40) 1.2-1.5 s and 39 MB, the largest RSS.  Before the
# store the same edges took up to 4.9 s (classical (4, 1639)) and 80 MB
# (classical (8, 40)).  The constant was set when classical (4, 1639) took
# 39-41 s; every edge is now far inside a 60 s budget, so it could rise.
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
def _ranked(n: int) -> tuple[list, dict, list]:
    """The permutations of n points in lexicographic order, so that rank 0 is
    the identity: the ranks of each cycle type; for each transposition
    (a b), a < b, its action, the list rank(p * (a b)) indexed by rank(p);
    and the embedding, the rank of each permutation of n - 1 points (in its
    own rank order) extended by the fixed point n - 1.  A permutation is a
    bytes of its images here, so p * (a b), which swaps the values a and b,
    is one translate."""
    perms = [bytes(p) for p in permutations(range(n))]
    rank = {p: i for i, p in enumerate(perms)}
    actions = {}
    for b in range(1, n):
        for a in range(b):
            swap = bytes.maketrans(bytes((a, b)), bytes((b, a)))
            actions[a, b] = [rank[p.translate(swap)] for p in perms]
    fixed = bytes((n - 1,))
    embed = [rank[bytes(p) + fixed] for p in permutations(range(n - 1))]
    classes: dict[Partition, list[int]] = {}
    for i, p in enumerate(perms):
        classes.setdefault(cycle_type(p), []).append(i)
    return list(classes.items()), actions, embed


@lru_cache(maxsize=None)
def _rank_store(monotone: bool) -> dict[int, tuple[list, dict]]:
    """The family's store: level n -> (by_type, layers), where by_type[r]
    maps each cycle type to the number of the family's sequences of r
    transpositions on n points whose product has that type, and layers[r]
    is the rank layer of those products, kept only while a later growth
    can read it."""
    return {}


def _step(store: dict, n: int, monotone: bool) -> None:
    """Append the next rank layer of level n, by the recursion of its
    family, and its totals by type.  Then drop the layers no later growth
    can read: this level's previous one once the level above has read it
    (at once classically, and at the top level DP_MAX_POINTS), and the
    layer r of the level below, unless it is that level's last."""
    classes, actions, embed = _ranked(n)
    by_type, layers = store[n]
    r = len(by_type)
    layer = [0] * factorial(n)
    if r == 0:
        layer[0] = 1
    else:
        if not monotone:
            acts = list(actions.values())
        else:
            acts = [actions[a, n - 1] for a in range(n - 1)]
            if n > 1:
                for i, c in zip(embed, store[n - 1][1][r]):
                    if c:
                        layer[i] = c
        nonzero = [(i, c) for i, c in enumerate(layers[r - 1]) if c]
        for act in acts:
            for i, c in nonzero:
                layer[act[i]] += c
    totals = {}
    for kind, ranks in classes:
        c = sum(map(layer.__getitem__, ranks))
        if c:
            totals[kind] = c
    by_type.append(totals)
    layers[r] = layer
    if r:
        above = store.get(n + 1)
        if not monotone or n == DP_MAX_POINTS or (above and len(above[0]) >= r):
            del layers[r - 1]
    if monotone and n > 1:
        below_by_type, below = store[n - 1]
        if r < len(below_by_type) - 1:
            del below[r]


def _grow(store: dict, n: int, rmax: int, monotone: bool) -> None:
    """Extend level n of the store to layer rmax; a monotone level first
    extends the level below it, whose layer r it reads."""
    if monotone and n > 1:
        _grow(store, n - 1, rmax, monotone)
    by_type, _ = store.setdefault(n, ([], {}))
    while len(by_type) <= rmax:
        _step(store, n, monotone)


def _totals(n: int, rmax: int, monotone: bool) -> dict:
    """Non-transitive counts on n points, (type(product), r) -> count, r <= rmax,
    read from the family's store after growing it past its end."""
    if n > DP_MAX_POINTS:
        raise ResourceLimitError(f"DP oracle refuses n={n} > {DP_MAX_POINTS}")
    store = _rank_store(monotone)
    try:
        _grow(store, n, rmax, monotone)
    except BaseException:
        store.clear()  # a level grown in part must not reach a later request
        raise
    by_type = store[n][0]
    return {(kind, r): c for r in range(rmax + 1) for kind, c in by_type[r].items()}


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
