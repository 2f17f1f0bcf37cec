"""Degree-by-degree solving of the monotone and classical join-cut equations.

Both equations share the right-hand side operator

    R[S] = 1/2 sum_{i,j>=1} ( (i+j) p_i p_j d/dp_{i+j} S
                              + i j p_{i+j} d^2/dp_i dp_j S
                              + i j p_{i+j} (d/dp_i S)(d/dp_j S) ),

and differ on the left: the monotone equation reads
(1/2t)(z dH/dz - z p_1) = R[H] with [z^0]H = 0, the classical one
dH/dt = R[H] with [t^0]H = z p_1 (and a t^r/r! grading).

Integer recurrence.  The series carry H^r(alpha)/d! (monotone) and
H^r(alpha)/(d! r!) (classical) at z^d t^r p_alpha, d = |alpha|.  Matching
the coefficient of z^d t^r p_alpha on both sides and multiplying through
by d! (and by r! for classical) gives, for every alpha of size d and
r >= 0, an identity between integers:

    monotone:   d H^{r+1}(alpha) = A + B + C
    classical:  2 H^{r+1}(alpha) = A + B + C, where

    A = sum over ordered pairs (i, j) contained in alpha as a multiset
        (i+j) m_{i+j}(beta) H^r(beta),          beta = alpha - {i,j} + {i+j}
    B = sum over parts s of alpha and ordered (i, j) with i + j = s
        i j m_i(beta) (m_j(beta) - [i==j]) H^r(beta),
                                                beta = alpha - {s} + {i,j}
    C = sum over parts s of alpha, ordered (i, j) with i + j = s,
        ordered splits mu1 + mu2 = alpha - {s} and r' + r'' = r
        i j m_i(beta1) m_j(beta2) binom(d, |beta1|) [binom(r, r')]
        H^{r'}(beta1) H^{r''}(beta2),
                         beta1 = mu1 + {i}, beta2 = mu2 + {j},

with m_k() the multiplicity of the part k and the bracketed binomial
present for classical only.  The seed is H^0((1)) = 1, zero elsewhere.
The divisor is d (monotone) or 2 (classical).  The quotient is exact,
because H^{r+1}(alpha) counts factorizations; each division is a checked
divmod, and a nonzero remainder (a wrong weight, never a valid input)
raises AssertionError.

Genus grading.  By Riemann-Hurwitz, H^r(alpha) vanishes unless
r = 2g - 2 + |alpha| + len(alpha) for a genus g >= 0, so the solver keeps
H_g(alpha) indexed by (alpha, g).  A source of A has one part fewer and
the same genus, a source of B one part more and genus g - 1, and the two
factors of C have genera g1 + g2 = g with |beta1|, |beta2| < d.  Filling
the sizes in ascending order, each with r ascending, therefore reads only
finished entries; C convolves over g1 = 0..g instead of every pair of
t-slices, and no entry of the wrong parity or of negative genus is ever
visited.  A fill has one of two bounds, and every entry inside either
reads only entries inside it: the r bound of a table, r <= R, and the
genus bound of one value, g <= G at every size up to |alpha|.  So
H_G(alpha) needs no entry above genus G, where its r bound would fill (1)
to genus G - 1 + (|alpha| + len(alpha))/2.  The sources
of each alpha (with equal keys merged, and the two orders of a product
pair folded into one) are built once per partition, on plain tuples, with
each split of alpha - {s} and its mirror visited once.

Shared tables.  Each family keeps one store, by_genus[alpha] = [H_0(alpha),
H_1(alpha), ...], that every fill extends in place of starting again
from |alpha| = 1.  A fill walks the same loops and computes only the
entries past the end of each list: it skips a size whose lists already
reach the bound, and starts each other size at its first missing r, so
no sources are gathered for work already done.  This is exact: A and B
read the same size at r - 1, and C reads smaller sizes at r' < r, so
every entry a new one reads was filled earlier in the same pass or by an
earlier fill, whatever bound that fill had.  A TruncatedH copies its own
bounds out of the store, so a table does not depend on the order of the
solves; genus_value, the CLI's read, returns one entry and copies
nothing.  The store is itself an lru_cache, so cache_clear() (and
verify's cold start) empties it.  A fill that raises, whether by the
checked division or by an interrupt, empties its family's store before
the error propagates: the entries it stored before the raise may be
integral and still wrong, and would otherwise feed every later fill.

The recurrence is property-tested against a literal forward evaluation of
the PDE residual on truncated series, and against the Fraction slice
recurrence it replaced (tests/test_joincut.py).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import product
from math import comb

from .partitions import Partition, Record, partitions


def _with(parts: tuple, k: int) -> tuple:
    """The weakly decreasing tuple ``parts`` with one more part ``k``."""
    pos = 0
    while pos < len(parts) and parts[pos] > k:
        pos += 1
    return parts[:pos] + (k,) + parts[pos:]


def _without(parts: tuple, k: int) -> tuple:
    """The weakly decreasing tuple ``parts`` with one part ``k`` fewer."""
    pos = parts.index(k)
    return parts[:pos] + parts[pos + 1 :]


@lru_cache(maxsize=None)
def _plan(alpha: Partition) -> tuple[tuple, tuple]:
    """The sources of alpha in the integer recurrence, equal keys merged.

    Returns (linear, quadratic): linear holds (beta, weight) for A + B,
    quadratic holds (beta1, beta2, weight) for C with binom(d, |beta1|)
    folded into the weight, and each unordered pair {beta1, beta2} kept
    once (the swapped term has the same weight, so it doubles it).  The
    sources are built as plain weakly decreasing tuples and wrapped in
    Partition once, at the end.
    """
    parts = tuple(alpha)
    d = sum(parts)
    vals = sorted(set(parts), reverse=True)
    linear: dict[tuple, int] = {}
    # A: merge two parts i, j of alpha into i+j in the source beta
    for pos, i in enumerate(vals):
        for j in vals[pos:]:
            if i == j and parts.count(i) < 2:
                continue
            beta = _with(_without(_without(parts, i), j), i + j)
            ways = 1 if i == j else 2  # ordered pairs (i,j) and (j,i)
            linear[beta] = linear.get(beta, 0) + ways * (i + j) * beta.count(i + j)
    # B: split one part s of alpha into i + j in the source beta
    for s in vals:
        rest = _without(parts, s)
        for i in range(1, s // 2 + 1):
            j = s - i
            beta = _with(_with(rest, i), j)
            mi = beta.count(i)
            w = i * j * mi * (mi - 1) if i == j else 2 * i * j * mi * beta.count(j)
            linear[beta] = linear.get(beta, 0) + w
    # C: cut one part s into i + j, one on each factor; each split
    # mu1 + mu2 = alpha - {s} is made from a choice of multiplicities, and
    # only with its mirror (the complement choice, i and j swapped), which
    # adds the same term to the same key, counted by doubling the weight
    quadratic: dict[tuple, int] = {}
    for s in vals:
        rest = _without(parts, s)
        rvals = sorted(set(rest), reverse=True)
        rmult = [rest.count(v) for v in rvals]
        for choice in product(*(range(m + 1) for m in rmult)):
            complement = tuple(m - c for c, m in zip(choice, rmult))
            if complement < choice:
                continue  # visited as its mirror
            mu1 = tuple(v for v, c in zip(rvals, choice) for _ in range(c))
            mu2 = tuple(v for v, c in zip(rvals, complement) for _ in range(c))
            d1 = sum(mu1)
            self_mirror = choice == complement
            for i in range(1, s // 2 + 1 if self_mirror else s):
                j = s - i
                beta1, beta2 = _with(mu1, i), _with(mu2, j)
                w = i * j * beta1.count(i) * beta2.count(j) * comb(d, d1 + i)
                if not (self_mirror and i == j):
                    w *= 2
                key = (beta1, beta2) if beta1 <= beta2 else (beta2, beta1)
                quadratic[key] = quadratic.get(key, 0) + w
    # every key is already a weakly decreasing tuple of positive parts
    wrap = tuple.__new__
    return (
        tuple((wrap(Partition, b), w) for b, w in linear.items()),
        tuple((wrap(Partition, b1), wrap(Partition, b2), w) for (b1, b2), w in quadratic.items()),
    )


class TruncatedH(Record):
    """Hurwitz numbers H^r(alpha) for |alpha| <= D, r <= R, exact integers."""

    __slots__ = ("D", "R", "monotone", "counts")

    def __init__(self, D: int, R: int, monotone: bool):
        self._set(D, R, monotone, {})  # counts: (alpha, r) -> H^r(alpha)

    def __getitem__(self, key) -> int:
        alpha, r = key
        alpha = Partition(alpha)
        if alpha.size > self.D or r > self.R:
            raise KeyError(f"table truncated at D={self.D}, R={self.R}: {key}")
        return self.counts.get((alpha, r), 0)

    def genus_value(self, g: int, alpha) -> int:
        """H_g(alpha) via r = 2g - 2 + len(alpha) + |alpha|."""
        alpha = Partition(alpha)
        r = 2 * g - 2 + alpha.length + alpha.size
        if r < 0:
            return 0
        return self[alpha, r]


@lru_cache(maxsize=None)
def _genus_lists(monotone: bool) -> dict[Partition, list[int]]:
    """The family's store: by_genus[alpha][g] = H_g(alpha), grown by each fill."""
    return {}


def _fill(monotone: bool, D: int, top: Callable[[int], int]) -> dict[Partition, list[int]]:
    """The family's store after _extend(by_genus, D, top, monotone); a fill
    that raises empties the store first."""
    by_genus = _genus_lists(monotone)
    try:
        _extend(by_genus, D, top, monotone)
    except BaseException:
        by_genus.clear()  # a partial or wrong entry must not reach a later fill
        raise
    return by_genus


def _solve(D: int, R: int, monotone: bool) -> TruncatedH:
    by_genus = _fill(monotone, D, lambda r0: (R - r0) // 2)
    table = TruncatedH(D, R, monotone)
    alphas = [(a, a.size + len(a) - 2) for d in range(1, D + 1) for a in partitions(d)]
    for r in range(R + 1):
        for alpha, r0 in alphas:
            if r >= r0 and (r - r0) % 2 == 0:
                h = by_genus[alpha][(r - r0) // 2]
                if h:
                    table.counts[(alpha, r)] = h
    return table


def genus_value(g: int, alpha: Partition, monotone: bool) -> int:
    """H_g(alpha) from the family's store, which is filled for every
    |beta| <= |alpha| up to genus g only."""
    if g < 0 or alpha.size < 1:
        raise ValueError("need g >= 0 and a nonempty alpha")
    return _fill(monotone, alpha.size, lambda r0: g)[alpha][g]


def _extend(
    by_genus: dict[Partition, list[int]], D: int, top: Callable[[int], int], monotone: bool
) -> None:
    """Fill by_genus[alpha][g] for every |alpha| <= D and g <= top(r0), with
    r0 = |alpha| + len(alpha) - 2, computing only the entries no earlier
    fill stored.  A size whose entries are all stored is skipped, and the
    others start at their first missing r."""
    binoms = []  # binoms[n][k] = binom(n, k), grown as r first needs them
    for d in range(1, D + 1):
        divisor = d if monotone else 2
        alphas = partitions(d)
        for alpha in alphas:
            by_genus.setdefault(alpha, [])
        rows = []
        for alpha in alphas:
            r0, out = d + len(alpha) - 2, by_genus[alpha]
            stop = top(r0) + 1
            if len(out) >= stop:
                continue
            linear, quadratic = _plan(alpha)
            lin = [(by_genus[b], 0 if len(b) < len(alpha) else 1, w) for b, w in linear]
            quad = [(by_genus[b1], by_genus[b2], b1.size + len(b1) - 2, w) for b1, b2, w in quadratic]
            rows.append((alpha, r0, out, stop, lin, quad))
        if not rows:
            continue
        first = min(r0 + 2 * len(out) for _, r0, out, _, _, _ in rows)
        last = max(r0 + 2 * (stop - 1) for _, r0, _, stop, _, _ in rows)
        for r in range(first, last + 1):
            while not monotone and len(binoms) < r:
                binoms.append([comb(len(binoms), k) for k in range(len(binoms) + 1)])
            for alpha, r0, out, stop, lin, quad in rows:
                g, odd = divmod(r - r0, 2)
                if odd or g != len(out) or g >= stop:
                    continue  # no entry of alpha at r, stored already, or past the bound
                if r == 0:
                    out.append(1)  # the seed H_0((1))
                    continue
                total = 0
                for v, dg, w in lin:
                    if g >= dg:
                        total += w * v[g - dg]
                if monotone:
                    for v1, v2, _, w in quad:
                        total += w * sum(v1[g1] * v2[g - g1] for g1 in range(g + 1))
                else:
                    row = binoms[r - 1]  # binom(r - 1, r') with r' = 2 g1 + r0(beta1)
                    for v1, v2, c1, w in quad:
                        total += w * sum(row[2 * g1 + c1] * v1[g1] * v2[g - g1] for g1 in range(g + 1))
                h, rem = divmod(total, divisor)
                if rem:
                    raise AssertionError(f"non-integral count at {tuple(alpha)}, r={r}: {total}/{divisor}")
                out.append(h)


@lru_cache(maxsize=None)
def solve_monotone(D: int, R: int) -> TruncatedH:
    """Monotone Hurwitz numbers for all |alpha| <= D, r <= R via the
    monotone join-cut recurrence."""
    if D < 1 or R < 0:
        raise ValueError("need D >= 1 and R >= 0")
    return _solve(D, R, True)


@lru_cache(maxsize=None)
def solve_classical(D: int, R: int) -> TruncatedH:
    """Classical Hurwitz numbers for all |alpha| <= D, r <= R via the
    classical join-cut recurrence."""
    if D < 1 or R < 0:
        raise ValueError("need D >= 1 and R >= 0")
    return _solve(D, R, False)
