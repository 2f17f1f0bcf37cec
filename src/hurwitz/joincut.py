"""Degree-by-degree solving of the monotone and classical join-cut equations.

Both equations share the right-hand side operator

    R[S] = 1/2 sum_{i,j>=1} ( (i+j) p_i p_j d/dp_{i+j} S
                              + i j p_{i+j} d^2/dp_i dp_j S
                              + i j p_{i+j} (d/dp_i S)(d/dp_j S) ),

and differ on the left: the monotone equation reads
(1/2t)(z dH/dz - z p_1) = R[H] with [z^0]H = 0, the classical one
dH/dt = R[H] with [t^0]H = z p_1 (and a t^r/r! grading).

Extracted coefficient recurrence (monotone).  Write the z^d t^r slice as
sum_alpha c_r(alpha) p_alpha with c_r(alpha) = H^r(alpha)/d!.  Matching
the coefficient of z^d t^r p_alpha on both sides gives, for every alpha
of size d and r >= 0,

    c_{r+1}(alpha) = (A + B + C) / d, where

    A = sum over ordered pairs (i, j) contained in alpha as a multiset
        (i+j) m_{i+j}(beta) c_r(beta),          beta = alpha - {i,j} + {i+j}
    B = sum over parts s of alpha and ordered (i, j) with i + j = s
        i j m_i(beta) (m_j(beta) - [i==j]) c_r(beta),
                                                beta = alpha - {s} + {i,j}
    C = sum over parts s of alpha, ordered (i, j) with i + j = s,
        ordered splits mu1 + mu2 = alpha - {s} and r' + r'' = r
        i j m_i(beta1) m_j(beta2) c_{r'}(beta1) c_{r''}(beta2),
                         beta1 = mu1 + {i}, beta2 = mu2 + {j},

with m_k() the multiplicity of the part k.  The t^0 slice is c_0((1)) = 1
and zero elsewhere.  The same A, B, C drive the classical table on
c~_r(alpha) = H^r(alpha)/(d! r!), with left side (r+1) c~_{r+1}(alpha).

The recurrence is property-tested against a literal forward evaluation of
the PDE residual on truncated series (tests/test_joincut.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import Partition, partitions, subpartitions

Slice = dict[Partition, Fraction]


def _cut_join_linear(alpha: Partition, slice_r: Slice) -> Fraction:
    """A + B of the recurrence (terms linear in the same slice)."""
    total = Fraction(0)
    mult = alpha.multiplicities()
    # A: merge two parts i, j of alpha into i+j in the source beta
    vals = sorted(mult)
    for pos, i in enumerate(vals):
        for j in vals[pos:]:
            if i == j and mult[i] < 2:
                continue
            beta = alpha.remove(i).remove(j).add(i + j)
            c = slice_r.get(beta)
            if not c:
                continue
            ways = 1 if i == j else 2  # ordered pairs (i,j) and (j,i)
            total += ways * (i + j) * beta.multiplicities()[i + j] * c
    # B: split one part s of alpha into i + j in the source beta
    for s in mult:
        for i in range(1, s):
            j = s - i
            if i > j:
                break
            beta = alpha.remove(s).add(i).add(j)
            c = slice_r.get(beta)
            if not c:
                continue
            bm = beta.multiplicities()
            if i == j:
                total += i * j * bm[i] * (bm[i] - 1) * c
            else:
                total += 2 * i * j * bm[i] * bm[j] * c
    return total


def _cut_join_product(alpha: Partition, slices_lo: list[Slice]) -> Fraction:
    """C of the recurrence: the quadratic term, convolved over t-slices.

    slices_lo is the list of pairs (slice_r', slice_r'') to convolve, i.e.
    the caller passes [(S_0, S_r), (S_1, S_{r-1}), ...] as a list of
    2-tuples.
    """
    total = Fraction(0)
    for s in set(alpha):
        rest = alpha.remove(s)
        for i in range(1, s):
            j = s - i
            for mu1, mu2 in _splits(rest):
                beta1 = mu1.add(i)
                beta2 = mu2.add(j)
                w = (
                    i
                    * j
                    * beta1.multiplicities()[i]
                    * beta2.multiplicities()[j]
                )
                for s1, s2 in slices_lo:
                    c1 = s1.get(beta1)
                    if not c1:
                        continue
                    c2 = s2.get(beta2)
                    if not c2:
                        continue
                    total += w * c1 * c2
    return total


@lru_cache(maxsize=None)
def _splits(alpha: Partition) -> tuple[tuple[Partition, Partition], ...]:
    """All ordered multiset splits mu1 + mu2 = alpha."""
    out = []
    for size in range(alpha.size + 1):
        out.extend(subpartitions(alpha, size))
    return tuple(out)


@dataclass
class TruncatedH:
    """Hurwitz numbers H^r(alpha) for |alpha| <= D, r <= R, exact integers."""

    D: int
    R: int
    monotone: bool
    counts: dict[tuple[Partition, int], int] = field(default_factory=dict)

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


def _solve(D: int, R: int, monotone: bool) -> TruncatedH:
    alphas = [a for d in range(1, D + 1) for a in partitions(d)]
    # t^0 slice: the one-point seed for both families
    slices: list[Slice] = [{Partition((1,)): Fraction(1)}]
    for r in range(R):
        new: Slice = {}
        pair_plan = [(slices[rp], slices[r - rp]) for rp in range(r + 1)]
        for alpha in alphas:
            lin = _cut_join_linear(alpha, slices[r])
            quad = _cut_join_product(alpha, pair_plan)
            if monotone:
                val = (lin + quad) / alpha.size
            else:
                val = (lin + quad) / (2 * (r + 1))
            if val:
                new[alpha] = val
        slices.append(new)
    table = TruncatedH(D, R, monotone)
    for r, sl in enumerate(slices):
        for alpha, c in sl.items():
            h = c * factorial(alpha.size)
            if not monotone:
                h *= factorial(r)
            if h.denominator != 1:
                raise AssertionError(f"non-integral count at {tuple(alpha)}, r={r}: {h}")
            if h:
                table.counts[(alpha, r)] = h.numerator
    return table


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
