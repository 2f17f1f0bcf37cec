"""Integer partitions: the index set of every Hurwitz number.

A partition is kept as a weakly decreasing tuple of positive parts; the
empty partition () is the unique partition of 0 and indexes constant terms
of generating series.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial


class Partition(tuple):
    """A weakly decreasing tuple of positive integer parts."""

    def __new__(cls, parts=()):
        parts = tuple(sorted(parts, reverse=True))
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers, got {parts!r}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        """d = sum of the parts."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


def decimal_int(text: str, signed: bool = False) -> int:
    """The int that ``text`` writes in ASCII decimal digits, with a leading
    '-' if ``signed``; spaces around it are allowed.  int() would also take
    '+', '_' separators and non-ASCII digits: each raises ValueError here."""
    digits = text.strip()
    if signed and digits.startswith("-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not written in decimal digits")
    return int(text)


def aut_order(alpha) -> int:
    """Order of the automorphism group: product of multiplicity factorials."""
    out = 1
    for m in Counter(alpha).values():
        out *= factorial(m)
    return out


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (Partition(),)
    out = []

    def descend(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            descend(remaining - p, p, prefix + (p,))

    descend(n, n, ())
    return tuple(out)


def subpartitions(alpha, size: int):
    """Distinct sub-multisets of ``alpha`` whose parts sum to ``size``.

    Yields (sub, complement) pairs of Partitions.  Used by the
    orbit/set-partition reduction in the factorization oracle.
    """
    alpha = Partition(alpha)
    mults = sorted(Counter(alpha).items())
    values = [v for v, _ in mults]
    ranges = [range(m + 1) for _, m in mults]
    for choice in product(*ranges):
        if sum(v * c for v, c in zip(values, choice)) != size:
            continue
        sub = []
        comp = []
        for (v, m), c in zip(mults, choice):
            sub.extend([v] * c)
            comp.extend([v] * (m - c))
        yield Partition(sub), Partition(comp)

