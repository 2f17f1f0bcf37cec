"""Integer partitions: the index set of every Hurwitz number.

A partition is kept as a weakly decreasing tuple of positive parts; the
empty partition () is the unique partition of 0 and indexes constant terms
of generating series.  The package's value classes share the ``Record`` and
``Frozen`` bases defined here.
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

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """The partition written as comma-separated parts in decimal digits,
        spaces around a part allowed; "" is the empty partition.  Every field
        must be a part, so "3,,1", "3," and whitespace alone raise ValueError."""
        return cls(decimal_int(p) for p in text.split(",")) if text else cls()


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


def short_decimal(n: int) -> str:
    """n in decimal if it has at most 100 digits, else its bit length: a
    refusal naming n stays one short line, and str() refuses past 4,300."""
    return str(n) if abs(n) < 10**100 else f"a {n.bit_length()}-bit integer"


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


class Record:
    """Base of a class whose fields are its __slots__, set in order by _set
    in __init__: a repr and equality by fields, as a dataclass has."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A Record that hashes by its fields and refuses assignment and
    deletion once __init__ has set them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__
