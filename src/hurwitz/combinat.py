"""Scalar combinatorial quantities shared by all the closed formulas.

Everything here is exact: rationals are `fractions.Fraction`, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def central_binomial(k: int) -> int:
    """C(2k, k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return comb(2 * k, k)


def rising(a, k: int) -> Fraction:
    """Rising product with k factors: a (a+1) ... (a+k-1).

    For k < 0 the reciprocal convention applies:

        rising(a, k) = 1 / ((a+k) (a+k+1) ... (a-1)),

    which makes rising(a, k) * rising(a+k, m-k) == rising(a, m) hold for all
    integers.  A zero factor inside the reciprocal is a hard error: callers
    must guard, there is no meaningful value to return.
    """
    a = Fraction(a)
    if k >= 0:
        out = Fraction(1)
        for i in range(k):
            out *= a + i
        return out
    out = Fraction(1)
    for i in range(k, 0):
        f = a + i
        if f == 0:
            raise ZeroDivisionError(f"rising({a}, {k}) hits a zero factor at {a}+{i}")
        out *= f
    return 1 / out


def elem_sym_table(values) -> list[int]:
    """[e_0, ..., e_n] of n integers, all from one pass of the triangular
    recurrence e[j] += v * e[j-1]."""
    e = [1] + [0] * len(values)
    for m, v in enumerate(values, 1):
        for j in range(m, 0, -1):
            e[j] += v * e[j - 1]
    return e


@lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n extracted from the expansion of z / (e^z - 1).

    Writing z/(e^z - 1) = sum b_m z^m, dividing out the series of
    (e^z - 1)/z gives sum_{m<=n} b_m / (n-m+1)! = [n == 0]; B_m = m! b_m.
    """
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += b[j] / factorial(m - j + 1)
        b[m] = -s
    return tuple(factorial(m) * b[m] for m in range(n + 1))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2 (convention B_1 = -1/2)."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"bernoulli is defined here for even n >= 2, got {n}")
    return _bernoulli_list(n)[n]
