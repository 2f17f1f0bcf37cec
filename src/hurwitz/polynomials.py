"""Exact multivariate polynomials over Q and polynomial interpolation."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .partitions import Frozen


class SingularSystemError(ValueError):
    """Interpolation system has no unique solution."""


class InconsistentDataError(ValueError):
    """Interpolation data is not fit by any polynomial of the given degree."""


class PolynomialQ(Frozen):
    """Polynomial over Fraction: map exponent tuple -> coefficient."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        self._set(nvars, {tuple(e): Fraction(c) for e, c in (coeffs or {}).items() if c != 0})

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def __call__(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        total = Fraction(0)
        for expo, c in self.coeffs.items():
            term = c
            for x, e in zip(point, expo):
                term *= x**e
            total += term
        return total


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= degree, in (degree, lex) order."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            expo = [0] * nvars
            for i in combo:
                expo[i] += 1
            out.append(tuple(expo))
    return sorted(set(out), key=lambda e: (sum(e), e))


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a (possibly overdetermined) exact linear system.

    Raises SingularSystemError if the solution is not unique and
    InconsistentDataError if there is no solution.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise InconsistentDataError("no polynomial of this degree fits the data")
    if len(pivots) < n:
        raise SingularSystemError(
            f"rank {len(pivots)} < {n} unknowns: points are in special position"
        )
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][n]
    return sol


def interpolate(points, degree: int) -> PolynomialQ:
    """The unique polynomial of total degree <= degree through all points.

    ``points`` is a list of (input vector, value) pairs.  More points than
    basis monomials is fine; the extra rows must be consistent.
    """
    if not points:
        raise ValueError("need at least one point")
    nvars = len(points[0][0])
    basis = monomials_upto(nvars, degree)
    if len(points) < len(basis):
        raise SingularSystemError(
            f"{len(points)} points cannot determine {len(basis)} coefficients"
        )
    rows = []
    rhs = []
    for vec, val in points:
        vec = [Fraction(x) for x in vec]
        if len(vec) != nvars:
            raise ValueError("inconsistent point dimensions")
        row = []
        for expo in basis:
            term = Fraction(1)
            for x, e in zip(vec, expo):
                term *= x**e
            row.append(term)
        rows.append(row)
        rhs.append(Fraction(val))
    sol = solve_exact(rows, rhs)
    return PolynomialQ(nvars, dict(zip(basis, sol)))
