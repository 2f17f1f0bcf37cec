"""Closed shapes of the genus-specific generating functions.

A genus-g (g >= 2) monotone generating function is a rational form

    -c_0 + sum_alpha c_alpha eta_alpha (1 - eta)^{-(len(alpha) + 2g - 2)},

where the sum includes the empty partition (the c_0 (1-eta)^{-(2g-2)} term)
and runs over |alpha| <= 3g - 3.  Genus one is the log form
a log(1/(1-eta)) + b log(1/(1-gamma)).  The classical analogues use the
phi/delta series; classical forms carry no constant family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import Partition


@dataclass(frozen=True)
class LogForm:
    """a*log(1/(1-eta)) + b*log(1/(1-gamma))."""

    coeff_eta: Fraction
    coeff_gamma: Fraction


@dataclass(frozen=True)
class RationalForm:
    """Genus-g rational form; terms maps alpha -> c_alpha, empty key included."""

    genus: int
    terms: dict = field(default_factory=dict)
    classical: bool = False

    def __post_init__(self):
        clean = {Partition(a): Fraction(c) for a, c in self.terms.items() if c}
        object.__setattr__(self, "terms", clean)
        if self.genus < 2:
            raise ValueError("rational forms exist for genus >= 2")
        bound = 3 * self.genus - 3
        for a in clean:
            if a.size > bound:
                raise ValueError(f"|{a}| exceeds the degree bound {bound}")

    @property
    def constant(self) -> Fraction:
        """Constant term of the generating function: -c_0 (0 classically)."""
        if self.classical:
            return Fraction(0)
        return -self.terms.get(Partition(), Fraction(0))

    def coefficient(self, alpha) -> Fraction:
        return self.terms.get(Partition(alpha), Fraction(0))

    def denominator_power(self, alpha) -> int:
        return len(Partition(alpha)) + 2 * self.genus - 2

    def sorted_terms(self):
        for a in sorted(self.terms, key=lambda a: (a.size, a.length, a)):
            yield a, self.terms[a]
