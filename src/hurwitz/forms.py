"""Closed shapes of the genus-specific generating functions.

A genus-g (g >= 2) monotone generating function is a rational form

    -c_0 + sum_alpha c_alpha eta_alpha (1 - eta)^{-(len(alpha) + 2g - 2)},

where the sum includes the empty partition (the c_0 (1-eta)^{-(2g-2)} term)
and runs over |alpha| <= 3g - 3.  Genus one is the log form
a log(1/(1-eta)) + b log(1/(1-gamma)).  The classical analogues use the
phi/delta series; classical forms carry no constant family.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Frozen, Partition


class LogForm(Frozen):
    """a*log(1/(1-eta)) + b*log(1/(1-gamma))."""

    __slots__ = ("coeff_eta", "coeff_gamma")

    def __init__(self, coeff_eta: Fraction, coeff_gamma: Fraction):
        self._set(coeff_eta, coeff_gamma)


class RationalForm(Frozen):
    """Genus-g rational form; terms maps alpha -> c_alpha, empty key included."""

    __slots__ = ("genus", "terms", "classical")

    def __init__(self, genus: int, terms: dict | None = None, classical: bool = False):
        clean = {Partition(a): Fraction(c) for a, c in (terms or {}).items() if c}
        if genus < 2:
            raise ValueError("rational forms exist for genus >= 2")
        bound = 3 * genus - 3
        for a in clean:
            if a.size > bound:
                raise ValueError(f"|{a}| exceeds the degree bound {bound}")
        self._set(genus, clean, classical)

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
