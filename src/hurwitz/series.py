"""Truncated sparse formal power series with integer numerators over one
denominator: the one graded kernel.

An `MSeries` lives in Q[[v_1, v_2, ...]] for one indexed family of
variables (the p's or the q's -- the engine is basis-agnostic) and is
graded by weight: the variable with index k has weight k.  A monomial is a
weakly decreasing tuple of indices, so monomials are in bijection with
partitions and the weight of a monomial is the size of its partition.
Everything is truncated at a fixed maximum weight.  The operands of +, -
and * share one type and one grading: two gradings raise ValueError, and
scalars go through `scale` and `constant`.

A series is stored as integer numerators over one common denominator:
``nums`` maps each key to an int and ``den`` is a positive int, the
coefficient of a key being nums[key] / den.  Every operation returns the
canonical form: no zero numerator, gcd(den, *nums) == 1, and den == 1 for
zero.  A rational series has exactly one such form, so ``==`` stays exact
value equality.  The kernels work on the ints and reduce once per result:
a product's numerators are sums of n1 * n2 over den1 * den2, and a sum is
taken over the lcm of the two denominators.  ``coeffs`` is the
Fraction-valued read view; its Fractions are built on access and never
stored.

The arithmetic here (cleaning, +, -, scale, *, ==, pow, inverse, exp
and log) reads the grading only through a few hooks: the bounds tuple,
the canonical key, whether a key fits the bounds, the join of two keys
under a product, and how many constant-free factors a nonzero product can
have.  The product and `linear` weigh a key by the sum of its parts and
take ``max_weight`` as the largest weight that fits.
`qyseries.BiSeries` is this class graded by (q-weight, y1-degree,
y2-degree): it overrides the bounds, key and fit hooks to add two
catalytic y-degrees and shares the rest, except that it multiplies by
its own loop, grouped by q-monomial.
`DivisorSeries` keeps only the monomials that divide one fixed monomial
q_alpha.

`ring.RingElement` stays outside this kernel on purpose, and so does its
normaliser: this module keeps its own `_canonical` although
`ring._reduced` does the same job.  The literal q/y-series operators of
`qyseries` are checked against the ring operators, and that check only
means something while its two sides use independent arithmetic: a defect
in a shared normaliser would corrupt both sides alike and still pass.
The ring's coefficient representation is also free to change on its own.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd, lcm
from operator import itemgetter


def _key(mono) -> tuple[int, ...]:
    return tuple(sorted(mono, reverse=True))


def _canonical(nums: dict, den: int) -> tuple[dict, int]:
    """The canonical form of the numerators ``nums`` over a positive int
    ``den``: no zero numerator, gcd(den, *nums) == 1, den == 1 for zero.
    Takes ownership of ``nums``."""
    for k in [k for k, n in nums.items() if not n]:
        del nums[k]
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    return nums, den


class Coeffs(Mapping):
    """Read-only view key -> Fraction coefficient of a series."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, key) -> bool:
        return key in self._nums


class MSeries:
    """Weight-truncated power series; immutable by convention."""

    __slots__ = ("max_weight", "nums", "den")

    _ONE = ()  # the key of the constant term

    def __init__(self, max_weight: int, coeffs=None):
        if max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        self.max_weight = max_weight
        self.nums: dict = {}
        self.den = 1
        if coeffs:
            bounds = self.bounds
            clean: dict = {}
            for key, c in coeffs.items():
                key = self._canon(key)
                if self._fits(key, bounds):
                    # keys that differ only in the order of their parts add up
                    clean[key] = clean.get(key, 0) + Fraction(c)
            clean = {k: c for k, c in clean.items() if c}
            # reduced fractions over the lcm of their denominators are canonical
            den = lcm(*(c.denominator for c in clean.values()))
            self.nums = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
            self.den = den

    @property
    def coeffs(self) -> Coeffs:
        """The coefficients as Fractions, computed on access."""
        return Coeffs(self.nums, self.den)

    # -- the grading ---------------------------------------------------

    @property
    def bounds(self) -> tuple[int, ...]:
        return (self.max_weight,)

    _canon = staticmethod(_key)

    @staticmethod
    def _fits(key, bounds) -> bool:
        return sum(key) <= bounds[0]

    @staticmethod
    def _join(k1, k2, bounds):
        """Key of the product of two terms whose weights fit, or None."""
        return _key(k1 + k2)

    @staticmethod
    def _depth(bounds) -> int:
        """A bound on the number of constant-free factors whose product can
        be nonzero: each factor raises the grading by at least one."""
        return sum(bounds)

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, value, *bounds) -> "MSeries":
        value = Fraction(value)
        out = cls(*bounds)
        if value:
            out.nums = {cls._ONE: value.numerator}
            out.den = value.denominator
        return out

    def linear(self, coeff_of_index) -> "MSeries":
        """Series sum_k c(k) v_k in this series' grading, c a callable on k."""
        terms = {(k,): coeff_of_index(k) for k in range(1, self.max_weight + 1)}
        return type(self)(*self.bounds, terms)

    def _new(self, bounds, nums: dict, den: int = 1) -> "MSeries":
        """A series of this type from numerators in canonical form."""
        out = type(self)(*bounds)
        out.nums = nums
        out.den = den
        return out

    # -- basic queries -----------------------------------------------

    def __getitem__(self, key) -> Fraction:
        return Fraction(self.nums.get(self._canon(key), 0), self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(self._ONE, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.bounds == other.bounds
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self) -> str:
        n = len(self.nums)
        return f"MSeries(weight<={self.max_weight}, {n} terms)"

    # -- arithmetic ---------------------------------------------------

    def _shared_bounds(self, other: "MSeries") -> tuple:
        """The one grading of ``self`` and ``other``, or an error."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.bounds != self.bounds:
            raise ValueError(f"cannot combine gradings {self.bounds} and {other.bounds}")
        return self.bounds

    def __add__(self, other) -> "MSeries":
        bounds = self._shared_bounds(other)
        den = lcm(self.den, other.den)
        f = den // self.den
        out = {k: n * f for k, n in self.nums.items()} if f != 1 else dict(self.nums)
        f = den // other.den
        get = out.get
        for key, n in other.nums.items():
            out[key] = get(key, 0) + n * f
        return self._new(bounds, *_canonical(out, den))

    def __neg__(self) -> "MSeries":
        return self._new(self.bounds, {k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other) -> "MSeries":
        return self + (-other)

    def scale(self, value) -> "MSeries":
        value = Fraction(value)
        if not value:
            return self._new(self.bounds, {})
        p = value.numerator
        nums = {k: p * n for k, n in self.nums.items()}
        return self._new(self.bounds, *_canonical(nums, self.den * value.denominator))

    def __mul__(self, other) -> "MSeries":
        bounds = self._shared_bounds(other)
        cap, join = self.max_weight, self._join
        # iterate the smaller operand outside; the inner one, sorted by
        # weight once, is cut at the first term that no longer fits
        a, b = self.nums, other.nums
        if len(a) > len(b):
            a, b = b, a
        inner = sorted(((sum(k), k, n) for k, n in b.items()), key=itemgetter(0))
        out: dict = {}
        get = out.get
        for k1, n1 in a.items():
            room = cap - sum(k1)
            for w2, k2, n2 in inner:
                if w2 > room:
                    break
                key = join(k1, k2, bounds)
                if key is not None:
                    out[key] = get(key, 0) + n1 * n2
        return self._new(bounds, *_canonical(out, self.den * other.den))

    def _power_sum(self, coeff) -> "MSeries":
        """sum_m coeff(m) x^m for this constant-free series x: exact after
        _depth(bounds) terms, since each factor raises the grading."""
        power = self.constant(1, *self.bounds)
        out = power.scale(coeff(0))
        for m in range(1, self._depth(self.bounds) + 1):
            power = power * self
            if power.is_zero():
                break
            out = out + power.scale(coeff(m))
        return out

    def pow(self, n: int) -> "MSeries":
        """Integer power; negative n requires an invertible constant term."""
        if n < 0:
            return self.inverse().pow(-n)
        result = self.constant(1, *self.bounds)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "MSeries":
        """Multiplicative inverse; constant term must be nonzero."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        # 1/(c0 (1 + t)) with t = self/c0 - 1 of positive degree: an
        # alternating geometric sum
        t = self.scale(1 / c0) - self.constant(1, *self.bounds)
        return t._power_sum(lambda m: (-1) ** m).scale(1 / c0)

    def exp(self) -> "MSeries":
        """exp of a constant-free series."""
        if self.constant_term() != 0:
            raise ValueError("exp needs a constant-free series")
        return self._power_sum(lambda m: Fraction(1, factorial(m)))

    def log_geometric(self) -> "MSeries":
        """log(1/(1 - x)) = sum_m x^m / m for a constant-free series x."""
        if self.constant_term() != 0:
            raise ValueError("log needs a constant-free series")
        return self._power_sum(lambda m: Fraction(1, m) if m else 0)


@lru_cache(maxsize=64)
def divisors(alpha: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Every sub-multiset of the weakly decreasing tuple alpha, each as a
    weakly decreasing tuple: the monomials that divide q_alpha."""
    counts = sorted(Counter(alpha).items(), reverse=True)
    return frozenset(
        sum(((k,) * e for (k, _), e in zip(counts, exps)), ())
        for exps in product(*(range(m + 1) for _, m in counts))
    )


class DivisorSeries(MSeries):
    """`MSeries` graded by divisibility: only the monomials that divide
    q_alpha, for one fixed partition alpha, are kept.

    Their complement is a monomial ideal (a multiple of a non-divisor is a
    non-divisor), so dropping it is the quotient map onto
    Q[q] / (monomials not dividing q_alpha).  That map is a ring
    homomorphism: it commutes with +, * and hence with pow, inverse, exp
    and log, and every coefficient it keeps is the exact coefficient of the
    full series.  A product of constant-free factors has at least one part
    per factor, so one of more than len(alpha) factors is zero.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha, coeffs=None):
        self.alpha = _key(alpha)
        super().__init__(sum(self.alpha), coeffs)

    @property
    def bounds(self) -> tuple[tuple[int, ...]]:
        return (self.alpha,)

    @staticmethod
    def _fits(key, bounds) -> bool:
        return key in divisors(bounds[0])

    @staticmethod
    def _join(k1, k2, bounds):
        key = _key(k1 + k2)
        return key if key in divisors(bounds[0]) else None

    @staticmethod
    def _depth(bounds) -> int:
        return len(bounds[0])

    def __repr__(self) -> str:
        return f"DivisorSeries(alpha={self.alpha}, {len(self.nums)} terms)"
