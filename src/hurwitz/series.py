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
the canonical key, whether a key fits the bounds, the `_product` loop over
the term pairs of two operands, and how many constant-free factors a
nonzero product can have.  Every product is `MSeries.__mul__` around one
`_product`.  Every power is one `_power_sum`, sum_m c(m) x^m over the
powers of a constant-free x: `pow(n)` is the binomial sum
c0^n sum_m binom(n, m) t^m with t = self/c0 - 1, which stops at m = n for
n >= 0, `inverse` is `pow(-1)`, and `exp` and `log_geometric` are their
own coefficient sequences.  `MSeries._product` and `linear` weigh a key by
the sum of its parts and take ``max_weight`` as the largest weight that
fits.  `qyseries.BiSeries` is this class graded by (q-weight, y1-degree,
y2-degree): it overrides the bounds, key, fit and product hooks to add
two catalytic y-degrees and shares the rest.
`DivisorSeries` keeps only the monomials that divide one fixed monomial
q_alpha; its `_product` reads the key of each term pair from
`join_table(alpha)`, built once per alpha, in place of sorting the joined
parts.

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
from math import comb, factorial, gcd, lcm
from operator import itemgetter


def _key(mono) -> tuple[int, ...]:
    return tuple(sorted(mono, reverse=True))


def _binomial(n: int, m: int) -> int:
    """binom(n, m) for any integer n and m >= 0."""
    return comb(n, m) if n >= 0 else (-1) ** m * comb(m - n - 1, m)


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
    def _product(a: dict, b: dict, bounds) -> dict:
        """The unreduced numerators of the product of the terms ``a`` and
        ``b``, ``a`` the smaller: the inner operand, sorted by weight once,
        is cut at the first term that no longer fits."""
        cap = bounds[0]
        inner = sorted(((sum(k), k, n) for k, n in b.items()), key=itemgetter(0))
        out: dict = {}
        get = out.get
        for k1, n1 in a.items():
            room = cap - sum(k1)
            for w2, k2, n2 in inner:
                if w2 > room:
                    break
                key = _key(k1 + k2)
                out[key] = get(key, 0) + n1 * n2
        return out

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
        # iterate the smaller operand outside
        a, b = self.nums, other.nums
        if len(a) > len(b):
            a, b = b, a
        out = self._product(a, b, bounds)
        return self._new(bounds, *_canonical(out, self.den * other.den))

    def _power_sum(self, coeff, top=None) -> "MSeries":
        """sum_m coeff(m) x^m for this constant-free series x, m <= top:
        exact after _depth(bounds) terms, since each factor raises the
        grading."""
        last = self._depth(self.bounds)
        if top is not None:
            last = min(last, top)
        power = self.constant(1, *self.bounds)
        out = power.scale(coeff(0))
        for m in range(1, last + 1):
            power = power * self
            if power.is_zero():
                break
            out = out + power.scale(coeff(m))
        return out

    def pow(self, n: int) -> "MSeries":
        """Integer power: c0^n sum_m binom(n, m) t^m, t = self/c0 - 1, a sum
        that stops at m = n for n >= 0.  A constant-free series has x^n for
        n >= 0 only."""
        c0 = self.constant_term()
        if not c0:
            if n < 0:
                raise ZeroDivisionError("series has zero constant term")
            return self._power_sum(lambda m: int(m == n), n)
        t = self.scale(1 / c0) - self.constant(1, *self.bounds)
        return t._power_sum(lambda m: _binomial(n, m), n if n >= 0 else None).scale(c0**n)

    def inverse(self) -> "MSeries":
        """Multiplicative inverse; constant term must be nonzero."""
        return self.pow(-1)

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


@lru_cache(maxsize=64)
def join_table(alpha: tuple[int, ...]) -> dict[tuple, dict[tuple, tuple]]:
    """The products that divide q_alpha: for each divisor k1 of q_alpha,
    the map from each divisor k2 with k1 k2 dividing q_alpha to the key of
    k1 k2.  The keys are the tuples of ``divisors(alpha)``."""
    divs = {k: k for k in divisors(alpha)}
    return {
        k1: {k2: divs[key] for k2 in divs if (key := _key(k1 + k2)) in divs}
        for k1 in divs
    }


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

    def _new(self, bounds, nums: dict, den: int = 1) -> "DivisorSeries":
        # bounds[0] is already a weakly decreasing tuple: no __init__ again
        out = DivisorSeries.__new__(DivisorSeries)
        out.alpha = bounds[0]
        out.max_weight = sum(out.alpha)
        out.nums = nums
        out.den = den
        return out

    @staticmethod
    def _fits(key, bounds) -> bool:
        return key in divisors(bounds[0])

    @staticmethod
    def _product(a: dict, b: dict, bounds) -> dict:
        table = join_table(bounds[0])
        out: dict = {}
        get = out.get
        for k1, n1 in a.items():
            row = table[k1]
            for k2, n2 in b.items():
                key = row.get(k2)
                if key is not None:
                    out[key] = get(key, 0) + n1 * n2
        return out

    @staticmethod
    def _depth(bounds) -> int:
        return len(bounds[0])

    def __repr__(self) -> str:
        return f"DivisorSeries(alpha={self.alpha}, {len(self.nums)} terms)"
