"""Truncated sparse formal power series over Fraction: the one graded kernel.

An `MSeries` lives in Q[[v_1, v_2, ...]] for one indexed family of
variables (the p's or the q's -- the engine is basis-agnostic) and is
graded by weight: the variable with index k has weight k.  A monomial is a
weakly decreasing tuple of indices, so monomials are in bijection with
partitions and the weight of a monomial is the size of its partition.
Everything is truncated at a fixed maximum weight; binary operations
truncate eagerly to the meet of the two bounds (for weights, their
minimum).

The arithmetic here (cleaning, +, -, scale, *, ==, truncate, the
q-derivative, pow, inverse, exp, log and the power-cached substitution
loop) reads the grading only through a few hooks: the bounds tuple, their
meet, the canonical key, the q-monomial of a key, its q-weight and the
largest q-weight that fits, whether a key fits the bounds, the join of two
keys under a product, and how many constant-free factors a nonzero product
can have.  `qyseries.BiSeries` is this class graded by (q-weight,
y1-degree, y2-degree): it overrides those hooks to add two catalytic
y-degrees, and so shares all of this code.  `DivisorSeries` keeps only the
monomials that divide one fixed monomial q_alpha.

`ring.RingElement` stays outside this kernel on purpose.  The literal
q/y-series operators of `qyseries` are checked against the ring operators,
and that check only means something while its two sides use independent
arithmetic; the ring's coefficient representation is also free to change
on its own.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from operator import itemgetter


def _key(mono) -> tuple[int, ...]:
    return tuple(sorted(mono, reverse=True))


class MSeries:
    """Weight-truncated power series; immutable by convention."""

    __slots__ = ("max_weight", "coeffs")

    _ONE = ()  # the key of the constant term

    def __init__(self, max_weight: int, coeffs=None):
        if max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        self.max_weight = max_weight
        bounds = self.bounds
        clean = {}
        for key, c in (coeffs or {}).items():
            key = self._canon(key)
            if not self._fits(key, bounds):
                continue
            c = Fraction(c)
            if c:
                clean[key] = c
        self.coeffs = clean

    # -- the grading ---------------------------------------------------

    @property
    def bounds(self) -> tuple[int, ...]:
        return (self.max_weight,)

    _canon = staticmethod(_key)

    @staticmethod
    def _q(key) -> tuple[int, ...]:
        return key

    @staticmethod
    def _with_q(key, mono):
        return mono

    @staticmethod
    def _weight(key) -> int:
        return sum(key)

    @staticmethod
    def _fits(key, bounds) -> bool:
        return sum(key) <= bounds[0]

    @staticmethod
    def _join(k1, k2, bounds):
        """Key of the product of two terms whose weights fit, or None."""
        return _key(k1 + k2)

    @staticmethod
    def _meet_bounds(b1, b2) -> tuple:
        """The bounds of a sum or product: what fits both operands."""
        return tuple(map(min, b1, b2))

    @staticmethod
    def _cap(bounds) -> int:
        """The largest q-weight of a key that fits."""
        return bounds[0]

    @staticmethod
    def _depth(bounds) -> int:
        """A bound on the number of constant-free factors whose product can
        be nonzero: each factor raises the grading by at least one."""
        return sum(bounds)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, *bounds) -> "MSeries":
        return cls(*bounds)

    @classmethod
    def constant(cls, value, *bounds) -> "MSeries":
        return cls(*bounds, {cls._ONE: Fraction(value)})

    @classmethod
    def variable(cls, k: int, max_weight: int) -> "MSeries":
        return cls(max_weight, {(k,): Fraction(1)})

    @classmethod
    def linear(cls, coeff_of_index, *bounds) -> "MSeries":
        """Series sum_k c(k) v_k with c given by a callable on k."""
        return cls(
            *bounds,
            {(k,): Fraction(coeff_of_index(k)) for k in range(1, cls._cap(bounds) + 1)},
        )

    def _new(self, bounds, coeffs: dict) -> "MSeries":
        """A series of this type from already clean coefficients."""
        out = type(self)(*bounds)
        out.coeffs = coeffs
        return out

    # -- basic queries -----------------------------------------------

    def __getitem__(self, key) -> Fraction:
        return self.coeffs.get(self._canon(key), Fraction(0))

    def coefficient(self, alpha) -> Fraction:
        """[v_alpha] of the series (alpha any partition-like iterable)."""
        return self[alpha]

    def constant_term(self) -> Fraction:
        return self.coeffs.get(self._ONE, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.bounds == other.bounds
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"MSeries(weight<={self.max_weight}, {n} terms)"

    # -- arithmetic ---------------------------------------------------

    def _meet(self, other: "MSeries") -> tuple[int, ...]:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        return self._meet_bounds(self.bounds, other.bounds)

    def _within(self, bounds) -> dict:
        """A copy of the coefficients that fit ``bounds``."""
        if bounds == self.bounds:
            return dict(self.coeffs)
        fits = self._fits
        return {k: c for k, c in self.coeffs.items() if fits(k, bounds)}

    def truncate(self, *bounds) -> "MSeries":
        if (
            len(bounds) != len(self.bounds)
            or self._meet_bounds(bounds, self.bounds) != bounds
        ):
            raise ValueError(
                f"cannot truncate bounds {self.bounds} to {bounds} (coefficients "
                "beyond a truncation are unknown)"
            )
        return self._new(bounds, self._within(bounds))

    def __add__(self, other) -> "MSeries":
        if not isinstance(other, MSeries):
            return self + self.constant(other, *self.bounds)
        bounds = self._meet(other)
        out = self._within(bounds)
        theirs = other.coeffs if other.bounds == bounds else other._within(bounds)
        for key, c in theirs.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._new(bounds, out)

    __radd__ = __add__

    def __neg__(self) -> "MSeries":
        return self._new(self.bounds, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "MSeries":
        if not isinstance(other, MSeries):
            other = self.constant(other, *self.bounds)
        return self + (-other)

    def __rsub__(self, other) -> "MSeries":
        return self.constant(other, *self.bounds) + (-self)

    def scale(self, value) -> "MSeries":
        value = Fraction(value)
        if not value:
            return self._new(self.bounds, {})
        return self._new(self.bounds, {k: value * c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "MSeries":
        if not isinstance(other, MSeries):
            return self.scale(other)
        bounds = self._meet(other)
        cap = self._cap(bounds)
        weight, join = self._weight, self._join
        # iterate the smaller operand outside; the inner one, sorted by
        # weight once, is cut at the first term that no longer fits
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        inner = sorted(((weight(k), k, c) for k, c in b.items()), key=itemgetter(0))
        out: dict = {}
        for k1, c1 in a.items():
            room = cap - weight(k1)
            if room < 0:
                continue
            for w2, k2, c2 in inner:
                if w2 > room:
                    break
                key = join(k1, k2, bounds)
                if key is None:
                    continue
                if key in out:
                    s = out[key] + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        del out[key]
                else:
                    out[key] = c1 * c2
        return self._new(bounds, out)

    __rmul__ = __mul__

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
        # alternating geometric sum, exact after _depth(bounds) terms.
        t = self.scale(Fraction(1) / c0) - 1
        out = self.constant(1, *self.bounds)
        power = out
        sign = 1
        for _ in range(self._depth(self.bounds)):
            power = power * t
            sign = -sign
            if power.is_zero():
                break
            out = out + power.scale(sign)
        return out.scale(Fraction(1) / c0)

    def derivative(self, k: int) -> "MSeries":
        """Partial derivative with respect to the index-k variable."""
        out: dict = {}
        for key, c in self.coeffs.items():
            mono = self._q(key)
            m = mono.count(k)
            if m == 0:
                continue
            rest = list(mono)
            rest.remove(k)
            key = self._with_q(key, tuple(rest))
            s = out.get(key, Fraction(0)) + m * c
            if s:
                out[key] = s
            else:
                del out[key]
        return self._new(self.bounds, out)

    def substitute(self, images: dict[int, "MSeries"]) -> "MSeries":
        """Replace each variable v_k by images[k]; indices without an image
        raise.  Substitution must not lower weights below the grading
        (every image must have zero constant term) or truncation would be
        unsound."""
        w = self.max_weight
        return self._substitute(
            images, lambda img: img.truncate(w), lambda key, c: MSeries.constant(c, w)
        )

    def _substitute(self, images, embed, term_of) -> "MSeries":
        """Sum over the terms of term_of(key, c) times images[k]^e for each
        part k of multiplicity e in the key's q-monomial.  ``embed`` carries
        an image into this series' type and bounds; each (k, e) power is
        computed once."""
        cache: dict = {}
        total = self.zero(*self.bounds)
        for key, c in self.coeffs.items():
            term = term_of(key, c)
            mono = self._q(key)
            for k in sorted(set(mono)):
                e = mono.count(k)
                if (k, e) not in cache:
                    img = images[k]
                    if img.constant_term() != 0:
                        raise ValueError("substitution images must have no constant term")
                    cache[k, e] = embed(img).pow(e)
                term = term * cache[k, e]
            total = total + term
        return total

    def exp(self) -> "MSeries":
        """exp of a constant-free series."""
        if self.constant_term() != 0:
            raise ValueError("exp needs a constant-free series")
        out = self.constant(1, *self.bounds)
        power = out
        for m in range(1, self._depth(self.bounds) + 1):
            power = power * self
            if power.is_zero():
                break
            out = out + power.scale(Fraction(1, factorial(m)))
        return out

    def log_geometric(self) -> "MSeries":
        """log(1/(1 - x)) = sum_m x^m / m for a constant-free series x."""
        if self.constant_term() != 0:
            raise ValueError("log needs a constant-free series")
        out = self.zero(*self.bounds)
        power = self.constant(1, *self.bounds)
        for m in range(1, self._depth(self.bounds) + 1):
            power = power * self
            if power.is_zero():
                break
            out = out + power.scale(Fraction(1, m))
        return out


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
    full series.  The meet of two such gradings is the gcd of their
    monomials.  A product of constant-free factors has at least one part
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
    def _meet_bounds(b1, b2) -> tuple[tuple[int, ...]]:
        if b1 == b2:
            return b1
        return (_key((Counter(b1[0]) & Counter(b2[0])).elements()),)

    @staticmethod
    def _cap(bounds) -> int:
        return sum(bounds[0])

    @staticmethod
    def _depth(bounds) -> int:
        return len(bounds[0])

    def __repr__(self) -> str:
        return f"DivisorSeries(alpha={self.alpha}, {len(self.coeffs)} terms)"
