"""Graded exact/float arithmetic for the formal series the quasimode engine runs on.

Everything downstream manipulates four kinds of objects built here:

* scalar Laurent series in the half-power variable (``FormalScalarSeries``),
* multivariate polynomials with vector (fiber) values (``Poly``, ``FiberPoly``),
* power-counted series whose order-j coefficient is a polynomial of degree
  at most 2j (``S0Series``),
* truncated Taylor jets in the base variable carrying half-integer series
  orders (``XJetSeries``),

together with the substitution x = sqrt(hbar) * y that identifies the last
two (``rescale`` / ``unrescale``). Those two share one graded container: a
sum of h^(j-K) times a fiber polynomial, with its lowest exponent ``order()``.

Every truncated object is exact through a bound, None meaning at every
order, and the rules that combine bounds are stated here once: a sum is
exact through the smaller bound (``_min_trunc``), and a product of any
number of factors through ``convolution_bound``, the min over the bounded
factors of the bound plus the other factors' lowest orders. The series
products below, the pairing, the graded family's action and operator-jet
composition all take their bound from it.

Coefficients live in one of two interchangeable domains: exact rationals
(``EXACT``) or complex double floats (``float_mode``). Every container stores
its mode; mixing modes raises. Arithmetic in either mode drops only exact
zeros; whether a computed quantity that should vanish does is the mode's one
decision, ``negligible(x, scale)``.

``Poly`` keeps its coefficients fraction-free: numerators over one positive
denominator, integers in exact mode and complex numbers over 1 in float
mode, the mode supplying the (numerator, denominator) split. Arithmetic runs
on the numerators, and each result is reduced by one gcd, so a polynomial has
one canonical form. ``grow_den`` and ``reduce_num`` are that kernel, shared
with the projector's Hermite vectors. ``Poly.terms`` is the read-only view
as mode values (Fractions in exact mode), built on first read.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import copysign, gcd, hypot, inf, lcm, sqrt
from typing import Iterator, Mapping, Sequence

__all__ = [
    "HalfInt",
    "HI0",
    "half_range",
    "ExactMode",
    "FloatMode",
    "EXACT",
    "float_mode",
    "Poly",
    "FiberPoly",
    "FormalScalarSeries",
    "S0Series",
    "XJetSeries",
    "rescale",
    "unrescale",
    "inverse_sqrt_series",
    "binomial_series",
    "S0DegreeError",
]


# ---------------------------------------------------------------------------
# Half integers


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2) * Z, stored as twice its value.

    Used for every series exponent: orders in sqrt(hbar) are naturally
    half-integers, and storing ``doubled`` keeps hashing and ordering exact.
    """

    doubled: int

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, HalfInt, or Fraction with denominator 1 or 2."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        if isinstance(value, Fraction):
            if value.denominator in (1, 2):
                return HalfInt(int(value * 2))
            raise ValueError(f"not a half-integer: {value}")
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.doubled + HalfInt.of(other).doubled)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.doubled - HalfInt.of(other).doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __mul__(self, k: int) -> "HalfInt":
        if not isinstance(k, int):
            raise TypeError("HalfInt may only be scaled by an int")
        return HalfInt(self.doubled * k)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.doubled}/2)"

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Parse '3', '3/2' or '1.5'; any other value raises ``ValueError``."""
        return HalfInt.of(Fraction(text))


HI0 = HalfInt(0)


def half_range(start, stop) -> Iterator[HalfInt]:
    """Half-integer steps from start to stop inclusive."""
    a = HalfInt.of(start).doubled
    b = HalfInt.of(stop).doubled
    for d in range(a, b + 1):
        yield HalfInt(d)


# ---------------------------------------------------------------------------
# Coefficient modes


class _Mode:
    def is_zero(self, c) -> bool:
        return c == 0

    def abs(self, c):
        return abs(c)

    def close(self, a, b) -> bool:
        """Whether a - b is negligible against the larger of |a| and |b|."""
        return self.negligible(a - b, max(self.abs(a), self.abs(b)))


class ExactMode(_Mode):
    """Exact rational coefficients (Fraction), which carry no rounding.
    Conjugation is the identity."""

    name = "exact"

    def coeff(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"exact mode needs rational input, got {type(value).__name__}")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def negligible(self, x, scale) -> bool:
        return x == 0

    def relative(self, x, scale):
        """The size to report for x: ``negligible(relative(x, s), 1)`` is ``negligible(x, s)``."""
        return x

    def conj(self, c):
        return c

    def is_real(self, c) -> bool:
        return True

    def real(self, c):
        return c

    def to_json(self, c):
        return str(c)

    def to_float(self, c) -> float:
        return float(c)

    def split(self, c) -> tuple:
        return c.numerator, c.denominator

    def join(self, num, den):
        return Fraction(num, den)

    def __repr__(self):
        return "ExactMode()"


@dataclass(frozen=True)
class FloatMode(_Mode):
    """Complex double coefficients. ``negligible(x, scale)`` is |x| <= rtol *
    scale, ``scale`` bounding the magnitudes summed into x, which bound its
    rounding error (N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 4.2). ``rtol`` is the program's only tolerance."""

    rtol: float = 1e-9
    name = "float"

    def coeff(self, value):
        if isinstance(value, complex):
            return value
        if isinstance(value, Fraction):
            return complex(value.numerator / value.denominator)
        if isinstance(value, (int, float)):
            return complex(value)
        if isinstance(value, str):
            return complex(Fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to float mode")

    def zero(self):
        return 0j

    def one(self):
        return 1 + 0j

    def negligible(self, x, scale) -> bool:
        return abs(x) <= self.rtol * scale

    def relative(self, x, scale) -> float:
        if x == 0:
            return 0.0
        return abs(x) / scale if scale else inf

    def conj(self, c):
        return c.conjugate()

    def is_real(self, c) -> bool:
        return self.negligible(c.imag, abs(c))

    def real(self, c):
        return c.real

    def to_json(self, c):
        if self.is_real(c):
            return c.real
        return [c.real, c.imag]

    def to_float(self, c) -> float:
        return c.real

    def split(self, c) -> tuple:
        return c, 1

    def join(self, num, den):
        return num if den == 1 else num / den


EXACT = ExactMode()
float_mode = FloatMode


def worst_residual(mode, residuals) -> float:
    """The largest ``mode.relative`` over (residual, scale) pairs; every
    residual is negligible exactly when ``mode.negligible(worst, 1)``."""
    return max((mode.relative(x, scale) for x, scale in residuals), default=0.0)


def _same_mode(a, b):
    if a is not b and type(a) is not type(b):
        raise ValueError(f"mixing coefficient modes {a!r} and {b!r}")
    return a


# ---------------------------------------------------------------------------
# Multivariate polynomials

Monomial = tuple  # tuple[int, ...]


def mono_degree(alpha: Monomial) -> int:
    return sum(alpha)


def mono_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def grow_den(num: dict, den: int, d: int) -> int:
    """Rescale the numerators in ``num`` in place so that they sit over
    lcm(den, d) instead of ``den``; return that lcm."""
    new = lcm(den, d)
    f = new // den
    for key in num:
        num[key] *= f
    return new


def accumulate(acc: dict, den: int, num: dict, n, d: int) -> int:
    """Add (n / d) times the numerators ``num`` in place to the numerators
    ``acc`` over ``den``; return their denominator, grown to lcm(den, d)."""
    if den % d:
        den = grow_den(acc, den, d)
    f = n * (den // d)
    get = acc.get
    for key, m in num.items():
        acc[key] = get(key, 0) + m * f
    return den


def reduce_num(mode, num: dict, den: int) -> tuple[dict, int]:
    """Drop the zero numerators and divide out gcd(den, *num).

    The result is the canonical form: equal values give equal (num, den), and
    the zero value is ({}, 1). Float mode never leaves den == 1. ``num`` is
    taken over: it may be returned as it is.
    """
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: n // g for key, n in num.items()}
            den //= g
    return num, den


class Poly:
    """Scalar polynomial in n variables over a coefficient mode.

    The coefficient of y^alpha is ``num[alpha] / den``: numerators over one
    positive denominator, in the canonical form of ``reduce_num`` (absent
    keys are zero). ``terms`` is the same polynomial as a dict of mode
    values, built on first read. Instances are treated as immutable.
    """

    __slots__ = ("mode", "n", "num", "den", "_terms")

    def __init__(self, mode, n: int, terms: Mapping[Monomial, object] | None = None):
        """From a dict of mode values (Fractions or ints in exact mode)."""
        num, den = {}, 1
        if terms:
            split = mode.split
            for a, c in terms.items():
                p, q = split(c)
                if den % q:
                    den = grow_den(num, den, q)
                num[a] = p if q == den else p * (den // q)
        self.mode = mode
        self.n = n
        self.num, self.den = reduce_num(mode, num, den)
        self._terms = None

    @classmethod
    def _make(cls, mode, n: int, num: dict, den: int) -> "Poly":
        """Wrap numerators that are already in canonical form."""
        self = object.__new__(cls)
        self.mode = mode
        self.n = n
        self.num = num
        self.den = den
        self._terms = None
        return self

    @classmethod
    def _reduced(cls, mode, n: int, num: dict, den: int) -> "Poly":
        return cls._make(mode, n, *reduce_num(mode, num, den))

    @property
    def terms(self) -> dict:
        """The coefficients as mode values (Fractions in exact mode); read-only."""
        terms = self._terms
        if terms is None:
            join, den = self.mode.join, self.den
            terms = self._terms = {a: join(c, den) for a, c in self.num.items()}
        return terms

    # -- constructors

    @staticmethod
    def zero(mode, n: int) -> "Poly":
        return Poly._make(mode, n, {}, 1)

    @staticmethod
    def const(mode, n: int, value) -> "Poly":
        return Poly.monomial(mode, n, (0,) * n, value)

    @staticmethod
    def monomial(mode, n: int, alpha: Monomial, value=1) -> "Poly":
        return Poly(mode, n, {tuple(alpha): mode.coeff(value)})

    @staticmethod
    def variable(mode, n: int, i: int) -> "Poly":
        alpha = [0] * n
        alpha[i] = 1
        return Poly.monomial(mode, n, tuple(alpha))

    # -- queries

    def is_zero(self) -> bool:
        return not self.num

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.num:
            return float("-inf")
        return max(map(sum, self.num))

    def min_degree(self):
        if not self.num:
            return float("inf")
        return min(map(sum, self.num))

    def max_abs(self) -> float:
        """The largest |coefficient|; 0 for the zero polynomial."""
        return max(map(abs, self.num.values()), default=0) / self.den

    def abs(self) -> "Poly":
        return Poly._make(self.mode, self.n, {a: abs(c) for a, c in self.num.items()}, self.den)

    def cancels(self, magnitude: "Poly") -> bool:
        """Whether each coefficient is negligible against ``magnitude``'s at its
        monomial (for a computed sum: the same sum on |coefficients|)."""
        mode = self.mode
        return all(mode.negligible(c, mode.abs(magnitude.coefficient(a)))
                   for a, c in self.terms.items())

    def coefficient(self, alpha: Monomial):
        c = self.num.get(tuple(alpha))
        return self.mode.zero() if c is None else self.mode.join(c, self.den)

    def parity(self) -> int | None:
        """+1 if all terms have even degree, -1 if all odd, 0 mixed, None if zero."""
        if not self.num:
            return None
        pars = {mono_degree(a) % 2 for a in self.num}
        if pars == {0}:
            return 1
        if pars == {1}:
            return -1
        return 0

    def _keep(self, keep) -> "Poly":
        """The terms whose exponent satisfies ``keep``."""
        num = {a: c for a, c in self.num.items() if keep(a)}
        if len(num) == len(self.num):
            return self
        return Poly._reduced(self.mode, self.n, num, self.den)

    def homogeneous_component(self, d: int) -> "Poly":
        return self._keep(lambda a: mono_degree(a) == d)

    def components_by_degree(self) -> dict[int, "Poly"]:
        out: dict[int, dict] = {}
        for a, c in self.num.items():
            out.setdefault(mono_degree(a), {})[a] = c
        return {d: Poly._reduced(self.mode, self.n, num, self.den) for d, num in sorted(out.items())}

    def truncate_degree(self, d: int) -> "Poly":
        return self._keep(lambda a: mono_degree(a) <= d)

    # -- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        _same_mode(self.mode, other.mode)
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        if not other.num:
            return self
        if not self.num:
            return other
        num, den, d = dict(self.num), self.den, other.den
        if den % d:
            den = grow_den(num, den, d)
        f = den // d
        get = num.get
        for a, c in other.num.items():
            if f != 1:
                c *= f
            s = get(a)
            num[a] = c if s is None else s + c
        return Poly._reduced(self.mode, self.n, num, den)

    def __neg__(self) -> "Poly":
        return Poly._make(self.mode, self.n, {a: -c for a, c in self.num.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def mul(self, other: "Poly", through: int | None = None) -> "Poly":
        """The product; with ``through``, only its terms of total degree <=
        through, and no term past that degree is formed (the same as
        truncating the full product).

        Bounded, the right factor is sorted by degree and each left term meets
        only the prefix of it that fits. The sum for each product monomial
        runs over the left terms in the same order either way, so float
        results agree bit for bit.
        """
        _same_mode(self.mode, other.mode)
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        add = operator.add
        num: dict[Monomial, object] = {}
        get = num.get
        right = other.num.items()
        if through is not None:
            right = sorted(right, key=lambda t: sum(t[0]))
            degrees = [sum(b) for b, _ in right]
        for a, ca in self.num.items():
            for b, cb in (right if through is None
                          else right[:bisect_right(degrees, through - sum(a))]):
                key = tuple(map(add, a, b))
                s = get(key)
                num[key] = ca * cb if s is None else s + ca * cb
        return Poly._reduced(self.mode, self.n, num, self.den * other.den)

    __mul__ = mul

    def scale(self, c) -> "Poly":
        p, q = self.mode.split(self.mode.coeff(c))
        return Poly._reduced(self.mode, self.n, {a: v * p for a, v in self.num.items()},
                             self.den * q)

    def diff(self, i: int) -> "Poly":
        num = {}
        for a, c in self.num.items():
            e = a[i]
            if e:
                b = list(a)
                b[i] = e - 1
                num[tuple(b)] = c * e
        return Poly._reduced(self.mode, self.n, num, self.den)

    def conj(self) -> "Poly":
        conj = self.mode.conj
        return Poly._make(self.mode, self.n, {a: conj(c) for a, c in self.num.items()}, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.n == other.n and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        if not self.num:
            return "Poly(0)"
        bits = []
        for a in sorted(self.terms):
            mono = "*".join(f"y{i}^{e}" for i, e in enumerate(a) if e) or "1"
            bits.append(f"({self.terms[a]})*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


class FiberPoly:
    """Polynomial with values in the fiber: one scalar ``Poly`` per component.

    The zero polynomial has degree -inf. Parity is the common parity of all
    components (0 when mixed, None when zero).
    """

    __slots__ = ("rank", "components")

    def __init__(self, components: Sequence[Poly]):
        if not components:
            raise ValueError("rank must be at least 1")
        self.components = tuple(components)
        self.rank = len(self.components)

    @property
    def mode(self):
        return self.components[0].mode

    @property
    def n(self) -> int:
        return self.components[0].n

    @staticmethod
    def zero(mode, n: int, rank: int) -> "FiberPoly":
        z = Poly.zero(mode, n)
        return FiberPoly([z] * rank)

    @staticmethod
    def scalar(p: Poly) -> "FiberPoly":
        return FiberPoly([p])

    @staticmethod
    def unit(p: Poly, rank: int, k: int) -> "FiberPoly":
        """p times the k-th (0-based) fiber basis vector."""
        comps = [Poly.zero(p.mode, p.n)] * rank
        comps[k] = p
        return FiberPoly(comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def degree(self):
        return max(c.degree() for c in self.components)

    def min_degree(self):
        return min(c.min_degree() for c in self.components)

    def parity(self) -> int | None:
        pars = {c.parity() for c in self.components} - {None}
        if not pars:
            return None
        if len(pars) > 1:
            return 0
        return pars.pop()

    def truncate_degree(self, d: int) -> "FiberPoly":
        return FiberPoly([c.truncate_degree(d) for c in self.components])

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)

    def abs(self) -> "FiberPoly":
        return FiberPoly([c.abs() for c in self.components])

    def __add__(self, other: "FiberPoly") -> "FiberPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FiberPoly([a + b for a, b in zip(self.components, other.components)])

    def scale(self, c) -> "FiberPoly":
        return FiberPoly([p.scale(c) for p in self.components])

    def __eq__(self, other) -> bool:
        return isinstance(other, FiberPoly) and self.components == other.components

    def __repr__(self) -> str:
        return f"FiberPoly({list(self.components)!r})"


# ---------------------------------------------------------------------------
# Truncation bounds (None: exact at every order)


def _min_trunc(a, b):
    """The smaller of two bounds, None meaning unbounded."""
    return b if a is None else a if b is None else min(a, b)


def convolution_bound(*factors):
    """The order through which a product is exact, from each factor's
    (bound, lowest order) pair.

    A product coefficient at order e reads each factor at e less the other
    factors' lowest orders, so the product is exact through the min, over the
    bounded factors, of the bound plus the other factors' lowest orders. A
    bound of None means exact at every order; a zero factor's lowest order
    (None or inf) counts as 0. None when no factor is bounded.
    """
    lows = [0 if o is None or o == inf else o for _, o in factors]
    total = sum(lows)
    out = None
    for (bound, _), low in zip(factors, lows):
        if bound is not None:
            out = _min_trunc(out, bound + (total - low))
    return out


# ---------------------------------------------------------------------------
# Scalar Laurent series in sqrt(hbar)


class FormalScalarSeries:
    """Laurent series in the half-power variable with scalar coefficients.

    ``offset`` is the exponent of the first stored coefficient and ``coeffs``
    holds consecutive half-integer steps from there. ``truncation_order`` is
    the largest exponent guaranteed exact (None means the series is exact at
    every order, e.g. it came from a polynomial identity). Stored coefficients
    beyond the truncation order are dropped; absent ones below it are zero.
    """

    __slots__ = ("mode", "offset", "coeffs", "truncation_order")

    def __init__(self, mode, offset: HalfInt, coeffs: Sequence, truncation_order: HalfInt | None):
        self.mode = mode
        coeffs = list(coeffs)
        # drop leading zeros, advancing the offset
        while coeffs and mode.is_zero(coeffs[0]):
            coeffs.pop(0)
            offset = offset + HalfInt(1)
        # drop anything beyond the truncation order
        if truncation_order is not None and coeffs:
            keep = truncation_order.doubled - offset.doubled + 1
            if keep <= 0:
                coeffs = []
            elif keep < len(coeffs):
                coeffs = coeffs[:keep]
        while coeffs and mode.is_zero(coeffs[-1]):
            coeffs.pop()
        if not coeffs:
            offset = HI0
        self.offset = offset
        self.coeffs = tuple(coeffs)
        self.truncation_order = truncation_order

    # -- constructors

    @staticmethod
    def zero(mode, truncation_order: HalfInt | None = None) -> "FormalScalarSeries":
        return FormalScalarSeries(mode, HI0, (), truncation_order)

    @staticmethod
    def const(mode, value, truncation_order: HalfInt | None = None) -> "FormalScalarSeries":
        return FormalScalarSeries(mode, HI0, (mode.coeff(value),), truncation_order)

    @staticmethod
    def from_terms(mode, terms: Mapping[HalfInt, object], truncation_order: HalfInt | None = None) -> "FormalScalarSeries":
        if not terms:
            return FormalScalarSeries.zero(mode, truncation_order)
        keys = sorted(terms, key=lambda h: h.doubled)
        lo, hi = keys[0], keys[-1]
        coeffs = [mode.zero()] * (hi.doubled - lo.doubled + 1)
        for k, v in terms.items():
            coeffs[k.doubled - lo.doubled] = mode.coeff(v)
        return FormalScalarSeries(mode, lo, coeffs, truncation_order)

    # -- queries

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> HalfInt | None:
        """Exponent of the leading nonzero coefficient; None for the zero series."""
        return self.offset if self.coeffs else None

    def coefficient(self, exponent) -> object:
        e = HalfInt.of(exponent)
        i = e.doubled - self.offset.doubled
        if not self.coeffs or i < 0 or i >= len(self.coeffs):
            return self.mode.zero()
        return self.coeffs[i]

    def items(self) -> Iterator[tuple[HalfInt, object]]:
        for i, c in enumerate(self.coeffs):
            if not self.mode.is_zero(c):
                yield HalfInt(self.offset.doubled + i), c

    # -- arithmetic

    def _nonzero(self) -> list:
        """(index, coefficient) of the stored coefficients the mode does not call zero."""
        is_zero = self.mode.is_zero
        return [(i, c) for i, c in enumerate(self.coeffs) if not is_zero(c)]

    def _from_slots(self, lo: int, slots: list, trunc: HalfInt | None) -> "FormalScalarSeries":
        """The series with coefficient ``slots[i]`` at doubled exponent lo + i (None = zero)."""
        zero = self.mode.zero()
        return FormalScalarSeries(self.mode, HalfInt(lo), [zero if c is None else c for c in slots],
                                  trunc)

    def __add__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        _same_mode(self.mode, other.mode)
        trunc = _min_trunc(self.truncation_order, other.truncation_order)
        parts = [s for s in (self, other) if s.coeffs]
        if not parts:
            return FormalScalarSeries.zero(self.mode, trunc)
        lo = min(s.offset.doubled for s in parts)
        slots: list = [None] * (max(s.offset.doubled + len(s.coeffs) for s in parts) - lo)
        for s in parts:
            shift = s.offset.doubled - lo
            for i, c in s._nonzero():
                k = i + shift
                v = slots[k]
                slots[k] = c if v is None else v + c
        return self._from_slots(lo, slots, trunc)

    def __neg__(self) -> "FormalScalarSeries":
        return FormalScalarSeries(self.mode, self.offset, tuple(-c for c in self.coeffs), self.truncation_order)

    def __sub__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        return self + (-other)

    def __mul__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        _same_mode(self.mode, other.mode)
        # a zero factor gives the zero product, exact wherever either factor is known
        trunc = convolution_bound((self.truncation_order, self.order()),
                                  (other.truncation_order, other.order()))
        lo = self.offset.doubled + other.offset.doubled
        size = len(self.coeffs) + len(other.coeffs) - 1
        if trunc is not None:
            size = min(size, trunc.doubled - lo + 1)
        slots: list = [None] * max(size, 0)
        right = other._nonzero()
        for i, ca in self._nonzero():
            for j, cb in right:
                k = i + j
                if k >= size:
                    break
                v = slots[k]
                slots[k] = ca * cb if v is None else v + ca * cb
        return self._from_slots(lo, slots, trunc)

    def scale(self, c) -> "FormalScalarSeries":
        c = self.mode.coeff(c)
        return FormalScalarSeries(self.mode, self.offset, tuple(v * c for v in self.coeffs), self.truncation_order)

    def shift(self, exponent) -> "FormalScalarSeries":
        """Multiply by the half-power variable to the given exponent."""
        e = HalfInt.of(exponent)
        trunc = None if self.truncation_order is None else self.truncation_order + e
        return FormalScalarSeries(self.mode, self.offset + e, self.coeffs, trunc)

    def truncate(self, truncation_order: HalfInt | None) -> "FormalScalarSeries":
        return FormalScalarSeries(self.mode, self.offset, self.coeffs,
                                  _min_trunc(self.truncation_order, truncation_order))

    def conj(self) -> "FormalScalarSeries":
        return FormalScalarSeries(self.mode, self.offset,
                                  tuple(self.mode.conj(c) for c in self.coeffs), self.truncation_order)

    def inverse(self, through: HalfInt | None = None) -> "FormalScalarSeries":
        """Multiplicative inverse; the leading coefficient must be invertible.

        ``through`` (absolute exponent bound on the result) is required when
        the series is exact at all orders but not a monomial.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        lead = self.coeffs[0]
        rel_trunc = None if self.truncation_order is None else self.truncation_order - self.offset
        # self = lead * h^offset * (1 + v) with ord(v) > 0; v subtracts the
        # computed lead/lead, not 1, so its constant term is exactly 0
        rel = FormalScalarSeries(self.mode, HI0, tuple(c / lead for c in self.coeffs), rel_trunc)
        v = rel - FormalScalarSeries.const(self.mode, rel.coeffs[0], rel_trunc)
        rel_through = None if through is None else through + self.offset
        inv_rel = binomial_series(v, Fraction(-1), through=rel_through)
        return inv_rel.scale(self.mode.one() / lead).shift(-self.offset)

    def __truediv__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        return self * other.inverse()

    def equals_through(self, other: "FormalScalarSeries", through=None) -> bool:
        """Coefficients ``mode.close`` through ``through`` (None: every order)."""
        through = None if through is None else HalfInt.of(through)
        exps = {e for e, _ in self.items()} | {e for e, _ in other.items()}
        return all(self.mode.close(self.coefficient(e), other.coefficient(e))
                   for e in exps if through is None or e <= through)

    def max_abs_coeff(self, through: HalfInt | None = None) -> float:
        vals = [self.mode.abs(c) for e, c in self.items() if through is None or e <= through]
        return max((float(v) for v in vals), default=0.0)

    def evaluate(self, hbar: float, through: HalfInt | None = None) -> complex:
        total = 0j
        for e, c in self.items():
            if through is not None and e > through:
                continue
            total += complex(c) * hbar ** (e.doubled / 2)
        return total

    def is_real(self) -> bool:
        scale = self.max_abs_coeff()
        return all(self.mode.negligible(c.imag, scale) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalScalarSeries)
                and dict(self.items()) == dict(other.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Series(0)"
        bits = [f"({c})*h^{e}" for e, c in self.items()]
        t = "" if self.truncation_order is None else f" + O(h^{self.truncation_order + HalfInt(1)})"
        return "Series(" + " + ".join(bits) + t + ")"


def euler_recurrence(parts: Mapping[int, object], top: int, one, scale,
                     exponent: Fraction | None = None) -> dict:
    """The graded parts g_0 .. g_top of (1 + a)^exponent, or of exp(a) when
    ``exponent`` is None, for a = sum_j parts[j], every grade j positive.

    J. C. P. Miller's recurrence for powers (D. E. Knuth, TAOCP vol. 2, 4.7):
    with E the Euler operator (k times the grade-k part), (1 + a)^e solves
    (1 + a) E g = e (E a) g and exp(a) solves E g = (E a) g, so g_0 = ``one``
    and g_k = sum_{0<j<=k} w(j, k) a_j g_(k-j), with w = ((e + 1) j - k)/k or
    j/k: O(top^2) part products where the k-fold powers take O(top^3). It
    holds on any grading whose E is a derivation, such as scalars over
    doubled exponents or homogeneous polynomials over degree. ``scale(x, w)``
    multiplies a part by the rational w. Grades no product reaches are absent.
    """
    g = {0: one}
    for k in range(1, top + 1):
        acc = None
        for j, aj in parts.items():
            if j <= k and k - j in g:
                w = Fraction(j if exponent is None else (exponent + 1) * j - k, k)
                term = scale(aj * g[k - j], w)
                acc = term if acc is None else acc + term
        if acc is not None:
            g[k] = acc
    return g


def binomial_series(v: FormalScalarSeries, exponent: Fraction, through: HalfInt | None = None) -> "FormalScalarSeries":
    """(1 + v)^exponent as a series, for v of strictly positive order, by
    ``euler_recurrence`` over doubled exponents.

    The weights are exact rationals, so the result stays in the coefficient
    domain of v. It is exact through v's truncation order; ``through`` lowers
    that bound, and is required when v is exact at all orders.
    """
    if not v.is_zero() and (v.order() is None or v.order() <= HI0):
        raise ValueError("binomial series needs a perturbation of positive order")
    trunc = _min_trunc(v.truncation_order, through)
    if trunc is None:
        if v.is_zero():
            return FormalScalarSeries.const(v.mode, 1)
        raise ValueError("binomial series of an untruncated series needs an explicit order")
    parts = euler_recurrence({e.doubled: c for e, c in v.items()}, trunc.doubled, v.mode.one(),
                             lambda c, w: c * v.mode.coeff(w), exponent)
    return FormalScalarSeries.from_terms(v.mode, {HalfInt(k): c for k, c in parts.items()}, trunc)


def inverse_sqrt_series(a: FormalScalarSeries, through: HalfInt | None = None) -> FormalScalarSeries:
    """Series r with r*r*a = 1, for a = 1 + (positive order terms).

    Rejects input whose constant term is not 1 up to ``negligible``: that
    signals un-normalized Gram data upstream. A float lead need not be 1
    exactly (49 * (1/49) is not), so v subtracts the lead itself.
    """
    lead = a.coefficient(HI0)
    if a.is_zero() or a.order() != HI0 or not a.mode.negligible(lead - 1, 1):
        raise ValueError("inverse square root needs leading coefficient 1 at order 0")
    v = a - FormalScalarSeries.const(a.mode, lead, a.truncation_order)
    return binomial_series(v, Fraction(-1, 2), through=through)


# ---------------------------------------------------------------------------
# Small dense hermitian matrices in float mode: rows (or columns) of complex


def hermitian_eigh(h) -> tuple[list, list]:
    """Ascending eigenvalues of the hermitian matrix ``h`` and orthonormal
    eigenvector columns, by cyclic Jacobi with complex rotations (G. H. Golub
    and C. F. Van Loan, Matrix Computations, 4th ed., 8.5).

    The (p, q) rotation is the real symmetric Schur rotation of |a_pq|,
    conjugated by the phase a_pq/|a_pq|, and zeroes a_pq. An entry negligible
    against |a_pp| + |a_qq|, or subnormal, is not rotated on: its phase loses
    accuracy near underflow. Sweeps stop once the off-diagonal norm is below
    rounding in the matrix norm, which bounds the eigenvalue errors (J. Demmel
    and K. Veselic, SIAM J. Matrix Anal. Appl. 13 (1992) 1204). Each column's
    last entry of modulus above 2^-26 is made real positive, the sign of an
    exact null vector in echelon form, whose last nonzero entry is 1.
    """
    m = len(h)
    a = [[complex(x) for x in row] for row in h]
    v = [[complex(i == j) for j in range(m)] for i in range(m)]
    norm = hypot(*(abs(x) for row in a for x in row))
    for _ in range(64):  # a cap only: the sweeps converge quadratically
        off = hypot(*(abs(a[p][q]) for p in range(m) for q in range(m) if p != q))
        if off <= 2 ** -52 * norm:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq, app, aqq = a[p][q], a[p][p].real, a[q][q].real
                r = abs(apq)
                if r <= 2 ** -60 * (abs(app) + abs(aqq)) or r < 2 ** -1022:
                    continue
                theta = (aqq - app) / (2 * r)
                t = copysign(1.0, theta) / (abs(theta) + hypot(theta, 1.0))
                c = 1 / sqrt(1 + t * t)
                sp = t * c * apq / r
                sq = sp.conjugate()
                a[p][p], a[q][q] = complex(app - t * r), complex(aqq + t * r)
                a[p][q] = a[q][p] = 0j
                for k in range(m):
                    if k != p and k != q:
                        x, y = a[k][p], a[k][q]
                        a[k][p], a[k][q] = c * x - sq * y, sp * x + c * y
                        a[p][k], a[q][k] = a[k][p].conjugate(), a[k][q].conjugate()
                    x, y = v[k][p], v[k][q]
                    v[k][p], v[k][q] = c * x - sq * y, sp * x + c * y
    order = sorted(range(m), key=lambda i: a[i][i].real)
    cols = []
    for i in order:
        col = [row[i] for row in v]
        last = next(x for x in reversed(col) if abs(x) > 2 ** -26)
        cols.append([x * last.conjugate() / abs(last) for x in col])
    return [a[i][i].real for i in order], cols


def matmul(a: list, b: list) -> list:
    """The product of two square matrices, as rows of series or scalars."""
    m = len(a)
    return [[reduce(operator.add, (a[i][k] * b[k][j] for k in range(m))) for j in range(m)]
            for i in range(m)]


def cholesky(a) -> list:
    """Lower triangular L, real positive diagonal, with L L^H = ``a`` (rows)."""
    m = len(a)
    low = [[0j] * m for _ in range(m)]
    for j in range(m):
        d = a[j][j].real - sum(abs(x) ** 2 for x in low[j][:j])
        if not d > 0:
            raise ValueError("matrix is not positive definite")
        low[j][j] = complex(sqrt(d))
        for i in range(j + 1, m):
            low[i][j] = (a[i][j] - sum(low[i][k] * low[j][k].conjugate()
                                       for k in range(j))) / low[j][j]
    return low


def lower_solve(low, cols) -> list:
    """L^-1 applied to each column, for L lower triangular."""
    out = []
    for b in cols:
        x: list = []
        for i, row in enumerate(low):
            x.append((b[i] - sum(row[k] * x[k] for k in range(i))) / row[i])
        out.append(x)
    return out


def adjoint_solve(low, cols) -> list:
    """L^-H applied to each column, for L lower triangular with a real diagonal."""
    m = len(low)
    out = []
    for b in cols:
        x = [0j] * m
        for i in reversed(range(m)):
            x[i] = (b[i] - sum(low[k][i].conjugate() * x[k] for k in range(i + 1, m))) / low[i][i]
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Power-counted polynomial series (image of the rescaling map)


class S0DegreeError(ValueError):
    """A coefficient polynomial exceeds the degree bound deg P_j <= 2j."""


class _GradedSeries:
    """Series sum_j h^(j-K) P_j with fiber polynomials P_j, the storage shared
    by the power-counted and the x-jet series.

    ``coeffs`` maps the nonnegative half-integer j to P_j, whose absolute
    series exponent is j - K. ``truncation_order`` bounds the absolute
    exponents that are exact (None: every one); zero coefficients and those
    past it are dropped at construction.
    """

    __slots__ = ("mode", "n", "rank", "K", "coeffs", "truncation_order")

    def __init__(self, mode, n: int, rank: int, K: HalfInt,
                 coeffs: Mapping[HalfInt, FiberPoly], truncation_order: HalfInt | None):
        if K < HI0:
            raise ValueError("K must be nonnegative")
        self.mode = mode
        self.n = n
        self.rank = rank
        self.K = K
        clean: dict[HalfInt, FiberPoly] = {}
        for j, p in coeffs.items():
            if p.is_zero() or truncation_order is not None and j - K > truncation_order:
                continue
            if j < HI0:
                raise ValueError("coefficient indices must be nonnegative")
            clean[j] = p
        self.coeffs = clean
        self.truncation_order = truncation_order

    def order(self) -> HalfInt | None:
        """The lowest absolute exponent present; None for the zero series."""
        return min(self.coeffs) - self.K if self.coeffs else None

    def items(self) -> Iterator[tuple[HalfInt, FiberPoly]]:
        for j in sorted(self.coeffs, key=lambda h: h.doubled):
            yield j, self.coeffs[j]

    def at_relative(self, j: HalfInt) -> FiberPoly:
        return self.coeffs.get(j, FiberPoly.zero(self.mode, self.n, self.rank))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return ((self.n, self.rank) == (other.n, other.rank)
                and {j - self.K: p for j, p in self.coeffs.items()}
                == {j - other.K: p for j, p in other.coeffs.items()})

    def __repr__(self) -> str:
        bits = [f"h^{j - self.K}:{p!r}" for j, p in self.items()]
        return f"{type(self).__name__}(" + ", ".join(bits) + f"; K={self.K})"


class S0Series(_GradedSeries):
    """Series sum_j h^(j-K) P_j(y) with deg P_j <= 2j, validated at
    construction unless ``validate`` is off."""

    __slots__ = ()

    def __init__(self, mode, n: int, rank: int, K: HalfInt,
                 coeffs: Mapping[HalfInt, FiberPoly], truncation_order: HalfInt | None,
                 *, validate: bool = True):
        super().__init__(mode, n, rank, K, coeffs, truncation_order)
        if validate:
            for j, p in self.coeffs.items():
                if p.degree() > j.doubled:  # deg <= 2j, and 2j == j.doubled
                    raise S0DegreeError(
                        f"degree {p.degree()} at order index {j} exceeds bound {j.doubled}")

    @staticmethod
    def zero(mode, n: int, rank: int, truncation_order: HalfInt | None = None) -> "S0Series":
        return S0Series(mode, n, rank, HI0, {}, truncation_order)

    @staticmethod
    def from_fiber_poly(p: FiberPoly, truncation_order: HalfInt | None = None) -> "S0Series":
        """A plain polynomial viewed at absolute order zero (K = degree / 2)."""
        if p.is_zero():
            return S0Series(p.mode, p.n, p.rank, HI0, {}, truncation_order)
        K = HalfInt(int(p.degree()))
        return S0Series(p.mode, p.n, p.rank, K, {K: p}, truncation_order)

    def with_K(self, K_new: HalfInt) -> "S0Series":
        """Re-express at the offset K_new. Raising K keeps the degree bound;
        a lowered K is checked, so a term that escapes it raises."""
        d = K_new - self.K
        return S0Series(self.mode, self.n, self.rank, K_new,
                        {j + d: p for j, p in self.coeffs.items()},
                        self.truncation_order, validate=d < HI0)

    def __add__(self, other: "S0Series") -> "S0Series":
        _same_mode(self.mode, other.mode)
        if (self.n, self.rank) != (other.n, other.rank):
            raise ValueError("shape mismatch")
        K = max(self.K, other.K)
        a, b = self.with_K(K), other.with_K(K)
        coeffs = dict(a.coeffs)
        for j, p in b.coeffs.items():
            coeffs[j] = coeffs.get(j, FiberPoly.zero(self.mode, self.n, self.rank)) + p
        return S0Series(self.mode, self.n, self.rank, K, coeffs,
                        _min_trunc(self.truncation_order, other.truncation_order), validate=False)

    def __sub__(self, other: "S0Series") -> "S0Series":
        return self + other.scale(-1)

    def scale(self, c) -> "S0Series":
        c = self.mode.coeff(c)
        return S0Series(self.mode, self.n, self.rank, self.K,
                        {j: p.scale(c) for j, p in self.coeffs.items()},
                        self.truncation_order, validate=False)

    def scale_series(self, s: FormalScalarSeries) -> "S0Series":
        """Multiply by a scalar series (exponents must keep the result in the space).

        Each target coefficient is accumulated in place, as numerators over
        one denominator per component (``accumulate``, as ``_shift_by_degree``
        does), and reduced once."""
        mode = self.mode
        _same_mode(mode, s.mode)
        trunc = convolution_bound((self.truncation_order, self.order()),
                                  (s.truncation_order, s.order()))
        if s.is_zero():
            return S0Series.zero(mode, self.n, self.rank, trunc)
        neg = min(HI0, s.order())
        K = self.K - neg  # raising K absorbs negative exponents of s
        factors = [(e - neg, *mode.split(c)) for e, c in s.items()]
        slots: dict[HalfInt, list] = {}
        for j, p in self.coeffs.items():
            for e, cp, cq in factors:
                jj = j + e
                if trunc is not None and jj - K > trunc:
                    continue
                col = slots.get(jj)
                if col is None:
                    col = slots[jj] = [[{}, 1] for _ in range(self.rank)]
                for comp, slot in zip(p.components, col):
                    slot[1] = accumulate(*slot, comp.num, cp, comp.den * cq)
        coeffs = {jj: FiberPoly([Poly._reduced(mode, self.n, acc, d) for acc, d in col])
                  for jj, col in slots.items()}
        return S0Series(mode, self.n, self.rank, K, coeffs, trunc)

    def truncate(self, truncation_order: HalfInt | None) -> "S0Series":
        return S0Series(self.mode, self.n, self.rank, self.K, self.coeffs,
                        _min_trunc(self.truncation_order, truncation_order), validate=False)

    def max_abs_coeff(self, through: HalfInt | None = None) -> float:
        return max((p.max_abs() for j, p in self.coeffs.items()
                    if through is None or j - self.K <= through), default=0.0)

    def abs(self) -> "S0Series":
        return S0Series(self.mode, self.n, self.rank, self.K,
                        {j: p.abs() for j, p in self.coeffs.items()},
                        self.truncation_order, validate=False)


# ---------------------------------------------------------------------------
# Taylor jets in x with half-integer series orders


class XJetSeries(_GradedSeries):
    """Series sum_k h^(k-K) a_k(x) with a_k truncated x-jets.

    ``truncation_order`` T bounds what is exact (None = complete): the
    degree-d monomial at absolute exponent s is exact when s + d/2 <= T, the
    bound that the inverse rescaling provides.
    """

    __slots__ = ()

    def degree_bound_at(self, s) -> int | None:
        """Largest degree known-exact at absolute exponent s (None = all)."""
        if self.truncation_order is None:
            return None
        return (self.truncation_order - HalfInt.of(s)).doubled


def _shift_by_degree(mode, n: int, rank: int, items, sign: int) -> dict[HalfInt, FiberPoly]:
    """Move each term c y^alpha of the coefficient at index k to index
    k + sign * |alpha|/2, on numerators. No two terms meet on one monomial of
    one component: the target index and alpha fix k."""
    slots: dict[int, list] = {}  # keyed by the doubled index
    for k, p in items:
        for ci, comp in enumerate(p.components):
            d = comp.den
            for alpha, c in comp.num.items():
                j = k.doubled + sign * sum(alpha)
                col = slots.get(j)
                if col is None:
                    col = slots[j] = [[{}, 1] for _ in range(rank)]
                slot = col[ci]
                if slot[1] % d:
                    slot[1] = grow_den(slot[0], slot[1], d)
                f = slot[1] // d
                slot[0][alpha] = c if f == 1 else c * f
    return {HalfInt(j): FiberPoly([Poly._reduced(mode, n, num, den) for num, den in col])
            for j, col in slots.items()}


def rescale(u: XJetSeries) -> S0Series:
    """Substitute x = sqrt(h) * y: the x-monomial x^alpha at exponent s moves
    to exponent s + |alpha|/2 with polynomial y^alpha.

    The output order-t coefficient collects the input pairs (s, d) with
    s + d/2 = t, so it is exact exactly where u's bound s + d/2 <= T holds.
    """
    mode, n, rank = u.mode, u.n, u.rank
    coeffs = _shift_by_degree(mode, n, rank, u.items(), 1)
    return S0Series(mode, n, rank, u.K, coeffs, u.truncation_order)


def unrescale(v: S0Series) -> XJetSeries:
    """Inverse substitution y = x / sqrt(h): exact on the power-counted space.

    The y-monomial y^alpha at relative index j returns to x^alpha at relative
    index j - |alpha|/2, which the degree bound keeps nonnegative. Degree d at
    absolute exponent s came from order s + d/2, so v's truncation order is
    the output's.
    """
    mode, n, rank = v.mode, v.n, v.rank
    coeffs = _shift_by_degree(mode, n, rank, v.items(), -1)
    if min(coeffs, default=HI0) < HI0:
        raise S0DegreeError("input violates the degree bound; not in the rescaled space")
    return XJetSeries(mode, n, rank, v.K, coeffs, v.truncation_order)
