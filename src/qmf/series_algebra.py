"""Graded exact/float arithmetic for the formal series the quasimode engine runs on.

Everything downstream manipulates four kinds of objects built here:

* scalar Laurent series in the half-power variable (``FormalScalarSeries``),
* multivariate polynomials with vector (fiber) values (``Poly``, ``FiberPoly``),
* power-counted series whose order-j coefficient is a polynomial of degree
  at most 2j (``S0Series``),
* truncated Taylor jets in the base variable carrying half-integer series
  orders (``XJetSeries``),

together with the substitution y = x / sqrt(hbar) that maps the third onto
the fourth (``unrescale``). Those two share one graded container: a sum of
h^(j-K) times a fiber polynomial, with its lowest exponent ``order2()``.

Every truncated object is exact through a bound, None meaning at every
order, and the rules that combine bounds are stated here once: a sum is
exact through the smaller bound (``_min_trunc``), and a product of any
number of factors through ``convolution_bound``, the min over the bounded
factors of the bound plus the other factors' lowest orders. The series
products below, the pairing, the graded family's action and the conjugated
operator's coefficients all take their bound from it.

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

Inside the engine exponents are plain ints. A monomial y^alpha is one packed
key (``pack``): the total degree in the top field, then alpha_0 .. alpha_(n-1)
in fields of ``EXPONENT_BITS`` bits, so a monomial product is an integer sum
and keys sort by degree first (M. Monagan and R. Pearce, CASC 2007). A series
order j is its doubled int 2j, in every module, in attributes, arguments and
methods named with a trailing 2 (``trunc2``, ``items2``, ``shift2``).
Every graded series, the scalar one and the graded container alike, holds
its coefficients in a dict keyed by doubled order (``coeffs2``), nothing
stored for an absent order. An order given from outside enters through
``doubled_order`` and is printed as ``Fraction(2j, 2)``.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import copysign, gcd, hypot, inf, lcm, sqrt
from typing import ItemsView, Iterator, Mapping, Sequence

__all__ = [
    "doubled_order",
    "ExactMode",
    "FloatMode",
    "EXACT",
    "float_mode",
    "Poly",
    "FiberPoly",
    "FormalScalarSeries",
    "S0Series",
    "XJetSeries",
    "unrescale",
    "inverse_sqrt_series",
    "binomial_series",
    "S0DegreeError",
]


# ---------------------------------------------------------------------------
# Orders given from outside


def doubled_order(value) -> int:
    """The doubled int 2j of an order j given as an int or as a ``Fraction``
    with denominator 1 or 2. A bool, a float or any other type is not an
    order. An order prints as ``Fraction(2j, 2)``: '3', '5/2'."""
    if isinstance(value, int) and not isinstance(value, bool):
        return 2 * value
    if isinstance(value, Fraction):
        if value.denominator in (1, 2):
            return int(value * 2)
        raise ValueError(f"not a half-integer: {value}")
    raise TypeError(f"cannot interpret {value!r} as a half-integer")


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

    def weighted_sum(self, terms: list, den: int):
        """sum W a b / den over the (W, a, b) of ``terms``, W integers, joined once."""
        acc, d = {0: 0}, 1
        for w, a, b in terms:
            (na, da), (nb, db) = self.split(a), self.split(b)
            d = accumulate(acc, d, {0: na * nb}, w, da * db)
        return self.join(acc[0], d * den)


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

EXPONENT_BITS = 12
MAX_DEGREE = (1 << EXPONENT_BITS) - 1  # the field mask: no field exceeds it


def check_degree(d) -> None:
    """Raise unless a packed key of total degree d fits its fields: every
    exponent is at most the degree, so none then spills into the next."""
    if d > MAX_DEGREE:
        raise ValueError(f"monomial degree {d} exceeds the packed limit {MAX_DEGREE}")


def pack(alpha: Monomial) -> int:
    """The packed key of y^alpha (module docstring): the degree, shifted up
    past one field per exponent."""
    if min(alpha, default=0) < 0:
        raise ValueError(f"negative exponent in {tuple(alpha)}")
    check_degree(sum(alpha))
    return reduce(lambda key, e: key << EXPONENT_BITS | e, alpha, sum(alpha))


def unpack(key: int, n: int) -> Monomial:
    return tuple([key >> s & MAX_DEGREE
                  for s in range(EXPONENT_BITS * (n - 1), -1, -EXPONENT_BITS)])


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


def accumulate_product(acc: dict, den: int, a: "Poly", b: "Poly", n, d: int,
                       through: int | None = None) -> int:
    """Add (n / d) a b in place to the numerators ``acc`` over ``den``, as
    ``accumulate`` adds (n / d) num, and return their denominator; with
    ``through``, form no term of total degree past it (the same as
    truncating the full product). A product key is the sum of the keys.
    Bounded, b is sorted stably by degree and each term of a meets only the
    prefix of it that fits; each product monomial sums over a's terms in the
    same order either way, so float results agree bit for bit."""
    if not n or not a.num or not b.num:
        return den
    shift = a.n * EXPONENT_BITS
    top = (max(a.num) >> shift) + (max(b.num) >> shift)  # the largest product degree
    check_degree(top if through is None else min(top, through))
    d *= a.den * b.den
    if den % d:
        den = grow_den(acc, den, d)
    f = n * (den // d)
    get = acc.get
    right = b.num.items()
    if through is not None:
        right = sorted(right, key=lambda t: t[0] >> shift)
        degrees = [k >> shift for k, _ in right]
    for ka, ca in a.num.items():
        if f != 1:
            ca *= f
        for kb, cb in (right if through is None
                       else right[:bisect_right(degrees, through - (ka >> shift))]):
            key = ka + kb
            s = get(key)
            acc[key] = ca * cb if s is None else s + ca * cb
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

    The coefficient of y^alpha is ``num[pack(alpha)] / den``: numerators over
    one positive denominator, keyed by packed monomial, in the canonical form
    of ``reduce_num`` (absent keys are zero). ``terms`` is the same
    polynomial as a dict of mode values keyed by exponent tuple, built on
    first read. Instances are treated as immutable.
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
                num[pack(a)] = p if q == den else p * (den // q)
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
        """The coefficients as mode values (Fractions in exact mode), keyed
        by exponent tuple; read-only."""
        terms = self._terms
        if terms is None:
            join, den, n = self.mode.join, self.den, self.n
            terms = self._terms = {unpack(k, n): join(c, den) for k, c in self.num.items()}
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
        """Total degree; -inf for the zero polynomial. The top field of a key
        is its degree, so the largest key has the largest degree."""
        if not self.num:
            return float("-inf")
        return max(self.num) >> self.n * EXPONENT_BITS

    def min_degree(self):
        if not self.num:
            return float("inf")
        return min(self.num) >> self.n * EXPONENT_BITS

    def max_abs(self) -> float:
        """The largest |coefficient|; 0 for the zero polynomial."""
        return max(map(abs, self.num.values()), default=0) / self.den

    def abs(self) -> "Poly":
        return Poly._make(self.mode, self.n, {a: abs(c) for a, c in self.num.items()}, self.den)

    def cancels(self, magnitude: "Poly") -> bool:
        """Whether each coefficient is negligible against ``magnitude``'s at its
        monomial (for a computed sum: the same sum on |coefficients|)."""
        mode, join, get = self.mode, self.mode.join, magnitude.num.get
        return all(mode.negligible(join(c, self.den), mode.abs(join(get(a, 0), magnitude.den)))
                   for a, c in self.num.items())

    def coefficient(self, alpha: Monomial):
        c = self.num.get(pack(alpha))
        return self.mode.zero() if c is None else self.mode.join(c, self.den)

    def components_by_degree(self) -> dict[int, "Poly"]:
        shift = self.n * EXPONENT_BITS
        out: dict[int, dict] = {}
        for a, c in self.num.items():
            out.setdefault(a >> shift, {})[a] = c
        return {d: Poly._reduced(self.mode, self.n, num, self.den) for d, num in sorted(out.items())}

    def truncate_degree(self, d: int) -> "Poly":
        # the keys of degree <= d are exactly those below the first of degree d + 1
        past = d + 1 << self.n * EXPONENT_BITS
        num = {a: c for a, c in self.num.items() if a < past}
        return self if len(num) == len(self.num) else Poly._reduced(self.mode, self.n, num, self.den)

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
        through (``accumulate_product``)."""
        _same_mode(self.mode, other.mode)
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        num: dict = {}
        den = accumulate_product(num, 1, self, other, 1, 1, through)
        return Poly._reduced(self.mode, self.n, num, den)

    __mul__ = mul

    def scale(self, c) -> "Poly":
        p, q = self.mode.split(self.mode.coeff(c))
        return Poly._reduced(self.mode, self.n, {a: v * p for a, v in self.num.items()},
                             self.den * q)

    @staticmethod
    def weighted_sum(terms: list, den: int) -> "Poly":
        """sum W a b / den over the (W, a, b) of ``terms``, W integers
        (``euler_recurrence``): the products accumulate in place
        (``accumulate_product``) and are reduced once."""
        mode = terms[0][1].mode
        p, q = mode.split(mode.join(1, den))
        acc, d = {}, 1
        for w, a, b in terms:
            d = accumulate_product(acc, d, a, b, w * p, q)
        return Poly._reduced(mode, terms[0][1].n, acc, d)

    def diff(self, i: int) -> "Poly":
        shift = EXPONENT_BITS * (self.n - 1 - i)  # the field of y_i
        unit = 1 << self.n * EXPONENT_BITS | 1 << shift  # the key of y_i
        num = {}
        for a, c in self.num.items():
            e = a >> shift & MAX_DEGREE
            if e:
                num[a - unit] = c * e
        return Poly._reduced(self.mode, self.n, num, self.den)

    def conj(self) -> "Poly":
        conj = self.mode.conj
        return Poly._make(self.mode, self.n, {a: conj(c) for a, c in self.num.items()}, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.n == other.n and self.den == other.den
                and self.num == other.num)

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

    The zero polynomial has degree -inf.
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
    bound of None means exact at every order. A zero factor's lowest order
    (None or inf) counts as 0, or as its bound plus one step when that is
    lower: the factor's first unknown term may lie there. None when no factor
    is bounded.
    """
    lows = [o if o is not None and o != inf else 0 if b is None else min(0, b + 1)
            for b, o in factors]
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

    ``coeffs2`` maps each doubled exponent, ascending, to a nonzero
    coefficient; absent exponents are zero. ``trunc2`` is the doubled largest
    exponent guaranteed exact (None means the series is exact at every order,
    e.g. it came from a polynomial identity), and no key lies past it. The
    constructor puts any mapping in that form without coercing its values;
    ``from_terms2`` coerces them with ``mode.coeff``.
    """

    __slots__ = ("mode", "coeffs2", "trunc2")

    def __init__(self, mode, coeffs2: Mapping[int, object], trunc2: int | None):
        is_zero = mode.is_zero
        self.mode = mode
        self.coeffs2 = {d: c for d, c in sorted(coeffs2.items())
                        if not is_zero(c) and (trunc2 is None or d <= trunc2)}
        self.trunc2 = trunc2

    # -- constructors

    @staticmethod
    def zero(mode, trunc2: int | None = None) -> "FormalScalarSeries":
        return FormalScalarSeries(mode, {}, trunc2)

    @staticmethod
    def const(mode, value, trunc2: int | None = None) -> "FormalScalarSeries":
        return FormalScalarSeries(mode, {0: mode.coeff(value)}, trunc2)

    @staticmethod
    def from_terms2(mode, terms: Mapping[int, object], trunc2: int | None) -> "FormalScalarSeries":
        """The series with coefficient ``terms[d]`` at each doubled exponent d."""
        return FormalScalarSeries(mode, {d: mode.coeff(v) for d, v in terms.items()}, trunc2)

    def _map(self, f) -> "FormalScalarSeries":
        """The series with f applied to every coefficient."""
        return FormalScalarSeries(self.mode, {d: f(c) for d, c in self.coeffs2.items()},
                                  self.trunc2)

    # -- queries

    def is_zero(self) -> bool:
        return not self.coeffs2

    def order2(self) -> int | None:
        """Doubled exponent of the leading nonzero coefficient; None for the zero series."""
        return next(iter(self.coeffs2), None)

    def at2(self, d: int) -> object:
        """The coefficient at the doubled exponent d."""
        c = self.coeffs2.get(d)
        return self.mode.zero() if c is None else c

    def items2(self) -> ItemsView[int, object]:
        """(doubled exponent, coefficient) of the nonzero coefficients, ascending."""
        return self.coeffs2.items()

    # -- arithmetic

    def __add__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        _same_mode(self.mode, other.mode)
        out = dict(self.coeffs2)
        for d, c in other.coeffs2.items():
            v = out.get(d)
            out[d] = c if v is None else v + c
        return FormalScalarSeries(self.mode, out, _min_trunc(self.trunc2, other.trunc2))

    def __neg__(self) -> "FormalScalarSeries":
        return self._map(operator.neg)

    def __sub__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        return self + (-other)

    def _over_lcm(self) -> tuple[list, int]:
        """(doubled exponent, numerator) of the coefficients over their lcm, and the lcm."""
        split = self.mode.split
        terms = [(d, *split(c)) for d, c in self.coeffs2.items()]
        den = lcm(*(q for _, _, q in terms))
        return [(d, n if q == den else n * (den // q)) for d, n, q in terms], den

    def __mul__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        _same_mode(self.mode, other.mode)
        # a zero factor gives the zero product, exact wherever either factor is known
        trunc = convolution_bound((self.trunc2, self.order2()), (other.trunc2, other.order2()))
        # integer numerators over the two lcms; each output normalized once
        out: dict = {}
        (left, da), (right, db) = self._over_lcm(), other._over_lcm()
        for i, ca in left:
            for j, cb in right:
                k = i + j
                if trunc is not None and k > trunc:
                    break
                v = out.get(k)
                out[k] = ca * cb if v is None else v + ca * cb
        join, den = self.mode.join, da * db
        return FormalScalarSeries(self.mode, {k: join(v, den) for k, v in out.items()}, trunc)

    def scale(self, c) -> "FormalScalarSeries":
        c = self.mode.coeff(c)
        return self._map(lambda v: v * c)

    def shift2(self, e: int) -> "FormalScalarSeries":
        """Multiply by the half-power variable to the doubled exponent e."""
        trunc = None if self.trunc2 is None else self.trunc2 + e
        return FormalScalarSeries(self.mode, {d + e: c for d, c in self.coeffs2.items()}, trunc)

    def truncate2(self, trunc2: int | None) -> "FormalScalarSeries":
        return FormalScalarSeries(self.mode, self.coeffs2, _min_trunc(self.trunc2, trunc2))

    def conj(self) -> "FormalScalarSeries":
        return self._map(self.mode.conj)

    def abs(self) -> "FormalScalarSeries":
        """The series of the |coefficients|, as mode values."""
        mode = self.mode
        return self._map(lambda c: mode.coeff(mode.abs(c)))

    def inverse(self, through2: int | None = None) -> "FormalScalarSeries":
        """Multiplicative inverse; the leading coefficient must be invertible.

        ``through2`` (doubled absolute exponent bound on the result) is
        required when the series is exact at all orders but not a monomial.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        lo = self.order2()
        lead = self.coeffs2[lo]
        # self = lead * h^lo * (1 + v) with ord(v) > 0: v leaves out the
        # constant key, so its constant term is exactly 0
        v = FormalScalarSeries(self.mode, {d - lo: c / lead for d, c in self.coeffs2.items()
                                           if d != lo},
                               None if self.trunc2 is None else self.trunc2 - lo)
        inv_rel = binomial_series(v, Fraction(-1), None if through2 is None else through2 + lo)
        return inv_rel.scale(self.mode.one() / lead).shift2(-lo)

    def __truediv__(self, other: "FormalScalarSeries") -> "FormalScalarSeries":
        return self * other.inverse()

    def equals_through(self, other: "FormalScalarSeries", through2: int | None = None) -> bool:
        """Coefficients ``mode.close`` through the doubled ``through2`` (None: every order)."""
        exps = {e for e, _ in self.items2()} | {e for e, _ in other.items2()}
        return all(self.mode.close(self.at2(e), other.at2(e))
                   for e in exps if through2 is None or e <= through2)

    def max_abs_coeff(self, through2: int | None = None) -> float:
        vals = [self.mode.abs(c) for e, c in self.items2() if through2 is None or e <= through2]
        return max((float(v) for v in vals), default=0.0)

    def evaluate(self, hbar: float, through2: int | None = None) -> complex:
        total = 0j
        for e, c in self.items2():
            if through2 is not None and e > through2:
                continue
            total += complex(c) * hbar ** (e / 2)
        return total

    def is_real(self) -> bool:
        scale = self.max_abs_coeff()
        return all(self.mode.negligible(c.imag, scale) for c in self.coeffs2.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalScalarSeries) and self.coeffs2 == other.coeffs2

    def __repr__(self) -> str:
        if self.is_zero():
            return "Series(0)"
        bits = [f"({c})*h^{Fraction(e, 2)}" for e, c in self.items2()]
        t = "" if self.trunc2 is None else f" + O(h^{Fraction(self.trunc2 + 2, 2)})"
        return "Series(" + " + ".join(bits) + t + ")"


def euler_recurrence(parts: Mapping[int, object], top: int, one, weighted_sum,
                     exponent: Fraction | None = None) -> dict:
    """The graded parts g_0 .. g_top of (1 + a)^exponent, or of exp(a) when
    ``exponent`` is None, for a = sum_j parts[j], every grade j positive.

    J. C. P. Miller's recurrence for powers (D. E. Knuth, TAOCP vol. 2, 4.7):
    with E the Euler operator (k times the grade-k part), (1 + a)^e solves
    (1 + a) E g = e (E a) g and exp(a) solves E g = (E a) g, so g_0 = ``one``
    and g_k = sum_{0<j<=k} W a_j g_(k-j) / (q k), with e = p/q and the
    integer weight W = (p + q) j - q k (for exp, W = j over k):
    O(top^2) part products where the k-fold powers take O(top^3). It holds
    on any grading whose E is a derivation, such as scalars over doubled
    exponents or homogeneous polynomials over degree. ``weighted_sum(terms,
    q k)`` sums a grade's (W, a_j, g_(k-j)), normalizing once. Grades no
    product reaches are absent.
    """
    p, q = (1, 0) if exponent is None else (exponent.numerator + exponent.denominator,
                                            exponent.denominator)
    g = {0: one}
    for k in range(1, top + 1):
        terms = [(p * j - q * k, aj, g[k - j]) for j, aj in parts.items()
                 if j <= k and k - j in g]
        if terms:
            g[k] = weighted_sum(terms, max(q, 1) * k)
    return g


def binomial_series(v: FormalScalarSeries, exponent: Fraction,
                    through2: int | None = None) -> "FormalScalarSeries":
    """(1 + v)^exponent as a series, for v of strictly positive order, by
    ``euler_recurrence`` over doubled exponents.

    It is exact through v's truncation order; the doubled ``through2``
    lowers that bound, and is required when v is exact at all orders.
    """
    if not v.is_zero() and v.order2() <= 0:
        raise ValueError("binomial series needs a perturbation of positive order")
    trunc = _min_trunc(v.trunc2, through2)
    if trunc is None:
        if v.is_zero():
            return FormalScalarSeries.const(v.mode, 1)
        raise ValueError("binomial series of an untruncated series needs an explicit order")
    parts = euler_recurrence(v.coeffs2, trunc, v.mode.one(), v.mode.weighted_sum, exponent)
    return FormalScalarSeries.from_terms2(v.mode, parts, trunc)


def inverse_sqrt_series(a: FormalScalarSeries, through2: int | None = None) -> FormalScalarSeries:
    """Series r with r*r*a = 1, for a = 1 + (positive order terms).

    Rejects input whose constant term is not 1 up to ``negligible``: that
    signals un-normalized Gram data upstream. A float lead need not be 1
    exactly (49 * (1/49) is not), so v leaves out the constant key.
    """
    if a.order2() != 0 or not a.mode.negligible(a.at2(0) - 1, 1):
        raise ValueError("inverse square root needs leading coefficient 1 at order 0")
    v = FormalScalarSeries(a.mode, {d: c for d, c in a.coeffs2.items() if d}, a.trunc2)
    return binomial_series(v, Fraction(-1, 2), through2=through2)


# ---------------------------------------------------------------------------
# Small dense matrices, as rows: float mode's hermitian eigensolver, and the
# product of series or scalar matrices


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
    """The product of an r x k and a k x c matrix (k >= 1), as rows of
    series or scalars."""
    cols = range(len(b[0]))
    return [[reduce(operator.add, (a_ik * b_k[j] for a_ik, b_k in zip(row, b))) for j in cols]
            for row in a]


# ---------------------------------------------------------------------------
# Power-counted polynomial series (image of the rescaling map)


class S0DegreeError(ValueError):
    """A coefficient polynomial exceeds the degree bound deg P_j <= 2j."""


class _GradedSeries:
    """Series sum_j h^(j-K) P_j with fiber polynomials P_j, the storage shared
    by the power-counted and the x-jet series.

    ``coeffs2`` maps the doubled nonnegative half-integer j to P_j, whose
    absolute series exponent is j - K; ``K2`` and ``trunc2`` are K and the
    truncation order doubled. The truncation order bounds the absolute
    exponents that are exact (None: every one); zero coefficients and those
    past it are dropped at construction.
    """

    __slots__ = ("mode", "n", "rank", "K2", "coeffs2", "trunc2")

    def __init__(self, mode, n: int, rank: int, K2: int, coeffs2: Mapping[int, FiberPoly],
                 trunc2: int | None):
        if K2 < 0:
            raise ValueError("K must be nonnegative")
        self.mode = mode
        self.n = n
        self.rank = rank
        self.K2 = K2
        clean: dict[int, FiberPoly] = {}
        for j, p in coeffs2.items():
            if p.is_zero() or trunc2 is not None and j - K2 > trunc2:
                continue
            if j < 0:
                raise ValueError("coefficient indices must be nonnegative")
            clean[j] = p
        self.coeffs2 = clean
        self.trunc2 = trunc2

    @property
    def coeffs(self) -> dict[Fraction, FiberPoly]:
        """The coefficients keyed by the ``Fraction`` index j. Only the
        benchmark's span counters (``qmfbench/spans.py``) read it; it leaves
        when the benchmark is next refreshed."""
        return dict(self.items())

    def order2(self) -> int | None:
        """The doubled lowest absolute exponent present; None for the zero series."""
        return min(self.coeffs2) - self.K2 if self.coeffs2 else None

    def items(self) -> Iterator[tuple[Fraction, FiberPoly]]:
        """(``Fraction`` index, coefficient), ascending. Only the benchmark's
        span counters (``qmfbench/spans.py``) read it; it leaves when the
        benchmark is next refreshed."""
        for j, p in self.items2():
            yield Fraction(j, 2), p

    def items2(self) -> Iterator[tuple[int, FiberPoly]]:
        """(doubled index, coefficient), ascending."""
        for j in sorted(self.coeffs2):
            yield j, self.coeffs2[j]

    def at2(self, j: int) -> FiberPoly:
        """The coefficient at the doubled index j."""
        return self.coeffs2.get(j) or FiberPoly.zero(self.mode, self.n, self.rank)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return ((self.n, self.rank) == (other.n, other.rank)
                and {j - self.K2: p for j, p in self.coeffs2.items()}
                == {j - other.K2: p for j, p in other.coeffs2.items()})

    def __repr__(self) -> str:
        bits = [f"h^{Fraction(j - self.K2, 2)}:{p!r}" for j, p in self.items2()]
        return f"{type(self).__name__}(" + ", ".join(bits) + f"; K={Fraction(self.K2, 2)})"


class S0Series(_GradedSeries):
    """Series sum_j h^(j-K) P_j(y) with deg P_j <= 2j, validated at
    construction unless ``validate`` is off."""

    __slots__ = ()

    def __init__(self, mode, n: int, rank: int, K2: int, coeffs2: Mapping[int, FiberPoly],
                 trunc2: int | None, validate: bool = True):
        super().__init__(mode, n, rank, K2, coeffs2, trunc2)
        for j, p in self.coeffs2.items() if validate else ():
            if p.degree() > j:  # deg <= 2j, and j is doubled
                raise S0DegreeError(
                    f"degree {p.degree()} at order index {Fraction(j, 2)} exceeds bound {j}")

    @staticmethod
    def zero(mode, n: int, rank: int, trunc2: int | None = None) -> "S0Series":
        return S0Series(mode, n, rank, 0, {}, trunc2)

    @staticmethod
    def from_fiber_poly(p: FiberPoly, trunc2: int | None = None) -> "S0Series":
        """A plain polynomial viewed at absolute order zero (K = degree / 2)."""
        K2 = 0 if p.is_zero() else int(p.degree())
        return S0Series(p.mode, p.n, p.rank, K2, {K2: p}, trunc2)

    def with_K2(self, K2: int) -> "S0Series":
        """Re-express at the doubled offset K2. Raising K keeps the degree
        bound; a lowered K is checked, so a term that escapes it raises."""
        d = K2 - self.K2
        return S0Series(self.mode, self.n, self.rank, K2,
                        {j + d: p for j, p in self.coeffs2.items()}, self.trunc2, d < 0)

    def __add__(self, other: "S0Series") -> "S0Series":
        _same_mode(self.mode, other.mode)
        if (self.n, self.rank) != (other.n, other.rank):
            raise ValueError("shape mismatch")
        K2 = max(self.K2, other.K2)
        a, b = self.with_K2(K2), other.with_K2(K2)
        coeffs = dict(a.coeffs2)
        for j, p in b.coeffs2.items():
            coeffs[j] = coeffs[j] + p if j in coeffs else p
        return S0Series(self.mode, self.n, self.rank, K2, coeffs,
                        _min_trunc(self.trunc2, other.trunc2), False)

    def __sub__(self, other: "S0Series") -> "S0Series":
        """Each coefficient of the difference is one sum, reduced once: a
        negated polynomial needs no reduction."""
        negated = {j: FiberPoly([-c for c in p.components]) for j, p in other.coeffs2.items()}
        return self + S0Series(self.mode, other.n, other.rank, other.K2, negated, other.trunc2,
                               False)

    def scale(self, c) -> "S0Series":
        c = self.mode.coeff(c)
        return S0Series(self.mode, self.n, self.rank, self.K2,
                        {j: p.scale(c) for j, p in self.coeffs2.items()}, self.trunc2, False)

    def scale_series(self, s: FormalScalarSeries) -> "S0Series":
        """Multiply by a scalar series (exponents must keep the result in the
        space), each target coefficient summed in place (``graded_sum``)."""
        mode = self.mode
        _same_mode(mode, s.mode)
        trunc = convolution_bound((self.trunc2, self.order2()), (s.trunc2, s.order2()))
        neg = min(0, s.order2() or 0)  # raising K absorbs negative exponents of s
        return graded_sum(self, [(e - neg, scale_into, *mode.split(c)) for e, c in s.items2()],
                          self.K2 - neg, trunc)

    def truncate2(self, trunc2: int | None) -> "S0Series":
        return S0Series(self.mode, self.n, self.rank, self.K2, self.coeffs2,
                        _min_trunc(self.trunc2, trunc2), False)

    def max_abs_coeff(self, through2: int | None = None) -> float:
        return max((p.max_abs() for j, p in self.coeffs2.items()
                    if through2 is None or j - self.K2 <= through2), default=0.0)

    def abs(self) -> "S0Series":
        return S0Series(self.mode, self.n, self.rank, self.K2,
                        {j: p.abs() for j, p in self.coeffs2.items()}, self.trunc2, False)


def _fiber_polys(mode, n: int, slots: dict) -> dict:
    """Reduce each column of [numerators, denominator] accumulators, one per
    fibre component, into a ``FiberPoly`` under the same key."""
    return {j: FiberPoly([Poly._reduced(mode, n, num, den) for num, den in col])
            for j, col in slots.items()}


def scale_into(p: FiberPoly, slots: list, n, d: int, through: int | None = None) -> None:
    """Add (n / d) p in place to ``slots``, one [numerators, denominator]
    accumulator per component (``accumulate``); with ``through``, p's terms
    past that degree are skipped."""
    # the keys of degree <= through are exactly those below the first of degree through + 1
    past = None if through is None else through + 1 << p.n * EXPONENT_BITS
    for comp, slot in zip(p.components, slots):
        num = comp.num if past is None else {a: c for a, c in comp.num.items() if a < past}
        slot[1] = accumulate(*slot, num, n, comp.den * d)


def graded_sum(u: S0Series, terms: list, K2: int, trunc2: int | None) -> S0Series:
    """The series at the doubled offset K2 whose coefficient at index j sums
    ``add_into(u_k, ., n, d)`` over the (shift, add_into, n, d) of ``terms``
    with k + shift = j, through ``trunc2``: each coefficient is accumulated
    in place, one [numerators, denominator] per component (``scale_into``,
    ``DiffOpJet.apply_into``), and reduced once."""
    slots: dict[int, list] = {}
    # u's coefficients outermost: with the terms outermost, each accumulator
    # regrows its denominator (``grow_den``) far more often
    for k, p in u.coeffs2.items():
        for shift, add_into, n, d in terms:
            j = k + shift
            if trunc2 is not None and j - K2 > trunc2:
                continue
            col = slots.get(j)
            if col is None:
                col = slots[j] = [[{}, 1] for _ in range(u.rank)]
            add_into(p, col, n, d)
    return S0Series(u.mode, u.n, u.rank, K2, _fiber_polys(u.mode, u.n, slots), trunc2)


# ---------------------------------------------------------------------------
# Taylor jets in x with half-integer series orders


class XJetSeries(_GradedSeries):
    """Series sum_k h^(k-K) a_k(x) with a_k truncated x-jets.

    The truncation order T (``trunc2`` = 2T) bounds what is exact (None =
    complete): the degree-d monomial at absolute exponent s is exact when
    s + d/2 <= T, the bound that the inverse rescaling provides.
    """

    __slots__ = ()

    def degree_bound_at2(self, s2: int) -> int | None:
        """Largest degree known-exact at the doubled absolute exponent s2 (None = all)."""
        return None if self.trunc2 is None else self.trunc2 - s2


def unrescale(v: S0Series) -> XJetSeries:
    """Inverse substitution y = x / sqrt(h): exact on the power-counted space.

    The y-monomial y^alpha at relative index j returns to x^alpha at relative
    index j - |alpha|/2, which the degree bound keeps nonnegative. Degree d at
    absolute exponent s came from order s + d/2, so v's truncation order is
    the output's.
    """
    # each term c y^alpha at doubled index k moves to k - |alpha|, on
    # numerators; no two terms meet on one monomial of one component, as the
    # target index and alpha fix k
    shift = v.n * EXPONENT_BITS
    slots: dict[int, list] = {}
    for k, p in v.items2():
        for ci, comp in enumerate(p.components):
            d = comp.den
            for alpha, c in comp.num.items():
                j = k - (alpha >> shift)
                col = slots.get(j)
                if col is None:
                    col = slots[j] = [[{}, 1] for _ in range(v.rank)]
                slot = col[ci]
                if slot[1] % d:
                    slot[1] = grow_den(slot[0], slot[1], d)
                f = slot[1] // d
                slot[0][alpha] = c if f == 1 else c * f
    coeffs = _fiber_polys(v.mode, v.n, slots)
    if min(coeffs, default=0) < 0:
        raise S0DegreeError("input violates the degree bound; not in the rescaled space")
    return XJetSeries(v.mode, v.n, v.rank, v.K2, coeffs, v.trunc2)
