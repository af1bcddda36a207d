"""The inner product on the power-counted space as finite Gaussian moments.

After the substitution x = sqrt(h) y, the weighted integral of two elements
against exp(-2*phase/h) times the metric density becomes, order by order,

    coefficient of h^t  =  sum over j + l + m = t + K1 + K2 of
        integral( <u_j, v_l>(y) * omega_m(y) * exp(-<y, Lambda y>) dy )

where the omega_m collect the non-quadratic phase terms and the metric
density, and <u, v> = sum_i conj(u_i) v_i is the fiber inner product, the
identity metric of the radial parallel frame. All moments are normalized by
the common Gaussian factor prod sqrt(pi / lambda_nu), which keeps every
coefficient in the base field and makes the conventionally normalized
oscillator eigenfunctions exactly orthonormal at leading order.

Each weight order acts as a linear functional on the fiber integrand:
L_m(gamma) = sum_beta omega_m[beta] * M(gamma + beta), with M the normalized
moment, so the integral above is sum_gamma <u_j, v_l>[gamma] * L_m(gamma).
``WeightExpansion`` fills its table of L_m lazily while pairing, as integer
numerators over one denominator, and no product polynomial integrand *
omega_m is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Mapping

from .series_algebra import (
    FormalScalarSeries,
    HI0,
    HalfInt,
    Poly,
    S0Series,
    _min_trunc,
    convolution_bound,
    euler_recurrence,
    grow_den,
    mono_degree,
)
from .operator_calculus import JetProblem, ScalarJet

__all__ = [
    "WeightExpansion",
    "weight_expansion",
    "gaussian_moment",
    "pair_s0",
]


# ---------------------------------------------------------------------------
# Moment primitives


def _half_factorial_part(k: int, lam) -> object:
    """integral y^k exp(-lam y^2) dy divided by sqrt(pi/lam): (k-1)!! / (2 lam)^(k/2)."""
    if k % 2 == 1:
        return None
    num = 1
    for i in range(k - 1, 0, -2):
        num *= i
    denom = (lam + lam) ** (k // 2)
    return num / denom


def gaussian_moment(alpha: tuple, lam: tuple, mode) -> object:
    """Normalized Gaussian moment of y^alpha for the diagonal quadratic weight.

    Returns integral(y^alpha exp(-<y, Lambda y>) dy) / prod(sqrt(pi/lambda)):
    the product over nu of (alpha_nu - 1)!! / (2 lambda_nu)^(alpha_nu / 2)
    for even multi-indices, zero otherwise. The irrational common factor is
    never materialized.
    """
    out = mode.one()
    for a, l in zip(alpha, lam):
        part = _half_factorial_part(a, l)
        if part is None:
            return mode.zero()
        out = out * part
    return out


# ---------------------------------------------------------------------------
# Weight expansion


class _Functional:
    """gamma -> L(gamma) = sum_beta w[beta] M(gamma + beta) for one weight
    polynomial w: the normalized Gaussian integral of y^gamma * w(y).

    The values are kept fraction-free, as numerators ``num`` over one
    denominator ``den`` that grows to the lcm of the entries. Each entry is
    computed the first time an integrand needs it and kept.
    """

    def __init__(self, weight: Poly, lam: tuple, moments: dict):
        self.weight = weight
        self.lam = lam
        self.moments = moments
        self.num: dict[tuple, object] = {}
        self.den = 1

    def _fill(self, gamma: tuple) -> None:
        w = self.weight
        mode = w.mode
        moments = self.moments
        total = 0
        for beta, c in w.num.items():
            alpha = tuple(map(add, gamma, beta))
            mom = moments.get(alpha)
            if mom is None:
                mom = moments[alpha] = gaussian_moment(alpha, self.lam, mode)
            if mom:
                total = total + c * mom
        p, q = mode.split(mode.join(total, w.den))
        if self.den % q:
            self.den = grow_den(self.num, self.den, q)
        self.num[gamma] = p if q == self.den else p * (self.den // q)

    def pair(self, integrand: Poly) -> object:
        """L(integrand) = sum_gamma integrand[gamma] L(gamma), as a mode value."""
        num = self.num
        for gamma in integrand.num.keys() - num.keys():
            self._fill(gamma)
        total = 0
        for gamma, c in integrand.num.items():
            ell = num[gamma]
            if ell:
                total = total + c * ell
        return self.weight.mode.join(total, self.den * integrand.den)


@dataclass(frozen=True)
class WeightExpansion:
    """Polynomials omega_m with exp(-2*higher phase) * density = sum h^m omega_m.

    omega_0 = 1; omega_m has parity (-1)^(2m) and collects products of the
    homogeneous phase parts (degree k + 2 at half-order k/2) with the metric
    density jets. ``complete`` bounds the orders that are exact. ``table``
    holds the functional L_m of each order ``functional`` was asked for, and
    ``moments`` the normalized moments they have read; both belong to this
    instance, so nothing outlives the weight.
    """

    mode: object
    lam: tuple
    omega: Mapping  # HalfInt -> Poly
    complete: HalfInt
    table: dict = field(default_factory=dict, compare=False, repr=False)
    moments: dict = field(default_factory=dict, compare=False, repr=False)

    def at(self, m: HalfInt) -> Poly:
        n = len(self.lam)
        return self.omega.get(m, Poly.zero(self.mode, n))

    def orders(self):
        return sorted(self.omega, key=lambda h: h.doubled)

    def abs(self) -> "WeightExpansion":
        """The expansion of the |coefficients| of each omega_m, sharing the moments."""
        return WeightExpansion(self.mode, self.lam, {m: p.abs() for m, p in self.omega.items()},
                               self.complete, moments=self.moments)

    def functional(self, m: HalfInt) -> _Functional:
        """The lazily filled functional L_m of the order-m weight."""
        lm = self.table.get(m)
        if lm is None:
            lm = self.table[m] = _Functional(self.omega[m], self.lam, self.moments)
        return lm


def _graded_mul(a: dict, b: dict, mode, n: int, through: HalfInt) -> dict:
    out: dict[HalfInt, Poly] = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            k = ka + kb
            if k > through:
                continue
            prod = pa * pb
            out[k] = out.get(k, Poly.zero(mode, n)) + prod
    return {k: p for k, p in out.items() if not p.is_zero()}


def weight_expansion(phi: ScalarJet, density: Poly, problem: JetProblem,
                     through) -> WeightExpansion:
    """Expand the non-Gaussian weight factors in half powers.

    The phase jet contributes exp(S), S = -2 sum_k h^(k/2) phi_{k+2}(y), by
    ``euler_recurrence`` over doubled orders; the metric density jet G
    (``density``, as formed with the second-order operator:
    ``ConjugatedOperator.density``) contributes its homogeneous parts at half
    their degree. Orders are exact through min(through, (phi completeness -
    2)/2, density completeness / 2).
    """
    mode, n = problem.mode, problem.n
    through = HalfInt.of(through)
    caps = [through, HalfInt(phi.complete - 2)]
    # S's part at doubled order d - 2 is -2 times phi's degree-d part
    s = {d - 2: part.scale(-2) for d, part in phi.poly.components_by_degree().items()
         if 2 < d <= through.doubled + 2}
    expo = {HalfInt(k): p for k, p in
            euler_recurrence(s, through.doubled, Poly.const(mode, n, 1), Poly.scale).items()}
    if not problem.metric_is_flat():
        caps.append(HalfInt(problem.D))
        g_parts: dict[HalfInt, Poly] = {}
        for d, part in density.components_by_degree().items():
            k = HalfInt(d)
            if k <= through:
                g_parts[k] = part
        expo = _graded_mul(expo, g_parts, mode, n, through)
    complete = min(caps)
    omega = {k: p for k, p in expo.items() if k <= complete and not p.is_zero()}
    # structural invariants: leading term 1, parity (-1)^(2m); a wrong-parity
    # term must be negligible against the largest term of its polynomial
    assert omega.get(HI0) == Poly.const(mode, n, 1)
    for k, p in omega.items():
        want = 0 if k.is_integer else 1
        scale = p.max_abs()
        for alpha, c in p.terms.items():
            if mono_degree(alpha) % 2 != want and not mode.negligible(c, scale):
                raise AssertionError("weight polynomial has impossible parity")
    return WeightExpansion(mode=mode, lam=problem.lam, omega=omega, complete=complete)


# ---------------------------------------------------------------------------
# The pairing


def pair_s0(u: S0Series, v: S0Series, omega: WeightExpansion,
            through: HalfInt | None = None) -> FormalScalarSeries:
    """Hermitian pairing of two power-counted series.

    Conjugate-linear in the first argument. Fiber components pair directly,
    sum_i conj(u_i) v_i: in the radial parallel frame of a metric connection
    the fiber metric is the identity to every order. The result's truncation
    order is the convolution bound of the three graded factors (the two
    series and the weight expansion). The fiber integrands that share a base
    order are summed first, and each sum is contracted against the weight's
    cached functionals L_m instead of being multiplied by omega_m.
    """
    mode = u.mode
    if (u.n, u.rank) != (v.n, v.rank):
        raise ValueError("shape mismatch between pairing arguments")
    # conjugation is the identity on rational coefficients
    real_field = mode.name == "exact"
    weights = [(m, omega.functional(m)) for m in omega.orders()]

    trunc = convolution_bound((u.truncation_order, u.order()), (v.truncation_order, v.order()),
                              (omega.complete, HI0))
    if through is not None:
        trunc = _min_trunc(trunc, HalfInt.of(through))

    # the fiber integrands summed by base order, so that each weight
    # functional reads every base order once
    by_base: dict[HalfInt, Poly] = {}
    for ju, pu in u.coeffs.items():
        au = ju - u.K
        for jv, pv in v.coeffs.items():
            base = au + (jv - v.K)
            if base > trunc:
                continue
            for ui, vi in zip(pu.components, pv.components):
                if not ui.is_zero() and not vi.is_zero():
                    prod = (ui if real_field else ui.conj()) * vi
                    acc = by_base.get(base)
                    by_base[base] = prod if acc is None else acc + prod

    terms: dict[HalfInt, object] = {}
    for base, integrand in by_base.items():
        if integrand.is_zero():
            continue
        room = trunc - base
        for m, lm in weights:
            if m > room:
                break
            val = lm.pair(integrand)
            if mode.is_zero(val):
                continue
            t = base + m
            s = terms.get(t)
            terms[t] = val if s is None else s + val
    return FormalScalarSeries.from_terms(mode, terms, trunc)
