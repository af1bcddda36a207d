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
``WeightExpansion`` fills its table of L_m lazily while pairing, each
entry contracted from integer moment rows (one per dimension, exponent and
weight), and no product polynomial integrand * omega_m is ever formed. The
integrands, too, are accumulated as integer numerators over one denominator,
in place: the fraction-free accumulation of ``Poly`` and ``HermiteVec``
(E. H. Bareiss, Math. Comp. 22 (1968) 565).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Mapping

from .series_algebra import (
    FormalScalarSeries,
    Poly,
    S0Series,
    _min_trunc,
    check_degree,
    convolution_bound,
    euler_recurrence,
    grow_den,
    unpack,
)
from .harmonic_oscillator import _field_tops, _prefix_tree
from .operator_calculus import JetProblem, ScalarJet

__all__ = [
    "WeightExpansion",
    "weight_expansion",
    "pair_s0",
]


# ---------------------------------------------------------------------------
# Weight expansion


class _Functional:
    """gamma -> L(gamma) = sum_beta w[beta] M(gamma + beta) for one weight
    polynomial w: the normalized Gaussian integral of y^gamma * w(y).

    The normalized moment factors over dimensions, M(alpha) = prod_nu
    (alpha_nu - 1)!! (c_nu / d_nu)^(alpha_nu / 2), c_nu / d_nu = 1/(2 lambda_nu)
    in lowest terms, and vanishes unless every alpha_nu is even. So L(gamma)
    is the weight's beta-prefix tree contracted against one integer moment
    row per dimension (``_row``), over w.den prod_nu d_nu^e_nu. The values are
    kept fraction-free, as numerators ``num`` over one denominator ``den``
    that grows to the lcm of the entries, keyed by packed gamma. Each entry
    is computed the first time an integrand needs it and kept.
    """

    def __init__(self, weight: Poly, lam: tuple, moments: dict):
        mode = weight.mode
        self.weight = weight
        self.moments = moments
        self.half = [mode.split(mode.one() / (l + l)) for l in lam]
        self.tree = _prefix_tree(list(weight.num.items()), weight.n)
        self.tops = _field_tops(weight.num, weight.n)
        self.num: dict[int, object] = {}
        self.den = 1

    def _row(self, nu: int, g: int, top: int) -> list:
        """The moments of dimension nu at the exponents g + b, b <= top, kept in
        the shared ``moments``: entry b is (g+b-1)!! c^k d^(e-k) with k = (g+b)/2
        and e = floor((g+top)/2), zero for odd g + b, so that over d^e it is
        the one-dimensional moment. Each entry is the one two before it times
        (g+b-1) c / d, and d divides that product exactly."""
        key = (nu, g, top)
        row = self.moments.get(key)
        if row is None:
            c, d = self.half[nu]
            row = self.moments[key] = [0] * (top + 1)
            b, k = g % 2, (g + 1) // 2  # the first entry with g + b even
            if b <= top:
                x = c ** k * d ** ((g + top) // 2 - k)
                for i in range(2 * k - 1, 0, -2):
                    x *= i
                row[b] = x
                for b in range(b + 2, top + 1, 2):
                    x *= (g + b - 1) * c
                    if d != 1:  # float mode keeps d == 1, and // is not defined on complex
                        x //= d
                    row[b] = x
        return row

    def _fill(self, key: int) -> None:
        gamma = unpack(key, self.weight.n)
        rows = [self._row(nu, g, top) for nu, (g, top) in enumerate(zip(gamma, self.tops))]
        p = _contract(self.tree, rows, 0)
        q = self.weight.den * prod(d ** ((g + top) // 2)
                                   for (_, d), g, top in zip(self.half, gamma, self.tops))
        if self.den % q:
            self.den = grow_den(self.num, self.den, q)
        self.num[key] = p if q == self.den else p * (self.den // q)

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


def _contract(tree: tuple, rows: list, nu: int):
    """The sum over the prefix tree of dimension nu of t prod_{mu >= nu} rows[mu][beta_mu]."""
    row, last = rows[nu], nu == len(rows) - 1
    total = 0
    for b, child in tree:  # a leaf holds the term's numerator t
        x = row[b]
        if x:
            total += x * (child if last else _contract(child, rows, nu + 1))
    return total


@dataclass(frozen=True)
class WeightExpansion:
    """Polynomials omega_m with exp(-2*higher phase) * density = sum h^m omega_m.

    omega_0 = 1; omega_m has parity (-1)^(2m) and collects products of the
    homogeneous phase parts (degree k + 2 at half-order k/2) with the metric
    density jets. ``omega2`` keys omega_m by the doubled order 2m, and
    ``complete2`` is the doubled order through which they are exact. ``table``
    holds the functional L_m of each order ``functional`` was asked for, and
    ``moments`` the moment rows they have read, keyed (nu, g, top); both
    belong to this instance, so nothing outlives the weight.
    """

    mode: object
    lam: tuple
    omega2: Mapping  # doubled order -> Poly
    complete2: int
    table: dict = field(default_factory=dict, compare=False, repr=False)
    moments: dict = field(default_factory=dict, compare=False, repr=False)

    def orders2(self) -> list[int]:
        return sorted(self.omega2)

    def abs(self) -> "WeightExpansion":
        """The expansion of the |coefficients| of each omega_m, sharing the moments."""
        return WeightExpansion(self.mode, self.lam, {m: p.abs() for m, p in self.omega2.items()},
                               self.complete2, moments=self.moments)

    def functional(self, m2: int) -> _Functional:
        """The lazily filled functional L_m of the weight at doubled order m2."""
        lm = self.table.get(m2)
        if lm is None:
            lm = self.table[m2] = _Functional(self.omega2[m2], self.lam, self.moments)
        return lm


def _graded_mul(a: dict, b: dict, through: int) -> dict:
    grades: dict[int, list] = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            if ka + kb <= through:
                grades.setdefault(ka + kb, []).append((1, pa, pb))
    return {k: p for k, terms in grades.items() if not (p := Poly.weighted_sum(terms, 1)).is_zero()}


def weight_expansion(phi: ScalarJet, density: Poly, problem: JetProblem,
                     through2: int) -> WeightExpansion:
    """Expand the non-Gaussian weight factors in half powers, keyed by
    doubled order.

    The phase jet contributes exp(S), S = -2 sum_k h^(k/2) phi_{k+2}(y), by
    ``euler_recurrence`` over doubled orders, each grade's products summed in
    place and reduced once (``Poly.weighted_sum``); the metric density jet G
    (``density``, as formed with the second-order operator:
    ``ConjugatedOperator.density``) contributes its homogeneous parts at half
    their degree. Orders are exact through min(through2 / 2, (phi completeness -
    2)/2, density completeness / 2).
    """
    mode, n = problem.mode, problem.n
    caps = [through2, phi.complete - 2]
    # S's part at doubled order d - 2 is -2 times phi's degree-d part
    s = {d - 2: part.scale(-2) for d, part in phi.poly.components_by_degree().items()
         if 2 < d <= through2 + 2}
    expo = euler_recurrence(s, through2, Poly.const(mode, n, 1), Poly.weighted_sum)
    if not problem.metric_is_flat():
        caps.append(problem.D)
        g_parts = {d: part for d, part in density.components_by_degree().items()
                   if d <= through2}
        expo = _graded_mul(expo, g_parts, through2)
    complete = min(caps)
    omega = {k: p for k, p in expo.items() if k <= complete and not p.is_zero()}
    # structural invariants: leading term 1, parity (-1)^(2m); a wrong-parity
    # term must be negligible against the largest term of its polynomial
    assert omega.get(0) == Poly.const(mode, n, 1)
    for k, p in omega.items():
        want = k % 2
        scale = p.max_abs()
        for alpha, c in p.terms.items():
            if sum(alpha) % 2 != want and not mode.negligible(c, scale):
                raise AssertionError("weight polynomial has impossible parity")
    return WeightExpansion(mode=mode, lam=problem.lam, omega2=omega, complete2=complete)


# ---------------------------------------------------------------------------
# The pairing


def pair_s0(u: S0Series, v: S0Series, omega: WeightExpansion,
            through2: int | None = None) -> FormalScalarSeries:
    """Hermitian pairing of two power-counted series.

    Conjugate-linear in the first argument. Fiber components pair directly,
    sum_i conj(u_i) v_i: in the radial parallel frame of a metric connection
    the fiber metric is the identity to every order. The result's truncation
    order is the convolution bound of the three graded factors (the two
    series and the weight expansion). The fiber integrands that share a base
    order are accumulated in place into one set of numerators over one
    denominator (``_add_product``), reduced once, and contracted against the
    weight's cached functionals L_m instead of being multiplied by omega_m.
    When u is v, the integrands of the orders (j, l) and (l, j) are
    conjugate: each mirrored pair's product is formed once and added
    together with its conjugate.
    """
    mode = u.mode
    if (u.n, u.rank) != (v.n, v.rank):
        raise ValueError("shape mismatch between pairing arguments")
    # conjugation is the identity on rational coefficients
    real_field = mode.name == "exact"
    hermitian = u is v
    weights = [(m, omega.functional(m)) for m in omega.orders2()]

    trunc = convolution_bound((u.trunc2, u.order2()), (v.trunc2, v.order2()),
                              (omega.complete2, 0))
    trunc = _min_trunc(trunc, through2)

    # the fiber integrands summed by base order, as [numerators, denominator],
    # so that each weight functional reads every base order once
    by_base: dict[int, list] = {}
    for ju, pu in u.coeffs2.items():
        au = ju - u.K2
        for jv, pv in v.coeffs2.items():
            if hermitian and jv < ju:
                continue
            base = au + (jv - v.K2)
            if base > trunc:
                continue
            acc = by_base.get(base)
            if acc is None:
                acc = by_base[base] = [{}, 1]
            for ui, vi in zip(pu.components, pv.components):
                if ui.num and vi.num:
                    acc[1] = _add_product(*acc, ui, vi, real_field, hermitian and jv != ju)

    terms: dict[int, object] = {}
    for base, (num, den) in by_base.items():
        integrand = Poly._reduced(mode, u.n, num, den)
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
    return FormalScalarSeries.from_terms2(mode, terms, trunc)


def _add_product(num: dict, den: int, ui: Poly, vi: Poly, real_field: bool,
                 mirrored: bool) -> int:
    """Add conj(ui) * vi, and with ``mirrored`` its conjugate too, in place to
    the numerators ``num`` over ``den``; return their denominator, grown to
    the lcm (as ``series_algebra.accumulate`` does). A product key is the
    sum of the packed keys."""
    check_degree(ui.degree() + vi.degree())
    d = ui.den * vi.den
    if den % d:
        den = grow_den(num, den, d)
    f = den // d
    if mirrored and real_field:
        f *= 2  # a rational product is its own conjugate
    get = num.get
    right = vi.num.items()
    for a, ca in ui.num.items():
        if not real_field:
            ca = ca.conjugate()
        if f != 1:
            ca *= f
        for b, cb in right:
            key = a + b
            c = ca * cb
            if mirrored and not real_field:
                c += c.conjugate()
            s = get(key)
            num[key] = c if s is None else s + c
    return den
