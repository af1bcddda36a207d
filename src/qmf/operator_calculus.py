"""Operator-jet calculus: problem data, the eikonal phase, conjugation, grading.

The chain implemented here goes

    JetProblem  --solve_eikonal-->  phase jet phi
                --conjugate_hamiltonian-->  x-side operator pieces
                --rescale_operator-->  graded family {Q_j}

``DiffOpJet`` is the workhorse: a differential operator with endomorphism-
valued polynomial coefficients, supporting exact composition (Leibniz) and a
formal conjugation by the exponential phase weight, implemented as the
substitution d_i -> d_i - phi_i / h. The conjugated Hamiltonian's order-h^0
part must cancel identically (that is the eikonal equation); the h^2 and h^1
parts are split into graded homogeneous pieces, themselves ``DiffOpJet``s, and
re-read as the polynomial-coefficient operators Q_j of the rescaled variable.
Every operator of the chain, the graded family included, is applied through
the one ``DiffOpJet.apply``: on its first use an operator compiles itself into
a flat stencil, and each application is one pass over the input monomials per
output component, optionally bounded by the output degree a caller keeps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, lcm
from typing import Mapping

from .series_algebra import (
    EXPONENT_BITS,
    MAX_DEGREE,
    FiberPoly,
    Poly,
    S0Series,
    _fiber_polys,
    _min_trunc,
    _same_mode,
    accumulate,
    check_degree,
    convolution_bound,
    euler_recurrence,
    hermitian_eigh,
    pack,
)

__all__ = [
    "PolyMat",
    "ScalarJet",
    "JetProblem",
    "DiffOpJet",
    "ConjugatedOperator",
    "OperatorFamily",
    "solve_eikonal",
    "conjugate_hamiltonian",
    "rescale_operator",
    "EikonalError",
    "ProblemValidationError",
]


class ProblemValidationError(ValueError):
    """Input jets violate a structural requirement of the setup."""


class EikonalError(ValueError):
    """The phase jet does not (or cannot) satisfy the eikonal equation."""


# ---------------------------------------------------------------------------
# Small matrices of polynomials

PolyMat = tuple  # tuple[tuple[Poly, ...], ...]


def pm_zero(mode, n: int, size: int) -> PolyMat:
    z = Poly.zero(mode, n)
    return tuple(tuple(z for _ in range(size)) for _ in range(size))


def pm_identity(mode, n: int, size: int) -> PolyMat:
    one = Poly.const(mode, n, 1)
    z = Poly.zero(mode, n)
    return tuple(tuple(one if i == j else z for j in range(size)) for i in range(size))


def pm_add(a: PolyMat, b: PolyMat) -> PolyMat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def pm_neg(a: PolyMat) -> PolyMat:
    return tuple(tuple(-x for x in ra) for ra in a)


def pm_mul(a: PolyMat, b: PolyMat, through: int | None = None) -> PolyMat:
    """The matrix product; with ``through``, each entry only through that degree."""
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = Poly.zero(a[0][0].mode, a[0][0].n)
            for k in range(size):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k].mul(b[k][j], through)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def pm_is_zero(a: PolyMat) -> bool:
    return all(x.is_zero() for ra in a for x in ra)


def pm_conj_transpose(a: PolyMat) -> PolyMat:
    size = len(a)
    return tuple(tuple(a[j][i].conj() for j in range(size)) for i in range(size))


def poly_det(a: PolyMat, through: int | None = None) -> Poly:
    """Determinant by cofactor expansion (matrices here are tiny); with
    ``through``, only its terms of degree <= through."""
    size = len(a)
    if size == 1:
        return a[0][0] if through is None else a[0][0].truncate_degree(through)
    if size == 2:
        return a[0][0].mul(a[1][1], through) - a[0][1].mul(a[1][0], through)
    d = Poly.zero(a[0][0].mode, a[0][0].n)
    for j in range(size):
        minor = tuple(tuple(row[c] for c in range(size) if c != j) for row in a[1:])
        term = a[0][j].mul(poly_det(minor, through), through)
        d = d + (term if j % 2 == 0 else -term)
    return d


def poly_power_jet(p: Poly, expo: Fraction, through: int) -> Poly:
    """(1 + u)^expo through degree ``through``, for p = 1 + u with u of
    positive minimal degree, by ``euler_recurrence`` over u's homogeneous
    parts."""
    one = Poly.const(p.mode, p.n, 1)
    u = p - one
    if not u.is_zero() and u.min_degree() < 1:
        raise ValueError("jet must be 1 plus higher-degree terms")
    parts = euler_recurrence(u.components_by_degree(), through, one, Poly.weighted_sum, expo)
    return sum(parts.values(), Poly.zero(p.mode, p.n))


# ---------------------------------------------------------------------------
# Scalar jets


@dataclass(frozen=True)
class ScalarJet:
    """Scalar Taylor jet: a polynomial exact through ``complete`` total degree."""

    poly: Poly
    complete: int


# ---------------------------------------------------------------------------
# Problem data


@dataclass
class JetProblem:
    """Truncated Taylor data of the operator at the potential minimum.

    All jets are given in geodesic normal coordinates and the radial parallel
    frame: the inverse metric starts at the identity with no linear term, the
    potential starts at sum_nu lambda_nu^2 x_nu^2, and the connection
    coefficients are skew-hermitian, so the fiber metric is the identity to
    every order. ``D`` is the degree through which the inputs are treated as
    complete (the potential through D + 2). The second-order operator is the
    Bochner form built from the metric and connection jets.
    """

    mode: object
    n: int
    rank: int
    D: int
    lam: tuple
    V: Poly
    g_inv: PolyMat
    W: PolyMat
    Gamma: tuple
    mu: tuple = ()

    @staticmethod
    def create(mode, n, rank, D, lam, V=None, g_inv=None, W=None, Gamma=None) -> "JetProblem":
        lam = tuple(map(mode.coeff, lam))
        if V is None:
            V = Poly.zero(mode, n)
        if not any(sum(a) == 2 for a in V.terms):
            for nu in range(n):
                alpha = [0] * n
                alpha[nu] = 2
                V = V + Poly.monomial(mode, n, tuple(alpha), lam[nu] * lam[nu])
        if g_inv is None:
            g_inv = pm_identity(mode, n, n)
        if W is None:
            W = pm_zero(mode, n, rank)
        if Gamma is None:
            Gamma = tuple(pm_zero(mode, n, rank) for _ in range(n))
        p = JetProblem(mode, n, rank, D, lam, V, g_inv, W, tuple(Gamma))
        p.validate()
        return p

    def validate(self) -> None:
        mode = self.mode
        if self.n < 1 or self.rank < 1:
            raise ProblemValidationError("dimension and rank must be positive")
        if len(self.lam) != self.n:
            raise ProblemValidationError("need one frequency per dimension")
        for l in self.lam:
            if mode.to_float(l) <= 0:
                raise ProblemValidationError("degenerate minimum: every frequency must be positive")
        for alpha, c in self.V.terms.items():
            d = sum(alpha)
            if d < 2:
                raise ProblemValidationError("potential must vanish to second order at the minimum")
            if d == 2:
                nz = [i for i, e in enumerate(alpha) if e]
                if len(nz) != 1:
                    raise ProblemValidationError(
                        "coordinates not normalized: quadratic cross term in the potential")
                nu = nz[0]
                if not mode.close(c, self.lam[nu] * self.lam[nu]):
                    raise ProblemValidationError(
                        "coordinates not normalized: quadratic part must be sum lambda_nu^2 x_nu^2")
        for nu in range(self.n):
            alpha = [0] * self.n
            alpha[nu] = 2
            if mode.is_zero(self.V.coefficient(tuple(alpha))):
                raise ProblemValidationError("coordinates not normalized: missing quadratic term")
        z = (0,) * self.n
        for i in range(self.n):
            for j in range(self.n):
                e = self.g_inv[i][j]
                want = mode.one() if i == j else mode.zero()
                if not mode.close(e.coefficient(z), want):
                    raise ProblemValidationError("inverse metric must be the identity at the base point")
                for alpha, c in e.terms.items():
                    if sum(alpha) == 1:
                        raise ProblemValidationError(
                            "inverse metric must have no linear term (normal coordinates)")
                if not (e - self.g_inv[j][i]).is_zero():
                    raise ProblemValidationError("inverse metric must be symmetric")
        if not pm_is_zero(pm_add(self.W, pm_neg(pm_conj_transpose(self.W)))):
            raise ProblemValidationError("endomorphism field must be hermitian")
        for G in self.Gamma:
            if not pm_is_zero(pm_add(G, pm_conj_transpose(G))):
                raise ProblemValidationError("connection coefficients must be skew-hermitian")
        w0 = [[self.W[i][j].coefficient(z) for j in range(self.rank)] for i in range(self.rank)]
        off = any(not mode.is_zero(w0[i][j])
                  for i in range(self.rank) for j in range(self.rank) if i != j)
        if off:
            if mode.name == "exact":
                raise ProblemValidationError(
                    "endomorphism value at the minimum must be diagonal in exact mode")
            self._diagonalize_fiber()
            w0 = [[self.W[i][j].coefficient(z) for j in range(self.rank)]
                  for i in range(self.rank)]
        mu = tuple(w0[i][i] for i in range(self.rank))
        for m in mu:
            if not mode.is_real(m):
                raise ProblemValidationError("endomorphism eigenvalues must be real")
        self.mu = mu

    def _diagonalize_fiber(self) -> None:
        z = (0,) * self.n
        _, u = hermitian_eigh([[self.W[i][j].coefficient(z) for j in range(self.rank)]
                               for i in range(self.rank)])

        def rotate(m: PolyMat) -> PolyMat:
            out = []
            for i in range(self.rank):
                row = []
                for j in range(self.rank):
                    acc = Poly.zero(self.mode, self.n)
                    for a in range(self.rank):
                        for b in range(self.rank):
                            coef = u[i][a].conjugate() * u[j][b]
                            acc = acc + m[a][b].scale(coef)
                    row.append(acc)
                out.append(tuple(row))
            return tuple(out)

        self.W = rotate(self.W)
        self.Gamma = tuple(rotate(G) for G in self.Gamma)

    def metric_is_flat(self) -> bool:
        ident = pm_identity(self.mode, self.n, self.n)
        return pm_is_zero(pm_add(self.g_inv, pm_neg(ident)))

    def has_connection(self) -> bool:
        return any(not pm_is_zero(G) for G in self.Gamma)


# ---------------------------------------------------------------------------
# Differential operator jets


class DiffOpJet:
    """Operator sum_beta C_beta(x) d^beta with endomorphism polynomial coefficients.

    ``complete`` bounds the graded degree through which the operator's
    homogeneous pieces are exact (None = exact at all degrees); composition
    tracks it with the convolution rule min(cA + ord B, cB + ord A)
    (``convolution_bound``) and forms no coefficient term past it.

    ``apply`` and ``HermiteBasis.apply`` read one stencil (``stencil``),
    compiled on first use: per output fibre row, the input column, beta and
    the coefficient terms (alpha, integer numerator, |alpha|) sorted by |alpha|
    over one denominator for the whole operator (complex numerators over 1 in
    float mode). Instances are treated as immutable, so it never goes stale;
    ``_hermite_tree`` likewise keeps what ``HermiteBasis.apply`` derives
    from the stencil.
    """

    __slots__ = ("mode", "n", "rank", "terms", "complete", "_stencil", "_hermite_tree")

    def __init__(self, mode, n: int, rank: int, terms: Mapping[tuple, PolyMat],
                 complete: int | None = None):
        self.mode = mode
        self.n = n
        self.rank = rank
        self.terms = {b: m for b, m in terms.items() if not pm_is_zero(m)}
        self.complete = complete
        self._stencil = None
        self._hermite_tree = None

    @staticmethod
    def zero(mode, n, rank, complete=None) -> "DiffOpJet":
        return DiffOpJet(mode, n, rank, {}, complete)

    @staticmethod
    def identity(mode, n, rank) -> "DiffOpJet":
        return DiffOpJet(mode, n, rank, {(0,) * n: pm_identity(mode, n, rank)})

    @staticmethod
    def multiplication(m: PolyMat, complete: int | None = None) -> "DiffOpJet":
        p = m[0][0]
        return DiffOpJet(p.mode, p.n, len(m), {(0,) * p.n: m}, complete)

    @staticmethod
    def scalar_multiplication(p: Poly, rank: int, complete: int | None = None) -> "DiffOpJet":
        z = Poly.zero(p.mode, p.n)
        return DiffOpJet.multiplication(
            tuple(tuple(p if i == j else z for j in range(rank)) for i in range(rank)), complete)

    @staticmethod
    def derivative(mode, n, rank, i: int) -> "DiffOpJet":
        beta = [0] * n
        beta[i] = 1
        return DiffOpJet(mode, n, rank, {tuple(beta): pm_identity(mode, n, rank)})

    def min_degree(self):
        """Smallest graded degree present (coefficient degree minus |beta|)."""
        return min((x.min_degree() - sum(b) for b, m in self.terms.items()
                    for row in m for x in row if not x.is_zero()), default=float("inf"))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffOpJet") -> "DiffOpJet":
        _same_mode(self.mode, other.mode)
        terms = dict(self.terms)
        for b, m in other.terms.items():
            terms[b] = pm_add(terms[b], m) if b in terms else m
        return DiffOpJet(self.mode, self.n, self.rank, terms,
                         _min_trunc(self.complete, other.complete))

    def scale(self, c) -> "DiffOpJet":
        return DiffOpJet(self.mode, self.n, self.rank,
                         {b: tuple(tuple(x.scale(c) for x in row) for row in m)
                          for b, m in self.terms.items()}, self.complete)

    def abs(self) -> "DiffOpJet":
        """The operator with every coefficient replaced by its |value|: applied
        to |q| it bounds the magnitudes that ``apply`` sums into each output
        coefficient."""
        return DiffOpJet(self.mode, self.n, self.rank,
                         {b: tuple(tuple(x.abs() for x in row) for row in m)
                          for b, m in self.terms.items()}, self.complete)

    def compose(self, other: "DiffOpJet") -> "DiffOpJet":
        """Operator product self . other, exact Leibniz expansion; the
        coefficient of d^key is formed only through degree complete + |key|,
        the graded degrees through which the product is exact."""
        _same_mode(self.mode, other.mode)
        comp = convolution_bound((self.complete, self.min_degree()),
                                 (other.complete, other.min_degree()))
        terms: dict[tuple, PolyMat] = {}
        for beta, m in self.terms.items():
            for gamma_, nmat in other.terms.items():
                for sigma in _sub_multi_indices(beta):
                    coef = 1
                    for bi, si in zip(beta, sigma):
                        coef *= comb(bi, si)
                    d = nmat
                    for i, si in enumerate(sigma):
                        for _ in range(si):
                            d = tuple(tuple(x.diff(i) for x in ra) for ra in d)
                    if pm_is_zero(d):
                        continue
                    key = tuple(b - s + g for b, s, g in zip(beta, sigma, gamma_))
                    prod = pm_mul(m, d, None if comp is None else comp + sum(key))
                    if coef != 1:
                        prod = tuple(tuple(x.scale(coef) for x in row) for row in prod)
                    terms[key] = pm_add(terms[key], prod) if key in terms else prod
        return DiffOpJet(self.mode, self.n, self.rank, terms, comp)

    def stencil(self) -> tuple:
        """The compiled form (den, top, rows), built on first call and kept:
        ``rows[i]`` lists, for output component i, the entries (column j,
        packed beta, nonzero (field shift of k, beta_k), terms) of
        C_beta[i][j] d^beta, with terms (packed alpha, numerator, |alpha|)
        sorted by |alpha| over the one denominator ``den``; ``top`` is the
        largest |alpha|."""
        if self._stencil is not None:
            return self._stencil
        den = lcm(*(entry.den for m in self.terms.values() for row in m for entry in row))
        shift = self.n * EXPONENT_BITS
        rows = []
        for i in range(self.rank):
            row = []
            for beta, m in self.terms.items():
                steps = tuple((EXPONENT_BITS * (self.n - 1 - k), b) for k, b in enumerate(beta) if b)
                for j, entry in enumerate(m[i]):
                    if entry.num:
                        f = den // entry.den
                        terms = sorted(((a, c * f, a >> shift) for a, c in entry.num.items()),
                                       key=operator.itemgetter(2))
                        row.append((j, pack(beta), steps, tuple(terms)))
            rows.append(tuple(row))
        top = max((t[-1][2] for row in rows for *_, t in row), default=0)
        self._stencil = den, top, tuple(rows)
        return self._stencil

    def apply(self, q: FiberPoly, through: int | None = None) -> FiberPoly:
        """The operator applied to ``q``; with ``through``, only the terms of
        total degree <= through (the same as truncating the full image).

        Each input monomial c y^m meets each stencil term (alpha, t) of a
        C_beta d^beta entry once: it adds c t m!/(m - beta)! at
        y^(m - beta + alpha), packed key m - beta + alpha, skipped when some
        field m_k < beta_k, into one numerator dict per output component,
        reduced once at the end.
        """
        if q.rank != self.rank:
            raise ValueError("rank mismatch")
        if q.n != self.n:
            raise ValueError("variable count mismatch")
        _same_mode(self.mode, q.mode)
        op_den, top, rows = self.stencil()
        comps = q.components
        q_den = lcm(*(comp.den for comp in comps))
        shift = self.n * EXPONENT_BITS
        check_degree(q.degree() + top if through is None else min(q.degree() + top, through))
        out = []
        for row in rows:
            num: dict = {}
            get = num.get
            for j, beta, steps, terms in row:
                comp = comps[j]
                f = q_den // comp.den
                for m, c in comp.num.items():
                    for sh, b in steps:
                        mk = m >> sh & MAX_DEGREE
                        if mk < b:
                            break
                        for r in range(b):
                            c *= mk - r
                    else:
                        m -= beta  # the degree field drops by |beta| with the exponents
                        if f != 1:
                            c *= f
                        room = inf if through is None else through - (m >> shift)
                        for alpha, t, deg in terms:
                            if deg > room:
                                break
                            key = m + alpha
                            s = get(key)
                            num[key] = c * t if s is None else s + c * t
            out.append(Poly._reduced(self.mode, self.n, num, op_den * q_den))
        return FiberPoly(out)

    def graded_pieces(self) -> dict[int, "DiffOpJet"]:
        """Split into homogeneous pieces keyed by degree |alpha| - |beta|.

        Each coefficient C_beta is cut by monomial degree |alpha|; the piece of
        degree d maps a homogeneous polynomial of degree k to degree k + d, and
        the pieces sum to the operator.
        """
        z = Poly.zero(self.mode, self.n)
        buckets: dict[int, dict] = {}
        for beta, m in self.terms.items():
            ob = sum(beta)
            for i, row in enumerate(m):
                for j, entry in enumerate(row):
                    for deg, part in entry.components_by_degree().items():
                        mat = buckets.setdefault(deg - ob, {}).setdefault(
                            beta, [[z] * self.rank for _ in range(self.rank)])
                        mat[i][j] = part
        return {d: DiffOpJet(self.mode, self.n, self.rank,
                             {beta: tuple(map(tuple, mat)) for beta, mat in terms.items()})
                for d, terms in sorted(buckets.items())}


def _sub_multi_indices(beta: tuple):
    if not beta:
        yield ()
        return
    for rest in _sub_multi_indices(beta[1:]):
        for s in range(beta[0] + 1):
            yield (s,) + rest


# ---------------------------------------------------------------------------
# Eikonal equation


def solve_eikonal(problem: JetProblem) -> ScalarJet:
    """Phase jet phi with |grad phi|^2 = V through degree D + 2.

    phi starts at (1/2) sum_nu lambda_nu x_nu^2; at each degree d >= 3 the
    unknown homogeneous part enters through the radial drift operator
    sum_nu 2 lambda_nu x_nu d_nu, which multiplies a monomial x^alpha by
    2 <lambda, alpha> > 0 and is therefore uniquely invertible. Degree 2
    cancels by the normalization ``JetProblem.validate`` enforces, and
    ``conjugate_hamiltonian`` checks the whole equation on the result.
    """
    mode, n = problem.mode, problem.n
    through = problem.D + 2
    phi = Poly.zero(mode, n)
    half = mode.coeff(Fraction(1, 2))
    for nu in range(n):
        alpha = [0] * n
        alpha[nu] = 2
        phi = phi + Poly.monomial(mode, n, tuple(alpha), problem.lam[nu] * half)

    # homogeneous parts by degree: g^{ij} and the phase gradient, which gains
    # its degree-(d - 1) part once phi's degree-d part is solved
    g_parts = [[problem.g_inv[i][j].components_by_degree() for j in range(n)] for i in range(n)]
    v_parts = problem.V.components_by_degree()
    grad_parts = [phi.diff(i).components_by_degree() for i in range(n)]
    for d in range(3, through + 1):
        # degrees below d already cancel, so only the degree-d part of
        # g^{ij} phi_i phi_j - V is formed: parts of degrees p + q + r = d.
        # g^{ij} is symmetric, so the (i, j, q, r) and (j, i, r, q) terms are
        # one product, formed once and added twice (i = j pairs q with r)
        r = -v_parts.get(d, Poly.zero(mode, n))
        for i in range(n):
            for j in range(i, n):
                for p, gp in g_parts[i][j].items():
                    for q, gq in grad_parts[i].items():
                        gr = grad_parts[j].get(d - p - q)
                        if gr is None or (i == j and 2 * q > d - p):
                            continue
                        term = gp * gq * gr
                        r = r + term if i == j and 2 * q == d - p else r + term + term
        if r.is_zero():
            continue
        terms = {}
        for alpha, c in r.terms.items():
            denom = mode.zero()
            for nu, a_nu in enumerate(alpha):
                denom = denom + problem.lam[nu] * (2 * a_nu)
            terms[alpha] = -c / denom
        phi_d = Poly(mode, n, terms)
        phi = phi + phi_d
        for i in range(n):
            part = phi_d.diff(i)
            if not part.is_zero():
                grad_parts[i][d - 1] = part
    return ScalarJet(phi, through)


# ---------------------------------------------------------------------------
# Hamiltonian assembly and conjugation


def _laplace_type_operator(problem: JetProblem) -> tuple[DiffOpJet, Poly]:
    """The second-order operator, Bochner form from (g, Gamma), and the
    metric density sqrt(det g_ij) = (det g^ij)^(-1/2) it is built from, as a
    jet through degree D (1 on a flat metric)."""
    mode, n, rank = problem.mode, problem.n, problem.rank
    flat = problem.metric_is_flat()
    gcomp = None if flat else problem.D
    if flat:
        G = inv_G = Poly.const(mode, n, 1)
    else:
        # det g_ij = 1 / det g^ij, so G = sqrt(det g_ij) and 1/G are its powers -1/2, 1/2
        det = poly_det(problem.g_inv, problem.D)
        G = poly_power_jet(det, Fraction(-1, 2), problem.D)
        inv_G = poly_power_jet(det, Fraction(1, 2), problem.D)
    acc = DiffOpJet.zero(mode, n, rank)
    for i in range(n):
        nabla_i = DiffOpJet.derivative(mode, n, rank, i)
        if not pm_is_zero(problem.Gamma[i]):
            nabla_i = nabla_i + DiffOpJet.multiplication(problem.Gamma[i], complete=problem.D)
        inner = DiffOpJet.zero(mode, n, rank)
        for j in range(n):
            gij = problem.g_inv[i][j]
            if gij.is_zero():
                continue
            nabla_j = DiffOpJet.derivative(mode, n, rank, j)
            if not pm_is_zero(problem.Gamma[j]):
                nabla_j = nabla_j + DiffOpJet.multiplication(problem.Gamma[j], complete=problem.D)
            coeff = G.mul(gij, problem.D) if not flat else gij
            inner = inner + DiffOpJet.scalar_multiplication(
                coeff, rank, complete=gcomp).compose(nabla_j)
        acc = acc + nabla_i.compose(inner)
    return DiffOpJet.scalar_multiplication(inv_G, rank, complete=gcomp).compose(acc).scale(-1), G


@dataclass
class ConjugatedOperator:
    """x-side pieces of the conjugated Hamiltonian.

    ``hbar2`` is the second-order operator, ``hbar1`` the transport operator
    (drift along twice the phase gradient + endomorphism + divergence term).
    Each is exact through its own ``complete`` graded degree. ``density`` is
    the metric density jet sqrt(det g_ij) that ``hbar2`` was built from.
    """

    hbar2: DiffOpJet
    hbar1: DiffOpJet
    density: Poly


def conjugate_hamiltonian(problem: JetProblem, phi: ScalarJet) -> ConjugatedOperator:
    """Conjugate h^2 L + h W + V by the exponential weight of the phase.

    Implemented as the substitution d_i -> d_i - phi_i / h inside the
    second-order operator: the 1/h^0 coefficient is L itself, the 1/h
    coefficient joins W as the order-h transport operator, and the 1/h^2
    coefficient must cancel the potential exactly -- a nonzero residual means
    the phase does not solve the eikonal equation and raises.
    """
    mode, n, rank = problem.mode, problem.n, problem.rank
    L, density = _laplace_type_operator(problem)
    grad_phi = [phi.poly.diff(i).truncate_degree(phi.complete - 1) for i in range(n)]
    phi_complete = phi.complete - 1  # coefficient degree of the mult(phi_i) ops

    by_power: dict[int, DiffOpJet] = {}
    for beta, m in L.terms.items():
        factors: dict[int, DiffOpJet] = {0: DiffOpJet.identity(mode, n, rank)}
        for i, bi in enumerate(beta):
            for _ in range(bi):
                x_op = {
                    0: DiffOpJet.derivative(mode, n, rank, i),
                    1: DiffOpJet.scalar_multiplication(-grad_phi[i], rank,
                                                       complete=phi_complete),
                }
                new: dict[int, DiffOpJet] = {}
                for pa, opa in factors.items():
                    for pb, opb in x_op.items():
                        key = pa + pb
                        piece = opa.compose(opb)
                        new[key] = new[key] + piece if key in new else piece
                factors = new
        # the coefficient of d^beta holds graded degrees up to L.complete + |beta|
        head_complete = None if L.complete is None else L.complete + sum(beta)
        head = DiffOpJet.multiplication(m, complete=head_complete)
        for power, op in factors.items():
            piece = head.compose(op)
            by_power[power] = by_power[power] + piece if power in by_power else piece

    hbar2 = by_power.get(0, DiffOpJet.zero(mode, n, rank))
    hbar1 = by_power.get(1, DiffOpJet.zero(mode, n, rank))
    hbar0 = by_power.get(2, DiffOpJet.zero(mode, n, rank))

    if not pm_is_zero(problem.W):
        hbar1 = hbar1 + DiffOpJet.multiplication(problem.W, complete=problem.D)

    residual = hbar0 + DiffOpJet.scalar_multiplication(problem.V, rank)
    check_through = residual.complete if residual.complete is not None else problem.D + 2
    magnitude = None
    for beta, mat in residual.terms.items():
        if sum(beta) != 0:
            raise EikonalError("conjugation produced derivative terms at order h^0")
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                leftover = entry.truncate_degree(check_through)
                if leftover.is_zero():
                    continue
                if magnitude is None:
                    magnitude = _h0_magnitude(L, grad_phi, problem.V, check_through)
                if not leftover.cancels(magnitude[r][c]):
                    raise EikonalError("eikonal residual nonzero: phase inconsistent with potential")

    return ConjugatedOperator(hbar2=hbar2, hbar1=hbar1, density=density)


def _h0_magnitude(L: DiffOpJet, grad_phi: list, V: Poly, through: int) -> list:
    """The h^0 coefficient V + sum_{|beta| = 2} C_beta prod phi_i^beta_i of the
    conjugated operator, entrywise on |coefficients| and through degree
    ``through`` (V's terms uncut): what the eikonal cancels."""
    mode, n, rank = L.mode, L.n, L.rank
    out = [[V.abs() if r == c else Poly.zero(mode, n) for c in range(rank)] for r in range(rank)]
    for beta, m in L.terms.items():
        if sum(beta) != 2:
            continue
        prod = Poly.const(mode, n, 1)
        for i, b in enumerate(beta):
            for _ in range(b):
                prod = prod.mul(grad_phi[i].abs(), through)
        for r in range(rank):
            for c in range(rank):
                out[r][c] = out[r][c] + m[r][c].abs().mul(prod, through)
    return out


@dataclass
class OperatorFamily:
    """Rescaled graded family: Q = sum_j h^j Q_j on polynomials in the blown-up
    variable, keyed by the doubled order 2j and exact through ``max_order2``."""

    ops2: dict[int, DiffOpJet]
    max_order2: int
    mode: object
    n: int
    rank: int

    def get2(self, j: int) -> DiffOpJet:
        return self.ops2.get(j, DiffOpJet.zero(self.mode, self.n, self.rank))

    def orders2(self) -> list[int]:
        return sorted(self.ops2)

    def apply_series(self, u, out_trunc2=None):
        """Apply the whole family to a power-counted series, tracking
        truncation. Each target coefficient is accumulated in place, as
        numerators over one denominator per component (``accumulate``), and
        reduced once, as ``S0Series.scale_series`` does."""
        trunc = convolution_bound((self.max_order2, 0), (u.trunc2, u.order2()))
        trunc = _min_trunc(trunc, out_trunc2)
        slots: dict[int, list] = {}
        for j_op in self.orders2():
            op = self.ops2[j_op]
            for j_u, p in u.coeffs2.items():
                target = j_u + j_op
                if target - u.K2 > trunc:
                    continue
                col = slots.get(target)
                if col is None:
                    col = slots[target] = [[{}, 1] for _ in range(self.rank)]
                for comp, slot in zip(op.apply(p).components, col):
                    slot[1] = accumulate(*slot, comp.num, 1, comp.den)
        return S0Series(self.mode, self.n, self.rank, u.K2,
                        _fiber_polys(self.mode, self.n, slots), trunc)


def rescale_operator(conj: ConjugatedOperator) -> OperatorFamily:
    """Read the graded x-side pieces as operators in the rescaled variable.

    A homogeneous piece of degree k (``DiffOpJet.graded_pieces``) conjugates
    through the substitution to the same coefficients at half-order k/2, so
    Q_j is the degree-(2j-2) piece of the second-order operator plus the
    degree-2j piece of the transport operator, summed as one ``DiffOpJet``.
    Only orders with both ingredients exact are kept.
    """
    hbar2, hbar1 = conj.hbar2, conj.hbar1
    mode, n, rank = hbar2.mode, hbar2.n, hbar2.rank
    graded2, graded1 = hbar2.graded_pieces(), hbar1.graded_pieces()
    complete = _min_trunc(None if hbar2.complete is None else hbar2.complete + 2,
                          hbar1.complete)
    if complete is None:
        complete = max([d + 2 for d in graded2] + list(graded1) + [0])
    ops: dict[int, DiffOpJet] = {}
    for j in range(complete + 1):  # doubled orders
        piece = DiffOpJet.zero(mode, n, rank)
        if j - 2 in graded2:
            piece = piece + graded2[j - 2]
        if j in graded1:
            piece = piece + graded1[j]
        if not piece.is_zero():
            ops[j] = piece
    return OperatorFamily(ops2=ops, max_order2=complete, mode=mode, n=n, rank=rank)
