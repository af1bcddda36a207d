"""Operator-jet calculus: problem data, the eikonal phase, conjugation, grading.

The chain implemented here goes

    JetProblem  --solve_eikonal-->  phase jet phi
                --conjugate_hamiltonian-->  x-side operator pieces
                --rescale_operator-->  graded family {Q_j}

``DiffOpJet`` is the workhorse: a differential operator with endomorphism-
valued polynomial coefficients. The front end forms each operator in closed
form: the Bochner operator from the metric and connection jets, and its
formal conjugation by the exponential phase weight, the substitution
d_i -> d_i - phi_i / h. The conjugated Hamiltonian's order-h^0 part must
cancel identically (that is the eikonal equation); each coefficient part of
the h^2 and h^1 operators goes by its graded degree to one of the
polynomial-coefficient operators Q_j of the rescaled variable. Every
operator of the chain, the graded family included, is applied through the
one ``DiffOpJet.apply_into``: on its first use an operator compiles itself
into a flat stencil, and each application is one pass over the input
monomials per output component, added in place into the caller's
accumulators, optionally bounded by the output degree a caller keeps.
Products of polynomials are summed in place likewise
(``accumulate_product``, ``pm_products``), each result reduced once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import inf, lcm
from typing import Mapping

from .series_algebra import (
    EXPONENT_BITS,
    MAX_DEGREE,
    FiberPoly,
    Poly,
    _min_trunc,
    _same_mode,
    accumulate,
    accumulate_product,
    check_degree,
    convolution_bound,
    euler_recurrence,
    graded_sum,
    grow_den,
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
    "InsufficientOrderError",
]


class ProblemValidationError(ValueError):
    """Input jets violate a structural requirement of the setup."""


class EikonalError(ValueError):
    """The phase jet does not (or cannot) satisfy the eikonal equation."""


class InsufficientOrderError(ValueError):
    """The input jets are too short for the order asked: each of their degrees
    adds one doubled order; ``required_D``, when known, is the least that does."""

    def __init__(self, requested2: int, available2: int, required_D: int | None = None):
        self.required_D = required_D
        need = f"at least D = {required_D}" if required_D else f"{requested2 - available2} higher"
        super().__init__(
            f"operator family exact only through order {Fraction(available2, 2)} < requested "
            f"{Fraction(requested2, 2)}; the input jet order must be {need}")


# ---------------------------------------------------------------------------
# Small matrices of polynomials

PolyMat = tuple  # tuple[tuple[Poly, ...], ...]


def pm_zero(mode, n: int, size: int) -> PolyMat:
    z = Poly.zero(mode, n)
    return tuple(tuple(z for _ in range(size)) for _ in range(size))


def pm_scalar(p: Poly, size: int) -> PolyMat:
    """p times the identity matrix."""
    z = Poly.zero(p.mode, p.n)
    return tuple(tuple(p if i == j else z for j in range(size)) for i in range(size))


def pm_identity(mode, n: int, size: int) -> PolyMat:
    return pm_scalar(Poly.const(mode, n, 1), size)


def pm_add(a: PolyMat, b: PolyMat) -> PolyMat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def pm_neg(a: PolyMat) -> PolyMat:
    return tuple(tuple(-x for x in ra) for ra in a)


def pm_products(parts: list, mode, n: int, size: int) -> dict:
    """sum w A B by key over the (key, A, B, w, through) of ``parts``, A and B
    square matrices of polynomials, each entry only through degree
    ``through``: one accumulator per entry (``accumulate_product``), reduced
    once."""
    slots: dict = {}
    for key, a, b, w, through in parts:
        rows = slots.get(key)
        if rows is None:
            rows = slots[key] = [[[{}, 1] for _ in range(size)] for _ in range(size)]
        for a_row, row in zip(a, rows):
            for j, slot in enumerate(row):
                for a_ik, b_row in zip(a_row, b):
                    slot[1] = accumulate_product(*slot, a_ik, b_row[j], w, 1, through)
    return {key: tuple(tuple(Poly._reduced(mode, n, *slot) for slot in row) for row in rows)
            for key, rows in slots.items()}


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
    num, den = {}, 1
    for j in range(size):
        minor = tuple(tuple(row[c] for c in range(size) if c != j) for row in a[1:])
        den = accumulate_product(num, den, a[0][j], poly_det(minor, through), (-1) ** j, 1,
                                 through)
    return Poly._reduced(a[0][0].mode, a[0][0].n, num, den)


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
        if self.D < 0:
            raise ProblemValidationError(
                f"input jet degree D must be a nonnegative integer, got {self.D}")
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
            return tuple(tuple(reduce(operator.add, (
                m[a][b].scale(u[i][a].conjugate() * u[j][b])
                for a in range(self.rank) for b in range(self.rank)))
                for j in range(self.rank)) for i in range(self.rank))

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

    ``complete`` bounds the graded degree (coefficient degree minus |beta|)
    through which the operator's homogeneous pieces are exact (None = exact
    at all degrees); the front end forms no coefficient term past it.

    ``apply_into`` and ``HermiteBasis.apply`` read one stencil (``stencil``),
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

    def abs(self) -> "DiffOpJet":
        """The operator with every coefficient replaced by its |value|: applied
        to |q| it bounds the magnitudes that ``apply`` sums into each output
        coefficient."""
        return DiffOpJet(self.mode, self.n, self.rank,
                         {b: tuple(tuple(x.abs() for x in row) for row in m)
                          for b, m in self.terms.items()}, self.complete)

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
        total degree <= through (the same as truncating the full image)."""
        slots = [[{}, 1] for _ in range(self.rank)]
        self.apply_into(q, slots, 1, 1, through)
        return FiberPoly([Poly._reduced(self.mode, self.n, num, den) for num, den in slots])

    def apply_into(self, q: FiberPoly, slots: list, n, d: int, through: int | None = None) -> None:
        """Add (n / d) times the image of ``q`` in place to ``slots``, one
        [numerators, denominator] accumulator per output component, as
        ``accumulate`` adds; with ``through``, no term of total degree past it
        is formed.

        Each input monomial c y^m meets each stencil term (alpha, t) of a
        C_beta d^beta entry once: it adds c t m!/(m - beta)! at
        y^(m - beta + alpha), packed key m - beta + alpha, skipped when some
        field m_k < beta_k.
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
        d *= op_den * q_den
        for row, slot in zip(rows, slots):
            num, den = slot
            if den % d:
                den = slot[1] = grow_den(num, den, d)
            g = n * (den // d)
            get = num.get
            for j, beta, steps, terms in row:
                comp = comps[j]
                f = q_den // comp.den * g
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

    Each degree's residual g^{ij} phi_i phi_j - V_d is one accumulator
    (``accumulate_product``), reduced once; so is phi.
    """
    mode, n = problem.mode, problem.n
    through = problem.D + 2
    half = mode.coeff(Fraction(1, 2))
    phi = Poly(mode, n, {tuple(2 * (i == nu) for i in range(n)): problem.lam[nu] * half
                         for nu in range(n)})
    phi_num, phi_den = dict(phi.num), phi.den

    # homogeneous parts by degree: g^{ij} and the phase gradient, which gains
    # its degree-(d - 1) part once phi's degree-d part is solved
    g_parts = [[problem.g_inv[i][j].components_by_degree() for j in range(n)] for i in range(n)]
    v_parts = problem.V.components_by_degree()
    grad_parts = [{1: phi.diff(i)} for i in range(n)]
    for d in range(3, through + 1):
        # degrees below d already cancel, so only the degree-d part of
        # g^{ij} phi_i phi_j - V is formed: parts of degrees p + q + r = d.
        # g^{ij} is symmetric, so the (i, j, q, r) and (j, i, r, q) terms are
        # one product, added with weight 2 (i = j pairs q with r); a constant
        # part of g^{ij} enters as a weight
        acc, den = {}, 1
        v = v_parts.get(d)
        if v is not None:
            den = accumulate(acc, den, v.num, -1, v.den)
        for i in range(n):
            for j in range(i, n):
                for p, gp in g_parts[i][j].items():
                    for q, gq in grad_parts[i].items():
                        gr = grad_parts[j].get(d - p - q)
                        if gr is None or (i == j and 2 * q > d - p):
                            continue
                        w = 1 if i == j and 2 * q == d - p else 2
                        if p:
                            den = accumulate_product(acc, den, gp.mul(gq), gr, w, 1)
                        else:
                            den = accumulate_product(acc, den, gq, gr, w * gp.num[0], gp.den)
        r = Poly._reduced(mode, n, acc, den)
        if r.is_zero():
            continue
        # the drift multiplies x^alpha by sum_nu 2 lambda_nu alpha_nu
        drift = [sum((lam * (2 * a) for lam, a in zip(problem.lam, alpha)), mode.zero())
                 for alpha in r.terms]
        phi_d = Poly(mode, n, {alpha: -c / e for (alpha, c), e in zip(r.terms.items(), drift)})
        phi_den = accumulate(phi_num, phi_den, phi_d.num, 1, phi_d.den)
        for i in range(n):
            part = phi_d.diff(i)
            if not part.is_zero():
                grad_parts[i][d - 1] = part
    return ScalarJet(Poly._reduced(mode, n, phi_num, phi_den), through)


# ---------------------------------------------------------------------------
# Hamiltonian assembly and conjugation


def _laplace_type_operator(problem: JetProblem) -> tuple[DiffOpJet, Poly]:
    """The second-order operator and the metric density G = sqrt(det g_ij) =
    (det g^ij)^(-1/2) it is built from, as a jet through degree D (1 on a
    flat metric).

    The operator is the Bochner Laplacian of (g, Gamma),
    L = -(1/G) sum_ij (d_i + Gamma_i) G g^ij (d_j + Gamma_j), in closed form
    (Berline, Getzler and Vergne, Heat Kernels and Dirac Operators, Prop.
    2.5), one ``pm_products`` sum. With C_beta the coefficient of d^beta and
    the raised connection Gamma^i = sum_j g^ij Gamma_j,

        C_{e_i + e_j}: -g^ij  (i != j: both orders, -2 g^ij),
        C_{e_k}: -(1/G) sum_i d_i(G g^ik) - 2 Gamma^k,
        C_0: -(1/G) sum_i d_i(G Gamma^i) - sum_i Gamma_i Gamma^i.

    Each C_beta is formed only through complete + |beta|, ``complete`` the
    graded degree (coefficient degree minus |beta|) through which L is
    exact. The jets g^ij, Gamma_i and G are exact through degree D, and g^ij,
    G and 1/G start at degree 0, so a product of them is exact through D and
    a derivative of one through D - 1:

    - flat metric, no connection: C_{2 e_i} = -1 and nothing else, None;
    - flat metric with a connection: C_{e_k} = -2 Gamma_k is exact through D
      and C_0 = -sum_i (d_i Gamma_i + Gamma_i Gamma_i) through D - 1, D - 1;
    - curved metric: C_{e_i + e_j} is exact through D, graded D - 2, and
      C_{e_k} through D - 1, graded D - 2, whatever C_0 is: D - 2 with or
      without a connection.
    """
    mode, n, rank, D = problem.mode, problem.n, problem.rank, problem.D
    g, Gamma = problem.g_inv, problem.Gamma
    one = pm_identity(mode, n, rank)
    connected = [j for j in range(n) if not pm_is_zero(Gamma[j])]
    if problem.metric_is_flat():
        complete = D - 1 if connected else None
        G, inv_G, Gg = Poly.const(mode, n, 1), one, g
    else:
        complete = D - 2
        # det g_ij = 1 / det g^ij, so G = sqrt(det g_ij) and 1/G are its powers -1/2, 1/2
        det = poly_det(g, D)
        G = poly_power_jet(det, Fraction(-1, 2), D)
        inv_G = pm_scalar(poly_power_jet(det, Fraction(1, 2), D), rank)
        Gg = [[G.mul(gij, D) for gij in row] for row in g]
    # Gamma^i and G Gamma^i, keyed (0, i) and (top, i), through D; on a flat
    # metric they are one
    metrics = (g,) if Gg is g else (g, Gg)
    top = len(metrics) - 1
    raised = pm_products([((w, i), pm_scalar(m[i][j], rank), Gamma[j], 1, D)
                          for w, m in enumerate(metrics) for i in range(n) for j in connected
                          if not m[i][j].is_zero()], mode, n, rank)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    zero = (0,) * n

    def through(order: int) -> int | None:
        return None if complete is None else complete + order

    parts = []  # (key, A, B, weight, through) of the C_beta
    for i in range(n):
        for k in range(n):
            if not g[i][k].is_zero():
                key = tuple(a + b for a, b in zip(units[i], units[k]))
                parts.append((key, pm_scalar(g[i][k], rank), one, -1, through(2)))
            d = Gg[i][k].diff(i)
            if not d.is_zero():
                parts.append((units[k], inv_G, pm_scalar(d, rank), -1, through(1)))
        if (0, i) in raised:
            parts += [(units[i], raised[0, i], one, -2, through(1)),
                      (zero, Gamma[i], raised[0, i], -1, through(0))]
        if (top, i) in raised:
            d = tuple(tuple(x.diff(i) for x in row) for row in raised[top, i])
            parts.append((zero, inv_G, d, -1, through(0)))
    return DiffOpJet(mode, n, rank, pm_products(parts, mode, n, rank), complete), G


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

    The substitution d_i -> d_i - phi_i / h in L = sum_beta C_beta d^beta,
    whose |beta| <= 2, in closed form: with beta = e_i + e_j,

        h^2: L itself,
        h^1: - sum_{|beta| = 2} C_beta (phi_j d_i + phi_i d_j + phi_ij)
             - sum_{|beta| = 1} C_beta phi_i  + W  (the transport operator),
        h^0: sum_{|beta| = 2} C_beta phi_i phi_j,

    and the h^0 coefficient must cancel the potential exactly -- a nonzero
    residual means the phase does not solve the eikonal equation and raises.
    Each beta's part is exact through the convolution bound of C_beta and
    its phase factor (``convolution_bound``), and is formed only through it
    (``pm_products``).
    """
    mode, n, rank = problem.mode, problem.n, problem.rank
    L, density = _laplace_type_operator(problem)
    grad = [phi.poly.diff(i).truncate_degree(phi.complete - 1) for i in range(n)]
    zero = (0,) * n
    parts = []  # (key, C, F, weight, through) of the h^1 coefficients, F diagonal
    second = []  # (i, j, C_beta) of the |beta| = 2 terms
    complete1 = check_through = None
    for beta, m in L.terms.items():
        axes = [k for k, b in enumerate(beta) for _ in range(b)]
        if not axes:
            continue
        i, j = axes[0], axes[-1]  # beta = e_i + e_j (i <= j) or e_i
        units = [tuple(int(k == a) for k in range(n)) for a in (i, j)]
        factor = ([(units[0], grad[j]), (zero, grad[j].diff(i)), (units[1], grad[i])]
                  if len(axes) == 2 else [(zero, grad[i])])
        factor = [(key, f) for key, f in factor if not f.is_zero()]
        head = (None if L.complete is None else L.complete + len(axes),
                min((x.min_degree() for row in m for x in row if not x.is_zero()), default=inf))
        bound = convolution_bound(head, (phi.complete - len(axes),
                                         min(f.min_degree() - sum(key) for key, f in factor)))
        complete1 = _min_trunc(complete1, bound)
        parts += [(key, m, pm_scalar(f, rank), -1, None if bound is None else bound + sum(key))
                  for key, f in factor]
        if len(axes) == 2:
            second.append((i, j, m))
            lows = grad[i].min_degree(), grad[j].min_degree()
            check_through = _min_trunc(check_through, convolution_bound(head, (
                convolution_bound((phi.complete - 1, lows[0]), (phi.complete - 1, lows[1])),
                sum(lows))))
    if not pm_is_zero(problem.W):
        parts.append((zero, problem.W, pm_identity(mode, n, rank), 1, None))
        complete1 = _min_trunc(complete1, problem.D)
    hbar1 = DiffOpJet(mode, n, rank, pm_products(parts, mode, n, rank), complete1)

    # h^0 is exact through the smallest bound of its parts
    through = problem.D + 2 if check_through is None else check_through
    residual = _h0_coefficient(second, grad, problem.V, rank, through)
    if not pm_is_zero(residual):
        # judged against the same sum on |coefficients|
        magnitude = _h0_coefficient(
            [(i, j, tuple(tuple(x.abs() for x in m_row) for m_row in m)) for i, j, m in second],
            [g.abs() for g in grad], problem.V.abs(), rank, through)
        if not all(x.cancels(size) for row, m_row in zip(residual, magnitude)
                   for x, size in zip(row, m_row)):
            raise EikonalError("eikonal residual nonzero: phase inconsistent with potential")
    return ConjugatedOperator(hbar2=L, hbar1=hbar1, density=density)


def _h0_coefficient(second: list, grad: list, V: Poly, rank: int, through: int) -> PolyMat:
    """V + sum C_beta phi_i phi_j over the (i, j, C_beta) of ``second``
    through degree ``through``: the h^0 coefficient of the conjugated
    operator plus the potential, which the eikonal cancels."""
    parts = [((), m, pm_scalar(grad[i].mul(grad[j], through), rank), 1, through)
             for i, j, m in second]
    parts.append(((), pm_scalar(V, rank), pm_identity(V.mode, V.n, rank), 1, through))
    return pm_products(parts, V.mode, V.n, rank)[()]


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
        return self.ops2.get(j) or DiffOpJet.zero(self.mode, self.n, self.rank)

    def orders2(self) -> list[int]:
        return sorted(self.ops2)

    def apply_series(self, u, out_trunc2=None):
        """Apply the whole family to a power-counted series, tracking
        truncation. Each target coefficient is summed in place
        (``graded_sum``), as ``S0Series.scale_series`` does."""
        trunc = convolution_bound((self.max_order2, 0), (u.trunc2, u.order2()))
        return graded_sum(u, [(j, op.apply_into, 1, 1) for j, op in sorted(self.ops2.items())],
                          u.K2, _min_trunc(trunc, out_trunc2))


def rescale_operator(conj: ConjugatedOperator) -> OperatorFamily:
    """Read the graded x-side pieces as operators in the rescaled variable.

    A homogeneous piece of graded degree k (coefficient degree minus |beta|)
    conjugates through the substitution to the same coefficients at
    half-order k/2, so Q_j is the degree-(2j-2) piece of the second-order
    operator plus the degree-2j piece of the transport operator. Each
    coefficient part goes straight to its doubled order, the second-order
    operator's first, and the parts that meet in one entry are added. Only
    orders with both ingredients exact are kept.
    """
    hbar2, hbar1 = conj.hbar2, conj.hbar1
    mode, n, rank = hbar2.mode, hbar2.n, hbar2.rank
    zero = Poly.zero(mode, n)
    # doubled order -> beta -> rank x rank entries
    parts: dict[int, dict] = {}
    for lift, op in ((2, hbar2), (0, hbar1)):
        for beta, m in op.terms.items():
            for i, row in enumerate(m):
                for k, entry in enumerate(row):
                    for deg, part in entry.components_by_degree().items():
                        mat = parts.setdefault(deg - sum(beta) + lift, {}).setdefault(
                            beta, [[zero] * rank for _ in range(rank)])
                        mat[i][k] = mat[i][k] + part
    complete = _min_trunc(None if hbar2.complete is None else hbar2.complete + 2,
                          hbar1.complete)
    if complete is None:
        complete = max([*parts, 0])
    ops: dict[int, DiffOpJet] = {}
    for j, terms in sorted(parts.items()):
        op = DiffOpJet(mode, n, rank, {b: tuple(map(tuple, mat)) for b, mat in terms.items()})
        if 0 <= j <= complete and not op.is_zero():
            ops[j] = op
    return OperatorFamily(ops2=ops, max_order2=complete, mode=mode, n=n, rank=rank)
