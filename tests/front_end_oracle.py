"""The front end's long way round: the phase by one product per term, the
second-order operator and the conjugation by composing operators.

The program forms each degree's eikonal residual and each operator
coefficient as one in-place sum, the Bochner operator and the conjugation in
closed form (``solve_eikonal``, ``_laplace_type_operator``,
``conjugate_hamiltonian``). These tests keep the expansions those replaced as
their oracles: the phase with a ``Poly`` built for every product
g^{ij} phi_i phi_j, the Bochner operator
-(1/G) sum_ij (d_i + Gamma_i) G g^ij (d_j + Gamma_j) by Leibniz composition
(``compose``), the conjugated operator by composing the factors
(d_i - phi_i / h) of each d^beta of the second-order operator, and the
magnitude that judges a float eikonal residual by the same product on
|coefficients|.
"""

from fractions import Fraction
from math import comb, prod

from qmf.operator_calculus import (
    ConjugatedOperator,
    DiffOpJet,
    EikonalError,
    JetProblem,
    PolyMat,
    ScalarJet,
    pm_identity,
    pm_is_zero,
    pm_neg,
    pm_products,
    pm_scalar,
    poly_det,
    poly_power_jet,
)
from qmf.series_algebra import Poly, _same_mode, convolution_bound


def multiplication(m: PolyMat, complete: int | None = None) -> DiffOpJet:
    """The operator of multiplication by the matrix ``m``."""
    p = m[0][0]
    return DiffOpJet(p.mode, p.n, len(m), {(0,) * p.n: m}, complete)


def scalar_multiplication(p: Poly, rank: int, complete: int | None = None) -> DiffOpJet:
    return multiplication(pm_scalar(p, rank), complete)


def derivative(mode, n: int, rank: int, i: int) -> DiffOpJet:
    """d_i on sections of rank ``rank``."""
    return DiffOpJet(mode, n, rank, {tuple(int(k == i) for k in range(n)):
                                     pm_identity(mode, n, rank)})


def sub_multi_indices(beta: tuple):
    """Every sigma <= beta componentwise."""
    if not beta:
        yield ()
        return
    for rest in sub_multi_indices(beta[1:]):
        for s in range(beta[0] + 1):
            yield (s,) + rest


def compose(a: DiffOpJet, b: DiffOpJet) -> DiffOpJet:
    """The operator product a . b, exact Leibniz expansion
    C_beta d^beta . D_gamma d^gamma = sum_sigma binom(beta, sigma)
    C_beta (d^sigma D_gamma) d^(beta - sigma + gamma). The product is exact
    through the convolution bound min(cA + ord B, cB + ord A)
    (``convolution_bound``), and the coefficient of d^key is formed only
    through that bound + |key|."""
    _same_mode(a.mode, b.mode)
    comp = convolution_bound((a.complete, a.min_degree()), (b.complete, b.min_degree()))
    parts = []
    for beta, m in a.terms.items():
        for gamma, nmat in b.terms.items():
            for sigma in sub_multi_indices(beta):
                d = nmat
                for i, si in enumerate(sigma):
                    for _ in range(si):
                        d = tuple(tuple(x.diff(i) for x in row) for row in d)
                if pm_is_zero(d):
                    continue
                key = tuple(x - s + g for x, s, g in zip(beta, sigma, gamma))
                parts.append((key, m, d, prod(map(comb, beta, sigma)),
                              None if comp is None else comp + sum(key)))
    return DiffOpJet(a.mode, a.n, a.rank, pm_products(parts, a.mode, a.n, a.rank), comp)


def laplace_by_composition(problem: JetProblem) -> tuple[DiffOpJet, Poly]:
    """``_laplace_type_operator`` as the composition
    -(1/G) sum_i nabla_i . (sum_j G g^ij nabla_j), nabla_i = d_i + Gamma_i:
    n^2 Leibniz products and a final one by 1/G, each with its convolution
    bound."""
    mode, n, rank, D = problem.mode, problem.n, problem.rank, problem.D
    flat = problem.metric_is_flat()
    gcomp = None if flat else D
    if flat:
        G = inv_G = Poly.const(mode, n, 1)
    else:
        det = poly_det(problem.g_inv, D)
        G = poly_power_jet(det, Fraction(-1, 2), D)
        inv_G = poly_power_jet(det, Fraction(1, 2), D)

    def nabla(i: int) -> DiffOpJet:
        op = derivative(mode, n, rank, i)
        if not pm_is_zero(problem.Gamma[i]):
            op = op + multiplication(problem.Gamma[i], complete=D)
        return op

    acc = DiffOpJet.zero(mode, n, rank)
    for i in range(n):
        inner = DiffOpJet.zero(mode, n, rank)
        for j in range(n):
            gij = problem.g_inv[i][j]
            if gij.is_zero():
                continue
            coeff = gij if flat else G.mul(gij, D)
            inner = inner + compose(scalar_multiplication(coeff, rank, complete=gcomp), nabla(j))
        acc = acc + compose(nabla(i), inner)
    L = compose(scalar_multiplication(inv_G, rank, complete=gcomp), acc)
    return DiffOpJet(mode, n, rank, {b: pm_neg(m) for b, m in L.terms.items()}, L.complete), G


def eikonal_by_terms(problem: JetProblem) -> ScalarJet:
    """``solve_eikonal`` with one ``Poly`` per product g^{ij}_p phi_i phi_j,
    each added to the residual as it is formed."""
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


def conjugate_by_factors(problem: JetProblem, phi: ScalarJet) -> ConjugatedOperator:
    """``conjugate_hamiltonian`` by expanding the product of the factors
    d_i - phi_i / h of each d^beta in powers of 1/h, each product composed
    (``compose``), the operator itself built by composition
    (``laplace_by_composition``), and checking the h^0 coefficient against
    the potential."""
    mode, n, rank = problem.mode, problem.n, problem.rank
    L, density = laplace_by_composition(problem)
    grad_phi = [phi.poly.diff(i).truncate_degree(phi.complete - 1) for i in range(n)]
    phi_complete = phi.complete - 1  # coefficient degree of the mult(phi_i) ops

    by_power: dict[int, DiffOpJet] = {}
    for beta, m in L.terms.items():
        factors: dict[int, DiffOpJet] = {0: multiplication(pm_identity(mode, n, rank))}
        for i, bi in enumerate(beta):
            for _ in range(bi):
                x_op = {
                    0: derivative(mode, n, rank, i),
                    1: scalar_multiplication(-grad_phi[i], rank, complete=phi_complete),
                }
                new: dict[int, DiffOpJet] = {}
                for pa, opa in factors.items():
                    for pb, opb in x_op.items():
                        key = pa + pb
                        piece = compose(opa, opb)
                        new[key] = new[key] + piece if key in new else piece
                factors = new
        # the coefficient of d^beta holds graded degrees up to L.complete + |beta|
        head_complete = None if L.complete is None else L.complete + sum(beta)
        head = multiplication(m, complete=head_complete)
        for power, op in factors.items():
            piece = compose(head, op)
            by_power[power] = by_power[power] + piece if power in by_power else piece

    hbar2 = by_power.get(0, DiffOpJet.zero(mode, n, rank))
    hbar1 = by_power.get(1, DiffOpJet.zero(mode, n, rank))
    hbar0 = by_power.get(2, DiffOpJet.zero(mode, n, rank))

    if not pm_is_zero(problem.W):
        hbar1 = hbar1 + multiplication(problem.W, complete=problem.D)

    residual = hbar0 + scalar_multiplication(problem.V, rank)
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
                    magnitude = h0_magnitude(L, grad_phi, problem.V, check_through)
                if not leftover.cancels(magnitude[r][c]):
                    raise EikonalError("eikonal residual nonzero: phase inconsistent with potential")

    return ConjugatedOperator(hbar2=hbar2, hbar1=hbar1, density=density)


def h0_magnitude(L: DiffOpJet, grad_phi: list, V: Poly, through: int) -> list:
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
