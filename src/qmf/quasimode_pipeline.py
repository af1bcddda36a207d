"""End-to-end assembly of the quasimode series, plus independent verification.

``compute_quasimodes`` runs the full construction for one model level:

    problem -> phase -> conjugated operator -> rescaled family
            -> Bloch's wave operator: level basis Omega e_a and H_eff
            -> Gram matrix A, interaction matrix A H_eff
            -> pencil eigendecomposition
            -> eigenvalue series  h (E0 + sum_k h^k E_k)
            -> eigenfunction jets (inverse rescaling), degree/parity checks.

Each verifier takes the ``QuasimodeResult`` and reads what it needs from its
``context``; none of them re-runs the wave operator, the pairing or the pencil:

* ``transport_residual``    -- the recursive first-order transport equations
                               at jet level (must vanish identically);
* ``eigen_residual``        -- the eigenvalue equation (Q - E) psi assembled
                               order by order on the blown-up series;
* ``orthonormality_report`` -- the pairing Gram of the output against the
                               recorded diagonal constants;
* ``rs_oracle``             -- the construction's H_eff and eigenvalues
                               against Bloch's recursion on the Gaussian
                               adjoint family (any level);
* ``crosscheck_eigenvalue_1d`` -- numerical eigenvalues of the 1-D operator
                               (a Rayleigh-Ritz solve in the model
                               oscillator's Hermite functions, certified by
                               two basis sizes), fitting the error's decay
                               order against the truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Sequence

from .series_algebra import (
    FiberPoly,
    FormalScalarSeries,
    Poly,
    _min_trunc,
    convolution_bound,
    doubled_order,
    matmul,
    scale_into,
    unrescale,
    worst_residual,
)
from .operator_calculus import (
    ConjugatedOperator,
    InsufficientOrderError,
    JetProblem,
    OperatorFamily,
    conjugate_hamiltonian,
    rescale_operator,
    solve_eikonal,
)
from .gaussian_pairing import WeightExpansion, pair_s0, weight_expansion
from .harmonic_oscillator import (
    DegenerateLevel,
    HermiteBasis,
    LevelNotFoundError,
    build_spectrum,
    covering_degree,
    degenerate_level,
    level_by_index,
)
from .projection_engine import (
    ProjectorSeries,
    VerificationReport,
    build_projector,
    workspace_degree,
)
from .formal_diagonalization import (
    formal_eigendecomposition,
    gram_matrix,
    interaction_matrix,
)

__all__ = [
    "QuasimodeResult",
    "VerificationReport",
    "PipelineContext",
    "compute_quasimodes",
    "transport_residual",
    "eigen_residual",
    "orthonormality_report",
    "parity_filter",
    "rs_oracle",
    "crosscheck_eigenvalue_1d",
    "InsufficientOrderError",
]


@dataclass
class PipelineContext:
    """Everything the verifiers need about one finished computation."""

    problem: JetProblem
    conj: ConjugatedOperator
    family: OperatorFamily
    basis: HermiteBasis
    level: DegenerateLevel
    omega: WeightExpansion
    projector: ProjectorSeries
    h_eff: list               # Bloch's H_eff, rows of scalar series
    parity: VerificationReport


@dataclass
class QuasimodeResult:
    """Eigenvalue series and eigenfunction jets for one model level.

    ``eigenvalues`` are the absolute series h*(E0 + sum h^k E_k); each
    eigenfunction is an x-jet series with leading factor h^(-K) whose inner
    coefficients satisfy the lowest-degree bound max(2(K - k), 0). In exact
    mode the eigenfunctions are scaled so their pairing Gram is the constant
    diagonal ``norm2_constants`` (unit diagonal in float mode or when the
    square roots are rational).
    """

    level: DegenerateLevel
    order2: int               # the doubled order N
    eigenvalues: list
    eigenfunctions: list      # XJetSeries
    rescaled: list            # S0Series (the blown-up eigenvectors)
    norm2_constants: list
    normalized: bool
    context: PipelineContext


def _select_level(problem: JetProblem, e0=None, level_index=None) -> DegenerateLevel:
    """The model level named by ``e0`` or ``level_index``, found in the
    spectrum table of the least degree that holds it (``covering_degree``)."""
    if level_index is not None and level_index < 0:
        raise LevelNotFoundError(f"level_index must be nonnegative, got {level_index}")
    mode = problem.mode
    if e0 is not None:
        e0 = mode.coeff(e0)
        degree = covering_degree(mode, problem.lam, problem.mu, e0)
        return degenerate_level(build_spectrum(mode, problem.lam, problem.mu, degree), e0)
    level_index = level_index or 0
    return level_by_index(build_spectrum(mode, problem.lam, problem.mu, level_index),
                          level_index)


def compute_quasimodes(problem: JetProblem, order, e0=None, level_index=None) -> QuasimodeResult:
    """Quasimode series for one level of the local model, through the given order.

    At most one of ``e0`` (eigenvalue of the model at the minimum) or
    ``level_index`` (position in the sorted spectrum, 0 = bottom) selects the
    level; with neither, the bottom level. The order is an int or a
    ``Fraction`` with denominator 1 or 2 (``doubled_order``), held doubled in
    the result (``order2``) as every series holds its orders. Raises
    ``ValueError`` for a negative order or for both selectors, and raises if
    the level is not in the model spectrum or the input jets are too short.
    """
    mode = problem.mode
    order = doubled_order(order)  # doubled from here on
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {Fraction(order, 2)}")
    if e0 is not None and level_index is not None:
        raise ValueError("give e0 or level_index, not both")

    level = _select_level(problem, e0, level_index)

    phi = solve_eikonal(problem)
    conj = conjugate_hamiltonian(problem, phi)
    family = rescale_operator(conj)
    if family.max_order2 < order:
        raise InsufficientOrderError(order, family.max_order2,
                                     problem.D + order - family.max_order2)

    basis = HermiteBasis(mode, problem.lam, problem.mu, workspace_degree(level, order))
    omega = weight_expansion(phi, conj.density, problem, order)

    proj = build_projector(family, basis, level, order)
    waves, h_eff = proj.wave_operator2()
    fs = [proj.as_s0(vecs, m.degree, order) for m, vecs in zip(level.members, waves)]

    a_mat = gram_matrix(fs, omega, through2=order)
    c_mat = interaction_matrix(a_mat, h_eff)
    eigen = formal_eigendecomposition(c_mat, gram=a_mat, through2=order)

    # each eigenfunction sum_a Omega e_a c_a at the offset of the whole level,
    # exact through the order and its coefficients' bounds; the degree check
    # rejects an escape
    psis = [proj.as_s0(proj.combine(waves, [c.coeffs2 for c in col]), level.K2,
                       reduce(_min_trunc, (c.trunc2 for c in col), order))
            for col in eigen.vectors]

    inner = [e.truncate2(order) for e in eigen.eigenvalues]
    for e in inner:
        if not e.is_real():
            raise AssertionError("eigenvalue series has a non-real coefficient")
    parity = parity_filter(inner, level)
    eigenvalues = [e.shift2(2) for e in inner]

    eigenfunctions = [unrescale(psi) for psi in psis]
    _assert_structure(eigenfunctions, level, mode)

    ctx = PipelineContext(problem=problem, conj=conj, family=family, basis=basis,
                          level=level, omega=omega, projector=proj, h_eff=h_eff,
                          parity=parity)
    return QuasimodeResult(level=level, order2=order, eigenvalues=eigenvalues,
                           eigenfunctions=eigenfunctions, rescaled=psis,
                           norm2_constants=eigen.norms2,
                           normalized=eigen.normalized, context=ctx)


def parity_filter(eigenvalues: Sequence, level: DegenerateLevel) -> VerificationReport:
    """The ``parity`` check: the half-integer coefficients of the eigenvalue
    series vanish, read through the series' lowest truncation order.

    Applies only to levels of uniform parity; mixed levels are exempt. A
    violation is a hard failure: the structure theory guarantees vanishing,
    so a coefficient not negligible against its series' largest means an
    implementation bug upstream.
    """
    order = reduce(_min_trunc, (e.trunc2 for e in eigenvalues), None)
    if level.parity == "mixed":
        return VerificationReport(name="parity", passed=True, order2=order, max_residual=0.0,
                                  detail="mixed parity: exempt")
    worst = 0.0
    for e in eigenvalues:
        scale = e.max_abs_coeff()
        worst = max(worst, worst_residual(e.mode, ((float(e.mode.abs(c)), scale)
                                                   for t, c in e.items2() if t % 2)))
    if eigenvalues and not eigenvalues[0].mode.negligible(worst, 1):
        raise AssertionError(
            f"half-integer eigenvalue coefficient of size {worst} on a uniform-parity level")
    return VerificationReport(name="parity", passed=True, order2=order, max_residual=worst,
                              detail=f"all half-integer coefficients vanish (<= {worst})")


def _assert_structure(eigenfunctions, level, mode):
    """Lowest-degree and parity bookkeeping of the output jets; a
    forbidden exponent's coefficients must be negligible against the jet's."""
    K2 = level.K2
    for a in eigenfunctions:
        for k, jet in a.items2():
            lo = jet.min_degree()
            bound = max(K2 - k, 0)
            if lo < bound:
                raise AssertionError(
                    f"coefficient at index {Fraction(k, 2)} has degree {lo} below the "
                    f"bound {bound}")
        if level.parity in ("even", "odd"):
            # uniform-parity levels: the series lives on one exponent class
            scale = max((jet.max_abs() for _, jet in a.items2()), default=0.0)
            for k, jet in a.items2():
                # an odd doubled exponent is a half-integer
                if (k - K2) % 2 == (level.parity == "even"):
                    worst = jet.max_abs()
                    if not mode.negligible(worst, scale):
                        raise AssertionError(
                            f"parity violation: forbidden exponent {Fraction(k - K2, 2)} "
                            f"carries coefficient of size {worst}")


def orthonormality_report(result: QuasimodeResult) -> VerificationReport:
    """Pairing Gram of the computed quasimodes against the expected diagonal.

    In float mode (or whenever unit-normalization was possible) the target is
    the identity; otherwise the recorded rational diagonal constants. All
    off-diagonal entries and all order > 0 diagonal terms must vanish, each
    against the pairing of the |coefficients| (plus the target), which bounds
    what the pairing sums; it is formed only for a nonzero residual. The
    pairing is hermitian, so only the pairs i <= j are formed.
    """
    ctx = result.context
    mode = ctx.problem.mode
    N = result.order2
    psis = result.rescaled
    magnitudes = None
    residuals = []
    m = len(psis)
    for i in range(m):
        for j in range(i, m):
            p = pair_s0(psis[i], psis[j], ctx.omega, through2=N)
            want = result.norm2_constants[i] if i == j else mode.zero()
            diff = p - FormalScalarSeries.const(mode, want, p.trunc2)
            if diff.max_abs_coeff(N):
                if magnitudes is None:
                    magnitudes = [psi.abs() for psi in psis], ctx.omega.abs()
                abs_psis, abs_omega = magnitudes
                bound = pair_s0(abs_psis[i], abs_psis[j], abs_omega, through2=N)
                residuals += [(mode.abs(c), mode.abs(bound.at2(t))
                               + (mode.abs(want) if t == 0 else 0))
                              for t, c in diff.items2() if t <= N]
    worst = worst_residual(mode, residuals)
    passed = mode.negligible(worst, 1)
    return VerificationReport(
        name="orthonormality", passed=passed, order2=N,
        max_residual=float(worst),
        detail="pairing Gram equals the recorded diagonal constants" if passed
        else "pairing Gram deviates from the expected diagonal")


# ---------------------------------------------------------------------------
# Transport / eigenvalue residuals at jet level


def transport_residual(result: QuasimodeResult) -> VerificationReport:
    """Residual of the recursive transport equations on the output jets.

    For every quasimode and every order k through the built order, evaluates

        (T - E0) a_k + L a_{k-1} - sum_{i >= 1/2} E_i a_{k-i}

    as an x-jet (T the transport operator, L the second-order piece) and
    requires it to vanish identically through the provable degree. Flat
    corrections vanish to infinite order at the base point, so jet residuals
    must be exactly zero (in float mode, negligible against the terms summed
    into them or, failing that, against the same sum on |coefficients|: the
    terms are cancelled sums themselves, T a_k above all). The operator
    images and the scalar parts are summed in place (``_jet_sum``); the size
    of the terms, which only float mode reads, is formed only for a nonzero
    residual. ``data["degrees"]`` lists, for k = 0, 1/2, ..., N + K, the
    degree through which order k was checked (the smallest over the
    quasimodes).
    """
    ctx = result.context
    mode = ctx.problem.mode
    level = ctx.level
    N = result.order2
    T_op = ctx.conj.hbar1
    L_op = ctx.conj.hbar2
    t_low, l_low = T_op.min_degree(), L_op.min_degree()
    abs_ops = None
    residuals = []
    K2 = level.K2
    top = N + K2
    degrees = [None] * (top + 1)
    for a_jet, e_series in zip(result.eigenfunctions, result.eigenvalues):
        inner = e_series.shift2(-2)  # E0 + sum h^i E_i
        for k in range(top + 1):
            # the degree through which every term below is exact, known
            # before any operator is applied, so the applications stop there;
            # a_{k-i} is exact to a higher degree than a_k (s + d/2 <= N)
            a_k = a_jet.at2(k)
            bound_k = a_jet.degree_bound_at2(k - K2)
            check_bound = _min_trunc(bound_k, convolution_bound(
                (T_op.complete, t_low), (bound_k, a_k.min_degree())))
            ops = [(T_op, a_k)]
            if k >= 2:
                a_prev = a_jet.at2(k - 2)
                check_bound = _min_trunc(check_bound, convolution_bound(
                    (L_op.complete, l_low),
                    (a_jet.degree_bound_at2(k - 2 - K2), a_prev.min_degree())))
                ops.append((L_op, a_prev))
            degrees[k] = _min_trunc(degrees[k], check_bound)
            # the scalar parts (scalar, jet); the sum skips the jets' terms past
            # the bound, and only a nonzero residual's size cuts them there
            scalars = [(-level.E0, a_k)] + [(-e, a_jet.at2(k - i))
                                            for i, e in inner.items2() if 0 < i <= k]
            images = [op.apply(q, through=check_bound) for op, q in ops]
            residual = _jet_sum(images, scalars, check_bound).max_abs()
            scale = 0.0
            if residual:
                scalars = [(x, q.truncate_degree(check_bound)) for x, q in scalars]
                scale = max([t.max_abs() for t in images]
                            + [mode.abs(x) * q.max_abs() for x, q in scalars])
            if not mode.negligible(residual, scale):
                # the terms are cancelled sums themselves (T a_k above all), so
                # judge the residual against the same sum on |coefficients|
                if abs_ops is None:
                    abs_ops = {T_op: T_op.abs(), L_op: L_op.abs()}
                magnitude = _jet_sum(
                    [abs_ops[op].apply(q.abs(), through=check_bound) for op, q in ops],
                    [(mode.abs(x), q.abs()) for x, q in scalars], check_bound)
                scale = max(scale, magnitude.max_abs())
            residuals.append((residual, scale))
    worst = worst_residual(mode, residuals)
    return VerificationReport(
        name="transport", passed=mode.negligible(worst, 1), order2=N, max_residual=float(worst),
        detail=f"jet residual through degree {degrees[0]} at order 0, "
               f"{degrees[-1]} at order {Fraction(top, 2)}",
        data={"degrees": degrees})


def _jet_sum(images: list, scalars: list, through: int) -> FiberPoly:
    """The sum of the jets ``images`` and of x q for each (x, q) of
    ``scalars``, the terms of q past degree ``through`` skipped, accumulated
    in place per component and reduced once."""
    mode, n = images[0].mode, images[0].n
    slots = [[{}, 1] for _ in range(images[0].rank)]
    for img in images:
        scale_into(img, slots, 1, 1)
    for x, q in scalars:
        scale_into(q, slots, *mode.split(x), through=through)
    return FiberPoly([Poly._reduced(mode, n, *slot) for slot in slots])


def eigen_residual(result: QuasimodeResult) -> VerificationReport:
    """Direct residual of the eigenvalue equation, assembled on the blown-up side.

    Computes (sum_j h^j Q_j - (E0 + sum h^k E_k)) psi coefficientwise, Q psi
    and E psi each summed in place (``OperatorFamily.apply_series``,
    ``S0Series.scale_series``) and their difference too; this regroups the
    whole construction differently from the transport recursion and must also
    vanish through the built order (in float mode, against Q psi and E psi).
    """
    ctx = result.context
    mode = ctx.problem.mode
    N = result.order2
    residuals = []
    for psi, e_series in zip(result.rescaled, result.eigenvalues):
        qpsi = ctx.family.apply_series(psi, out_trunc2=N)
        epsi = psi.scale_series(e_series.shift2(-2))
        residual = (qpsi - epsi).max_abs_coeff(N)
        # the size of the terms, which only float mode reads
        scale = max(qpsi.max_abs_coeff(N), epsi.max_abs_coeff(N)) if residual else 0.0
        residuals.append((residual, scale))
    worst = worst_residual(mode, residuals)
    return VerificationReport(
        name="eigen_residual", passed=mode.negligible(worst, 1), order2=N,
        max_residual=float(worst), detail="(Q - E) psi coefficientwise")


# ---------------------------------------------------------------------------
# Left wave operator oracle


def _level_sizes(proj: ProjectorSeries, vectors: list, action) -> list:
    """The sizes of the terms summed into H - E0 by Bloch's recursion on
    ``vectors`` with Q_j applied by ``action``: H_s[a][b], the level entry
    a of sum_j Q_j V_(s-j) e_b, sums |(Q_j e_i)_a (V_(s-j) e_b)_i|."""
    mode, N = proj.mode, proj.order2
    members = [proj.basis.key(m) for m in proj.level.members]
    rows = [[{} for _ in members] for _ in members]
    for b, vec_b in enumerate(vectors):
        for s, vec in vec_b.items():
            for j in (j for j in proj.family.orders2() if 0 < j <= N - s):
                for idx, n in vec.num.items():
                    q = action(j, idx)
                    for a in (a for a, at in enumerate(members) if at in q.num):
                        x = mode.abs(mode.join(n * q.num[members[a]], vec.den * q.den))
                        rows[a][b][s + j] = rows[a][b].get(s + j, 0) + x
    return [[FormalScalarSeries.from_terms2(mode, terms, N) for terms in row] for row in rows]


def _rs_sides(m: list, moved: list, moved_dag: list, h: list, eigs: list) -> list:
    """(left, right) of each comparison of ``rs_oracle``: M (H_eff - E0) and
    (H^dagger - E0)^H M entrywise, then tr(H_eff^p) and sum_k E_k^p, p <= m0."""
    size = range(len(h))
    left = matmul(m, moved)
    right = matmul([[moved_dag[c][a].conj() for c in size] for a in size], m)
    sides = [(left[c][a], right[c][a]) for c in size for a in size]
    power, eig_power = h, eigs
    for _ in size:
        sides.append((reduce(add, (power[k][k] for k in size)), reduce(add, eig_power)))
        power, eig_power = matmul(power, h), [e * f for e, f in zip(eig_power, eigs)]
    return sides


def rs_oracle(result: QuasimodeResult) -> VerificationReport:
    """The ``rs_oracle`` check: the construction's H_eff and eigenvalues
    against the left wave operator, on any level.

    Bloch's recursion on the Gaussian adjoint of the operator family, which
    the construction never forms, gives v_c and H^dagger
    (``ProjectorSeries.left_wave_operator2``); with the overlap
    M_ca = <v_c, Omega e_a>_G, Q Omega = Omega H_eff gives
    M H_eff = (H^dagger)^H M. The check verifies it entrywise, E0 taken off
    both H's, and tr(H_eff^p) = sum_k E_k^p for p = 1..m0, which fixes the
    output eigenvalues (Newton's identities); it reads none of the pairing
    or the pencil. A nonzero residual is judged, coefficientwise, against
    the same comparison on the sizes of the terms (either H can be a
    cancelled sum, the other exactly 0). ``data`` holds the worst residual
    of each comparison.
    """
    ctx = result.context
    mode, N, level, proj = ctx.problem.mode, result.order2, ctx.level, ctx.projector

    def moved(h):
        shift = FormalScalarSeries.const(mode, level.E0, N)
        return [[e - shift if a == b else e for b, e in enumerate(row)] for a, row in enumerate(h)]

    (lefts, h_dag), K2 = proj.left_wave_operator2(), level.K2
    eigs = [e.shift2(-2) for e in result.eigenvalues]
    diffs = [left - right for left, right
             in _rs_sides(proj.overlap2(), moved(ctx.h_eff), moved(h_dag), ctx.h_eff, eigs)]
    residuals = [[] for _ in diffs]
    if any(d.max_abs_coeff(N) for d in diffs):
        sides = _rs_sides(proj.overlap2(mode.abs),
                          _level_sizes(proj, proj._waves, proj.q_action),
                          _level_sizes(proj, lefts, lambda j, i: proj.adjoint_action(j, i, K2)),
                          [[e.abs() for e in row] for row in ctx.h_eff],
                          [e.abs() for e in eigs])
        residuals = [[(mode.abs(c), mode.abs((left + right).at2(t)))
                      for t, c in d.items2() if t <= N]
                     for d, (left, right) in zip(diffs, sides)]
    split = level.m0 * level.m0
    data = {name: float(worst_residual(mode, (r for part in parts for r in part)))
            for name, parts in (("intertwining", residuals[:split]),
                                ("power_sums", residuals[split:]))}
    worst = max(data.values())
    return VerificationReport(
        name="rs_oracle", passed=mode.negligible(worst, 1), order2=N, max_residual=worst,
        detail="pipeline eigenvalue equals the left wave operator's: M H_eff = conj(H^dagger) M"
        if level.m0 == 1 else "pipeline M H_eff equals the left wave operator's (H^dagger)^H M; "
                              f"eigenvalue power sums equal tr H_eff^p, p <= {level.m0}",
        data=data)


# ---------------------------------------------------------------------------
# Numeric cross-check (1-D scalar)

DEFAULT_HBARS = (0.2, 0.1, 0.05)   # at the bottom level; over 2k+1 at the k-th


def _band_inertia(rows: list, sigma: float, tiny: float) -> tuple:
    """The number of negative pivots of H - sigma = L D L^T, ``rows[i]`` holding
    H[i][i..i+b], and per row D[i] and its nonzero (s, L[i+s][i]); a pivot within
    ``tiny`` of 0 is ``tiny``. By Sylvester's law of inertia the count is that of
    the eigenvalues below sigma (Martin & Wilkinson, Numer. Math. 9 (1967) 279)."""
    b = len(rows[0]) - 1
    # the nonzero diagonals' multiples of their gcd hold every fill-in too
    g = math.gcd(*(t for t in range(1, b + 1) if any(r[t] for r in rows)))
    offs = range(g, b + 1, g) if g else ()
    pairs = [(s, t, t - s) for j, s in enumerate(offs) for t in offs[j:]]
    work = [[r[0] - sigma, *r[1:]] for r in rows] + [[0.0] * (b + 1) for _ in range(b)]
    neg, factors = 0, []
    for i, r in enumerate(work[:len(rows)]):
        d = r[0] if abs(r[0]) > tiny else tiny
        neg += d < 0
        for s, t, u in pairs:
            work[i + s][u] -= r[s] * r[t] / d
        factors.append((d, [(s, r[s] / d) for s in offs if r[s]]))
    return neg, factors


def _band_solve(factors: list, v: list) -> list:
    """(L D L^T)^-1 v for the factors of ``_band_inertia``."""
    z = list(v)
    for i, (_, ls) in enumerate(factors):
        for s, f in ls if z[i] else ():
            z[i + s] -= f * z[i]
    for i in range(len(z) - 1, -1, -1):
        z[i] /= factors[i][0]
        for s, f in factors[i][1]:
            z[i] -= f * z[i + s]
    return z


def _band_eigenpair(rows: list, k: int, sigma: float, vec: list) -> tuple:
    """The k-th eigenvalue and a unit eigenvector of the symmetric band matrix
    ``rows[i] = H[i][i..i+b]``, from ``vec`` and a first shift just above
    ``sigma``: each shift's count (``_band_inertia``) narrows a bisection bracket,
    and up to two solves with its factors give the Rayleigh quotient rho and the
    residual r. The next shift is rho - (2 r + tol) if the count exceeded k, else
    rho + (2 r + tol), or the bracket's midpoint if rho left it. Counts k at or
    below rho - r and k + 1 above rho + r certify rho's eigenvalue as the k-th;
    rho is returned so with r <= tol = 1e-13 max |H|, or inside a bracket below
    4 tol (a cluster no count splits)."""
    n = len(rows)
    scale = max(max(map(abs, r)) for r in rows)
    tol, bound = 1e-13 * scale, 2 * len(rows[0]) * scale   # past Gershgorin's bound
    seen, sigma = [(-bound, 0), (bound, n)], sigma + tol
    for _ in range(200):
        neg, factors = _band_inertia(rows, sigma, 2.2e-16 * scale)
        seen.append((sigma, neg))
        for _ in range(2):
            y = _band_solve(factors, vec)
            norm = math.hypot(*y)
            shift = sum(map(mul, vec, y)) / (norm * norm)
            res = math.dist(vec, [shift * c for c in y]) / norm
            vec = [a / norm for a in y]
            if res <= tol:
                break
        rho = sigma + shift
        lo = max(s for s, c in seen if c <= k)
        hi = min(s for s, c in seen if c > k)
        if lo - tol <= rho <= hi + tol and (hi - lo <= 4 * tol or res <= tol and any(
                c == k and s <= rho - res for s, c in seen) and any(
                c == k + 1 and s > rho + res for s, c in seen)):
            return rho, vec
        if not lo - tol < rho < hi + tol:
            sigma, vec = (lo + hi) / 2, [1.0] * n
        else:
            sigma = rho - 2 * res - tol if neg > k else rho + 2 * res + tol
    raise ArithmeticError(f"eigenvalue {k} of a {n}-row band matrix did not converge")


def _hermite_ritz_eigenvalue(coef, lam: float, hbar: float, size: int, k: int,
                             start: tuple | None = None) -> tuple:
    """The k-th eigenvalue of -h^2 d^2/dx^2 + P in the first ``size`` Hermite
    functions of the model oscillator -h^2 d^2/dx^2 + lam^2 x^2, and its
    eigenvector (last function first): the pair a larger basis takes as ``start``.

    ``coef`` lists P's power coefficients. The model part is the diagonal
    h lam (2j + 1) and x is sqrt(h / 2 lam) (a + a^dagger), a tridiagonal
    matrix; x^d between the first ``size`` functions only reaches the first
    size + d // 2, so P - lam^2 x^2, formed by Horner's rule on the diagonals
    of its band (half-bandwidth deg P) in size + deg P // 2 + 1 functions and
    cut to ``size``, is exact. ``_band_eigenpair`` factors it from the last
    function up, where the high functions' rows keep the pivots large, from
    ``start`` (its vector padded; a smaller basis's Ritz value lies above) or
    from H[k][k] and the k-th function.
    """
    coef = list(coef)
    coef[2] -= lam * lam
    m = size + (len(coef) + 1) // 2
    off = [math.sqrt(j * hbar / (2.0 * lam)) for j in range(1, m)]
    below, above, zero = [0.0, *off], [*off, 0.0], [0.0] * m
    p = [[coef[-1]] * m]
    for c in reversed(coef[:-1]):
        # (x p)[j][j+t] = x[j][j-1] p[j-1][j+t] + x[j][j+1] p[j+1][j+t]; zero stays zero
        p += [zero, zero]
        p = [zero if p[t + 1] is zero and p[abs(t - 1)] is zero else
             [a * u + b * w for a, u, b, w in zip(below, [0.0, *p[t + 1]], above,
                                                  [*p[t - 1][1:], 0.0] if t else p[1])]
             for t in range(len(p) - 1)]
        p[0] = [a + c for a in p[0]] if c else p[0]
    p[0] = [a + hbar * lam * (2 * j + 1) for j, a in enumerate(p[0])]
    rows = [list(r) for r in zip(*((d[size - 1 - t::-1] if t < size else []) + [0.0] * t
                                   for t, d in enumerate(p)))]
    e, vec = start or (p[0][k], [float(j == size - 1 - k) for j in range(size)])
    return _band_eigenpair(rows, k, e, [0.0] * (size - len(vec)) + vec)


def _real_roots(coef: list) -> list:
    """The real roots of the polynomial with power coefficients ``coef``:
    Durand-Kerner from R (0.4 + 0.9i)^j, R the Cauchy bound, until no root
    moves by 1e-14 R; a root with |imag| <= 1e-6 |r| counts as real."""
    monic = [c / coef[-1] for c in coef[-2::-1]]
    radius = 1 + max(map(abs, monic))
    z = [radius * (0.4 + 0.9j) ** j for j in range(len(monic))]
    for _ in range(1000):
        step = 0.0
        for i, r in enumerate(z):
            q = math.prod(r - s for j, s in enumerate(z) if j != i)
            z[i] = r - reduce(lambda p, c: p * r + c, monic, 1) / q if q else r
            step = max(step, abs(z[i] - r))
        if step <= 1e-14 * radius:
            break
    return [r.real for r in z if abs(r.imag) <= 1e-6 * abs(r)]


def crosscheck_eigenvalue_1d(result: QuasimodeResult, hbars: Sequence[float] | None = None,
                             grid: int = 4096) -> VerificationReport:
    """Numerical eigenvalues of the 1-D operator against the truncated series.

    Without ``hbars``, the h values are ``DEFAULT_HBARS`` divided by 2k + 1
    at the level of the member's k: the k-th series is asymptotic only once
    h (2k + 1) is small.

    A Rayleigh-Ritz solve in the model oscillator's Hermite functions
    (``_hermite_ritz_eigenvalue``) in pure Python: a band of half-width deg V
    built by Horner's rule on its diagonals, inverse iteration on banded
    L D L^T factors whose negative-pivot count certifies the eigenvalue's index
    (Sylvester's inertia; Martin & Wilkinson, Numer. Math. 9 (1967) 279), each
    larger basis started from the smaller one's eigenpair. Ritz values are upper
    bounds that fall as the basis grows. V must confine: its top term of even
    degree with a positive coefficient, W of lower degree (a ValueError otherwise). The
    basis starts at 32 functions and doubles until two sizes agree within
    1e-9 max(|E|, h); E is taken at the larger one, which ``data["sizes"]``
    records for each h (None where no two sizes up to ``grid`` agree, which
    fails the check). Errors |E_num(h) - series(h)| at or below
    1e-12 max(|E|, h) are rounding; the log-log slope over the others must be
    at least order + 3/2 (or, for an identically vanishing series, the error
    must be exponentially small). With fewer than two errors above rounding,
    ``data["slope"]`` is None and every error must be at most 1e-6. The h
    values must be two or more, distinct, finite and positive (a ValueError
    otherwise).
    """
    eig_index = result.level.members[0].alpha[0]
    if hbars is None:
        hbars = [h / (2 * eig_index + 1) for h in DEFAULT_HBARS]
    if len(set(hbars)) < 2 or not all(math.isfinite(h) and h > 0 for h in hbars):
        raise ValueError(f"the slope fit needs at least two distinct, finite, positive "
                         f"h values, got {list(hbars)}")
    problem = result.context.problem
    if problem.n != 1 or problem.rank != 1:
        raise ValueError("the numerical cross-check is one-dimensional scalar only")
    if not problem.metric_is_flat() or problem.has_connection():
        raise ValueError("the numerical cross-check needs the flat scalar form")
    mode = problem.mode
    V, W = problem.V, problem.W[0][0]
    deg = V.degree()
    v, w = ([complex(p.coefficient((d,))).real for d in range(deg + 1)] for p in (V, W))
    if deg % 2 or v[deg] <= 0 or W.degree() >= deg:
        raise ValueError(f"the numerical cross-check needs a confining V: its top term "
                         f"{v[deg]:g} x^{deg} must have even degree and a positive coefficient, "
                         f"and W a lower degree than V")
    if grid < eig_index + 3:
        raise ValueError(f"a basis of {grid} functions cannot resolve eigenvalue {eig_index}; "
                         f"it needs at least {eig_index + 3}")
    lam = complex(problem.lam[0]).real

    def certified_eigenvalue(hbar: float):
        """E at the first basis size agreeing with the size before it, and that size (or None)."""
        coef = [a + hbar * b for a, b in zip(v, w)]
        size = min(max(32, eig_index + 3), grid)
        e, vec = _hermite_ritz_eigenvalue(coef, lam, hbar, size, eig_index)
        while size < grid:
            # a well elsewhere holds levels below e only where V + h W <= e;
            # the j-th function turns at x^2 = (2j + 1) h / lam, so the next
            # size reaches twice that far in x^2
            reach = max((r * r for r in _real_roots([coef[0] - e, *coef[1:]])), default=0)
            size, coarse = min(max(2 * size, math.ceil(lam * reach / hbar)), grid), e
            e, vec = _hermite_ritz_eigenvalue(coef, lam, hbar, size, eig_index, (e, vec))
            if abs(e - coarse) <= 1e-9 * max(abs(e), hbar):
                return e, size
        return e, None

    series = result.eigenvalues[0]
    errors, sizes, fit = [], [], []
    for hb in hbars:
        e, size = certified_eigenvalue(hb)
        errors.append(abs(e - series.evaluate(hb, through2=result.order2 + 2).real))
        sizes.append(size)
        if errors[-1] > 1e-12 * max(abs(e), hb):
            fit.append((hb, errors[-1]))
    certified = None not in sizes

    want = result.order2 / 2 + 1.5
    slope = None
    if len({hb for hb, _ in fit}) >= 2:   # the least-squares slope of log error on log h
        xs, ys = zip(*((math.log(hb), math.log(err)) for hb, err in fit))
        mean = sum(xs) / len(xs)
        dx = [x - mean for x in xs]
        slope = sum(map(mul, dx, ys)) / sum(map(mul, dx, dx))
    data = {"hbars": list(hbars), "errors": errors, "sizes": sizes,
            "slope": slope, "required_slope": want}
    trivial = all(mode.is_zero(c) for _, c in series.items2())
    if slope is None:
        passed = certified and max(errors) <= 1e-6
        detail = (f"fewer than two errors above rounding, no slope fitted; "
                  f"largest error {max(errors):.2e}")
    elif trivial:
        # an identically vanishing series means the true eigenvalue is below
        # every power: demand super-power decay and smallness at the bottom
        passed = certified and min(errors) <= 1e-6 and (slope >= want or max(errors) <= 1e-10)
        detail = f"decay slope {slope:.2f}, smallest error {min(errors):.2e}"
    else:
        passed = certified and slope >= want
        detail = f"log-log error slope {slope:.3f} (required >= {want})"
    if trivial:
        detail = "series is identically zero; " + detail
    return VerificationReport(name="crosscheck", passed=passed, order2=result.order2,
                              max_residual=max(errors), detail=detail, data=data)
