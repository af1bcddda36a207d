"""End-to-end assembly of the quasimode series, plus independent verification.

``compute_quasimodes`` runs the full construction for one model level:

    problem -> phase -> conjugated operator -> rescaled family
            -> projector images of the level basis
            -> Gram / interaction matrices -> pencil eigendecomposition
            -> eigenvalue series  h (E0 + sum_k h^k E_k)
            -> eigenfunction jets (inverse rescaling), degree/parity checks.

Each verifier takes the ``QuasimodeResult`` and reads what it needs from its
``context``; none of them re-runs the projector, the pairing or the pencil:

* ``transport_residual``    -- the recursive first-order transport equations
                               at jet level (must vanish identically);
* ``eigen_residual``        -- the eigenvalue equation (Q - E) psi assembled
                               order by order on the blown-up series;
* ``orthonormality_report`` -- the pairing Gram of the output against the
                               recorded diagonal constants;
* ``rs_oracle``             -- a textbook Rayleigh-Schrodinger recursion in
                               the model eigenbasis (nondegenerate levels);
* ``crosscheck_eigenvalue_1d`` -- numerical eigenvalues of the 1-D operator
                               (a Galerkin solve in a sine basis, certified by
                               two basis sizes), fitting the error's decay
                               order against the truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from typing import Sequence

from .series_algebra import (
    FormalScalarSeries,
    HI0,
    HalfInt,
    Poly,
    S0Series,
    _min_trunc,
    half_range,
    unrescale,
    worst_residual,
)
from .operator_calculus import (
    ConjugatedOperator,
    JetProblem,
    OperatorFamily,
    conjugate_hamiltonian,
    convolution_bound,
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
from .projection_engine import HermiteVec, ProjectorSeries, build_projector
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
    "DegenerateLevelError",
]


class InsufficientOrderError(ValueError):
    """The input jets cannot support the requested series order."""

    def __init__(self, requested: HalfInt, available: HalfInt, required_D: int):
        self.required_D = required_D
        super().__init__(
            f"operator family exact only through order {available} < requested {requested}; "
            f"the input jet order must be at least D = {required_D}")


class DegenerateLevelError(ValueError):
    """An operation requiring a simple level met a degenerate one."""


@dataclass
class VerificationReport:
    """Outcome of one independent check; ``max_residual`` is relative to
    the magnitudes the residual cancels in float mode (``mode.relative``)."""

    name: str
    passed: bool
    order: HalfInt | None
    max_residual: float
    detail: str = ""
    data: dict = field(default_factory=dict)


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
    order: HalfInt
    eigenvalues: list
    eigenfunctions: list      # XJetSeries
    rescaled: list            # S0Series (the blown-up eigenvectors)
    norm2_constants: list
    normalized: bool
    mode_name: str
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

    Exactly one of ``e0`` (eigenvalue of the model at the minimum) or
    ``level_index`` (position in the sorted spectrum, 0 = bottom) selects the
    level; ``e0`` defaults to the bottom level. Raises if the level is not in
    the model spectrum or the input jets are too short for the order.
    """
    mode = problem.mode
    order = HalfInt.of(order)

    level = _select_level(problem, e0, level_index)

    phi = solve_eikonal(problem)
    conj = conjugate_hamiltonian(problem, phi)
    family = rescale_operator(conj)
    if family.max_order < order:
        deficit = order.doubled - family.max_order.doubled
        raise InsufficientOrderError(order, family.max_order, problem.D + deficit)

    # workspace: degrees reached are at most 2K + 2*order, plus margin
    degree = level.K.doubled + 2 * order.doubled + 2
    basis = HermiteBasis(mode, problem.lam, problem.mu, degree)
    omega = weight_expansion(phi, conj.density, problem, order)

    proj = build_projector(family, basis, level, order)
    es = [S0Series.from_fiber_poly(basis.fiber(m)) for m in level.members]
    fs = [proj.image_s0(m) for m in level.members]

    a_mat = gram_matrix(es, fs, omega, through=order)
    c_mat = interaction_matrix(es, fs, family, omega, through=order)
    eigen = formal_eigendecomposition(c_mat, gram=a_mat, through=order)

    psis = []
    for col in eigen.vectors:
        psi = S0Series.zero(mode, problem.n, problem.rank, order)
        for f, c in zip(fs, col):
            psi = psi + f.scale_series(c)
        # canonical representation: the offset of the whole level
        psi = psi.truncate(order).minimal_K()
        if psi.K > level.K:
            raise AssertionError("eigenvector escapes the level's power-counting offset")
        psis.append(psi.with_K(level.K))

    eigenvalues = [e.truncate(order).shift(HalfInt(2)) for e in eigen.eigenvalues]
    for e in eigenvalues:
        if not e.is_real():
            raise AssertionError("eigenvalue series has a non-real coefficient")

    parity = parity_filter([e.shift(HalfInt(-2)) for e in eigenvalues], level)

    eigenfunctions = [unrescale(psi) for psi in psis]
    _assert_structure(eigenfunctions, level, mode)

    ctx = PipelineContext(problem=problem, conj=conj, family=family, basis=basis,
                          level=level, omega=omega, projector=proj, parity=parity)
    return QuasimodeResult(level=level, order=order, eigenvalues=eigenvalues,
                           eigenfunctions=eigenfunctions, rescaled=psis,
                           norm2_constants=eigen.norms2,
                           normalized=eigen.normalized, mode_name=mode.name,
                           context=ctx)


def parity_filter(eigenvalues: Sequence, level: DegenerateLevel) -> VerificationReport:
    """The ``parity`` check: the half-integer coefficients of the eigenvalue
    series vanish, read through the series' lowest truncation order.

    Applies only to levels of uniform parity; mixed levels are exempt. A
    violation is a hard failure: the structure theory guarantees vanishing,
    so a coefficient not negligible against its series' largest means an
    implementation bug upstream.
    """
    order = reduce(_min_trunc, (e.truncation_order for e in eigenvalues), None)
    if level.parity == "mixed":
        return VerificationReport(name="parity", passed=True, order=order, max_residual=0.0,
                                  detail="mixed parity: exempt")
    worst = 0.0
    for e in eigenvalues:
        scale = e.max_abs_coeff()
        worst = max(worst, worst_residual(e.mode, ((float(e.mode.abs(c)), scale)
                                                   for t, c in e.items() if not t.is_integer)))
    if eigenvalues and not eigenvalues[0].mode.negligible(worst, 1):
        raise AssertionError(
            f"half-integer eigenvalue coefficient of size {worst} on a uniform-parity level")
    return VerificationReport(name="parity", passed=True, order=order, max_residual=worst,
                              detail=f"all half-integer coefficients vanish (<= {worst})")


def _assert_structure(eigenfunctions, level, mode):
    """Offset, lowest-degree, and parity bookkeeping of the output jets; a
    forbidden exponent's coefficients must be negligible against the jet's."""
    for a in eigenfunctions:
        if a.K != level.K:
            raise AssertionError(f"output offset K = {a.K} differs from level K = {level.K}")
        for k, jet in a.items():
            lo = jet.min_degree()
            bound = max((level.K - k).doubled, 0)
            if lo < bound:
                raise AssertionError(
                    f"coefficient at index {k} has degree {lo} below the bound {bound}")
        if level.parity in ("even", "odd"):
            # uniform-parity levels: the series lives on one exponent class
            scale = max((jet.max_abs() for _, jet in a.items()), default=0.0)
            for k, jet in a.items():
                absolute = k - level.K
                forbidden = not absolute.is_integer if level.parity == "even" \
                    else absolute.is_integer
                if forbidden:
                    worst = jet.max_abs()
                    if not mode.negligible(worst, scale):
                        raise AssertionError(
                            f"parity violation: forbidden exponent {absolute} "
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
    N = result.order
    psis = result.rescaled
    magnitudes = None
    residuals = []
    m = len(psis)
    for i in range(m):
        for j in range(i, m):
            p = pair_s0(psis[i], psis[j], ctx.omega, through=N)
            want = result.norm2_constants[i] if i == j else mode.zero()
            diff = p - FormalScalarSeries.const(mode, want, p.truncation_order)
            if diff.max_abs_coeff(N):
                if magnitudes is None:
                    magnitudes = [psi.abs() for psi in psis], ctx.omega.abs()
                abs_psis, abs_omega = magnitudes
                bound = pair_s0(abs_psis[i], abs_psis[j], abs_omega, through=N)
                residuals += [(mode.abs(c), mode.abs(bound.coefficient(t))
                               + (mode.abs(want) if t == HI0 else 0))
                              for t, c in diff.items() if t <= N]
    worst = worst_residual(mode, residuals)
    passed = mode.negligible(worst, 1)
    return VerificationReport(
        name="orthonormality", passed=passed, order=result.order,
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
    must be exactly zero (in float mode, against the terms summed into them).
    """
    ctx = result.context
    mode = ctx.problem.mode
    level = ctx.level
    N = result.order
    T_op = ctx.conj.hbar1
    L_op = ctx.conj.hbar2
    residuals = []
    min_degree_reached = None
    for a_jet, e_series in zip(result.eigenfunctions, result.eigenvalues):
        inner = e_series.shift(HalfInt(-2))  # E0 + sum h^i E_i
        for k in half_range(HI0, N + level.K):
            # the degree through which every term below is exact, known
            # before any operator is applied, so the applications stop there;
            # a_{k-i} is exact to a higher degree than a_k (s + d/2 <= N)
            a_k = a_jet.at_relative(k)
            bound_k = a_jet.degree_bound_at(k - level.K)
            check_bound = min(bound_k, convolution_bound(T_op.complete, T_op.min_degree(),
                                                         bound_k, a_k.min_degree()))
            has_prev = k - HalfInt(2) >= HI0
            if has_prev:
                a_prev = a_jet.at_relative(k - HalfInt(2))
                check_bound = min(check_bound, convolution_bound(
                    L_op.complete, L_op.min_degree(),
                    a_jet.degree_bound_at(k - HalfInt(2) - level.K), a_prev.min_degree()))
            if min_degree_reached is None or check_bound < min_degree_reached:
                min_degree_reached = check_bound
            # the terms summed into the residual, each through the check bound
            terms = [T_op.apply(a_k, through=check_bound),
                     -a_k.truncate_degree(check_bound).scale(level.E0)]
            if has_prev:
                terms.append(L_op.apply(a_prev, through=check_bound))
            for i in half_range(HalfInt(1), k):
                ei = inner.coefficient(i)
                if not mode.is_zero(ei):
                    terms.append(-a_jet.at_relative(k - i).truncate_degree(check_bound).scale(ei))
            residuals.append((sum(terms[1:], terms[0]).max_abs(), max(t.max_abs() for t in terms)))
    worst = worst_residual(mode, residuals)
    return VerificationReport(
        name="transport", passed=mode.negligible(worst, 1), order=N, max_residual=float(worst),
        detail=f"jet residual through degree {min_degree_reached}")


def eigen_residual(result: QuasimodeResult) -> VerificationReport:
    """Direct residual of the eigenvalue equation, assembled on the blown-up side.

    Computes (sum_j h^j Q_j - (E0 + sum h^k E_k)) psi coefficientwise; this
    regroups the whole construction differently from the transport recursion
    and must also vanish through the built order (in float mode, against Q psi
    and E psi).
    """
    ctx = result.context
    mode = ctx.problem.mode
    N = result.order
    residuals = []
    for psi, e_series in zip(result.rescaled, result.eigenvalues):
        inner = e_series.shift(HalfInt(-2))
        qpsi = ctx.family.apply_series(psi, out_trunc=N)
        epsi = psi.scale_series(inner)
        residuals.append(((qpsi - epsi).max_abs_coeff(N),
                          max(qpsi.max_abs_coeff(N), epsi.max_abs_coeff(N))))
    worst = worst_residual(mode, residuals)
    return VerificationReport(
        name="eigen_residual", passed=mode.negligible(worst, 1), order=N,
        max_residual=float(worst), detail="(Q - E) psi coefficientwise")


# ---------------------------------------------------------------------------
# Rayleigh-Schrodinger oracle (nondegenerate levels)


def rs_oracle(result: QuasimodeResult) -> FormalScalarSeries:
    """Eigenvalue series by the textbook perturbation recursion (m0 = 1 only).

    Works entirely in the model eigenbasis with intermediate normalization
    (the level component of every correction vector is zero). It shares with
    the construction the operator family, the basis of ``result.context`` and
    the projector engine's cached Q_j images (``q_action``: the table algebra
    of ``HermiteBasis.apply``, a function of the family and the basis alone),
    and reads none of the resolvent recursion, the pairing or the pencil. The
    basis's ``eigenvalue`` gives every model gap; no spectrum table is read.
    That basis reaches degree 2K + 4N + 2 (2K the member degree, N the
    order), which covers every vector the recursion builds. The returned
    series is E0 + sum_{k>=1/2} h^k E_k through the result's order.
    """
    ctx = result.context
    mode = ctx.problem.mode
    order = result.order
    level = ctx.level
    if level.m0 != 1:
        raise DegenerateLevelError(
            f"level at {level.E0} has multiplicity {level.m0}; the recursion needs a simple level")
    member = level.members[0]
    basis, engine = ctx.basis, ctx.projector.engine
    e0_val = level.E0

    def q_vec(j: HalfInt, vec: dict) -> dict:
        acc = HermiteVec(mode)
        for idx, c in vec.items():
            acc.add(engine.q_action(j, idx), *mode.split(c))
        return acc.reduce().coeffs()

    parts = [j.doubled for j in engine.family.orders() if j > HI0]
    psi = {0: {member: mode.one()}}
    e_coeffs = {0: e0_val}
    for s in range(1, order.doubled + 1):
        drive: dict = {}
        for m in parts:
            if m > s or s - m not in psi:
                continue
            contrib = q_vec(HalfInt(m), psi[s - m])
            for idx, c in contrib.items():
                drive[idx] = drive.get(idx, mode.zero()) + c
        e_s = drive.get(member, mode.zero())
        e_coeffs[s] = e_s
        rhs: dict = {}
        for idx, c in drive.items():
            rhs[idx] = rhs.get(idx, mode.zero()) - c
        for t in range(1, s):
            if mode.is_zero(e_coeffs.get(t, mode.zero())) or (s - t) not in psi:
                continue
            for idx, c in psi[s - t].items():
                rhs[idx] = rhs.get(idx, mode.zero()) + e_coeffs[t] * c
        # (Q0 - E0) psi_s = rhs, so componentwise (E_idx - E0) psi_idx = rhs_idx;
        # the member component is dropped (intermediate normalization)
        psi_s: dict = {}
        for idx, c in rhs.items():
            if idx == member or mode.is_zero(c):
                continue
            e_idx = basis.eigenvalue(idx)
            if mode.close(e_idx, e0_val):
                raise DegenerateLevelError(
                    "degeneracy met inside the recursion; the level is not isolated enough")
            psi_s[idx] = c / (e_idx - e0_val)
        psi[s] = psi_s
    terms = {HalfInt(s): c for s, c in e_coeffs.items() if not mode.is_zero(c)}
    return FormalScalarSeries.from_terms(mode, terms, order)


# ---------------------------------------------------------------------------
# Numeric cross-check (1-D scalar)


def _float_terms(poly: Poly) -> list:
    """The (exponent, real float coefficient) terms of a one-variable polynomial, in term order."""
    return [(a[0], c.real if isinstance(c, complex) else float(c)) for a, c in poly.terms.items()]


def _eval_on_grid(terms: list, xs):
    """``poly.eval_floats((x,)).real`` at every point of the 1-D numpy grid ``xs``, bit for bit.

    ``terms`` comes from ``_float_terms``. The terms are added in the same
    order as ``eval_floats`` adds them, each as c * x**e with the scalar
    (libm) power, since numpy's vectorised power may round differently.
    """
    import numpy as np

    points = xs.tolist()
    total = np.zeros(len(points))
    for e, c in terms:
        if e:
            total = total + c * np.fromiter(map(pow, points, repeat(e)), float, len(points))
        else:
            total = total + c
    return total


def _sine_galerkin_eigenvalue(v_terms: list, w_terms: list, a: float, hbar: float, size: int,
                              k: int) -> float:
    """The k-th eigenvalue of -h^2 d^2/dx^2 + V + h W in ``size`` Dirichlet sines of [-a, a].

    The sines sin(j pi (x + a) / 2a) / sqrt(a), j = 1..size, diagonalise the
    kinetic term with eigenvalues h^2 (j pi / 2a)^2. Their potential matrix
    is the quadrature sum_x S_jx (V + h W)(x) S_kx over the 2 size interior
    points of the box's uniform grid, with S the rows of the orthonormal
    DST-I matrix of that size; V and W come from ``_eval_on_grid``.
    """
    import numpy as np

    points = 2 * size
    xs = np.linspace(-a, a, points + 2)[1:-1]
    j = np.arange(1, size + 1)
    s = math.sqrt(2.0 / (points + 1)) * np.sin(np.outer(j, np.arange(1, points + 1))
                                               * (np.pi / (points + 1)))
    h = (s * (_eval_on_grid(v_terms, xs) + hbar * _eval_on_grid(w_terms, xs))) @ s.T
    h[np.diag_indices(size)] += (hbar * np.pi / (2.0 * a) * j) ** 2
    return float(np.linalg.eigvalsh(h)[k])


def crosscheck_eigenvalue_1d(result: QuasimodeResult, hbars: Sequence[float], grid: int = 4096,
                             decay_threshold: float = 1e-14) -> VerificationReport:
    """Numerical eigenvalues of the 1-D operator against the truncated series.

    A Galerkin solve in the Dirichlet sine basis of a box [-a, a] (reported
    as ``data["box"]``) sized so the ground weight has decayed below
    ``decay_threshold`` (a ValueError if V does not confine it on some side
    within |x| < 64). The basis starts at 64 sines and doubles until two
    sizes agree within 1e-9 max(|E|, h); E is taken at the larger one, which
    ``data["sizes"]`` records for each h (None where no two sizes up to
    ``grid`` agree, which fails the check). The log-log slope of
    |E_num(h) - series(h)| over the given h values must be at least
    order + 3/2 (or, for an identically vanishing series, the error must be
    exponentially small), fitted over two or more distinct, finite, positive
    h values (a ValueError otherwise).

    V and W are converted to float once and evaluated over each whole grid
    term by term (``_eval_on_grid``), with the same values as evaluating
    them point by point; ``_sine_galerkin_eigenvalue`` solves each size.
    """
    import numpy as np

    if len(set(hbars)) < 2 or not all(math.isfinite(h) and h > 0 for h in hbars):
        raise ValueError(f"the slope fit needs at least two distinct, finite, positive "
                         f"h values, got {list(hbars)}")
    problem = result.context.problem
    if problem.n != 1 or problem.rank != 1:
        raise ValueError("the numerical cross-check is one-dimensional scalar only")
    if not problem.metric_is_flat() or problem.has_connection():
        raise ValueError("the numerical cross-check needs the flat scalar form")
    mode = problem.mode
    v_terms = _float_terms(problem.V)
    w_terms = _float_terms(problem.W[0][0])

    # box size from the integrated decay of the weight
    hb_max = max(hbars)
    target = -math.log(decay_threshold) * hb_max
    a = 0.5
    while a < 64.0:
        phi_a, phi_ma = (float(abs(np.trapezoid(np.sqrt(np.maximum(_eval_on_grid(v_terms, xs), 0.0)),
                                                xs)))
                         for xs in (np.linspace(0.0, a, 4001), np.linspace(0.0, -a, 4001)))
        if min(phi_a, phi_ma) >= target:
            break
        a *= 1.5
    else:
        sides = " and ".join(side for side, phi in (("x > 0", phi_a), ("x < 0", phi_ma))
                             if phi < target)
        raise ValueError(
            f"the numerical cross-check needs a confining V: on the {sides} side "
            f"the weight does not decay below {decay_threshold:g} within |x| < 64")
    member = result.level.members[0]
    eig_index = member.alpha[0]
    if grid < eig_index + 3:
        raise ValueError(f"a basis of {grid} sines cannot resolve eigenvalue {eig_index}; "
                         f"it needs at least {eig_index + 3}")

    def certified_eigenvalue(hbar: float):
        """E at the first basis size agreeing with the size before it, and that size (or None)."""
        size = min(max(64, eig_index + 3), grid)
        e = _sine_galerkin_eigenvalue(v_terms, w_terms, a, hbar, size, eig_index)
        while size < grid:
            size, coarse = min(2 * size, grid), e
            e = _sine_galerkin_eigenvalue(v_terms, w_terms, a, hbar, size, eig_index)
            if abs(e - coarse) <= 1e-9 * max(abs(e), hbar):
                return e, size
        return e, None

    series = result.eigenvalues[0]
    errors, sizes = [], []
    for hb in hbars:
        e, size = certified_eigenvalue(hb)
        errors.append(abs(e - series.evaluate(hb, through=result.order + HalfInt(2)).real))
        sizes.append(size)
    certified = None not in sizes

    trivial = all(mode.is_zero(c) for _, c in series.items())
    data = {"hbars": list(hbars), "errors": errors, "box": a, "sizes": sizes}
    want = float(result.order.as_fraction()) + 1.5
    clamped = [max(e, 1e-300) for e in errors]
    slope = float(np.polyfit(np.log(hbars), np.log(clamped), 1)[0])
    data["slope"] = slope
    data["required_slope"] = want
    if trivial:
        # an identically vanishing series means the true eigenvalue is below
        # every power: demand super-power decay and smallness at the bottom
        smallest = min(errors)
        passed = certified and smallest <= 1e-6 and (slope >= want or max(errors) <= 1e-10)
        return VerificationReport(
            name="fd_crosscheck", passed=passed, order=result.order,
            max_residual=max(errors),
            detail=f"series is identically zero; decay slope {slope:.2f}, "
                   f"smallest error {smallest:.2e}",
            data=data)
    return VerificationReport(
        name="fd_crosscheck", passed=certified and slope >= want,
        order=result.order, max_residual=max(errors),
        detail=f"log-log error slope {slope:.3f} (required >= {want})", data=data)
