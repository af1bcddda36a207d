from fractions import Fraction

import pytest

from qmf.series_algebra import EXACT, HI0, HalfInt, Poly, float_mode, half_range
from qmf.operator_calculus import (
    JetProblem,
    conjugate_hamiltonian,
    rescale_operator,
    solve_eikonal,
)
from qmf.gaussian_pairing import weight_expansion
from qmf.harmonic_oscillator import (
    HermiteBasis,
    HermiteIndex,
    build_spectrum,
    degenerate_level,
)
from qmf.quasimode_pipeline import compute_quasimodes
from qmf.cli_io import preset_problem
from qmf.projection_engine import (
    ProjectorEngine,
    WorkspaceDegreeError,
    build_projector,
    projector_by_block_recursion,
    projector_diagnostics,
)

F = Fraction


def poly1(coeffs, mode=EXACT):
    return Poly(mode, 1, {(d,): mode.coeff(F(v)) for d, v in coeffs.items()})


def setup_problem(vhigher=None, D=8, lam=(1,), rank=1, W=None, E0=None, N=HalfInt(4),
                  mode=EXACT, workspace_margin=2):
    n = len(lam)
    problem = JetProblem.create(mode, n, rank, D, lam, V=vhigher, W=W)
    phi = solve_eikonal(problem)
    family = rescale_operator(conjugate_hamiltonian(problem, phi))
    lvl_degree = 10
    table = build_spectrum(mode, problem.lam, problem.mu, lvl_degree)
    level = degenerate_level(table, E0 if E0 is not None else table.distinct_levels()[0])
    degree = level.K.doubled + 2 * N.doubled + workspace_margin
    basis = HermiteBasis(mode, n, rank, problem.lam, problem.mu, degree)
    omega = weight_expansion(phi, problem, N)
    return problem, family, basis, level, omega


RANK2_W = (
    (Poly.zero(EXACT, 1), Poly.monomial(EXACT, 1, (1,), 1)),
    (Poly.monomial(EXACT, 1, (1,), 1), Poly.const(EXACT, 1, 4)),
)


def compositions(n):
    """Ordered compositions of the integer n >= 0 into positive parts."""
    if n == 0:
        yield []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield [first] + rest


def composition_sum_image(engine, j, index, budget):
    """Order-j image as the residue sum of single chains G0 Q_{j_1} G0 ... Q_{j_k} G0."""
    total = {}
    for comp in compositions(j.doubled):
        spent = 0
        state = engine._resolvent_factor({0: {index: F(1)}}, budget.doubled)
        for part in reversed(comp):
            spent += part
            state = engine._resolvent_factor(engine._apply_q(HalfInt(part), state),
                                             budget.doubled - spent)
        for idx, c in state.get(-1, {}).items():
            total[idx] = total.get(idx, 0) + c
    return {idx: c for idx, c in total.items() if c != 0}


def assert_block_recursion_agrees(family, basis, level, N, cover):
    proj = build_projector(family, basis, level, N)
    blocks = projector_by_block_recursion(family, basis, level, N, cover)
    for j, cols in blocks.items():
        for col, vec in cols.items():
            want = proj.image(col).get(j, {})
            assert vec == want, (j, col)


class TestChainResidues:
    def test_order_zero_is_level_projection(self):
        _, family, basis, level, _ = setup_problem()
        engine = ProjectorEngine(family, basis, level)
        h0 = HermiteIndex((0,), 0)
        h2 = HermiteIndex((2,), 0)
        assert engine.images(h0, HI0) == {HI0: {h0: F(1)}}
        assert engine.images(h2, HI0) == {}

    def test_first_order_reduced_resolvent_formula(self):
        # cubic well, ground level: residue at order 1/2 on the ground vector
        # equals -S Q_{1/2} h0 with S the reduced resolvent: -(c/2) y
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        engine = ProjectorEngine(family, basis, level)
        h0 = HermiteIndex((0,), 0)
        got = engine.images(h0, HalfInt(4))[HalfInt(1)]
        assert got == {HermiteIndex((1,), 0): F(-c, 2)}

    def test_first_order_matches_kato_form_on_nonlevel(self):
        # for h outside the level the order-1/2 image is -P0 Q S h - S Q P0 h;
        # check on h1 against a hand evaluation
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        engine = ProjectorEngine(family, basis, level)
        h1 = HermiteIndex((1,), 0)
        got = engine.images(h1, HalfInt(4))[HalfInt(1)]
        # Q_{1/2} h1 = c(y^2 d + y)(y) = 2 c y^2 = 2c p2 + c p0;
        # -P0 Q S h1: S h1 = h1/(3-1)... careful: h1 not in level so S h1 = h1/2,
        # Q S h1 = c y^2 = c (p2 + 1/2); P0 picks (c/2) p0 -> minus sign: -(c/2) p0.
        assert got.get(HermiteIndex((0,), 0)) == F(-c, 2)

    def test_pure_harmonic_has_no_corrections(self):
        _, family, basis, level, _ = setup_problem()
        proj = build_projector(family, basis, level, HalfInt(6))
        img = proj.image(HermiteIndex((0,), 0))
        assert list(img) == [HI0]

    def test_workspace_guard(self):
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        small_basis = HermiteBasis(EXACT, 1, 1, (F(1),), (F(0),), 2)
        engine = ProjectorEngine(family, small_basis, level)
        with pytest.raises(WorkspaceDegreeError):
            engine.images(HermiteIndex((2,), 0), HalfInt(4))


class TestProjectorLaws:
    @pytest.mark.parametrize("mode_name", ["exact", "float"])
    def test_cubic_scalar_laws(self, mode_name):
        mode = EXACT if mode_name == "exact" else float_mode()
        N = HalfInt(4)  # through order 2
        _, family, basis, level, omega = setup_problem(
            poly1({2: 1, 3: 1}, mode), N=N, mode=mode, workspace_margin=2 * N.doubled)
        proj = build_projector(family, basis, level, N)
        report = projector_diagnostics(proj, omega)
        tol = 0.0 if mode_name == "exact" else 1e-9
        assert report.passed(tol), report

    def test_degenerate_2d_level_order0(self):
        _, family, basis, level, omega = setup_problem(
            None, lam=(1, 1), E0=4, N=HalfInt(2))
        proj = build_projector(family, basis, level, HalfInt(2))
        for m in level.members:
            assert proj.image(m) == {HI0: {m: F(1)}}

    def test_block_recursion_agrees_with_residues(self):
        # independent construction must match the contour route exactly
        N = HalfInt(8)
        _, family, basis, level, _ = setup_problem(
            poly1({2: 1, 3: 1}), D=12, N=N, workspace_margin=2 * N.doubled + 2)
        assert_block_recursion_agrees(family, basis, level, N, basis.indices(2))

    def test_block_recursion_agrees_on_rank2_mixed_level(self):
        N = HalfInt(8)
        _, family, basis, level, _ = setup_problem(
            poly1({2: 4, 3: 1}), D=12, lam=(2,), rank=2, W=RANK2_W, E0=6, N=N,
            workspace_margin=2 * N.doubled + 2)
        assert level.parity == "mixed" and level.m0 == 2
        assert_block_recursion_agrees(family, basis, level, N, basis.indices(2))

    def test_recursion_equals_composition_sum(self):
        # the recursion regroups the Kato sum over compositions; in exact
        # arithmetic both must give the same images, order by order
        N = HalfInt(8)
        _, family, basis, level, _ = setup_problem(
            poly1({2: 1, 3: 1}), D=12, N=N)
        engine = ProjectorEngine(family, basis, level)
        for idx in basis.indices(2):
            images = engine.images(idx, N)
            for j in half_range(HI0, HalfInt(6)):
                assert images.get(j, {}) == composition_sum_image(engine, j, idx, N), (j, idx)

    def test_rank2_mixed_level_laws(self):
        N = HalfInt(3)
        _, family, basis, level, omega = setup_problem(
            poly1({2: 4, 3: 1}), lam=(2,), rank=2, W=RANK2_W, E0=6, N=N,
            workspace_margin=2 * N.doubled)
        assert level.parity == "mixed" and level.m0 == 2
        proj = build_projector(family, basis, level, N)
        report = projector_diagnostics(proj, omega)
        assert report.passed(0.0), report


def preset_projector(preset, order, mode_name="exact"):
    """The pipeline's projector of a preset, with an empty image cache."""
    spec = preset_problem(preset, mode_name, order)
    ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                             level_index=spec.level_index).context
    return build_projector(ctx.family, ctx.basis, ctx.level, spec.order), ctx.omega


class TestBudgetPrefix:
    @pytest.mark.parametrize("preset,order,mode_name", [
        ("cubic1d", 4, "exact"), ("rank2", 3, "exact"), ("iso2d", 3, "exact"),
        ("rank2", 3, "float")])
    def test_image_at_budget_is_prefix_of_full_image(self, preset, order, mode_name):
        proj, _ = preset_projector(preset, order, mode_name)
        engine, N = proj.engine, proj.order
        for idx in proj.basis.indices(6):
            full = proj.image(idx)
            for b in half_range(HI0, N - HalfInt(1)):
                want = {j: vec for j, vec in full.items() if j <= b}
                assert engine.images(idx, b) == want, (idx, b)
                assert proj._image(idx, b) == want, (idx, b)
            assert full == engine.images(idx, N), idx

    def test_diagnostics_ask_for_budgets_below_the_order(self):
        proj, omega = preset_projector("cubic1d", 4)
        engine, N = proj.engine, proj.order
        budgets = []
        full_images = engine.images

        def recording_images(index, budget):
            budgets.append(budget)
            return full_images(index, budget)

        engine.images = recording_images
        assert projector_diagnostics(proj, omega).passed(0.0)
        assert N in budgets
        assert min(budgets) < N
