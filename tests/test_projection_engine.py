import contextlib
import io
from fractions import Fraction
from math import gcd
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qmf.cli_io import preset_problem, run_command
from qmf.projection_engine import (
    HermiteVec,
    ProjectorEngine,
    WorkspaceDegreeError,
    build_projector,
    projector_diagnostics,
)

F = Fraction


def vec(coeffs, mode=EXACT):
    return HermiteVec.of(mode, coeffs)


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
        state = engine._resolvent_factor({0: vec({index: F(1)})}, budget.doubled)
        for part in reversed(comp):
            spent += part
            state = engine._resolvent_factor(engine._apply_q(HalfInt(part), state, {}),
                                             budget.doubled - spent)
        for idx, c in state.get(-1, vec({})).coeffs().items():
            total[idx] = total.get(idx, 0) + c
    return {idx: c for idx, c in total.items() if c != 0}


def projector_by_block_recursion(family, basis, level, order, cover) -> dict:
    """The same projector from a different algebra: the tests' second construction.

    Order by order, the commutator identity [Q0, P_j] = -sum [Q_i, P_{j-i}]
    determines every matrix entry between distinct model eigenvalues, and
    idempotency P = P^2 determines the rest:

        level-level block:     P_j = -sum_{0<i<j} P_i P_{j-i}
        other equal-eigenvalue blocks:  P_j = +sum_{0<i<j} P_i P_{j-i}

    Returns {order -> {column index -> HermiteVec}} on the covered columns.
    Internally the recursion works on an enlarged column set (degrees up to
    cover degree + 2*order) so the matrix products are closed; the basis
    degree bound must accommodate one further application of the family.
    """
    mode = basis.mode
    order = HalfInt.of(order)
    requested = sorted(set(cover))
    max_deg = max((idx.degree for idx in requested), default=0)
    # per-order column sets: at order j the remaining budget can raise the
    # degree by at most (order - j).doubled, which keeps every product closed
    def columns_at(j: HalfInt) -> list:
        bound = min(max_deg + (order - j).doubled, basis.degree)
        return basis.indices(bound)

    engine = ProjectorEngine(family, basis, level)
    level_set = set(level.members)
    eig = basis.eigenvalue

    def mat_mul(a: Mapping, b: Mapping) -> dict:
        out: dict[HermiteIndex, HermiteVec] = {}
        for col, vec in b.items():
            acc = out[col] = HermiteVec(mode)
            for mid, n in vec.num.items():
                avec = a.get(mid)
                if avec is None:
                    raise WorkspaceDegreeError(
                        f"block recursion needs column {mid} outside its internal cover")
                acc.add(avec, n, vec.den)
        return {col: vec for col, vec in out.items() if vec.reduce()}

    p: dict[HalfInt, dict] = {HI0: {col: HermiteVec.of(mode, {col: mode.one()} if col in level_set
                                                         else {})
                                    for col in columns_at(HI0)}}
    for j in half_range(HalfInt(1), order):
        cols = columns_at(j)
        rhs = {col: HermiteVec(mode) for col in cols}
        # commutator data: sum_{0<i<=j} (Q_i P_{j-i} - P_{j-i} Q_i)
        for i in half_range(HalfInt(1), j):
            if family.get(i).is_zero():
                continue
            pj = p[j - i]
            engine._apply_q(i, {col: pj[col] for col in cols}, rhs)
            for col, vec in mat_mul(pj, {col: engine.q_action(i, col) for col in cols}).items():
                rhs[col].add(vec, -1)
        # idempotency data: sum_{0<i<j} P_i P_{j-i}
        cross = {col: HermiteVec(mode) for col in cols}
        for i in half_range(HalfInt(1), j - HalfInt(1)):
            for col, vec in mat_mul(p[i], {col: p[j - i][col] for col in cols}).items():
                cross[col].add(vec)
        pj_new: dict[HermiteIndex, HermiteVec] = {}
        for col in cols:
            e_col = eig(col)
            vec = HermiteVec(mode)
            for row, n in rhs[col].num.items():
                gap = eig(row) - e_col
                if not mode.is_zero(gap):
                    # [Q0, P_j][row, col] = (E_row - E_col) P_j[row, col] = -rhs
                    a, b = mode.split(mode.one() / gap)
                    vec.add_entry(row, -n * a, rhs[col].den * b)
            for row, n in cross[col].num.items():
                if mode.is_zero(eig(row) - e_col):
                    both_level = row in level_set and col in level_set
                    vec.add_entry(row, -n if both_level else n, cross[col].den)
            pj_new[col] = vec.reduce()
        p[j] = pj_new
    wanted = set(requested)
    return {j: {col: vec for col, vec in colmap.items() if col in wanted}
            for j, colmap in p.items()}


def assert_block_recursion_agrees(family, basis, level, N, cover):
    proj = build_projector(family, basis, level, N)
    blocks = projector_by_block_recursion(family, basis, level, N, cover)
    for j, cols in blocks.items():
        for col, cvec in cols.items():
            want = proj.image(col).get(j, HermiteVec(EXACT))
            assert cvec == want, (j, col)


class TestChainResidues:
    def test_order_zero_is_level_projection(self):
        _, family, basis, level, _ = setup_problem()
        engine = ProjectorEngine(family, basis, level)
        h0 = HermiteIndex((0,), 0)
        h2 = HermiteIndex((2,), 0)
        assert engine.images(h0, HI0) == {HI0: vec({h0: F(1)})}
        assert engine.images(h2, HI0) == {}

    def test_first_order_reduced_resolvent_formula(self):
        # cubic well, ground level: residue at order 1/2 on the ground vector
        # equals -S Q_{1/2} h0 with S the reduced resolvent: -(c/2) y
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        engine = ProjectorEngine(family, basis, level)
        h0 = HermiteIndex((0,), 0)
        got = engine.images(h0, HalfInt(4))[HalfInt(1)]
        assert got == vec({HermiteIndex((1,), 0): F(-c, 2)})

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
        assert got.coeffs().get(HermiteIndex((0,), 0)) == F(-c, 2)

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
        with pytest.raises(WorkspaceDegreeError, match="enlarge the polynomial degree bound"):
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
        assert report.passed(), report

    def test_degenerate_2d_level_order0(self):
        _, family, basis, level, omega = setup_problem(
            None, lam=(1, 1), E0=4, N=HalfInt(2))
        proj = build_projector(family, basis, level, HalfInt(2))
        for m in level.members:
            assert proj.image(m) == {HI0: vec({m: F(1)})}

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
                got = images[j].coeffs() if j in images else {}
                assert got == composition_sum_image(engine, j, idx, N), (j, idx)

    def test_rank2_mixed_level_laws(self):
        N = HalfInt(3)
        _, family, basis, level, omega = setup_problem(
            poly1({2: 4, 3: 1}), lam=(2,), rank=2, W=RANK2_W, E0=6, N=N,
            workspace_margin=2 * N.doubled)
        assert level.parity == "mixed" and level.m0 == 2
        proj = build_projector(family, basis, level, N)
        report = projector_diagnostics(proj, omega)
        assert report.passed(), report


INDICES = st.builds(HermiteIndex, st.tuples(st.integers(0, 5)), st.integers(0, 1))
FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=36)
SPARSE = st.dictionaries(INDICES, FRACTIONS, max_size=6)
COMPLEXES = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def assert_reduced(v):
    assert v.den > 0
    assert all(n != 0 for n in v.num.values())
    assert gcd(v.den, *v.num.values()) == 1


class TestHermiteVec:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(SPARSE, FRACTIONS), max_size=6),
           st.lists(st.tuples(INDICES, FRACTIONS), max_size=4))
    def test_accumulation_equals_fraction_arithmetic(self, terms, entries):
        acc = HermiteVec(EXACT)
        want = {}
        for coeffs, scale in terms:
            v = vec(coeffs)
            assert_reduced(v)
            assert v.coeffs() == {i: c for i, c in coeffs.items() if c}
            acc.add(v, scale.numerator, scale.denominator)
            for i, c in coeffs.items():
                want[i] = want.get(i, 0) + scale * c
        for i, c in entries:
            acc.add_entry(i, c.numerator, c.denominator)
            want[i] = want.get(i, 0) + c
        want = {i: c for i, c in want.items() if c}
        acc.reduce()
        assert_reduced(acc)
        assert acc.coeffs() == want
        assert acc == vec(want)
        assert acc.max_abs() == float(max(map(abs, want.values()), default=0))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.dictionaries(INDICES, COMPLEXES, max_size=6), COMPLEXES),
                    max_size=6))
    def test_float_keeps_denominator_one(self, terms):
        mode = float_mode()
        acc = HermiteVec(mode)
        want = {}
        for coeffs, scale in terms:
            v = vec(coeffs, mode)
            assert v.den == 1
            acc.add(v, *mode.split(scale))
            assert acc.den == 1
            for i, c in coeffs.items():
                if not mode.is_zero(c):
                    want[i] = want.get(i, 0) + scale * c
        acc.reduce()
        assert acc.den == 1
        assert acc.coeffs() == {i: c for i, c in want.items() if not mode.is_zero(c)}


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
        assert projector_diagnostics(proj, omega).passed()
        assert N in budgets
        assert min(budgets) < N


class TestDiagnosticsComputeEachImageOnce:
    @pytest.mark.parametrize("preset,order", [("cubic1d", "4"), ("rank2", "3"), ("iso2d", "3")])
    def test_full_verify_calls_images_once_per_index(self, preset, order, monkeypatch):
        # projector_diagnostics collects every (index, budget) its laws read
        # and computes each index once, at the largest budget, before they run
        calls = []
        images = ProjectorEngine.images

        def counting_images(self, index, budget):
            calls.append(index)
            return images(self, index, budget)

        monkeypatch.setattr(ProjectorEngine, "images", counting_images)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["verify", "--preset", preset, "--order", order]) == 0
        assert calls
        assert len(calls) == len(set(calls)), sorted(set(i for i in calls if calls.count(i) > 1))


def test_float_q_action_support_equals_exact():
    # float rounding must leave no entry where exact arithmetic cancels to zero
    caches = {}
    for mode_name in ("exact", "float"):
        spec = preset_problem("iso2d", mode_name, HalfInt(5))
        ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value).context
        caches[mode_name] = ctx.projector.engine._q_cache
    exact, flt = caches["exact"], caches["float"]
    assert exact.keys() == flt.keys()
    for key, vec in exact.items():
        assert set(flt[key].num) == set(vec.num), key
    assert sum(len(v.num) for v in flt.values()) == sum(len(v.num) for v in exact.values())
