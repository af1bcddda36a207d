import contextlib
import dataclasses
import io
from fractions import Fraction
from math import gcd
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmf.series_algebra import EXACT, Poly, doubled_order, float_mode
from qmf.operator_calculus import (
    DiffOpJet,
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
from qmf.quasimode_pipeline import (
    compute_quasimodes,
    eigen_residual,
    rs_oracle,
    transport_residual,
)
from qmf.cli_io import parse_problem_spec, preset_problem, run_command
from qmf.projection_engine import (
    HermiteVec,
    ProjectorSeries,
    WorkspaceDegreeError,
    build_projector,
    projector_diagnostics,
    workspace_degree,
)
from qmf.operator_calculus import InsufficientOrderError
from residue_oracle import ResidueOracle, _reduced, _slot, apply_q

F = Fraction


def vec(coeffs, mode=EXACT):
    return HermiteVec.of(mode, coeffs)


def vec_coeffs(v: HermiteVec) -> dict:
    """The coefficients as mode values (Fractions in exact mode)."""
    return {idx: v.mode.join(n, v.den) for idx, n in v.num.items()}


def poly1(coeffs, mode=EXACT):
    return Poly(mode, 1, {(d,): mode.coeff(F(v)) for d, v in coeffs.items()})


def setup_problem(vhigher=None, D=8, lam=(1,), rank=1, W=None, E0=None, N=4,
                  mode=EXACT, workspace_margin=2):
    n = len(lam)
    problem = JetProblem.create(mode, n, rank, D, lam, V=vhigher, W=W)
    phi = solve_eikonal(problem)
    conj = conjugate_hamiltonian(problem, phi)
    family = rescale_operator(conj)
    lvl_degree = 10
    table = build_spectrum(mode, problem.lam, problem.mu, lvl_degree)
    level = degenerate_level(table, E0 if E0 is not None else table.distinct_levels()[0])
    degree = level.K2 + 2 * N + workspace_margin
    basis = HermiteBasis(mode, problem.lam, problem.mu, degree)
    omega = weight_expansion(phi, conj.density, problem, N)
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


def composition_sum_image(proj, j, key, budget):
    """Order-j image of the basis vector ``key`` as the residue sum of single chains
    G0 Q_{j_1} G0 ... Q_{j_k} G0."""
    proj = ResidueOracle(proj.family, proj.basis, proj.level, proj.order2)
    total = {}
    for comp in compositions(j):
        spent = 0
        state = proj._resolvent_factor({0: vec({key: F(1)})}, budget)
        for part in reversed(comp):
            spent += part
            state = proj._resolvent_factor(apply_q(proj, part, state, {}),
                                           budget - spent)
        for idx, c in vec_coeffs(state.get(-1, vec({}))).items():
            total[idx] = total.get(idx, 0) + c
    return {idx: c for idx, c in total.items() if c != 0}


def projector_by_block_recursion(family, basis, level, order, cover) -> dict:
    """The same projector from a different algebra: the tests' second construction.

    Order by order, the commutator identity [Q0, P_j] = -sum [Q_i, P_{j-i}]
    determines every matrix entry between distinct model eigenvalues, and
    idempotency P = P^2 determines the rest:

        level-level block:     P_j = -sum_{0<i<j} P_i P_{j-i}
        other equal-eigenvalue blocks:  P_j = +sum_{0<i<j} P_i P_{j-i}

    Columns and rows are basis keys. Returns {order -> {column key
    -> HermiteVec}} on the covered columns.
    Internally the recursion works on an enlarged column set (degrees up to
    cover degree + 2*order) so the matrix products are closed; the basis
    degree bound must accommodate one further application of the family.
    """
    mode = basis.mode
    requested = sorted(set(cover))
    max_deg = max((basis.index(col).degree for col in requested), default=0)
    # per-order column sets: at order j the remaining budget can raise the
    # degree by at most (order - j), which keeps every product closed
    def columns_at(j: int) -> list:
        bound = min(max_deg + (order - j), basis.degree)
        return [basis.key(idx) for idx in basis.indices(bound)]

    proj = ProjectorSeries(family, basis, level, order)
    level_set = {basis.key(m) for m in level.members}
    eig = basis.eigenvalue

    def mat_mul(a: Mapping, b: Mapping) -> dict:
        out: dict[int, HermiteVec] = {}
        for col, vec in b.items():
            acc = out[col] = HermiteVec(mode)
            for mid, n in vec.num.items():
                avec = a.get(mid)
                if avec is None:
                    raise WorkspaceDegreeError(
                        f"block recursion needs column {basis.index(mid)} outside its "
                        f"internal cover")
                acc.add(avec, n, vec.den)
        return {col: vec for col, vec in out.items() if vec.reduce()}

    p: dict[int, dict] = {0: {col: HermiteVec.of(mode, {col: mode.one()} if col in level_set
                                                         else {})
                                    for col in columns_at(0)}}
    for j in range(1, order + 1):
        cols = columns_at(j)
        rhs = {col: HermiteVec(mode) for col in cols}
        # commutator data: sum_{0<i<=j} (Q_i P_{j-i} - P_{j-i} Q_i)
        for i in range(1, j + 1):
            if family.get2(i).is_zero():
                continue
            pj = p[j - i]
            apply_q(proj, i, {col: pj[col] for col in cols}, rhs)
            for col, vec in mat_mul(pj, {col: proj.q_action(i, col) for col in cols}).items():
                rhs[col].add(vec, -1)
        # idempotency data: sum_{0<i<j} P_i P_{j-i}
        cross = {col: HermiteVec(mode) for col in cols}
        for i in range(1, j):
            for col, vec in mat_mul(p[i], {col: p[j - i][col] for col in cols}).items():
                cross[col].add(vec)
        pj_new: dict[int, HermiteVec] = {}
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
    blocks = projector_by_block_recursion(family, basis, level, N,
                                          [basis.key(idx) for idx in cover])
    for j, cols in blocks.items():
        for col, cvec in cols.items():
            want = proj.image2(col).get(j, HermiteVec(EXACT))
            assert cvec == want, (j, basis.index(col))


class TestChainResidues:
    def test_order_zero_is_level_projection(self):
        _, family, basis, level, _ = setup_problem()
        proj = build_projector(family, basis, level, 0)
        h0 = basis.key(HermiteIndex((0,), 0))
        h2 = basis.key(HermiteIndex((2,), 0))
        assert proj.image2(h0) == {0: vec({h0: F(1)})}
        assert proj.image2(h2) == {}

    def test_first_order_reduced_resolvent_formula(self):
        # cubic well, ground level: residue at order 1/2 on the ground vector
        # equals -S Q_{1/2} h0 with S the reduced resolvent: -(c/2) y
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        proj = build_projector(family, basis, level, 4)
        h0 = basis.key(HermiteIndex((0,), 0))
        got = proj.image2(h0)[1]
        assert got == vec({basis.key(HermiteIndex((1,), 0)): F(-c, 2)})

    def test_first_order_matches_kato_form_on_nonlevel(self):
        # for h outside the level the order-1/2 image is -P0 Q S h - S Q P0 h;
        # check on h1 against a hand evaluation
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        proj = build_projector(family, basis, level, 4)
        h1 = basis.key(HermiteIndex((1,), 0))
        got = proj.image2(h1)[1]
        # Q_{1/2} h1 = c(y^2 d + y)(y) = 2 c y^2 = 2c p2 + c p0;
        # -P0 Q S h1: S h1 = h1/(3-1)... careful: h1 not in level so S h1 = h1/2,
        # Q S h1 = c y^2 = c (p2 + 1/2); P0 picks (c/2) p0 -> minus sign: -(c/2) p0.
        assert vec_coeffs(got).get(basis.key(HermiteIndex((0,), 0))) == F(-c, 2)

    def test_pure_harmonic_has_no_corrections(self):
        _, family, basis, level, _ = setup_problem()
        proj = build_projector(family, basis, level, 6)
        img = proj.image2(basis.key(HermiteIndex((0,), 0)))
        assert list(img) == [0]

    def test_workspace_guard(self):
        c = 1
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: c}))
        small_basis = HermiteBasis(EXACT, (F(1),), (F(0),), 2)
        proj = build_projector(family, small_basis, level, 4)
        # the ground level at order 2 needs workspace_degree = 0 + 2 + 4
        with pytest.raises(WorkspaceDegreeError,
                           match="build the Hermite basis at degree 6 or more"):
            proj.wave_operator2()

    def test_a_probe_past_the_left_reach_raises(self):
        # the left vectors hold degree D - N at every order, D the basis degree
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: 1}))
        proj = build_projector(family, basis, level, 4)
        top = basis.degree - 4
        assert proj.image2(basis.key(HermiteIndex((top,), 0)))
        with pytest.raises(WorkspaceDegreeError, match=(
                f"needs the Hermite basis at degree {basis.degree + 1} or more")):
            proj.image2(basis.key(HermiteIndex((top + 1,), 0)))

    def test_family_order_guard(self):
        # the condition compute_quasimodes reports, with the same error type
        _, family, basis, level, _ = setup_problem(poly1({2: 1, 3: 1}))
        past = family.max_order2 + 1
        with pytest.raises(InsufficientOrderError, match=(
                f"exact only through order {F(family.max_order2, 2)} < requested {F(past, 2)}; "
                "the input jet order must be 1 higher")) as info:
            build_projector(family, basis, level, past)
        assert isinstance(info.value, ValueError) and info.value.required_D is None


class TestProjectorLaws:
    @pytest.mark.parametrize("mode_name", ["exact", "float"])
    def test_cubic_scalar_laws(self, mode_name):
        mode = EXACT if mode_name == "exact" else float_mode()
        N = 4  # through order 2
        _, family, basis, level, omega = setup_problem(
            poly1({2: 1, 3: 1}, mode), N=N, mode=mode, workspace_margin=2 * N)
        proj = build_projector(family, basis, level, N)
        report = projector_diagnostics(proj, omega)
        assert report.passed, report

    def test_degenerate_2d_level_order0(self):
        _, family, basis, level, omega = setup_problem(
            None, lam=(1, 1), E0=4, N=2)
        proj = build_projector(family, basis, level, 2)
        for m in map(basis.key, level.members):
            assert proj.image2(m) == {0: vec({m: F(1)})}

    def test_block_recursion_agrees_with_residues(self):
        # independent construction must match the contour route exactly
        N = 8
        _, family, basis, level, _ = setup_problem(
            poly1({2: 1, 3: 1}), D=12, N=N, workspace_margin=2 * N + 2)
        assert_block_recursion_agrees(family, basis, level, N, basis.indices(2))

    def test_block_recursion_agrees_on_rank2_mixed_level(self):
        N = 8
        _, family, basis, level, _ = setup_problem(
            poly1({2: 4, 3: 1}), D=12, lam=(2,), rank=2, W=RANK2_W, E0=6, N=N,
            workspace_margin=2 * N + 2)
        assert level.parity == "mixed" and level.m0 == 2
        assert_block_recursion_agrees(family, basis, level, N, basis.indices(2))

    def test_images_equal_the_composition_sum(self):
        # the Kato sum over compositions of the residue recursion; in exact
        # arithmetic the two wave operators give the same images, order by
        # order
        N = 8
        _, family, basis, level, _ = setup_problem(
            poly1({2: 1, 3: 1}), D=12, N=N)
        proj = build_projector(family, basis, level, N)
        for idx in basis.indices(2):
            pos = basis.key(idx)
            images = proj.image2(pos)
            for j in range(7):
                got = vec_coeffs(images[j]) if j in images else {}
                assert got == composition_sum_image(proj, j, pos, N), (j, idx)

    def test_rank2_mixed_level_laws(self):
        N = 3
        _, family, basis, level, omega = setup_problem(
            poly1({2: 4, 3: 1}), lam=(2,), rank=2, W=RANK2_W, E0=6, N=N,
            workspace_margin=2 * N)
        assert level.parity == "mixed" and level.m0 == 2
        proj = build_projector(family, basis, level, N)
        report = projector_diagnostics(proj, omega)
        assert report.passed, report


INDICES = st.integers(0, 11)
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
            assert vec_coeffs(v) == {i: c for i, c in coeffs.items() if c}
            acc.add(v, scale.numerator, scale.denominator)
            for i, c in coeffs.items():
                want[i] = want.get(i, 0) + scale * c
        for i, c in entries:
            acc.add_entry(i, c.numerator, c.denominator)
            want[i] = want.get(i, 0) + c
        want = {i: c for i, c in want.items() if c}
        acc.reduce()
        assert_reduced(acc)
        assert vec_coeffs(acc) == want
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
        assert vec_coeffs(acc) == {i: c for i, c in want.items() if not mode.is_zero(c)}


def preset_projector(preset, order, mode_name="exact", level_index=None):
    """The pipeline's projector of a preset, with an empty image cache."""
    spec = preset_problem(preset, mode_name, order)
    e0 = spec.level_value if level_index is None else None
    ctx = compute_quasimodes(spec.problem, spec.order, e0=e0,
                             level_index=level_index).context
    return build_projector(ctx.family, ctx.basis, ctx.level, doubled_order(spec.order)), ctx.omega


class TestBudgetPrefix:
    @pytest.mark.parametrize("preset,order,mode_name", [
        ("cubic1d", 4, "exact"), ("rank2", 3, "exact"), ("iso2d", 3, "exact"),
        ("rank2", 3, "float")])
    def test_image_at_budget_is_prefix_of_full_image(self, preset, order, mode_name):
        proj, _ = preset_projector(preset, order, mode_name)
        N = proj.order2
        # indices up to degree 6 lie past the pipeline's workspace reach: a
        # basis of degree 6 + N holds their images
        basis = HermiteBasis(proj.mode, proj.basis.lam, proj.basis.mu, 6 + N)
        proj = build_projector(proj.family, basis, proj.level, N)
        below = [at_order(proj, b) for b in range(N)]
        for idx in proj.basis.indices(6):
            pos = proj.basis.key(idx)
            full = proj.image2(pos)
            for b, at_b in enumerate(below):
                want = {j: vec for j, vec in full.items() if j <= b}
                assert at_b.image2(pos) == want, (idx, b)


class TestWorkspaceReach:
    """The pipeline's workspace is the reach of the projector check's probes,
    so ``WorkspaceDegreeError`` guards its edge."""

    @pytest.mark.parametrize("preset,order", [("cubic1d", 4), ("iso2d", 3), ("rank2", 3)])
    def test_workspace_is_the_probes_reach(self, preset, order):
        spec = preset_problem(preset, "exact", order)
        ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                                 level_index=spec.level_index).context
        assert ctx.basis.degree == ctx.level.K2 + doubled_order(spec.order) + 2

    @pytest.mark.parametrize("preset,order", [("cubic1d", 4), ("iso2d", 3), ("rank2", 3)])
    def test_one_degree_narrower_raises(self, preset, order):
        proj, omega = preset_projector(preset, order)
        assert projector_diagnostics(proj, omega).passed
        basis = proj.basis
        narrow = HermiteBasis(proj.mode, basis.lam, basis.mu, basis.degree - 1)
        with pytest.raises(WorkspaceDegreeError):
            projector_diagnostics(build_projector(proj.family, narrow, proj.level, proj.order2),
                                  omega)


class TestDiagnosticsBuildEachPieceOnce:
    @pytest.mark.parametrize("preset,order", [("cubic1d", "4"), ("rank2", "3"), ("iso2d", "3")])
    def test_full_verify_runs_each_recursion_once(self, preset, order, monkeypatch):
        # compute runs the wave operator and the checks the left recursion,
        # once each; rs_oracle and projector_diagnostics share M, and each
        # image is formed once
        runs, overlaps = [], []
        bloch, overlap = ProjectorSeries._bloch, ProjectorSeries.overlap2

        def counting_bloch(self, action, *reach):
            runs.append("left" if reach else "right")
            return bloch(self, action, *reach)

        def counting_overlap(self, size=None):
            if size is None and self._overlap is None:
                overlaps.append(self)
            return overlap(self, size)

        monkeypatch.setattr(ProjectorSeries, "_bloch", counting_bloch)
        monkeypatch.setattr(ProjectorSeries, "overlap2", counting_overlap)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["verify", "--preset", preset, "--order", order]) == 0
        assert sorted(runs) == ["left", "right"]
        (proj,) = overlaps
        assert sorted(proj._images) == sorted({proj.basis.key(i) for i in _probes(proj)})


def test_float_q_action_support_equals_exact():
    # float rounding must leave no entry where exact arithmetic cancels to zero
    # (both bases name a basis vector by the same key)
    caches = {}
    for mode_name in ("exact", "float"):
        spec = preset_problem("iso2d", mode_name, Fraction(5, 2))
        ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value).context
        caches[mode_name] = {key: set(vec.num) for key, vec in ctx.projector._q_cache.items()}
    exact, flt = caches["exact"], caches["float"]
    assert exact.keys() == flt.keys()
    for key, support in exact.items():
        assert flt[key] == support, key
    assert sum(map(len, flt.values())) == sum(map(len, exact.values()))


def test_verify_applies_only_operators_of_the_family(monkeypatch):
    # both recursions skip the orders absent from the family instead of
    # applying (and caching) a zero operator
    projectors = []
    init = ProjectorSeries.__init__

    def recording_init(self, *args):
        init(self, *args)
        projectors.append(self)

    monkeypatch.setattr(ProjectorSeries, "__init__", recording_init)
    with contextlib.redirect_stdout(io.StringIO()):
        for preset, order in (("quartic1d", "8"), ("witten1d", "9")):
            assert run_command(["verify", "--preset", preset, "--order", order,
                                "--checks", "all"]) == 0
    assert projectors
    for proj in projectors:
        assert proj._q_cache and proj._adjoint_cache
        assert {j for j, _ in proj._q_cache} <= proj.family.ops2.keys()
        assert {j for j, _ in proj._adjoint_cache} <= proj.family.ops2.keys()


class UntruncatedEngine(ResidueOracle):
    """The oracle before the parity truncation: every component keeps the
    w-powers up to the remaining half-orders, 2(order - s), the level members
    all of theirs."""

    def _resolvent_factor(self, state: dict, pmax: int) -> dict:
        mode = self.mode
        out: dict[int, HermiteVec] = {}
        for power, vec in state.items():
            den = vec.den
            for idx, n in vec.num.items():
                if idx in self._level_set:
                    _slot(out, power - 1, mode).add_entry(idx, n, den)
                    continue
                count = pmax - power + 1
                pows = self._gap_series(idx, count)
                for s in range(count):
                    a, b = pows[s]
                    _slot(out, power + s, mode).add_entry(idx, n * a, den * b)
        return _reduced(out)


def _probes(proj) -> list:
    """The level members and every probe of ``projector_diagnostics``."""
    basis, level = proj.basis, proj.level
    return sorted(set(basis.indices(workspace_degree(level, 0))) | set(level.members))


def spec_projector(text: str):
    spec = parse_problem_spec(text)
    ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                             level_index=spec.level_index).context
    return ctx.projector


def reference_spec(name: str, mode_name: str = "exact") -> str:
    """The text of one ``tests/refs`` spec, in either mode."""
    from test_reference_documents import ANISO_WELL, CURVED_WELL, RANK2_CONNECTION, WELL_3D

    text = {"curved2d-o3": CURVED_WELL,
            "curved2d-o6": CURVED_WELL.replace("order = 3", "order = 6"),
            "rank2-connection-o4": RANK2_CONNECTION,
            "well3d-o4": WELL_3D.replace("order = 2", "order = 4"),
            "aniso2d-o4": ANISO_WELL}[name]
    return text.replace("mode = exact", f"mode = {mode_name}")


# the benchmark's verify cases (iso2d and rank2: their 2-fold levels) and
# witten1d's one-term family
PRESET_CASES = [("cubic1d", 4), ("cubic1d", 6), ("quartic1d", 8), ("witten1d", 9),
                ("rank2", 3), ("rank2", 4), ("iso2d", 4), ("iso2d", 5)]
SPEC_CASES = ["curved2d-o3", "rank2-connection-o4", "well3d-o4", "aniso2d-o4"]


def assert_images_equal_the_oracle(proj, exact: bool):
    """On every probe of ``projector_diagnostics``, the images equal the
    residue oracle's: exactly, or in float mode within 1e-12 of each
    order's largest coefficient."""
    oracle = ResidueOracle(proj.family, proj.basis, proj.level, proj.order2)
    for idx in _probes(proj):
        pos = proj.basis.key(idx)
        got, want = proj.image2(pos), oracle.images2(pos)
        if exact:
            assert got == want, idx
            continue
        assert got.keys() == want.keys(), idx
        for j, vec in want.items():
            scale = vec.max_abs()
            assert got[j].num.keys() == vec.num.keys(), (idx, j)
            assert all(abs(got[j].num[i] - n) <= 1e-12 * scale for i, n in vec.num.items())


class TestLeftRoute:
    """The images P e_b = Omega M^(-1) <v, e_b>_G of the two wave operators
    equal the residue oracle's on every probe."""

    @pytest.mark.parametrize("preset,order", PRESET_CASES)
    def test_images_equal_the_oracle(self, preset, order):
        # and the oracle's parity truncation drops nothing that counts
        proj, _ = preset_projector(preset, order)
        assert_images_equal_the_oracle(proj, exact=True)
        untruncated = UntruncatedEngine(proj.family, proj.basis, proj.level, proj.order2)
        for idx in _probes(proj):
            pos = proj.basis.key(idx)
            assert proj.image2(pos) == untruncated.images2(pos), idx

    @pytest.mark.parametrize("preset,order", PRESET_CASES)
    def test_float_images_within_rounding_of_the_oracle(self, preset, order):
        assert_images_equal_the_oracle(preset_projector(preset, order, "float")[0], exact=False)

    @pytest.mark.parametrize("mode_name", ["exact", "float"])
    @pytest.mark.parametrize("name", SPEC_CASES)
    def test_reference_specs(self, name, mode_name):
        proj = spec_projector(reference_spec(name, mode_name))
        assert_images_equal_the_oracle(proj, exact=mode_name == "exact")

    def test_an_adjoint_image_asked_further_is_formed_again(self):
        # the cache keeps each Q_j^dagger image through the largest degree
        # asked, so a later, wider request is never served a cut image
        proj, _ = preset_projector("iso2d", 4)
        j2, pos = 1, proj.basis.key(proj.level.members[0])
        full = HermiteVec(proj.mode, *proj.basis.apply_adjoint(proj.family.get2(j2), pos))
        cut = proj.adjoint_action(j2, pos, 3)
        assert cut and all(proj.basis.index(i).degree <= 3 for i in cut.num)
        assert proj.adjoint_action(j2, pos, 2) is cut
        wide = proj.adjoint_action(j2, pos, proj.basis.degree)
        assert wide == full != cut

    def test_a_parity_breaking_term_fails_the_parity_law(self):
        # y d keeps the degree of p_m; at order 1/2 it breaks the parity rule
        # (Q_j changes degree parity by 2j), and the projector check's parity
        # law sees it in the images
        _, family, basis, level, omega = setup_problem(poly1({2: 1, 3: 1}), N=4,
                                                       workspace_margin=2)
        y = Poly.monomial(EXACT, 1, (1,), 1)
        half = 1
        bad = dataclasses.replace(
            family, ops2={**family.ops2, half: family.get2(half) + DiffOpJet(EXACT, 1, 1,
                                                                              {(1,): ((y,),)})})
        report = projector_diagnostics(build_projector(bad, basis, level, 4), omega)
        assert not report.data["parity_ok"] and not report.passed
        assert projector_diagnostics(build_projector(family, basis, level, 4), omega).passed


WITTEN_EXCITED = [(f"witten1d:c={c}", order, level)
                  for c in ("1", "1/3", "2") for order in (2, 4, 6) for level in (1, 2, 3)]


class TestFloatSymmetry:
    """(P a, b) and (a, P b) are cancelled sums, and one of them can round to
    exactly 0; the symmetry law judges their difference against the pairings
    of the |coefficients| of both sides."""

    @pytest.mark.parametrize("preset,order,level", WITTEN_EXCITED)
    def test_witten_excited_levels_pass(self, preset, order, level):
        proj, omega = preset_projector(preset, order, "float", level)
        report = projector_diagnostics(proj, omega)
        assert report.passed, report
        assert report.data["symmetry_defect"] <= 1e-15

    @pytest.mark.parametrize("preset", ["witten1d:c=1/3", "witten1d:c=1/5"])
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_witten_zero_mode_passes(self, preset, order):
        proj, omega = preset_projector(preset, order, "float", 0)
        report = projector_diagnostics(proj, omega)
        assert report.passed, report
        assert report.data["symmetry_defect"] <= 1e-15

    @pytest.mark.parametrize("preset,level",[("witten1d:c=1/3", 0), ("witten1d:c=1", 1)])
    def test_perturbed_float_image_still_fails(self, preset, level):
        # one image coefficient of a level member off by a relative 1e-6
        proj, omega = preset_projector(preset, 4, "float", level)
        pos = proj.basis.key(proj.level.members[0])
        img = dict(proj.image2(pos))
        j = max(img)
        vec = img[j]
        img[j] = HermiteVec(vec.mode, {i: n * (1 + 1e-6) for i, n in vec.num.items()}, vec.den)
        proj._images[pos] = img
        report = projector_diagnostics(proj, omega)
        assert not report.passed
        assert report.data["symmetry_defect"] > 1e-9


def at_order(proj: ProjectorSeries, order2: int) -> ProjectorSeries:
    """The projector of ``proj``'s level at the doubled order ``order2``, on
    ``proj``'s Q_j and gap caches: its images are the recursion run at that
    order."""
    out = type(proj)(proj.family, proj.basis, proj.level, order2)
    out._q_cache, out._gaps = proj._q_cache, proj._gaps
    return out


def graded_apply(proj: ProjectorSeries, vecs: Mapping, cache: dict) -> dict:
    """P applied to sum_j h^j vecs[j] through the built order: an index met at
    order j needs its image only through order N - j, which keeps every image
    inside the workspace. ``cache`` keeps the projector at each order N - j
    (``at_order``), and with it its images."""
    out: dict = {}
    for j, vec in vecs.items():
        if j > proj.order2:
            continue
        at = cache.get(j)
        if at is None:
            at = cache[j] = proj if j == 0 else at_order(proj, proj.order2 - j)
        for idx, n in vec.num.items():
            for i, ivec in at.image2(idx).items():
                _slot(out, j + i, proj.mode).add(ivec, n, vec.den)
    return _reduced(out)


class TestIdempotencyAndCommutation:
    """P P = P and Q P = P Q, coefficientwise at zero tolerance, on every probe
    of ``projector_diagnostics``: laws of the projector that no output
    reads, so they are held here rather than in ``verify``."""

    @staticmethod
    def assert_laws(proj):
        N, cache = proj.order2, {}
        orders = [i for i in proj.family.orders2() if i <= N]
        basis, level = proj.basis, proj.level
        for idx in sorted(set(basis.indices(workspace_degree(level, 0))) | set(level.members)):
            pos = basis.key(idx)
            img = proj.image2(pos)
            assert graded_apply(proj, img, cache) == img, idx
            qp: dict = {}
            for j, vec in img.items():
                for i in orders:
                    if j + i <= N:
                        apply_q(proj, i, {j + i: vec}, qp)
            qe = {i: proj.q_action(i, pos) for i in orders}
            assert _reduced(qp) == graded_apply(proj, qe, cache), idx

    @pytest.mark.parametrize("preset,order", [("cubic1d", 4), ("cubic1d", 6), ("rank2", 3),
                                              ("rank2", 4), ("iso2d", 4), ("iso2d", 5)])
    def test_benchmark_verify_cases(self, preset, order):
        self.assert_laws(preset_projector(preset, order)[0])

    @pytest.mark.parametrize("name", ["curved2d-o3", "curved2d-o6", "rank2-connection-o4",
                                      "well3d-o4", "aniso2d-o4"])
    def test_reference_specs(self, name):
        self.assert_laws(spec_projector(reference_spec(name)))

    @pytest.mark.parametrize("preset,order", [("cubic1d", 6), ("iso2d", 4)])
    def test_a_left_recursion_defect_breaks_them(self, preset, order):
        # one basis vector's gap off by 1001/1000 inside the left recursion only:
        # the wave operator has run, so the construction and the checks that
        # read it stand, while rs and the projector laws read the left vectors
        spec = preset_problem(preset, "exact", order)
        result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        proj = result.context.projector
        first = min(i for i in proj.family.orders2() if i > 0)
        member = proj.basis.key(proj.level.members[0])
        pos = next(i for i in proj.adjoint_action(first, member, proj.basis.degree - first).num
                   if i not in proj._level_set)
        u, v = proj._gap(pos)
        proj._gaps[pos] = (u * 1001, v * 1000)
        assert transport_residual(result).passed
        assert eigen_residual(result).passed
        assert not rs_oracle(result).passed
        report = projector_diagnostics(proj, result.context.omega)
        assert not report.passed and report.data["symmetry_defect"] > 0
        with pytest.raises(AssertionError):
            self.assert_laws(proj)


class TestWaveOperator:
    """Bloch's wave operator: Q Omega = Omega H_eff, P0 Omega = P0 (intermediate
    normalization) and P Omega = Omega under the projector."""

    CASES = [("cubic1d", 6), ("quartic1d", 6), ("iso2d", 4), ("rank2", 3), ("rank2", 4)]

    @pytest.mark.parametrize("preset,order", CASES)
    def test_intertwines_the_family_with_h_eff(self, preset, order):
        # Q applied by the operator calculus (``apply_series``), not the
        # Hermite table the recursion reads
        proj, _ = preset_projector(preset, order)
        N, members = proj.order2, proj.level.members
        waves, h_eff = proj.wave_operator2()
        fs = [proj.as_s0(w, a.degree, N) for a, w in zip(members, waves)]
        for b, fb in enumerate(fs):
            q_omega = proj.family.apply_series(fb, out_trunc2=N)
            omega_h = fs[0].scale_series(h_eff[0][b])
            for a in range(1, len(fs)):
                omega_h = omega_h + fs[a].scale_series(h_eff[a][b])
            assert (q_omega - fb.scale(proj.level.E0)).max_abs_coeff(N) > 0
            assert (q_omega - omega_h).max_abs_coeff(N) == 0

    @pytest.mark.parametrize("preset,order", CASES)
    def test_intermediate_normalization(self, preset, order):
        proj, _ = preset_projector(preset, order)
        members = {proj.basis.key(a) for a in proj.level.members}
        waves, h_eff = proj.wave_operator2()
        assert [w[0] for w in waves] == [vec({proj.basis.key(a): 1})
                                          for a in proj.level.members]
        for w in waves:
            assert max(w) > 0
            assert all(not members & vec_s.num.keys() for s, vec_s in w.items() if s > 0)
        for a, row in enumerate(h_eff):
            for b, e in enumerate(row):
                assert e.trunc2 == proj.order2
                assert e.at2(0) == (proj.level.E0 if a == b else 0)

    @pytest.mark.parametrize("preset,order", CASES)
    def test_residue_projector_fixes_the_wave_images(self, preset, order):
        proj, _ = preset_projector(preset, order)
        waves, _ = proj.wave_operator2()
        cache: dict = {}
        for w in waves:
            assert graded_apply(proj, w, cache) == w
