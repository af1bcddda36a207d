import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmf import formal_diagonalization as fd
from qmf.cli_io import preset_problem
from qmf.series_algebra import (
    EXACT,
    FormalScalarSeries,
    HI0,
    HalfInt,
    S0Series,
    float_mode,
    half_range,
)
from qmf.formal_diagonalization import (
    ExactSplitUnavailable,
    SeriesMatrix,
    SplitAmbiguityError,
    _gen_eig_float,
    formal_eigendecomposition,
    gram_matrix,
    interaction_matrix,
)
from qmf.harmonic_oscillator import DegenerateLevel, HermiteIndex
from qmf.quasimode_pipeline import compute_quasimodes, parity_filter

from level_oracle import (
    congruence,
    image_gram_matrix,
    image_interaction_matrix,
    mat_add,
    mat_mul,
    split_and_recurse_full,
)

F = Fraction


def matrix_inverse_sqrt(a: SeriesMatrix, through: HalfInt | None = None) -> SeriesMatrix:
    """B with B A B = 1, for hermitian A = 1 + (positive order).

    The binomial series in X = A - 1 has rational coefficients, so B stays in
    the base field. Rejects a non-identity leading term. B C B is the
    normalized matrix that the pencil route must reproduce.
    """
    mode = a.mode
    m = a.size
    lead = a.coeff_at(HI0)
    for i in range(m):
        for j in range(m):
            want = mode.one() if i == j else mode.zero()
            if not mode.is_zero(lead[i][j] - want):
                raise ValueError("inverse square root needs a leading identity")
    trunc = a.truncation_order()
    if through is not None:
        trunc = through if trunc is None else min(trunc, through)
    if trunc is None:
        raise ValueError("need a truncation order for the matrix binomial series")
    x = a - SeriesMatrix.identity(mode, m, trunc)
    min_ord = None
    for row in x.entries:
        for e in row:
            o = e.order()
            if o is not None:
                min_ord = o if min_ord is None else min(min_ord, o)
    out = SeriesMatrix.identity(mode, m, trunc)
    if min_ord is None:
        return out
    if min_ord <= HI0:
        raise ValueError("perturbation must have positive order")
    power = SeriesMatrix.identity(mode, m, trunc)
    coeff = Fraction(1)
    kmax = trunc.doubled // min_ord.doubled
    for k in range(1, kmax + 1):
        coeff = coeff * (Fraction(-1, 2) - (k - 1)) / k
        power = mat_mul(power, x)
        out = mat_add(out, power.scale_series(
            FormalScalarSeries.const(mode, mode.coeff(coeff), trunc)))
    return out


def ser(terms, trunc=8, mode=EXACT):
    return FormalScalarSeries.from_terms(
        mode, {HalfInt(d): mode.coeff(F(v)) for d, v in terms.items()},
        None if trunc is None else HalfInt(trunc))


def series_mat(rows, trunc=8, mode=EXACT):
    return SeriesMatrix.from_rows(
        mode, [[ser(e, trunc, mode) if isinstance(e, dict) else
                FormalScalarSeries.const(mode, F(e), HalfInt(trunc)) for e in row]
               for row in rows])


class TestMatrixInverseSqrt:
    def test_identity(self):
        a = SeriesMatrix.identity(EXACT, 2, HalfInt(8))
        b = matrix_inverse_sqrt(a)
        assert b.coeff_at(HI0) == [[1, 0], [0, 1]]
        assert {e for row in b.entries for entry in row for e, _ in entry.items()} == {HI0}

    def test_diagonal_matches_scalar_binomial(self):
        a = series_mat([[{0: 1, 2: 2}, 0], [0, {0: 1}]])
        b = matrix_inverse_sqrt(a)
        # (1 + 2h)^(-1/2) = 1 - h + (3/2) h^2 - (5/2) h^3 ...
        e = b.entry(0, 0)
        assert e.coefficient(HalfInt(2)) == F(-1)
        assert e.coefficient(HalfInt(4)) == F(3, 2)
        assert e.coefficient(HalfInt(6)) == F(-5, 2)
        assert b.entry(1, 1) == ser({0: 1}, None)

    def test_bab_is_identity_random(self):
        rng = random.Random(11)
        for _ in range(6):
            pert = [[{2 * k: rng.randint(-3, 3) for k in range(1, 4)} for _ in range(2)]
                    for _ in range(2)]
            # make hermitian
            rows = [[dict(pert[i][j]) for j in range(2)] for i in range(2)]
            for k in range(1, 4):
                sym = F(rows[0][1].get(2 * k, 0) + rows[1][0].get(2 * k, 0), 2)
                rows[0][1][2 * k] = sym
                rows[1][0][2 * k] = sym
            a = series_mat([[{0: 1, **{k: v for k, v in rows[0][0].items() if k > 0}},
                             {k: v for k, v in rows[0][1].items()}],
                            [{k: v for k, v in rows[1][0].items()},
                             {0: 1, **{k: v for k, v in rows[1][1].items() if k > 0}}]])
            b = matrix_inverse_sqrt(a)
            prod = mat_mul(mat_mul(b, a), b)
            ident = SeriesMatrix.identity(EXACT, 2, HalfInt(8))
            assert (prod - ident).max_abs_coeff(HalfInt(8)) == 0

    def test_rejects_non_identity_leading(self):
        a = series_mat([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            matrix_inverse_sqrt(a)


class TestEigendecomposition:
    def test_scalar_multiple_of_identity(self):
        m = series_mat([[{0: 3}, 0], [0, {0: 3}]])
        res = formal_eigendecomposition(m)
        assert [e.coefficient(HI0) for e in res.eigenvalues] == [3, 3]
        lead = [[col[i].coefficient(HI0) for col in res.vectors] for i in range(2)]
        assert lead == [[1, 0], [0, 1]]

    def test_offdiagonal_split(self):
        # E0*1 + h*[[0,1],[1,0]] -> E0 +/- h with vectors (1, -1), (1, 1)
        m = series_mat([[{0: 5}, {2: 1}], [{2: 1}, {0: 5}]])
        res = formal_eigendecomposition(m)
        vals = [(e.coefficient(HI0), e.coefficient(HalfInt(2))) for e in res.eigenvalues]
        assert vals == [(5, -1), (5, 1)]
        for e, col in zip(res.eigenvalues, res.vectors):
            # residual M v - E v vanishes through the order
            for i in range(2):
                resid = (m.entry(i, 0) * col[0] + m.entry(i, 1) * col[1]) - e * col[i]
                assert resid.max_abs_coeff(HalfInt(8)) == 0

    def test_two_stage_recursion(self):
        # scalar at order 1 then a rational split at order 2
        m = series_mat([[{0: 2, 2: 1, 4: 3}, {4: 1}], [{4: 1}, {0: 2, 2: 1, 4: 3}]])
        res = formal_eigendecomposition(m, through=HalfInt(6))
        vals = [e.coefficient(HalfInt(4)) for e in res.eigenvalues]
        assert sorted(vals) == [2, 4]
        for e, col in zip(res.eigenvalues, res.vectors):
            for i in range(2):
                resid = (m.entry(i, 0) * col[0] + m.entry(i, 1) * col[1]) - e * col[i]
                assert resid.max_abs_coeff(HalfInt(6)) == 0

    def test_exact_mode_irrational_split_raises(self):
        m = series_mat([[{0: 1, 2: 0}, {2: 1}], [{2: 1}, {0: 1, 2: 1}]])
        with pytest.raises(ExactSplitUnavailable):
            formal_eigendecomposition(m)

    def test_float_mode_irrational_split(self):
        fm = float_mode()
        m = series_mat([[{0: 1, 2: 0}, {2: 1}], [{2: 1}, {0: 1, 2: 1}]], mode=fm)
        res = formal_eigendecomposition(m)
        import math

        vals = sorted(v.coefficient(HalfInt(2)).real for v in res.eigenvalues)
        golden = [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2]
        assert vals == pytest.approx(golden, abs=1e-12)
        # orthonormal columns
        for i, ci in enumerate(res.vectors):
            for j, cj in enumerate(res.vectors):
                ip = sum((a.conj() * b for a, b in zip(ci, cj)),
                         FormalScalarSeries.zero(fm))
                want = 1.0 if i == j else 0.0
                assert abs(ip.coefficient(HI0) - want) < 1e-12
                assert ip.max_abs_coeff(HalfInt(8)) == pytest.approx(want, abs=1e-9)

    def test_pencil_route_matches_normalized_route(self):
        # gram D with perfect-square leading diagonal: the pencil (C, D) must
        # give the same eigenvalues as M = D0^(-1/2)-scaled inverse-sqrt route;
        # data built so the order-1 split has rational gap (nu in {1, 3})
        d = series_mat([[{0: 4, 2: 1}, {2: 2}], [{2: 2}, {0: 1, 4: 1}]])
        c = series_mat([[{0: 12, 2: 11, 4: 1}, {2: 8, 4: 1}],
                        [{2: 8, 4: 1}, {0: 3, 2: 2, 4: 2}]])
        pencil = formal_eigendecomposition(c, gram=d, through=HalfInt(6))
        # normalized route: scale by D0^(-1/2) = diag(1/2, 1) exactly
        s = [[F(1, 2), 0], [0, F(1)]]
        cs = SeriesMatrix.from_rows(EXACT, [
            [c.entry(i, j).scale(s[i][i] * s[j][j]) for j in range(2)] for i in range(2)])
        ds = SeriesMatrix.from_rows(EXACT, [
            [d.entry(i, j).scale(s[i][i] * s[j][j]) for j in range(2)] for i in range(2)])
        b = matrix_inverse_sqrt(ds, HalfInt(6))
        m = mat_mul(mat_mul(b, cs), b)
        plain = formal_eigendecomposition(m, through=HalfInt(6))
        for e1, e2 in zip(pencil.eigenvalues, plain.eigenvalues):
            assert e1.equals_through(e2, HalfInt(6))

    def test_pencil_residual_and_gram_orthogonality(self):
        d = series_mat([[{0: 4, 2: 1}, {2: 2}], [{2: 2}, {0: 1, 4: 1}]])
        c = series_mat([[{0: 12, 2: 11, 4: 1}, {2: 8, 4: 1}],
                        [{2: 8, 4: 1}, {0: 3, 2: 2, 4: 2}]])
        res = formal_eigendecomposition(c, gram=d, through=HalfInt(6))
        for e, col in zip(res.eigenvalues, res.vectors):
            for i in range(2):
                lhs = sum((c.entry(i, j) * col[j] for j in range(2)),
                          FormalScalarSeries.zero(EXACT))
                rhs = sum((d.entry(i, j) * col[j] for j in range(2)),
                          FormalScalarSeries.zero(EXACT)) * e
                assert (lhs - rhs).max_abs_coeff(HalfInt(6)) == 0
        # cross gram-orthogonality
        c0, c1 = res.vectors
        ip = FormalScalarSeries.zero(EXACT)
        for i in range(2):
            for j in range(2):
                ip = ip + c0[i].conj() * d.entry(i, j) * c1[j]
        assert ip.max_abs_coeff(HalfInt(6)) == 0

    def test_eigenvalues_real(self):
        m = series_mat([[{0: 5}, {2: 1}], [{2: 1}, {0: 5}]])
        res = formal_eigendecomposition(m)
        assert all(e.is_real() for e in res.eigenvalues)


def recorded_root_factors(monkeypatch, preset: str, order: int) -> list:
    """Every polynomial ``_rational_root`` is given while a preset's level splits."""
    seen = []
    real = fd._rational_root

    def recording(f):
        seen.append(list(f))
        return real(f)

    monkeypatch.setattr(fd, "_rational_root", recording)
    spec = preset_problem(preset, order=HalfInt(2 * order))
    compute_quasimodes(spec.problem, spec.order, e0=spec.level_value, level_index=spec.level_index)
    monkeypatch.undo()
    return seen


class TestClosedFormRoots:
    """Linear and quadratic factors are solved in closed form, higher ones by bisection."""

    @pytest.mark.parametrize("preset", ["iso2d", "rank2"])
    def test_same_roots_as_bisection(self, preset, monkeypatch):
        factors = recorded_root_factors(monkeypatch, preset, 4)
        assert {len(f) for f in factors} == {2, 3}
        for f in factors:
            got = fd._rational_roots(f)
            monkeypatch.setattr(fd, "_rational_root", fd._sturm_root)
            want = fd._rational_roots(f)
            monkeypatch.undo()
            assert got and sorted(got) == sorted(want)

    @pytest.mark.parametrize("coeffs, roots", [
        ([F(1, 2), F(1)], [F(-1, 2)]),
        ([F(175, 12), F(25, 3), F(1)], [F(-35, 6), F(-5, 2)]),
        ([F(9, 4), F(-3), F(1)], [F(3, 2), F(3, 2)]),
        ([F(-1), F(-1), F(1)], []),        # discriminant 5
        ([F(-1, 3), F(0), F(1)], []),      # discriminant 4/3: only the numerator is a square
        ([F(1), F(0), F(1)], []),          # no real root
        ([F(1), F(1, 2), F(-5, 2), F(1)], [F(-1, 2), F(1), F(2)]),
        ([F(-2), F(0), F(0), F(1)], []),
    ])
    def test_small_factors(self, coeffs, roots):
        assert sorted(fd._rational_roots(coeffs)) == roots

    def test_irrational_quadratic_split_raises(self):
        # the order-1 block [[3/2, 3/4], [3/4, 0]] has discriminant 9/2
        m = series_mat([[{0: 1, 2: F(3, 2)}, {2: F(3, 4)}], [{2: F(3, 4)}, {0: 1}]])
        with pytest.raises(ExactSplitUnavailable):
            formal_eigendecomposition(m)


@functools.lru_cache(maxsize=None)
def level_stage(preset: str, order: int, mode_name: str = "exact"):
    """(bare members, images, family, weight, order) of a preset's level."""
    spec = preset_problem(preset, mode_name=mode_name, order=HalfInt(2 * order))
    ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                             level_index=spec.level_index).context
    es = [S0Series.from_fiber_poly(ctx.basis.fiber(a)) for a in ctx.level.members]
    fs = [ctx.projector.image_s0(a) for a in ctx.level.members]
    return es, fs, ctx.family, ctx.omega, spec.order


def kato_bloch_and_image_pairs(preset, order, mode_name="exact"):
    """[(Kato-Bloch matrix, image-against-image matrix)] for A and C."""
    es, fs, family, omega, n = level_stage(preset, order, mode_name)
    return n, [(gram_matrix(es, fs, omega, n), image_gram_matrix(fs, omega, n)),
               (interaction_matrix(es, fs, family, omega, n),
                image_interaction_matrix(fs, family, omega, n))]


class TestKatoBlochLevelMatrices:
    """(e_a, P e_b) and (e_a, Q P e_b) against (P e_a, P e_b) and (P e_a, Q P e_b)."""

    @pytest.mark.parametrize("preset", ["iso2d", "rank2"])
    def test_exact_equality_through_the_order(self, preset):
        n, pairs = kato_bloch_and_image_pairs(preset, 4)
        for got, want in pairs:
            assert want.max_abs_coeff(n) > 0
            for i in range(got.size):
                for j in range(got.size):
                    assert got.entry(i, j).truncation_order == want.entry(i, j).truncation_order
                    assert got.entry(i, j) == want.entry(i, j)

    def test_float_relative_agreement(self):
        # relative to the largest coefficient of the image form at each order
        n, pairs = kato_bloch_and_image_pairs("iso2d", 5, "float")
        for got, want in pairs:
            size = range(got.size)
            for t in half_range(HI0, n):
                scale = max(abs(want.entry(i, j).coefficient(t)) for i in size for j in size)
                worst = max(abs(got.entry(i, j).coefficient(t) - want.entry(i, j).coefficient(t))
                            for i in size for j in size)
                assert worst <= 1e-12 * scale


def spy_decouple(monkeypatch) -> list:
    """Record (arguments, result) of every ``_decouple`` call."""
    calls = []
    real = fd._decouple

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(fd, "_decouple", recording)
    return calls


def assert_decoupled(args, out):
    """V^H A V and V^H P V are block diagonal through the order, and the kept
    A V and P V are the full products there."""
    a_rot, p_rot, _, _, ranges, order, mode = args
    v_terms, av, pv = out
    m = len(a_rot)
    v = SeriesMatrix.identity(mode, m, order)
    for r, vr in v_terms:
        v = mat_add(v, SeriesMatrix.constant(mode, vr, order).scale_series(
            FormalScalarSeries.hbar_power(mode, r, 1, order)))
    block = {i: b for b, rng in enumerate(ranges) for i in rng}
    for x_rot, xv in ((a_rot, av), (p_rot, pv)):
        x = SeriesMatrix.from_rows(mode, x_rot)
        full = mat_mul(x, v)
        congruent = congruence(v, x)
        for i in range(m):
            for j in range(m):
                assert full.entry(i, j).equals_through(xv[i][j], order)
                if block[i] != block[j]:
                    assert congruent.entry(i, j).max_abs_coeff(order) == 0


def assert_same_decomposition(got, want):
    assert got.order == want.order and got.norms2 == want.norms2
    for e1, e2 in zip(got.eigenvalues, want.eigenvalues, strict=True):
        assert e1 == e2 and e1.truncation_order == e2.truncation_order
    for c1, c2 in zip(got.vectors, want.vectors, strict=True):
        for x, y in zip(c1, c2, strict=True):
            assert x == y and x.truncation_order == y.truncation_order


def truncated_split_pencil():
    """An exact 3x3 pencil (C, A) truncated at h^(3/2) whose split comes at
    order 1, into blocks of sizes 1 and 2.

    C = 2 A + h R + h^(3/2) C3, with R = diag(0, 1, 1) at A0 = 1. The
    congruence runs through s = 3/2, but reads P at t + s up to 5/2, past
    the operands' truncation order. A1's off-diagonal blocks make V_(1/2)
    nonzero, so that sum_r V_r^H (P V)_(t+s-r) reads known coefficients
    there.
    """
    a1 = [[0, 1, -2], [1, 0, 1], [-2, 1, 0]]
    a2 = [[1, F(1, 2), 1], [F(1, 2), 2, 0], [1, 0, -1]]
    a3 = [[0, 3, 1], [3, 1, F(-1, 3)], [1, F(-1, 3), 2]]
    c3 = [[1, -1, 2], [-1, 0, 1], [2, 1, 3]]
    r = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
    trunc = 3
    a = series_mat([[{0: int(i == j), 1: a1[i][j], 2: a2[i][j], 3: a3[i][j]}
                     for j in range(3)] for i in range(3)], trunc)
    c = series_mat([[{0: 2 * int(i == j), 1: 2 * a1[i][j], 2: 2 * a2[i][j] + r[i][j],
                      3: 2 * a3[i][j] + c3[i][j]} for j in range(3)] for i in range(3)], trunc)
    return c, a


class TestSeriesCongruence:
    """The congruence built one coefficient per step against the full
    recomputation of V^H A V and V^H P V at every step."""

    @pytest.mark.parametrize("preset", ["iso2d", "rank2"])
    def test_level_pencil(self, preset, monkeypatch):
        es, fs, family, omega, n = level_stage(preset, 4)
        a = gram_matrix(es, fs, omega, n)
        c = interaction_matrix(es, fs, family, omega, n)
        calls = spy_decouple(monkeypatch)
        got = formal_eigendecomposition(c, gram=a, through=n)
        assert calls
        for args, out in calls:
            assert_decoupled(args, out)
        monkeypatch.setattr(fd, "_split_and_recurse", split_and_recurse_full)
        assert_same_decomposition(got, formal_eigendecomposition(c, gram=a, through=n))

    def test_rank2_congruence_is_not_trivial(self, monkeypatch):
        # iso2d's split is block diagonal already; rank2's needs V_s at every s
        es, fs, family, omega, n = level_stage("rank2", 4)
        calls = spy_decouple(monkeypatch)
        formal_eigendecomposition(interaction_matrix(es, fs, family, omega, n),
                                  gram=gram_matrix(es, fs, omega, n), through=n)
        (args, (v_terms, _, _)), = calls
        assert args[2] == HalfInt(1)
        assert [r for r, _ in v_terms] == list(half_range(HalfInt(1), n))

    def test_operands_truncated_below_t_plus_s(self, monkeypatch):
        c, a = truncated_split_pencil()
        calls = spy_decouple(monkeypatch)
        got = formal_eigendecomposition(c, gram=a, through=HalfInt(6))
        for args, out in calls:
            assert_decoupled(args, out)
        # the first split; its size-2 block splits again
        args, out = calls[0]
        assert args[2] == HalfInt(2) and args[5] == HalfInt(3)
        assert [r for r, _ in out[0]][:1] == [HalfInt(1)]
        assert sorted(e.coefficient(HalfInt(2)) for e in got.eigenvalues) == [0, 1, 1]
        for e, col in zip(got.eigenvalues, got.vectors):
            for i in range(3):
                lhs = sum((c.entry(i, j) * col[j] for j in range(3)),
                          FormalScalarSeries.zero(EXACT))
                rhs = sum((a.entry(i, j) * col[j] for j in range(3)),
                          FormalScalarSeries.zero(EXACT)) * e
                assert (lhs - rhs).max_abs_coeff(HalfInt(3)) == 0
        monkeypatch.setattr(fd, "_split_and_recurse", split_and_recurse_full)
        assert_same_decomposition(got, formal_eigendecomposition(c, gram=a, through=HalfInt(6)))


@st.composite
def float_pencils(draw):
    """A hermitian r and a hermitian positive-definite a0 of size <= 4.

    With a0 = B^H B and r = B^H D B for an invertible B, the pencil's
    eigenvalues are the diagonal of D. Its steps include 0 (a repeated
    eigenvalue), gaps well inside and outside the clustering tolerance, and
    gaps inside the ambiguity band for some scales.
    """
    m = draw(st.integers(1, 4))
    steps = st.sampled_from([0.0, 2.7e-12, 3.1e-8, 1.7e-6, 0.5, 1.3, 3.0])
    d = np.cumsum([float(draw(st.integers(-3, 3)))] + draw(st.lists(steps, min_size=m - 1,
                                                                       max_size=m - 1)))
    entries = st.integers(-2, 2)
    b = np.zeros((m, m), dtype=complex)
    for i in range(m):
        b[i, i] = draw(st.integers(1, 3))
        for j in range(i):
            b[i, j] = complex(draw(entries), draw(entries))
    r = b.conj().T @ np.diag(d) @ b
    return (r + r.conj().T) / 2, b.conj().T @ b


def scipy_clusters(r, a0, scale, mode):
    """(size, mean) of each cluster of ``_gen_eig_float``'s rules applied to
    ``scipy.linalg.eigh(r, a0)``, or None where those rules find a split ambiguous."""
    from scipy.linalg import eigh

    vals = eigh(r, a0, eigvals_only=True)
    scale = max(scale / float(np.min(np.linalg.eigvalsh(a0))), float(np.max(np.abs(vals))))
    clusters = []
    for i, v in enumerate(vals):
        if clusters and mode.negligible(v - vals[clusters[-1][0]], scale):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for a, b in zip(clusters, clusters[1:]):
        if mode.negligible(abs(vals[b[0]] - vals[a[-1]]), 100 * scale):
            return None
    return [(len(cl), float(np.mean(vals[cl]))) for cl in clusters]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(float_pencils())
def test_float_pencil_matches_scipy(pencil):
    r, a0 = pencil
    mode = float_mode()
    scale = float(np.max(np.abs(r)))
    want = scipy_clusters(r, a0, scale, mode)
    if want is None:
        with pytest.raises(SplitAmbiguityError):
            _gen_eig_float(r.tolist(), a0.tolist(), scale, HalfInt(1), mode)
        return
    blocks = _gen_eig_float(r.tolist(), a0.tolist(), scale, HalfInt(1), mode)
    assert [len(cols) for _, cols in blocks] == [size for size, _ in want]
    top = max(abs(mean) for _, mean in want)
    for (nu, _), (_, mean) in zip(blocks, want):
        assert abs(nu - mean) <= 1e-13 * top
    v = np.array([col for _, cols in blocks for col in cols]).T
    assert np.max(np.abs(v.conj().T @ a0 @ v - np.eye(len(r)))) <= 1e-13


class TestParityFilter:
    def level(self, parity):
        if parity == "mixed":
            members = (HermiteIndex((0,), 1), HermiteIndex((1,), 0))
        elif parity == "even":
            members = (HermiteIndex((0,), 0),)
        else:
            members = (HermiteIndex((1,), 0),)
        K = HalfInt(max(m.degree for m in members))
        return DegenerateLevel(E0=F(1), members=members, m0=len(members), K=K, parity=parity)

    def test_uniform_parity_passes_on_integer_series(self):
        rep = parity_filter([ser({0: 1, 2: 3})], self.level("even"))
        assert rep.name == "parity" and rep.passed and rep.max_residual == 0.0

    def test_uniform_parity_violation_raises(self):
        with pytest.raises(AssertionError):
            parity_filter([ser({0: 1, 1: 1})], self.level("odd"))

    def test_mixed_exempt(self):
        rep = parity_filter([ser({0: 1, 1: 5})], self.level("mixed"))
        assert rep.passed and rep.detail == "mixed parity: exempt"
