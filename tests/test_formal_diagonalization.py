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
    S0Series,
    doubled_order,
    float_mode,
)
from qmf.formal_diagonalization import (
    ExactSplitUnavailable,
    SplitAmbiguityError,
    _gen_eig_float,
    formal_eigendecomposition,
    gram_matrix,
    interaction_matrix,
)
from qmf.harmonic_oscillator import DegenerateLevel, HermiteIndex
from qmf.quasimode_pipeline import compute_quasimodes, parity_filter

from level_oracle import (
    coeff_at,
    congruence,
    constant,
    identity,
    image_interaction_matrix,
    kato_bloch_gram_matrix,
    kato_bloch_interaction_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    max_abs_coeff,
    split_and_recurse_full,
)

F = Fraction


def matrix_inverse_sqrt(a: list, through: int | None = None) -> list:
    """B with B A B = 1, for hermitian A = 1 + (positive order).

    The binomial series in X = A - 1 has rational coefficients, so B stays in
    the base field. Rejects a non-identity leading term. B C B is the
    normalized matrix that the pencil route must reproduce.
    """
    mode = a[0][0].mode
    m = len(a)
    lead = coeff_at(a, 0)
    for i in range(m):
        for j in range(m):
            want = mode.one() if i == j else mode.zero()
            if not mode.is_zero(lead[i][j] - want):
                raise ValueError("inverse square root needs a leading identity")
    trunc = min((e.trunc2 for row in a for e in row if e.trunc2 is not None), default=None)
    if through is not None:
        trunc = through if trunc is None else min(trunc, through)
    if trunc is None:
        raise ValueError("need a truncation order for the matrix binomial series")
    x = mat_sub(a, identity(mode, m, trunc))
    min_ord = None
    for row in x:
        for e in row:
            o = e.order2()
            if o is not None:
                min_ord = o if min_ord is None else min(min_ord, o)
    out = identity(mode, m, trunc)
    if min_ord is None:
        return out
    if min_ord <= 0:
        raise ValueError("perturbation must have positive order")
    power = identity(mode, m, trunc)
    coeff = Fraction(1)
    kmax = trunc // min_ord
    for k in range(1, kmax + 1):
        coeff = coeff * (Fraction(-1, 2) - (k - 1)) / k
        power = mat_mul(power, x)
        out = mat_add(out, mat_scale(
            power, FormalScalarSeries.const(mode, mode.coeff(coeff), trunc)))
    return out


def ser(terms, trunc=8, mode=EXACT):
    return FormalScalarSeries.from_terms2(
        mode, {d: mode.coeff(F(v)) for d, v in terms.items()}, trunc)


def series_mat(rows, trunc=8, mode=EXACT):
    return [[ser(e, trunc, mode) if isinstance(e, dict) else
             FormalScalarSeries.const(mode, F(e), trunc) for e in row]
            for row in rows]


def plain_eigendecomposition(m, through=8):
    """Eigenvalues and vectors of M itself: the pencil with the identity Gram."""
    return formal_eigendecomposition(m, identity(m[0][0].mode, len(m), through), through)


class TestMatrixInverseSqrt:
    def test_identity(self):
        a = identity(EXACT, 2, 8)
        b = matrix_inverse_sqrt(a)
        assert coeff_at(b, 0) == [[1, 0], [0, 1]]
        assert {e for row in b for entry in row for e, _ in entry.items2()} == {0}

    def test_diagonal_matches_scalar_binomial(self):
        a = series_mat([[{0: 1, 2: 2}, 0], [0, {0: 1}]])
        b = matrix_inverse_sqrt(a)
        # (1 + 2h)^(-1/2) = 1 - h + (3/2) h^2 - (5/2) h^3 ...
        e = b[0][0]
        assert e.at2(2) == F(-1)
        assert e.at2(4) == F(3, 2)
        assert e.at2(6) == F(-5, 2)
        assert b[1][1] == ser({0: 1}, None)

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
            ident = identity(EXACT, 2, 8)
            assert max_abs_coeff(mat_sub(prod, ident), 8) == 0

    def test_rejects_non_identity_leading(self):
        a = series_mat([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            matrix_inverse_sqrt(a)


class TestEigendecomposition:
    def test_scalar_multiple_of_identity(self):
        m = series_mat([[{0: 3}, 0], [0, {0: 3}]])
        res = plain_eigendecomposition(m)
        assert [e.at2(0) for e in res.eigenvalues] == [3, 3]
        lead = [[col[i].at2(0) for col in res.vectors] for i in range(2)]
        assert lead == [[1, 0], [0, 1]]

    def test_offdiagonal_split(self):
        # E0*1 + h*[[0,1],[1,0]] -> E0 +/- h with vectors (1, -1), (1, 1)
        m = series_mat([[{0: 5}, {2: 1}], [{2: 1}, {0: 5}]])
        res = plain_eigendecomposition(m)
        vals = [(e.at2(0), e.at2(2)) for e in res.eigenvalues]
        assert vals == [(5, -1), (5, 1)]
        for e, col in zip(res.eigenvalues, res.vectors):
            # residual M v - E v vanishes through the order
            for i in range(2):
                resid = (m[i][0] * col[0] + m[i][1] * col[1]) - e * col[i]
                assert resid.max_abs_coeff(8) == 0

    def test_two_stage_recursion(self):
        # scalar at order 1 then a rational split at order 2
        m = series_mat([[{0: 2, 2: 1, 4: 3}, {4: 1}], [{4: 1}, {0: 2, 2: 1, 4: 3}]])
        res = plain_eigendecomposition(m, through=6)
        vals = [e.at2(4) for e in res.eigenvalues]
        assert sorted(vals) == [2, 4]
        for e, col in zip(res.eigenvalues, res.vectors):
            for i in range(2):
                resid = (m[i][0] * col[0] + m[i][1] * col[1]) - e * col[i]
                assert resid.max_abs_coeff(6) == 0

    def test_exact_mode_irrational_split_raises(self):
        m = series_mat([[{0: 1, 2: 0}, {2: 1}], [{2: 1}, {0: 1, 2: 1}]])
        with pytest.raises(ExactSplitUnavailable):
            plain_eigendecomposition(m)

    def test_float_mode_irrational_split(self):
        fm = float_mode()
        m = series_mat([[{0: 1, 2: 0}, {2: 1}], [{2: 1}, {0: 1, 2: 1}]], mode=fm)
        res = plain_eigendecomposition(m)
        import math

        vals = sorted(v.at2(2).real for v in res.eigenvalues)
        golden = [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2]
        assert vals == pytest.approx(golden, abs=1e-12)
        # orthonormal columns
        for i, ci in enumerate(res.vectors):
            for j, cj in enumerate(res.vectors):
                ip = sum((a.conj() * b for a, b in zip(ci, cj)),
                         FormalScalarSeries.zero(fm))
                want = 1.0 if i == j else 0.0
                assert abs(ip.at2(0) - want) < 1e-12
                assert ip.max_abs_coeff(8) == pytest.approx(want, abs=1e-9)

    def test_pencil_route_matches_normalized_route(self):
        # gram D with perfect-square leading diagonal: the pencil (C, D) must
        # give the same eigenvalues as M = D0^(-1/2)-scaled inverse-sqrt route;
        # data built so the order-1 split has rational gap (nu in {1, 3})
        d = series_mat([[{0: 4, 2: 1}, {2: 2}], [{2: 2}, {0: 1, 4: 1}]])
        c = series_mat([[{0: 12, 2: 11, 4: 1}, {2: 8, 4: 1}],
                        [{2: 8, 4: 1}, {0: 3, 2: 2, 4: 2}]])
        pencil = formal_eigendecomposition(c, gram=d, through2=6)
        # normalized route: scale by D0^(-1/2) = diag(1/2, 1) exactly
        s = [[F(1, 2), 0], [0, F(1)]]
        cs = [[c[i][j].scale(s[i][i] * s[j][j]) for j in range(2)] for i in range(2)]
        ds = [[d[i][j].scale(s[i][i] * s[j][j]) for j in range(2)] for i in range(2)]
        b = matrix_inverse_sqrt(ds, 6)
        m = mat_mul(mat_mul(b, cs), b)
        plain = plain_eigendecomposition(m, through=6)
        for e1, e2 in zip(pencil.eigenvalues, plain.eigenvalues):
            assert e1.equals_through(e2, 6)

    def test_pencil_residual_and_gram_orthogonality(self):
        d = series_mat([[{0: 4, 2: 1}, {2: 2}], [{2: 2}, {0: 1, 4: 1}]])
        c = series_mat([[{0: 12, 2: 11, 4: 1}, {2: 8, 4: 1}],
                        [{2: 8, 4: 1}, {0: 3, 2: 2, 4: 2}]])
        res = formal_eigendecomposition(c, gram=d, through2=6)
        for e, col in zip(res.eigenvalues, res.vectors):
            for i in range(2):
                lhs = sum((c[i][j] * col[j] for j in range(2)),
                          FormalScalarSeries.zero(EXACT))
                rhs = sum((d[i][j] * col[j] for j in range(2)),
                          FormalScalarSeries.zero(EXACT)) * e
                assert (lhs - rhs).max_abs_coeff(6) == 0
        # cross gram-orthogonality
        c0, c1 = res.vectors
        ip = FormalScalarSeries.zero(EXACT)
        for i in range(2):
            for j in range(2):
                ip = ip + c0[i].conj() * d[i][j] * c1[j]
        assert ip.max_abs_coeff(6) == 0

    def test_eigenvalues_real(self):
        m = series_mat([[{0: 5}, {2: 1}], [{2: 1}, {0: 5}]])
        res = plain_eigendecomposition(m)
        assert all(e.is_real() for e in res.eigenvalues)

    @pytest.mark.parametrize("mode, lead", [
        (EXACT, [[1, F(1, 10**30)], [F(1, 10**30), 2]]),
        (float_mode(), [[1, F(1, 10**6)], [F(1, 10**6), 2]]),
        (EXACT, [[1, 0], [0, 0]]),
        (float_mode(), [[-1, 0], [0, 2]]),
    ], ids=["exact-off-diagonal", "float-off-diagonal", "zero-diagonal", "negative-diagonal"])
    def test_rejects_a_leading_gram_off_the_positive_diagonal(self, mode, lead):
        # the splits read the leading Gram as its diagonal; exact mode allows
        # no off-diagonal entry at all, float mode only a negligible one
        gram = series_mat([[{0: x, 2: 1} for x in row] for row in lead], mode=mode)
        with pytest.raises(ValueError, match="not a positive diagonal"):
            formal_eigendecomposition(gram, gram, 8)

    def test_accepts_a_negligible_float_off_diagonal(self):
        gram = series_mat([[{0: 1}, {0: F(1, 10**12)}], [{0: F(1, 10**12)}, {0: 2}]],
                          mode=float_mode())
        formal_eigendecomposition(gram, gram, 8)


def recorded_root_factors(monkeypatch, preset: str, order: int) -> list:
    """Every polynomial ``_rational_root`` is given while a preset's level splits."""
    seen = []
    real = fd._rational_root

    def recording(f):
        seen.append(list(f))
        return real(f)

    monkeypatch.setattr(fd, "_rational_root", recording)
    spec = preset_problem(preset, order=order)
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
            plain_eigendecomposition(m)


@functools.lru_cache(maxsize=None)
def level_context(preset: str, order: int, mode_name: str = "exact"):
    """The pipeline context of a preset's level, and the order."""
    spec = preset_problem(preset, mode_name=mode_name, order=order)
    ctx = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                             level_index=spec.level_index).context
    return ctx, doubled_order(spec.order)


def wave_level(preset: str, order: int) -> tuple:
    """(context, wave-operator images Omega e_a as series, H_eff, order)."""
    ctx, n = level_context(preset, order)
    waves, h_eff = ctx.projector.wave_operator2()
    fs = [ctx.projector.as_s0(a, w) for a, w in zip(ctx.level.members, waves)]
    return ctx, fs, h_eff, n


def level_pencil(preset: str, order: int) -> tuple:
    """(C, A, order): the program's level pencil, on the wave-operator basis."""
    ctx, fs, h_eff, n = wave_level(preset, order)
    a = gram_matrix(fs, ctx.omega, n)
    return interaction_matrix(a, h_eff), a, n


def residue_and_kato_bloch_pairs(preset, order, mode_name="exact"):
    """[(program's matrix, Kato-Bloch matrix)] for A and C on the residue
    images P e_a: the Gram pairs image against image, C the images against
    the images of Q."""
    ctx, n = level_context(preset, order, mode_name)
    es = [S0Series.from_fiber_poly(ctx.basis.fiber(a)) for a in ctx.level.members]
    fs = [ctx.projector.image_s0(a) for a in ctx.level.members]
    return n, [(gram_matrix(fs, ctx.omega, n), kato_bloch_gram_matrix(es, fs, ctx.omega, n)),
               (image_interaction_matrix(fs, ctx.family, ctx.omega, n),
                kato_bloch_interaction_matrix(es, fs, ctx.family, ctx.omega, n))]


class TestKatoBlochLevelMatrices:
    """(P e_a, P e_b) and (P e_a, Q P e_b) against (e_a, P e_b) and (e_a, Q P e_b)
    on the residue images."""

    @pytest.mark.parametrize("preset", ["iso2d", "rank2"])
    def test_exact_equality_through_the_order(self, preset):
        n, pairs = residue_and_kato_bloch_pairs(preset, 4)
        for got, want in pairs:
            assert max_abs_coeff(want, n) > 0
            for i in range(len(got)):
                for j in range(len(got)):
                    assert got[i][j].trunc2 == want[i][j].trunc2
                    assert got[i][j] == want[i][j]

    def test_float_relative_agreement(self):
        # relative to the largest coefficient of the Kato-Bloch form at each order
        n, pairs = residue_and_kato_bloch_pairs("iso2d", 5, "float")
        for got, want in pairs:
            size = range(len(got))
            for t in range(n + 1):
                scale = max(abs(want[i][j].at2(t)) for i in size for j in size)
                worst = max(abs(got[i][j].at2(t) - want[i][j].at2(t))
                            for i in size for j in size)
                assert worst <= 1e-12 * scale


class TestWaveOperatorLevelMatrices:
    """C = A H_eff against each wave-operator image paired with each image of Q."""

    @pytest.mark.parametrize("preset", ["iso2d", "rank2"])
    def test_series_product_equals_the_pairing(self, preset):
        ctx, fs, _, n = wave_level(preset, 4)
        c, _, _ = level_pencil(preset, 4)
        want = image_interaction_matrix(fs, ctx.family, ctx.omega, n)
        assert max_abs_coeff(want, n) > 0
        for i in range(len(c)):
            for j in range(len(c)):
                assert c[i][j].trunc2 == want[i][j].trunc2
                assert c[i][j] == want[i][j]


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
    v = identity(mode, m, order)
    for r, vr in v_terms:
        v = mat_add(v, mat_scale(constant(mode, vr, order),
                                 FormalScalarSeries.from_terms2(mode, {r: 1}, order)))
    block = {i: b for b, rng in enumerate(ranges) for i in rng}
    for x, xv in ((a_rot, av), (p_rot, pv)):
        full = mat_mul(x, v)
        congruent = congruence(v, x)
        for i in range(m):
            for j in range(m):
                assert full[i][j].equals_through(xv[i][j], order)
                if block[i] != block[j]:
                    assert congruent[i][j].max_abs_coeff(order) == 0


def assert_same_decomposition(got, want):
    assert got.norms2 == want.norms2
    for e1, e2 in zip(got.eigenvalues, want.eigenvalues, strict=True):
        assert e1 == e2 and e1.trunc2 == e2.trunc2
    for c1, c2 in zip(got.vectors, want.vectors, strict=True):
        for x, y in zip(c1, c2, strict=True):
            assert x == y and x.trunc2 == y.trunc2


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

    @pytest.mark.parametrize("preset", ["iso2d", "rank2", "mixed-split"])
    def test_level_pencil(self, preset, monkeypatch):
        # the mixed split rotates A0 = diag(1, 2, 3) to unequal diagonals
        c, a, n = (*mixed_split_pencil(EXACT), 6) if preset == "mixed-split" else \
            level_pencil(preset, 4)
        calls = spy_decouple(monkeypatch)
        got = formal_eigendecomposition(c, gram=a, through2=n)
        assert calls
        for args, out in calls:
            assert_decoupled(args, out)
        monkeypatch.setattr(fd, "_split_and_recurse", split_and_recurse_full)
        assert_same_decomposition(got, formal_eigendecomposition(c, gram=a, through2=n))

    def test_rank2_congruence_is_not_trivial(self, monkeypatch):
        # iso2d's split is block diagonal already; rank2's needs V_s at every s
        c, a, n = level_pencil("rank2", 4)
        calls = spy_decouple(monkeypatch)
        formal_eigendecomposition(c, gram=a, through2=n)
        (args, (v_terms, _, _)), = calls
        assert args[2] == 1
        assert [r for r, _ in v_terms] == list(range(1, n + 1))

    def test_operands_truncated_below_t_plus_s(self, monkeypatch):
        c, a = truncated_split_pencil()
        calls = spy_decouple(monkeypatch)
        got = formal_eigendecomposition(c, gram=a, through2=6)
        for args, out in calls:
            assert_decoupled(args, out)
        # the first split; its size-2 block splits again
        args, out = calls[0]
        assert args[2] == 2 and args[5] == 3
        assert [r for r, _ in out[0]][:1] == [1]
        assert sorted(e.at2(2) for e in got.eigenvalues) == [0, 1, 1]
        for e, col in zip(got.eigenvalues, got.vectors):
            for i in range(3):
                lhs = sum((c[i][j] * col[j] for j in range(3)),
                          FormalScalarSeries.zero(EXACT))
                rhs = sum((a[i][j] * col[j] for j in range(3)),
                          FormalScalarSeries.zero(EXACT)) * e
                assert (lhs - rhs).max_abs_coeff(3) == 0
        monkeypatch.setattr(fd, "_split_and_recurse", split_and_recurse_full)
        assert_same_decomposition(got, formal_eigendecomposition(c, gram=a, through2=6))


def mixed_split_pencil(mode):
    """A 3x3 pencil (C, A) at A0 = diag(1, 2, 3) whose split at order 1 mixes
    the coordinates, and whose size-2 block splits again at order 2.

    C = 2 A + h R + h^2 S. R's generalized eigenvectors (1, 1, 1) and
    (-2, 1, 0) at nu = 1, and (1, 1, -1) at nu = -1, are A0-orthogonal, and
    the eigenspace of 1 holds no coordinate vector. A1 and S couple the
    blocks, so both splits need a congruence at every order.
    """
    d = [1, 2, 3]
    r = [[F(2, 3), F(-2, 3), 1], [F(-2, 3), F(2, 3), 2], [1, 2, 0]]
    a1 = [[2, 0, -2], [0, 0, 2], [-2, 2, 0]]
    s2 = [[-1, -1, 2], [-1, 2, -1], [2, -1, -2]]
    a = series_mat([[{0: d[i] * (i == j), 2: a1[i][j]} for j in range(3)] for i in range(3)],
                   6, mode)
    c = series_mat([[{0: 2 * d[i] * (i == j), 2: 2 * a1[i][j] + r[i][j], 4: s2[i][j]}
                     for j in range(3)] for i in range(3)], 6, mode)
    return c, a


def test_float_split_off_the_coordinates_matches_exact(monkeypatch):
    # the rotated leading Gram of a float block is the identity only up to
    # rounding; the split reads its diagonal, and its eigenvalue and
    # eigenvector series stay within 1e-12 of exact
    exact = formal_eigendecomposition(*mixed_split_pencil(EXACT), 6)
    splits, decouples = [], spy_decouple(monkeypatch)
    real = fd._gen_eig_float

    def recording(*args):
        splits.append(real(*args))
        return splits[-1]

    monkeypatch.setattr(fd, "_gen_eig_float", recording)
    got = formal_eigendecomposition(*mixed_split_pencil(float_mode()), 6)
    first = next(blocks for blocks in splits if len(blocks) > 1)
    assert [len(cols) for _, cols in first] == [1, 2]
    for _, cols in first:
        assert all(sum(abs(x) > 1e-12 for x in col) >= 2 for col in cols)
    assert [[len(rng) for rng in args[4]] for args, _ in decouples] == [[1, 2], [1, 1]]
    assert all([r for r, _ in v_terms] == [2, 4, 6] for _, (v_terms, _, _) in decouples)
    # the float columns are unit-normalized, the exact ones of squared norm n0
    pairs = list(zip(exact.eigenvalues, got.eigenvalues, [1] * 3, strict=True))
    pairs += [(e, f, n0) for col, fcol, n0 in zip(exact.vectors, got.vectors, exact.norms2,
                                                  strict=True)
              for e, f in zip(col, fcol, strict=True)]
    for e, f, n0 in pairs:
        unit = float(n0) ** -0.5
        top = max(abs(float(c)) for _, c in e.items2()) * unit
        for t in range(7):
            want = float(e.at2(t)) * unit
            assert abs(f.at2(t) - want) <= 1e-12 * (abs(want) or top)


@st.composite
def float_pencils(draw):
    """A hermitian r and a positive diagonal a0 of size <= 4, the leading
    Gram of every level pencil.

    With S = a0^(1/2) and U unitary, r = S U diag(D) U^H S has the pencil's
    eigenvalues D, and U mixes the coordinates. Its steps include 0 (a
    repeated eigenvalue), gaps well inside and outside the clustering
    tolerance, and gaps inside the ambiguity band for some scales.
    """
    m = draw(st.integers(1, 4))
    steps = st.sampled_from([0.0, 2.7e-12, 3.1e-8, 1.7e-6, 0.5, 1.3, 3.0])
    d = np.cumsum([float(draw(st.integers(-3, 3)))] + draw(st.lists(steps, min_size=m - 1,
                                                                       max_size=m - 1)))
    a0 = np.diag([draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])) for _ in range(m)]) + 0j
    entries = st.integers(-2, 2)
    b = np.zeros((m, m), dtype=complex)
    for i in range(m):
        b[i, i] = draw(st.integers(1, 3))
        for j in range(i):
            b[i, j] = complex(draw(entries), draw(entries))
    u = np.linalg.qr(b)[0]
    s = np.sqrt(a0)
    r = s @ u @ np.diag(d) @ u.conj().T @ s
    return (r + r.conj().T) / 2, a0


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
    d = np.diag(a0).tolist()
    if want is None:
        with pytest.raises(SplitAmbiguityError):
            _gen_eig_float(r.tolist(), d, scale, 1, mode)
        return
    blocks = _gen_eig_float(r.tolist(), d, scale, 1, mode)
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
        K2 = max(m.degree for m in members)
        return DegenerateLevel(E0=F(1), members=members, m0=len(members), K2=K2, parity=parity)

    def test_uniform_parity_passes_on_integer_series(self):
        rep = parity_filter([ser({0: 1, 2: 3})], self.level("even"))
        assert rep.name == "parity" and rep.passed and rep.max_residual == 0.0

    def test_uniform_parity_violation_raises(self):
        with pytest.raises(AssertionError):
            parity_filter([ser({0: 1, 1: 1})], self.level("odd"))

    def test_mixed_exempt(self):
        rep = parity_filter([ser({0: 1, 1: 5})], self.level("mixed"))
        assert rep.passed and rep.detail == "mixed parity: exempt"
