import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction
import random
from itertools import permutations

import numpy as np
import pytest

from qmf.series_algebra import (
    EXACT, FiberPoly, FormalScalarSeries, Poly, S0Series, float_mode, unrescale)
from qmf.operator_calculus import JetProblem
from qmf.harmonic_oscillator import LevelNotFoundError, build_spectrum, degenerate_level
from qmf.cli_io import parse_problem_spec, preset_problem, run_command
from qmf.quasimode_pipeline import (
    InsufficientOrderError,
    _band_eigenpair,
    _band_inertia,
    _band_solve,
    _hermite_ritz_eigenvalue,
    _real_roots,
    compute_quasimodes,
    crosscheck_eigenvalue_1d,
    eigen_residual,
    orthonormality_report,
    rs_oracle,
    transport_residual,
)

F = Fraction


def poly1(coeffs, mode=EXACT, n=1):
    return Poly(mode, n, {(d,) if n == 1 else tuple(d): mode.coeff(F(v))
                          for d, v in coeffs.items()})


def harmonic(D=10):
    return JetProblem.create(EXACT, 1, 1, D, (1,))


def cubic(c=1, D=10):
    return JetProblem.create(EXACT, 1, 1, D, (1,), V=poly1({2: 1, 3: c}))


def quartic(c=1, D=10):
    return JetProblem.create(EXACT, 1, 1, D, (1,), V=poly1({2: 1, 4: c}))


def witten(c=F(1), D=10):
    dphi = poly1({1: 1}) + poly1({2: 1}).scale(c / 2)
    V = dphi * dphi
    W = ((poly1({0: -1}) + poly1({1: -1}).scale(c),),)
    return JetProblem.create(EXACT, 1, 1, D, (1,), V=V, W=W)


def iso2d(c=F(1), D=10):
    V = Poly(EXACT, 2, {(2, 0): F(1), (0, 2): F(1), (3, 0): c, (1, 2): c})
    return JetProblem.create(EXACT, 2, 1, D, (1, 1), V=V)


# the 3-D well V = |x|^2 + x1^3 + x1 x2 x3 + x2^2 x3 + x3^4, lambda = (1, 1, 1)
WELL_3D = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
           (3, 0, 0): 1, (1, 1, 1): 1, (0, 2, 1): 1, (0, 0, 4): 1}


def well3d(perm=(0, 1, 2)):
    """The 3-D well in coordinates x'_i = x_perm[i], V and lambda relabelled alike."""
    V = Poly(EXACT, 3, {tuple(a[k] for k in perm): F(c) for a, c in WELL_3D.items()})
    return JetProblem.create(EXACT, 3, 1, 8, tuple((1, 1, 1)[k] for k in perm), V=V)


class TestHarmonicExactness:
    def test_eigenvalue_is_exactly_h(self):
        res = compute_quasimodes(harmonic(), 4, e0=1)
        (e,) = res.eigenvalues
        assert list(e.items2()) == [(2, F(1))]

    def test_eigenfunction_is_constant(self):
        res = compute_quasimodes(harmonic(), 4, e0=1)
        (a,) = res.eigenfunctions
        assert a.K2 == 0
        assert list(a.coeffs2) == [0]
        jet = a.at2(0)
        assert jet.degree() == 0

    def test_excited_level(self):
        res = compute_quasimodes(harmonic(), 3, e0=3)
        (e,) = res.eigenvalues
        assert list(e.items2()) == [(2, F(3))]
        assert res.level.K2 == 1


class TestCubicWell:
    def test_ground_energy_anchor(self):
        # ladder-operator second order sum: E = h (1 - (11/16) c^2 h + ...)
        for c in (1, 2):
            res = compute_quasimodes(cubic(c), 2, e0=1)
            (e,) = res.eigenvalues
            inner = e.shift2(-2)
            assert inner.at2(0) == 1
            assert inner.at2(1) == 0  # parity
            assert inner.at2(2) == F(-11, 16) * c * c

    def test_rs_oracle_matches_pipeline(self):
        rep = rs_oracle(compute_quasimodes(cubic(), 2, e0=1))
        assert rep.passed and rep.max_residual == 0.0
        assert rep.detail == ("pipeline eigenvalue equals the left wave operator's: "
                              "M H_eff = conj(H^dagger) M")

    def test_transport_residual_zero(self):
        res = compute_quasimodes(cubic(), 2, e0=1)
        rep = transport_residual(res)
        assert rep.passed and rep.max_residual == 0.0

    def test_transport_reports_the_degree_checked_at_each_order(self):
        # at order 4 the jet of order k is exact through degree 2(4 - k), and
        # so is its transport residual
        spec = preset_problem("cubic1d", order=4)
        rep = transport_residual(compute_quasimodes(spec.problem, 4, e0=1))
        assert rep.data["degrees"] == list(range(8, -1, -1))
        assert rep.detail == "jet residual through degree 8 at order 0, 0 at order 4"

    def test_eigen_residual_zero(self):
        res = compute_quasimodes(cubic(), 2, e0=1)
        rep = eigen_residual(res)
        assert rep.passed and rep.max_residual == 0.0

    def test_orthonormality_constants(self):
        res = compute_quasimodes(cubic(), 2, e0=1)
        rep = orthonormality_report(res)
        assert rep.passed
        assert res.norm2_constants == [F(1)]  # ground member is monic with norm 1

    def test_float_mode_agrees(self):
        fm = float_mode()
        pf = JetProblem.create(fm, 1, 1, 10, (1.0,), V=poly1({2: 1, 3: 1}, fm))
        res_f = compute_quasimodes(pf, 2, e0=1.0)
        res_e = compute_quasimodes(cubic(), 2, e0=1)
        ef = res_f.eigenvalues[0]
        ee = res_e.eigenvalues[0]
        for t in range(2, 7):
            assert abs(ef.at2(t) - float(ee.at2(t))) < 1e-9


class TestQuarticWell:
    def test_ground_energy_anchor(self):
        # E = h (1 + (3/4) c h - (21/16) c^2 h^2 + ...)
        res = compute_quasimodes(quartic(), 2, e0=1)
        inner = res.eigenvalues[0].shift2(-2)
        assert inner.at2(2) == F(3, 4)
        assert inner.at2(4) == F(-21, 16)

    def test_rs_oracle_matches(self):
        rep = rs_oracle(compute_quasimodes(quartic(), 2, e0=1))
        assert rep.passed and rep.max_residual == 0.0

    def test_fd_crosscheck_small(self):
        res = compute_quasimodes(quartic(), 2, e0=1)
        rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1, 0.05], grid=1024)
        assert rep.passed, rep.detail
        assert rep.data["slope"] >= 3.5

    @pytest.mark.parametrize("hbars", [
        [0.1], [0.1, 0.1], [0.1, -0.05], [0.1, 0.0], [0.1, float("nan")], [float("inf"), 0.1]])
    def test_fd_crosscheck_rejects_bad_hbars(self, hbars):
        # one point fits no slope, and h <= 0 has no operator to solve
        res = compute_quasimodes(quartic(), 1, e0=1)
        with pytest.raises(ValueError, match="at least two distinct, finite, positive h values"):
            crosscheck_eigenvalue_1d(res, hbars=hbars, grid=64)

    def test_fd_crosscheck_witten_smallness(self):
        # zero series and a genuine double well: the numeric eigenvalue is
        # exponentially small, i.e. decays faster than any required power
        p = witten(F(1))
        res = compute_quasimodes(p, 2, e0=0)
        rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1], grid=1024)
        assert "identically zero" in rep.detail
        assert rep.passed, rep
        assert rep.data["slope"] > rep.data["required_slope"]

    @pytest.mark.parametrize("lam, w", [(1.0, 0.0), (1.0, 0.5), (1.0, -3.0), (2.0, 1.5)])
    @pytest.mark.parametrize("k", range(4))
    def test_hermite_ritz_is_exact_on_a_rescaled_oscillator(self, lam, w, k):
        # V = lam^2 x^2 with W = w x^2 is -h^2 d^2 + (lam^2 + h w) x^2, with
        # levels h sqrt(lam^2 + h w) (2k + 1); x^2 is exact in the model
        # basis and the squeezed eigenfunctions' coefficients decay
        # geometrically, so 32 functions give the levels to rounding
        hbar = 0.1
        got, _ = _hermite_ritz_eigenvalue([0.0, 0.0, lam * lam + hbar * w], lam, hbar, 32, k)
        want = hbar * math.sqrt(lam * lam + hbar * w) * (2 * k + 1)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("index", range(3))
    def test_mutated_series_fails_the_crosscheck(self, index):
        # the level's series h + 3/4 h^2 - 21/16 h^3 with one coefficient off by 1/2
        res = compute_quasimodes(quartic(), 2, e0=1)
        (e,) = res.eigenvalues
        terms = dict(e.items2())
        assert len(terms) == 3
        terms[sorted(terms)[index]] += F(1, 2)
        mutated = FormalScalarSeries.from_terms2(EXACT, terms, e.trunc2)
        rep = crosscheck_eigenvalue_1d(dataclasses.replace(res, eigenvalues=[mutated]),
                                       hbars=[0.2, 0.1, 0.05])
        assert crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1, 0.05]).passed
        assert not rep.passed, rep.detail
        assert rep.data["sizes"] == [64, 64, 64]

    @pytest.mark.parametrize("grid, sizes", [
        (4096, [64, 64]), (128, [64, 64]), (64, [64, 64]), (33, [33, 33]), (32, [None, None])])
    def test_basis_doubles_up_to_the_cap(self, grid, sizes):
        # 32 and 64 model functions agree at h = 0.2 and 0.025; the cap
        # clips the doubling, and a cap of 32 leaves no second size
        res = compute_quasimodes(quartic(), 2, e0=1)
        rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.025], grid=grid)
        assert rep.data["sizes"] == sizes
        assert rep.data["slope"] >= rep.data["required_slope"]
        assert rep.passed == (None not in sizes)


class TestWittenSupersymmetry:
    @pytest.mark.parametrize("c", [F(1, 2), F(1), F(2)])
    def test_zero_energy_and_constant_mode(self, c):
        res = compute_quasimodes(witten(c), 4, e0=0)
        (e,) = res.eigenvalues
        assert e.is_zero()
        # the quasimode is the exact kernel section: a scalar series times
        # the constant (the series is the orthonormalizing factor)
        (a,) = res.eigenfunctions
        assert a.K2 == 0
        for _, jet in a.items2():
            assert jet.degree() == 0
        rep = transport_residual(res)
        assert rep.passed and rep.max_residual == 0.0

    def test_crosscheck_reaches_the_other_well(self):
        # V = (x + x^2/2)^2 vanishes again at x = -2, where the levels are
        # h (2k + 2): level 1 (E0 = 2) has a tunnelling partner there. At
        # h = 1/30, 32 and 64 model functions do not reach x = -2 and agree
        # on a value above the pair's lower member, which the model basis
        # first holds at 128 functions; the crosscheck must take the latter
        hbar = 1 / 30
        coef = [-hbar, -hbar, 1.0, 1.0, 0.25]
        e32, e64, e128, e1024 = (_hermite_ritz_eigenvalue(coef, 1.0, hbar, size, 1)[0]
                                 for size in (32, 64, 128, 1024))
        assert abs(e32 - e64) <= 1e-9 * e64 and e64 - e1024 > 1e-8
        assert abs(e128 - e1024) <= 1e-12 * e1024
        res = compute_quasimodes(witten(), 2, e0=2)
        rep = crosscheck_eigenvalue_1d(res, hbars=[hbar, hbar / 2])
        series = res.eigenvalues[0].evaluate(hbar, through2=6).real
        assert rep.data["errors"][0] == pytest.approx(abs(e1024 - series), rel=1e-6)
        assert rep.passed, rep.detail


def dense_hermite_matrix(coef, lam, hbar, size):
    """The Hermite-basis matrix of ``_hermite_ritz_eigenvalue``, built densely
    with numpy: the oracle's reference."""
    coef = np.array(coef, dtype=float)
    coef[2] -= lam * lam
    m = size + (len(coef) - 1) // 2 + 1
    off = np.sqrt(np.arange(1, m) * (hbar / (2.0 * lam)))
    x = np.diag(off, 1) + np.diag(off, -1)
    p = np.zeros((m, m))
    for c in coef[::-1]:
        p = x @ p
        p[np.diag_indices(m)] += c
    h = p[:size, :size]
    h[np.diag_indices(size)] += hbar * lam * (2 * np.arange(size) + 1)
    return h


def _random_wells(count=20, seed=39):
    """Confining V = lam^2 x^2 + ... of degree 4, 6 and 8 plus h W, W of degree
    2; every fourth one even."""
    rng = random.Random(seed)
    for i in range(count):
        deg, lam = (4, 6, 8)[i % 3], rng.choice((0.5, 1.0, 2.0))
        hbar = rng.choice((0.2, 0.1, 0.05))
        v = [0.0, 0.0, lam * lam, *(rng.uniform(-1, 1) for _ in range(3, deg)),
             rng.uniform(0.1, 1)]
        coef = [a + hbar * rng.uniform(-1, 1) * (j < 3) for j, a in enumerate(v)]
        if i % 4 == 0:
            coef = [a * (j % 2 == 0) for j, a in enumerate(coef)]
        yield pytest.param(coef, lam, hbar, (32, 64, 128, 256), id=f"random{i}-deg{deg}")


class TestBandRitzSolver:
    @pytest.mark.parametrize("coef, lam, hbar, sizes", [
        pytest.param([0.0, 0.0, 1.0, 0.0, 1.0], 1.0, 0.1, (32, 64, 128, 256), id="quartic"),
        # witten1d's tunnelling pair at levels 1 and 2
        pytest.param([-1 / 30, -1 / 30, 1.0, 1.0, 0.25], 1.0, 1 / 30, (32, 64, 128, 256, 1024),
                     id="witten-pair"),
        pytest.param([0.0, 0.0, 4.0 + 0.1 * 1.5], 2.0, 0.1, (32, 64, 128, 256), id="oscillator"),
        # odd diagonals only up to 1 or to 3 of 6: the factors fill the others
        pytest.param([-0.1, -0.1, 1.0, 0.0, 1.0], 1.0, 0.1, (32, 64, 128, 256), id="linear-W"),
        pytest.param([0.0, 0.3, 1.0, 0.2, 0.0, 0.0, 1.0], 1.0, 0.1, (32, 64, 128, 256),
                     id="sparse-sextic"),
        *_random_wells(),
    ])
    def test_matches_eigvalsh(self, coef, lam, hbar, sizes):
        # cold from H[k][k] (for an even V and k = 1 the hazard of the next
        # test) and warm from the smaller size's pair
        pairs = [None] * 6
        for size in sizes:
            h = dense_hermite_matrix(coef, lam, hbar, size)
            want, tol = np.linalg.eigvalsh(h)[:6], 1e-13 * abs(h).max()
            for k, pair in enumerate(pairs):
                cold = _hermite_ritz_eigenvalue(coef, lam, hbar, size, k)
                warm = _hermite_ritz_eigenvalue(coef, lam, hbar, size, k, pair) if pair else cold
                assert abs(cold[0] - want[k]) <= tol and abs(warm[0] - want[k]) <= tol, (size, k)
                pairs[k] = warm

    def test_shift_on_a_diagonal_entry(self):
        # for an even V the odd rows couple only to each other, so at
        # sigma = H[1][1] the first odd pivot from the top is exactly 0; taken
        # as tiny it keeps the count, but its growth spoils the solve. From the
        # last row up, the solver's order, every pivot stays large
        size = 32
        h = dense_hermite_matrix([0.0, 0.0, 1.0, 0.0, 1.0], 1.0, 0.1, size)
        sigma, tiny = h[1][1], 2.2e-16 * abs(h).max()   # the solver's tiny
        below = int(np.sum(np.linalg.eigvalsh(h) < sigma))
        exact = np.linalg.solve(h - sigma * np.eye(size), np.ones(size))
        solves = []
        for m in (h, h[::-1, ::-1]):
            rows = [[m[i][i + t] if i + t < size else 0.0 for t in range(5)] for i in range(size)]
            neg, factors = _band_inertia(rows, sigma, tiny)
            assert neg == below
            solves.append(np.array(_band_solve(factors, [1.0] * size)))
            assert np.all(np.isfinite(solves[-1]))
        top_down, bottom_up = solves
        assert min(abs(d) for d, _ in factors) > 1e-3
        assert np.allclose(bottom_up[::-1], exact, rtol=1e-12, atol=0)
        assert not np.allclose(top_down, exact, rtol=1e-8, atol=0)
        e, vec = _band_eigenpair(rows, 1, sigma, [float(i == size - 2) for i in range(size)])
        values, vectors = np.linalg.eigh(h)
        assert abs(e - values[1]) <= 1e-13 * abs(h).max()
        assert abs(abs(np.dot(vec[::-1], vectors[:, 1])) - 1) <= 1e-12
        # the same from the Hermite build, which orders the rows the same way
        e, vec = _hermite_ritz_eigenvalue([0.0, 0.0, 1.0, 0.0, 1.0], 1.0, 0.1, size, 1)
        assert abs(abs(np.dot(vec[::-1], vectors[:, 1])) - 1) <= 1e-12

    @pytest.mark.parametrize("k, want", [(0, 1.0), (1, 1.0), (2, 3.0), (3, 3.0)])
    def test_double_eigenvalue(self, k, want):
        # two equal blocks [[2, -1], [-1, 2]] on rows (0, 2) and (1, 3): no
        # count separates a double eigenvalue, so a bracket around it narrower
        # than 4 tol certifies it
        rows = [[2.0, 0.0, -1.0], [2.0, 0.0, -1.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        e, _ = _band_eigenpair(rows, k, 2.5, [1.0, 0.5, -0.3, 0.2])
        assert abs(e - want) <= 1e-12

    def test_warm_start_takes_one_factorization(self, monkeypatch):
        # the smaller basis's Ritz value lies just above this one's, so the
        # first count settles the upper side and the padded vector converges
        import qmf.quasimode_pipeline as pipeline
        counts, factor = [], pipeline._band_inertia
        monkeypatch.setattr(pipeline, "_band_inertia", lambda *a: counts.append(a) or factor(*a))
        coef = [0.0, 0.0, 1.0, 0.0, 1.0]
        pair = _hermite_ritz_eigenvalue(coef, 1.0, 0.1, 32, 0)
        counts.clear()
        _hermite_ritz_eigenvalue(coef, 1.0, 0.1, 64, 0, pair)
        assert len(counts) == 1

    @pytest.mark.parametrize("coef", [
        [2.0, -1.0, -1.0, -1.0, 1.0],   # (x - 1)(x + 2)(x^2 + 1) up to sign
        [-1 / 30 - 0.065, -1 / 30, 1.0, 1.0, 0.25],   # witten1d's level-1 reach
        [-0.2236, 0.0, 1.0, 0.0, 1.0],
        [-0.5, 0.3, 1.2, -0.7, 0.1, 0.2, 0.3],
    ])
    def test_real_roots_match_numpy(self, coef):
        roots = np.polynomial.Polynomial(coef).roots()
        want = sorted(r.real for r in roots if abs(r.imag) <= 1e-6 * abs(r))
        got = sorted(_real_roots(coef))
        assert len(got) == len(want) and np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestDegenerate2D:
    def test_level_structure(self):
        res = compute_quasimodes(iso2d(), 3, e0=4)
        assert res.level.m0 == 2
        assert res.level.K2 == 1
        assert res.level.parity == "odd"

    def test_parity_no_integer_terms_in_eigenfunctions(self):
        res = compute_quasimodes(iso2d(), 3, e0=4)
        for a in res.eigenfunctions:
            for k in a.coeffs2:
                assert (k - a.K2) % 2  # a half-integer absolute exponent

    def test_eigenvalues_real_integer_orders(self):
        res = compute_quasimodes(iso2d(), 3, e0=4)
        for e in res.eigenvalues:
            assert e.is_real()
            for t, _ in e.items2():
                assert t % 2 == 0  # h * (integer series)

    def test_orthonormality(self):
        res = compute_quasimodes(iso2d(), 3, e0=4)
        rep = orthonormality_report(res)
        assert rep.passed
        assert res.norm2_constants == [F(1, 2), F(1, 2)]

    def test_split_happens(self):
        res = compute_quasimodes(iso2d(), 3, e0=4)
        e1, e2 = [e.shift2(-2) for e in res.eigenvalues]
        assert not e1.equals_through(e2, 6)

    def test_residuals(self):
        res = compute_quasimodes(iso2d(), 2, e0=4)
        assert transport_residual(res).max_residual == 0.0
        assert eigen_residual(res).max_residual == 0.0


class TestErrors:
    def test_level_not_in_spectrum(self):
        with pytest.raises(LevelNotFoundError):
            compute_quasimodes(harmonic(), 2, e0=2)

    def test_insufficient_jets(self):
        with pytest.raises(InsufficientOrderError) as ei:
            compute_quasimodes(cubic(D=4), 4, e0=1)
        assert ei.value.required_D >= 8

    def test_rs_oracle_covers_a_degenerate_level(self):
        rep = rs_oracle(compute_quasimodes(iso2d(), 1, e0=4))
        assert rep.passed and rep.max_residual == 0.0
        assert rep.data == {"intertwining": 0.0, "power_sums": 0.0}

    def test_negative_order(self):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            compute_quasimodes(harmonic(), -1, e0=1)

    def test_order_is_an_int_or_a_half_integer_fraction(self):
        assert compute_quasimodes(harmonic(), 3, e0=1).order2 == 6
        assert compute_quasimodes(harmonic(), Fraction(5, 2), e0=1).order2 == 5
        assert compute_quasimodes(harmonic(), Fraction(4, 2), e0=1).order2 == 4
        with pytest.raises(ValueError, match="not a half-integer: 1/3"):
            compute_quasimodes(harmonic(), Fraction(1, 3), e0=1)

    @pytest.mark.parametrize("order", [True, 2.5, "3"], ids=["bool", "float", "str"])
    def test_order_of_another_type(self, order):
        # a bool is an int to Python, but True is not order 1
        with pytest.raises(TypeError, match=f"cannot interpret {order!r} as a half-integer"):
            compute_quasimodes(harmonic(), order, e0=1)
        with pytest.raises(TypeError, match=f"cannot interpret {order!r} as a half-integer"):
            preset_problem("cubic1d", order=order)

    def test_both_level_selectors(self):
        # e0 = 1 is level 0, so neither selector may silently win
        with pytest.raises(ValueError, match="e0 or level_index, not both"):
            compute_quasimodes(harmonic(), 1, e0=1, level_index=0)


class TestLevelSelectionByIndex:
    def test_index_matches_value(self):
        r1 = compute_quasimodes(harmonic(), 2, level_index=1)
        r2 = compute_quasimodes(harmonic(), 2, e0=3)
        assert r1.eigenvalues[0] == r2.eigenvalues[0]

    @pytest.mark.parametrize("mode_name", ["exact", "float"])
    @pytest.mark.parametrize("params", ["lam=1+7,mu=0+5", "lam=3/2+5/7", "lam=1+2"])
    def test_table_degree_holds_the_level(self, params, mode_name):
        # levels 0..8, named by index and by value, get the members that a
        # degree-24 table gives; lam = 1+2 has levels of several degrees
        problem = preset_problem(f"harmonic:n=2,{params}", mode_name).problem
        table = build_spectrum(problem.mode, problem.lam, problem.mu, 24)
        for i, e0 in enumerate(table.distinct_levels()[:9]):
            want = degenerate_level(table, e0).members
            by_index = compute_quasimodes(problem, Fraction(1, 2), level_index=i).level
            by_value = compute_quasimodes(problem, Fraction(1, 2), e0=e0).level
            assert by_index.members == by_value.members == want, i

    @pytest.mark.parametrize("index", [-1, -2])
    def test_negative_index_rejected_before_any_table(self, index, monkeypatch):
        # a negative index names no level, so no table is built for it
        import qmf.quasimode_pipeline as pipeline

        def no_table(*args, **kwargs):
            raise AssertionError("a spectrum table was built")

        monkeypatch.setattr(pipeline, "build_spectrum", no_table)
        with pytest.raises(LevelNotFoundError, match=f"level_index must be nonnegative, got {index}"):
            compute_quasimodes(iso2d(), 1, level_index=index)


@pytest.mark.parametrize("perm", [p for p in permutations(range(3)) if p != (0, 1, 2)])
def test_3d_well_coordinate_permutation(perm):
    """Relabelling the coordinates keeps the eigenvalue series and permutes the
    eigenfunction monomials alike."""
    base = compute_quasimodes(well3d(), 1, e0=3)
    got = compute_quasimodes(well3d(perm), 1, e0=3)
    assert got.eigenvalues == base.eigenvalues
    (u,), (v,) = base.eigenfunctions, got.eigenfunctions
    assert v.coeffs2.keys() == u.coeffs2.keys()
    for k, p in u.coeffs2.items():
        want = {tuple(a[i] for i in perm): c for a, c in p.components[0].terms.items()}
        assert v.at2(k).components[0].terms == want, k


CURVED_WELL = """
[problem]
n = 2
rank = 1
mode = exact
order = 3
[lambda]
1
2
[potential]
3 0 1
1 2 1
[metric_inverse]
1 1 2 0 1/3
1 2 1 1 1/5
2 2 0 2 1/7
"""


@pytest.mark.parametrize("curved", [True, False], ids=["curved", "flat"])
def test_metric_density_formed_once(curved, monkeypatch):
    """det g^ij and its (-1/2) power, the density, are formed once per compute,
    with the second-order operator, and the weight expansion reads that jet."""
    import qmf.operator_calculus as operator_calculus

    spec = parse_problem_spec(CURVED_WELL)
    problem = spec.problem if curved else iso2d()
    calls = {"det": 0, "density": 0}
    poly_det, poly_power_jet = operator_calculus.poly_det, operator_calculus.poly_power_jet

    def counting_det(a, through=None):
        calls["det"] += a is problem.g_inv
        return poly_det(a, through)

    def counting_power(p, expo, through):
        calls["density"] += expo == Fraction(-1, 2)
        return poly_power_jet(p, expo, through)

    monkeypatch.setattr(operator_calculus, "poly_det", counting_det)
    monkeypatch.setattr(operator_calculus, "poly_power_jet", counting_power)
    compute_quasimodes(problem, spec.order)
    assert calls == ({"det": 1, "density": 1} if curved else {"det": 0, "density": 0})


# Float problems whose transport terms are cancelled sums: the 2-D well's
# ground level sits at 0.1 + 0.2 - 0.3, and the rank-2 problem's at
# lambda + mu_1 = 0. FLOAT_2D has no [level] section, so the level is chosen
# on the command line.
FLOAT_2D = """
[problem]
n = 2
rank = 1
mode = float
order = 2
[lambda]
0.1
0.2
[potential]
3 0  1
0 4  1
[endomorphism]
1 1  0 0  -0.3
"""

RANK2_WELL = """
[problem]
n = 1
rank = 2
mode = {mode}
order = 3
[lambda]
1
[potential]
3  1
[endomorphism]
{endomorphism}
[level]
index = 0
"""
# W = [[-1 + x/4, -x/4], [-x/4, 1 + x/4]], diagonal at the minimum
DIAGONAL_W = "1 1 0 -1\n2 2 0 1\n1 1 1 1/4\n2 2 1 1/4\n1 2 1 -1/4"
# W = [[x/2, 1], [1, 0]]: the same problem before W(0) is diagonalized
ROTATED_W = "1 2 0 1\n1 1 1 1/2"


def verify_document(tmp_path, spec_text: str, *args: str) -> tuple:
    """(exit status, result document) of ``verify --checks all`` on a spec."""
    path, out = tmp_path / "problem.spec", tmp_path / "doc.json"
    path.write_text(spec_text)
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["verify", "--spec", str(path), "--checks", "all", *args,
                              "--out", str(out)])
    return status, json.loads(out.read_text()) if status == 0 else None


class TestFloatChecksOnCancelledTerms:
    """Float checks judge a residual against the magnitudes summed into it,
    not against terms that are themselves cancelled to rounding."""

    @pytest.mark.parametrize("spec_text, args", [
        (FLOAT_2D, ("--level-index", "0")),
        (FLOAT_2D, ("--level", "0")),
        (RANK2_WELL.format(mode="float", endomorphism=DIAGONAL_W), ()),
        (RANK2_WELL.format(mode="float", endomorphism=ROTATED_W), ()),
    ], ids=["2d-by-index", "2d-by-value", "rank2", "rank2-rotated"])
    def test_every_check_passes(self, tmp_path, spec_text, args):
        status, doc = verify_document(tmp_path, spec_text, *args)
        assert status == 0
        assert [c["name"] for c in doc["checks"] if c["passed"]] == [
            "transport", "eigen_residual", "orthonormality", "parity", "rs_oracle", "projector"]

    def test_level_by_value_is_the_level_by_index(self, tmp_path):
        by_value = verify_document(tmp_path, FLOAT_2D, "--level", "0")[1]["level"]
        by_index = verify_document(tmp_path, FLOAT_2D, "--level-index", "0")[1]["level"]
        assert by_value["members"] == by_index["members"] == [{"alpha": [0, 0], "k": 1}]

    def test_level_by_value_and_by_index_write_one_document(self, tmp_path):
        # both record the table's eigenvalue 0.1 + 0.2 - 0.3, not the value 0
        # named on the command line, and so run the same resolvent
        docs = []
        for args in (("--level", "0"), ("--level-index", "0")):
            assert verify_document(tmp_path, FLOAT_2D, *args)[0] == 0
            docs.append((tmp_path / "doc.json").read_bytes())
        assert docs[0] == docs[1]

    def test_mutated_float_series_fails_transport(self):
        spec = parse_problem_spec(RANK2_WELL.format(mode="float", endomorphism=DIAGONAL_W))
        res = compute_quasimodes(spec.problem, spec.order, level_index=0)
        assert transport_residual(res).passed
        (e,) = res.eigenvalues
        terms = dict(e.items2())
        terms[max(terms)] += 1e-6
        mutated = FormalScalarSeries.from_terms2(e.mode, terms, e.trunc2)
        rep = transport_residual(dataclasses.replace(res, eigenvalues=[mutated]))
        assert not rep.passed and rep.max_residual > 1e-8

    def test_rotated_fiber_matches_the_exact_diagonal_problem(self, monkeypatch):
        # the float-only rotation of an off-diagonal W(0) into its eigenbasis
        calls = []
        rotate = JetProblem._diagonalize_fiber

        def recording(problem):
            calls.append(problem)
            rotate(problem)

        monkeypatch.setattr(JetProblem, "_diagonalize_fiber", recording)
        spec = parse_problem_spec(RANK2_WELL.format(mode="float", endomorphism=ROTATED_W))
        assert len(calls) == 1
        got = compute_quasimodes(spec.problem, spec.order, level_index=0).eigenvalues[0]
        spec = parse_problem_spec(RANK2_WELL.format(mode="exact", endomorphism=DIAGONAL_W))
        want = compute_quasimodes(spec.problem, spec.order, level_index=0).eigenvalues[0]
        assert [want.at2(d) for d in (4, 6)] == [F(-115, 128),
                                                                 F(-478195, 196608)]
        scale = want.max_abs_coeff()
        assert got.trunc2 == want.trunc2
        for t in range(want.trunc2 + 1):
            assert abs(got.at2(t) - float(want.at2(t))) <= 1e-9 * scale, t



class TestBlochRoute:
    """The level built by Bloch's wave operator against the level built from
    the projector's residue images with the Kato-Bloch matrices."""

    @pytest.mark.parametrize("preset,order", [
        ("cubic1d", 12), ("quartic1d", 12), ("iso2d", 6), ("rank2", 4), ("rank2", 6),
        ("well3d", 4)])
    def test_same_result_as_the_residue_route(self, preset, order):
        from level_oracle import residue_level

        if preset == "well3d":
            res = compute_quasimodes(well3d(), order, e0=3)
        else:
            spec = preset_problem(preset, order=order)
            res = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                                     level_index=spec.level_index)
        eigenvalues, rescaled, norms2 = residue_level(res.context, res.order2)
        assert res.eigenvalues == eigenvalues
        assert res.rescaled == rescaled
        assert res.norm2_constants == norms2

    def test_changed_h_eff_coefficient_fails_the_rs_check(self, monkeypatch):
        # the left side of the rs check, M and H^dagger, reads the left
        # recursion and the wave images, not H_eff: a changed H_t reaches
        # every caller of ``wave_operator2`` and leaves M and H^dagger as they
        # were, so the check fails
        from qmf.cli_io import _run_checks
        from qmf.projection_engine import ProjectorSeries

        spec = preset_problem("cubic1d", order=4)
        res = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        (report,) = _run_checks(res, {"rs"})
        assert report.passed and report.name == "rs_oracle"

        wave_operator = ProjectorSeries.wave_operator2

        def mutated(self):
            waves, h_eff = wave_operator(self)
            e = h_eff[0][0]
            terms = dict(e.items2())
            terms[4] += F(1, 1000)
            h_eff[0][0] = FormalScalarSeries.from_terms2(e.mode, terms, e.trunc2)
            return waves, h_eff

        monkeypatch.setattr(ProjectorSeries, "wave_operator2", mutated)
        bad = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        got, want = (r.eigenvalues[0].shift2(-2) for r in (bad, res))
        assert got.at2(4) == want.at2(4) + F(1, 1000)
        left = [(r.context.projector.overlap2(), r.context.projector.left_wave_operator2()[1])
                for r in (bad, res)]
        assert left[0] == left[1]
        (report,) = _run_checks(bad, {"rs"})
        assert not report.passed
        # the output eigenvalue is H_eff's, so only Y = H_eff X sees the change
        assert report.data["intertwining"] >= 0.001 and report.data["power_sums"] == 0.0

    @pytest.mark.parametrize("preset,mode_name", [("iso2d", "exact"), ("rank2", "exact"),
                                                  ("rank2", "float")])
    def test_shifted_h_eff_fails_the_rs_check_on_a_degenerate_level(
            self, monkeypatch, preset, mode_name):
        # H_eff + h^2/1000 I keeps the pencil hermitian, so compute finishes
        # with every eigenvalue moved by h^2/1000, and only rs sees it
        from qmf.projection_engine import ProjectorSeries

        spec = preset_problem(preset, mode_name, order=4)
        wave_operator = ProjectorSeries.wave_operator2

        def shifted(self):
            waves, h_eff = wave_operator(self)
            for a, row in enumerate(h_eff):
                terms = dict(row[a].items2())
                terms[4] = terms.get(4, 0) + self.mode.coeff(F(1, 1000))
                row[a] = FormalScalarSeries.from_terms2(self.mode, terms, row[a].trunc2)
            return waves, h_eff

        res = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        assert res.level.m0 == 2 and rs_oracle(res).passed
        monkeypatch.setattr(ProjectorSeries, "wave_operator2", shifted)
        report = rs_oracle(compute_quasimodes(spec.problem, spec.order, e0=spec.level_value))
        assert not report.passed
        assert report.data["intertwining"] > 1e-6 and report.data["power_sums"] < 1e-12

    def test_a_changed_eigenvalue_fails_the_power_sums(self):
        # H_eff is the construction's, so only tr(H_eff^p) = sum_k E_k^p
        # sees an output eigenvalue that H_eff does not have
        spec = preset_problem("iso2d", order=4)
        res = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        e = res.eigenvalues[1]
        terms = dict(e.items2())
        terms[6] += F(1, 1000)
        bad = dataclasses.replace(res, eigenvalues=[
            res.eigenvalues[0], FormalScalarSeries.from_terms2(EXACT, terms, e.trunc2)])
        report = rs_oracle(bad)
        assert not report.passed
        assert report.data["intertwining"] == 0.0 and report.data["power_sums"] > 0


class TestReductionBudget:
    """The front end and the residual checks sum each result in place and
    reduce it once (``accumulate_product``, ``DiffOpJet.apply_into``): the
    calls of ``reduce_num`` per stage stay within these counts, where forming
    a ``Poly`` for every term summed took 2 to 5 times as many."""

    BUDGET = {  # stage -> calls on (cubic1d o6, iso2d o4), both exact
        "solve_eikonal": (54, 48),
        "conjugate_hamiltonian": (13, 22),
        "weight_expansion": (45, 32),
        "transport_residual": (37, 56),
        "eigen_residual": (39, 54),
    }

    @pytest.mark.parametrize("case", [0, 1], ids=["cubic1d-o6", "iso2d-o4"])
    def test_reductions_per_stage(self, case, monkeypatch):
        import qmf.quasimode_pipeline as pipeline
        import qmf.series_algebra as series_algebra

        calls = {"total": 0}
        reduce_num = series_algebra.reduce_num

        def counting(*args):
            calls["total"] += 1
            return reduce_num(*args)

        def staged(name, stage):
            def run(*args, **kwargs):
                before = calls["total"]
                out = stage(*args, **kwargs)
                calls[name] = calls.get(name, 0) + calls["total"] - before
                return out
            return run

        monkeypatch.setattr(series_algebra, "reduce_num", counting)
        for name in ("solve_eikonal", "conjugate_hamiltonian", "weight_expansion"):
            monkeypatch.setattr(pipeline, name, staged(name, getattr(pipeline, name)))
        preset, order = [("cubic1d", 6), ("iso2d", 4)][case]
        spec = preset_problem(preset, order=order)
        result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        for check in (transport_residual, eigen_residual):
            assert staged(check.__name__, check)(result).passed
        for name, budget in self.BUDGET.items():
            assert calls[name] <= budget[case], name


class TestCheckApplicationBudget:
    """``verify --checks all`` after ``compute``: the checks apply no Q_j
    (the wave operator's images are cached) and form each Q_j^dagger image
    of the left recursion once; the calls of ``HermiteBasis.apply`` and
    ``apply_adjoint`` stay within these counts."""

    BUDGET = {"apply": (0, 0), "apply_adjoint": (107, 256)}  # (cubic1d o6, iso2d o4)

    @pytest.mark.parametrize("case", [0, 1], ids=["cubic1d-o6", "iso2d-o4"])
    def test_basis_applications_after_compute(self, case, monkeypatch):
        from qmf.cli_io import _run_checks
        from qmf.harmonic_oscillator import HermiteBasis

        preset, order = [("cubic1d", 6), ("iso2d", 4)][case]
        spec = preset_problem(preset, order=order)
        result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        calls = dict.fromkeys(self.BUDGET, 0)
        for name in calls:
            def counting(*args, name=name, real=getattr(HermiteBasis, name), **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(HermiteBasis, name, counting)
        assert all(report.passed for report in _run_checks(result, "all"))
        for name, budget in self.BUDGET.items():
            assert calls[name] <= budget[case], (name, calls[name])


def perturbed(result, what: str):
    """The result with one coefficient x 1001/1000: the first eigenvalue
    coefficient past the leading one, or the highest-degree term of the
    second coefficient of the first rescaled eigenfunction (and its
    un-rescaled jets)."""
    mode = result.context.problem.mode
    factor = mode.coeff(F(1001, 1000))
    if what == "eigenvalue":
        e = result.eigenvalues[0]
        terms = dict(e.items2())
        t = sorted(terms)[1]
        terms[t] *= factor
        return dataclasses.replace(result, eigenvalues=[
            FormalScalarSeries.from_terms2(mode, terms, e.trunc2), *result.eigenvalues[1:]])
    psi = result.rescaled[0]
    j = sorted(psi.coeffs2)[1]
    comp = psi.coeffs2[j].components[0]
    alpha = max(comp.terms, key=sum)
    comp = Poly(mode, comp.n, {**comp.terms, alpha: comp.terms[alpha] * factor})
    p = FiberPoly([comp, *psi.coeffs2[j].components[1:]])
    psi = S0Series(mode, psi.n, psi.rank, psi.K2, {**psi.coeffs2, j: p}, psi.trunc2)
    return dataclasses.replace(result, rescaled=[psi, *result.rescaled[1:]],
                               eigenfunctions=[unrescale(psi), *result.eigenfunctions[1:]])


class TestChecksOnPerturbedResults:
    """``transport`` and ``eigen_residual`` form the size of their terms only
    for a nonzero residual: they still pass on the results as computed and
    fail on one coefficient off by 1/1000."""

    @pytest.fixture(scope="class", params=[("cubic1d", 6, "exact"), ("iso2d", 4, "exact"),
                                           ("iso2d", 5, "float")],
                    ids=lambda p: f"{p[0]}-o{p[1]}-{p[2]}")
    def result(self, request):
        preset, order, mode = request.param
        spec = preset_problem(preset, mode, order=order)
        return compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)

    @pytest.mark.parametrize("check", [transport_residual, eigen_residual])
    def test_passes_as_computed(self, result, check):
        assert check(result).passed

    @pytest.mark.parametrize("what", ["eigenvalue", "eigenfunction"])
    @pytest.mark.parametrize("check", [transport_residual, eigen_residual])
    def test_fails_on_one_coefficient_off(self, result, check, what):
        report = check(perturbed(result, what))
        assert not report.passed and report.max_residual > 0
