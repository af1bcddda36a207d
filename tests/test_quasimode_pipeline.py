import dataclasses
from fractions import Fraction
from itertools import permutations

import pytest

from qmf.series_algebra import EXACT, HI0, FormalScalarSeries, HalfInt, Poly, float_mode
from qmf.operator_calculus import JetProblem
from qmf.harmonic_oscillator import LevelNotFoundError, build_spectrum, degenerate_level
from qmf.cli_io import parse_problem_spec, preset_problem
from qmf.quasimode_pipeline import (
    DegenerateLevelError,
    InsufficientOrderError,
    _eval_on_grid,
    _float_terms,
    _sine_galerkin_eigenvalue,
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
        res = compute_quasimodes(harmonic(), HalfInt(8), e0=1)
        (e,) = res.eigenvalues
        assert list(e.items()) == [(HalfInt(2), F(1))]

    def test_eigenfunction_is_constant(self):
        res = compute_quasimodes(harmonic(), HalfInt(8), e0=1)
        (a,) = res.eigenfunctions
        assert a.K == HI0
        assert list(a.coeffs) == [HI0]
        jet = a.at_relative(HI0)
        assert jet.degree() == 0

    def test_excited_level(self):
        res = compute_quasimodes(harmonic(), HalfInt(6), e0=3)
        (e,) = res.eigenvalues
        assert list(e.items()) == [(HalfInt(2), F(3))]
        assert res.level.K == HalfInt(1)


class TestCubicWell:
    def test_ground_energy_anchor(self):
        # ladder-operator second order sum: E = h (1 - (11/16) c^2 h + ...)
        for c in (1, 2):
            res = compute_quasimodes(cubic(c), HalfInt(4), e0=1)
            (e,) = res.eigenvalues
            inner = e.shift(HalfInt(-2))
            assert inner.coefficient(HI0) == 1
            assert inner.coefficient(HalfInt(1)) == 0  # parity
            assert inner.coefficient(HalfInt(2)) == F(-11, 16) * c * c

    def test_rs_oracle_matches_pipeline(self):
        res = compute_quasimodes(cubic(), HalfInt(4), e0=1)
        oracle = rs_oracle(res)
        inner = res.eigenvalues[0].shift(HalfInt(-2))
        assert inner.equals_through(oracle, HalfInt(4))

    def test_transport_residual_zero(self):
        res = compute_quasimodes(cubic(), HalfInt(4), e0=1)
        rep = transport_residual(res)
        assert rep.passed and rep.max_residual == 0.0

    def test_eigen_residual_zero(self):
        res = compute_quasimodes(cubic(), HalfInt(4), e0=1)
        rep = eigen_residual(res)
        assert rep.passed and rep.max_residual == 0.0

    def test_orthonormality_constants(self):
        res = compute_quasimodes(cubic(), HalfInt(4), e0=1)
        rep = orthonormality_report(res)
        assert rep.passed
        assert res.norm2_constants == [F(1)]  # ground member is monic with norm 1

    def test_float_mode_agrees(self):
        fm = float_mode()
        pf = JetProblem.create(fm, 1, 1, 10, (1.0,), V=poly1({2: 1, 3: 1}, fm))
        res_f = compute_quasimodes(pf, HalfInt(4), e0=1.0)
        res_e = compute_quasimodes(cubic(), HalfInt(4), e0=1)
        ef = res_f.eigenvalues[0]
        ee = res_e.eigenvalues[0]
        for t in [HalfInt(d) for d in range(2, 7)]:
            assert abs(ef.coefficient(t) - float(ee.coefficient(t))) < 1e-9


class TestQuarticWell:
    def test_ground_energy_anchor(self):
        # E = h (1 + (3/4) c h - (21/16) c^2 h^2 + ...)
        res = compute_quasimodes(quartic(), HalfInt(4), e0=1)
        inner = res.eigenvalues[0].shift(HalfInt(-2))
        assert inner.coefficient(HalfInt(2)) == F(3, 4)
        assert inner.coefficient(HalfInt(4)) == F(-21, 16)

    def test_rs_oracle_matches(self):
        res = compute_quasimodes(quartic(), HalfInt(4), e0=1)
        inner = res.eigenvalues[0].shift(HalfInt(-2))
        oracle = rs_oracle(res)
        assert inner.equals_through(oracle, HalfInt(4))

    def test_fd_crosscheck_small(self):
        res = compute_quasimodes(quartic(), HalfInt(4), e0=1)
        rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1, 0.05], grid=1024)
        assert rep.passed, rep.detail
        assert rep.data["slope"] >= 3.5

    @pytest.mark.parametrize("hbars", [
        [0.1], [0.1, 0.1], [0.1, -0.05], [0.1, 0.0], [0.1, float("nan")], [float("inf"), 0.1]])
    def test_fd_crosscheck_rejects_bad_hbars(self, hbars):
        # one point fits no slope, and h <= 0 has no operator to solve
        res = compute_quasimodes(quartic(), HalfInt(2), e0=1)
        with pytest.raises(ValueError, match="at least two distinct, finite, positive h values"):
            crosscheck_eigenvalue_1d(res, hbars=hbars, grid=64)

    @pytest.mark.parametrize("preset", ["quartic1d", "cubic1d", "witten1d"])
    @pytest.mark.parametrize("mode_name", ["exact", "float"])
    def test_grid_evaluation_matches_pointwise(self, preset, mode_name):
        # the whole-grid evaluation of the crosscheck must reproduce the
        # point-by-point loop it replaced bit for bit, negative x included
        import numpy as np
        problem = preset_problem(preset, mode_name, HalfInt(4)).problem
        grids = [np.linspace(-7.3, 5.1, 2001), np.linspace(-6.0, 6.0, 1026)[1:-1],
                 np.linspace(0.0, -4.5, 4001)]
        for poly in (problem.V, problem.W[0][0]):
            terms = _float_terms(poly)
            for xs in grids:
                want = np.array([float(poly.eval_floats((x,)).real) for x in xs])
                got = _eval_on_grid(terms, xs)
                assert got.tobytes() == want.tobytes(), (preset, xs[0], xs[-1])

    def test_fd_crosscheck_witten_smallness(self):
        # zero series and a genuine double well: the numeric eigenvalue is
        # exponentially small, i.e. decays faster than any required power
        p = witten(F(1))
        res = compute_quasimodes(p, HalfInt(4), e0=0)
        rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1], grid=1024)
        assert "identically zero" in rep.detail
        assert rep.passed, rep
        assert rep.data["slope"] > rep.data["required_slope"]

    @pytest.mark.parametrize("k", range(4))
    def test_sine_galerkin_harmonic_levels(self, k):
        # V = x^2 (lambda = 1, W = 0) has the levels h (2k + 1); the box is
        # the one the crosscheck picks for h = 0.1
        hbar = 0.1
        got = _sine_galerkin_eigenvalue([(2, 1.0)], [], 3.796875, hbar, 64, k)
        assert abs(got - hbar * (2 * k + 1)) <= 1e-12 * hbar * (2 * k + 1)

    @pytest.mark.parametrize("index", range(3))
    def test_mutated_series_fails_the_crosscheck(self, index):
        # the level's series h + 3/4 h^2 - 21/16 h^3 with one coefficient off by 1/2
        res = compute_quasimodes(quartic(), HalfInt(4), e0=1)
        (e,) = res.eigenvalues
        terms = dict(e.items())
        assert len(terms) == 3
        terms[sorted(terms)[index]] += F(1, 2)
        mutated = FormalScalarSeries.from_terms(EXACT, terms, e.truncation_order)
        rep = crosscheck_eigenvalue_1d(dataclasses.replace(res, eigenvalues=[mutated]),
                                       hbars=[0.2, 0.1, 0.05])
        assert crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1, 0.05]).passed
        assert not rep.passed, rep.detail
        assert rep.data["sizes"] == [128, 128, 128]

    @pytest.mark.parametrize("grid, sizes", [
        (4096, [128, 256]), (256, [128, 256]), (128, [128, None]), (64, [None, None])])
    def test_basis_doubles_up_to_the_cap(self, grid, sizes):
        # in the box h = 0.2 picks, 64 and 128 sines differ by 6e-8 relative at
        # h = 0.025 and 128 and 256 agree; a cap of 64 leaves no second size
        res = compute_quasimodes(quartic(), HalfInt(4), e0=1)
        rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.025], grid=grid)
        assert rep.data["sizes"] == sizes
        assert rep.data["slope"] >= rep.data["required_slope"]
        assert rep.passed == (None not in sizes)


class TestWittenSupersymmetry:
    @pytest.mark.parametrize("c", [F(1, 2), F(1), F(2)])
    def test_zero_energy_and_constant_mode(self, c):
        res = compute_quasimodes(witten(c), HalfInt(8), e0=0)
        (e,) = res.eigenvalues
        assert e.is_zero()
        # the quasimode is the exact kernel section: a scalar series times
        # the constant (the series is the orthonormalizing factor)
        (a,) = res.eigenfunctions
        assert a.K == HI0
        for _, jet in a.items():
            assert jet.degree() == 0
        rep = transport_residual(res)
        assert rep.passed and rep.max_residual == 0.0


class TestDegenerate2D:
    def test_level_structure(self):
        res = compute_quasimodes(iso2d(), HalfInt(6), e0=4)
        assert res.level.m0 == 2
        assert res.level.K == HalfInt(1)
        assert res.level.parity == "odd"

    def test_parity_no_integer_terms_in_eigenfunctions(self):
        res = compute_quasimodes(iso2d(), HalfInt(6), e0=4)
        for a in res.eigenfunctions:
            for k in a.coeffs:
                absolute = k - a.K
                assert not absolute.is_integer

    def test_eigenvalues_real_integer_orders(self):
        res = compute_quasimodes(iso2d(), HalfInt(6), e0=4)
        for e in res.eigenvalues:
            assert e.is_real()
            for t, _ in e.items():
                assert t.is_integer  # h * (integer series)

    def test_orthonormality(self):
        res = compute_quasimodes(iso2d(), HalfInt(6), e0=4)
        rep = orthonormality_report(res)
        assert rep.passed
        assert res.norm2_constants == [F(1, 2), F(1, 2)]

    def test_split_happens(self):
        res = compute_quasimodes(iso2d(), HalfInt(6), e0=4)
        e1, e2 = [e.shift(HalfInt(-2)) for e in res.eigenvalues]
        assert not e1.equals_through(e2, HalfInt(6))

    def test_residuals(self):
        res = compute_quasimodes(iso2d(), HalfInt(4), e0=4)
        assert transport_residual(res).max_residual == 0.0
        assert eigen_residual(res).max_residual == 0.0


class TestErrors:
    def test_level_not_in_spectrum(self):
        with pytest.raises(LevelNotFoundError):
            compute_quasimodes(harmonic(), HalfInt(4), e0=2)

    def test_insufficient_jets(self):
        with pytest.raises(InsufficientOrderError) as ei:
            compute_quasimodes(cubic(D=4), HalfInt(8), e0=1)
        assert ei.value.required_D >= 8

    def test_rs_oracle_rejects_degenerate(self):
        with pytest.raises(DegenerateLevelError):
            rs_oracle(compute_quasimodes(iso2d(), HalfInt(2), e0=4))


class TestLevelSelectionByIndex:
    def test_index_matches_value(self):
        r1 = compute_quasimodes(harmonic(), HalfInt(4), level_index=1)
        r2 = compute_quasimodes(harmonic(), HalfInt(4), e0=3)
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
            by_index = compute_quasimodes(problem, HalfInt(1), level_index=i).level
            by_value = compute_quasimodes(problem, HalfInt(1), e0=e0).level
            assert by_index.members == by_value.members == want, i

    @pytest.mark.parametrize("index", [-1, -2])
    def test_negative_index_rejected_before_any_table(self, index, monkeypatch):
        # a negative index names no level, so no table is built for it
        import qmf.quasimode_pipeline as pipeline

        def no_table(*args, **kwargs):
            raise AssertionError("a spectrum table was built")

        monkeypatch.setattr(pipeline, "build_spectrum", no_table)
        with pytest.raises(LevelNotFoundError, match=f"level_index must be nonnegative, got {index}"):
            compute_quasimodes(iso2d(), HalfInt(2), level_index=index)


@pytest.mark.parametrize("perm", [p for p in permutations(range(3)) if p != (0, 1, 2)])
def test_3d_well_coordinate_permutation(perm):
    """Relabelling the coordinates keeps the eigenvalue series and permutes the
    eigenfunction monomials alike."""
    base = compute_quasimodes(well3d(), HalfInt(2), e0=3)
    got = compute_quasimodes(well3d(perm), HalfInt(2), e0=3)
    assert got.eigenvalues == base.eigenvalues
    (u,), (v,) = base.eigenfunctions, got.eigenfunctions
    assert v.coeffs.keys() == u.coeffs.keys()
    for k, p in u.coeffs.items():
        want = {tuple(a[i] for i in perm): c for a, c in p.components[0].terms.items()}
        assert v.coeffs[k].components[0].terms == want, k


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
