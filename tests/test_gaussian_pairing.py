import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from qmf.series_algebra import (
    EXACT,
    FiberPoly,
    FormalScalarSeries,
    HI0,
    HalfInt,
    Poly,
    S0Series,
)
from qmf.operator_calculus import JetProblem, conjugate_hamiltonian, solve_eikonal
from qmf.gaussian_pairing import gaussian_moment, pair_s0, weight_expansion
from qmf.harmonic_oscillator import HermiteBasis
from qmf.cli_io import preset_problem
from qmf.quasimode_pipeline import compute_quasimodes

F = Fraction


def poly1(coeffs, n=1):
    return Poly(EXACT, n, {(d,) if n == 1 else d: F(v) for d, v in coeffs.items()})


def make_problem(vhigher=None, D=8, lam=(1,), n=1, g_inv=None):
    return JetProblem.create(EXACT, n, 1, D, lam, V=vhigher, g_inv=g_inv)


def omega_for(problem, through=4):
    phi = solve_eikonal(problem)
    return weight_expansion(phi, conjugate_hamiltonian(problem, phi).density, problem, through)


class TestGaussianMoment:
    def test_zeroth(self):
        assert gaussian_moment((0,), (F(1),), EXACT) == F(1)

    def test_first_even(self):
        assert gaussian_moment((2,), (F(1),), EXACT) == F(1, 2)

    def test_odd_vanishes(self):
        assert gaussian_moment((3,), (F(1),), EXACT) == 0
        assert gaussian_moment((1, 2), (F(1), F(2)), EXACT) == 0

    def test_double_factorial_identity(self):
        # (3!!)/(2*1)^2 * (1!!)/(2*2)^1 = 3/4 * 1/4
        assert gaussian_moment((4, 2), (F(1), F(2)), EXACT) == F(3, 16)

    def test_against_numeric_quadrature(self):
        lam = (0.7, 1.3)
        from qmf.series_algebra import float_mode

        val = gaussian_moment((4, 2), tuple(map(complex, lam)), float_mode())
        ys = np.linspace(-8, 8, 4001)
        w1 = np.trapezoid(ys**4 * np.exp(-lam[0] * ys**2), ys) / math.sqrt(math.pi / lam[0])
        w2 = np.trapezoid(ys**2 * np.exp(-lam[1] * ys**2), ys) / math.sqrt(math.pi / lam[1])
        assert val.real == pytest.approx(w1 * w2, rel=1e-8)


class TestWeightExpansion:
    def test_harmonic_trivial(self):
        w = omega_for(make_problem())
        assert w.orders() == [HI0]
        assert w.at(HI0) == poly1({0: 1})

    def test_cubic_half_order(self):
        # -2 * phase cubic part = -(c/3) y^3 at half order
        c = 1
        w = omega_for(make_problem(poly1({2: 1, 3: c})))
        assert w.at(HalfInt(1)) == poly1({3: F(-c, 3)})

    def test_parity(self):
        w = omega_for(make_problem(poly1({2: 1, 3: 1, 4: F(1, 5)})), through=3)
        for m in w.orders():
            p = w.at(m)
            if p.is_zero():
                continue
            assert p.parity() == (1 if m.is_integer else -1)

    def test_curved_metric_term(self):
        # g^11 = 1 + a x^2: density = 1 - (a/2) y^2 + ... enters omega_1
        a = F(1, 2)
        g = ((poly1({0: 1, 2: a}),),)
        w = omega_for(make_problem(None, D=6, g_inv=g), through=2)
        assert w.at(HalfInt(2)).coefficient((2,)) == -a / 2


def unit_fiber(p: Poly) -> FiberPoly:
    return FiberPoly.scalar(p)


def pair_polys(pu: FiberPoly, pv: FiberPoly, omega):
    """Pairing of two plain polynomials viewed as order-zero elements."""
    return pair_s0(S0Series.from_fiber_poly(pu), S0Series.from_fiber_poly(pv), omega)


class TestPairing:
    def setup_method(self):
        self.problem = make_problem()
        self.omega = omega_for(self.problem, through=6)
        self.basis = HermiteBasis(EXACT, (F(1),), (F(0),), 8)

    def pair(self, pu, pv, omega=None):
        return pair_polys(unit_fiber(pu), unit_fiber(pv), omega or self.omega)

    def test_monic_family_orthogonality_with_norms(self):
        for a in range(4):
            for b in range(4):
                got = self.pair(self.basis.poly((a,)), self.basis.poly((b,)))
                if a == b:
                    # m! / (2 lam)^m at lam = 1
                    assert got == FormalScalarSeries.const(
                        EXACT, F(math.factorial(a), 2 ** a), got.truncation_order)
                else:
                    assert got.is_zero()

    def test_parity_selection_odd_integrand(self):
        got = self.pair(poly1({0: 1}), poly1({1: 1}))
        assert got.is_zero()

    def test_cubic_ground_half_order_vanishes(self):
        problem = make_problem(poly1({2: 1, 3: 1}))
        omega = omega_for(problem, through=4)
        got = pair_polys(unit_fiber(poly1({0: 1})), unit_fiber(poly1({0: 1})), omega)
        assert got.coefficient(HalfInt(1)) == 0
        assert got.coefficient(HI0) == 1

    def test_hermitian(self):
        problem = make_problem(poly1({2: 1, 3: 1}))
        omega = omega_for(problem, through=4)
        u = unit_fiber(poly1({0: 1, 1: 2}))
        v = unit_fiber(poly1({1: 1, 2: 3}))
        ab = pair_polys(u, v, omega)
        ba = pair_polys(v, u, omega)
        assert ab == ba.conj()

    def test_s0_offsets_combine(self):
        u = S0Series(EXACT, 1, 1, HalfInt(1), {HalfInt(1): unit_fiber(poly1({1: 1}))}, None)
        got = pair_s0(u, u, self.omega)
        # <y, y> = 1/2 at absolute order 0 (offsets -1/2 each cancel the +1)
        assert got.coefficient(HI0) == F(1, 2)

    def test_operator_symmetry_randomized(self):
        # (Q u, v) = (u, Q v) coefficientwise: ties the conjugated operator
        # family to the pairing; includes a bundle with connection and
        # off-diagonal endomorphism slope
        import random

        from qmf.operator_calculus import rescale_operator
        from qmf.series_algebra import HalfInt, S0Series

        rng = random.Random(5)
        z = Poly.zero(EXACT, 1)
        W = (
            (z, Poly.monomial(EXACT, 1, (1,), 1)),
            (Poly.monomial(EXACT, 1, (1,), 1), Poly.const(EXACT, 1, 4)),
        )
        G1 = (
            (z, Poly.monomial(EXACT, 1, (1,), F(1, 2))),
            (Poly.monomial(EXACT, 1, (1,), F(-1, 2)), z),
        )
        problem = JetProblem.create(EXACT, 1, 2, 10, (2,),
                                    V=poly1({2: 4, 3: F(1, 2)}), W=W, Gamma=(G1,))
        phi = solve_eikonal(problem)
        conj = conjugate_hamiltonian(problem, phi)
        family = rescale_operator(conj)
        omega = weight_expansion(phi, conj.density, problem, 4)
        through = HalfInt(8)
        for _ in range(4):
            def rand_elem():
                comps = []
                for _ in range(2):
                    terms = {(d,): F(rng.randint(-3, 3)) for d in range(0, 4)}
                    comps.append(Poly(EXACT, 1, terms))
                return S0Series.from_fiber_poly(FiberPoly(comps), HalfInt(8))
            u, v = rand_elem(), rand_elem()
            qu = family.apply_series(u, out_trunc=through)
            qv = family.apply_series(v, out_trunc=through)
            left = pair_s0(qu, v, omega, through=HalfInt(4))
            right = pair_s0(u, qv, omega, through=HalfInt(4))
            assert (left - right).max_abs_coeff(HalfInt(4)) == 0

    def test_quadrature_consistency_small_hbar(self):
        # box integral of exp(-2 phase(x)/h)/sqrt(h) against the series,
        # cubic scalar well; agreement to the expected remainder order
        problem = make_problem(poly1({2: 1, 3: F(1, 4)}), D=10)
        phi = solve_eikonal(problem)
        omega = omega_for(problem)
        series = pair_polys(unit_fiber(poly1({0: 1})), unit_fiber(poly1({0: 1})), omega)
        N = series.truncation_order
        phi_vals = np.vectorize(lambda x: float(phi.poly.eval_floats((x,)).real))
        errs = []
        hs = [0.02, 0.01, 0.005]
        for h in hs:
            xs = np.linspace(-0.9, 0.9, 20001)
            integral = np.trapezoid(np.exp(-2 * phi_vals(xs) / h), xs) / math.sqrt(h)
            series_val = math.sqrt(math.pi) * series.evaluate(h, through=N).real
            errs.append(abs(integral - series_val))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= float(N.as_fraction()) + 0.4


def multiply_then_integrate(u: S0Series, v: S0Series, omega, trunc: HalfInt) -> FormalScalarSeries:
    """Reference pairing: form every product conj(u_i) * v_i * omega_m as a
    polynomial, then integrate it monomial by monomial with ``gaussian_moment``."""
    mode = u.mode
    terms: dict = {}
    for ju, pu in u.coeffs.items():
        for jv, pv in v.coeffs.items():
            for ui, vi in zip(pu.components, pv.components):
                fiber = ui.conj() * vi
                for m in omega.orders():
                    t = (ju - u.K) + (jv - v.K) + m
                    if t > trunc:
                        continue
                    for gamma, c in (fiber * omega.at(m)).terms.items():
                        terms[t] = terms.get(t, mode.zero()) + c * gaussian_moment(
                            gamma, omega.lam, mode)
    return FormalScalarSeries.from_terms(mode, terms, trunc)


def assert_pairs_match_reference(elems, omega, through=None):
    for u in elems:
        for v in elems:
            got = pair_s0(u, v, omega, through=through)
            want = multiply_then_integrate(u, v, omega, got.truncation_order)
            assert got == want


@functools.lru_cache(maxsize=None)
def pipeline_context(preset: str, order: int, mode_name: str = "exact"):
    spec = preset_problem(preset, mode_name=mode_name, order=HalfInt(2 * order))
    return compute_quasimodes(spec.problem, spec.order, e0=spec.level_value).context


def projected_level_basis(ctx):
    return [ctx.projector.image_s0(m) for m in ctx.level.members]


class TestPairingOracle:
    """pair_s0 contracts integrands against cached weight functionals; it must
    agree with forming the product polynomials and integrating them."""

    def test_curved_metric_weight(self):
        # the density of g^11 = 1 + x^2/2 enters omega (see test_curved_metric_term)
        g = ((poly1({0: 1, 2: F(1, 2)}),),)
        problem = make_problem(poly1({2: 1, 3: F(1, 3)}), D=6, g_inv=g)
        omega = omega_for(problem, through=2)
        assert not omega.at(HalfInt(2)).is_zero()
        basis = HermiteBasis(EXACT, (F(1),), (F(0),), 6)
        elems = [S0Series.from_fiber_poly(unit_fiber(basis.poly((a,))), HalfInt(4))
                 for a in range(4)]
        elems.append(S0Series(EXACT, 1, 1, HalfInt(1), {
            HalfInt(1): unit_fiber(poly1({1: 1})),
            HalfInt(2): unit_fiber(poly1({0: F(-2, 3), 1: 1, 2: F(1, 5)})),
        }, HalfInt(3)))
        assert_pairs_match_reference(elems, omega)

    def test_rank2_fibres_with_connection(self):
        ctx = pipeline_context("rank2", 3)
        assert ctx.problem.rank == 2 and ctx.problem.Gamma
        assert_pairs_match_reference(projected_level_basis(ctx), ctx.omega)

    def test_iso2d_projected_level_basis(self):
        ctx = pipeline_context("iso2d", 4)
        assert_pairs_match_reference(projected_level_basis(ctx), ctx.omega,
                                     through=HalfInt(8))

    def test_float_within_relative_bound(self):
        # float mode sums in a different order and no longer prunes the
        # products integrand * omega_m: agreement to 1e-12 relative to the
        # largest coefficient of the Gram matrix
        ctx = pipeline_context("iso2d", 3, "float")
        elems = projected_level_basis(ctx)
        scale, worst = 0.0, 0.0
        for u in elems:
            for v in elems:
                got = pair_s0(u, v, ctx.omega)
                want = multiply_then_integrate(u, v, ctx.omega, got.truncation_order)
                scale = max(scale, want.max_abs_coeff(got.truncation_order))
                worst = max(worst, (got - want).max_abs_coeff(got.truncation_order))
        assert scale >= 0.5
        assert worst <= 1e-12 * scale

    def test_weights_with_equal_lambda_keep_separate_tables(self):
        omegas = {}
        for c in (1, 2):
            problem = preset_problem(f"cubic1d:c={c}", order=HalfInt(8)).problem
            omegas[c] = omega_for(problem)
        assert omegas[1].lam == omegas[2].lam
        u = S0Series.from_fiber_poly(unit_fiber(poly1({0: 1, 1: 2, 3: -1})), HalfInt(4))
        first = {c: pair_s0(u, u, omegas[c]) for c in (1, 2)}
        assert first[1] != first[2]
        assert omegas[1].table is not omegas[2].table
        for m in set(omegas[1].table) & set(omegas[2].table):
            assert omegas[1].table[m] is not omegas[2].table[m]
        # interleaved calls read only their own weight's entries
        for c in (2, 1, 2):
            got = pair_s0(u, u, omegas[c])
            assert got == first[c]
            assert got == multiply_then_integrate(u, u, omegas[c], got.truncation_order)
