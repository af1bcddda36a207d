import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmf.series_algebra import (
    EXACT,
    FiberPoly,
    FormalScalarSeries,
    Poly,
    S0Series,
    float_mode,
)
from qmf.operator_calculus import JetProblem, ScalarJet, conjugate_hamiltonian, solve_eikonal
from qmf import gaussian_pairing
from qmf.gaussian_pairing import _Functional, _add_product, pair_s0, weight_expansion
from qmf.harmonic_oscillator import HermiteBasis
from qmf.cli_io import preset_problem
from qmf.quasimode_pipeline import compute_quasimodes

F = Fraction


def poly1(coeffs, n=1):
    return Poly(EXACT, n, {(d,) if n == 1 else d: F(v) for d, v in coeffs.items()})


def make_problem(vhigher=None, D=8, lam=(1,), n=1, g_inv=None):
    return JetProblem.create(EXACT, n, 1, D, lam, V=vhigher, g_inv=g_inv)


def omega_for(problem, through2=8):
    phi = solve_eikonal(problem)
    return weight_expansion(phi, conjugate_hamiltonian(problem, phi).density, problem, through2)


def _half_factorial_part(k: int, lam) -> object:
    """integral y^k exp(-lam y^2) dy divided by sqrt(pi/lam): (k-1)!! / (2 lam)^(k/2)."""
    if k % 2 == 1:
        return None
    num = 1
    for i in range(k - 1, 0, -2):
        num *= i
    denom = (lam + lam) ** (k // 2)
    return num / denom


def gaussian_moment(alpha: tuple, lam: tuple, mode) -> object:
    """Normalized Gaussian moment of y^alpha for the diagonal quadratic weight,
    the oracle of the pairing's moment rows.

    Returns integral(y^alpha exp(-<y, Lambda y>) dy) / prod(sqrt(pi/lambda)):
    the product over nu of (alpha_nu - 1)!! / (2 lambda_nu)^(alpha_nu / 2)
    for even multi-indices, zero otherwise.
    """
    out = mode.one()
    for a, l in zip(alpha, lam):
        part = _half_factorial_part(a, l)
        if part is None:
            return mode.zero()
        out = out * part
    return out


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


# 1/(2 lambda) = 1/3, 3/4 and 1/10: an odd d, a c other than 1, and a d with
# both 2 and 5; every preset has 1/2 or 1/4
MOMENT_LAMS = [(F(3, 2),), (F(2, 3),), (F(5),), (F(3, 2), F(2, 3)), (F(5), F(3, 2), F(2, 3))]


def moment_weight(mode, n: int) -> Poly:
    """A weight with odd and even exponents up to 3 in each variable."""
    terms = {beta: mode.coeff(F(1 + sum(beta), 2 + i))
             for i, beta in enumerate(itertools.product(range(4), repeat=n)) if sum(beta) <= 4}
    return Poly(mode, n, terms)


@pytest.mark.parametrize("mode_name", ["exact", "float"])
@pytest.mark.parametrize("lam", MOMENT_LAMS, ids=lambda lam: ",".join(map(str, lam)))
def test_moment_rows_match_the_oracle(lam, mode_name):
    """Each moment row over d^e holds the one-dimensional moments of the
    exponents g + b, and the functional contracted from the rows is
    sum_beta w[beta] M(gamma + beta): exactly in exact mode, within a few
    ulps of the summed magnitudes in float mode."""
    mode = EXACT if mode_name == "exact" else float_mode()
    n = len(lam)
    lam = tuple(map(mode.coeff, lam))
    weight = moment_weight(mode, n)
    lm = _Functional(weight, lam, {})
    ulps = 8 * sys.float_info.epsilon

    def agree(got, want, scale):
        if mode is EXACT:
            assert got == want
        else:
            assert abs(got - want) <= ulps * scale

    for nu, top in enumerate(lm.tops):
        d = lm.half[nu][1]
        for g in range(13):
            row = lm._row(nu, g, top)
            assert len(row) == top + 1
            for b, x in enumerate(row):
                want = gaussian_moment((g + b,), (lam[nu],), mode)
                agree(mode.join(x, d ** ((g + top) // 2)), want, abs(want))
    gammas = itertools.product(range(13), repeat=n) if n < 3 else \
        itertools.product(range(13), range(0, 13, 3), range(1, 13, 4))
    for gamma in gammas:
        parts = [(c, gaussian_moment(tuple(map(operator.add, gamma, beta)), lam, mode))
                 for beta, c in weight.terms.items()]
        want = sum((c * mom for c, mom in parts), mode.zero())
        got = lm.pair(Poly.monomial(mode, n, gamma))
        agree(got, want, sum(abs(c * mom) for c, mom in parts))


class TestWeightExpansion:
    def test_harmonic_trivial(self):
        w = omega_for(make_problem())
        assert w.orders2() == [0]
        assert w.omega2[0] == poly1({0: 1})

    def test_cubic_half_order(self):
        # -2 * phase cubic part = -(c/3) y^3 at half order
        c = 1
        w = omega_for(make_problem(poly1({2: 1, 3: c})))
        assert w.omega2[1] == poly1({3: F(-c, 3)})

    def test_parity(self):
        w = omega_for(make_problem(poly1({2: 1, 3: 1, 4: F(1, 5)})), through2=6)
        for m, p in w.omega2.items():
            # omega_m has the parity (-1)^(2m) of its doubled order
            assert {sum(a) % 2 for a in p.terms} == {m % 2}

    def test_curved_metric_term(self):
        # g^11 = 1 + a x^2: density = 1 - (a/2) y^2 + ... enters omega_1
        a = F(1, 2)
        g = ((poly1({0: 1, 2: a}),),)
        w = omega_for(make_problem(None, D=6, g_inv=g), through2=4)
        assert w.omega2[2].coefficient((2,)) == -a / 2


def ref_exp_weight(phi: ScalarJet, n: int, through: int) -> dict:
    """exp(S) as sum_m S^m / m!, S = -2 sum_{d>2} h^((d-2)/2) phi_d, one
    graded product per power, keyed by doubled order."""
    one = Poly.const(EXACT, n, 1)
    s = {d - 2: part.scale(-2) for d, part in phi.poly.components_by_degree().items()
         if 2 < d <= through + 2}
    expo, power, m = {0: one}, {0: one}, 1
    while power:
        nxt = {}
        for (ka, pa), (kb, pb) in itertools.product(power.items(), s.items()):
            if ka + kb <= through:
                nxt[ka + kb] = nxt.get(ka + kb, Poly.zero(EXACT, n)) + pa * pb
        power = {k: p for k, p in nxt.items() if not p.is_zero()}
        for k, p in power.items():
            expo[k] = expo.get(k, Poly.zero(EXACT, n)) + p.scale(F(1, math.factorial(m)))
        m += 1
    return expo


@st.composite
def anharmonic_phases(draw):
    """A phase sum_nu lam_nu y_nu^2 / 2 plus random parts of degree 3 to 6 in
    one or two variables, exact through its top degree, with its flat problem."""
    n = draw(st.integers(1, 2))
    lam = draw(st.lists(st.sampled_from([F(1), F(2), F(1, 2)]), min_size=n, max_size=n))
    monomials = [a for a in itertools.product(range(7), repeat=n) if 3 <= sum(a) <= 6]
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    terms = draw(st.dictionaries(st.sampled_from(monomials), coeffs, min_size=1, max_size=6))
    for nu in range(n):
        alpha = tuple(2 * (i == nu) for i in range(n))
        terms[alpha] = lam[nu] / 2
    complete = draw(st.integers(4, 8))
    problem = JetProblem.create(EXACT, n, 1, complete, lam)
    return ScalarJet(Poly(EXACT, n, terms), complete), problem


class TestWeightExpansionOracle:
    @given(anharmonic_phases(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_exponential_matches_power_sum(self, case, through):
        phi, problem = case
        w = weight_expansion(phi, Poly.const(EXACT, problem.n, 1), problem, through)
        assert w.complete2 == min(through, phi.complete - 2)
        ref = ref_exp_weight(phi, problem.n, through)
        assert w.omega2 == {k: p for k, p in ref.items() if k <= w.complete2 and not p.is_zero()}


def unit_fiber(p: Poly) -> FiberPoly:
    return FiberPoly([p])


def pair_polys(pu: FiberPoly, pv: FiberPoly, omega):
    """Pairing of two plain polynomials viewed as order-zero elements."""
    return pair_s0(S0Series.from_fiber_poly(pu), S0Series.from_fiber_poly(pv), omega)


class TestPairing:
    def setup_method(self):
        self.problem = make_problem()
        self.omega = omega_for(self.problem, through2=12)
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
                        EXACT, F(math.factorial(a), 2 ** a), got.trunc2)
                else:
                    assert got.is_zero()

    def test_parity_selection_odd_integrand(self):
        got = self.pair(poly1({0: 1}), poly1({1: 1}))
        assert got.is_zero()

    def test_cubic_ground_half_order_vanishes(self):
        problem = make_problem(poly1({2: 1, 3: 1}))
        omega = omega_for(problem, through2=8)
        got = pair_polys(unit_fiber(poly1({0: 1})), unit_fiber(poly1({0: 1})), omega)
        assert got.at2(1) == 0
        assert got.at2(0) == 1

    def test_hermitian(self):
        problem = make_problem(poly1({2: 1, 3: 1}))
        omega = omega_for(problem, through2=8)
        u = unit_fiber(poly1({0: 1, 1: 2}))
        v = unit_fiber(poly1({1: 1, 2: 3}))
        ab = pair_polys(u, v, omega)
        ba = pair_polys(v, u, omega)
        assert ab == ba.conj()

    def test_s0_offsets_combine(self):
        u = S0Series(EXACT, 1, 1, 1, {1: unit_fiber(poly1({1: 1}))}, None)
        got = pair_s0(u, u, self.omega)
        # <y, y> = 1/2 at absolute order 0 (offsets -1/2 each cancel the +1)
        assert got.at2(0) == F(1, 2)

    def test_operator_symmetry_randomized(self):
        # (Q u, v) = (u, Q v) coefficientwise: ties the conjugated operator
        # family to the pairing; includes a bundle with connection and
        # off-diagonal endomorphism slope
        import random

        from qmf.operator_calculus import rescale_operator
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
        omega = weight_expansion(phi, conj.density, problem, 8)
        through = 8
        for _ in range(4):
            def rand_elem():
                comps = []
                for _ in range(2):
                    terms = {(d,): F(rng.randint(-3, 3)) for d in range(0, 4)}
                    comps.append(Poly(EXACT, 1, terms))
                return S0Series.from_fiber_poly(FiberPoly(comps), 8)
            u, v = rand_elem(), rand_elem()
            qu = family.apply_series(u, out_trunc2=through)
            qv = family.apply_series(v, out_trunc2=through)
            left = pair_s0(qu, v, omega, through2=4)
            right = pair_s0(u, qv, omega, through2=4)
            assert (left - right).max_abs_coeff(4) == 0

    def test_quadrature_consistency_small_hbar(self):
        # box integral of exp(-2 phase(x)/h)/sqrt(h) against the series,
        # cubic scalar well; agreement to the expected remainder order
        problem = make_problem(poly1({2: 1, 3: F(1, 4)}), D=10)
        phi = solve_eikonal(problem)
        omega = omega_for(problem)
        series = pair_polys(unit_fiber(poly1({0: 1})), unit_fiber(poly1({0: 1})), omega)
        N = series.trunc2
        phi_coeffs = [(a, float(c)) for (a,), c in phi.poly.terms.items()]
        errs = []
        hs = [0.02, 0.01, 0.005]
        for h in hs:
            xs = np.linspace(-0.9, 0.9, 20001)
            phi_vals = sum(c * xs**a for a, c in phi_coeffs)
            integral = np.trapezoid(np.exp(-2 * phi_vals / h), xs) / math.sqrt(h)
            series_val = math.sqrt(math.pi) * series.evaluate(h, through2=N).real
            errs.append(abs(integral - series_val))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= N / 2 + 0.4


def multiply_then_integrate(u: S0Series, v: S0Series, omega, trunc: int) -> FormalScalarSeries:
    """Reference pairing: form every product conj(u_i) * v_i * omega_m as a
    polynomial, then integrate it monomial by monomial with ``gaussian_moment``."""
    mode = u.mode
    terms: dict = {}
    for ju, pu in u.coeffs2.items():
        for jv, pv in v.coeffs2.items():
            for ui, vi in zip(pu.components, pv.components):
                fiber = ui.conj() * vi
                for m, wm in omega.omega2.items():
                    t = (ju - u.K2) + (jv - v.K2) + m
                    if t > trunc:
                        continue
                    for gamma, c in (fiber * wm).terms.items():
                        terms[t] = terms.get(t, mode.zero()) + c * gaussian_moment(
                            gamma, omega.lam, mode)
    return FormalScalarSeries.from_terms2(mode, terms, trunc)


def assert_pairs_match_reference(elems, omega, through2=None):
    for u in elems:
        for v in elems:
            got = pair_s0(u, v, omega, through2=through2)
            want = multiply_then_integrate(u, v, omega, got.trunc2)
            assert got == want


@functools.lru_cache(maxsize=None)
def pipeline_context(preset: str, order: int, mode_name: str = "exact"):
    spec = preset_problem(preset, mode_name=mode_name, order=order)
    return compute_quasimodes(spec.problem, spec.order, e0=spec.level_value).context


def projected_level_basis(ctx):
    return [ctx.projector.image_s0(m) for m in ctx.level.members]


def curved_metric_elements():
    """Elements and weight of a 1-D well whose metric density, of
    g^11 = 1 + x^2/2, enters omega (see test_curved_metric_term)."""
    g = ((poly1({0: 1, 2: F(1, 2)}),),)
    problem = make_problem(poly1({2: 1, 3: F(1, 3)}), D=6, g_inv=g)
    omega = omega_for(problem, through2=4)
    basis = HermiteBasis(EXACT, (F(1),), (F(0),), 6)
    elems = [S0Series.from_fiber_poly(unit_fiber(basis.poly((a,))), 4)
             for a in range(4)]
    elems.append(S0Series(EXACT, 1, 1, 1, {
        1: unit_fiber(poly1({1: 1})),
        2: unit_fiber(poly1({0: F(-2, 3), 1: 1, 2: F(1, 5)})),
    }, 3))
    return elems, omega


class TestPairingOracle:
    """pair_s0 contracts integrands against cached weight functionals; it must
    agree with forming the product polynomials and integrating them."""

    def test_curved_metric_weight(self):
        elems, omega = curved_metric_elements()
        assert not omega.omega2[2].is_zero()
        assert_pairs_match_reference(elems, omega)

    def test_rank2_fibres_with_connection(self):
        ctx = pipeline_context("rank2", 3)
        assert ctx.problem.rank == 2 and ctx.problem.Gamma
        assert_pairs_match_reference(projected_level_basis(ctx), ctx.omega)

    def test_iso2d_projected_level_basis(self):
        ctx = pipeline_context("iso2d", 4)
        assert_pairs_match_reference(projected_level_basis(ctx), ctx.omega, through2=8)

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
                want = multiply_then_integrate(u, v, ctx.omega, got.trunc2)
                scale = max(scale, want.max_abs_coeff(got.trunc2))
                worst = max(worst, (got - want).max_abs_coeff(got.trunc2))
        assert scale >= 0.5
        assert worst <= 1e-12 * scale

    def test_weights_with_equal_lambda_keep_separate_tables(self):
        omegas = {}
        for c in (1, 2):
            problem = preset_problem(f"cubic1d:c={c}", order=4).problem
            omegas[c] = omega_for(problem)
        assert omegas[1].lam == omegas[2].lam
        u = S0Series.from_fiber_poly(unit_fiber(poly1({0: 1, 1: 2, 3: -1})), 4)
        first = {c: pair_s0(u, u, omegas[c]) for c in (1, 2)}
        assert first[1] != first[2]
        assert omegas[1].table is not omegas[2].table
        for m in set(omegas[1].table) & set(omegas[2].table):
            assert omegas[1].table[m] is not omegas[2].table[m]
        # interleaved calls read only their own weight's entries
        for c in (2, 1, 2):
            got = pair_s0(u, u, omegas[c])
            assert got == first[c]
            assert got == multiply_then_integrate(u, u, omegas[c], got.trunc2)


@pytest.mark.parametrize("preset", ["iso2d", "rank2"])
def test_each_total_order_contracted_once(preset, monkeypatch):
    """pair_s0 sums the fiber integrands that share a base order au + av and
    applies each weight functional L_m to that sum once."""
    ctx = pipeline_context(preset, 3)
    u, v = projected_level_basis(ctx)
    calls = []
    real = _Functional.pair

    def counting(self, integrand):
        calls.append(self)
        return real(self, integrand)

    monkeypatch.setattr(_Functional, "pair", counting)
    got = pair_s0(u, v, ctx.omega)
    trunc = got.trunc2
    # base orders with a fiber component that both sides carry
    bases = {(ju - u.K2) + (jv - v.K2) for ju, pu in u.coeffs2.items()
             for jv, pv in v.coeffs2.items()
             if any(not a.is_zero() and not b.is_zero()
                    for a, b in zip(pu.components, pv.components))}
    per_base = [(b, m) for b in bases for m in ctx.omega.orders2() if b + m <= trunc]
    per_pair = [m for ju in u.coeffs2 for jv in v.coeffs2 for m in ctx.omega.orders2()
                if (ju - u.K2) + (jv - v.K2) + m <= trunc]
    assert len(calls) == len(per_base) < len(per_pair)
    assert got == multiply_then_integrate(u, v, ctx.omega, trunc)


def level_elements(case: str):
    """Elements and weight for the hermitian pairing tests: the wave-operator
    level basis and the projected level images of a preset, or the
    curved-metric elements. In the "complex" cases the float elements' order-j
    coefficients are multiplied by 1 + (i + 1)j for their i-th order, so that
    no pairing integrand is real."""
    if case == "curved":
        return curved_metric_elements()
    preset, order, mode_name = case.split("-")
    ctx = pipeline_context(preset, int(order), "float" if mode_name == "complex" else mode_name)
    waves, _ = ctx.projector.wave_operator2()
    level_basis = [ctx.projector.as_s0(m, vecs) for m, vecs in zip(ctx.level.members, waves)]
    elems = level_basis + projected_level_basis(ctx)
    if mode_name == "complex":
        elems = [S0Series(u.mode, u.n, u.rank, u.K2,
                          {j: p.scale(complex(1, i + 1)) for i, (j, p) in enumerate(u.items2())},
                          u.trunc2) for u in elems]
    return elems, ctx.omega


HERMITIAN_CASES = ["iso2d-4-exact", "rank2-3-exact", "curved", "iso2d-4-float", "rank2-3-float",
                   "rank2-3-complex"]


def assert_pairings_agree(got, want, scale):
    if got.mode.name == "exact":
        assert got == want
    else:
        assert got.trunc2 == want.trunc2
        assert (got - want).max_abs_coeff(got.trunc2) <= 1e-12 * scale


def gram_scale(elems, omega) -> float:
    """The largest coefficient of the elements' Gram matrix."""
    return max(pair_s0(u, v, omega).max_abs_coeff(None) for u in elems for v in elems)


@pytest.mark.parametrize("case", HERMITIAN_CASES)
def test_pairing_with_itself_forms_each_mirrored_product_once(case, monkeypatch):
    """pair_s0(u, u) forms the conjugate integrands of the orders (j, l) and
    (l, j) once (counted as the calls of the product kernel ``_add_product``),
    and equals the pairing of u with a copy of itself: exactly in
    exact mode, within 1e-12 of the Gram's largest coefficient in float mode."""
    elems, omega = level_elements(case)
    scale = gram_scale(elems, omega)
    products = []

    def counting(*args):
        products.append(1)
        return _add_product(*args)

    monkeypatch.setattr(gaussian_pairing, "_add_product", counting)
    for u in elems:
        copy = S0Series(u.mode, u.n, u.rank, u.K2, dict(u.coeffs2), u.trunc2)
        products.clear()
        got = pair_s0(u, u, omega)
        once = len(products)
        products.clear()
        want = pair_s0(u, copy, omega)
        assert_pairings_agree(got, want, scale)
        if len(u.coeffs) > 1:
            assert once < len(products)


@pytest.mark.parametrize("case", HERMITIAN_CASES)
def test_pairing_is_hermitian(case):
    """(u, v) is the conjugate of (v, u): the projector's symmetry law reads
    (a, P b) as the conjugate of (P b, a)."""
    elems, omega = level_elements(case)
    scale = gram_scale(elems, omega)
    for u in elems:
        for v in elems:
            assert_pairings_agree(pair_s0(u, v, omega), pair_s0(v, u, omega).conj(), scale)
