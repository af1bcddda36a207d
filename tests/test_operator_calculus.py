from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmf.cli_io import parse_problem_spec, preset_problem
from qmf.harmonic_oscillator import HermiteBasis, HermiteIndex
from qmf.series_algebra import EXACT, FiberPoly, Poly, float_mode
from qmf.operator_calculus import (
    DiffOpJet,
    EikonalError,
    JetProblem,
    ProblemValidationError,
    ScalarJet,
    conjugate_hamiltonian,
    pm_is_zero,
    poly_det,
    poly_power_jet,
    rescale_operator,
    solve_eikonal,
)

from hermite_oracle import apply_by_elimination

F = Fraction


def poly1(coeffs):
    """1-D polynomial from {degree: value}."""
    return Poly(EXACT, 1, {(d,): F(v) for d, v in coeffs.items()})


def scalar_problem(vhigher, D=8, lam=(1,), n=1, g_inv=None):
    V = None
    if vhigher is not None:
        V = vhigher
    return JetProblem.create(EXACT, n, 1, D, lam, V=V, g_inv=g_inv)


def eikonal_oracle_1d(c, through):
    """Independent series for the phase of x^2 + c x^3: integral of t*sqrt(1+ct).

    sqrt(1+u) is expanded binomially, multiplied by t, and integrated
    term by term; all arithmetic in exact rationals.
    """
    terms = {}
    coeff = F(1)
    # sqrt(1+ct) = sum_k binom(1/2,k) c^k t^k
    for k in range(0, through):
        if k > 0:
            coeff = coeff * (F(1, 2) - (k - 1)) / k
        ck = coeff * F(c) ** k
        # integrate t^(k+1): x^(k+2)/(k+2)
        if k + 2 <= through:
            terms[k + 2] = ck / (k + 2)
    return poly1(terms)


class TestEikonal:
    def test_harmonic_is_exact(self):
        p = scalar_problem(None)
        phi = solve_eikonal(p)
        assert phi.poly == poly1({2: F(1, 2)})

    def test_cubic_matches_integral_oracle(self):
        c = 1
        p = scalar_problem(poly1({2: 1, 3: c}), D=8)
        phi = solve_eikonal(p)
        oracle = eikonal_oracle_1d(c, 10)
        assert phi.poly.truncate_degree(10) == oracle.truncate_degree(10)
        # spot values: x^2/2 + x^3/6 - x^4/32 + ...
        assert phi.poly.coefficient((3,)) == F(1, 6)
        assert phi.poly.coefficient((4,)) == F(-1, 32)

    def test_cubic_square_identity(self):
        p = scalar_problem(poly1({2: 1, 3: 1}), D=8)
        phi = solve_eikonal(p)
        dphi = phi.poly.diff(0)
        assert (dphi * dphi - p.V).truncate_degree(p.D + 2).is_zero()

    def test_decoupled_2d(self):
        p = JetProblem.create(EXACT, 2, 1, 6, (1, 2))
        phi = solve_eikonal(p)
        want = Poly(EXACT, 2, {(2, 0): F(1, 2), (0, 2): F(1)})
        assert phi.poly == want

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ProblemValidationError):
            JetProblem.create(EXACT, 1, 1, 4, (0,))

    def test_rejects_unnormalized_quadratic(self):
        with pytest.raises(ProblemValidationError):
            JetProblem.create(EXACT, 1, 1, 4, (1,), V=poly1({2: 2}))

    def test_curved_metric_eikonal(self):
        # g^11 = 1 + a x^2: residual must still vanish through D + 2
        a = F(1, 4)
        g = ((poly1({0: 1, 2: a}),),)
        p = scalar_problem(poly1({2: 1, 3: 1}), D=6, g_inv=g)
        phi = solve_eikonal(p)
        dphi = phi.poly.diff(0)
        res = (g[0][0] * dphi * dphi - p.V).truncate_degree(p.D + 2)
        assert res.is_zero()


def mono_fiber(alpha, value=1, rank=1, k=0, n=None):
    n = n if n is not None else len(alpha)
    return FiberPoly.unit(Poly.monomial(EXACT, n, alpha, value), rank, k)


class TestConjugation:
    def test_harmonic_transport_operator(self):
        p = scalar_problem(None)
        phi = solve_eikonal(p)
        conj = conjugate_hamiltonian(p, phi)
        # second-order part is -d^2, transport part is 2x d + 1
        two_x_d = conj.hbar1.apply(mono_fiber((1,)))
        assert two_x_d == mono_fiber((1,), 3)  # (2x d + 1) x = 3x
        assert conj.hbar1.apply(mono_fiber((0,))) == mono_fiber((0,))
        lap = conj.hbar2.apply(mono_fiber((2,)))
        assert lap == mono_fiber((0,), -2)

    def test_cubic_degree_one_piece(self):
        c = F(1)
        p = scalar_problem(poly1({2: 1, 3: c}), D=8)
        phi = solve_eikonal(p)
        conj = conjugate_hamiltonian(p, phi)
        a1 = conj.hbar1.graded_pieces()[1]
        # degree-1 transport piece c*(x^2 d + x): check on 1 and on x
        assert a1.apply(mono_fiber((0,))) == mono_fiber((1,), c)
        assert a1.apply(mono_fiber((1,))) == mono_fiber((2,), 2 * c)

    def test_witten_kernel_identity(self):
        # V = (phi')^2, W = -phi'' for phi = x^2/2 + x^3/6:
        # the transport operator annihilates constants identically
        c = F(1)
        dphi = poly1({1: 1, 2: c / 2})
        V = dphi * dphi
        W = ((poly1({0: -1, 1: -c}),),)
        p = JetProblem.create(EXACT, 1, 1, 8, (1,), V=V, W=W)
        phi = solve_eikonal(p)
        assert phi.poly == poly1({2: F(1, 2), 3: c / 6})
        conj = conjugate_hamiltonian(p, phi)
        assert conj.hbar1.apply(mono_fiber((0,))).is_zero()

    def test_eikonal_residual_rejected(self):
        p = scalar_problem(poly1({2: 1, 3: 1}), D=6)
        bad_phi = ScalarJet(poly1({2: F(1, 2)}), 8)  # ignores the cubic term
        with pytest.raises(EikonalError):
            conjugate_hamiltonian(p, bad_phi)


WELL_3D = """
[problem]
n = 3
rank = 1
mode = exact
order = 2
[lambda]
1
1
1
[potential]
3 0 0  1
1 1 1  1
0 2 1  1
0 0 4  1
"""

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


@pytest.mark.parametrize("problem", [
    preset_problem("cubic1d").problem,
    preset_problem("rank2").problem,   # with a connection
    parse_problem_spec(WELL_3D).problem,
    parse_problem_spec(CURVED_WELL).problem,
], ids=["cubic1d", "rank2", "well3d", "curved"])
def test_conjugation_rejects_a_phase_wrong_at_any_degree(problem):
    """The eikonal is checked only in ``conjugate_hamiltonian``: a phase off
    by x_1^d / 7 must fail there at every degree d the phase is exact through."""
    phi = solve_eikonal(problem)
    conjugate_hamiltonian(problem, phi)
    for d in range(3, problem.D + 3):
        alpha = (d,) + (0,) * (problem.n - 1)
        bad = phi.poly + Poly.monomial(problem.mode, problem.n, alpha, F(1, 7))
        with pytest.raises(EikonalError):
            conjugate_hamiltonian(problem, ScalarJet(bad, phi.complete))


@pytest.mark.parametrize("preset", ["cubic1d", "iso2d", "rank2"])
def test_graded_pieces_are_homogeneous_and_sum_to_operator(preset):
    p = preset_problem(preset).problem
    conj = conjugate_hamiltonian(p, solve_eikonal(p))
    for op in (conj.hbar2, conj.hbar1):
        pieces = op.graded_pieces()
        total = DiffOpJet.zero(EXACT, p.n, p.rank)
        for piece in pieces.values():
            total = total + piece
        assert total.terms == op.terms
        for d, piece in pieces.items():
            for alpha in product(range(5), repeat=p.n):
                k = sum(alpha)
                if k > 4:
                    continue
                for slot in range(p.rank):
                    img = piece.apply(mono_fiber(alpha, rank=p.rank, k=slot))
                    assert all(sum(beta) == k + d
                               for comp in img.components for beta in comp.terms), (d, alpha)


class TestRescaledFamily:
    def q0_of(self, p):
        phi = solve_eikonal(p)
        fam = rescale_operator(conjugate_hamiltonian(p, phi))
        return fam

    def test_harmonic_q0_and_vanishing_tail(self):
        p = scalar_problem(None)
        fam = self.q0_of(p)
        q0 = fam.get2(0)
        # Q0 = -d^2 + 2y d + 1 on scalars with unit frequency
        assert q0.apply(mono_fiber((0,))) == mono_fiber((0,))
        assert q0.apply(mono_fiber((1,))) == mono_fiber((1,), 3)
        q2 = q0.apply(mono_fiber((2,)))
        assert q2 == mono_fiber((2,), 5) + mono_fiber((0,), -2)
        for j in fam.orders2():
            if j != 0:
                assert fam.get2(j).is_zero()

    def test_cubic_half_order_piece(self):
        c = F(1)
        p = scalar_problem(poly1({2: 1, 3: c}), D=8)
        fam = self.q0_of(p)
        q_half = fam.get2(1)
        # c (y^2 d + y) in the blown-up variable
        assert q_half.apply(mono_fiber((0,))) == mono_fiber((1,), c)
        assert q_half.apply(mono_fiber((1,))) == mono_fiber((2,), 2 * c)

    def test_rank2_w_shift(self):
        W = (
            (poly1({0: 2}), Poly.zero(EXACT, 1)),
            (Poly.zero(EXACT, 1), poly1({0: 5})),
        )
        p = JetProblem.create(EXACT, 1, 2, 6, (1,), W=W)
        fam = self.q0_of(p)
        q0 = fam.get2(0)
        e1 = mono_fiber((0,), rank=2, k=0)
        e2 = mono_fiber((0,), rank=2, k=1)
        assert q0.apply(e1) == e1.scale(3)   # 1 + mu_1
        assert q0.apply(e2) == e2.scale(6)   # 1 + mu_2

    def test_grading_property(self):
        # output degrees of Q_j on a monomial lie in {d + 2j - 2, d + 2j}
        p = scalar_problem(poly1({2: 1, 3: 1, 4: F(1, 3)}), D=8)
        fam = self.q0_of(p)
        for j in fam.orders2():
            op = fam.get2(j)
            for d in range(0, 4):
                img = op.apply(mono_fiber((d,)))
                degs = {m for m, c in enumerate([img.components[0].coefficient((m,))
                                                 for m in range(0, 12)]) if c != 0}
                allowed = {d + j - 2, d + j}
                assert degs <= allowed

    def test_max_order_scales_with_D(self):
        p = scalar_problem(poly1({2: 1, 3: 1}), D=8)
        fam = self.q0_of(p)
        assert fam.max_order2 >= 8  # j <= D/2 = 4


class TestDiffOpJet:
    def test_compose_leibniz(self):
        d = DiffOpJet.derivative(EXACT, 1, 1, 0)
        x = DiffOpJet.scalar_multiplication(poly1({1: 1}), 1)
        # d . x = x d + 1
        dx = d.compose(x)
        q = mono_fiber((3,))
        assert dx.apply(q) == d.apply(x.apply(q))
        xd = x.compose(d)
        assert dx.apply(q) == xd.apply(q) + q

    def test_apply_diffop_spec_examples(self):
        # (y d)(y^2) = 2 y^2
        y = Poly.variable(EXACT, 1, 0)
        yd = DiffOpJet(EXACT, 1, 1, {(1,): ((y,),)})
        assert yd.apply(mono_fiber((2,))) == mono_fiber((2,), 2)

    def test_rank_mismatch(self):
        y = Poly.variable(EXACT, 1, 0)
        yd = DiffOpJet(EXACT, 1, 1, {(1,): ((y,),)})
        with pytest.raises(ValueError, match="rank mismatch"):
            yd.apply(mono_fiber((1,), rank=2))

    def test_variable_count_mismatch(self):
        y = Poly.variable(EXACT, 1, 0)
        yd = DiffOpJet(EXACT, 1, 1, {(1,): ((y,),)})
        with pytest.raises(ValueError, match="variable count"):
            yd.apply(mono_fiber((1, 0)))

    def test_mode_mixing(self):
        y = Poly.variable(EXACT, 1, 0)
        yd = DiffOpJet(EXACT, 1, 1, {(1,): ((y,),)})
        q = FiberPoly([Poly.monomial(float_mode(), 1, (2,))])
        with pytest.raises(ValueError, match="mixing coefficient modes"):
            yd.apply(q)
        with pytest.raises(ValueError, match="mixing coefficient modes"):
            DiffOpJet.zero(float_mode(), 1, 1).apply(mono_fiber((2,)))


# -- the compiled stencil of DiffOpJet.apply against the loop it replaced


def ref_apply_vec(a, v):
    """Matrix of polynomials times a fiber polynomial, one product per entry."""
    comps = []
    for row in a:
        acc = Poly.zero(v.mode, v.n)
        for entry, comp in zip(row, v.components):
            if not entry.is_zero() and not comp.is_zero():
                acc = acc + entry * comp
        comps.append(acc)
    return FiberPoly(comps)


def ref_apply(op, q):
    """Differentiate q by each beta, then multiply by C_beta, summing over beta."""
    out = FiberPoly.zero(op.mode, op.n, op.rank)
    for beta, m in op.terms.items():
        dq = q
        for i, bi in enumerate(beta):
            for _ in range(bi):
                dq = FiberPoly([c.diff(i) for c in dq.components])
        if dq.is_zero():
            continue
        out = out + ref_apply_vec(m, dq)
    return out


FRACS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def coeff_dicts(n, top):
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * n), FRACS, max_size=4)


def jet_cases():
    """(n, rank, operator data {beta: rank x rank coefficient dicts}, fiber data)."""
    def for_shape(n, rank):
        betas = [b for b in product(range(3), repeat=n) if sum(b) <= 2]
        mat = st.lists(st.lists(coeff_dicts(n, 3), min_size=rank, max_size=rank),
                       min_size=rank, max_size=rank)
        return st.tuples(st.just(n), st.just(rank),
                         st.dictionaries(st.sampled_from(betas), mat, max_size=4),
                         st.lists(coeff_dicts(n, 4), min_size=rank, max_size=rank))
    return st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(lambda s: for_shape(*s))


def build_case(mode, case, value=lambda c: c):
    n, rank, op_data, q_data = case
    def poly(d):
        return Poly(mode, n, {a: mode.coeff(value(c)) for a, c in d.items()})
    op = DiffOpJet(mode, n, rank, {beta: tuple(tuple(map(poly, row)) for row in m)
                                   for beta, m in op_data.items()})
    return op, FiberPoly([poly(d) for d in q_data])


def max_total_degree(q):
    return max((comp.degree() for comp in q.components if not comp.is_zero()), default=0)


class TestCompiledApply:
    @given(jet_cases())
    @settings(max_examples=150, deadline=None)
    def test_exact_matches_reference_loop(self, case):
        op, q = build_case(EXACT, case)
        assert op.apply(q) == ref_apply(op, q)

    @given(jet_cases())
    @settings(max_examples=150, deadline=None)
    def test_float_matches_reference_loop(self, case):
        mode = float_mode()
        op, q = build_case(mode, case)
        got, want = op.apply(q), ref_apply(op, q)
        # relative to the sum of |terms| that meet at each monomial: the
        # image of |q| under the operator with |coefficients|, in exact arithmetic
        aop, aq = build_case(EXACT, case, abs)
        scale = ref_apply(aop, aq)
        for g, w, sc in zip(got.components, want.components, scale.components):
            bound = 1e-12 * max([float(c) for c in sc.terms.values()] + [1.0])
            for a in set(g.terms) | set(w.terms):
                assert abs(g.coefficient(a) - w.coefficient(a)) <= bound, a

    @given(jet_cases(), st.sampled_from([EXACT, float_mode()]))
    @settings(max_examples=150, deadline=None)
    def test_through_is_truncation(self, case, mode):
        op, q = build_case(mode, case)
        full = op.apply(q)
        for d in range(-2, max_total_degree(q) + 5):
            assert op.apply(q, through=d) == full.truncate_degree(d), d

    @pytest.mark.parametrize("preset", ["cubic1d", "iso2d", "rank2"])
    def test_family_matches_reference_loop(self, preset):
        p = preset_problem(preset).problem
        conj = conjugate_hamiltonian(p, solve_eikonal(p))
        fam = rescale_operator(conj)
        ops = [conj.hbar1, conj.hbar2] + [fam.get2(j) for j in fam.orders2()]
        for op in ops:
            for alpha in product(range(4), repeat=p.n):
                for slot in range(p.rank):
                    q = mono_fiber(alpha, value=F(3, 7), rank=p.rank, k=slot)
                    assert op.apply(q) == ref_apply(op, q), alpha


# -- degree-bounded products against the full product, cut afterwards


def square_mats(n, size):
    return st.lists(st.lists(coeff_dicts(n, 3), min_size=size, max_size=size),
                    min_size=size, max_size=size)


def poly_mat(mode, n, data):
    return tuple(tuple(Poly(mode, n, {a: mode.coeff(c) for a, c in d.items()}) for d in row)
                 for row in data)


def compose_cases():
    """(n, rank, operator data A, B, complete of A, B)."""
    def ops(n, rank):
        betas = [b for b in product(range(3), repeat=n) if sum(b) <= 2]
        return st.dictionaries(st.sampled_from(betas), square_mats(n, rank), max_size=3)
    completes = st.one_of(st.none(), st.integers(-1, 4))
    return st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(
        lambda s: st.tuples(st.just(s[0]), st.just(s[1]), ops(*s), ops(*s), completes, completes))


MODES = st.sampled_from([EXACT, float_mode()])


class TestBoundedProducts:
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(st.just(s[0]), square_mats(*s))), st.integers(-2, 9), MODES)
    @settings(max_examples=150, deadline=None)
    def test_det_is_the_cut_det(self, case, d, mode):
        n, data = case
        m = poly_mat(mode, n, data)
        assert poly_det(m, d) == poly_det(m).truncate_degree(d)

    @given(compose_cases(), MODES)
    @settings(max_examples=150, deadline=None)
    def test_compose_is_the_full_product_cut_at_complete(self, case, mode):
        n, rank, data_a, data_b, ca, cb = case

        def op(data, complete):
            return DiffOpJet(mode, n, rank, {beta: poly_mat(mode, n, m) for beta, m in data.items()},
                             complete)

        got = op(data_a, ca).compose(op(data_b, cb))
        full = op(data_a, None).compose(op(data_b, None))
        want = full.terms
        if got.complete is not None:
            cut = {key: tuple(tuple(x.truncate_degree(got.complete + sum(key)) for x in row)
                              for row in m) for key, m in want.items()}
            want = {key: m for key, m in cut.items() if not pm_is_zero(m)}
        assert got.terms == want


POSITIVE = st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))


class TestHermiteAction:
    """``HermiteBasis.apply`` (Appell table algebra) against the elimination oracle."""

    @given(jet_cases(), st.lists(POSITIVE, min_size=2, max_size=2),
           st.lists(st.integers(0, 4), min_size=2, max_size=2), st.integers(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_elimination(self, case, lam, alpha, k):
        n, rank = case[0], case[1]
        index = HermiteIndex(tuple(alpha[:n]), k % rank)
        # coefficient monomials have |gamma| <= 3n, so the image stays in the basis
        degree = index.degree + 3 * n

        def action(mode, value=lambda c: c):
            op, _ = build_case(mode, case, value)
            basis = HermiteBasis(mode, tuple(map(mode.coeff, lam[:n])), (mode.zero(),) * rank,
                                 degree)
            num, den = basis.apply(op, basis.position(index))
            return basis, op, {basis.index_at[i]: mode.join(c, den) for i, c in num.items()}

        basis, op, got = action(EXACT)
        want = apply_by_elimination(basis, op, index)
        assert got == want
        # float: within rtol of the exact value, relative to the sum of the
        # magnitudes met at each index (the action of the |coefficients|)
        mode = float_mode(rtol=1e-12)
        _, _, fgot = action(mode)
        _, _, scale = action(EXACT, abs)
        for i in set(fgot) | set(want):
            err = abs(fgot.get(i, 0) - complex(want.get(i, 0)))
            assert mode.negligible(err, float(scale.get(i, 0))), i


def density_jet(problem):
    return conjugate_hamiltonian(problem, solve_eikonal(problem)).density


class TestMetricDensity:
    def test_flat_is_one(self):
        p = scalar_problem(None)
        assert density_jet(p) == poly1({0: 1})

    def test_curved_1d_against_direct_expansion(self):
        # g^11 = 1 + a x^2  =>  g_11 = 1 - a x^2 + a^2 x^4 - ...
        # sqrt(g_11) = 1 - a x^2 / 2 + (3 a^2 / 8) x^4 - ...
        a = F(1, 2)
        g = ((poly1({0: 1, 2: a}),),)
        p = scalar_problem(poly1({2: 1}), D=6, g_inv=g)
        G = density_jet(p)
        assert G.coefficient((2,)) == -a / 2
        assert G.coefficient((4,)) == 3 * a * a / 8

    def test_float_mode_matches_exact(self):
        a = F(1, 2)
        gx = ((poly1({0: 1, 2: a}),),)
        pe = scalar_problem(poly1({2: 1}), D=6, g_inv=gx)
        Ge = density_jet(pe)
        m = float_mode()
        gf = ((Poly(m, 1, {(0,): 1.0, (2,): 0.5}),),)
        pf = JetProblem.create(m, 1, 1, 6, (1.0,), V=Poly(m, 1, {(2,): 1.0}), g_inv=gf)
        Gf = density_jet(pf)
        for d in range(7):
            assert abs(Gf.coefficient((d,)) - float(Ge.coefficient((d,)))) < 1e-12


def ref_poly_power_jet(p, expo, through):
    """(1 + u)^expo as sum_k binom(expo, k) u^k, one product per power."""
    one = Poly.const(p.mode, p.n, 1)
    u = p - one
    out = term = one
    coeff = F(1)
    for k in range(1, through + 1):
        coeff = coeff * (expo - (k - 1)) / k
        term = term.mul(u, through)
        out = out + term.scale(p.mode.coeff(coeff))
    return out


@st.composite
def unit_jets(draw):
    """1 + u in one or two variables, u of minimal degree >= 1, and a degree bound."""
    n = draw(st.integers(1, 2))
    monomials = [a for a in product(range(5), repeat=n) if 1 <= sum(a) <= 4]
    u = draw(st.dictionaries(st.sampled_from(monomials), FRACS, max_size=5))
    return Poly(EXACT, n, {(0,) * n: F(1), **u}), draw(st.integers(0, 6))


class TestPolyPowerJet:
    @given(unit_jets(), st.sampled_from([F(1, 2), F(-1, 2), F(-1)]))
    @settings(max_examples=100, deadline=None)
    def test_matches_power_sum(self, case, expo):
        p, through = case
        assert poly_power_jet(p, expo, through) == ref_poly_power_jet(p, expo, through)

    def test_rejects_a_constant_perturbation(self):
        with pytest.raises(ValueError):
            poly_power_jet(poly1({0: 2, 1: 1}), F(-1, 2), 4)


class TestValidation:
    def test_w_must_be_hermitian(self):
        W = (
            (poly1({0: 0}), poly1({1: 1})),
            (poly1({1: -1}), poly1({0: 0})),
        )
        with pytest.raises(ProblemValidationError):
            JetProblem.create(EXACT, 1, 2, 4, (1,), W=W)

    def test_exact_mode_requires_diagonal_w0(self):
        W = (
            (poly1({0: 0}), poly1({0: 1})),
            (poly1({0: 1}), poly1({0: 0})),
        )
        with pytest.raises(ProblemValidationError):
            JetProblem.create(EXACT, 1, 2, 4, (1,), W=W)

    def test_float_mode_diagonalizes_w0(self):
        m = float_mode()
        z = Poly.zero(m, 1)
        W = (
            (z, Poly.const(m, 1, 1.0)),
            (Poly.const(m, 1, 1.0), z),
        )
        p = JetProblem.create(m, 1, 2, 4, (1.0,), W=W)
        assert sorted(x.real for x in p.mu) == pytest.approx([-1.0, 1.0])

    def test_gamma_skew(self):
        G1 = (
            (poly1({0: 0}), poly1({1: 1})),
            (poly1({1: 1}), poly1({0: 0})),
        )
        with pytest.raises(ProblemValidationError):
            JetProblem.create(EXACT, 1, 2, 4, (1,), Gamma=(G1,))
