import random
from fractions import Fraction

import pytest

from qmf.series_algebra import EXACT, FiberPoly, Poly, S0Series, float_mode
from qmf.gaussian_pairing import WeightExpansion, pair_s0
from qmf.harmonic_oscillator import (
    HermiteBasis,
    HermiteIndex,
    LevelNotFoundError,
    build_spectrum,
    degenerate_level,
    level_by_index,
)
from qmf.cli_io import PRESETS, parse_problem_spec, preset_problem
from qmf.operator_calculus import JetProblem, conjugate_hamiltonian, rescale_operator, solve_eikonal
from qmf.projection_engine import HermiteVec

from hermite_oracle import apply_by_elimination, expand

F = Fraction


def basis_1d(lam=F(1), degree=8, mu=(F(0),)):
    return HermiteBasis(EXACT, (EXACT.coeff(lam),), tuple(EXACT.coeff(m) for m in mu), degree)


def synthesize(b: HermiteBasis, coeffs: dict) -> FiberPoly:
    """``b.synthesize`` of coefficients keyed by ``HermiteIndex``, passed as the
    numerators and denominator of the ``HermiteVec`` keyed by basis key."""
    vec = HermiteVec.of(b.mode, {b.key(i): c for i, c in coeffs.items()})
    return b.synthesize(vec.num, vec.den)


class TestHermiteBasis:
    def test_monic_recurrence_values(self):
        b = basis_1d()
        # p2 = y^2 - 1/2, p3 = y^3 - (3/2) y for unit frequency
        assert b.poly((2,)) == Poly(EXACT, 1, {(2,): F(1), (0,): F(-1, 2)})
        assert b.poly((3,)) == Poly(EXACT, 1, {(3,): F(1), (1,): F(-3, 2)})

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_poly_is_the_three_term_recurrence_at_every_index(self, mode):
        # the one-dimensional table is built on first use, in any order of
        # reads: every alpha up to the degree, highest first, against
        # p_(m+1) = y p_m - (m / (2 lambda)) p_(m-1) in each variable
        lam = (mode.coeff(F(3, 2)), mode.coeff(F(2, 3)))
        degree = 6
        b = HermiteBasis(mode, lam, (mode.zero(),), degree)
        table = []
        for nu, lam_nu in enumerate(lam):
            y = Poly.variable(mode, 2, nu)
            p = [Poly.const(mode, 2, 1), y]
            for m in range(1, degree):
                p.append(y * p[m] - p[m - 1].scale(mode.coeff(F(m)) / (lam_nu + lam_nu)))
            table.append(p)
        indices = [i.alpha for i in b.indices()]
        for alpha in sorted(indices, key=sum, reverse=True):
            assert b.poly(alpha) == table[0][alpha[0]] * table[1][alpha[1]], alpha
        for alpha in [(degree + 1, 0), (0, degree + 1), (4, 3)]:
            with pytest.raises(ValueError):
                b.poly(alpha)

    def test_hermite_ode_eigenrelation(self):
        # -p'' + 2 lam y p' = 2 m lam p for every family member
        lam = F(3, 2)
        b = basis_1d(lam=lam)
        y = Poly.variable(EXACT, 1, 0)
        for m in range(7):
            p = b.poly((m,))
            lhs = -p.diff(0).diff(0) + (y * p.diff(0)).scale(2 * lam)
            assert lhs == p.scale(2 * m * lam)

    def test_norm2(self):
        lam = F(2)
        b = basis_1d(lam=lam)
        omega0 = WeightExpansion(EXACT, (lam,), {0: Poly.const(EXACT, 1, 1)}, 0)

        def norm2(m):
            p = S0Series.from_fiber_poly(FiberPoly([b.poly((m,))]))
            return pair_s0(p, p, omega0).at2(0)

        # m! / (2 lam)^m
        assert norm2(0) == F(1)
        assert norm2(1) == F(1, 4)
        assert norm2(3) == F(6, 64)

    def test_expand_examples(self):
        b = basis_1d()
        one = FiberPoly([Poly.const(EXACT, 1, 1)])
        assert expand(b, one) == {HermiteIndex((0,), 0): F(1)}
        y = FiberPoly([Poly.variable(EXACT, 1, 0)])
        assert expand(b, y) == {HermiteIndex((1,), 0): F(1)}
        ysq = FiberPoly([Poly.monomial(EXACT, 1, (2,))])
        assert expand(b, ysq) == {HermiteIndex((2,), 0): F(1),
                                  HermiteIndex((0,), 0): F(1, 2)}

    def test_expand_synthesize_roundtrip_random(self):
        rng = random.Random(7)
        b = HermiteBasis(EXACT, (F(1), F(2)), (F(0), F(1)), 6)
        for _ in range(10):
            terms = {}
            for _ in range(8):
                a = (rng.randint(0, 3), rng.randint(0, 3))
                terms[a] = F(rng.randint(-5, 5))
            q = FiberPoly([Poly(EXACT, 2, terms), Poly(EXACT, 2, {(1, 1): F(2)})])
            assert synthesize(b, expand(b, q)) == q

    def test_expand_synthesize_roundtrip_rational(self):
        # rational coefficients and frequencies: the elimination's common
        # denominator has to grow while it strips terms
        rng = random.Random(11)
        b = HermiteBasis(EXACT, (F(3, 2), F(5, 7)), (F(0), F(1, 3)), 6)
        for _ in range(10):
            comps = []
            for _ in range(2):
                terms = {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-9, 9), rng.randint(1, 12))
                         for _ in range(8)}
                comps.append(Poly(EXACT, 2, terms))
            q = FiberPoly(comps)
            coeffs = expand(b, q)
            assert all(type(c) is Fraction and c for c in coeffs.values())
            assert synthesize(b, coeffs) == q

    def test_index_hash_and_order_are_those_of_the_pair(self):
        a, b = HermiteIndex((1, 2), 0), HermiteIndex((1, 2), 0)
        assert a == b and a is not b and hash(a) == hash(b) == hash(((1, 2), 0))
        assert HermiteIndex((1, 2), 1) != a
        idx = [HermiteIndex((2, 0), 1), HermiteIndex((0, 2), 0), HermiteIndex((2, 0), 0)]
        assert sorted(idx) == sorted(idx, key=lambda i: (i.alpha, i.k))
        assert repr(a) == "HermiteIndex(alpha=(1, 2), k=0)"

    def test_degree_and_parity(self):
        b = basis_1d()
        for m in range(6):
            p = b.poly((m,))
            assert p.degree() == m
            assert {sum(a) % 2 for a in p.terms} == {m % 2}


WELL_3D = """
[problem]
n = 3
rank = 1
mode = {mode}
order = {order}

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


def family_and_basis(source, mode_name, order, degree):
    if source == "well3d":
        problem = parse_problem_spec(WELL_3D.format(mode=mode_name, order=order)).problem
    else:
        problem = preset_problem(source, mode_name, order=order).problem
    family = rescale_operator(conjugate_hamiltonian(problem, solve_eikonal(problem)))
    orders = [j for j in family.orders2() if j <= 2 * order]
    basis = HermiteBasis(problem.mode, problem.lam, problem.mu, degree + orders[-1])
    return family, orders, basis


# a float image may keep rounding where the exact entry cancels
ROUNDED_SUPPORT = {("well3d", 4)}


@pytest.mark.parametrize("source, order, degree", [
    ("cubic1d", 6, 8), ("iso2d", 4, 8), ("rank2", 4, 8), ("witten1d", 6, 8),
    ("quartic1d", 8, 18), ("well3d", 2, 6), ("well3d", 4, 8), ("iso2d", 8, 12)])
def test_apply_matches_elimination_on_families(source, order, degree):
    """Q_j on every basis vector through ``degree``, j through the order:
    exactly the eliminated image in exact mode; in float mode each
    coefficient within 1e-14 of the vector's largest, on the same support
    except in ``ROUNDED_SUPPORT``. On well3d o4 an entry that cancels in
    exact arithmetic leaves rounding in float (about 1e-16 of the largest,
    with the term-by-term loop as well), so there a missing entry is read as
    zero. quartic1d runs through its o8 workspace degree, 2K + 2N + 2 = 18;
    well3d o4 and iso2d o8 reach the depths where the sum factorization
    groups many gamma-prefixes."""
    family, orders, basis = family_and_basis(source, "exact", order, degree)
    ffamily, _, fbasis = family_and_basis(source, "float", order, degree)
    for j in orders:
        for index in basis.indices(degree):
            num, den = basis.apply(family.get2(j), basis.key(index))
            got = {basis.index(i): F(n, den) for i, n in num.items()}
            assert got == apply_by_elimination(basis, family.get2(j), index), (j, index)
            fnum, fden = fbasis.apply(ffamily.get2(j), fbasis.key(index))
            fgot = {fbasis.index(i): n for i, n in fnum.items()}
            assert fden == 1
            if (source, order) not in ROUNDED_SUPPORT:
                assert set(fgot) == set(got), (j, index)
            scale = max(map(abs, got.values()), default=0)
            for i in got.keys() | fgot.keys():
                assert abs(fgot.get(i, 0) - complex(got.get(i, 0))) <= 1e-14 * scale, (j, index, i)


class TestSpectrum:
    def test_formula_1d(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 4)
        assert t.entries[HermiteIndex((0,), 0)] == F(1)
        assert t.entries[HermiteIndex((1,), 0)] == F(3)
        assert t.entries[HermiteIndex((2,), 0)] == F(5)

    def test_formula_2d_rank1_with_shift(self):
        t = build_spectrum(EXACT, (F(1), F(2)), (F(-3),), 4)
        assert t.entries[HermiteIndex((0, 0), 0)] == F(0)

    def test_witten_ground_zero(self):
        t = build_spectrum(EXACT, (F(1),), (F(-1),), 4)
        assert t.entries[HermiteIndex((0,), 0)] == F(0)

    def test_randomized_rational_formula(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 3)
            rank = rng.randint(1, 2)
            lam = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))
            mu = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank))
            t = build_spectrum(EXACT, lam, mu, 3)
            for index, e in t.entries.items():
                want = sum((2 * a + 1) * l for a, l in zip(index.alpha, lam)) + mu[index.k]
                assert e == want

    @pytest.mark.parametrize("mode, lam, mu", [
        (EXACT, (F(1), F(3, 2)), (F(0),)),
        (EXACT, (F(2),), (F(0), F(4))),
        (float_mode(), (0.7, 1.3), (0.25, -1.5)),
    ], ids=["exact-n2", "exact-rank2", "float-n2-rank2"])
    def test_basis_eigenvalue_matches_table(self, mode, lam, mu):
        # the projector and the RS oracle read HermiteBasis.eigenvalue; it
        # must be the spectrum table's value on every index through degree 6
        lam = tuple(mode.coeff(l) for l in lam)
        mu = tuple(mode.coeff(m) for m in mu)
        table = build_spectrum(mode, lam, mu, 6)
        basis = HermiteBasis(mode, lam, mu, 6)
        assert set(basis.indices()) == set(table.entries)
        for index in basis.indices():
            assert basis.eigenvalue(basis.key(index)) == table.entries[index]


class TestDegenerateLevel:
    def test_simple_ground(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 6)
        lvl = degenerate_level(t, 1)
        assert lvl.m0 == 1 and lvl.K2 == 0 and lvl.parity == "even"
        assert lvl.members == (HermiteIndex((0,), 0),)

    def test_isotropic_first_excited(self):
        t = build_spectrum(EXACT, (F(1), F(1)), (F(0),), 6)
        lvl = degenerate_level(t, 4)
        assert lvl.m0 == 2
        assert lvl.K2 == 1
        assert lvl.parity == "odd"
        assert set(lvl.members) == {HermiteIndex((1, 0), 0), HermiteIndex((0, 1), 0)}

    def test_mixed_parity_rank2(self):
        t = build_spectrum(EXACT, (F(1),), (F(0), F(2)), 6)
        lvl = degenerate_level(t, 3)
        assert lvl.m0 == 2
        assert lvl.parity == "mixed"
        assert set(lvl.members) == {HermiteIndex((1,), 0), HermiteIndex((0,), 1)}

    def test_missing_level(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 6)
        with pytest.raises(LevelNotFoundError):
            degenerate_level(t, 2)

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize("lam, mu", [
        ((F(1), F(7)), (F(0), F(5))),
        ((F(3, 2), F(5, 7)), (F(0),)),
        ((F(2),), (F(1), F(-1, 3))),
    ])
    def test_certified_below_the_first_index_outside(self, mode, lam, mu):
        # outside the table of degree d every index has
        # E >= sum lam + 2 (d + 1) min lam + min mu, and one index has that E
        bottom, step = sum(lam) + min(mu), 2 * min(lam)
        for d in range(5):
            table = build_spectrum(mode, lam, mu, d)
            with pytest.raises(LevelNotFoundError, match="too small to certify"):
                degenerate_level(table, mode.coeff(bottom + (d + 1) * step))
            assert degenerate_level(table, mode.coeff(bottom + d * step)).K2 == d

    def test_level_by_index(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 6)
        assert level_by_index(t, 0).E0 == F(1)
        assert level_by_index(t, 1).E0 == F(3)

    def test_float_clustering(self):
        m = float_mode()
        t = build_spectrum(m, (1.0, 1.0 + 1e-13), (0.0,), 4)
        lvl = degenerate_level(t, 4.0)
        assert lvl.m0 == 2

    def test_float_level_at_zero_by_value(self):
        # 0.1 + 0.2 - 0.3 rounds to 5.55e-17: the level at 0 holds that index,
        # judged against the magnitudes 0.1 + 0.2 + 0.3 summed into it
        m = float_mode()
        t = build_spectrum(m, (0.1, 0.2), (-0.3,), 2)
        ground = HermiteIndex((0, 0), 0)
        assert t.entries[ground] != 0 and abs(t.entries[ground]) < 1e-16
        assert degenerate_level(t, 0).members == (ground,)
        assert level_by_index(t, 0).members == (ground,)
        assert t.distinct_levels()[0] == t.entries[ground]
        # a gap of 1e-6 against magnitudes of order 1 is still a different level
        with pytest.raises(LevelNotFoundError):
            degenerate_level(t, 1e-6)


class TestModelOperatorEigenrelation:
    def test_q0_diagonal_on_basis(self):
        # ties the rescaled family to the basis: Q0 h = E h exactly
        lam = (F(1), F(2))
        p = JetProblem.create(EXACT, 2, 1, 6, lam)
        fam = rescale_operator(conjugate_hamiltonian(p, solve_eikonal(p)))
        q0 = fam.get2(0)
        b = HermiteBasis(EXACT, lam, (F(0),), 5)
        t = build_spectrum(EXACT, lam, (F(0),), 5)
        for index in b.indices(4):
            h = b.fiber(index)
            assert q0.apply(h) == h.scale(t.entries[index])

    def test_q0_with_rank2_shift(self):
        W = (
            (Poly.const(EXACT, 1, 0), Poly.zero(EXACT, 1)),
            (Poly.zero(EXACT, 1), Poly.const(EXACT, 1, 2)),
        )
        p = JetProblem.create(EXACT, 1, 2, 6, (F(1),), W=W)
        fam = rescale_operator(conjugate_hamiltonian(p, solve_eikonal(p)))
        q0 = fam.get2(0)
        b = HermiteBasis(EXACT, (F(1),), (F(0), F(2)), 5)
        t = build_spectrum(EXACT, (F(1),), (F(0), F(2)), 5)
        for index in b.indices(4):
            h = b.fiber(index)
            assert q0.apply(h) == h.scale(t.entries[index])


ADJOINT_SOURCES = ["harmonic", "cubic1d", "quartic1d", "witten1d", "iso2d", "rank2",
                   "curved2d-o3", "curved2d-o6", "rank2-connection-o4", "well3d-o4", "aniso2d-o4"]


@pytest.mark.parametrize("mode_name", ["exact", "float"])
@pytest.mark.parametrize("source", ADJOINT_SOURCES)
def test_adjoint_is_the_gaussian_transpose(source, mode_name):
    """Row m' of Q_j is (N_m / N_m') conj((Q_j^dagger e_m')_m), entry by
    entry, for every Q_j through order 3 and every pair of basis vectors
    through degree 3 (2 in three dimensions), on every preset and every
    ``tests/refs`` spec: exactly in exact mode, within 1e-13 of the row's
    largest entry in float mode. Cut at a degree, the adjoint image is the
    full one restricted to it, bit for bit."""
    if source in PRESETS:
        problem = preset_problem(source, mode_name, order=3).problem
    else:
        from test_projection_engine import reference_spec

        problem = parse_problem_spec(reference_spec(source, mode_name)).problem
    mode = problem.mode
    family = rescale_operator(conjugate_hamiltonian(problem, solve_eikonal(problem)))
    top = 2 if problem.n == 3 else 3
    basis = HermiteBasis(mode, problem.lam, problem.mu, top + 8)
    indices = basis.indices(top)

    def norm(index):
        return mode.join(*basis.norm2(basis.key(index)))

    for j in (j for j in family.orders2() if 0 < j <= 6):
        op, rows = family.get2(j), {}
        for m in indices:
            num, den = basis.apply(op, basis.key(m))
            rows.update(((basis.index(i), m), mode.join(n, den)) for i, n in num.items())
        for mp in indices:
            num, den = basis.apply_adjoint(op, basis.key(mp))
            adjoint = {basis.index(i): mode.join(n, den) for i, n in num.items()}
            cut, den = basis.apply_adjoint(op, basis.key(mp), through=mp.degree)
            assert {basis.index(i): mode.join(n, den) for i, n in cut.items()} == {
                i: c for i, c in adjoint.items() if i.degree <= mp.degree}, (j, mp)
            got = {m: norm(m) / norm(mp) * mode.conj(adjoint.get(m, 0)) for m in indices}
            want = {m: rows.get((mp, m), mode.zero()) for m in indices}
            if mode.name == "exact":
                assert got == want, (j, mp)
            else:
                scale = max(map(abs, [*got.values(), *want.values()]))
                assert all(abs(got[m] - want[m]) <= 1e-13 * scale for m in indices), (j, mp)
