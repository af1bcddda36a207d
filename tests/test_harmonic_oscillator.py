import random
from fractions import Fraction

import pytest

from qmf.series_algebra import EXACT, FiberPoly, HI0, HalfInt, Poly, float_mode
from qmf.harmonic_oscillator import (
    HermiteBasis,
    HermiteIndex,
    LevelNotFoundError,
    build_spectrum,
    degenerate_level,
    level_by_index,
)
from qmf.cli_io import parse_problem_spec, preset_problem
from qmf.operator_calculus import JetProblem, conjugate_hamiltonian, rescale_operator, solve_eikonal

from hermite_oracle import apply_by_elimination, expand

F = Fraction


def basis_1d(lam=F(1), degree=8, mu=(F(0),)):
    return HermiteBasis(EXACT, 1, len(mu), (EXACT.coeff(lam),), tuple(EXACT.coeff(m) for m in mu), degree)


class TestHermiteBasis:
    def test_monic_recurrence_values(self):
        b = basis_1d()
        # p2 = y^2 - 1/2, p3 = y^3 - (3/2) y for unit frequency
        assert b.poly((2,)) == Poly(EXACT, 1, {(2,): F(1), (0,): F(-1, 2)})
        assert b.poly((3,)) == Poly(EXACT, 1, {(3,): F(1), (1,): F(-3, 2)})

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
        # m! / (2 lam)^m
        assert b.norm2((0,)) == F(1)
        assert b.norm2((1,)) == F(1, 4)
        assert b.norm2((3,)) == F(6, 64)

    def test_expand_examples(self):
        b = basis_1d()
        one = FiberPoly.scalar(Poly.const(EXACT, 1, 1))
        assert expand(b, one) == {HermiteIndex((0,), 0): F(1)}
        y = FiberPoly.scalar(Poly.variable(EXACT, 1, 0))
        assert expand(b, y) == {HermiteIndex((1,), 0): F(1)}
        ysq = FiberPoly.scalar(Poly.monomial(EXACT, 1, (2,)))
        assert expand(b, ysq) == {HermiteIndex((2,), 0): F(1),
                                  HermiteIndex((0,), 0): F(1, 2)}

    def test_expand_synthesize_roundtrip_random(self):
        rng = random.Random(7)
        b = HermiteBasis(EXACT, 2, 2, (F(1), F(2)), (F(0), F(1)), 6)
        for _ in range(10):
            terms = {}
            for _ in range(8):
                a = (rng.randint(0, 3), rng.randint(0, 3))
                terms[a] = F(rng.randint(-5, 5))
            q = FiberPoly([Poly(EXACT, 2, terms), Poly(EXACT, 2, {(1, 1): F(2)})])
            assert b.synthesize(expand(b, q)) == q

    def test_expand_synthesize_roundtrip_rational(self):
        # rational coefficients and frequencies: the elimination's common
        # denominator has to grow while it strips terms
        rng = random.Random(11)
        b = HermiteBasis(EXACT, 2, 2, (F(3, 2), F(5, 7)), (F(0), F(1, 3)), 6)
        for _ in range(10):
            comps = []
            for _ in range(2):
                terms = {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-9, 9), rng.randint(1, 12))
                         for _ in range(8)}
                comps.append(Poly(EXACT, 2, terms))
            q = FiberPoly(comps)
            coeffs = expand(b, q)
            assert all(type(c) is Fraction and c for c in coeffs.values())
            assert b.synthesize(coeffs) == q

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
            assert p.parity() == (1 if m % 2 == 0 else -1)


WELL_3D = """
[problem]
n = 3
rank = 1
mode = {mode}
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


def family_and_basis(source, mode_name, order, degree):
    if source == "well3d":
        problem = parse_problem_spec(WELL_3D.format(mode=mode_name)).problem
    else:
        problem = preset_problem(source, mode_name, order=order).problem
    family = rescale_operator(conjugate_hamiltonian(problem, solve_eikonal(problem)))
    orders = [j for j in family.orders() if j <= HalfInt(order)]
    basis = HermiteBasis(problem.mode, problem.n, problem.rank, problem.lam, problem.mu,
                         degree + orders[-1].doubled)
    return family, orders, basis


@pytest.mark.parametrize("source, order, degree", [
    ("cubic1d", 6, 8), ("iso2d", 4, 8), ("rank2", 4, 8), ("witten1d", 6, 8),
    ("quartic1d", 8, 18), ("well3d", 2, 6)])
def test_apply_matches_elimination_on_families(source, order, degree):
    """Q_j on every basis vector through ``degree``, j through the order:
    exactly the eliminated image in exact mode; in float mode the same
    support, each coefficient within 1e-14 of the vector's largest. quartic1d
    runs through its o8 workspace degree, 2K + 2N + 2 = 18."""
    family, orders, basis = family_and_basis(source, "exact", order, degree)
    ffamily, _, fbasis = family_and_basis(source, "float", order, degree)
    for j in orders:
        for index in basis.indices(degree):
            num, den = basis.apply(family.get(j), index)
            got = {i: F(n, den) for i, n in num.items()}
            assert got == apply_by_elimination(basis, family.get(j), index), (j, index)
            fnum, fden = fbasis.apply(ffamily.get(j), index)
            assert fden == 1 and set(fnum) == set(got), (j, index)
            scale = max(map(abs, got.values()), default=0)
            for i, c in got.items():
                assert abs(fnum[i] - complex(c)) <= 1e-14 * scale, (j, index, i)


class TestSpectrum:
    def test_formula_1d(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 4)
        assert t.eigenvalue(HermiteIndex((0,), 0)) == F(1)
        assert t.eigenvalue(HermiteIndex((1,), 0)) == F(3)
        assert t.eigenvalue(HermiteIndex((2,), 0)) == F(5)

    def test_formula_2d_rank1_with_shift(self):
        t = build_spectrum(EXACT, (F(1), F(2)), (F(-3),), 4)
        assert t.eigenvalue(HermiteIndex((0, 0), 0)) == F(0)

    def test_witten_ground_zero(self):
        t = build_spectrum(EXACT, (F(1),), (F(-1),), 4)
        assert t.eigenvalue(HermiteIndex((0,), 0)) == F(0)

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
        basis = HermiteBasis(mode, len(lam), len(mu), lam, mu, 6)
        assert set(basis.indices()) == set(table.entries)
        for index in basis.indices():
            assert basis.eigenvalue(index) == table.eigenvalue(index)


class TestDegenerateLevel:
    def test_simple_ground(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 6)
        lvl = degenerate_level(t, 1)
        assert lvl.m0 == 1 and lvl.K == HI0 and lvl.parity == "even"
        assert lvl.members == (HermiteIndex((0,), 0),)

    def test_isotropic_first_excited(self):
        t = build_spectrum(EXACT, (F(1), F(1)), (F(0),), 6)
        lvl = degenerate_level(t, 4)
        assert lvl.m0 == 2
        assert lvl.K == HalfInt(1)
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

    def test_level_by_index(self):
        t = build_spectrum(EXACT, (F(1),), (F(0),), 6)
        assert level_by_index(t, 0).E0 == F(1)
        assert level_by_index(t, 1).E0 == F(3)

    def test_float_clustering(self):
        m = float_mode()
        t = build_spectrum(m, (1.0, 1.0 + 1e-13), (0.0,), 4)
        lvl = degenerate_level(t, 4.0)
        assert lvl.m0 == 2


class TestModelOperatorEigenrelation:
    def test_q0_diagonal_on_basis(self):
        # ties the rescaled family to the basis: Q0 h = E h exactly
        lam = (F(1), F(2))
        p = JetProblem.create(EXACT, 2, 1, 6, lam)
        fam = rescale_operator(conjugate_hamiltonian(p, solve_eikonal(p)))
        q0 = fam.get(HI0)
        b = HermiteBasis(EXACT, 2, 1, lam, (F(0),), 5)
        t = build_spectrum(EXACT, lam, (F(0),), 5)
        for index in b.indices(4):
            h = b.fiber(index)
            assert q0.apply(h) == h.scale(t.eigenvalue(index))

    def test_q0_with_rank2_shift(self):
        W = (
            (Poly.const(EXACT, 1, 0), Poly.zero(EXACT, 1)),
            (Poly.zero(EXACT, 1), Poly.const(EXACT, 1, 2)),
        )
        p = JetProblem.create(EXACT, 1, 2, 6, (F(1),), W=W)
        fam = rescale_operator(conjugate_hamiltonian(p, solve_eikonal(p)))
        q0 = fam.get(HI0)
        b = HermiteBasis(EXACT, 1, 2, (F(1),), (F(0), F(2)), 5)
        t = build_spectrum(EXACT, (F(1),), (F(0), F(2)), 5)
        for index in b.indices(4):
            h = b.fiber(index)
            assert q0.apply(h) == h.scale(t.eigenvalue(index))
