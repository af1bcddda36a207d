"""The front end's in-place sums against the expansions they replaced.

``solve_eikonal`` forms each degree's residual as one accumulator, and
``_laplace_type_operator`` and ``conjugate_hamiltonian`` write the Bochner
operator and its conjugation in closed form; the oracles in
``front_end_oracle`` build one ``Poly`` per product, build the operator by
Leibniz composition and compose the factors d_i - phi_i / h. Both routes
must give the same phase, the same conjugated operator (its ``complete``
bounds included), the same density and the same rescaled family: exactly in
exact mode, on every preset, on the specs of ``tests/refs`` and on a curved
metric with a connection, and within rounding in float mode.
"""

from fractions import Fraction

import pytest

from qmf.cli_io import parse_problem_spec, preset_problem
from qmf.operator_calculus import (
    EikonalError,
    ScalarJet,
    _h0_coefficient,
    _laplace_type_operator,
    conjugate_hamiltonian,
    rescale_operator,
    solve_eikonal,
)
from qmf.series_algebra import Poly, pack

from front_end_oracle import conjugate_by_factors, eikonal_by_terms, h0_magnitude
from test_operator_calculus import CURVED_WELL, WELL_3D
from test_reference_documents import ANISO_WELL, RANK2_CONNECTION

# the connection of ``rank2-connection`` on a curved metric
CURVED_CONNECTION = RANK2_CONNECTION.replace("[level]", """[metric_inverse]
1 1  2 0  1/3
1 2  1 1  1/5
2 2  0 2  1/7
1 1  0 3  1/2

[level]""")
SPECS = {"curved2d": CURVED_WELL, "rank2-connection": RANK2_CONNECTION,
         "well3d": WELL_3D.replace("order = 2", "order = 4"), "aniso2d": ANISO_WELL,
         "curved-connection": CURVED_CONNECTION}
PROBLEMS = ["harmonic", "cubic1d", "quartic1d", "witten1d", "iso2d", "rank2", *SPECS]


def problem_of(name: str, mode: str):
    if name in SPECS:
        return parse_problem_spec(SPECS[name].replace("mode = exact", f"mode = {mode}")).problem
    return preset_problem(name, mode).problem


def assert_same(a: Poly, b: Poly):
    """Equal in exact mode; in float mode, within rounding of the larger."""
    if a.mode.name == "exact":
        assert a == b
    else:
        assert (a - b).max_abs() <= 1e-13 * max(a.max_abs(), b.max_abs())


def assert_same_operator(a, b):
    """Equal operators, ``complete`` included: exactly in exact mode; in
    float mode within rounding of the operator's largest coefficient, as a
    term that one route forms as an exact zero can keep rounding noise on
    the other (the composition's (1/G) (G g^ij) - g^ij on a curved metric,
    read by degree)."""
    assert a.complete == b.complete
    if a.mode.name == "exact":
        assert a.terms == b.terms
        return
    scale = max(x.max_abs() for op in (a, b) for m in op.terms.values() for row in m for x in row)
    zero = ((Poly.zero(a.mode, a.n),) * a.rank,) * a.rank
    for beta in a.terms.keys() | b.terms.keys():
        for row, want_row in zip(a.terms.get(beta, zero), b.terms.get(beta, zero)):
            for x, want in zip(row, want_row):
                assert (x - want).max_abs() <= 1e-13 * scale, beta


@pytest.fixture(scope="module", params=[(name, mode) for mode in ("exact", "float")
                                        for name in PROBLEMS], ids="-".join)
def routes(request):
    """(problem, phase, conjugated operator) by the program and by the oracles."""
    problem = problem_of(*request.param)
    phi, phi_oracle = solve_eikonal(problem), eikonal_by_terms(problem)
    return (problem, (phi, conjugate_hamiltonian(problem, phi)),
            (phi_oracle, conjugate_by_factors(problem, phi_oracle)))


def test_phase(routes):
    _, (phi, _), (want, _) = routes
    assert phi.complete == want.complete
    assert_same(phi.poly, want.poly)


def test_conjugated_operator_and_density(routes):
    _, (_, conj), (_, want) = routes
    assert_same_operator(conj.hbar2, want.hbar2)
    assert_same_operator(conj.hbar1, want.hbar1)
    assert_same(conj.density, want.density)


def test_rescaled_family(routes):
    _, (_, conj), (_, want) = routes
    family, want = rescale_operator(conj), rescale_operator(want)
    assert family.max_order2 == want.max_order2
    assert family.ops2.keys() == want.ops2.keys()
    for j, op in family.ops2.items():
        assert_same_operator(op, want.ops2[j])


def test_eikonal_magnitude(routes):
    # the closed form on |C_beta|, |phi_i| and |V| is the magnitude that
    # judges a float eikonal residual
    problem, (phi, _), _ = routes
    L, _ = _laplace_type_operator(problem)
    grad = [phi.poly.diff(i).truncate_degree(phi.complete - 1) for i in range(problem.n)]
    through = problem.D + 2
    second = [(*[k for k, b in enumerate(beta) for _ in range(b)],
               tuple(tuple(x.abs() for x in row) for row in m))
              for beta, m in L.terms.items() if sum(beta) == 2]
    got = _h0_coefficient(second, [g.abs() for g in grad], problem.V.abs(), problem.rank, through)
    want = h0_magnitude(L, grad, problem.V, through)
    for row, want_row in zip(got, want):
        for x, w in zip(row, want_row):
            assert_same(x, w.truncate_degree(through))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["cubic1d", "iso2d", "rank2", "curved2d", "well3d"])
@pytest.mark.parametrize("end", [min, max])
def test_a_phase_coefficient_off_by_one_in_a_thousand_raises(name, mode, end):
    """The lowest and the highest phase term past the quadratic, x 1001/1000,
    in both modes: float mode judges the residual by the closed-form
    magnitude."""
    problem = problem_of(name, mode)
    phi = solve_eikonal(problem)
    conjugate_hamiltonian(problem, phi)
    terms = phi.poly.terms
    alpha = end((a for a in terms if sum(a) > 2), key=pack)
    bad = Poly(problem.mode, problem.n, {
        **terms, alpha: terms[alpha] * problem.mode.coeff(Fraction(1001, 1000))})
    with pytest.raises(EikonalError):
        conjugate_hamiltonian(problem, ScalarJet(bad, phi.complete))
