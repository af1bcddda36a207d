"""Acceptance suite: one test per criterion, stated tolerances, timed budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
pass/fail summary per criterion.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

from qmf.series_algebra import EXACT
from qmf.harmonic_oscillator import build_spectrum
from qmf.projection_engine import projector_diagnostics
from qmf.quasimode_pipeline import (
    compute_quasimodes,
    crosscheck_eigenvalue_1d,
    orthonormality_report,
    rs_oracle,
    transport_residual,
)
from qmf.cli_io import preset_problem, run_command
from qmf.operator_calculus import JetProblem

F = Fraction

ALL_PRESETS = ["harmonic", "cubic1d", "quartic1d", "witten1d", "iso2d", "rank2"]


def _report(name: str, ok: bool, elapsed: float, budget: float | None, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    budget_txt = f" / budget {budget:.0f}s" if budget else ""
    print(f"\n{name}: {status} ({elapsed:.2f}s{budget_txt}) {detail}")
    assert ok, f"{name} failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_ac1_harmonic_exactness():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    checked = 0
    for _ in range(20):
        n = rng.randint(1, 3)
        rank = rng.randint(1, 2)
        lam = tuple(F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n))
        mu = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank))
        table = build_spectrum(EXACT, lam, mu, 3)
        for index, e in table.entries.items():
            want = sum((2 * a + 1) * l for a, l in zip(index.alpha, lam)) + mu[index.k]
            assert e == want
        w = None
        if any(m != 0 for m in mu):
            from qmf.series_algebra import Poly
            w = tuple(tuple(Poly.const(EXACT, n, mu[i]) if i == j else Poly.zero(EXACT, n)
                            for j in range(rank)) for i in range(rank))
        problem = JetProblem.create(EXACT, n, rank, 10, lam, W=w)
        res = compute_quasimodes(problem, 4, level_index=0)
        for e_series, lvl_e0 in [(e, res.level.E0) for e in res.eigenvalues]:
            items = list(e_series.items2())
            if EXACT.is_zero(lvl_e0):
                assert items == []
            else:
                assert items == [(2, lvl_e0)]
        checked += 1
    _report("AC1 harmonic exactness", checked == 20, time.perf_counter() - t0, 5.0,
            f"{checked} randomized instances, zero corrections through order 4")


def test_ac2_witten_supersymmetry():
    t0 = time.perf_counter()
    worst = 0.0
    for c in ("1/2", "1", "2"):
        spec = preset_problem(f"witten1d:c={c}", order=4)
        res = compute_quasimodes(spec.problem, 4, e0=spec.level_value)
        assert all(e.is_zero() for e in res.eigenvalues)
        rep = transport_residual(res)
        worst = max(worst, rep.max_residual)
        assert rep.passed and rep.max_residual == 0.0
    _report("AC2 Witten supersymmetry", True, time.perf_counter() - t0, 10.0,
            f"E == 0 through order 4 for c in {{1/2, 1, 2}}, transport residual {worst}")


def test_ac3_projector_laws():
    t0 = time.perf_counter()
    details = []
    for preset, mode_name in [("cubic1d", "exact"), ("rank2", "exact"),
                              ("cubic1d", "float"), ("rank2", "float")]:
        spec = preset_problem(preset, mode_name=mode_name, order=3)
        res = compute_quasimodes(spec.problem, 3, e0=spec.level_value)
        ctx = res.context
        rep = projector_diagnostics(ctx.projector, ctx.omega)
        assert rep.passed, (preset, mode_name, rep)
        details.append(f"{preset}/{mode_name}: worst defect {rep.max_residual}")
    _report("AC3 projector laws", True, time.perf_counter() - t0, 60.0,
            "symmetry, degree, parity, rank through order 3 (idempotency and commutation: "
            "test_projection_engine.py); " + "; ".join(details))


def test_ac4_transport_oracle_every_preset():
    t0 = time.perf_counter()
    for preset in ALL_PRESETS:
        spec = preset_problem(preset, order=3)
        res = compute_quasimodes(spec.problem, 3, e0=spec.level_value,
                                 level_index=spec.level_index)
        rep = transport_residual(res)
        assert rep.passed and rep.max_residual == 0.0, (preset, rep)
    _report("AC4 transport-equation oracle", True, time.perf_counter() - t0, None,
            f"jet residual exactly zero through order 3 on {len(ALL_PRESETS)} presets")


def test_ac5_parity_theorem():
    t0 = time.perf_counter()
    # cubic scalar ground state: even level, eigenvalues in integer powers
    spec = preset_problem("cubic1d", order=4)
    res = compute_quasimodes(spec.problem, 4, e0=spec.level_value)
    for e in res.eigenvalues:
        for t, _ in e.items2():
            assert t % 2 == 0
    for a in res.eigenfunctions:  # even level: no half-integer terms
        for k in a.coeffs2:
            assert (k - a.K2) % 2 == 0
    # isotropic 2-D odd level
    spec = preset_problem("iso2d", order=4)
    res = compute_quasimodes(spec.problem, 4, e0=spec.level_value)
    assert res.level.parity == "odd"
    for e in res.eigenvalues:
        for t, _ in e.items2():
            assert t % 2 == 0
    for a in res.eigenfunctions:  # odd level: no integer terms
        for k in a.coeffs2:
            assert (k - a.K2) % 2
    _report("AC5 parity theorem", True, time.perf_counter() - t0, None,
            "half-integer eigenvalue coefficients identically zero through order 4; "
            "eigenfunction exponent classes match the level parity")


def test_ac6_rs_oracle_equivalence():
    t0 = time.perf_counter()
    for preset in ("cubic1d", "quartic1d", "iso2d", "rank2"):
        spec = preset_problem(preset, order=2)
        res = compute_quasimodes(spec.problem, 2, e0=spec.level_value)
        rep = rs_oracle(res)
        assert rep.passed and rep.max_residual == 0.0, (preset, rep)
        # float route within 1e-10 of the magnitudes summed into each residual
        specf = preset_problem(preset, mode_name="float", order=2)
        resf = compute_quasimodes(specf.problem, 2, e0=specf.level_value)
        rep = rs_oracle(resf)
        assert rep.passed and rep.max_residual <= 1e-10, (preset, rep)
    _report("AC6 perturbation-recursion equivalence", True, time.perf_counter() - t0, 30.0,
            "H_eff and the eigenvalues through h^2 agree with the left wave operator on simple "
            "and degenerate levels, exactly (exact) / within 1e-10 relative (float)")


def test_ac7_numeric_convergence():
    t0 = time.perf_counter()
    spec = preset_problem("quartic1d", order=2)
    res = compute_quasimodes(spec.problem, 2, e0=spec.level_value)
    rep = crosscheck_eigenvalue_1d(res, hbars=[0.2, 0.1, 0.05], grid=4096)
    assert rep.passed, rep.detail
    assert rep.data["slope"] >= 3.5
    _report("AC7 numeric convergence", True, time.perf_counter() - t0, 60.0,
            f"log-log slope {rep.data['slope']:.2f} >= 3.5, basis sizes {rep.data['sizes']}")


def test_ac8_asymptotic_orthonormality():
    t0 = time.perf_counter()
    spec = preset_problem("iso2d", order=3)
    res = compute_quasimodes(spec.problem, 3, e0=spec.level_value)
    assert res.level.m0 == 2
    rep = orthonormality_report(res)
    assert rep.passed and rep.max_residual == 0.0
    # float mode: literal unit diagonal
    specf = preset_problem("iso2d", mode_name="float", order=3)
    resf = compute_quasimodes(specf.problem, 3, e0=specf.level_value)
    assert resf.normalized
    repf = orthonormality_report(resf)
    assert repf.passed
    _report("AC8 asymptotic orthonormality", True, time.perf_counter() - t0, None,
            "pairing Gram is the recorded diagonal exactly (exact) and the identity (float)")


def test_ac9_degree_offset_bookkeeping():
    t0 = time.perf_counter()
    for preset in ALL_PRESETS:
        spec = preset_problem(preset, order=3)
        res = compute_quasimodes(spec.problem, 3, e0=spec.level_value,
                                 level_index=spec.level_index)
        lvl = res.level
        assert lvl.K2 == max(m.degree for m in lvl.members)
        for a in res.eigenfunctions:
            assert a.K2 == lvl.K2
            for k, jet in a.items2():
                bound = max(lvl.K2 - k, 0)
                assert jet.min_degree() >= bound, (preset, k, jet.min_degree(), bound)
    _report("AC9 degree/offset bookkeeping", True, time.perf_counter() - t0, None,
            "K = max |alpha|/2 and the lowest-degree bound hold on every preset")


def test_ac10_projector_cost_grows_polynomially():
    # the order-graded resolvent recursion makes order 8 cheap; the sum over
    # compositions it replaced (2^(2j-1) chains at order j) takes minutes on
    # this case, so a return to exponential cost overruns the budget
    t0 = time.perf_counter()
    order = 8
    spec = preset_problem("cubic1d", order=order)
    res = compute_quasimodes(spec.problem, order, e0=spec.level_value)
    rep = transport_residual(res)
    assert rep.passed and rep.max_residual == 0.0, rep
    _report("AC10 projector cost", True, time.perf_counter() - t0, 30.0,
            "cubic1d exact through order 8, transport residual exactly zero")


def test_ac11_full_verify_is_polynomial(tmp_path):
    # the projector check computes the image of every probe once, through
    # the built order, and the rs check reads the level members' from the
    # same cache; a return to exponential cost overruns the budget
    t0 = time.perf_counter()
    out = tmp_path / "iso2d-o4.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["verify", "--preset", "iso2d", "--order", "4", "--out", str(out)])
    assert status == 0
    checks = {rep["name"]: rep for rep in json.loads(out.read_text())["checks"]}
    for name in ("projector", "rs_oracle"):
        assert checks[name]["passed"] and checks[name]["max_residual"] == 0.0, checks[name]
    _report("AC11 full verify cost", True, time.perf_counter() - t0, 30.0,
            "iso2d exact through order 4, every check (rs on the degenerate level "
            "included), projector and rs at tolerance 0")
