"""Result documents stay faithful to the committed references.

``qmfbench/refs`` holds the ``qmf compute`` document of every exact
benchmark case as the program first wrote it, without its ``checks`` block.
Each one is recomputed here and must match byte for byte once written the
same way (``reference.canonical``); ``tests/refs`` does the same for spec
files: a curved metric at orders 3 and 6, a connection, and a 3-D well at
order 4, and the whole ``qmf verify`` document, checks included, of a 2-D
well with unequal rational frequencies. A float document of the 3-D well's
level at 5, which only float mode can split, must stay within 1e-12 of its
reference. The float cases of the benchmark must agree with the exact
reference of the same rational problem within ``reference.FLOAT_RTOL``, the
gate the benchmark applies to every float run, and so must float documents
of other presets and of random rational wells, against exact documents
computed here. ``qmfbench/reference.py`` is loaded
by path and only read.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmf import cli_io
from qmf.cli_io import parse_problem_spec, preset_problem, result_document, run_command
from qmf.formal_diagonalization import ExactSplitUnavailable
from qmf.projection_engine import ProjectorSeries
from qmf.quasimode_pipeline import compute_quasimodes, crosscheck_eigenvalue_1d
from test_operator_calculus import WELL_3D
from test_quasimode_pipeline import CURVED_WELL

BENCH = Path(__file__).resolve().parent.parent / "qmfbench"
REFS = sorted((BENCH / "refs").glob("*-exact.json"))
SPEC_REFS = Path(__file__).resolve().parent / "refs"

_spec = importlib.util.spec_from_file_location("qmfbench_reference", BENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def compute_document(preset: str, order: str, mode: str, tmp_path) -> dict:
    return run_compute(["--preset", preset, "--order", order, "--mode", mode], tmp_path)


def run_compute(args: list, tmp_path) -> dict:
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["compute", *args, "--out", str(out)])
    assert status == 0
    return json.loads(out.read_bytes())


def test_references_present():
    assert len(REFS) >= 9


@pytest.mark.parametrize("ref", REFS, ids=lambda path: path.stem)
def test_exact_document_matches_reference(ref, tmp_path):
    preset, order = re.fullmatch(r"(.+)-o(\d+)-exact", ref.stem).groups()
    doc = compute_document(preset, order, "exact", tmp_path)
    assert reference.canonical(doc) == ref.read_bytes()


RANK2_CONNECTION = """
[problem]
n = 2
rank = 2
mode = exact
order = 4

[lambda]
1
2

[potential]
3 0  1
1 2  1/2

[endomorphism]
1 2  1 0  1
2 2  0 0  3

[connection]
1 1 2  0 1  1/2
2 1 2  1 0  1/3

[level]
index = 1
"""


@pytest.mark.parametrize("name, text", [("curved2d-o3", CURVED_WELL),
                                        ("curved2d-o6", CURVED_WELL.replace("order = 3",
                                                                            "order = 6")),
                                        ("rank2-connection-o4", RANK2_CONNECTION),
                                        ("well3d-o4", WELL_3D.replace("order = 2",
                                                                      "order = 4"))])
def test_spec_document_matches_reference(name, text, tmp_path):
    # the benchmark's references are all flat and connection-free; a curved
    # metric and a connection give the operator jets finite truncation
    # bounds, so these pin every product bound that has finite operands. The
    # curved well at order 6 takes the metric density, the weight exponential
    # and the Gram series' inverse square root to depth. The 3-D well pins
    # n = 3, where Q_j is summed over the most gamma-prefixes.
    spec = tmp_path / "problem.spec"
    spec.write_text(text)
    doc = run_compute(["--spec", str(spec)], tmp_path)
    assert reference.canonical(doc) == (SPEC_REFS / f"{name}-exact.json").read_bytes()


ANISO_WELL = """
[problem]
n = 2
rank = 1
mode = exact
order = 4

[lambda]
3/2
2/3

[potential]
3 0  1
1 2  1/2
0 3  1/3
2 1  1/5

[level]
index = 2
"""


def test_verify_document_with_unequal_frequencies_matches_reference(tmp_path):
    # every preset has 1/(2 lambda) in {1/2, 1/4}; lambda = (3/2, 2/3) gives 1/3
    # and 3/4, Gaussian moments with an odd denominator and a numerator other
    # than 1. The whole document of every check is pinned, as written.
    spec = tmp_path / "problem.spec"
    spec.write_text(ANISO_WELL)
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["verify", "--checks", "all", "--spec", str(spec), "--out", str(out)])
    assert status == 0
    assert out.read_bytes() == (SPEC_REFS / "aniso2d-verify-o4-exact.json").read_bytes()


def test_irrational_split_float_document_matches_reference(tmp_path):
    # the 3-D well's 3-fold level at 5 splits at order 1 on irrational
    # eigenvalues, so exact mode stops there; the float document, as the
    # program first wrote it, pins the float split end to end
    spec = tmp_path / "problem.spec"
    spec.write_text(WELL_3D.replace("mode = exact", "mode = float")
                    .replace("order = 2", "order = 4") + "[level]\nvalue = 5\n")
    doc = run_compute(["--spec", str(spec)], tmp_path)
    ref = json.loads((SPEC_REFS / "well3d-e5-o4-float.json").read_bytes())
    assert reference.float_mismatch(doc, ref, 1e-12) is None


@pytest.mark.parametrize("preset, order", [("iso2d", "5"), ("quartic1d", "8")])
def test_float_document_within_tolerance_of_exact(preset, order, tmp_path):
    doc = compute_document(preset, order, "float", tmp_path)
    ref = json.loads((BENCH / "refs" / f"{preset}-o{order}-exact.json").read_bytes())
    assert reference.float_mismatch(doc, ref, reference.FLOAT_RTOL) is None


def test_quartic_crosscheck_document_unchanged(tmp_path, monkeypatch):
    # the benchmark's crosscheck case: the document body is the benchmark's
    # reference, and the basis stops doubling long before the cap
    reports = []

    def recording(*args, **kwargs):
        reports.append(crosscheck_eigenvalue_1d(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli_io, "crosscheck_eigenvalue_1d", recording)
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                              "--hbar", "0.2,0.1,0.05", "--grid", "4096", "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_bytes())
    assert reference.canonical(doc) == (BENCH / "refs" / "quartic1d-o2-exact.json").read_bytes()
    (report,) = reports
    assert report.data["sizes"] == [64, 64, 64]
    # the Ritz values are fixed only up to rounding, eps ||H|| with ||H||
    # some hundreds at 64 functions, near 1e-11 of this residual, so the pin
    # holds no solver's last digits
    (check,) = doc["checks"]
    assert check.pop("max_residual") == pytest.approx(0.004158530873381416, rel=1e-9)
    assert check == {"detail": "log-log error slope 3.673 (required >= 3.5)",
                     "name": "crosscheck", "order_doubled": 4, "passed": True}


def test_crosscheck_document_without_numpy(tmp_path):
    # the benchmark's crosscheck command, in a fresh interpreter that cannot
    # import numpy, exits 0 and writes the document an in-process run writes
    argv = ["crosscheck", "--preset", "quartic1d", "--order", "2",
            "--hbar", "0.2,0.1,0.05", "--grid", "4096", "--out"]
    blocked, here = tmp_path / "blocked.json", tmp_path / "here.json"
    code = ("import sys; sys.modules['numpy'] = None; from qmf.cli_io import run_command; "
            "sys.exit(run_command(sys.argv[1:]))")
    path = os.pathsep.join(filter(None, [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv, str(blocked)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command([*argv, str(here)]) == 0
    assert blocked.read_bytes() == here.read_bytes()
    assert (reference.canonical(json.loads(blocked.read_bytes()))
            == (BENCH / "refs" / "quartic1d-o2-exact.json").read_bytes())


# -- float mode against exact mode on the same rational problem

def test_quartic_float_order_8_passes_its_checks(tmp_path):
    # the benchmark's verify-all float case: the coefficients grow
    # factorially, so only residuals judged relative to what they cancel pass
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["verify", "--preset", "quartic1d", "--order", "8",
                              "--mode", "float", "--checks",
                              "transport,eigen_residual,orthonormality,parity,rs",
                              "--out", str(out)])
    assert status == 0
    checks = json.loads(out.read_bytes())["checks"]
    assert [c["name"] for c in checks] == ["transport", "eigen_residual", "orthonormality",
                                           "parity", "rs_oracle"]
    assert all(c["passed"] and c["max_residual"] <= reference.FLOAT_RTOL for c in checks)


@pytest.mark.parametrize("preset, order", [("iso2d", "6"), ("cubic1d:c=100", "4"),
                                           ("iso2d:c=10", "4"), ("quartic1d", "12")])
def test_float_document_matches_exact_computed_here(preset, order, tmp_path):
    # no pruning of small terms (iso2d o6 and quartic1d o12 drifted by 5e-4
    # and 6e-3), and residuals judged against the magnitudes they cancel (the
    # eikonal residuals of the c=10 and c=100 wells cancel terms far larger
    # than any absolute bound)
    exact = compute_document(preset, order, "exact", tmp_path)
    doc = compute_document(preset, order, "float", tmp_path)
    assert reference.float_mismatch(doc, exact, reference.FLOAT_RTOL) is None


# the multiple of the unit roundoff 2^-53 within which the README states float
# mode keeps the level basis it synthesizes in monomials
SYNTHESIS_ROUNDOFFS = 64


def level_basis_at_depth(preset: str, mode_name: str) -> tuple:
    """The level basis Omega e_a of a preset's bottom level at order 24: the
    wave operator's Hermite coefficients per member and their monomial form."""
    spec = preset_problem(preset, mode_name, order=24)
    result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
    proj = result.context.projector
    waves, _ = proj.wave_operator2()
    return proj.basis, waves, [proj.as_s0(om, m.degree, proj.order2)
                               for m, om in zip(result.level.members, waves)]


def synthesis_roundoffs(exact: tuple, flt: tuple) -> float:
    """The largest |float - exact| over the monomial coefficients of the level
    basis, in units of 2^-53 times the magnitudes sum_m |c_m t_m| that
    synthesizing its exact Hermite coefficients c_m sums into each one (t_m
    the monomial coefficients of the monic p_m)."""
    basis, waves, exact_fs = exact
    worst = 0.0
    for om, e, f in zip(waves, exact_fs, flt[2]):
        for s, vec in om.items():
            magnitudes: dict = {}
            for i, n in vec.num.items():
                c = Fraction(n, vec.den)  # the exact level basis
                index = basis.index(i)
                for gamma, t in basis.poly(index.alpha).terms.items():
                    key = (index.k, gamma)
                    magnitudes[key] = magnitudes.get(key, 0.0) + abs(float(c * t))
            for k, (ec, fc) in enumerate(zip(e.at2(s + e.K2).components,
                                             f.at2(s + f.K2).components)):
                for gamma in ec.terms.keys() | fc.terms.keys():
                    err = abs(fc.terms.get(gamma, 0) - float(ec.terms.get(gamma, 0)))
                    worst = max(worst, err / (magnitudes.get((k, gamma), 0.0) * 2.0 ** -53))
    return worst


@pytest.mark.parametrize("perturbed", [False, True], ids=["float", "perturbed"])
@pytest.mark.parametrize("preset", ["quartic1d", "cubic1d"])
def test_float_level_basis_within_roundoff_of_its_magnitudes(preset, perturbed, monkeypatch):
    # per coefficient, float loses 1e-9 near order 20 in 1-D: the monic
    # Hermite polynomials alternate in sign, so a small monomial coefficient
    # is a sum of large terms. Against those terms it keeps a few roundoffs
    # at every order; one Hermite coefficient of Omega off by 1e-10 is far
    # outside that
    exact = level_basis_at_depth(preset, "exact")
    if perturbed:
        wave_operator = ProjectorSeries.wave_operator2

        def off_by_1e10(proj):
            waves, h_eff = wave_operator(proj)
            vec = waves[0][max(waves[0])]
            top = max(vec.num)  # of the top degree: keys sort by degree first
            vec.num[top] *= 1 + 1e-10
            return waves, h_eff

        monkeypatch.setattr(ProjectorSeries, "wave_operator2", off_by_1e10)
    roundoffs = synthesis_roundoffs(exact, level_basis_at_depth(preset, "float"))
    assert (roundoffs > SYNTHESIS_ROUNDOFFS) == perturbed


LAMBDAS = st.sampled_from(["1", "2", "1/2", "3/2"])
COEFFS = st.sampled_from(["-2", "-1", "-1/2", "-1/4", "1/4", "1/2", "1", "3/2", "2"])


@st.composite
def rational_wells(draw, dims=st.integers(1, 2), orders=st.integers(1, 4)):
    """Spec text, less its mode, of a random rational well: n from ``dims``,
    rank <= 2, cubic and quartic terms, an off-diagonal endomorphism slope at
    rank 2."""
    n, rank = draw(dims), draw(st.integers(1, 2))
    order = draw(orders)
    lines = ["[problem]", f"n = {n}", f"rank = {rank}", f"order = {order}", "", "[lambda]",
             *(draw(LAMBDAS) for _ in range(n)), "", "[potential]"]
    monomials = [a for a in itertools.product(range(5), repeat=n) if 3 <= sum(a) <= 4]
    terms = draw(st.dictionaries(st.sampled_from(monomials), COEFFS, min_size=1, max_size=3))
    lines += [" ".join(map(str, a)) + f"  {c}" for a, c in sorted(terms.items())]
    if rank == 2:
        mu = draw(st.sampled_from(["0", "1", "2"]))
        slope = draw(COEFFS)
        lines += ["", "[endomorphism]", "2 2  " + "0 " * n + mu,
                  "1 2  1" + " 0" * (n - 1) + f"  {slope}"]
    lines += ["", "[level]", f"index = {draw(st.integers(0, 1))}"]
    return "\n".join(lines) + "\n"


def spec_document(text: str) -> tuple:
    spec = parse_problem_spec(text)
    result = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                                level_index=spec.level_index)
    return json.loads(json.dumps(result_document(spec, result))), result


@settings(max_examples=50, deadline=None, derandomize=True)
@given(rational_wells())
def test_float_matches_exact_on_random_rational_wells(text):
    check_float_matches_exact(text)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rational_wells(dims=st.just(3), orders=st.integers(1, 3)))
def test_float_matches_exact_on_random_3d_wells(text):
    check_float_matches_exact(text)


def check_float_matches_exact(text):
    try:
        exact, result = spec_document(text.replace("[problem]", "[problem]\nmode = exact"))
    except ExactSplitUnavailable:
        assume(False)
    # a level that never splits through the order has no preferred eigenbasis
    eigs = [tuple(e.items2()) for e in result.eigenvalues]
    assume(len(set(eigs)) == len(eigs))
    doc, _ = spec_document(text.replace("[problem]", "[problem]\nmode = float"))
    assert reference.float_mismatch(doc, exact, reference.FLOAT_RTOL) is None
