"""Result documents stay faithful to the committed references.

``qmfbench/refs`` holds the ``qmf compute`` document of every exact
benchmark case as the program first wrote it, without its ``checks`` block.
Each one is recomputed here and must match byte for byte once written the
same way (``reference.canonical``). The float cases of the benchmark must
agree with the exact reference of the same rational problem within
``reference.FLOAT_RTOL``, the gate the benchmark applies to every float run,
and so must float documents of other presets and of random rational wells,
against exact documents computed here. ``qmfbench/reference.py`` is loaded
by path and only read.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmf import cli_io
from qmf.cli_io import parse_problem_spec, result_document, run_command
from qmf.formal_diagonalization import ExactSplitUnavailable
from qmf.quasimode_pipeline import compute_quasimodes, crosscheck_eigenvalue_1d

BENCH = Path(__file__).resolve().parent.parent / "qmfbench"
REFS = sorted((BENCH / "refs").glob("*-exact.json"))

_spec = importlib.util.spec_from_file_location("qmfbench_reference", BENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def compute_document(preset: str, order: str, mode: str, tmp_path) -> dict:
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["compute", "--preset", preset, "--order", order,
                              "--mode", mode, "--out", str(out)])
    assert status == 0
    return json.loads(out.read_bytes())


def test_references_present():
    assert len(REFS) >= 9


@pytest.mark.parametrize("ref", REFS, ids=lambda path: path.stem)
def test_exact_document_matches_reference(ref, tmp_path):
    preset, order = re.fullmatch(r"(.+)-o(\d+)-exact", ref.stem).groups()
    doc = compute_document(preset, order, "exact", tmp_path)
    assert reference.canonical(doc) == ref.read_bytes()


@pytest.mark.parametrize("preset, order", [("iso2d", "5"), ("quartic1d", "8")])
def test_float_document_within_tolerance_of_exact(preset, order, tmp_path):
    doc = compute_document(preset, order, "float", tmp_path)
    ref = json.loads((BENCH / "refs" / f"{preset}-o{order}-exact.json").read_bytes())
    assert reference.float_mismatch(doc, ref, reference.FLOAT_RTOL) is None


def test_quartic_crosscheck_document_unchanged(tmp_path, monkeypatch):
    # the benchmark's crosscheck case: its box stops growing on a confining
    # well long before the cap, so the document, check block included, is
    # the one the program wrote before the non-confining guard existed
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
    assert report.data["box"] == 3.796875
    # the sine-basis eigenvalues are fixed only up to rounding, eps ||H||
    # with ||H|| about 200 at this box, near 1e-11 of this residual, so the
    # pin holds no solver's last digits
    (check,) = doc["checks"]
    assert check.pop("max_residual") == pytest.approx(0.004158530873381416, rel=1e-9)
    assert check == {"detail": "log-log error slope 3.673 (required >= 3.5)",
                     "name": "fd_crosscheck", "order_doubled": 4, "passed": True}


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
    eigs = [tuple(e.items()) for e in result.eigenvalues]
    assume(len(set(eigs)) == len(eigs))
    doc, _ = spec_document(text.replace("[problem]", "[problem]\nmode = float"))
    assert reference.float_mismatch(doc, exact, reference.FLOAT_RTOL) is None
