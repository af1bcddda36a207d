"""Result documents stay faithful to the committed references.

``qmfbench/refs`` holds the ``qmf compute`` document of every exact
benchmark case as the program first wrote it, without its ``checks`` block.
Each one is recomputed here and must match byte for byte once written the
same way (``reference.canonical``). The float cases of the benchmark must
agree with the exact reference of the same rational problem within
``reference.FLOAT_RTOL``, the gate the benchmark applies to every float run.
``qmfbench/reference.py`` is loaded by path and only read.
"""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from qmf.cli_io import run_command

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


def test_quartic_crosscheck_document_unchanged(tmp_path):
    # the benchmark's crosscheck case: its box stops growing on a confining
    # well long before the cap, so the document, check block included, is
    # the one the program wrote before the non-confining guard existed
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                              "--hbar", "0.2,0.1,0.05", "--grid", "4096", "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_bytes())
    assert reference.canonical(doc) == (BENCH / "refs" / "quartic1d-o2-exact.json").read_bytes()
    (check,) = doc["checks"]
    assert check.pop("max_residual") == pytest.approx(0.004158530842876318, rel=1e-12)
    assert check == {"detail": "log-log error slope 3.673 (required >= 3.5)",
                     "name": "fd_crosscheck", "order_doubled": 4, "passed": True}
