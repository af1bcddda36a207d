"""Exact-mode result documents stay byte-identical to the committed references.

``qmfbench/refs`` holds the ``qmf compute`` document of every exact
benchmark case as the program first wrote it, without its ``checks`` block.
Each one is recomputed here and written the same way: sorted keys,
``indent=1`` and a trailing newline.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from qmf.cli_io import run_command

REFS = sorted((Path(__file__).resolve().parent.parent / "qmfbench" / "refs").glob("*-exact.json"))


def canonical(doc: dict) -> bytes:
    body = {key: value for key, value in doc.items() if key != "checks"}
    return (json.dumps(body, indent=1, sort_keys=True) + "\n").encode()


def test_references_present():
    assert len(REFS) >= 9


@pytest.mark.parametrize("ref", REFS, ids=lambda path: path.stem)
def test_exact_document_matches_reference(ref, tmp_path):
    preset, order = re.fullmatch(r"(.+)-o(\d+)-exact", ref.stem).groups()
    out = tmp_path / "doc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_command(["compute", "--preset", preset, "--order", order,
                              "--mode", "exact", "--out", str(out)])
    assert status == 0
    assert canonical(json.loads(out.read_bytes())) == ref.read_bytes()
