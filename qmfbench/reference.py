"""Reference documents and the check every benchmark operation must pass.

An exact-mode result document must equal its committed reference byte for
byte once its ``checks`` block is removed. A float-mode document is compared
coefficient by coefficient with the exact reference of the same rational
problem: each coefficient must lie within ``FLOAT_RTOL`` of the exact value,
relative to that value, or to the largest exact coefficient of the same
order when the exact value is zero.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "refs"
FLOAT_RTOL = 1e-9


def canonical(doc: dict) -> bytes:
    """The document without its checks, written the way ``qmf --out`` writes."""
    body = {key: value for key, value in doc.items() if key != "checks"}
    return (json.dumps(body, indent=1, sort_keys=True) + "\n").encode()


def load_refs(names) -> dict:
    return {name: (REF_DIR / f"{name}.json").read_bytes() for name in names}


def mismatch(doc_bytes: bytes, mode: str, ref_bytes: bytes) -> str | None:
    """None if the document agrees with the reference, else why it does not."""
    doc = json.loads(doc_bytes)
    if mode == "exact":
        return None if canonical(doc) == ref_bytes else "differs from the exact reference"
    return float_mismatch(doc, json.loads(ref_bytes), FLOAT_RTOL)


def _number(value) -> complex:
    if isinstance(value, str):
        return complex(Fraction(value))
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def _close(what: str, got: dict, want: dict, rtol: float) -> str | None:
    """Compare {(order, position): value} maps; a missing entry is zero."""
    scale: dict = {}
    for (order, _), w in want.items():
        scale[order] = max(scale.get(order, 0.0), abs(w))
    top = max(scale.values(), default=0.0)
    for key in sorted(set(got) | set(want), key=repr):
        g, w = got.get(key, 0), want.get(key, 0)
        ref = abs(w) or scale.get(key[0]) or top
        if abs(g - w) > rtol * ref:
            return f"{what} coefficient {key}: {g} against exact {w}"
    return None


def float_mismatch(doc: dict, ref: dict, rtol: float) -> str | None:
    """Compare a float-mode document with the exact document of the same problem."""
    for key in ("schema", "tool", "order_doubled", "normalization_prefactor_exponent_doubled"):
        if doc[key] != ref[key]:
            return f"{key} differs"
    for key in ("n", "rank", "D"):
        if doc["problem"][key] != ref["problem"][key]:
            return f"problem {key} differs"
    for key in ("m0", "K_doubled", "parity", "members"):
        if doc["level"][key] != ref["level"][key]:
            return f"level {key} differs"
    problem = _close("problem",
                     {(0, (k, i)): _number(v) for k in ("lambda", "mu")
                      for i, v in enumerate(doc["problem"][k])},
                     {(0, (k, i)): _number(v) for k in ("lambda", "mu")
                      for i, v in enumerate(ref["problem"][k])}, rtol)
    if problem:
        return problem
    if abs(_number(doc["level"]["E0"]) - _number(ref["level"]["E0"])) > rtol * abs(
            _number(ref["level"]["E0"])):
        return "level E0 differs"
    if len(doc["eigenvalues"]) != len(ref["eigenvalues"]) or \
            len(doc["eigenfunctions"]) != len(ref["eigenfunctions"]):
        return "number of quasimodes differs"
    for i, (got, want) in enumerate(zip(doc["eigenvalues"], ref["eigenvalues"])):
        why = _close(f"eigenvalue {i}", {(k, 0): _number(c) for k, c in got},
                     {(k, 0): _number(c) for k, c in want}, rtol)
        if why:
            return why
    for i, (got, want) in enumerate(zip(doc["eigenfunctions"], ref["eigenfunctions"])):
        if got["K_doubled"] != want["K_doubled"]:
            return f"eigenfunction {i} offset differs"
        # float output is unit-normalized; the exact one has pairing norm^2 = norm2_constant
        unit = 1 / math.sqrt(float(Fraction(want["norm2_constant"])))
        why = _close(f"eigenfunction {i}",
                     {(k, (tuple(alpha), c)): _number(v)
                      for k, alpha, col in got["terms"] for c, v in enumerate(col)},
                     {(k, (tuple(alpha), c)): _number(v) * unit
                      for k, alpha, col in want["terms"] for c, v in enumerate(col)}, rtol)
        if why:
            return why
    return None
