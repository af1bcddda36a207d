"""Problem-spec files, presets, the command-line surface, and result documents.

The spec file is a line-oriented sectioned format: ``[section]`` headers,
``key = value`` pairs, and whitespace-separated data rows. Exact coefficients
are written as integers or fraction strings ``p/q``; decimal literals are
accepted in float mode only. Unknown sections or keys are rejected with the
offending line and column.

Commands (exit 0 success, 1 input error, 2 check failure):

    qmf compute    --spec F | --preset name[:k=v,...]  --order N
                   [--level E0 | --level-index i] [--out out.json]
    qmf verify     ... --checks all | transport,parity,...
    qmf spectrum   ... --degree D
    qmf crosscheck ... --hbar 0.2,0.1,0.05 --grid 4096 [--csv pts.csv]

Result documents are JSON with schema 1: half-integer exponents appear as
doubled integers, exact coefficients as fraction strings, so exact-mode
output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .series_algebra import EXACT, HI0, HalfInt, Poly, float_mode, worst_residual
from .operator_calculus import JetProblem, ProblemValidationError
from .harmonic_oscillator import build_spectrum
from .projection_engine import projector_diagnostics
from .quasimode_pipeline import (
    VerificationReport,
    compute_quasimodes,
    crosscheck_eigenvalue_1d,
    eigen_residual,
    orthonormality_report,
    rs_oracle,
    transport_residual,
)

__all__ = [
    "SpecFileError",
    "ParsedSpec",
    "parse_problem_spec",
    "preset_problem",
    "PRESETS",
    "result_document",
    "run_command",
    "main",
]

SCHEMA_VERSION = 1
TOOL_NAME = "qmf"


class SpecFileError(ValueError):
    """Parse or validation failure, with source location when available."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = f" (line {line}" + (f", col {col})" if col is not None else ")") if line else ""
        super().__init__(message + loc)


_KNOWN_SECTIONS = {"problem", "lambda", "potential", "metric_inverse",
                   "endomorphism", "connection", "level", "checks"}
_PROBLEM_KEYS = {"n", "rank", "mode", "order", "degree"}
_LEVEL_KEYS = {"value", "index"}
_CHECK_NAMES = ("transport", "parity", "orthonormality", "eigen_residual", "rs", "projector")
_CHECK_KEYS = set(_CHECK_NAMES) | {"tolerance"}
_DEFAULT_CHECKS = {"transport": True, "parity": True, "orthonormality": True,
                   "eigen_residual": True, "rs": "auto", "projector": False}


@dataclass
class ParsedSpec:
    """A validated problem plus the run directives carried by the file."""

    problem: JetProblem
    mode_name: str
    order: HalfInt
    level_value: object | None
    level_index: int | None
    checks: dict = field(default_factory=dict)


def _parse_coeff(token: str, mode, line: int, col: int):
    try:
        if "/" in token or token.lstrip("+-").isdigit():
            return mode.coeff(Fraction(token))
        if mode.name == "exact":
            raise SpecFileError(
                f"decimal literal {token!r} needs float mode", line, col)
        return mode.coeff(float(token))
    except SpecFileError:
        raise
    except (ValueError, ZeroDivisionError):
        raise SpecFileError(f"cannot parse coefficient {token!r}", line, col) from None


def _parse_as(cast, what: str, token: str, line: int | None, col: int | None = 1):
    """``cast(token)``, or a ``SpecFileError`` naming ``what`` at the line."""
    try:
        return cast(token)
    except (ValueError, ZeroDivisionError):
        raise SpecFileError(f"cannot parse {what} {token!r}", line, col) from None


def _parse_order(token: str, line: int | None = None) -> HalfInt:
    order = _parse_as(HalfInt.parse, "order (an integer or half-integer like 5/2)", token, line)
    if order < HI0:
        raise SpecFileError("order must be nonnegative", line)
    return order


def _parse_multiindex(tokens, n, line, col):
    if len(tokens) != n:
        raise SpecFileError(f"expected {n} multi-index entries, got {len(tokens)}", line, col)
    try:
        alpha = tuple(int(t) for t in tokens)
    except ValueError:
        raise SpecFileError("multi-index entries must be integers", line, col) from None
    if any(a < 0 for a in alpha):
        raise SpecFileError("multi-index entries must be nonnegative", line, col)
    return alpha


def parse_problem_spec(text: str) -> ParsedSpec:
    """Parse and validate a problem-spec document.

    Raises ``SpecFileError`` with line/column on syntax problems and with the
    violated structural requirement's message on semantic problems.
    """
    sections: dict[str, list] = {}
    keyvals: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        s = stripped.strip()
        if s.startswith("["):
            if not s.endswith("]"):
                raise SpecFileError("unterminated section header", lineno, stripped.index("[") + 1)
            name = s[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise SpecFileError(f"unknown section [{name}]", lineno, 1)
            if name in sections:
                raise SpecFileError(f"duplicate section [{name}]", lineno, 1)
            sections[name] = []
            keyvals[name] = {}
            current = name
            continue
        if current is None:
            raise SpecFileError("data before any section header", lineno, 1)
        if "=" in s:
            key, _, val = s.partition("=")
            key = key.strip()
            val = val.strip()
            allowed = {"problem": _PROBLEM_KEYS, "level": _LEVEL_KEYS,
                       "checks": _CHECK_KEYS}.get(current)
            if allowed is None:
                raise SpecFileError(f"key-value entries not allowed in [{current}]", lineno, 1)
            if key not in allowed:
                raise SpecFileError(f"unknown key {key!r} in [{current}]", lineno, 1)
            if key in keyvals[current]:
                raise SpecFileError(f"duplicate key {key!r}", lineno, 1)
            keyvals[current][key] = (val, lineno)
        else:
            sections[current].append((s.split(), lineno))

    if "problem" not in sections:
        raise SpecFileError("missing [problem] section")
    if "lambda" not in sections:
        raise SpecFileError("missing [lambda] section")

    pk = keyvals["problem"]

    def need(key):
        if key not in pk:
            raise SpecFileError(f"[problem] is missing {key!r}")
        return pk[key]

    try:
        n = int(need("n")[0])
        rank = int(need("rank")[0])
    except ValueError:
        raise SpecFileError("n and rank must be integers") from None
    mode_name = pk.get("mode", ("exact", 0))[0]
    if mode_name not in ("exact", "float"):
        raise SpecFileError(f"mode must be 'exact' or 'float', got {mode_name!r}",
                            pk.get("mode", (None, None))[1])
    mode = EXACT if mode_name == "exact" else float_mode()
    if "tolerance" in keyvals.get("checks", {}):
        token, lineno = keyvals["checks"]["tolerance"]
        rtol = _parse_as(float, "tolerance", token, lineno)
        if not (math.isfinite(rtol) and 0 < rtol < 1):
            raise SpecFileError(f"tolerance must be a finite number with 0 < t < 1, got {token!r}",
                                lineno, 1)
        if mode_name == "float":
            mode = float_mode(rtol)
    order = _parse_order(*need("order"))
    degree = None
    if "degree" in pk:
        degree = _parse_as(int, "degree", *pk["degree"])

    lam = []
    for tokens, lineno in sections["lambda"]:
        for t in tokens:
            lam.append(_parse_coeff(t, mode, lineno, 1))
    if len(lam) != n:
        raise SpecFileError(f"[lambda] must list exactly n = {n} frequencies, got {len(lam)}")

    if degree is None:
        degree = 2 * ((order.doubled + 1) // 2) + 4

    v_poly = Poly.zero(mode, n)
    for tokens, lineno in sections.get("potential", []):
        if len(tokens) != n + 1:
            raise SpecFileError(f"potential rows need {n} index entries and a coefficient", lineno, 1)
        alpha = _parse_multiindex(tokens[:n], n, lineno, 1)
        c = _parse_coeff(tokens[n], mode, lineno, 1)
        v_poly = v_poly + Poly.monomial(mode, n, alpha, c)

    def index_rows(section: str, what: str, layout: str, bounds: tuple):
        """(0-based indices, monomial, line) of each row of a section of
        ``len(bounds)`` 1-based indices, n exponents and a coefficient."""
        k = len(bounds)
        for tokens, lineno in sections[section]:
            if len(tokens) != k + n + 1:
                raise SpecFileError(
                    f"{what} rows are: {layout}, {n} index entries, coefficient", lineno, 1)
            idx = [_parse_as(int, f"{what} index", t, lineno) - 1 for t in tokens[:k]]
            if not all(0 <= i < b for i, b in zip(idx, bounds)):
                raise SpecFileError(f"{what} indices out of range", lineno, 1)
            yield (idx, Poly.monomial(mode, n, _parse_multiindex(tokens[k:k + n], n, lineno, 1),
                                      _parse_coeff(tokens[-1], mode, lineno, 1)), lineno)

    def zeros(size: int) -> list:
        return [[Poly.zero(mode, n) for _ in range(size)] for _ in range(size)]

    g_inv = w_mat = gamma_conn = None
    if sections.get("metric_inverse"):
        entries = zeros(n)
        for i in range(n):
            entries[i][i] = Poly.const(mode, n, 1)
        for (i, j), mono, _ in index_rows("metric_inverse", "metric", "i j", (n, n)):
            entries[i][j] = entries[i][j] + mono
            if i != j:
                entries[j][i] = entries[j][i] + mono
        g_inv = tuple(map(tuple, entries))
    if sections.get("endomorphism"):
        entries = zeros(rank)
        for (k, l), mono, _ in index_rows("endomorphism", "endomorphism", "k l", (rank, rank)):
            entries[k][l] = entries[k][l] + mono
            if k != l:
                entries[l][k] = entries[l][k] + mono.conj()
        w_mat = tuple(map(tuple, entries))
    if sections.get("connection"):
        mats = [zeros(rank) for _ in range(n)]
        for (d, k, l), mono, lineno in index_rows("connection", "connection",
                                                  "direction, k l", (n, rank, rank)):
            mats[d][k][l] = mats[d][k][l] + mono
            if k != l:
                mats[d][l][k] = mats[d][l][k] - mono.conj()
            elif not (mono + mono.conj()).is_zero():
                raise SpecFileError("diagonal connection entries must be imaginary (skew)",
                                    lineno, 1)
        gamma_conn = tuple(tuple(map(tuple, m)) for m in mats)

    level_value = None
    level_index = None
    lk = keyvals.get("level", {})
    if "value" in lk and "index" in lk:
        raise SpecFileError("[level] takes either value or index, not both", lk["value"][1])
    if "value" in lk:
        tok, lineno = lk["value"]
        level_value = _parse_coeff(tok, mode, lineno, 1)
    if "index" in lk:
        level_index = _parse_as(int, "level index", *lk["index"])
        if level_index < 0:
            raise SpecFileError(f"level index must be nonnegative, got {level_index}",
                                lk["index"][1])

    checks = dict(_DEFAULT_CHECKS)
    for key, (val, lineno) in keyvals.get("checks", {}).items():
        if key == "tolerance":
            continue
        if key == "rs":
            if val not in ("on", "off", "auto"):
                raise SpecFileError("rs check must be on, off, or auto", lineno)
            checks[key] = {"on": True, "off": False, "auto": "auto"}[val]
        else:
            if val not in ("on", "off", "true", "false"):
                raise SpecFileError(f"check {key} must be on or off", lineno)
            checks[key] = val in ("on", "true")

    try:
        problem = JetProblem.create(
            mode, n, rank, degree, lam,
            V=None if v_poly.is_zero() else v_poly,
            g_inv=g_inv, W=w_mat, Gamma=gamma_conn)
    except ProblemValidationError as exc:
        raise SpecFileError(str(exc)) from exc

    return ParsedSpec(problem=problem, mode_name=mode_name, order=order,
                      level_value=level_value, level_index=level_index, checks=checks)


# ---------------------------------------------------------------------------
# Presets


def _preset_harmonic(params, mode):
    n = int(params.pop("n", 1))
    lam = params.pop("lam", "1")
    lams = [Fraction(t) for t in lam.split("+")]
    if len(lams) == 1:
        lams = lams * n
    mus = params.pop("mu", None)
    mus = [Fraction(t) for t in mus.split("+")] if mus else [Fraction(0)]
    rank = len(mus)
    w = None
    if any(m != 0 for m in mus):
        w = tuple(tuple(Poly.const(mode, n, mus[k]) if k == l else Poly.zero(mode, n)
                        for l in range(rank)) for k in range(rank))
    problem = JetProblem.create(mode, n, rank, 8, [mode.coeff(l) for l in lams], W=w)
    e0 = sum(lams) + mus[0]
    return problem, mode.coeff(e0), None


def _preset_1d(degree: int):
    """The well x^2 + c x^degree."""
    def preset(params, mode):
        c = Fraction(params.pop("c", "1"))
        v = Poly(mode, 1, {(2,): mode.coeff(1), (degree,): mode.coeff(c)})
        return JetProblem.create(mode, 1, 1, 12, (mode.coeff(1),), V=v), mode.coeff(1), None
    return preset


def _preset_witten1d(params, mode):
    c = Fraction(params.pop("c", "1"))
    # phase x^2/2 + c x^3/6: potential (phase')^2, endomorphism -phase''
    dphi = Poly(mode, 1, {(1,): mode.coeff(1), (2,): mode.coeff(c / 2)})
    v = dphi * dphi
    w = ((Poly(mode, 1, {(0,): mode.coeff(-1), (1,): mode.coeff(-c)}),),)
    problem = JetProblem.create(mode, 1, 1, 12, (mode.coeff(1),), V=v, W=w)
    return problem, mode.coeff(0), None


def _preset_iso2d(params, mode):
    c = Fraction(params.pop("c", "1"))
    v = Poly(mode, 2, {(2, 0): mode.coeff(1), (0, 2): mode.coeff(1),
                       (3, 0): mode.coeff(c), (1, 2): mode.coeff(c)})
    problem = JetProblem.create(mode, 2, 1, 10, (mode.coeff(1), mode.coeff(1)), V=v)
    return problem, mode.coeff(4), None


def _preset_rank2(params, mode):
    # frequency 2 well with a mixed-parity degenerate level at 6:
    # (2*1+1)*2 + 0 = 2 + 4; the off-diagonal endomorphism slope couples the
    # members at half order with a rational gap, the connection exercises the
    # bundle machinery
    c = Fraction(params.pop("c", "1/2"))
    w_slope = Fraction(params.pop("w", "1"))
    g_slope = Fraction(params.pop("g", "1/2"))
    v = Poly(mode, 1, {(2,): mode.coeff(4), (3,): mode.coeff(c)})
    z = Poly.zero(mode, 1)
    w = (
        (z, Poly(mode, 1, {(1,): mode.coeff(w_slope)})),
        (Poly(mode, 1, {(1,): mode.coeff(w_slope)}), Poly.const(mode, 1, 4)),
    )
    gam = None
    if g_slope != 0:
        gmat = (
            (z, Poly(mode, 1, {(1,): mode.coeff(g_slope)})),
            (Poly(mode, 1, {(1,): mode.coeff(-g_slope)}), z),
        )
        gam = (gmat,)
    problem = JetProblem.create(mode, 1, 2, 12, (mode.coeff(2),), V=v, W=w, Gamma=gam)
    return problem, mode.coeff(6), None


PRESETS = {
    "harmonic": _preset_harmonic,
    "cubic1d": _preset_1d(3),
    "quartic1d": _preset_1d(4),
    "witten1d": _preset_witten1d,
    "iso2d": _preset_iso2d,
    "rank2": _preset_rank2,
}


def preset_problem(spec: str, mode_name: str = "exact",
                   order=HalfInt(6)) -> ParsedSpec:
    """Expand 'name' or 'name:key=val,key=val' into a validated problem."""
    name, _, tail = spec.partition(":")
    if name not in PRESETS:
        raise SpecFileError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    params = {}
    if tail:
        for item in tail.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise SpecFileError(f"preset parameter {item!r} is not key=value")
            params[key.strip()] = val.strip()
    mode = EXACT if mode_name == "exact" else float_mode()
    try:
        problem, e0, index = PRESETS[name](params, mode)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad parameters for preset {name!r}: {exc}") from None
    if params:
        raise SpecFileError(f"unknown preset parameters: {', '.join(sorted(params))}")
    order = HalfInt.of(order)
    if problem.D < order.doubled + 2:
        problem = JetProblem.create(mode, problem.n, problem.rank, order.doubled + 4,
                                    problem.lam, V=problem.V, g_inv=problem.g_inv,
                                    W=problem.W, Gamma=problem.Gamma)
    return ParsedSpec(problem=problem, mode_name=mode_name, order=order,
                      level_value=e0, level_index=index, checks=dict(_DEFAULT_CHECKS))


# ---------------------------------------------------------------------------
# Result documents


def _series_json(series, mode):
    return [[t.doubled, mode.to_json(c)] for t, c in series.items()]


def result_document(spec: ParsedSpec, result, reports=None) -> dict:
    mode = spec.problem.mode
    lvl = result.level
    doc = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": _version()},
        "mode": spec.mode_name,
        "order_doubled": result.order.doubled,
        "problem": {
            "n": spec.problem.n,
            "rank": spec.problem.rank,
            "D": spec.problem.D,
            "lambda": [mode.to_json(l) for l in spec.problem.lam],
            "mu": [mode.to_json(m) for m in spec.problem.mu],
        },
        "level": {
            "E0": mode.to_json(lvl.E0),
            "m0": lvl.m0,
            "K_doubled": lvl.K.doubled,
            "parity": lvl.parity,
            "members": [{"alpha": list(m.alpha), "k": m.k + 1} for m in lvl.members],
        },
        "normalization_prefactor_exponent_doubled": -spec.problem.n,
        "eigenvalues": [_series_json(e, mode) for e in result.eigenvalues],
        "eigenfunctions": [],
        "checks": [],
    }
    for a, n2 in zip(result.eigenfunctions, result.norm2_constants):
        terms = []
        for k, jet in a.items():
            for alpha in sorted({al for comp in jet.components for al in comp.terms}):
                col = [mode.to_json(comp.coefficient(alpha)) for comp in jet.components]
                terms.append([k.doubled, list(alpha), col])
        doc["eigenfunctions"].append({
            "K_doubled": a.K.doubled,
            "norm2_constant": mode.to_json(n2),
            "normalized": result.normalized,
            "terms": terms,
        })
    for rep in reports or []:
        doc["checks"].append({
            "name": rep.name,
            "passed": bool(rep.passed),
            "order_doubled": rep.order.doubled if rep.order is not None else None,
            "max_residual": float(rep.max_residual),
            "detail": rep.detail,
        })
    return doc


def _version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# Commands


def _load_spec(args) -> ParsedSpec:
    if getattr(args, "preset", None):
        spec = preset_problem(args.preset, mode_name=args.mode or "exact",
                              order=_parse_order(args.order) if args.order else HalfInt(6))
    elif getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = parse_problem_spec(fh.read())
        if args.mode and args.mode != spec.mode_name:
            raise SpecFileError("--mode conflicts with the spec file's mode; edit the file")
        if args.order:
            spec.order = _parse_order(args.order)
    else:
        raise SpecFileError("one of --spec or --preset is required")
    if getattr(args, "level", None) is not None:
        mode = spec.problem.mode
        spec.level_value = _parse_coeff(args.level, mode, 0, 0)
        spec.level_index = None
    if getattr(args, "level_index", None) is not None:
        spec.level_index = args.level_index
        spec.level_value = None
    return spec


def _compute(spec: ParsedSpec):
    return compute_quasimodes(spec.problem, spec.order, e0=spec.level_value,
                              level_index=spec.level_index)


def _run_checks(spec: ParsedSpec, result) -> list:
    reports = []
    checks = spec.checks
    mode = spec.problem.mode
    if checks.get("transport", True):
        reports.append(transport_residual(result))
    if checks.get("eigen_residual", True):
        reports.append(eigen_residual(result))
    if checks.get("orthonormality", True):
        reports.append(orthonormality_report(result))
    if checks.get("parity", True):
        reports.append(result.context.parity)
    rs_flag = checks.get("rs", "auto")
    if rs_flag is True or (rs_flag == "auto" and result.level.m0 == 1):
        oracle = rs_oracle(result)
        inner = result.eigenvalues[0].shift(HalfInt(-2))
        N = result.order
        worst = worst_residual(mode, [((inner - oracle).max_abs_coeff(N),
                                       max(inner.max_abs_coeff(N), oracle.max_abs_coeff(N)))])
        reports.append(VerificationReport(
            name="rs_oracle", passed=mode.negligible(worst, 1), order=N,
            max_residual=float(worst),
            detail="pipeline eigenvalue equals the perturbation recursion"))
    if checks.get("projector", False):
        ctx = result.context
        rep = projector_diagnostics(ctx.projector, ctx.omega)
        reports.append(VerificationReport(
            name="projector", passed=rep.passed(), order=result.order,
            max_residual=max(rep.idempotency_defect, rep.commutation_defect,
                             rep.symmetry_defect, rep.rank_residual),
            detail=f"rank {rep.rank}/{rep.rank_expected}"))
    return reports


def _print_summary(spec: ParsedSpec, result, reports, out=None):
    out = out if out is not None else sys.stdout
    lvl = result.level
    mode = spec.problem.mode
    print(f"level E0 = {mode.to_json(lvl.E0)}  multiplicity {lvl.m0}  "
          f"offset 2K = {lvl.K.doubled}  parity {lvl.parity}", file=out)
    for i, e in enumerate(result.eigenvalues, start=1):
        bits = [f"h^{t} * {mode.to_json(c)}" for t, c in e.items()]
        print(f"  E_{i} = " + (" + ".join(bits) if bits else "0"), file=out)
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"  [{status}] {rep.name}: max residual {rep.max_residual:.3e}  {rep.detail}",
              file=out)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error status; 2 means a check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check_numbers(args) -> None:
    """Reject numeric options no computation can use; parses ``--hbar``."""
    if args.command == "spectrum" and args.degree < 0:
        raise ValueError(f"--degree must be a nonnegative integer, got {args.degree}")
    if args.command != "crosscheck":
        return
    if args.grid < 3:
        raise ValueError(f"--grid must be an integer of at least 3, got {args.grid}")
    try:
        hbars = [float(t) for t in args.hbar.split(",")]
    except ValueError:
        raise ValueError(f"--hbar must be a comma list of numbers, got {args.hbar!r}") from None
    if not all(math.isfinite(h) and h > 0 for h in hbars):
        raise ValueError(f"--hbar values must be finite and positive, got {args.hbar!r}")
    if len(set(hbars)) < 2:
        raise ValueError(f"--hbar needs at least two distinct values to fit a slope, "
                         f"got {args.hbar!r}")
    args.hbar = hbars


def _check_names(text: str):
    """The ``--checks`` value: 'all', or a nonempty set of check names."""
    if text == "all":
        return text
    names = {w.strip() for w in text.split(",")}
    unknown = sorted(names - set(_CHECK_NAMES))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check {', '.join(map(repr, unknown))}; "
            f"use all or a comma list of {','.join(_CHECK_NAMES)}")
    return names


def run_command(argv) -> int:
    """Dispatch a command line; returns the process exit status."""
    parser = _Parser(
        prog=TOOL_NAME,
        description="formal quasimode expansions near a potential minimum")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", help="problem spec file")
        p.add_argument("--preset", help="preset name, e.g. witten1d:c=1")
        p.add_argument("--order", help="series order N (integer or p/2)")
        p.add_argument("--mode", choices=["exact", "float"])
        level = p.add_mutually_exclusive_group()
        level.add_argument("--level", help="model eigenvalue selecting the level")
        level.add_argument("--level-index", type=int, dest="level_index")
        p.add_argument("--out", help="write the JSON result document here")

    p_compute = sub.add_parser("compute", help="compute the quasimode series")
    common(p_compute)
    p_verify = sub.add_parser("verify", help="compute and run verification checks")
    common(p_verify)
    p_verify.add_argument("--checks", default="all", type=_check_names,
                          help="all or a comma list: " + ",".join(_CHECK_NAMES))
    p_spec = sub.add_parser("spectrum", help="tabulate the model spectrum")
    common(p_spec)
    p_spec.add_argument("--degree", type=int, default=6)
    p_cross = sub.add_parser("crosscheck", help="numerical (sine-basis) eigenvalue comparison")
    common(p_cross)
    p_cross.add_argument("--hbar", default="0.2,0.1,0.05")
    p_cross.add_argument("--grid", type=int, default=4096,
                         help="largest sine-basis size the doubling may reach")
    p_cross.add_argument("--csv", help="write (hbar, error) pairs here")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (status 1) or --help (status 0)
        return exc.code

    try:
        _check_numbers(args)
        spec = _load_spec(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "spectrum":
            table = build_spectrum(spec.problem.mode, spec.problem.lam, spec.problem.mu,
                                   args.degree)
            mode = spec.problem.mode
            doc = {"schema": SCHEMA_VERSION, "degree": args.degree,
                   "entries": [{"alpha": list(i.alpha), "k": i.k + 1,
                                "E": mode.to_json(e)}
                               for i, e in table.sorted_entries()]}
            for row in doc["entries"]:
                print(f"  alpha={tuple(row['alpha'])} k={row['k']}  E = {row['E']}")
            if args.out:
                _write_json(args.out, doc)
            return 0

        if args.command == "compute":
            result = _compute(spec)
            reports = []
        elif args.command == "verify":
            if args.checks == "all":
                spec.checks["projector"] = True
            else:
                for key in _CHECK_NAMES:
                    spec.checks[key] = key in args.checks
            result = _compute(spec)
            reports = _run_checks(spec, result)
        else:  # crosscheck
            result = _compute(spec)
            rep = crosscheck_eigenvalue_1d(result, args.hbar, grid=args.grid)
            reports = [rep]
            if args.csv:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    fh.write("hbar,error\n")
                    for hb, err in zip(rep.data["hbars"], rep.data["errors"]):
                        fh.write(f"{hb},{err}\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _print_summary(spec, result, reports)
    if args.out:
        _write_json(args.out, result_document(spec, result, reports))
    if any(not rep.passed for rep in reports):
        return 2
    return 0


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
