"""Formal WKB quasimode expansions near a non-degenerate potential minimum.

The package computes, to any requested order in sqrt(hbar), the eigenvalue
series and eigenfunction jet series of a conjugated Schrodinger operator
hbar^2 L + hbar W + V on a vector bundle, seeded by a degenerate level of the
local harmonic oscillator, and verifies the output against independent
oracles (transport equations, Rayleigh-Schrodinger recursion, and a 1-D
spectral eigensolver).
"""

from .series_algebra import EXACT, HalfInt, Poly, float_mode
from .operator_calculus import JetProblem
from .harmonic_oscillator import build_spectrum
from .quasimode_pipeline import (
    QuasimodeResult,
    VerificationReport,
    compute_quasimodes,
    crosscheck_eigenvalue_1d,
    eigen_residual,
    orthonormality_report,
    rs_oracle,
    transport_residual,
)
from .cli_io import preset_problem, run_command

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "float_mode",
    "HalfInt",
    "Poly",
    "JetProblem",
    "build_spectrum",
    "compute_quasimodes",
    "QuasimodeResult",
    "VerificationReport",
    "transport_residual",
    "eigen_residual",
    "orthonormality_report",
    "rs_oracle",
    "crosscheck_eigenvalue_1d",
    "preset_problem",
    "run_command",
    "__version__",
]
