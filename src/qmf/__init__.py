"""Formal WKB quasimode expansions near a non-degenerate potential minimum.

The package computes, to any requested order in sqrt(hbar), the eigenvalue
series and eigenfunction jet series of a conjugated Schrodinger operator
hbar^2 L + hbar W + V on a vector bundle, seeded by a degenerate level of the
local harmonic oscillator, and verifies the output against independent
oracles (transport equations, Rayleigh-Schrodinger recursion, and a 1-D
finite-difference eigensolver).
"""

from .series_algebra import (
    EXACT,
    FiberPoly,
    FormalScalarSeries,
    HalfInt,
    Poly,
    S0Series,
    XJetSeries,
    float_mode,
    inverse_sqrt_series,
    rescale,
    unrescale,
)
from .operator_calculus import (
    GradedDiffOp,
    JetProblem,
    ScalarJet,
    conjugate_hamiltonian,
    rescale_operator,
    solve_eikonal,
)
from .gaussian_pairing import GammaJet, WeightExpansion, gaussian_moment, pair_s0, weight_expansion
from .harmonic_oscillator import (
    DegenerateLevel,
    HermiteBasis,
    HermiteIndex,
    SpectrumTable,
    build_spectrum,
    degenerate_level,
    hermite_expand,
    hermite_synthesize,
    level_by_index,
)
from .projection_engine import (
    ProjectorSeries,
    build_projector,
    projector_by_block_recursion,
    projector_diagnostics,
)
from .formal_diagonalization import (
    EigenResult,
    SeriesMatrix,
    effective_matrix,
    formal_eigendecomposition,
    gram_matrix,
    matrix_inverse_sqrt,
    parity_filter,
)
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
from .cli_io import parse_problem_spec, preset_problem, run_command, serialize_problem_spec

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "float_mode",
    "HalfInt",
    "Poly",
    "FiberPoly",
    "FormalScalarSeries",
    "S0Series",
    "XJetSeries",
    "rescale",
    "unrescale",
    "inverse_sqrt_series",
    "JetProblem",
    "ScalarJet",
    "GradedDiffOp",
    "solve_eikonal",
    "conjugate_hamiltonian",
    "rescale_operator",
    "WeightExpansion",
    "GammaJet",
    "weight_expansion",
    "gaussian_moment",
    "pair_s0",
    "HermiteIndex",
    "HermiteBasis",
    "SpectrumTable",
    "DegenerateLevel",
    "build_spectrum",
    "degenerate_level",
    "ProjectorSeries",
    "build_projector",
    "projector_diagnostics",
    "SeriesMatrix",
    "EigenResult",
    "gram_matrix",
    "matrix_inverse_sqrt",
    "effective_matrix",
    "formal_eigendecomposition",
    "parity_filter",
    "QuasimodeResult",
    "VerificationReport",
    "compute_quasimodes",
    "transport_residual",
    "eigen_residual",
    "orthonormality_report",
    "rs_oracle",
    "crosscheck_eigenvalue_1d",
    "hermite_expand",
    "hermite_synthesize",
    "level_by_index",
    "projector_by_block_recursion",
    "parse_problem_spec",
    "preset_problem",
    "serialize_problem_spec",
    "run_command",
    "__version__",
]
