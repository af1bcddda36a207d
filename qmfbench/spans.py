"""Per-layer spans for the benchmark, recorded from outside the program.

``traced()`` replaces qmf's public names at the sites that import them with
wrappers that record one span per call: ``[name, parent index, start ns,
end ns]``. Calls are synchronous and single-threaded, so spans nest properly,
and with integer nanosecond clocks a span's self time (its duration minus
its direct children's) is never negative. Every name is restored on exit.

A site that no longer exists is reported as missing; the metrics that need
only missing spans are left out of the result rather than reported as 0.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from fractions import Fraction

COMPUTE = "quasimode_pipeline.compute_quasimodes"
IMAGE = "projection_engine.image_s0"
UNRESCALE = "series_algebra.unrescale"

# span name -> import sites (module of qmf, attribute path) the span wraps.
# Sites are where the caller looks the name up, so a span covers exactly the
# calls made through that binding.
SITES = {
    "cli_io.run_command": [("cli_io", "run_command")],
    COMPUTE: [("cli_io", "compute_quasimodes")],
    "operator_calculus.solve_eikonal": [("quasimode_pipeline", "solve_eikonal")],
    "operator_calculus.conjugate_hamiltonian": [("quasimode_pipeline", "conjugate_hamiltonian")],
    "operator_calculus.rescale_operator": [("quasimode_pipeline", "rescale_operator")],
    "harmonic_oscillator.build_spectrum": [("quasimode_pipeline", "build_spectrum")],
    "gaussian_pairing.weight_expansion": [("quasimode_pipeline", "weight_expansion")],
    "gaussian_pairing.pair_s0": [("formal_diagonalization", "pair_s0"),
                                 ("quasimode_pipeline", "pair_s0"),
                                 ("projection_engine", "pair_s0")],
    IMAGE: [("projection_engine", "ProjectorSeries.image_s0")],
    # the pipeline holds its own binding of build_projector; this one is the
    # projector that ``verify`` rebuilds for the projector-law check
    "projection_engine.build_projector": [("projection_engine", "build_projector")],
    "projection_engine.projector_diagnostics": [("cli_io", "projector_diagnostics")],
    "formal_diagonalization.gram_matrix": [("quasimode_pipeline", "gram_matrix")],
    "formal_diagonalization.interaction_matrix": [("quasimode_pipeline", "interaction_matrix")],
    "formal_diagonalization.formal_eigendecomposition":
        [("quasimode_pipeline", "formal_eigendecomposition")],
    UNRESCALE: [("quasimode_pipeline", "unrescale")],
    "quasimode_pipeline.transport_residual": [("cli_io", "transport_residual")],
    "quasimode_pipeline.eigen_residual": [("cli_io", "eigen_residual")],
    "quasimode_pipeline.orthonormality_report": [("cli_io", "orthonormality_report")],
    "quasimode_pipeline.rs_oracle": [("cli_io", "rs_oracle")],
    "quasimode_pipeline.crosscheck_eigenvalue_1d": [("cli_io", "crosscheck_eigenvalue_1d")],
}

# metric -> (kind, spans): "total" sums the outermost spans' durations,
# "self" their self times, "calls" counts them
SPAN_METRICS = {
    "projection_engine.images_s": ("total", [IMAGE]),
    "projection_engine.laws_s": ("total", ["projection_engine.build_projector",
                                           "projection_engine.projector_diagnostics"]),
    "gaussian_pairing.pair_s": ("self", ["gaussian_pairing.pair_s0"]),
    "gaussian_pairing.pair_calls": ("calls", ["gaussian_pairing.pair_s0"]),
    "gaussian_pairing.weight_s": ("total", ["gaussian_pairing.weight_expansion"]),
    "formal_diagonalization.gram_s": ("total", ["formal_diagonalization.gram_matrix"]),
    "formal_diagonalization.interaction_s": ("total", ["formal_diagonalization.interaction_matrix"]),
    "formal_diagonalization.pencil_s": ("total", ["formal_diagonalization.formal_eigendecomposition"]),
    "quasimode_pipeline.transport_s": ("total", ["quasimode_pipeline.transport_residual"]),
    "quasimode_pipeline.eigen_residual_s": ("total", ["quasimode_pipeline.eigen_residual"]),
    "quasimode_pipeline.orthonormality_s": ("total", ["quasimode_pipeline.orthonormality_report"]),
    "quasimode_pipeline.rs_oracle_s": ("total", ["quasimode_pipeline.rs_oracle"]),
    "quasimode_pipeline.crosscheck_s": ("total", ["quasimode_pipeline.crosscheck_eigenvalue_1d"]),
    "quasimode_pipeline.compute_s": ("total", [COMPUTE]),
    "quasimode_pipeline.glue_s": ("self", [COMPUTE]),
    "operator_calculus.eikonal_s": ("total", ["operator_calculus.solve_eikonal"]),
    "operator_calculus.conjugate_s": ("total", ["operator_calculus.conjugate_hamiltonian"]),
    "operator_calculus.rescale_s": ("total", ["operator_calculus.rescale_operator"]),
    "harmonic_oscillator.spectrum_s": ("total", ["harmonic_oscillator.build_spectrum"]),
    "series_algebra.unrescale_s": ("total", [UNRESCALE]),
    "cli_io.command_s": ("self", ["cli_io.run_command"]),
}


def _poly_terms(fiber_polys) -> int:
    return sum(len(comp.terms) for p in fiber_polys for comp in p.components)


def _max_bits(series) -> int:
    bits = 0
    for p in series.coeffs.values():
        for comp in p.components:
            for c in comp.terms.values():
                if isinstance(c, Fraction):
                    bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


# span -> (counter metrics, their values for one call's return value). They
# are counted right after the call, so that no result outlives its command;
# like the wrappers, the counting is part of the tracing overhead.
COUNTERS = {
    IMAGE: (("projection_engine.image_terms", "projection_engine.max_bits"),
            lambda s: (_poly_terms(s.coeffs.values()), _max_bits(s))),
    COMPUTE: (("formal_diagonalization.level_size", "harmonic_oscillator.basis_size",
               "harmonic_oscillator.workspace_degree"),
              lambda r: (r.level.m0, len(r.context.basis.indices()), r.context.basis.degree)),
    UNRESCALE: (("series_algebra.output_terms",),
                lambda a: (_poly_terms(jet for _, jet in a.items()),)),
}
# counters that are maxima over a pass; the others are sums
GAUGES = {"projection_engine.max_bits", "formal_diagonalization.level_size",
          "harmonic_oscillator.basis_size", "harmonic_oscillator.workspace_degree"}


class SpanRecorder:
    """In-memory spans of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start ns, end ns]
        self.counts: dict = {}          # counter metric -> value over the pass
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        names, count = COUNTERS.get(name, ((), None))
        clock = time.perf_counter_ns

        def traced_call(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0, 0])
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
            for metric, value in zip(names, count(out) if count else ()):
                old = counts.get(metric, 0)
                counts[metric] = max(old, value) if metric in GAUGES else old + value
            return out

        traced_call.__wrapped__ = fn
        return traced_call

    def self_ns(self) -> list[int]:
        """Self time of every span, in recording order."""
        out = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def outermost(self, names: set) -> list[int]:
        """Indices of spans in ``names`` with no ancestor in ``names``."""
        picked = []
        for i, (name, parent, _, _) in enumerate(self.spans):
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][1]
            if parent < 0:
                picked.append(i)
        return picked


def site_owner(module_name: str, path: str) -> tuple:
    """(object holding the attribute or None, attribute name) of one import site."""
    owner = importlib.import_module(f"qmf.{module_name}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


@contextmanager
def traced(recorder: SpanRecorder, sites: dict = SITES):
    """Install span wrappers at every site; yields the missing span names."""
    installed = []
    missing = set()
    try:
        for name, where in sites.items():
            found = 0
            for module_name, path in where:
                owner, attr = site_owner(module_name, path)
                if owner is None or not hasattr(owner, attr):
                    continue
                had = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, recorder.wrap(name, original))
                installed.append((owner, attr, had, original))
                found += 1
            if not found:
                missing.add(name)
        yield missing
    finally:
        for owner, attr, had, original in reversed(installed):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_metrics(recorder: SpanRecorder, missing: set) -> dict:
    """Per-layer metrics of one traced pass, in seconds and counts."""
    self_ns = recorder.self_ns()
    out = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        present = set(names) - missing
        if not present:
            continue
        if kind == "calls":
            out[metric] = sum(1 for s in recorder.spans if s[0] in present)
            continue
        if kind == "self":
            ns = sum(self_ns[i] for i, s in enumerate(recorder.spans) if s[0] in present)
        else:
            ns = sum(recorder.spans[i][3] - recorder.spans[i][2]
                     for i in recorder.outermost(present))
        out[metric] = ns / 1e9

    for span, (names, _) in COUNTERS.items():
        if span not in missing:
            out.update((metric, recorder.counts.get(metric, 0)) for metric in names)
    return out
