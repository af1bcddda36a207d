"""Self-tests of the benchmark harness.

    python3 -m pytest -q qmfbench

They check the harness, not qmf: the reference check catches one changed
coefficient, the span recorder restores every name and accounts for the
traced pass time, the host-speed sampler takes its own time out and restores
the signal handler, and the benchmark refuses to run without the sources.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import calibrate
import reference
import run
from spans import SITES, SpanRecorder, layer_metrics, site_owner, traced


def _ref(name: str) -> bytes:
    return (reference.REF_DIR / f"{name}.json").read_bytes()


def test_exact_reference_rejects_one_changed_coefficient():
    ref = _ref("cubic1d-o4-exact")
    doc = json.loads(ref)
    doc["checks"] = [{"name": "transport", "passed": True}]
    assert reference.mismatch(json.dumps(doc).encode(), "exact", ref) is None

    k, alpha, col = doc["eigenfunctions"][0]["terms"][-1]
    col[0] = str(Fraction(col[0]) + Fraction(1, 10**6))
    assert reference.mismatch(json.dumps(doc).encode(), "exact", ref) is not None


def _as_float_document(exact: dict) -> dict:
    """What a float run of the same problem writes, rounded from the exact one."""
    def num(v):
        return float(Fraction(v))

    doc = json.loads(json.dumps(exact))
    doc["mode"] = "float"
    doc["problem"]["lambda"] = [num(v) for v in doc["problem"]["lambda"]]
    doc["problem"]["mu"] = [num(v) for v in doc["problem"]["mu"]]
    doc["level"]["E0"] = num(doc["level"]["E0"])
    doc["eigenvalues"] = [[[k, num(c)] for k, c in s] for s in doc["eigenvalues"]]
    for a in doc["eigenfunctions"]:
        unit = num(a["norm2_constant"]) ** -0.5
        a["terms"] = [[k, alpha, [num(c) * unit for c in col]] for k, alpha, col in a["terms"]]
        a["norm2_constant"] = 1.0
        a["normalized"] = True
    return doc


def test_float_reference_accepts_rounding_and_rejects_one_changed_coefficient():
    exact = json.loads(_ref("iso2d-o5-exact"))
    doc = _as_float_document(exact)
    assert reference.float_mismatch(doc, exact, reference.FLOAT_RTOL) is None

    doc["eigenfunctions"][1]["terms"][-1][2][0] *= 1 + 100 * reference.FLOAT_RTOL
    assert reference.float_mismatch(doc, exact, reference.FLOAT_RTOL) is not None

    doc = _as_float_document(exact)
    doc["eigenvalues"][0][-1][1] *= 1 + 100 * reference.FLOAT_RTOL
    assert reference.float_mismatch(doc, exact, reference.FLOAT_RTOL) is not None


def _site_values(sites: dict) -> dict:
    out = {}
    for where in sites.values():
        for module_name, path in where:
            owner, attr = site_owner(module_name, path)
            out[(module_name, path)] = vars(owner).get(attr)
    return out


@pytest.fixture(scope="module")
def cli_io():
    run.WORK.mkdir(exist_ok=True)
    return run.import_cli_io()


def test_traced_pass_is_accounted_for_and_changes_no_output(cli_io):
    cases = [run.Case("verify", "quartic1d", 2),
             run.Case("verify", "quartic1d", 8, "float", ("--checks", run.RS_CHECKS))]
    refs = reference.load_refs({case.ref for case in cases})
    run.run_pass(cli_io, cases, refs)   # warm the module caches
    plain_s, plain = run.run_pass(cli_io, cases, refs)
    before = _site_values(SITES)

    recorder = SpanRecorder()
    with traced(recorder) as missing:
        traced_s, spanned = run.run_pass(cli_io, cases, refs)
    assert _site_values(SITES) == before
    assert not missing
    assert [o.doc for o in spanned] == [o.doc for o in plain]
    assert all(o.problem is None for o in plain + spanned)

    self_ns = recorder.self_ns()
    assert min(self_ns) >= 0
    # the spans cover the whole pass except the recorder's own cost, which is
    # part of the tracing overhead
    overhead = abs(traced_s / plain_s - 1)
    unaccounted = traced_s - sum(self_ns) / 1e9
    assert 0 <= unaccounted <= max(overhead, 1e-3) * traced_s

    metrics = layer_metrics(recorder, missing)
    assert metrics["gaussian_pairing.pair_calls"] > 0
    assert metrics["projection_engine.laws_s"] > 0
    assert metrics["projection_engine.max_bits"] > 0
    assert metrics["formal_diagonalization.level_size"] == 1


def test_missing_name_is_reported_missing_not_zero(cli_io):
    sites = dict(SITES)
    sites["operator_calculus.solve_eikonal"] = [("quasimode_pipeline", "no_such_name")]
    before = _site_values(SITES)
    recorder = SpanRecorder()
    with traced(recorder, sites) as missing:
        pass
    assert _site_values(SITES) == before
    assert missing == {"operator_calculus.solve_eikonal"}
    metrics = layer_metrics(recorder, missing)
    assert "operator_calculus.eikonal_s" not in metrics
    assert metrics["operator_calculus.conjugate_s"] == 0


def test_host_speed_takes_its_probes_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.HostSpeed() as speed:
        start = time.perf_counter()
        deadline = start + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
        seconds = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 4
    assert 0 < speed.inside_s < seconds
    scaled = speed.normalize(seconds)
    assert scaled == pytest.approx((seconds - speed.inside_s) * speed.scale())
    assert speed.scale() == pytest.approx(
        sum(calibrate.REFERENCE_PROBE_S / s for s in speed.samples) / len(speed.samples))


def test_speed_sampled_pass_matches_the_unsampled_one(cli_io):
    cases = [run.Case("verify", "quartic1d", 2)]
    refs = reference.load_refs({case.ref for case in cases})
    _, plain = run.run_pass(cli_io, cases, refs)
    scaled_s, sampled = run.run_pass(cli_io, cases, refs, sample_speed=True)
    assert [o.doc for o in sampled] == [o.doc for o in plain]
    assert all(o.problem is None for o in sampled)
    assert plain[0].scaled is None
    assert scaled_s == sampled[0].scaled > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "qmfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "qmfbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
