"""The qmf benchmark: one workload of ``qmf`` commands, run in process.

    python3 qmfbench/run.py --workload simple-exact --seed 1 --seconds 30 --trace 0

A user's operation is one ``qmf`` command line, run through
``qmf.cli_io.run_command`` in this single-threaded process, with its
standard output sent to a buffer and its result document written under
``qmfbench/.work``. A pass runs every case of the workload once, in an order
drawn from ``--seed``; the cases themselves never depend on the seed. Every
document is checked against the committed references (see reference.py).

``--trace 0`` measures set-up in fresh processes, one cold pass, then warm
passes for ``--seconds``, and reports the end-to-end metrics of
BENCHMARK.json. Their times are scaled to a host of fixed speed by a probe
sampled while each command runs (see calibrate.py); the record line also
gives them as measured. ``--trace 1`` runs a cold pass, then pairs of an
untraced and a traced pass for up to ``--seconds``, and reports the
per-layer metrics of BENCHMARK.json from the traced passes (see spans.py),
as measured.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it, starting ``record``, holds the run's provenance.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import reference
from calibrate import HostSpeed
from spans import SpanRecorder, layer_metrics, traced

# one thread everywhere; set before qmf can import numpy
for _var in ("QMF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 11

RS_CHECKS = "transport,eigen_residual,orthonormality,parity,rs"
LEVEL_CHECKS = "transport,eigen_residual,orthonormality,parity"


@dataclass(frozen=True)
class Case:
    """One ``qmf`` command line on a preset problem."""

    command: str
    preset: str
    order: int
    mode: str = "exact"
    options: tuple = ()

    @property
    def name(self) -> str:
        return f"{self.command}-{self.preset}-o{self.order}-{self.mode}"

    @property
    def ref(self) -> str:
        """Reference document: the exact result of the same rational problem."""
        return f"{self.preset}-o{self.order}-exact"

    def argv(self, out: Path) -> list:
        return [self.command, "--preset", self.preset, "--order", str(self.order),
                "--mode", self.mode, *self.options, "--out", str(out)]


# Why these cases: see README.md. Each workload puts nearly all of its time in
# a different layer at the seed, so each open ROADMAP item moves one workload
# and leaves another flat.
WORKLOADS = {
    "simple-exact": [
        Case("verify", "cubic1d", 6, options=("--checks", RS_CHECKS)),
        Case("verify", "quartic1d", 8, options=("--checks", RS_CHECKS)),
        Case("verify", "witten1d", 9, options=("--checks", RS_CHECKS)),
    ],
    "degenerate": [
        Case("verify", "iso2d", 4, options=("--checks", LEVEL_CHECKS)),
        Case("verify", "rank2", 4, options=("--checks", LEVEL_CHECKS)),
        Case("verify", "iso2d", 5, "float", ("--checks", LEVEL_CHECKS)),
    ],
    "verify-all": [
        Case("verify", "cubic1d", 4),
        Case("verify", "rank2", 3),
        Case("verify", "quartic1d", 8, "float", ("--checks", RS_CHECKS)),
        Case("crosscheck", "quartic1d", 2,
             options=("--hbar", "0.2,0.1,0.05", "--grid", "4096")),
    ],
}


@dataclass
class Outcome:
    case: Case
    seconds: float          # as measured
    scaled: float | None    # at the reference host speed; None if not sampled
    status: int | None      # exit status; None if the command raised
    doc: bytes | None
    problem: str | None     # why the output is wrong, None if it is right

    @property
    def failed(self) -> bool:
        return self.status != 0 or self.problem is not None


def import_cli_io():
    """qmf.cli_io from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli_io = importlib.import_module("qmf.cli_io")
    if not Path(cli_io.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qmf was imported from {cli_io.__file__}, not from {SRC}")
    return cli_io


def setup_once(workload: str) -> tuple:
    """Seconds to import qmf and build the workload's problems in this fresh
    process: (as measured, at the reference host speed)."""
    with HostSpeed() as speed:
        start = time.perf_counter()
        cli_io = import_cli_io()
        for case in WORKLOADS[workload]:
            cli_io.preset_problem(case.preset, mode_name=case.mode, order=case.order)
        seconds = time.perf_counter() - start
    return seconds, speed.normalize(seconds)


def measure_setup(workload: str) -> tuple:
    """(as measured, scaled) set-up seconds of SETUP_PROBES fresh processes."""
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, normalized = map(float, done.stdout.split()[-2:])
        measured.append(seconds)
        scaled.append(normalized)
    return measured, scaled


def run_case(cli_io, case: Case, refs: dict, sample_speed: bool = False) -> Outcome:
    out = WORK / f"{case.name}.json"
    out.unlink(missing_ok=True)
    argv = case.argv(out)
    status, error = None, None
    # each command starts from a collected heap, as in a fresh qmf process, so
    # the garbage left by the cases before it does not set when it collects
    gc.collect()
    speed = HostSpeed() if sample_speed else contextlib.nullcontext()
    with speed:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_io.run_command(argv)
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    scaled = speed.normalize(seconds) if sample_speed else None
    doc = out.read_bytes() if out.exists() else None
    if error is not None:
        problem = f"raised:\n{error}"
    elif doc is None:
        problem = "wrote no result document"
    else:
        problem = reference.mismatch(doc, case.mode, refs[case.ref])
    return Outcome(case, seconds, scaled, status, doc, problem)


def run_pass(cli_io, cases: list, refs: dict, sample_speed: bool = False) -> tuple:
    """(seconds spent inside the commands, outcomes) for one pass; the seconds
    are scaled to the reference host speed when ``sample_speed``."""
    outcomes = [run_case(cli_io, case, refs, sample_speed) for case in cases]
    if sample_speed:
        return sum(o.scaled for o in outcomes), outcomes
    return sum(o.seconds for o in outcomes), outcomes


def checks_failed(doc: bytes | None) -> int:
    return 0 if doc is None else sum(not c["passed"] for c in json.loads(doc)["checks"])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def rounds(seconds: float):
    """Yield once, then again while one more round of the last one's length fits."""
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        yield
        now = time.perf_counter()
        if 2 * now - begin - start > seconds:
            return


def end_to_end(cli_io, args, refs, shuffled) -> tuple:
    setup_measured, setup = measure_setup(args.workload)
    cold_s, outcomes = run_pass(cli_io, shuffled(), refs, sample_speed=True)
    cold_measured = sum(o.seconds for o in outcomes)
    warm, warm_measured = [], []
    for _ in rounds(args.seconds):
        seconds, more = run_pass(cli_io, shuffled(), refs, sample_speed=True)
        warm.append(seconds)
        warm_measured.append(sum(o.seconds for o in more))
        outcomes += more
    failed = sum(o.failed for o in outcomes)
    values = {
        "setup_s": statistics.median(setup),
        "cold_pass_s": cold_s,
        "pass_s": statistics.median(warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / len(outcomes),
    }
    record = {"passes": {"cold": 1, "warm": len(warm)}, "setup_probes": len(setup),
              "setup_s_all": setup, "pass_s_quartiles": quartiles(warm),
              "measured": {"setup_s": statistics.median(setup_measured),
                           "cold_pass_s": cold_measured,
                           "pass_s": statistics.median(warm_measured)},
              "case_scaled_s": {case.name: statistics.median(o.scaled for o in outcomes
                                                             if o.case == case)
                                for case in {o.case for o in outcomes}}}
    return values, outcomes, [], record


def per_layer(cli_io, args, refs, shuffled) -> tuple:
    _, outcomes = run_pass(cli_io, shuffled(), refs)   # cold: fills caches untraced
    untraced, traced_s, layers, problems = [], [], [], []
    recorder = SpanRecorder()
    for _ in rounds(args.seconds):
        cases = shuffled()
        seconds, plain = run_pass(cli_io, cases, refs)
        untraced.append(seconds)
        recorder.reset()
        with traced(recorder) as missing:
            seconds, spanned = run_pass(cli_io, cases, refs)
        traced_s.append(seconds)
        layer = layer_metrics(recorder, missing)
        layer["cli_io.document_bytes"] = sum(len(o.doc or b"") for o in spanned)
        layer["quasimode_pipeline.checks_failed"] = sum(checks_failed(o.doc) for o in spanned)
        layers.append(layer)
        for a, b in zip(plain, spanned):
            if a.doc != b.doc:
                problems.append(f"{a.case.name}: traced document differs from untraced")
        outcomes += plain + spanned
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced) - 1
    self_ns = recorder.self_ns()
    (WORK / f"spans-{args.workload}.json").write_text(json.dumps(recorder.spans))
    record = {"passes": {"cold": 1, "untraced": len(untraced), "traced": len(traced_s)},
              "missing_spans": sorted(missing),
              "min_self_ns": min(self_ns, default=0),
              "unaccounted_s": traced_s[-1] - sum(self_ns) / 1e9}
    return values, outcomes, problems, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this fresh process and print it")
    args = parser.parse_args(argv)

    if not (SRC / "qmf" / "__init__.py").is_file():
        print(f"error: no qmf sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(*setup_once(args.workload))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli_io = import_cli_io()
    WORK.mkdir(exist_ok=True)
    cases = WORKLOADS[args.workload]
    refs = reference.load_refs({case.ref for case in cases})
    rng = random.Random(args.seed)

    def shuffled():
        order = list(cases)
        rng.shuffle(order)
        return order

    measure = per_layer if args.trace else end_to_end
    values, outcomes, problems, record = measure(cli_io, args, refs, shuffled)

    problems += sorted({f"{o.case.name}: {o.problem}" for o in outcomes if o.problem})
    failures = sorted({f"{o.case.name}: exit status {o.status}" for o in outcomes
                       if o.status not in (0, None)})
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"metric {m['name']} is missing: a name it traces no longer exists",
                  file=sys.stderr)
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "case_s": {case.name: statistics.median(o.seconds for o in outcomes if o.case == case)
                   for case in cases},
        "failures": failures, "problems": problems,
    })

    failed = sum(o.failed for o in outcomes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"fail_frac {failed}/{len(outcomes)} = {failed / len(outcomes):.4f}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for line in failures + problems:
        print(f"  FAILED {line}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
