"""Write the reference documents the benchmark compares every operation with.

    python3 qmfbench/make_refs.py

Runs ``qmf compute`` in exact mode for every reference a workload names and
stores the result document without its checks under ``qmfbench/refs``. The
committed references were made this way from the program as it stood when
the benchmark was defined; rerun this only to add references for new cases,
since regenerating one would hide a change in the program's output.
"""

import contextlib
import io
import json
import sys

import reference
import run


def main() -> int:
    cli_io = run.import_cli_io()
    run.WORK.mkdir(exist_ok=True)
    reference.REF_DIR.mkdir(exist_ok=True)
    cases = {case.ref: case for cases in run.WORKLOADS.values() for case in cases}
    for name, case in sorted(cases.items()):
        target = reference.REF_DIR / f"{name}.json"
        if target.exists():
            continue
        out = run.WORK / f"ref-{name}.json"
        argv = run.Case("compute", case.preset, case.order).argv(out)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_io.run_command(argv)
        if status != 0:
            print(f"error: qmf {' '.join(argv)} exited with {status}", file=sys.stderr)
            return 1
        target.write_bytes(reference.canonical(json.loads(out.read_bytes())))
        out.unlink()
        print(f"wrote {target.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
