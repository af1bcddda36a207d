import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmf.series_algebra import EXACT, HalfInt, Poly
from qmf.cli_io import (
    SpecFileError,
    parse_problem_spec,
    preset_problem,
    result_document,
    run_command,
)
from qmf.quasimode_pipeline import compute_quasimodes

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def serialize_problem_spec(spec) -> str:
    """Spec-file text whose parse reproduces the given problem exactly.

    The round-trip oracle of ``parse_problem_spec``: every section the parser
    reads is written back out.
    """
    p = spec.problem
    mode = p.mode
    out = ["[problem]", f"n = {p.n}", f"rank = {p.rank}", f"mode = {spec.mode_name}",
           f"order = {spec.order}", f"degree = {p.D}", "", "[lambda]"]

    def fmt(c):
        return str(c) if mode.name == "exact" else repr(mode.real(c))

    for l in p.lam:
        out.append(fmt(l))
    rows = []
    for alpha, c in sorted(p.V.terms.items()):
        rows.append(" ".join(str(a) for a in alpha) + f"  {fmt(c)}")
    if rows:
        out += ["", "[potential]"] + rows
    rows = []
    for i in range(p.n):
        for j in range(i, p.n):
            for alpha, c in sorted(p.g_inv[i][j].terms.items()):
                if sum(alpha) == 0 and i == j:
                    continue
                rows.append(f"{i + 1} {j + 1}  " + " ".join(str(a) for a in alpha) + f"  {fmt(c)}")
    if rows:
        out += ["", "[metric_inverse]"] + rows
    rows = []
    for k in range(p.rank):
        for l in range(k, p.rank):
            for alpha, c in sorted(p.W[k][l].terms.items()):
                rows.append(f"{k + 1} {l + 1}  " + " ".join(str(a) for a in alpha) + f"  {fmt(c)}")
    if rows:
        out += ["", "[endomorphism]"] + rows
    rows = []
    for d in range(p.n):
        for k in range(p.rank):
            for l in range(k, p.rank):
                for alpha, c in sorted(p.Gamma[d][k][l].terms.items()):
                    if k == l and mode.is_zero(c):
                        continue
                    rows.append(f"{d + 1} {k + 1} {l + 1}  "
                                + " ".join(str(a) for a in alpha) + f"  {fmt(c)}")
    if rows:
        out += ["", "[connection]"] + rows
    out += ["", "[level]"]
    if spec.level_value is not None:
        out.append(f"value = {fmt(spec.level_value)}")
    elif spec.level_index is not None:
        out.append(f"index = {spec.level_index}")
    else:
        out.append("index = 0")
    out += ["", "[checks]"]
    for key in ("transport", "parity", "orthonormality", "eigen_residual", "projector"):
        out.append(f"{key} = {'on' if spec.checks.get(key, False) else 'off'}")
    rs = spec.checks.get("rs", "auto")
    out.append(f"rs = {'auto' if rs == 'auto' else ('on' if rs else 'off')}")
    if mode.name == "float":
        out.append(f"tolerance = {mode.rtol}")
    return "\n".join(out) + "\n"


MINIMAL = """
[problem]
n = 1
rank = 1
mode = exact
order = 2

[lambda]
1
"""

FLOAT_MINIMAL = MINIMAL.replace("mode = exact", "mode = float")

CUBIC = MINIMAL + """
[potential]
3  1

[level]
value = 1
"""


class TestParsing:
    def test_minimal_harmonic(self):
        spec = parse_problem_spec(MINIMAL)
        assert spec.problem.n == 1
        assert spec.problem.V.coefficient((2,)) == F(1)
        assert spec.order == HalfInt(4)

    def test_unnormalized_quadratic_rejected(self):
        bad = MINIMAL + "\n[potential]\n2  2\n"
        with pytest.raises(SpecFileError, match="not normalized"):
            parse_problem_spec(bad)

    def test_tolerance_sets_the_float_mode_rtol(self):
        spec = parse_problem_spec(FLOAT_MINIMAL + "\n[checks]\ntolerance = 1e-6\n")
        assert spec.problem.mode.rtol == 1e-6
        assert parse_problem_spec(FLOAT_MINIMAL).problem.mode.rtol == 1e-9
        assert parse_problem_spec(MINIMAL + "\n[checks]\ntolerance = 1e-6\n").problem.mode is EXACT

    def test_unknown_section(self):
        with pytest.raises(SpecFileError, match="unknown section"):
            parse_problem_spec(MINIMAL + "\n[nonsense]\n")

    def test_unknown_key_with_location(self):
        with pytest.raises(SpecFileError, match="line 4"):
            parse_problem_spec("[problem]\nn = 1\nrank = 1\nbogus = 3\norder = 1\n[lambda]\n1\n")

    def test_decimal_rejected_in_exact_mode(self):
        with pytest.raises(SpecFileError, match="float mode"):
            parse_problem_spec(MINIMAL + "\n[potential]\n3  0.25\n")

    def test_level_value_and_index_conflict(self):
        with pytest.raises(SpecFileError, match="not both"):
            parse_problem_spec(MINIMAL + "\n[level]\nvalue = 1\nindex = 0\n")

    def test_fractions_and_rank2(self):
        text = """
[problem]
n = 1
rank = 2
mode = exact
order = 3

[lambda]
2

[potential]
2  4
3  1/2

[endomorphism]
1 2  1  1
2 2  0  4

[connection]
1 1 2  1  1/2

[level]
value = 6
"""
        spec = parse_problem_spec(text)
        assert spec.problem.rank == 2
        assert spec.problem.mu == (F(0), F(4))
        assert spec.problem.Gamma[0][1][0].coefficient((1,)) == F(-1, 2)

    def test_gamma_section(self):
        # the fiber metric is the identity in the radial frame, so a fiber
        # metric section is an unknown section like any other
        text = MINIMAL + "\n[gamma]\n1 1  2  1/3\n"
        with pytest.raises(SpecFileError, match=r"unknown section \[gamma\] \(line 11"):
            parse_problem_spec(text)

    def test_round_trip(self):
        for preset in ("cubic1d", "witten1d:c=2", "iso2d", "rank2"):
            spec = preset_problem(preset, order=HalfInt(4))
            text = serialize_problem_spec(spec)
            back = parse_problem_spec(text)
            assert back.problem == spec.problem
            assert back.order == spec.order
            assert back.level_value == spec.level_value


class TestPresets:
    def test_witten_expansion_is_supersymmetric_pair(self):
        # V must equal (phase')^2 and W = -phase'' for phase = x^2/2 + c x^3/6
        c = F(2)
        spec = preset_problem(f"witten1d:c={c}")
        dphi = Poly(EXACT, 1, {(1,): F(1), (2,): c / 2})
        assert spec.problem.V == dphi * dphi
        ddphi = Poly(EXACT, 1, {(0,): F(1), (1,): c})
        assert spec.problem.W[0][0] == -ddphi

    def test_unknown_preset(self):
        with pytest.raises(SpecFileError, match="unknown preset"):
            preset_problem("nope")

    def test_unknown_param(self):
        with pytest.raises(SpecFileError, match="unknown preset parameters"):
            preset_problem("cubic1d:zz=1")

    def test_rank2_level_is_mixed(self):
        spec = preset_problem("rank2")
        res = compute_quasimodes(spec.problem, HalfInt(2), e0=spec.level_value)
        assert res.level.parity == "mixed"
        assert res.level.m0 == 2


class TestCommands:
    def test_spectrum_matches_formula(self, capsys):
        rc = run_command(["spectrum", "--preset", "harmonic:lam=2", "--degree", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E = 2" in out and "E = 6" in out

    def test_compute_writes_document(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = run_command(["compute", "--preset", "cubic1d", "--order", "2",
                          "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["level"]["E0"] == "1"
        assert [2, "1"] in doc["eigenvalues"][0]
        assert [4, "-11/16"] in doc["eigenvalues"][0]

    def test_exact_mode_documents_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = run_command(["compute", "--preset", "iso2d", "--order", "2",
                              "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_level_is_input_error(self, capsys):
        rc = run_command(["compute", "--preset", "harmonic", "--order", "2",
                          "--level", "7/3"])
        assert rc == 1
        assert "not in the model spectrum" in capsys.readouterr().err

    def test_verify_all_green(self, capsys):
        rc = run_command(["verify", "--preset", "cubic1d", "--order", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] transport" in out
        assert "[pass] projector" in out

    def test_verify_subset(self, capsys):
        rc = run_command(["verify", "--preset", "cubic1d", "--order", "2",
                          "--checks", "parity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] parity" in out
        assert "transport" not in out

    def test_check_failure_exit_code(self, monkeypatch, capsys):
        from qmf import cli_io
        from qmf.quasimode_pipeline import VerificationReport

        def fake_transport(result):
            return VerificationReport(name="transport", passed=False, order=None,
                                      max_residual=1.0, detail="forced failure")

        monkeypatch.setattr(cli_io, "transport_residual", fake_transport)
        rc = run_command(["verify", "--preset", "cubic1d", "--order", "2",
                          "--checks", "transport"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_crosscheck_writes_csv(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        rc = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                          "--hbar", "0.2,0.1", "--grid", "512", "--csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "hbar,error"
        assert len(lines) == 3

    def test_crosscheck_of_an_excited_level(self, capsys):
        # the odd level E0 = 3 is eigenvalue 1 of each sine-basis matrix
        rc = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                          "--level-index", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] fd_crosscheck" in out
        assert "log-log error slope 3.597 (required >= 3.5)" in out

    def test_crosscheck_of_a_higher_level_at_small_hbar(self, capsys):
        # level E0 = 7 is not yet asymptotic at the default h = 0.2 (slope
        # 3.477 fails); from h = 0.05 down its series has the predicted rate
        rc = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                          "--level-index", "3", "--hbar", "0.05,0.025,0.0125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] fd_crosscheck" in out
        assert "log-log error slope 3.751 (required >= 3.5)" in out

    def test_crosscheck_on_non_confining_well_is_input_error(self, capsys):
        # the cubic well opens to -infinity: the weight never decays on x < 0,
        # so no Dirichlet box within the cap is valid
        rc = run_command(["crosscheck", "--preset", "cubic1d", "--order", "2",
                          "--hbar", "0.2,0.1,0.05", "--grid", "1024"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "needs a confining V" in err and "x < 0 side" in err and "x > 0" not in err

    def test_missing_source_is_input_error(self, capsys):
        rc = run_command(["compute", "--order", "2"])
        assert rc == 1

    @pytest.mark.parametrize("spec_text, extra, message", [
        (MINIMAL.replace("order = 2", "order = 2\ndegree = abc"), [], "degree 'abc' (line 7"),
        (MINIMAL + "\n[checks]\ntolerance = tight\n", [], "tolerance 'tight' (line 12"),
        (MINIMAL + "\n[level]\nindex = first\n", [], "level index 'first' (line 12"),
        (MINIMAL + "\n[level]\nindex = -1\n", [], "level index must be nonnegative, got -1 (line 12"),
        (None, ["--preset", "cubic1d", "--order", "2", "--level-index", "-2"],
         "level_index must be nonnegative, got -2"),
        (MINIMAL + "\n[metric_inverse]\nx 1  2  1\n", [], "metric index 'x' (line 12"),
        (MINIMAL + "\n[endomorphism]\nx 1  1  1\n", [], "endomorphism index 'x' (line 12"),
        (MINIMAL + "\n[connection]\n1 x 1  1  1\n", [], "connection index 'x' (line 12"),
        (None, ["--preset", "cubic1d", "--order", "abc"], "order"),
        (None, ["--preset", "cubic1d", "--order", "1.3"], "5/2) '1.3'"),
        (MINIMAL.replace("order = 2", "order = 1.3"), [], "5/2) '1.3' (line 6"),
        (None, ["--preset", "cubic1d:c=x"], "preset 'cubic1d'"),
        (FLOAT_MINIMAL + "\n[checks]\ntolerance = inf\n", [], "0 < t < 1, got 'inf' (line 12"),
        (FLOAT_MINIMAL + "\n[checks]\ntolerance = nan\n", [], "0 < t < 1, got 'nan' (line 12"),
        (FLOAT_MINIMAL + "\n[checks]\ntolerance = -1\n", [], "0 < t < 1, got '-1' (line 12"),
        (FLOAT_MINIMAL + "\n[checks]\ntolerance = 0\n", [], "0 < t < 1, got '0' (line 12"),
        (MINIMAL + "\n[checks]\ntolerance = 1\n", [], "0 < t < 1, got '1' (line 12"),
        (None, ["crosscheck", "--preset", "quartic1d", "--order", "2", "--grid", "1"],
         "--grid must be an integer of at least 3, got 1"),
        (None, ["crosscheck", "--preset", "quartic1d", "--order", "2", "--hbar", "0,0.1"],
         "--hbar values must be finite and positive, got '0,0.1'"),
        (None, ["crosscheck", "--preset", "quartic1d", "--order", "2", "--hbar", "0.1"],
         "--hbar needs at least two distinct values"),
        (None, ["crosscheck", "--preset", "quartic1d", "--order", "2", "--hbar", "0.1,x"],
         "--hbar must be a comma list of numbers"),
        (None, ["spectrum", "--preset", "cubic1d", "--degree", "-1"],
         "--degree must be a nonnegative integer, got -1"),
    ])
    def test_input_error_exits_1_with_message(self, tmp_path, capsys, spec_text, extra, message):
        # a case naming no command runs compute
        argv = extra if extra[:1] in (["crosscheck"], ["spectrum"]) else ["compute", *extra]
        if spec_text is not None:
            path = tmp_path / "bad.spec"
            path.write_text(spec_text)
            argv += ["--spec", str(path)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("checks", ["transprot", "", "transport,bogus"])
    def test_verify_rejects_unknown_or_empty_checks(self, capsys, checks):
        rc = run_command(["verify", "--preset", "cubic1d", "--order", "2", "--checks", checks])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown check" in err
        assert "transport,parity,orthonormality,eigen_residual,rs,projector" in err

    def test_usage_error_exits_1(self, capsys):
        rc = run_command(["compute", "--preset", "cubic1d", "--mode", "quad"])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_level_and_level_index_conflict(self, capsys):
        rc = run_command(["compute", "--preset", "harmonic", "--order", "2",
                          "--level", "1", "--level-index", "0"])
        assert rc == 1
        assert "not allowed with argument --level" in capsys.readouterr().err


# Runs one command line in a fresh interpreter and prints whether a module is loaded after it.
_LOADED_AFTER = ("import sys; from qmf.cli_io import run_command; "
                 "status = run_command(sys.argv[2:]); "
                 "print(status, sys.argv[1] in sys.modules)")


@pytest.mark.parametrize("module, argv", [
    ("scipy", ["compute", "--preset", "iso2d", "--order", "3", "--mode", "float"]),
    ("scipy", ["verify", "--preset", "iso2d", "--order", "3", "--mode", "float",
               "--checks", "transport,eigen_residual,orthonormality,parity"]),
    ("scipy", ["crosscheck", "--preset", "quartic1d", "--order", "2", "--grid", "256"]),
    ("numpy", ["compute", "--preset", "cubic1d", "--order", "4"]),
])
def test_command_leaves_module_unloaded(module, argv):
    """Float runs and ``crosscheck`` load numpy alone, never scipy; exact runs load neither."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _LOADED_AFTER, module, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_python_m_qmf_runs_the_command_line_without_warnings():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "qmf", "compute",
                           "--preset", "cubic1d", "--order", "2"], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0
    assert done.stderr == ""


class TestResultDocument:
    def test_norm2_and_members_serialized(self):
        spec = preset_problem("iso2d", order=HalfInt(4))
        res = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        doc = result_document(spec, res, [])
        assert doc["level"]["m0"] == 2
        assert doc["level"]["K_doubled"] == 1
        assert doc["eigenfunctions"][0]["norm2_constant"] == "1/2"
        ks = {tuple(m["alpha"]) for m in doc["level"]["members"]}
        assert ks == {(1, 0), (0, 1)}
