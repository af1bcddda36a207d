import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmf import cli_io
from qmf.series_algebra import EXACT, Poly
from qmf.cli_io import (
    SpecFileError,
    parse_problem_spec,
    preset_problem,
    result_document,
    run_command,
)
from qmf.quasimode_pipeline import compute_quasimodes
from test_quasimode_pipeline import RANK2_WELL, ROTATED_W

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def serialize_problem_spec(spec) -> str:
    """Spec-file text whose parse reproduces the given problem exactly.

    The round-trip oracle of ``parse_problem_spec``: every section the parser
    reads is written back out.
    """
    p = spec.problem
    mode = p.mode
    out = ["[problem]", f"n = {p.n}", f"rank = {p.rank}", f"mode = {mode.name}",
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
    if mode.name == "float":
        out += ["", "[checks]", f"tolerance = {mode.rtol}"]
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

# the iso2d preset's well: its level at 4 is doubly degenerate
ISO2D = """
[problem]
n = 2
rank = 1
order = 2

[lambda]
1 1

[potential]
3 0  1
1 2  1

[level]
value = 4
"""


class TestParsing:
    def test_minimal_harmonic(self):
        spec = parse_problem_spec(MINIMAL)
        assert spec.problem.n == 1
        assert spec.problem.V.coefficient((2,)) == F(1)
        assert spec.order == 2

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

    @pytest.mark.parametrize("key", ["transport", "parity", "orthonormality",
                                     "eigen_residual", "rs", "projector"])
    def test_check_switches_are_unknown_keys(self, key):
        # the command line alone chooses checks: ``verify --checks``
        text = MINIMAL + f"\n[checks]\ntolerance = 1e-6\n{key} = off\n"
        message = rf"unknown key '{key}' in \[checks\] \(line 13, col 1\)"
        with pytest.raises(SpecFileError, match=message):
            parse_problem_spec(text)

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
            spec = preset_problem(preset, order=2)
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
        res = compute_quasimodes(spec.problem, 1, e0=spec.level_value)
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

    @pytest.mark.parametrize("spec_text, names", [
        (CUBIC, ["transport", "eigen_residual", "orthonormality", "parity", "rs_oracle",
                 "projector"]),
        (ISO2D, ["transport", "eigen_residual", "orthonormality", "parity", "rs_oracle",
                 "projector"]),
    ])
    def test_verify_spec_runs_every_check_that_applies(self, tmp_path, spec_text, names):
        # every check applies on a simple and on a degenerate level
        path, out = tmp_path / "well.spec", tmp_path / "doc.json"
        path.write_text(spec_text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["verify", "--spec", str(path), "--out", str(out)]) == 0
        assert [c["name"] for c in json.loads(out.read_text())["checks"]] == names

    @staticmethod
    def spec_document(tmp_path, text, *args) -> bytes:
        path, out = tmp_path / "well.spec", tmp_path / "doc.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["compute", "--spec", str(path), *args, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_order_option_sets_the_default_degree(self, tmp_path):
        # CUBIC names order 2, whose default jet degree 8 reaches order 4 only
        in_file = self.spec_document(tmp_path, CUBIC.replace("order = 2", "order = 5"))
        override = self.spec_document(tmp_path, CUBIC, "--order", "5")
        assert override == in_file
        assert json.loads(override)["problem"]["D"] == 14

    def test_order_option_keeps_an_explicit_degree(self, tmp_path):
        text = CUBIC.replace("order = 2", "order = 2\ndegree = 20")
        doc = json.loads(self.spec_document(tmp_path, text, "--order", "5"))
        assert (doc["problem"]["D"], doc["order_doubled"]) == (20, 10)

    def test_spec_without_order_option_keeps_its_default_degree(self, tmp_path):
        doc = json.loads(self.spec_document(tmp_path, CUBIC))
        assert (doc["problem"]["D"], doc["order_doubled"]) == (8, 4)

    def test_rs_on_a_degenerate_level_passes(self, tmp_path):
        path, out = tmp_path / "iso2d.spec", tmp_path / "doc.json"
        path.write_text(ISO2D)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["verify", "--spec", str(path), "--checks", "rs",
                                "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["level"]["m0"] == 2
        (check,) = doc["checks"]
        assert check["name"] == "rs_oracle" and check["passed"]
        assert check["max_residual"] == 0.0

    @pytest.mark.parametrize("level", range(4))
    @pytest.mark.parametrize("preset", ["witten1d:c=1", "witten1d:c=1/3", "witten1d:c=2",
                                        "cubic1d", "quartic1d"])
    def test_float_verify_all_passes_on_the_low_levels(self, preset, level):
        # each float check judges a residual against the magnitudes summed
        # into it; on the excited witten1d levels one side of the projector's
        # symmetry law rounds to exactly 0 and the other does not
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["verify", "--preset", preset, "--order", "4", "--mode", "float",
                                "--level-index", str(level), "--checks", "all"]) == 0

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
            return VerificationReport(name="transport", passed=False, order2=None,
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

    @pytest.mark.parametrize("index, slope", [(1, "3.794"), (3, "3.834")])
    def test_crosscheck_of_an_excited_level(self, capsys, index, slope):
        # level k is eigenvalue k of each Ritz matrix; the default h
        # values are 0.2, 0.1, 0.05 over 2k + 1 (at h = 0.2, 0.1, 0.05 level
        # 3 fails with slope 3.477: not yet asymptotic)
        rc = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                          "--level-index", str(index)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] crosscheck" in out
        assert f"log-log error slope {slope} (required >= 3.5)" in out

    @pytest.mark.parametrize("argv, status, text", [
        (["quartic1d", "--order", "8"], 2, "log-log error slope 9.435 (required >= 9.5)"),
        (["quartic1d", "--order", "8", "--mode", "float"], 2,
         "log-log error slope 9.435 (required >= 9.5)"),
        (["witten1d", "--order", "4", "--hbar", "0.2,0.1"], 0,
         "series is identically zero; decay slope 10.58, smallest error 5.04e-08"),
        (["quartic1d", "--order", "2", "--level-index", "2"], 0, "log-log error slope 3.823"),
        (["quartic1d", "--order", "2", "--level-index", "6"], 0, "log-log error slope 3.844"),
        (["witten1d", "--order", "4", "--level-index", "1"], 0, "log-log error slope 7.717"),
        (["witten1d", "--order", "4"], 0, "series is identically zero; decay slope 10.58,"),
        *[(argv, 0, "fewer than two errors above rounding, no slope fitted")
          for argv in (["harmonic", "--order", "2"],
                       ["harmonic", "--order", "2", "--level-index", "2"],
                       ["harmonic:mu=1/2", "--order", "2"], ["harmonic:lam=2", "--order", "2"],
                       ["witten1d", "--order", "4", "--hbar", "0.1,0.05,0.025"])],
    ])
    def test_crosscheck_verdict(self, capsys, argv, status, text):
        # order 8 is not yet asymptotic at the default h. The witten well's
        # ground level has an identically vanishing series: at the default h
        # its error at h = 0.05 is rounding, left out of the slope fit, and
        # below h = 0.1 every error is. An exact series leaves only rounding.
        assert run_command(["crosscheck", "--preset", *argv]) == status
        assert text in capsys.readouterr().out

    def test_crosscheck_of_a_higher_level_at_small_hbar(self, capsys):
        # an explicit --hbar is used as given: from h = 0.05 down level
        # E0 = 7 has the predicted rate
        rc = run_command(["crosscheck", "--preset", "quartic1d", "--order", "2",
                          "--level-index", "3", "--hbar", "0.05,0.025,0.0125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] crosscheck" in out
        assert "log-log error slope 3.751 (required >= 3.5)" in out

    @pytest.mark.parametrize("argv, spec_text", [
        (["--preset", "cubic1d"], None), (["--preset", "quartic1d:c=-1"], None),
        ([], MINIMAL + "\n[endomorphism]\n1 1  2  1\n")])
    def test_crosscheck_on_non_confining_well_is_input_error(self, tmp_path, capsys,
                                                              argv, spec_text):
        # an odd or negative top term leaves V unbounded below, and a W as
        # steep as V could undo V's growth at some h, so both are refused
        if spec_text is not None:
            path = tmp_path / "w.spec"
            path.write_text(spec_text)
            argv = ["--spec", str(path)]
        rc = run_command(["crosscheck", *argv, "--order", "2", "--hbar", "0.2,0.1,0.05"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: the numerical cross-check needs a confining V")

    @pytest.mark.parametrize("argv", [
        ["compute", "--preset", "cubic1d", "--order", "2", "--out"],
        ["verify", "--preset", "cubic1d", "--order", "2", "--out"],
        ["spectrum", "--preset", "harmonic", "--degree", "2", "--out"],
        ["crosscheck", "--preset", "quartic1d", "--order", "2", "--csv"],
    ], ids=["compute", "verify", "spectrum", "crosscheck"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out.txt"
        assert run_command([*argv, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.parent.exists()

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
        (None, ["--preset", "iso2d:c=1/0"], "preset 'iso2d': cannot parse c '1/0'"),
        (None, ["--preset", "harmonic:lam=1+1/0"], "preset 'harmonic': cannot parse lam '1/0'"),
        (None, ["--preset", "rank2:w=1/0"], "preset 'rank2': cannot parse w '1/0'"),
        (None, ["--preset", "harmonic:n=two"], "preset 'harmonic': cannot parse n 'two'"),
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
        (CUBIC.replace("order = 2", "order = 2\ndegree = -3"), ["verify"],
         "input jet degree D must be a nonnegative integer, got -3"),
    ])
    def test_input_error_exits_1_with_message(self, tmp_path, capsys, spec_text, extra, message):
        # a case naming no command runs compute
        named = extra[:1] in (["crosscheck"], ["spectrum"], ["verify"])
        argv = extra if named else ["compute", *extra]
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

    def test_one_parser_serves_every_call(self, capsys):
        assert run_command(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out
        parser = cli_io._parser()
        assert run_command(["verify", "--preset", "cubic1d", "--order", "2",
                            "--checks", "parity"]) == 0
        assert run_command(["compute", "--preset", "cubic1d", "--mode", "quad"]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert run_command(["compute", "--preset", "cubic1d", "--order", "2"]) == 0
        assert "[pass]" not in capsys.readouterr().out
        assert cli_io._parser() is parser

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
    ("numpy", ["crosscheck", "--preset", "quartic1d", "--order", "2", "--grid", "256"]),
    # a Hermite basis grown past 128 functions to the other well
    ("numpy", ["crosscheck", "--preset", "witten1d", "--order", "4", "--level-index", "1"]),
    # float runs whose 2-fold level splits through the pencil
    ("numpy", ["compute", "--preset", "iso2d", "--order", "3", "--mode", "float"]),
    ("numpy", ["verify", "--preset", "iso2d", "--order", "3", "--mode", "float"]),
    ("numpy", ["verify", "--preset", "rank2", "--order", "3", "--mode", "float"]),
    # off-diagonal W(0), rotated into its eigenbasis in float mode
    ("numpy", ["verify", "--spec", "{rotated}"]),
])
def test_command_leaves_module_unloaded(module, argv, tmp_path):
    """No command loads numpy or scipy."""
    spec = tmp_path / "rotated.spec"
    spec.write_text(RANK2_WELL.format(mode="float", endomorphism=ROTATED_W))
    argv = [a.format(rotated=spec) for a in argv]
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
        spec = preset_problem("iso2d", order=2)
        res = compute_quasimodes(spec.problem, spec.order, e0=spec.level_value)
        doc = result_document(spec, res, [])
        assert doc["level"]["m0"] == 2
        assert doc["level"]["K_doubled"] == 1
        assert doc["eigenfunctions"][0]["norm2_constant"] == "1/2"
        ks = {tuple(m["alpha"]) for m in doc["level"]["members"]}
        assert ks == {(1, 0), (0, 1)}
