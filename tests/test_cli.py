"""CLI surface: exit codes, report schemas, determinism."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from polykernel import cli


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrees:
    def test_count_table(self, capsys):
        code, out, _ = run(["trees", "count", "--dmax", "13"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "polykernel/1"
        rows = report["rows"]
        assert [r["trees"] for r in rows] == [1, 2, 5, 14, 42, 132, 429, 1430,
                                              4862, 16796, 58786, 208012]
        assert [r["classes"] for r in rows] == [1, 1, 2, 3, 6, 11, 23, 46,
                                                98, 207, 451, 983]

    def test_parse(self, capsys):
        code, out, _ = run(["trees", "parse", "ca^2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 4
        assert report["root"]["type"] == "c"
        kinds = [c["type"] for c in report["root"]["children"]]
        assert kinds == ["a", "a"]

    def test_parse_error_exit2(self, capsys):
        code, _, err = run(["trees", "parse", "c a"], capsys)
        assert code == 2
        assert "position" in err

    def test_format(self, capsys):
        code, out, _ = run(["trees", "format", "bbbba"], capsys)
        assert code == 0
        assert json.loads(out)["type"] == "b^4a"


class TestExpand:
    def test_chebyshev(self, capsys):
        code, out, _ = run(["expand", "chebyshev", "--nu", "1", "--z", "3",
                            "--x", "0", "--tol", "1e-10"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert report["rel_err"] < 1e-10

    def test_multipole(self, capsys):
        code, out, _ = run(["expand", "multipole", "--d", "3", "--nu", "-1",
                            "--r", "1", "--rp", "2", "--cosg", "0.3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(3.8 ** -0.5, rel=1e-9)

    def test_azimuthal_exclusion_exit3(self, capsys):
        code, _, err = run(["expand", "azimuthal", "--nu", "0"], capsys)
        assert code == 3
        assert "excluded" in err

    def test_nonconvergence_exit4(self, capsys):
        code, _, _ = run(["expand", "fourier-neg", "--q", "2", "--z", "1.2",
                          "--x", "0.9", "--max-terms", "4"], capsys)
        assert code == 4

    def test_bad_input_exit6(self, capsys):
        # z <= 1 is outside the expansion's domain, not a tree parse error
        code, _, err = run(["expand", "chebyshev", "--z", "0.5"], capsys)
        assert code == 6
        assert "z > 1" in err

    def test_overflow_exit6(self, capsys):
        # Gamma(180) overflows a double: reported, not a traceback
        code, out, err = run(["expand", "chebyshev", "--nu", "180", "--z", "2",
                              "--x", "0.1"], capsys)
        assert code == 6
        assert out == "" and err.startswith("error:")

    def test_trace_rows(self, capsys):
        code, out, _ = run(["expand", "chebyshev", "--nu", "1", "--z", "3",
                            "--x", "0.2", "--trace"], capsys)
        assert code == 0
        report = json.loads(out)
        rows = report["per_term"]
        assert len(rows) == report["terms_used"]
        assert rows[-1]["rel_err"] <= rows[0]["rel_err"]

    def test_csv_table(self, capsys):
        code, out, _ = run(["expand", "gegenbauer", "--nu", "1", "--mu", "0.5",
                            "--z", "2.5", "--x", "0.3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,index,term,partial,rel_err"
        assert len(lines) > 3

    def test_fourier_int(self, capsys):
        code, out, _ = run(["expand", "fourier-int", "--p", "3", "--z", "1.5",
                            "--x", "-0.2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(4.913, rel=1e-12)
        assert report["terms_used"] == 4


class TestVerify:
    def test_c43_example(self, capsys):
        code, out, _ = run(["verify", "C4.3", "--nu", "-1", "--m", "0",
                            "--r", "1", "--rp", "2", "--theta", "1.0472",
                            "--thetap", "2.0944"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_t42_reduced(self, capsys):
        code, out, _ = run(["verify", "T4.2", "--q", "3", "--caps", "12",
                            "--tol", "1e-3"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_exclusion_exit3(self, capsys):
        code, _, _ = run(["verify", "C4.5", "--nu", "2", "--m1", "1"], capsys)
        assert code == 3

    def test_truncation_exit5(self, capsys):
        code, out, _ = run(["verify", "C4.3", "--nu", "-1", "--m", "0",
                            "--r", "1", "--rp", "1.3", "--theta", "1.0",
                            "--thetap", "1.4", "--caps", "8",
                            "--tol", "1e-12"], capsys)
        assert code == 5
        assert json.loads(out)["status"] == "truncation_insufficient"

    def test_suite_csv(self, capsys, tmp_path):
        out_path = tmp_path / "suite.csv"
        code, _, _ = run(["verify", "--suite", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "index,theorem,nu,m,lhs,rhs,rel_err,status"
        assert len(lines) >= 16
        assert all(line.endswith("pass") for line in lines[1:])
        # same seed -> byte-identical CSV
        out2 = tmp_path / "suite2.csv"
        run(["verify", "--suite", "--out", str(out2)], capsys)
        assert out_path.read_bytes() == out2.read_bytes()

    def test_suite_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random lazily and it costs about 5 MB of RSS;
        # the default angles are drawn with the standard library instead
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import io, sys, contextlib\n"
                "from polykernel import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['verify', '--suite']) == 0\n"
                "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_c44_partial_angles_rejected(self, capsys):
        # C4.4 points have two polar angles: one is a malformed option value
        code, _, err = run(["verify", "C4.4", "--nu", "-2", "--m", "0",
                            "--thetas", "1.0"], capsys)
        assert code == 6
        assert "--thetas expects 2" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "C4.3", "--r", "1", "--rp", "1"],          # coincident radii
        ["verify", "C4.3", "--theta", "0"],                  # polar angle on the axis
        ["verify", "C4.5", "--thetas", "1.7"],               # Hopf angle past pi/2
        ["expand", "azimuthal", "--R", "0", "--Rp", "0"],    # points on the axis
    ])
    def test_bad_geometry_exit6(self, capsys, argv):
        # invalid input, not a verification math failure (exit 1)
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith("error:")


class TestDeterminismAndFormat:
    def test_byte_identical(self, capsys):
        args = ["verify", "C4.3", "--nu", "-2.5", "--m", "1", "--seed", "7"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_float_digits(self):
        # emit_json prints floats to 17 significant digits (round-trip safe)
        text = cli.emit_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text
        assert json.loads(text)["v"] == 1.0 / 3.0

    def test_out_file_closed_and_identical(self, capsys, tmp_path, monkeypatch):
        # an unclosed handle warns from its finalizer, which reports through
        # sys.unraisablehook rather than raising at the call site
        args = ["trees", "format", "bbbba"]
        _, stdout_text, _ = run(args, capsys)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        out_path = tmp_path / "format.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert cli.main(args + ["--out", str(out_path)]) == 0
            gc.collect()
        assert unraisable == []
        assert out_path.read_bytes() == stdout_text.encode()

    def test_nonfinite_floats(self):
        text = cli.emit_json({"v": math.inf})
        assert json.loads(text)["v"] == "inf"
