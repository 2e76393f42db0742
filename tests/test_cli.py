"""CLI surface: exit codes, report schemas, determinism."""

import gc
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings

import pytest

from oracle_sums import _lhs, chi_b2a, chi_ba, chi_ca2
from polykernel import cli, polyspherical


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

    def test_deep_tree(self, capsys):
        # emit_json recursed four frames per level: this died with RecursionError
        code, out, err = run(["trees", "parse", "b^250a"], capsys)
        assert code == 0 and err == ""
        node = json.loads(out)["root"]
        for _ in range(250):
            assert node["type"] == "b" and node["children"][0] == {"leaf": True}
            node = node["children"][1]
        assert node["type"] == "a"

    @pytest.mark.parametrize("argv", [
        ["trees", "parse", f"b^{polyspherical.MAX_TREE_DEPTH}a"],
        # the standard tree on R^1200 is 1199 nodes deep
        ["verify", "T4.1", "--d", "1200"],
    ])
    def test_too_deep_tree_exit6(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 6 and out == ""
        assert err == f"error: the tree is more than {polyspherical.MAX_TREE_DEPTH} nodes deep\n"


class TestUsageErrors:
    # a command line the parser refuses is invalid input (exit 6), not a
    # tree parse error (exit 2), and main returns its code, raising nothing
    @pytest.mark.parametrize("argv, usage, message", [
        (["expand", "chebyshev", "--nu", "abc"], "polykernel expand",
         "argument --nu: invalid float value: 'abc'"),
        (["verify"], "polykernel", "verify needs a theorem id or --suite"),
        (["expand", "nosuch"], "polykernel expand", "argument expansion: invalid choice: 'nosuch'"),
        ([], "polykernel", "the following arguments are required: command"),
        (["nosuch"], "polykernel", "argument command: invalid choice: 'nosuch'"),
        (["trees"], "polykernel trees", "the following arguments are required: subcommand"),
        (["verify", "T4.1", "--seed", "x"], "polykernel verify",
         "argument --seed: invalid int value: 'x'"),
    ], ids=["malformed-value", "bare-verify", "unknown-expansion", "bare", "unknown-command",
            "bare-trees", "malformed-int"])
    def test_usage_error_exit6(self, capsys, argv, usage, message):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_INVALID_INPUT and out == ""
        assert err.startswith(f"usage: {usage} ") and f"\nerror: {usage}: {message}" in err

    # a value that starts with - and a digit, or -. and a digit, is read as
    # the option's value in either spelling, whatever follows the digit
    @pytest.mark.parametrize("head, option, value, tail", [
        (["expand", "chebyshev", "--nu", "1", "--z", "2"], "--x", "-1e-3", []),
        (["expand", "chebyshev"], "--nu", "-1E-1", ["--z", "2", "--x", "0.1"]),
        (["expand", "chebyshev", "--nu", "1", "--z", "2"], "--x", "-.5e-1", []),
        (["verify", "T4.2", "--q", "3"], "--phis", "-1,2,3", ["--phisp", "8,1,2"]),
        (["verify", "C4.5"], "--phis", "-1", ["--phisp", "8"]),
    ], ids=["exponent", "capital-exponent", "point-exponent", "list", "integer"])
    def test_negative_value_read_as_value(self, capsys, head, option, value, tail):
        code, out, err = run([*head, option, value, *tail], capsys)
        assert (code, err) == (0, "")
        assert run([*head, f"{option}={value}", *tail], capsys) == (0, out, "")

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["expand", "--help"]],
                             ids=["top", "verify", "expand"])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: polykernel")


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

    @pytest.mark.parametrize("argv", [
        # z = 1e300 and chi = 1e250, whose squares leave double range: these
        # ran 2 000 zero terms (exit 4) and raised "value exceeds double range"
        ["expand", "multipole", "--d", "3", "--nu", "-1", "--r", "1e-300", "--rp", "2",
         "--cosg", "0.3"],
        ["expand", "azimuthal", "--nu", "-1", "--R", "1", "--Rp", "1e-250", "--h", "1",
         "--dphi", "0.5"],
    ])
    def test_argument_squared_past_double_range(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["rel_err"] < 1e-12

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

    @pytest.mark.parametrize("kind, keys", [
        ("jacobi", ["nu", "alpha", "beta", "z", "x"]),
        ("gegenbauer", ["nu", "mu", "z", "x"]),
        ("chebyshev", ["nu", "z", "x"]),
        ("multipole", ["d", "nu", "r", "rp", "cosg"]),
        ("azimuthal", ["nu", "R", "Rp", "h", "dphi", "chi"]),
        ("fourier-int", ["p", "z", "x"]),
        ("fourier-neg", ["q", "z", "x"]),
    ])
    def test_defaults_and_params_order(self, capsys, kind, keys):
        code, out, _ = run(["expand", kind], capsys)
        assert code == 0
        report = json.loads(out)
        assert list(report["params"]) == keys
        assert report["converged"] is True and report["rel_err"] < 1e-8

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

    @staticmethod
    def _suite_rows(seed):
        """The 17 suite rows (label, nu, m, lhs) rebuilt from the documented
        draw order: C4.3 over nu = -1, -2.5 and m = 0, 1, 2; C4.4 and C4.5
        over m = 0, 1; C4.3-elem over m = 0, 1, 2; then C4.4-elem and
        C4.5-elem alternating for m = 0, 1.  Each row draws its first point's
        polar angles, the second's, then the two points' azimuths."""
        rng = random.Random(seed)

        def draw(n, lo, hi):
            return [rng.uniform(lo, hi) for _ in range(n)]

        plan = ([("C4.3", nu, m) for nu in (-1.0, -2.5) for m in (0, 1, 2)]
                + [(label, -2.0, m) for label in ("C4.4", "C4.5") for m in (0, 1)]
                + [("C4.3-elem", -1.0, m) for m in (0, 1, 2)]
                + [(label, -2.0, m) for m in (0, 1) for label in ("C4.4-elem", "C4.5-elem")])
        rows = []
        for label, nu, m in plan:
            if label.startswith("C4.5"):
                (vt,), (vtp,) = draw(1, 0.3, 0.5 * math.pi - 0.3), draw(1, 0.3, 0.5 * math.pi - 0.3)
                (f2,), (f2p,) = draw(1, 0.0, 2.0 * math.pi), draw(1, 0.0, 2.0 * math.pi)
                chi = chi_ca2(1.0, 2.0, vt, vtp, f2, f2p)
            elif label.startswith("C4.4"):
                chi = chi_b2a(1.0, 2.0, draw(2, 0.3, math.pi - 0.3), draw(2, 0.3, math.pi - 0.3))
            else:
                (t,), (tp,) = draw(1, 0.3, math.pi - 0.3), draw(1, 0.3, math.pi - 0.3)
                chi = chi_ba(1.0, 2.0, t, tp)
            rows.append((label, nu, m, _lhs(nu, m, chi)))
        return rows

    @pytest.mark.parametrize("seed", [0, 5])
    def test_suite_layout(self, capsys, seed):
        code, out, _ = run(["verify", "--suite", "--seed", str(seed)], capsys)
        assert code == 0
        lines = out.strip().splitlines()[1:]
        want = self._suite_rows(seed)
        assert len(lines) == len(want) == 17
        for idx, (line, (label, nu, m, lhs)) in enumerate(zip(lines, want)):
            fields = line.split(",")
            assert fields[:4] == [str(idx), label, format(nu, ".17g"), str(m)]
            assert abs(float(fields[4]) - lhs) <= 1e-14 * abs(lhs)

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
        # these drew 2 ** (q - 1) - 1 angles before any check: a TypeError traceback
        ["verify", "T4.2", "--q", "0"],
        ["verify", "T4.2", "--q", "-3"],
    ])
    def test_bad_geometry_exit6(self, capsys, argv):
        # invalid input, not a verification math failure (exit 1)
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith("error:")

    def test_q_above_limit_exit6(self, capsys):
        # checked before any angle is drawn; were the check gone, q = MAX_Q + 1
        # would draw 63 angles per list and run a small caps = 2 certificate
        with pytest.raises(ValueError, match=f"need q <= {cli.MAX_Q}"):
            cli._geometry("T4.2", random.Random(0), q=cli.MAX_Q + 1)
        assert len(cli._geometry("T4.2", random.Random(0), q=cli.MAX_Q)["phis"]) == 31
        code, out, err = run(["verify", "T4.2", "--q", str(cli.MAX_Q + 1), "--caps", "2"],
                             capsys)
        assert (code, out, err) == (6, "", f"error: need q <= {cli.MAX_Q}\n")

    @pytest.mark.parametrize("argv", [
        # x outside [-1, 1]: the series would report a wrong value with exit 0
        # (chebyshev gave 1.0 against the oracle's 5.657, fourier-neg 1.0
        # against 4) or sum NaN terms to max_terms (gegenbauer)
        ["expand", "chebyshev", "--nu", "2.5", "--z", "2", "--x", "1.5"],
        ["expand", "fourier-neg", "--q", "2", "--z", "2", "--x", "1.5"],
        ["expand", "gegenbauer", "--nu", "1.5", "--mu", "0.5", "--z", "1.05",
         "--x", "1.5"],
        ["expand", "jacobi", "--nu", "1.5", "--z", "2", "--x", "-1.5"],
        ["expand", "chebyshev", "--z", "inf"],
        # z - 1 below the near-one guard of the Q series
        ["expand", "chebyshev", "--nu", "2.5", "--z", "1.0000001", "--x", "0.3"],
        ["expand", "jacobi", "--nu", "1.5", "--alpha", "0.2", "--beta", "0.3",
         "--z", "1.0000001", "--x", "0.5"],
    ])
    def test_expand_bad_argument_exit6(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv, name", [
        # these exited 6 with only "error: math range error"
        (["expand", "multipole", "--d", "400"], "d = 400: Gamma(199.0)"),
        (["expand", "gegenbauer", "--mu", "200", "--nu", "300"], "mu = 200.0: Gamma(200.0)"),
        (["expand", "chebyshev", "--nu", "200", "--z", "3", "--x", "0"],
         "nu = 200.0: Gamma(200.0)"),
        (["expand", "azimuthal", "--nu", "-400"], "nu = -400.0: Gamma(200.0)"),
        (["expand", "multipole", "--d", "3", "--nu", "-400", "--r", "1", "--rp", "2",
          "--cosg", "0.3"], "nu = -400.0: Gamma(200.0)"),
    ])
    def test_gamma_overflow_names_parameter_exit6(self, capsys, argv, name):
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith(f"error: {name} leaves double range")
        assert "171.6" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # these exited 6 with "math domain error" (w = z / sqrt(z^2 - 1) read 0)
        # and "int too large to convert to float"
        ["expand", "fourier-neg", "--q", "2", "--z", "1e200", "--x", "0.3"],
        ["expand", "fourier-neg", "--q", "200", "--z", "1.5", "--x", "0"],
    ])
    def test_fourier_neg_out_of_range_names_q_exit6(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith("error: q = ") and "leaves double range" in err

    @pytest.mark.parametrize("argv, nu", [
        # these exited 6, "the series prefactor leaves double range": z^2
        # overflows, though each value is a normal double
        (["expand", "chebyshev", "--nu", "1", "--z", "1e200", "--x", "0.3"], 1.0),
        (["expand", "fourier-neg", "--q", "1", "--z", "1e200", "--x", "0.3"], 1.0),
        (["expand", "gegenbauer", "--nu", "1.5", "--mu", "0.5", "--z", "1e200", "--x", "0.3"],
         1.5),
    ])
    def test_far_field_where_z_squared_overflows_exit0(self, capsys, argv, nu):
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["converged"] and report["value"] == pytest.approx(
            (1e200 - 0.3) ** -nu, rel=1e-12)

    @pytest.mark.parametrize("argv, names", [
        # these ended in a ZeroDivisionError traceback and exit 1
        (["expand", "chebyshev", "--nu", "-150.5", "--z", "3", "--x", "0"],
         "nu = -150.5, z = 3.0"),
        (["expand", "gegenbauer", "--nu", "-150.5", "--mu", "0.5", "--z", "3", "--x", "0"],
         "nu = -150.5, mu = 0.5, z = 3.0"),
    ])
    def test_prefactor_underflow_names_parameters_exit6(self, capsys, argv, names):
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err == f"error: {names}: the series prefactor leaves double range\n"

    def test_kernel_underflow_names_parameters_exit6(self, capsys):
        # this one exited 4, "series not converged", after a numpy
        # RuntimeWarning (a traceback under PYTHONWARNINGS=error)
        code, out, err = run(["expand", "jacobi", "--nu", "1.5", "--alpha", "0", "--beta", "0",
                              "--z", "1e300", "--x", "0.3"], capsys)
        assert code == 6
        assert out == "" and err == ("error: nu = 1.5, alpha = 0.0, beta = 0.0, z = 1e+300:"
                                     " the kernel (z - x)^-nu leaves double range\n")

    @pytest.mark.parametrize("argv, z", [
        # these exited 4 after a numpy RuntimeWarning (a traceback under
        # PYTHONWARNINGS=error): the Q columns' recurrence coefficients overflowed
        (["expand", "jacobi", "--nu", "1", "--alpha", "-0.5", "--beta", "0", "--z", "1e305",
          "--x", "0.3"], "1e+305"),
        (["expand", "chebyshev", "--nu", "0.5", "--z", "1e308", "--x", "0.3"], "1e+308"),
    ])
    def test_recurrence_overflow_names_z_exit6(self, capsys, argv, z):
        code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err == (f"error: z = {z}: the degree recurrence's coefficients"
                                     " leave double range\n")

    @pytest.mark.parametrize("flags, message", [
        # these ran every sum to max_terms and exited 4, "series not converged"
        (["--tol", "-1"], "tol must be a positive finite number"),
        (["--tol", "nan"], "tol must be a positive finite number"),
        (["--max-terms", "-3"], "max_terms must be >= 1"),
    ])
    def test_expand_bad_truncation_exit6(self, capsys, flags, message):
        code, out, err = run(["expand", "chebyshev"] + flags, capsys)
        assert code == 6
        assert out == "" and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv, name", [
        # these ran the 2F1 series to its term cap and exited 4
        (["expand", "multipole", "--d", "3", "--nu", "-1", "--r", "1", "--rp", "inf",
          "--cosg", "0.3"], "rp"),
        (["expand", "multipole", "--d", "3", "--nu", "-1", "--r", "nan", "--rp", "1",
          "--cosg", "0.3"], "r"),
        (["verify", "C4.3", "--nu", "-1", "--rp", "inf"], "rp"),
        # these exited 6 with an internal message (and a numpy RuntimeWarning)
        (["verify", "C4.3", "--nu", "nan"], "nu"),
        (["expand", "azimuthal", "--nu", "-1", "--R", "1", "--Rp", "inf", "--h", "0.5",
          "--dphi", "0.5"], "xp"),
        (["expand", "fourier-int", "--p", "2", "--z", "inf", "--x", "0.3"], "z"),
    ])
    def test_non_finite_argument_exit6(self, capsys, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith(f"error: {name} must be finite")

    @pytest.mark.parametrize("argv, names", [
        # these exited 6 with "(34, 'Numerical result out of range')"
        (["expand", "multipole", "--d", "3", "--nu", "-1", "--r", "1e-200", "--rp", "1e200",
          "--cosg", "0.3"], "r = 1e-200, rp = 1e+200"),
        (["verify", "C4.3", "--nu", "-1", "--r", "1e-200", "--rp", "1e200"],
         "r = 1e-200, rp = 1e+200"),
        # this printed a numpy RuntimeWarning before "value exceeds double range"
        (["expand", "azimuthal", "--nu", "-1", "--R", "1e-200", "--Rp", "1e200", "--h", "0.5",
          "--dphi", "0.3"], "R = 1e-200, Rp = 1e+200"),
        # these raised ZeroDivisionError out of the CLI: 2 r r' underflows
        (["expand", "multipole", "--d", "3", "--nu", "-1", "--r", "1e-200", "--rp", "2e-200",
          "--cosg", "0.3"], "r = 1e-200, rp = 2e-200"),
        (["verify", "C4.3", "--nu", "-1", "--r", "1e-200", "--rp", "2e-200"],
         "r = 1e-200, rp = 2e-200"),
        (["expand", "azimuthal", "--nu", "-1", "--R", "1e-200", "--Rp", "2e-200", "--h", "0.5",
          "--dphi", "0.3"], "R = 1e-200, Rp = 2e-200"),
        # a numpy RuntimeWarning in the geometry, a traceback under -W error
        (["expand", "azimuthal", "--nu", "-1", "--R", "1e200", "--Rp", "1e200", "--h", "1",
          "--dphi", "0.5"], "R = 1e+200, Rp = 1.0000000000000001e+200, chi = nan"),
    ])
    def test_extreme_radii_exit6(self, capsys, argv, names):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith(f"error: {names}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        # lhs = rhs = "nan", reported as "fail" with exit 1
        (["verify", "T4.1", "--d", "600", "--caps", "2"], "chi = "),
        # rhs "nan", reported as "truncation_insufficient" after numpy warnings
        (["verify", "T4.1", "--d", "500"], "the fold weights leave double range"),
        # a ZeroDivisionError traceback
        (["verify", "C4.3", "--theta", "1e-200", "--thetap", "1e-200"], "rho, "),
        # a MemoryError traceback: the distinguished leaf was a row of an
        # (m + 1) x (m + 1) identity
        (["verify", "C4.5", "--m", "100000", "--caps", "1"], "the fold weights underflow to 0"),
        (["verify", "C4.3", "--m", "100000", "--caps", "1"], "the fold weights underflow to 0"),
    ])
    def test_certificate_past_double_range_exit6(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        # these reported "fail" and exited 1: the radial power underflowed
        # to 0, so rhs = 0 (at nu = 901 the lhs is 0 too)
        (["verify", "C4.3", "--nu", "451", "--r", "1", "--rp", "1.01", "--caps", "20"],
         "r = 1.0, rp = 1.01: the radial factors leave double range"),
        (["verify", "T4.1", "--d", "5", "--nu", "451", "--r", "1", "--rp", "1.01", "--caps",
          "10"], "r = 1.0, rp = 1.01: the radial factors leave double range"),
        (["verify", "C4.5", "--nu", "451", "--r", "1", "--rp", "1.01", "--caps", "10"],
         "r = 1.0, rp = 1.01: the radial factors leave double range"),
        (["verify", "C4.3", "--nu", "901", "--r", "1", "--rp", "1.1", "--caps", "20"],
         "r = 1.0, rp = 1.1: the radial factors leave double range"),
        # these exited 6 with "(34, 'Numerical result out of range')" and
        # "value exceeds double range", naming nothing
        (["verify", "C4.3", "--nu", "-300", "--r", "1", "--rp", "1e3"],
         "r = 1.0, rp = 1000.0: the radial factors leave double range"),
        (["verify", "C4.3", "--nu", "-1000", "--r", "1", "--rp", "1e10"],
         "r = 1.0, rp = 10000000000.0: the radial factors leave double range"),
        (["verify", "C4.3", "--nu", "-232", "--r", "1", "--rp", "0.0052", "--theta", "0.2",
          "--thetap", "2.5", "--caps", "5"],
         "nu = -232.0, rho = 0.11889806036861848, chi = 815.3339081810708: the certificate"
         " prefactor leaves double range"),
        # the radial column's bottom degree overflows
        (["verify", "C4.3", "--nu", "-587.5", "--r", "1", "--rp", "0.826", "--theta", "0.75",
          "--thetap", "2.41", "--caps", "2"],
         "r = 1.0, rp = 0.826: the radial factors leave double range"),
        # this read "truncation_insufficient" (exit 5) with lhs = 0
        (["verify", "C4.5", "--nu", "393", "--r", "1", "--rp", "1.2", "--theta", "1.3",
          "--thetap", "0.4", "--phis", "4.8", "--phisp", "0.3", "--caps", "9"],
         "nu = 393.0, m = 0, chi = 4.447401649363392: the lhs Qhat_{m-1/2}^{-(nu+1)/2}(chi)"
         " leaves double range"),
        # these ran 2 000 zero terms and exited 4: the prefactor underflowed to 0
        (["expand", "multipole", "--d", "3", "--nu", "-100", "--r", "1", "--rp", "1e10",
          "--cosg", "0.3"], "r = 1.0, rp = 10000000000.0: the radial factors leave double range"),
        (["expand", "azimuthal", "--nu", "-301", "--R", "1", "--Rp", "1", "--h", "1e10",
          "--dphi", "0.5"],
         "R = 1.0, Rp = 1.0, chi = 5e+19: the radial factors leave double range"),
    ])
    def test_factor_past_double_range_names_inputs_exit6(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 6
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("m", ["100000", "1999999"])
    def test_far_order_certificate_refused_fast(self, capsys, m):
        # the distinguished leaf's order puts alpha near m in the row-0 norms;
        # formed from exact factorials at every alpha, they would take 4.8 s
        # at m = 1e5 and grow as m^2 toward the bound of about 2e6
        start = time.perf_counter()
        code, out, err = run(["verify", "C4.3", "--m", m, "--caps", "1"], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 6 and err.startswith("error: the fold weights underflow to 0")

    @pytest.mark.parametrize("flags, message", [
        (["--tol", "0"], "tol must be a positive finite number"),
        (["--tol", "-1"], "tol must be a positive finite number"),
        (["--caps", "-3"], "caps must be >= 0"),
    ])
    def test_bad_tolerance_or_caps_exit6(self, capsys, flags, message):
        # --tol 0 read "truncation_insufficient" (exit 5) on a C4.3 sum with
        # rel_err 3.4e-16; --caps -3 failed inside node_pair_table
        code, out, err = run(["verify", "C4.3", "--nu", "-1"] + flags, capsys)
        assert code == 6
        assert out == "" and err.startswith(f"error: {message}")


    @pytest.mark.parametrize("argv, phis, phisp", [
        (["verify", "C4.5", "--m", "1", "--thetas", "0.6", "--thetasp", "0.8"], [-0.5], [7.0]),
        (["verify", "T4.2", "--q", "3", "--caps", "8", "--tol", "1e-3"],
         [-1, 8, 3], [0.1, 0.2, 9]),
    ])
    def test_azimuths_outside_one_period(self, capsys, argv, phis, phisp):
        # azimuths are periodic: any real value passes, and gives the rhs
        # of the same call with every azimuth reduced mod 2 pi
        def flags(fs, fps):
            return ["--phis=" + ",".join(map(repr, fs)), "--phisp=" + ",".join(map(repr, fps))]

        code, out, _ = run(argv + flags(phis, phisp), capsys)
        assert code == 0
        two_pi = 2.0 * math.pi
        code, out_reduced, _ = run(argv + flags([f % two_pi for f in phis],
                                                [f % two_pi for f in phisp]), capsys)
        assert code == 0
        rhs, rhs_reduced = json.loads(out)["rhs"], json.loads(out_reduced)["rhs"]
        assert abs(rhs - rhs_reduced) <= 1e-14 * abs(rhs_reduced)


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
