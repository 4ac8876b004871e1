"""CLI surface: output formats, exit codes, CSV schema, and determinism."""

import argparse
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from harmlab import (
    HalfPlanePoint,
    NeuronEnsemble,
    cli,
    ensemble_eval,
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    eval_u_integer,
    eval_u_reg,
    eval_u_three_half,
    experiments,
    load_ensemble,
    numerics,
    save_ensemble,
    slice_ensemble,
)
from harmlab.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_heaviside(capsys):
    code, out, err = invoke(capsys, "eval", "--kind", "heaviside", "--x", "1", "--y", "1")
    assert code == 0 and err == ""
    assert out.strip() == "0.75"


def test_eval_frac_closed_form(capsys):
    code, out, _ = invoke(capsys, "eval", "--kind", "frac", "--alpha", "0.5", "--x", "3", "--y", "4")
    assert code == 0
    assert float(out.strip()) == pytest.approx(2.0, rel=1e-12)


def test_eval_reg_allows_boundary(capsys):
    code, out, _ = invoke(capsys, "eval", "--kind", "reg", "--k", "2", "--eps", "0.5", "--x", "1", "--y", "0")
    assert code == 0
    # boundary value: 1 * x^2 - log(x^2+eps^2)/(2pi) * 0
    assert float(out.strip()) == pytest.approx(1.0, rel=1e-12)


def test_eval_reg_accepts_negative_zero_y(capsys):
    code, out, err = invoke(capsys, "eval", "--kind", "reg", "--k", "3", "--eps", "1", "--x", "1.5", "--y", "-0")
    assert code == 0 and err == ""
    assert out.strip() == "3.375"


def test_eval_reg_boundary_zero_is_not_negative(capsys):
    # ReLU^3(-1.5) = 0 comes out of 0.0 * Re z^3 with Re z^3 < 0 as -0.0
    code, out, err = invoke(capsys, "eval", "--kind", "reg", "--k", "3", "--eps", "1", "--x", "-1.5", "--y", "0")
    assert code == 0 and err == ""
    assert out.strip() == "0"


def python_m_harmlab(*argv):
    """Run `python -m harmlab argv` in a fresh interpreter, as a user's shell would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "harmlab", *argv], capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_entry_point():
    proc = python_m_harmlab("eval", "--kind", "heaviside", "--x", "1", "--y", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.strip() == "0.75"


def test_solve_alpha_near_one_fails_with_one_line_reason():
    # the tail substitution overflows at alpha = 0.995; numpy must not warn on stderr
    proc = python_m_harmlab("solve", "--boundary", "relu:0.995", "--x", "0.3", "--y", "0.5")
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("harmlab: numerical failure: kernel quadrature failed at (0.3, 0.5): integrand non-finite")


@pytest.mark.parametrize(
    "boundary, reason",
    [
        ("relu:0.5:nan:0", "relu_power requires finite w and b, got w=nan, b=0.0"),  # was g = 0, exit 0
        ("relu:0.5:1:nan", "relu_power requires finite w and b, got w=1.0, b=nan"),  # was g = 0, exit 0
        ("relu:0.5:inf:0", "relu_power requires finite w and b, got w=inf, b=0.0"),  # was exit 3
        ("tanh:nan:0", "tanh requires finite w and b, got w=nan, b=0.0"),  # was exit 3
    ],
)
def test_solve_refuses_non_finite_boundary_parameters(capsys, boundary, reason):
    code, out, err = invoke(capsys, "solve", "--boundary", boundary, "--x", "0.3", "--y", "0.5")
    assert (code, out, err) == (2, "", f"harmlab: invalid input: {reason}\n")


def test_eval_validation_exit_code(capsys):
    code, out, err = invoke(capsys, "eval", "--kind", "frac", "--alpha", "2", "--x", "1", "--y", "1")
    assert code == 2
    assert "invalid input" in err
    code, _, _ = invoke(capsys, "eval", "--kind", "int", "--k", "1", "--x", "0", "--y", "-1")
    assert code == 2
    code, _, _ = invoke(capsys, "eval", "--kind", "int", "--x", "0", "--y", "1")
    assert code == 2  # missing --k
    # a kind's parameters are checked before its point
    code, _, err = invoke(capsys, "eval", "--kind", "int", "--k", "0", "--x", "1", "--y", "-1")
    assert code == 2 and "k must be a positive integer" in err
    code, _, err = invoke(capsys, "eval", "--kind", "frac", "--alpha", "2", "--x", "1", "--y", "0")
    assert code == 2 and "within 1e-9 of an integer" in err
    code, _, err = invoke(capsys, "eval", "--kind", "reg", "--k", "2", "--eps", "-1", "--x", "1", "--y", "-1")
    assert code == 2 and "epsilon must be > 0" in err


def test_eval_matches_evaluator_for_every_kind(capsys):
    p = HalfPlanePoint(0.7, 0.9)
    cases = {
        "int": (["--k", "2"], eval_u_integer(p, 2)),
        "frac": (["--alpha", "0.3"], eval_u_fractional(p, 0.3)),
        "half": ([], eval_u_half(p)),
        "threehalf": ([], eval_u_three_half(p)),
        "heaviside": ([], eval_heaviside(p)),
        "reg": (["--k", "2", "--eps", "0.1"], eval_u_reg(p.x, p.y, 0.1, 2)),
    }
    assert sorted(cases) == sorted(cli._EVAL_KINDS)
    for kind, (flags, want) in cases.items():
        code, out, err = invoke(capsys, "eval", "--kind", kind, *flags, "--x", "0.7", "--y", "0.9")
        assert code == 0 and err == ""
        assert out == f"{want:.15g}\n"


@pytest.mark.parametrize(
    "argv,code,reason",
    [
        (["--kind", "frac", "--alpha", "inf", "--x", "1", "--y", "1"], 2, "alpha must be finite, got inf"),
        (["--kind", "frac", "--alpha", "nan", "--x", "1", "--y", "1"], 2, "alpha must be finite, got nan"),
        (["--kind", "reg", "--k", "2", "--eps", "inf", "--x", "1", "--y", "0"], 2, "epsilon must be finite"),
        (["--kind", "reg", "--k", "2", "--eps", "0.1", "--x", "nan", "--y", "0"], 2, "non-finite point (nan, 0.0)"),
        (["--kind", "reg", "--k", "2", "--eps", "0.1", "--x", "1", "--y", "inf"], 2, "non-finite point (1.0, inf)"),
        (["--kind", "int", "--k", "100000", "--x", "1", "--y", "1"], 3, "is not finite: inf"),
        (["--kind", "reg", "--k", "3", "--eps", "1e-200", "--x", "1e-200", "--y", "0"], 3, "is not finite: nan"),
    ],
)
def test_eval_hostile_values_exit_with_one_line(capsys, argv, code, reason):
    # RuntimeWarnings fail the suite, so a numpy warning on the way would show here
    got, out, err = invoke(capsys, "eval", *argv)
    assert got == code and out == ""
    assert err.count("\n") == 1 and reason in err
    assert err.startswith("harmlab: invalid input: " if code == 2 else "harmlab: numerical failure: ")


@pytest.mark.parametrize(
    "argv,value",
    [
        # eps^2 underflows to 0 and log(0) met Im z^2 = 0: the value at the origin is 0
        (["--kind", "reg", "--k", "2", "--eps", "1e-300", "--x", "0", "--y", "0"], "0"),
        # eps^2 overflows and log(inf) met Im z^2 = 0; there the log is 2 log(hypot(r, eps))
        (["--kind", "reg", "--k", "2", "--eps", "1e300", "--x", "1", "--y", "0"], "1"),
        # r - x overflowed; the value is -(3/2) y sqrt((r - x)/2) to 1400 mpmath digits
        (["--kind", "threehalf", "--x", "-1e308", "--y", "1e-308"], "-1.5e-154"),
    ],
)
def test_eval_finite_values_at_extreme_arguments_print(capsys, argv, value):
    # each exited 3 with "is not finite: nan"
    assert invoke(capsys, "eval", *argv) == (0, value + "\n", "")


@pytest.mark.parametrize("x", ["-1e-3", "-1E-3", "-2.5e+1", "-.5e1", "-3.", "-1"])
@pytest.mark.parametrize("command", [["solve", "--boundary", "relu:0.5"], ["eval", "--kind", "frac", "--alpha", "0.5"]],
                         ids=["solve", "eval"])
def test_a_negative_number_in_exponent_form_is_a_value(capsys, command, x):
    # `--x -1e-3` used to exit 2 with "argument --x: expected one argument"
    spaced = invoke(capsys, *command, "--x", x, "--y", "0.5")
    assert spaced[0] == 0
    assert spaced == invoke(capsys, *command, f"--x={x}", "--y", "0.5")


def test_solve_heaviside(capsys):
    code, out, _ = invoke(capsys, "solve", "--boundary", "heaviside", "--x", "1", "--y", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.75, abs=1e-9)


def test_solve_relu_with_params(capsys):
    code, out, _ = invoke(capsys, "solve", "--boundary", "relu:0.5:1:0", "--x", "3", "--y", "4")
    assert code == 0
    assert float(out.strip()) == pytest.approx(2.0, abs=1e-7)


def test_solve_bad_spec(capsys):
    code, _, err = invoke(capsys, "solve", "--boundary", "gauss", "--x", "0", "--y", "1")
    assert code == 2 and "invalid input" in err


def test_solve_infinite_tol_exits_2_with_one_line(capsys):
    # tol = inf used to print 0.70712888496821, where the closed form is 0.707106781186548
    code, out, err = invoke(capsys, "solve", "--boundary", "relu:0.5", "--x", "0", "--y", "1", "--tol", "inf")
    assert (code, out) == (2, "")
    assert err == "harmlab: invalid input: tol must be finite and > 0, got inf\n"


@pytest.mark.parametrize("y", ["5e-324", "1e-310"])
def test_solve_refuses_a_subnormal_y(capsys, y):
    # --y 5e-324 printed 0.352416382349567 where eval --kind heaviside prints
    # 0.5; --y 1e-310 printed 0.5 and is refused all the same, as every
    # subnormal y is
    code, out, err = invoke(capsys, "solve", "--boundary", "heaviside", "--x", "0", "--y", y)
    assert (code, out) == (2, "")
    assert err == (f"harmlab: invalid input: kernel quadrature at (0.0, {y}) needs y >= 2.2250738585072014e-308,"
                   " the smallest normal float\n")


def test_solve_refuses_a_tolerance_share_that_underflows(capsys):
    # tol 5e-324 over 4 pieces used to be refused as "tol must be finite and > 0, got 0.0"
    code, out, err = invoke(capsys, "solve", "--boundary", "heaviside", "--x", "0.3", "--y", "0.5", "--tol", "5e-324")
    assert (code, out) == (2, "")
    assert err == ("harmlab: invalid input: tol 5e-324 split over the 4 pieces of the kernel integral at (0.3, 0.5)"
                   " underflows to 0\n")


def test_rates_reg_csv_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "rates", "reg", "--k", "2", "--p", "inf", "--order", "0",
        "--eps-min", "1e-3", "--eps-max", "1e-1", "--steps", "5",
        "--nr", "64", "--nphi", "32", "--grading", "3",
    ]
    code1, stdout1, _ = invoke(capsys, *argv, "--out", str(out1))
    code2, stdout2, _ = invoke(capsys, *argv, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1 == stdout2
    lines = out1.read_text().splitlines()
    assert lines[0] == "experiment,k,R,p,order,knob,value"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "reg" and first[1] == "2" and first[3] == "inf" and first[4] == "0"
    assert stdout1.startswith("slope=")
    # 17 significant digits round-trip doubles exactly
    knob, value = float(first[5]), float(first[6])
    assert f"{knob:.17g}" == first[5] and f"{value:.17g}" == first[6]


def test_rates_reg_gnuplot_companion(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = invoke(
        capsys, "rates", "reg", "--k", "2", "--p", "2", "--order", "0",
        "--eps-min", "1e-3", "--eps-max", "1e-1", "--steps", "5",
        "--nr", "64", "--nphi", "32", "--grading", "3",
        "--out", str(out), "--gnuplot",
    )
    assert code == 0
    script = (tmp_path / "r.csv.gp").read_text()
    assert "logscale" in script and "r.csv" in script


def test_rates_mc_csv(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, stdout, _ = invoke(
        capsys, "rates", "mc", "--alpha", "2", "--n-min", "32", "--n-max", "256",
        "--steps", "4", "--seeds", "3", "--target-size", "1000", "--out", str(out),
    )
    assert code == 0
    assert "bound_rate=" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "experiment,k,R,p,order,knob,value"
    assert lines[1].split(",")[0] == "mc"


def test_rates_mc_inadmissible_exit_code(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "rates", "mc", "--alpha", "1.5", "--order", "2", "--q", "2",
        "--n-min", "32", "--n-max", "128", "--steps", "3", "--seeds", "2",
        "--target-size", "1000", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "invalid input" in err


def test_rates_mc_infinite_q_exits_2(tmp_path, capsys):
    code, out, err = invoke(
        capsys, "rates", "mc", "--alpha", "2", "--n-min", "32", "--n-max", "256", "--steps", "3",
        "--seeds", "2", "--q", "inf", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and out == ""
    assert err == "harmlab: invalid input: q must be finite and >= 2, got inf\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha,value", [("800", "nan"), ("400", "inf")])
def test_rates_mc_overflow_exits_3_with_one_line(tmp_path, capsys, alpha, value):
    # the draws' errors overflow; numpy must not warn on the way to the refusal
    code, out, err = invoke(capsys, "rates", "mc", "--alpha", alpha, "--out", str(tmp_path / "x.csv"))
    assert code == 3 and out == ""
    assert err == f"harmlab: numerical failure: the subsampling error at n = 32 is not finite: {value}\n"
    assert list(tmp_path.iterdir()) == []


def test_rates_mc_too_many_steps_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    def never(*a, **kw):
        raise AssertionError("work started on an oversized --steps")

    monkeypatch.setattr(cli.np, "logspace", never)
    monkeypatch.setattr(experiments, "make_random_target", never)
    code, out, err = invoke(capsys, "rates", "mc", "--alpha", "2", "--steps", "100000000",
                            "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert err == "harmlab: invalid input: steps = 100000000 exceeds the limit of 10000000 sizes\n"
    assert list(tmp_path.iterdir()) == []


def _sweep(capsys, monkeypatch, tmp_path, argv):
    """invoke argv (plus --out unless it is a diag) with no work allowed to start."""
    def never(*a, **kw):
        raise AssertionError("work started on an oversized sweep")

    monkeypatch.setattr(cli.np, "logspace", never)
    monkeypatch.setattr(experiments, "make_random_target", never)
    out_flag = [] if argv[0] == "diag" else ["--out", str(tmp_path / "x.csv")]
    return invoke(capsys, *argv, *out_flag)


_SWEEPS = [  # (argv with the sweep at limit + 1, argv at the limit, reason), limit 10
    (["rates", "reg", "--k", "2", "--steps", "11"], ["rates", "reg", "--k", "2", "--steps", "10"],
     "steps = 11 exceeds the limit of 10 eps values"),
    (["rates", "sobolev", "--k", "2", "--steps", "11"], ["rates", "sobolev", "--k", "2", "--steps", "10"],
     "steps = 11 exceeds the limit of 10 eps values"),
    (["diag", "xklogx", "--k", "2", "--steps", "11"], ["diag", "xklogx", "--k", "2", "--steps", "10"],
     "steps = 11 exceeds the limit of 10 cutoffs"),
    (["rates", "mc", "--alpha", "2", "--steps", "3", "--seeds", "4"],
     ["rates", "mc", "--alpha", "2", "--steps", "5", "--seeds", "2"],
     "steps x seeds = 12 exceeds the limit of 10 draws"),
]


@pytest.mark.parametrize("over,at,reason", _SWEEPS)
def test_oversized_sweep_exits_2_before_any_work(tmp_path, capsys, monkeypatch, over, at, reason):
    monkeypatch.setattr(cli, "MAX_NEURONS", 10)
    code, out, err = _sweep(capsys, monkeypatch, tmp_path, over)
    assert code == 2 and out == ""
    assert err == f"harmlab: invalid input: {reason}\n"
    with pytest.raises(AssertionError, match="work started"):  # the limit itself is allowed
        _sweep(capsys, monkeypatch, tmp_path, at)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["rates", "reg", "--k", "2", "--steps", "1000000000"],
         "steps = 1000000000 exceeds the limit of 10000000 eps values"),
        (["rates", "sobolev", "--k", "2", "--steps", "100000000"],
         "steps = 100000000 exceeds the limit of 10000000 eps values"),
        (["diag", "xklogx", "--k", "2", "--steps", "100000000"],
         "steps = 100000000 exceeds the limit of 10000000 cutoffs"),
        (["rates", "mc", "--alpha", "2", "--seeds", "100000000"],
         "steps x seeds = 800000000 exceeds the limit of 10000000 draws"),
    ],
)
def test_hostile_sweep_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, reason):
    code, out, err = _sweep(capsys, monkeypatch, tmp_path, argv)
    assert code == 2 and out == ""
    assert err == f"harmlab: invalid input: {reason}\n"


@pytest.mark.parametrize(
    "argv,where",
    [
        # |error|^1000 underflows at every node, so each W^{0,1000} error is 0
        (["rates", "mc", "--alpha", "2", "--q", "1000", "--n-min", "32", "--n-max", "128",
          "--steps", "3", "--seeds", "2"], "n = 32"),
        # the regularization error is about eps^2, below the smallest double
        (["rates", "reg", "--k", "2", "--steps", "3", "--eps-min", "1e-300", "--eps-max", "1e-299"],
         "eps = 1e-300"),
    ],
)
def test_vanished_norm_exits_3_naming_the_knob(tmp_path, capsys, argv, where):
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == 3 and out == ""
    assert err == (
        f"harmlab: numerical failure: the measured norm underflowed to 0 at {where};"
        " no power law can be fitted\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_rates_sobolev_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, _ = invoke(
        capsys, "rates", "sobolev", "--k", "2", "--eps-min", "1e-3", "--eps-max", "1e-1",
        "--steps", "4", "--order", "3", "--nr", "128", "--nphi", "32", "--grading", "3",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "experiment,k,R,p,order,knob,value"
    assert lines[1].split(",")[0] == "sobolev"
    assert stdout.startswith("slope=")


SOBOLEV_SMALL = ["rates", "sobolev", "--k", "2", "--steps", "4", "--nr", "128", "--nphi", "32", "--grading", "3"]


def test_rates_sobolev_warns_on_rejected_log_model(tmp_path, capsys):
    # default order k+2: the seminorm^2 grows like eps^-2, so the log fit is rejected
    code, stdout, err = invoke(capsys, *SOBOLEV_SMALL, "--out", str(tmp_path / "s.csv"))
    assert code == 0
    assert stdout.startswith("slope=") and "r2=0.637" in stdout
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("harmlab: warning: r2=0.637")
    # order k+1 fits the log model (r2 = 1.000) and stays silent
    code, stdout, err = invoke(capsys, *SOBOLEV_SMALL, "--order", "3", "--out", str(tmp_path / "t.csv"))
    assert code == 0 and err == ""
    assert "r2=1.000" in stdout


def test_rates_mc_warns_on_a_weak_fit(tmp_path, capsys):
    # one seed of four tiny sizes: the error is mostly noise; the CSV and stdout stay
    out = tmp_path / "m.csv"
    code, stdout, err = invoke(capsys, "rates", "mc", "--alpha", "0.5", "--seeds", "1", "--steps", "4",
                               "--n-min", "2", "--n-max", "16", "--out", str(out))
    assert code == 0 and stdout == "slope=-0.544 r2=0.530 bound_rate=0.500\n"
    assert err == ("harmlab: warning: r2=0.530 < 0.9: the subsampling error is not a power of n;"
                   " the slope is not a rate\n")
    assert len(out.read_text().splitlines()) == 5


@pytest.mark.parametrize("r2,warns", [(0.98, True), (0.99, False)])
def test_rates_reg_warns_below_its_threshold(tmp_path, capsys, monkeypatch, r2, warns):
    report = experiments.ErrorReport("reg", 2, 1.0, math.inf, 1, 1e-3, 1e-6)
    fit = numerics.RateFit(2.0, 0.0, r2)
    monkeypatch.setattr(experiments, "reg_error_experiment", lambda *args: ([report], fit))
    code, stdout, err = invoke(capsys, "rates", "reg", "--k", "2", "--order", "1", "--out", str(tmp_path / "r.csv"))
    assert code == 0 and stdout == f"slope=2.000 r2={r2:.3f}\n"
    want = f"harmlab: warning: r2={r2:.3f} < 0.99: the order-1 error is not a power of eps; the slope is not a rate\n"
    assert err == (want if warns else "")


def test_rates_sobolev_gate_failure_exit_code(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "rates", "sobolev", "--k", "2", "--eps-min", "1e-3", "--eps-max", "1e-1",
        "--steps", "4", "--order", "3", "--nr", "8", "--nphi", "8", "--grading", "1",
        "--out", str(tmp_path / "g.csv"),
    )
    assert code == 3 and "numerical failure" in err
    assert list(tmp_path.iterdir()) == []  # the up-front --out check creates no file


@pytest.mark.parametrize("order", ["15", "1000"])
def test_rates_sobolev_inexact_order_exits_2(tmp_path, capsys, order):
    # from order 15 on the derivative terms' integer coefficients reach 2**53
    out = tmp_path / "sob.csv"
    code, stdout, err = invoke(capsys, "rates", "sobolev", "--k", "2", "--order", order,
                               "--nr", "16", "--nphi", "16", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"harmlab: invalid input: order {order} is too high for k=2")
    assert err.count("\n") == 1
    assert not out.exists()


def test_rates_reg_gate_failure_exit_code(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "rates", "reg", "--k", "2", "--p", "1", "--order", "2",
        "--eps-min", "1e-4", "--eps-max", "1e-2", "--steps", "4",
        "--nr", "8", "--nphi", "8", "--grading", "1", "--out", str(tmp_path / "g.csv"),
    )
    assert code == 3 and "numerical failure" in err
    assert list(tmp_path.iterdir()) == []  # the up-front --out check creates no file


def test_diag_xklogx(capsys):
    code, out, _ = invoke(capsys, "diag", "xklogx", "--k", "2", "--delta-min", "1e-6", "--steps", "5")
    assert code == 0
    assert out.startswith("slope=")
    slope = float(out.split()[0].split("=")[1])
    assert slope == pytest.approx(2.0, rel=0.02)


def test_diag_slice(capsys):
    code, out, _ = invoke(capsys, "diag", "slice", "--k", "2", "--theta", str(math.pi / 4))
    assert code == 0
    fields = dict(tok.split("=") for tok in out.split())
    assert float(fields["c_fit"]) == pytest.approx(2.0 / math.pi, rel=1e-6)
    assert float(fields["residual"]) <= 1e-10


def test_diag_slice_degenerate_exit(capsys):
    code, _, err = invoke(capsys, "diag", "slice", "--k", "3", "--theta", str(math.pi / 3))
    assert code == 2 and "invalid input" in err


def test_diag_slice_odd_k_reflected_ray_matches_expected(capsys):
    code, out, err = invoke(capsys, "diag", "slice", "--k", "1", "--theta", "2.0")
    fields = dict(tok.split("=") for tok in out.split())
    assert code == 0 and err == ""
    assert fields["c_fit"] == fields["expected"] == "-0.695519790182"


def test_diag_slice_large_k_matches_expected(capsys):
    code, out, err = invoke(capsys, "diag", "slice", "--k", "200", "--theta", "0.3")
    fields = dict(tok.split("=") for tok in out.split())
    assert code == 0 and err == ""
    assert float(fields["c_fit"]) == pytest.approx(float(fields["expected"]), rel=1e-9)


@pytest.mark.parametrize("k", ["300", "100000"])
def test_diag_slice_unresolvable_k_exits_3(capsys, k):
    code, out, err = invoke(capsys, "diag", "slice", "--k", k, "--theta", "0.3")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("harmlab: numerical failure: ")


@pytest.mark.parametrize("k", [40, 60, 100])
def test_diag_xklogx_large_k_slope_is_k_factorial(capsys, k):
    code, out, err = invoke(capsys, "diag", "xklogx", "--k", str(k), "--delta-min", "1e-6", "--steps", "5")
    assert code == 0 and err == ""
    assert out.split()[0] == f"slope={math.factorial(k):.6g}"


@pytest.mark.parametrize(
    "k,code,reason",
    [
        ("140", 3, "numerical failure: line fit is not finite"),
        ("171", 2, "invalid input: k! is not a double for k > 170"),
        ("100000", 2, "invalid input: k! is not a double for k > 170"),
    ],
)
def test_diag_xklogx_hostile_k_exits_with_one_line(capsys, k, code, reason):
    got, out, err = invoke(capsys, "diag", "xklogx", "--k", k, "--delta-min", "1e-6", "--steps", "5")
    assert got == code and out == ""
    assert err.count("\n") == 1 and err.startswith(f"harmlab: {reason}")


def test_ensemble_pipeline(tmp_path, capsys):
    src = tmp_path / "e1.txt"
    e = NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5)
    save_ensemble(e, src)

    lifted_path = tmp_path / "e2.txt"
    code, _, _ = invoke(capsys, "ensemble", "lift", "--in", str(src), "--out", str(lifted_path), "--nodes", "101")
    assert code == 0
    lifted = load_ensemble(lifted_path)
    assert lifted.dim == 2 and len(lifted) == 101

    sampled_path = tmp_path / "e3.txt"
    code, _, _ = invoke(
        capsys, "ensemble", "sample", "--in", str(lifted_path), "--out", str(sampled_path), "--n", "7", "--seed", "3"
    )
    assert code == 0
    assert len(load_ensemble(sampled_path)) == 7

    sliced_path = tmp_path / "e4.txt"
    code, _, _ = invoke(
        capsys, "ensemble", "slice", "--in", str(lifted_path), "--out", str(sliced_path),
        "--x0", "0,1", "--v", "1,0",
    )
    assert code == 0
    sliced = load_ensemble(sliced_path)
    assert sliced.dim == 1
    for t in (-0.5, 0.2, 1.3):
        assert ensemble_eval(sliced, t) == pytest.approx(ensemble_eval(lifted, [t, 1.0]), abs=1e-14)

    ext_path = tmp_path / "e5.txt"
    code, _, _ = invoke(capsys, "ensemble", "extend", "--in", str(src), "--out", str(ext_path))
    assert code == 0
    assert load_ensemble(ext_path).dim == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "mc", "--alpha", "2", "--target-size", "1000000000000"],
        ["ensemble", "sample", "--n", "1000000000000", "--seed", "1"],
        ["ensemble", "lift", "--samples", "1000000000000", "--seed", "1"],
    ],
)
def test_hostile_sizes_exit_2(tmp_path, capsys, argv):
    # checked before anything of that size is allocated
    src = tmp_path / "e1.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), src)
    files = [] if argv[0] == "rates" else ["--in", str(src)]
    code, out, err = invoke(capsys, *argv, *files, "--out", str(tmp_path / "x.out"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "exceeds the limit" in err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["ensemble", "sample", "--in", "{plane}", "--n", "5", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["ensemble", "lift", "--in", "{line}", "--samples", "5", "--seed", "-3"], "--seed must be >= 0, got -3"),
        (["rates", "mc", "--alpha", "2", "--target-seed", "-1"], "--target-seed must be >= 0, got -1"),
    ],
    ids=["sample", "lift", "mc"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv, reason):
    # numpy refuses negative seeds with a ValueError; the CLI refuses them first
    line, plane = tmp_path / "line.txt", tmp_path / "plane.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), line)
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0, 1.0]], [0.0], 0.5), plane)
    out = tmp_path / "x.out"
    code, stdout, err = invoke(capsys, *[a.format(line=line, plane=plane) for a in argv], "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"harmlab: invalid input: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,error",
    [
        (["extend", "--in", "{line}", "--nodes", "0", "--samples", "7", "--n", "-3", "--x0", "a,b", "--v", "0,0"],
         "unrecognized arguments: --nodes 0 --samples 7 --n -3 --x0 a,b --v 0,0"),
        (["lift", "--in", "{line}", "--n", "5", "--x0", "zz"], "unrecognized arguments: --n 5 --x0 zz"),
        (["slice", "--in", "{plane}", "--nodes", "0", "--samples", "0", "--n", "0"],
         "unrecognized arguments: --nodes 0 --samples 0 --n 0"),
        (["sample", "--in", "{plane}", "--n", "4", "--nodes", "0", "--x0", "q"], "unrecognized arguments: --nodes 0 --x0 q"),
        (["extend", "--in", "{line}", "--seed", "-1"], "unrecognized arguments: --seed -1"),
        (["lift", "--in", "{line}", "--n", "5"], "unrecognized arguments: --n 5"),  # not read as --nodes
        (["sample", "--in", "{plane}"], "the following arguments are required: --n"),
    ],
    ids=["extend", "lift", "slice", "sample", "extend seed", "lift n", "sample without n"],
)
def test_ensemble_action_takes_only_its_own_flags(tmp_path, capsys, argv, error):
    line, plane = tmp_path / "line.txt", tmp_path / "plane.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), line)
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0, 1.0]], [0.0], 0.5), plane)
    out = tmp_path / "x.out"
    code, stdout, err = invoke(capsys, "ensemble", *[a.format(line=line, plane=plane) for a in argv], "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"harmlab: invalid input: ensemble {argv[0]}: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,error",
    [
        (["rates", "reg", "--k", "2", "--out", "y.csv", "--bogus"], "rates reg: unrecognized arguments: --bogus"),
        (["rates", "reg", "--out", "y.csv"], "rates reg: the following arguments are required: --k"),
        (["eval", "--kind", "bogus", "--x", "1", "--y", "1"], "eval: argument --kind: invalid choice: 'bogus'"),
        (["ensemble", "extend", "--in", "x", "--out", "y", "--seed", "-1"],
         "ensemble extend: unrecognized arguments: --seed -1"),
        (["rates", "--bogus", "reg", "--k", "2", "--out", "y.csv"], "rates: unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ],
    ids=["unknown flag", "missing required flag", "bad choice", "unknown action flag", "unknown group flag",
         "unknown command"],
)
def test_argparse_refusals_take_one_line(capsys, argv, error):
    # the line names the command whose parser refused, or none at the top level
    code, stdout, err = invoke(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"harmlab: invalid input: {error}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["rates", "reg", "--k", "2", "--eps-max", "inf"], "eps-max must be finite, got inf"),
        (["rates", "sobolev", "--k", "2", "--eps-max", "inf"], "eps-max must be finite, got inf"),
        (["diag", "xklogx", "--k", "2", "--delta-min", "inf"], "need 0 < delta-min < 0.1, got inf"),
        (["diag", "xklogx", "--k", "2", "--delta-min", "0"], "need 0 < delta-min < 0.1, got 0.0"),
    ],
    ids=["reg", "sobolev", "xklogx-inf", "xklogx-0"],
)
def test_infinite_logspace_endpoint_exits_2(tmp_path, capsys, argv, reason):
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "rates" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's logspace warning would otherwise reach stderr
        code, stdout, err = invoke(capsys, *argv, *out)
    assert code == 2 and stdout == ""
    assert err == f"harmlab: invalid input: {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "x0,v,reason",
    [("0,0", "1e308,1e308", "w contains non-finite entries"), ("1e308,1e308", "1,1", "b contains non-finite entries")],
    ids=["v", "x0"],
)
def test_overflowing_slice_exits_2_with_one_line(tmp_path, capsys, x0, v, reason):
    plane = tmp_path / "plane.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0, 1.0]], [0.0], 0.5), plane)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's matmul overflow warning would reach stderr
        code, stdout, err = invoke(capsys, "ensemble", "slice", "--in", str(plane), f"--x0={x0}", f"--v={v}",
                                   "--out", str(tmp_path / "o.txt"))
    assert code == 2 and stdout == ""
    assert err == f"harmlab: invalid input: {reason}\n"
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize(
    "x0,v",
    [("nan,0", "1,1"), ("0,inf", "1,1"), ("0,0", "nan,1"), ("0,0", "1,-inf")],
    ids=["x0-nan", "x0-inf", "v-nan", "v-inf"],
)
def test_non_finite_slice_line_exits_2_naming_x0_and_v(tmp_path, capsys, x0, v):
    plane = tmp_path / "plane.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0, 1.0]], [0.0], 0.5), plane)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic: no numpy warning
        code, stdout, err = invoke(capsys, "ensemble", "slice", "--in", str(plane), f"--x0={x0}", f"--v={v}",
                                   "--out", str(tmp_path / "o.txt"))
    assert code == 2 and stdout == ""
    assert err == "harmlab: invalid input: x0 and v must be finite\n"
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["rates", "reg", "--k", "2", "--p", "abc", "--out", "{tmp}/r.csv"], "p must be a number, got 'abc'"),
        (["solve", "--boundary", "relu:abc", "--x", "1", "--y", "1"], "got 'abc'"),
        (["ensemble", "slice", "--in", "{plane}", "--out", "{tmp}/o.txt", "--x0", "a,b"], "got 'a'"),
        (["ensemble", "slice", "--in", "{plane}", "--out", "{tmp}/o.txt", "--v", "1,x"], "got 'x'"),
        (["ensemble", "lift", "--in", "{line}", "--out", "{tmp}/o.txt", "--nodes", "0"], "n = 0"),
    ],
)
def test_unparsable_numbers_exit_2(tmp_path, capsys, argv, reason):
    line, plane = tmp_path / "line.txt", tmp_path / "plane.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), line)
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0, 1.0]], [0.0], 0.5), plane)
    code, out, err = invoke(capsys, *[a.format(tmp=tmp_path, line=line, plane=plane) for a in argv])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("harmlab: invalid input: ") and reason in err
    assert not (tmp_path / "o.txt").exists() and not (tmp_path / "r.csv").exists()


_HEADER = "#barron-ensemble v1 alpha=0.5 dim=1\n"


@pytest.mark.parametrize(
    "body,reason",
    [
        ("1 1 abc 0\n", "could not convert string 'abc'"),
        ("0.5 1 1 0\n0.5 1 1\n", "number of columns changed"),
        ("1 1 1 0 # comment\n", "could not convert string '#'"),
        ("", "ensemble file has no neurons"),
        ("\n \n", "ensemble file has no neurons"),
    ],
)
def test_malformed_ensemble_file_exits_2(tmp_path, capsys, body, reason):
    src = tmp_path / "bad.txt"
    src.write_text(_HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would otherwise reach stderr
        code, out, err = invoke(capsys, "ensemble", "extend", "--in", str(src), "--out", str(tmp_path / "o.txt"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"harmlab: invalid input: {src}: ")
    assert reason in err
    assert not (tmp_path / "o.txt").exists()


def test_blank_ensemble_body_prints_one_line(tmp_path):
    # a fresh interpreter, so a warning numpy prints would show on stderr
    src = tmp_path / "blank.txt"
    src.write_text(_HEADER + "\n\n")
    proc = python_m_harmlab("ensemble", "extend", "--in", str(src), "--out", str(tmp_path / "o.txt"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"harmlab: invalid input: {src}: ensemble file has no neurons"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ensemble", "extend", "--in", "{missing}", "--out", "{tmp}/o.txt"],
        ["ensemble", "extend", "--in", "{src}", "--out", "{missing}/o.txt"],
        ["ensemble", "lift", "--in", "{src}", "--out", "{tmp}", "--nodes", "3"],
        ["rates", "reg", "--k", "2", "--p", "inf", "--order", "0", "--eps-min", "1e-3", "--eps-max",
         "1e-1", "--steps", "3", "--nr", "64", "--nphi", "32", "--grading", "3", "--out", "{missing}/x.csv"],
    ],
)
def test_unreadable_in_or_unwritable_out_exits_2(tmp_path, capsys, argv):
    src = tmp_path / "e1.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), src)
    names = {"tmp": tmp_path, "src": src, "missing": tmp_path / "missing"}
    code, out, err = invoke(capsys, *[arg.format(**names) for arg in argv])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("harmlab: cannot access file: ")
    assert str(tmp_path) in err


_EARLY_OUT_ARGV = {
    "reg_error_experiment": ["rates", "reg", "--k", "2"],
    "mc_rate_experiment": ["rates", "mc", "--alpha", "2"],
    "sobolev_lognorm_experiment": ["rates", "sobolev", "--k", "2"],
    "lift_ensemble": ["ensemble", "lift", "--in", "{src}"],
}


@pytest.mark.parametrize("binding", sorted(_EARLY_OUT_ARGV))
@pytest.mark.parametrize("case", ["missing parent", "directory", "unwritable parent"])
def test_bad_out_exits_2_before_the_work(tmp_path, capsys, monkeypatch, binding, case):
    def never(*a, **kw):
        raise AssertionError(f"{binding} ran although --out is bad")

    monkeypatch.setattr(cli if binding == "lift_ensemble" else experiments, binding, never)
    src = tmp_path / "e1.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), src)
    locked = tmp_path / "locked"
    locked.mkdir()
    out = {"missing parent": tmp_path / "missing" / "x.csv", "directory": locked,
           "unwritable parent": locked / "x.csv"}[case]
    real_access = os.access
    # stands in for a read-only directory, which the root user could still write
    monkeypatch.setattr(cli.os, "access", lambda p, mode: Path(p) != locked and real_access(p, mode))
    argv = [arg.format(src=src) for arg in _EARLY_OUT_ARGV[binding]]
    code, out_text, err = invoke(capsys, *argv, "--out", str(out))
    assert code == 2 and out_text == ""
    assert err.count("\n") == 1 and err.startswith("harmlab: cannot access file: ")
    assert str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.txt", "locked"]
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("command", ["reg", "sobolev"])
@pytest.mark.parametrize("nr, nphi, why", [
    ("64", "64", "a 64 x 64 grid exceeds"),
    ("16", "32", "the refinement gate's 32 x 64 grid (the 16 x 32 grid doubled) exceeds"),
])
def test_oversized_grid_exits_2_before_any_norm(tmp_path, capsys, monkeypatch, command, nr, nphi, why):
    def never(*a, **kw):
        raise AssertionError("a norm was computed on an oversized grid")

    # a lowered limit stands in for a grid too large for memory
    monkeypatch.setattr(numerics, "MAX_GRID_POINTS", 1024)
    monkeypatch.setattr(experiments, "norm_lp_halfdisk", never)
    code, out, err = invoke(capsys, "rates", command, "--k", "2", "--nr", nr, "--nphi", nphi,
                            "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert err == f"harmlab: invalid input: {why} the limit of 1024 nodes\n"
    assert list(tmp_path.iterdir()) == []


def test_ensemble_sampling_lift_determinism(tmp_path, capsys):
    src = tmp_path / "e1.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), src)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    invoke(capsys, "ensemble", "lift", "--in", str(src), "--out", str(p1), "--samples", "100", "--seed", "5")
    invoke(capsys, "ensemble", "lift", "--in", str(src), "--out", str(p2), "--samples", "100", "--seed", "5")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["eval"], ("--kind", "--alpha", "--k", "--eps", "--x", "--y")),
        (["solve"], ("--boundary", "--x", "--y", "--tol")),
        (["rates", "reg"], ("--k", "--R", "--p", "--order", "--eps-min", "--eps-max", "--steps", "--out")),
        (["rates", "mc"], ("--alpha", "--n-min", "--n-max", "--steps", "--seeds", "--order", "--q", "--out")),
        (["rates", "sobolev"], ("--k", "--R", "--eps-min", "--eps-max", "--steps", "--out")),
        (["diag", "xklogx"], ("--k", "--delta-min", "--steps")),
        (["diag", "slice"], ("--k", "--theta")),
        (["ensemble", "lift"], ("--in", "--out", "--nodes", "--samples", "--seed")),
        (["ensemble", "slice"], ("--in", "--out", "--x0", "--v")),
        (["ensemble", "extend"], ("--in", "--out")),
        (["ensemble", "sample"], ("--in", "--out", "--n", "--seed")),
    ],
)
def test_help_lists_flags(capsys, monkeypatch, argv, flags):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out
    entries = {}  # first option string -> the flag's help entry, its lines joined
    for line in out.partition("\n\n")[2].splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = line
        elif line.startswith("   "):
            entries[flag] += " " + line.strip()
    assert "(default: None)" not in out
    parser = cli.build_parser()
    for name in argv:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    for action in parser._actions:
        if action.default not in (None, argparse.SUPPRESS):  # shown once, at the end of the entry
            entry = entries[action.option_strings[0]]
            assert entry.count("default") == 1 and entry.endswith(f"(default: {action.default})"), entry


def test_rates_reg_default_slope_band(tmp_path, capsys):
    # default grid and eps range: reported slope lands in [1.90, 2.10]
    out = tmp_path / "d.csv"
    code, stdout, _ = invoke(
        capsys, "rates", "reg", "--k", "2", "--R", "1", "--p", "inf", "--order", "0",
        "--out", str(out),
    )
    assert code == 0
    slope = float(stdout.split()[0].split("=")[1])
    assert 1.90 <= slope <= 2.10


@pytest.mark.parametrize(
    "argv,code,reason",
    [
        (["rates", "reg", "--k", "2", "--grading", "nan"], 2, "invalid input: R and grading must be finite"),
        (["rates", "reg", "--k", "2", "--grading", "inf"], 2, "invalid input: R and grading must be finite"),
        (["rates", "reg", "--k", "2", "--R", "inf"], 2, "invalid input: R and grading must be finite"),
        (["rates", "reg", "--k", "2", "--R", "1e200"], 3, "numerical failure: field evaluated to a non-finite value"),
        (["rates", "sobolev", "--k", "2", "--R", "1e200"], 3,
         "numerical failure: field evaluated to a non-finite value"),
    ],
    ids=["grading-nan", "grading-inf", "R-inf", "reg-R-1e200", "sobolev-R-1e200"],
)
def test_non_finite_half_disk_exits_with_one_line(tmp_path, capsys, argv, code, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would otherwise reach stderr
        got, out, err = invoke(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert got == code and out == ""
    assert err.count("\n") == 1 and err.startswith(f"harmlab: {reason}")
    assert list(tmp_path.iterdir()) == []


def test_tiny_slice_direction_succeeds(tmp_path, capsys):
    plane = tmp_path / "plane.txt"
    e = NeuronEnsemble([0.5, 0.5], [1.0, -2.0], [[1.0, 2.0], [0.5, -3.0]], [0.0, 0.25], 0.5)
    save_ensemble(e, plane)
    code, out, err = invoke(capsys, "ensemble", "slice", "--in", str(plane), "--x0=0,0", "--v=1e-200,1e-200",
                            "--out", str(tmp_path / "o.txt"))
    assert code == 0 and out == "" and err == ""
    want = slice_ensemble(load_ensemble(plane), [0.0, 0.0], [1e-200, 1e-200])
    got = load_ensemble(tmp_path / "o.txt")
    for name in ("probs", "a", "w", "b"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


@pytest.mark.parametrize("nodes", ["0", "5"])
def test_lift_nodes_with_samples_exits_2(tmp_path, capsys, nodes):
    line = tmp_path / "line.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), line)
    code, out, err = invoke(capsys, "ensemble", "lift", "--in", str(line), "--nodes", nodes, "--samples", "3",
                            "--out", str(tmp_path / "o.txt"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("harmlab: invalid input: ")
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("rule", [["--nodes", "201"], ["--samples", "50", "--seed", "1"]], ids=["nodes", "samples"])
def test_overflowing_lift_exits_2_with_one_line(tmp_path, capsys, rule):
    # t * w overflows; the lifted w is refused without a numpy warning
    line = tmp_path / "line.txt"
    line.write_text("#barron-ensemble v1 alpha=0.5 dim=1\n1 1 1e308 1e308\n")
    code, out, err = invoke(capsys, "ensemble", "lift", "--in", str(line), *rule, "--out", str(tmp_path / "o.txt"))
    assert code == 2 and out == ""
    assert err == "harmlab: invalid input: w contains non-finite entries\n"
    assert not (tmp_path / "o.txt").exists()


def test_parser_is_built_once_across_many_runs(tmp_path, capsys):
    cli.build_parser.cache_clear()
    line = tmp_path / "line.txt"
    save_ensemble(NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5), line)
    argvs = [
        ["eval", "--kind", "heaviside", "--x", "1", "--y", "1"],
        ["eval", "--kind", "int", "--k", "0", "--x", "1", "--y", "1"],  # exits 2
        ["diag", "slice", "--k", "2", "--theta", "0.7"],
        ["ensemble", "extend", "--in", str(line), "--out", str(tmp_path / "h.txt")],
    ]
    codes = [run(argv) for _ in range(10) for argv in argvs]
    assert codes == [0, 2, 0, 0] * 10
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()
