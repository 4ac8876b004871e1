"""Command-line interface: evaluation, Poisson solving, diagnostics, and rate
experiments with reproducible CSV output.

Exit codes: 0 success, 2 validation error or a file that cannot be read or
written, 3 numerical failure; one-line diagnostics go to stderr; --out is
checked before any work. Identical argv (plus seeds) produces byte-identical
CSV files. All work runs on one thread. Each command loads only the modules
it runs: a rates handler imports experiments, a diag handler line_barron or
diagnostics, when it is called.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from .ensembles import (
    MAX_NEURONS,
    cauchy_tangent_rule,
    homogeneous_extend,
    lift_ensemble,
    load_ensemble,
    sample_subnetwork,
    save_ensemble,
    slice_ensemble,
)
from .errors import NumericalError, ValidationError
from .halfplane import HalfPlanePoint
from .numerics import GridSpec, RateFit
from .poisson import BoundaryFunction, solve_at
from .solutions import (
    _check_fractional,
    _check_k,
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    eval_u_integer,
    eval_u_reg,
    eval_u_three_half,
)

if TYPE_CHECKING:
    from .experiments import ErrorReport

CSV_HEADER = "experiment,k,R,p,order,knob,value"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fmt_p(p: float) -> str:
    return "inf" if math.isinf(p) else _fmt(p)


def _float(tok: str, what: str) -> float:
    """float(tok), or a ValidationError naming `what`."""
    try:
        return float(tok)
    except ValueError:
        raise ValidationError(f"{what} must be a number, got {tok!r}") from None


def _parse_p(tok: str) -> float:
    if tok.strip().lower() == "inf":
        return math.inf
    p = _float(tok, "p")
    if p < 1.0:
        raise ValidationError(f"p must be in [1, inf], got {tok}")
    return p


def _write_csv(path: str, reports: list[ErrorReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(
                ",".join(
                    [
                        r.experiment,
                        str(r.k),
                        _fmt(r.R),
                        _fmt_p(r.p),
                        str(r.derivative_order),
                        _fmt(r.knob),
                        _fmt(r.value),
                    ]
                )
                + "\n"
            )


def _write_gnuplot(csv_path: str) -> None:
    script = csv_path + ".gp"
    with open(script, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set logscale xy\n"
            "set key left top\n"
            f"plot '{csv_path}' every ::1 using 6:7 with linespoints title 'measured'\n"
        )


# boundary tag -> (constructor, the parameter counts it takes, its arity refusal)
_BOUNDARY_TAGS = {
    "heaviside": (BoundaryFunction.heaviside, (0,), "heaviside takes no parameters, got {!r}"),
    "relu": (BoundaryFunction.relu_power, (1, 3), "expected relu:A or relu:A:w:b, got {!r}"),
    "tanh": (BoundaryFunction.tanh, (0, 2), "expected tanh or tanh:w:b, got {!r}"),
}


def _boundary_from_spec(spec: str) -> BoundaryFunction:
    tag, *params = spec.split(":")
    if tag not in _BOUNDARY_TAGS:
        raise ValidationError(f"unknown boundary spec {spec!r}")
    make, arities, refusal = _BOUNDARY_TAGS[tag]
    if len(params) not in arities:
        raise ValidationError(refusal.format(spec))
    return make(*[_float(t, "boundary parameter") for t in params])


def _check_sweep(n: int, what: str, unit: str) -> None:
    """Refuse a sweep of more than MAX_NEURONS entries before numpy builds its knobs."""
    if n > MAX_NEURONS:
        raise ValidationError(f"{what} = {n} exceeds the limit of {MAX_NEURONS} {unit}")


def _eps_list(args) -> np.ndarray:
    if not (0.0 < args.eps_min < args.eps_max):
        raise ValidationError("need 0 < eps-min < eps-max")
    if math.isinf(args.eps_max):
        raise ValidationError("eps-max must be finite, got inf")
    if args.steps < 3:
        raise ValidationError("need at least 3 steps")
    _check_sweep(args.steps, "steps", "eps values")
    return np.logspace(math.log10(args.eps_min), math.log10(args.eps_max), args.steps)


def _check_seed(seed: int, flag: str) -> None:
    """numpy seeds are non-negative; refuse others before any work."""
    if seed < 0:
        raise ValidationError(f"{flag} must be >= 0, got {seed}")


def _summary(fit: RateFit) -> str:
    return f"slope={fit.slope:.3f} r2={fit.r_squared:.3f}"


# --- subcommand handlers ------------------------------------------------------


# --kind -> (evaluator, the flags it takes after the point, their check). The
# check runs before the point is built, so a bad --k is reported before a bad
# --y. reg, the one closed form defined on y = 0, takes (x, y, eps, k) and
# checks eps and k itself before the point.
_EVAL_KINDS = {
    "int": (eval_u_integer, ("k",), _check_k),
    "frac": (eval_u_fractional, ("alpha",), _check_fractional),
    "half": (eval_u_half, (), None),
    "threehalf": (eval_u_three_half, (), None),
    "heaviside": (eval_heaviside, (), None),
    "reg": (eval_u_reg, ("k", "eps"), None),
}


def _cmd_eval(args) -> int:
    evaluate, flags, check = _EVAL_KINDS[args.kind]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        needs = " and ".join(f"--{flag}" for flag in flags)
        raise ValidationError(f"eval --kind {args.kind} needs {needs}")
    with np.errstate(all="ignore"):  # a non-finite value is refused below, not warned about
        if evaluate is eval_u_reg:
            value = eval_u_reg(args.x, args.y, args.eps, args.k)
        else:
            if check is not None:
                check(*values)
            value = evaluate(HalfPlanePoint(args.x, args.y), *values)
    if not math.isfinite(value):
        raise NumericalError(f"eval --kind {args.kind} at ({args.x}, {args.y}) is not finite: {value}")
    print(f"{value + 0.0:.15g}")  # + 0.0 turns a negative zero into 0
    return 0


def _cmd_solve(args) -> int:
    g = _boundary_from_spec(args.boundary)
    value = solve_at(g, HalfPlanePoint(args.x, args.y), args.tol)
    print(f"{value:.15g}")
    return 0


def _emit_rates(args, reports: list[ErrorReport], fit: RateFit, min_r2: float, rejected: str,
                tail: str = "") -> int:
    """CSV, optional gnuplot companion, and the one-line fit summary of a rates run.

    A fit with r^2 below min_r2 rejects its own model: one warning line on
    stderr then says so (`rejected`); the CSV, stdout and exit code stay.
    """
    _write_csv(args.out, reports)
    if args.gnuplot:
        _write_gnuplot(args.out)
    print(_summary(fit) + tail)
    if fit.r_squared < min_r2:
        print(f"harmlab: warning: r2={fit.r_squared:.3f} < {min_r2}: {rejected}", file=sys.stderr)
    return 0


def _cmd_rates_reg(args) -> int:
    from .experiments import REG_MODEL_MIN_R2, reg_error_experiment

    grid = GridSpec(args.R, args.nr, args.nphi, args.grading)
    reports, fit = reg_error_experiment(args.k, _parse_p(args.p), args.order, _eps_list(args), grid)
    return _emit_rates(args, reports, fit, REG_MODEL_MIN_R2,
                       f"the order-{args.order} error is not a power of eps; the slope is not a rate")


def _cmd_rates_mc(args) -> int:
    from .experiments import MC_MODEL_MIN_R2, make_random_target, mc_rate_experiment

    if args.n_min < 1 or args.n_max <= args.n_min or args.steps < 3:
        raise ValidationError("need 1 <= n-min < n-max and steps >= 3")
    _check_sweep(args.steps, "steps", "sizes")
    _check_sweep(args.steps * args.seeds, "steps x seeds", "draws")
    _check_seed(args.target_seed, "--target-seed")
    ns = np.unique(
        np.round(np.logspace(math.log10(args.n_min), math.log10(args.n_max), args.steps)).astype(int)
    )
    target = make_random_target(args.alpha, args.target_size, args.target_seed, dim=1)
    reports, fit, rate = mc_rate_experiment(target, ns, args.order, args.q, args.seeds)
    return _emit_rates(args, reports, fit, MC_MODEL_MIN_R2,
                       "the subsampling error is not a power of n; the slope is not a rate",
                       f" bound_rate={rate:.3f}")


def _cmd_rates_sobolev(args) -> int:
    from .experiments import LOG_MODEL_MIN_R2, sobolev_lognorm_experiment

    grid = GridSpec(args.R, args.nr, args.nphi, args.grading)
    reports, fit = sobolev_lognorm_experiment(args.k, _eps_list(args), grid, order=args.order)
    return _emit_rates(args, reports, fit, LOG_MODEL_MIN_R2,
                       f"seminorm^2 at order {reports[0].derivative_order} is not affine in |log eps|;"
                       " the slope is not a log rate")


def _cmd_diag_xklogx(args) -> int:
    from .line_barron import log_divergence_diagnostic

    if args.steps < 3:
        raise ValidationError("need at least 3 steps")
    if not 0.0 < args.delta_min < 0.1:  # the cutoffs run from 0.1 down to delta-min
        raise ValidationError(f"need 0 < delta-min < 0.1, got {args.delta_min}")
    _check_sweep(args.steps, "steps", "cutoffs")
    deltas = np.logspace(math.log10(0.1), math.log10(args.delta_min), args.steps)
    fit = log_divergence_diagnostic(args.k, deltas)
    print(f"slope={fit.slope:.6g} intercept={fit.intercept:.6g} r2={fit.r_squared:.6f}")
    return 0


def _cmd_diag_slice(args) -> int:
    from .diagnostics import slice_log_fit

    res = slice_log_fit(args.k, args.theta)
    expected = (1.0 / math.cos(args.theta)) ** args.k * math.sin(args.k * args.theta) / math.pi
    print(
        f"c_fit={res.c_fit:.12g} expected={expected:.12g} "
        f"d_fit={res.d_fit:.12g} residual={res.residual:.3g}"
    )
    return 0


def _lift(args, e):
    rule = None if args.nodes is None else cauchy_tangent_rule(args.nodes)
    return lift_ensemble(e, t_rule=rule, n_samples=args.samples, seed=args.seed)


def _slice(args, e):
    x0 = [_float(t, "--x0 entry") for t in args.x0.split(",")]
    v = [_float(t, "--v entry") for t in args.v.split(",")]
    return slice_ensemble(e, x0, v)


def _cmd_ensemble(args) -> int:
    if "seed" in args:  # lift and sample: a bad seed is refused before --in is read
        _check_seed(args.seed, "--seed")
    save_ensemble(args.transform(args, load_ensemble(args.infile)), args.out)
    return 0


# --- parser --------------------------------------------------------------------


def _add_grid_sweep_flags(sp, eps_min: float, steps: int) -> None:
    """The half-disk grid and log-spaced eps sweep of rates reg and sobolev, then the output flags."""
    sp.add_argument("--R", type=float, default=1.0, help="half-disk radius")
    sp.add_argument("--eps-min", type=float, default=eps_min, help="smallest regularization parameter")
    sp.add_argument("--eps-max", type=float, default=1e-1, help="largest regularization parameter")
    sp.add_argument("--steps", type=int, default=steps, help="number of log-spaced eps values")
    _add_output_flags(sp)
    sp.add_argument("--nr", type=int, default=256, help="radial grid nodes")
    sp.add_argument("--nphi", type=int, default=256, help="angular grid nodes")
    sp.add_argument("--grading", type=float, default=2.0, help="radial mesh exponent")


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.add_argument("--gnuplot", action="store_true", help="emit a companion gnuplot script")


# a negative number, exponent forms included: -1, -.5, -2.5e-3, -1E+2
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Adds a flag's default to its help only when it has one: no `(default: None)`."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose refusals raise ValidationError, so run prints them in one line.

    Subparsers are built with the class of their parent, so every level of
    the tree refuses this way, and a refusal names the command whose parser
    made it ("ensemble extend: unrecognized arguments: --seed -1"). Each
    parser refuses the arguments it does not take itself, instead of handing
    them up to the top level, which would not know the command. -h still
    prints help, with each flag's default, and exits 0. A negative number in
    exponent form is a value, as other negative numbers are: `--x -1e-3`
    reads like `--x=-1e-3` (argparse's own matcher takes no exponent).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_HelpFormatter, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message):
        command = self.prog.removeprefix("harmlab").strip()
        raise ValidationError(f"{command}: {message}" if command else message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; run parses every argv with it."""
    ap = _Parser(
        prog="harmlab",
        description="Harmonic extensions of ReLU^alpha boundary data and their rate experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a closed-form solution at one point")
    ev.add_argument("--kind", required=True, choices=list(_EVAL_KINDS))
    ev.add_argument("--alpha", type=float, help="activation power for --kind frac")
    ev.add_argument("--k", type=int, help="integer power for --kind int/reg")
    ev.add_argument("--eps", type=float, help="regularization parameter for --kind reg")
    ev.add_argument("--x", type=float, required=True, help="abscissa")
    ev.add_argument("--y", type=float, required=True, help="ordinate (y > 0; reg allows y = 0)")
    ev.set_defaults(handler=_cmd_eval)

    so = sub.add_parser("solve", help="Poisson-kernel harmonic extension of boundary data")
    so.add_argument("--boundary", required=True, help="relu:A[:w:b] | heaviside | tanh[:w:b]")
    so.add_argument("--x", type=float, required=True, help="abscissa")
    so.add_argument("--y", type=float, required=True, help="ordinate (y > 0)")
    so.add_argument("--tol", type=float, default=1e-9, help="quadrature tolerance")
    so.set_defaults(handler=_cmd_solve)

    rates = sub.add_parser("rates", help="rate experiments emitting CSV")
    rsub = rates.add_subparsers(dest="experiment", required=True)

    rr = rsub.add_parser("reg", help="regularization error rates in eps")
    rr.add_argument("--k", type=int, required=True, help="integer activation power (k >= 2)")
    rr.add_argument("--p", default="inf", help="integrability in [1, inf]; token 'inf' for sup norm")
    rr.add_argument("--order", type=int, default=0, choices=[0, 1, 2], help="derivative order of the measured error")
    _add_grid_sweep_flags(rr, eps_min=1e-4, steps=7)
    rr.set_defaults(handler=_cmd_rates_reg)

    rm = rsub.add_parser("mc", help="Monte-Carlo subsampling rates in n")
    rm.add_argument("--alpha", type=float, required=True, help="activation power of the target")
    rm.add_argument("--n-min", type=int, default=32, help="smallest subnetwork size")
    rm.add_argument("--n-max", type=int, default=4096, help="largest subnetwork size")
    rm.add_argument("--steps", type=int, default=8, help="number of log-spaced sizes")
    rm.add_argument("--seeds", type=int, default=10, help="number of seeds averaged per size")
    rm.add_argument("--order", type=int, default=0, choices=[0, 1, 2], help="Sobolev derivative order m")
    rm.add_argument("--q", type=float, default=2.0, help="integrability exponent (q >= 2)")
    rm.add_argument("--target-size", type=int, default=2000, help="neurons of the random target")
    rm.add_argument("--target-seed", type=int, default=20240, help="random seed of the target")
    _add_output_flags(rm)
    rm.set_defaults(handler=_cmd_rates_mc)

    rs = rsub.add_parser("sobolev", help="Sobolev seminorm growth in |log eps|")
    rs.add_argument("--k", type=int, required=True, help="integer activation power (2 or 3)")
    rs.add_argument("--order", type=int, default=None, help="seminorm order (default k+2)")
    _add_grid_sweep_flags(rs, eps_min=1e-3, steps=5)
    rs.set_defaults(handler=_cmd_rates_sobolev)

    diag = sub.add_parser("diag", help="divergence and slice diagnostics")
    dsub = diag.add_subparsers(dest="diagnostic", required=True)

    dx = dsub.add_parser("xklogx", help="logarithmic divergence of the x^k log x criterion")
    dx.add_argument("--k", type=int, required=True, help="integer power in x^k log x")
    dx.add_argument("--delta-min", type=float, default=1e-6, help="smallest lower cutoff")
    dx.add_argument("--steps", type=int, default=5, help="number of log-spaced cutoffs")
    dx.set_defaults(handler=_cmd_diag_xklogx)

    ds = dsub.add_parser("slice", help="log-coefficient fit along a ray")
    ds.add_argument("--k", type=int, required=True, help="integer activation power")
    ds.add_argument("--theta", type=float, required=True, help="ray angle in (0, pi), k*theta not in pi*Z")
    ds.set_defaults(handler=_cmd_diag_slice)

    en = sub.add_parser("ensemble", help="operate on ensemble text files")
    esub = en.add_subparsers(dest="action", required=True)

    def ensemble_action(name, summary, transform):
        # no prefix matching: sample's --n must not read as lift's --nodes
        sp = esub.add_parser(name, help=summary, allow_abbrev=False)
        sp.add_argument("--in", dest="infile", required=True, help="input ensemble file")
        sp.add_argument("--out", required=True, help="output ensemble file")
        sp.set_defaults(handler=_cmd_ensemble, transform=transform)
        return sp

    el = ensemble_action("lift", "lift a 1D ensemble to the half-plane", _lift)
    el.add_argument("--nodes", type=int, default=None, help="quadrature nodes (201 without --samples)")
    el.add_argument("--samples", type=int, default=None, help="random Cauchy draws")
    el.add_argument("--seed", type=int, default=0, help="random seed for --samples")
    esl = ensemble_action("slice", "restrict a 2D ensemble to the line x0 + t v", _slice)
    esl.add_argument("--x0", default="0,0", help="base point 'a,b'")
    esl.add_argument("--v", default="1,0", help="direction 'c,d'")
    ensemble_action("extend", "homogeneous extension y^alpha f(x/y) of a 1D ensemble",
                    lambda args, e: homogeneous_extend(e))
    esa = ensemble_action("sample", "draw an n-neuron subnetwork",
                          lambda args, e: sample_subnetwork(e, args.n, seed=args.seed))
    esa.add_argument("--n", type=int, required=True, help="subnetwork size")
    esa.add_argument("--seed", type=int, default=0, help="random seed of the draw")

    return ap


def _check_out(path: str) -> None:
    """Raise the OSError that writing `path` would raise later; creates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.handler(args)
    except ValidationError as exc:
        print(f"harmlab: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unreadable --in or unwritable --out
        print(f"harmlab: cannot access file: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"harmlab: numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())
