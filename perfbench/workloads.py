"""The benchmark's workloads: seeded inputs, one pass's job list, output checks.

Every workload is built from its seed alone. A pass runs the job list once,
in order, with one caller (a closed loop). Each op returns what its check
needs; checks run after the pass, outside the timed region. Library calls go
through module attributes (`poisson.solve_at`, `cli.run`) so that the traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from harmlab import cli, ensembles, poisson
from harmlab.halfplane import HalfPlanePoint
from harmlab.numerics import GridSpec
from harmlab.solutions import eval_heaviside, eval_u_fractional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0  # the seed whose rate CSVs are recorded in reference.json
REFERENCE_RTOL = 1e-12
CSV_HEADER = "experiment,k,R,p,order,knob,value"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error message, or None when correct
    group: str  # ops whose summed time is printed as one group.<group>_s line
    latency: bool = True  # its time is an op_p50_ms / op_p98_ms sample
    out: str | None = None  # file the op writes, if any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # checks too costly to repeat every pass: {label: error} on the last pass's outputs
    final_check: Callable[[], dict[str, str]] = dict


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _g(x: float) -> str:
    return f"{x:.17g}"


# --- kernel_solve ------------------------------------------------------------------

ALPHAS = (0.1, 0.3, 0.5, 0.9)
STRATA = (25, 4)  # phi x r cells per boundary, one point each: 100 solves per boundary
SOLVE_TOL = 1e-10
SOLVE_RTOL = 1e-6  # agreement with the closed form, as in acceptance criterion 2


def _stratified_points(rng, n_phi: int, n_r: int) -> list[HalfPlanePoint]:
    """One point per (phi, r) cell of r in [0.12, 2], phi in [0.08, pi-0.08], y >= 0.1.

    A solve's cost depends on where the boundary kink falls (inside or outside
    |x| <= y), so a point per cell, each with its own phi, keeps the mix of
    cheap and expensive points, and so the pass time and the latency
    percentiles, nearly the same from seed to seed.
    """
    pts = []
    for i in range(n_phi):
        for j in range(n_r):
            phi = 0.08 + (i + rng.random()) / n_phi * (math.pi - 0.16)
            r_lo = max(0.12, 0.1 / math.sin(phi))
            r = r_lo + (j + rng.random()) / n_r * (2.0 - r_lo)
            pts.append(HalfPlanePoint(r * math.cos(phi), r * math.sin(phi)))
    return pts


def _rel_check(got: float, want: float) -> str | None:
    err = abs(got - want) / abs(want)
    return None if err <= SOLVE_RTOL else f"relative error {err:.3e} > {SOLVE_RTOL}"


def kernel_solve(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, 1)
    boundaries = [(f"relu:{a}", poisson.BoundaryFunction.relu_power(a),
                   lambda p, a=a: eval_u_fractional(p, a)) for a in ALPHAS]
    boundaries.append(("heaviside", poisson.BoundaryFunction.heaviside(), eval_heaviside))
    # Round-robin over the boundaries, so a slow spell of the machine lands on
    # every boundary's solves alike instead of on one block of them.
    point_sets = [_stratified_points(rng, *STRATA) for _ in boundaries]
    ops = [
        Op(f"solve {name}",
           lambda g=g, p=p: poisson.solve_at(g, p, SOLVE_TOL),
           lambda got, p=p, exact=exact: _rel_check(got, exact(p)),
           group=f"solve_at {name}")
        for row in zip(*point_sets)
        for (name, g, exact), p in zip(boundaries, row)
    ]
    grid = GridSpec(float(rng.uniform(1.5, 2.5)), 8, 8, 1.0)

    def grid_check(U, alpha):
        X, Y = grid.mesh()
        for u, x, y in zip(U.ravel(), X.ravel(), Y.ravel()):
            msg = _rel_check(float(u), eval_u_fractional(HalfPlanePoint(float(x), float(y)), alpha))
            if msg:
                return msg
        return None

    for name, g, _ in boundaries[: len(ALPHAS)]:
        alpha = g.growth_alpha
        ops.append(Op(
            f"solve_grid {name}",
            lambda g=g: poisson.solve_grid(g, grid, SOLVE_TOL),
            lambda U, alpha=alpha: grid_check(U, alpha),
            group="solve_grid",
            latency=False,
        ))
    return Workload("kernel_solve", ops)


# --- CLI workloads ------------------------------------------------------------------


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse rejects bad argv by exiting, as the CLI would
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _exit_check(result) -> str | None:
    rc, _, err = result
    return None if rc == 0 else f"exit code {rc}: {err.strip()}"


def read_csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"header {lines[:1]!r} is not {CSV_HEADER!r}")
    return [line.split(",") for line in lines[1:]]


def _csv_check(path: str, experiment: str, nrows: int, reference):
    def check(result) -> str | None:
        msg = _exit_check(result)
        if msg:
            return msg
        try:
            rows = read_csv_rows(path)
        except (OSError, ValueError) as exc:
            return f"unreadable CSV: {exc}"
        if len(rows) != nrows:
            return f"{len(rows)} rows, expected {nrows}"
        for row in rows:
            if len(row) != 7 or row[0] != experiment:
                return f"malformed row {row!r}"
            knob, value = float(row[5]), float(row[6])
            if not (math.isfinite(knob) and math.isfinite(value) and knob > 0 and value > 0):
                return f"knob and value must be finite and positive: {row!r}"
        if reference is not None:
            if len(reference) != len(rows):
                return "row count differs from the reference"
            for row, ref in zip(rows, reference):
                if row[:5] != ref[:5]:
                    return f"row {row!r} differs from reference {ref!r}"
                for got, want in ((float(row[5]), float(ref[5])), (float(row[6]), float(ref[6]))):
                    if abs(got - want) > REFERENCE_RTOL * abs(want):
                        return f"{got!r} differs from reference {want!r} by more than {REFERENCE_RTOL}"
        return None

    return check


def _rates_workload(name: str, seed: int, workdir: str, jobs) -> Workload:
    """jobs: (label, argv without --out, experiment name, expected CSV rows)."""
    reference = None
    if seed == REFERENCE_SEED:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    ops = []
    for i, (label, argv, experiment, nrows) in enumerate(jobs):
        path = os.path.join(workdir, f"{name}-{i}.csv")
        ref = None if reference is None else [line.split(",") for line in reference[label]]
        ops.append(Op(label, lambda argv=argv + ["--out", path]: _cli(argv),
                      _csv_check(path, experiment, nrows, ref),
                      group=f"rates_{experiment}", out=path))
    return Workload(name, ops)


def _mc_jobs(seed: int, workdir: str) -> Workload:
    target_seed = str(int(_rng(seed, 2).integers(2**31)))
    jobs = [
        (f"mc alpha={alpha}",
         ["rates", "mc", "--alpha", alpha, "--n-min", "32", "--n-max", "4096", "--steps", "8",
          "--seeds", "8", "--order", "0", "--q", "2", "--target-size", "2000",
          "--target-seed", target_seed],
         "mc", 8)
        for alpha in ("2", "0.5")  # integer and fractional activation powers
    ]
    return _rates_workload("mc_rate", seed, workdir, jobs)


REG_RADII = 6


def _halfdisk_jobs(seed: int, workdir: str) -> Workload:
    # The seed picks the radii; eps scales with each, so every run measures the
    # same self-similar problems and the refinement gate decides alike.
    # `rates reg` runs at REG_RADII radii: one run is mostly its refinement
    # gate and takes a few tenths of a second, so it needs several to weigh in
    # a pass about as much as `rates sobolev`.
    rng = _rng(seed, 3)
    radii = [2.0 ** float(rng.uniform(-1.0, 1.0)) for _ in range(REG_RADII)]
    grid = ["--nr", "256", "--nphi", "256"]

    def reg(i, k, p, order, grading):
        R = radii[i]
        return (f"reg k={k} p={p} order={order} radius {i}",
                ["rates", "reg", "--k", str(k), "--R", _g(R), "--p", p, "--order", str(order),
                 "--eps-min", _g(1e-4 * R), "--eps-max", _g(0.1 * R), "--steps", "7",
                 *grid, "--grading", str(grading)],
                "reg", 7)

    def sobolev(k, order):
        R = radii[0]
        return (f"sobolev k={k} order={order}",
                ["rates", "sobolev", "--k", str(k), "--R", _g(R), "--order", str(order),
                 "--eps-min", _g(1e-3 * R), "--eps-max", _g(0.1 * R), "--steps", "5",
                 *grid, "--grading", "3"],
                "sobolev", 5)

    jobs = [job for i in range(REG_RADII)
            for job in (reg(i, 2, "1", 2, 3), reg(i, 2, "inf", 0, 2), reg(i, 3, "2", 1, 2))]
    jobs += [sobolev(2, 3), sobolev(3, 4)]
    return _rates_workload("halfdisk_rates", seed, workdir, jobs)


# --- ensemble_files -----------------------------------------------------------------

ATOMS = 400
LIFT_NODES = 201
SAMPLE_N = 256
LIFT_SAMPLES = 20000


def _same_bits(e, f) -> bool:
    return e.alpha == f.alpha and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((e.probs, f.probs), (e.a, f.a), (e.w, f.w), (e.b, f.b))
    )


def _file_check(path: str):
    def check(result) -> str | None:
        msg = _exit_check(result)
        if msg:
            return msg
        return None if os.path.getsize(path) > 0 else f"{path} is empty"

    return check


def _ensemble_file_jobs(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, 4)
    probs = rng.uniform(0.5, 1.5, ATOMS)
    line = ensembles.NeuronEnsemble(
        probs / probs.sum(),
        rng.uniform(0.5, 1.5, ATOMS) * rng.choice([-1.0, 1.0], ATOMS),
        rng.uniform(-2.0, 2.0, ATOMS),
        rng.uniform(-1.0, 1.0, ATOMS),
        0.5,
    )
    paths = {k: os.path.join(workdir, f"{k}.txt")
             for k in ("line", "plane", "line2", "sub", "homog", "plane_mc")}
    ensembles.save_ensemble(line, paths["line"])
    x0 = ",".join(_g(t) for t in rng.uniform(-1.0, 1.0, 2))
    v = ",".join(_g(t) for t in rng.normal(size=2))
    draw_seed = str(int(rng.integers(2**31)))
    jobs = [  # (label, action, input, output, action flags)
        ("lift nodes", "lift", "line", "plane", ["--nodes", str(LIFT_NODES)]),
        ("slice", "slice", "plane", "line2", [f"--x0={x0}", f"--v={v}"]),
        ("sample", "sample", "plane", "sub", ["--n", str(SAMPLE_N), "--seed", draw_seed]),
        ("extend", "extend", "line", "homog", []),
        ("lift samples", "lift", "line", "plane_mc",
         ["--samples", str(LIFT_SAMPLES), "--seed", draw_seed]),
    ]
    ops = [
        Op(label,
           lambda argv=["ensemble", action, "--in", paths[src], "--out", paths[dst], *flags]: _cli(argv),
           _file_check(paths[dst]), group="ensemble", out=paths[dst])
        for label, action, src, dst, flags in jobs
    ]

    def final_check() -> dict[str, str]:
        """Every output file against the same operation done in memory, bit for bit.

        Each file is save_ensemble(e) of an e computed here too, so matching
        load_ensemble(file) with e bit for bit is the save/load round trip.
        """
        plane = ensembles.lift_ensemble(line, t_rule=ensembles.cauchy_tangent_rule(LIFT_NODES))
        expected = {
            "lift nodes": plane,
            "slice": ensembles.slice_ensemble(plane, [float(t) for t in x0.split(",")],
                                              [float(t) for t in v.split(",")]),
            "sample": ensembles.sample_subnetwork(plane, SAMPLE_N, seed=int(draw_seed)),
            "extend": ensembles.homogeneous_extend(line),
            "lift samples": ensembles.lift_ensemble(line, n_samples=LIFT_SAMPLES, seed=int(draw_seed)),
        }
        sizes = {"lift nodes": ATOMS * LIFT_NODES, "slice": ATOMS * LIFT_NODES,
                 "sample": SAMPLE_N, "extend": ATOMS, "lift samples": LIFT_SAMPLES}
        errors = {}
        if not _same_bits(ensembles.load_ensemble(paths["line"]), line):
            errors["setup"] = "input ensemble does not round-trip bit-exactly"
        for op in ops:
            got = ensembles.load_ensemble(op.out)
            if len(got) != sizes[op.label]:
                errors[op.label] = f"{len(got)} neurons, expected {sizes[op.label]}"
            elif abs(got.probs.sum() - 1.0) > 1e-12:
                errors[op.label] = f"probabilities sum to {got.probs.sum()!r}"
            elif not _same_bits(got, expected[op.label]):
                errors[op.label] = "file differs from the in-memory result"
        return errors

    return Workload("ensemble_files", ops, final_check)


# --- registry -----------------------------------------------------------------------


def cli_jobs(seed: int, workdir: str) -> Workload:
    """`rates mc`, `rates reg|sobolev` and the `ensemble` file commands as one job list."""
    groups = [_mc_jobs(seed, workdir), _halfdisk_jobs(seed, workdir), _ensemble_file_jobs(seed, workdir)]

    def final_check() -> dict[str, str]:
        return {label: msg for g in groups for label, msg in g.final_check().items()}

    return Workload("cli_jobs", [op for g in groups for op in g.ops], final_check)


WORKLOADS = {"kernel_solve": kernel_solve, "cli_jobs": cli_jobs}
