"""The benchmark's traced layers see work on a tiny case of every op kind.

perfbench/tracing.py wraps harmlab functions at their module bindings and
names, per workload, the counters that must be non-zero (EXPECTED_WORK). A
refactor that moves work out of sight of a wrapper (say, a field no longer
called with one point) leaves a counter at zero, and the traced benchmark run
then fails as a blind spot. This test installs the tracer, runs one small
instance of each kind of op of the benchmark's workloads, and checks those
counters, so the blind spot shows in the test suite. It edits nothing under
perfbench/.
"""

import importlib.util
from pathlib import Path

import numpy as np

from harmlab import cli, ensembles, poisson
from harmlab.halfplane import HalfPlanePoint
from harmlab.numerics import GridSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_ops(workdir: Path) -> dict[str, list]:
    """{workload: its ops}, each op a thunk returning what must hold (True or exit code 0)."""
    g = poisson.BoundaryFunction.relu_power(0.5)
    rng = np.random.default_rng(0)
    line = ensembles.NeuronEnsemble(np.full(4, 0.25), rng.uniform(0.5, 1.5, 4) * [1, -1, 1, -1],
                                    rng.uniform(-2.0, 2.0, 4), rng.uniform(-1.0, 1.0, 4), 0.5)
    line_path = workdir / "line.txt"
    ensembles.save_ensemble(line, line_path)
    grid = ["--nr", "64", "--nphi", "64"]
    out = str(workdir / "x.csv")
    argvs = [
        ["rates", "mc", "--alpha", "2", "--n-min", "8", "--n-max", "32", "--steps", "3", "--seeds", "2",
         "--target-size", "1000", "--out", out],
        ["rates", "reg", "--k", "2", "--p", "inf", "--order", "0", "--eps-min", "1e-3", "--eps-max", "1e-1",
         "--steps", "3", *grid, "--out", out],
        ["rates", "sobolev", "--k", "2", "--order", "3", "--eps-min", "1e-2", "--eps-max", "1e-1",
         "--steps", "3", *grid, "--grading", "3", "--out", out],
        ["ensemble", "lift", "--in", str(line_path), "--out", str(workdir / "plane.txt"), "--nodes", "5"],
        ["ensemble", "sample", "--in", str(workdir / "plane.txt"), "--out", str(workdir / "sub.txt"),
         "--n", "8"],
    ]
    return {
        "kernel_solve": [
            lambda: np.isfinite(poisson.solve_at(g, HalfPlanePoint(0.3, 0.7), 1e-8)),
            lambda: np.isfinite(poisson.solve_grid(g, GridSpec(2.0, 8, 8, 1.0), 1e-8)).all(),
        ],
        "cli_jobs": [lambda argv=argv: cli.run(argv) == 0 for argv in argvs],
    }


def test_every_expected_work_counter_sees_work(tmp_path, capsys):
    tracing = _load_tracing()
    ops = _tiny_ops(tmp_path)
    plain = (cli.run, poisson.solve_at, ensembles.NeuronEnsemble.__init__)
    assert set(ops) == set(tracing.EXPECTED_WORK)
    for workload, thunks in ops.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i, op in enumerate(thunks):
                tracer.begin_op(i)
                assert op(), f"{workload} op {i} failed: {capsys.readouterr().err}"
        finally:
            tracer.uninstall()
        blind = [m for m in tracing.EXPECTED_WORK[workload] if tracer.counts[m] == 0]
        assert blind == [], f"no work recorded on {workload}"
    assert (cli.run, poisson.solve_at, ensembles.NeuronEnsemble.__init__) == plain  # uninstalled
