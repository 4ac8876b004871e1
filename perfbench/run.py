"""harmlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kernel_solve --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55   # every metric of every workload

Run it from anywhere; it uses the checkout that holds this file and imports
harmlab from its `src/`. Each run starts fresh single-threaded interpreters
(HARMLAB_THREADS unset, BLAS and OpenMP pinned to one thread): set-up probes
that import harmlab and generate the inputs, half of them before and half
after one worker that measures.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
ones; the last stdout line is the JSON result, the lines above it a table of
every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")  # scratch files and span dumps, git-ignored
WORKLOADS = ("kernel_solve", "cli_jobs")
SETUP_PROBES = 12  # set-up is measured this many times per run; the median is reported
RUN_TIMEOUT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
# Printed in the table but left out of the gated end-to-end metrics: the clock
# times wall_s and setup_clock_s and the machine's slowdown against the
# reference kernel, which explain ref_wall_s and setup_s, and the latency
# percentiles (see README.md). The per-group times group.<name>_s are printed
# too, in seconds at the reference speed.
UNITS.update(wall_s="s", setup_clock_s="s", ref_op_p50_ms="ms", ref_op_p98_ms="ms")
UNITS["machine.slowdown"] = "ratio"


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HARMLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker(args, extra, workdir, deadline) -> dict:
    """Run worker.py to completion; return its JSON result line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--spans", os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.json"),
           *extra]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    # Probes before and after the worker, so a slow spell of the shared
    # machine around one end of the run does not set the median.
    probes = 0 if args.trace else SETUP_PROBES

    def setup_probes(first, stop):
        return [_worker(args, ["--setup-only"], os.path.join(work, f"probe{i}"), deadline)
                for i in range(first, stop)]

    try:
        setups = setup_probes(0, probes // 2)
        res = _worker(args, [], os.path.join(work, "main"), deadline)
        setups += setup_probes(probes // 2, probes)
        metrics, samples = res["metrics"], res["samples"]
        for name in ("setup_s", "setup_clock_s") if setups else ():
            metrics[name] = statistics.median(p[name] for p in setups)
            samples[name] = len(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [m["name"] for m in BENCH["per_layer" if args.trace else "end_to_end"]]
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"worker did not report {sorted(missing)}")
    m = res["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} threads={m['threads']}")
    for name in names:
        print(f"{name:48s} {metrics[name]:>16.6g} {UNITS[name]:6s} n={samples[name]}")
    for name in sorted(set(metrics) - set(names)):  # reported, but not in BENCHMARK.json
        print(f"{name:48s} {metrics[name]:>16.6g} {UNITS.get(name, 's'):6s} n={samples[name]} (not gated)")
    print(f"{'fail_ratio':48s} {res['failed'] / res['attempted']:>16.6g} {'ratio':6s} "
          f"n={res['attempted']}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "harmlab", "__init__.py")):
        print(f"perfbench: no harmlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_one(args)))
            return 0
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                res = run_one(argparse.Namespace(**{**vars(args), "workload": name, "trace": trace}))
                ok = ok and res["correct"]
        return 0 if ok else 1
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
