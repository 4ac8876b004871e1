"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Set-up time counts from the first statement here, before numpy and harmlab
are imported, to the end of input generation. The run then repeats the
workload's job list in passes until the time budget is spent, checks every
output after its pass, and prints one JSON object as its last stdout line.

With --trace 1 it alternates untraced and traced passes; the traced ones give
the per-layer numbers and the difference of the two pass times is the tracing
overhead.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PLAIN_PASSES = 3


def _import_checkout_harmlab() -> None:
    import harmlab

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(harmlab.__file__).startswith(src):
        raise ImportError(f"harmlab imported from {harmlab.__file__}, not from {src}")


# The shared machine's speed drifts by up to 2x over tens of seconds, in CPU
# time as well as in wall time. A fixed reference kernel is timed between the
# ops of every untraced pass, at least every CAL_EVERY_S of op time. Each op's
# time is scaled by CAL_REF_S over the median of the latest CAL_WINDOW kernel
# times, which gives the op's time at the reference machine speed. The kernel
# is the geometric mean of two timings, a pure-Python float loop and in-place
# elementwise numpy on preallocated arrays, because harmlab's time is spent in
# both kinds of code and the machine slows them down unequally. The numpy part
# allocates nothing: a kernel that allocates runs up to 35% faster or slower
# with the state harmlab's own allocations leave the heap in.
# CAL_REF_S is the kernel's median inside a worker on the 2-vCPU machine the
# benchmark was defined on, so ref times read about as wall times there.
CAL_EVERY_S = 0.25
CAL_WINDOW = 3
CAL_REF_S = 0.004
_CAL_ARRAYS = None


def reference_kernel() -> float:
    """Time one run of the reference kernel, in seconds."""
    global _CAL_ARRAYS
    import numpy as np

    if _CAL_ARRAYS is None:
        x = np.random.default_rng(0).random(400_000)
        _CAL_ARRAYS = x, np.empty_like(x)
    x, a = _CAL_ARRAYS
    s = perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    loop_s = perf_counter() - s
    s = perf_counter()
    np.copyto(a, x)
    for _ in range(6):
        np.multiply(a, a, out=a)
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
    return math.sqrt(loop_s * (perf_counter() - s))


def run_pass(ops, tracer=None, speed=None):
    """Run every op once; return (pass wall time, [(seconds, result, error)]).

    With `speed` (a list of reference-kernel times, extended here) the
    reference kernel runs between ops, outside their timing, and each result
    also carries the op's time at the reference machine speed.
    """
    results = []
    t0 = perf_counter()
    cal_s, since_cal = 0.0, CAL_EVERY_S
    for i, op in enumerate(ops):
        if speed is not None and since_cal >= CAL_EVERY_S:
            c0 = perf_counter()
            speed.append(reference_kernel())
            cal_s += perf_counter() - c0
            since_cal = 0.0
        if tracer is not None:
            tracer.begin_op(i)
        s = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - s
        if speed is None:
            results.append((dt, out, err))
        else:
            since_cal += dt
            scale = CAL_REF_S / statistics.median(speed[-CAL_WINDOW:])
            results.append((dt, out, err, dt * scale))
    return perf_counter() - t0 - cal_s, results


def check_pass(ops, results) -> list[str]:
    failures = []
    for op, (_, out, err, *_) in zip(ops, results):
        msg = err or op.check(out)
        if msg:
            failures.append(f"{op.label}: {msg}")
    return failures


def machine_record() -> dict:
    import numpy

    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HARMLAB_THREADS")}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "threads": threads}


def measure(wl, seconds: float, trace: bool, spans_path: str):
    """Passes until the budget is spent; returns (metrics, samples, attempted, failures)."""
    import numpy as np
    import tracing

    ops = wl.ops
    started = perf_counter()
    plain, traced, layer_runs, tracers, failures = [], [], [], [], []
    ref_times, speed = [], []

    def plain_pass():
        wall, results = run_pass(ops, speed=speed)
        plain.append(wall)
        ref_times.append([r[3] for r in results])
        failures.extend(check_pass(ops, results))

    def traced_pass():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, results = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tracers.append(tracer)
        layer_runs.append(tracer.layer_values())
        failures.extend(check_pass(ops, results))

    def fits(cost: float) -> bool:
        return perf_counter() - started + cost <= seconds

    # The first pass of a process runs colder (allocator, lazy paths) than the
    # rest: untraced runs take the median of at least three passes, and traced
    # runs start with an untraced warm-up pass that the overhead leaves out.
    plain_pass()
    if not trace:
        while len(plain) < MIN_PLAIN_PASSES or fits(plain[-1]):
            plain_pass()
    else:
        while True:
            traced_pass()
            plain_pass()
            if not fits(traced[-1] + plain[-1]):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += [f"{label}: {msg}" for label, msg in wl.final_check().items()]
    attempted = len(ops) * (len(plain) + len(traced))

    if not trace:
        # Times at the reference machine speed (see CAL_REF_S). Latency: each
        # op's median over the passes, then percentiles over the job list's
        # ops, so a slow spell of the machine that hits an op in one pass does
        # not move it. kernel_solve has 500 solves, so 10 lie beyond p98.
        times = np.asarray(ref_times)
        lat = times[:, [op.latency for op in ops]]
        per_op_ms = np.median(lat, axis=0) * 1e3
        p50, p98 = np.percentile(per_op_ms, [50, 98])
        metrics = {"ref_wall_s": float(np.median(times.sum(axis=1))),
                   "wall_s": statistics.median(plain),
                   "machine.slowdown": statistics.median(speed) / CAL_REF_S,
                   "ref_op_p50_ms": float(p50), "ref_op_p98_ms": float(p98),
                   "peak_rss_mb": peak_rss_mb}
        samples = {"ref_wall_s": len(plain), "wall_s": len(plain), "machine.slowdown": len(speed),
                   "ref_op_p50_ms": lat.size, "ref_op_p98_ms": lat.size, "peak_rss_mb": 1}
        # Each group's share of a pass: the median over passes of its ops' summed time.
        for group in dict.fromkeys(op.group for op in ops):
            name = f"group.{group}_s"
            metrics[name] = float(np.median(times[:, [op.group == group for op in ops]].sum(axis=1)))
            samples[name] = len(times)
        return metrics, samples, attempted, failures

    metrics = {}
    for name in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(plain[1:])
        elif name.endswith("_s"):
            metrics[name] = statistics.median(run[name] for run in layer_runs)
        else:
            values = {run[name] for run in layer_runs}
            if len(values) != 1:
                raise RuntimeError(f"{name} differs between traced passes: {sorted(values)}")
            metrics[name] = values.pop()
    blind = [m for m in tracing.EXPECTED_WORK[wl.name] if metrics[m] == 0]
    if blind:
        raise RuntimeError(f"blind spot: {', '.join(blind)} recorded no work on {wl.name}")
    tracers[0].write_spans(spans_path)
    samples = {name: len(traced) for name in tracing.LAYER_METRICS}
    return metrics, samples, attempted, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_checkout_harmlab()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = perf_counter() - T_START
    if args.setup_only:
        # Scaled to the reference machine speed like the passes: a probe is
        # too short to outlast a slow spell of the machine.
        speed = statistics.median(reference_kernel() for _ in range(CAL_WINDOW))
        print(json.dumps({"setup_s": setup_s * CAL_REF_S / speed, "setup_clock_s": setup_s}))
        return 0
    try:
        metrics, samples, attempted, failures = measure(wl, args.seconds, bool(args.trace), args.spans)
    except RuntimeError as exc:  # the benchmark cannot vouch for its numbers
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"perfbench: {args.workload}: failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
        "samples": samples,
        "setup_s": setup_s,
        "machine": machine_record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
