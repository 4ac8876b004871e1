"""Per-layer tracing taken from outside the library, at call boundaries.

`Tracer.install()` replaces each instrumented harmlab function at every module
binding that holds it (the library imports functions by name, so one function
can sit in several module namespaces), plus a few methods on their classes.
Each wrapped call records a span (id, parent id, operation id, name, start,
end) and bumps work counters; integrand and field callables passed into the
quadrature and norm layers are wrapped too, so evaluated points are counted
where the work happens. Spans stay in memory until `write_spans`.

`uninstall()` restores every binding, so the untraced passes and the output
checks of a run see the plain library.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    LAYER_METRICS = [m["name"] for m in json.load(_fh)["per_layer"]]

# Counters that must be non-zero on a workload where its layer does the work.
# A zero means the benchmark lost sight of a binding (say, a refactor moved a
# function), so the traced run fails instead of reporting an idle layer.
EXPECTED_WORK = {
    "kernel_solve": [
        "poisson.solve_at.calls",
        "numerics.integrate_adaptive.calls",
        "numerics.integrate_adaptive.integrand_evals",
        "poisson.solve_grid.points",
    ],
    "cli_jobs": [
        "ensembles.activation.calls",
        "ensembles.ensemble_derivatives.calls",
        "ensembles.sample_subnetwork.calls",
        "ensembles.barron_cost.calls",
        "ensembles.NeuronEnsemble.init_calls",
        "ensembles.lift_ensemble.neurons_out",
        "ensembles.save_ensemble.bytes",
        "ensembles.load_ensemble.bytes",
        "numerics.norm_lp_halfdisk.calls",
        "numerics.norm_lp_halfdisk.ray_evals",
        "experiments.gate.norm_calls",
        "experiments.field.points",
        "experiments.poly2_eval.calls",
        "solutions.reg_diff.calls",
        "cli.run.calls",
    ],
}


def _npoints(X, Y=None) -> int:
    return int(np.size(X) if Y is None else np.broadcast(X, Y).size)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._refined: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # --- spans --------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._refined.clear()

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, self.op, name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            span[5] = perf_counter()
            self._stack.pop()

    # --- wrappers around callables handed to a layer --------------------------

    def _integrand(self, f):
        def counted(x):
            self.counts["numerics.integrate_adaptive.integrand_calls"] += 1
            self.counts["numerics.integrate_adaptive.integrand_evals"] += _npoints(x)
            return f(x)

        return counted

    def _field(self, f):
        def timed(X, Y):
            n = _npoints(X, Y)
            self.counts["experiments.field.points"] += n
            if n == 1:
                self.counts["numerics.norm_lp_halfdisk.ray_evals"] += 1
            return self.call("experiments.field", f, X, Y)

        return timed

    # --- one wrapper per instrumented function ---------------------------------

    def _wrappers(self, h):
        """{original function: replacement} for every module-level binding."""
        c = self.counts

        def solve_at(g, p, *a, **kw):
            c["poisson.solve_at.calls"] += 1
            return self.call("poisson.solve_at", h["solve_at"], g, p, *a, **kw)

        def solve_grid(g, grid, *a, **kw):
            c["poisson.solve_grid.points"] += grid.nr * grid.nphi
            return self.call("poisson.solve_grid", h["solve_grid"], g, grid, *a, **kw)

        def integrate_adaptive(f, *a, **kw):
            c["numerics.integrate_adaptive.calls"] += 1
            return self.call("numerics.integrate_adaptive", h["integrate_adaptive"],
                             self._integrand(f), *a, **kw)

        def activation(z, *a, **kw):
            c["ensembles.activation.calls"] += 1
            c["ensembles.activation.elements"] += _npoints(z)
            return self.call("ensembles.activation", h["activation"], z, *a, **kw)

        def ensemble_derivatives(e, xs, *a, **kw):
            c["ensembles.ensemble_derivatives.calls"] += 1
            c["ensembles.ensemble_derivatives.atom_points"] += len(e) * (_npoints(xs) // e.dim)
            return self.call("ensembles.ensemble_derivatives", h["ensemble_derivatives"],
                             e, xs, *a, **kw)

        def sample_subnetwork(e, n, *a, **kw):
            c["ensembles.sample_subnetwork.calls"] += 1
            c["ensembles.sample_subnetwork.draws"] += int(n)
            return self.call("ensembles.sample_subnetwork", h["sample_subnetwork"], e, n, *a, **kw)

        def barron_cost(e):
            c["ensembles.barron_cost.calls"] += 1
            return self.call("ensembles.barron_cost", h["barron_cost"], e)

        def lift_ensemble(*a, **kw):
            out = self.call("ensembles.lift_ensemble", h["lift_ensemble"], *a, **kw)
            c["ensembles.lift_ensemble.neurons_out"] += len(out)
            return out

        def save_ensemble(e, path):
            self.call("ensembles.save_ensemble", h["save_ensemble"], e, path)
            c["ensembles.save_ensemble.bytes"] += os.path.getsize(path)

        def load_ensemble(path):
            c["ensembles.load_ensemble.bytes"] += os.path.getsize(path)
            return self.call("ensembles.load_ensemble", h["load_ensemble"], path)

        def norm_lp_halfdisk(f, grid, p):
            c["numerics.norm_lp_halfdisk.calls"] += 1
            c["numerics.norm_lp_halfdisk.grid_points"] += grid.nr * grid.nphi
            args = ("numerics.norm_lp_halfdisk", h["norm_lp_halfdisk"], self._field(f), grid, p)
            if grid not in self._refined:
                return self.call(*args)
            # a norm on a grid made by GridSpec.refined is the refinement gate's
            c["experiments.gate.norm_calls"] += 1
            c["experiments.gate.grid_points"] += grid.nr * grid.nphi
            return self.call("experiments.gate", self.call, *args)

        def reg_diff(name):
            def wrapper(X, Y, *a, **kw):
                c["solutions.reg_diff.calls"] += 1
                c["solutions.reg_diff.points"] += _npoints(X, Y)
                return self.call("solutions.reg_diff", h[name], X, Y, *a, **kw)

            return wrapper

        def spanned(span_name, name):
            def wrapper(*a, **kw):
                c[span_name + ".calls"] += 1
                return self.call(span_name, h[name], *a, **kw)

            return wrapper

        return {
            h["solve_at"]: solve_at,
            h["solve_grid"]: solve_grid,
            h["integrate_adaptive"]: integrate_adaptive,
            h["activation"]: activation,
            h["ensemble_derivatives"]: ensemble_derivatives,
            h["sample_subnetwork"]: sample_subnetwork,
            h["barron_cost"]: barron_cost,
            h["lift_ensemble"]: lift_ensemble,
            h["save_ensemble"]: save_ensemble,
            h["load_ensemble"]: load_ensemble,
            h["norm_lp_halfdisk"]: norm_lp_halfdisk,
            h["reg_diff_value"]: reg_diff("reg_diff_value"),
            h["reg_diff_gradient"]: reg_diff("reg_diff_gradient"),
            h["reg_diff_hessian"]: reg_diff("reg_diff_hessian"),
            h["reg_error_experiment"]: spanned("experiments.reg_error_experiment", "reg_error_experiment"),
            h["sobolev_lognorm_experiment"]: spanned(
                "experiments.sobolev_lognorm_experiment", "sobolev_lognorm_experiment"),
            h["mc_rate_experiment"]: spanned("experiments.mc_rate_experiment", "mc_rate_experiment"),
            h["run"]: spanned("cli.run", "run"),
        }

    def _method_wrappers(self, ensembles, experiments, numerics):
        c = self.counts
        init = ensembles.NeuronEnsemble.__init__
        poly_call = experiments.Poly2.__call__
        refined = numerics.GridSpec.refined

        def ensemble_init(obj, *a, **kw):
            self.call("ensembles.NeuronEnsemble", init, obj, *a, **kw)
            c["ensembles.NeuronEnsemble.init_calls"] += 1
            c["ensembles.NeuronEnsemble.neurons"] += len(obj)

        def poly2_call(obj, X, Y):
            c["experiments.poly2_eval.calls"] += 1
            c["experiments.poly2_eval.points"] += _npoints(X, Y)
            return self.call("experiments.poly2_eval", poly_call, obj, X, Y)

        def grid_refined(obj):
            out = refined(obj)
            self._refined.add(out)
            return out

        return [
            (ensembles.NeuronEnsemble, "__init__", ensemble_init),
            (experiments.Poly2, "__call__", poly2_call),
            (numerics.GridSpec, "refined", grid_refined),
        ]

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        from harmlab import cli, ensembles, experiments, numerics, poisson, solutions

        h = {
            "solve_at": poisson.solve_at,
            "solve_grid": poisson.solve_grid,
            "integrate_adaptive": numerics.integrate_adaptive,
            "activation": ensembles.activation,
            "ensemble_derivatives": ensembles.ensemble_derivatives,
            "sample_subnetwork": ensembles.sample_subnetwork,
            "barron_cost": ensembles.barron_cost,
            "lift_ensemble": ensembles.lift_ensemble,
            "save_ensemble": ensembles.save_ensemble,
            "load_ensemble": ensembles.load_ensemble,
            "norm_lp_halfdisk": numerics.norm_lp_halfdisk,
            "reg_diff_value": solutions.reg_diff_value,
            "reg_diff_gradient": solutions.reg_diff_gradient,
            "reg_diff_hessian": solutions.reg_diff_hessian,
            "reg_error_experiment": experiments.reg_error_experiment,
            "sobolev_lognorm_experiment": experiments.sobolev_lognorm_experiment,
            "mc_rate_experiment": experiments.mc_rate_experiment,
            "run": cli.run,
        }
        replace = {id(fn): new for fn, new in self._wrappers(h).items()}
        modules = [m for n, m in sys.modules.items() if n == "harmlab" or n.startswith("harmlab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._patch(mod, attr, replace[id(value)])
        for owner, attr, wrapper in self._method_wrappers(ensembles, experiments, numerics):
            self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # --- results ------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Per-layer counters and times of everything recorded so far."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        busy_s = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            busy_s[name] += end - start
            self_s[name] += end - start - child[sid]
        out = {}
        for metric in LAYER_METRICS:
            layer, _, key = metric.rpartition(".")
            if key == "self_s":
                out[metric] = self_s[layer]
            elif key in ("busy_s", "init_s"):
                out[metric] = busy_s[layer]
            elif key != "overhead_s":
                out[metric] = self.counts[metric]
        return out

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)
