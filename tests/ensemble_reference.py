"""Reference implementations for the one-buffer ensemble evaluation tests.

`ensemble_derivatives` and `activation` are the formulas that
`ensembles.ensemble_derivatives` ran before its blocks lived in one buffer:
the whole-target coefficients `weights * a`, and a new array for each of
`pts @ w.T`, `+ b` and sigma. `mc_errors` is the Monte-Carlo block loop
`experiments.mc_rate_experiment` ran then, with `Generator.choice` draws and a
new array for every draw-weight step. The arithmetic is the same, so results
must match them bit for bit. Both read `ensembles._EVAL_CHUNK` when called, so
a test that shrinks it splits reference and library into the same blocks.
"""

import itertools
import math

import numpy as np

from harmlab import ensembles
from harmlab.ensembles import _atom_cost, barron_cost


def activation(z, alpha: float):
    """sigma_alpha(z) with a new array for the result."""
    z = np.asarray(z, dtype=float)
    if alpha > 0.0:
        out = np.fmax(z, 0.0)
        out **= alpha
        return out
    if alpha == 0.0:
        return (z > 0.0).astype(float)
    out = np.zeros_like(z)
    pos = z > 0.0
    out[pos] = z[pos] ** alpha
    return out


def ensemble_derivatives(e, xs, order: int, weights=None) -> list[np.ndarray]:
    """The order-`order` components of `ensembles.ensemble_derivatives`, for valid input."""
    xs = np.asarray(xs, dtype=float)
    pts = xs.reshape(-1, 1) if e.dim == 1 else xs
    pa = e.probs * e.a if weights is None else np.asarray(weights, dtype=float) * e.a[:, None]
    atom = (slice(None),) + (None,) * (pa.ndim - 1)
    m = pts.shape[0]
    coef = math.prod(e.alpha - i for i in range(order))
    comps = list(itertools.combinations_with_replacement(range(e.dim), order))
    outs = [np.zeros((m,) + pa.shape[1:]) for _ in comps]
    step = max(1, ensembles._EVAL_CHUNK // max(1, m))
    for lo in range(0, len(e), step):
        hi = min(lo + step, len(e))
        wj = e.w[lo:hi]
        S = activation(pts @ wj.T + e.b[lo:hi], e.alpha - order)
        if order:
            S *= coef
        for out, comp in zip(outs, comps):
            out += S @ (pa[lo:hi] * np.prod(wj[:, comp], axis=1)[atom])
    return outs


def mc_errors(target, pts, w_quad, ns, seeds, m: int, q: float) -> tuple[list[float], float]:
    """Per-size mean W^{m,q} errors and the bound rate of `experiments.mc_rate_experiment`."""
    cost = _atom_cost(target)
    bound = barron_cost(target) * 1.05
    draws = [(n, s) for n in ns for s in seeds]
    per_block = max(1, ensembles._EVAL_CHUNK // max(len(target), len(pts)))
    errs = np.empty(len(draws))
    bound_hits = 0
    for lo in range(0, len(draws), per_block):
        block = draws[lo : lo + per_block]
        frac = np.array([
            np.bincount(np.random.default_rng((s, n)).choice(len(target), size=n, p=target.probs),
                        minlength=len(target)) / n
            for n, s in block
        ])
        bound_hits += int(np.count_nonzero(frac @ cost <= bound))
        diff = (target.probs - frac).T
        acc = np.zeros((len(pts), len(block)))
        for order in range(m + 1):
            for comp in ensemble_derivatives(target, pts, order, weights=diff):
                acc += np.abs(comp) ** q
        errs[lo : lo + len(block)] = (w_quad @ acc) ** (1.0 / q)
    values = [float(np.mean(row)) for row in errs.reshape(len(ns), len(seeds))]
    return values, bound_hits / len(draws)
