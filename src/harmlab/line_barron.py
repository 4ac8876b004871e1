"""One-dimensional representation criterion and constructive ensembles.

A function f with integrable weighted (k+1)-th derivative,

    integral |f^(k+1)(x)| (1 + |x|^k) dx < infinity,

is representable by sigma_k neurons; the integral upper-bounds the
representation cost up to fixed equivalence constants. The constructive route
is the Riemann-Liouville identity

    f(x) = sum_{i<=k} f^(i)(0)/i! x^i
           + (1/k!) int_0^inf  f^(k+1)(t) sigma_k(x - t) dt
           + ((-1)^(k+1)/k!) int_-inf^0 f^(k+1)(t) sigma_k(t - x) dt,

discretized by a midpoint rule on an equal-mass mesh of |f^(k+1)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ensembles import NeuronEnsemble
from .errors import MaxSubdivisionsExceeded, NonFiniteSample, NumericalError, ValidationError
from .numerics import RateFit, _segments, fit_linear, integrate_adaptive
from .solutions import _check_k

__all__ = [
    "DifferentiableFunction1D",
    "barron_norm_upper",
    "ensemble_from_derivative",
    "xklogx_derivative",
    "log_divergence_diagnostic",
]


@dataclass(frozen=True)
class DifferentiableFunction1D:
    """A function given by its analytically supplied (k+1)-th derivative `deriv`.

    `deriv` must accept numpy arrays. `singular_points` declares where the
    derivative blows up (endpoints included in the split logic). The support
    may have infinite ends.
    """

    deriv: Callable[[np.ndarray], np.ndarray]
    k: int
    support: tuple[float, float]
    singular_points: tuple[float, ...] = ()

    def __post_init__(self):
        _check_k(self.k)
        a, b = self.support
        if not (b > a):
            raise ValidationError(f"support must be a nonempty interval, got {self.support}")


def barron_norm_upper(df: DifferentiableFunction1D, tol: float = 1e-9) -> float:
    """integral over the support of |f^(k+1)(x)| (1 + |x|^k) dx.

    The one quadrature of the criterion, split at 0 and at the singular
    points. A piece with an infinite end is integrated in theta = arctan x,
    with integrand w(tan theta) (1 + tan^2 theta). Raises NumericalError
    when refinement exhausts its budget, or when the integrand blows up at a
    declared singular endpoint or refinement reaches an infinite end (theta =
    +-pi/2 at floating-point resolution: a tail that diverges, or decays too
    slowly to meet tol); messages name the piece in x.
    """
    k = df.k

    def weighted(x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.abs(df.deriv(x)) * (1.0 + np.abs(x) ** k)

    def tangent(theta):
        # a node at theta = +-pi/2 means refinement reached the infinite end at
        # floating-point resolution, where tol cannot be met; refuse it as non-finite
        x = np.tan(theta)
        return np.where(np.abs(theta) < math.pi / 2, weighted(x) * (1.0 + x * x), np.inf)

    total = 0.0
    sing = {*df.singular_points, -math.inf, math.inf}
    for lo, hi in _segments({*df.singular_points, 0.0}, *df.support):
        if math.isinf(lo) or math.isinf(hi):
            g, a, b = tangent, math.atan(lo), math.atan(hi)
        else:
            g, a, b = weighted, lo, hi
        try:
            total += integrate_adaptive(g, a, b, tol=tol, max_intervals=6000)
        except MaxSubdivisionsExceeded as exc:
            raise NumericalError(
                f"criterion integral does not converge on ({lo}, {hi}); "
                f"partial sums reached {exc.estimate!r} with error bound {exc.err_bound!r}"
            ) from exc
        except NonFiniteSample:
            if lo in sing or hi in sing:
                raise NumericalError(
                    f"criterion integral does not converge at a singular or infinite end of ({lo}, {hi})"
                ) from None
            raise
    return total


def _equal_mass_atoms(deriv, lo: float, hi: float, n_cells: int):
    """Midpoint atoms (node, signed cell integral) on an equal-|mass| partition."""
    n_fine = max(1024, 32 * n_cells)
    edges = np.linspace(lo, hi, n_fine + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = np.abs(np.asarray(deriv(mids), dtype=float)) * (hi - lo) / n_fine
    cum = np.concatenate([[0.0], np.cumsum(dens)])
    total = cum[-1]
    if total <= 0.0:
        return np.empty(0), np.empty(0)
    targets = np.linspace(0.0, total, n_cells + 1)
    cell_edges = np.interp(targets, cum, edges)
    cell_edges[0], cell_edges[-1] = lo, hi
    cell_edges = np.unique(cell_edges)
    nodes = 0.5 * (cell_edges[:-1] + cell_edges[1:])
    widths = np.diff(cell_edges)
    coefs = np.asarray(deriv(nodes), dtype=float) * widths
    return nodes, coefs


def _monomial_shift_solve(taylor_coefs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Express sum_i c_i x^i as sum_s lambda_s (x - h_s)^k with k+1 shifts."""
    shifts = np.arange(k + 1, dtype=float) - 0.5 * k
    M = np.empty((k + 1, k + 1))
    for i in range(k + 1):
        for s, h in enumerate(shifts):
            M[i, s] = math.comb(k, i) * (-h) ** (k - i)
    lam = np.linalg.solve(M, taylor_coefs)
    return shifts, lam


def ensemble_from_derivative(
    df: DifferentiableFunction1D, quad_nodes: int, taylor_at_zero
) -> NeuronEnsemble:
    """Discretized Riemann-Liouville representation of f as a sigma_k ensemble.

    `taylor_at_zero` holds the k+1 coefficients f^(i)(0)/i!. The uniform
    discretization error decays like 1/quad_nodes on the support; the reported
    barron_cost tracks the criterion integral plus the polynomial part.
    """
    k = df.k
    taylor = np.asarray(taylor_at_zero, dtype=float)
    if taylor.shape != (k + 1,):
        raise ValidationError(f"need k+1 = {k + 1} taylor coefficients, got {taylor.shape}")
    if quad_nodes < 1:
        raise ValidationError(f"quad_nodes must be >= 1, got {quad_nodes}")
    if not all(map(math.isfinite, df.support)):
        raise ValidationError(f"the equal-mass mesh needs a finite support, got {df.support}")
    barron_norm_upper(df)  # raises NumericalError on non-integrable input

    lo, hi = df.support
    fact = math.factorial(k)
    right = (max(lo, 0.0), hi)
    left = (lo, min(hi, 0.0))
    has_right = right[1] > right[0]
    has_left = left[1] > left[0]
    n_right = quad_nodes if not has_left else max(1, quad_nodes // 2)
    n_left = quad_nodes - n_right if has_right else quad_nodes

    blocks = [(np.empty(0),) * 3]  # (coefs, ws, bs) of the right, left and Taylor atoms
    if has_right:
        t, c = _equal_mass_atoms(df.deriv, right[0], right[1], n_right)
        blocks.append((c / fact, np.ones_like(t), -t))
    if has_left and n_left > 0:
        t, c = _equal_mass_atoms(df.deriv, left[0], left[1], n_left)
        blocks.append(((-1.0) ** (k + 1) * c / fact, -np.ones_like(t), t))
    if np.any(taylor != 0.0):
        shifts, lam = _monomial_shift_solve(taylor, k)
        keep = np.abs(lam) > 1e-14 * max(1.0, float(np.max(np.abs(lam))))
        h, l = shifts[keep], lam[keep]
        # interleaved pairs (l, 1, -h), ((-1)^k l, -1, h)
        blocks.append((
            np.column_stack([l, (-1.0) ** k * l]).ravel(),
            np.tile([1.0, -1.0], l.size),
            np.column_stack([-h, h]).ravel(),
        ))
    coefs, ws, bs = (np.concatenate(col) for col in zip(*blocks))
    return NeuronEnsemble.from_signed_atoms(coefs, ws, bs, float(k))


def xklogx_derivative(k: int):
    """The (k+1)-th derivative of x^k log x: the closed form k!/x (vectorized).

    Leibniz pairs d^l x^k with d^(k+1-l) log x; the k+1 terms have sizes
    summing to (2^(k+1) - 1) k! and cancel to k!/x, so they are not summed
    here. k > 170 is refused: k! is not a double there.
    """
    _check_k(k)
    if k > 170:
        raise ValidationError(f"k! is not a double for k > 170, got k = {k}")
    fact = float(math.factorial(k))
    return lambda x: fact / np.asarray(x, dtype=float)


def log_divergence_diagnostic(k: int, deltas) -> RateFit:
    """Fit I(delta) = int_delta^1 |d^(k+1)(x^k log x)| (1 + x^k) dx against |log delta|.

    Each I(delta) is one barron_norm_upper call at tol 1e-11. The slope
    estimates the divergence constant (k! for this family) and r^2 >= 0.999
    certifies logarithmic blow-up of the criterion integral.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size < 3:
        raise ValidationError("need at least 3 delta values")
    if np.any(deltas <= 0.0) or np.any(deltas >= 1.0):
        raise ValidationError("deltas must lie in (0, 1)")
    if np.any(np.diff(deltas) >= 0.0):
        raise ValidationError("deltas must be strictly decreasing")
    if deltas[-1] < 1e-8:
        raise ValidationError("deltas below 1e-8 are not resolved")
    df = DifferentiableFunction1D(xklogx_derivative(k), k, (deltas[0], 1.0))
    values = [barron_norm_upper(replace(df, support=(float(d), 1.0)), tol=1e-11) for d in deltas]
    return fit_linear(np.abs(np.log(deltas)), values)
