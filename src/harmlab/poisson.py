"""Harmonic extension of sublinear boundary data via the half-plane Poisson kernel.

The extension of g is u(x, y) = (1/pi) * integral g(x + t*y) / (1 + t^2) dt,
the unique harmonic function with boundary values g that grows sublinearly.
The integral is split into |t| <= 1 plus two tails |t| >= 1. A tail is mapped
onto s in (0, 1] by |t| = s^-m with m = 1/(1 - alpha), alpha = max(growth
exponent, 0); its integrand g(x +- y s^-m) m s^(m-1) / (1 + s^2m) is then
bounded near s = 0 (for ReLU^alpha data it tends to m y^alpha), where the
plain z = 1/|t| map leaves a z^-alpha singularity. Activation kinks are split
off exactly (a tail kink at t maps to s = |t|^(-1/m)) to keep full convergence
order. Every piece is one greedy adaptive integral with its singularity at an
end. When the greedy bisects the interval at an end, the same call of g also
evaluates the next six bisections towards that end (numerics._integrate_lanes),
so solve_at calls g once per up to seven bisections along a kink instead of
once per bisection, with the same values bit for bit. solve_grid integrates
every (node, piece) of a block of nodes as one lane of a batched adaptive rule:
each lane takes the steps solve_at would, and one round of bisections costs at
most one call of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ensembles import activation
from .errors import MaxSubdivisionsExceeded, NumericalError, ValidationError
from .halfplane import HalfPlanePoint
from .numerics import GridSpec, _integrate_lanes, integrate_adaptive

__all__ = ["BoundaryFunction", "solve_at", "solve_grid"]


@dataclass(frozen=True)
class BoundaryFunction:
    """Admissible boundary data g with growth exponent alpha: |g(t)| = O(|t|^alpha).

    Use the constructors: relu_power, heaviside, tanh, custom. The solver
    needs alpha < 1 and maps the kernel tails by it. `kinks` lists boundary
    abscissae where g is not smooth.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    growth_alpha: float
    kinks: tuple[float, ...] = field(default_factory=tuple)

    def __call__(self, s):
        """g at the abscissae s, any shape; fn itself receives a 1D array."""
        s = np.asarray(s, dtype=float)
        return np.asarray(self.fn(s.ravel()), dtype=float).reshape(s.shape)

    @classmethod
    def relu_power(cls, alpha: float, w: float = 1.0, b: float = 0.0) -> "BoundaryFunction":
        """g(s) = max(w*s + b, 0)^alpha with alpha in [0, 1)."""
        if not (0.0 <= alpha < 1.0):
            raise ValidationError(f"relu_power requires alpha in [0, 1), got {alpha}")
        if w == 0.0:
            raise ValidationError("relu_power requires w != 0")
        return cls(lambda s: activation(w * s + b, alpha), alpha, kinks=(-b / w,))

    @classmethod
    def heaviside(cls) -> "BoundaryFunction":
        return cls(lambda s: activation(s, 0.0), 0.0, kinks=(0.0,))

    @classmethod
    def tanh(cls, w: float = 1.0, b: float = 0.0) -> "BoundaryFunction":
        """g(s) = tanh(w*s + b); bounded, so growth_alpha = 0."""
        return cls(lambda s: np.tanh(w * s + b), 0.0)

    @classmethod
    def custom(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        growth_alpha: float,
        kinks: tuple[float, ...] = (),
    ) -> "BoundaryFunction":
        return cls(fn, float(growth_alpha), tuple(kinks))


def _segments(interior: list[float], lo: float, hi: float) -> list[tuple[float, float]]:
    edges = [lo, *sorted(t for t in interior if lo < t < hi), hi]
    return list(zip(edges[:-1], edges[1:]))


# nodes integrated together by solve_grid; bounds the quadrature state held at once
_GRID_BLOCK = 256
# a non-finite sample raises NonFiniteSample; numpy need not warn about it as well
_QUAD_ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")


def _tail_power(g: BoundaryFunction, tol: float) -> float:
    """Validate (g, tol) and return the tail exponent m = 1/(1 - max(alpha, 0))."""
    if g.growth_alpha >= 1.0:
        raise ValidationError(
            f"boundary growth exponent {g.growth_alpha} >= 1: kernel integral diverges"
        )
    if not (tol > 0.0):
        raise ValidationError(f"tol must be > 0, got {tol}")
    return 1.0 / (1.0 - max(g.growth_alpha, 0.0))


def _pieces(g: BoundaryFunction, x: float, y: float, m: float) -> list[tuple[int, float, float]]:
    """(sign, lo, hi) of each kink-free piece of the kernel integral at (x, y).

    sign 0 is the middle |t| <= 1 in t; sign +1/-1 is the tail t >= 1 / t <= -1
    in s on (0, 1], with t = sign * s^-m.
    """
    t_kinks = [(s - x) / y for s in g.kinks]
    pos_ks = [(1.0 / t) ** (1.0 / m) for t in t_kinks if t > 1.0]
    neg_ks = [(-1.0 / t) ** (1.0 / m) for t in t_kinks if t < -1.0]
    return (
        [(0, lo, hi) for lo, hi in _segments(t_kinks, -1.0, 1.0)]
        + [(1, lo, hi) for lo, hi in _segments(pos_ks, 0.0, 1.0)]
        + [(-1, lo, hi) for lo, hi in _segments(neg_ks, 0.0, 1.0)]
    )


def _middle(g: BoundaryFunction, x, y, t):
    return g(x + t * y) / (1.0 + t * t)


def _tail(g: BoundaryFunction, m: float, x, sy, s):
    """Tail integrand in s for sy = +-y: g(x + sy s^-m) m s^(m-1) / (1 + s^2m)."""
    z = s**m
    return g(x + sy / z) * (m * s ** (m - 1.0)) / (1.0 + z * z)


def _integrand(g: BoundaryFunction, m: float, x: float, y: float, sign: int):
    """One-argument integrand of a piece of sign `sign` (see _pieces)."""
    if sign == 0:
        return lambda t: _middle(g, x, y, t)
    return lambda s: _tail(g, m, x, sign * y, s)


def solve_at(g: BoundaryFunction, p: HalfPlanePoint, tol: float = 1e-9) -> float:
    """Poisson-kernel value of the harmonic extension of g at p.

    Raises ValidationError when the declared growth exponent is >= 1 (the
    representation integral diverges) and NumericalError when the adaptive
    rule cannot reach the tolerance.
    """
    m = _tail_power(g, tol)
    x, y = p.x, p.y
    pieces = _pieces(g, x, y, m)
    piece_tol = tol / len(pieces)
    total = 0.0
    try:
        with np.errstate(**_QUAD_ERRSTATE):
            for sign, lo, hi in pieces:
                total += integrate_adaptive(
                    _integrand(g, m, x, y, sign), lo, hi, tol=piece_tol, max_intervals=20000
                )
    except MaxSubdivisionsExceeded as exc:
        raise NumericalError(f"kernel quadrature failed at ({x}, {y}): {exc}") from exc
    return total / math.pi


def solve_grid(g: BoundaryFunction, grid: GridSpec, tol: float = 1e-9) -> np.ndarray:
    """solve_at at every grid node, shape (nr, nphi), with the same numbers.

    Every (node, piece) integral is one lane of a batched integrator that takes
    the steps of solve_at's own quadrature, so a round of bisections over a
    block of nodes costs one call of g.
    """
    m = _tail_power(g, tol)
    X, Y = grid.mesh()
    xs, ys = X.ravel().tolist(), Y.ravel().tolist()
    out = np.zeros(len(xs))
    for start in range(0, len(xs), _GRID_BLOCK):
        lanes = []  # (node, sign, lo, hi, tol) per piece of every node in the block
        for node in range(start, min(start + _GRID_BLOCK, len(xs))):
            pieces = _pieces(g, xs[node], ys[node], m)
            lanes += [(node, sign, lo, hi, tol / len(pieces)) for sign, lo, hi in pieces]
        node, sign, lo, hi, lane_tol = zip(*lanes)
        node, sign = np.array(node), np.array(sign)
        px = X.ravel()[node][:, None]
        py = Y.ravel()[node][:, None]
        sy = sign[:, None] * py
        middle = sign == 0

        def f(lane, s):
            vals = np.empty_like(s)
            mid = middle[lane]
            if mid.any():
                at = lane[mid]
                vals[mid] = _middle(g, px[at], py[at], s[mid])
            if not mid.all():
                at = lane[~mid]
                vals[~mid] = _tail(g, m, px[at], sy[at], s[~mid])
            return vals

        try:
            with np.errstate(**_QUAD_ERRSTATE):
                vals = _integrate_lanes(f, lo, hi, lane_tol, 20000)
        except MaxSubdivisionsExceeded as exc:
            n = int(node[exc.lane])
            raise NumericalError(
                f"kernel quadrature failed at ({xs[n]}, {ys[n]}): {exc}"
            ) from exc
        np.add.at(out, node, vals)
    return out.reshape(X.shape) / math.pi
