"""Harmonic extension of sublinear boundary data via the half-plane Poisson kernel.

The extension of g is u(x, y) = (1/pi) * integral g(x + t*y) / (1 + t^2) dt,
the unique harmonic function with boundary values g that grows sublinearly.
The integral is split into |t| <= 1 plus two tails |t| >= 1. A tail is mapped
onto s in (0, 1] by |t| = s^-m with m = 1/(1 - alpha), alpha = max(growth
exponent, 0); its integrand g(x +- y s^-m) m s^(m-1) / (1 + s^2m) is then
bounded near s = 0 (for ReLU^alpha data it tends to m y^alpha), where the
plain z = 1/|t| map leaves a z^-alpha singularity. Activation kinks are split
off exactly (a tail kink at t maps to s = |t|^(-1/m)) to keep full convergence
order. Every piece is one greedy adaptive integral (numerics._greedy) with its
singularity at an end. solve_at integrates the pieces one by one with
integrate_adaptive, which looks ahead through one table of bisections along
the end chains and of the interior intervals above a share of the
tolerance; later bisections of those intervals call no g, and the values are
the same bit for bit. A chain is as deep as the greedy's own error estimates
say: at a ReLU^alpha kink they fall by 2^(1+alpha) a bisection, so the data's
regularity sets how far each call of g refines (_greedy's docstring gives
the rule). solve_grid integrates every (node, piece) of a block of nodes as
one lane of a batched greedy (numerics._integrate_lanes): each lane takes
the steps solve_at would, one round of bisections costs one call of g, and
the lanes do not look ahead. Both share one subdivision budget per piece,
_PIECE_BUDGET, refuse a node with a subnormal y (x + t*y would lose t*y) and
name the point in a quadrature failure.

ReLU^alpha and Heaviside data vanish on a half-line, which their constructors
record as the support. A piece whose root nodes all map outside it
(_vanishes) has a root rule of exactly 0.0, so its integral is 0.0 and both
solvers skip it, splitting the tolerance over all pieces as before."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ensembles import activation
from .errors import MaxSubdivisionsExceeded, NonFiniteSample, NumericalError, ValidationError
from .halfplane import HalfPlanePoint
from .numerics import _ROOT_EDGES, GridSpec, _check_tol, _integrate_lanes, _segments, integrate_adaptive

__all__ = ["BoundaryFunction", "solve_at", "solve_grid"]


@dataclass(frozen=True)
class BoundaryFunction:
    """Admissible boundary data g with growth exponent alpha: |g(t)| = O(|t|^alpha).

    Use the constructors: relu_power, heaviside, tanh, custom. The solver
    needs alpha < 1 and maps the kernel tails by it. `kinks` lists boundary
    abscissae where g is not smooth. `support`, when the constructor knows
    it, is the closed half-line (lo, hi) outside which g is exactly 0; the
    solvers skip the pieces of the kernel integral that sample g only there.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    growth_alpha: float
    kinks: tuple[float, ...] = field(default_factory=tuple)
    support: tuple[float, float] | None = None

    def __call__(self, s):
        """g at the abscissae s, any shape; fn itself receives a 1D array."""
        s = np.asarray(s, dtype=float)
        return np.asarray(self.fn(s.ravel()), dtype=float).reshape(s.shape)

    @classmethod
    def relu_power(cls, alpha: float, w: float = 1.0, b: float = 0.0) -> "BoundaryFunction":
        """g(s) = max(w*s + b, 0)^alpha with alpha in [0, 1)."""
        if not (0.0 <= alpha < 1.0):
            raise ValidationError(f"relu_power requires alpha in [0, 1), got {alpha}")
        _check_finite("relu_power", w, b)
        if w == 0.0:
            raise ValidationError("relu_power requires w != 0")
        c = -b / w
        support = (c, math.inf) if w > 0.0 else (-math.inf, c)
        return cls(lambda s: activation(w * s + b, alpha), alpha, kinks=(c,), support=support)

    @classmethod
    def heaviside(cls) -> "BoundaryFunction":
        return cls(lambda s: activation(s, 0.0), 0.0, kinks=(0.0,), support=(0.0, math.inf))

    @classmethod
    def tanh(cls, w: float = 1.0, b: float = 0.0) -> "BoundaryFunction":
        """g(s) = tanh(w*s + b); bounded, so growth_alpha = 0."""
        _check_finite("tanh", w, b)
        return cls(lambda s: np.tanh(w * s + b), 0.0)

    @classmethod
    def custom(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        growth_alpha: float,
        kinks: tuple[float, ...] = (),
    ) -> "BoundaryFunction":
        """g = fn with growth exponent growth_alpha (not NaN) and finite kinks."""
        growth_alpha, kinks = float(growth_alpha), tuple(kinks)
        if math.isnan(growth_alpha):
            raise ValidationError(f"custom requires a growth_alpha that is not NaN, got {growth_alpha}")
        if not all(map(math.isfinite, kinks)):
            raise ValidationError(f"custom requires finite kinks, got kinks={kinks}")
        return cls(fn, growth_alpha, kinks)


def _check_finite(name: str, w: float, b: float) -> None:
    if not (math.isfinite(w) and math.isfinite(b)):
        raise ValidationError(f"{name} requires finite w and b, got w={w}, b={b}")


# nodes integrated together by solve_grid; bounds the quadrature state held at once
_GRID_BLOCK = 256
# subdivision budget of every piece's integral, in both solvers alike: solve_grid
# takes solve_at's steps, and so gives its values, only while they share it
_PIECE_BUDGET = 20000


def _failed_at(exc: NumericalError, x: float, y: float) -> NumericalError:
    """The quadrature failure exc, named at the point (x, y); a non-finite sample keeps its type."""
    kind = NonFiniteSample if isinstance(exc, NonFiniteSample) else NumericalError
    return kind(f"kernel quadrature failed at ({x}, {y}): {exc}")


def _tail_power(g: BoundaryFunction, tol: float) -> float:
    """Validate (g, tol) and return the tail exponent m = 1/(1 - max(alpha, 0))."""
    if g.growth_alpha >= 1.0:
        raise ValidationError(f"boundary growth exponent {g.growth_alpha} >= 1: kernel integral diverges")
    _check_tol(tol)
    return 1.0 / (1.0 - max(g.growth_alpha, 0.0))


def _check_y(x: float, y: float) -> None:
    """ValidationError for a node (x, y) with a subnormal y.

    x + t*y then underflows to x for small t, and the middle piece reads g at
    x where it should read it beside x (Heaviside data at (0, 5e-324) gave
    0.352 for 0.5).
    """
    if not y >= sys.float_info.min:
        raise ValidationError(
            f"kernel quadrature at ({x}, {y}) needs y >= {sys.float_info.min}, the smallest normal float"
        )


def _pieces(g: BoundaryFunction, x: float, y: float, m: float) -> list[tuple[int, float, float, bool]]:
    """(sign, lo, hi, zero) of each kink-free piece of the kernel integral at (x, y).

    sign 0 is the middle |t| <= 1 in t; sign +1/-1 is the tail t >= 1 / t <= -1
    in s on (0, 1], with t = sign * s^-m. zero marks a piece whose integral
    is exactly 0.0 (_vanishes); the solvers skip it.
    """
    t_kinks = [(s - x) / y for s in g.kinks]
    pos_ks = [(1.0 / t) ** (1.0 / m) for t in t_kinks if t > 1.0]
    neg_ks = [(-1.0 / t) ** (1.0 / m) for t in t_kinks if t < -1.0]
    pieces = (
        [(0, lo, hi) for lo, hi in _segments(t_kinks, -1.0, 1.0)]
        + [(1, lo, hi) for lo, hi in _segments(pos_ks, 0.0, 1.0)]
        + [(-1, lo, hi) for lo, hi in _segments(neg_ks, 0.0, 1.0)]
    )
    return [(*piece, g.support is not None and _vanishes(g.support, x, y, m, *piece)) for piece in pieces]


# How far outside the support, relative to the summands of an abscissa, a
# piece's extreme root nodes must map before the piece is skipped: far above
# the few ulps by which pow (scalar here, vectorized in the integrand) and the
# support's end -b/w may be off.
_SUPPORT_MARGIN = 2.0**-40


def _vanishes(support: tuple[float, float], x: float, y: float, m: float, sign: int, lo: float, hi: float) -> bool:
    """Whether every root node of the piece (sign, lo, hi) maps where g is 0.

    The root rule's 15 nodes lie between mid + half * _ROOT_EDGES (the
    extreme nodes, from numerics), and the maps t -> x + t y, s -> x + sign
    y s^-m and the data's own w s + b are monotone. So when both extreme
    nodes map outside the support by a margin relative to the summands x and
    t y (or sign y s^-m), not to the abscissa, which cancellation may shrink,
    g is exactly 0 at every node, the root rule returns exactly 0.0 and meets
    any tolerance. A NaN abscissa, an
    underflowing s^m and a piece at floating-point resolution give no proof.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s_lo, s_hi = support
    for t in (mid + half * edge for edge in _ROOT_EDGES):
        if sign == 0:
            shift = t * y
        else:
            z = t**m
            if not z >= sys.float_info.min:
                return False
            shift = sign * y / z
        at, margin = x + shift, _SUPPORT_MARGIN * (abs(x) + abs(shift))
        if not (at < s_lo - margin or at > s_hi + margin):
            return False
    return True


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
    representation integral diverges) or p.y is subnormal, NumericalError
    when the adaptive rule cannot reach the tolerance and NonFiniteSample
    when the integrand is not finite at a quadrature node; these messages
    name p.
    """
    m = _tail_power(g, tol)
    x, y = p.x, p.y
    _check_y(x, y)
    pieces = _pieces(g, x, y, m)
    piece_tol = tol / len(pieces)
    total = 0.0  # never -0.0, so a skipped piece's exact 0.0 leaves it as it is
    try:
        for sign, lo, hi, zero in pieces:
            if not zero:
                total += integrate_adaptive(
                    _integrand(g, m, x, y, sign), lo, hi, tol=piece_tol, max_intervals=_PIECE_BUDGET
                )
    except (MaxSubdivisionsExceeded, NonFiniteSample) as exc:
        raise _failed_at(exc, x, y) from exc
    return total / math.pi


def solve_grid(g: BoundaryFunction, grid: GridSpec, tol: float = 1e-9) -> np.ndarray:
    """solve_at at every grid node, shape (nr, nphi), with the same numbers.

    Every (node, piece) integral is one lane of a batched integrator that takes
    the steps of solve_at's own quadrature, so a round of bisections over a
    block of nodes costs one call of g. ValidationError, naming the node, for
    a node with a subnormal y.
    """
    m = _tail_power(g, tol)
    X, Y = grid.mesh()
    xs, ys = X.ravel().tolist(), Y.ravel().tolist()
    for x, y in zip(xs, ys):
        _check_y(x, y)
    out = np.zeros(len(xs))
    for start in range(0, len(xs), _GRID_BLOCK):
        lanes = []  # (node, sign, lo, hi, tol) per kept piece of every node in the block
        for node in range(start, min(start + _GRID_BLOCK, len(xs))):
            pieces = _pieces(g, xs[node], ys[node], m)
            lanes += [(node, sign, lo, hi, tol / len(pieces)) for sign, lo, hi, zero in pieces if not zero]
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
            vals = _integrate_lanes(f, lo, hi, lane_tol, _PIECE_BUDGET)
        except (MaxSubdivisionsExceeded, NonFiniteSample) as exc:
            n = int(node[exc.lane])
            raise _failed_at(exc, xs[n], ys[n]) from exc
        np.add.at(out, node, vals)
    return out.reshape(X.shape) / math.pi
