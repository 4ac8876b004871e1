"""Shared numerics: adaptive quadrature, finite differences, half-disk norms,
and straight-line fits for rate extraction.

The adaptive integrator uses an embedded Fejer-2 pair (7 nodes nested inside
15) with globally greedy bisection, so integrable endpoint singularities are
resolved without ever sampling the endpoints. Integrands must accept numpy
arrays of abscissae.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDesign,
    MaxSubdivisionsExceeded,
    NonFiniteSample,
    NumericalError,
    StencilLeavesDomain,
    ValidationError,
)
from .halfplane import HalfPlanePoint

__all__ = [
    "QuadratureRule",
    "GridSpec",
    "RateFit",
    "gauss_legendre_rule",
    "integrate_adaptive",
    "fd_laplacian",
    "fd_derivative",
    "norm_lp_halfdisk",
    "fit_linear",
    "fit_loglog",
    "bisect_root",
    "golden_max",
    "ray_refined_max",
]


# --- 1D rules -----------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Fixed nodes/weights for a 1D integral, with the declared total measure.

    `measure` is what the weights must sum to (the domain length for plain
    rules, 1.0 for probability-normalized rules obtained through a transform).
    """

    nodes: np.ndarray
    weights: np.ndarray
    measure: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValidationError("nodes and weights must be matching nonempty 1D arrays")
        if np.any(weights <= 0.0):
            raise ValidationError("quadrature weights must be positive")
        if abs(weights.sum() - self.measure) > 1e-12 * max(1.0, abs(self.measure)):
            raise ValidationError(
                f"weights sum to {weights.sum()!r}, expected measure {self.measure!r}"
            )


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b]."""
    if n < 1:
        raise ValidationError(f"need n >= 1 nodes, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(mid + half * x, half * w, b - a)


def _fejer2(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer-2 nodes/weights on [-1, 1]: n-1 interior Chebyshev points."""
    j = np.arange(1, n)
    theta = j * np.pi / n
    nodes = np.cos(theta)
    ell = 2 * np.arange(1, n // 2 + 1)[:, None] - 1  # odd integers
    weights = (4.0 / n) * np.sin(theta) * np.sum(np.sin(ell * theta) / ell, axis=0)
    return nodes, weights


_F2_FINE_NODES, _F2_FINE_W = _fejer2(16)  # 15 nodes
_F2_COARSE_W = _fejer2(8)[1]  # 7 nodes = fine nodes[1::2]
_F2_PAIR_W = np.zeros((2, 15))  # rows: fine weights, coarse weights on the fine nodes
_F2_PAIR_W[0] = _F2_FINE_W
_F2_PAIR_W[1, 1::2] = _F2_COARSE_W


def _lane_failure(exc: Exception, lane: int) -> Exception:
    exc.lane = lane
    return exc


def _pair_rows(f, lanes, edges) -> list[list[float]]:
    """[fine, coarse] estimates of lane lanes[j] on the interval edges[j] = (lo, hi).

    f(lanes, x) gets the abscissae as rows of x (shape (n, 15)). A row's sums
    do not depend on the other rows, so a lane's numbers are the same in
    every batch.
    """
    half = np.array([0.5 * (hi - lo) for lo, hi in edges])[:, None]
    x = np.array([0.5 * (lo + hi) for lo, hi in edges])[:, None] + half * _F2_FINE_NODES
    y = np.asarray(f(np.array(lanes), x), dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        j = int(finite.all(axis=1).argmin())
        lo, hi = edges[j]
        raise _lane_failure(NonFiniteSample(f"integrand non-finite inside ({lo}, {hi})"), lanes[j])
    return (np.add.reduce(y[:, None, :] * _F2_PAIR_W, axis=2) * half).tolist()


def _integrate_lanes(f, a, b, tol, max_intervals: int) -> list[float]:
    """Greedy Fejer-2 integrals of independent lanes: lane i over (a[i], b[i]) to tol[i].

    f(lanes, x) returns the integrand of lane lanes[j] at the abscissae x[j],
    for every row j of x (shape (n, 15)); every a[i] < b[i]. Each lane keeps
    its own heap and bisects its own worst interval each round, so it takes
    exactly the steps of a one-lane run, and one round evaluates both halves
    of every active lane in one call of f. A failing lane raises
    MaxSubdivisionsExceeded or NonFiniteSample with its index as `lane`.
    """
    n = len(a)
    total, total_err, heaps = [], [], []
    for lo, hi, (fine, coarse) in zip(a, b, _pair_rows(f, range(n), list(zip(a, b)))):
        err = abs(fine - coarse)
        total.append(fine)
        total_err.append(err)
        heaps.append([(-err, 0, lo, hi, fine)])
    counter = [1] * n
    active = range(n)
    while active:
        split = []  # (lane, lo, mid, hi, estimate, -error) of each interval bisected this round
        for lane in active:
            heap = heaps[lane]
            while total_err[lane] > tol[lane] * (1.0 + abs(total[lane])):
                if counter[lane] >= max_intervals:
                    raise _lane_failure(MaxSubdivisionsExceeded(
                        f"subdivision budget {max_intervals} exhausted; "
                        f"estimate {total[lane]!r} with error bound {total_err[lane]!r}",
                        estimate=total[lane],
                        err_bound=total_err[lane],
                    ), lane)
                neg_err, _, lo, hi, est = heapq.heappop(heap)
                if neg_err >= 0.0:
                    # every remaining interval is at floating-point resolution; the
                    # accumulated budget cannot improve further
                    heapq.heappush(heap, (neg_err, counter[lane], lo, hi, est))
                    break
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    # interval at floating-point resolution; accept as-is
                    heapq.heappush(heap, (0.0, counter[lane], lo, hi, est))
                    counter[lane] += 1
                    total_err[lane] += neg_err  # remove this interval's error from the budget
                    continue
                split.append((lane, lo, mid, hi, est, neg_err))
                break
        if not split:
            break
        pairs = _pair_rows(
            f,
            [s[0] for s in split for _ in (0, 1)],
            [e for _, lo, mid, hi, _, _ in split for e in ((lo, mid), (mid, hi))],
        )
        for (lane, lo, mid, hi, est, neg_err), (f1, c1), (f2, c2) in zip(split, pairs[::2], pairs[1::2]):
            e1 = abs(f1 - c1)
            e2 = abs(f2 - c2)
            total[lane] += (f1 + f2) - est
            total_err[lane] += (e1 + e2) + neg_err
            c = counter[lane]
            heapq.heappush(heaps[lane], (-e1, c, lo, mid, f1))
            heapq.heappush(heaps[lane], (-e2, c + 1, mid, hi, f2))
            counter[lane] = c + 2
        active = [s[0] for s in split]
    return total


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    max_intervals: int = 4000,
) -> float:
    """Adaptive integral of f over (a, b) with absolute error <= tol*(1+|result|).

    Greedy global strategy: keep a heap of subintervals ranked by the embedded
    pair's error estimate and bisect the worst one. Endpoint singularities are
    admissible because the rule never samples a or b. f receives 1D arrays.
    """
    if not (tol > 0.0):
        raise ValidationError(f"tol must be > 0, got {tol}")
    if not (b > a):
        if b == a:
            return 0.0
        raise ValidationError(f"need a < b, got ({a}, {b})")

    def rows(_lanes, x):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)

    return _integrate_lanes(rows, [a], [b], [tol], max_intervals)[0]


# --- finite differences ---------------------------------------------------------

_CENTRAL_STENCILS = {
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
    4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
    5: ([-3, -2, -1, 1, 2, 3], [-0.5, 2.0, -2.5, 2.5, -2.0, 0.5]),
}


def _central(f, x: float, order: int, h: float) -> float:
    offs, coefs = _CENTRAL_STENCILS[order]
    return sum(c * f(x + o * h) for o, c in zip(offs, coefs)) / h**order


def fd_derivative(f, x: float, order: int, h: float) -> float:
    """Central-difference derivative with one Richardson step: O(h^4) for smooth f."""
    if order not in _CENTRAL_STENCILS:
        raise ValidationError(f"order must be in 1..5, got {order}")
    if not (h > 0.0):
        raise ValidationError(f"h must be > 0, got {h}")
    d_h = _central(f, x, order, h)
    d_h2 = _central(f, x, order, 0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0


def fd_laplacian(f, p: HalfPlanePoint, h: float) -> float:
    """Five-point Laplacian of a field f(x, y) at p; error O(h^2) for C^4 fields."""
    if not (h > 0.0):
        raise ValidationError(f"h must be > 0, got {h}")
    if p.y <= 2.0 * h:
        raise StencilLeavesDomain(
            f"point at y = {p.y} is within 2h = {2 * h} of the boundary"
        )
    x, y = p.x, p.y
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)) / (h * h)


# --- half-disk grid and L^p norms -----------------------------------------------

# Most nodes one half-disk grid may have (2048 x 2048); larger grids are refused
# up front instead of failing in the allocator. A `rates reg|sobolev` norm peaks
# at about 32 bytes a node (the field, its absolute value and two weighted
# temporaries; `ru_maxrss` growth over one norm on 512 x 512 and 1024 x 1024
# grids), so a norm at the limit needs about 135 MB.
MAX_GRID_POINTS = 2**22


@dataclass(frozen=True)
class GridSpec:
    """Polar tensor grid on the half-disk of radius R with origin-graded radii.

    Radial nodes are r_j = R*(j/nr)^grading for j = 1..nr (strictly increasing,
    first node > 0); angular nodes are phi midpoints in (0, pi).
    """

    R: float
    nr: int = 256
    nphi: int = 256
    grading: float = 2.0

    def __post_init__(self):
        if not (self.R > 0.0):
            raise ValidationError(f"R must be > 0, got {self.R}")
        if not (math.isfinite(self.R) and math.isfinite(self.grading)):
            raise ValidationError(f"R and grading must be finite, got R = {self.R}, grading = {self.grading}")
        if self.nr < 8 or self.nphi < 8:
            raise ValidationError(f"need nr, nphi >= 8, got ({self.nr}, {self.nphi})")
        if self.grading < 1.0:
            raise ValidationError(f"grading must be >= 1, got {self.grading}")
        if self.nr * self.nphi > MAX_GRID_POINTS:
            raise ValidationError(
                f"a {self.nr} x {self.nphi} grid exceeds the limit of {MAX_GRID_POINTS} nodes"
            )

    def radial_nodes(self) -> np.ndarray:
        s = np.arange(1, self.nr + 1) / self.nr
        return self.R * s**self.grading

    def radial_weights(self) -> np.ndarray:
        """Weights for integral_0^R phi(r) dr, valid for phi with phi(0) = 0.

        Composite rule in the flattening variable s = (r/R)^(1/grading), using
        the node set of radial_nodes plus the s = 0 endpoint whose term
        vanishes for such phi: Simpson weights when nr is even (exact for the
        graded measure with integer grading <= 3), trapezoid otherwise.
        """
        s = np.arange(1, self.nr + 1) / self.nr
        if self.nr % 2 == 0:
            c = np.empty(self.nr)
            c[0::2] = 4.0 / 3.0  # odd s-indices 1, 3, ...
            c[1::2] = 2.0 / 3.0  # even interior s-indices
            c[-1] = 1.0 / 3.0
        else:
            c = np.ones(self.nr)
            c[-1] = 0.5
        return (self.R * self.grading / self.nr) * c * s ** (self.grading - 1.0)

    def angular_nodes(self) -> np.ndarray:
        return (np.arange(self.nphi) + 0.5) * np.pi / self.nphi

    @property
    def angular_weight(self) -> float:
        return math.pi / self.nphi

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, phi) of shapes (nr, 1) and (1, nphi): broadcast, the grid's nodes."""
        return self.radial_nodes()[:, None], self.angular_nodes()[None, :]

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (nr, nphi); every node has y > 0."""
        r, phi = self.polar()
        return r * np.cos(phi), r * np.sin(phi)

    def refined(self) -> "GridSpec":
        """The refinement gate's grid: nr and nphi doubled, so 4x the nodes."""
        if 4 * self.nr * self.nphi > MAX_GRID_POINTS:
            raise ValidationError(
                f"the refinement gate's {2 * self.nr} x {2 * self.nphi} grid (the"
                f" {self.nr} x {self.nphi} grid doubled) exceeds the limit of {MAX_GRID_POINTS} nodes"
            )
        return GridSpec(self.R, 2 * self.nr, 2 * self.nphi, self.grading)


def golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximizer of f on [lo, hi] in 80 steps; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):  # shrinks [lo, hi] by 0.618^80, about 2e-17
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def ray_refined_max(f, grid: GridSpec, absV: np.ndarray) -> tuple[float, float, float, float]:
    """Sharpen the grid maximum of |f| by a golden-section search in r along its ray.

    f is a polar field f(r, phi) and absV is |f| on the grid's (r, phi) nodes.
    The search runs between the radial neighbours of the maximizing node, with
    one-point array calls f(r, phi). Returns (grid max, maximizing r on the
    ray, |f| there, |f| at r = R on the ray).
    """
    jmax, lmax = np.unravel_index(np.argmax(absV), absV.shape)
    r_nodes = grid.radial_nodes()
    phi = np.asarray([grid.angular_nodes()[lmax]])

    def along_ray(r):
        val = f(np.asarray([r]), phi)
        return abs(float(np.asarray(val).ravel()[0]))

    lo = r_nodes[jmax - 1] if jmax > 0 else 0.25 * r_nodes[0]
    hi = r_nodes[jmax + 1] if jmax + 1 < grid.nr else grid.R
    rstar, vstar = golden_max(along_ray, lo, hi)
    return float(absV[jmax, lmax]), rstar, vstar, along_ray(grid.R)


def norm_lp_halfdisk(f, grid: GridSpec, p: float) -> float:
    """L^p norm of a polar field f(r, phi) over the half-disk B_R^+, tensor quadrature.

    f is called once, on grid.polar(): the radial nodes as r (shape (nr, 1))
    and the angular nodes as phi (shape (1, nphi)). It must return the
    (nr, nphi) field, so a field that separates in r and phi is built from 1D
    tables by broadcasting. For p = inf the grid max is sharpened by a golden-section
    search in r along the maximizing ray, with one-point calls of f.
    """
    if not (p >= 1.0):
        raise ValidationError(f"p must be in [1, inf], got {p}")
    r, phi = grid.polar()
    with np.errstate(all="ignore"):  # a non-finite field is refused below, not warned about
        V = np.asarray(f(r, phi), dtype=float)
    if V.shape != (grid.nr, grid.nphi):
        raise ValidationError("field must evaluate elementwise on the grid")
    if not np.all(np.isfinite(V)):
        raise NonFiniteSample("field evaluated to a non-finite value on the grid")
    absV = np.abs(V)
    if math.isinf(p):
        with np.errstate(all="ignore"):
            grid_max, _, ray_max, edge = ray_refined_max(f, grid, absV)
        if not (math.isfinite(ray_max) and math.isfinite(edge)):
            raise NonFiniteSample("field evaluated to a non-finite value along the maximizing ray")
        return max(grid_max, ray_max, edge)
    wr = grid.radial_weights()
    integral = float(np.sum(absV**p * r * wr[:, None]) * grid.angular_weight)
    return integral ** (1.0 / p)


# --- straight-line fits ----------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through scatter data: slope, intercept, r^2."""

    slope: float
    intercept: float
    r_squared: float


def fit_linear(xs, ys) -> RateFit:
    """Least-squares line y ~ slope*x + intercept.

    The sums run on y in units of 2^e, the power of two just above max |y|.
    That scaling is exact, so the fit has the bits of an unscaled one, and
    r^2 stays right where sum((y - ym)^2) alone would overflow. NumericalError
    when the slope, intercept or r^2 is not finite, or when the residual sum
    of squares overflows in y's own units (residuals from about 1e154).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("xs and ys must be 1D arrays of equal length")
    if x.size < 3:
        raise ValidationError(f"need at least 3 points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDesign("all abscissae identical; cannot fit a line")
    with np.errstate(all="ignore"):  # an overflowed fit is refused below, not warned about
        e = math.frexp(float(np.max(np.abs(y))))[1]
        y = np.ldexp(y, -e)
        xm, ym = x.mean(), y.mean()
        sxx = float(np.sum((x - xm) ** 2))
        slope = float(np.sum((x - xm) * (y - ym)) / sxx)
        intercept = ym - slope * xm
        resid = y - (slope * x + intercept)
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - ym) ** 2))
        slope, intercept = float(np.ldexp(slope, e)), float(np.ldexp(intercept, e))
        ss_res_y = float(np.ldexp(ss_res, 2 * e))  # in y's own units
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res_y <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if not all(map(math.isfinite, (slope, intercept, r2, ss_res_y))):
        raise NumericalError(f"line fit is not finite: slope {slope:g}, intercept {intercept:g},"
                             f" r2 {r2:g}, residual sum of squares {ss_res_y:g}")
    return RateFit(slope, intercept, r2)


def fit_loglog(xs, ys) -> RateFit:
    """Least-squares line through (log x, log y); slope is the power-law exponent."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValidationError("fit_loglog needs strictly positive data")
    return fit_linear(np.log(x), np.log(y))


def bisect_root(f, lo: float, hi: float):
    """Root of f on [lo, hi] by bisection to 1e-13 relative; None if f does not change sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < 1e-13 * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
