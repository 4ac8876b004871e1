"""Test oracles: finite differences, a bisection root finder and two probes.

Nothing in harmlab reads these; the tests check the library against them.
`fd_derivative` and `fd_laplacian` are the central-difference oracles for the
closed forms' derivatives and harmonicity. `arctan_component` is the function
whose (k+1)-th x-derivative `diagnostics._dk1_field` gives in closed form.
`interior_critical_radius` and `reg_linf_maximizer_radius` probe where the
sup norm of the regularization error sits.
"""

import math

import numpy as np

from harmlab.errors import ValidationError
from harmlab.experiments import _reg_field
from harmlab.numerics import GridSpec, ray_refined_max

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


def fd_laplacian(f, p, h: float) -> float:
    """Five-point Laplacian of a field f(x, y) at the HalfPlanePoint p; error O(h^2) for C^4 fields."""
    if not (h > 0.0):
        raise ValidationError(f"h must be > 0, got {h}")
    if p.y <= 2.0 * h:
        raise ValidationError(
            f"point at y = {p.y} is within 2h = {2 * h} of the boundary"
        )
    x, y = p.x, p.y
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)) / (h * h)


def arctan_component(x, y, k: int):
    """f_k(x) = arctan(x/y) Re((x+iy)^k), vectorized; the finite-difference target."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.arctan2(x, y) * ((x + 1j * y) ** k).real


# --- the sup norm's maximizer -----------------------------------------------------


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


def interior_critical_radius(k: int, epsilon: float, R: float):
    """Root of k*log(1+eps^2/r^2) = 2 eps^2/(r^2+eps^2) in (0, R), or None.

    This is the interior stationarity condition of r^k log(1+eps^2/r^2); for
    k >= 2 the left side dominates, so the sup-norm maximizer sits at r = R.
    """
    e2 = epsilon * epsilon

    def g(r):
        return k * math.log1p(e2 / (r * r)) - 2.0 * e2 / (r * r + e2)

    return bisect_root(g, 1e-6 * epsilon + 1e-300, R)


def reg_linf_maximizer_radius(k: int, epsilon: float, grid: GridSpec) -> float:
    """Measured radius maximizing |u_{eps,k} - u_k| on the grid (refined in r)."""
    _, rstar, vstar, edge = ray_refined_max(_reg_field(k, epsilon, 0), grid)
    return grid.R if edge >= vstar else rstar
