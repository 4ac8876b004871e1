"""Reference implementations for the half-disk norm tests.

`norm_lp_2d` is the tensor quadrature that `numerics.norm_lp_halfdisk` used
before it took polar product fields: it sums |V|^p over the full nr x nphi
grid, and for p = inf sharpens the grid maximum along its ray by a
golden-section search of its own, independent of the library's ray search. It
takes a plain field g(r, phi) that returns the (nr, nphi) array;
`magnitude(f)` turns a polar product field into one.
"""

import math

import numpy as np

from harmlab.errors import NonFiniteSample


def component_values(f, r, phi) -> list[np.ndarray]:
    """sum_i R_ci Q_ci for each component c of the product field f, broadcast over (r, phi)."""
    shape = np.broadcast(r, phi).shape
    out = []
    for terms in f(r, phi):
        V = np.zeros(shape)
        for R, Q in terms:
            V = V + np.asarray(R, dtype=float) * np.asarray(Q, dtype=float)
        out.append(V)
    return out


def magnitude(f):
    """The plain field |V| = sqrt(sum_c V_c^2) of the product field f."""

    def g(r, phi):
        values = component_values(f, r, phi)
        return np.abs(values[0]) if len(values) == 1 else np.sqrt(sum(V * V for V in values))

    return g


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


def _ray_refined_max(f, grid, absV):
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


def norm_lp_2d(g, grid, p: float) -> float:
    """L^p norm of the plain field g(r, phi) on the grid, summed node by node."""
    r, phi = grid.polar()
    with np.errstate(all="ignore"):
        V = np.asarray(g(r, phi), dtype=float)
    assert V.shape == (grid.nr, grid.nphi)
    if not np.all(np.isfinite(V)):
        raise NonFiniteSample("field evaluated to a non-finite value on the grid")
    absV = np.abs(V)
    if math.isinf(p):
        grid_max, _, ray_max, edge = _ray_refined_max(g, grid, absV)
        return max(grid_max, ray_max, edge)
    wr = grid.radial_weights()
    integral = float(np.sum(absV**p * r * wr[:, None]) * grid.angular_weight)
    return integral ** (1.0 / p)
