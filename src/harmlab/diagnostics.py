"""Derivative closed form for the arctan component and slice diagnostics.

Write f_k(x) = arctan(x/y) * Re((x+iy)^k) with y fixed. Its (k+1)-th
x-derivative collapses to

    (k!/(2r)) * Im( e^{i phi} (1 - e^{-2i phi})^{k+1} ),

with (r, phi) the polar form of (x, y). The complex angle factor has modulus
(2 sin phi)^{k+1}, so the envelope decays like phi^{k+1} as phi -> 0 (the
imaginary part alone gains one extra order for odd k by parity).

The slice diagnostics probe the log component of the integer-power solution:
restricted to a ray y = x tan(theta) it is exactly
c * x^k log|x| + d * x^k with c = sec^k(theta) sin(k theta) / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateAngle, NumericalError, ValidationError
from .halfplane import HalfPlanePoint
from .line_barron import DifferentiableFunction1D, barron_norm_upper
from .solutions import _integer_parts

__all__ = [
    "dk1_angle_factor",
    "closed_form_dk1",
    "arctan_component",
    "SliceLogFit",
    "slice_log_fit",
    "SliceCriterionReport",
    "ur_slice_barron_check",
]


def dk1_angle_factor(phi, k: int):
    """Complex angle factor e^{i phi} (1 - e^{-2i phi})^{k+1}, vectorized."""
    if k < 1:
        raise ValidationError(f"k must be a positive integer, got {k}")
    phi = np.asarray(phi, dtype=float)
    return np.exp(1j * phi) * (1.0 - np.exp(-2j * phi)) ** (k + 1)


def _dk1_field(x, y, k: int):
    """(k+1)-th x-derivative of arctan(x/y) Re((x+iy)^k), closed form, vectorized."""
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    return math.factorial(k) / (2.0 * r) * dk1_angle_factor(phi, k).imag


def closed_form_dk1(p: HalfPlanePoint, k: int) -> float:
    """_dk1_field at one point."""
    return float(_dk1_field(p.x, p.y, k))


def arctan_component(x, y, k: int):
    """f_k(x) = arctan(x/y) Re((x+iy)^k), vectorized; the finite-difference target."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.arctan2(x, y) * ((x + 1j * y) ** k).real


@dataclass(frozen=True)
class SliceLogFit:
    """Least-squares coefficients of c x^k log x + d x^k along a ray."""

    c_fit: float
    d_fit: float
    residual: float


def slice_log_fit(k: int, theta: float) -> SliceLogFit:
    """Fit the log component along the ray y = x tan(theta) as c x^k log|x| + d x^k.

    The decomposition is an identity, so the residual sits at machine scale
    and c_fit recovers sec^k(theta) sin(k theta) / pi on both rays; angles
    beyond pi/2 address the reflected ray (x < 0). Angles with k*theta in
    pi*Z are rejected (the log coefficient vanishes there). From about k = 100
    the design is ill-conditioned, so it is solved by lstsq, and NumericalError
    is raised when the samples are not finite or the design has rank < 2.
    """
    if k < 1:
        raise ValidationError(f"k must be a positive integer, got {k}")
    if not (0.0 < theta < math.pi):
        raise ValidationError(f"theta must lie in (0, pi), got {theta}")
    if abs(math.cos(theta)) < 1e-12:
        raise ValidationError("theta = pi/2 has no x-parametrized ray")
    if abs(math.sin(k * theta)) <= 1e-6:
        raise DegenerateAngle(
            f"k*theta = {k * theta} is within 1e-6 of pi*Z; log coefficient vanishes"
        )
    t = np.logspace(-3, 0, 60)
    x = math.copysign(1.0, math.cos(theta)) * t
    y = x * math.tan(theta)  # positive on both branches
    with np.errstate(all="ignore"):
        ui = _integer_parts(x, y, k, 0.0)[1]
        basis = np.column_stack([x**k * np.log(t), x**k])
        if not (np.all(np.isfinite(ui)) and np.all(np.isfinite(basis))):
            raise NumericalError(f"the log part along the ray is not finite in double precision at k = {k}")
        coef, _, rank, _ = np.linalg.lstsq(basis, ui, rcond=None)
        if rank < 2:
            raise NumericalError(f"x^k log|x| and x^k are numerically dependent on the ray at k = {k}")
        residual = float(np.max(np.abs(basis @ coef - ui)))
    return SliceLogFit(float(coef[0]), float(coef[1]), residual)


@dataclass(frozen=True)
class SliceCriterionReport:
    """Weighted criterion integral of the arctan-component slice at y = 1.

    `value` integrates |d^(k+1) ((1/2 + arctan/pi) Re((xi+i)^k))| (1+|xi|^k)
    over the whole line; `cutoff_values` are the same integral truncated to
    [-T, T] for each T in `cutoffs` (1e2, 1e3, 1e4). Finiteness certifies the
    representation criterion for this component.
    """

    k: int
    value: float
    cutoffs: tuple[float, ...]
    cutoff_values: tuple[float, ...]


def ur_slice_barron_check(k: int, tol: float = 1e-10) -> SliceCriterionReport:
    """Evaluate the slice criterion integral by barron_norm_upper; the polynomial part contributes zero.

    The integrand decays like |xi|^(k-1) * |xi|^(-(k+1)) ~ xi^(-2) after the
    weight, so the full-line value is finite and cutoff truncations approach
    it at rate 1/T.
    """
    if k < 1:
        raise ValidationError(f"k must be a positive integer, got {k}")
    # the (k+1)-th derivative of the arctan part
    df = DifferentiableFunction1D(lambda xi: _dk1_field(xi, 1.0, k) / math.pi, k, (-math.inf, math.inf))
    cutoffs = (1e2, 1e3, 1e4)
    cuts = tuple(barron_norm_upper(replace(df, support=(-T, T)), tol) for T in cutoffs)
    return SliceCriterionReport(k, barron_norm_upper(df, tol), cutoffs, cuts)
