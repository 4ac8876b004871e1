"""Geometry of the open upper half-plane and principal-branch complex powers.

Points live in {(x, y) : y > 0}. The principal branch fixes the argument
phi = 0 on the positive real axis and continues it through (0, pi) across the
half-plane, so z^alpha = r^alpha * exp(i*alpha*phi) is single-valued here for
every real alpha > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["HalfPlanePoint", "PolarPoint", "to_polar", "complex_power", "power_re_im"]


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point (x, y) with y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"non-finite point ({self.x}, {self.y})")
        if self.y <= 0.0:
            raise ValidationError(f"point must satisfy y > 0, got y = {self.y}")

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        # atan2 lands in (0, pi) automatically for y > 0
        return math.atan2(self.y, self.x)


@dataclass(frozen=True)
class PolarPoint:
    """Polar form (r, phi) of an interior point, phi in (0, pi)."""

    r: float
    phi: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValidationError(f"interior point needs r > 0, got r = {self.r}")
        if not (0.0 < self.phi < math.pi):
            raise ValidationError(f"phi must lie in (0, pi), got phi = {self.phi}")

    def to_cartesian(self) -> HalfPlanePoint:
        return HalfPlanePoint(self.r * math.cos(self.phi), self.r * math.sin(self.phi))


def to_polar(p: HalfPlanePoint) -> PolarPoint:
    """Polar form of an interior point; round-trips to Cartesian within 1e-14."""
    return PolarPoint(p.r, p.phi)


def power_re_im(x: float, y: float, alpha: float) -> tuple[float, float]:
    """(Re, Im) of (x + iy)^alpha under the principal branch, for y >= 0.

    One polar code path for all alpha; on the real axis it gives the limit
    from the upper half-plane (phi = 0 or pi).
    """
    if y < 0.0:
        raise ValidationError(f"power_re_im needs y >= 0, got y = {y}")
    r = math.hypot(x, y)
    if r == 0.0:
        return (0.0, 0.0)
    phi = math.atan2(abs(y), x)  # abs: y = -0.0 takes the upper limit too
    ra = math.exp(alpha * math.log(r))
    return (ra * math.cos(alpha * phi), ra * math.sin(alpha * phi))


def complex_power(p: HalfPlanePoint, alpha: float) -> tuple[float, float]:
    """(Re((x+iy)^alpha), Im((x+iy)^alpha)) with the principal branch.

    For integer alpha this agrees with repeated complex multiplication to
    1e-13 relative; homogeneity (lambda*p -> lambda^alpha scaling) is exact up
    to rounding because everything runs through exp(alpha*log r).
    """
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    return power_re_im(p.x, p.y, alpha)
