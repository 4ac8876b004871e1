"""Points of the open upper half-plane {(x, y) : y > 0}.

The closed forms in `harmlab.solutions` take their scalar arguments as a
`HalfPlanePoint`, which refuses points on or below the real axis and
non-finite coordinates before any numerics run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["HalfPlanePoint"]


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
