"""Closed-form harmonic extensions of ReLU^alpha boundary data on the half-plane.

Integer powers k get

    u_k(x, y) = (arctan(x/y)/pi + 1/2) * Re((x+iy)^k) - (log r / pi) * Im((x+iy)^k),

non-integer powers get

    u_alpha(x, y) = Re((x+iy)^alpha) - cot(pi*alpha) * Im((x+iy)^alpha),

both with the principal branch continued from the positive real axis. The
regularized family u_{eps,k} replaces log(r^2) by log(r^2 + eps^2) in the
integer formula and extends to the closed half-plane; it is 0 at the origin,
and where r^2 + eps^2 overflows its log is 2 log(hypot(r, eps)).

Each closed form has one numpy implementation (the `*_field` functions),
elementwise over arrays. The scalar evaluators return that same formula as a
float at one point; only `eval_u_half` and `eval_u_three_half` are separate
algebraic forms, kept as reference values for the alpha = 1/2, 3/2 branch.

Where x < 0 the Heaviside, integer, fractional and algebraic forms measure
the angle from the negative axis, psi = arctan2(y, -x), or use r - x instead
of r + x, so none of them cancels near that axis; every x >= 0 value keeps
the plain form above.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ValidationError
from .halfplane import HalfPlanePoint

__all__ = [
    "eval_u_integer",
    "eval_u_fractional",
    "eval_u_half",
    "eval_u_three_half",
    "eval_heaviside",
    "eval_u_reg",
    "u_integer_field",
    "u_fractional_field",
    "heaviside_field",
    "reg_diff_value",
    "reg_diff_gradient",
    "reg_diff_hessian",
]

_NEAR_INT_CUTOFF = 1e-9


def _check_fractional(alpha: float) -> None:
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    if abs(alpha - round(alpha)) <= _NEAR_INT_CUTOFF:
        raise ValidationError(
            f"alpha = {alpha} is within 1e-9 of an integer; cot(pi*alpha) is not usable"
        )


def _check_k(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")


def _check_reg_args(epsilon: float, k: int) -> None:
    _check_k(k)
    if not (epsilon > 0.0):
        raise ValidationError(f"epsilon must be > 0, got {epsilon}")
    if epsilon == math.inf:
        raise ValidationError(f"epsilon must be finite, got {epsilon}")


# --- the closed forms, one numpy body each ---------------------------------------


def heaviside_field(X, Y):
    """Harmonic extension of the Heaviside step: arctan(x/y)/pi + 1/2, in (0, 1).

    On y = 0 this is the Heaviside convention 1 / 1/2 / 0 for x > / = / < 0.
    Where x < 0 it is arctan2(y, -x)/pi, which does not cancel near that axis.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.where(X < 0.0, np.arctan2(Y, -X) / np.pi, _arctan_part(X, Y))


def _arctan_part(X, Y):
    """arctan(x/y)/pi + 1/2 on arrays, the Heaviside extension's form for x >= 0."""
    return np.arctan2(X, Y) / np.pi + 0.5


def _integer_parts(X, Y, k: int, eps: float):
    """(arctan part, log part) of u_k (eps = 0) or of u_{eps,k}.

    The function is their difference; log(r^2 + eps^2)/(2*pi) is log(r)/pi at
    eps = 0. Where r^2 + eps^2 overflows, the log is 2 log(hypot(r, eps)).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    W = (X + 1j * Y) ** k
    A = X * X + Y * Y + eps * eps
    log = np.where(np.isinf(A), 2.0 * np.log(np.hypot(np.hypot(X, Y), eps)), np.log(A))
    return _arctan_part(X, Y) * W.real, log / (2.0 * np.pi) * W.imag


def u_integer_field(X, Y, k: int):
    """Harmonic extension of ReLU^k boundary data, integer k >= 1, for Y > 0.

    Where x < 0 it is (-1)^k r^k (psi cos(k psi) + log(r) sin(k psi)) / pi with
    psi = arctan2(y, -x): the same function without the cancellation of the
    arctan and log parts near that axis.
    """
    _check_k(k)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    arc, log = _integer_parts(X, Y, k, 0.0)
    r, psi = np.hypot(X, Y), np.arctan2(Y, -X)
    left = (-1) ** k * r**k * (psi * np.cos(k * psi) + np.log(r) * np.sin(k * psi)) / np.pi
    return np.where(X < 0.0, left, arc - log)


def u_fractional_field(X, Y, alpha: float):
    """Harmonic extension of ReLU^alpha boundary data, alpha > 0 non-integer, for Y > 0.

    This is the unique alpha-homogeneous harmonic function with boundary
    values ReLU^alpha(x); the coefficient -cot(pi*alpha) on the imaginary
    part is forced by the vanishing on the negative axis. Where x < 0 it is
    r^alpha sin(alpha psi) / sin(pi alpha) with psi = arctan2(y, -x), the same
    function without the cancellation of those two parts near that axis.
    """
    _check_fractional(alpha)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    W = (X + 1j * Y) ** alpha  # numpy principal branch; arg in (0, pi) on the half-plane
    sin = math.sin(math.pi * alpha)
    cot = math.cos(math.pi * alpha) / sin
    left = np.hypot(X, Y) ** alpha * np.sin(alpha * np.arctan2(Y, -X)) / sin
    return np.where(X < 0.0, left, W.real - cot * W.imag)


# --- scalar evaluators -------------------------------------------------------------


def eval_u_integer(p: HalfPlanePoint, k: int) -> float:
    """u_integer_field at one interior point."""
    return float(u_integer_field(p.x, p.y, k))


def eval_u_fractional(p: HalfPlanePoint, alpha: float) -> float:
    """u_fractional_field at one interior point."""
    return float(u_fractional_field(p.x, p.y, alpha))


def eval_u_half(p: HalfPlanePoint) -> float:
    """Closed algebraic form sqrt((r + x)/2) of the alpha = 1/2 extension; y/sqrt(2(r - x)) where x < 0."""
    r = math.hypot(p.x, p.y)
    if p.x < 0.0:
        return p.y / math.sqrt(2.0 * (r - p.x))
    return math.sqrt(0.5 * (r + p.x))


def eval_u_three_half(p: HalfPlanePoint) -> float:
    """Closed algebraic form of the alpha = 3/2 extension (triple-angle identity).

    With c = (r + x)/2 and s = (r - x)/2; where x < 0, c = y^2/(4s), since c s = y^2/4,
    and where that c underflows the value is -3/2 y sqrt(s), c sqrt(c) being negligible.
    """
    r = math.hypot(p.x, p.y)
    if p.x >= 0.0:
        c, s = 0.5 * (r + p.x), 0.5 * (r - p.x)
    else:
        s = 0.5 * r - 0.5 * p.x  # 0.5 * (r - x) overflows from x = -9e307
        c = p.y * (p.y / (4.0 * s))
        if c < sys.float_info.min:
            return -1.5 * p.y * math.sqrt(s)
    return c * math.sqrt(c) - 3.0 * math.sqrt(c) * s


def eval_heaviside(p: HalfPlanePoint) -> float:
    """heaviside_field at one interior point."""
    return float(heaviside_field(p.x, p.y))


def eval_u_reg(x: float, y: float, epsilon: float, k: int) -> float:
    """Regularized integer-power solution, finite on the closed half-plane.

    Same arctan prefactor as eval_u_integer (Heaviside convention at y = 0),
    with log(x^2 + y^2 + eps^2)/(2*pi) in place of log(r)/pi. Not harmonic for
    eps > 0; converges pointwise to eval_u_integer as eps -> 0 when y > 0.
    """
    _check_reg_args(epsilon, k)
    if y < 0.0:
        raise ValidationError(f"eval_u_reg needs y >= 0, got y = {y}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"non-finite point ({x}, {y})")
    if x == 0.0 and y == 0.0:
        return 0.0  # z^k = 0, though eps^2 may underflow and log(eps^2) with it
    arc, log = _integer_parts(x, y, k, epsilon)
    return float(arc - log)


# --- regularization error v = u_{eps,k} - u_k and its derivatives -------------
#
# With A = r^2 + eps^2, B = r^2, Q = Im(z^k):
#   v = -(1/2pi) * D * Q,                    D = log(A) - log(B) = log1p(eps^2/B)
#   D_x = 2x G,  D_y = 2y G,                 G = 1/A - 1/B = -eps^2/(A B)
#   D_xx = 2G - 4x^2 H, D_xy = -4xy H,       H = 1/A^2 - 1/B^2 = -eps^2 (A+B)/(A B)^2
#   D_yy = 2G - 4y^2 H
# and Q-derivatives follow from d/dx z^k = k z^(k-1), d/dy z^k = i k z^(k-1).
# The G, H forms are cancellation-free, which matters for eps^2 << r^2.


def _reg_diff(X, Y, epsilon: float, k: int, order: int):
    """v, (v_x, v_y) or (v_xx, v_xy, v_yy) for order 0, 1 or 2: the one body of all three."""
    _check_reg_args(epsilon, k)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    e2 = epsilon * epsilon
    B = X * X + Y * Y
    # Zp[j] = z^(k-order+j), negative powers 0. A fresh z = X + 1j*Y per use is a
    # temporary numpy can reuse; np.multiply keeps the operand order that `*` on
    # a temporary may swap (complex products are not bitwise commutative).
    Zp = [(X + 1j * Y) ** max(k - order, 0)]
    for _ in range(min(k, order)):
        Zp.append(np.multiply(Zp[-1], X + 1j * Y))
    if k < order:
        Zp.insert(0, np.zeros_like(Zp[0]))
    Q = Zp[-1].imag
    D = np.log1p(e2 / B)
    c = -(0.5 / np.pi)
    if order == 0:
        return c * D * Q
    Qx = k * Zp[-2].imag
    Qy = k * Zp[-2].real
    A = B + e2
    G = -e2 / (A * B)
    if order == 1:
        return c * (2.0 * X * G * Q + D * Qx), c * (2.0 * Y * G * Q + D * Qy)
    kk1 = k * (k - 1)
    Qxx = kk1 * Zp[0].imag
    Qxy = kk1 * Zp[0].real
    Qyy = -Qxx
    AB = A * B
    H = -e2 * (A + B) / (AB * AB)
    vxx = c * ((2.0 * G - 4.0 * X * X * H) * Q + 4.0 * X * G * Qx + D * Qxx)
    vxy = c * (-4.0 * X * Y * H * Q + 2.0 * X * G * Qy + 2.0 * Y * G * Qx + D * Qxy)
    vyy = c * ((2.0 * G - 4.0 * Y * Y * H) * Q + 4.0 * Y * G * Qy + D * Qyy)
    return vxx, vxy, vyy


def reg_diff_value(X, Y, epsilon: float, k: int):
    """v = u_{eps,k} - u_k = -(1/2pi) log(1 + eps^2/r^2) Im(z^k), vectorized."""
    return _reg_diff(X, Y, epsilon, k, 0)


def reg_diff_gradient(X, Y, epsilon: float, k: int):
    """(v_x, v_y) of the regularization error, closed form, vectorized."""
    return _reg_diff(X, Y, epsilon, k, 1)


def reg_diff_hessian(X, Y, epsilon: float, k: int):
    """(v_xx, v_xy, v_yy) of the regularization error, closed form, vectorized."""
    return _reg_diff(X, Y, epsilon, k, 2)
