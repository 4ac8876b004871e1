"""Half-plane points and the principal branch of the closed forms on them.

The closed forms take z^alpha from numpy's principal-branch power; these tests
check that branch through `u_fractional_field` and `u_integer_field`.
"""

import math

import numpy as np
import pytest

from harmlab import HalfPlanePoint, ValidationError
from harmlab.solutions import u_fractional_field, u_integer_field


def _closed_form(alpha):
    """u_integer_field for an integer power, u_fractional_field otherwise."""
    if float(alpha).is_integer():
        return lambda X, Y: u_integer_field(X, Y, int(alpha))
    return lambda X, Y: u_fractional_field(X, Y, alpha)


def _cot(alpha):
    return 0.0 if float(alpha).is_integer() else 1.0 / math.tan(math.pi * alpha)


def test_boundary_points_rejected():
    with pytest.raises(ValidationError):
        HalfPlanePoint(1.0, 0.0)
    with pytest.raises(ValidationError):
        HalfPlanePoint(0.0, -0.1)
    with pytest.raises(ValidationError):
        HalfPlanePoint(math.nan, 1.0)
    with pytest.raises(ValidationError):
        HalfPlanePoint(1.0, math.inf)


def test_power_trivial_values():
    # i^2 = -1 and (1+i)^2 = 2i; sqrt(i) = (1+i)/sqrt(2) and cot(pi/2) = 0
    assert float(u_integer_field(0.0, 1.0, 2)) == pytest.approx(-0.5, abs=1e-15)
    assert float(u_integer_field(1.0, 1.0, 2)) == pytest.approx(-math.log(2) / math.pi, rel=1e-15)
    assert float(u_fractional_field(0.0, 1.0, 0.5)) == pytest.approx(math.sqrt(2) / 2, rel=1e-15)


def test_integer_power_matches_repeated_multiplication():
    # Oracle: u_k from repeated complex multiplication of (x, y) as a Python complex.
    rng = np.random.default_rng(11)
    r = 10.0 ** rng.uniform(-3, 3, 300)
    phi = rng.uniform(1e-6, math.pi - 1e-6, 300)
    X, Y = r * np.cos(phi), r * np.sin(phi)
    for k in range(1, 9):
        U = u_integer_field(X, Y, k)
        for x, y, u in zip(X, Y, U):
            z = complex(x, y)
            prod = 1 + 0j
            for _ in range(k):
                prod *= z
            logr = math.log(abs(z))
            want = (math.atan2(x, y) / math.pi + 0.5) * prod.real - logr / math.pi * prod.imag
            assert u == pytest.approx(want, abs=1e-13 * abs(prod) * (1.0 + abs(logr)))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 3.0])
def test_branch_continuity_along_arcs(alpha):
    # dense sampling across phi = pi/2: no jumps anywhere on (0, pi)
    phis = np.linspace(1e-4, math.pi - 1e-4, 4001)
    u = _closed_form(alpha)
    for r in (0.3, 1.0, 3.0):
        vals = u(r * np.cos(phis), r * np.sin(phis))
        # |du/dphi| <= r^alpha (alpha (1 + |cot|) + |log r| alpha + 1/pi) on the arc of radius r
        slope = r**alpha * (alpha * (1.0 + abs(_cot(alpha)) + abs(math.log(r))) + 1.0 / math.pi)
        assert np.max(np.abs(np.diff(vals))) < 1.1 * slope * (phis[1] - phis[0])


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_power_homogeneity(lam):
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, 100)
    Y = rng.uniform(0.05, 2, 100)
    for alpha in rng.uniform(0.1, 4.0, 20):
        u = u_fractional_field(X, Y, alpha)
        u_s = u_fractional_field(lam * X, lam * Y, alpha)
        bound = 1e-12 * lam**alpha * np.hypot(X, Y) ** alpha * (1.0 + abs(_cot(alpha)))
        assert np.all(np.abs(u_s - lam**alpha * u) <= bound)


def test_power_rejects_nonpositive_alpha():
    for alpha in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValidationError):
            u_fractional_field(1.0, 1.0, alpha)


@pytest.mark.parametrize("y", [0.0, -0.0])
def test_power_on_real_axis_is_limit_from_above(y):
    # on y = 0 (either sign of zero) the closed forms continue the branch from y > 0
    for x in (-1.5, 2.0):
        for alpha in (0.5, 1.7, 2.0, 3.0):
            u = _closed_form(alpha)
            scale = abs(x) ** alpha
            assert float(u(x, y)) == pytest.approx(float(u(x, 1e-13)), abs=1e-12 * scale)
            assert float(u(x, y)) == pytest.approx(max(x, 0.0) ** alpha, abs=1e-15 * scale)
    assert float(u_fractional_field(0.0, y, 2.5)) == 0.0
