"""Geometry and principal-branch power tests."""

import math

import numpy as np
import pytest

from harmlab import HalfPlanePoint, PolarPoint, ValidationError, complex_power, to_polar
from harmlab.halfplane import power_re_im


def test_polar_axis_point():
    pp = to_polar(HalfPlanePoint(0.0, 1.0))
    assert pp.r == pytest.approx(1.0, abs=0)
    assert pp.phi == pytest.approx(math.pi / 2, rel=1e-15)


def test_polar_diagonals():
    pp = to_polar(HalfPlanePoint(1.0, 1.0))
    assert pp.r == pytest.approx(math.sqrt(2), rel=1e-15)
    assert pp.phi == pytest.approx(math.pi / 4, rel=1e-15)
    pm = to_polar(HalfPlanePoint(-1.0, 1.0))
    assert pm.r == pytest.approx(math.sqrt(2), rel=1e-15)
    assert pm.phi == pytest.approx(3 * math.pi / 4, rel=1e-15)


def test_polar_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = HalfPlanePoint(rng.uniform(-5, 5), rng.uniform(1e-3, 5))
        q = to_polar(p).to_cartesian()
        assert q.x == pytest.approx(p.x, rel=1e-14, abs=1e-14 * p.r)
        assert q.y == pytest.approx(p.y, rel=1e-14, abs=1e-14 * p.r)


def test_boundary_points_rejected():
    with pytest.raises(ValidationError):
        HalfPlanePoint(1.0, 0.0)
    with pytest.raises(ValidationError):
        HalfPlanePoint(0.0, -0.1)
    with pytest.raises(ValidationError):
        PolarPoint(1.0, math.pi)
    with pytest.raises(ValidationError):
        PolarPoint(0.0, 1.0)


def test_power_trivial_values():
    re, im = complex_power(HalfPlanePoint(0.0, 1.0), 2)
    assert re == pytest.approx(-1.0, abs=1e-15)
    assert im == pytest.approx(0.0, abs=1e-15)
    re, im = complex_power(HalfPlanePoint(1.0, 1.0), 2)
    assert re == pytest.approx(0.0, abs=1e-15)
    assert im == pytest.approx(2.0, rel=1e-15)
    re, im = complex_power(HalfPlanePoint(0.0, 1.0), 0.5)
    assert re == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    assert im == pytest.approx(math.sqrt(2) / 2, rel=1e-15)


def test_integer_power_matches_repeated_multiplication():
    # Oracle: repeated complex multiplication of (x, y) as a Python complex.
    rng = np.random.default_rng(11)
    for _ in range(300):
        r = 10.0 ** rng.uniform(-3, 3)
        phi = rng.uniform(1e-6, math.pi - 1e-6)
        p = HalfPlanePoint(r * math.cos(phi), r * math.sin(phi))
        k = int(rng.integers(1, 9))
        z = complex(p.x, p.y)
        prod = 1 + 0j
        for _ in range(k):
            prod *= z
        re, im = complex_power(p, k)
        scale = abs(prod)
        assert re == pytest.approx(prod.real, abs=1e-13 * scale)
        assert im == pytest.approx(prod.imag, abs=1e-13 * scale)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 3.0])
def test_branch_continuity_along_arcs(alpha):
    # dense sampling across phi = pi/2: no jumps anywhere on (0, pi)
    phis = np.linspace(1e-4, math.pi - 1e-4, 4001)
    vals = np.array(
        [complex_power(HalfPlanePoint(math.cos(t), math.sin(t)), alpha) for t in phis]
    )
    steps = np.abs(np.diff(vals[:, 0])) + np.abs(np.diff(vals[:, 1]))
    # max increment of a smooth curve sampled this finely stays tiny
    assert np.max(steps) < 2.5 * alpha * (phis[1] - phis[0])


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_power_homogeneity(lam):
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        alpha = rng.uniform(0.1, 4.0)
        re, im = complex_power(p, alpha)
        re_s, im_s = complex_power(HalfPlanePoint(lam * p.x, lam * p.y), alpha)
        scale = lam**alpha * math.hypot(re, im)
        assert re_s == pytest.approx(lam**alpha * re, abs=1e-12 * scale)
        assert im_s == pytest.approx(lam**alpha * im, abs=1e-12 * scale)


def test_power_rejects_nonpositive_alpha():
    with pytest.raises(ValidationError):
        complex_power(HalfPlanePoint(1.0, 1.0), 0.0)


@pytest.mark.parametrize("y", [0.0, -0.0])
def test_power_on_real_axis_is_limit_from_above(y):
    # one polar path for every alpha: on y = 0 it continues the branch from y > 0
    for x in (-1.5, 2.0):
        for alpha in (0.5, 2.0, 3.0):
            re, im = power_re_im(x, y, alpha)
            re_up, im_up = complex_power(HalfPlanePoint(x, 1e-13), alpha)
            scale = abs(x) ** alpha
            assert re == pytest.approx(re_up, abs=1e-12 * scale)
            assert im == pytest.approx(im_up, abs=1e-12 * scale)
    assert power_re_im(0.0, y, 2.5) == (0.0, 0.0)
