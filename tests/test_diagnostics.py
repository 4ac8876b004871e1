"""Closed-form derivative of the arctan component and the ray-slice diagnostics."""

import math

import numpy as np
import pytest

from harmlab import (
    DegenerateAngle,
    HalfPlanePoint,
    NumericalError,
    ValidationError,
    closed_form_dk1,
    dk1_angle_factor,
    fd_derivative,
    fit_loglog,
    slice_log_fit,
    ur_slice_barron_check,
)
from harmlab.diagnostics import arctan_component


def test_dk1_axis_value():
    # f_1(x) = x arctan(x) at y = 1 has second derivative 2 at the origin
    assert closed_form_dk1(HalfPlanePoint(0.0, 1.0), 1) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dk1_matches_fd_oracle(k):
    rng = np.random.default_rng(53)
    h = {1: 1e-2, 2: 1e-2, 3: 2e-2}[k]
    for _ in range(20):
        x = rng.uniform(-2, 2)
        y = rng.uniform(0.5, 2)
        p = HalfPlanePoint(x, y)
        want = closed_form_dk1(p, k)
        got = fd_derivative(lambda t: float(arctan_component(t, y, k)), x, k + 1, h)
        assert got == pytest.approx(want, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dk1_small_angle_envelope(k):
    # |angle factor| = (2 sin phi)^(k+1): log-log slope k+1 as phi -> 0
    phis = np.logspace(-1, -3, 9)
    mags = np.abs(dk1_angle_factor(phis, k))
    fit = fit_loglog(phis, mags)
    assert fit.slope == pytest.approx(k + 1, abs=0.1)


def test_dk1_imag_part_parity():
    # for odd k the imaginary part alone decays one order faster (phi^(k+2))
    phis = np.logspace(-1, -3, 9)
    for k, expected in ((1, 3.0), (2, 3.0), (3, 5.0), (4, 5.0)):
        ims = np.abs(dk1_angle_factor(phis, k).imag)
        fit = fit_loglog(phis, ims)
        assert fit.slope == pytest.approx(expected, abs=0.1)


def test_slice_log_fit_constants():
    res = slice_log_fit(2, math.pi / 4)
    assert res.c_fit == pytest.approx(2.0 / math.pi, rel=1e-6)
    assert res.residual <= 1e-10
    res = slice_log_fit(1, math.pi / 4)
    assert res.c_fit == pytest.approx(1.0 / math.pi, rel=1e-6)
    assert res.residual <= 1e-10


@pytest.mark.parametrize(
    "k,theta",
    [(1, math.pi / 4), (2, math.pi / 4), (2, 1.0), (3, 0.5), (4, 0.3), (1, 1.2)],
)
def test_slice_log_fit_matches_formula(k, theta):
    res = slice_log_fit(k, theta)
    expected_c = (1.0 / math.cos(theta)) ** k * math.sin(k * theta) / math.pi
    expected_d = expected_c * math.log(1.0 / math.cos(theta))
    assert res.c_fit == pytest.approx(expected_c, rel=1e-6)
    assert res.d_fit == pytest.approx(expected_d, rel=1e-5, abs=1e-12)
    assert res.residual <= 1e-10


def test_slice_degenerate_angles():
    with pytest.raises(DegenerateAngle):
        slice_log_fit(3, math.pi / 3)  # k*theta = pi
    with pytest.raises(DegenerateAngle):
        slice_log_fit(2, math.pi / 2 + 1e-9)  # cos guard aside, sin(k theta) ~ 0
    with pytest.raises(ValidationError):
        slice_log_fit(2, -0.3)


def test_slice_reflected_angle_antisymmetry():
    # even k: swapping theta -> pi - theta flips the sign of the log coefficient
    for k, theta in ((2, 0.6), (4, 0.35)):
        c_plus = slice_log_fit(k, theta).c_fit
        c_minus = slice_log_fit(k, math.pi - theta).c_fit
        assert c_minus == pytest.approx(-c_plus, rel=1e-9)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("theta", [2.0, 2.5])
def test_slice_log_fit_reflected_ray_odd_k(k, theta):
    # the fit is in x, so c keeps the formula's sign on the reflected ray
    res = slice_log_fit(k, theta)
    expected_c = (1.0 / math.cos(theta)) ** k * math.sin(k * theta) / math.pi
    expected_d = expected_c * math.log(1.0 / abs(math.cos(theta)))
    assert res.c_fit == pytest.approx(expected_c, rel=1e-9)
    assert res.d_fit == pytest.approx(expected_d, rel=1e-9)
    assert res.residual <= 1e-10 * abs(expected_c)


def test_slice_log_fit_large_k_is_well_conditioned():
    # the design's condition number is about 1e11 here, so its normal equations fail
    res = slice_log_fit(200, 0.3)
    expected_c = (1.0 / math.cos(0.3)) ** 200 * math.sin(200 * 0.3) / math.pi
    assert res.c_fit == pytest.approx(expected_c, rel=1e-9)


@pytest.mark.parametrize("k,reason", [(300, "numerically dependent"), (100000, "not finite")])
def test_slice_log_fit_unresolvable_k_raises(k, reason):
    with pytest.raises(NumericalError, match=reason):
        slice_log_fit(k, 0.3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_criterion_integral_finite_and_cutoff_converging(k):
    rep = ur_slice_barron_check(k)
    assert math.isfinite(rep.value) and rep.value > 0.0
    # truncations approach the full value monotonically from below ...
    assert rep.cutoff_values[0] < rep.cutoff_values[1] < rep.cutoff_values[2] <= rep.value * (1 + 1e-12)
    # ... at the 1/T rate implied by the weighted-tail decay: the integrand
    # behaves like (2^k k!/pi) xi^-2 for large xi (even k; odd k decays faster),
    # so the two-sided tail beyond T is at most ~ 2 * 2^k k!/(pi T).
    resid = [rep.value - cv for cv in rep.cutoff_values]
    tail_bound = 2.0 * 2.0**k * math.factorial(k) / (math.pi * rep.cutoffs[2])
    assert resid[2] <= 3.0 * tail_bound
    ratio_10 = resid[0] / max(resid[1], 1e-300)
    assert ratio_10 > 5.0  # at least one order per decade of cutoff


def test_criterion_integral_tolerance_stability():
    loose = ur_slice_barron_check(2, tol=1e-6).value
    tight = ur_slice_barron_check(2, tol=1e-11).value
    assert loose == pytest.approx(tight, rel=1e-6)


@pytest.mark.parametrize(
    "k,value",
    [(1, 1.6366197723675815), (2, 5.09295817894065), (3, 25.93658550998355), (4, 183.3464944418631)],
)
def test_criterion_integral_values_pinned(k, value):
    # full-line values, integrated in theta = arctan(xi) by barron_norm_upper
    assert ur_slice_barron_check(k).value == pytest.approx(value, rel=1e-13)
