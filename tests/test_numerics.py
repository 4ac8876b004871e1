"""Quadrature, finite differences, half-disk norms, and line fits."""

import math

import numpy as np
import pytest

from harmlab import (
    DegenerateDesign,
    GridSpec,
    HalfPlanePoint,
    MaxSubdivisionsExceeded,
    NonFiniteSample,
    NumericalError,
    QuadratureRule,
    StencilLeavesDomain,
    ValidationError,
    eval_u_half,
    fd_derivative,
    fd_laplacian,
    fit_linear,
    fit_loglog,
    gauss_legendre_rule,
    integrate_adaptive,
    norm_lp_halfdisk,
)
from harmlab import numerics
from harmlab.solutions import reg_diff_value


# --- integrate_adaptive --------------------------------------------------------


def test_integrate_linear():
    assert integrate_adaptive(lambda x: x, 0.0, 1.0, tol=1e-10) == pytest.approx(0.5, abs=1e-10)


def test_integrate_endpoint_singularity():
    tol = 1e-9
    val = integrate_adaptive(lambda x: x**-0.5, 0.0, 1.0, tol=tol)
    assert abs(val - 2.0) <= 10 * tol


def test_integrate_third_derivative_of_x2logx():
    # d^3/dx^3 (x^2 log x) = 2/x (symbolic oracle below); the weighted integral
    # over [delta, 1] is 2|log delta| exactly.
    import sympy as sp

    xs = sp.symbols("x", positive=True)
    d3 = sp.diff(xs**2 * sp.log(xs), xs, 3)
    assert sp.simplify(d3 - 2 / xs) == 0
    delta = 1e-3
    val = integrate_adaptive(lambda x: np.abs(2.0 / x), delta, 1.0, tol=1e-10)
    assert val == pytest.approx(2 * abs(math.log(delta)), rel=1e-6)


def test_integrate_cauchy_tail_via_tangent():
    # integral_0^inf dt/(1+t^2) = pi/2 after t = tan(theta)
    val = integrate_adaptive(lambda th: np.ones_like(th), 0.0, math.pi / 2, tol=1e-12)
    assert val == pytest.approx(math.pi / 2, rel=1e-12)


def test_integrate_budget_exhaustion():
    with pytest.raises(MaxSubdivisionsExceeded):
        integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-9, max_intervals=200)


def test_integrate_accepts_intervals_at_floating_point_resolution():
    # near 1e6 the spacing of doubles (~1e-10) stops the bisection of the jump
    # long before the jump's error falls under tol; such intervals are accepted
    c = 1e6 + 1.0 / 3.0
    val = integrate_adaptive(lambda x: (x > c).astype(float), 1e6, 1e6 + 1.0, tol=1e-14)
    assert val == pytest.approx(1e6 + 1.0 - c, abs=1e-9)


def test_lanes_take_the_steps_of_one_lane_runs():
    # every lane of a batch gives bit for bit its one-lane integrate_adaptive value
    from harmlab.numerics import _integrate_lanes

    fns = [lambda x: x**-0.5, lambda x: np.sin(30.0 * x), lambda x: np.abs(x - 0.3) ** 0.2]
    a, b, tol = [0.0, 0.0, -1.0], [1.0, 2.0, 1.0], [1e-9, 1e-12, 1e-11]

    def rows(lanes, x):
        return np.array([fns[lane](xi) for lane, xi in zip(lanes, x)])

    got = _integrate_lanes(rows, a, b, tol, 4000)
    assert got == [integrate_adaptive(*args, max_intervals=4000) for args in zip(fns, a, b, tol)]


def test_lane_failure_carries_lane_and_estimate():
    from harmlab.numerics import _integrate_lanes

    fns = [lambda x: x, lambda x: 1.0 / x]

    def rows(lanes, x):
        return np.array([fns[lane](xi) for lane, xi in zip(lanes, x)])

    with pytest.raises(MaxSubdivisionsExceeded) as info:
        _integrate_lanes(rows, [0.0, 0.0], [1.0, 1.0], [1e-9, 1e-9], 200)
    assert info.value.lane == 1
    assert info.value.estimate > 0.0 and info.value.err_bound > 1e-9


def test_integrate_rejects_interior_nan():
    def f(x):
        return np.where(np.abs(x - 0.5) < 0.01, np.nan, 1.0)

    with pytest.raises(NonFiniteSample):
        integrate_adaptive(f, 0.0, 1.0, tol=1e-9)


def test_quadrature_rule_validation():
    gl = gauss_legendre_rule(32, 0.0, 2.0)
    assert gl.weights.sum() == pytest.approx(2.0, abs=1e-13)
    assert np.dot(gl.weights, gl.nodes**3) == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(ValidationError):
        QuadratureRule(np.array([0.5]), np.array([2.0]), 1.0)
    with pytest.raises(ValidationError):
        QuadratureRule(np.array([0.5]), np.array([-1.0]), -1.0)


# --- finite differences ----------------------------------------------------------


def test_fd_derivative_examples():
    assert fd_derivative(lambda x: x**3, 1.0, 2, 1e-3) == pytest.approx(6.0, abs=1e-8)
    assert fd_derivative(math.sin, 0.0, 1, 1e-3) == pytest.approx(1.0, abs=1e-10)
    assert fd_derivative(math.exp, 0.0, 4, 1e-2) == pytest.approx(1.0, abs=1e-4)


def test_fd_derivative_order_validation():
    with pytest.raises(ValidationError):
        fd_derivative(math.sin, 0.0, 6, 1e-3)
    with pytest.raises(ValidationError):
        fd_derivative(math.sin, 0.0, 1, 0.0)


def test_fd_derivative_richardson_order():
    # one Richardson step gives O(h^4) for fixed order <= 3
    errs = []
    hs = [2e-1, 1e-1, 5e-2]  # above the eps/h^3 rounding floor
    for h in hs:
        errs.append(abs(fd_derivative(math.sin, 0.3, 3, h) - (-math.cos(0.3))))
    fit = fit_loglog(hs, errs)
    assert fit.slope == pytest.approx(4.0, abs=0.5)


def test_fd_laplacian_polynomials():
    p = HalfPlanePoint(0.4, 0.8)
    assert fd_laplacian(lambda x, y: x * x - y * y, p, 1e-3) == pytest.approx(0.0, abs=1e-8)
    assert fd_laplacian(lambda x, y: x * x + y * y, p, 1e-3) == pytest.approx(4.0, abs=1e-7)


def test_fd_laplacian_uhalf_order_two():
    p = HalfPlanePoint(1.0, 1.0)

    def u(x, y):
        return eval_u_half(HalfPlanePoint(x, y))

    hs = [2e-2, 1e-2, 5e-3, 2.5e-3]
    res = [abs(fd_laplacian(u, p, h)) for h in hs]
    fit = fit_loglog(hs, res)
    assert fit.slope == pytest.approx(2.0, abs=0.2)
    assert res[-1] < 1e-6


def test_fd_laplacian_boundary_guard():
    with pytest.raises(StencilLeavesDomain):
        fd_laplacian(lambda x, y: x, HalfPlanePoint(0.0, 0.01), 1e-2)


# --- GridSpec and norms ------------------------------------------------------------


def test_gridspec_validation():
    with pytest.raises(ValidationError):
        GridSpec(1.0, nr=0)
    with pytest.raises(ValidationError):
        GridSpec(1.0, nphi=4)
    with pytest.raises(ValidationError):
        GridSpec(-1.0)
    with pytest.raises(ValidationError):
        GridSpec(1.0, grading=0.5)
    for R, grading in ((1.0, math.nan), (1.0, math.inf), (math.inf, 2.0), (math.nan, 2.0)):
        with pytest.raises(ValidationError):
            GridSpec(R, grading=grading)


def test_gridspec_node_limit(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_GRID_POINTS", 1024)
    assert GridSpec(1.0, 16, 16).refined() == GridSpec(1.0, 32, 32)  # 4 x 256 = the limit
    GridSpec(1.0, 32, 32)
    with pytest.raises(ValidationError, match="a 32 x 33 grid exceeds the limit of 1024 nodes"):
        GridSpec(1.0, 32, 33)
    with pytest.raises(ValidationError, match="refinement gate"):
        GridSpec(1.0, 16, 17).refined()


def test_gridspec_nodes_increasing_and_interior():
    g = GridSpec(2.0, 32, 16, 2.5)
    r = g.radial_nodes()
    assert r[0] > 0.0
    assert np.all(np.diff(r) > 0.0)
    assert r[-1] == pytest.approx(2.0, rel=1e-15)
    X, Y = g.mesh()
    assert np.all(Y > 0.0)


def test_norm_constant_p2():
    g = GridSpec(1.0, 64, 64, 2.0)
    val = norm_lp_halfdisk(lambda r, phi: np.ones_like(r * phi), g, 2.0)
    assert val == pytest.approx(math.sqrt(math.pi / 2), abs=1e-6)


def test_norm_constant_inf_exact():
    g = GridSpec(1.0, 32, 32, 2.0)
    val = norm_lp_halfdisk(lambda r, phi: np.full_like(r * phi, -2.5), g, math.inf)
    assert val == 2.5


def test_norm_calls_field_once_on_polar_tables():
    g = GridSpec(1.0, 16, 12, 2.0)
    shapes = []

    def f(r, phi):
        shapes.append((np.shape(r), np.shape(phi)))
        return r * np.sin(phi)

    norm_lp_halfdisk(f, g, 2.0)
    assert shapes == [((16, 1), (1, 12))]
    with pytest.raises(ValidationError, match="elementwise"):
        norm_lp_halfdisk(lambda r, phi: r, g, 2.0)  # no phi dependence, wrong shape
    shapes.clear()
    norm_lp_halfdisk(f, g, math.inf)
    assert shapes[0] == ((16, 1), (1, 12))
    assert len(shapes) > 1 and all(s == ((1,), (1,)) for s in shapes[1:])  # one-point ray calls


def test_norm_nonfinite_rejected():
    g = GridSpec(1.0, 16, 16, 1.0)

    def f(r, phi):
        out = np.ones_like(r * phi)
        out[0, 0] = np.inf
        return out

    with pytest.raises(NonFiniteSample):
        norm_lp_halfdisk(f, g, 2.0)


def test_norm_overflowing_field_rejected_without_warnings():
    # pytest turns RuntimeWarning into an error, so a warning fails this test
    g = GridSpec(1e200, 16, 16, 1.0)
    with pytest.raises(NonFiniteSample, match="on the grid"):
        norm_lp_halfdisk(lambda r, phi: r * r * np.sin(phi), g, 2.0)


def test_norm_nonfinite_ray_max_rejected():
    g = GridSpec(1.0, 16, 16, 1.0)

    def f(r, phi):  # finite on the grid, NaN on the one-point ray calls
        return np.ones_like(r * phi) if np.size(r) > 1 else np.sqrt(-np.ones_like(r * phi))

    assert norm_lp_halfdisk(f, g, 2.0) > 0.0
    with pytest.raises(NonFiniteSample, match="maximizing ray"):
        norm_lp_halfdisk(f, g, math.inf)


def test_norm_linf_reg_difference_window():
    # sup of |u_{eps,k} - u_k| on the unit half-disk: max_r r^k log(1+eps^2/r^2)/(2pi);
    # for k = 2 the radial profile is increasing, so the max sits at r = R.
    eps, k = 1e-2, 2
    g = GridSpec(1.0, 256, 256, 2.0)
    val = norm_lp_halfdisk(
        lambda r, phi: reg_diff_value(r * np.cos(phi), r * np.sin(phi), eps, k), g, math.inf
    )
    analytic = math.log1p(eps**2) / (2 * math.pi)
    assert 0.5 * eps**2 / (2 * math.pi) <= val <= 1.5 * eps**2 / (2 * math.pi)
    assert val == pytest.approx(analytic, rel=2e-4)


def test_norm_monotone_in_p_after_normalization():
    # power means against the normalized measure are nondecreasing in p
    g = GridSpec(1.0, 64, 64, 2.0)
    area = math.pi / 2
    fields = [
        lambda r, phi: r * np.cos(phi),
        lambda r, phi: np.exp(-(r**2)) * np.ones_like(phi),
        lambda r, phi: r * (np.abs(np.cos(phi)) + np.sin(phi)),
    ]
    for f in fields:
        means = [
            norm_lp_halfdisk(f, g, p) / area ** (1.0 / p) for p in (1.0, 2.0, 4.0, 8.0)
        ]
        for lo, hi in zip(means[:-1], means[1:]):
            assert hi >= lo - 1e-12


def test_norm_grid_refinement_gate():
    # reference integrand family: refinement changes the norm by well under 0.5%
    g = GridSpec(1.0, 256, 256, 2.0)
    for eps in (1e-1, 1e-3):
        f = lambda r, phi: reg_diff_value(r * np.cos(phi), r * np.sin(phi), eps, 3)
        a = norm_lp_halfdisk(f, g, 1.0)
        b = norm_lp_halfdisk(f, g.refined(), 1.0)
        assert abs(a - b) / max(a, b) < 0.005


# --- fits ---------------------------------------------------------------------------


def test_fit_loglog_exact_square():
    fit = fit_loglog([1.0, 10.0, 100.0], [1.0, 100.0, 10000.0])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_constant():
    fit = fit_loglog([1.0, 2.0, 4.0, 8.0], [3.0, 3.0, 3.0, 3.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_fit_loglog_noisy_half_rate():
    rng = np.random.default_rng(17)
    xs = np.logspace(0, 3, 8)
    ys = 5.0 * xs**-0.5 * (1.0 + 0.01 * rng.standard_normal(8))
    fit = fit_loglog(xs, ys)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)


def test_fit_degenerate_design():
    with pytest.raises(DegenerateDesign):
        fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDesign):
        fit_linear([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_fit_overflow_raises():
    # residuals near 1e200: their sum of squares overflows in y's own units
    with pytest.raises(NumericalError, match="line fit is not finite"):
        fit_linear([1.0, 2.0, 3.0, 4.0], [1e200, 3e200, 2e200, 5e200])


def test_fit_r2_where_total_sum_of_squares_overflows():
    # y = a (x + t e) with e orthogonal to 1 and x: the fit is a x, its residual
    # a t e, and 1 - r^2 = 4 t^2 / (5 + 4 t^2). At a = 1e160 sum((y - ym)^2)
    # overflows while the residual sum of squares (4e306) does not; unscaled,
    # r^2 = 1 - finite/inf read exactly 1
    x = np.arange(4.0)
    t = 1e-7
    fit = fit_linear(x, 1e160 * (x + t * np.array([1.0, -1.0, -1.0, 1.0])))
    assert fit.slope == pytest.approx(1e160, rel=1e-12)
    assert fit.r_squared < 1.0
    assert 1.0 - fit.r_squared == pytest.approx(4 * t * t / (5 + 4 * t * t), rel=0.05)


def _fit_unscaled(x, y):
    """fit_linear's sums on y as given: the reference for its power-of-two scaling."""
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / float(np.sum((x - xm) ** 2)))
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    return slope, float(intercept), 1.0 - ss_res / float(np.sum((y - ym) ** 2))


@pytest.mark.parametrize("scale", [1e-12, 0.3, 1.0, 7.0, 1e5, 1e40])
def test_fit_scaling_keeps_bits_on_ordinary_data(scale):
    rng = np.random.default_rng(23)
    x = np.log(np.logspace(-4, -1, 7))
    y = scale * (2.0 * x + 1.0 + 0.1 * rng.standard_normal(7))
    fit = fit_linear(x, y)
    assert (fit.slope, fit.intercept, fit.r_squared) == _fit_unscaled(x, y)


def test_fit_validation():
    with pytest.raises(ValidationError):
        fit_loglog([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_loglog([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


def test_fd_derivative_fifth_order():
    # f = sin: f^(5) = cos; the order-5 stencil needs a generous step
    got = fd_derivative(math.sin, 0.4, 5, 0.15)
    assert got == pytest.approx(math.cos(0.4), rel=1e-3)
