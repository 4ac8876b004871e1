"""Rate experiments: regularization error, Sobolev log-growth, Monte-Carlo."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlab import (
    GridSpec,
    HalfPlanePoint,
    NumericalError,
    ValidationError,
    eval_u_integer,
    gauss_legendre_rule,
    eval_u_reg,
    make_random_target,
    mc_rate_experiment,
    reg_error_experiment,
    sobolev_lognorm_experiment,
)
from harmlab import ensembles as ensembles_module
from harmlab import experiments as experiments_module
from harmlab.ensembles import (
    barron_cost,
    ensemble_derivatives,
    ensemble_eval_many,
    sample_subnetwork,
)
from harmlab.experiments import (
    Poly2,
    _reg_field,
    imag_power_poly,
    log_component_derivative_field,
    log_component_seminorm_sq,
    log_field_terms,
)
from harmlab.numerics import norm_lp_halfdisk
from harmlab.solutions import reg_diff_gradient, reg_diff_hessian, reg_diff_value
import ensemble_reference
from oracles import fd_derivative, interior_critical_radius, reg_linf_maximizer_radius
from polar_reference import component_values, norm_lp_2d
from polar_reference import magnitude as product_magnitude

GRID = GridSpec(1.0, 256, 128, 3.0)


# --- closed-form derivative fields vs finite differences ---------------------------


def _v_scalar(x, y, eps, k):
    return eval_u_reg(x, y, eps, k) - eval_u_integer(HalfPlanePoint(x, y), k)


def test_reg_gradient_matches_fd():
    rng = np.random.default_rng(61)
    eps, k = 0.05, 3
    for _ in range(10):
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.2, 0.8)
        vx, vy = reg_diff_gradient(np.array([x]), np.array([y]), eps, k)
        fx = fd_derivative(lambda t: _v_scalar(t, y, eps, k), x, 1, 1e-3)
        fy = fd_derivative(lambda t: _v_scalar(x, t, eps, k), y, 1, 1e-3)
        assert vx[0] == pytest.approx(fx, rel=1e-6, abs=1e-9)
        assert vy[0] == pytest.approx(fy, rel=1e-6, abs=1e-9)


def test_reg_hessian_matches_fd():
    rng = np.random.default_rng(67)
    eps, k = 0.08, 2
    for _ in range(10):
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.25, 0.8)
        vxx, vxy, vyy = reg_diff_hessian(np.array([x]), np.array([y]), eps, k)
        fxx = fd_derivative(lambda t: _v_scalar(t, y, eps, k), x, 2, 2e-3)
        fyy = fd_derivative(lambda t: _v_scalar(x, t, eps, k), y, 2, 2e-3)

        def cross(t):
            return fd_derivative(lambda s: _v_scalar(t, s, eps, k), y, 1, 2e-3)

        fxy = fd_derivative(cross, x, 1, 2e-3)
        assert vxx[0] == pytest.approx(fxx, rel=1e-6, abs=1e-8)
        assert vyy[0] == pytest.approx(fyy, rel=1e-6, abs=1e-8)
        assert vxy[0] == pytest.approx(fxy, rel=1e-5, abs=1e-8)


# --- regularization-error experiment ------------------------------------------------


def test_reg_rate_k2_sup_norm():
    eps = np.logspace(-4, -1, 7)
    reports, fit = reg_error_experiment(2, math.inf, 0, eps, GRID)
    assert fit.slope == pytest.approx(2.0, abs=0.1)
    assert len(reports) == 7
    assert all(r.experiment == "reg" for r in reports)


def test_reg_rate_k3_l2_and_ratio_window():
    eps = np.logspace(-4, -1, 7)
    reports, fit = reg_error_experiment(3, 2.0, 0, eps, GRID)
    assert fit.slope == pytest.approx(2.0, abs=0.1)
    ratios = [r.value / (1.0 ** (3 - 2) * r.knob**2) for r in reports]
    assert max(ratios) / min(ratios) < 10.0


def test_reg_rate_hessian_exception_model():
    # k = 2, p = 1, order 2: eps^2 |log eps| fits better than pure eps^2
    eps = np.logspace(-4, -1, 7)
    reports, _ = reg_error_experiment(2, 1.0, 2, eps, GRID)
    vals = np.array([r.value for r in reports])
    es = np.array([r.knob for r in reports])
    m_log = es**2 * np.abs(np.log(es))
    m_pure = es**2
    c_log = float(vals @ m_log / (m_log @ m_log))
    c_pure = float(vals @ m_pure / (m_pure @ m_pure))
    resid_log = float(np.sum((vals - c_log * m_log) ** 2))
    resid_pure = float(np.sum((vals - c_pure * m_pure) ** 2))
    assert resid_log < resid_pure
    assert np.all(vals <= 1.05 * c_log * m_log)


def test_reg_rate_gradient_slope_lower_bound():
    eps = np.logspace(-4, -1, 7)
    _, fit = reg_error_experiment(2, 2.0, 1, eps, GRID)
    assert fit.slope >= 0.9


def test_reg_rate_validations():
    eps = np.logspace(-3, -1, 5)
    with pytest.raises(ValidationError, match="regularization-rate experiments require k >= 2"):
        reg_error_experiment(1, 2.0, 0, eps, GRID)
    with pytest.raises(ValidationError):
        reg_error_experiment(2, 2.0, 0, [0.2, 0.3, 0.5], GRID)  # eps > R/10
    with pytest.raises(ValidationError):
        reg_error_experiment(2, 2.0, 3, eps, GRID)


def test_reg_rate_gate_failure_on_coarse_grid():
    # a deliberately unresolvable grid (few ungraded nodes, tiny eps) trips the gate
    bad = GridSpec(1.0, 8, 8, 1.0)
    with pytest.raises(NumericalError, match=r"eps=0\.0001: norm moved .* under grid doubling"):
        reg_error_experiment(2, 1.0, 2, np.logspace(-4, -2, 5), bad)


# --- polar fields vs the Cartesian fields they replaced ---------------------------------


def _cartesian_reg_field(k, epsilon, order):
    """|d^order (u_{eps,k} - u_k)| node by node at (X, Y), as the norms took it before."""
    if order == 0:
        return lambda X, Y: reg_diff_value(X, Y, epsilon, k)
    if order == 1:
        def grad_mag(X, Y):
            vx, vy = reg_diff_gradient(X, Y, epsilon, k)
            return np.hypot(vx, vy)
        return grad_mag

    def hess_mag(X, Y):
        vxx, vxy, vyy = reg_diff_hessian(X, Y, epsilon, k)
        return np.sqrt(vxx * vxx + 2.0 * vxy * vxy + vyy * vyy)
    return hess_mag


def _cartesian_log_field(k, l, m, epsilon):
    """(l, m)-derivative of log(A) P_k / (2 pi) node by node at (X, Y)."""
    L, qs = log_field_terms(k, l, m)
    e2 = epsilon * epsilon

    def field(X, Y):
        A = X * X + Y * Y + e2
        out = np.log(A) * L(X, Y) if L else np.zeros(np.broadcast(X, Y).shape)
        for s, q in qs.items():
            out = out + q(X, Y) / A**s
        return out / (2.0 * math.pi)

    return field


def _on_cartesian_nodes(f):
    return lambda r, phi: f(r * np.cos(phi), r * np.sin(phi))


@pytest.mark.parametrize("grading", [2.0, 3.0])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_polar_reg_norms_match_cartesian_reference(k, grading):
    coarse = GridSpec(1.0, 24, 16, grading)
    for grid in (coarse, coarse.refined()):
        for order in (0, 1, 2):
            for p in (1.0, 1.5, 2.0, math.inf):
                for eps in (1e-3, 0.05):
                    got = norm_lp_halfdisk(_reg_field(k, eps, order), grid, p)
                    want = norm_lp_2d(_on_cartesian_nodes(_cartesian_reg_field(k, eps, order)), grid, p)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (grid, order, p, eps)


@pytest.mark.parametrize("k", [2, 3])
def test_polar_sobolev_seminorm_matches_cartesian_reference(k):
    coarse = GridSpec(1.0, 24, 16, 3.0)
    for grid in (coarse, coarse.refined()):
        for order in range(1, 6):
            for eps in (1e-3, 0.1):
                got = log_component_seminorm_sq(k, eps, grid, order)
                want = sum(
                    math.comb(order, l)
                    * norm_lp_2d(_on_cartesian_nodes(_cartesian_log_field(k, l, order - l, eps)), grid, 2.0) ** 2
                    for l in range(order + 1)
                )
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (grid, order, eps)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    k=st.integers(2, 5),
    order=st.integers(0, 2),
    r=st.floats(1e-3, 2.0),
    delta=st.floats(1e-8, 0.3),
    near_pi=st.booleans(),
    eps=st.floats(1e-6, 1.0),
)
def test_reg_field_separates_in_polar_coordinates(k, order, r, delta, near_pi, eps):
    # |d^order v|^2 = a(r) sin^2(k phi) + b(r) cos^2(k phi), with a and b read on
    # two rays, against the closed-form magnitude at (r cos phi, r sin phi)
    phi = math.pi - delta if near_pi else delta
    cartesian = _cartesian_reg_field(k, eps, order)

    def magnitude(t):
        return abs(float(cartesian(np.array([r * math.cos(t)]), np.array([r * math.sin(t)]))[0]))

    got = float(product_magnitude(_reg_field(k, eps, order))(np.array([r]), np.array([phi]))[0])
    want = magnitude(phi)
    if order == 0:
        # a product of factors without cancellation: relative accuracy also near phi = pi
        assert abs(got - want) <= 1e-13 * want
    else:
        # the closed form's derivatives cancel to a few ulps of the magnitude's
        # size on the circle, the larger of its values on the two rays
        envelope = max(magnitude(0.0), magnitude(math.pi / (2 * k)))
        assert abs(got - want) <= 1e-13 * envelope


@pytest.mark.parametrize("order", [0, 1, 2])
def test_reg_norm_evaluates_closed_form_on_two_rays(monkeypatch, order):
    grid = GridSpec(1.0, 64, 48)
    points = []

    def counting(fn):
        def counted(X, Y, *a):
            points.append(np.broadcast(X, Y).size)
            return fn(X, Y, *a)
        return counted

    for name in ("reg_diff_value", "reg_diff_gradient", "reg_diff_hessian"):
        monkeypatch.setattr(experiments_module, name, counting(getattr(experiments_module, name)))
    for p in (1.0, 2.0):
        points.clear()
        assert norm_lp_halfdisk(_reg_field(3, 0.01, order), grid, p) > 0.0
        assert 0 < sum(points) <= 2 * grid.nr, (p, points)


def test_sobolev_field_calls_poly2_on_angles_only(monkeypatch):
    grid = GridSpec(1.0, 64, 48, 3.0)
    sizes = []
    poly_call = Poly2.__call__

    def counted(poly, X, Y):
        sizes.append(np.broadcast(X, Y).size)
        return poly_call(poly, X, Y)

    monkeypatch.setattr(Poly2, "__call__", counted)
    for l, m in ((3, 0), (1, 2), (0, 4)):
        sizes.clear()
        assert norm_lp_halfdisk(log_component_derivative_field(3, l, m, 0.01), grid, 2.0) > 0.0
        assert sizes and set(sizes) == {grid.nphi}, (l, m, sizes)


def test_linf_maximizer_trichotomy():
    # stationarity equation has no interior root for k >= 2, so the measured
    # maximizer must sit at the rim
    for k in (2, 3):
        for eps in (1e-2, 1e-3):
            assert interior_critical_radius(k, eps, 1.0) is None
            rstar = reg_linf_maximizer_radius(k, eps, GRID)
            assert rstar == pytest.approx(1.0, abs=1e-3)


# --- Sobolev log-growth ---------------------------------------------------------------


def test_imag_power_poly_values():
    rng = np.random.default_rng(71)
    for k in (1, 2, 3, 4, 5):
        P = imag_power_poly(k)
        assert {i + j for (i, j) in P.terms} == {k}
        X = rng.uniform(-2, 2, 20)
        Y = rng.uniform(-2, 2, 20)
        np.testing.assert_allclose(P(X, Y), ((X + 1j * Y) ** k).imag, rtol=1e-12, atol=1e-12)


def test_log_derivative_recursion_base():
    L, qs = log_field_terms(2, 0, 0)
    assert L.terms == imag_power_poly(2).terms and qs == {}
    # d_x [log(A) 2xy] = 2y log A + 4x^2 y / A
    L, qs = log_field_terms(2, 1, 0)
    assert L.terms == {(0, 1): 2.0}
    assert set(qs) == {1} and qs[1].terms == {(2, 1): 4.0}
    # d_x [log(A) y] = 2xy / A
    L, qs = log_field_terms(1, 1, 0)
    assert not L
    assert set(qs) == {1} and qs[1].terms == {(1, 1): 2.0}


def test_log_derivative_homogeneity_all_orders():
    # L is homogeneous of degree k - n and q_s of degree 2s + k - n, n = l + m
    for k in range(1, 5):
        for n in range(6):
            for l in range(n + 1):
                L, qs = log_field_terms(k, l, n - l)
                assert {i + j for (i, j) in L.terms} in (set(), {k - n}), (k, l, n - l)
                assert n <= k or not L, (k, l, n - l)
                for s, q in qs.items():
                    assert s >= 1 and {i + j for (i, j) in q.terms} in (set(), {2 * s + k - n}), (k, l, n - l, s)


# The Leibniz construction the one-rule form replaced: a table of log(A)
# derivatives times separately differentiated copies of P_k.
@functools.lru_cache(maxsize=None)
def _ref_log_derivative_terms(i, j):
    if (i, j) == (1, 0):
        return {1: Poly2({(1, 0): 2.0})}
    if (i, j) == (0, 1):
        return {1: Poly2({(0, 1): 2.0})}
    step_x = i > 0
    prev = _ref_log_derivative_terms(i - 1, j) if step_x else _ref_log_derivative_terms(i, j - 1)
    out = {}

    def accumulate(s, poly):
        if poly:
            out[s] = out.get(s, Poly2()).add(poly)

    for s, q in prev.items():
        accumulate(s, q.diff_x() if step_x else q.diff_y())
        accumulate(s + 1, (q.mul_x() if step_x else q.mul_y()).scale(-2.0 * s))
    return {s: q for s, q in out.items() if q}


def _ref_log_component_derivative_field(k, l, m, epsilon):
    Pk = imag_power_poly(k)
    parts = []
    for i in range(l + 1):
        for j in range(m + 1):
            dP = Pk
            for _ in range(l - i):
                dP = dP.diff_x()
            for _ in range(m - j):
                dP = dP.diff_y()
            if not dP:
                continue
            if i + j == 0:
                parts.append((1.0, {}, dP))
                continue
            binom = float(math.comb(l, i) * math.comb(m, j))
            parts.append((binom, _ref_log_derivative_terms(i, j), dP))
    e2 = epsilon * epsilon

    def field(X, Y):
        A = X * X + Y * Y + e2
        out = np.zeros(np.broadcast(X, Y).shape)
        for binom, qterms, dP in parts:
            if not qterms:
                out = out + np.log(A) * dP(X, Y)
                continue
            acc = np.zeros_like(out)
            for s, q in qterms.items():
                acc += q(X, Y) / A**s
            out = out + binom * acc * dP(X, Y)
        return out / (2.0 * math.pi)

    return field


# The recursion the loop replaced: one derivative rule step from the cached
# (l-1, m) terms, or from (0, m-1) when l = 0.
@functools.lru_cache(maxsize=None)
def _ref_log_field_terms(k, l, m):
    if l == m == 0:
        return imag_power_poly(k), {}
    if l > 0:
        L, qs = _ref_log_field_terms(k, l - 1, m)
        diff, mul = Poly2.diff_x, Poly2.mul_x
    else:
        L, qs = _ref_log_field_terms(k, l, m - 1)
        diff, mul = Poly2.diff_y, Poly2.mul_y
    out = {1: mul(L).scale(2.0)}
    for s, q in qs.items():
        out[s] = out.get(s, Poly2()).add(diff(q))
        out[s + 1] = out.get(s + 1, Poly2()).add(mul(q).scale(-2.0 * s))
    return diff(L), {s: q for s, q in out.items() if q}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_log_field_loop_matches_recursion(k):
    for n in range(13):
        for l in range(n + 1):
            L, qs = log_field_terms(k, l, n - l)
            ref_L, ref_qs = _ref_log_field_terms(k, l, n - l)
            assert L.terms == ref_L.terms, (k, l, n - l)
            assert {s: q.terms for s, q in qs.items()} == {s: q.terms for s, q in ref_qs.items()}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_log_field_matches_leibniz_reference(k):
    rng = np.random.default_rng(4100 + k)
    r = np.concatenate([rng.uniform(0.0, 1.0, 2000), rng.uniform(0.5e-3, 2e-3, 2000)])
    phi = rng.uniform(0.0, math.pi, r.size)
    X, Y = r * np.cos(phi), r * np.sin(phi)
    for n in range(6):
        for l in range(n + 1):
            for eps in (1e-3, 0.1, 1.0):
                (got,) = component_values(log_component_derivative_field(k, l, n - l, eps), r, phi)
                want = _ref_log_component_derivative_field(k, l, n - l, eps)(X, Y)
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (k, l, n - l, eps)


def _poly_derivative(P, l, m):
    for _ in range(l):
        P = P.diff_x()
    for _ in range(m):
        P = P.diff_y()
    return P


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    l=st.integers(0, 3),
    m=st.integers(0, 3),
    j=st.integers(-4, 4),
    r=st.floats(1e-3, 1.0),
    phi=st.floats(0.01, math.pi - 0.01),
    eps=st.floats(1e-3, 1.0),
)
def test_log_field_scaling(k, l, m, j, r, phi, eps):
    # log(A) P_k scales as lambda^k [log(A) P_k + log(lambda^2) P_k] under
    # (x, y, eps) -> lambda (x, y, eps); its (l, m)-derivative picks up lambda^-n
    lam = 2.0**j
    n = l + m
    x, y = np.array([r * math.cos(phi)]), np.array([r * math.sin(phi)])
    r, phi = np.array([r]), np.array([phi])
    got = component_values(log_component_derivative_field(k, l, m, lam * eps), lam * r, phi)[0][0]
    base = component_values(log_component_derivative_field(k, l, m, eps), r, phi)[0][0]
    shift = math.log(lam * lam) / (2.0 * math.pi) * _poly_derivative(imag_power_poly(k), l, m)(x, y)[0]
    want = lam ** (k - n) * (base + shift)
    # relative to the terms' size, since base and shift may cancel
    assert abs(got - want) <= 1e-12 * lam ** (k - n) * (abs(base) + abs(shift))


def test_log_derivative_field_matches_fd():
    eps, k = 0.3, 2
    f10, f01, f22 = (
        lambda r, phi, lm=lm: component_values(log_component_derivative_field(k, *lm, eps), r, phi)[0]
        for lm in ((1, 0), (0, 1), (2, 2))
    )

    def u(x, y):
        return math.log(x * x + y * y + eps * eps) * ((x + 1j * y) ** k).imag / (2 * math.pi)

    rng = np.random.default_rng(73)
    for _ in range(8):
        x, y = rng.uniform(-0.7, 0.7), rng.uniform(0.2, 0.7)
        polar = np.array([math.hypot(x, y)]), np.array([math.atan2(y, x)])
        assert f10(*polar)[0] == pytest.approx(
            fd_derivative(lambda t: u(t, y), x, 1, 1e-3), rel=1e-7, abs=1e-10
        )
        assert f01(*polar)[0] == pytest.approx(
            fd_derivative(lambda t: u(x, t), y, 1, 1e-3), rel=1e-7, abs=1e-10
        )

        def dyy(t):
            return fd_derivative(lambda s: u(t, s), y, 2, 5e-3)

        fd22 = fd_derivative(dyy, x, 2, 5e-3)
        assert f22(*polar)[0] == pytest.approx(fd22, rel=1e-4, abs=1e-6)


def _seminorm_sq_long_double(k, eps, grid, order):
    """log_component_seminorm_sq summed node by node in long double from the same float tables."""
    r, phi = grid.polar()
    ld = np.longdouble
    wr = grid.radial_weights().astype(ld) * grid.radial_nodes().astype(ld)
    total = ld(0)
    for l in range(order + 1):
        (terms,) = log_component_derivative_field(k, l, order - l, eps)(r, phi)
        V = np.zeros((grid.nr, grid.nphi), dtype=ld)
        for R, Q in terms:
            V += np.asarray(R, dtype=ld) * np.asarray(Q, dtype=ld)
        total += math.comb(order, l) * np.sum((V * V).sum(axis=1) * wr)
    return total * ld(grid.angular_weight)


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="needs an extended-precision long double")
def test_high_order_seminorm_matches_long_double_grid_sum():
    # at order 7 the terms of one derivative cancel: a plain Gram sum
    # sum_ii' (R_i . w r R_i') (Q_i . Q_i') of the same tables misses this
    # value by about 4e-13, the QR reduction stays within about 1e-15
    grid = GridSpec(1.0)
    eps = 1e-5 * grid.R
    want = _seminorm_sq_long_double(3, eps, grid, 7)
    rel = float(abs(np.longdouble(log_component_seminorm_sq(3, eps, grid, 7)) - want) / want)
    assert rel <= 1e-13, rel


def test_sobolev_affine_in_log_at_order_kplus1():
    # the log-growth of the squared seminorm lives at derivative order k+1
    eps = np.logspace(-3, -1, 5)
    grid = GridSpec(1.0, 192, 64, 3.0)
    reports, fit = sobolev_lognorm_experiment(2, eps, grid, order=3)
    assert fit.r_squared >= 0.99
    assert fit.slope > 0.0
    # constant increments per decade of eps
    vals = [r.value for r in sorted(reports, key=lambda r: r.knob)]
    incs = np.diff(vals)
    assert np.max(incs) / np.min(incs) < 1.25


def test_sobolev_order_kplus2_grows_like_inverse_eps_squared():
    # at the stated top order k+2 the squared seminorm scales like eps^-2,
    # not |log eps| (see the decisions ledger); verify the actual power law
    eps = np.logspace(-3, -1, 5)
    grid = GridSpec(1.0, 192, 64, 3.0)
    reports, _ = sobolev_lognorm_experiment(2, eps, grid)
    es = np.array([r.knob for r in reports])
    vals = np.array([r.value for r in reports])
    from harmlab import fit_loglog

    fit = fit_loglog(es, vals)
    assert fit.slope == pytest.approx(-2.0, abs=0.05)


def test_sobolev_validation():
    with pytest.raises(ValidationError):
        sobolev_lognorm_experiment(4, [1e-3, 1e-2, 1e-1], GRID)


@pytest.mark.parametrize("k", [2, 3])
def test_sobolev_refuses_orders_beyond_exact_coefficients(monkeypatch, k):
    def never(*a, **kw):
        raise AssertionError("a seminorm was computed at an inexact order")

    # order 14 is the last whose derivative terms have coefficients below 2**53
    for l in range(15):
        log_field_terms(k, l, 14 - l)
    monkeypatch.setattr(experiments_module, "log_component_seminorm_sq", never)
    for order in (15, 16, 1000):
        with pytest.raises(ValidationError, match=r"order %d is too high .*2\*\*53" % order):
            sobolev_lognorm_experiment(k, [1e-3, 1e-2, 1e-1], GRID, order=order)


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_component_seminorm_sq(2, 0.1, GridSpec(1.0, 32, 32), 15),
        lambda: log_component_derivative_field(3, 15, 0, 0.1),
        lambda: log_field_terms(2, 1000, 0),
    ],
    ids=["seminorm", "field", "terms"],
)
def test_library_refuses_inexact_orders(call):
    # from order 15 on, k = 2 and 3 terms have coefficients past 2**53; a cold
    # cache must not recurse either
    log_field_terms.cache_clear()
    with pytest.raises(ValidationError, match=r"^order \d+ is too high .*2\*\*53\)$"):
        call()


def test_sobolev_gate_rejects_coarse_grid():
    # on an 8 x 8 uniform grid the seminorm^2 moves ~19% under doubling at eps = 1e-3
    with pytest.raises(NumericalError, match=r"seminorm\^2 moved .* under grid doubling"):
        sobolev_lognorm_experiment(2, np.logspace(-3, -1, 4), GridSpec(1.0, 8, 8, 1.0), order=3)


# --- Monte-Carlo subsampling ----------------------------------------------------------


def test_mc_rate_alpha2_l2():
    target = make_random_target(2.0, 1500, seed=77)
    ns = [32, 64, 128, 256, 512, 1024]
    reports, fit, rate = mc_rate_experiment(target, ns, 0, 2.0, seeds=8)
    assert fit.slope == pytest.approx(-0.5, abs=0.15)
    assert rate >= 0.5
    assert all(r.experiment == "mc" for r in reports)


def test_mc_exhaustive_selection_zero_error():
    # a subnetwork holding every atom of a uniform target represents it exactly
    n = 1024
    target = make_random_target(2.0, n, seed=79)
    uni = np.full(n, 1.0 / n)
    from harmlab import NeuronEnsemble

    target_uni = NeuronEnsemble(uni, target.a, target.w, target.b, target.alpha)
    xs = np.linspace(-1, 1, 64)
    direct = ensemble_eval_many(target_uni, xs)
    # exhaustive selection = the same atoms at the same uniform weights
    exhaustive = NeuronEnsemble(uni, target_uni.a, target_uni.w, target_uni.b, 2.0)
    np.testing.assert_array_equal(ensemble_eval_many(exhaustive, xs), direct)


def _sobolev_error_per_draw(target, subnet, m, q, pts, weights):
    """W^{m,q} quadrature norm of (target - subnet), evaluating both every draw."""
    acc = np.zeros(pts.shape[0])
    for order in range(m + 1):
        big = ensemble_derivatives(target, pts, order)
        small = ensemble_derivatives(subnet, pts, order)
        for comp_b, comp_s in zip(big, small):
            acc = acc + np.abs(comp_b - comp_s) ** q
    return float(np.dot(weights, acc) ** (1.0 / q))


@pytest.mark.parametrize("dim,alpha,m,q", [(1, 2.0, 1, 2.0), (1, 2.5, 2, 3.0), (2, 2.5, 2, 2.0)])
def test_mc_equals_explicit_draw_loop(dim, alpha, m, q):
    target = make_random_target(alpha, 1000, seed=97, dim=dim)
    ns, seeds = [16, 32, 64], [0, 1, 2]
    if dim == 1:
        grid = None
        rule = gauss_legendre_rule(257, -1.0, 1.0)
        pts, weights = rule.nodes, rule.weights
    else:
        grid = GridSpec(1.0, 16, 16, 2.0)
        X, Y = grid.mesh()
        wr = grid.radial_weights() * grid.radial_nodes() * grid.angular_weight
        pts = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.broadcast_to(wr[:, None], X.shape).ravel()
    reports, _, rate = mc_rate_experiment(target, ns, m, q, seeds, grid=grid)

    cost = barron_cost(target)
    want, hits = [], 0
    for n in ns:
        errs = []
        for s in seeds:
            subnet = sample_subnetwork(target, n, seed=(s, n))
            errs.append(_sobolev_error_per_draw(target, subnet, m, q, pts, weights))
            hits += barron_cost(subnet) <= cost * 1.05
        want.append(float(np.mean(errs)))
    # the count-based error sums its terms in another order than the explicit draws
    np.testing.assert_allclose([r.value for r in reports], want, rtol=1e-12, atol=0.0)
    assert rate == hits / (len(ns) * len(seeds))


@pytest.mark.parametrize("dim,m", [(1, 1), (2, 0)])
def test_mc_draw_blocks_match_one_block(monkeypatch, dim, m):
    target = make_random_target(2.0, 1000, seed=99, dim=dim)
    grid = None if dim == 1 else GridSpec(1.0, 16, 16, 2.0)
    ns, seeds = [16, 32, 64, 128], [0, 1, 2]
    one_block = mc_rate_experiment(target, ns, m, 2.0, seeds, grid=grid)
    blocks = []
    real = ensembles_module.ensemble_derivatives

    def spy(e, xs, order, weights=None):
        blocks.append(weights.shape[1])
        return real(e, xs, order, weights=weights)

    # 12 draws in blocks of 5, 5 and 2; atom chunks of 5000 // 257 or 5000 // 256 = 19 neurons
    monkeypatch.setattr(ensembles_module, "_EVAL_CHUNK", 5 * 1000)
    monkeypatch.setattr(experiments_module, "ensemble_derivatives", spy)
    reports, fit, rate = mc_rate_experiment(target, ns, m, 2.0, seeds, grid=grid)
    assert blocks == [k for k in (5, 5, 2) for _ in range(m + 1)]
    np.testing.assert_allclose([r.value for r in reports], [r.value for r in one_block[0]],
                               rtol=1e-12, atol=0.0)
    assert rate == one_block[2]
    assert fit.slope == pytest.approx(one_block[1].slope, rel=1e-12)


@pytest.mark.parametrize("chunk", [None, 5 * 1000], ids=["one-block", "blocks-of-5"])
@pytest.mark.parametrize("dim,alpha,m,q", [(1, 2.0, 0, 2.0), (1, 1.8, 2, 3.0), (1, 1.0, 1, 2.0),
                                           (2, 2.5, 2, 2.0), (2, 0.5, 0, 4.0)])
def test_mc_matches_the_reference_bit_for_bit(monkeypatch, dim, alpha, m, q, chunk):
    """The draw-weight block filled in place, the CDF built once and the one-buffer
    evaluation blocks give the bits of fresh arrays and Generator.choice draws."""
    target = make_random_target(alpha, 1000, seed=101, dim=dim)
    ns, seeds = [16, 32, 64, 128], [0, 1, 2]
    if dim == 1:
        grid = None
        rule = gauss_legendre_rule(257, -1.0, 1.0)
        pts, weights = rule.nodes, rule.weights
    else:
        grid = GridSpec(1.0, 16, 16, 2.0)
        X, Y = grid.mesh()
        wr = grid.radial_weights() * grid.radial_nodes() * grid.angular_weight
        pts = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.broadcast_to(wr[:, None], X.shape).ravel()
    if chunk is not None:
        monkeypatch.setattr(ensembles_module, "_EVAL_CHUNK", chunk)  # 12 draws in blocks of 5, 5 and 2
    reports, _, rate = mc_rate_experiment(target, ns, m, q, seeds, grid=grid)
    values, want_rate = ensemble_reference.mc_errors(target, pts, weights, ns, seeds, m, q)
    assert [r.value for r in reports] == values
    assert rate == want_rate


def test_random_target_size_limit(monkeypatch):
    monkeypatch.setattr(ensembles_module, "MAX_NEURONS", 1200)
    assert len(make_random_target(2.0, 1200, seed=1)) == 1200
    with pytest.raises(ValidationError, match="exceeds the limit"):
        make_random_target(2.0, 1201, seed=1)


def test_mc_admissibility():
    target = make_random_target(1.5, 1200, seed=81)
    with pytest.raises(ValidationError, match=r"\(m=2, q=2\.0\) inadmissible for alpha=1\.5"):
        mc_rate_experiment(target, [32, 64, 128], 2, 2.0, seeds=2)
    with pytest.raises(ValidationError):
        mc_rate_experiment(target, [32, 64, 128], 0, 1.5, seeds=2)  # q < 2
    for q in (math.inf, math.nan):  # an inf-norm of |comp|^q would read 1 on every draw
        with pytest.raises(ValidationError, match=f"q must be finite and >= 2, got {q}"):
            mc_rate_experiment(target, [32, 64, 128], 0, q, seeds=2)
    small = make_random_target(2.0, 10, seed=83)
    with pytest.raises(ValidationError):
        mc_rate_experiment(small, [32, 64, 128], 0, 2.0, seeds=2)


def test_mc_first_derivative_admissible_for_alpha2():
    target = make_random_target(2.0, 1200, seed=87)
    ns = [64, 128, 256, 512, 1024]
    reports, fit, _ = mc_rate_experiment(target, ns, 1, 2.0, seeds=12)
    assert fit.slope == pytest.approx(-0.5, abs=0.15)


def test_mc_seed_averaging_shrinks_variance():
    target = make_random_target(2.0, 1200, seed=89)
    xs = np.linspace(-1, 1, 64)
    f = ensemble_eval_many(target, xs)

    def one_err(seed, n=128):
        sub = sample_subnetwork(target, n, seed=seed)
        d = ensemble_eval_many(sub, xs) - f
        return math.sqrt(float(np.mean(d * d)))

    errs = np.array([one_err(s) for s in range(64)])
    means_4 = errs[:32].reshape(8, 4).mean(axis=1)
    means_16 = errs.reshape(4, 16).mean(axis=1)
    assert means_16.std() < means_4.std()


def test_mc_cost_bound_in_expectation():
    target = make_random_target(2.0, 2000, seed=91)
    cost = barron_cost(target)
    vals = [barron_cost(sample_subnetwork(target, 256, seed=s)) for s in range(200)]
    assert np.mean(vals) == pytest.approx(cost, rel=0.02)


def test_error_report_validation():
    from harmlab import ErrorReport

    with pytest.raises(ValidationError):
        ErrorReport("reg", 2, 1.0, 2.0, 0, knob=0.0, value=1.0)
    with pytest.raises(ValidationError):
        ErrorReport("reg", 2, 1.0, 2.0, 0, knob=0.1, value=-1.0)


def test_mc_two_dimensional_target():
    target = make_random_target(2.0, 1000, seed=93, dim=2)
    grid = GridSpec(1.0, 32, 32, 2.0)
    reports, fit, rate = mc_rate_experiment(
        target, [64, 128, 256, 512], 0, 2.0, seeds=6, grid=grid
    )
    assert fit.slope == pytest.approx(-0.5, abs=0.2)
    assert 0.0 <= rate <= 1.0


def test_mc_reports_the_radius_of_its_domain():
    # a 2D error is measured on the half-disk of grid.R; a 1D error on [-1, 1]
    plane = make_random_target(2.0, 1000, seed=93, dim=2)
    reports, _, _ = mc_rate_experiment(plane, [32, 64, 128], 0, 2.0, seeds=2, grid=GridSpec(2.0, 16, 16, 2.0))
    assert [r.R for r in reports] == [2.0, 2.0, 2.0]
    line = make_random_target(2.0, 1000, seed=93)
    reports, _, _ = mc_rate_experiment(line, [32, 64, 128], 0, 2.0, seeds=2, grid=GridSpec(2.0, 16, 16, 2.0))
    assert [r.R for r in reports] == [1.0, 1.0, 1.0]


def test_sobolev_k3_order_kplus1_affine():
    eps = np.logspace(-3, -1, 4)
    grid = GridSpec(1.0, 192, 64, 3.0)
    reports, fit = sobolev_lognorm_experiment(3, eps, grid, order=4)
    assert fit.r_squared >= 0.99
    assert fit.slope > 0.0


def test_mc_admissible_fractional_boundary_case():
    # alpha = 0.75 splits as k = 0, gamma = 0.75: m = 1 = k+1 is admissible at
    # q = 2 since (1-gamma) q = 0.5 < 1
    target = make_random_target(0.75, 1000, seed=95)
    reports, fit, _ = mc_rate_experiment(target, [64, 128, 256, 512], 1, 2.0, seeds=6)
    assert all(np.isfinite(r.value) and r.value > 0 for r in reports)
    assert fit.slope < -0.2  # decays toward the n^(-1/2) law
