"""Poisson-kernel solver against closed forms and qualitative principles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlab import (
    BoundaryFunction,
    GridSpec,
    HalfPlanePoint,
    MaxSubdivisionsExceeded,
    NumericalError,
    ValidationError,
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    solve_at,
    solve_grid,
)


def test_heaviside_closed_form():
    val = solve_at(BoundaryFunction.heaviside(), HalfPlanePoint(1.0, 1.0), tol=1e-10)
    assert val == pytest.approx(0.75, abs=1e-9)


def test_relu_half_at_3_4():
    val = solve_at(BoundaryFunction.relu_power(0.5), HalfPlanePoint(3.0, 4.0), tol=1e-9)
    assert val == pytest.approx(2.0, abs=1e-7)


def test_constant_normalization_random_points():
    g = BoundaryFunction.custom(lambda s: np.full_like(s, 2.5), 0.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = HalfPlanePoint(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        assert solve_at(g, p, tol=1e-9) == pytest.approx(2.5, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
def test_agreement_with_closed_form_grid(alpha):
    # max error over a coarse grid with y >= 0.1, r <= 2
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(25):
        r = rng.uniform(0.15, 2.0)
        phi = rng.uniform(0.06, math.pi - 0.06)
        p = HalfPlanePoint(r * math.cos(phi), r * math.sin(phi))
        if p.y < 0.1:
            continue
        got = solve_at(BoundaryFunction.relu_power(alpha), p, tol=1e-9)
        want = eval_u_fractional(p, alpha)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6


def test_heaviside_grid_matches_closed_form():
    grid = GridSpec(1.0, 8, 8, 1.0)
    vals = solve_grid(BoundaryFunction.heaviside(), grid, tol=1e-9)
    X, Y = grid.mesh()
    for idx in np.ndindex(X.shape):
        assert vals[idx] == pytest.approx(
            eval_heaviside(HalfPlanePoint(X[idx], Y[idx])), abs=1e-9
        )


def test_relu03_grid_matches_fractional_branch():
    grid = GridSpec(2.0, 8, 8, 1.0)
    vals = solve_grid(BoundaryFunction.relu_power(0.3), grid, tol=1e-9)
    X, Y = grid.mesh()
    for idx in np.ndindex(X.shape):
        p = HalfPlanePoint(X[idx], Y[idx])
        assert vals[idx] == pytest.approx(eval_u_fractional(p, 0.3), abs=1e-6)


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        GridSpec(1.0, nr=0, nphi=8)


def test_growth_violation():
    g = BoundaryFunction.custom(lambda s: s, 1.0)
    with pytest.raises(ValidationError, match="kernel integral diverges"):
        solve_at(g, HalfPlanePoint(0.0, 1.0), tol=1e-9)
    with pytest.raises(ValidationError):
        BoundaryFunction.relu_power(1.0)
    # polynomial growth above degree 1 is rejected by the solver too
    with pytest.raises(ValidationError, match="kernel integral diverges"):
        solve_at(BoundaryFunction.custom(lambda s: 2.0 * s * s, 2.0), HalfPlanePoint(0.0, 1.0))


def test_constant_polynomial_admitted():
    g = BoundaryFunction.custom(lambda s: np.full_like(s, 4.0), 0.0)
    assert solve_at(g, HalfPlanePoint(0.2, 0.7), tol=1e-9) == pytest.approx(4.0, abs=1e-8)


def test_maximum_principle_bounded_data():
    g = BoundaryFunction.tanh(2.0, -1.0)
    rng = np.random.default_rng(47)
    for _ in range(20):
        p = HalfPlanePoint(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        assert abs(solve_at(g, p, tol=1e-9)) <= 1.0 + 1e-9


def test_sublinear_growth_along_vertical_axis():
    g = BoundaryFunction.relu_power(0.5)
    ratios = []
    for y in (10.0, 100.0, 1000.0):
        ratios.append(abs(solve_at(g, HalfPlanePoint(0.0, y), tol=1e-8)) / y)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.05


def test_heaviside_above_discontinuity_is_half():
    for y in (1.0, 0.1, 1e-3):
        assert solve_at(
            BoundaryFunction.heaviside(), HalfPlanePoint(0.0, y), tol=1e-10
        ) == pytest.approx(0.5, abs=1e-9)


def test_tanh_is_harmonic_extension():
    # cross-check against direct high-resolution quadrature of the kernel form
    import mpmath as mp

    g = BoundaryFunction.tanh(1.0, 0.0)
    p = HalfPlanePoint(0.4, 0.8)
    got = solve_at(g, p, tol=1e-10)
    want = float(
        mp.quad(lambda t: mp.tanh(p.x + t * p.y) / (1 + t * t), [-mp.inf, 0, mp.inf]) / mp.pi
    )
    assert got == pytest.approx(want, abs=1e-9)


def test_quadrature_failure_mapping(monkeypatch):
    # budget exhaustion inside the kernel quadrature surfaces as a NumericalError
    # that names the point, chained to the quadrature's own error
    from harmlab import poisson as poisson_mod

    def exhausted(*args, **kwargs):
        raise MaxSubdivisionsExceeded("budget", estimate=0.0, err_bound=1.0)

    monkeypatch.setattr(poisson_mod, "integrate_adaptive", exhausted)
    with pytest.raises(NumericalError, match=re.escape("kernel quadrature failed at (1.0, 1.0): budget")) as exc:
        solve_at(BoundaryFunction.heaviside(), HalfPlanePoint(1.0, 1.0))
    assert isinstance(exc.value.__cause__, MaxSubdivisionsExceeded)


def test_relu_near_one_solves():
    # the tail substitution z = s^m, m = 1/(1 - alpha) = 100, keeps the integrand bounded
    p = HalfPlanePoint(0.3, 0.5)
    got = solve_at(BoundaryFunction.relu_power(0.99), p, tol=1e-10)
    assert got == pytest.approx(eval_u_fractional(p, 0.99), rel=1e-9)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.05, 0.95),
    y=st.floats(0.1, 2.0),
    c=st.floats(-1.0, 1.0),
)
def test_solver_matches_closed_form_property(alpha, y, c):
    # y >= 0.1 and r <= 2: x spans the chord of the disk of radius 2 at height y
    p = HalfPlanePoint(c * math.sqrt(4.0 - y * y), y)
    got = solve_at(BoundaryFunction.relu_power(alpha), p, tol=1e-10)
    assert got == pytest.approx(eval_u_fractional(p, alpha), rel=1e-8)


def test_relu09_evaluation_budget():
    # with bounded tails a solve near the boundary kink needs few samples of g
    g0 = BoundaryFunction.relu_power(0.9)
    evals = []

    def counted(s):
        evals.append(s.size)
        return g0.fn(s)

    g = BoundaryFunction.custom(counted, g0.growth_alpha, g0.kinks)
    for x, y in ((0.3, 0.5), (-1.2, 0.4), (1.5, 0.1), (0.0, 2.0)):
        evals.clear()
        got = solve_at(g, HalfPlanePoint(x, y), tol=1e-10)
        assert got == pytest.approx(eval_u_fractional(HalfPlanePoint(x, y), 0.9), rel=1e-9)
        assert sum(evals) <= 2000, (x, y, sum(evals))


def _two_kink():
    return BoundaryFunction.custom(
        lambda s: np.sqrt(np.abs(s - 0.4)) + np.maximum(-0.6 - s, 0.0) ** 0.5,
        0.5, kinks=(0.4, -0.6),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: BoundaryFunction.relu_power(0.1),
        lambda: BoundaryFunction.relu_power(0.5),
        lambda: BoundaryFunction.relu_power(0.9),
        BoundaryFunction.heaviside,
        lambda: BoundaryFunction.tanh(2.0, -1.0),
        _two_kink,
    ],
    ids=["relu0.1", "relu0.5", "relu0.9", "heaviside", "tanh", "two-kink"],
)
def test_solve_grid_equals_elementwise_solve_at(make):
    g = make()
    grid = GridSpec(2.0, 8, 8, 1.0)
    got = solve_grid(g, grid, tol=1e-10)
    X, Y = grid.mesh()
    want = np.array([
        solve_at(g, HalfPlanePoint(float(x), float(y)), tol=1e-10) for x, y in zip(X.ravel(), Y.ravel())
    ]).reshape(X.shape)
    assert got.tobytes() == want.tobytes()


def test_solve_grid_failure_names_node(monkeypatch):
    # a lane's exhausted budget surfaces as a NumericalError naming that lane's node
    from harmlab import poisson as poisson_mod

    def last_lane_exhausted(f, a, b, tol, max_intervals):
        exc = MaxSubdivisionsExceeded("budget", estimate=0.0, err_bound=1.0)
        exc.lane = len(a) - 1
        raise exc

    monkeypatch.setattr(poisson_mod, "_integrate_lanes", last_lane_exhausted)
    grid = GridSpec(1.0, 8, 8, 1.0)
    X, Y = grid.mesh()
    node = re.escape(f"({float(X[-1, -1])}, {float(Y[-1, -1])})")
    with pytest.raises(NumericalError, match="kernel quadrature failed at " + node):
        solve_grid(BoundaryFunction.heaviside(), grid)
