"""Poisson-kernel solver against closed forms and qualitative principles."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlab import (
    BoundaryFunction,
    GridSpec,
    HalfPlanePoint,
    MaxSubdivisionsExceeded,
    NonFiniteSample,
    NumericalError,
    ValidationError,
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    solve_at,
    solve_grid,
)
from harmlab import poisson
from greedy_reference import solve_greedy


def meets_tol(got: float, want: float, tol: float) -> bool:
    """Whether got is want to the bound the quadrature claims: |got - want| <= tol * (1 + |want|)."""
    return abs(got - want) <= tol * (1.0 + abs(want))


def test_heaviside_closed_form():
    val = solve_at(BoundaryFunction.heaviside(), HalfPlanePoint(1.0, 1.0), tol=1e-10)
    assert meets_tol(val, 0.75, 1e-10)


def test_relu_half_at_3_4():
    val = solve_at(BoundaryFunction.relu_power(0.5), HalfPlanePoint(3.0, 4.0), tol=1e-9)
    assert meets_tol(val, 2.0, 1e-9)


def test_constant_normalization_random_points():
    g = BoundaryFunction.custom(lambda s: np.full_like(s, 2.5), 0.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = HalfPlanePoint(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        assert solve_at(g, p, tol=1e-9) == pytest.approx(2.5, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
def test_agreement_with_closed_form_grid(alpha):
    # a coarse grid with y >= 0.1, r <= 2
    rng = np.random.default_rng(43)
    for _ in range(25):
        r = rng.uniform(0.15, 2.0)
        phi = rng.uniform(0.06, math.pi - 0.06)
        p = HalfPlanePoint(r * math.cos(phi), r * math.sin(phi))
        if p.y < 0.1:
            continue
        got = solve_at(BoundaryFunction.relu_power(alpha), p, tol=1e-9)
        assert meets_tol(got, eval_u_fractional(p, alpha), 1e-9), p


def test_heaviside_grid_matches_closed_form():
    grid = GridSpec(1.0, 8, 8, 1.0)
    vals = solve_grid(BoundaryFunction.heaviside(), grid, tol=1e-9)
    X, Y = grid.mesh()
    for idx in np.ndindex(X.shape):
        assert meets_tol(vals[idx], eval_heaviside(HalfPlanePoint(X[idx], Y[idx])), 1e-9), idx


def test_relu03_grid_matches_fractional_branch():
    grid = GridSpec(2.0, 8, 8, 1.0)
    vals = solve_grid(BoundaryFunction.relu_power(0.3), grid, tol=1e-9)
    X, Y = grid.mesh()
    for idx in np.ndindex(X.shape):
        p = HalfPlanePoint(X[idx], Y[idx])
        assert meets_tol(vals[idx], eval_u_fractional(p, 0.3), 1e-9), idx


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


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
def test_solvers_refuse_a_tolerance_that_is_not_finite_and_positive(tol):
    # solve_grid does not go through integrate_adaptive, so both check tol up front
    g = BoundaryFunction.relu_power(0.5)
    with pytest.raises(ValidationError, match="tol must be finite and > 0"):
        solve_at(g, HalfPlanePoint(0.0, 1.0), tol=tol)
    with pytest.raises(ValidationError, match="tol must be finite and > 0"):
        solve_grid(g, GridSpec(1.0, 8, 8, 1.0), tol=tol)


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
    assert meets_tol(got, eval_u_fractional(p, 0.99), 1e-10)


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
    assert meets_tol(got, eval_u_fractional(p, alpha), 1e-10)


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


def test_relu09_look_ahead_call_counts():
    # a call of g bisects along a kink until the error, falling by 2^1.9 a
    # bisection, reaches the goal, and bisects the interior heap intervals
    # above it; (7, 1560) with chains a fixed 6 deep and 3 heap slots, and
    # (9, 1260) before every piece's first call looked ahead from its root
    g0 = BoundaryFunction.relu_power(0.9)
    sizes = []

    def counted(s):
        sizes.append(s.size)
        return g0.fn(s)

    solve_at(BoundaryFunction.custom(counted, g0.growth_alpha, g0.kinks), HalfPlanePoint(0.3, 0.5), tol=1e-10)
    assert (len(sizes), sum(sizes)) == (6, 1740)


def test_relu09_skip_and_root_look_ahead_call_counts():
    # vanishing pieces skipped and kept pieces looking ahead from their first
    # call; the custom-data pin above is the same data without a declared
    # support. (5, 990) with chains a fixed 6 deep and 3 heap slots, and
    # (5, 1230) when the root chains were six bisections deep
    g0 = BoundaryFunction.relu_power(0.9)
    sizes = []

    def counted(s):
        sizes.append(s.size)
        return g0.fn(s)

    got = solve_at(dataclasses.replace(g0, fn=counted), HalfPlanePoint(0.3, 0.5), tol=1e-10)
    assert got == solve_at(g0, HalfPlanePoint(0.3, 0.5), tol=1e-10)
    assert (len(sizes), sum(sizes)) == (4, 1050)


def test_readme_tanh_root_look_ahead_call_counts():
    # the README's tanh solve: a root rule that misses the tolerance on a
    # piece without a declared support still looks ahead from its first call
    # of g. (5, 975) with chains a fixed 6 deep, 3 heap slots and 19 root
    # rows, and (8, 1335) when only data with a support looked ahead
    g0 = BoundaryFunction.tanh(2.0, -1.0)
    sizes = []

    def counted(s):
        sizes.append(s.size)
        return g0.fn(s)

    got = solve_at(dataclasses.replace(g0, fn=counted), HalfPlanePoint(0.0, 1.0))
    assert got == solve_at(g0, HalfPlanePoint(0.0, 1.0))
    assert (len(sizes), sum(sizes)) == (3, 1035)


def _outcome(solve, g, p, tol):
    """repr of the value, or the failure's type and message."""
    try:
        return repr(solve(g, p, tol))
    except NumericalError as exc:
        return type(exc).__name__, str(exc)


_SIGNED = st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    g=st.one_of(
        st.builds(BoundaryFunction.relu_power, st.floats(0.0, 0.99), _SIGNED, _SIGNED.map(lambda b: b / 3.0)),
        st.just(BoundaryFunction.heaviside()),
    ),
    x=st.floats(-3.0, 3.0),
    y=st.floats(-3.0, 0.3).map(lambda e: 10.0**e),
    tol=st.floats(-12.0, -6.0).map(lambda e: 10.0**e),
)
def test_solve_at_is_the_greedy_over_every_piece_bit_for_bit(g, x, y, tol):
    # skipping vanishing pieces and looking ahead from a kept piece's first
    # call change no value and no failure
    p = HalfPlanePoint(x, y)
    assert _outcome(solve_at, g, p, tol) == _outcome(solve_greedy, g, p, tol)


@pytest.mark.parametrize(
    "g, x, y, tol",
    [
        (BoundaryFunction.relu_power(0.995), 0.3, 0.5, 1e-10),
        (BoundaryFunction.relu_power(0.999, -1.0, 0.5), -1.2, 0.4, 1e-6),
        (BoundaryFunction.relu_power(0.5, 2.0, -1.0), 1.5, 0.1, 1e-300),
        (BoundaryFunction.heaviside(), -0.4, 0.2, 1e-300),
    ],
    ids=["relu0.995", "relu0.999-negative-w", "relu0.5-tol1e-300", "heaviside-tol1e-300"],
)
def test_solve_at_fails_as_the_greedy_over_every_piece(g, x, y, tol):
    p = HalfPlanePoint(x, y)
    got = _outcome(solve_at, g, p, tol)
    assert isinstance(got, tuple) and got == _outcome(solve_greedy, g, p, tol)


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
        lambda: BoundaryFunction.relu_power(0.3, -2.0, 0.5),
    ],
    ids=["relu0.1", "relu0.5", "relu0.9", "heaviside", "tanh", "two-kink", "relu0.3-negative-w"],
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


def test_nonfinite_sample_names_the_point():
    # a non-finite integrand keeps its type and, like a budget failure, names the point
    g = BoundaryFunction.custom(lambda s: np.where(s > 0.5, np.nan, 1.0), 0.0)
    with pytest.raises(NonFiniteSample, match=re.escape("kernel quadrature failed at (0.25, 1.0): integrand")):
        solve_at(g, HalfPlanePoint(0.25, 1.0))
    grid = GridSpec(1.0, 8, 8, 1.0)
    with pytest.raises(NonFiniteSample, match="kernel quadrature failed at ") as exc:
        solve_grid(g, grid)
    x, y = map(float, re.match(r"kernel quadrature failed at \((.*), (.*)\):", str(exc.value)).groups())
    with pytest.raises(NonFiniteSample, match=re.escape(str(exc.value))):
        solve_at(g, HalfPlanePoint(x, y))


def test_support_of_the_constructors():
    assert BoundaryFunction.relu_power(0.5, 2.0, 1.0).support == (-0.5, math.inf)
    assert BoundaryFunction.relu_power(0.5, -2.0, 1.0).support == (-math.inf, 0.5)
    assert BoundaryFunction.heaviside().support == (0.0, math.inf)
    assert BoundaryFunction.tanh(2.0, -1.0).support is None
    assert BoundaryFunction.custom(np.sin, 0.0).support is None


@pytest.mark.parametrize(
    "make", [lambda w, b: BoundaryFunction.relu_power(0.5, w, b), BoundaryFunction.tanh], ids=["relu", "tanh"]
)
@pytest.mark.parametrize("w, b", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)])
def test_constructors_refuse_non_finite_parameters(make, w, b):
    with pytest.raises(ValidationError, match="requires finite w and b"):
        make(w, b)


def test_custom_data_refuse_a_nan_growth_exponent():
    # it used to be accepted, and solve_at then raised NonFiniteSample
    with pytest.raises(ValidationError, match="custom requires a growth_alpha that is not NaN, got nan"):
        BoundaryFunction.custom(np.tanh, math.nan)


@pytest.mark.parametrize("kink", [math.nan, math.inf, -math.inf])
def test_custom_data_refuse_non_finite_kinks(kink):
    # a NaN or infinite kink used to be dropped without a word
    with pytest.raises(ValidationError, match=re.escape(f"custom requires finite kinks, got kinks=(0.5, {kink})")):
        BoundaryFunction.custom(np.tanh, 0.0, [0.5, kink])


def test_a_root_node_a_few_ulps_from_the_support_end_marks_no_piece():
    # the middle piece (-1, 1) has no kink; its largest root node maps to
    # x + cos(pi/16) y, and a support that starts a few ulps from there
    # proves nothing (the tail t <= -1 maps far below it and is skipped)
    x, y, m = 0.3, 0.5, 2.0
    edge = x + poisson._ROOT_EDGES[1] * y
    for ulps in range(-4, 5):
        end = edge + ulps * math.ulp(edge)
        g = BoundaryFunction(lambda s: np.where(s > end, 1.0, 0.0), 0.0, support=(end, math.inf))
        assert [zero for *_, zero in poisson._pieces(g, x, y, m)] == [False, False, True], ulps
    g = BoundaryFunction(lambda s: np.where(s > edge + 1e-9, 1.0, 0.0), 0.0, support=(edge + 1e-9, math.inf))
    assert [zero for *_, zero in poisson._pieces(g, x, y, m)] == [True, False, True]


def test_an_underflowing_tail_power_marks_no_piece():
    # at (0.3, 0.5) the kink is in the middle, so the t <= -1 tail is one piece
    # on (0, 1), where relu data vanish; its smallest root node s0 gives
    # s0^200 = 0 (alpha = 0.995), so it is kept, and a normal s0^100 (alpha = 0.99)
    s0 = 0.5 + 0.5 * poisson._ROOT_EDGES[0]
    assert s0**200 == 0.0 and s0**100 >= sys.float_info.min
    for alpha, skipped in ((0.995, False), (0.99, True)):
        pieces = poisson._pieces(BoundaryFunction.relu_power(alpha), 0.3, 0.5, 1.0 / (1.0 - alpha))
        assert [(lo, hi, zero) for sign, lo, hi, zero in pieces if sign == -1] == [(0.0, 1.0, skipped)]
    with pytest.raises(NonFiniteSample, match=re.escape("failed at (0.3, 0.5): integrand non-finite inside (0.0, 1.0)")):
        solve_at(BoundaryFunction.relu_power(0.995), HalfPlanePoint(0.3, 0.5), tol=1e-10)


@pytest.mark.parametrize("y", [5e-324, 1e-310, 2.2250738585072009e-308])
def test_solvers_refuse_a_subnormal_y(y):
    # x + t*y underflows to x for small t, so the middle piece read the step
    # at 0 where it lies beside it: (0, 5e-324) gave 0.352 for 0.5
    with pytest.raises(ValidationError, match=re.escape(f"kernel quadrature at (0.0, {y}) needs y >= ")):
        solve_at(BoundaryFunction.heaviside(), HalfPlanePoint(0.0, y))
    with pytest.raises(ValidationError, match=r"kernel quadrature at \(.*\) needs y >= 2.2250738585072014e-308"):
        solve_grid(BoundaryFunction.heaviside(), GridSpec(y, 8, 8, 1.0))
    assert solve_at(BoundaryFunction.heaviside(), HalfPlanePoint(0.0, sys.float_info.min), tol=1e-10) == 0.5
