"""Quadrature, half-disk norms, line fits, and the finite-difference oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlab import (
    GridSpec,
    HalfPlanePoint,
    MaxSubdivisionsExceeded,
    NonFiniteSample,
    NumericalError,
    QuadratureRule,
    ValidationError,
    eval_u_half,
    fit_linear,
    fit_loglog,
    gauss_legendre_rule,
    integrate_adaptive,
    norm_lp_halfdisk,
)
from harmlab import numerics
from harmlab.solutions import reg_diff_value
from greedy_reference import integrate_greedy
from oracles import fd_derivative, fd_laplacian
from polar_reference import magnitude, norm_lp_2d


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


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_integrate_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # tol = inf used to stop after the first rule: 1.9254 for an integral of 2
    with pytest.raises(ValidationError, match="tol must be finite and > 0"):
        integrate_adaptive(lambda x: x**-0.5, 0.0, 1.0, tol=tol)


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


def test_a_pole_at_a_node_is_a_non_finite_sample_without_a_numpy_warning():
    # 0.5 is the root rule's middle node on (0, 1) after rounding. Both drivers
    # run f with numpy's divide, overflow and invalid-value warnings off, so
    # NonFiniteSample reaches the caller, not the RuntimeWarning error this
    # suite's filterwarnings makes of numpy's warning
    def pole(x):
        return 1.0 / (x - 0.5)

    state = np.geterr()
    with pytest.raises(NonFiniteSample, match=re.escape("inside (0.0, 1.0)")):
        integrate_adaptive(pole, 0.0, 1.0)
    with pytest.raises(NonFiniteSample, match=re.escape("inside (0.0, 1.0)")) as info:
        numerics._integrate_lanes(lambda lanes, x: pole(x), [0.0, 0.0], [1.0, 1.0], [1e-9, 1e-9], 4000)
    assert info.value.lane == 0
    assert np.geterr() == state  # the caller's error state is back after the failure


def _rsqrt_nan_from_call(r):
    """x**-0.5 on (0, 1) at tol 1e-10, NaN exactly where the greedy's call r first samples."""
    lows = []

    def rsqrt(x):
        lows.append(x.min())
        return x**-0.5

    integrate_greedy(rsqrt, 0.0, 1.0, 1e-10)
    floor = min(lows[:r])
    assert lows[r] < floor  # call r samples below every earlier call
    return lambda x: np.where(x < floor, np.nan, x**-0.5)


def _lane_outcome(fns, max_intervals):
    """(type, lane, message, estimate) of the failure of the lanes fns[i] on (0, 1) at tol 1e-10."""
    def rows(lanes, x):
        return np.array([fns[lane](xi) for lane, xi in zip(lanes, x)])

    n = len(fns)
    with pytest.raises((MaxSubdivisionsExceeded, NonFiniteSample)) as info:
        numerics._integrate_lanes(rows, [0.0] * n, [1.0] * n, [1e-10] * n, max_intervals)
    exc = info.value
    return type(exc), exc.lane, str(exc), getattr(exc, "estimate", None)


def _one_lane_outcome(f, max_intervals):
    """(type, message, estimate) of the failure of integrate_adaptive on (0, 1) at tol 1e-10."""
    with pytest.raises((MaxSubdivisionsExceeded, NonFiniteSample)) as info:
        integrate_adaptive(f, 0.0, 1.0, 1e-10, max_intervals)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "estimate", None)


def test_lane_failures_raise_in_round_order_then_lane_order():
    # Round r of a lane evaluates its r-th bisection (round 0: the whole
    # interval). A lane that never converges runs out of 2r + 1 intervals as
    # it would start bisection r + 1, just after round r is evaluated. A NaN
    # that a later lane meets in round r raises first; one it would meet in
    # round r + 1 never does.
    r = 8
    budget = 2 * r + 1

    def divergent(x):
        return 1.0 / x

    exhausted = _one_lane_outcome(divergent, budget)
    assert exhausted[0] is MaxSubdivisionsExceeded
    nan_now = _rsqrt_nan_from_call(r)
    nonfinite = _one_lane_outcome(nan_now, budget)
    assert nonfinite[0] is NonFiniteSample
    assert _lane_outcome([divergent, nan_now], budget) == (NonFiniteSample, 1, *nonfinite[1:])
    assert _lane_outcome([divergent, _rsqrt_nan_from_call(r + 1)], budget) == (
        MaxSubdivisionsExceeded, 0, *exhausted[1:])
    # budget failures of one round raise in lane order
    assert _lane_outcome([lambda x: x * x, divergent, lambda x: 1.0 / (1.0 - x)], budget) == (
        MaxSubdivisionsExceeded, 1, *exhausted[1:])


def test_integrate_rejects_interior_nan():
    def f(x):
        return np.where(np.abs(x - 0.5) < 0.01, np.nan, 1.0)

    with pytest.raises(NonFiniteSample):
        integrate_adaptive(f, 0.0, 1.0, tol=1e-9)


def _outcome(integrate, f, a, b, tol, max_intervals):
    """repr of the value, or the failure with its message and carried state."""
    try:
        return repr(integrate(f, a, b, tol, max_intervals))
    except (MaxSubdivisionsExceeded, NonFiniteSample) as exc:
        return (type(exc).__name__, str(exc), repr(getattr(exc, "estimate", None)),
                repr(getattr(exc, "err_bound", None)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    beta=st.floats(-0.9, 0.99, exclude_min=True),
    a=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 3.0),
    where=st.sampled_from(["a", "b", "half", "quarter", "inside"]),
    inside=st.floats(0.0, 1.0),
    tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
    max_intervals=st.sampled_from([40, 300, 2000]),
)
def test_integrate_adaptive_is_the_greedy_bit_for_bit(beta, a, width, where, inside, tol, max_intervals):
    # |x - c|^beta: a singularity (beta < 0) or a kink at an end, at a point the
    # bisection reaches exactly (a node there samples 0^beta), or anywhere inside
    b = a + width
    c = {"a": a, "b": b, "half": 0.5 * (a + b), "quarter": 0.5 * (a + 0.5 * (a + b)),
         "inside": a + inside * (b - a)}[where]

    def f(x):
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** beta

    got = _outcome(integrate_adaptive, f, a, b, tol, max_intervals)
    assert got == _outcome(integrate_greedy, f, a, b, tol, max_intervals)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    beta=st.floats(-0.9, 0.99, exclude_min=True),
    a=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 3.0),
    at_a=st.booleans(),
    tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
    max_intervals=st.sampled_from([1, 3, 40, 2000]),
    pocket=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(-12.0, -0.5))),
)
def test_root_look_ahead_is_the_greedy_bit_for_bit(beta, a, width, at_a, tol, max_intervals, pocket):
    # |x - c|^beta with c at an end, and maybe a NaN pocket (centre, log10 of
    # its half-width over the interval's), which a root node, a half, an end
    # chain or nothing the greedy needs may sample
    b = a + width
    c = a if at_a else b

    def f(x):
        with np.errstate(divide="ignore"):
            y = np.abs(x - c) ** beta
        if pocket is None:
            return y
        return np.where(np.abs(x - (a + pocket[0] * width)) < 10.0 ** pocket[1] * width, np.nan, y)

    got = _outcome(integrate_adaptive, f, a, b, tol, max_intervals)
    assert got == _outcome(integrate_greedy, f, a, b, tol, max_intervals)


def test_root_look_ahead_raises_where_the_greedy_does():
    def rsqrt_with_nan(where):
        return lambda x: np.where(where(x), np.nan, x**-0.5)

    # a non-finite root rule names the whole interval
    with pytest.raises(NonFiniteSample, match=re.escape("inside (0.0, 1.0)")):
        integrate_adaptive(rsqrt_with_nan(lambda x: x > 0.9), 0.0, 1.0, 1e-10)
    # a non-finite half raises when the root is bisected; 0.75 is no root node
    with pytest.raises(NonFiniteSample, match=re.escape("inside (0.5, 1.0)")):
        integrate_adaptive(rsqrt_with_nan(lambda x: abs(x - 0.75) < 1e-9), 0.0, 1.0, 1e-10)
    # a non-finite row of the root's end chain that the greedy never bisects
    # into raises nothing: at tol 1e-2 it bisects three times towards 0, the
    # chain four times
    seen = []

    def rsqrt(x):
        seen.append(x.min())
        return x**-0.5

    want = integrate_greedy(rsqrt, 0.0, 1.0, 1e-2)
    floor = min(seen)
    seen.clear()
    got = integrate_adaptive(lambda x: np.where(x < floor, np.nan, rsqrt(x)), 0.0, 1.0, 1e-2)
    assert got == want and len(seen) == 1 and seen[0] < floor


def test_root_look_ahead_call_counts():
    # the first call evaluates 22 rows that nothing reads when the root rule
    # meets the tolerance, as it does for cos. (1, 285) before the first
    # request also bisected the root's inner quarters, and (1, 405) before
    # every integral looked ahead from its root
    sizes = []

    def cos(x):
        sizes.append(x.size)
        return np.cos(x)

    integrate_adaptive(cos, 0.0, 1.0, 1e-10)
    assert (len(sizes), sum(sizes)) == (1, 345)


def test_look_ahead_call_counts():
    # the greedy without look-ahead calls f 87 times on 2595 abscissae here.
    # The error falls by 2^0.5 a bisection towards 0, so the end chains run
    # to the depth cap. (18, 2895) with chains a fixed 6 deep and 3 heap
    # slots; before every integral looked ahead from its root this read
    # (18, 2805), and (17, 2805) when asked to look ahead from the root
    sizes = []

    def rsqrt(x):
        sizes.append(x.size)
        return x**-0.5

    integrate_adaptive(rsqrt, 0.0, 1.0, 1e-10)
    assert (len(sizes), sum(sizes)) == (8, 2715)


def test_nan_seen_only_ahead_is_not_raised():
    # the greedy never samples below its own smallest abscissa; NaN there is
    # sampled by the look-ahead alone and must change nothing
    seen = []

    def rsqrt(x):
        seen.append(x.min())
        return x**-0.5

    want = integrate_greedy(rsqrt, 0.0, 1.0, 1e-6)
    floor = min(seen)
    seen.clear()

    def nan_below_floor(x):
        return np.where(x < floor, np.nan, rsqrt(x))

    assert integrate_adaptive(nan_below_floor, 0.0, 1.0, 1e-6) == want
    assert min(seen) < floor  # the look-ahead did sample the NaN region


def test_nan_seen_only_by_heap_top_rows_is_not_raised():
    # sqrt on (0, 1): a later request also bisects the interior heap
    # intervals above its goal, and the greedy never bisects one of them,
    # (1/16, 1/8); its rows sample abscissae the greedy does not (the end
    # chain towards 0 stays below 1/32), and a NaN at one of them must change
    # nothing
    seen = []

    def f(x):
        seen.append(x.tolist())
        return np.sqrt(x)

    want = integrate_greedy(f, 0.0, 1.0, 1e-10)
    greedy_seen = {x for call in seen for x in call}
    seen.clear()
    assert integrate_adaptive(f, 0.0, 1.0, 1e-10) == want
    ahead_only = [x for call in seen[1:] for x in call if x not in greedy_seen and x > 1.0 / 32.0]
    assert ahead_only and all(1.0 / 16.0 < x < 1.0 / 8.0 for x in ahead_only)
    x0 = ahead_only[-1]
    assert integrate_adaptive(lambda x: np.where(x == x0, np.nan, f(x)), 0.0, 1.0, 1e-10) == want


@pytest.mark.parametrize("end", ["a", "b"])
@pytest.mark.parametrize("beta, calls", [(-0.5, 8), (0.1, 2), (0.5, 2), (0.9, 2)])
def test_end_chains_follow_the_error_decay(beta, calls, end):
    # |x - c|^beta at an end: the greedy's error falls by 2^(1 + beta) a
    # bisection towards c, and each end chain runs until it reaches the goal.
    # The greedy without look-ahead calls f 87, 27, 19 and 12 times; chains a
    # fixed 6 deep with 3 heap slots called it 18, 4, 3 and 2 times
    a, b = (0.0, 1.0) if end == "a" else (-1.0, 0.0)
    c = a if end == "a" else b
    sizes = []

    def f(x):
        sizes.append(x.size)
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** beta

    got = integrate_adaptive(f, a, b, 1e-10)
    assert len(sizes) == calls
    assert got == integrate_greedy(f, a, b, 1e-10)


def test_chain_depth_is_clamped_for_any_logs():
    # zero, tiny, huge, infinite and NaN errors, ratios and goals
    logs = [-math.inf, math.log(5e-324), 0.0, 700.0, math.inf, math.nan]
    for log_err in logs:
        for log_q in logs:
            for log_goal in logs:
                depth = numerics._chain_depth(log_err, log_q, log_goal)
                assert isinstance(depth, int) and 1 <= depth <= numerics._DEPTH_CAP


@pytest.mark.parametrize(
    "f, tol, max_intervals",
    [
        (lambda x: x**-0.5, 5e-324, 300),
        (lambda x: 1e300 * x**0.5, 1e-10, 2000),
        (lambda x: 1e300 * x**-0.5, 1e-10, 2000),
        (lambda x: np.where(x < 0.5, 1.5e308, -1.5e308), 1e-10, 2000),
        (lambda x: np.where(x < 0.5, 0.0, (1.0 - x) ** -0.5), 1e-10, 2000),
        (lambda x: np.where(x < 1e-9, np.nan, x**0.1), 1e-10, 2000),
        (lambda x: np.where(np.abs(x - 0.3) < 1e-6, np.nan, np.abs(x - 1.0) ** 0.1), 1e-10, 2000),
    ],
    ids=["tol-5e-324", "size-1e300", "overflow-on-the-chain", "infinite-errors", "zero-errors",
         "nan-on-the-chain", "nan-inside"],
)
def test_chain_depths_raise_nothing_new(f, tol, max_intervals):
    # the depth rule reads tol, the total and the popped errors in logs: a
    # goal that underflows, totals and errors that overflow or are 0, and
    # NaN pockets leave the greedy's value or failure as it is
    with np.errstate(all="ignore"):
        want = _outcome(integrate_greedy, f, 0.0, 1.0, tol, max_intervals)
    assert _outcome(integrate_adaptive, f, 0.0, 1.0, tol, max_intervals) == want


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    beta=st.floats(-0.9, 0.5),
    a=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 3.0),
    inside=st.floats(0.05, 0.95),
    tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
    max_intervals=st.sampled_from([3, 40, 300, 2000]),
    pocket=st.one_of(st.none(), st.floats(-14.0, -2.0)),
)
def test_heap_top_rows_are_the_greedy_bit_for_bit(beta, a, width, inside, tol, max_intervals, pocket):
    # |x - c|^beta with c inside, unsplit, so the heap's top holds the
    # intervals next to it; maybe NaN within 10^pocket * width of c, which a
    # half the greedy needs or only a heap-top row asked for ahead may sample
    b = a + width
    c = a + inside * width

    def f(x):
        with np.errstate(divide="ignore"):
            y = np.abs(x - c) ** beta
        if pocket is None:
            return y
        return np.where(np.abs(x - c) < 10.0 ** pocket * width, np.nan, y)

    got = _outcome(integrate_adaptive, f, a, b, tol, max_intervals)
    assert got == _outcome(integrate_greedy, f, a, b, tol, max_intervals)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0)])
def test_gauss_legendre_rule_refuses_a_node_count_that_is_not_an_integer(n):
    with pytest.raises(ValidationError, match=re.escape(f"n must be an integer, got {n!r}")):
        gauss_legendre_rule(n, -1.0, 1.0)
    assert gauss_legendre_rule(np.int64(3), -1.0, 1.0).nodes.size == 3


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
    with pytest.raises(ValidationError, match="within 2h = 0.02 of the boundary"):
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


@pytest.mark.parametrize(
    "nr, nphi, bad", [(64.0, 64, "nr"), (16.5, 16, "nr"), (64, 64.0, "nphi"), (16, np.float64(16.0), "nphi")]
)
def test_gridspec_refuses_node_counts_that_are_not_integers(nr, nphi, bad):
    # 64.0 used to pass, and the first norm on the grid raised numpy's TypeError
    with pytest.raises(ValidationError, match=f"{bad} must be an integer"):
        GridSpec(1.0, nr, nphi)
    assert GridSpec(1.0, np.int64(16), 16) == GridSpec(1.0, 16, 16)  # numpy's integers are counts


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
    val = norm_lp_halfdisk(lambda r, phi: [[(1.0, 1.0)]], g, 2.0)  # scalar tables broadcast
    assert val == pytest.approx(math.sqrt(math.pi / 2), abs=1e-6)


def test_norm_constant_inf_exact():
    g = GridSpec(1.0, 32, 32, 2.0)
    val = norm_lp_halfdisk(lambda r, phi: [[(np.full_like(r, -2.5), np.ones_like(phi))]], g, math.inf)
    assert val == 2.5


# one field per way norm_lp_halfdisk sums or takes the max: a single product,
# several terms in one component, and several components
_CASE_FIELDS = {
    "single product": lambda r, phi: [[(r, np.sin(phi))]],
    "two terms": lambda r, phi: [[(r, np.sin(phi)), (r * r, np.cos(phi))]],
    "two components": lambda r, phi: [[(r, np.sin(phi))], [(r * r, np.cos(phi))]],
}


def test_norm_calls_field_once_on_polar_tables():
    g = GridSpec(1.0, 16, 12, 2.0)
    for field in _CASE_FIELDS.values():
        for p in (1.0, 2.0, 3.0, math.inf):
            shapes = []

            def f(r, phi):
                shapes.append((np.shape(r), np.shape(phi)))
                return field(r, phi)

            norm_lp_halfdisk(f, g, p)
            assert shapes[0] == ((16, 1), (1, 12))
            if math.isinf(p):  # the ray search's rounds, then the one-point read at r = R
                ray = ((numerics.RAY_POINTS, 1), (1, 1))
                assert shapes[1:] == [ray] * numerics.RAY_ROUNDS + [((1, 1), (1, 1))]
            else:
                assert len(shapes) == 1


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_norm_of_a_component_without_terms_is_zero(p):
    g = GridSpec(1.0, 16, 12, 2.0)
    want = norm_lp_halfdisk(lambda r, phi: [[(r, np.sin(phi))]], g, p)
    assert norm_lp_halfdisk(lambda r, phi: [[], [(r, np.sin(phi))]], g, p) == pytest.approx(want, rel=1e-15)
    assert norm_lp_halfdisk(lambda r, phi: [[]], g, p) == 0.0


@pytest.mark.parametrize("field", [
    lambda r, phi: r * np.sin(phi),  # a grid array, not components
    lambda r, phi: [[(r * phi, 1.0)]],  # a grid-sized radial table
    lambda r, phi: [[(r, phi.T)]],  # an angular table over nphi radii
    lambda r, phi: [[(r,)]],  # a term without its angular table
    lambda r, phi: [],  # no component
])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_norm_refuses_fields_that_are_not_polar_products(field, p):
    with pytest.raises(ValidationError, match="component"):
        norm_lp_halfdisk(field, GridSpec(1.0, 16, 12, 2.0), p)


def test_norm_nonfinite_rejected():
    g = GridSpec(1.0, 16, 16, 1.0)
    for field in _CASE_FIELDS.values():

        def f(r, phi):
            comps = field(r, phi)
            R, Q = comps[-1][-1]
            comps[-1][-1] = (R, np.where(phi == phi.max(), np.nan, Q))
            return comps

        for p in (1.0, 2.0, 1.5, math.inf):
            with pytest.raises(NonFiniteSample, match="on the grid"):
                norm_lp_halfdisk(f, g, p)


def test_norm_overflowing_field_rejected_without_warnings():
    # pytest turns RuntimeWarning into an error, so a warning fails this test.
    # "table": r * r overflows on a grid of radius 1e200, inside the field;
    # "product": finite tables of size 1e200 whose products and sums overflow
    cases = {
        "table": (GridSpec(1e200, 16, 16, 1.0), lambda R, Q: (R * R, Q)),
        "product": (GridSpec(1.0, 16, 16, 1.0), lambda R, Q: (1e200 * R, 1e200 * Q)),
    }
    for overflow, (g, scale) in cases.items():
        for field in _CASE_FIELDS.values():

            def f(r, phi):
                return [[scale(R, Q) for R, Q in terms] for terms in field(r, phi)]

            for p in (1.0, 2.0, 1.5, math.inf):
                with pytest.raises(NonFiniteSample, match="on the grid"):
                    norm_lp_halfdisk(f, g, p)


def test_norm_refuses_a_field_malformed_only_on_ray_calls():
    g = GridSpec(1.0, 16, 12, 2.0)

    def f(r, phi):  # polar tables on the grid, a term without its angular table on the ray
        return [[(r, np.sin(phi))]] if np.size(phi) > 1 else [[(r,)]]

    assert norm_lp_halfdisk(f, g, 2.0) > 0.0
    with pytest.raises(ValidationError, match="list of \\(radial table, angular table\\) pairs"):
        norm_lp_halfdisk(f, g, math.inf)


def test_norm_nonfinite_ray_max_rejected():
    g = GridSpec(1.0, 16, 16, 1.0)

    def f(r, phi):  # finite on the grid, NaN on the ray calls
        return [[(np.ones_like(r) if np.size(r) > 1 else np.full_like(r, np.nan), np.sin(phi))]]

    assert norm_lp_halfdisk(f, g, 2.0) > 0.0
    with pytest.raises(NonFiniteSample, match="maximizing ray"):
        norm_lp_halfdisk(f, g, math.inf)


# r exp(-r / r0) peaks at r0 with the value r0 / e. r0 lies strictly between
# radial nodes of GRID_OFF (nr = 16, grading 2, R = 1), and the ray at the
# middle angular node of the odd nphi is phi = pi/2, where sin(phi) = 1.
GRID_OFF = GridSpec(1.0, 16, 13, 2.0)
R0 = 0.3


def _peak(r):
    return r * np.exp(-r / R0)


@pytest.mark.parametrize("field", [
    lambda r, phi: [[(_peak(r), np.sin(phi))]],  # a single product
    lambda r, phi: [[(_peak(r), np.sin(phi))], [(_peak(r), np.cos(phi))]],  # |V| is _peak(r) on every ray
])
def test_norm_linf_finds_a_maximum_between_radial_nodes(field):
    nodes = GRID_OFF.radial_nodes()
    j = int(np.searchsorted(nodes, R0))
    assert nodes[j - 1] < R0 < nodes[j] and min(R0 - nodes[j - 1], nodes[j] - R0) > 0.01
    want = R0 / math.e
    grid_max, rstar, vstar, edge = numerics.ray_refined_max(field, GRID_OFF)
    assert grid_max < want * (1 - 1e-4)  # the grid alone misses the peak
    assert rstar == pytest.approx(R0, rel=1e-7)
    assert vstar == pytest.approx(want, rel=1e-15)
    assert edge == pytest.approx(float(_peak(1.0)), rel=1e-15)
    assert norm_lp_halfdisk(field, GRID_OFF, math.inf) == pytest.approx(want, rel=1e-15)


def _reg_difference(eps, k):
    """u_{eps,k} - u_k = f(r) sin(k phi) as a polar product, f read on the ray phi = pi/(2k)."""
    ray = math.pi / (2 * k)
    return lambda r, phi: [[(reg_diff_value(r * math.cos(ray), r * math.sin(ray), eps, k), np.sin(k * phi))]]


def test_norm_linf_reg_difference_window():
    # sup of |u_{eps,k} - u_k| on the unit half-disk: max_r r^k log(1+eps^2/r^2)/(2pi);
    # for k = 2 the radial profile is increasing, so the max sits at r = R.
    eps, k = 1e-2, 2
    g = GridSpec(1.0, 256, 256, 2.0)
    val = norm_lp_halfdisk(_reg_difference(eps, k), g, math.inf)
    analytic = math.log1p(eps**2) / (2 * math.pi)
    assert 0.5 * eps**2 / (2 * math.pi) <= val <= 1.5 * eps**2 / (2 * math.pi)
    assert val == pytest.approx(analytic, rel=2e-4)


def test_norm_monotone_in_p_after_normalization():
    # power means against the normalized measure are nondecreasing in p
    g = GridSpec(1.0, 64, 64, 2.0)
    area = math.pi / 2
    fields = [
        lambda r, phi: [[(r, np.cos(phi))]],
        lambda r, phi: [[(np.exp(-(r**2)), np.ones_like(phi))]],
        lambda r, phi: [[(r, np.abs(np.cos(phi)) + np.sin(phi))]],
        *_CASE_FIELDS.values(),
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
        f = _reg_difference(eps, 3)
        a = norm_lp_halfdisk(f, g, 1.0)
        b = norm_lp_halfdisk(f, g.refined(), 1.0)
        assert abs(a - b) / max(a, b) < 0.005


# random polar product fields: term i of a component is c r^i cos(a r) paired
# with cos(n phi + theta), so the terms of one component are independent
_TERM = st.tuples(
    st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),  # c
    st.floats(0.0, 4.0),  # a
    st.integers(0, 6),  # n
    st.floats(0.0, math.pi),  # theta
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    comps=st.one_of(
        _TERM.map(lambda term: [[term]]),  # a single product, which has its own p = inf grid max
        st.lists(st.lists(_TERM, min_size=1, max_size=6), min_size=1, max_size=3),
    ),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
    R=st.floats(0.1, 10.0),
    nr=st.integers(8, 80),
    nphi=st.integers(8, 80),
    grading=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_norm_matches_the_full_grid_quadrature(comps, p, R, nr, nphi, grading):
    def f(r, phi):
        return [[(c * r**i * np.cos(a * r), np.cos(n * phi + theta)) for i, (c, a, n, theta) in enumerate(terms)]
                for terms in comps]

    grid = GridSpec(R, nr, nphi, grading)
    want = norm_lp_2d(magnitude(f), grid, p)
    assert norm_lp_halfdisk(f, grid, p) == pytest.approx(want, rel=1e-13, abs=0.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    comps=st.lists(st.lists(_TERM, min_size=0, max_size=6), min_size=1, max_size=3),
    p=st.sampled_from([1.0, 1.5, 4.0]),
    nr=st.integers(8, 100),
    nphi=st.integers(8, 80),
)
def test_norm_in_blocks_of_radii_is_the_whole_grid_sum_bit_for_bit(comps, p, nr, nphi):
    # a radius's sum over the angles does not depend on the block it is in
    def f(r, phi):
        return [[(c * r**i * np.cos(a * r), np.cos(n * phi + theta)) for i, (c, a, n, theta) in enumerate(terms)]
                for terms in comps]

    grid = GridSpec(1.5, nr, nphi, 2.0)
    blocked = norm_lp_halfdisk(f, grid, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_NORM_BLOCK", nr)
        assert norm_lp_halfdisk(f, grid, p) == blocked


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
    with pytest.raises(ValidationError, match="all abscissae identical"):
        fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="all abscissae identical"):
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
