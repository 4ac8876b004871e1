"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one `PASS:`/`FAIL:` line (run pytest with -s to see them all).
Criterion 6 is encoded as a strict expected failure: the |log eps| growth it
asserts at derivative order k+2 provably lives at order k+1 instead (the
squared order-(k+2) seminorm scales like eps^-2); the companion assertion in
test_experiments.py covers the corrected order.
"""

import math
import time

import numpy as np
import pytest

from harmlab import (
    BoundaryFunction,
    GridSpec,
    HalfPlanePoint,
    NeuronEnsemble,
    ValidationError,
    barron_cost,
    dk1_angle_factor,
    ensemble_eval_many,
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    eval_u_integer,
    eval_u_three_half,
    fit_loglog,
    integrate_adaptive,
    lift_ensemble,
    log_divergence_diagnostic,
    make_random_target,
    mc_rate_experiment,
    reg_error_experiment,
    slice_log_fit,
    sobolev_lognorm_experiment,
    solve_at,
)
from harmlab.cli import run
from harmlab.diagnostics import _dk1_field
from harmlab.ensembles import cauchy_graded_rule, cauchy_midpoint_rule, ensemble_eval
from harmlab.solutions import heaviside_field, u_fractional_field
from oracles import arctan_component, fd_derivative, fd_laplacian

GRID = GridSpec(1.0, 256, 128, 3.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def sample_points(rng, count, r_lo=0.3, r_hi=2.0):
    pts = []
    while len(pts) < count:
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        phi = rng.uniform(0.15, math.pi - 0.15)
        p = HalfPlanePoint(r * math.cos(phi), r * math.sin(phi))
        if p.y > 0.12:
            pts.append(p)
    return pts


def test_criterion_1_harmonicity_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    families = [
        ("u_1", lambda x, y: eval_u_integer(HalfPlanePoint(x, y), 1)),
        ("u_2", lambda x, y: eval_u_integer(HalfPlanePoint(x, y), 2)),
        ("u_3", lambda x, y: eval_u_integer(HalfPlanePoint(x, y), 3)),
        ("u_0.3", lambda x, y: eval_u_fractional(HalfPlanePoint(x, y), 0.3)),
        ("u_0.5", lambda x, y: eval_u_fractional(HalfPlanePoint(x, y), 0.5)),
        ("u_1.5", lambda x, y: eval_u_fractional(HalfPlanePoint(x, y), 1.5)),
    ]
    worst = (2.0, "")
    for name, u in families:
        for p in sample_points(rng, 20):
            hs = (2e-2, 1e-2, 5e-3, 2.5e-3)
            res = [abs(fd_laplacian(u, p, h)) for h in hs]
            slope = fit_loglog(hs, res).slope
            if abs(slope - 2.0) > abs(worst[0] - 2.0):
                worst = (slope, name)
            assert slope == pytest.approx(2.0, abs=0.2), (name, p)
    g = BoundaryFunction.heaviside()

    def u_poisson(x, y):
        return solve_at(g, HalfPlanePoint(x, y), tol=1e-12)

    for p in sample_points(rng, 20, r_lo=0.4, r_hi=1.2):
        hs = (2e-2, 1e-2, 5e-3)
        res = [abs(fd_laplacian(u_poisson, p, h)) for h in hs]
        slope = fit_loglog(hs, res).slope
        if abs(slope - 2.0) > abs(worst[0] - 2.0):
            worst = (slope, "poisson-heaviside")
        assert slope == pytest.approx(2.0, abs=0.2), ("poisson", p)
    elapsed = time.time() - t0
    report(
        1,
        elapsed < 10.0,
        f"FD-Laplacian residual order 2.0 +/- 0.2 (worst {worst[0]:.3f} on {worst[1]}), "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_2_closed_form_cross_agreement():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    worst_closed = 0.0
    for p in sample_points(rng, 200, r_lo=0.05, r_hi=3.0):
        for got, want in (
            (eval_u_half(p), eval_u_fractional(p, 0.5)),
            (eval_u_three_half(p), eval_u_fractional(p, 1.5)),
        ):
            scale = max(abs(want), 1e-30)
            worst_closed = max(worst_closed, abs(got - want) / scale)
    assert worst_closed <= 1e-6

    # 16x16 polar grid with y >= 0.1, r <= 2
    rs = np.linspace(0.12, 2.0, 16)
    phis = np.linspace(0.08, math.pi - 0.08, 16)
    worst_solver = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.9):
        g = BoundaryFunction.relu_power(alpha)
        for r in rs:
            for phi in phis:
                p = HalfPlanePoint(r * math.cos(phi), r * math.sin(phi))
                if p.y < 0.1:
                    continue
                got = solve_at(g, p, tol=1e-10)
                want = eval_u_fractional(p, alpha)
                worst_solver = max(worst_solver, abs(got - want) / abs(want))
    elapsed = time.time() - t0
    report(
        2,
        worst_solver <= 1e-6 and elapsed < 30.0,
        f"closed forms rel err {worst_closed:.2e}, solver-vs-formula rel err "
        f"{worst_solver:.2e} <= 1e-6, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_homogeneity_and_anomaly():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst_frac = 0.0
    worst_anom = 0.0
    for lam in (1.0 / 3.0, 2.0, 7.0):
        for _ in range(60):
            p = HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            for alpha in (0.3, 0.5, 1.5):
                u0 = eval_u_fractional(p, alpha)
                u1 = eval_u_fractional(HalfPlanePoint(lam * p.x, lam * p.y), alpha)
                scale = max(abs(u1), lam**alpha * math.hypot(p.x, p.y)**alpha)
                worst_frac = max(worst_frac, abs(u1 - lam**alpha * u0) / scale)
            for k in (1, 2, 3):
                im = ((p.x + 1j * p.y) ** k).imag
                lhs = eval_u_integer(
                    HalfPlanePoint(lam * p.x, lam * p.y), k
                ) - lam**k * eval_u_integer(p, k)
                rhs = -(lam**k) * math.log(lam) / math.pi * im
                scale = max(1.0, abs(rhs), lam**k * math.hypot(p.x, p.y)**k)
                worst_anom = max(worst_anom, abs(lhs - rhs) / scale)
    elapsed = time.time() - t0
    report(
        3,
        worst_frac <= 1e-12 and worst_anom <= 1e-12 and elapsed < 1.0,
        f"homogeneity {worst_frac:.2e}, anomaly identity {worst_anom:.2e} <= 1e-12, "
        f"{elapsed:.2f}s < 1s",
    )


@pytest.mark.parametrize("k,p", [(2, math.inf), (2, 1.0), (3, 2.0)])
def test_criterion_4_reg_rate(k, p):
    t0 = time.time()
    eps = np.logspace(-4, -1, 7)
    reports, fit = reg_error_experiment(k, p, 0, eps, GRID)
    ratios = [r.value / r.knob**2 for r in reports]  # R = 1
    window = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    p_label = "inf" if math.isinf(p) else f"{p:g}"
    report(
        4,
        abs(fit.slope - 2.0) <= 0.10 and window <= 10.0 and elapsed < 60.0,
        f"(k={k}, p={p_label}): slope {fit.slope:.3f} in 2.00 +/- 0.10, "
        f"ratio window {window:.2f} <= 10, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_hessian_exception_model():
    t0 = time.time()
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
    bounded = bool(np.all(vals <= 1.05 * c_log * m_log))
    elapsed = time.time() - t0
    report(
        5,
        resid_log < resid_pure and bounded and elapsed < 60.0,
        f"eps^2|log eps| residual {resid_log:.2e} < eps^2 residual {resid_pure:.2e}, "
        f"values <= 1.05*C*model: {bounded}, {elapsed:.1f}s < 60s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the squared H^(k+2) seminorm of the "
    "regularized log component scales like eps^-2, not affinely in |log eps| "
    "(the log growth lives at derivative order k+1)",
)
def test_criterion_6_sobolev_log_growth_order_kplus2():
    t0 = time.time()
    eps = np.logspace(-3, -1, 5)
    grid = GridSpec(1.0, 192, 64, 3.0)
    reports, fit = sobolev_lognorm_experiment(2, eps, grid)  # stated top order k+2
    elapsed = time.time() - t0
    report(
        6,
        fit.r_squared >= 0.99 and elapsed < 60.0,
        f"H^(k+2) seminorm^2 affine in |log eps|: r2 {fit.r_squared:.3f} >= 0.99 "
        f"(values {[f'{r.value:.3g}' for r in reports]}), {elapsed:.1f}s < 60s",
    )


def test_criterion_7_monte_carlo_rate():
    t0 = time.time()
    target = make_random_target(2.0, 2000, seed=4242)
    ns = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    reports, fit, rate = mc_rate_experiment(target, ns, 0, 2.0, seeds=20)
    elapsed = time.time() - t0
    report(
        7,
        abs(fit.slope + 0.5) <= 0.15 and rate >= 0.5 and elapsed < 120.0,
        f"L2 slope {fit.slope:.3f} in -0.5 +/- 0.15, coefficient-bound rate "
        f"{rate:.2f} >= 0.5, {elapsed:.1f}s < 120s",
    )


def test_criterion_8_log_divergence_diagnostic():
    t0 = time.time()
    ok = True
    details = []
    for k, want in ((1, 1.0), (2, 2.0)):
        fit = log_divergence_diagnostic(k, np.logspace(-2, -6, 5))
        ok = ok and abs(fit.slope - want) <= 0.02 * want and fit.r_squared >= 0.999
        details.append(f"k={k}: slope {fit.slope:.4f} (want {want:g}), r2 {fit.r_squared:.5f}")
    elapsed = time.time() - t0
    report(8, ok and elapsed < 5.0, "; ".join(details) + f", {elapsed:.1f}s < 5s")


def test_criterion_9_closed_form_derivative():
    t0 = time.time()
    rng = np.random.default_rng(2028)
    worst_rel = 0.0
    for k in (1, 2, 3):
        h = {1: 1e-2, 2: 1e-2, 3: 2e-2}[k]
        for _ in range(20):
            x = rng.uniform(-2, 2)
            y = rng.uniform(0.5, 2)
            want = float(_dk1_field(x, y, k))
            got = fd_derivative(lambda t: float(arctan_component(t, y, k)), x, k + 1, h)
            worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1e-8))
    assert worst_rel <= 1e-4
    worst_slope = 0.0
    phis = np.logspace(-1, -3, 9)
    for k in (1, 2, 3):
        mags = np.abs(dk1_angle_factor(phis, k))
        slope = fit_loglog(phis, mags).slope
        worst_slope = max(worst_slope, abs(slope - (k + 1)))
        assert slope == pytest.approx(k + 1, abs=0.1)
    elapsed = time.time() - t0
    report(
        9,
        elapsed < 5.0,
        f"FD match rel err {worst_rel:.2e} <= 1e-4, small-angle exponent within "
        f"{worst_slope:.3f} of k+1, {elapsed:.1f}s < 5s",
    )


def test_criterion_10_slice_constants():
    t0 = time.time()
    worst = 0.0
    for k, theta in ((1, math.pi / 4), (2, math.pi / 4), (2, 1.0), (3, 0.5)):
        res = slice_log_fit(k, theta)
        want = (1.0 / math.cos(theta)) ** k * math.sin(k * theta) / math.pi
        worst = max(worst, abs(res.c_fit - want) / abs(want))
        assert abs(res.c_fit - want) <= 1e-6 * abs(want)
    with pytest.raises(ValidationError, match="log coefficient vanishes"):
        slice_log_fit(3, math.pi / 3)
    elapsed = time.time() - t0
    report(
        10,
        elapsed < 5.0,
        f"c_fit matches sec^k(theta) sin(k theta)/pi (worst rel {worst:.2e} <= 1e-6), "
        f"k*theta in pi*Z refused, {elapsed:.1f}s < 5s",
    )


def test_criterion_11_lifting():
    t0 = time.time()
    grid = GridSpec(2.0, 8, 12, 1.0)
    X, Y = grid.mesh()
    pts = np.column_stack([X.ravel(), Y.ravel()])

    e0 = NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.0)
    lifted0 = lift_ensemble(e0, t_rule=cauchy_midpoint_rule(1_000_000))
    got0 = ensemble_eval_many(lifted0, pts)
    err0 = float(np.max(np.abs(got0 - heaviside_field(X, Y).ravel())))

    e_half = NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 0.5)
    lifted_half = lift_ensemble(e_half, t_rule=cauchy_graded_rule(20_000))
    got_half = ensemble_eval_many(lifted_half, pts)
    err_half = float(np.max(np.abs(got_half - u_fractional_field(X, Y, 0.5).ravel())))

    # cost bound: lifted cost <= cost * integral (1+|t|)^alpha dCauchy + slack
    ok_cost = True
    for e, alpha in ((e0, 0.0), (e_half, 0.5)):
        lifted = lift_ensemble(e, t_rule=cauchy_graded_rule(20_000))
        factor = integrate_adaptive(
            lambda th: (1.0 + np.abs(np.tan(th))) ** alpha,
            -math.pi / 2,
            math.pi / 2,
            tol=1e-10,
        ) / math.pi
        ok_cost = ok_cost and barron_cost(lifted) <= barron_cost(e) * factor * (1 + 1e-3)

    elapsed = time.time() - t0
    report(
        11,
        err0 <= 1e-6 and err_half <= 1e-4 and ok_cost and elapsed < 10.0,
        f"heaviside lift err {err0:.2e} <= 1e-6, relu^1/2 lift err {err_half:.2e} <= 1e-4, "
        f"cost bound holds: {ok_cost}, {elapsed:.1f}s < 10s",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    pairs = []
    argv_reg = [
        "rates", "reg", "--k", "2", "--p", "inf", "--order", "0",
        "--eps-min", "1e-3", "--eps-max", "1e-1", "--steps", "5",
        "--nr", "64", "--nphi", "32", "--grading", "3",
    ]
    argv_mc = [
        "rates", "mc", "--alpha", "2", "--n-min", "32", "--n-max", "256",
        "--steps", "4", "--seeds", "3", "--target-size", "1000",
    ]
    for name, argv in (("reg", argv_reg), ("mc", argv_mc)):
        out1 = tmp_path / f"{name}1.csv"
        out2 = tmp_path / f"{name}2.csv"
        assert run([*argv, "--out", str(out1)]) == 0
        assert run([*argv, "--out", str(out2)]) == 0
        pairs.append(out1.read_bytes() == out2.read_bytes())
    capsys.readouterr()
    elapsed = time.time() - t0
    report(
        12,
        all(pairs),
        f"repeated CLI runs byte-identical (reg: {pairs[0]}, mc: {pairs[1]}), {elapsed:.1f}s",
    )
