"""Closed-form solution family: spot values, harmonicity, homogeneity, boundary."""

import math
from functools import partial

import numpy as np
import pytest

from harmlab import (
    HalfPlanePoint,
    ValidationError,
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    eval_u_integer,
    eval_u_reg,
    eval_u_three_half,
    fit_loglog,
)
from harmlab.solutions import (
    heaviside_field,
    reg_diff_gradient,
    reg_diff_hessian,
    reg_diff_value,
    u_fractional_field,
    u_integer_field,
)
from oracles import fd_laplacian


def test_integer_spot_values():
    assert eval_u_integer(HalfPlanePoint(0.0, 1.0), 1) == pytest.approx(0.0, abs=1e-15)
    assert eval_u_integer(HalfPlanePoint(1.0, 1.0), 2) == pytest.approx(
        -math.log(2) / math.pi, rel=1e-14
    )
    # boundary limit recovers ReLU^2(2) = 4
    assert eval_u_integer(HalfPlanePoint(2.0, 1e-8), 2) == pytest.approx(4.0, abs=1e-5)


def test_fractional_spot_values():
    assert eval_u_fractional(HalfPlanePoint(0.0, 1.0), 0.5) == pytest.approx(
        math.sqrt(2) / 2, rel=1e-14
    )
    assert eval_u_fractional(HalfPlanePoint(1.0, 1e-10), 0.5) == pytest.approx(1.0, abs=1e-5)
    # closed triple-angle value at (1, 1)
    c = (math.sqrt(2) + 1) / 2
    s = (math.sqrt(2) - 1) / 2
    expected = c**1.5 - 3 * math.sqrt(c) * s
    assert eval_u_fractional(HalfPlanePoint(1.0, 1.0), 1.5) == pytest.approx(expected, rel=1e-13)


def test_near_integer_alpha_rejected():
    with pytest.raises(ValidationError, match="within 1e-9 of an integer"):
        eval_u_fractional(HalfPlanePoint(1.0, 1.0), 2.0 + 1e-12)
    with pytest.raises(ValidationError, match="within 1e-9 of an integer"):
        eval_u_fractional(HalfPlanePoint(1.0, 1.0), 1.0)


def test_half_closed_form():
    assert eval_u_half(HalfPlanePoint(-1.0, 1e-12)) == pytest.approx(0.0, abs=1e-6)
    assert eval_u_half(HalfPlanePoint(3.0, 4.0)) == pytest.approx(2.0, rel=1e-15)
    assert eval_u_three_half(HalfPlanePoint(0.0, 1.0)) == pytest.approx(
        -math.sqrt(2) / 2, rel=1e-14
    )


def test_closed_forms_match_fractional_branch():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = HalfPlanePoint(rng.uniform(-3, 3), rng.uniform(1e-3, 3))
        uh = eval_u_half(p)
        uf = eval_u_fractional(p, 0.5)
        assert uh == pytest.approx(uf, rel=1e-12, abs=1e-15)
        u3 = eval_u_three_half(p)
        uf3 = eval_u_fractional(p, 1.5)
        assert u3 == pytest.approx(uf3, rel=1e-12, abs=1e-12 * math.hypot(p.x, p.y)**1.5)


def test_closed_forms_keep_their_digits_near_the_negative_axis():
    # x < 0, far from the origin against y: each plain form (arctan(x/y)/pi +
    # 1/2, Re z^alpha - cot(pi alpha) Im z^alpha, r + x) cancels there, so the
    # references take those forms at 50 digits
    import mpmath as mp

    rng = np.random.default_rng(11)
    X = -(10.0 ** rng.uniform(-1.0, 4.0, 600))
    Y = 10.0 ** rng.uniform(-4.0, 0.0, 600)
    alphas = (0.3, 0.5, 1.5, 2.7)
    H, U = heaviside_field(X, Y), [u_fractional_field(X, Y, a) for a in alphas]
    with mp.workdps(50):
        for i, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
            z = mp.mpc(x, y)
            r = abs(z)
            c, s = (r + x) / 2, (r - x) / 2
            want = {
                "heaviside": (mp.atan(mp.mpf(x) / y) / mp.pi + mp.mpf(1) / 2, H[i]),
                "half": (mp.sqrt(c), eval_u_half(HalfPlanePoint(x, y))),
                "three-half": (c * mp.sqrt(c) - 3 * mp.sqrt(c) * s, eval_u_three_half(HalfPlanePoint(x, y))),
            }
            for a, Ua in zip(alphas, U):
                w = z ** mp.mpf(a)
                want[f"frac {a}"] = (w.real - mp.cot(mp.pi * mp.mpf(a)) * w.imag, Ua[i])
            for name, (ref, got) in want.items():
                assert abs(got - ref) <= 1e-13 * abs(ref), (name, x, y, got, ref)


def test_heaviside_values_and_range():
    assert eval_heaviside(HalfPlanePoint(0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert eval_heaviside(HalfPlanePoint(1.0, 1.0)) == pytest.approx(0.75, abs=1e-15)
    assert eval_heaviside(HalfPlanePoint(-1000.0, 1.0)) == pytest.approx(0.0, abs=1e-3)
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = eval_heaviside(HalfPlanePoint(rng.uniform(-50, 50), rng.uniform(1e-3, 50)))
        assert 0.0 < v < 1.0


def test_u_reg_values():
    # eps -> 0 recovers the unregularized solution
    assert eval_u_reg(1.0, 1.0, 1e-12, 2) == pytest.approx(
        eval_u_integer(HalfPlanePoint(1.0, 1.0), 2), abs=1e-10
    )
    # origin is a removable zero for every eps
    assert eval_u_reg(0.0, 0.0, 0.3, 2) == 0.0
    assert eval_u_reg(1.0, 1.0, 1.0, 2) == pytest.approx(-math.log(3) / math.pi, rel=1e-14)


@pytest.mark.parametrize("y", [0.0, -0.0])
@pytest.mark.parametrize("eps", [0.1, 1.0])
@pytest.mark.parametrize("k", [2, 3])
def test_u_reg_boundary_trace_is_relu_power(k, eps, y):
    # Heaviside convention on y = 0 (either sign of zero): the trace is ReLU^k
    for x in (-1.5, 0.0, 1.5):
        assert eval_u_reg(x, y, eps, k) == max(x, 0.0) ** k


def test_u_reg_validation():
    with pytest.raises(ValidationError, match="epsilon must be > 0"):
        eval_u_reg(1.0, 1.0, 0.0, 2)
    with pytest.raises(ValidationError, match="epsilon must be > 0"):
        eval_u_reg(1.0, 1.0, -1.0, 2)
    # parameters first, then the point: y < 0, then non-finite coordinates
    with pytest.raises(ValidationError, match="epsilon must be > 0"):
        eval_u_reg(1.0, -1.0, -1.0, 2)
    with pytest.raises(ValidationError, match="needs y >= 0"):
        eval_u_reg(math.nan, -1.0, 0.1, 2)
    for x, y, eps in [(1.0, 0.0, math.inf), (math.nan, 0.0, 0.1), (1.0, math.inf, 0.1), (-math.inf, 1.0, 0.1)]:
        with pytest.raises(ValidationError, match="finite"):
            eval_u_reg(x, y, eps, 2)


def _residual_orders(u, points, hs=(2e-2, 1e-2, 5e-3, 2.5e-3)):
    # h stays above the eps*|u|/h^2 rounding floor for the sampled radii
    slopes = []
    for p in points:
        res = [abs(fd_laplacian(u, p, h)) for h in hs]
        slopes.append(fit_loglog(hs, res).slope)
    return slopes


def sample_interior_points(rng, count, r_lo=0.25, r_hi=2.5, y_min=0.06):
    pts = []
    while len(pts) < count:
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        phi = rng.uniform(0.1, math.pi - 0.1)
        p = HalfPlanePoint(r * math.cos(phi), r * math.sin(phi))
        if p.y > y_min:
            pts.append(p)
    return pts


@pytest.mark.parametrize(
    "kind",
    [
        partial(u_integer_field, k=1),
        partial(u_integer_field, k=2),
        partial(u_integer_field, k=3),
        partial(u_fractional_field, alpha=0.3),
        partial(u_fractional_field, alpha=0.5),
        partial(u_fractional_field, alpha=1.5),
        partial(heaviside_field),
    ],
)
def test_harmonicity_fd_order(kind):
    # 5-point Laplacian residual of a harmonic function decays at order ~2
    rng = np.random.default_rng(101)
    pts = sample_interior_points(rng, 12)

    def u(x, y):
        return float(kind(x, y))

    slopes = _residual_orders(u, pts)
    for s in slopes:
        assert s == pytest.approx(2.0, abs=0.2)


def test_u_reg_is_not_harmonic():
    p = HalfPlanePoint(0.4, 0.7)

    def u(x, y):
        return eval_u_reg(x, y, 0.5, 2)

    res = abs(fd_laplacian(u, p, 1e-3))
    assert res > 1e-3  # genuinely nonzero Laplacian


@pytest.mark.parametrize("lam", [1.0 / 3.0, 2.0, 7.0])
def test_fractional_homogeneity_exact(lam):
    rng = np.random.default_rng(23)
    for alpha in (0.3, 0.5, 1.5, 2.7):
        for _ in range(50):
            p = HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            u1 = eval_u_fractional(HalfPlanePoint(lam * p.x, lam * p.y), alpha)
            u0 = eval_u_fractional(p, alpha)
            assert u1 == pytest.approx(
                lam**alpha * u0, rel=1e-12, abs=1e-12 * lam**alpha * math.hypot(p.x, p.y)**alpha
            )


@pytest.mark.parametrize("lam", [1.0 / 3.0, 2.0, 7.0])
def test_integer_anomaly_identity(lam):
    # u_k(lam p) - lam^k u_k(p) = -(lam^k log(lam)/pi) Im((x+iy)^k)
    # (substituting log(lam r) = log(lam) + log(r) in the closed form).
    rng = np.random.default_rng(29)
    for k in (1, 2, 3):
        for _ in range(50):
            p = HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            im = ((p.x + 1j * p.y) ** k).imag
            lhs = eval_u_integer(HalfPlanePoint(lam * p.x, lam * p.y), k) - lam**k * eval_u_integer(p, k)
            rhs = -(lam**k) * math.log(lam) / math.pi * im
            scale = max(1.0, abs(rhs), lam**k * math.hypot(p.x, p.y)**k)
            assert lhs == pytest.approx(rhs, abs=1e-12 * scale)


def test_boundary_attainment_monotone():
    # |u(x, y) - ReLU^alpha(x)| decreases monotonically once y enters the
    # asymptotic regime (the gap may cross zero once at moderate y).
    relu = lambda x, a: max(x, 0.0) ** a if x != 0 else 0.0
    for alpha, ev in [
        (2, lambda p: eval_u_integer(p, 2)),
        (0.5, lambda p: eval_u_fractional(p, 0.5)),
        (1.5, lambda p: eval_u_fractional(p, 1.5)),
    ]:
        for x in np.concatenate([np.linspace(-2, -0.25, 5), np.linspace(0.25, 2, 5)]):
            gaps = [abs(ev(HalfPlanePoint(float(x), 2.0**-j)) - relu(float(x), alpha)) for j in range(2, 14)]
            tail = gaps[4:]
            assert all(a >= b - 1e-14 for a, b in zip(tail[:-1], tail[1:]))
            assert gaps[-1] < 1e-3


def test_vectorized_fields_match_scalar():
    rng = np.random.default_rng(37)
    X = rng.uniform(-2, 2, 40)
    Y = rng.uniform(0.05, 2, 40)
    U = u_integer_field(X, Y, 3)
    for i in range(40):
        assert U[i] == pytest.approx(
            eval_u_integer(HalfPlanePoint(X[i], Y[i]), 3), rel=1e-13, abs=1e-13
        )
    V = u_fractional_field(X, Y, 0.7)
    for i in range(40):
        assert V[i] == pytest.approx(
            eval_u_fractional(HalfPlanePoint(X[i], Y[i]), 0.7), rel=1e-13, abs=1e-13
        )


def test_reg_diff_value_matches_eval():
    rng = np.random.default_rng(41)
    X = rng.uniform(-0.7, 0.7, 30)
    Y = rng.uniform(0.01, 0.7, 30)
    eps, k = 0.05, 2
    V = reg_diff_value(X, Y, eps, k)
    for i in range(30):
        direct = eval_u_reg(X[i], Y[i], eps, k) - eval_u_integer(HalfPlanePoint(X[i], Y[i]), k)
        assert V[i] == pytest.approx(direct, rel=1e-10, abs=1e-14)


# The three separate bodies that the one `_reg_diff` body replaced, kept as
# the reference it must reproduce bit for bit.


def _ref_reg_diff_value(X, Y, epsilon, k):
    B = X * X + Y * Y
    Q = ((X + 1j * Y) ** k).imag
    D = np.log1p(epsilon * epsilon / B)
    return -(0.5 / np.pi) * D * Q


def _ref_reg_diff_gradient(X, Y, epsilon, k):
    e2 = epsilon * epsilon
    B = X * X + Y * Y
    A = B + e2
    Z = X + 1j * Y
    Zk1 = Z ** (k - 1)
    Q = (Zk1 * Z).imag
    Qx = k * Zk1.imag
    Qy = k * Zk1.real
    D = np.log1p(e2 / B)
    G = -e2 / (A * B)
    c = -(0.5 / np.pi)
    return c * (2.0 * X * G * Q + D * Qx), c * (2.0 * Y * G * Q + D * Qy)


def _ref_reg_diff_hessian(X, Y, epsilon, k):
    e2 = epsilon * epsilon
    B = X * X + Y * Y
    A = B + e2
    Z = X + 1j * Y
    if k >= 2:
        Zk2 = Z ** (k - 2)
        Zk1 = Zk2 * Z
    else:
        Zk1 = Z ** (k - 1)
        Zk2 = np.zeros_like(Zk1)
    Q = (Zk1 * Z).imag
    Qx = k * Zk1.imag
    Qy = k * Zk1.real
    kk1 = k * (k - 1)
    Qxx = kk1 * Zk2.imag
    Qxy = kk1 * Zk2.real
    Qyy = -Qxx
    D = np.log1p(e2 / B)
    AB = A * B
    G = -e2 / AB
    H = -e2 * (A + B) / (AB * AB)
    c = -(0.5 / np.pi)
    vxx = c * ((2.0 * G - 4.0 * X * X * H) * Q + 4.0 * X * G * Qx + D * Qxx)
    vxy = c * (-4.0 * X * Y * H * Q + 2.0 * X * G * Qy + 2.0 * Y * G * Qx + D * Qxy)
    vyy = c * ((2.0 * G - 4.0 * Y * Y * H) * Q + 4.0 * Y * G * Qy + D * Qyy)
    return vxx, vxy, vyy


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_reg_diff_bodies_match_reference(k):
    rng = np.random.default_rng(2024 + k)
    n = 6000
    X = np.concatenate([
        rng.uniform(-2.0, 2.0, n),
        rng.uniform(-2.0, 2.0, n),  # on the boundary y = 0 (and y = -0)
        rng.uniform(-1.0, 1.0, n) * 1e-6,  # |z| ~ 1e-6, where eps^2/r^2 is large
    ])
    Y = np.concatenate([
        rng.uniform(0.0, 2.0, n),
        np.where(rng.random(n) < 0.5, 0.0, -0.0),
        rng.uniform(0.0, 1.0, n) * 1e-6,
    ])
    pairs = [(reg_diff_value, _ref_reg_diff_value), (reg_diff_gradient, _ref_reg_diff_gradient),
             (reg_diff_hessian, _ref_reg_diff_hessian)]
    for eps in (1e-6, 1e-3, 0.1, 1.0):
        for new, ref in pairs:
            got, want = np.asarray(new(X, Y, eps, k)), np.asarray(ref(X, Y, eps, k))
            # int64 views: equal bits, so -0.0 and 0.0 differ and NaNs compare
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_integer_solutions_match_cartesian_expansions():
    # hand-expanded Cartesian forms of the first three integer solutions
    rng = np.random.default_rng(59)
    for _ in range(60):
        x = rng.uniform(-3, 3)
        y = rng.uniform(0.05, 3)
        pref = math.atan2(x, y) / math.pi + 0.5
        logr = 0.5 * math.log(x * x + y * y)
        want = {
            1: pref * x - (logr / math.pi) * y,
            2: pref * (x * x - y * y) - (logr / math.pi) * 2 * x * y,
            3: pref * (x**3 - 3 * x * y * y) - (logr / math.pi) * (3 * x * x * y - y**3),
        }
        p = HalfPlanePoint(x, y)
        for k, w in want.items():
            assert eval_u_integer(p, k) == pytest.approx(w, rel=1e-13, abs=1e-13)


def test_harmonicity_symbolic_oracle():
    # sympy verifies the Laplacian of the integer family vanishes identically
    import sympy as sp

    x, y = sp.symbols("x y", positive=True)
    for k in (1, 2, 3):
        z = x + sp.I * y
        re = sp.re(sp.expand(z**k))
        im = sp.im(sp.expand(z**k))
        u = (sp.atan(x / y) / sp.pi + sp.Rational(1, 2)) * re - (
            sp.log(sp.sqrt(x**2 + y**2)) / sp.pi
        ) * im
        lap = sp.simplify(sp.diff(u, x, 2) + sp.diff(u, y, 2))
        assert lap == 0
