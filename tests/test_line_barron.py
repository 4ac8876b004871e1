"""1D representation criterion, constructive ensembles, and the x^k log x diagnostic."""

import math
import re

import numpy as np
import pytest
import sympy as sp

from harmlab import (
    DifferentiableFunction1D,
    NeuronEnsemble,
    NonFiniteSample,
    NumericalError,
    ValidationError,
    barron_cost,
    barron_norm_upper,
    ensemble_eval,
    ensemble_eval_many,
    ensemble_from_derivative,
    log_divergence_diagnostic,
)
from harmlab.line_barron import _equal_mass_atoms, _monomial_shift_solve, xklogx_derivative


def test_norm_upper_cubic():
    # k=1: f = x^3, f'' = 6x; integral of 6|x|(1+|x|) over [-1,1] = 10
    df = DifferentiableFunction1D(lambda x: 6.0 * x, 1, (-1.0, 1.0))
    assert barron_norm_upper(df) == pytest.approx(10.0, rel=1e-9)


def test_norm_upper_sine():
    # k=1: f = sin, f'' = -sin
    df = DifferentiableFunction1D(lambda x: -np.sin(x), 1, (-math.pi, math.pi))
    assert barron_norm_upper(df) == pytest.approx(4.0 + 2.0 * math.pi, rel=1e-9)


def test_norm_upper_low_degree_polynomial_is_zero():
    # k=1: f = 2x + 1, f'' = 0
    df = DifferentiableFunction1D(lambda x: np.zeros_like(x), 1, (-1.0, 1.0))
    assert barron_norm_upper(df) == 0.0


def test_norm_upper_symbolic_oracle():
    # independent sympy evaluation of the weighted integral for f = x^4, k = 2
    x = sp.symbols("x")
    f = x**4
    d3 = sp.diff(f, x, 3)
    expected = float(sp.integrate(sp.Abs(d3) * (1 + sp.Abs(x) ** 2), (x, -1, 1)))
    df = DifferentiableFunction1D(lambda t: 24.0 * t, 2, (-1.0, 1.0))
    assert barron_norm_upper(df) == pytest.approx(expected, rel=1e-9)


def test_divergence_detected_for_xklogx():
    # k=2: f = x^2 log x, f''' = 2/x
    df = DifferentiableFunction1D(lambda x: 2.0 / x, 2, (0.0, 1.0), singular_points=(0.0,))
    with pytest.raises(NumericalError, match=re.escape("does not converge at a singular or infinite end of (0.0, 1.0)")):
        barron_norm_upper(df)


def test_integrable_singularity_is_fine():
    df = DifferentiableFunction1D(lambda x: 0.25 * x**-0.5, 1, (0.0, 1.0), singular_points=(0.0,))
    # int 0.25 x^(-1/2) (1 + x) dx over (0,1) = 0.25 (2 + 2/3)
    assert barron_norm_upper(df) == pytest.approx(0.25 * (2 + 2 / 3), rel=1e-7)


@pytest.mark.parametrize(
    "support,want",
    [
        ((-math.inf, math.inf), math.sqrt(math.pi) + 1.0),
        ((0.0, math.inf), 0.5 * math.sqrt(math.pi) + 0.5),
        ((-math.inf, 0.0), 0.5 * math.sqrt(math.pi) + 0.5),
    ],
)
def test_norm_upper_infinite_support(support, want):
    # k = 1, f'' = exp(-x^2): int exp(-x^2) (1 + |x|) dx = sqrt(pi) + 1 over the line
    df = DifferentiableFunction1D(lambda x: np.exp(-x * x), 1, support)
    assert barron_norm_upper(df) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "deriv,k,support,where",
    [
        (lambda x: 1.0 / x**2, 1, (1.0, math.inf), "(1.0, inf)"),  # log-divergent tail
        (lambda x: 1.0 / (1.0 + x * x), 1, (-math.inf, math.inf), "(-inf, 0.0)"),
        (lambda x: np.exp(x), 1, (0.0, math.inf), "(0.0, inf)"),  # overflows on the way out
    ],
)
def test_norm_upper_divergent_tail_detected_and_named_in_x(deriv, k, support, where):
    df = DifferentiableFunction1D(deriv, k, support)
    with pytest.raises(NumericalError, match="criterion integral does not converge .*" + re.escape(where)):
        barron_norm_upper(df)


def test_norm_upper_non_finite_inside_finite_piece_is_not_divergence():
    df = DifferentiableFunction1D(lambda x: np.where(x > 0.5, np.nan, 1.0), 1, (0.0, 1.0))
    with pytest.raises(NonFiniteSample) as exc:
        barron_norm_upper(df)
    assert "does not converge" not in str(exc.value)


def test_ensemble_from_derivative_refuses_infinite_support():
    df = DifferentiableFunction1D(lambda x: np.exp(-x * x), 1, (0.0, math.inf))
    with pytest.raises(ValidationError, match="finite support"):
        ensemble_from_derivative(df, 100, [0.0, 0.0])


def test_single_neuron_target_direct_construction():
    # sigma_2(x - 1/3) is itself one neuron; reproduce it exactly
    e = NeuronEnsemble([1.0], [1.0], [[1.0]], [-1.0 / 3.0], 2.0)
    xs = np.linspace(-1, 1, 20)
    want = np.maximum(xs - 1.0 / 3.0, 0.0) ** 2
    assert np.allclose(ensemble_eval_many(e, xs), want, atol=0)


def test_ensemble_from_derivative_cubic():
    df = DifferentiableFunction1D(lambda x: 6.0 * x, 1, (-1.0, 1.0))
    e = ensemble_from_derivative(df, 1000, [0.0, 0.0])
    xs = np.linspace(-1, 1, 81)
    err = np.max(np.abs(ensemble_eval_many(e, xs) - xs**3))
    assert err <= 1e-4
    # k = 1: the criterion integral and the representation cost agree exactly,
    # so the reported cost lands within 10% of it (polynomial part is zero)
    assert barron_cost(e) == pytest.approx(barron_norm_upper(df), rel=0.1)


def test_ensemble_from_derivative_halves_error_with_nodes():
    df = DifferentiableFunction1D(lambda x: -np.sin(x), 1, (-math.pi, math.pi))
    taylor = [0.0, 1.0]  # sin expands as x + O(x^3)
    errs = []
    for nodes in (125, 250, 500, 1000):
        e = ensemble_from_derivative(df, nodes, taylor)
        xs = np.linspace(-math.pi, math.pi, 101)
        errs.append(np.max(np.abs(ensemble_eval_many(e, xs) - np.sin(xs))))
    # first-order discretization: error ~ C / quad_nodes
    for a, b in zip(errs[:-1], errs[1:]):
        assert b < 0.7 * a
    assert errs[-1] < 5e-3


def test_polynomial_input_has_empty_integral_part():
    df = DifferentiableFunction1D(lambda x: np.zeros_like(x), 1, (-1.0, 1.0))
    e = ensemble_from_derivative(df, 200, [0.0, 1.0])
    assert len(e) <= 4  # shift atoms only
    xs = np.linspace(-1, 1, 33)
    assert np.max(np.abs(ensemble_eval_many(e, xs) - xs)) < 1e-12


def test_quadratic_poly_part_k2():
    # f = 1 + x + x^2 with k = 2: pure polynomial, exact representation
    df = DifferentiableFunction1D(lambda x: np.zeros_like(x), 2, (-1.0, 1.0))
    e = ensemble_from_derivative(df, 50, [1.0, 1.0, 1.0])
    xs = np.linspace(-1, 1, 33)
    assert np.max(np.abs(ensemble_eval_many(e, xs) - (1 + xs + xs**2))) < 1e-12


def _ref_ensemble_from_derivative(df, quad_nodes, taylor):
    """The per-atom list loop the array construction replaced."""
    k = df.k
    taylor = np.asarray(taylor, dtype=float)
    lo, hi = df.support
    coefs, ws, bs = [], [], []
    fact = math.factorial(k)
    right = (max(lo, 0.0), hi)
    left = (lo, min(hi, 0.0))
    has_right = right[1] > right[0]
    has_left = left[1] > left[0]
    n_right = quad_nodes if not has_left else max(1, quad_nodes // 2)
    n_left = quad_nodes - n_right if has_right else quad_nodes
    if has_right:
        nodes, cell = _equal_mass_atoms(df.deriv, right[0], right[1], n_right)
        for t, c in zip(nodes, cell):
            if c != 0.0:
                coefs.append(c / fact)
                ws.append(1.0)
                bs.append(-t)
    if has_left and n_left > 0:
        nodes, cell = _equal_mass_atoms(df.deriv, left[0], left[1], n_left)
        sign = (-1.0) ** (k + 1)
        for t, c in zip(nodes, cell):
            if c != 0.0:
                coefs.append(sign * c / fact)
                ws.append(-1.0)
                bs.append(t)
    if np.any(taylor != 0.0):
        shifts, lam = _monomial_shift_solve(taylor, k)
        scale = max(1.0, float(np.max(np.abs(lam))))
        for h, l in zip(shifts, lam):
            if abs(l) > 1e-14 * scale:
                coefs.append(l)
                ws.append(1.0)
                bs.append(-h)
                coefs.append((-1.0) ** k * l)
                ws.append(-1.0)
                bs.append(h)
    return NeuronEnsemble.from_signed_atoms(
        np.asarray(coefs), np.asarray(ws), np.asarray(bs), float(k)
    )


@pytest.mark.parametrize(
    "deriv,k,support,nodes,taylor",
    [
        (lambda x: 6.0 * x, 1, (-1.0, 1.0), 1000, [0.0, 0.0]),
        (lambda x: -np.sin(x), 1, (-math.pi, math.pi), 101, [0.0, 1.0]),
        (lambda x: np.zeros_like(x), 2, (-1.0, 1.0), 50, [1.0, 1.0, 1.0]),
        (lambda x: np.exp(x), 3, (0.0, 2.0), 37, [1.0, 1.0, 0.5, 1.0 / 6.0]),
        (lambda x: np.cos(3.0 * x), 2, (-2.0, -0.5), 64, [0.3, -0.2, 0.1]),
        # zero-mass cells left of 0.8, zero derivative on the left half: zero atoms to drop
        (lambda x: x * (x > 0.8), 1, (-1.0, 1.0), 40, [0.0, 2.0]),
    ],
)
def test_ensemble_from_derivative_matches_atom_loop(deriv, k, support, nodes, taylor):
    df = DifferentiableFunction1D(deriv, k, support)
    got = ensemble_from_derivative(df, nodes, taylor)
    want = _ref_ensemble_from_derivative(df, nodes, taylor)
    for name in ("probs", "a", "w", "b"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.alpha == want.alpha


def test_taylor_length_validated():
    df = DifferentiableFunction1D(lambda x: 6.0 * x, 1, (-1.0, 1.0))
    with pytest.raises(ValidationError):
        ensemble_from_derivative(df, 100, [0.0])


def test_xklogx_derivative_matches_sympy():
    x = sp.symbols("x", positive=True)
    for k in (1, 2, 3):
        dk1 = sp.simplify(sp.diff(x**k * sp.log(x), x, k + 1))
        expected_const = float(sp.simplify(dk1 * x))  # k!
        assert expected_const == pytest.approx(math.factorial(k), abs=1e-12)
        got = xklogx_derivative(k)(np.array([0.5, 1.0, 2.0]))
        want = np.array([float(dk1.subs(x, v)) for v in (0.5, 1.0, 2.0)])
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_log_divergence_slope_matches_symbolic_constant(k):
    fit = log_divergence_diagnostic(k, np.logspace(-2, -6, 5))
    assert fit.slope == pytest.approx(math.factorial(k), rel=0.02)
    assert fit.r_squared >= 0.999


def test_log_divergence_validation():
    with pytest.raises(ValidationError):
        log_divergence_diagnostic(1, [0.5, 0.6, 0.7])  # increasing
    with pytest.raises(ValidationError):
        log_divergence_diagnostic(1, [1e-2, 1e-5, 1e-9])  # below 1e-8


@pytest.mark.parametrize("k", [1, 2, 10, 40, 100, 170])
def test_xklogx_derivative_is_k_factorial_over_x(k):
    x = np.array([0.3, 1.0, 7.5, 1e3])
    np.testing.assert_array_equal(xklogx_derivative(k)(x), float(math.factorial(k)) / x)


@pytest.mark.parametrize("k", [0, 171, 100000])
def test_xklogx_derivative_refuses_k(k):
    with pytest.raises(ValidationError):
        xklogx_derivative(k)


@pytest.mark.parametrize("k", [40, 60, 100])
def test_log_divergence_slope_is_k_factorial_at_large_k(k):
    # a termwise Leibniz sum of the derivative cancels (2^(k+1) - 1) k! down to k!/x here
    fit = log_divergence_diagnostic(k, np.logspace(-1, -6, 5))
    assert fit.slope == pytest.approx(math.factorial(k), rel=1e-9)


def test_log_divergence_overflowing_fit_raises():
    # k = 140: the values are near 1e242, so the fit's sums of squares overflow
    with pytest.raises(NumericalError, match="line fit is not finite"):
        log_divergence_diagnostic(140, np.logspace(-1, -6, 5))
