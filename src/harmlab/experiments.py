"""Rate experiments: regularization error in eps, Sobolev log-growth, and the
Monte-Carlo subsampling rate.

Every derivative of the regularized log component log(A) * P_k(x,y), with
A = x^2+y^2+eps^2 and P_k = Im((x+iy)^k), has the exact form

    d_x^l d_y^m [log(A) P_k] = L log A + sum_s q_s / A^s,

with polynomials L and q_s whose coefficients do not depend on eps. One
derivative rule, applied l times in x and m times in y from (P_k, {}),
builds (L, {q_s}):

    d_x [L log A]   = (d_x L) log A + 2x L / A,
    d_x [q_s / A^s] = (d_x q_s) / A^s - 2s x q_s / A^(s+1),

and the same in y. With n = l+m, L is homogeneous of degree k-n (so it
vanishes for n > k) and q_s of degree 2s+k-n, so in polar coordinates the
derivative is radial tables times angular tables:

    r^(k-n) log(A) L(cos phi, sin phi) + sum_s r^(2s+k-n) / A^s q_s(cos phi, sin phi).

The coefficients are integers, so the bookkeeping is exact while they stay
below 2**53. They reach it at order 15 for k = 2 and 3, and `log_field_terms`
refuses such orders, so every function built on it does too.

A Monte-Carlo draw of n neurons from a target sum_i p_i a_i sigma(w_i . x + b_i)
only reweights the target's atoms: with c_i the number of times atom i was
drawn, the draw is sum_i (c_i/n) a_i sigma(w_i . x + b_i). Its error field of
any order is therefore sum_i (p_i - c_i/n) a_i D sigma(w_i . x + b_i), and
`mc_rate_experiment` gets the error fields of a block of draws from one
weighted `ensemble_derivatives` call per order, with weights p - C/n for the
block's count matrix C. No subnetwork is built. A block takes at most
_EVAL_CHUNK // max(atoms, points) draws, and its working set stays bounded
however many atoms, points, sizes and seeds are asked for: the draw-weight
block, one array of draws x atoms (at most _EVAL_CHUNK doubles) that holds
C/n and then p - C/n in place, reused by every block; one evaluation block of
`ensemble_derivatives` (at most _EVAL_CHUNK atom-points) with the
coefficients of its atoms; and the error fields, points x draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

import numpy as np

from . import ensembles
from .ensembles import (
    NeuronEnsemble,
    _atom_cdf,
    _atom_cost,
    _draw_atoms,
    barron_cost,
    check_neuron_count,
    ensemble_derivatives,
)
from .errors import NumericalError, ValidationError
from .numerics import (
    GridSpec,
    QuadratureRule,
    RateFit,
    fit_linear,
    fit_loglog,
    gauss_legendre_rule,
    norm_lp_halfdisk,
)
from .solutions import _check_k, reg_diff_gradient, reg_diff_hessian, reg_diff_value

__all__ = [
    "ErrorReport",
    "reg_error_experiment",
    "sobolev_lognorm_experiment",
    "mc_rate_experiment",
    "make_random_target",
]

EXACT_COEF_LIMIT = 2.0**53  # integers up to here are exact doubles
GATE_REL_CHANGE = 0.005  # norms must move < 0.5% under grid doubling
# Least r^2 at which `harmlab rates` prints a fit as a rate without a warning.
# The reg and sobolev fits give r^2 = 1.000 on every README and benchmark
# argv. Monte Carlo errors are noisy: the README's `rates mc` argv gives
# 0.983, the benchmark's (8 seeds a size) 0.92-0.98 on seeds 0-3 and 0.889 at
# worst on seeds 0-19, so only a fit that leaves over a tenth of the variance
# unexplained is flagged.
REG_MODEL_MIN_R2 = 0.99  # below this r^2 the reg error is not a power of eps
MC_MODEL_MIN_R2 = 0.9  # below this r^2 the MC error is not a power of n
LOG_MODEL_MIN_R2 = 0.99  # below this r^2 a seminorm^2 is not affine in |log eps|
MC_QUAD_POINTS = 257  # Gauss-Legendre nodes on [-1, 1] for 1D subsampling errors


@dataclass(frozen=True)
class ErrorReport:
    """One measured norm at one knob setting (eps or n)."""

    experiment: str
    k: int
    R: float
    p: float
    derivative_order: int
    knob: float
    value: float

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValidationError(f"value must be >= 0, got {self.value}")
        if not (self.knob > 0.0):
            raise ValidationError(f"knob must be > 0, got {self.knob}")


# --- exact bivariate polynomials -------------------------------------------------


class Poly2:
    """Sparse bivariate polynomial {(i, j): coeff} over float coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], float] = {}
        if terms:
            for (i, j), c in terms.items():
                if c != 0.0:
                    self.terms[(i, j)] = float(c)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def add(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
            if out[key] == 0.0:
                del out[key]
        return Poly2(out)

    def scale(self, c: float) -> "Poly2":
        return Poly2({key: c * v for key, v in self.terms.items()})

    def mul_x(self) -> "Poly2":
        return Poly2({(i + 1, j): c for (i, j), c in self.terms.items()})

    def mul_y(self) -> "Poly2":
        return Poly2({(i, j + 1): c for (i, j), c in self.terms.items()})

    def diff_x(self) -> "Poly2":
        return Poly2({(i - 1, j): i * c for (i, j), c in self.terms.items() if i > 0})

    def diff_y(self) -> "Poly2":
        return Poly2({(i, j - 1): j * c for (i, j), c in self.terms.items() if j > 0})

    def __call__(self, X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        xp, yp = [1.0], [1.0]  # powers by repeated products: np.power of an array is far slower
        out = np.zeros(np.broadcast(X, Y).shape)
        for (i, j), c in self.terms.items():
            while len(xp) <= i:
                xp.append(xp[-1] * X)
            while len(yp) <= j:
                yp.append(yp[-1] * Y)
            out = out + c * xp[i] * yp[j]
        return out


# typed caches: a k of another type, such as 2.0, is checked, not served a cached result
@lru_cache(maxsize=None, typed=True)
def imag_power_poly(k: int) -> Poly2:
    """P_k(x, y) = Im((x+iy)^k) as an exact polynomial."""
    _check_k(k)
    terms: dict[tuple[int, int], float] = {}
    for j in range(1, k + 1, 2):
        terms[(k - j, j)] = math.comb(k, j) * (-1.0) ** ((j - 1) // 2)
    return Poly2(terms)


@lru_cache(maxsize=None, typed=True)
def log_field_terms(k: int, l: int, m: int) -> tuple[Poly2, dict[int, Poly2]]:
    """(L, {s: q_s}) with d_x^l d_y^m [log(A) P_k] = L log A + sum_s q_s / A^s.

    Built from (P_k, {}) by the one derivative rule, m steps in y and then l
    in x; here in x (y alike):
    d_x[L log A] = (d_x L) log A + 2x L / A and
    d_x[q_s / A^s] = (d_x q_s) / A^s - 2s x q_s / A^(s+1).
    Raises ValidationError at the first step whose coefficients reach
    EXACT_COEF_LIMIT, so no inexact terms are returned.
    """
    _check_k(k)
    if l < 0 or m < 0:
        raise ValidationError(f"negative derivative order ({l}, {m})")
    L, qs = imag_power_poly(k), {}
    steps = chain(repeat((Poly2.diff_y, Poly2.mul_y), m), repeat((Poly2.diff_x, Poly2.mul_x), l))
    for n, (diff, mul) in enumerate(steps, 1):
        out = {1: mul(L).scale(2.0)}
        for s, q in qs.items():
            out[s] = out.get(s, Poly2()).add(diff(q))
            out[s + 1] = out.get(s + 1, Poly2()).add(mul(q).scale(-2.0 * s))
        L, qs = diff(L), {s: q for s, q in out.items() if q}
        big = max((abs(c) for P in (L, *qs.values()) for c in P.terms.values()), default=0.0)
        if big >= EXACT_COEF_LIMIT:
            raise ValidationError(
                f"order {l + m} is too high for k={k}: the order-{n} derivative terms"
                f" have coefficients up to {big:.3g}, beyond exact doubles (2**53)"
            )
    return L, qs


def log_component_derivative_field(k: int, l: int, m: int, epsilon: float):
    """(l, m)-derivative of log(x^2+y^2+eps^2) * P_k(x,y) / (2*pi) as a polar product field f(r, phi).

    One component (see numerics.norm_lp_halfdisk) whose terms are the module
    docstring's: log(A) r^(k-n) / (2 pi) paired with L(cos phi, sin phi), and
    r^(2j+k-n) / A^j / (2 pi) paired with q_j(cos phi, sin phi). So the Poly2
    factors see the angles only.
    """
    _check_k(k)
    L, qs = log_field_terms(k, l, m)
    e2 = epsilon * epsilon
    n = l + m

    def field(r, phi):
        c, s = np.cos(phi), np.sin(phi)
        A = r * r + e2
        terms = [(np.log(A) * r ** (k - n) / (2.0 * math.pi), L(c, s))] if L else []
        terms += [(r ** (2 * j + k - n) / A**j / (2.0 * math.pi), q(c, s)) for j, q in qs.items()]
        return [terms]

    return field


def log_component_seminorm_sq(k: int, epsilon: float, grid: GridSpec, order: int) -> float:
    """Squared order-`order` Sobolev seminorm of the log component on B_R^+.

    sum over l+m = order of binom(order, l) * ||d^(l,m) u||_L2^2.
    """
    total = 0.0
    for l in range(order + 1):
        m = order - l
        field = log_component_derivative_field(k, l, m, epsilon)
        val = norm_lp_halfdisk(field, grid, 2.0)
        total += math.comb(order, l) * val * val
    return total


# --- regularization-error experiment ----------------------------------------------


def _reg_radial(k: int, epsilon: float, order: int, r, phi: float):
    """|d^order (u_{eps,k} - u_k)| at radii r on the ray phi; Frobenius at order 2."""
    X, Y = r * math.cos(phi), r * math.sin(phi)
    if order == 0:
        return np.abs(reg_diff_value(X, Y, epsilon, k))
    if order == 1:
        vx, vy = reg_diff_gradient(X, Y, epsilon, k)
        return np.sqrt(vx * vx + vy * vy)
    vxx, vxy, vyy = reg_diff_hessian(X, Y, epsilon, k)
    return np.sqrt(vxx * vxx + 2.0 * vxy * vxy + vyy * vyy)


def _reg_field(k: int, epsilon: float, order: int):
    """|d^order (u_{eps,k} - u_k)| as a polar product field f(r, phi), for order 0, 1 or 2.

    The error is v = f(r) sin(k phi), and the squared magnitude of its
    gradient or Hessian does not depend on the frame. In the polar frame it is
    a(r) sin^2(k phi) + b(r) cos^2(k phi), so a is its value on the ray
    phi = pi/(2k) and b its value on phi = 0 (b = 0 at order 0): two radial
    tables from the closed form, each one reg_diff_* call. The field is the
    component [(sqrt(a), sin k phi)], and at orders 1 and 2 also
    [(sqrt(b), cos k phi)] (see numerics.norm_lp_halfdisk).
    """
    if order not in (0, 1, 2):
        raise ValidationError(f"derivative order must be 0, 1 or 2, got {order}")

    def field(r, phi):
        # (cos + i sin)^k holds sin(k phi) and cos(k phi) to a few ulps, also near
        # phi = pi, where rounding k*phi would cost digits for odd k
        z = (np.cos(phi) + 1j * np.sin(phi)) ** k
        comps = [[(_reg_radial(k, epsilon, order, r, math.pi / (2 * k)), z.imag)]]
        if order:
            comps.append([(_reg_radial(k, epsilon, order, r, 0.0), z.real)])
        return comps

    return field


def _eps_sweep(experiment: str, k: int, p: float, order: int, eps_list,
               grid: GridSpec, measure, label: str):
    """measure(e, grid) at every eps, ascending, as (eps, values, reports).

    Refinement gate: at the extreme eps, measure(e, grid.refined()) must stay
    within GATE_REL_CHANGE of measure(e, grid), which is then the reported
    value; only the interior eps are computed afresh.
    """
    eps = np.asarray(sorted(eps_list), dtype=float)
    if eps.size < 3 or np.any(eps <= 0.0):
        raise ValidationError("need at least 3 positive eps values")
    fine_grid = grid.refined()  # first: a grid too large to refine fails before any norm
    ends = []
    for e in (eps[0], eps[-1]):
        coarse, fine = measure(float(e), grid), measure(float(e), fine_grid)
        scale = max(abs(coarse), abs(fine))
        if scale > 0.0 and abs(fine - coarse) > GATE_REL_CHANGE * scale:
            raise NumericalError(
                f"eps={e:g}: {label} moved {abs(fine - coarse) / scale:.2%} under grid doubling"
                f" (gate {GATE_REL_CHANGE:.1%}); refine the grid"
            )
        ends.append(coarse)
    values = [ends[0], *(measure(float(e), grid) for e in eps[1:-1]), ends[1]]
    reports = [
        ErrorReport(experiment, k, grid.R, p, order, float(e), float(v)) for e, v in zip(eps, values)
    ]
    return eps, values, reports


def reg_error_experiment(
    k: int,
    p: float,
    order: int,
    eps_list,
    grid: GridSpec,
) -> tuple[list[ErrorReport], RateFit]:
    """L^p norms of the regularization error (or its gradient/Hessian) per eps.

    The half-disk is that of the grid, radius grid.R. Returns one report per
    eps and the fitted log-log slope. The quadrature gate (< 0.5% change under
    grid doubling, checked at the extreme eps values) guards every reported
    norm.
    """
    if k < 2:
        raise ValidationError("regularization-rate experiments require k >= 2")
    eps_max = max(eps_list, default=0.0)
    if eps_max > grid.R / 10.0 + 1e-15:
        raise ValidationError(f"largest eps {eps_max} exceeds R/10 = {grid.R / 10.0}")

    eps, values, reports = _eps_sweep(
        "reg", k, p, order, eps_list, grid,
        lambda e, g: norm_lp_halfdisk(_reg_field(k, e, order), g, p), "norm",
    )
    return reports, _fit_rate("eps", eps, values)


def _fit_rate(knob: str, knobs, values) -> RateFit:
    """fit_loglog of values against knobs; NumericalError at the first knob whose norm underflowed to 0."""
    for at, v in zip(knobs, values):
        if v == 0.0:
            raise NumericalError(
                f"the measured norm underflowed to 0 at {knob} = {at:g}; no power law can be fitted"
            )
    return fit_loglog(knobs, values)


# --- Sobolev log-growth experiment -------------------------------------------------


def sobolev_lognorm_experiment(
    k: int,
    eps_list,
    grid: GridSpec,
    order: int | None = None,
) -> tuple[list[ErrorReport], RateFit]:
    """Squared top-order Sobolev seminorm of the regularized log component vs |log eps|.

    The half-disk is that of the grid, radius grid.R. `order` defaults to k+2.
    Returns reports (knob=eps, value=seminorm^2) and the straight-line fit of
    value against |log eps|.
    """
    if k not in (2, 3):
        raise ValidationError(f"k must be 2 or 3 for this experiment, got {k}")
    order = k + 2 if order is None else int(order)
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    for l in range(order + 1):  # an inexact order fails here, before any norm
        log_field_terms(k, l, order - l)

    eps, values, reports = _eps_sweep(
        "sobolev", k, 2.0, order, eps_list, grid,
        lambda e, g: log_component_seminorm_sq(k, e, g, order), "seminorm^2",
    )
    return reports, fit_linear(np.abs(np.log(eps)), values)


# --- Monte-Carlo subsampling experiment ---------------------------------------------


def _holder_split(alpha: float) -> tuple[int, float]:
    """alpha = k + gamma with gamma in (0, 1]: integer alpha -> (alpha-1, 1)."""
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    k = math.ceil(alpha) - 1
    return k, alpha - k


@lru_cache(maxsize=None)
def _mc_line_rule() -> QuadratureRule:
    """The Gauss-Legendre rule of 1D subsampling errors, built on first use only."""
    return gauss_legendre_rule(MC_QUAD_POINTS, -1.0, 1.0)


def mc_rate_experiment(
    target: NeuronEnsemble,
    n_list,
    m: int,
    q: float,
    seeds,
    grid: GridSpec | None = None,
) -> tuple[list[ErrorReport], RateFit, float]:
    """W^{m,q} subsampling error of n-neuron networks drawn from `target`.

    Averages the error over seeds for each n, fits the log-log slope (the
    sampling theorem gives n^{-1/2}), and reports the fraction of draws whose
    coefficient bound (1/n) sum |a_i| (|w_i|+|b_i|)^alpha stays within 5% of
    the target cost. Domain: [-1, 1] for 1D targets (reported R = 1), the
    half-disk of `grid` for 2D (reported R = grid.R).

    Draw (n, s) takes the atoms `sample_subnetwork(target, n, seed=(s, n))`
    would take, but is kept as its atom counts c: its error field is that of
    the weights p - c/n on the target's atoms and its coefficient bound is
    (c/n) . cost (see the module docstring). Draws run n-major, seed-minor, in
    blocks of at most _EVAL_CHUNK // max(atoms, points), one weighted
    `ensemble_derivatives` call per order and block; the atoms' CDF is built
    once for all draws.
    """
    if not (2.0 <= q < math.inf):
        raise ValidationError(f"q must be finite and >= 2, got {q}")
    if m not in (0, 1, 2):
        raise ValidationError(f"derivative order must be 0, 1 or 2, got {m}")
    k_act, gamma = _holder_split(target.alpha)
    if not (m <= k_act or (m == k_act + 1 and (1.0 - gamma) * q < 1.0)):
        raise ValidationError(
            f"(m={m}, q={q}) inadmissible for alpha={target.alpha}: "
            f"need m <= {k_act} or m = {k_act + 1} with (1-gamma)q < 1"
        )
    if len(target) < 1000:
        raise ValidationError(f"target needs >= 1000 atoms, got {len(target)}")
    ns = [int(n) for n in n_list]
    if len(ns) < 3 or any(n < 1 for n in ns):
        raise ValidationError("need at least 3 positive sample sizes")
    if isinstance(seeds, (int, np.integer)):
        seeds = list(range(int(seeds)))
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValidationError("need at least one seed")

    if target.dim == 1:
        rule = _mc_line_rule()
        pts = rule.nodes
        w_quad = rule.weights
        R = 1.0  # the half-width of [-1, 1]
    else:
        grid = grid if grid is not None else GridSpec(1.0, 64, 64, 2.0)
        R = grid.R
        X, Y = grid.mesh()
        r = grid.radial_nodes()
        wr = grid.radial_weights() * r * grid.angular_weight
        pts = np.column_stack([X.ravel(), Y.ravel()])
        w_quad = np.broadcast_to(wr[:, None], X.shape).ravel()

    cdf = _atom_cdf(target)
    draws = [(n, s) for n in ns for s in seeds]
    per_block = max(1, ensembles._EVAL_CHUNK // max(len(target), len(pts)))
    draw_weights = np.empty((min(per_block, len(draws)), len(target)))  # reused by every block
    errs = np.empty(len(draws))
    bound_hits = 0
    with np.errstate(all="ignore"):  # a non-finite error is refused below, not warned about
        cost = _atom_cost(target)
        bound = barron_cost(target) * 1.05
        for lo in range(0, len(draws), per_block):
            block = draws[lo : lo + per_block]
            frac = draw_weights[: len(block)]
            for row, (n, s) in zip(frac, block):
                np.divide(np.bincount(_draw_atoms(cdf, n, (s, n)), minlength=len(target)), n, out=row)
            bound_hits += int(np.count_nonzero(frac @ cost <= bound))
            diff = np.subtract(target.probs, frac, out=frac)  # target minus draw weights
            acc = np.zeros((len(pts), len(block)))
            for order in range(m + 1):
                for comp in ensemble_derivatives(target, pts, order, weights=diff.T):
                    np.abs(comp, out=comp)
                    comp **= q
                    acc += comp
            errs[lo : lo + len(block)] = (w_quad @ acc) ** (1.0 / q)
    values = [float(np.mean(row)) for row in errs.reshape(len(ns), len(seeds))]
    for n, v in zip(ns, values):
        if not math.isfinite(v):
            raise NumericalError(f"the subsampling error at n = {n} is not finite: {v}")
    reports = [ErrorReport("mc", 0, R, q, m, float(n), float(v)) for n, v in zip(ns, values)]
    fit = _fit_rate("n", np.asarray(ns, dtype=float), values)
    return reports, fit, bound_hits / len(draws)


def make_random_target(alpha: float, size: int, seed: int, dim: int = 1) -> NeuronEnsemble:
    """Deterministic synthetic target ensemble for subsampling experiments."""
    check_neuron_count(size, "size")
    if dim not in (1, 2):
        raise ValidationError(f"dim must be 1 or 2, got {dim}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size)
    w = rng.uniform(-2.0, 2.0, (size, dim))
    b = rng.uniform(-1.0, 1.0, size)
    probs = rng.uniform(0.5, 1.5, size)
    probs /= probs.sum()
    return NeuronEnsemble(probs, a, w, b, alpha)
