"""Rate experiments: regularization error in eps, Sobolev log-growth, and the
Monte-Carlo subsampling rate.

Derivatives of the regularized log component log(x^2+y^2+eps^2) * P_k(x,y)
are assembled from the exact polynomial recursion

    d_x [q_s / A^s] -> (d_x q_s)/A^s - 2(s-1) x q_{s-1} / A^s  collected over s,

with A = x^2+y^2+eps^2 and q polynomials whose coefficients do not depend on
eps: the (i,j)-th derivative of log A is sum_s q_{i,j,s}/A^s with
deg q_{i,j,s} = 2s-i-j. All bookkeeping is exact (integer coefficients).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import (
    NeuronEnsemble,
    barron_cost,
    check_neuron_count,
    ensemble_derivatives,
    sample_subnetwork,
)
from .errors import GateFailed, InadmissiblePair, KTooSmall, ValidationError
from .numerics import (
    GridSpec,
    RateFit,
    bisect_root,
    fit_linear,
    fit_loglog,
    gauss_legendre_rule,
    norm_lp_halfdisk,
    ray_refined_max,
)
from .solutions import reg_diff_gradient, reg_diff_hessian, reg_diff_value

__all__ = [
    "ErrorReport",
    "reg_error_experiment",
    "sobolev_lognorm_experiment",
    "mc_rate_experiment",
    "make_random_target",
]

GATE_REL_CHANGE = 0.005  # norms must move < 0.5% under grid doubling
LOG_MODEL_MIN_R2 = 0.99  # below this r^2 a seminorm^2 is not affine in |log eps|


def worker_count() -> int:
    """Validated HARMLAB_THREADS (default 1); the experiments run on one thread."""
    raw = os.environ.get("HARMLAB_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValidationError(f"HARMLAB_THREADS must be a positive integer, got {raw!r}") from exc
    if n < 1:
        raise ValidationError(f"HARMLAB_THREADS must be a positive integer, got {n}")
    return n


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
    grid: GridSpec | None

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

    def degrees(self) -> set[int]:
        return {i + j for (i, j) in self.terms}

    def is_homogeneous(self, degree: int) -> bool:
        return self.degrees() in (set(), {degree})

    def __call__(self, X, Y):
        out = np.zeros(np.broadcast(X, Y).shape)
        for (i, j), c in self.terms.items():
            out = out + c * np.asarray(X) ** i * np.asarray(Y) ** j
        return out


@lru_cache(maxsize=None)
def imag_power_poly(k: int) -> Poly2:
    """P_k(x, y) = Im((x+iy)^k) as an exact polynomial."""
    terms: dict[tuple[int, int], float] = {}
    for j in range(1, k + 1, 2):
        terms[(k - j, j)] = math.comb(k, j) * (-1.0) ** ((j - 1) // 2)
    return Poly2(terms)


@lru_cache(maxsize=None)
def log_derivative_terms(i: int, j: int) -> dict[int, Poly2]:
    """{s: q_{i,j,s}} with d_x^i d_y^j log(A) = sum_s q_s / A^s, i + j >= 1."""
    if i < 0 or j < 0 or i + j < 1:
        raise ValidationError(f"need derivative order >= 1, got ({i}, {j})")
    if (i, j) == (1, 0):
        return {1: Poly2({(1, 0): 2.0})}
    if (i, j) == (0, 1):
        return {1: Poly2({(0, 1): 2.0})}
    if i > 0:
        prev = log_derivative_terms(i - 1, j)
        step_x = True
    else:
        prev = log_derivative_terms(i, j - 1)
        step_x = False
    out: dict[int, Poly2] = {}

    def accumulate(s: int, poly: Poly2):
        if poly:
            out[s] = out.get(s, Poly2()).add(poly)

    for s, q in prev.items():
        accumulate(s, q.diff_x() if step_x else q.diff_y())
        bumped = (q.mul_x() if step_x else q.mul_y()).scale(-2.0 * s)
        accumulate(s + 1, bumped)
    return {s: q for s, q in out.items() if q}


def log_component_derivative_field(k: int, l: int, m: int, epsilon: float):
    """Vectorized (l, m)-derivative of log(x^2+y^2+eps^2) * P_k(x,y) / (2*pi)."""
    if l < 0 or m < 0:
        raise ValidationError(f"negative derivative order ({l}, {m})")
    Pk = imag_power_poly(k)
    parts: list[tuple[float, dict[int, Poly2], Poly2]] = []
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
                parts.append((1.0, {}, dP))  # log(A) * dP term
                continue
            binom = float(math.comb(l, i) * math.comb(m, j))
            parts.append((binom, log_derivative_terms(i, j), dP))
    e2 = epsilon * epsilon

    def field(X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
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


def _reg_field(k: int, epsilon: float, order: int):
    if order == 0:
        return lambda X, Y: reg_diff_value(X, Y, epsilon, k)
    if order == 1:
        def grad_mag(X, Y):
            vx, vy = reg_diff_gradient(X, Y, epsilon, k)
            return np.hypot(vx, vy)
        return grad_mag
    if order == 2:
        def hess_mag(X, Y):
            vxx, vxy, vyy = reg_diff_hessian(X, Y, epsilon, k)
            return np.sqrt(vxx * vxx + 2.0 * vxy * vxy + vyy * vyy)
        return hess_mag
    raise ValidationError(f"derivative order must be 0, 1 or 2, got {order}")


def _gate_check(measure, grid: GridSpec, label: str) -> float:
    """Refinement gate: measure(grid) and measure(grid.refined()) within GATE_REL_CHANGE.

    Returns measure(grid), so the caller need not compute it again.
    """
    coarse = measure(grid)
    fine = measure(grid.refined())
    scale = max(abs(coarse), abs(fine))
    if scale > 0.0 and abs(fine - coarse) > GATE_REL_CHANGE * scale:
        raise GateFailed(
            f"{label} moved {abs(fine - coarse) / scale:.2%} under grid doubling"
            f" (gate {GATE_REL_CHANGE:.1%}); refine the grid"
        )
    return coarse


def _gated_values(measure, eps: np.ndarray, grid: GridSpec, label: str) -> list[float]:
    """measure(e, grid) for every e in eps, gated by grid doubling at eps[0] and eps[-1].

    The gate's coarse values are the end values; only the interior eps are
    computed afresh. A bad HARMLAB_THREADS is rejected before any norm.
    """
    worker_count()
    ends = [
        _gate_check(lambda g: measure(float(e), g), grid, f"eps={e:g}: {label}")
        for e in (eps[0], eps[-1])
    ]
    inner = [measure(float(e), grid) for e in eps[1:-1]]
    return [ends[0], *inner, ends[1]]


def reg_error_experiment(
    k: int,
    R: float,
    p: float,
    order: int,
    eps_list,
    grid: GridSpec | None = None,
) -> tuple[list[ErrorReport], RateFit]:
    """L^p norms of the regularization error (or its gradient/Hessian) per eps.

    Returns one report per eps and the fitted log-log slope. The quadrature
    gate (< 0.5% change under grid doubling, checked at the extreme eps
    values) guards every reported norm.
    """
    if k < 2:
        raise KTooSmall("regularization-rate experiments require k >= 2")
    if order not in (0, 1, 2):
        raise ValidationError(f"derivative order must be 0, 1 or 2, got {order}")
    eps = np.asarray(sorted(eps_list), dtype=float)
    if eps.size < 3:
        raise ValidationError("need at least 3 eps values")
    if np.any(eps <= 0.0):
        raise ValidationError("eps values must be positive")
    if eps[-1] > R / 10.0 + 1e-15:
        raise ValidationError(f"largest eps {eps[-1]} exceeds R/10 = {R / 10.0}")
    grid = grid if grid is not None else GridSpec(R)
    if abs(grid.R - R) > 1e-12 * max(1.0, R):
        raise ValidationError(f"grid radius {grid.R} does not match R = {R}")

    values = _gated_values(
        lambda e, g: norm_lp_halfdisk(_reg_field(k, e, order), g, p), eps, grid, "norm"
    )
    reports = [
        ErrorReport("reg", k, R, p, order, float(e), float(v), grid)
        for e, v in zip(eps, values)
    ]
    return reports, fit_loglog(eps, values)


def interior_critical_radius(k: int, epsilon: float, R: float):
    """Root of k*log(1+eps^2/r^2) = 2 eps^2/(r^2+eps^2) in (0, R), or None.

    This is the interior stationarity condition of r^k log(1+eps^2/r^2); for
    k >= 2 the left side dominates, so the sup-norm maximizer sits at r = R.
    """
    e2 = epsilon * epsilon

    def g(r):
        return k * math.log1p(e2 / (r * r)) - 2.0 * e2 / (r * r + e2)

    return bisect_root(g, 1e-6 * epsilon + 1e-300, R)


def reg_linf_maximizer_radius(k: int, epsilon: float, grid: GridSpec) -> float:
    """Measured radius maximizing |u_{eps,k} - u_k| on the grid (refined in r)."""

    def field(X, Y):
        return reg_diff_value(X, Y, epsilon, k)

    _, rstar, vstar, edge = ray_refined_max(field, grid, np.abs(field(*grid.mesh())))
    return grid.R if edge >= vstar else rstar


# --- Sobolev log-growth experiment -------------------------------------------------


def sobolev_lognorm_experiment(
    k: int,
    R: float,
    eps_list,
    grid: GridSpec | None = None,
    order: int | None = None,
) -> tuple[list[ErrorReport], RateFit]:
    """Squared top-order Sobolev seminorm of the regularized log component vs |log eps|.

    `order` defaults to k+2. Returns reports (knob=eps, value=seminorm^2) and
    the straight-line fit of value against |log eps|.
    """
    if k not in (2, 3):
        raise ValidationError(f"k must be 2 or 3 for this experiment, got {k}")
    order = k + 2 if order is None else int(order)
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    eps = np.asarray(sorted(eps_list), dtype=float)
    if eps.size < 3 or np.any(eps <= 0.0):
        raise ValidationError("need at least 3 positive eps values")
    grid = grid if grid is not None else GridSpec(R, grading=3.0)
    if abs(grid.R - R) > 1e-12 * max(1.0, R):
        raise ValidationError(f"grid radius {grid.R} does not match R = {R}")

    values = _gated_values(
        lambda e, g: log_component_seminorm_sq(k, e, g, order), eps, grid, "seminorm^2"
    )
    reports = [
        ErrorReport("sobolev", k, R, 2.0, order, float(e), float(v), grid)
        for e, v in zip(eps, values)
    ]
    return reports, fit_linear(np.abs(np.log(eps)), values)


# --- Monte-Carlo subsampling experiment ---------------------------------------------


def _holder_split(alpha: float) -> tuple[int, float]:
    """alpha = k + gamma with gamma in (0, 1]: integer alpha -> (alpha-1, 1)."""
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    k = math.ceil(alpha) - 1
    return k, alpha - k


def _sobolev_error(target_fields: list[list[np.ndarray]], subnet: NeuronEnsemble, q: float,
                   pts: np.ndarray, weights: np.ndarray) -> float:
    """W^{m,q} quadrature norm of (target - subnet) over the sampled domain.

    `target_fields[order]` holds the target's derivative components of that
    order at `pts`, for orders 0..m.
    """
    acc = np.zeros(pts.shape[0])
    for order, big in enumerate(target_fields):
        small = ensemble_derivatives(subnet, pts, order)
        for comp_b, comp_s in zip(big, small):
            acc = acc + np.abs(comp_b - comp_s) ** q
    return float(np.dot(weights, acc) ** (1.0 / q))


def mc_rate_experiment(
    target: NeuronEnsemble,
    n_list,
    m: int,
    q: float,
    seeds,
    grid: GridSpec | None = None,
    quad_points: int = 257,
) -> tuple[list[ErrorReport], RateFit, float]:
    """W^{m,q} subsampling error of n-neuron networks drawn from `target`.

    Averages the error over seeds for each n, fits the log-log slope (the
    sampling theorem gives n^{-1/2}), and reports the fraction of draws whose
    coefficient bound (1/n) sum |a_i| (|w_i|+|b_i|)^alpha stays within 5% of
    the target cost. Domain: [-1, 1] for 1D targets, the half-disk for 2D.
    """
    if q < 2.0:
        raise ValidationError(f"q must be >= 2, got {q}")
    if m not in (0, 1, 2):
        raise ValidationError(f"derivative order must be 0, 1 or 2, got {m}")
    k_act, gamma = _holder_split(target.alpha)
    if not (m <= k_act or (m == k_act + 1 and (1.0 - gamma) * q < 1.0)):
        raise InadmissiblePair(
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
        rule = gauss_legendre_rule(quad_points, -1.0, 1.0)
        pts = rule.nodes
        weights = rule.weights
    else:
        grid = grid if grid is not None else GridSpec(1.0, 64, 64, 2.0)
        X, Y = grid.mesh()
        r = grid.radial_nodes()
        wr = grid.radial_weights() * r * grid.angular_weight
        pts = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.broadcast_to(wr[:, None], X.shape).ravel()

    cost_target = barron_cost(target)
    target_fields = [ensemble_derivatives(target, pts, order) for order in range(m + 1)]
    values = []
    bound_hits = 0
    for n in ns:
        errs = []
        for s in seeds:
            subnet = sample_subnetwork(target, n, seed=(s, n))
            errs.append(_sobolev_error(target_fields, subnet, q, pts, weights))
            bound_hits += barron_cost(subnet) <= cost_target * 1.05
        values.append(float(np.mean(errs)))
    reports = [
        ErrorReport("mc", 0, 1.0, q, m, float(n), float(v), grid)
        for n, v in zip(ns, values)
    ]
    fit = fit_loglog(np.asarray(ns, dtype=float), values)
    return reports, fit, bound_hits / (len(ns) * len(seeds))


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
