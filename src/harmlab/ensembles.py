"""Finite neuron ensembles: empirical measures over parameter triples (a, w, b).

An ensemble represents f(x) = sum_i p_i * a_i * sigma_alpha(w_i . x + b_i)
with probability weights p_i. Probability weights (rather than the uniform
1/n convention) let deterministic quadrature lifts and random subsamples share
one type; `sample_subnetwork` converts back to the 1/n convention.

sigma_alpha(z) = max(z, 0)^alpha; alpha = 0 is the indicator 1_{z > 0} (so the
value at z = 0 is 0). `activation` is the one implementation; the Poisson
boundary data `relu_power` and `heaviside` evaluate through it too.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import warnings

import numpy as np

from .errors import ValidationError
from .numerics import _MAX_GAUSS_NODES, QuadratureRule, _check_count

__all__ = [
    "NeuronEnsemble",
    "activation",
    "ensemble_eval",
    "ensemble_eval_many",
    "ensemble_derivatives",
    "barron_cost",
    "cauchy_tangent_rule",
    "cauchy_midpoint_rule",
    "cauchy_graded_rule",
    "lift_ensemble",
    "slice_ensemble",
    "homogeneous_extend",
    "sample_subnetwork",
    "save_ensemble",
    "load_ensemble",
]

# Atom-points per evaluation block of `ensemble_derivatives`: a block is one
# buffer of at most this many doubles (16 MB), activated in place.
_EVAL_CHUNK = 2_000_000
# Largest ensemble one call may build. A dim-2 neuron holds five doubles and a
# lift makes several temporaries of that size, so 10^7 neurons take about 1 GB;
# larger requests are refused up front instead of failing in the allocator.
MAX_NEURONS = 10_000_000


def check_neuron_count(n: int, what: str) -> None:
    """ValidationError unless n is an integer and 1 <= n <= MAX_NEURONS."""
    _check_count(n, what, 1, MAX_NEURONS, "neurons")


def activation(z, alpha: float, out=None):
    """sigma_alpha(z) = max(z, 0)^alpha elementwise; indicator 1_{z>0} for alpha = 0.

    NaN and -inf map to 0. A negative alpha (a derivative of order above the
    activation power) gives z^alpha on z > 0 and 0 elsewhere.

    `out`, as for a numpy ufunc, is a float array of z's shape that receives
    the result and is returned (a new one when not given); it may be z
    itself, which then holds sigma_alpha(z) with the bits of the call
    without `out`.
    """
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty_like(z)
    if alpha > 0.0:
        np.fmax(z, 0.0, out=out)
        out **= alpha  # in place: one temporary fewer on large blocks
        return out
    if alpha == 0.0:
        return np.greater(z, 0.0, out=out)
    pos = z > 0.0
    vals = z[pos]
    vals **= alpha  # read before `out`, which may be z, is overwritten
    out.fill(0.0)
    out[pos] = vals
    return out


class NeuronEnsemble:
    """Immutable weighted collection of neurons with a shared activation power."""

    __slots__ = ("probs", "a", "w", "b", "alpha", "dim")

    def __init__(self, probs, a, w, b, alpha: float):
        probs = np.ascontiguousarray(probs, dtype=float)
        a = np.ascontiguousarray(a, dtype=float)
        w = np.ascontiguousarray(w, dtype=float)
        b = np.ascontiguousarray(b, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2 or w.shape[1] not in (1, 2):
            raise ValidationError(f"w must have shape (n,) or (n, d) with d in {{1,2}}, got {w.shape}")
        n = w.shape[0]
        if not (probs.shape == a.shape == b.shape == (n,)):
            raise ValidationError("probs, a, b must be 1D arrays matching the number of neurons")
        if n == 0:
            raise ValidationError("ensemble must contain at least one neuron")
        if not (alpha >= 0.0 and math.isfinite(alpha)):
            raise ValidationError(f"alpha must be finite and >= 0, got {alpha}")
        for name, arr in (("probs", probs), ("a", a), ("w", w), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        if np.any(probs < 0.0):
            raise ValidationError("probability weights must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValidationError(f"probability weights sum to {probs.sum()!r}, not 1")
        for arr in (probs, a, w, b):
            arr.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "dim", int(w.shape[1]))

    def __setattr__(self, *_):
        raise AttributeError("NeuronEnsemble is immutable")

    def __len__(self) -> int:
        return self.w.shape[0]

    @classmethod
    def from_signed_atoms(cls, coefs, ws, bs, alpha: float) -> "NeuronEnsemble":
        """Build an ensemble representing sum_i coef_i * sigma_alpha(w_i x + b_i).

        Probability weights are |coef_i| normalized; outer weights carry the
        sign and the total mass. Zero coefficients are dropped.
        """
        coefs = np.asarray(coefs, dtype=float)
        ws = np.asarray(ws, dtype=float)
        bs = np.asarray(bs, dtype=float)
        keep = coefs != 0.0
        if not np.any(keep):
            # represent the zero function with one null neuron
            w0 = ws[:1] if ws.size else np.array([1.0])
            return cls(np.array([1.0]), np.array([0.0]), w0[:1], np.array([0.0]), alpha)
        coefs, bs = coefs[keep], bs[keep]
        ws = ws[keep]
        total = np.abs(coefs).sum()
        probs = np.abs(coefs) / total
        a = np.sign(coefs) * total
        return cls(probs, a, ws, bs, alpha)


def ensemble_eval(e: NeuronEnsemble, x) -> float:
    """f(x) = sum_i p_i a_i sigma_alpha(w_i . x + b_i) at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (e.dim,):
        raise ValidationError(f"point of shape {x.shape} fed to a dim-{e.dim} ensemble")
    return float(ensemble_derivatives(e, x[None, :], 0)[0][0])


def ensemble_eval_many(e: NeuronEnsemble, xs) -> np.ndarray:
    """Vectorized evaluation at points of shape (m,) for d=1 or (m, 2) for d=2."""
    xs = np.asarray(xs, dtype=float)
    f = ensemble_derivatives(e, xs, 0)[0]
    return f.reshape(xs.shape) if e.dim == 1 else f


def ensemble_derivatives(e: NeuronEnsemble, xs, order: int, weights=None) -> list[np.ndarray]:
    """Partial-derivative components of order `order` at many points.

    Returns [f] for order 0; [f_x] (d=1) or [f_x, f_y] (d=2) for order 1;
    [f_xx] (d=1) or [f_xx, f_xy, f_yy] (d=2) for order 2. Each neuron
    differentiates analytically: D^m sigma_alpha = prod_{i<m}(alpha-i) *
    sigma_(alpha-m) * w^(tensor m); the components are those of w^(tensor m)
    with nondecreasing indices.

    `weights` of shape (len(e), k) takes the place of `e.probs`: each
    component then has shape (m, k), its column j belonging to
    sum_i weights[i, j] a_i sigma_alpha(w_i . x + b_i). The activation block
    is evaluated once for all k columns.

    Atoms go in blocks of at most _EVAL_CHUNK atom-points. A block's
    activations live in one buffer, and its coefficients p_i a_i (or
    weights[i] a_i) are formed for the block alone; each block is released
    before the next is allocated.
    """
    _check_count(order, "order", 0)
    if order > 2:
        raise ValidationError(f"order must be 0, 1 or 2, got {order}")
    xs = np.asarray(xs, dtype=float)
    pts = xs.reshape(-1, 1) if e.dim == 1 else xs
    if e.dim == 2 and (pts.ndim != 2 or pts.shape[1] != 2):
        raise ValidationError(f"points of shape {xs.shape} fed to a dim-2 ensemble")
    if weights is None:
        weights = e.probs
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != len(e):
            raise ValidationError(f"weights must have shape ({len(e)}, k), got {weights.shape}")
    atom = (slice(None),) + (None,) * (weights.ndim - 1)  # broadcasts a per-atom factor over columns
    m = pts.shape[0]
    coef = math.prod(e.alpha - i for i in range(order))
    comps = list(itertools.combinations_with_replacement(range(e.dim), order))
    outs = [np.zeros((m,) + weights.shape[1:]) for _ in comps]
    step = max(1, _EVAL_CHUNK // max(1, m))
    for lo in range(0, len(e), step):
        hi = min(lo + step, len(e))
        wj = e.w[lo:hi]
        S = pts @ wj.T
        S += e.b[lo:hi]
        activation(S, e.alpha - order, out=S)
        if order:
            S *= coef
        pa = weights[lo:hi] * e.a[lo:hi][atom]
        for out, comp in zip(outs, comps):
            out += S @ (pa * np.prod(wj[:, comp], axis=1)[atom] if comp else pa)  # order 0: the product is 1
        del S, pa  # free before the next block is allocated
    return outs


def _atom_cost(e: NeuronEnsemble) -> np.ndarray:
    """|a_i| (|w_i| + |b_i|)^alpha per neuron; weighted by any probabilities it is a cost."""
    return np.abs(e.a) * (np.linalg.norm(e.w, axis=1) + np.abs(e.b)) ** e.alpha


def barron_cost(e: NeuronEnsemble) -> float:
    """E[|a| (|w| + |b|)^alpha] for this representation (upper-bounds the Barron norm)."""
    return float(np.dot(e.probs, _atom_cost(e)))


# --- Cauchy-node rules for the harmonic lift -----------------------------------


def cauchy_tangent_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre nodes on (-pi/2, pi/2) pushed through tan.

    Integrates h against the Cauchy probability density 1/(pi (1+t^2)):
    sum_j q_j h(t_j) with q_j summing to 1. Node computation goes through a
    dense eigensolve, so n is capped at numerics._MAX_GAUSS_NODES; use
    cauchy_midpoint_rule or cauchy_graded_rule for dense lifts.
    """
    _check_count(n, "n")
    if n > _MAX_GAUSS_NODES:
        raise ValidationError(
            f"n = {n} too large for Gauss-Legendre node computation; "
            "use cauchy_midpoint_rule or cauchy_graded_rule for dense lifts"
        )
    x, w = np.polynomial.legendre.leggauss(n)
    psi = 0.5 * np.pi * x
    q = 0.5 * w  # GL weights scaled to (-pi/2, pi/2), divided by pi
    q = q / q.sum()  # exact normalization against rounding
    return QuadratureRule(np.tan(psi), q, 1.0)


def cauchy_midpoint_rule(n: int) -> QuadratureRule:
    """Uniform midpoint rule in the angle variable, pushed through tan.

    All weights equal 1/n, so the rule integrates indicator data with error
    at most 1/(2n); use for step-activation lifts needing guaranteed bounds.
    """
    check_neuron_count(n, "n")
    psi = (-0.5 + (np.arange(n) + 0.5) / n) * np.pi
    q = np.full(n, 1.0 / n)
    return QuadratureRule(np.tan(psi), q, 1.0)


def cauchy_graded_rule(n: int) -> QuadratureRule:
    """Midpoint rule on an angle mesh graded toward +-pi/2, pushed through tan.

    Boundary data growing like |t|^alpha turns into an endpoint singularity
    (pi/2 - psi)^(-alpha) in the angle variable; clustering cells there (cell
    edges pi/2 * (1 - (1-s)^4)) restores fast convergence of the lift for
    0 < alpha < 1.
    """
    check_neuron_count(n, "n")
    half = (n + 1) // 2
    s = np.arange(half + 1) / half
    u = (1.0 - s) ** 4.0  # decreasing 1 -> 0; cell width prop. to u_i - u_{i+1}
    du = u[:-1] - u[1:]
    umid = 0.5 * (u[:-1] + u[1:])
    psi_pos = 0.5 * np.pi * (1.0 - umid)
    psi = np.concatenate([-psi_pos[::-1], psi_pos])
    q = np.concatenate([du[::-1], du]) * 0.25
    q = q / q.sum()
    return QuadratureRule(np.tan(psi), q, 1.0)


def lift_ensemble(
    e: NeuronEnsemble,
    t_rule: QuadratureRule | None = None,
    n_samples: int | None = None,
    seed: int | None = None,
) -> NeuronEnsemble:
    """Harmonic-extension lift of a 1D ensemble to the half-plane.

    Push-forward along (a, w, b; t) -> (a, (w, t*w), b) with t Cauchy
    distributed: deterministic nodes from `t_rule` (default 201 tangent-mapped
    Gauss-Legendre nodes), or iid Cauchy draws when `n_samples` is given; not
    both. Requires alpha < 1 so the lifted cost stays finite.
    """
    if t_rule is not None and n_samples is not None:
        raise ValidationError("lift takes quadrature nodes or random samples, not both")
    if e.dim != 1:
        raise ValidationError("lift_ensemble needs a one-dimensional ensemble")
    if e.alpha >= 1.0:
        raise ValidationError(
            f"alpha = {e.alpha} >= 1: the Cauchy moment of (1+|t|)^alpha diverges"
        )
    w1 = e.w[:, 0]
    if n_samples is not None:
        check_neuron_count(n_samples, "n_samples")
        rng = np.random.default_rng(seed)
        idx = _draw_atoms(_atom_cdf(e), n_samples, rng)
        t = rng.standard_cauchy(n_samples)
        probs = np.full(n_samples, 1.0 / n_samples)
        a, w, b = e.a[idx], w1[idx], e.b[idx]
    else:
        rule = t_rule if t_rule is not None else cauchy_tangent_rule(201)
        n = rule.nodes.size
        check_neuron_count(len(e) * n, "atoms x nodes")
        q = rule.weights / rule.weights.sum()
        probs = np.repeat(e.probs, n) * np.tile(q, len(e))
        probs = probs / probs.sum()
        t = np.tile(rule.nodes, len(e))
        a, w, b = np.repeat(e.a, n), np.repeat(w1, n), np.repeat(e.b, n)
    with np.errstate(over="ignore"):  # an overflow is refused as a non-finite w
        w2d = np.column_stack([w, t * w])
    return NeuronEnsemble(probs, a, w2d, b, e.alpha)


def slice_ensemble(e: NeuronEnsemble, x0, v) -> NeuronEnsemble:
    """Restriction to the line t -> x0 + t*v: neuron (a, w, b) -> (a, w.v, w.x0 + b)."""
    if e.dim != 2:
        raise ValidationError("slice_ensemble needs a two-dimensional ensemble")
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    if x0.shape != (2,) or v.shape != (2,):
        raise ValidationError("x0 and v must be 2-vectors")
    if not np.isfinite(np.concatenate([x0, v])).all():
        raise ValidationError("x0 and v must be finite")
    with np.errstate(over="ignore"):  # an overflow is refused as a non-finite w or b
        if not np.any(v):
            raise ValidationError("slice direction must be nonzero")
        return NeuronEnsemble(e.probs, e.a, e.w @ v, e.w @ x0 + e.b, e.alpha)


def homogeneous_extend(e: NeuronEnsemble) -> NeuronEnsemble:
    """Degree-alpha homogeneous extension of a 1D ensemble to the half-plane.

    Neuron (a, w, b) -> (a, (w, b), 0), so the extension equals
    y^alpha * f(x/y) for y > 0 exactly.
    """
    if e.dim != 1:
        raise ValidationError("homogeneous_extend needs a one-dimensional ensemble")
    w2d = np.column_stack([e.w[:, 0], e.b])
    return NeuronEnsemble(e.probs, e.a, w2d, np.zeros(len(e)), e.alpha)


def _atom_cdf(e: NeuronEnsemble) -> np.ndarray:
    """The CDF of the ensemble's categorical distribution, built once for any number of draws."""
    cdf = e.probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_atoms(cdf: np.ndarray, n: int, seed) -> np.ndarray:
    """Atom indices of n iid draws from the categorical distribution of `_atom_cdf`.

    This is numpy's `Generator.choice(len(e), n, p=e.probs)` algorithm (one
    uniform per draw, looked up in the CDF) without its per-call validation
    and cumsum, so it takes the same stream and the same atoms. `seed` may be
    a Generator, which the draws advance.
    """
    check_neuron_count(n, "n")
    return cdf.searchsorted(np.random.default_rng(seed).random(n), side="right")


def sample_subnetwork(e: NeuronEnsemble, n: int, seed: int | None = None) -> NeuronEnsemble:
    """n iid draws from the ensemble's categorical distribution, 1/n convention.

    The returned network is unbiased for f; its barron_cost matches the target
    cost in expectation (the per-draw coefficient bound).
    """
    idx = _draw_atoms(_atom_cdf(e), n, seed)
    probs = np.full(n, 1.0 / n)
    return NeuronEnsemble(probs, e.a[idx], e.w[idx], e.b[idx], e.alpha)


# --- flat text serialization -----------------------------------------------------

_HEADER_RE = re.compile(
    r"^#barron-ensemble v1 alpha=(?P<alpha>[^ ]+) dim=(?P<dim>[12])$"
)


def save_ensemble(e: NeuronEnsemble, path) -> None:
    """One neuron per line: `prob a w_1 [w_2] b`, each double as `"%.17g" % x` writes it.

    Each pass of _ENCODE_ROWS rows is encoded by `_encode_17g`, whose bytes
    equal `"%.17g"`'s for every finite double, and written at once;
    `load_ensemble` reads the values back bit for bit.
    """
    with open(path, "wb") as fh:
        fh.write(f"#barron-ensemble v1 alpha={e.alpha:.17g} dim={e.dim}\n".encode())
        for start in range(0, len(e), _ENCODE_ROWS):
            rows = slice(start, start + _ENCODE_ROWS)
            fh.write(_encode_17g(np.column_stack([e.probs[rows], e.a[rows], e.w[rows], e.b[rows]])))


# --- "%.17g" encoder ---------------------------------------------------------------
#
# "%.17g" prints a double x != 0 from D = round(|x| 10^(16-X)), the integer of its
# 17 significant digits, and X, its decimal exponent: fixed form for -4 <= X <= 16,
# exponent form otherwise, trailing zeros stripped.
#
# Fast path, 1e-280 <= |x| < 1e300: k = floor(log10|x|), and |x| 10^(16-k) in
# double-double arithmetic (Dekker's exact two-product with 10^q = hi + lo) to
# about 1e-31 relative, so its floor, and whether its fraction is above 1/2, are
# exact unless the fraction is within _TIE of 1/2. Each value then becomes four
# little-endian 64-bit words that hold its text, with NUL bytes wherever "%.17g"
# writes nothing; one bytes.translate drops them:
#   word 0     sign, "0." and up to three zeros (X in [-4, -1]), first digit
#   words 1-2  digits 2..17: the first `keep` of them (trailing zeros dropped,
#              integer digits kept), "." inserted after the first P (P = X in
#              fixed form with X >= 0, 0 in exponent form, 16 for X < 0 where
#              word 0 holds the point); byte 0 of word 3 takes the digit the
#              point pushes out
#   word 3     bytes 1-5 "e+XX" or "e-XXX" in exponent form, byte 7 ' ' or '\n'
#
# Python's own "%.17g" formats, in one call per block, what the fast path cannot
# certify: 0 and -0, |x| outside the range (subnormals included), a fraction
# within _TIE of 1/2, and a log10 that missed k, which leaves the floor below
# 10^16 (k too high) or at 10^17 or above (k too low). Rounding up to 10^17 is a
# carry: D = 10^16 and X = k + 1.

_FAST_MIN, _FAST_MAX = 1e-280, 1e300
_Q_MIN = 16 - 300  # 10^q for q = 16 - k, k = floor(log10|x|) in [-281, 300]
_Q_MAX = 16 + 281
_TIE = 1e-6  # the double-double error is below 1e-14 of a unit in the 17th digit
_DEKKER = 134217729.0  # 2^27 + 1
_X_MIN = -324  # finite doubles have decimal exponents -324..308
_ENCODE_ROWS = 1024  # rows per pass: a pass's temporaries stay within the CPU cache
_SPACE, _NEWLINE = 32 << 56, 10 << 56  # word 3's byte 7


def _split(x):
    """Dekker's split: x = hi + lo exactly, both halves 26 bits wide."""
    t = x * _DEKKER
    hi = t - (t - x)
    return hi, x - hi


def _pow10_table() -> np.ndarray:
    """Rows hh, hl, lo with hh + hl = hi and hi + lo = 10^q to about 1e-31, q = _Q_MIN.._Q_MAX.

    Anchors 10^(_Q_MIN + 16j) come correctly rounded from Python ints (hi as
    1 / 10**m for negative powers), and each is times the exact 10^0..10^15.
    """
    anchors = []
    for q in range(_Q_MIN, _Q_MAX + 1, 16):
        if q >= 0:
            hi = float(10**q)
            anchors.append((hi, float(10**q - int(hi))))
        else:
            m = 10**-q
            hi = 1 / m
            num, den = hi.as_integer_ratio()
            anchors.append((hi, (den - num * m) / (den * m)))
    size = _Q_MAX - _Q_MIN + 1
    h, low = np.repeat(np.array(anchors), 16, axis=0)[:size].T
    t = np.resize([float(10**b) for b in range(16)], size)
    hi = h * t
    (hh, hl), (th, tl) = _split(h), _split(t)
    lo = ((hh * th - hi) + hh * tl + hl * th) + hl * tl + low * t
    return np.stack([*_split(hi), lo])


def _words(byte_rows) -> np.ndarray:
    """The little-endian 64-bit words of rows of 8 * j bytes, shape (rows, j)."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8")


def _exponent_tables():
    """Per decimal exponent X = -324..308: word 0's prefix, word 3's exponent bytes,
    17 * P (P as above), and the integer digits among 2..17 that are always kept."""
    x = np.arange(_X_MIN, 309)
    ax = np.abs(x)[:, None]
    fix_neg = (x >= -4) & (x < 0)
    fix_pos = (x >= 0) & (x <= 16)
    prefix = np.zeros((x.size, 8), dtype=np.uint8)
    prefix[fix_neg, 1:3] = [48, 46]  # "0."
    prefix[:, 3:6] = np.where(fix_neg[:, None] & (x[:, None] <= [-2, -3, -4]), 48, 0)
    two = ax[:, 0] < 100
    exponent = np.zeros((x.size, 8), dtype=np.uint8)
    exponent[:, 1] = 101  # e
    exponent[:, 2] = np.where(x < 0, 45, 43)
    exponent[:, 3:6] = ax // np.where(two[:, None], [10, 1, 1], [100, 10, 1]) % 10 + 48
    exponent[two, 5] = 0
    exponent[fix_neg | fix_pos] = 0
    point17 = np.where(fix_pos, x, np.where(fix_neg, 16, 0)) * 17
    keep_min = np.where(fix_pos, x, 0).astype(np.int8)
    return _words(prefix)[:, 0], _words(exponent)[:, 0], point17, keep_min


def _chunk_tables():
    """Per 4-digit chunk 0000..9999: its characters as a little-endian uint32, and for
    chunk j of digits 2..17 the digits up to its last nonzero one, 4j + 1..4j + 4
    (0 for 0000)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    chars = np.ascontiguousarray((digits + 48).T).view("<u4")[:, 0]
    last = ((digits != 0) * np.arange(1, 5, dtype=np.int8)[:, None]).max(axis=0)
    return chars, np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0).astype(np.int8)


def _point_masks() -> np.ndarray:
    """Rows low, move, dot (two words each) per code 17 * P + keep for words 1, 2:
    digits [0, min(P, keep)) stay, [P, keep) move one byte up, "." goes to byte
    P when keep > P."""
    i = np.arange(16)
    P, keep = (g[..., None] for g in np.indices((17, 17)))
    low = i < np.minimum(P, keep)
    move = (i >= P) & (i < keep)
    dot = (i == P) & (keep > P)
    b = np.concatenate([low * 255, move * 255, dot * 46], axis=-1).reshape(289, 48)
    return np.ascontiguousarray(_words(b).T)


def _head_table() -> np.ndarray:
    """Word 0's sign and first digit, indexed 2 * digit + (x < 0)."""
    b = np.zeros((10, 2, 8), dtype=np.uint8)
    b[:, 1, 0] = 45  # "-"
    b[:, :, 6] = np.arange(48, 58)[:, None]
    return _words(b.reshape(20, 8))[:, 0]


@functools.cache
def _encoder_tables() -> tuple:
    """All lookup tables of the encoder, built on first use: a process that never
    saves an ensemble neither builds them nor touches the numpy code that does."""
    return (_pow10_table(), *_exponent_tables(), *_chunk_tables(), _point_masks(), _head_table())


def _encode_17g(block: np.ndarray) -> bytes:
    """A 2D float block as text: each entry as `"%.17g" % x`, ' ' between columns, a newline per row."""
    pow10, prefix, exponent, point17, keep_min, digits4, significant, point_masks, head = _encoder_tables()
    rows, cols = block.shape
    v = np.ascontiguousarray(block, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0  # a stand-in until Python formats these values
    k = np.log10(a)
    k = np.floor(k, out=k).astype(np.intp)
    hh, hl, lo = pow10.take(16 - _Q_MIN - k, axis=1)
    # scaled = |x| 10^(16-k) = p + err, err first the exact error of p = |x| hi
    ah, al = _split(a)
    p = a * (hh + hl)
    err = ah * hh - p
    err += ah * hl
    err += al * hh
    err += al * hl
    err += a * lo
    whole = np.floor(err)
    err -= whole  # the fraction of the scaled value; p is an integer from 2^53 on
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    fast &= (d >= 10**16) & (d < 10**17) & (np.abs(err - 0.5) > _TIE)
    d += err > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    k += carry

    lead = d // 10**16
    d -= lead * 10**16
    hi8 = d // 10**8
    d -= hi8 * 10**8
    c0, c2 = hi8 // 10**4, d // 10**4
    chunks = (c0, hi8 - c0 * 10**4, c2, d - c2 * 10**4)
    x = k - _X_MIN
    keep = keep_min.take(x)  # digits 2..17 written, before the trailing zeros
    for j, c in enumerate(chunks):
        np.maximum(keep, significant[j].take(c), out=keep)
    low0, low1, move0, move1, dot0, dot1 = point_masks.take(point17.take(x) + keep, axis=1)
    d0, d1 = np.stack([digits4.take(c) for c in chunks], axis=1).view("<u8").T
    move0 &= d0
    move1 &= d1
    out = np.empty((v.size, 4), dtype="<u8")
    # lead is 1..9 where the value is certified; clip keeps the rest in the table
    out[:, 0] = prefix.take(x) | head.take(2 * lead + np.signbit(v), mode="clip")
    out[:, 1] = (d0 & low0) | (move0 << np.uint64(8)) | dot0
    out[:, 2] = (d1 & low1) | (move1 << np.uint64(8)) | (move0 >> np.uint64(56)) | dot1
    seps = np.array([_SPACE] * (cols - 1) + [_NEWLINE], dtype=np.uint64)
    out.reshape(rows, cols, 4)[:, :, 3] = ((move1 >> np.uint64(56)) | exponent.take(x)).reshape(rows, cols) | seps

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%.17g\0" * slow.size % tuple(v[slow].tolist())).split("\0")[:-1]
        raw = out.view(np.uint8)
        raw[slow, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        raw[slow, 24:31] = 0
    return out.tobytes().translate(None, b"\0")


def _parse_header(line: str) -> tuple[float, int]:
    """alpha and dim of a header line without its newline."""
    m = _HEADER_RE.match(line)
    if not m:
        raise ValidationError(f"bad ensemble header: {line!r}")
    return float(m.group("alpha")), int(m.group("dim"))


def _columns(rows: np.ndarray, dim: int) -> tuple:
    """Views probs, a, w, b of rows `prob a w_1 [w_2] b`."""
    return rows[:, 0], rows[:, 1], rows[:, 2 : 2 + dim], rows[:, 2 + dim]


# --- strict reader of the writer's layout -------------------------------------------
#
# A body in save_ensemble's layout has tokens of the bytes 0-9 + - . e only, one
# space between tokens, "\n" after each line and 3 + dim tokens on every line. It is
# read in blocks of whole lines. Deleting the number bytes from a block must leave
# (" " * (ncols - 1) + "\n") * nlines, which rules out every other byte, blank lines
# and stray whitespace. np.fromstring(sep=" ") then refuses a token that is not one
# number ("1-2", "1e5e5", "--1"), and the count of values, ncols * nlines, refuses an
# empty token ("1  2") and a glued one that a numpy would split into two numbers.
#
# np.fromstring parses a long double with libc's strtold, which rounds correctly.
# Rounding to the long double and then to the double equals one correct rounding
# unless the long double lies exactly halfway between two doubles, where the
# second rounding may break the tie the wrong way. At such a tie 2 (ld - out) is
# the gap from out to its neighbour on ld's side: spacing(out), or half of it
# below a power of two. Python's float() rounds again from the text every value
# that passes this test (all ties, and a few non-ties with them), overflows the
# double range or lies within one ulp of it.
#
# A first pass counts the lines, so the columns are allocated once at their
# size. The common path makes no array below 1 KB: numpy caches such arrays when
# they are freed, and a few of them left between the large temporaries keep the
# heap from reusing its free space (about 2 MB more peak RSS in a benchmark run).

_READ_BYTES = 1 << 18  # body bytes per read, then the rest of the last line
_NUMBER_BYTES = b"0123456789+-.e"
_DBL_MAX = float(np.finfo(float).max)


def _decode_block(block: bytes, ncols: int) -> np.ndarray | None:
    """The doubles of whole lines in the writer's layout, shape (lines, ncols), bit for
    bit what float() gives for each token; None if the block is not in that layout."""
    seps = block.translate(None, _NUMBER_BYTES)
    nlines, extra = divmod(len(seps), ncols)
    if extra or seps != (b" " * (ncols - 1) + b"\n") * nlines:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 only warns on unmatched data
            ld = np.fromstring(block, dtype=np.longdouble, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if ld.size != nlines * ncols:
        return None
    # a value past the double range casts to inf, and r to inf or nan: float() redoes it
    with np.errstate(over="ignore", invalid="ignore"):
        out = ld.astype(float)
        r = ld - out  # exact
        r *= 2  # a tie's 2r is a power of two >= 2^-1074, so its cast below is exact
        twice = np.abs(r.astype(float))
        gap = np.abs(np.spacing(out))  # to the neighbour away from zero
        redo = (twice == gap) | ((twice + twice == gap) & (np.abs(np.frexp(out)[0]) == 0.5))
        redo |= ~(np.abs(out) < _DBL_MAX)
    if redo.any():
        redo = np.flatnonzero(redo)
        tokens = block.split()
        out[redo] = [float(tokens[i]) for i in redo.tolist()]
    return out.reshape(nlines, ncols)


def _read_layout(path) -> tuple | None:
    """alpha and the columns (probs, a, w, b) of a file in save_ensemble's layout;
    None where the file or the platform's long double falls outside it."""
    if np.finfo(np.longdouble).nmant not in (52, 63, 112):
        return None  # not an IEEE binary format: strtold's rounding is not known
    with open(path, "rb") as fh:
        header = fh.readline()
        if not (header.isascii() and header.endswith(b"\n")) or b"\r" in header:
            return None
        alpha, dim = _parse_header(header[:-1].decode())
        body = fh.tell()
        n = sum(block.count(b"\n") for block in iter(functools.partial(fh.read, _READ_BYTES), b""))
        if n == 0:
            return None
        fh.seek(body)
        columns = np.empty(n), np.empty(n), np.empty((n, dim)), np.empty(n)
        done = 0
        while block := fh.read(_READ_BYTES):
            if not block.endswith(b"\n"):
                block += fh.readline()
            rows = _decode_block(block, 3 + dim)
            if rows is None:
                return None
            for column, part in zip(columns, _columns(rows, dim)):
                column[done : done + len(rows)] = part
            done += len(rows)
    return alpha, columns


def _read_any(path) -> tuple:
    """alpha and the columns (probs, a, w, b) of any file numpy's loadtxt reads."""
    with open(path, "r", encoding="utf-8") as fh:
        alpha, dim = _parse_header(fh.readline().rstrip("\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            arr = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    if arr.size == 0:
        raise ValidationError("ensemble file has no neurons")
    if arr.shape[1] != 3 + dim:
        raise ValidationError(f"expected {3 + dim} columns, got {arr.shape[1]}")
    return alpha, _columns(arr, dim)


def load_ensemble(path) -> NeuronEnsemble:
    """Read a `save_ensemble` file; any malformed content is a ValidationError naming the file.

    A file in the writer's exact layout is read block by block with libc's
    strtold and an exact check of the one rounding case where that can differ
    from a correctly rounded double. Any other file (blank lines, surrounding
    whitespace, CRLF, tabs, other float spellings, a malformed body) goes
    through numpy's loadtxt, which also names what is wrong. Both round
    correctly, so a saved ensemble loads back bit for bit. `#` is only allowed
    in the header.
    """
    try:
        alpha, (probs, a, w, b) = _read_layout(path) or _read_any(path)
        return NeuronEnsemble(probs, a, w, b, alpha)
    except ValueError as exc:  # ours, numpy's parse errors, undecodable bytes
        reason = str(exc).split("; use `usecols`")[0]  # numpy's hint is no use here
        raise ValidationError(f"{path}: {reason}") from None
