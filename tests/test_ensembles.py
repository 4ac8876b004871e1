"""Neuron ensembles: evaluation, cost, lifting, slicing, extension, sampling,
serialization, and the regularity bounds their costs control."""

import collections
import itertools
import math
import re
import tempfile
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlab import (
    HalfPlanePoint,
    NeuronEnsemble,
    ValidationError,
    barron_cost,
    cauchy_midpoint_rule,
    cauchy_tangent_rule,
    ensemble_eval,
    ensemble_eval_many,
    eval_heaviside,
    eval_u_half,
    homogeneous_extend,
    integrate_adaptive,
    lift_ensemble,
    load_ensemble,
    sample_subnetwork,
    save_ensemble,
    slice_ensemble,
)
from harmlab import ensembles as ensembles_module
from harmlab.cli import run as cli_run
from harmlab.ensembles import _atom_cdf, _draw_atoms, activation, cauchy_graded_rule, ensemble_derivatives
import ensemble_reference


def single(a, w, b, alpha, dim=1):
    w = np.atleast_2d(np.asarray(w, dtype=float)) if dim == 2 else np.asarray([[w]], float)
    return NeuronEnsemble([1.0], [a], w, [b], alpha)


def test_eval_single_neuron():
    e = single(1.0, 1.0, 0.0, 2.0)
    assert ensemble_eval(e, 2.0) == 4.0
    assert ensemble_eval(e, -1.0) == 0.0


def test_eval_reflection_invariant_is_zero():
    e = NeuronEnsemble([0.5, 0.5], [1.0, -1.0], [[1.0], [1.0]], [0.0, 0.0], 2.0)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3, 3, 20):
        assert ensemble_eval(e, float(x)) == 0.0


def test_eval_alpha_zero_indicator():
    e = single(1.0, 1.0, 0.0, 0.0)
    assert ensemble_eval(e, 1.0) == 1.0
    assert ensemble_eval(e, -1.0) == 0.0
    assert ensemble_eval(e, 0.0) == 0.0  # tie: right-continuous indicator


def test_eval_dimension_mismatch():
    e = single(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError, match=r"point of shape \(2,\) fed to a dim-1 ensemble"):
        ensemble_eval(e, [1.0, 2.0])


def test_probs_must_normalize():
    with pytest.raises(ValidationError):
        NeuronEnsemble([0.5, 0.4], [1.0, 1.0], [[1.0], [1.0]], [0.0, 0.0], 1.0)


def test_cost_examples():
    assert barron_cost(single(2.0, 3.0, 1.0, 2.0)) == pytest.approx(32.0, rel=1e-15)
    assert barron_cost(single(0.0, 5.0, 1.0, 2.0)) == 0.0
    e = NeuronEnsemble([0.5, 0.5], [1.0, 1.0], [[1.0], [0.0]], [0.0, 1.0], 1.0)
    assert barron_cost(e) == pytest.approx(1.0, rel=1e-15)


def test_cost_invariances():
    rng = np.random.default_rng(5)
    n = 17
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    a = rng.normal(size=n)
    w = rng.normal(size=(n, 1))
    b = rng.normal(size=n)
    e = NeuronEnsemble(probs, a, w, b, 1.5)
    base = barron_cost(e)
    perm = rng.permutation(n)
    assert barron_cost(NeuronEnsemble(probs[perm], a[perm], w[perm], b[perm], 1.5)) == pytest.approx(base, rel=1e-14)
    # split the first neuron's mass in two
    probs2 = np.concatenate([[probs[0] / 2, probs[0] / 2], probs[1:]])
    a2 = np.concatenate([[a[0], a[0]], a[1:]])
    w2 = np.vstack([w[:1], w])
    b2 = np.concatenate([[b[0]], b])
    assert barron_cost(NeuronEnsemble(probs2, a2, w2, b2, 1.5)) == pytest.approx(base, rel=1e-14)


# --- lifting -------------------------------------------------------------------


def test_lift_heaviside_matches_closed_form():
    e = single(1.0, 1.0, 0.0, 0.0)
    lifted = lift_ensemble(e, t_rule=cauchy_midpoint_rule(200_000))
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        got = ensemble_eval(lifted, [p.x, p.y])
        assert got == pytest.approx(eval_heaviside(p), abs=4e-6)


def test_lift_relu_half_matches_closed_form():
    e = single(1.0, 1.0, 0.0, 0.5)
    lifted = lift_ensemble(e, t_rule=cauchy_graded_rule(10_000))
    got = ensemble_eval(lifted, [3.0, 4.0])
    assert got == pytest.approx(eval_u_half(HalfPlanePoint(3.0, 4.0)), abs=1e-5)
    # the default tangent rule converges too, only more slowly (tail singularity)
    coarse = ensemble_eval(lift_ensemble(e), [3.0, 4.0])
    assert coarse == pytest.approx(2.0, abs=1e-2)


def test_lift_cost_bound():
    # lifted cost <= cost(e) * integral (1+|t|)^alpha Cauchy(dt) + slack
    for alpha in (0.0, 0.5):
        e = single(1.0, 1.0, 0.0, alpha)
        lifted = lift_ensemble(e, t_rule=cauchy_tangent_rule(1501))
        factor = integrate_adaptive(
            lambda th: (1.0 + np.abs(np.tan(th))) ** alpha, -math.pi / 2, math.pi / 2, tol=1e-10
        ) / math.pi
        assert barron_cost(lifted) <= barron_cost(e) * factor * (1.0 + 1e-3)
        if alpha == 0.0:
            assert factor == pytest.approx(1.0, abs=1e-9)
            assert barron_cost(lifted) == pytest.approx(barron_cost(e), rel=1e-12)


def test_lift_sampling_mode_deterministic():
    e = single(1.0, 1.0, 0.0, 0.5)
    l1 = lift_ensemble(e, n_samples=500, seed=42)
    l2 = lift_ensemble(e, n_samples=500, seed=42)
    assert np.array_equal(l1.w, l2.w)
    l3 = lift_ensemble(e, n_samples=500, seed=43)
    assert not np.array_equal(l3.w, l1.w)


def test_lift_refuses_nodes_and_samples_together():
    with pytest.raises(ValidationError, match="not both"):
        lift_ensemble(single(1.0, 1.0, 0.0, 0.5), t_rule=cauchy_tangent_rule(5), n_samples=3, seed=0)


def test_lift_rejects_alpha_ge_one():
    with pytest.raises(ValidationError, match=r"alpha = 1.0 >= 1: the Cauchy moment"):
        lift_ensemble(single(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValidationError, match="lift_ensemble needs a one-dimensional ensemble"):
        lift_ensemble(single(1.0, [1.0, 0.0], 0.0, 0.5, dim=2))


# --- slicing and homogeneous extension ----------------------------------------


def test_slice_identity_recovers_1d():
    e2 = NeuronEnsemble([0.4, 0.6], [1.0, -2.0], [[1.5, 0.0], [-0.7, 0.0]], [0.1, 0.2], 2.0)
    e1 = slice_ensemble(e2, [0.0, 0.0], [1.0, 0.0])
    assert e1.dim == 1
    assert np.allclose(e1.w[:, 0], [1.5, -0.7])
    assert np.allclose(e1.b, [0.1, 0.2])


def test_slice_pointwise_equality():
    rng = np.random.default_rng(11)
    n = 13
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    e = NeuronEnsemble(probs, rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=n), 1.5)
    x0 = np.array([0.3, -0.2])
    v = np.array([0.8, 1.1])
    s = slice_ensemble(e, x0, v)
    for t in rng.uniform(-2, 2, 10):
        direct = ensemble_eval(e, x0 + t * v)
        sliced = ensemble_eval(s, float(t))
        assert sliced == pytest.approx(direct, abs=1e-14 * max(1, abs(direct)))


def test_slice_cost_inequality():
    rng = np.random.default_rng(13)
    n = 50
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    for alpha in (0.5, 1.0, 2.0):
        e = NeuronEnsemble(probs, rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=n), alpha)
        for _ in range(5):
            x0 = rng.uniform(-2, 2, 2)
            v = rng.uniform(-2, 2, 2)
            if np.linalg.norm(v) == 0:
                continue
            s = slice_ensemble(e, x0, v)
            bound = 2.0**alpha * max(1.0, np.linalg.norm(x0), np.linalg.norm(v)) ** alpha
            assert barron_cost(s) <= bound * barron_cost(e) * (1 + 1e-12)


def test_slice_zero_direction():
    e = NeuronEnsemble([1.0], [1.0], [[1.0, 0.0]], [0.0], 1.0)
    with pytest.raises(ValidationError, match="slice direction must be nonzero"):
        slice_ensemble(e, [0.0, 0.0], [0.0, 0.0])


def test_slice_tiny_direction_is_nonzero():
    # the norm of (1e-200, 1e-200) underflows to 0; the direction is still nonzero
    e = NeuronEnsemble([1.0], [1.0], [[1.0, 2.0]], [0.5], 1.0)
    s = slice_ensemble(e, [0.0, 0.0], [1e-200, 1e-200])
    assert s.w[0, 0] == pytest.approx(3e-200, rel=1e-15) and s.b[0] == 0.5


def test_extend_single_neuron():
    e = single(1.0, 1.0, 0.0, 2.0)
    ext = homogeneous_extend(e)
    assert ensemble_eval(ext, [3.0, 2.0]) == pytest.approx(9.0, rel=1e-15)
    assert np.all(ext.b == 0.0)


def test_extend_homogeneity_and_trace():
    rng = np.random.default_rng(17)
    n = 9
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    alpha = 1.5
    e1 = NeuronEnsemble(probs, rng.normal(size=n), rng.normal(size=(n, 1)), rng.normal(size=n), alpha)
    ext = homogeneous_extend(e1)
    for _ in range(10):
        x, y = rng.uniform(-2, 2), rng.uniform(0.1, 2)
        lam = rng.uniform(0.2, 5)
        v = ensemble_eval(ext, [x, y])
        assert ensemble_eval(ext, [lam * x, lam * y]) == pytest.approx(
            lam**alpha * v, rel=1e-12, abs=1e-12
        )
        assert v == pytest.approx(y**alpha * ensemble_eval(e1, x / y), rel=1e-12, abs=1e-13)
    # slicing the extension along y = 1 recovers the original function exactly
    s = slice_ensemble(ext, [0.0, 1.0], [1.0, 0.0])
    for x in rng.uniform(-2, 2, 10):
        assert ensemble_eval(s, float(x)) == ensemble_eval(e1, float(x))


_MODERATE = st.floats(-4.0, 4.0)


def _ensemble_1d(data, alpha, n):
    weights = _float_array(data, n, st.floats(0.1, 1.0))
    return NeuronEnsemble(
        weights / weights.sum(), _float_array(data, n, _MODERATE),
        _float_array(data, n, _MODERATE).reshape(n, 1), _float_array(data, n, _MODERATE), alpha,
    )


def _scale(e, xs):
    """sum_i p_i |a_i| sigma(w_i x + b_i) at each x: the size of the rounding in f(x)."""
    z = np.outer(xs, e.w[:, 0]) + e.b
    return activation(z, e.alpha) @ (e.probs * np.abs(e.a))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.95),
    n=st.integers(1, 5),
    nodes=st.integers(1, 41),
    data=st.data(),
)
def test_slice_of_lift_is_the_boundary_ensemble(alpha, n, nodes, data):
    # on y = 0 every lifted neuron (a, (w, t w), b) is the atom (a, w, b) again
    e = _ensemble_1d(data, alpha, n)
    xs = _float_array(data, 6, st.floats(-5.0, 5.0))
    on_line = slice_ensemble(lift_ensemble(e, t_rule=cauchy_tangent_rule(nodes)), (0.0, 0.0), (1.0, 0.0))
    assert on_line.dim == 1 and len(on_line) == n * nodes
    got, want = ensemble_eval_many(on_line, xs), ensemble_eval_many(e, xs)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + _scale(e, xs)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0),
    n=st.integers(1, 5),
    data=st.data(),
)
def test_homogeneous_extend_is_y_alpha_f_of_x_over_y(alpha, n, data):
    e = _ensemble_1d(data, alpha, n)
    ext = homogeneous_extend(e)
    xs = _float_array(data, 6, st.floats(-5.0, 5.0))
    # y a power of two makes w x + b y = y (w (x/y) + b) exact in floating point,
    # so both sides see a kink on the same side of zero, even for alpha = 0
    ys = 2.0 ** _float_array(data, 6, st.integers(-4, 3))
    got = ensemble_eval_many(ext, np.column_stack([xs, ys]))
    want = ys**alpha * ensemble_eval_many(e, xs / ys)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + ys**alpha * _scale(e, xs / ys)))


# --- subsampling ------------------------------------------------------------------


def test_sample_single_neuron_is_exact():
    e = single(2.0, 1.5, -0.5, 2.0)
    net = sample_subnetwork(e, 1, seed=0)
    assert len(net) == 1
    for x in (-1.0, 0.0, 0.7, 2.0):
        assert ensemble_eval(net, x) == ensemble_eval(e, x)


def test_sample_unbiasedness():
    rng = np.random.default_rng(19)
    n = 50
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    e = NeuronEnsemble(probs, rng.normal(size=n), rng.normal(size=(n, 1)), rng.normal(size=n), 2.0)
    x0 = 0.37
    f = ensemble_eval(e, x0)
    draws = np.array([ensemble_eval(sample_subnetwork(e, 8, seed=s), x0) for s in range(10_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - f) <= 3 * se


def test_sample_determinism():
    e = single(1.0, 1.0, 0.0, 2.0)
    a = sample_subnetwork(e, 5, seed=9)
    b = sample_subnetwork(e, 5, seed=9)
    assert np.array_equal(a.w, b.w) and np.array_equal(a.a, b.a)


def _probability_vectors():
    """A few categorical distributions, zero weights first, inside and last among them."""
    rng = np.random.default_rng(23)
    ragged = rng.uniform(0.5, 1.5, 2000)
    zeros = rng.uniform(0.0, 1.0, 9)
    zeros[[0, 3, 4, 8]] = 0.0
    return [np.array([1.0]), np.array([0.0, 1.0, 0.0]), zeros / zeros.sum(), ragged / ragged.sum()]


@pytest.mark.parametrize("p", _probability_vectors(), ids=["one", "one-of-three", "zeros", "ragged"])
def test_draws_are_numpys_choice(p):
    """One CDF for all draws takes the atoms and the stream of Generator.choice(p=...)."""
    e = NeuronEnsemble(p, np.ones(p.size), np.linspace(-1.0, 1.0, p.size), np.zeros(p.size), 1.0)
    cdf = _atom_cdf(e)
    for s, n in itertools.product(range(15), (1, 2, 3, 7, 32, 100, 257, 1000, 4096, 5000)):
        rng = np.random.default_rng((s, n))
        want = rng.choice(p.size, size=n, p=p)
        mine = np.random.default_rng((s, n))
        got = _draw_atoms(cdf, n, mine)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (s, n)
        assert mine.random() == rng.random(), (s, n)  # the stream goes on alike
    assert set(np.flatnonzero(p == 0.0)).isdisjoint(_draw_atoms(cdf, 20_000, 1).tolist())


def test_sampled_lift_and_subnetwork_take_numpys_draws():
    rng = np.random.default_rng(29)
    n = 40
    probs = rng.uniform(0.0, 1.0, n)
    probs[::7] = 0.0
    e = NeuronEnsemble(probs / probs.sum(), rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), 0.5)
    for seed in range(5):
        draws = np.random.default_rng(seed)
        idx = draws.choice(n, size=300, p=e.probs)
        t = draws.standard_cauchy(300)
        lifted = lift_ensemble(e, n_samples=300, seed=seed)
        w1 = e.w[idx, 0]
        assert lifted.w.tobytes() == np.column_stack([w1, t * w1]).tobytes()
        assert lifted.b.tobytes() == e.b[idx].tobytes()
        sub = sample_subnetwork(e, 300, seed=seed)
        assert sub.w.tobytes() == e.w[np.random.default_rng(seed).choice(n, size=300, p=e.probs)].tobytes()


# --- serialization -----------------------------------------------------------------


def test_save_load_round_trip_bitfaithful(tmp_path):
    rng = np.random.default_rng(23)
    n = 37
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    e = NeuronEnsemble(probs, rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=n), 1.5)
    path = tmp_path / "e.txt"
    save_ensemble(e, path)
    e2 = load_ensemble(path)
    assert e2.alpha == e.alpha and e2.dim == e.dim
    assert np.array_equal(e2.probs, e.probs)
    assert np.array_equal(e2.a, e.a)
    assert np.array_equal(e2.w, e.w)
    assert np.array_equal(e2.b, e.b)
    # and the serialized text itself is stable
    save_ensemble(e2, tmp_path / "e2.txt")
    assert (tmp_path / "e.txt").read_bytes() == (tmp_path / "e2.txt").read_bytes()


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("#not-an-ensemble\n1 1 1 0\n")
    with pytest.raises(ValidationError):
        load_ensemble(p)
    p.write_text("#barron-ensemble v1 alpha=1 dim=1\n1 1 1\n")
    with pytest.raises(ValidationError):
        load_ensemble(p)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072009e-308]
)


def _float_array(data, size, elements=_FINITE):
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(1, 6), data=st.data())
def test_save_load_round_trip_is_bit_exact(dim, n, data):
    raw = _float_array(data, n, st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324]))
    raw[0] = 1.0  # a positive total
    alpha = data.draw(st.floats(0.0, 8.0) | st.sampled_from([-0.0, 5e-324]))
    e = NeuronEnsemble(
        raw / raw.sum(), _float_array(data, n), _float_array(data, n * dim).reshape(n, dim),
        _float_array(data, n), alpha,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.txt"
        save_ensemble(e, path)
        e2 = load_ensemble(path)
    assert e2.dim == e.dim
    assert np.float64(e2.alpha).tobytes() == np.float64(e.alpha).tobytes()
    for got, want in ((e2.probs, e.probs), (e2.a, e.a), (e2.w, e.w), (e2.b, e.b)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _save_per_row(e, path):
    """The per-row writer `save_ensemble` replaced, kept as the byte-format reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#barron-ensemble v1 alpha={e.alpha:.17g} dim={e.dim}\n")
        for p, a, wrow, b in zip(e.probs, e.a, e.w, e.b):
            cols = [p, a, *wrow, b]
            fh.write(" ".join(f"{c:.17g}" for c in cols) + "\n")


_BLOCK = 8 * ensembles_module._ENCODE_ROWS  # the sizes below straddle pass edges
_EDGES = [-0.0, 5e-324, -5e-324, 1.5e-310, 1.797e308, -1.797e308]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_save_bytes_match_per_row_writer(tmp_path, dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    cols = rng.normal(size=(n, 2 + dim)) * 10.0 ** rng.integers(-300, 300, size=(n, 2 + dim))
    flat = cols.reshape(-1)  # a, w, b of every row: edge values spread over all blocks
    at = np.linspace(0, flat.size - 1, min(flat.size, 4 * len(_EDGES))).astype(int)
    flat[at] = np.resize(_EDGES, at.size)
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    probs[0] += probs[1:3].sum()  # their mass moves to row 0 before they become edge values
    probs[1:3] = [-0.0, 5e-324][: n - 1]
    e = NeuronEnsemble(probs, cols[:, 0], cols[:, 1 : 1 + dim], cols[:, 1 + dim], 0.75)
    save_ensemble(e, tmp_path / "new.txt")
    _save_per_row(e, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
    e2 = load_ensemble(tmp_path / "new.txt")
    for got, want in ((e2.probs, e.probs), (e2.a, e.a), (e2.w, e.w), (e2.b, e.b)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _printf_17g(block):
    """What `_encode_17g` must write: Python's "%.17g" per entry, one line per row."""
    return "".join(" ".join("%.17g" % x for x in row) + "\n" for row in block.tolist()).encode()


def _ties():
    """Odd multiples of 2^-j whose exact decimal expansion has 18 digits ending in 5:
    a 17-digit round-half-even tie."""
    out = []
    for j in range(1, 80):
        for m in range(1, 200, 2):
            digits = format(Decimal(m * 2.0**-j), "f").replace(".", "").strip("0")
            if len(digits) == 18 and digits.endswith("5"):
                out.append(m * 2.0**-j)
    return out


def _fixed_rows():
    tens = [float(f"1e{q}") for q in range(-320, 309)]
    below = np.nextafter(tens, 0.0)
    above = np.nextafter(tens, np.inf)
    twos = [2.0**q for q in range(-1074, 1024)]
    special = [0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([tens, below, above, twos, _ties(), special])
    values = np.concatenate([values, -values])
    return np.resize(values, (values.size + 4) // 5 * 5).reshape(-1, 5)


_FIXED_ROWS = _fixed_rows()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    cols=st.integers(1, 5),
)
def test_encoder_matches_printf_on_any_finite_double(bits, floats, cols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], floats])
    block = np.resize(values, (values.size + cols - 1) // cols * cols).reshape(-1, cols)
    assert ensembles_module._encode_17g(block) == _printf_17g(block)


def test_encoder_matches_printf_on_fixed_rows():
    # powers of ten with both neighbours (log10 misses k just below many of them),
    # every power of two, 17-digit ties, zeros, subnormals and the extremes
    assert ensembles_module._encode_17g(_FIXED_ROWS) == _printf_17g(_FIXED_ROWS)
    ties = np.array(_ties())
    assert ties.size >= 100 and 2.0**-25 in ties


@pytest.mark.parametrize("ulps", [-1, 1])
def test_encoder_matches_printf_when_log10_is_one_ulp_off(monkeypatch, ulps):
    # a libm whose log10 is off by an ulp: too low leaves the scaled value at 10^17
    # (refused) or rounds it up to 10^17 (a carry into the next exponent)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), ulps * np.inf))
    assert ensembles_module._encode_17g(_FIXED_ROWS) == _printf_17g(_FIXED_ROWS)


def _benchmark_line():
    """A seeded 400-atom line shaped like the benchmark's; lifted on 201 nodes it is its biggest file."""
    rng = np.random.default_rng(400)
    probs = rng.uniform(0.5, 1.5, 400)
    return NeuronEnsemble(probs / probs.sum(), rng.uniform(0.5, 1.5, 400) * rng.choice([-1.0, 1.0], 400),
                          rng.uniform(-2.0, 2.0, 400), rng.uniform(-1.0, 1.0, 400), 0.5)


def test_lift_file_through_cli_matches_per_row_writer(tmp_path):
    save_ensemble(_benchmark_line(), tmp_path / "line.txt")
    argv = ["ensemble", "lift", "--in", str(tmp_path / "line.txt"), "--out", str(tmp_path / "plane.txt")]
    assert cli_run([*argv, "--nodes", "201"]) == 0
    plane = load_ensemble(tmp_path / "plane.txt")
    assert len(plane) == 400 * 201
    _save_per_row(plane, tmp_path / "per_row.txt")
    assert (tmp_path / "plane.txt").read_bytes() == (tmp_path / "per_row.txt").read_bytes()


def test_load_skips_blank_lines_whitespace_and_crlf(tmp_path):
    p = tmp_path / "e.txt"
    p.write_bytes(b"#barron-ensemble v1 alpha=0.5 dim=1\r\n\r\n  0.25 1 2 3 \r\n\t\n0.75\t-1 -2 -3\r\n\n")
    e = load_ensemble(p)
    assert e.alpha == 0.5 and e.dim == 1
    assert e.probs.tolist() == [0.25, 0.75] and e.a.tolist() == [1.0, -1.0]
    assert e.w[:, 0].tolist() == [2.0, -2.0] and e.b.tolist() == [3.0, -3.0]


@pytest.mark.parametrize(
    "body,reason",
    [
        ("1 1 abc 0\n", "abc"),
        ("0.5 1 1 0\n0.5 1 1\n", "number of columns changed"),
        ("1 1 1 0 # comment\n", "#"),
        ("# comment\n1 1 1 0\n", "#"),
        ("1 1 1\n", "expected 4 columns, got 3"),
        ("", "has no neurons"),
        ("\n  \n\t\n", "has no neurons"),
        ("nan 1 1 0\n", "non-finite"),
        ("1 1 1-2 0\n", "'1-2'"),
        ("1 1 0x1p3 0\n", "'0x1p3'"),
        ("1 1 1e5e5 0\n", "'1e5e5'"),
        ("1 1 --1 0\n", "'--1'"),
        ("1 1 inf 0\n", "non-finite"),
        ("1 1 1e999 0\n", "non-finite"),  # strict layout: the long double overflows the cast
        ("0.5 1 1 0\n0.5 1 1e5e5\n", "number of columns changed"),
    ],
)
def test_load_malformed_body_names_the_file(tmp_path, body, reason):
    p = tmp_path / "bad.txt"
    p.write_text("#barron-ensemble v1 alpha=1 dim=1\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
        with pytest.raises(ValidationError, match=reason) as info:
            load_ensemble(p)
    assert str(info.value).startswith(f"{p}: ") and "usecols" not in str(info.value)


@pytest.mark.parametrize(
    "content,reason",
    [
        (b"#not-an-ensemble\n1 1 1 0\n", "bad ensemble header"),
        (b"#barron-ensemble v1 alpha=abc dim=1\n1 1 1 0\n", "abc"),
        (b"#barron-ensemble v1 alpha=1 dim=1\n1 1 \xff 0\n", "utf-8"),
    ],
)
def test_load_malformed_header_or_bytes_names_the_file(tmp_path, content, reason):
    p = tmp_path / "bad.txt"
    p.write_bytes(content)
    with pytest.raises(ValidationError, match=reason) as info:
        load_ensemble(p)
    assert str(info.value).startswith(f"{p}: ")


# --- the strict reader of the writer's layout ------------------------------------------


@pytest.mark.parametrize(
    "body,strict",
    [
        (b"0.25 1 2 3\n0.75 -1 -2 -3\n", True),
        (b"0.25 1 2 3\n0.75  -1 -2 -3\n", False),  # a double space
        (b"0.25 1 2 3 \n0.75 -1 -2 -3\n", False),  # a trailing space
        (b" 0.25 1 2 3\n0.75 -1 -2 -3\n", False),  # a leading space
        (b"0.25\t1 2 3\n0.75 -1 -2 -3\n", False),
        (b"0.25 1 2 3\n0.75 -1 -2 -3", False),  # no final newline
        (b"0.25 1 2 3\r\n0.75 -1 -2 -3\r\n", False),
        (b"0.25 1 2 3\n\n0.75 -1 -2 -3\n", False),
        (b"0.25 1 2 3\n0.75 -1 -2 -3E0\n", False),
    ],
    ids=["canonical", "double-space", "trailing-space", "leading-space", "tab", "no-final-newline", "crlf",
         "blank-line", "capital-e"],
)
def test_load_takes_the_strict_path_only_in_the_writer_layout(tmp_path, body, strict):
    p = tmp_path / "e.txt"
    p.write_bytes(b"#barron-ensemble v1 alpha=0.5 dim=1\n" + body)
    assert (ensembles_module._read_layout(p) is not None) == strict
    e = load_ensemble(p)
    assert e.probs.tolist() == [0.25, 0.75] and e.a.tolist() == [1.0, -1.0]
    assert e.w[:, 0].tolist() == [2.0, -2.0] and e.b.tolist() == [3.0, -3.0]


def _same_columns(got, want):
    return all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((got.probs, want.probs), (got.a, want.a), (got.w, want.w), (got.b, want.b))
    )


def test_fixed_rows_save_and_load_through_the_strict_path(tmp_path):
    flat = _FIXED_ROWS.ravel()
    rows = np.resize(flat, (flat.size + 3) // 4 * 4).reshape(-1, 4)  # a, w_1, w_2, b
    n = rows.shape[0]
    e = NeuronEnsemble(np.full(n, 1.0 / n), rows[:, 0], rows[:, 1:3], rows[:, 3], 0.5)
    save_ensemble(e, tmp_path / "e.txt")
    assert ensembles_module._read_layout(tmp_path / "e.txt") is not None
    assert _same_columns(load_ensemble(tmp_path / "e.txt"), e)


_ROW_BYTES = b"0.0001220703125 1.000000000 1 0\n"  # 2^-13, so 2^13 rows sum to 1


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_strict_path_straddles_the_read_block(tmp_path, extra):
    # 2^13 rows of 32 bytes fill one read exactly; `extra` moves the end of the last
    # line to just before, onto or just past the block's end
    assert 2**13 * len(_ROW_BYTES) == ensembles_module._READ_BYTES
    last = _ROW_BYTES.replace(b"1.000000000", b"1." + b"0" * (9 + extra))
    p = tmp_path / "e.txt"
    p.write_bytes(b"#barron-ensemble v1 alpha=0.5 dim=1\n" + _ROW_BYTES * (2**13 - 1) + last)
    assert ensembles_module._read_layout(p) is not None
    e = load_ensemble(p)
    assert len(e) == 2**13 and e.probs.sum() == 1.0 and not np.any(e.a - 1.0)


@pytest.mark.parametrize("block", [1, 7, 100, 101, 4096])
def test_strict_path_reads_any_block_size(tmp_path, monkeypatch, block):
    # a block boundary anywhere in a line, on a line end, or a line longer than a block
    rng = np.random.default_rng(block)
    probs = rng.uniform(0.1, 1.0, 300)
    e = NeuronEnsemble(probs / probs.sum(), rng.normal(size=300), rng.normal(size=(300, 2)),
                       rng.normal(size=300), 0.5)
    save_ensemble(e, tmp_path / "e.txt")
    monkeypatch.setattr(ensembles_module, "_READ_BYTES", block)
    assert ensembles_module._read_layout(tmp_path / "e.txt") is not None
    assert _same_columns(load_ensemble(tmp_path / "e.txt"), e)


def test_canonical_overflowing_token_exits_2_without_a_warning(tmp_path, capsys):
    p = tmp_path / "e.txt"
    p.write_bytes(b"#barron-ensemble v1 alpha=0.5 dim=1\n1 1 1e999 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the long double's cast to inf must not warn
        code = cli_run(["ensemble", "extend", "--in", str(p), "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert capsys.readouterr().err == f"harmlab: invalid input: {p}: w contains non-finite entries\n"
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("token", ["1-2", "1e5e5", "--1"])
def test_decode_block_refuses_a_glued_token_in_the_writer_layout(token):
    # the separators are the writer's, so the parse itself must refuse the token
    assert ensembles_module._decode_block(f"1 1 {token} 0\n".encode(), 4) is None


@pytest.mark.parametrize("token,parts", [("1-2", "1 -2"), ("1.2.3", "1.2 .3")])
def test_decode_block_refuses_a_glued_token_that_numpy_splits(monkeypatch, token, parts):
    # a numpy that reads the token as two numbers gives a value too many; the count
    # of values refuses the block
    fromstring = np.fromstring

    def splitting(text, **kw):
        return fromstring(text.replace(token.encode(), parts.encode()), **kw)

    monkeypatch.setattr(np, "fromstring", splitting)
    assert ensembles_module._decode_block(f"1 1 {token} 0\n".encode(), 4) is None
    assert ensembles_module._decode_block(b"1 1 1 0\n", 4).tolist() == [[1.0, 1.0, 1.0, 0.0]]


def _decode_tokens(tokens, ncols=4):
    """What the strict reader gives for `tokens` laid out ncols a line, padded with 0."""
    padded = list(tokens) + ["0"] * (-len(tokens) % ncols)
    text = "".join(" ".join(padded[i : i + ncols]) + "\n" for i in range(0, len(padded), ncols))
    out = ensembles_module._decode_block(text.encode(), ncols)
    assert out is not None, "a block in the writer's layout was refused"
    return out.ravel()[: len(tokens)]


@st.composite
def _decimal_tokens(draw):
    """A sign, 1-25 digits with the point anywhere or nowhere, an optional e[+-]NNN."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.none() | st.integers(0, len(digits)))
    mantissa = digits if point is None else digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 400)))
    tail = "" if exponent is None else f"e{exponent[0]}{exponent[1]:0{draw(st.integers(1, 3))}d}"
    return draw(st.sampled_from(["", "+", "-"])) + mantissa + tail


def _exact(x):
    return Decimal(float(x))


@st.composite
def _midpoint_tokens(draw):
    """The exact decimal midway between a finite double and its upper neighbour, or a
    tiny step (10^-25 of their gap) to either side of it: where two roundings can
    differ from one. Half of them lie just below a power of two, where the gap halves."""
    below_power = st.integers(-1073, 1023).map(lambda k: np.nextafter(2.0**k, 0.0))
    x = draw(st.integers(0, 0x7FEFFFFFFFFFFFFE).map(lambda bits: np.uint64(bits).view(np.float64)) | below_power)
    lo, hi = _exact(x), _exact(np.nextafter(x, np.inf))
    with localcontext() as ctx:
        ctx.prec = 1200  # exact: a double has at most 767 significant digits
        mid = (lo + hi) / 2 + (hi - lo) * draw(st.sampled_from([0, 1, -1])) * Decimal("1e-25")
    return draw(st.sampled_from(["", "-"])) + format(mid, "e")


def _edge_tokens():
    """Zeros, subnormals and their ties, and the overflow threshold, with tiny steps either side."""
    with localcontext() as ctx:
        ctx.prec = 1200
        half_least = Decimal(2) ** -1075  # halfway from 0 to the least subnormal: rounds to 0
        threshold = _exact(np.finfo(float).max) + Decimal(2) ** 970  # rounds to inf
        exact = [half_least, half_least * Decimal("1.000000000000000000001"), 3 * half_least,
                 threshold, threshold - 1, threshold + 1]
        return [format(x, "e") for x in exact] + [
            "-0", "0", "+0.0e-5", "5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
            "2.2250738585072014e-308", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
            "1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623159e308", "1e309", "-1e999",
            "1e4933",
        ]


_EDGE_TOKENS = _edge_tokens()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(_decimal_tokens() | _midpoint_tokens() | st.sampled_from(_EDGE_TOKENS), min_size=1, max_size=40)
)
def test_strict_reader_rounds_like_float(tokens):
    want = np.array([float(t) for t in tokens])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is float()'s to decide, silently
        got = _decode_tokens(tokens)
    assert got.tobytes() == want.tobytes()


def test_strict_reader_takes_every_edge_token():
    want = np.array([float(t) for t in _EDGE_TOKENS])
    assert _decode_tokens(_EDGE_TOKENS).tobytes() == want.tobytes()


def test_load_peak_memory_of_the_benchmark_lift(tmp_path):
    # joined column by column: no whole-file 2D array on top of the columns
    plane = lift_ensemble(_benchmark_line(), t_rule=cauchy_tangent_rule(201))
    save_ensemble(plane, tmp_path / "plane.txt")
    tracemalloc.start()
    try:
        e = load_ensemble(tmp_path / "plane.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_columns(e, plane)
    columns = sum(x.nbytes for x in (e.probs, e.a, e.w, e.b))
    assert peak < 2 * columns + ensembles_module._READ_BYTES


# --- regularity bounds controlled by the cost --------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_holder_seminorm_bound(alpha):
    # |f^(k)(x) - f^(k)(z)| <= prod_{i=1..k}(i+gamma) * cost * |x-z|^gamma
    k = math.ceil(alpha) - 1 if alpha == int(alpha) else math.floor(alpha)
    gamma = alpha - k
    rng = np.random.default_rng(29)
    n = 40
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    e = NeuronEnsemble(
        probs, rng.normal(size=n), rng.uniform(-2, 2, (n, 1)), rng.uniform(-1, 1, n), alpha
    )
    cost = barron_cost(e)
    const = math.prod(i + gamma for i in range(1, k + 1))
    xs = rng.uniform(-1, 1, 1000)
    zs = rng.uniform(-1, 1, 1000)
    fx = ensemble_derivatives(e, xs, k)[0]
    fz = ensemble_derivatives(e, zs, k)[0]
    quot = np.abs(fx - fz) / np.abs(xs - zs) ** gamma
    assert np.max(quot) <= const * cost * (1 + 1e-9)


def test_lipschitz_bound_integer_alpha():
    # alpha = k: the (k-1)-th derivative is Lipschitz with constant <= k! * cost
    k = 2
    rng = np.random.default_rng(31)
    n = 30
    probs = rng.uniform(0.1, 1, n)
    probs /= probs.sum()
    e = NeuronEnsemble(
        probs, rng.normal(size=n), rng.uniform(-2, 2, (n, 1)), rng.uniform(-1, 1, n), float(k)
    )
    cost = barron_cost(e)
    xs = rng.uniform(-1, 1, 1000)
    zs = rng.uniform(-1, 1, 1000)
    fx = ensemble_derivatives(e, xs, k - 1)[0]
    fz = ensemble_derivatives(e, zs, k - 1)[0]
    quot = np.abs(fx - fz) / np.abs(xs - zs)
    assert np.max(quot) <= math.factorial(k) * cost * (1 + 1e-9)


def test_lift_matches_kernel_solver_for_mixture_data():
    # three routes to the same harmonic extension: Cauchy-lift ensemble,
    # kernel quadrature on the mixture boundary data, and (componentwise)
    # the kernel solver on each neuron
    from harmlab import BoundaryFunction, solve_at
    from harmlab.ensembles import ensemble_eval_many

    alpha = 0.3
    e1 = NeuronEnsemble(
        [0.5, 0.3, 0.2], [1.0, -2.0, 0.7], [[1.0], [0.5], [-1.3]], [0.0, 0.4, -0.2], alpha
    )
    lifted = lift_ensemble(e1, t_rule=cauchy_graded_rule(20_000))
    g = BoundaryFunction.custom(
        lambda s: ensemble_eval_many(e1, s), growth_alpha=alpha,
        kinks=(0.0, -0.8, -0.2 / 1.3),
    )
    rng = np.random.default_rng(97)
    for _ in range(8):
        p = HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.2, 2))
        via_lift = ensemble_eval(lifted, [p.x, p.y])
        via_kernel = solve_at(g, p, tol=1e-10)
        assert via_lift == pytest.approx(via_kernel, abs=2e-5)


# --- one sigma_alpha, one evaluation kernel ------------------------------------------

# No special input may warn; underflow of a tiny power to 0 is fine.
_RAISE = dict(divide="raise", over="raise", invalid="raise")


def test_activation_special_values():
    z = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5])
    for alpha in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0):
        with np.errstate(**_RAISE):
            got = activation(z, alpha)
        want = [(1.0 if alpha == 0.0 else zi**alpha) if zi > 0.0 else 0.0 for zi in z.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert not np.any(np.signbit(got))  # -0.0 and -inf give +0.0
    # negative powers (derivatives above the activation power): 0 off the support
    off = np.array([np.nan, -np.inf, 0.0, -0.0, -5e-324, -1.5])
    on = np.array([np.inf, 0.25, 4.0])
    for alpha in (-0.5, -1.0, -1.5):
        with np.errstate(**_RAISE):
            got_off = activation(off, alpha)
            got_on = activation(on, alpha)
        assert got_off.tobytes() == np.zeros(off.size).tobytes()
        np.testing.assert_allclose(got_on, [zi**alpha for zi in on.tolist()], rtol=1e-15, atol=0.0)


# component order of ensemble_derivatives for each (dim, order)
_COMPONENTS = {
    (1, 0): [()], (1, 1): [(0,)], (1, 2): [(0, 0)],
    (2, 0): [()], (2, 1): [(0,), (1,)], (2, 2): [(0, 0), (0, 1), (1, 1)],
}


def _reference_derivative(e, x, comp):
    """Neuron by neuron: sum p a prod_{j<m}(alpha-j) sigma_(alpha-m)(w.x+b) prod_{k in comp} w_k.

    Returns the sum and the sum of the absolute terms (the scale of its rounding).
    """
    order = len(comp)
    beta = e.alpha - order
    coef = 1.0
    for j in range(order):
        coef *= e.alpha - j
    total = scale = 0.0
    for p, a, w, b in zip(e.probs.tolist(), e.a.tolist(), e.w.tolist(), e.b.tolist()):
        z = sum(wk * xk for wk, xk in zip(w, x)) + b
        sigma = 0.0 if not z > 0.0 else (1.0 if beta == 0.0 else z**beta)
        term = p * a * coef * sigma
        for k in comp:
            term *= w[k]
        total += term
        scale += abs(term)
    return total, scale


# quarter-integers: products and sums are exact, so a kink is an exact zero
_DYADIC = st.integers(-8, 8).map(lambda k: k / 4.0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5]),
    n=st.integers(1, 5),
    data=st.data(),
)
def test_evaluators_match_per_neuron_reference(dim, alpha, n, data):
    w = _float_array(data, n * dim, _DYADIC).reshape(n, dim)
    b = _float_array(data, n, _DYADIC)
    xs = _float_array(data, n * dim, _DYADIC).reshape(n, dim)
    for i, on_kink in enumerate(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        if on_kink:  # point i on neuron i's kink: w_i . x_i + b_i = 0 exactly
            b[i] = -float(w[i] @ xs[i])
    weights = _float_array(data, n, st.integers(1, 4))
    e = NeuronEnsemble(weights / weights.sum(), _float_array(data, n, _DYADIC), w, b, alpha)
    pts = xs[:, 0] if dim == 1 else xs

    with np.errstate(**_RAISE):
        for order in range(3):
            fields = ensemble_derivatives(e, pts, order)
            assert len(fields) == len(_COMPONENTS[(dim, order)])
            for field, comp in zip(fields, _COMPONENTS[(dim, order)]):
                assert field.shape == (n,)
                for x, value in zip(xs.tolist(), field.tolist()):
                    want, scale = _reference_derivative(e, x, comp)
                    assert abs(value - want) <= 1e-13 * scale, (order, comp, x)
        many = ensemble_eval_many(e, pts)
        assert many.shape == (n,)
        for x, value in zip(xs.tolist(), many.tolist()):
            want, scale = _reference_derivative(e, x, ())
            assert abs(value - want) <= 1e-13 * scale
            assert abs(ensemble_eval(e, x) - want) <= 1e-13 * scale


# what _reference_derivative reads of an ensemble, with probs free to be signed
_Atoms = collections.namedtuple("_Atoms", "probs a w b alpha")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5]),
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_weighted_derivatives_match_single_column_calls(dim, alpha, n, k, data):
    w = _float_array(data, n * dim, _DYADIC).reshape(n, dim)
    b = _float_array(data, n, _DYADIC)
    xs = _float_array(data, n * dim, _DYADIC).reshape(n, dim)
    probs = _float_array(data, n, st.integers(1, 4))
    e = NeuronEnsemble(probs / probs.sum(), _float_array(data, n, _DYADIC), w, b, alpha)
    # signed columns, the first one the ensemble's own probabilities
    weights = np.column_stack([e.probs, _float_array(data, n * k, _DYADIC).reshape(n, k)])
    pts = xs[:, 0] if dim == 1 else xs

    with np.errstate(**_RAISE):
        for order in range(3):
            fields = ensemble_derivatives(e, pts, order, weights=weights)
            default = ensemble_derivatives(e, pts, order)
            for c, (field, comp) in enumerate(zip(fields, _COMPONENTS[(dim, order)])):
                assert field.shape == (n, k + 1)
                for j in range(k + 1):
                    single = ensemble_derivatives(e, pts, order, weights=weights[:, [j]])[c][:, 0]
                    # column 0 holds the probabilities: the default call's values
                    plain = default[c] if j == 0 else single
                    for x, got, one, base in zip(xs.tolist(), field[:, j].tolist(),
                                                 single.tolist(), plain.tolist()):
                        want, scale = _reference_derivative(
                            _Atoms(weights[:, j], e.a, e.w, e.b, alpha), x, comp)
                        assert abs(got - one) <= 1e-12 * scale, (order, comp, j)
                        assert abs(got - base) <= 1e-12 * scale, (order, comp, j)
                        assert abs(got - want) <= 1e-12 * scale, (order, comp, j)


def test_weighted_derivatives_reject_bad_shapes():
    e = NeuronEnsemble(np.full(3, 1.0 / 3.0), np.ones(3), [0.5, -1.0, 2.0], np.zeros(3), 1.5)
    for bad in (np.ones(3), np.ones((2, 2)), np.ones((3, 1, 1))):
        with pytest.raises(ValidationError, match="weights must have shape"):
            ensemble_derivatives(e, np.linspace(-1.0, 1.0, 4), 1, weights=bad)
    assert ensemble_derivatives(e, np.linspace(-1.0, 1.0, 4), 1, weights=np.ones((3, 2)))[0].shape == (4, 2)


# --- one buffer per evaluation block --------------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.8, 2.0, 2.5, 3.0, -0.2, -0.5, -1.0, -1.5])
def test_activation_in_place_matches_a_new_array(alpha):
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e300, 0.3]
    z = np.concatenate([special, np.random.default_rng(5).normal(size=40)]).reshape(4, 13)
    with np.errstate(over="ignore"):  # 5e-324 ** -1 and 1e300 ** 2.5 overflow to inf on every path
        want = ensemble_reference.activation(z, alpha)
        fresh = activation(z.copy(), alpha)
        buf = z.copy()
        in_place = activation(buf, alpha, out=buf)
        other = np.full_like(z, 7.0)
        into_other = activation(z, alpha, out=other)
    assert in_place is buf and into_other is other
    assert in_place.tobytes() == fresh.tobytes() == into_other.tobytes() == want.tobytes()


def _layout(weights, kind):
    """None, the (n, k) weights row-major, or column-major as a transposed draw block."""
    if kind is None:
        return None
    return weights if kind == "C" else np.asfortranarray(weights)


@pytest.mark.parametrize("chunk", [None, 40], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("weights", [None, "C", "F"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.8, 2.5])
@pytest.mark.parametrize("dim", [1, 2])
def test_derivatives_match_the_reference_bit_for_bit(monkeypatch, dim, alpha, weights, chunk):
    rng = np.random.default_rng(31)
    n, m = 23, 11
    # dyadic atoms and points put some points on kinks exactly; the rest are generic
    w = np.where(rng.random((n, dim)) < 0.5, rng.integers(-8, 9, (n, dim)) / 4.0, rng.normal(size=(n, dim)))
    b = np.where(rng.random(n) < 0.5, rng.integers(-8, 9, n) / 4.0, rng.normal(size=n))
    pts = np.concatenate([rng.integers(-4, 5, (m // 2, dim)) / 4.0, rng.uniform(-1.0, 1.0, (m - m // 2, dim))])
    pts = pts[:, 0] if dim == 1 else pts
    probs = rng.uniform(0.5, 1.5, n)
    e = NeuronEnsemble(probs / probs.sum(), rng.normal(size=n), w, b, alpha)
    cols = _layout(rng.normal(size=(n, 3)), weights)
    if chunk is not None:
        monkeypatch.setattr(ensembles_module, "_EVAL_CHUNK", chunk)  # 40 // 11: blocks of 3 atoms
    for order in range(3):
        got = ensemble_derivatives(e, pts, order, weights=cols)
        want = ensemble_reference.ensemble_derivatives(e, pts, order, weights=cols)
        assert [g.tobytes() for g in got] == [v.tobytes() for v in want], order


def _large_target():
    """20k atoms, 257 points and 40 weight columns, with the bytes of one
    evaluation block and of its coefficients."""
    rng = np.random.default_rng(37)
    n, m, k = 20_000, 257, 40
    probs = rng.uniform(0.5, 1.5, n)
    e = NeuronEnsemble(probs / probs.sum(), rng.normal(size=n), rng.uniform(-2.0, 2.0, n),
                       rng.uniform(-1.0, 1.0, n), 2.5)
    step = ensembles_module._EVAL_CHUNK // m
    return e, np.linspace(-1.0, 1.0, m), rng.normal(size=(n, k)), step * m * 8, step * k * 8


def _traced_peak(call):
    """call() and its tracemalloc peak above what was held before it."""
    tracing = tracemalloc.is_tracing()  # under `python -X tracemalloc` it already is
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("order", [0, 2])
def test_derivatives_hold_one_block_at_a_time(order):
    """The peak is one evaluation block with its coefficients, not the whole
    target's coefficients besides."""
    e, pts, weights, block, coefs = _large_target()
    _, peak = _traced_peak(lambda: ensemble_derivatives(e, pts, order, weights=weights))
    assert peak < 1.5 * (block + coefs), (peak, block, coefs)


@pytest.mark.parametrize("weighted", [True, False])
def test_order_zero_holds_one_coefficient_array_per_block(weighted):
    """At order 0 the coefficients p_i a_i (or weights[i] a_i) are the product
    itself: no second coefficient-sized array besides them and the block, and
    the same bytes as the reference, which multiplies by the empty product 1."""
    e, pts, weights, block, coefs = _large_target()
    weights = weights if weighted else None
    got, peak = _traced_peak(lambda: ensemble_derivatives(e, pts, 0, weights=weights))
    if weighted:  # two coefficient arrays would be block + 2 coefs
        assert peak < block + 1.5 * coefs, (peak, block, coefs)
    want = ensemble_reference.ensemble_derivatives(e, pts, 0, weights=weights)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("rule", [cauchy_tangent_rule, cauchy_midpoint_rule, cauchy_graded_rule])
@pytest.mark.parametrize("n", [0, -3])
def test_cauchy_rules_refuse_fewer_than_one_node(rule, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numpy arithmetic
        with pytest.raises(ValidationError, match=f"n must be >= 1, got {n}"):
            rule(n)
        assert rule(1).weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("rule", [cauchy_tangent_rule, cauchy_midpoint_rule, cauchy_graded_rule])
@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), True])
def test_cauchy_rules_refuse_a_node_count_that_is_not_an_integer(rule, n):
    # 2.5 used to give a rule of 2 nodes without a word
    with pytest.raises(ValidationError, match=re.escape(f"n must be an integer, got {n!r}")):
        rule(n)
    assert rule(np.int64(3)).weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), True])
def test_neuron_counts_refuse_a_count_that_is_not_an_integer(n):
    # sample_subnetwork(e, 2.5) used to return 2 neurons without a word
    e = NeuronEnsemble(np.full(4, 0.25), np.ones(4), np.linspace(-1.0, 1.0, 4), np.zeros(4), 0.5)
    with pytest.raises(ValidationError, match=re.escape(f"n must be an integer, got {n!r}")):
        sample_subnetwork(e, n)
    with pytest.raises(ValidationError, match=re.escape(f"n_samples must be an integer, got {n!r}")):
        lift_ensemble(e, n_samples=n)
    assert len(sample_subnetwork(e, np.int64(3), seed=1)) == 3


@pytest.mark.parametrize("rule", [cauchy_midpoint_rule, cauchy_graded_rule])
def test_dense_cauchy_rules_stop_at_max_neurons(monkeypatch, rule):
    # refused before numpy allocates: the graded rule peaks at 45 MB per 10^6 nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^n = 10000001 exceeds the limit of 10000000 neurons$"):
            rule(ensembles_module.MAX_NEURONS + 1)
        monkeypatch.setattr(ensembles_module, "MAX_NEURONS", 50)
        assert rule(50).nodes.size == 50
        with pytest.raises(ValidationError, match="^n = 51 exceeds the limit of 50 neurons$"):
            rule(51)


def test_tangent_rule_stops_at_the_gauss_legendre_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cauchy_tangent_rule(2000).nodes.size == 2000
        with pytest.raises(ValidationError, match="^n = 2001 too large for Gauss-Legendre node computation; "
                                                  "use cauchy_midpoint_rule or cauchy_graded_rule for dense lifts$"):
            cauchy_tangent_rule(2001)


@pytest.mark.parametrize("order,reason", [
    (1.0, "order must be an integer, got 1.0"),
    (-1, "order must be >= 0, got -1"),
    (3, "order must be 0, 1 or 2, got 3"),
])
def test_ensemble_derivatives_refuses_an_order_outside_0_1_2(order, reason):
    # 1.0 used to pass the choice test (1.0 in (0, 1, 2)) and fail in range
    e = NeuronEnsemble([1.0], [1.0], [[1.0]], [0.0], 2.5)
    with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
        ensemble_derivatives(e, np.array([0.5]), order)
    assert ensemble_derivatives(e, np.array([0.5]), np.int64(1))[0].tolist() == [2.5 * 0.5**1.5]


def test_neuron_count_limit(monkeypatch):
    e = NeuronEnsemble(np.full(10, 0.1), np.ones(10), np.linspace(-1.0, 1.0, 10), np.zeros(10), 0.5)
    monkeypatch.setattr(ensembles_module, "MAX_NEURONS", 50)
    assert len(sample_subnetwork(e, 50, seed=1)) == 50
    assert len(lift_ensemble(e, n_samples=50, seed=1)) == 50
    assert len(lift_ensemble(e, t_rule=cauchy_midpoint_rule(5))) == 50
    with pytest.raises(ValidationError, match="exceeds the limit"):
        sample_subnetwork(e, 51)
    with pytest.raises(ValidationError, match="exceeds the limit"):
        lift_ensemble(e, n_samples=51)
    with pytest.raises(ValidationError, match="atoms x nodes"):
        lift_ensemble(e, t_rule=cauchy_midpoint_rule(6))
