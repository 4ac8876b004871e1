"""Reference implementations for the greedy quadrature tests.

`integrate_greedy` is the one-lane greedy Fejer-2 loop that
`numerics.integrate_adaptive` ran before it evaluated ahead along endpoint
chains: it calls f once per bisection, on the two halves only. Values,
budget failures and non-finite refusals of the look-ahead must match it bit
for bit. `solve_greedy` is `poisson.solve_at` with every piece of the kernel
integral, vanishing ones included, integrated by `integrate_greedy`.
"""

import heapq
import math

import numpy as np

from harmlab import poisson
from harmlab.errors import MaxSubdivisionsExceeded, NonFiniteSample
from harmlab.numerics import _F2_FINE_NODES, _F2_PAIR_W


def _pairs(f, edges) -> list[list[float]]:
    """[fine, coarse] of every interval (lo, hi) of edges, from one call of f.

    NonFiniteSample for the first interval with a non-finite sample or a sum
    that overflows.
    """
    half = np.array([0.5 * (hi - lo) for lo, hi in edges])[:, None]
    x = np.array([0.5 * (lo + hi) for lo, hi in edges])[:, None] + half * _F2_FINE_NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflowing sums are refused below
        sums = np.add.reduce(y[:, None, :] * _F2_PAIR_W, axis=2) * half
    finite = np.isfinite(y).all(axis=1) & np.isfinite(sums).all(axis=1)
    if not finite.all():
        lo, hi = edges[int(finite.argmin())]
        raise NonFiniteSample(f"integrand non-finite inside ({lo}, {hi})")
    return sums.tolist()


def integrate_greedy(f, a: float, b: float, tol: float, max_intervals: int = 4000) -> float:
    """Greedy Fejer-2 integral of f over (a, b) to tol * (1 + |result|); a < b, tol > 0."""
    [[fine, coarse]] = _pairs(f, [(a, b)])
    err = abs(fine - coarse)
    total, total_err = fine, err
    heap = [(-err, 0, a, b, fine)]
    counter = 1
    while total_err > tol * (1.0 + abs(total)):
        if counter >= max_intervals:
            raise MaxSubdivisionsExceeded(
                f"subdivision budget {max_intervals} exhausted; "
                f"estimate {total!r} with error bound {total_err!r}",
                estimate=total,
                err_bound=total_err,
            )
        neg_err, _, lo, hi, est = heapq.heappop(heap)
        if neg_err >= 0.0:  # every remaining interval is at floating-point resolution
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution; accept as-is
            heapq.heappush(heap, (0.0, counter, lo, hi, est))
            counter += 1
            total_err += neg_err
            continue
        (f1, c1), (f2, c2) = _pairs(f, [(lo, mid), (mid, hi)])
        e1 = abs(f1 - c1)
        e2 = abs(f2 - c2)
        total += (f1 + f2) - est
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, counter, lo, mid, f1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, f2))
        counter += 2
    return total


def solve_greedy(g, p, tol: float) -> float:
    """solve_at(g, p, tol) without skipped pieces or look-ahead: same pieces, tolerance split and failures."""
    m = poisson._tail_power(g, tol)
    pieces = poisson._pieces(g, p.x, p.y, m, tol)
    total = 0.0
    try:
        with np.errstate(all="ignore"):
            for sign, lo, hi, *_ in pieces:
                f = poisson._integrand(g, m, p.x, p.y, sign)
                total += integrate_greedy(f, lo, hi, tol / len(pieces), 20000)
    except (MaxSubdivisionsExceeded, NonFiniteSample) as exc:
        raise poisson._failed_at(exc, p.x, p.y) from exc
    if not math.isfinite(total):
        raise poisson._overflow_at(total, p.x, p.y)
    return total / math.pi
