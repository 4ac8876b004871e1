"""Shared numerics: adaptive quadrature, half-disk norms and straight-line
fits for rate extraction.

The adaptive integrator uses an embedded Fejer-2 pair (7 nodes nested inside
15) with globally greedy bisection, so integrable endpoint singularities are
resolved without ever sampling the endpoints. Integrands must accept numpy
arrays of abscissae. The greedy is written once, as a coroutine per integral
(_greedy). integrate_adaptive drives one with look-ahead: one table holds
the bisections evaluated in advance, along end chains towards a and b (where
callers that split their integrals at kinks put the singularities) and of
the interior intervals whose error is above a share of the tolerance. A
chain is as deep as the decay of the greedy's own error estimates says the
refinement will go: towards a Hoelder-alpha singularity they fall by
2^(1+alpha) a bisection (_greedy's docstring gives the rule). Values are
bit-identical to a greedy without look-ahead. _integrate_lanes drives many
lanes, one call of f per round, without it. Both drivers own how an
integrand fails: they run it with numpy's divide, overflow and invalid-value
warnings off, and a row with a non-finite sample or a sum that overflows
raises NonFiniteSample (_pair_rows judges each row once, by its sums).

Half-disk norms take polar product fields: f(r, phi) returns components, each
a list of (radial table, angular table) pairs, and the field's magnitude is
|V|^2 = sum_c (sum_i R_ci(r) Q_ci(phi))^2. The tensor quadrature then needs no
nr x nphi grid for p = 2 (a QR reduction of each component's angular tables);
other p assemble the field in blocks of radii, and p = inf on the whole grid.
The p = inf grid max of a single product R(r) Q(phi) is max|R| max|Q|.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from .errors import MaxSubdivisionsExceeded, NonFiniteSample, NumericalError, ValidationError

__all__ = [
    "QuadratureRule",
    "GridSpec",
    "RateFit",
    "gauss_legendre_rule",
    "integrate_adaptive",
    "norm_lp_halfdisk",
    "fit_linear",
    "fit_loglog",
    "ray_refined_max",
]


# --- 1D rules -----------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Fixed nodes/weights for a 1D integral, with the declared total measure.

    `measure` is what the weights must sum to (the domain length for plain
    rules, 1.0 for probability-normalized rules obtained through a transform).
    """

    nodes: np.ndarray
    weights: np.ndarray
    measure: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValidationError("nodes and weights must be matching nonempty 1D arrays")
        if np.any(weights <= 0.0):
            raise ValidationError("quadrature weights must be positive")
        if abs(weights.sum() - self.measure) > 1e-12 * max(1.0, abs(self.measure)):
            raise ValidationError(
                f"weights sum to {weights.sum()!r}, expected measure {self.measure!r}"
            )


def _check_count(n, what: str, least: int = 1, most: int | None = None, unit: str = "") -> None:
    """ValidationError unless n is an integer (numpy's included), n >= least and n <= most (if not None).

    The one rule for every count; a float is refused, never truncated, even 3.0, and
    so is a bool, which Python counts as an int."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise ValidationError(f"{what} must be >= {least}, got {n}")
    if most is not None and n > most:
        raise ValidationError(f"{what} = {n} exceeds the limit of {most} {unit}")


# Most nodes of a Gauss-Legendre rule: numpy's leggauss builds an n x n
# companion matrix, 8 n^2 bytes (a tracemalloc peak of 32 MB at n = 2000).
_MAX_GAUSS_NODES = 2000


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b], 1 <= n <= _MAX_GAUSS_NODES."""
    _check_count(n, "n", 1, _MAX_GAUSS_NODES, "nodes")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(mid + half * x, half * w, b - a)


def _fejer2(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer-2 nodes/weights on [-1, 1]: n-1 interior Chebyshev points."""
    j = np.arange(1, n)
    theta = j * np.pi / n
    nodes = np.cos(theta)
    ell = 2 * np.arange(1, n // 2 + 1)[:, None] - 1  # odd integers
    weights = (4.0 / n) * np.sin(theta) * np.sum(np.sin(ell * theta) / ell, axis=0)
    return nodes, weights


_F2_FINE_NODES, _F2_FINE_W = _fejer2(16)  # 15 nodes
# the smallest and largest root nodes on [-1, 1], -+cos(pi/16) up to rounding
_ROOT_EDGES = (float(_F2_FINE_NODES[-1]), float(_F2_FINE_NODES[0]))
_F2_COARSE_W = _fejer2(8)[1]  # 7 nodes = fine nodes[1::2]
_F2_PAIR_W = np.zeros((2, 15))  # rows: fine weights, coarse weights on the fine nodes
_F2_PAIR_W[0] = _F2_FINE_W
_F2_PAIR_W[1, 1::2] = _F2_COARSE_W


# the drivers' error state: a non-finite sample raises NonFiniteSample, and
# numpy need not warn about it as well
_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


def _nonfinite(lo: float, hi: float) -> NonFiniteSample:
    return NonFiniteSample(f"integrand non-finite inside ({lo}, {hi})")


def _pair_rows(f, lo, hi) -> list:
    """[fine, coarse] estimates on the intervals (lo[j], hi[j]); None for a row whose sums are not finite.

    f gets the abscissae as rows of x (shape (n, 15)). A row's sums do not
    depend on the other rows, so an interval's numbers are the same in every
    batch. A non-finite sample gives a non-finite fine sum (its weights are
    positive), so the sums judge the samples too, and a row of finite
    samples whose sum overflows is refused as well.
    """
    lo, hi = np.array(lo), np.array(hi)
    half = (0.5 * (hi - lo))[:, None]
    x = (0.5 * (lo + hi))[:, None] + half * _F2_FINE_NODES
    y = np.asarray(f(x), dtype=float)
    sums = np.add.reduce(y[:, None, :] * _F2_PAIR_W, axis=2) * half
    pairs = sums.tolist()
    if np.isfinite(sums).all():
        return pairs
    return [pair if ok else None for pair, ok in zip(pairs, np.isfinite(sums).all(axis=1).tolist())]


# _greedy's look-ahead (its docstring states the rule), sized by its own
# error estimates against the goal _SHARE * tol * (1 + |total|): an end chain
# is at least 1 and at most _DEPTH_CAP bisections deep (_chain_depth), and
# _ROOT_DEPTH deep, as the root's chains are, where its errors give no
# estimate. Over kernel_solve's 500 seed-3 solves, shares of 1/8, 1/4, 1/2
# and 1 call g 1775, 1777, 1869 and 2179 times, and the deepest relu:0.9
# solve of the evaluation-budget test samples g at 1800, 1770, 1740 and 1710
# points (its limit is 2000); caps of 20, 40 and 80 change none of these.
# The cap bounds chains whose errors barely fall: towards x^-0.5 (q = 2^0.5)
# a chain runs to it.
_SHARE = 0.25
_DEPTH_CAP = 40
_ROOT_DEPTH = 4


def _parents(lo: float, hi: float, left: bool, right: bool, depth: int) -> list[tuple[float, float]]:
    """(lo, hi), then the intervals of the next `depth` bisections of its lo
    half towards lo (left) and of its hi half towards hi (right), each the
    greedy's own, mid = 0.5 * (lo + hi). A chain stops where the greedy would
    accept an interval at floating-point resolution instead of bisecting it.
    """
    mid = 0.5 * (lo + hi)
    parents = [(lo, hi)]
    chains = [(lo, mid, True)] if left else []
    if right:
        chains.append((mid, hi, False))
    for l, h, towards_lo in chains:
        for _ in range(depth):
            m = 0.5 * (l + h)
            if m <= l or m >= h:
                break
            parents.append((l, h))
            l, h = (l, m) if towards_lo else (m, h)
    return parents


def _halves(parents) -> tuple[list[float], list[float]]:
    """The lo and hi ends of the rows that bisect the parents: the two halves of each in turn."""
    los, his = [], []
    for lo, hi in parents:
        mid = 0.5 * (lo + hi)
        los += (lo, mid)
        his += (mid, hi)
    return los, his


def _chain_depth(log_err: float, log_q: float, log_goal: float) -> int:
    """Bisections until an error exp(log_err), falling by exp(log_q) a bisection, reaches exp(log_goal).

    ceil((log_err - log_goal) / log_q), clamped to [1, _DEPTH_CAP];
    _ROOT_DEPTH when log_q is not above 0 or the quotient is NaN. In logs,
    so zero and infinite errors and a goal that underflows raise nothing.
    """
    depth = (log_err - log_goal) / log_q if log_q > 0.0 else math.nan
    if math.isnan(depth):
        return _ROOT_DEPTH
    return math.ceil(min(max(depth, 1.0), _DEPTH_CAP))


def _greedy(a: float, b: float, tol: float, max_intervals: int, ahead: bool):
    """Greedy Fejer-2 integral over (a, b) to tol * (1 + |result|), as a coroutine; a < b.

    It yields (los, his), the intervals (los[j], his[j]) whose [fine, coarse]
    pairs it needs, is sent those pairs in the same order (None for a row
    whose sums are not finite, _pair_rows), and returns the integral. It
    keeps a heap of intervals ranked by the embedded pair's error estimate
    and bisects the worst one until the summed error bound meets the
    tolerance. It raises MaxSubdivisionsExceeded when the interval budget
    runs out, and NonFiniteSample when a half it bisects into has a
    non-finite sample or a sum that overflows.

    Look-ahead (ahead=True) keeps one table, known[(lo, hi)] -> the pairs of
    (lo, mid) and (mid, hi). A bisection missing from it yields a request
    for its own halves and, into the table, for the bisections of:
    - the end chain (_parents) when the interval touches a or b: callers
      split their integrals at kinks, so a singularity sits there, and the
      greedy bisects the interval at that end round after round. Towards a
      Hoelder-alpha singularity the error estimate falls by a steady ratio
      q, 2^(1+alpha), a bisection, so with q the ratio of the last two
      errors popped at that end and e the error of the interval bisected,
      the chain is ceil(ln(e / goal) / ln q) bisections deep, goal =
      _SHARE * tol * (1 + |total|), clamped to [1, _DEPTH_CAP]. With no
      estimate (q <= 1 or unknown) it is the root's depth, _ROOT_DEPTH;
    - every interval pushed since the last request that is still in the
      heap, touches neither a nor b, has an error above the goal and is not
      in the table: the greedy bisects most of them before it stops. That
      is every such heap interval but those a request passed over while its
      goal was higher; finding them costs O(1) a push, where a walk down
      the heap would revisit the intervals already in the table each time.
    A stored pair belongs to the same interval and comes from the same
    arithmetic, so the pops, pushes, counters and sums, and so the value and
    the failure, are those of a greedy without look-ahead, bit for bit: the
    estimates decide only which rows a request evaluates. A row refused
    ahead raises only when the greedy bisects into it.

    With look-ahead the first request also carries the root's bisection,
    both end chains _ROOT_DEPTH deep and the bisections of the root's two
    inner quarters (1 + 2 + 8 + 8 + 4 = 23 rows). That saves a request when
    the root rule misses the tolerance (a smooth integral then usually needs
    no other), and costs 22 rows that nothing reads when it meets it.
    """
    known = {}  # (lo, hi) -> the pairs of its halves, asked for ahead; kept once read
    mid = 0.5 * (a + b)
    parents = []
    if ahead and a < mid < b:
        q1, q3 = 0.5 * (a + mid), 0.5 * (mid + b)
        parents = _parents(a, b, True, True, _ROOT_DEPTH) + [
            (lo, hi) for lo, hi in ((q1, mid), (mid, q3)) if lo < 0.5 * (lo + hi) < hi
        ]
    los, his = _halves(parents)
    root, *pairs = yield [a, *los], [b, *his]
    known.update(zip(parents, zip(pairs[::2], pairs[1::2])))
    if root is None:
        raise _nonfinite(a, b)
    total, coarse = root
    total_err = abs(total - coarse)
    heap = [(-total_err, 0, a, b, total)]
    counter = 1
    if ahead:
        log_share_tol = math.log(_SHARE) + math.log(tol)
        log_last = [math.nan, math.nan]  # ln of the error last popped at a, at b
        pushed = []  # (lo, hi, error) of the halves pushed since the last request
    while total_err > tol * (1.0 + abs(total)):
        if counter >= max_intervals:
            raise MaxSubdivisionsExceeded(
                f"subdivision budget {max_intervals} exhausted; "
                f"estimate {total!r} with error bound {total_err!r}",
                estimate=total,
                err_bound=total_err,
            )
        neg_err, _, lo, hi, est = heapq.heappop(heap)
        if neg_err >= 0.0:
            # every remaining interval is at floating-point resolution; the
            # accumulated budget cannot improve further
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; accept as-is
            heapq.heappush(heap, (0.0, counter, lo, hi, est))
            counter += 1
            total_err += neg_err  # remove this interval's error from the budget
            continue
        if not ahead:
            p1, p2 = yield [lo, mid], [mid, hi]
        else:
            end = 0 if lo == a else 1 if hi == b else None
            if end is not None:
                log_err = math.log(-neg_err)
                log_q, log_last[end] = log_last[end] - log_err, log_err
            halves = known.get((lo, hi))
            if halves is None:
                log_goal = log_share_tol + math.log1p(abs(total))
                depth = 0 if end is None else _chain_depth(log_err, log_q, log_goal)
                goal = _SHARE * tol * (1.0 + abs(total))
                parents = _parents(lo, hi, lo == a, hi == b, depth) + [
                    (l, h) for l, h, e in pushed
                    if e > goal and l != a and h != b and (l, h) != (lo, hi) and (l, h) not in known
                    and l < 0.5 * (l + h) < h
                ]
                pushed.clear()
                halves = yield _halves(parents)
                known.update(zip(parents[1:], zip(halves[2::2], halves[3::2])))
            p1, p2 = halves[:2]
        if p1 is None:
            raise _nonfinite(lo, mid)
        if p2 is None:
            raise _nonfinite(mid, hi)
        (f1, c1), (f2, c2) = p1, p2
        e1 = abs(f1 - c1)
        e2 = abs(f2 - c2)
        total += (f1 + f2) - est
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, counter, lo, mid, f1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, f2))
        counter += 2
        if ahead:
            pushed += ((lo, mid, e1), (mid, hi, e2))
    return total


def _integrate_lanes(f, a, b, tol, max_intervals: int) -> list[float]:
    """Greedy Fejer-2 integrals of independent lanes: lane i over (a[i], b[i]) to tol[i].

    f(lanes, x) returns the integrand of lane lanes[j] at the abscissae x[j],
    for every row j of x (shape (n, 15)); every a[i] < b[i]. Each lane is a
    _greedy coroutine of its own, so it takes exactly the steps of a one-lane
    run, and a round gathers the rows of every running lane into one call of
    f. Batched lanes do not look ahead: a round of many lanes already shares
    its call of f, and the extra rows would cost more than the calls they save.

    A failing lane raises MaxSubdivisionsExceeded or NonFiniteSample with its
    index as `lane`, and numpy does not warn about the sample. A refused row
    (_pair_rows) of round r raises before a budget failure of round r + 1,
    and failures of one round raise in lane order.
    """
    greedy = [_greedy(*lane, max_intervals, False) for lane in zip(a, b, tol)]
    total = [0.0] * len(greedy)
    lanes = list(range(len(greedy)))  # the running lanes, in lane order
    asks = [next(g) for g in greedy]
    with np.errstate(**_QUIET):
        while lanes:
            los, his = zip(*asks)
            sizes = list(map(len, los))
            lane_of_row = np.repeat(lanes, sizes)
            pairs = _pair_rows(lambda x: f(lane_of_row, x), [*chain(*los)], [*chain(*his)])
            rows = [pairs[end - n:end] for n, end in zip(sizes, accumulate(sizes))]
            if None in pairs:
                # without look-ahead a lane needs every row it asked for, so the
                # first lane with a refused row raises before any lane goes on
                j = next(j for j, r in enumerate(rows) if None in r)
                lanes, rows = lanes[j:j + 1], rows[j:j + 1]
            running, asks = [], []
            for lane, r in zip(lanes, rows):
                try:
                    asks.append(greedy[lane].send(r))
                    running.append(lane)
                except StopIteration as done:
                    total[lane] = done.value
                except NumericalError as exc:
                    exc.lane = lane
                    raise
            lanes = running
    return total


def _segments(interior, lo: float, hi: float) -> list[tuple[float, float]]:
    """The pieces (left, right) of (lo, hi) cut at the points of `interior` strictly inside it, in order."""
    edges = [lo, *sorted(t for t in interior if lo < t < hi), hi]
    return list(zip(edges[:-1], edges[1:]))


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < math.inf):
        raise ValidationError(f"tol must be finite and > 0, got {tol}")


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    max_intervals: int = 4000,
) -> float:
    """Adaptive integral of f over (a, b) with absolute error <= tol*(1+|result|).

    Greedy global strategy (_greedy, with look-ahead): keep a heap of
    subintervals ranked by the embedded pair's error estimate and bisect the
    worst one. Endpoint singularities are admissible because the rule never
    samples a or b. f receives 1D arrays. A call of f also evaluates rows
    the greedy may need later: the root's bisection, end chains and inner
    quarters with the root rule, and with a bisection end chains as deep as
    the decay of the error estimates towards that end says, or the root's
    depth where they give no estimate, and the interior intervals above a
    share of the tolerance (_greedy's docstring states the rule). Values and
    failures are those of the greedy without look-ahead. f runs with numpy's
    divide, overflow and invalid-value warnings off: a row the greedy reads
    raises NonFiniteSample when it has a non-finite sample or its sum
    overflows, and an exhausted budget raises MaxSubdivisionsExceeded.
    ValidationError for limits that are not finite, b - a that overflows or
    a max_intervals that is not a count of at least 1.
    """
    _check_tol(tol)
    _check_count(max_intervals, "max_intervals")
    if not (b > a):
        if b == a:
            return 0.0
        raise ValidationError(f"need a < b, got ({a}, {b})")
    if not math.isfinite(b - a):
        raise ValidationError(f"need finite limits a < b with a finite b - a, got ({a}, {b})")

    def rows(x):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)

    greedy = _greedy(a, b, tol, max_intervals, True)
    ask = next(greedy)
    try:
        with np.errstate(**_QUIET):
            while True:
                ask = greedy.send(_pair_rows(rows, *ask))
    except StopIteration as done:
        return done.value


# --- half-disk grid and L^p norms -----------------------------------------------

# Most nodes one half-disk grid may have (2048 x 2048); larger grids are refused
# up front instead of failing in the allocator. Only the p = inf norm of a
# field other than a single product assembles it on the whole grid, 8 bytes a
# node per component (`ru_maxrss` growth over one norm on 1024 x 1024 and
# 2048 x 2048 grids; 32 bytes when the field itself was a grid array), so a
# two-component norm at the limit needs about 67 MB. The other norms hold
# O(nr + nphi) tables and at most _NORM_BLOCK rows of the grid.
MAX_GRID_POINTS = 2**22
# radii per block of norm_lp_halfdisk's |V|^p sums: 64 kB a component at 256 angles
_NORM_BLOCK = 32


@dataclass(frozen=True)
class GridSpec:
    """Polar tensor grid on the half-disk of radius R with origin-graded radii.

    Radial nodes are r_j = R*(j/nr)^grading for j = 1..nr (strictly increasing,
    first node > 0); angular nodes are phi midpoints in (0, pi).
    """

    R: float
    nr: int = 256
    nphi: int = 256
    grading: float = 2.0

    def __post_init__(self):
        if not (self.R > 0.0):
            raise ValidationError(f"R must be > 0, got {self.R}")
        if not (math.isfinite(self.R) and math.isfinite(self.grading)):
            raise ValidationError(f"R and grading must be finite, got R = {self.R}, grading = {self.grading}")
        _check_count(self.nr, "nr", 8)
        _check_count(self.nphi, "nphi", 8)
        if self.grading < 1.0:
            raise ValidationError(f"grading must be >= 1, got {self.grading}")
        if self.nr * self.nphi > MAX_GRID_POINTS:
            raise ValidationError(
                f"a {self.nr} x {self.nphi} grid exceeds the limit of {MAX_GRID_POINTS} nodes"
            )

    def radial_nodes(self) -> np.ndarray:
        s = np.arange(1, self.nr + 1) / self.nr
        return self.R * s**self.grading

    def radial_weights(self) -> np.ndarray:
        """Weights for integral_0^R phi(r) dr, valid for phi with phi(0) = 0.

        Composite rule in the flattening variable s = (r/R)^(1/grading), using
        the node set of radial_nodes plus the s = 0 endpoint whose term
        vanishes for such phi: Simpson weights when nr is even (exact for the
        graded measure with integer grading <= 3), trapezoid otherwise.
        """
        s = np.arange(1, self.nr + 1) / self.nr
        if self.nr % 2 == 0:
            c = np.empty(self.nr)
            c[0::2] = 4.0 / 3.0  # odd s-indices 1, 3, ...
            c[1::2] = 2.0 / 3.0  # even interior s-indices
            c[-1] = 1.0 / 3.0
        else:
            c = np.ones(self.nr)
            c[-1] = 0.5
        return (self.R * self.grading / self.nr) * c * s ** (self.grading - 1.0)

    def angular_nodes(self) -> np.ndarray:
        return (np.arange(self.nphi) + 0.5) * np.pi / self.nphi

    @property
    def angular_weight(self) -> float:
        return math.pi / self.nphi

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, phi) of shapes (nr, 1) and (1, nphi): broadcast, the grid's nodes."""
        return self.radial_nodes()[:, None], self.angular_nodes()[None, :]

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (nr, nphi); every node has y > 0."""
        r, phi = self.polar()
        return r * np.cos(phi), r * np.sin(phi)

    def refined(self) -> "GridSpec":
        """The refinement gate's grid: nr and nphi doubled, so 4x the nodes."""
        if 4 * self.nr * self.nphi > MAX_GRID_POINTS:
            raise ValidationError(
                f"the refinement gate's {2 * self.nr} x {2 * self.nphi} grid (the"
                f" {self.nr} x {self.nphi} grid doubled) exceeds the limit of {MAX_GRID_POINTS} nodes"
            )
        return GridSpec(self.R, 2 * self.nr, 2 * self.nphi, self.grading)


def _product_tables(f, r, phi, where: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The components of the polar product field f at (r, phi), as [(Rs, Qs)].

    Row i of Rs is term i's radial table over the r.size radii, row i of Qs
    its angular table over the phi.size angles; a table may be anything that
    broadcasts to r's (or phi's) shape, a scalar too. ValidationError for
    another return value, NonFiniteSample (naming `where`) for a non-finite
    table, with no numpy warning either way.
    """
    tables = []
    with np.errstate(all="ignore"):  # a non-finite table is refused below, not warned about
        comps = f(r, phi)
        try:
            for terms in comps:
                Rs, Qs = np.empty((len(terms), r.size)), np.empty((len(terms), phi.size))
                for i, (R, Q) in enumerate(terms):
                    Rs[i] = np.broadcast_to(np.asarray(R, dtype=float), r.shape).ravel()
                    Qs[i] = np.broadcast_to(np.asarray(Q, dtype=float), phi.shape).ravel()
                tables.append((Rs, Qs))
        except (TypeError, ValueError):
            raise ValidationError(
                "field must return components, each a list of (radial table, angular table)"
                " pairs that broadcast to the shapes of r and phi"
            ) from None
    if not tables:
        raise ValidationError("field must return at least one component")
    if not all(np.isfinite(Rs).all() and np.isfinite(Qs).all() for Rs, Qs in tables):
        raise NonFiniteSample(f"field evaluated to a non-finite value {where}")
    return tables


def _magnitude(tables) -> np.ndarray:
    """|V| on the grid of the tables: one component's |sum_i R_i Q_i|, or the root sum of squares of several."""
    values = [Rs.T @ Qs for Rs, Qs in tables]
    if len(values) == 1:
        return np.abs(values[0], out=values[0])
    sq = values[0]
    sq *= sq
    for V in values[1:]:
        V *= V
        sq += V
    return np.sqrt(sq, out=sq)


# ray_refined_max's search: RAY_ROUNDS calls of f on RAY_POINTS radii each
RAY_POINTS = 65
RAY_ROUNDS = 5


def ray_refined_max(f, grid: GridSpec) -> tuple[float, float, float, float]:
    """Sharpen the grid maximum of the polar product field |f| by a search in r along its ray.

    f is called once on grid.polar(). A single product R(r) Q(phi) peaks at
    the node of max |R| and max |Q|; another field is assembled on the grid.
    The search starts between the radial neighbours of the maximizing node;
    each of its RAY_ROUNDS rounds calls f on RAY_POINTS radii of that ray (r
    of shape (RAY_POINTS, 1), phi of shape (1, 1)) and narrows the bracket to
    the neighbours of the best radius, a (RAY_POINTS - 1) / 2 = 32-fold cut.
    A last call reads the single point r = R. Every call is read like the
    grid's (_product_tables, _magnitude). Returns (grid max, maximizing r on
    the ray, |f| there, |f| at r = R on the ray).
    """
    tables = _product_tables(f, *grid.polar(), "on the grid")
    with np.errstate(all="ignore"):  # an overflowing product is refused below, not warned about
        if len(tables) == 1 and len(tables[0][0]) == 1:  # a single product R(r) Q(phi)
            R, Q = np.abs(tables[0][0][0]), np.abs(tables[0][1][0])
            jmax, lmax = int(np.argmax(R)), int(np.argmax(Q))
            grid_max = float(R[jmax] * Q[lmax])
        else:
            absV = _magnitude(tables)
            jmax, lmax = np.unravel_index(np.argmax(absV), absV.shape)
            grid_max = float(absV[jmax, lmax])
    if not math.isfinite(grid_max):
        raise NonFiniteSample("field evaluated to a non-finite value on the grid")
    r_nodes = grid.radial_nodes()
    phi = grid.angular_nodes()[lmax:lmax + 1, None]

    def ray_magnitude(r):
        where = "along the maximizing ray"
        with np.errstate(all="ignore"):  # an overflowing product is refused below, not warned about
            values = _magnitude(_product_tables(f, r[:, None], phi, where))[:, 0]
        if not np.isfinite(values).all():
            raise NonFiniteSample(f"field evaluated to a non-finite value {where}")
        return values

    lo = r_nodes[jmax - 1] if jmax > 0 else 0.25 * r_nodes[0]
    hi = r_nodes[jmax + 1] if jmax + 1 < grid.nr else grid.R
    for _ in range(RAY_ROUNDS):
        r = np.linspace(lo, hi, RAY_POINTS)
        values = ray_magnitude(r)
        i = int(np.argmax(values))
        lo, hi = r[max(i - 1, 0)], r[min(i + 1, RAY_POINTS - 1)]
    return grid_max, float(r[i]), float(values[i]), float(ray_magnitude(np.array([grid.R]))[0])


def norm_lp_halfdisk(f, grid: GridSpec, p: float) -> float:
    """L^p norm of a polar product field f(r, phi) over the half-disk B_R^+, tensor quadrature.

    f is called once, on grid.polar(): the radial nodes as r (shape (nr, 1))
    and the angular nodes as phi (shape (1, nphi)). It returns a list of
    components, each a list of (radial table, angular table) pairs; the
    field is |V|^2 = sum_c (sum_i R_ci(r) Q_ci(phi))^2. With w_j the radial
    weights and dphi the angular one, the quadrature sum_j,l w_j r_j |V|^p dphi
    is taken in one of two ways:

    1. p = 2: each component's angular tables are reduced to the triangular
       factor Rq of qr(Q^T), and its sum is sum_j w_j r_j |Rq R(r_j)|^2 dphi,
       O(T^2 (nr + nphi)) work for T terms. (A plain Gram sum of the table
       products loses digits to cancellation at high Sobolev orders: 4e-13
       relative at k = 3, order 7, eps = 1e-5 R on the default grid.)
    2. Otherwise: the field is assembled and summed in blocks of _NORM_BLOCK
       radii. A radius's sum over the angles does not depend on the block.

    For p = inf the grid max (max|R| max|Q| for a single product) is sharpened
    along the maximizing ray (ray_refined_max): f is called again on a few
    vectors of radii along that ray and once at its end r = R, and each call
    is read like the grid's.
    NonFiniteSample for a non-finite table and for a sum that overflows.
    """
    if not (p >= 1.0):
        raise ValidationError(f"p must be in [1, inf], got {p}")
    if math.isinf(p):
        grid_max, _, ray_max, edge = ray_refined_max(f, grid)
        return max(grid_max, ray_max, edge)
    tables = _product_tables(f, *grid.polar(), "on the grid")
    with np.errstate(all="ignore"):  # an overflowing sum is refused below, not warned about
        wr = grid.radial_weights() * grid.radial_nodes()
        if p == 2.0:
            integral = 0.0
            for Rs, Qs in tables:
                if len(Rs):
                    M = np.linalg.qr(Qs.T, mode="r") @ Rs
                    integral += float(wr @ (M * M).sum(axis=0))
        else:
            row_sums = np.empty(grid.nr)
            for j in range(0, grid.nr, _NORM_BLOCK):
                absV = _magnitude([(Rs[:, j:j + _NORM_BLOCK], Qs) for Rs, Qs in tables])
                absV **= p
                row_sums[j:j + _NORM_BLOCK] = absV.sum(axis=1)
            integral = float(wr @ row_sums)
        integral *= grid.angular_weight
    if not math.isfinite(integral):
        raise NonFiniteSample("field's L^p norm overflows on the grid")
    return integral ** (1.0 / p)


# --- straight-line fits ----------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through scatter data: slope, intercept, r^2."""

    slope: float
    intercept: float
    r_squared: float


def fit_linear(xs, ys) -> RateFit:
    """Least-squares line y ~ slope*x + intercept.

    The sums run on y in units of 2^e, the power of two just above max |y|.
    That scaling is exact, so the fit has the bits of an unscaled one, and
    r^2 stays right where sum((y - ym)^2) alone would overflow. NumericalError
    when the slope, intercept or r^2 is not finite, or when the residual sum
    of squares overflows in y's own units (residuals from about 1e154).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("xs and ys must be 1D arrays of equal length")
    if x.size < 3:
        raise ValidationError(f"need at least 3 points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise ValidationError("all abscissae identical; cannot fit a line")
    with np.errstate(all="ignore"):  # an overflowed fit is refused below, not warned about
        e = math.frexp(float(np.max(np.abs(y))))[1]
        y = np.ldexp(y, -e)
        xm, ym = x.mean(), y.mean()
        sxx = float(np.sum((x - xm) ** 2))
        slope = float(np.sum((x - xm) * (y - ym)) / sxx)
        intercept = ym - slope * xm
        resid = y - (slope * x + intercept)
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - ym) ** 2))
        slope, intercept = float(np.ldexp(slope, e)), float(np.ldexp(intercept, e))
        ss_res_y = float(np.ldexp(ss_res, 2 * e))  # in y's own units
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res_y <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if not all(map(math.isfinite, (slope, intercept, r2, ss_res_y))):
        raise NumericalError(f"line fit is not finite: slope {slope:g}, intercept {intercept:g},"
                             f" r2 {r2:g}, residual sum of squares {ss_res_y:g}")
    return RateFit(slope, intercept, r2)


def fit_loglog(xs, ys) -> RateFit:
    """Least-squares line through (log x, log y); slope is the power-law exponent."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValidationError("fit_loglog needs strictly positive data")
    return fit_linear(np.log(x), np.log(y))
