"""Shared numerics: adaptive quadrature, finite differences, half-disk norms,
and straight-line fits for rate extraction.

The adaptive integrator uses an embedded Fejer-2 pair (7 nodes nested inside
15) with globally greedy bisection, so integrable endpoint singularities are
resolved without ever sampling the endpoints. Integrands must accept numpy
arrays of abscissae. Callers split their integrals at kinks, so a singularity
sits at an end and the greedy bisects the interval at that end round after
round; the call of f that makes such a bisection also evaluates the next
_AHEAD_DEPTH = 6 bisections towards that end, and the greedy later takes those
values instead of calling f. They are the same intervals with the same
arithmetic, so every value is bit-identical to a greedy without look-ahead
(see _integrate_lanes).

Half-disk norms take polar product fields: f(r, phi) returns components, each
a list of (radial table, angular table) pairs, and the field's magnitude is
|V|^2 = sum_c (sum_i R_ci(r) Q_ci(phi))^2. The tensor quadrature then needs no
nr x nphi grid for p = 2 (a QR reduction of each component's angular tables);
other p assemble the field on the grid. The p = inf grid max of a single
product R(r) Q(phi) is max|R| max|Q|.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MaxSubdivisionsExceeded, NonFiniteSample, NumericalError, ValidationError
from .halfplane import HalfPlanePoint

__all__ = [
    "QuadratureRule",
    "GridSpec",
    "RateFit",
    "gauss_legendre_rule",
    "integrate_adaptive",
    "fd_laplacian",
    "fd_derivative",
    "norm_lp_halfdisk",
    "fit_linear",
    "fit_loglog",
    "bisect_root",
    "golden_max",
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


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b]."""
    if n < 1:
        raise ValidationError(f"need n >= 1 nodes, got {n}")
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
_F2_COARSE_W = _fejer2(8)[1]  # 7 nodes = fine nodes[1::2]
_F2_PAIR_W = np.zeros((2, 15))  # rows: fine weights, coarse weights on the fine nodes
_F2_PAIR_W[0] = _F2_FINE_W
_F2_PAIR_W[1, 1::2] = _F2_COARSE_W


def _lane_failure(exc: Exception, lane: int) -> Exception:
    exc.lane = lane
    return exc


def _nonfinite(lane: int, lo: float, hi: float) -> Exception:
    return _lane_failure(NonFiniteSample(f"integrand non-finite inside ({lo}, {hi})"), lane)


def _pair_rows(f, lanes, lo, hi) -> tuple[list, bool]:
    """[fine, coarse] estimates of lane lanes[j] on the interval (lo[j], hi[j]), and whether all are finite.

    f(lanes, x) gets the abscissae as rows of x (shape (n, 15)). A row's sums
    do not depend on the other rows, so a lane's numbers are the same in
    every batch. A row with a non-finite sample gives None.
    """
    if len(lo) > 16:  # the same IEEE operations, faster in numpy once there are many rows
        lo, hi = np.array(lo), np.array(hi)
        half = (0.5 * (hi - lo))[:, None]
        x = (0.5 * (lo + hi))[:, None] + half * _F2_FINE_NODES
    else:
        half = np.array([0.5 * (h - l) for l, h in zip(lo, hi)])[:, None]
        x = np.array([0.5 * (l + h) for l, h in zip(lo, hi)])[:, None] + half * _F2_FINE_NODES
    y = np.asarray(f(np.array(lanes), x), dtype=float)
    if np.isfinite(y).all():
        return (np.add.reduce(y[:, None, :] * _F2_PAIR_W, axis=2) * half).tolist(), True
    finite = np.isfinite(y).all(axis=1)
    y = np.where(finite[:, None], y, 0.0)
    pairs = (np.add.reduce(y[:, None, :] * _F2_PAIR_W, axis=2) * half).tolist()
    return [pair if ok else None for pair, ok in zip(pairs, finite.tolist())], False


# Endpoint look-ahead of the greedy (see _integrate_lanes): the bisections
# evaluated ahead along an endpoint chain, and the most rows, those ahead
# included, of a round that looks ahead. The deepest relu:0.9 solve of the
# evaluation-budget test samples g at 1740 points with depth 6, 1950 with
# depth 7 and 2250 with depth 8, against its limit of 2000.
_AHEAD_DEPTH = 6
_AHEAD_ROWS = 32


def _chain(lo: float, hi: float, left: bool) -> tuple[list[float], list[float]]:
    """Halves of the next _AHEAD_DEPTH bisections of (lo, hi) towards its lo (left) or hi end.

    Returns the halves' lo and hi ends, the two halves of each bisection in
    turn. The bisections are the greedy's own, mid = 0.5 * (lo + hi), and
    the chain stops where the greedy would accept an interval at
    floating-point resolution instead of bisecting it.
    """
    los, his = [], []
    for _ in range(_AHEAD_DEPTH):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        los += [lo, mid]
        his += [mid, hi]
        if left:
            hi = mid
        else:
            lo = mid
    return los, his


def _nest(pairs: list, left: bool):
    """Kids of a chain's first interval, from the pairs of the chain's halves in turn.

    The kids of an interval are (pair of its lo half, pair of its hi half,
    kids of the lo half, kids of the hi half), None where not evaluated.
    """
    kids = None
    for p1, p2 in zip(pairs[-2::-2], pairs[::-2]):
        kids = (p1, p2, kids, None) if left else (p1, p2, None, kids)
    return kids


def _interleave(x, y) -> list:
    """[x[0], y[0], x[1], y[1], ...]"""
    out = [None] * (2 * len(x))
    out[0::2] = x
    out[1::2] = y
    return out


def _first_nonfinite(split, halves) -> Exception:
    """NonFiniteSample of the first non-finite half in split order, the one a call of f per round raises."""
    for (lane, lo, mid, hi, _, _, _), (p1, p2, _, _) in zip(split, halves):
        if p1 is None:
            return _nonfinite(lane, lo, mid)
        if p2 is None:
            return _nonfinite(lane, mid, hi)


def _integrate_lanes(f, a, b, tol, max_intervals: int) -> list[float]:
    """Greedy Fejer-2 integrals of independent lanes: lane i over (a[i], b[i]) to tol[i].

    f(lanes, x) returns the integrand of lane lanes[j] at the abscissae x[j],
    for every row j of x (shape (n, 15)); every a[i] < b[i]. Each lane keeps
    its own heap and bisects its own worst interval each round, so it takes
    exactly the steps of a one-lane run. One round evaluates the halves of
    every bisected interval in one call of f, and skips f when every half is
    already known. A failing lane raises MaxSubdivisionsExceeded or
    NonFiniteSample with its index as `lane`.

    Endpoint look-ahead: callers split their integrals at kinks, so the
    singularities sit at the lanes' ends, and a lane refining towards an end
    bisects the interval at that end round after round. The bisection of an
    interval that touches a[i] or b[i] also evaluates, in the same call of f,
    the halves of the next _AHEAD_DEPTH bisections of its half at that end,
    as long as the round's rows, these included, stay within _AHEAD_ROWS.
    That half's heap entry carries their pairs as `kids`, and a later
    bisection of it takes them instead of new rows. A precomputed pair
    belongs to the same interval and comes from the same arithmetic, so every
    lane's pops, pushes, counters and sums, and so its value and its failure,
    are those of a run without look-ahead, bit for bit. A non-finite sample
    found ahead is stored and raises only when the greedy bisects into it.

    A one-lane bisection at an end takes 2 + 2 * _AHEAD_DEPTH = 14 rows (26
    for the first bisection, whose halves both touch an end), so a one-lane
    run always looks ahead; the many-lane rounds of solve_grid do not, since
    there the extra rows cost more than the calls of f they save.
    """
    n = len(a)
    pairs, finite = _pair_rows(f, range(n), a, b)
    if not finite:
        lane = pairs.index(None)
        raise _nonfinite(lane, a[lane], b[lane])
    total, total_err, heaps = [], [], []
    for lo, hi, (fine, coarse) in zip(a, b, pairs):
        err = abs(fine - coarse)
        total.append(fine)
        total_err.append(err)
        heaps.append([(-err, 0, lo, hi, fine, None)])
    counter = [1] * n
    active = range(n)
    while active:
        split = []  # (lane, lo, mid, hi, estimate, -error, kids) of each interval bisected this round
        for lane in active:
            heap = heaps[lane]
            while total_err[lane] > tol[lane] * (1.0 + abs(total[lane])):
                if counter[lane] >= max_intervals:
                    raise _lane_failure(MaxSubdivisionsExceeded(
                        f"subdivision budget {max_intervals} exhausted; "
                        f"estimate {total[lane]!r} with error bound {total_err[lane]!r}",
                        estimate=total[lane],
                        err_bound=total_err[lane],
                    ), lane)
                neg_err, _, lo, hi, est, kids = heapq.heappop(heap)
                if neg_err >= 0.0:
                    # every remaining interval is at floating-point resolution; the
                    # accumulated budget cannot improve further
                    heapq.heappush(heap, (neg_err, counter[lane], lo, hi, est, kids))
                    break
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    # interval at floating-point resolution; accept as-is
                    heapq.heappush(heap, (0.0, counter[lane], lo, hi, est, None))
                    counter[lane] += 1
                    total_err[lane] += neg_err  # remove this interval's error from the budget
                    continue
                split.append((lane, lo, mid, hi, est, neg_err, kids))
                break
        if not split:
            break
        # halves[j]: (pair of the lo half, pair of the hi half, kids of each) of split[j]
        halves = iter(())
        finite = True
        fresh = [s for s in split if s[6] is None]
        if fresh:
            ls, los, mids, his = list(zip(*fresh))[:4]
            lanes, lo, hi = _interleave(ls, ls), _interleave(los, mids), _interleave(mids, his)
            m = len(lo)
            kids_lo, kids_hi = [None] * len(fresh), [None] * len(fresh)
            chains = []  # (kids list, index in fresh, first row, end row, towards lo)
            if m + 2 * _AHEAD_DEPTH <= _AHEAD_ROWS:
                for j, (lane, lo_j, mid, hi_j, _, _, _) in enumerate(fresh):
                    for kids, left, at_end, half in ((kids_lo, True, lo_j == a[lane], (lo_j, mid)),
                                                     (kids_hi, False, hi_j == b[lane], (mid, hi_j))):
                        if at_end and len(lo) + 2 * _AHEAD_DEPTH <= _AHEAD_ROWS:
                            chain_lo, chain_hi = _chain(*half, left)
                            chains.append((kids, j, len(lo), len(lo) + len(chain_lo), left))
                            lanes += [lane] * len(chain_lo)
                            lo += chain_lo
                            hi += chain_hi
            pairs, finite = _pair_rows(f, lanes, lo, hi)
            for kids, j, start, stop, left in chains:
                kids[j] = _nest(pairs[start:stop], left)
            finite = finite or None not in pairs[:m]  # a non-finite row ahead waits until it is needed
            halves = zip(pairs[0:m:2], pairs[1:m:2], kids_lo, kids_hi)
        if len(fresh) < len(split):
            halves = [s[6] or next(halves) for s in split]
            finite = finite and all(p1 is not None and p2 is not None for p1, p2, _, _ in halves)
        if not finite:
            raise _first_nonfinite(split, list(halves))
        for (lane, lo, mid, hi, est, neg_err, _), ((f1, c1), (f2, c2), k1, k2) in zip(split, halves):
            e1 = abs(f1 - c1)
            e2 = abs(f2 - c2)
            total[lane] += (f1 + f2) - est
            total_err[lane] += (e1 + e2) + neg_err
            c = counter[lane]
            heapq.heappush(heaps[lane], (-e1, c, lo, mid, f1, k1))
            heapq.heappush(heaps[lane], (-e2, c + 1, mid, hi, f2, k2))
            counter[lane] = c + 2
        active = [s[0] for s in split]
    return total


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    max_intervals: int = 4000,
) -> float:
    """Adaptive integral of f over (a, b) with absolute error <= tol*(1+|result|).

    Greedy global strategy: keep a heap of subintervals ranked by the embedded
    pair's error estimate and bisect the worst one. Endpoint singularities are
    admissible because the rule never samples a or b. f receives 1D arrays.
    """
    if not (tol > 0.0):
        raise ValidationError(f"tol must be > 0, got {tol}")
    if not (b > a):
        if b == a:
            return 0.0
        raise ValidationError(f"need a < b, got ({a}, {b})")

    def rows(_lanes, x):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)

    return _integrate_lanes(rows, [a], [b], [tol], max_intervals)[0]


# --- finite differences ---------------------------------------------------------

_CENTRAL_STENCILS = {
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
    4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
    5: ([-3, -2, -1, 1, 2, 3], [-0.5, 2.0, -2.5, 2.5, -2.0, 0.5]),
}


def _central(f, x: float, order: int, h: float) -> float:
    offs, coefs = _CENTRAL_STENCILS[order]
    return sum(c * f(x + o * h) for o, c in zip(offs, coefs)) / h**order


def fd_derivative(f, x: float, order: int, h: float) -> float:
    """Central-difference derivative with one Richardson step: O(h^4) for smooth f."""
    if order not in _CENTRAL_STENCILS:
        raise ValidationError(f"order must be in 1..5, got {order}")
    if not (h > 0.0):
        raise ValidationError(f"h must be > 0, got {h}")
    d_h = _central(f, x, order, h)
    d_h2 = _central(f, x, order, 0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0


def fd_laplacian(f, p: HalfPlanePoint, h: float) -> float:
    """Five-point Laplacian of a field f(x, y) at p; error O(h^2) for C^4 fields."""
    if not (h > 0.0):
        raise ValidationError(f"h must be > 0, got {h}")
    if p.y <= 2.0 * h:
        raise ValidationError(
            f"point at y = {p.y} is within 2h = {2 * h} of the boundary"
        )
    x, y = p.x, p.y
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)) / (h * h)


# --- half-disk grid and L^p norms -----------------------------------------------

# Most nodes one half-disk grid may have (2048 x 2048); larger grids are refused
# up front instead of failing in the allocator. Only the norms that assemble
# the field on the grid (p other than 2, except a single product at p = inf)
# hold grid-sized arrays, 8 bytes a node per component (`ru_maxrss` growth
# over one norm on 1024 x 1024 and 2048 x 2048 grids; 32 bytes when the field
# itself was a grid array), so a two-component norm at the limit needs about
# 67 MB. The other norms hold O(nr + nphi) tables.
MAX_GRID_POINTS = 2**22


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
        if self.nr < 8 or self.nphi < 8:
            raise ValidationError(f"need nr, nphi >= 8, got ({self.nr}, {self.nphi})")
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


def golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximizer of f on [lo, hi] in 80 steps; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):  # shrinks [lo, hi] by 0.618^80, about 2e-17
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


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


def ray_refined_max(f, grid: GridSpec) -> tuple[float, float, float, float]:
    """Sharpen the grid maximum of the polar product field |f| by a golden-section search in r.

    f is called once on grid.polar() and then with one-point arrays r and phi
    along the maximizing node's ray. A single product R(r) Q(phi) peaks at the
    node of max |R| and max |Q|; another field is assembled on the grid. The
    search runs between the radial neighbours of the maximizing node. Returns
    (grid max, maximizing r on the ray, |f| there, |f| at r = R on the ray).
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
    phi = np.asarray([grid.angular_nodes()[lmax]])

    def along_ray(r):
        # the tables' structure was checked on the grid; Python floats overflow
        # to inf without warnings
        with np.errstate(all="ignore"):
            comps = f(np.asarray([r]), phi)
        values = [sum(np.asarray(R, dtype=float).item() * np.asarray(Q, dtype=float).item() for R, Q in terms)
                  for terms in comps]
        value = abs(values[0]) if len(values) == 1 else math.sqrt(sum(v * v for v in values))
        if not math.isfinite(value):
            raise NonFiniteSample("field evaluated to a non-finite value along the maximizing ray")
        return value

    lo = r_nodes[jmax - 1] if jmax > 0 else 0.25 * r_nodes[0]
    hi = r_nodes[jmax + 1] if jmax + 1 < grid.nr else grid.R
    rstar, vstar = golden_max(along_ray, lo, hi)
    return grid_max, rstar, vstar, along_ray(grid.R)


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
    2. Otherwise: the field is assembled on the grid and summed there.

    For p = inf the grid max (max|R| max|Q| for a single product) is sharpened
    by a golden-section search in r along the maximizing ray
    (ray_refined_max), with one-point calls of f.
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
            absV = _magnitude(tables)
            absV **= p
            integral = float(wr @ absV.sum(axis=1))
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


def bisect_root(f, lo: float, hi: float):
    """Root of f on [lo, hi] by bisection to 1e-13 relative; None if f does not change sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < 1e-13 * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
