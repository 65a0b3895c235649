"""Piecewise-linear analysis of 1-D networks, error measurement, free-knot
piece counting, and the interval covering/packing demo calculators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .core import (
    DimensionError,
    ReluNetwork,
    _affine_step,
    _interval,
    evaluate_batch,
    metrics,  # not called here; perfbench's traced runs wrap analysis.metrics
)

BREAK_MERGE_TOL = 1e-12

# exact_pwl holds each layer's values at all breakpoints at once: 2**24
# float64 values (neuron rows x breakpoints) take 134 MB
MAX_PWL_VALUES = 2 ** 24


class ResolutionError(ValueError):
    """Grid or quadrature too coarse for the requested computation."""


@dataclass(frozen=True)
class PwlFunction:
    """Continuous piecewise-linear function given by its breakpoints and
    values."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if bp.ndim != 1 or bp.shape != vals.shape or bp.size < 2:
            raise ValueError("need matching breakpoint and value arrays")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        return np.interp(x, self.breakpoints, self.values)

    def piece_count(self) -> int:
        """Number of maximal linearity intervals between the end breakpoints.

        Neighbouring slopes count as one piece unless they differ by more
        than 1e-9 times the larger of 1 and their magnitudes."""
        s = np.diff(self.values) / np.diff(self.breakpoints)
        scale = np.maximum(1.0, np.maximum(np.abs(s[1:]), np.abs(s[:-1])))
        return 1 + int(np.sum(np.abs(np.diff(s)) > 1e-9 * scale))


def _relu_pass(grid: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insert zero crossings of each neuron into the grid, then clip.

    vals holds one row per neuron and one column per grid point; it must be
    a fresh array, because the clip writes into it.

    A crossing of segment [x0, x1] lies at x0 + (x1 - x0) * (v0 / (v0 - v1)).
    Crossings that equal a grid point, or that lie within BREAK_MERGE_TOL
    of the right end b, are dropped, so both ends of the interval always
    survive.  In the merged grid a point closer than BREAK_MERGE_TOL to its
    predecessor is dropped (the earlier point wins).  The surviving old
    columns are copied, not recomputed.  An inserted point x in
    (x[j], x[j+1]) gets np.interp's value for every neuron,
    (y[j+1] - y[j]) / (x[j+1] - x[j]) * (x - x[j]) + y[j], so the result
    is bitwise equal to re-interpolating each neuron over the merged grid.
    """
    neg, pos = vals < 0, vals > 0
    flip = neg[:, :-1] & pos[:, 1:]
    flip |= pos[:, :-1] & neg[:, 1:]
    hits = np.flatnonzero(flip)
    if hits.size:
        rows, idx = divmod(hits, grid.size - 1)
        v0, v1 = vals[rows, idx], vals[rows, idx + 1]
        x0, x1 = grid[idx], grid[idx + 1]
        cross = np.unique(x0 + (x1 - x0) * (v0 / (v0 - v1)))
        cross = cross[grid[-1] - cross > BREAK_MERGE_TOL]
        at = np.searchsorted(grid, cross)
        fresh = grid[at] != cross
        cross, at = cross[fresh], at[fresh]
        size = grid.size + cross.size
        if vals.shape[0] * size > MAX_PWL_VALUES:
            raise ResolutionError(
                f"{vals.shape[0]} neurons at {size} breakpoints "
                f"exceed MAX_PWL_VALUES = {MAX_PWL_VALUES} values"
            )
        merged = np.insert(grid, at, cross)
        keep = np.empty(merged.size, dtype=bool)
        keep[1:] = np.diff(merged) > BREAK_MERGE_TOL
        keep[[0, -1]] = True
        slot = at + np.arange(at.size)
        is_new = np.zeros(merged.size, dtype=bool)
        is_new[slot] = True
        old_keep, new_keep = keep[~is_new], keep[slot]
        is_new = is_new[keep]
        is_old = ~is_new
        # a crossing just before an old point drops that point's column
        src = vals if old_keep.all() else vals[:, old_keep]
        out = np.empty((vals.shape[0], is_new.size))
        for out_row, row in zip(out, src):
            out_row[is_old] = row
        x, j = cross[new_keep], at[new_keep] - 1
        x0, x1 = grid[j], grid[j + 1]
        y0, y1 = vals[:, j], vals[:, j + 1]
        out[:, is_new] = (y1 - y0) / (x1 - x0) * (x - x0) + y0
        grid, vals = merged[keep], out
    return grid, np.maximum(vals, 0.0, out=vals)


def _breakpoint_walk(net: ReluNetwork, a: float, b: float):
    """exact_pwl's grid and plan-step pre-activations (rows in buffer order)
    of each layer of net on [a, b].  Resuming runs _relu_pass on the layer
    last yielded, which clips it in place; the output layer gets none."""
    plan = net._plan
    grid = np.array([a, b])
    vals = grid.reshape(1, -1)
    for i, step in enumerate(plan.steps):
        pre = np.empty((step.rows, grid.size))
        _affine_step(step, vals, pre, np.empty((plan.scratch, grid.size)))
        vals = pre  # the layer's input is freed before its ReLU pass
        yield grid, vals
        if i < net.depth - 1:
            grid, vals = _relu_pass(grid, vals)


def exact_pwl(net: ReluNetwork, interval: tuple[float, float]) -> PwlFunction:
    """Exact piecewise-linear form of a 1-in 1-out network on [a, b].

    Breakpoints are propagated layer by layer: each neuron's preactivation is
    linear between current breakpoints, and its zero crossings become new
    breakpoints before the ReLU clip.  Preactivations come from the same
    plan step as evaluate_batch, so they are bitwise equal to its values.
    After each insertion a breakpoint closer than BREAK_MERGE_TOL to its
    predecessor is dropped, and a crossing that close to b is dropped
    instead of b, so a and b are always kept.  Values at breakpoints that
    stay are copied; inserted ones get np.interp's formula (see _relu_pass).
    Raises ResolutionError when a layer would hold more than MAX_PWL_VALUES
    values, neuron rows times breakpoints.
    """
    if net.in_dim != 1 or net.out_dim != 1:
        raise DimensionError("exact piecewise form needs a 1-D network")
    # islice drops each hidden layer as soon as the walk yields it
    walk = islice(_breakpoint_walk(net, *_interval(interval)), net.depth - 1, None)
    grid, pre = next(walk)
    return PwlFunction(grid, pre[net._plan.pos[-1]])


# widenings of the search interval after which dead_rows gives up on R
_MAX_WIDENINGS = 40


def dead_rows(net: ReluNetwork, interval=None) -> list[tuple[int, int]]:
    """The (layer, row) pairs of the hidden rows of a 1-in 1-out network
    whose pre-activation is <= 0 at every breakpoint of the layer before it,
    on [a, b] or, with interval None, on all of R.

    Breakpoints and pre-activations are exact_pwl's, from the plan step, so
    bitwise the contract's column-sequential sums; rows are numbered as in
    net.layers.  On R the search interval starts at [-1, 1] and widens until
    every row's zero crossings lie strictly inside it; the end pieces then
    carry the slopes out to +-inf, and a row counts as dead when it is <= 0
    at every breakpoint and falls away from both ends.

    This is a test oracle, not a float proof: BREAK_MERGE_TOL merges
    breakpoints, so a row positive only between two merged points reads as
    dead.  Raises ResolutionError when R needs more than _MAX_WIDENINGS
    widenings, or where exact_pwl would.  On R that limit is reached by
    rows that are constant in exact arithmetic: their end slopes carry
    rounding noise, which implies a crossing far out, and every widening
    moves it further.  dead_rows(gaussian_network(1, 1e-1)) fails so, with
    crossings still outside [-6, 6.6e12]; on (-8, 8) it returns.
    """
    if net.in_dim != 1 or net.out_dim != 1:
        raise DimensionError("dead rows are found for 1-D networks only")
    a, b = (-1.0, 1.0) if interval is None else _interval(interval)
    # the buffer row of each row of each hidden layer
    hidden = np.split(net._plan.pos, np.cumsum(net.dims[1:-1]))[:-1]
    for _ in range(_MAX_WIDENINGS):
        dead, outside = [], []
        walk = zip(hidden, _breakpoint_walk(net, a, b))
        for ell, (rows, (grid, pre)) in enumerate(walk):
            down = np.all(pre <= 0.0, axis=1)
            if interval is None:
                for end, inner in ((0, 1), (-1, -2)):
                    p = pre[:, end]
                    gap = grid[end] - grid[inner]  # < 0 at a, > 0 at b
                    rise = (p - pre[:, inner]) / abs(gap)  # per unit outward
                    # a crossing at or beyond this end
                    cross = (rise != 0.0) & ((p == 0.0) | ((p > 0.0) != (rise > 0.0)))
                    outside.extend(grid[end] - np.sign(gap) * p[cross] / rise[cross])
                    down &= rise <= 0.0
                if outside:
                    break
            dead.extend((ell, int(row)) for row in np.flatnonzero(down[rows]))
        if not outside:
            return dead
        span = b - a
        a, b = min(a, min(outside) - span), max(b, max(outside) + span)
    raise ResolutionError(
        f"zero crossings still outside [{a:g}, {b:g}] after "
        f"{_MAX_WIDENINGS} widenings"
    )


def count_linear_regions(
    net: ReluNetwork, interval: tuple[float, float]
) -> tuple[int, int]:
    """Number of maximal linearity intervals on [a, b], together with the
    structural bound (2 * width) ** depth that every network respects."""
    bound = region_bound(net)
    count = exact_pwl(net, interval).piece_count()
    if count > bound:
        raise AssertionError(
            f"region count {count} exceeds structural bound {bound}"
        )
    return count, bound


def region_bound(net: ReluNetwork) -> int:
    """(2 * width) ** depth, the piece-count bound for 1-D networks."""
    return (2 * max(net.dims)) ** net.depth


# --- error measurement --------------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    """Grid-based sup and L2 error of a network against a reference."""

    sup_error: float
    l2_error: float
    argmax: tuple


def _normalize_domain(domain) -> list[tuple[float, float]]:
    arr = np.asarray(domain, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, 2)
    return [_interval(box, "domain") for box in arr]


def _uniform_axes(net: ReluNetwork, domain, grid_n: int):
    """The checked boxes of a domain and grid_n evenly spaced values on each."""
    boxes = _normalize_domain(domain)
    if grid_n < 2:
        raise ValueError("need at least two grid points per axis")
    if len(boxes) != net.in_dim:
        raise DimensionError(
            f"domain has {len(boxes)} axes, network expects {net.in_dim}"
        )
    return boxes, [np.linspace(lo, hi, grid_n) for lo, hi in boxes]


def _mesh_points(axes) -> np.ndarray:
    """All points of the tensor grid over the axes, one per row."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _eval_grid(net: ReluNetwork, domain, grid_n: int):
    boxes, axes = _uniform_axes(net, domain, grid_n)
    if len(boxes) == 1:
        bp = exact_pwl(net, boxes[0]).breakpoints
        axes[0] = np.union1d(axes[0], bp)
    return boxes, axes, _mesh_points(axes)


def _quad_weights(axes) -> np.ndarray:
    weights = np.ones(1)
    for ax in axes:
        w = np.empty(ax.size)
        gaps = np.diff(ax)
        w[0] = gaps[0] / 2
        w[-1] = gaps[-1] / 2
        w[1:-1] = (gaps[:-1] + gaps[1:]) / 2
        weights = np.multiply.outer(weights, w).ravel()
    return weights


def error_report(
    net: ReluNetwork, reference: Callable, domain, grid_n: int
) -> ErrorReport:
    """Sup and trapezoid-L2 error of a one-output network against a
    reference callable on a uniform grid (1-D grids also include all network
    breakpoints)."""
    if net.out_dim != 1:
        raise DimensionError(
            f"error_report needs a one-output network, got {net.out_dim} outputs"
        )
    _, axes, pts = _eval_grid(net, domain, grid_n)
    got = evaluate_batch(net, pts)[:, 0]
    want = np.fromiter(map(reference, *pts.T.tolist()), np.float64, len(pts))
    err = got - want
    sup_idx = int(np.argmax(np.abs(err)))
    weights = _quad_weights(axes)
    l2 = math.sqrt(float(np.sum(weights * err ** 2)))
    return ErrorReport(
        sup_error=float(np.abs(err[sup_idx])),
        l2_error=l2,
        argmax=tuple(float(x) for x in pts[sup_idx]),
    )


# --- free-knot piece counting ----------------------------------------------------


def _hull_indices(xs: list[float], ys: list[float], upper: bool) -> list[int]:
    # monotone chain over points already sorted by x
    out: list[int] = []
    for i in range(len(xs)):
        while len(out) >= 2:
            i0, i1 = out[-2], out[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (xs[i] - xs[i0]) * (
                ys[i1] - ys[i0]
            )
            if (cross >= 0) if upper else (cross <= 0):
                out.pop()
            else:
                break
        out.append(i)
    return out


def minimax_line_error(xs: np.ndarray, ys: np.ndarray) -> float:
    """Smallest sup deviation of a line from the points (xs ascending).

    Equals half the least vertical width of a strip containing all points.
    The width as a function of the slope is convex piecewise-linear with
    breakpoints at the hull edge slopes, so the minimum is found by walking
    those slopes while tracking the supporting vertices of both hulls.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size <= 2:
        return 0.0
    # the walks index single points, which is much faster on Python floats
    # than on numpy scalars, with the same IEEE results; the slopes stay in
    # numpy, where a repeated x divides to +-inf instead of raising
    x, y = xs.tolist(), ys.tolist()
    upper = _hull_indices(x, y, upper=True)
    lower = _hull_indices(x, y, upper=False)
    slopes_u = (np.diff(ys[upper]) / np.diff(xs[upper])).tolist()
    slopes_l = (np.diff(ys[lower]) / np.diff(xs[lower])).tolist()
    candidates = sorted(slopes_u + slopes_l)
    # at slope -inf the max of y - c*x sits at the rightmost upper vertex and
    # the min at the leftmost lower vertex; both supports move monotonically
    # as the slope grows (upper slopes decrease rightward, lower increase)
    u = len(upper) - 1
    low = 0
    best = math.inf
    for c in candidates:
        while u > 0 and c >= slopes_u[u - 1]:
            u -= 1
        while low < len(lower) - 1 and c >= slopes_l[low]:
            low += 1
        iu, il = upper[u], lower[low]
        width = (y[iu] - c * x[iu]) - (y[il] - c * x[il])
        best = min(best, width)
    return best / 2.0


def min_pieces(
    f: Callable[[float], float],
    interval: tuple[float, float],
    eps: float,
    grid_n: int,
) -> int:
    """Greedy free-knot count of linear pieces achieving sup error eps on the
    discretized interval.

    Each piece is extended as far as possible before starting the next one;
    for interval covering, greedy maximal extension uses the fewest pieces.
    Raises when a piece would span fewer than 10 grid points.
    """
    a, b = _interval(interval)
    if not eps > 0:
        raise ValueError("tolerance must be positive")
    if grid_n < 2:
        raise ValueError("need at least two grid points")
    xs = np.linspace(a, b, grid_n)
    ys = np.asarray([f(float(x)) for x in xs])
    last = grid_n - 1

    def fits(end: int) -> bool:
        return minimax_line_error(xs[start : end + 1], ys[start : end + 1]) <= eps

    count, start, guess = 0, 0, 2
    while start < last:
        # gallop from the previous piece's length, then bisect; lo always
        # fits (two points do) and a window that fits still fits shortened
        lo, hi, step = start + 1, min(last, start + guess), 1
        while hi > lo and fits(hi):
            lo, hi, step = hi, min(last, hi + step), 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        if lo - start < 10 and lo < last:
            raise ResolutionError(
                f"piece {count} spans only {lo - start} grid points; "
                "refine the grid"
            )
        count += 1
        guess, start = lo - start, lo
    return count


def asymptotic_piece_constant(
    second_derivative: Callable[[float], float],
    interval: tuple[float, float],
) -> float:
    """The constant c = (1/4) * integral of sqrt|f''| governing the free-knot
    piece count s(eps) ~ c / sqrt(eps)."""
    # imported here, its only use: loading scipy costs a process about 50 MB
    from scipy.integrate import quad

    a, b = _interval(interval)
    # full_output keeps quad's multi-line warning off stderr; failure is
    # judged by the error estimate below
    value, abserr = quad(
        lambda x: math.sqrt(abs(second_derivative(x))),
        a,
        b,
        epsrel=1e-8,
        limit=200,
        full_output=1,
    )[:2]
    if abserr > 1e-6 * max(1.0, abs(value)):
        raise ResolutionError(
            f"quadrature failed to converge: estimate {value} +- {abserr}"
        )
    return value / 4.0


# --- covering / packing demos ------------------------------------------------------


# the demos hold all their points at once: 10^7 float64 values take 80 MB
MAX_DEMO_COUNT = 10 ** 7


def _floor_count(x: float, eps: float) -> int:
    """floor(x) for a count x derived from eps; ValueError above MAX_DEMO_COUNT."""
    if x > MAX_DEMO_COUNT:  # an overflowed x is inf
        raise ValueError(f"tolerance {eps!r} too small: count above {MAX_DEMO_COUNT}")
    return math.floor(x)


def cover_interval(eps: float) -> np.ndarray:
    """Centers -1 + 2*(i-1)*eps, i = 1..floor(1/eps)+1, plus the endpoint 1
    when the last of them lies more than eps below it: every point of [-1, 1]
    lies within eps of one of at most floor(1/eps) + 2 centers."""
    if not 0.0 < eps < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    count = _floor_count(1.0 / eps, eps) + 1
    centers = -1.0 + 2.0 * eps * np.arange(count)
    if 1.0 - centers[-1] > eps + 1e-12:
        centers = np.append(centers, 1.0)
    if not (
        centers[0] - (-1.0) <= eps + 1e-12
        and 1.0 - centers[-1] <= eps + 1e-12
        and np.all(np.diff(centers) <= 2.0 * eps + 1e-12)
    ):
        raise AssertionError(f"centers for radius {eps} do not cover [-1, 1]")
    return centers


def pack_interval(eps: float) -> np.ndarray:
    """Maximal set of points in [-1, 1] with pairwise distances > eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError("separation must lie in (0, 1)")
    count = _floor_count(2.0 / eps, eps) + 1
    if (count - 1) * eps >= 2.0:
        count -= 1
    return np.linspace(-1.0, 1.0, count)


def pack_exp_family(eps: float) -> np.ndarray:
    """Packing of the class {x -> 1 - exp(-theta x), theta in [0, 1]} under
    the sup norm: theta_0 = 0 and theta_i = -ln(1 - eps*i) while <= 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("separation must lie in (0, 1)")
    top = _floor_count((1.0 - 1.0 / math.e) / eps, eps)
    thetas = [0.0]
    for i in range(1, top + 1):
        thetas.append(-math.log(1.0 - eps * i))
    out = np.asarray(thetas)
    # class values at x = 1 are eps * i, so all pairs are eps-separated
    vals = 1.0 - np.exp(-out)
    if np.any(np.diff(vals) < eps - 1e-12):
        raise AssertionError(f"packing for separation {eps} is not separated")
    return out


def cover_exp_family(eps: float) -> np.ndarray:
    """Covering of the same class: theta_i = 2*eps*i up to floor(1/(2 eps)),
    plus the endpoint theta = 1 when the last of them lies below it."""
    if not 0.0 < eps < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    top = _floor_count(1.0 / (2.0 * eps), eps)
    thetas = 2.0 * eps * np.arange(top + 1)
    if thetas[-1] < 1.0:
        thetas = np.append(thetas, 1.0)
    # sup over x in [0, 1] of |e^(-s x) - e^(-t x)| is at most |s - t|
    gaps = np.diff(thetas)
    if not (
        np.all(gaps > 0)
        and np.all(gaps <= 2.0 * eps + 1e-12)
        and 1.0 - thetas[-1] <= eps + 1e-12
    ):
        raise AssertionError(f"centers for radius {eps} do not cover [0, 1]")
    return thetas
