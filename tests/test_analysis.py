import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucalc import analysis, evaluate_batch, network
from relucalc.analysis import (
    ResolutionError,
    asymptotic_piece_constant,
    count_linear_regions,
    cover_exp_family,
    cover_interval,
    error_report,
    exact_pwl,
    min_pieces,
    minimax_line_error,
    pack_exp_family,
    pack_interval,
    region_bound,
)
from relucalc.constructors import (
    gaussian_network,
    sawtooth_network,
    square_interpolant_network,
    weierstrass_reference,
)
from conftest import random_net


# --- exact piecewise form ------------------------------------------------------------


def test_pwl_of_hat(hat_net):
    pwl = exact_pwl(hat_net, (-1.0, 2.0))
    interior = pwl.breakpoints[1:-1]
    np.testing.assert_allclose(interior, [0.0, 0.5, 1.0], atol=1e-12)
    assert pwl.piece_count() == 4


def test_pwl_of_double_hat(hat_net):
    saw = sawtooth_network(2)
    pwl = exact_pwl(saw, (0.0, 1.0))
    assert pwl.piece_count() == 4


def test_pwl_of_affine():
    net = network([([[3.0]], [-1.0])])
    pwl = exact_pwl(net, (0.0, 1.0))
    assert pwl.piece_count() == 1


def test_pwl_matches_evaluate(hat_net):
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = random_net(rng, in_dim=1, out_dim=1)
        pwl = exact_pwl(net, (-2.0, 2.0))
        xs = rng.uniform(-2.0, 2.0, size=10_000)
        want = evaluate_batch(net, xs.reshape(-1, 1))[:, 0]
        assert np.max(np.abs(pwl(xs) - want)) <= 1e-9


def test_pwl_matches_evaluate_on_plateau_gate():
    # gaussian_network is gated to exact zero outside [-5, 5] at eps = 0.1
    net = gaussian_network(1, 0.1)
    pwl = exact_pwl(net, (-6.0, 6.0))
    xs = np.random.default_rng(3).uniform(-6.0, 6.0, size=5_000)
    got = pwl(xs)
    want = evaluate_batch(net, xs.reshape(-1, 1))[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12
    outside = np.abs(xs) > 5.0
    assert np.all(got[outside] == 0.0) and np.all(want[outside] == 0.0)


def test_pwl_rejects_multidim():
    rng = np.random.default_rng(1)
    net = random_net(rng, in_dim=2, out_dim=1)
    with pytest.raises(Exception):
        exact_pwl(net, (0.0, 1.0))


def _relu_pass_by_interp(grid, vals):
    # the former _relu_pass: union of grid and crossings, merge rule, then one
    # np.interp per neuron over the whole merged grid
    v0, v1 = vals[:, :-1], vals[:, 1:]
    rows, idx = np.nonzero((v0 < 0) & (v1 > 0) | (v0 > 0) & (v1 < 0))
    if idx.size:
        v0, v1 = v0[rows, idx], v1[rows, idx]
        x0, x1 = grid[idx], grid[idx + 1]
        merged = np.union1d(grid, x0 + (x1 - x0) * (v0 / (v0 - v1)))
        keep = np.empty(merged.shape, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(merged) > analysis.BREAK_MERGE_TOL
        merged = merged[keep]
        new_vals = np.empty((vals.shape[0], merged.size))
        for new_row, row in zip(new_vals, vals):
            new_row[:] = np.interp(merged, grid, row)
        grid, vals = merged, new_vals
    return grid, np.maximum(vals, 0.0)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_relu_pass_matches_per_neuron_interp_on_random_nets(monkeypatch):
    rng = np.random.default_rng(11)
    nets = [random_net(rng, in_dim=1, out_dim=1) for _ in range(60)]
    nets += [sawtooth_network(s) for s in (3, 7)]
    for net in nets:
        got = exact_pwl(net, (-3.0, 3.0))
        with monkeypatch.context() as m:
            m.setattr(analysis, "_relu_pass", _relu_pass_by_interp)
            want = exact_pwl(net, (-3.0, 3.0))
        _assert_same_bits(
            (got.breakpoints, got.values), (want.breakpoints, want.values)
        )


TOL = analysis.BREAK_MERGE_TOL
HAND_MADE = {
    # crossings of [0, 1] and [1, 2] that round onto x1 and onto x0
    "onto_grid": ([0.0, 1.0, 2.0], [[1.0, -1e-17, 3.0], [-3.0, 1e-17, -1.0]]),
    # a crossing 0.5 TOL before the old point 1.0 drops that point
    "drops_old": ([0.0, 1.0, 2.0], [[1.0, -TOL / 2, 1.0], [2.0, 1.0, -1.0]]),
    # a crossing 0.5 TOL after the old point 1.0 is dropped
    "drops_crossing": ([0.0, 1.0, 2.0], [[1.0, 1.0, -1.0], [1.0, TOL / 2, -1.0]]),
    # two neurons crossing at nearly the same point, and exact zeros
    "near_pair": (
        [-1.0, 0.5, 3.0],
        [[-1.0, 1.0, 0.0], [-1.0 - 1e-13, 1.0, 0.0], [0.0, -2.0, 4.0]],
    ),
    "no_crossing": ([0.0, 1.0], [[1.0, 2.0], [0.0, -1.0]]),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_relu_pass_matches_per_neuron_interp_on_hand_made_grids(case):
    grid, vals = (np.array(a, dtype=np.float64) for a in HAND_MADE[case])
    want = _relu_pass_by_interp(grid, vals)
    _assert_same_bits(analysis._relu_pass(grid.copy(), vals.copy()), want)


def test_relu_pass_matches_per_neuron_interp_on_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        grid = np.unique(rng.uniform(-1.0, 1.0, size=n))
        vals = rng.normal(size=(int(rng.integers(1, 6)), grid.size))
        vals[rng.uniform(size=vals.shape) < 0.1] = 0.0
        want = _relu_pass_by_interp(grid, vals)
        _assert_same_bits(analysis._relu_pass(grid.copy(), vals.copy()), want)


def test_pwl_keeps_right_end_next_to_a_crossing():
    # the first neuron crosses zero 5e-13 before b; the crossing is dropped
    # and b keeps its own value
    net = network([([[1.0]], [-(1 - 5e-13)]), ([[1.0]], [0.0])])
    pwl = exact_pwl(net, (0.0, 1.0))
    assert pwl.breakpoints[-1] == 1.0
    want = evaluate_batch(net, np.array([[1.0]]))[0, 0]
    assert pwl.values[-1] == want
    assert want > 4e-13


def test_pwl_of_crossing_inside_tiny_interval():
    net = network([([[1.0]], [-5e-14]), ([[1.0]], [0.0])])
    pwl = exact_pwl(net, (0.0, 1e-13))
    assert pwl.breakpoints.tolist() == [0.0, 1e-13]
    want = evaluate_batch(net, pwl.breakpoints.reshape(-1, 1))[:, 0]
    assert np.array_equal(pwl.values, want)


# --- region counting --------------------------------------------------------------------


def test_sawtooth_region_counts():
    for s in range(1, 9):
        count, bound = count_linear_regions(sawtooth_network(s), (0.0, 1.0))
        assert count == 2 ** s
        assert count <= bound
        assert bound == 6 ** (s + 1)


def test_constant_net_single_region():
    net = network([([[0.0]], [2.0])])
    count, _ = count_linear_regions(net, (0.0, 1.0))
    assert count == 1


def test_random_nets_respect_region_bound():
    rng = np.random.default_rng(2)
    for _ in range(25):
        net = random_net(rng, in_dim=1, out_dim=1)
        count, bound = count_linear_regions(net, (-3.0, 3.0))
        assert count <= bound == region_bound(net)


# --- error reports -------------------------------------------------------------------


def test_sup_error_zero_for_self(hat_net):
    pwl = exact_pwl(hat_net, (0.0, 1.0))
    report = error_report(hat_net, pwl, (0.0, 1.0), 101)
    assert report.sup_error <= 1e-12


def test_sup_error_square_tightness():
    net = square_interpolant_network(1)
    report = error_report(net, lambda x: x * x, (0.0, 1.0), 1001)
    assert abs(report.sup_error - 1.0 / 16.0) <= 1e-12


def test_sup_error_outside_support(hat_net):
    report = error_report(hat_net, lambda x: 0.0, (2.0, 3.0), 101)
    assert report.sup_error == 0.0


def test_l2_error_2d():
    # product trapezoid weights on a 2-D box
    net = network([([[1.0, 1.0]], [0.0])])
    report = error_report(net, lambda x, y: 0.0, [(0.0, 1.0), (0.0, 1.0)], 41)
    # integral of (x+y)^2 over the unit square is 7/6
    assert abs(report.l2_error - math.sqrt(7.0 / 6.0)) <= 2e-3


# --- minimax line fitting ----------------------------------------------------------------


def brute_minimax(xs, ys):
    best = math.inf
    cs = np.linspace(-30, 30, 4001)
    for c in cs:
        r = ys - c * xs
        best = min(best, (r.max() - r.min()) / 2.0)
    return best


def test_minimax_collinear_points():
    xs = np.linspace(0, 1, 20)
    assert minimax_line_error(xs, 3.0 * xs - 1.0) == 0.0


def test_minimax_parabola_window():
    # best line on [0, h] misses x^2 by h^2 / 8
    xs = np.linspace(0.0, 1.0, 401)
    err = minimax_line_error(xs, xs ** 2)
    assert abs(err - 1.0 / 8.0) <= 1e-6


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_minimax_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    xs = np.sort(rng.uniform(-2, 2, size=n))
    xs += 1e-6 * np.arange(n)  # enforce strict increase
    ys = rng.uniform(-5, 5, size=n)
    exact = minimax_line_error(xs, ys)
    approx = brute_minimax(xs, ys)
    assert exact <= approx + 1e-9
    assert exact >= approx - 1e-2  # coarse slope grid overshoots slightly


# --- free-knot pieces ---------------------------------------------------------------------


def test_min_pieces_linear_function():
    for eps in (1e-1, 1e-3, 1e-6):
        assert min_pieces(lambda x: 2.0 * x - 1.0, (0.0, 1.0), eps, 10_001) == 1


def test_min_pieces_square():
    count = min_pieces(lambda x: x * x, (0.0, 1.0), 1e-4, 40_001)
    assert abs(count - 36) <= 2


def test_min_pieces_large_tolerance():
    assert min_pieces(lambda x: x * x, (0.0, 1.0), 2.0, 1001) == 1


def test_min_pieces_resolution_guard():
    with pytest.raises(ResolutionError):
        min_pieces(lambda x: math.sin(40.0 * x), (0.0, 6.0), 1e-6, 301)


@pytest.mark.parametrize(
    "eps, grid_n, match",
    [
        (-1.0, 101, "tolerance"),
        (math.nan, 101, "tolerance"),
        (1e-2, 1, "two grid points"),
        (1e-2, -5, "two grid points"),
    ],
)
def test_min_pieces_rejects_bad_tolerance_and_grid(eps, grid_n, match):
    with pytest.raises(ValueError, match=match):
        min_pieces(lambda x: x * x, (0.0, 1.0), eps, grid_n)


def test_min_pieces_scaling_constant():
    c = asymptotic_piece_constant(lambda x: 2.0, (0.0, 1.0))
    for eps in (1e-4, 1e-5):
        count = min_pieces(lambda x: x * x, (0.0, 1.0), eps, 200_001)
        assert abs(count * math.sqrt(eps) - c) <= 0.15 * c


def weierstrass_partial(x):
    return weierstrass_reference(0.4, 3.0, x, 8)


# a greedy count depends only on where each piece's furthest fitting end
# lies, not on how the search finds it
@pytest.mark.parametrize(
    "f, eps, grid_n, count",
    [
        (lambda x: x * x, 1e-5, 100_001, 112),
        (lambda x: math.cos(20.0 * x), 1e-4, 100_001, 386),
        (weierstrass_partial, 1e-2, 20_001, 149),
        (weierstrass_partial, 1e-3, 100_001, 1458),
    ],
    ids=["square", "cos20x", "weierstrass-1e-2", "weierstrass-1e-3"],
)
def test_min_pieces_pinned_counts(f, eps, grid_n, count):
    assert min_pieces(f, (0.0, 1.0), eps, grid_n) == count


def test_min_pieces_search_starts_from_previous_length(monkeypatch):
    calls = []
    fit = analysis.minimax_line_error

    def counted(xs, ys):
        calls.append(len(xs))
        return fit(xs, ys)

    monkeypatch.setattr(analysis, "minimax_line_error", counted)
    count = min_pieces(lambda x: x * x, (0.0, 1.0), 1e-4, 40_001)
    assert count == 36
    # about 2.5 fits per piece; a search that restarts from two points at
    # every piece needs about 20
    assert len(calls) <= 4 * count


def linear_scan_pieces(f, interval, eps, grid_n):
    """Greedy piece count that extends each piece one grid point at a time."""
    xs = np.linspace(*interval, grid_n)
    ys = np.asarray([f(float(x)) for x in xs])
    count, start = 0, 0
    while start < grid_n - 1:
        end = start + 1
        while (
            end < grid_n - 1
            and minimax_line_error(xs[start : end + 2], ys[start : end + 2]) <= eps
        ):
            end += 1
        count += 1
        start = end
    return count


@pytest.mark.parametrize("seed", range(6))
def test_min_pieces_matches_linear_scan(seed):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-1.0, 1.0, 3)
    freqs = rng.uniform(1.0, 8.0, 3)
    phases = rng.uniform(0.0, 2.0 * math.pi, 3)

    def f(x):
        return sum(c * math.sin(w * x + p) for c, w, p in zip(amps, freqs, phases))

    eps = float(rng.choice([1e-2, 1e-3, 1e-4]))
    grid_n = int(rng.integers(500, 3001))
    want = linear_scan_pieces(f, (0.0, 2.0), eps, grid_n)
    assert min_pieces(f, (0.0, 2.0), eps, grid_n) == want


# --- asymptotic constant --------------------------------------------------------------------


def test_constant_for_square():
    c = asymptotic_piece_constant(lambda x: 2.0, (0.0, 1.0))
    assert abs(c - math.sqrt(2.0) / 4.0) <= 1e-9


def test_constant_for_linear():
    assert asymptotic_piece_constant(lambda x: 0.0, (0.0, 1.0)) == 0.0


def test_constant_for_cosine():
    c = asymptotic_piece_constant(lambda x: -math.cos(x), (0.0, math.pi))
    xs = np.linspace(0.0, math.pi, 2_000_001)
    want = np.trapezoid(np.sqrt(np.abs(np.cos(xs))), xs) / 4.0
    assert abs(c - want) <= 1e-6


# --- covering / packing -----------------------------------------------------------------------


def test_cover_interval_counts():
    centers = cover_interval(0.1)
    assert len(centers) == 11
    assert centers[0] == -1.0
    assert abs(centers[-1] - 1.0) <= 1e-12


def test_cover_interval_covers():
    for eps in (0.3, 0.1, 0.07):
        centers = cover_interval(eps)
        xs = np.linspace(-1, 1, 2001)
        dist = np.min(np.abs(xs[:, None] - centers[None, :]), axis=1)
        assert dist.max() <= eps + 1e-12


@given(st.floats(1e-3, 1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_cover_interval_covers_any_radius(eps):
    centers = cover_interval(eps)
    assert len(centers) <= math.floor(1.0 / eps) + 2
    xs = np.linspace(-1.0, 1.0, 20_001)
    pos = np.clip(np.searchsorted(centers, xs), 1, len(centers) - 1)
    dist = np.minimum(np.abs(xs - centers[pos - 1]), np.abs(xs - centers[pos]))
    assert dist.max() <= eps + 1e-12


@pytest.mark.parametrize(
    "fn", [cover_interval, pack_interval, pack_exp_family, cover_exp_family]
)
def test_tolerance_whose_count_overflows_is_value_error(fn):
    # 1/5e-324 overflows to inf; 1/1e-308 is finite but ~1e308 points
    for eps in (5e-324, 1e-308):
        with pytest.raises(ValueError, match="too small"):
            fn(eps)


def test_pack_interval_is_separated():
    for eps in (0.3, 0.1, 0.05):
        pts = pack_interval(eps)
        gaps = np.diff(pts)
        assert gaps.min() > eps
        assert pts[0] >= -1.0 and pts[-1] <= 1.0


def test_pack_exp_family_count():
    thetas = pack_exp_family(0.1)
    assert len(thetas) == 7  # floor((1 - 1/e)/0.1) = 6 interior plus zero
    assert thetas[0] == 0.0
    assert thetas.max() <= 1.0 + 1e-12


def test_pack_exp_family_separation():
    eps = 0.1
    thetas = pack_exp_family(eps)
    # pairwise sup distance at x=1 equals eps * |i - j|
    vals = 1.0 - np.exp(-thetas)
    for i in range(len(thetas)):
        for j in range(i):
            assert abs(vals[i] - vals[j]) >= eps * (i - j) - 1e-12


def test_sandwich_interval():
    for eps in (0.2, 0.1, 0.05):
        assert len(pack_interval(2 * eps)) <= len(cover_interval(eps))
        assert len(cover_interval(eps)) <= len(pack_interval(eps))


def test_sandwich_exp_family():
    for eps in (0.2, 0.1, 0.05):
        assert len(pack_exp_family(2 * eps)) <= len(cover_exp_family(eps))
        assert len(cover_exp_family(eps)) <= len(pack_exp_family(eps))
