import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relucalc import (
    DimensionError,
    analysis,
    compose,
    evaluate_batch,
    network,
    parallelize_shared,
)
from relucalc.analysis import (
    ResolutionError,
    asymptotic_piece_constant,
    count_linear_regions,
    cover_exp_family,
    cover_interval,
    dead_rows,
    error_report,
    exact_pwl,
    min_pieces,
    minimax_line_error,
    pack_exp_family,
    pack_interval,
    region_bound,
)
from relucalc.constructors import (
    bspline_network,
    cardinal_bspline,
    cosine_network,
    gaussian_network,
    multiply_network,
    sawtooth_network,
    square_interpolant_network,
    square_network,
    weierstrass_network,
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


def test_pwl_refuses_more_values_than_the_cap(monkeypatch):
    # sawtooth_network(12) ends with 2 rows at 4097 breakpoints
    net = sawtooth_network(12)
    assert net.layers[-2].out_dim == 2
    assert len(exact_pwl(net, (0.0, 1.0)).breakpoints) == 4097
    monkeypatch.setattr(analysis, "MAX_PWL_VALUES", 8_000)
    with pytest.raises(ResolutionError, match="MAX_PWL_VALUES"):
        exact_pwl(net, (0.0, 1.0))


def test_cos30_stays_well_under_the_pwl_cap():
    net = cosine_network(30, 1, 1e-2)
    count = len(exact_pwl(net, (-1.0, 1.0)).breakpoints)
    assert max(net.dims) * count <= analysis.MAX_PWL_VALUES // 10


# --- dead rows ---------------------------------------------------------------------


def _three_kinds_of_row():
    """Layer 0: rho(x), rho(x - 1), rho(x - 5); layer 1: rho(-a - 1), 0 on R,
    and rho(-a + 2b - 1), which is <= 0 at the breakpoints 0 and 1 and
    rises past 3.  rho(x - 5) is 0 on [-1, 2] only."""
    return network(
        [
            ([[1.0], [1.0], [1.0]], [0.0, -1.0, -5.0]),
            ([[-1.0, 0.0, 0.0], [-1.0, 2.0, 0.0]], [-1.0, -1.0]),
            ([[1.0, 1.0]], [0.0]),
        ]
    )


def test_dead_rows_on_an_interval_and_on_r():
    net = _three_kinds_of_row()
    assert dead_rows(net, (-1.0, 2.0)) == [(0, 2), (1, 0), (1, 1)]
    assert dead_rows(net) == [(1, 0)]
    # a row that rises to the left of every breakpoint is alive on R too
    mirrored = compose(net, network([([[-1.0]], [0.0])]))
    assert dead_rows(mirrored) == [(1, 0)]


def test_dead_rows_numbers_rows_as_the_layers_do():
    # layer 1 holds a copy of rho(x - 5), 2 rho(x) and rho(x - 5) - rho(x),
    # which is <= 0 on R; the plan stores them in the opposite order
    net = network(
        [
            ([[1.0], [1.0]], [0.0, -5.0]),
            ([[0.0, 1.0], [2.0, 0.0], [-1.0, 1.0]], [0.0, 0.0, 0.0]),
            ([[1.0, 1.0, 1.0]], [0.0]),
        ]
    )
    step = net._plan.steps[1]
    copies = [run[:2] for run in step.runs if run[0] >= len(step.bias)]
    assert copies == [(2, 3)]
    assert [run[:2] for run in step.runs if run[5] is not None] == [(0, 1)]
    assert dead_rows(net, (-1.0, 6.0)) == [(1, 2)]
    assert dead_rows(net) == [(1, 2)]
    # on (-1, 2) the copy's source is 0 too
    assert dead_rows(net, (-1.0, 2.0)) == [(0, 1), (1, 0), (1, 2)]


def test_dead_rows_on_r_gives_up_on_rounding_noise():
    # rows constant in exact arithmetic have noisy end slopes, whose implied
    # crossings move out with every widening; a finite interval has no ends
    net = gaussian_network(1, 1e-1)
    with pytest.raises(ResolutionError, match="after 40 widenings"):
        dead_rows(net)
    assert len(dead_rows(net, (-8.0, 8.0))) == 38


def test_dead_rows_needs_a_1d_network():
    with pytest.raises(DimensionError):
        dead_rows(multiply_network(1.0, 1e-2))


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: cosine_network(100, 1, 1e-2), 16),
        (lambda: cosine_network(30, 1, 1e-2), 16),
        (lambda: weierstrass_network(0.4, 3, 1, 1e-1), 41),
    ],
    ids=["cos100", "cos30", "weier"],
)
def test_dead_rows_left_on_r(build, count):
    # the rows that stay are 0 on R only by bounds that rounding can break:
    # the first tent's rho(g - 1), and the multiplier rows of stages >= 2
    # of each cosine core, which rest on 0 <= z_i <= x (see CHANGES.md)
    assert len(dead_rows(build())) == count


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


def test_error_report_rejects_several_outputs():
    # output 1 is 5x^2 and misses x^2 by 4 at x = 1; reading output 0 alone
    # would report the squaring error only
    sq = square_network(1e-2)
    net = parallelize_shared([sq, compose(network([([[5.0]], [0.0])]), sq)])
    with pytest.raises(DimensionError, match="one-output"):
        error_report(net, lambda x: x * x, (0.0, 1.0), 1001)


def test_error_report_rejects_a_domain_of_other_dimension():
    net = network([([[1.0]], [0.0])])
    with pytest.raises(DimensionError, match="domain has 2 axes, network expects 1"):
        error_report(net, lambda x: x, [(0.0, 1.0), (0.0, 1.0)], 11)


def test_error_report_rejects_a_one_point_grid():
    net = network([([[1.0]], [0.0])])
    with pytest.raises(ValueError, match="need at least two grid points") as caught:
        error_report(net, lambda x: x, (0.0, 1.0), 1)
    assert caught.type is ValueError


def _listed_error_report(net, reference, domain, grid_n):
    # error_report as it was when it built its reference values as a list
    boxes, axes, pts = analysis._eval_grid(net, domain, grid_n)
    got = evaluate_batch(net, pts)[:, 0]
    want = np.asarray([reference(*p) for p in pts.tolist()])
    err = got - want
    sup_idx = int(np.argmax(np.abs(err)))
    l2 = math.sqrt(float(np.sum(analysis._quad_weights(axes) * err ** 2)))
    return float(np.abs(err[sup_idx])), l2, tuple(float(x) for x in pts[sup_idx])


@pytest.mark.parametrize(
    "build, reference, domain, grid_n",
    [
        (lambda: cosine_network(30, 1, 1e-2), lambda x: math.cos(30.0 * x),
         (-1.0, 1.0), 100_001),
        (lambda: bspline_network(3, 1e-3), lambda x: cardinal_bspline(3, x),
         (-2.0, 5.0), 20_001),
        (lambda: multiply_network(1, 1e-4), lambda x, y: x * y,
         [(-1.0, 1.0)] * 2, 301),
        (lambda: square_network(1e-3), lambda x: round(10 * x), (-1.0, 2.0), 1001),
    ],
    ids=["cos30", "bspline3", "mult", "int_reference"],
)
def test_error_report_is_bitwise_the_listed_form(build, reference, domain, grid_n):
    net = build()
    report = error_report(net, reference, domain, grid_n)
    got = (report.sup_error, report.l2_error, report.argmax)
    assert got == _listed_error_report(net, reference, domain, grid_n)


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


def test_scipy_is_loaded_only_by_the_piece_constant():
    script = (
        "import math, sys\n"
        "import relucalc, relucalc.cli, relucalc.analysis, relucalc.constructors\n"
        "import relucalc.quantcode\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded at import'\n"
        "c = relucalc.analysis.asymptotic_piece_constant(lambda x: 2.0, (0.0, 1.0))\n"
        "assert abs(c - math.sqrt(2) / 4) <= 1e-9, c\n"
    )
    src = str(Path(analysis.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr


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


@given(st.floats(1e-3, 1.0, exclude_max=True))
@example(0.5)
@example(0.25)
@example(0.1)
@example(0.05)
@settings(max_examples=200, deadline=None)
def test_cover_exp_family_covers_any_radius(eps):
    thetas = cover_exp_family(eps)
    assert len(thetas) <= math.floor(1.0 / (2.0 * eps)) + 2
    assert thetas[0] == 0.0 and thetas[-1] == 1.0
    assert np.all(np.diff(thetas) > 0)
    ts = np.linspace(0.0, 1.0, 20_001)
    pos = np.clip(np.searchsorted(thetas, ts), 1, len(thetas) - 1)
    dist = np.minimum(np.abs(ts - thetas[pos - 1]), np.abs(ts - thetas[pos]))
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
