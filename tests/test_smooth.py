import math

import numpy as np
import pytest

from relucalc import metrics, network
from relucalc.constructors import (
    SmoothDescriptor,
    chebyshev_expand,
    chebyshev_nodes,
    chebyshev_to_monomial,
    hat_partition_networks,
    interpolation_degree,
    smooth_network,
    smooth_network_general,
    stitch_networks,
)

from conftest import grid_eval


def inv_two_minus_x(x):
    # derivatives n!/(2-x)^(n+1), all bounded by n! on [-1, 1]
    return 1.0 / (2.0 - x)


# --- chebyshev machinery ---------------------------------------------------------


def test_expand_linear_function():
    f = SmoothDescriptor(lambda x: x, (-1.0, 1.0), "x")
    exp = chebyshev_expand(f, 1)
    np.testing.assert_allclose(exp.coeffs, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(exp.monomial_coeffs, [0.0, 1.0], atol=1e-15)


def test_t3_monomial_coefficients():
    # hand recursion: T_3 = 4x^3 - 3x
    mono = chebyshev_to_monomial([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(mono, [0.0, -3.0, 0.0, 4.0])


def test_t2_monomial_bound():
    mono = chebyshev_to_monomial([0.0, 0.0, 1.0])
    assert np.max(np.abs(mono)) <= 3.0 ** 2


def test_monomial_conversion_matches_numpy():
    rng = np.random.default_rng(0)
    for m in (0, 1, 4, 9):
        c = rng.uniform(-1, 1, size=m + 1)
        got = chebyshev_to_monomial(c)
        want = np.polynomial.chebyshev.cheb2poly(c)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_monomial_growth_bound():
    rng = np.random.default_rng(1)
    for m in (3, 7, 12):
        c = rng.uniform(-2, 2, size=m + 1)
        mono = chebyshev_to_monomial(c)
        assert np.max(np.abs(mono)) <= 2 * (m + 1) * 3.0 ** m


def test_expand_coefficient_decay_for_trusted_function():
    f = SmoothDescriptor(inv_two_minus_x, (-1.0, 1.0), "1/(2-x)")
    exp = chebyshev_expand(f, 12)
    assert max(abs(c) for c in exp.coeffs) <= 2.0 + 1e-9


def test_expand_interpolates_at_nodes():
    f = SmoothDescriptor(lambda x: math.exp(-x) / 3, (-1.0, 1.0))
    m = 9
    exp = chebyshev_expand(f, m)
    nodes = chebyshev_nodes(m)
    vals = np.polyval(np.asarray(exp.monomial_coeffs)[::-1], nodes)
    want = np.array([f.evaluator(x) for x in nodes])
    np.testing.assert_allclose(vals, want, atol=1e-12)


def test_expand_rejects_other_intervals():
    f = SmoothDescriptor(lambda x: x, (0.0, 2.0))
    with pytest.raises(ValueError):
        chebyshev_expand(f, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "interval", [(0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0), (2.0, 1.0)]
)
def test_descriptor_rejects_empty_or_infinite_interval(interval):
    with pytest.raises(ValueError, match="empty interval|infinite end"):
        SmoothDescriptor(lambda x: 0.0, interval)


# --- smooth networks --------------------------------------------------------------


def test_interpolation_degree():
    assert interpolation_degree(1e-3) == 11


def test_smooth_network_error():
    f = SmoothDescriptor(inv_two_minus_x, (-1.0, 1.0), "1/(2-x)")
    for eps in (1e-2, 1e-4):
        net = smooth_network(f, eps)
        xs = np.linspace(-1, 1, 4001)
        err = np.abs(grid_eval(net, xs) - 1.0 / (2.0 - xs))
        assert err.max() <= eps + 1e-12
        m = metrics(net)
        assert m.width <= 9
        assert m.weight_magnitude <= 1.0


def test_smooth_network_zero_function():
    f = SmoothDescriptor(lambda x: 0.0, (-1.0, 1.0), "0")
    net = smooth_network(f, 1e-2)
    xs = np.linspace(-1, 1, 501)
    assert np.max(np.abs(grid_eval(net, xs))) <= 1e-2


def test_smooth_network_identity():
    f = SmoothDescriptor(lambda x: x, (-1.0, 1.0), "x")
    net = smooth_network(f, 1e-2)
    xs = np.linspace(-1, 1, 501)
    assert np.max(np.abs(grid_eval(net, xs) - xs)) <= 1e-9


# --- hats and stitching ------------------------------------------------------------


def test_hats_sum_to_one():
    knots = [0.0, 1.0, 2.5, 3.0, 4.5, 5.0]
    hats = hat_partition_networks(knots)
    xs = np.linspace(knots[1], knots[-2], 801)
    total = sum(grid_eval(h, xs) for h in hats)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    for h in hats:
        m = metrics(h)
        assert m.weight_magnitude <= 1.0
        assert m.width <= 3


def test_at_most_two_hats_active():
    knots = [0.0, 1.0, 2.0, 3.0, 4.0]
    hats = hat_partition_networks(knots)
    xs = np.linspace(0.0, 4.0, 401)
    active = sum(
        (np.abs(grid_eval(h, xs)) > 1e-12).astype(int) for h in hats
    )
    assert active.max() <= 2


def test_stitch_constant_pieces():
    c = 0.7
    knots = [0.0, 1.0, 2.0, 3.0, 4.0]
    const_net = network([([[0.0]], [c])])
    eps = 1e-2
    stitched = stitch_networks([const_net] * 3, knots, eps, f_bound=1.0)
    xs = np.linspace(knots[1], knots[-2], 501)
    assert np.max(np.abs(grid_eval(stitched, xs) - c)) <= eps


def test_stitch_needs_enough_pieces():
    const_net = network([([[0.0]], [1.0])])
    with pytest.raises(ValueError):
        stitch_networks([const_net], [0.0, 1.0, 2.0], 1e-2, 1.0)


def test_stitch_rejects_bad_knots():
    const_net = network([([[0.0]], [1.0])])
    with pytest.raises(ValueError):
        stitch_networks([const_net] * 2, [0.0, 2.0, 1.0, 3.0], 1e-2, 1.0)


# --- general intervals ---------------------------------------------------------------


def test_general_interval_exponential():
    f = SmoothDescriptor(lambda y: math.exp(-y), (0.0, 9.0), "exp(-y)")
    eps = 1e-2
    net = smooth_network_general(f, eps)
    xs = np.linspace(0.0, 9.0, 8001)
    err = np.abs(grid_eval(net, xs) - np.exp(-xs))
    assert err.max() <= eps
    m = metrics(net)
    assert m.width <= 16
    assert m.weight_magnitude <= 1.0


def test_general_interval_degenerate_matches_core():
    f = SmoothDescriptor(inv_two_minus_x, (-1.0, 1.0), "1/(2-x)")
    eps = 1e-3
    gen = smooth_network_general(f, eps)
    core = smooth_network(f, eps)
    xs = np.linspace(-1, 1, 1001)
    np.testing.assert_allclose(grid_eval(gen, xs), grid_eval(core, xs), atol=1e-12)


def test_general_interval_constant():
    f = SmoothDescriptor(lambda y: 1.0, (0.0, 5.0), "1")
    eps = 5e-3
    net = smooth_network_general(f, eps)
    xs = np.linspace(0.0, 5.0, 2001)
    assert np.max(np.abs(grid_eval(net, xs) - 1.0)) <= eps


def test_general_interval_short():
    f = SmoothDescriptor(lambda y: math.sin(y) / 2, (2.0, 3.0), "sin/2")
    eps = 1e-3
    net = smooth_network_general(f, eps)
    xs = np.linspace(2.0, 3.0, 2001)
    assert np.max(np.abs(grid_eval(net, xs) - np.sin(xs) / 2)) <= eps
