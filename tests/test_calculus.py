import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucalc import (
    DimensionError,
    affine_network,
    compose,
    evaluate,
    evaluate_batch,
    evaluate_scalar,
    extend_depth,
    identity_network,
    is_nondegenerate,
    linear_combination,
    linear_combination_shared,
    metrics,
    network,
    parallelize,
    parallelize_shared,
    prune,
    reduce_weights,
    scalar_mult_network,
    sum_finite_width,
)
from conftest import assert_close_rel, random_net


@pytest.fixture
def hat(hat_net):
    return hat_net


# --- compose ------------------------------------------------------------------


def test_compose_hat_twice(hat):
    gg = compose(hat, hat)
    assert evaluate_scalar(gg, 0.25) == 1.0  # g(0.25)=0.5, g(0.5)=1
    assert gg.depth == 4


def test_compose_depths_add():
    rng = np.random.default_rng(0)
    inner = random_net(rng, out_dim=3)
    outer = random_net(rng, in_dim=3)
    composed = compose(outer, inner)
    assert composed.depth == inner.depth + outer.depth


def test_compose_identity_is_pointwise_equal(hat):
    net = compose(identity_network(1), hat)
    xs = np.linspace(-1.0, 2.0, 100).reshape(-1, 1)
    np.testing.assert_array_equal(evaluate_batch(net, xs), evaluate_batch(hat, xs))


def test_compose_metric_bounds():
    rng = np.random.default_rng(1)
    for _ in range(20):
        inner = random_net(rng)
        outer = random_net(rng, in_dim=inner.out_dim)
        composed = compose(outer, inner)
        mi, mo, mc = metrics(inner), metrics(outer), metrics(composed)
        assert mc.connectivity <= 2 * mi.connectivity + 2 * mo.connectivity
        assert mc.width <= max(2 * inner.out_dim, mi.width, mo.width)
        assert mc.weight_magnitude == max(mi.weight_magnitude, mo.weight_magnitude)
        xs = rng.uniform(-3, 3, size=(20, inner.in_dim))
        want = evaluate_batch(outer, np.maximum(evaluate_batch(inner, xs), -np.inf))
        # reference: plain function composition
        want = evaluate_batch(outer, evaluate_batch(inner, xs))
        assert_close_rel(evaluate_batch(composed, xs), want)


def test_compose_dim_mismatch():
    with pytest.raises(DimensionError):
        compose(identity_network(2), identity_network(3))


# --- extend_depth ---------------------------------------------------------------


def test_extend_depth_pointwise(hat):
    ext = extend_depth(hat, 5)
    assert ext.depth == 5
    assert evaluate_scalar(ext, 0.25) == 0.5
    xs = np.linspace(-1, 2, 301).reshape(-1, 1)
    np.testing.assert_allclose(
        evaluate_batch(ext, xs), evaluate_batch(hat, xs), atol=0
    )


def test_extend_depth_bounds(hat):
    ext = extend_depth(hat, 5)
    m, me = metrics(hat), metrics(ext)
    d2 = hat.out_dim
    assert me.connectivity <= m.connectivity + d2 * m.width + 2 * d2 * (5 - hat.depth)
    assert me.connectivity <= 17  # 8 + 1*3 + 2*1*3
    assert me.width <= max(2 * d2, m.width)
    assert me.weight_magnitude <= max(1.0, m.weight_magnitude)


def test_extend_depth_random_pointwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        net = random_net(rng)
        target = net.depth + int(rng.integers(1, 4))
        ext = extend_depth(net, target)
        assert ext.depth == target
        xs = rng.uniform(-3, 3, size=(20, net.in_dim))
        assert_close_rel(evaluate_batch(ext, xs), evaluate_batch(net, xs))
        m, me = metrics(net), metrics(ext)
        d2 = net.out_dim
        assert me.connectivity <= m.connectivity + d2 * m.width + 2 * d2 * (
            target - net.depth
        )


def test_extend_depth_requires_growth(hat):
    with pytest.raises(ValueError):
        extend_depth(hat, 2)


# --- parallelize ----------------------------------------------------------------


def test_parallelize_pair_of_hats(hat):
    pair = parallelize([hat, hat])
    out = evaluate(pair, [0.25, 0.75])
    assert out.tolist() == [0.5, 0.5]
    assert metrics(pair).connectivity == 16


def test_parallelize_single_net_identity(hat):
    assert np.array_equal(
        evaluate(parallelize([hat]), [0.3]), evaluate(hat, [0.3])
    )


def test_parallelize_depth_mismatch(hat):
    with pytest.raises(DimensionError):
        parallelize([hat, identity_network(1)])


def test_parallelize_metrics():
    rng = np.random.default_rng(3)
    nets = [random_net(rng) for _ in range(3)]
    depth = max(n.depth for n in nets)
    nets = [n if n.depth == depth else extend_depth(n, depth) for n in nets]
    par = parallelize(nets)
    ms = [metrics(n) for n in nets]
    mp = metrics(par)
    assert mp.connectivity == sum(m.connectivity for m in ms)
    assert mp.width <= sum(m.width for m in ms)
    assert mp.weight_magnitude == max(m.weight_magnitude for m in ms)
    xs = [rng.uniform(-2, 2, size=(8, n.in_dim)) for n in nets]
    got = evaluate_batch(par, np.hstack(xs))
    want = np.hstack([evaluate_batch(n, x) for n, x in zip(nets, xs)])
    assert_close_rel(got, want)


# --- linear combinations and shared input ----------------------------------------


def test_shared_combination_cancellation(hat):
    net = linear_combination_shared([hat, hat], [1.0, -1.0])
    xs = np.linspace(0, 1, 101).reshape(-1, 1)
    np.testing.assert_array_equal(evaluate_batch(net, xs), np.zeros((101, 1)))


def test_shared_combination_interpolant(hat):
    # x - g(x)/4 at 0.5 equals 0.25
    net = linear_combination_shared(
        [identity_network(1), hat], [1.0, -0.25]
    )
    assert evaluate_scalar(net, 0.5) == 0.25


def test_shared_parallelization(hat):
    net = parallelize_shared([hat, identity_network(1)])
    out = evaluate(net, [0.25])
    assert out.tolist() == [0.5, 0.25]


def test_linear_combination_distinct_inputs(hat):
    net = linear_combination([hat, hat], [2.0, 3.0])
    got = evaluate(net, [0.25, 0.25])[0]
    assert got == 2.0 * 0.5 + 3.0 * 0.5


def test_linear_combination_magnitude():
    rng = np.random.default_rng(4)
    nets = [random_net(rng, out_dim=2) for _ in range(3)]
    coeffs = [0.5, -2.0, 1.5]
    comb = linear_combination(nets, coeffs)
    bound = max(
        abs(a) * metrics(n).weight_magnitude for a, n in zip(coeffs, nets)
    )
    assert metrics(comb).weight_magnitude <= max(
        bound, max(metrics(n).weight_magnitude for n in nets)
    )
    xs = [rng.uniform(-2, 2, size=(10, n.in_dim)) for n in nets]
    want = sum(
        a * evaluate_batch(n, x) for a, n, x in zip(coeffs, nets, xs)
    )
    assert_close_rel(evaluate_batch(comb, np.hstack(xs)), want)


def test_combination_length_mismatch(hat):
    with pytest.raises(ValueError):
        linear_combination([hat], [1.0, 2.0])


# --- scalar multiplication and affine maps ---------------------------------------


def test_scalar_mult_value():
    net = scalar_mult_network(5.0)
    assert evaluate_scalar(net, 1.2) == 5.0 * 1.2


def test_scalar_mult_small_factor_depth():
    assert scalar_mult_network(0.5).depth == 1


def test_scalar_mult_bounds():
    net = scalar_mult_network(8.0)
    m = metrics(net)
    assert net.depth <= math.floor(math.log2(8)) + 4
    assert m.weight_magnitude <= 1.0
    assert m.width <= 3


@given(st.floats(min_value=-100.0, max_value=100.0), st.floats(-4, 4))
@settings(max_examples=60, deadline=None)
def test_scalar_mult_exact(a, x):
    net = scalar_mult_network(a)
    assert evaluate_scalar(net, x) == a * x
    assert metrics(net).weight_magnitude <= 1.0


def test_scalar_mult_multidim():
    net = scalar_mult_network(-6.0, dim=3)
    out = evaluate(net, [1.0, -2.0, 0.5])
    assert out.tolist() == [-6.0, 12.0, -3.0]
    assert metrics(net).width <= 9


def test_affine_network_basic():
    net = affine_network([[2.0]], [3.0])
    assert evaluate_scalar(net, 1.0) == 5.0
    assert metrics(net).weight_magnitude <= 1.0


def test_affine_network_two_inputs():
    net = affine_network([[1.0, -1.0]], [0.0])
    assert evaluate(net, [4.0, 1.0])[0] == 3.0


def test_affine_network_depth_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mat = rng.uniform(-30, 30, size=(2, 3))
        bias = rng.uniform(-30, 30, size=2)
        net = affine_network(mat, bias)
        a = max(np.abs(mat).max(), np.abs(bias).max())
        assert net.depth <= math.floor(math.log2(a)) + 5
        assert metrics(net).weight_magnitude <= 1.0
        xs = rng.uniform(-2, 2, size=(10, 3))
        assert_close_rel(evaluate_batch(net, xs), xs @ mat.T + bias)


# --- reduce_weights ---------------------------------------------------------------


def test_reduce_weights_noop_when_small():
    net = identity_network(1)
    assert reduce_weights(net) is net


def test_reduce_weights_scalar_example():
    net = network([([[10.0]], [0.0])])
    red = reduce_weights(net)
    assert metrics(red).weight_magnitude <= 1.0
    assert evaluate_scalar(red, 0.7) == 7.0


def test_reduce_weights_depth_bound():
    rng = np.random.default_rng(6)
    for _ in range(15):
        net = random_net(rng)
        scaled = network(
            [(5.0 * l.matrix, 5.0 * l.bias) for l in net.layers]
        )
        red = reduce_weights(scaled)
        m = metrics(scaled)
        assert metrics(red).weight_magnitude <= 1.0
        assert red.depth <= (math.ceil(math.log2(m.weight_magnitude)) + 5) * m.depth
        assert metrics(red).width <= max(3 * scaled.out_dim, m.width)
        xs = rng.uniform(-2, 2, size=(15, scaled.in_dim))
        assert_close_rel(evaluate_batch(red, xs), evaluate_batch(scaled, xs))


def test_reduce_weights_depth_bound_example():
    # magnitude 10, depth 2 -> reduced depth at most 18
    net = network([([[10.0]], [0.0]), ([[1.0]], [0.0])])
    assert reduce_weights(net).depth <= 18


def test_positive_homogeneity_bias_free():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_net(rng)
        net = network([(l.matrix, np.zeros(l.out_dim)) for l in net.layers])
        x = rng.uniform(-2, 2, size=net.in_dim)
        lam = float(rng.uniform(0, 3))
        assert_close_rel(evaluate(net, lam * x), lam * evaluate(net, x))


# --- sum_finite_width -------------------------------------------------------------


def test_sum_of_hats(hat):
    total = sum_finite_width([hat] * 4)
    assert evaluate_scalar(total, 0.25) == 2.0


def test_sum_width_independent_of_count(hat):
    for n in (2, 4, 8):
        total = sum_finite_width([hat] * n)
        assert metrics(total).width <= 7
        assert total.depth == sum(hat.depth for _ in range(n))


def test_sum_single_net(hat):
    total = sum_finite_width([hat])
    xs = np.linspace(-1, 2, 101).reshape(-1, 1)
    assert_close_rel(evaluate_batch(total, xs), evaluate_batch(hat, xs))


def test_sum_random_nets():
    rng = np.random.default_rng(8)
    for _ in range(10):
        count = int(rng.integers(2, 5))
        d, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nets = [random_net(rng, in_dim=d, out_dim=d_out) for _ in range(count)]
        total = sum_finite_width(nets)
        xs = rng.uniform(-2, 2, size=(12, d))
        want = sum(evaluate_batch(n, xs) for n in nets)
        assert_close_rel(evaluate_batch(total, xs), want)
        assert metrics(total).width <= 2 * d + 2 * d_out + max(
            2 * d, max(metrics(n).width for n in nets)
        )


# --- prune ------------------------------------------------------------------------


def test_prune_removes_dead_node(hat):
    # add a hidden node with no outgoing edge
    net = network(
        [
            ([[1.0], [1.0], [1.0], [1.0]], [0.0, -0.5, -1.0, 3.0]),
            ([[2.0, -4.0, 2.0, 0.0]], [0.0]),
        ]
    )
    pruned = prune(net)
    assert pruned.dims == (1, 3, 1)
    xs = np.linspace(-1, 2, 101).reshape(-1, 1)
    np.testing.assert_array_equal(
        evaluate_batch(pruned, xs), evaluate_batch(net, xs)
    )


def test_prune_keeps_healthy_net(hat):
    pruned = prune(hat)
    assert pruned.dims == hat.dims
    for a, b in zip(pruned.layers, hat.layers):
        assert np.array_equal(a.matrix, b.matrix)


def test_prune_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(15):
        net = random_net(rng)
        # punch some zeros in
        layers = []
        for l in net.layers:
            mat = np.array(l.matrix)
            mask = rng.uniform(size=mat.shape) < 0.4
            mat[mask] = 0.0
            layers.append((mat, l.bias))
        net = network(layers)
        once = prune(net)
        twice = prune(once)
        assert once.dims == twice.dims
        xs = rng.uniform(-2, 2, size=(10, net.in_dim))
        assert_close_rel(evaluate_batch(once, xs), evaluate_batch(net, xs))


def test_prune_collapses_dead_layer():
    # middle layer all dead: output is the constant bias of the next layer
    net = network(
        [
            ([[1.0], [2.0]], [0.0, 0.0]),
            ([[0.0, 0.0]], [3.0]),
        ]
    )
    pruned = prune(net)
    assert pruned.depth == 1
    assert evaluate_scalar(pruned, 1.23) == 3.0


def test_prune_collapses_dead_layer_below_trimmed_one():
    # the second hidden node of the upper layer has no outgoing edge; once it
    # is trimmed, the lower layer, which fed only that node, is dead too
    net = network(
        [
            ([[1.0], [2.0]], [0.0, 0.5]),
            ([[0.0, 0.0], [1.0, -1.0]], [2.0, 0.0]),
            ([[3.0, 0.0]], [0.25]),
        ]
    )
    pruned = prune(net)
    assert pruned.dims == (1, 1, 1)
    assert np.array_equal(pruned.layers[0].matrix, [[0.0]])
    assert np.array_equal(pruned.layers[0].bias, [2.0])
    assert np.array_equal(pruned.layers[1].matrix, [[3.0]])
    xs = np.linspace(-2, 2, 41).reshape(-1, 1)
    np.testing.assert_array_equal(
        evaluate_batch(pruned, xs), evaluate_batch(net, xs)
    )
    assert np.all(evaluate_batch(pruned, xs) == 6.25)


def test_is_nondegenerate(hat):
    assert is_nondegenerate(hat)
    assert not is_nondegenerate(network([([[0.0]], [1.0])]))


# --- cross-operation property test -------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_calculus_agrees_with_reference(seed):
    rng = np.random.default_rng(seed)
    nets = [random_net(rng, in_dim=2, out_dim=2) for _ in range(2)]
    coeffs = list(rng.uniform(-2, 2, size=2))
    xs = rng.uniform(-2, 2, size=(6, 2))
    ref = [evaluate_batch(n, xs) for n in nets]

    combo = linear_combination_shared(nets, coeffs)
    assert_close_rel(
        evaluate_batch(combo, xs), coeffs[0] * ref[0] + coeffs[1] * ref[1]
    )

    total = sum_finite_width(nets)
    assert_close_rel(evaluate_batch(total, xs), ref[0] + ref[1])

    comp = compose(nets[1], nets[0])
    assert_close_rel(evaluate_batch(comp, xs), evaluate_batch(nets[1], ref[0]))

    deeper = extend_depth(nets[0], nets[0].depth + 2)
    assert_close_rel(evaluate_batch(deeper, xs), ref[0])

    red = reduce_weights(nets[0])
    assert_close_rel(evaluate_batch(red, xs), ref[0])
    assert metrics(red).weight_magnitude <= 1.0
