import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relucalc import (
    AffineLayer,
    DimensionError,
    ReluNetwork,
    affine_network,
    compose,
    evaluate_batch,
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
    assert evaluate_batch(gg, 0.25)[0, 0] == 1.0  # g(0.25)=0.5, g(0.5)=1
    assert gg.depth == 3  # the joint merges into one layer


def test_compose_depths_add():
    rng = np.random.default_rng(0)
    inner = random_net(rng, out_dim=3)
    outer = random_net(rng, in_dim=3)
    composed = compose(outer, inner)
    assert composed.depth == inner.depth + outer.depth


def _sparse_joint(outer, inner):
    """outer after inner through (W; -W) and (A, -A), from the definition."""
    w, a = inner.layers[-1], outer.layers[0]
    stacked_bias = np.concatenate([w.bias, -w.bias])
    joint = (
        AffineLayer(np.vstack([w.matrix, -w.matrix]), stacked_bias),
        AffineLayer(np.hstack([a.matrix, -a.matrix]), a.bias),
    )
    return ReluNetwork(inner.layers[:-1] + joint + outer.layers[1:])


WIDE = network([(np.ones((5, 1)), np.zeros(5)), (np.ones((1, 5)), [0.0])])
LARGE = network([([[1.5]], [0.0]), ([[1.5]], [0.0])])


@pytest.mark.parametrize(
    "outer, inner",
    # 25 merged nonzeros against 20 in the joint; a merged weight 2.25
    [(WIDE, WIDE), (LARGE, LARGE)],
    ids=["more_nonzeros", "larger_weight"],
)
def test_compose_falls_back_to_the_sparse_joint(outer, inner):
    assert compose(outer, inner) == _sparse_joint(outer, inner)


@st.composite
def sparse_nets(draw, in_dim, out_dim):
    """Depth 1 to 3, hidden dims up to 8; each layer is dense or about half
    zeros, with weights of magnitude up to 1/2, 1 or 2, so that joints of
    both kinds occur."""
    depth = draw(st.integers(1, 3))
    dims = [in_dim] + [draw(st.integers(1, 8)) for _ in range(depth - 1)] + [out_dim]
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        top = draw(st.sampled_from([0.5, 1.0, 2.0]))
        nonzero = st.one_of(st.sampled_from([top, -top]), st.floats(-top, top))
        entry = nonzero if draw(st.booleans()) else st.one_of(st.just(0.0), nonzero)
        mat = draw(st.lists(entry, min_size=n_in * n_out, max_size=n_in * n_out))
        bias = draw(st.lists(entry, min_size=n_out, max_size=n_out))
        layers.append((np.reshape(mat, (n_out, n_in)), bias))
    return network(layers)


@st.composite
def composable(draw):
    """(outer, inner) with narrow interfaces between wide layers, where a
    merge can grow."""
    dims = [draw(st.integers(1, 3)) for _ in range(3)]
    inner = draw(sparse_nets(dims[0], dims[1]))
    return draw(sparse_nets(dims[1], dims[2])), inner


# subnormal outer weights: the relative bound alone underflows to 0 here
SUBNORMAL = (
    network([([[2.2e-313, 6.6e-313, -2.2e-313]], [0.0])]),
    network([(np.full((n, m), 0.5), np.zeros(n)) for m, n in [(2, 6), (6, 3)]]),
)


@given(composable(), st.integers(0, 2**32 - 1))
@example(SUBNORMAL, 0)
@settings(max_examples=150, deadline=None)
def test_compose_is_no_larger_than_the_sparse_joint(nets, seed):
    outer, inner = nets
    joint = _sparse_joint(outer, inner)
    composed = compose(outer, inner)
    assert composed == joint or composed.depth == joint.depth - 1
    mc, mj = metrics(composed), metrics(joint)
    assert mc.depth <= mj.depth
    assert mc.connectivity <= mj.connectivity
    assert mc.width <= mj.width
    assert mc.weight_magnitude <= mj.weight_magnitude
    # Each network is within L gamma S of the exact map, where S is the
    # joint's value with every weight and input replaced by its absolute
    # value and gamma = (width + 2) 2^-53; the merged weights add one more
    # gamma S, so the two differ by (2 L + 1) gamma S to first order, and
    # 2 L + 2 covers the higher-order terms.
    # Gradual underflow adds up to eta = 2^-1075 to each product besides
    # its relative error.  A layer's sums then gain at most width eta each,
    # and a merged weight, a sum of at most width products, carries
    # width eta, which its inputs h turn into width eta (1 + sum h).  Carried
    # through the later layers these stay below eta (T - S), T being the
    # joint's value with width added to every |weight| and |bias|, so the
    # two networks differ by at most 2 eta T more; (2 L + 2) eta T is ample,
    # and (L + 1) T 2^-1074 is that on the subnormal grid.
    xs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(16, inner.in_dim))
    w = mj.width

    def value(shift):  # the joint on |x| with |weight| + shift, |bias| + shift
        layers = (
            AffineLayer(abs(l.matrix) + shift, abs(l.bias) + shift)
            for l in joint.layers
        )
        return evaluate_batch(ReluNetwork(tuple(layers)), np.abs(xs))

    gamma = (w + 2) * 2.0**-53
    bound = (2 * mj.depth + 2) * gamma * value(0.0)
    bound += (mj.depth + 1) * value(w) * 2.0**-1074
    diff = np.abs(evaluate_batch(composed, xs) - evaluate_batch(joint, xs))
    assert np.all(diff <= bound)


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
    assert evaluate_batch(ext, 0.25)[0, 0] == 0.5
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
    out = evaluate_batch(pair, [0.25, 0.75])[0]
    assert out.tolist() == [0.5, 0.5]
    assert metrics(pair).connectivity == 16


def test_parallelize_single_net_identity(hat):
    assert np.array_equal(
        evaluate_batch(parallelize([hat]), [0.3])[0], evaluate_batch(hat, [0.3])[0]
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
    assert evaluate_batch(net, 0.5)[0, 0] == 0.25


def test_shared_parallelization(hat):
    net = parallelize_shared([hat, identity_network(1)])
    out = evaluate_batch(net, [0.25])[0]
    assert out.tolist() == [0.5, 0.25]


def test_linear_combination_distinct_inputs(hat):
    net = linear_combination([hat, hat], [2.0, 3.0])
    got = evaluate_batch(net, [0.25, 0.25])[0, 0]
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
    assert evaluate_batch(net, 1.2)[0, 0] == 5.0 * 1.2


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
    assert evaluate_batch(net, x)[0, 0] == a * x
    assert metrics(net).weight_magnitude <= 1.0


def test_scalar_mult_multidim():
    net = scalar_mult_network(-6.0, dim=3)
    out = evaluate_batch(net, [1.0, -2.0, 0.5])[0]
    assert out.tolist() == [-6.0, 12.0, -3.0]
    assert metrics(net).width <= 9


def test_affine_network_basic():
    net = affine_network([[2.0]], [3.0])
    assert evaluate_batch(net, 1.0)[0, 0] == 5.0
    assert metrics(net).weight_magnitude <= 1.0


def test_affine_network_two_inputs():
    net = affine_network([[1.0, -1.0]], [0.0])
    assert evaluate_batch(net, [4.0, 1.0])[0, 0] == 3.0


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
    assert evaluate_batch(red, 0.7)[0, 0] == 7.0


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
        assert_close_rel(
            evaluate_batch(net, lam * x)[0], lam * evaluate_batch(net, x)[0]
        )


# --- sum_finite_width -------------------------------------------------------------


def test_sum_of_hats(hat):
    total = sum_finite_width([hat] * 4)
    assert evaluate_batch(total, 0.25)[0, 0] == 2.0


def test_sum_width_independent_of_count(hat):
    for n in (2, 4, 8):
        total = sum_finite_width([hat] * n)
        assert metrics(total).width <= 7
        # each of the n - 1 joints between segments merges into one layer
        assert total.depth == n * hat.depth - (n - 1)


def test_sum_of_depth_one_summands_is_one_layer(hat):
    flat = network([([[0.5]], [0.5])])
    assert sum_finite_width([flat] * 3) == network([([[1.5]], [1.5])])
    # beside deep summands they start the total and add no depth
    total = sum_finite_width([flat, hat, flat, hat])
    assert total.depth == 1 + 2 + 1 + 2 - 3
    xs = np.linspace(-1, 2, 101).reshape(-1, 1)
    want = 2 * evaluate_batch(hat, xs) + 2 * evaluate_batch(flat, xs)
    assert_close_rel(evaluate_batch(total, xs), want)


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


@st.composite
def summands(draw):
    """1 to 4 sparse networks of one input and output shape, weights up to 2."""
    d, d_out = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return draw(st.lists(sparse_nets(d, d_out), min_size=1, max_size=4))


@given(summands())
@settings(max_examples=100, deadline=None)
def test_shared_input_and_finite_width_joins_always_merge(nets):
    # with weights up to 2, merged entries above 1 occur; each join still
    # has one nonzero product per merged sum, so none adds a layer
    depth = max(n.depth for n in nets)
    par = parallelize_shared(nets)
    assert par.depth == depth
    padded = [n if n.depth == depth else extend_depth(n, depth) for n in nets]
    # == on floats, so a signed zero equals its opposite
    first = par.layers[0]
    matrix = np.vstack([n.layers[0].matrix for n in padded])
    bias = np.concatenate([n.layers[0].bias for n in padded])
    assert np.array_equal(first.matrix, matrix) and np.array_equal(first.bias, bias)
    # a later depth-1 summand is added onto the running total inside one
    # merged sum, where compose may keep the sparse joint; skip those
    deep = nets[:1] + [n for n in nets[1:] if n.depth > 1]
    total = sum_finite_width(deep)
    assert total.depth == sum(n.depth for n in deep) - (len(deep) - 1)


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
    assert prune(hat) == hat


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
    assert evaluate_batch(pruned, 1.23)[0, 0] == 3.0


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
