import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucalc import (
    AffineLayer,
    DimensionError,
    NetworkFormatError,
    ReluNetwork,
    evaluate_batch,
    extend_depth,
    metrics,
    network,
    prune,
    read_network,
    write_network,
)
from relucalc import core
from relucalc.constructors import cosine_network
from relucalc.quantcode import (
    decode,
    encode,
    minimal_quantization_k,
    quantize_network,
)
from conftest import hat_reference, random_net
from test_digests import BUILDS


def test_identity_via_relu_pair():
    # x = rho(x) - rho(-x), checked at a negative input
    net = network([([[1.0], [-1.0]], [0.0, 0.0]), ([[1.0, -1.0]], [0.0])])
    assert evaluate_batch(net, -3.0)[0, 0] == -3.0


def test_hat_value(hat_net):
    assert evaluate_batch(hat_net, 0.25)[0, 0] == 0.5


def test_hat_matches_reference_on_grid(hat_net):
    xs = np.linspace(-0.5, 1.5, 401)
    got = evaluate_batch(hat_net, xs.reshape(-1, 1))[:, 0]
    want = np.array([hat_reference(x) for x in xs])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_double_hat_by_hand_iteration(hat_net):
    # g(g(0.125)): inner 0.25, outer 0.5
    inner = evaluate_batch(hat_net, 0.125)[0, 0]
    assert evaluate_batch(hat_net, inner)[0, 0] == 0.5


def test_single_layer_is_plain_affine():
    net = network([([[2.0]], [1.0])])
    assert evaluate_batch(net, -5.0)[0, 0] == -9.0  # no ReLU after the only layer


def test_dimension_mismatch_raises(hat_net):
    with pytest.raises(DimensionError):
        evaluate_batch(hat_net, [1.0, 2.0])


def test_bad_layer_chain_raises():
    with pytest.raises(DimensionError):
        network([([[1.0], [1.0]], [0.0, 0.0]), ([[1.0]], [0.0])])


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        AffineLayer([[np.nan]], [0.0])


def test_metrics_hat(hat_net):
    m = metrics(hat_net)
    assert m.depth == 2
    assert m.width == 3
    assert m.connectivity == 8
    assert m.weight_magnitude == 4.0


def test_metrics_single_affine():
    m = metrics(network([([[2.0]], [1.0])]))
    assert (m.depth, m.width, m.connectivity, m.weight_magnitude) == (1, 1, 2, 2.0)


def test_metrics_zero_layer():
    m = metrics(network([([[0.0]], [0.0])]))
    assert m.connectivity == 0


def test_metrics_connectivity_bound_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        net = random_net(rng)
        m = metrics(net)
        assert m.connectivity <= m.depth * m.width * (m.width + 1)


def test_immutability(hat_net):
    with pytest.raises(ValueError):
        hat_net.layers[0].matrix[0, 0] = 9.0


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(5):
        net = random_net(rng)
        path = tmp_path / f"net{i}.txt"
        write_network(net, path)
        assert read_network(path) == net


def test_equality_is_bitwise(tmp_path, hat_net):
    cos30 = cosine_network(30, 1, 1e-2)
    path = tmp_path / "cos30.relunet"
    write_network(cos30, path)
    pruned = prune(cos30)
    quant, m = quantize_network(pruned, minimal_quantization_k(pruned, 0.25), 1, 0.25)
    first = cos30.layers[0]
    bumped = first.matrix.copy()
    bumped[1, 0] = np.nextafter(bumped[1, 0], np.inf)
    one_weight = ReluNetwork((AffineLayer(bumped, first.bias),) + cos30.layers[1:])
    equal = [
        (read_network(path), cos30),
        (decode(encode(quant, m, 0.25), m, 0.25), quant),
    ]
    unequal = [
        (network([([[1.0]], [-0.0])]), network([([[1.0]], [0.0])])),
        (one_weight, cos30),
        (extend_depth(hat_net, 3), hat_net),
        (cos30, None),
        (None, cos30),
    ]
    for a, b in equal:
        assert a == b and not a != b
    for a, b in unequal:
        assert a != b and not a == b


def test_write_replaces_the_file(tmp_path, hat_net):
    # the second write makes a new file: the path reads back the second
    # network bitwise, and a hard link to the first keeps the first
    cos30 = cosine_network(30, 1, 1e-2)
    path, link = tmp_path / "net.relunet", tmp_path / "link.relunet"
    write_network(cos30, path)
    link.hardlink_to(path)
    write_network(hat_net, path)
    assert read_network(path) == hat_net
    assert read_network(link) == cos30


def test_write_through_a_symlink_keeps_the_link(tmp_path, hat_net):
    target, link = tmp_path / "target.relunet", tmp_path / "link.relunet"
    write_network(random_net(np.random.default_rng(0)), target)
    link.symlink_to(target)
    write_network(hat_net, link)
    assert link.is_symlink()
    assert read_network(target) == hat_net


def test_write_to_a_device(hat_net):
    write_network(hat_net, "/dev/null")


def test_serialization_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a network\n")
    with pytest.raises(NetworkFormatError):
        read_network(path)


def test_serialization_rejects_truncation(tmp_path, hat_net):
    path = tmp_path / "net.txt"
    write_network(hat_net, path)
    text = path.read_text().split()
    path.write_text(" ".join(text[:-2]))
    with pytest.raises(NetworkFormatError):
        read_network(path)


_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(float.hex),
    st.sampled_from(["", "x", "1.5", "0x", "\n", "relunet", "9" * 30]),
)


@given(
    st.one_of(
        st.text(),
        st.lists(_TOKENS, max_size=30).map(lambda t: "relunet v1\n" + " ".join(t)),
    )
)
@settings(max_examples=300, deadline=None)
def test_read_network_fuzz_raises_only_format_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.relunet"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        read_network(path)
    except NetworkFormatError:
        pass


def test_read_network_rejects_non_text(tmp_path):
    path = tmp_path / "net.relunet"
    path.write_bytes(b"relunet v1\n1\n1 1\n\xff\n0x0p+0\n")
    with pytest.raises(NetworkFormatError):
        read_network(path)


def column_sequential(net, xs):
    """Reference evaluation: out[r, i] = (sum_j A[i, j] * x[r, j]) + b[i],
    summed over j strictly left to right with the bias added last."""
    vals = np.array(xs, dtype=np.float64)
    for ell, layer in enumerate(net.layers):
        if ell:
            vals = np.maximum(vals, 0.0)
        acc = np.zeros((vals.shape[0], layer.out_dim))
        for j in range(layer.in_dim):
            acc = acc + vals[:, j : j + 1] * layer.matrix[:, j]
        vals = acc + layer.bias
    return vals


def constructor_builds():
    """One small build of each public network constructor."""
    from relucalc import constructors as c

    f = c.SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "warp")
    h = c.SmoothDescriptor(lambda x: 1.0 / (2.0 + x), (-1.0, 1.0), "envelope")
    knots = [-1.0, -0.5, 0.0, 0.5, 1.0]
    return [
        c.sawtooth_network(3),
        c.square_interpolant_network(3),
        c.square_network(1e-2),
        c.multiply_network(2.0, 1e-2),
        c.polynomial_network([0.1, 0.4, -0.3, 0.2], 1.0, 1e-2),
        c.smooth_network(f, 1e-2),
        c.smooth_network_general(f, 1e-2),
        c.stitch_networks([c.square_network(1e-2)] * 3, knots, 1e-2, 1.0),
        *c.hat_partition_networks(knots),
        c.cosine_network(10.0, 1.0, 1e-2),
        c.cosine_shifted_network(10.0, 0.5, 1.0, 1e-2),
        c.sine_network(10.0, 1.0, 1e-2),
        c.bspline_network(3, 1e-2),
        c.spline_wavelet_network(2, 1e-2),
        c.dilate_translate(
            lambda reach, eta: c.cosine_network(3.0, reach, eta),
            [[2.0]], [0.5], 2.0, 1.0, 1e-2,
        ),
        c.haar_mother_network(1e-2),
        c.haar_element_network(1, 1, 1e-2),
        c.cutoff_network(0.5, 2),
        *c.modulated_network(c.gaussian_network(1, 1e-1), 1.0, [2.0], 2.0, 1e-1),
        c.gaussian_network(2, 1e-1),
        c.oscillatory_network(f, h, 3.0, 1.0, 1e-1),
        c.weierstrass_network(0.4, 3, 1, 1e-1),
    ]


def test_evaluate_batch_matches_column_sequential_reference():
    rng = np.random.default_rng(12)
    nets = [random_net(rng) for _ in range(20)] + constructor_builds()
    for net in nets:
        xs = rng.uniform(-3, 3, size=(64, net.in_dim))
        got = evaluate_batch(net, xs)
        want = column_sequential(net, xs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def sparse_random_net(rng, depth):
    """Random net with about half its weights zero (some of them -0.0) and
    planted rows of every kind the evaluation plan tells apart: copy rows
    (single weight 1.0, bias +0.0 or -0.0), near-copies (weight 2.0, or a
    nonzero bias) and all-zero rows.  Row 0 of layer 0 is [1.0, 0, ...] with
    bias -0.0, so -0.0 inputs reach it."""
    dims = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
    layers = []
    for ell in range(depth):
        rows, cols = dims[ell + 1], dims[ell]
        mat = rng.uniform(-2.0, 2.0, (rows, cols)) * (rng.random((rows, cols)) < 0.5)
        bias = rng.uniform(-2.0, 2.0, rows) * (rng.random(rows) < 0.5)
        for i in range(rows):
            kind = int(rng.integers(6))
            if kind < 5:
                mat[i] = 0.0
            if kind < 4:
                weight, bias[i] = ((1.0, 0.0), (1.0, -0.0), (2.0, 0.0), (1.0, 0.5))[kind]
                mat[i, rng.integers(cols)] = weight
        if ell == 0:
            mat[0] = 0.0
            mat[0, 0] = 1.0
            bias[0] = -0.0
        layers.append((mat, bias))
    return network(layers)


def test_evaluate_batch_matches_reference_on_sparse_nets():
    rng = np.random.default_rng(21)
    nets = [sparse_random_net(rng, depth=1 + i % 5) for i in range(60)]
    chunk = core.CHUNK_POINTS
    sizes = [0, 1, 64, 4095, 4096, 4097, chunk - 1, chunk, chunk + 1, 2 * chunk + 3]
    for i, net in enumerate(nets):
        n = sizes[i % len(sizes)]
        xs = rng.uniform(-3, 3, size=(n, net.in_dim))
        xs[rng.random(xs.shape) < 0.2] = -0.0
        xs[rng.random(xs.shape) < 0.1] = 0.0
        got = evaluate_batch(net, xs)
        want = column_sequential(net, xs)
        assert got.shape == (n, net.out_dim)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_chunk_is_above_numpy_buffered_broadcast_threshold():
    assert core.CHUNK_POINTS > np.getbufsize() // 2


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_plan_scratch_is_the_widest_term_after_the_first(key):
    # _affine_step writes tmp only for the terms after the first, so the
    # plan's scratch rows are enough and give what plan.width rows give
    net = BUILDS[key]()
    plan = net._plan
    widths = [runs[-1].rows.stop for step in plan.steps for runs in step.terms[1:]]
    assert plan.scratch == max(widths, default=0)
    n = 64
    h = np.random.default_rng(0).uniform(-2.0, 2.0, (net.in_dim, n))
    for step in plan.steps:
        tight, wide = np.empty((2, step.rows, n))
        core._affine_step(step, h, tight, np.empty((plan.scratch, n)))
        core._affine_step(step, h, wide, np.empty((plan.width, n)))
        assert np.array_equal(tight.view(np.uint64), wide.view(np.uint64))
        h = np.maximum(tight, 0.0)


def assert_bitwise_column_sequential(net, xs):
    got = evaluate_batch(net, xs)
    want = column_sequential(net, xs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def greedy_runs(same, src):
    """Reference split: scan each group and extend a run while its source
    keeps the stride, 0 or 1, that the run's first step set."""
    first, last, i = [], [], 0
    while i < len(src):
        j, stride = i, None
        while j + 1 < len(src) and same[j] and src[j + 1] - src[j] in (0, 1):
            if stride is None:
                stride = src[j + 1] - src[j]
            elif src[j + 1] - src[j] != stride:
                break
            j += 1
        first.append(i)
        last.append(j)
        i = j + 1
    return first, last


def test_run_bounds_match_a_greedy_scan():
    rng = np.random.default_rng(27)
    for n in list(range(6)) * 20 + [200] * 20:
        src = np.cumsum(rng.choice([0, 1, 1, -1, 3], n)) if n else np.zeros(0, int)
        same = rng.random(max(n - 1, 0)) < 0.9
        first, last = core._run_bounds(same, src)
        assert (first.tolist(), last.tolist()) == greedy_runs(same, src.tolist())


def run_plan_nets():
    """Hand-built nets whose plans hold every kind of run; see
    test_run_plan_nets_cover_every_run_kind for the kinds."""
    z = -0.0
    # layer 0: six full rows (one source feeds many rows: 1.0 in term 0,
    # -1.0 in term 1, mixed in term 2), then three rows on consecutive inputs
    wide = (
        [[1.0, -1.0, w] for w in (2.0, -1.0, 1.0, 0.5, -3.0, 1.0)]
        + [[1.0, z, z], [z, 1.0, z], [z, z, 1.0]],
        [0.5, z, 0.0, -0.25, 1.0, z, z, 0.0, -0.5],
    )
    mix = (
        [[1.0, -1.0, 0.5, 1.0, z, -1.0, 2.0, -1.0, 1.0], [-1.0] * 5 + [1.0] * 4],
        [z, 0.25],
    )
    # layer 1 reads the columns below, term k the k-th of each row: term 0
    # is 0 0 0 0 | 1 2 3 4 | 1 | 2, term 1 is 3 3 | 4 5 | 2 3 4 | 6 | 5 | 3
    # (reversed, then scattered), term 2 is 4 5 6 7 | 7 7 7 7 | 6 | 4
    cols = [
        (0, 3, 4), (0, 3, 5), (0, 4, 6), (0, 5, 7), (1, 2, 7),
        (2, 3, 7), (3, 4, 7), (4, 6, 7), (1, 5, 6), (2, 3, 4),
    ]  # fmt: skip
    weights = [
        (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, -1.0, 1.0),
        (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (-1.0, 0.5, 1.0), (-1.0, 1.5, 1.0),
        (2.0, -2.0, -1.0), (1.0, 1.0, 1.0),
    ]  # fmt: skip
    deep = np.full((10, 8), z)
    for i, (c, w) in enumerate(zip(cols, weights)):
        deep[i, list(c)] = w
    fan = (
        [[1.0], [-1.0], [2.0], [-0.5], [1.0], [-1.0], [3.0], [1.0]],
        [0.0, 0.5, -0.5, 0.25, -1.0, 1.0, 0.0, z],
    )
    # copy rows on layer-1 rows 3 4 5 and twice on row 0 (bias -0.0 too),
    # after a nine-term row and a one-term row of weight -1.0
    last = np.full((7, 10), z)
    last[0, :] = [1.0, -1.0, z, 1.0, 0.5, -1.0, 0.0, 1.0, -1.0, 2.0]
    last[1, 9] = -1.0
    for i, c in enumerate((3, 4, 5, 0, 0)):
        last[2 + i, c] = 1.0
    negate = ([[-1.0], [-1.0], [-1.0]], [z, 0.0, 0.5])
    return [
        network([wide, mix]),
        network(
            [
                fan,
                (deep, [z, 0.0, 0.5, -0.5, z, 1.0, -1.0, 0.0, 0.25, z]),
                (last, [-0.5, 0.0, 0.0, z, 0.0, z, 0.0]),
            ]
        ),
        network([negate]),
    ]


def run_kind(k, run):
    rows, src, weights, combine = run
    if rows.stop - rows.start == 1:
        stride = "one"
    else:
        stride = "0" if src.stop - src.start == 1 else "1"
    if weights is None:
        factor = "skip" if combine is np.add else "subtract"
    elif np.all(weights == -1.0):
        factor = "-1"
    else:
        factor = "mixed" if np.any(weights != weights[0]) else "uniform"
    return ("first" if k == 0 else "later", stride, factor)


def test_run_plan_nets_cover_every_run_kind():
    kinds = set()
    for net in run_plan_nets():
        for step in net._plan.steps:
            for k, runs in enumerate(step.terms):
                kinds |= {run_kind(k, run) for run in runs}
            kinds |= {("copy",) + run_kind(0, run)[1:] for run in step.copies}
    first = {("first", s, f) for s in "01" for f in ("skip", "-1", "mixed")}
    later = {("later", s, f) for s in ("0", "1", "one") for f in ("skip", "subtract")}
    later |= {("later", s, "mixed") for s in "01"}
    assert first | later | {("copy", "0", "skip"), ("copy", "1", "skip")} <= kinds
    # term 0 starts the sum, so a -1.0 run there multiplies
    assert not {kind for kind in kinds if kind[::2] == ("first", "subtract")}


@pytest.mark.parametrize("n", [1, 64, core.CHUNK_POINTS - 1, core.CHUNK_POINTS + 1])
def test_run_plan_is_bitwise_column_sequential(n):
    rng = np.random.default_rng(n)
    for net in run_plan_nets():
        xs = rng.uniform(-2.0, 2.0, (n, net.in_dim))
        xs[rng.random(xs.shape) < 0.3] = -0.0
        xs[rng.random(xs.shape) < 0.15] = 0.0
        assert_bitwise_column_sequential(net, xs)


def test_signed_zero_sums_with_negative_zero_bias():
    """The plan starts each sum at its first term, so a -0.0 product stays
    -0.0 until the bias add, where the contract's sum, started at +0.0, is
    +0.0.  A -0.0 bias would keep the -0.0 (-0.0 + -0.0), so every case
    below adds bias -0.0 to a zero sum.  Rows with no nonzero weight start
    from the zero fill instead."""
    zeros = [[-0.0], [0.0], [-1.0], [1.0]]
    # one-term rows in layer 0 fed -0.0: 1 * -0.0 and -3 * +0.0 are -0.0
    assert_bitwise_column_sequential(network([([[1.0], [-3.0]], [-0.0, -0.0])]), zeros)
    # deep rows whose first term is a negative weight on a +0.0 post-ReLU value
    # (relu(x) at x <= 0, relu(-x) at x >= 0), alone or before a second term
    relus = ([[1.0], [-1.0]], [0.0, 0.0])
    deep = ([[-2.0, 0.0], [-2.0, -3.0], [0.0, -2.0]], [-0.0, -0.0, -0.0])
    assert_bitwise_column_sequential(network([relus, deep]), zeros)
    # rows with no nonzero weight, in layer 0 and deeper
    empty = ([[0.0], [-0.0]], [-0.0, -0.0])
    assert_bitwise_column_sequential(network([empty]), zeros)
    assert_bitwise_column_sequential(network([relus, ([[0.0, -0.0]], [-0.0])]), zeros)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_batch_rejects_nonfinite_inputs(hat_net, bad):
    with pytest.raises(ValueError, match="finite"):
        evaluate_batch(hat_net, [[0.5], [bad]])
