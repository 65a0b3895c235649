import hashlib
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relucalc import (
    evaluate_batch,
    is_nondegenerate,
    metrics,
    network,
    prune,
    write_network,
)
from relucalc import core
from relucalc.constructors import (
    bspline_network,
    cosine_network,
    multiply_network,
    sawtooth_network,
    square_network,
)
from relucalc.quantcode import (
    BitString,
    CodecError,
    QuantGrid,
    QuantizationError,
    code_length_bound,
    decode,
    encode,
    minimal_quantization_k,
    quantize_network,
)
from conftest import random_net


# --- grid -------------------------------------------------------------------------


def test_grid_step_and_bound():
    grid = QuantGrid(2, 0.25)
    assert grid.value_of(1) == 1.0 / 16.0
    assert grid.value_of(grid.max_index) == 16.0


def test_grid_round_trip_of_lattice_values():
    grid = QuantGrid(2, 0.25)
    for q in (-7, -1, 0, 3, 200):
        v = grid.value_of(q)
        assert grid.round(v) == v
        assert grid.index_of(v) == q


def test_grid_tie_breaks_toward_zero():
    grid = QuantGrid(1, 0.25)  # step 1/4
    assert grid.round(0.125) == 0.0
    assert grid.round(-0.125) == 0.0
    assert grid.round(0.375) == 0.25
    assert grid.round(-0.375) == -0.25


def test_grid_rejects_out_of_range():
    grid = QuantGrid(1, 0.25)
    with pytest.raises(QuantizationError):
        grid.round(5.0)


@given(st.floats(-0.99, 0.99), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_grid_rounding_is_nearest(scale, m):
    grid = QuantGrid(m, 0.25)
    value = scale * grid.value_of(grid.max_index)
    out = grid.round(value)
    assert abs(out - value) <= grid.value_of(1) / 2.0 + 0.0
    # nearest: no other lattice point is strictly closer
    for q in (grid.index_of(value) - 1, grid.index_of(value) + 1):
        assert abs(out - value) <= abs(grid.value_of(q) - value) + 1e-18


def ceil_log2_inv_by_definition(eps):
    """Oracle: the smallest t with 2**t >= 1/eps, in exact Fractions."""
    inv = 1 / Fraction(eps)
    t = 0
    while Fraction(2) ** t < inv:
        t += 1
    return t


@given(
    st.integers(1, 40),
    st.floats(5e-324, 0.5, exclude_max=True)
    | st.fractions(Fraction(1, 10 ** 9), Fraction(49, 100), max_denominator=10 ** 9),
)
@example(1, 5e-324)
@example(3, 2.2250738585072014e-308)
@example(2, 0.25)
@example(7, 0.49999999999999994)
@example(1, Fraction(1, 3))
@settings(max_examples=200, deadline=None)
def test_step_exponent_matches_definition(m, eps):
    grid = QuantGrid(m, eps)
    assert grid.step_exponent == m * ceil_log2_inv_by_definition(eps)
    assert grid.bits_per_weight == 2 * (grid.step_exponent + 1)


def test_grid_handles_subnormal_steps():
    # resolution far below the subnormal range: every float is on the grid
    grid = QuantGrid(300, 0.25)
    for v in (0.3, -1.7, 1e-12, 123.456):
        assert grid.round(v) == v


# --- quantize_network ----------------------------------------------------------------


def test_quantize_depth_one_example():
    net = network([([[0.3]], [0.0])])
    quant, m = quantize_network(net, 1, 1.0, 0.25)
    assert m == 3
    xs = np.linspace(-1, 1, 201).reshape(-1, 1)
    dev = np.abs(evaluate_batch(quant, xs) - evaluate_batch(net, xs))
    assert dev.max() <= 0.25


def test_quantize_leaves_lattice_weights_alone():
    net = network([([[0.5, -0.25]], [1.0])])
    quant, m = quantize_network(net, 1, 1.0, 0.25)
    assert net == quant


def test_quantize_is_bitwise_the_rounding_of_every_entry():
    # reference: round every dense entry, zeros included; -0.0 and values
    # that round to zero come out +0.0 either way
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_net(rng)
        net = network(
            [
                (np.where(rng.random(l.matrix.shape) < 0.5, -0.0, l.matrix),
                 np.where(rng.random(l.bias.shape) < 0.3, -0.0, l.bias))
                for l in net.layers
            ]
        )
        k = minimal_quantization_k(net, 0.25)
        quant, m = quantize_network(net, k, 1.0, 0.25)
        grid = QuantGrid(m, 0.25)
        want = network(
            [
                (np.vectorize(grid.round, otypes=[float])(l.matrix),
                 np.vectorize(grid.round, otypes=[float])(l.bias))
                for l in net.layers
            ]
        )
        assert quant == want
        for layer in quant.layers:
            for arr in (layer.matrix, layer.bias):
                assert not np.signbit(arr[arr == 0]).any()


def test_quantize_reports_violations():
    net = network([([[100.0]], [0.0])])
    with pytest.raises(QuantizationError) as err:
        quantize_network(net, 1, 1.0, 0.25)
    assert "magnitude" in str(err.value)
    assert "smallest admissible k" in str(err.value)
    k = minimal_quantization_k(net, 0.25)
    quantize_network(net, k, 1.0, 0.25)  # succeeds


@pytest.mark.parametrize(
    "build",
    [
        lambda: square_network(1e-2),
        lambda: multiply_network(2.0, 1e-2),
        lambda: network([([[100.0]], [0.0])]),
        lambda: prune(cosine_network(30, 1, 1e-2)),
    ],
    ids=["square", "multiply", "magnitude100", "cos30_pruned"],
)
def test_quantize_raises_exactly_when_a_size_exceeds_eps_to_minus_k(build):
    net = build()
    stats = metrics(net)
    for eps in (0.1, 0.25, 0.3, 0.49):
        k_min = minimal_quantization_k(net, eps)
        for k in range(1, k_min + 2):
            cap = eps ** -k
            too_big = stats.connectivity > cap or stats.weight_magnitude > cap
            if too_big:
                with pytest.raises(QuantizationError):
                    quantize_network(net, k, 1.0, eps)
            else:
                quantize_network(net, k, 1.0, eps)
            assert too_big == (k < k_min)


def test_quantize_rejects_k_past_float_range():
    # a usage error, not a failed precondition: eps**-k is not a float
    with pytest.raises(ValueError, match="k = 1000") as err:
        quantize_network(network([([[0.3]], [0.0])]), 1000, 1.0, 0.01)
    assert not isinstance(err.value, QuantizationError)


@pytest.mark.parametrize("eps", [0.0, 0.5, 0.7])
def test_quantize_rejects_bad_tolerance(eps):
    net = network([([[0.3]], [0.0])])
    with pytest.raises(ValueError, match="tolerance") as err:
        quantize_network(net, 1, 1.0, eps)
    assert not isinstance(err.value, QuantizationError)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, float("nan")])
def test_minimal_k_rejects_bad_tolerance(eps):
    with pytest.raises(ValueError, match="tolerance") as err:
        minimal_quantization_k(square_network(1e-2), eps)
    assert not isinstance(err.value, QuantizationError)


def test_minimal_k_past_the_float_range_of_eps_to_minus_k():
    # 0.49**-k overflows before it reaches 1.7e308; every larger k is admissible
    net = network([([[1.7e308]], [0.0]), ([[1.0]], [0.0])])
    k = minimal_quantization_k(net, 0.49)
    assert k == 995
    assert 0.49 ** -(k - 1) < 1.7e308


@pytest.mark.parametrize("bias", [0.0, 0.5])
def test_quantize_accepts_k_min_past_the_float_range(bias):
    # eps**-995 is no float, yet 995 is the smallest admissible k; only a
    # larger k past the float range is a usage error
    net = network([([[1.7e308]], [0.0]), ([[1.0]], [bias])])
    assert minimal_quantization_k(net, 0.49) == 995
    quant, m = quantize_network(net, 995, 1.0, 0.49)
    assert m == 5970
    assert decode(encode(quant, m, 0.49), m, 0.49) == quant
    with pytest.raises(ValueError, match="k = 996") as err:
        quantize_network(net, 996, 1.0, 0.49)
    assert not isinstance(err.value, QuantizationError)


def test_quantize_rejects_a_huge_k_fast():
    # m = 3 k L would make the lattice bound a huge-integer power
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"k = {10 ** 18}"):
        quantize_network(square_network(1e-2), 10 ** 18, 1.0, 0.01)
    assert time.perf_counter() - start < 1.0


def test_quantize_error_law_on_constructors():
    cases = [
        (square_network(1e-2), 1.0),
        (multiply_network(2.0, 1e-2), 2.0),
        (sawtooth_network(4), 1.0),
    ]
    eps = 0.25
    for net, d in cases:
        k = minimal_quantization_k(net, eps)
        quant, m = quantize_network(net, k, d, eps)
        if net.in_dim == 1:
            xs = np.linspace(-d, d, 2001).reshape(-1, 1)
        else:
            g = np.linspace(-d, d, 51)
            xx, yy = np.meshgrid(g, g)
            xs = np.column_stack([xx.ravel(), yy.ravel()])
        dev = np.abs(evaluate_batch(quant, xs) - evaluate_batch(net, xs))
        assert dev.max() <= eps


# sha256 of the quantized network's relunet file and of the encoded bytes for
# eps_q 0.25 and D 1; the lattice arithmetic must reproduce both bit for bit
CODEC_PINS = {
    "cos30": (
        lambda: cosine_network(30, 1, 1e-2),
        1035,
        "f660313a703e4aab4ff4fa816aee6d9c6ffea05ab13e13241dfe39dc945b016c",
        "7e32884def4361619513df06f177707ccf0e7ca41def06b116d608e783118399",
    ),
    "bspline3": (
        lambda: bspline_network(3, 1e-3),
        168,
        "d59f0564cec4967c89539f19a12398e6d7e11e667a685a5fe977321c6f76f2bd",
        "4fc8bbafe7c607ff3ca2b96265a1b56b699e1bafe016d54cc93de826a921a8b8",
    ),
    "mult": (
        lambda: multiply_network(1, 1e-4),
        120,
        "567c43a51f9222b4a394db87b8eb4311e97279a539042959de323fb73c7ea53c",
        "ee96690a381221109ebd0653bbe80ff70ddba2bc86bf1a1b6c3658edc1df242c",
    ),
}


@pytest.mark.parametrize("key", sorted(CODEC_PINS))
def test_quantized_and_encoded_bits_are_pinned(key, tmp_path):
    build, want_m, want_quant, want_bits = CODEC_PINS[key]
    net = prune(build())
    k = minimal_quantization_k(net, 0.25)
    quant, m = quantize_network(net, k, 1.0, 0.25)
    assert m == want_m
    path = tmp_path / f"{key}.relunet"
    write_network(quant, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want_quant
    bits = encode(quant, m, 0.25)
    assert hashlib.sha256(bits.to_bytes()).hexdigest() == want_bits


# --- bitstring -----------------------------------------------------------------------


def test_bitstring_unary():
    bits = BitString()
    bits.append_unary(3)
    assert bits.to_list() == [1, 1, 1, 0]


def test_bitstring_uint_round_trip():
    bits = BitString()
    bits.append_uint(5, 3)
    bits.append_uint(0, 4)
    bits.append_uint(12345, 20)
    assert bits.uint(0, 3) == 5
    assert bits.uint(3, 4) == 0
    assert bits.uint(7, 20) == 12345


@given(st.lists(st.integers(0, 1), max_size=200))
@settings(max_examples=50, deadline=None)
def test_bitstring_bytes_round_trip(seq):
    bits = BitString(seq)
    assert BitString.from_bytes(bits.to_bytes()).to_list() == seq


@st.composite
def uint_fields(draw):
    width = draw(st.integers(0, 130))
    return draw(st.integers(0, (1 << width) - 1)), width


@given(st.lists(uint_fields(), max_size=24))
@settings(max_examples=200, deadline=None)
def test_bitstring_fields_at_any_alignment(fields):
    bits = BitString()
    model = []
    for value, width in fields:
        bits.append_uint(value, width)
        model += [(value >> (width - 1 - i)) & 1 for i in range(width)]
    assert len(bits) == len(model)
    assert bits.to_list() == model
    pos = 0
    for value, width in fields:
        assert bits.uint(pos, width) == value
        pos += width
    blob = bits.to_bytes()
    assert BitString.from_bytes(blob) == bits
    if len(bits) % 8:
        # the padding bits of the last byte are not part of the string
        ones = bytearray(blob)
        ones[-1] |= (1 << (8 - len(bits) % 8)) - 1
        assert BitString.from_bytes(bytes(ones)) == bits


# --- codec ---------------------------------------------------------------------------


def test_encode_empty_network_single_zero():
    # connectivity 0 is degenerate: no node has an edge, so there is no bitstring
    with pytest.raises(CodecError, match="prune first"):
        encode(network([([[0.0]], [0.0])]), 2, 0.25)
    with pytest.raises(CodecError):
        decode(BitString([0]), 2, 0.25)


def test_unary_prefix():
    # connectivity 3: single layer x -> (x, -x) plus one bias
    net = network([([[1.0], [-1.0]], [0.25, 0.0])])
    bits = encode(net, 2, 0.25)
    assert bits.to_list()[:4] == [1, 1, 1, 0]


def test_round_trip_hat(hat_net):
    quant, m = quantize_network(hat_net, 2, 1.0, 0.25)
    bits = encode(quant, m, 0.25)
    back = decode(bits, m, 0.25)
    assert quant == back
    assert len(bits) <= code_length_bound(metrics(quant).connectivity, m, 0.25)


def test_round_trip_square_network():
    net = square_network(1e-3)
    eps = 0.25
    k = minimal_quantization_k(net, eps)
    quant, m = quantize_network(net, k, 1.0, eps)
    bits = encode(quant, m, eps)
    back = decode(bits, m, eps)
    assert quant == back


def test_round_trip_random_lattice_nets():
    rng = np.random.default_rng(11)
    eps, m = 0.25, 3
    grid = QuantGrid(m, eps)
    count = 0
    for _ in range(40):
        net = random_net(rng)
        snapped = network(
            [
                (
                    np.vectorize(grid.round)(l.matrix),
                    np.vectorize(grid.round)(l.bias),
                )
                for l in net.layers
            ]
        )
        snapped = prune(snapped)
        if not is_nondegenerate(snapped):
            continue
        stats = metrics(snapped)
        count += 1
        bits = encode(snapped, m, eps)
        back = decode(bits, m, eps)
        assert snapped == back
        assert len(bits) <= code_length_bound(stats.connectivity, m, eps)
    assert count >= 20


LATTICE_2 = st.integers(-256, 256).filter(bool).map(lambda i: i / 16)


@st.composite
def power_of_two_lattice_nets(draw):
    """Nondegenerate networks on QuantGrid(2, 0.25) whose connectivity M is
    1 or a power of two, where depth or a dimension may equal M."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    mats = []
    for ell in range(len(dims) - 1):
        rows, cols = dims[ell + 1], dims[ell]
        mask = np.zeros((rows, cols), dtype=bool)
        for col in range(cols):  # every node feeds a child
            kids = draw(st.sets(st.integers(0, rows - 1), min_size=1))
            mask[list(kids), col] = True
        if ell == len(dims) - 2:  # every output node has a parent
            for row in np.flatnonzero(~mask.any(axis=1)):
                mask[row, draw(st.integers(0, cols - 1))] = True
        mat = np.zeros((rows, cols))
        mat[mask] = [draw(LATTICE_2) for _ in range(int(mask.sum()))]
        mats.append(mat)
    edges = sum(np.count_nonzero(mat) for mat in mats)
    nodes = sum(dims[1:])
    targets = [2 ** j for j in range(7) if edges <= 2 ** j <= edges + nodes]
    assume(targets)
    conn = draw(st.sampled_from(targets))
    live = draw(st.permutations(range(nodes)))[: conn - edges]
    biases = np.zeros(nodes)
    biases[live] = [draw(LATTICE_2) for _ in live]
    cuts = np.cumsum(dims[1:-1]).tolist()
    return network(list(zip(mats, np.split(biases, cuts))))


@given(power_of_two_lattice_nets())
@example(network([([[1.0]], [0.0])]))
@example(network([([[1.0]], [0.0]), ([[1.0]], [0.0])]))
@example(network([([[1.0]], [0.0])] * 4))
@settings(max_examples=150, deadline=None)
def test_round_trip_at_power_of_two_connectivity(net):
    m, eps = 2, 0.25
    conn = metrics(net).connectivity
    assert is_nondegenerate(net) and conn & (conn - 1) == 0
    bits = encode(net, m, eps)
    assert decode(bits, m, eps) == net
    assert len(bits) <= code_length_bound(conn, m, eps)


def test_decode_rejects_truncation(hat_net):
    quant, m = quantize_network(hat_net, 2, 1.0, 0.25)
    bits = encode(quant, m, 0.25)
    clipped = BitString(bits.to_list()[:-3])
    with pytest.raises(CodecError):
        decode(clipped, m, 0.25)


def test_decode_rejects_short_string_before_allocating():
    # header of a 4000 x 4000 layer with no edges and no weights: about 7 KB
    # of bits that would need a 128 MB dense matrix
    bits = BitString()
    bits.append_unary(4000)
    for field in (1, 4000, 4000):
        bits.append_uint(field, 12)
    for _ in range(4000):
        bits.append_uint(0, 13)
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="truncated"):
            decode(bits, 2, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _identity(n):
    return network([(np.eye(n), np.zeros(n))])


def test_decode_refuses_layers_above_the_dense_cap(monkeypatch):
    monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 399)
    with pytest.raises(CodecError, match="400 dense entries"):
        decode(encode(_identity(20), 2, 0.25), 2, 0.25)


def test_decode_keeps_a_large_identity_under_the_real_cap():
    assert 1000 * 1000 <= core.MAX_DENSE_ENTRIES
    net = _identity(1000)
    assert decode(encode(net, 2, 0.25), 2, 0.25) == net


@pytest.mark.parametrize(
    "m, index, match",
    [
        (2, None, "outside"),  # all ones decodes 31.9375, above eps**-2 = 16
        (600, None, "outside"),
        (600, 2 ** 2400, "overflows"),  # in range, but 2**1200 is no float
    ],
    ids=["m2-all-ones", "m600-all-ones", "m600-float-overflow"],
)
def test_decode_rejects_index_outside_clip_range(hat_net, m, index, match):
    bits = encode(hat_net, m, 0.25)
    width = QuantGrid(m, 0.25).bits_per_weight
    offset = 1 << (width - 1)
    # the last field is the output bias; None writes all ones, the largest
    # index the field holds
    tampered = BitString(bits.to_list()[:-width])
    tampered.append_uint(offset + (offset - 1 if index is None else index), width)
    with pytest.raises(CodecError, match=match):
        decode(tampered, m, 0.25)


def raw_bits(conn, dims, children, weights):
    """Bits in encode's layout for m=2, eps=0.25 and four nodes: unary
    connectivity, depth and dims in ceil(log2(conn + 1))-bit fields, 3-bit
    child indices, and 10-bit weights at offset 512 with lattice step 1/16."""
    width = conn.bit_length()
    bits = BitString()
    bits.append_unary(conn)
    for field in (len(dims) - 1, *dims):
        bits.append_uint(field, width)
    for kids in children:
        for child in (*kids, 0):
            bits.append_uint(child, 3)
    for w in weights:
        bits.append_uint(512 + int(w * 16), 10)
    return bits


# the 1-2-1 network x -> rho(x + 1/4) + rho(-x): nodes 1 | 2, 3 | 4
FAN_121 = [(2, 3), (4,), (4,)]
WEIGHTS_121 = [0, 1, -1, 0.25, 1, 0, 1, 0]


def test_raw_bits_are_what_encode_emits():
    net = network([([[1.0], [-1.0]], [0.25, 0.0]), ([[1.0, 1.0]], [0.0])])
    bits = raw_bits(5, (1, 2, 1), FAN_121, WEIGHTS_121)
    assert encode(net, 2, 0.25) == bits
    assert decode(bits, 2, 0.25) == net


@pytest.mark.parametrize(
    "conn, dims, children, weights, match",
    [
        (5, (1, 2, 1), [(2, 2), (4,), (4,)], WEIGHTS_121, "ascending"),
        (4, (1, 2, 1), FAN_121, [0, 1, 0, 0.25, 1, 0, 1, 0], "nonzero"),
        (6, (1, 2, 1), FAN_121, WEIGHTS_121, "header connectivity"),
        (4, (1, 2, 1), [(2, 3), (4,), ()], [0, 1, -1, 0.25, 1, 0, 0], "no child"),
        (3, (1, 1, 2), [(2,), (3,)], [0, 1, 0, 1, 0, 0.5], "no parent"),
    ],
    ids=["repeated-child", "zero-edge", "header", "childless-node", "orphan-output"],
)
def test_decode_accepts_only_what_encode_emits(conn, dims, children, weights, match):
    with pytest.raises(CodecError, match=match):
        decode(raw_bits(conn, dims, children, weights), 2, 0.25)


@given(st.lists(st.integers(0, 1), max_size=600))
@settings(max_examples=300, deadline=None)
def test_decode_fuzz_raises_only_codec_error(seq):
    try:
        decode(BitString(seq), 2, 0.25)
    except CodecError:
        pass


def test_encode_rejects_off_grid_weights():
    net = network([([[0.3]], [0.0])])
    with pytest.raises(CodecError):
        encode(net, 1, 0.25)


def test_encode_rejects_degenerate(hat_net):
    net = network([([[1.0], [0.0]], [0.0, 0.25])])
    with pytest.raises(CodecError):
        encode(net, 2, 0.25)


# --- length bound ---------------------------------------------------------------------


def test_code_length_bound_example():
    # connectivity 1, m=1, eps=1/4: per-weight width 6, so 3 weights take 18
    # bits, 3 child fields of w(2) = 2 bits take 6, 3 size fields of w(1) = 1
    # bit take 3, and the unary connectivity 2: bound 29
    assert QuantGrid(1, 0.25).bits_per_weight == 6
    assert code_length_bound(1, 1, 0.25) == 29
    # x -> x emits 2 + 3 + 2 * 2 + 3 * 6 = 27 bits
    assert len(encode(network([([[1.0]], [0.0])]), 1, 0.25)) == 27


def test_code_length_bound_empty():
    with pytest.raises(ValueError, match="below 1"):
        code_length_bound(0, 1, 0.25)


def ceil_log2_bound(conn, m, eps):
    """code_length_bound as it was with ceil(log2(n))-bit fields, which hold
    only n - 1 when n is a power of two."""
    b_eps = QuantGrid(m, eps).bits_per_weight
    return (
        3 * conn * b_eps
        + 3 * conn * (2 * conn - 1).bit_length()
        + (conn + 2) * (conn - 1).bit_length()
        + conn
        + 1
    )


def test_code_length_bound_changes_only_at_powers_of_two():
    for conn in range(1, 4097):
        old = ceil_log2_bound(conn, 2, 0.25)
        if conn & (conn - 1):
            assert code_length_bound(conn, 2, 0.25) == old
        else:
            # one more bit in each of the 3M child and M + 2 size fields
            assert code_length_bound(conn, 2, 0.25) == old + 4 * conn + 2


def test_code_length_bound_monotone():
    vals = [code_length_bound(m, 2, 0.25) for m in (1, 2, 4, 8)]
    assert vals == sorted(vals)


def test_decoded_weights_lie_on_grid(hat_net):
    eps = 0.25
    quant, m = quantize_network(hat_net, 2, 1.0, eps)
    back = decode(encode(quant, m, eps), m, eps)
    grid = QuantGrid(m, eps)
    for layer in back.layers:
        for v in np.concatenate([layer.matrix.ravel(), layer.bias]):
            assert grid.contains(v)
