"""Acceptance suite: the headline contracts, each pinned at its tolerance.

Each test prints one PASS/FAIL line; run with -s to see them inline.
Frozen regression constants (depth bounds) were measured once on this
implementation and guard against structural regressions.
"""

import functools
import math

import numpy as np
from relucalc import (
    evaluate_batch,
    metrics,
    network,
    prune,
    is_nondegenerate,
)
from relucalc.analysis import (
    asymptotic_piece_constant,
    count_linear_regions,
    cover_exp_family,
    cover_interval,
    min_pieces,
    pack_exp_family,
    pack_interval,
    region_bound,
)
from relucalc.constructors import (
    SmoothDescriptor,
    bspline_network,
    cardinal_bspline,
    cosine_network,
    cutoff_network,
    gaussian_network,
    haar_element_network,
    multiply_network,
    oscillatory_network,
    polynomial_network,
    sawtooth_network,
    smooth_network,
    spline_wavelet_coeffs,
    spline_wavelet_network,
    spline_wavelet_reference,
    square_interpolant_network,
    weierstrass_network,
    weierstrass_reference,
    weierstrass_terms,
)
from relucalc.quantcode import (
    code_length_bound,
    decode,
    encode,
    minimal_quantization_k,
    quantize_network,
)
from conftest import grid_eval, random_net

SLACK = 1e-12  # binary64 rounding allowance on "<= eps" contracts

# regression constants frozen from the reference runs of this implementation
MULTIPLY_DEPTH_FACTOR = 4.0  # measured maximum 2.86
COSINE_DEPTH_FACTOR = 6.0  # measured maximum 4.20


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {label}")
                raise
            print(f"[criterion {num:2d}] PASS  {label}")

        return wrapper

    return deco


@criterion(1, "squaring error exactly 2^(-2m-2), width 3, zero at origin")
def test_criterion_1_squaring():
    for m in range(1, 11):
        net = square_interpolant_network(m)
        xs = np.union1d(
            np.linspace(0.0, 1.0, 100_001),
            np.arange(2 ** (m + 2) + 1) / 2.0 ** (m + 2),
        )
        err = np.abs(grid_eval(net, xs) - xs ** 2)
        assert abs(err.max() - 2.0 ** (-2 * m - 2)) <= SLACK
        stats = metrics(net)
        assert stats.width == 3
        assert stats.weight_magnitude <= 1.0
        assert evaluate_batch(net, 0.0)[0, 0] == 0.0


@criterion(2, "multiplication error, exact zeros, magnitude, depth growth")
def test_criterion_2_multiplication():
    for d in (1.0, 4.0, 1000.0):
        for eps in (1e-1, 1e-3, 1e-6):
            net = multiply_network(d, eps)
            g = np.linspace(-d, d, 513)
            xx, yy = np.meshgrid(g, g)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            got = evaluate_batch(net, pts)[:, 0]
            assert np.max(np.abs(got - pts[:, 0] * pts[:, 1])) <= eps + SLACK
            for x in (7.3, -0.4, d):
                assert evaluate_batch(net, [0.0, x])[0, 0] == 0.0
                assert evaluate_batch(net, [x, 0.0])[0, 0] == 0.0
            stats = metrics(net)
            assert stats.weight_magnitude <= 1.0
            assert net.depth <= MULTIPLY_DEPTH_FACTOR * (
                math.log2(math.ceil(d)) + math.log2(1.0 / eps)
            )


@criterion(3, "polynomials at width 9 and smooth functions down to 1e-6")
def test_criterion_3_polynomial_smooth():
    rng = np.random.default_rng(2024)
    eps = 1e-3
    for _ in range(50):
        degree = int(rng.integers(0, 11))
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        d = float(rng.uniform(0.5, 4.0))
        net = polynomial_network(coeffs, d, eps)
        xs = np.linspace(-d, d, 2001)
        want = np.polyval(coeffs[::-1], xs)
        assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps + SLACK
        assert metrics(net).width <= 9
    f = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "1/(2-x)")
    for eps_s in (1e-2, 1e-4, 1e-6):
        net = smooth_network(f, eps_s)
        xs = np.linspace(-1.0, 1.0, 100_001)
        err = np.abs(grid_eval(net, xs) - 1.0 / (2.0 - xs))
        assert err.max() <= eps_s + SLACK


@criterion(4, "cosine error, width 9, depth affine in (log 1/eps)^2 + log(aD)")
def test_criterion_4_cosine():
    for a in (1.0, 10.0, 1e3, 1e4):
        for d in (1.0, 10.0):
            for eps in (1e-2, 1e-4):
                net = cosine_network(a, d, eps)
                xs = np.linspace(-d, d, 20_001)
                err = np.abs(grid_eval(net, xs) - np.cos(a * xs))
                assert err.max() <= eps + SLACK
                stats = metrics(net)
                assert stats.width <= 9
                assert stats.weight_magnitude <= 1.0
                assert net.depth <= COSINE_DEPTH_FACTOR * (
                    math.log2(1.0 / eps) ** 2 + math.log2(math.ceil(a * d))
                )


@criterion(5, "lacunary cosine series vs 60-term reference, width 13")
def test_criterion_5_weierstrass():
    assert weierstrass_terms(1e-2) == 8
    assert weierstrass_terms(1e-3) == 11
    assert weierstrass_terms(0.25) == 3
    for p, a in ((0.4, 3.0), (0.45, 5.0)):
        for eps in (1e-2, 1e-3):
            net = weierstrass_network(p, a, 1.0, eps)
            xs = np.linspace(-1.0, 1.0, 20_001)
            want = np.array([weierstrass_reference(p, a, x) for x in xs])
            assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps + SLACK
            assert metrics(net).width <= 13


@criterion(6, "B-splines with exact tails; order-1 wavelet coefficients")
def test_criterion_6_splines():
    eps = 1e-2
    for m in (2, 3, 4):
        net = bspline_network(m, eps)
        xs = np.linspace(-2.0, m + 2.0, 20_001)
        want = np.array([cardinal_bspline(m, x) for x in xs])
        assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps + SLACK
        assert abs(evaluate_batch(net, 10.0)[0, 0]) <= eps
        assert abs(evaluate_batch(net, -10.0)[0, 0]) <= eps
    assert spline_wavelet_coeffs(1) == (1.0, -1.0)
    wave = spline_wavelet_network(2, 2e-2)
    xs = np.linspace(0.0, 3.0, 4001)
    want = np.array([spline_wavelet_reference(2, x) for x in xs])
    assert np.max(np.abs(grid_eval(wave, xs) - want)) <= 2e-2 + SLACK


@criterion(7, "Gaussian bump with exact zero outside the cutoff box")
def test_criterion_7_gaussian():
    for dim in (1, 2):
        for eps in (1e-2, 1e-3):
            net = gaussian_network(dim, eps)
            radius = math.ceil(math.log2(1.0 / eps))
            n = 20_001 if dim == 1 else 61
            axes = [np.linspace(-radius - 2.0, radius + 2.0, n)] * dim
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([v.ravel() for v in mesh])
            got = evaluate_batch(net, pts)[:, 0]
            want = np.exp(-np.sum(pts ** 2, axis=1))
            assert np.max(np.abs(got - want)) <= eps + SLACK
            far = [radius + 2.0] + [0.0] * (dim - 1)
            assert evaluate_batch(net, far)[0, 0] == 0.0
            assert metrics(net).weight_magnitude <= 1.0


@criterion(8, "oscillatory texture at frequency 100, width 32")
def test_criterion_8_oscillatory():
    g = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "warp")
    h = SmoothDescriptor(lambda x: 1.0 / (2.0 + x), (-1.0, 1.0), "envelope")
    a, eps = 100.0, 1e-2
    net = oscillatory_network(g, h, a, 1.0, eps)
    xs = np.linspace(-1.0, 1.0, 10_001)
    want = np.cos(a / (2.0 - xs)) / (2.0 + xs)
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps + SLACK
    assert metrics(net).width <= 32


@criterion(9, "quantization deviation within eps at the minimal admissible k")
def test_criterion_9_quantization():
    eps_q = 0.25
    cases = [
        (square_interpolant_network(4), 1.0),
        (multiply_network(4.0, 1e-2), 4.0),
        (cosine_network(10.0, 1.0, 1e-2), 1.0),
    ]
    for net, d in cases:
        k = minimal_quantization_k(net, eps_q)
        quant, m = quantize_network(net, k, d, eps_q)
        if net.in_dim == 1:
            pts = np.linspace(-d, d, 4001).reshape(-1, 1)
        else:
            g = np.linspace(-d, d, 101)
            xx, yy = np.meshgrid(g, g)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
        dev = np.abs(evaluate_batch(quant, pts) - evaluate_batch(net, pts))
        assert dev.max() <= eps_q + SLACK


def _codec_corpus():
    hat = network(
        [([[1.0], [1.0], [1.0]], [0.0, -0.5, -1.0]), ([[2.0, -4.0, 2.0]], [0.0])]
    )
    g = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "g")
    return [
        ("hat", hat, 1.0),
        ("sawtooth", sawtooth_network(3), 1.0),
        ("square", square_interpolant_network(5), 1.0),
        ("multiply", multiply_network(2.0, 1e-2), 2.0),
        ("polynomial", polynomial_network([0.5, -0.25, 0.125], 1.0, 1e-2), 1.0),
        ("smooth", smooth_network(g, 1e-2), 1.0),
        ("cosine", cosine_network(10.0, 1.0, 1e-2), 1.0),
        ("bspline", bspline_network(2, 0.1), 4.0),
        ("wavelet", spline_wavelet_network(1, 0.1), 3.0),
        ("gaussian", gaussian_network(1, 0.2), 4.0),
        ("weierstrass", weierstrass_network(0.4, 3.0, 1.0, 0.25), 1.0),
        ("haar", haar_element_network(1, 0, 0.1), 1.0),
        ("cutoff", cutoff_network(2.0, 1), 3.0),
        ("oscillatory-envelope", cutoff_network(1.0, 2), 2.0),
    ]


@criterion(10, "codec round trips bit-exact with lengths within the bound")
def test_criterion_10_codec():
    eps_q = 0.25
    for label, net, d in _codec_corpus():
        net = prune(net)
        assert is_nondegenerate(net), f"{label} degenerate after prune"
        k = minimal_quantization_k(net, eps_q)
        quant, m = quantize_network(net, k, d, eps_q)
        bits = encode(quant, m, eps_q)
        back = decode(bits, m, eps_q)
        assert back == quant, label
        bound = code_length_bound(metrics(quant).connectivity, m, eps_q)
        assert len(bits) <= bound, label


@criterion(11, "region counts: exactly 2^s sawtooth pieces, bound respected")
def test_criterion_11_regions():
    for s in range(1, 13):
        count, bound = count_linear_regions(sawtooth_network(s), (0.0, 1.0))
        assert count == 2 ** s
        assert count <= bound
    rng = np.random.default_rng(7)
    corpus = [
        sawtooth_network(5),
        square_interpolant_network(6),
        bspline_network(2, 0.1),
        polynomial_network([0.1, 0.4, -0.3, 0.2], 1.0, 1e-2),
    ] + [random_net(rng, in_dim=1, out_dim=1) for _ in range(10)]
    for net in corpus:
        count, bound = count_linear_regions(net, (-2.0, 2.0))
        assert count <= bound == region_bound(net)


@criterion(12, "free-knot scaling constant and depth-width separation witness")
def test_criterion_12_depth_width():
    target = math.sqrt(2.0) / 4.0
    assert (
        abs(asymptotic_piece_constant(lambda x: 2.0, (0.0, 1.0)) - target)
        <= 1e-9
    )
    for eps, grid in ((1e-4, 50_001), (1e-5, 150_001), (1e-6, 400_001)):
        count = min_pieces(lambda x: x * x, (0.0, 1.0), eps, grid)
        assert abs(count * math.sqrt(eps) - target) <= 0.15 * target

    # witness: the deep cosine construction realizes more linear pieces than
    # any depth-3 network of width (log2 a)^2 could, per the piece bound
    # (2 * width) ** depth.  The full region count is certified from one
    # tile: the sawtooth fold maps each dyadic tile affinely onto [0, 1],
    # so every full tile carries an identical piece count (spot-checked), and
    # disjoint tiles contribute disjoint interior slope changes.
    a, eps = 2.0 ** 14, 1e-3
    net = cosine_network(a, 1.0, eps)
    s = math.ceil(math.log2(a) - math.log2(math.pi))
    alpha = a / (math.pi * 2.0 ** s)
    tiles = math.floor(alpha * 2.0 ** (s - 1))
    width = 1.0 / (alpha * 2.0 ** (s - 1))
    counts = [
        count_linear_regions(net, (j * width, (j + 1) * width))[0]
        for j in (0, 5, 137)
    ]
    spread = (max(counts) - min(counts)) / max(counts)
    assert spread <= 0.02, "tile piece counts should agree"
    lower = 2 * tiles * (math.floor(min(counts) * 0.98) - 1) + 1
    hypothetical = (2.0 * math.log2(a) ** 2) ** 3
    assert lower > hypothetical


@criterion(13, "covering and packing demo counts with the sandwich law")
def test_criterion_13_covering_packing():
    centers = cover_interval(0.1)
    assert len(centers) == 11
    assert centers[0] == -1.0 and abs(centers[-1] - 1.0) <= SLACK
    thetas = pack_exp_family(0.1)
    assert len(thetas) == 7  # six interior points plus theta = 0
    for eps in (0.2, 0.1, 0.05):
        assert len(pack_interval(2 * eps)) <= len(cover_interval(eps))
        assert len(cover_interval(eps)) <= len(pack_interval(eps))
        assert len(pack_exp_family(2 * eps)) <= len(cover_exp_family(eps))
        assert len(cover_exp_family(eps)) <= len(pack_exp_family(eps))
