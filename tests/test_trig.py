import math
import warnings

import numpy as np
import pytest

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    chebyshev_degree,
    cosine_network,
    cosine_shifted_network,
    interpolation_degree,
    sawtooth_network,
    sine_network,
    weierstrass_network,
)
from relucalc.constructors.trig import _COS_SCALE, _COSINE_CORE, _cosine_tail_bound

from conftest import grid_eval


def test_cosine_at_zero():
    net = cosine_network(1.0, 1.0, 1e-3)
    assert abs(evaluate_batch(net, 0.0)[0, 0] - 1.0) <= 1e-3


def test_cosine_low_frequency_error():
    net = cosine_network(2.0, 1.0, 1e-3)
    xs = np.linspace(-1, 1, 4001)
    assert np.max(np.abs(grid_eval(net, xs) - np.cos(2.0 * xs))) <= 1e-3


def test_cosine_high_frequency_error():
    net = cosine_network(100.0, 1.0, 1e-2)
    xs = np.linspace(-1, 1, 20001)
    assert np.max(np.abs(grid_eval(net, xs) - np.cos(100.0 * xs))) <= 1e-2


def test_cosine_evenness():
    net = cosine_network(2.0 * math.pi * 4.0, 1.0, 1e-2)
    xs = np.linspace(0.0, 1.0, 501)
    np.testing.assert_array_equal(grid_eval(net, xs), grid_eval(net, -xs))


def test_cosine_wide_domain():
    net = cosine_network(3.0, 10.0, 1e-2)
    xs = np.linspace(-10, 10, 20001)
    assert np.max(np.abs(grid_eval(net, xs) - np.cos(3.0 * xs))) <= 1e-2


def test_cosine_shape_bounds():
    for a, d, eps in [(1.0, 1.0, 1e-2), (1000.0, 1.0, 1e-2), (10.0, 10.0, 1e-3)]:
        net = cosine_network(a, d, eps)
        m = metrics(net)
        assert m.width <= 9
        assert m.weight_magnitude <= 1.0


def test_cosine_matches_folded_sawtooth():
    # on [0, 1] with a = pi * 2^s the network equals cos(pi * g_s(x)) within eps
    s, eps = 4, 1e-3
    a = math.pi * 2.0 ** s
    net = cosine_network(a, 1.0, eps)
    saw = sawtooth_network(s)
    xs = np.linspace(0.0, 1.0, 2001)
    folded = grid_eval(saw, xs)
    want = np.cos(math.pi * folded)
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps


def test_cosine_rejects_bad_args():
    with pytest.raises(ValueError):
        cosine_network(-1.0, 1.0, 1e-2)
    with pytest.raises(ValueError):
        cosine_network(1.0, 1.0, 0.7)


def test_shifted_sine_at_zero():
    net = cosine_shifted_network(1.0, math.pi / 2.0, 1.0, 1e-3)
    assert abs(evaluate_batch(net, 0.0)[0, 0]) <= 1e-3


def test_shifted_error():
    net = cosine_shifted_network(3.0, 1.0, 2.0, 1e-2)
    xs = np.linspace(-2, 2, 8001)
    assert np.max(np.abs(grid_eval(net, xs) - np.cos(3.0 * xs - 1.0))) <= 1e-2


def test_shift_zero_reduces_to_cosine():
    a, d, eps = 5.0, 1.0, 1e-3
    shifted = cosine_shifted_network(a, 0.0, d, eps)
    plain = cosine_network(a, d, eps)
    xs = np.linspace(-1, 1, 501)
    np.testing.assert_allclose(
        grid_eval(shifted, xs), grid_eval(plain, xs), atol=1e-12
    )


def test_sine_network():
    net = sine_network(2.0, 1.0, 1e-2)
    xs = np.linspace(-1, 1, 2001)
    assert np.max(np.abs(grid_eval(net, xs) - np.sin(2.0 * xs))) <= 1e-2


# --- degree of the cosine core --------------------------------------------------------


def test_cosine_tail_bound_dominates_the_bessel_tail():
    # 4 (6/pi^3) sum_{k>n, k even} |J_k(pi)|, J_k(pi) from its power series
    def bessel(k):
        return sum(
            (-1) ** j * (math.pi / 2.0) ** (2 * j + k)
            / (math.factorial(j) * math.factorial(j + k))
            for j in range(40)
        )

    for n in range(0, 24):
        tail = sum(abs(bessel(k)) for k in range(n + 1, 60) if k % 2 == 0)
        assert 4.0 * _COS_SCALE * tail <= _cosine_tail_bound(n)


@pytest.mark.parametrize(
    "eps", [0.49, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14]
)
def test_cosine_degree_is_the_least_that_meets_the_tail_bound(eps):
    core_eps = _COS_SCALE * eps
    n = chebyshev_degree(_COSINE_CORE, core_eps)
    assert _cosine_tail_bound(n) <= core_eps / 2.0
    assert _cosine_tail_bound(n - 2) > core_eps / 2.0
    assert n <= interpolation_degree(core_eps)


@pytest.mark.parametrize(
    "eps, degree", [(1e-2, 6), (1e-4, 10), (1e-8, 14), (1e-12, 18)]
)
def test_cosine_degrees(eps, degree):
    assert chebyshev_degree(_COSINE_CORE, _COS_SCALE * eps) == degree


@pytest.mark.parametrize(
    "build, connectivity",
    [
        (lambda: cosine_network(30, 1, 1e-2), 944),
        (lambda: cosine_network(100, 1, 1e-2), 957),
        (lambda: weierstrass_network(0.4, 3, 1, 1e-1), 3852),
    ],
    ids=["cos30", "cos100", "weier"],
)
def test_cosine_builds_keep_their_size(build, connectivity):
    assert metrics(build()).connectivity == connectivity


@pytest.mark.parametrize("eps", [1e-8, 1e-12])
def test_cosine_high_accuracy(eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = cosine_network(1.0, 1.0, eps)
    xs = np.linspace(-1, 1, 200_001)
    assert np.max(np.abs(grid_eval(net, xs) - np.cos(xs))) <= eps
