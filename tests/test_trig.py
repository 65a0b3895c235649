import math

import numpy as np
import pytest

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    cosine_network,
    cosine_shifted_network,
    sawtooth_network,
    sine_network,
)

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
