import math

import numpy as np
import pytest

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    cutoff_network,
    gaussian_network,
    modulated_network,
)
from relucalc.constructors.splines import _plateau_gate

from conftest import grid_eval


# --- cutoff ------------------------------------------------------------------------


def test_cutoff_1d_values():
    net = cutoff_network(2.0, 1)
    assert evaluate_batch(net, 0.0)[0, 0] == 1.0
    assert evaluate_batch(net, 3.5)[0, 0] == 0.0
    assert evaluate_batch(net, -3.5)[0, 0] == 0.0
    assert evaluate_batch(net, 2.5)[0, 0] == 0.5


# (gate, plateau value, lo, hi, ramp): the cutoff in 1 to 3 dimensions, a
# prescaled box as gaussian_network uses it, and the order-1 B-spline gate
# (asymmetric box, ramp eps**2 / 2 at eps = 1e-2)
GATES = {
    "cutoff-1d": lambda: (cutoff_network(2.0, 1), 1.0, -2.0, 2.0, 1.0),
    "cutoff-2d": lambda: (cutoff_network(1.0, 2), 1.0, -1.0, 1.0, 1.0),
    "cutoff-3d": lambda: (cutoff_network(1.5, 3), 1.0, -1.5, 1.5, 1.0),
    "scaled-2d": lambda: (_plateau_gate(-5.0, 5.0, 1.0, 2)[0], 0.125, -5.0, 5.0, 1.0),
    "bspline-1": lambda: (_plateau_gate(0.0, 1.0, 5e-5)[0], 5e-5, 0.0, 1.0, 5e-5),
}


def test_cutoff_plateaus_exact_on_general_floats():
    rng = np.random.default_rng(0)
    for key, build in GATES.items():
        net, plateau, lo, hi, ramp = build()
        inside = rng.uniform(lo, hi, size=(200, net.in_dim))
        # one coordinate beyond the ramp on either side zeroes the gate
        outside = rng.uniform(lo, hi, size=(200, net.in_dim))
        outside[np.arange(200), rng.integers(net.in_dim, size=200)] = np.concatenate(
            [rng.uniform(hi + ramp, 50.0, 100), rng.uniform(-50.0, lo - ramp, 100)]
        )
        assert np.all(evaluate_batch(net, inside)[:, 0] == plateau), key
        assert np.all(evaluate_batch(net, outside)[:, 0] == 0.0), key


def test_cutoff_2d_corner_value():
    net = cutoff_network(1.0, 2)
    assert evaluate_batch(net, [1.5, 0.0])[0, 0] == 0.5
    assert evaluate_batch(net, [0.3, -0.8])[0, 0] == 1.0
    assert evaluate_batch(net, [2.5, 0.0])[0, 0] == 0.0
    assert evaluate_batch(net, [1.5, 1.5])[0, 0] == 0.0  # two half-active coordinates


def test_cutoff_range():
    net = cutoff_network(1.5, 3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3.0, 3.0, size=(500, 3))
    vals = evaluate_batch(net, pts)[:, 0]
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_rejects_bad_args():
    with pytest.raises(ValueError):
        cutoff_network(0.0, 1)
    with pytest.raises(ValueError):
        cutoff_network(1.0, 0)


# --- modulation ---------------------------------------------------------------------


def test_modulation_zero_frequency_passthrough():
    env = gaussian_network(1, 1e-2)
    re, im = modulated_network(env, 1.0, [0.0], 2.0, 1e-2)
    xs = np.linspace(-2, 2, 101)
    np.testing.assert_array_equal(grid_eval(re, xs), grid_eval(env, xs))
    np.testing.assert_array_equal(grid_eval(im, xs), 0.0)


def test_modulation_of_gaussian():
    eps = 1e-2
    env = gaussian_network(1, eps)
    re, im = modulated_network(env, 1.0, [2.0], 2.0, eps)
    xs = np.linspace(-2, 2, 2001)
    g = np.exp(-(xs ** 2))
    err_re = np.abs(grid_eval(re, xs) - np.cos(2 * math.pi * 2.0 * xs) * g)
    err_im = np.abs(grid_eval(im, xs) - np.sin(2 * math.pi * 2.0 * xs) * g)
    assert err_re.max() + err_im.max() <= 3 * eps
    assert metrics(re).weight_magnitude <= 1.0
    assert metrics(im).weight_magnitude <= 1.0


def test_modulation_modulus_bound():
    eps = 1e-2
    env = gaussian_network(1, eps)
    re, im = modulated_network(env, 1.0, [3.0], 1.0, eps)
    xs = np.linspace(-1, 1, 501)
    mod2 = grid_eval(re, xs) ** 2 + grid_eval(im, xs) ** 2
    assert np.all(mod2 <= (1.0 + 3 * eps) ** 2)


def test_modulation_dimension_check():
    env = gaussian_network(1, 1e-2)
    with pytest.raises(ValueError):
        modulated_network(env, 1.0, [1.0, 2.0], 1.0, 1e-2)


# --- gaussian ------------------------------------------------------------------------


def test_gaussian_peak():
    for eps in (1e-2, 1e-3):
        net = gaussian_network(1, eps)
        assert abs(evaluate_batch(net, 0.0)[0, 0] - 1.0) <= eps


def test_gaussian_1d_error_everywhere():
    eps = 1e-2
    net = gaussian_network(1, eps)
    radius = math.ceil(math.log2(1.0 / eps))
    xs = np.linspace(-radius - 2.0, radius + 2.0, 40001)
    err = np.abs(grid_eval(net, xs) - np.exp(-(xs ** 2)))
    assert err.max() <= eps


def test_gaussian_vanishes_outside_support():
    eps = 1e-2
    net = gaussian_network(1, eps)
    radius = math.ceil(math.log2(1.0 / eps))
    assert evaluate_batch(net, radius + 2.0)[0, 0] == 0.0
    assert evaluate_batch(net, -radius - 1.5)[0, 0] == 0.0


def test_gaussian_2d_value():
    eps = 1e-2
    net = gaussian_network(2, eps)
    got = evaluate_batch(net, [1.0, 1.0])[0, 0]
    assert abs(got - math.exp(-2.0)) <= eps


def test_gaussian_magnitude():
    assert metrics(gaussian_network(1, 1e-2)).weight_magnitude <= 1.0
    assert metrics(gaussian_network(2, 5e-2)).weight_magnitude <= 1.0
