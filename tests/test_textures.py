import numpy as np
import pytest

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    SmoothDescriptor,
    oscillatory_network,
    weierstrass_network,
    weierstrass_reference,
    weierstrass_terms,
)

from conftest import grid_eval


def test_oscillatory_trivial_warp():
    g = SmoothDescriptor(lambda x: 0.0, (-1.0, 1.0), "0")
    h = SmoothDescriptor(lambda x: 1.0, (-1.0, 1.0), "1")
    eps = 1e-2
    net = oscillatory_network(g, h, 5.0, 1.0, eps)
    xs = np.linspace(-1, 1, 501)
    assert np.max(np.abs(grid_eval(net, xs) - 1.0)) <= eps


def test_oscillatory_zero_envelope():
    g = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0))
    h = SmoothDescriptor(lambda x: 0.0, (-1.0, 1.0))
    eps = 1e-2
    net = oscillatory_network(g, h, 10.0, 1.0, eps)
    xs = np.linspace(-1, 1, 501)
    assert np.max(np.abs(grid_eval(net, xs))) <= eps


def test_oscillatory_high_frequency():
    g = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "g")
    h = SmoothDescriptor(lambda x: 1.0 / (2.0 + x), (-1.0, 1.0), "h")
    a, eps = 100.0, 1e-2
    net = oscillatory_network(g, h, a, 1.0, eps)
    xs = np.linspace(-1, 1, 20001)
    want = np.cos(a / (2.0 - xs)) / (2.0 + xs)
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps
    m = metrics(net)
    assert m.width <= 32
    assert m.weight_magnitude <= 1.0


def test_weierstrass_terms():
    assert weierstrass_terms(0.25) == 3


def test_weierstrass_geometric_value():
    p, a, eps = 0.4, 3.0, 1e-2
    net = weierstrass_network(p, a, 1.0, eps)
    # cos(0) = 1 in every term: geometric series 1/(1-p) = 5/3
    assert abs(evaluate_batch(net, 0.0)[0, 0] - 5.0 / 3.0) <= eps


def test_weierstrass_grid_error():
    p, a, eps = 0.4, 3.0, 1e-2
    net = weierstrass_network(p, a, 1.0, eps)
    xs = np.linspace(-1, 1, 20001)
    want = np.array([weierstrass_reference(p, a, x) for x in xs])
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps


def test_weierstrass_shape():
    net = weierstrass_network(0.4, 3.0, 1.0, 0.25)
    m = metrics(net)
    assert m.width <= 13
    assert m.weight_magnitude <= 1.0


def test_weierstrass_rejects_bad_decay():
    with pytest.raises(ValueError):
        weierstrass_network(0.6, 3.0, 1.0, 1e-2)
