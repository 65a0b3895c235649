from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    SmoothDescriptor,
    oscillatory_network,
    weierstrass_network,
    weierstrass_reference,
    weierstrass_terms,
)
from relucalc.constructors.textures import _weierstrass_tolerances

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


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    st.floats(1e-12, 0.49),
)
@example(0.49999999999999994, 0.25)
@example(0.49999999999999994, 1e-12)
@example(5e-324, 0.49)
def test_weierstrass_tolerances_fit_the_budget(p, eps):
    # checked in exact rationals: the tail and the amplitude-weighted term
    # errors each stay within eps/2
    tolerances = _weierstrass_tolerances(p, eps)
    last = len(tolerances) - 1
    q, half = Fraction(p), Fraction(eps) / 2
    assert last <= weierstrass_terms(eps)
    assert q ** (last + 1) / (1 - q) <= half
    assert sum(q ** k * Fraction(e) for k, e in enumerate(tolerances)) <= half
    assert all(0.0 < e < 0.5 for e in tolerances)


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
