import numpy as np
from hypothesis import given, settings, strategies as st

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    multiply_network,
    multiply_refinement_steps,
    polynomial_network,
    sawtooth_network,
    square_interpolant_network,
    square_network,
    square_refinement_steps,
)
from conftest import grid_eval, hat_iterate


# --- sawtooth -------------------------------------------------------------------


def test_sawtooth_order_one_peak():
    assert evaluate_batch(sawtooth_network(1), 0.5)[0, 0] == 1.0


def test_sawtooth_order_two():
    assert evaluate_batch(sawtooth_network(2), 0.25)[0, 0] == 1.0


def test_sawtooth_matches_iterated_hat():
    for s in (1, 2, 3, 4):
        net = sawtooth_network(s)
        xs = np.linspace(0.0, 1.0, 257)
        got = grid_eval(net, xs)
        want = np.array([hat_iterate(x, s) for x in xs])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_sawtooth_symmetry():
    # g_s(k/2^{s-1} + x) == g_s((k+1)/2^{s-1} - x)
    s = 3
    net = sawtooth_network(s)
    step = 2.0 ** -(s - 1)
    xs = np.linspace(0.0, step, 33)
    for k in range(2 ** (s - 1)):
        left = grid_eval(net, k * step + xs)
        right = grid_eval(net, (k + 1) * step - xs)
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_sawtooth_shape():
    for s in (1, 3, 6):
        net = sawtooth_network(s)
        m = metrics(net)
        assert net.depth == s + 1
        assert m.width == 3
        assert m.weight_magnitude == 4.0


# --- squaring -------------------------------------------------------------------


def test_square_refinement_steps():
    assert square_refinement_steps(1e-3) == 4
    assert square_refinement_steps(0.49) == 1


def test_square_interpolation_node():
    net = square_interpolant_network(1)
    assert evaluate_batch(net, 0.5)[0, 0] == 0.25


def test_square_midpoint_error():
    net = square_interpolant_network(1)
    assert evaluate_batch(net, 0.25)[0, 0] == 0.125
    assert abs(evaluate_batch(net, 0.25)[0, 0] - 0.25 ** 2) == 2.0 ** -4


def test_square_zero_exact():
    for eps in (0.4, 1e-2, 1e-6):
        assert evaluate_batch(square_network(eps), 0.0)[0, 0] == 0.0


def test_square_error_is_tight():
    # sup error on [0,1] equals 2^(-2m-2) exactly, attained at dyadic midpoints
    for m in range(1, 8):
        net = square_interpolant_network(m)
        xs = np.linspace(0.0, 1.0, 2 ** 12 + 1)
        err = np.abs(grid_eval(net, xs) - xs ** 2)
        assert abs(err.max() - 2.0 ** (-2 * m - 2)) <= 1e-15


def test_square_shape_and_magnitude():
    for eps in (0.3, 1e-4):
        net = square_network(eps)
        m = metrics(net)
        assert m.width == 3
        assert m.weight_magnitude <= 1.0
        assert net.depth == square_refinement_steps(eps) + 1


# --- multiplication --------------------------------------------------------------


def test_multiply_zero_inputs_exact():
    net = multiply_network(4.0, 1e-3)
    assert evaluate_batch(net, [[0.0, 7.3]])[0, 0] == 0.0
    assert evaluate_batch(net, [[7.3, 0.0]])[0, 0] == 0.0
    net = multiply_network(1000.0, 1e-2)
    assert evaluate_batch(net, [[0.0, -123.456]])[0, 0] == 0.0
    assert evaluate_batch(net, [[876.2, 0.0]])[0, 0] == 0.0


def test_multiply_value():
    net = multiply_network(4.0, 1e-3)
    assert abs(evaluate_batch(net, [[2.0, 3.0]])[0, 0] - 6.0) <= 1e-3


def test_multiply_sign_symmetry():
    net = multiply_network(2.0, 1e-4)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(50, 2))
    a = evaluate_batch(net, pts)
    b = evaluate_batch(net, -pts)
    np.testing.assert_array_equal(a, b)


def test_multiply_grid_error():
    for d, eps in [(1.0, 1e-2), (4.0, 1e-3), (0.5, 1e-2)]:
        net = multiply_network(d, eps)
        d_eff = max(d, 1.0)
        g = np.linspace(-d_eff, d_eff, 101)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        got = evaluate_batch(net, pts)[:, 0]
        assert np.max(np.abs(got - pts[:, 0] * pts[:, 1])) <= eps + 1e-12


def test_multiply_shape():
    for d, eps in [(1.0, 1e-2), (10.0, 1e-4)]:
        net = multiply_network(d, eps)
        m = metrics(net)
        assert m.width <= 5
        assert m.weight_magnitude <= 1.0
        steps = multiply_refinement_steps(d, eps)
        assert max(d, 1.0) ** 2 * 2.0 ** (-2 * steps - 1) <= eps


# --- polynomials -----------------------------------------------------------------


def test_polynomial_constant_exact():
    net = polynomial_network([2.5], 1.0, 1e-3)
    assert evaluate_batch(net, 0.3)[0, 0] == 2.5
    assert polynomial_network([0.4], 1.0, 1e-3).depth == 1


def test_polynomial_identity_exact():
    net = polynomial_network([0.0, 1.0], 7.0, 1e-3)
    xs = np.linspace(-7, 7, 41)
    np.testing.assert_array_equal(grid_eval(net, xs), xs)


def test_polynomial_one_minus_square():
    net = polynomial_network([1.0, 0.0, -1.0], 1.0, 1e-3)
    assert abs(evaluate_batch(net, 0.5)[0, 0] - 0.75) <= 1e-3


def test_polynomial_width_and_magnitude():
    rng = np.random.default_rng(1)
    for _ in range(6):
        deg = int(rng.integers(2, 9))
        coeffs = rng.uniform(-1, 1, size=deg + 1)
        net = polynomial_network(coeffs, 2.0, 1e-3)
        m = metrics(net)
        assert m.width <= 9
        assert m.weight_magnitude <= 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_polynomial_error_bound(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(0, 7))
    coeffs = rng.uniform(-1, 1, size=deg + 1)
    d = float(rng.uniform(0.5, 3.0))
    eps = 10.0 ** rng.uniform(-4, -1)
    net = polynomial_network(coeffs, d, eps)
    xs = np.linspace(-d, d, 257)
    want = np.polyval(coeffs[::-1], xs)
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps + 1e-12


def test_star_import_exports_every_constructor():
    import inspect

    import relucalc.constructors as package

    public = {
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(package.__all__)
