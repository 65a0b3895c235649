import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucalc import compose, evaluate_batch, metrics, network
from relucalc.calculus import _scalar_mult, parallelize_shared, scalar_mult_network
from relucalc.constructors import (
    multiply_network,
    multiply_refinement_steps,
    polynomial_network,
    sawtooth_network,
    square_interpolant_network,
    square_network,
    square_refinement_steps,
)
from relucalc.constructors.algebra import _polynomial, _square_network
from conftest import grid_eval, hat_iterate

# inputs for the exactness checks below: a wide grid, both signs over the
# whole float range, and the integers just past 2**52, 2**53 and 2**54
EDGES = np.concatenate(
    [
        np.linspace(-9.0, 9.0, 20_001),
        np.logspace(-320, 300, 3_000),
        -np.logspace(-320, 300, 3_000),
        2.0 ** 52 + np.arange(8.0),
        2.0 ** 53 + 2.0 * np.arange(8.0),
        2.0 ** 54 + 4.0 * np.arange(8.0),
    ]
).reshape(-1, 1)


def bitwise(a, b) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


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


def test_first_tent_is_inexact_past_two_to_the_52():
    # g = 2 rho(v) - 4 rho(v - 1/2) + 2 rho(v - 1) rounds to 2 at odd
    # v in [2^52, 2^53) and to -2 at even ones: the first tent's rho(g - 1)
    # stays alive, and one tent's output can be negative
    odd, even = 2.0 ** 52 + 1, 2.0 ** 52 + 2
    assert evaluate_batch(sawtooth_network(1), [[odd], [even]])[:, 0].tolist() == [2.0, -2.0]
    assert evaluate_batch(sawtooth_network(2), odd)[0, 0] == 0.0
    first, second, _ = sawtooth_network(2).layers
    without = network(
        [
            (first.matrix, first.bias),
            (second.matrix[:2], second.bias[:2]),
            ([[2.0, -4.0]], [0.0]),
        ]
    )
    assert evaluate_batch(without, odd)[0, 0] == -2.0


def test_sawtooth_leaves_out_the_later_tent_rows():
    # from the second tent on, g is exact and in [0, 1], so rho(g - 1) is
    # left out of every layer after the first two
    net = sawtooth_network(5)
    assert net.dims == (1, 3, 3, 2, 2, 2, 1)
    out = evaluate_batch(net, EDGES)[:, 0]
    assert np.all((out >= 0.0) & (out <= 1.0))


@pytest.mark.parametrize("a", [1.5, 4096.0, 100.3, -7.0])
def test_scalar_mult_on_nonnegative_inputs_drops_the_minus_channel(a):
    xs = np.abs(EDGES[np.abs(EDGES[:, 0]) < 1e300])
    full, lean = scalar_mult_network(a), _scalar_mult(a, 1, nonnegative=True)
    assert lean.depth == full.depth and max(lean.dims) == 2
    assert bitwise(evaluate_batch(lean, xs), evaluate_batch(full, xs))


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


@pytest.mark.parametrize("d, eps", [(1.0, 1e-2), (5.0, 5e-3), (3.5, 1e-4)])
def test_square_network_is_the_multiplier_on_the_diagonal(d, eps):
    ident = network([([[1.0]], [0.0])])
    diagonal = compose(multiply_network(d, eps), parallelize_shared([ident, ident]))
    square = _square_network(d, eps)
    assert square.depth == diagonal.depth
    assert metrics(square).connectivity < metrics(diagonal).connectivity
    xs = EDGES[np.abs(EDGES[:, 0]) < 1e150]
    assert bitwise(evaluate_batch(square, xs), evaluate_batch(diagonal, xs))


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


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_polynomial_with_large_coefficients(seed):
    # coefficients up to 5 and D up to 3 take the amp tail and the d > 1 path
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(2, 9))
    coeffs = rng.uniform(-5.0, 5.0, size=deg + 1)
    d = float(rng.uniform(0.5, 3.0))
    eps = 10.0 ** rng.uniform(-6, -2)
    net = polynomial_network(coeffs, d, eps)
    xs = np.linspace(-d, d, 1025)
    want = np.polyval(coeffs[::-1], xs)
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps + 1e-12
    m = metrics(net)
    assert m.width <= 9
    assert m.weight_magnitude <= 1.0


@pytest.mark.parametrize(
    "coeffs, half_width, eps",
    [
        ([0.1, 0.4, -0.3, 0.2], 1.0, 1e-2),
        ([1.0, 0.0, -1.0], 1.0, 1e-3),
        ([0.5, -4.0, 2.5, 3.0, -1.5], 2.5, 1e-4),
        ([3.0, 1.0, -2.0, 0.0, 5.0, -1.0, 0.25], 0.5, 1e-6),
    ],
)
def test_polynomial_depth_formula(coeffs, half_width, eps):
    # depth = sum_{i < n} (m_i + 1) + 1, m_i the refinement count of a
    # unit-range multiplier at eta / (d bound(i)), plus the amp tail
    n = len(coeffs) - 1
    d = math.ceil(max(1.0, half_width))
    eta = min(eps / (max(map(abs, coeffs)) * (n - 1) ** 2 * d ** (n - 2)), 0.25)
    bound = [d**k + eta * sum(d**s for s in range(k - 1)) for k in range(n + 1)]
    depth = 1 + sum(
        multiply_refinement_steps(1.0, eta / (d * bound[i])) + 1 for i in range(1, n)
    )
    amp = max(abs(a) * b for a, b in zip(coeffs, bound))
    if amp > 1.0:
        depth += scalar_mult_network(2.0 ** math.ceil(math.log2(amp))).depth - 1
    assert polynomial_network(coeffs, half_width, eps).depth == depth


def test_star_import_exports_every_constructor():
    import inspect

    import relucalc.constructors as package

    public = {
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(package.__all__)


@pytest.mark.parametrize(
    "coeffs", [[0.19, 5e-16, -0.95, 0.0, 0.3], [0.0, 0.0, 1.0, -0.5], [-0.4, 0.3, 0.2]]
)
def test_polynomial_on_unit_inputs_is_bitwise_the_general_one(coeffs):
    # on x in [0, 1], read raw, x-, stage 1's rho(-x) and the partial-sum
    # row that |c_1| <= |c_0| keeps at 0 are left out
    general = polynomial_network(coeffs, 1.0, 1e-3)
    unit = _polynomial(coeffs, 1.0, 1e-3, unit=True)
    assert unit.depth == general.depth
    assert metrics(unit).connectivity < metrics(general).connectivity
    xs = np.concatenate([np.linspace(0.0, 1.0, 20_001), np.logspace(-320, 0, 2_000)])
    xs = xs.reshape(-1, 1)
    assert bitwise(evaluate_batch(unit, xs), evaluate_batch(general, xs))
