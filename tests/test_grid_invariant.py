"""Every constructor meets its requested tolerance on a dense grid: at least
1e5 uniform points, plus all network breakpoints in the 1-D cases
(error_report merges them in automatically).
"""

import math

import numpy as np
from relucalc.analysis import error_report
from relucalc.constructors import (
    SmoothDescriptor,
    bspline_network,
    cardinal_bspline,
    cosine_network,
    cosine_shifted_network,
    gaussian_network,
    multiply_network,
    oscillatory_network,
    polynomial_network,
    smooth_network,
    smooth_network_general,
    spline_wavelet_network,
    spline_wavelet_reference,
    square_network,
    weierstrass_network,
    weierstrass_reference,
)

GRID = 100_001


def check(net, reference, domain, eps, grid=GRID):
    report = error_report(net, reference, domain, grid)
    assert report.sup_error <= eps + 1e-12, report


def test_square_dense():
    eps = 1e-4
    check(square_network(eps), lambda x: x * x, (0.0, 1.0), eps)


def test_multiply_dense():
    eps, d = 1e-3, 2.0
    net = multiply_network(d, eps)
    # 10^5 lattice points via 317 per axis
    check(net, lambda x, y: x * y, [(-d, d), (-d, d)], eps, grid=317)


def test_polynomial_dense():
    eps = 1e-3
    coeffs = [0.5, -1.0, 0.25, 0.75]
    net = polynomial_network(coeffs, 2.0, eps)
    check(net, lambda x: np.polyval(coeffs[::-1], x), (-2.0, 2.0), eps)


def test_smooth_dense():
    eps = 1e-4
    f = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "1/(2-x)")
    check(smooth_network(f, eps), f.evaluator, (-1.0, 1.0), eps)


def test_smooth_general_dense():
    eps = 5e-2
    f = SmoothDescriptor(lambda y: math.exp(-y), (0.0, 6.0), "exp(-y)")
    check(smooth_network_general(f, eps), f.evaluator, (0.0, 6.0), eps)


def test_cosine_dense():
    eps, a = 1e-2, 100.0
    check(cosine_network(a, 1.0, eps), lambda x: math.cos(a * x), (-1.0, 1.0), eps)


def test_cosine_shifted_dense():
    eps, a, b = 1e-2, 7.0, 1.5
    check(
        cosine_shifted_network(a, b, 1.0, eps),
        lambda x: math.cos(a * x - b),
        (-1.0, 1.0),
        eps,
    )


def test_bspline_dense():
    eps, m = 5e-2, 3
    check(
        bspline_network(m, eps),
        lambda x: cardinal_bspline(m, x),
        (-2.0, m + 2.0),
        eps,
    )


def test_wavelet_dense():
    eps, m = 5e-2, 2
    check(
        spline_wavelet_network(m, eps),
        lambda x: spline_wavelet_reference(m, x),
        (0.0, 2.0 * m - 1.0),
        eps,
    )


def test_gaussian_dense():
    eps = 5e-2
    radius = math.ceil(math.log2(1.0 / eps))
    check(
        gaussian_network(1, eps),
        lambda x: math.exp(-x * x),
        (-radius - 2.0, radius + 2.0),
        eps,
    )


def test_oscillatory_dense():
    eps, a = 5e-2, 10.0
    g = SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0))
    h = SmoothDescriptor(lambda x: 1.0 / (2.0 + x), (-1.0, 1.0))
    net = oscillatory_network(g, h, a, 1.0, eps)
    check(
        net,
        lambda x: math.cos(a / (2.0 - x)) / (2.0 + x),
        (-1.0, 1.0),
        eps,
    )


def test_weierstrass_dense():
    eps, p, a = 0.25, 0.4, 3.0
    check(
        weierstrass_network(p, a, 1.0, eps),
        lambda x: weierstrass_reference(p, a, x),
        (-1.0, 1.0),
        eps,
    )
