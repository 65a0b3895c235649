"""Sawtooth, squaring, multiplication, and polynomial networks.

These are the algebraic building blocks: a width-3 sawtooth chain whose
linear-region count doubles per layer, the width-3 squaring approximant
built on the self-similar interpolation refinement, the width-5 two-input
multiplier obtained through the polarization identity (and the product of
two networks on a shared input built on it), and the width-9
polynomial evaluator that threads a running partial sum alongside the
monomial chain.
"""

from __future__ import annotations

import math

import numpy as np

from ..calculus import (
    _pad_all,
    affine_network,
    compose,
    identity_network,
    parallelize,
    parallelize_shared,
    scalar_mult_network,
)
from ..core import AffineLayer, ReluNetwork, _check_eps


def sawtooth_network(s: int) -> ReluNetwork:
    """Width-3 network realizing the s-fold composition of the tent map on [0,1].

    Depth is s+1 and the output has exactly 2**s linear pieces on [0,1].
    """
    if s < 1:
        raise ValueError("order must be a positive integer")
    w_in = AffineLayer([[1.0], [1.0], [1.0]], [0.0, -0.5, -1.0])
    w_mid = AffineLayer(
        [[2.0, -4.0, 2.0], [2.0, -4.0, 2.0], [2.0, -4.0, 2.0]],
        [0.0, -0.5, -1.0],
    )
    w_out = AffineLayer([[2.0, -4.0, 2.0]], [0.0])
    return ReluNetwork((w_in,) + (w_mid,) * (s - 1) + (w_out,))


def square_refinement_steps(eps: float) -> int:
    """Number m of interpolation refinements needed for tolerance eps."""
    _check_eps(eps)
    return max(1, math.ceil(math.log2(1.0 / eps) / 2.0) - 1)


def square_interpolant_network(m: int) -> ReluNetwork:
    """Width-3 depth-(m+1) network realizing x minus the residual-sum of m
    dyadic refinement steps; equals the linear interpolant of x**2 at 2**m + 1
    equispaced points on [0,1], with sup error exactly 2**(-2m-2)."""
    if m < 1:
        raise ValueError("need at least one refinement step")
    layers = [AffineLayer([[1.0], [1.0], [1.0]], [0.0, -0.5, 0.0])]
    for ell in range(2, m + 1):
        layers.append(
            AffineLayer(
                [[0.5, -1.0, 0.0], [0.5, -1.0, 0.0], [-0.5, 1.0, 1.0]],
                [0.0, -(2.0 ** (-2 * ell + 1)), 0.0],
            )
        )
    layers.append(AffineLayer([[-0.5, 1.0, 1.0]], [0.0]))
    return ReluNetwork(tuple(layers))


def square_network(eps: float) -> ReluNetwork:
    """Approximate x**2 on [0,1] within eps; width 3, weights bounded by 1,
    and exact zero at the origin."""
    return square_interpolant_network(square_refinement_steps(eps))


def multiply_refinement_steps(half_width: float, eps: float) -> int:
    """Refinement count for the two-input multiplier on [-D, D]**2."""
    _check_eps(eps)
    d = max(1.0, half_width)
    ratio = d * d / eps
    if not math.isfinite(ratio):
        raise ValueError(
            f"half-width D = {half_width} is too large for eps = {eps}: "
            "D**2 / eps exceeds the float range"
        )
    return max(2, math.ceil(0.5 * (1.0 + math.log2(ratio))))


def multiply_network(half_width: float, eps: float) -> ReluNetwork:
    """Approximate (x, y) -> x*y on [-D, D]**2 within eps.

    Two squaring chains share their input normalization: the first layer maps
    (x, y) to the rectified pair values of (x+y)/2D and (x-y)/2D, the chains
    approximate the two squares, and a difference recovers the product (the
    polarization identity), followed by a depth-for-magnitude multiplication
    by D**2.  Width stays at 5, weights at 1, and the output vanishes exactly
    when either input is zero.
    """
    d = max(1.0, float(half_width))
    m = multiply_refinement_steps(half_width, eps)
    inv = 1.0 / (2.0 * d)
    a1 = np.array(
        [[inv, inv], [-inv, -inv], [inv, -inv], [-inv, inv]]
    )
    layers = [AffineLayer(a1, np.zeros(4))]
    # Channel order (s1, s2, h1, h2, acc).  The accumulator carries the signed
    # branch difference shifted by +1 so it never hits the ReLU clip (the
    # difference of the two partial squares lies in [-1, 1]); the final bias
    # removes the shift.  Interleaving the branch columns makes equal branch
    # values cancel term by term under the column-sequential evaluation order,
    # which is what makes multiply(x, 0) == multiply(0, x) == 0 hold bitwise.
    a2 = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, -1.0, -1.0],
        ]
    )
    b2 = np.array([0.0, 0.0, -0.5, -0.5, 1.0])
    layers.append(AffineLayer(a2, b2))
    a_mid = np.array(
        [
            [0.5, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, -1.0, 0.0],
            [0.5, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, -1.0, 0.0],
            [-0.5, 0.5, 1.0, -1.0, 1.0],
        ]
    )
    for ell in range(3, m + 2):
        step = 2.0 ** (-2 * ell + 3)
        b_mid = np.array([0.0, 0.0, -step, -step, 0.0])
        layers.append(AffineLayer(a_mid, b_mid))
    layers.append(AffineLayer([[-0.5, 0.5, 1.0, -1.0, 1.0]], [-1.0]))
    core = ReluNetwork(tuple(layers))
    if d == 1.0:
        return core
    return compose(scalar_mult_network(d * d, 1), core)


def _product(
    f: ReluNetwork, g: ReluNetwork, half_width: float, eps: float, scale: float = 1.0
) -> ReluNetwork:
    """Network approximating scale * f(x) * g(x) within eps, for networks f
    and g on one shared input whose outputs stay in [-half_width, half_width].

    The multiplier runs at tolerance eps / scale, and a depth-for-magnitude
    multiplication restores any scale other than 1, so weights stay at most 1.
    """
    product = compose(
        multiply_network(half_width, eps / scale), parallelize_shared([f, g])
    )
    if scale == 1.0:
        return product
    return compose(scalar_mult_network(scale), product)


def _pow2_ceil(x: float) -> float:
    """Smallest power of two at least max(1, x), computed exactly."""
    mantissa, exponent = math.frexp(max(1.0, x))
    return 2.0 ** (exponent - 1 if mantissa == 0.5 else exponent)


def _poly_step(coeff: float, bound: float, eta: float) -> ReluNetwork:
    """One stage (x, s, y) -> (x, s + a*y, mult(x, y)) of the polynomial chain."""
    fan_out = ReluNetwork(
        (
            AffineLayer(
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                np.zeros(4),
            ),
        )
    )
    ident = identity_network(1)
    accumulate = parallelize(
        _pad_all([ident, affine_network([[1.0, coeff]], [0.0]), ident])
    )
    duplicate = ReluNetwork(
        (
            AffineLayer(
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                np.zeros(4),
            ),
        )
    )
    multiply_stage = parallelize(
        _pad_all([ident, ident, multiply_network(bound, eta)])
    )
    return compose(
        multiply_stage, compose(duplicate, compose(accumulate, fan_out))
    )


def polynomial_network(coeffs, half_width: float, eps: float) -> ReluNetwork:
    """Approximate the polynomial sum(a_i x**i) on [-D, D] within eps.

    Width stays at 9 and all weights at 1.  Degrees 0 and 1 collapse to an
    affine map; otherwise the monomials are built by chained multiplications
    while an extra channel accumulates the weighted partial sum.
    """
    coeffs = [float(c) for c in np.atleast_1d(np.asarray(coeffs, dtype=np.float64))]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    _check_eps(eps)
    degree = len(coeffs) - 1
    if degree <= 1:
        return affine_network([[coeffs[1] if degree else 0.0]], [coeffs[0]])
    d = max(1.0, float(half_width))
    d_ceil = math.ceil(d)
    a_max = max(abs(c) for c in coeffs)
    if a_max == 0.0:
        return ReluNetwork((AffineLayer([[0.0]], [0.0]),))
    eta = eps / (a_max * (degree - 1) ** 2 * d_ceil ** (degree - 2))
    eta = min(eta, 0.25)

    def bound(k: int) -> float:
        return d_ceil ** k + eta * sum(d_ceil ** s for s in range(k - 1))

    # (x) -> (x, a_0, x)
    net = affine_network([[1.0], [0.0], [1.0]], [0.0, coeffs[0], 0.0])
    for i in range(1, degree):
        net = compose(_poly_step(coeffs[i], bound(i), eta), net)
    final = affine_network([[0.0, 1.0, coeffs[degree]]], [0.0])
    return compose(final, net)
