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
from functools import cache

import numpy as np

from ..calculus import (
    _block_diag,
    affine_network,
    compose,
    parallelize_shared,
    scalar_mult_network,
)
from ..core import AffineLayer, ReluNetwork, _check_eps


def sawtooth_network(s: int) -> ReluNetwork:
    """Width-3 network realizing the s-fold composition of the tent map on [0,1].

    Depth is s+1 and the output has exactly 2**s linear pieces on [0,1].

    Layer l >= 1 holds rho(g), rho(g - 1/2) and rho(g - 1) of the l-th tent
    value g = 2 rho(v) - 4 rho(v - 1/2) + 2 rho(v - 1).  For |v| < 2**52
    every step of g is exact, so g = tent(v) lies in [0, 1]; for larger v
    the rounded g is one of -4, -2, 0 and 2.  So g is exact and at most 1
    from the second tent on, and from layer 2 on the row rho(g - 1) is 0
    exactly and left out.
    """
    if s < 1:
        raise ValueError("order must be a positive integer")
    rows = [3] * min(s, 2) + [2] * (s - 2)  # rows of layers 0, ..., s - 1

    @cache
    def tent(out: int, cols: int) -> AffineLayer:
        return AffineLayer([[2.0, -4.0, 2.0][:cols]] * out, [0.0, -0.5, -1.0][:out])

    layers = [AffineLayer([[1.0], [1.0], [1.0]], [0.0, -0.5, -1.0])]
    layers += [tent(rows[ell], rows[ell - 1]) for ell in range(1, s)]
    return ReluNetwork(tuple(layers) + (tent(1, rows[-1]),))


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


# The multiplier's layers at D = 1: the input layer on (x, y), the split
# into the channels (s1, s2, h1, h2, acc), the refinement layer and the
# output row (bias -1).  See multiply_network.
_MULT_IN = np.array([[0.5, 0.5], [-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5]])
_MULT_SPLIT = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
    ]
)
_MULT_SPLIT_BIAS = np.array([0.0, 0.0, -0.5, -0.5, 1.0])
_MULT_MID = np.array(
    [
        [0.5, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, -1.0, 0.0],
        [0.5, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, -1.0, 0.0],
        [-0.5, 0.5, 1.0, -1.0, 1.0],
    ]
)
_MULT_OUT = np.array([-0.5, 0.5, 1.0, -1.0, 1.0])

# The multiplier on y = x: its input rows rho(+-(x - y)/2D) have the weights
# a/D - a/D = 0 and bias 0, and the channels s2 and h2 read only them (with
# bias 0 and -1/2) or each other, so all of them are 0 exactly and left
# out.  _SQUARE_IN keeps the input rows on (x + y)/2D, _SQUARE the channels
# (s1, h1, acc).
_SQUARE_IN = (0, 1)
_SQUARE = (0, 2, 4)


@cache
def _mult_layer(ell: int, rows: tuple, cols: tuple, carried: int = 0) -> AffineLayer:
    """Layer ell (2 <= ell <= m + 1) of the multiplier at D = 1, restricted
    to the channels rows and the rows cols of the layer before, below
    `carried` copy rows.  Layers are immutable, so builds share them."""
    rows, cols = list(rows), list(cols)
    if ell == 2:
        mat, bias = _MULT_SPLIT[rows][:, cols], _MULT_SPLIT_BIAS[rows]
    else:
        step = 2.0 ** (-2 * ell + 3)
        mat, bias = _MULT_MID[rows][:, cols], np.array([0.0, 0.0, -step, -step, 0.0])[rows]
    return AffineLayer(
        _block_diag([np.eye(carried), mat]), np.concatenate([np.zeros(carried), bias])
    )


def multiply_network(half_width: float, eps: float) -> ReluNetwork:
    """Approximate (x, y) -> x*y on [-D, D]**2 within eps.

    Two squaring chains share their input normalization: the first layer maps
    (x, y) to the rectified pair values of (x+y)/2D and (x-y)/2D, the chains
    approximate the two squares, and a difference recovers the product (the
    polarization identity), followed by a depth-for-magnitude multiplication
    by D**2.  Width stays at 5, weights at 1, and the output vanishes exactly
    when either input is zero.
    """
    return _multiplier(half_width, eps, (0, 1, 2, 3), (0, 1, 2, 3, 4), _MULT_IN)


def _square_network(half_width: float, eps: float) -> ReluNetwork:
    """multiply_network(half_width, eps) on the diagonal y = x, as a network
    of x: it reads x with the weights (a + a)/D of the merged fan-out and
    holds only the nonzero rows (see _SQUARE)."""
    first = (_MULT_IN[:, :1] + _MULT_IN[:, 1:])[list(_SQUARE_IN)]
    return _multiplier(half_width, eps, _SQUARE_IN, _SQUARE, first)


def _multiplier(half_width, eps, rows, chans, first) -> ReluNetwork:
    """The multiplier with the given input rows and channels, on the inputs
    that the first layer's matrix reads."""
    d = max(1.0, float(half_width))
    m = multiply_refinement_steps(half_width, eps)
    layers = [AffineLayer(first / d, np.zeros(len(rows)))]
    # The accumulator acc carries the signed branch difference shifted by +1
    # so it never hits the ReLU clip (the difference of the two partial
    # squares lies in [-1, 1]); the final bias removes the shift.
    # Interleaving the branch columns makes equal branch values cancel term
    # by term under the column-sequential evaluation order, which is what
    # makes multiply(x, 0) == multiply(0, x) == 0 hold bitwise.
    layers.append(_mult_layer(2, chans, rows))
    layers += [_mult_layer(ell, chans, chans) for ell in range(3, m + 2)]
    layers.append(AffineLayer([_MULT_OUT[list(chans)]], [-1.0]))
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


def polynomial_network(coeffs, half_width: float, eps: float) -> ReluNetwork:
    """Approximate the polynomial sum(a_k x**k) on [-D, D] within eps.

    Width stays at 9 and all weights at 1.  Degrees 0 and 1 collapse to an
    affine map.  For degree n >= 2, write d = ceil(max(1, D)) and
    eta = min(eps / (max_k |a_k| (n - 1)**2 d**(n - 2)), 1/4); the monomials
    are approximated by y_1 = x and y_{i+1} = x y_i + e_i with |e_i| <= eta,
    so |y_k| <= bound(k) = d**k + eta sum_{s < k - 1} d**s and the error is
    at most eps.

    The chain carries the scaled monomial z_i = y_i / bound(i), so every
    multiplier runs at unit range: it takes (x/d) z_i within
    eta / (d bound(i)) and z_{i+1} = (d bound(i) / bound(i+1)) mult, a factor
    below 1 (bound(i+1) = d bound(i) + eta).  The partial sum is carried as
    s / amp with amp = _pow2_ceil(max_k |a_k| bound(k)), so that each
    coefficient c_k = a_k bound(k) / amp is at most 1 in magnitude; when
    amp > 1 a single scalar_mult_network(amp) scales the output.

    Stage i (1 <= i < n) is one layer of x+, x-, s'+, s'- (s' = s + c_i z_i)
    beside the multiplier's input rows on (x/d, z_i), then the multiplier's
    m_i = multiply_refinement_steps(1, eta / (d bound(i))) middle layers
    beside copies of those four (the last stage drops x+ and x-).  Stage 1
    multiplies x/d by z_1 = x/d, so it holds only the square's rows (see
    _SQUARE).  Each multiplier's output row merges into the next layer, and
    one output layer gives s + c_n z_n, so the depth is
    sum_i (m_i + 1) + 1, plus scalar_mult_network(amp).depth - 1 when
    amp > 1.
    """
    return _polynomial(coeffs, half_width, eps, unit=False)


def _polynomial(coeffs, half_width: float, eps: float, unit: bool) -> ReluNetwork:
    """polynomial_network(coeffs, half_width, eps); with unit, for an input
    x in [0, 1] in floats that the first layer reads as if raw, each of its
    weights w rounded once onto x.  Then x- is left out, since its row is
    rho(-x) = 0 and the rows after it copy it, and so is stage 1's
    rho(-(x/d + z_1)/2) = rho(-w x) = 0.  Stage 1's s'+-, on
    s' = c_0 + w x with w = c_1 / d, then drop the one that is 0 since
    |c_1| <= |c_0|: rounding keeps w x within [-|c_1|, |c_1|].  On any input
    stage 1 leaves out s'+ and s'- where they are 0 for w = 0.
    """
    coeffs = [float(c) for c in np.atleast_1d(np.asarray(coeffs, dtype=np.float64))]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    _check_eps(eps)
    degree = len(coeffs) - 1
    if degree <= 1:
        return affine_network([[coeffs[1] if degree else 0.0]], [coeffs[0]])
    d = math.ceil(max(1.0, float(half_width)))
    a_max = max(abs(c) for c in coeffs)
    if a_max == 0.0:
        return ReluNetwork((AffineLayer([[0.0]], [0.0]),))
    eta = min(eps / (a_max * (degree - 1) ** 2 * d ** (degree - 2)), 0.25)
    bound = [
        d**k + eta * sum(d**s for s in range(k - 1)) for k in range(degree + 1)
    ]
    amp = _pow2_ceil(max(abs(a) * b for a, b in zip(coeffs, bound)))
    c = [a * b / amp for a, b in zip(coeffs, bound)]

    # stage 1 reads x: z_1 = x / d and s = c_0.  x, s and z are linear forms
    # over the previous layer's outputs, bias last.
    x = np.array([1.0, 0.0])
    s = np.array([0.0, c[0]])
    z = x / d
    nx = 1 if unit else 2  # x+, and x- unless x >= 0
    x_rows = [x, -x][:nx]
    ins, chans = ((0,) if unit else _SQUARE_IN), _SQUARE
    layers = []
    for i in range(1, degree):
        s = s + c[i] * z  # s'
        signs = [1.0, -1.0]  # s'+ and s'-
        if i == 1:
            # s' = c_0 + w x: the largest |w x| and the rows it leaves alive
            w, c0 = s
            reach = abs(w) if unit or w == 0.0 else math.inf
            signs = [g for g in signs if g * c0 + reach > 0.0]
        carry = (x_rows if i < degree - 1 else []) + [g * s for g in signs]
        mult_in = np.outer(_MULT_IN[list(ins), 0] / d, x) + np.outer(_MULT_IN[list(ins), 1], z)
        rows = np.vstack(carry + [mult_in])
        layers.append(AffineLayer(rows[:, :-1], rows[:, -1]))
        m = multiply_refinement_steps(1.0, eta / (d * bound[i]))
        k = len(carry)
        layers.append(_mult_layer(2, chans, ins, k))
        layers += [_mult_layer(ell, chans, chans, k) for ell in range(3, m + 2)]
        # the forms over the next layer's input, (x+, x-, s+, s-, h) or
        # (s+, s-, h) after the last stage, where only s and z are read
        f = d * bound[i] / bound[i + 1]
        cols = np.eye(k, k + len(chans) + 1)
        if i < degree - 1:
            x_rows = list(cols[:nx])
            x = np.array([1.0, -1.0][:nx]) @ cols[:nx]
        s = np.array(signs) @ cols[k - len(signs) : k]
        z = np.concatenate([np.zeros(k), f * _MULT_OUT[list(chans)], [-f]])
        ins, chans = (0, 1, 2, 3), (0, 1, 2, 3, 4)
    out = s + c[degree] * z
    layers.append(AffineLayer([out[:-1]], out[-1:]))
    net = ReluNetwork(tuple(layers))
    if amp == 1.0:
        return net
    return compose(scalar_mult_network(amp), net)
