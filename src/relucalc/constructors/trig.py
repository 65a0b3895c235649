"""Cosine and shifted-cosine networks.

High frequencies are folded into [0, 1] by composing a reduced-weight
sawtooth chain with the absolute value, exploiting that the cosine is even
and 2-periodic; a smooth-function network then handles one period.
"""

from __future__ import annotations

import math

from ..calculus import (
    _reduce_weights,
    affine_network,
    compose,
    scalar_mult_network,
)
from ..core import AffineLayer, ReluNetwork, _check_eps, network
from .algebra import sawtooth_network
from .smooth import MAX_DEGREE, SmoothDescriptor, ToleranceError, _smooth_network

# 6/pi^3 scales the cosine into the trusted smoothness class: the n-th
# derivative of (6/pi^3) cos(pi x) is bounded by 6 pi^(n-3) <= n!.
_COS_SCALE = 6.0 / math.pi ** 3


def _cosine_tail_bound(n: int) -> float:
    """Upper bound on sup |f - p_n| on [-1, 1] for f(x) = (6/pi^3) cos(pi x)
    and p_n its interpolant at n + 1 first-kind Chebyshev points.

    Jacobi-Anger gives f = (6/pi^3) sum_k a_k T_k with |a_k| <= 2 |J_k(pi)|
    for even k and a_k = 0 for odd k, and |J_k(pi)| <= (pi/2)^k / k!
    (DLMF 10.14.4).  Aliasing gives sup |f - p_n| <= 2 sum_{k>n} |a_k|
    (Trefethen, Approximation Theory and Approximation Practice, ch. 4), so

        sup |f - p_n| <= 4 (6/pi^3) sum_{k>n, k even} (pi/2)^k / k!.

    Successive even terms shrink by (pi/2)^2 / ((k+1)(k+2)), a ratio that
    falls with k, so the sum is at most its first term t_k (k the least even
    integer above n) times 1 / (1 - (pi/2)^2 / ((k+1)(k+2))).  t_k is taken
    through lgamma, so it underflows to 0 at large k instead of overflowing;
    its rounding is far inside the slack of the Bessel bound.
    """
    k = n + 2 - n % 2
    first = math.exp(k * math.log(math.pi / 2.0) - math.lgamma(k + 1))
    ratio = (math.pi / 2.0) ** 2 / ((k + 1) * (k + 2))
    return 4.0 * _COS_SCALE * first / (1.0 - ratio)


_COSINE_CORE = SmoothDescriptor(
    lambda x: _COS_SCALE * math.cos(math.pi * x),
    (-1.0, 1.0),
    "scaled cos",
    tail_bound=_cosine_tail_bound,
)


def cosine_network(a: float, half_width: float, eps: float) -> ReluNetwork:
    """Approximate x -> cos(a*x) on [-D, D] within eps; width <= 9, weights <= 1."""
    if a <= 0:
        raise ValueError("frequency must be positive")
    _check_eps(eps)
    d = float(half_width)
    if not 0.0 < d < math.inf:
        raise ValueError(f"domain half-width must be positive and finite, got {d}")
    # Fold [-D, D] onto [-1, 1]; for D < 1 the unit-interval network already
    # covers the domain.
    a_eff = a * d if d > 1.0 else a
    # past the first tent the sawtooth's output is exact and in [0, 1] (see
    # sawtooth_network).  So with s >= 2 folds, i.e. ceil(folds) >= 2, the
    # fold's rescale reads a value >= 0, and its last layer, (1/2, 0) on
    # (p, q) since its factor 4**(s+1) is a power of two, gives the core
    # x = p/2 in [0, 1] with each merged weight w/2 rounded once onto x
    folds = math.log2(a_eff) - math.log2(math.pi)
    try:
        core = _smooth_network(_COSINE_CORE, _COS_SCALE * eps, folds > 1.0)
    except ToleranceError:
        # the core runs at 6/pi^3 eps; the refusal names the caller's eps
        raise ToleranceError(
            f"no cosine core degree up to {MAX_DEGREE} meets eps = {eps}"
        ) from None
    if a_eff > math.pi:
        try:
            s = math.ceil(folds)
            folded = _reduce_weights(sawtooth_network(s), s >= 2)
        except OverflowError:
            raise ValueError(
                f"frequency a = {a} is too large for half-width D = {d}: "
                "folding a * D onto [-1, 1] exceeds the float range"
            ) from None
        alpha = a_eff / (math.pi * 2.0 ** s)
        absval = ReluNetwork(
            (
                AffineLayer([[1.0], [-1.0]], [0.0, 0.0]),
                AffineLayer([[alpha, alpha]], [0.0]),
            )
        )
        net = compose(core, compose(folded, absval))
    else:
        net = compose(core, affine_network([[a_eff / math.pi]], [0.0]))
    net = compose(scalar_mult_network(1.0 / _COS_SCALE), net)
    if d > 1.0:
        # each merged entry is the one product w / d, no larger than w, so
        # compose merges the scale into the first layer
        net = compose(net, network([([[1.0 / d]], [0.0])]))
    return net


def cosine_shifted_network(
    a: float, b: float, half_width: float, eps: float
) -> ReluNetwork:
    """Approximate x -> cos(a*x - b) on [-D, D] within eps via a domain shift."""
    if a <= 0:
        raise ValueError("frequency must be positive")
    _check_eps(eps)
    shift = b / a
    base = cosine_network(a, half_width + abs(shift), eps)
    return compose(base, affine_network([[1.0]], [-shift]))


def sine_network(a: float, half_width: float, eps: float) -> ReluNetwork:
    """Approximate x -> sin(a*x) using sin(t) = cos(t - pi/2)."""
    return cosine_shifted_network(a, math.pi / 2.0, half_width, eps)
