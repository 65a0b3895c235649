"""Cosine and shifted-cosine networks.

High frequencies are folded into [0, 1] by composing a reduced-weight
sawtooth chain with the absolute value, exploiting that the cosine is even
and 2-periodic; a smooth-function network then handles one period.
"""

from __future__ import annotations

import math

from ..calculus import (
    affine_network,
    compose,
    precompose_affine,
    reduce_weights,
    scalar_mult_network,
)
from ..core import AffineLayer, ReluNetwork, _check_eps
from .algebra import sawtooth_network
from .smooth import SmoothDescriptor, smooth_network

# 6/pi^3 scales the cosine into the trusted smoothness class: the n-th
# derivative of (6/pi^3) cos(pi x) is bounded by 6 pi^(n-3) <= n!.
_COS_SCALE = 6.0 / math.pi ** 3


def _scaled_cosine_core(eps: float) -> ReluNetwork:
    f = SmoothDescriptor(
        lambda x: _COS_SCALE * math.cos(math.pi * x), (-1.0, 1.0), "scaled cos"
    )
    return smooth_network(f, _COS_SCALE * eps)


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
    core = _scaled_cosine_core(eps)
    if a_eff > math.pi:
        try:
            s = math.ceil(math.log2(a_eff) - math.log2(math.pi))
            folded = reduce_weights(sawtooth_network(s))
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
        net = precompose_affine(net, [[1.0 / d]], [0.0])
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
