"""Oscillatory textures cos(a*g(x)) h(x) and the lacunary cosine series
(Weierstrass-type fractal), both approximated at exponential accuracy.
"""

from __future__ import annotations

import math

from ..calculus import (
    _pad_all,
    compose,
    identity_network,
    parallelize,
    scale_output,
)
from ..core import AffineLayer, ReluNetwork
from .algebra import _check_eps, _product
from .smooth import SmoothDescriptor, smooth_network_general
from .trig import cosine_network


def oscillatory_network(
    warp: SmoothDescriptor,
    envelope: SmoothDescriptor,
    a: float,
    half_width: float,
    eps: float,
) -> ReluNetwork:
    """Approximate cos(a * g(x)) * h(x) on [-D, D] within eps for trusted
    smooth g and h; width at most 32, weights at most 1."""
    if a <= 0:
        raise ValueError("frequency must be positive")
    _check_eps(eps)
    d = float(half_width)
    for descriptor in (warp, envelope):
        lo, hi = descriptor.interval
        if lo > -d + 1e-12 or hi < d - 1e-12:
            raise ValueError(
                f"descriptor interval [{lo}, {hi}] does not cover [-{d}, {d}]"
            )
    a_ceil = math.ceil(a)
    component_tol = eps / (12.0 * a_ceil)
    warp_net = smooth_network_general(warp, component_tol)
    envelope_net = smooth_network_general(envelope, component_tol)
    # the warped argument stays within [-1, 1] + tolerance
    oscillation = cosine_network(a, 1.5, eps / 3.0)
    carrier = compose(oscillation, warp_net)
    return _product(carrier, envelope_net, 1.5, eps / 3.0)


def weierstrass_reference(p: float, a: float, x, terms: int = 60) -> float:
    """Partial sum of the lacunary series sum_k p^k cos(a^k pi x)."""
    return float(
        sum(p ** k * math.cos(a ** k * math.pi * float(x)) for k in range(terms))
    )


def weierstrass_terms(eps: float) -> int:
    """Number of series terms kept for tolerance eps (tail below eps/2)."""
    _check_eps(eps)
    return math.ceil(math.log2(2.0 / eps))


# between blocks the state (x, block output, running sum) is rewired to
# (x, x, updated sum): the first channel feeds the next cosine block and the
# last carries the accumulated series
CHANNEL_SHUFFLE = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]


def weierstrass_network(
    p: float, a: float, half_width: float, eps: float
) -> ReluNetwork:
    """Approximate sum_k p^k cos(a^k pi x) on [-D, D] within eps.

    The truncated series is evaluated block by block; each block carries
    (x, p^k cos(a^k pi x), running sum) through width-13 stages.  Width stays
    at 13 and weights at 1.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"decay factor must lie in (0, 1/2), got {p}")
    if a <= 0:
        raise ValueError("frequency base must be positive")
    _check_eps(eps)
    d = float(half_width)
    n_terms = weierstrass_terms(eps)

    def block(k: int) -> ReluNetwork:
        """(x, y, s) -> (x, p^k cos(a^k pi y), s), identity channels padded."""
        osc = cosine_network(a ** k * math.pi, d, eps / 4.0)
        ident = identity_network(1)
        return parallelize(_pad_all([ident, scale_output(osc, p ** k), ident]))

    # (x) -> (x, cos-block 0, 0)
    fan = ReluNetwork(
        (AffineLayer([[1.0], [1.0], [0.0]], [0.0, 0.0, 0.0]),)
    )
    net = compose(block(0), fan)
    shuffle = ReluNetwork((AffineLayer(CHANNEL_SHUFFLE, [0.0, 0.0, 0.0]),))
    for k in range(1, n_terms + 1):
        net = compose(block(k), compose(shuffle, net))
    collect = ReluNetwork((AffineLayer([[0.0, 1.0, 1.0]], [0.0]),))
    return compose(collect, net)

