"""Oscillatory textures cos(a*g(x)) h(x) and the lacunary cosine series
(Weierstrass-type fractal), both approximated at exponential accuracy.
"""

from __future__ import annotations

import math

from ..calculus import compose, scale_output, sum_finite_width
from ..core import ReluNetwork, _check_eps
from .algebra import _product
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


def weierstrass_network(
    p: float, a: float, half_width: float, eps: float
) -> ReluNetwork:
    """Approximate sum_k p^k cos(a^k pi x) on [-D, D] within eps.

    The truncated series is a finite-width sum: the terms p^k cos(a^k pi x),
    each within eps/4, run one after another while the input and the running
    sum ride along, so width stays at 13 and weights at 1.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"decay factor must lie in (0, 1/2), got {p}")
    if a <= 0:
        raise ValueError("frequency base must be positive")
    _check_eps(eps)
    d = float(half_width)
    return sum_finite_width(
        [
            scale_output(cosine_network(a ** k * math.pi, d, eps / 4.0), p ** k)
            for k in range(weierstrass_terms(eps) + 1)
        ]
    )
