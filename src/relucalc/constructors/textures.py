"""Oscillatory textures cos(a*g(x)) h(x) and the lacunary cosine series
(Weierstrass-type fractal), both approximated at exponential accuracy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..calculus import compose, sum_finite_width
from ..core import ReluNetwork, _check_eps, network
from .algebra import _product
from .smooth import SmoothDescriptor, ToleranceError, smooth_network_general
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
    """The paper's p-free term count ceil(log2(2/eps)): the least K with
    2^-K <= eps/2, so the tail sum_{k>K} p^k < 2^-K stays below eps/2 for
    every p < 1/2.  It is read off eps's binary exponent, so it is exact, and
    it is the upper bound on the K of weierstrass_network."""
    _check_eps(eps)
    return 2 - math.frexp(eps)[1]


def _weierstrass_tolerances(p: float, eps: float) -> list[float]:
    """The tolerances eps_0, ..., eps_K of weierstrass_network's terms, by
    the two rules its docstring states.  K is searched in exact rationals up
    to weierstrass_terms(eps), which always meets the tail rule; the equal
    share eps / (2 (K + 1)) is shrunk by 2^-40 so that the rounding of p^k
    cannot lift sum_k p^k eps_k above eps/2."""
    q, half = Fraction(p), Fraction(eps) / 2
    tail = q / (1 - q)  # p^(K+1) / (1 - p) at K = 0
    for last in range(weierstrass_terms(eps) + 1):
        if tail <= half:
            break
        tail *= q
    share = eps / (2 * (last + 1)) * (1.0 - 2.0 ** -40)
    if share == 0.0:  # eps a few subnormal units: no term could be built
        raise ToleranceError(f"the share of eps = {eps} underflows")
    return [min(0.49, share / p ** k) for k in range(last + 1)]


def weierstrass_network(
    p: float, a: float, half_width: float, eps: float
) -> ReluNetwork:
    """Approximate sum_k p^k cos(a^k pi x) on [-D, D] within eps.

    The series is cut after the least K with p^(K+1) / (1 - p) <= eps/2, and
    term k is built within eps_k = min(0.49, eps / (2 (K + 1) p^k)), so the
    terms' errors, scaled by p^k, sum to at most eps/2 and with the tail the
    total stays within eps (see _weierstrass_tolerances).  The terms run one
    after another while the input and the running sum ride along, so width
    stays at 13 and weights at 1.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"decay factor must lie in (0, 1/2), got {p}")
    if a <= 0:
        raise ValueError("frequency base must be positive")
    _check_eps(eps)
    d = float(half_width)
    try:
        terms = [
            # each merged entry is the one product p^k w, no larger than w,
            # so compose merges the scale into the last layer
            compose(
                network([([[p ** k]], [0.0])]),
                cosine_network(a ** k * math.pi, d, eps_k),
            )
            for k, eps_k in enumerate(_weierstrass_tolerances(p, eps))
        ]
    except ToleranceError:
        raise ToleranceError(
            f"no Weierstrass network meets eps = {eps}: its terms need "
            "cosines below the cosine core's reach"
        ) from None
    return sum_finite_width(terms)
