"""Cutoff plateaus, modulated (cosine/sine-carrier) networks, and the
multivariate Gaussian bump.

The cutoff is exact: 1 on the inner box, 0 outside the outer box, with every
plateau value reproduced bitwise.  Modulation multiplies a trusted
approximation of the envelope by a cosine of a linear form.  The Gaussian
composes a sum-of-squares stage with an exponential stage and is clamped to
exact zero far out by a cutoff factor.
"""

from __future__ import annotations

import math

import numpy as np

from ..calculus import (
    affine_network,
    append_relu,
    compose,
    identity_network,
    linear_combination,
    scalar_mult_network,
)
from ..core import AffineLayer, ReluNetwork, _check_eps
from .algebra import _pow2_ceil, _product
from .smooth import SmoothDescriptor, smooth_network_general
from .splines import _plateau_gate
from .trig import cosine_network, cosine_shifted_network


def cutoff_network(y: float, dim: int = 1) -> ReluNetwork:
    """Network equal to 1 on [-y, y]^dim, 0 outside [-y-1, y+1]^dim, and in
    [0, 1] in between; the plateau values are exact."""
    if y <= 0:
        raise ValueError("inner half-width must be positive")
    if dim < 1:
        raise ValueError("dimension must be positive")
    return _plateau_gate(-float(y), float(y), 1.0, dim, scale=1.0)[0]


def modulated_network(
    envelope: ReluNetwork,
    envelope_bound: float,
    frequency,
    half_width: float,
    eps: float,
) -> tuple[ReluNetwork, ReluNetwork]:
    """Real and imaginary parts of the modulation of a trusted envelope.

    envelope approximates some f within eps on [-D, D]^d (trusted) and
    envelope_bound is max(1, sup|f|).  Returns networks approximating
    cos(2 pi <xi, t>) f(t) and sin(2 pi <xi, t>) f(t); the two sup errors sum
    to at most 3 eps on the box.
    """
    _check_eps(eps)
    xi = np.atleast_1d(np.asarray(frequency, dtype=np.float64))
    d = envelope.in_dim
    if xi.shape[0] != d:
        raise ValueError(
            f"frequency has {xi.shape[0]} coordinates, envelope expects {d}"
        )
    s_f = max(1.0, float(envelope_bound))
    if not np.any(xi):
        return envelope, ReluNetwork((AffineLayer(np.zeros((1, d)), [0.0]),))

    reach = d * float(half_width) * float(np.max(np.abs(xi)))
    carrier_tol = eps / (6.0 * s_f)
    phase = affine_network(xi.reshape(1, -1), [0.0])
    oscillators = (
        cosine_network(2.0 * math.pi, reach, carrier_tol),
        cosine_shifted_network(2.0 * math.pi, math.pi / 2.0, reach, carrier_tol),
    )
    return tuple(
        _product(compose(osc, phase), envelope, s_f + 0.5, eps / 6.0)
        for osc in oscillators
    )


def _clamp_above(threshold: float) -> ReluNetwork:
    """Network computing min(u, threshold) for u >= 0 with weights at most 1."""
    s = _pow2_ceil(threshold)
    inv = 1.0 / s
    split = ReluNetwork(
        (
            AffineLayer([[inv], [inv]], [0.0, -threshold * inv]),
            AffineLayer([[1.0, -1.0]], [0.0]),
        )
    )
    if s == 1.0:
        return split
    return compose(scalar_mult_network(s), split)


def _gaussian_radius(eps: float) -> int:
    """R such that gaussian_network is exactly zero outside [-R-1, R+1]^dim."""
    return max(1, math.ceil(math.log2(1.0 / eps)))


def gaussian_network(dim: int, eps: float) -> ReluNetwork:
    """Approximate exp(-|x|_2^2) on all of R^dim within eps.

    A sum of per-coordinate squares feeds an exponential network; the squared
    radius is clamped where the Gaussian falls below eps/4, which keeps the
    exponential stage on a short interval.  A cutoff factor forces exact zero
    outside [-R-1, R+1]^dim where R is the integer ceiling of log2(1/eps),
    beyond which the Gaussian itself is below eps.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    _check_eps(eps)
    radius = _gaussian_radius(eps)
    outer = radius + 1.0

    budget = eps / 4.0
    ident = identity_network(1)
    square_1d = _product(ident, ident, outer, budget / dim)
    sum_squares = linear_combination([square_1d] * dim, [1.0] * dim)
    clamp_at = float(math.ceil(math.log(4.0 / eps)) + 1)
    clamped = compose(_clamp_above(clamp_at), append_relu(sum_squares))

    decay = SmoothDescriptor(
        lambda yv: math.exp(-yv), (0.0, clamp_at + 1.0), "exp decay"
    )
    envelope = compose(smooth_network_general(decay, budget), clamped)

    gate, amp = _plateau_gate(-float(radius), float(radius), 1.0, dim)
    return _product(envelope, gate, 2.0, budget, amp)
