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
    _scalar_mult,
    affine_network,
    append_relu,
    compose,
    linear_combination,
)
from ..core import AffineLayer, ReluNetwork, _check_eps
from .algebra import _pow2_ceil, _product, _square_network
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
    """Network computing min(u, threshold) for u >= 0 with weights at most 1.

    It is rho(u/s) - rho(u/s - threshold/s), scaled back by s: both rows
    start at the same rounded u/s, so monotone rounding keeps the second at
    most the first and the difference >= 0, which the rescale reads."""
    s = _pow2_ceil(threshold)
    inv = 1.0 / s
    split = ReluNetwork(
        (
            AffineLayer([[inv], [inv]], [0.0, -threshold * inv]),
            AffineLayer([[1.0, -1.0]], [0.0]),
        )
    )
    return compose(_scalar_mult(s, 1, nonnegative=True), split)


def _gaussian_radius(eps: float) -> int:
    """R such that gaussian_network is exactly zero outside [-R-1, R+1]^dim."""
    ratio = 1.0 / eps
    if not math.isfinite(ratio):
        raise ValueError(f"eps = {eps} is too small: 1/eps exceeds the float range")
    return max(1, math.ceil(math.log2(ratio)))


def _exp_tail_bound(h: float, n: int) -> float:
    """Upper bound on sup |f - p_n| on [0, 2h] for f(y) = exp(-y) and p_n its
    interpolant at the n + 1 first-kind Chebyshev points of [0, 2h].

    Pulled back by y = h + h t, f is exp(-h - h t), whose Chebyshev
    coefficients are a_k = 2 e^-h (-1)^k I_k(h) for k >= 1 (the generating
    function of the modified Bessel functions, DLMF 10.35.3).  Aliasing gives
    sup |f - p_n| <= 2 sum_{k>n} |a_k| (Trefethen, Approximation Theory and
    Approximation Practice, ch. 4), and the power series, with
    (j + k)! >= k! (k + 1)^j, gives I_k(h) <= (h/2)^k / k! exp(h^2 / (4 (k+1))),
    so

        sup |f - p_n| <= 4 e^-h sum_{k>n} (h/2)^k / k! exp(h^2 / (4 (k+1))).

    Successive terms shrink by at least h / (2 (k + 1)), a ratio that falls
    with k, so the sum is at most its first term (k = n + 1) over
    1 - h / (2 (k + 1)); the bound is infinite while that ratio is at least 1.
    The first term is taken through lgamma; once the ratio is below 1 its
    exponent is at most 0, so it cannot overflow.
    """
    k = n + 1
    ratio = h / (2.0 * (k + 1))
    if ratio >= 1.0:
        return math.inf
    log_first = (
        -h + k * math.log(h / 2.0) - math.lgamma(k + 1) + h * h / (4.0 * (k + 1))
    )
    return 4.0 * math.exp(log_first) / (1.0 - ratio)


def _exp_decay(clamp_at: float) -> SmoothDescriptor:
    """exp(-y) on [0, clamp_at + 1], with the tail bound of _exp_tail_bound."""
    half_length = 0.5 * (clamp_at + 1.0)
    return SmoothDescriptor(
        lambda y: math.exp(-y),
        (0.0, clamp_at + 1.0),
        "exp decay",
        tail_bound=lambda n: _exp_tail_bound(half_length, n),
    )


def gaussian_network(dim: int, eps: float) -> ReluNetwork:
    """Approximate exp(-|x|_2^2) on all of R^dim within eps.

    A sum of per-coordinate squares feeds an exponential network; the squared
    radius is clamped where the Gaussian falls below eps/4, which keeps the
    exponential stage on a short interval.  A cutoff factor forces exact zero
    outside [-R-1, R+1]^dim where R is the integer ceiling of log2(1/eps),
    beyond which the Gaussian itself is below eps.

    exp(-y) on [0, 2h], 2h = clamp + 1, is one Chebyshev cell.  Its degree is
    the least n whose tail bound, which dominates the interpolation error
    4 e^-h sum_{k>n} I_k(h) (see _exp_tail_bound),

        4 e^-h (h/2)^m / m! exp(h^2 / (4 (m + 1))) / (1 - h / (2 (m + 1))),
        m = n + 1,

    is at most eps/8, half of the exponential stage's share.  An eps below
    16 dim (R+1)^2 2^-52, the squaring stage's rounding floor, is refused
    with ValueError.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    _check_eps(eps)
    radius = _gaussian_radius(eps)
    outer = radius + 1.0
    # Each square is outer^2 times a value the multiplier computes in
    # [-1, 1], so it carries rounding of order outer^2 2^-52; once that
    # rounding dominates, the grid error has measured under
    # 5 dim outer^2 2^-52.  Refusing eps below 16 dim outer^2 2^-52 keeps
    # it under a third of eps.
    floor = 16.0 * dim * outer ** 2 * 2.0 ** -52
    if eps < floor:
        raise ValueError(
            f"eps = {eps} is below the rounding floor {floor:.3g} of the "
            f"squaring stage on [-{outer:g}, {outer:g}]^{dim}"
        )

    budget = eps / 4.0
    square_1d = _square_network(outer, budget / dim)
    sum_squares = linear_combination([square_1d] * dim, [1.0] * dim)
    clamp_at = float(math.ceil(math.log(4.0 / eps)) + 1)
    clamped = compose(_clamp_above(clamp_at), append_relu(sum_squares))

    exponential = smooth_network_general(_exp_decay(clamp_at), budget)
    envelope = compose(exponential, clamped)

    gate, amp = _plateau_gate(-float(radius), float(radius), 1.0, dim)
    # the gate's output is its last hidden row, >= 0, so copy rows carry it
    # to the envelope's depth, where extend_depth's minus channel would be 0
    pad = (AffineLayer([[1.0]], [0.0]),) * (envelope.depth - gate.depth)
    gate = ReluNetwork(gate.layers + pad)
    return _product(envelope, gate, 2.0, budget, amp)
