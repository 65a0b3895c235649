"""Networks for smooth functions via Chebyshev interpolation, plus the
hat-partition stitching that extends them to arbitrary intervals.

A function qualifies when its n-th derivative is bounded by n! on the
interval; this cannot be checked mechanically and is recorded as a trust
precondition on SmoothDescriptor, with a coefficient-decay heuristic as a
guard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..calculus import (
    affine_network,
    compose,
    reduce_weights,
    sum_finite_width,
)
from ..core import AffineLayer, ReluNetwork, _interval
from .algebra import _check_eps, _product, polynomial_network

MAX_DEGREE = 40
WARN_DEGREE = 25


@dataclass(frozen=True)
class SmoothDescriptor:
    """A scalar function on an interval, trusted to have n-th derivatives
    bounded by n! there."""

    evaluator: Callable[[float], float]
    interval: tuple[float, float]
    label: str = ""

    def __post_init__(self):
        a, b = _interval(self.interval)
        probes = np.linspace(a, b, 33)
        values = [self.evaluator(float(x)) for x in probes]
        if not np.all(np.isfinite(values)):
            raise ValueError(f"evaluator not finite on [{a}, {b}]")


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Interpolating polynomial in the Chebyshev basis together with its
    monomial-basis coefficients."""

    coeffs: tuple[float, ...]
    monomial_coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def chebyshev_nodes(m: int) -> np.ndarray:
    """First-kind Chebyshev points cos((2k+1)pi / (2m+2)), k = 0..m."""
    k = np.arange(m + 1)
    return np.cos((2 * k + 1) * math.pi / (2 * m + 2))


def chebyshev_to_monomial(coeffs) -> np.ndarray:
    """Convert Chebyshev-basis coefficients to monomial-basis coefficients
    using the two-term recursion T_k = 2 x T_{k-1} - T_{k-2}."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m = len(coeffs) - 1
    out = np.zeros(m + 1)
    t_prev = np.array([1.0])  # T_0
    out[0] += coeffs[0]
    if m == 0:
        return out
    t_cur = np.array([0.0, 1.0])  # T_1
    out[:2] += coeffs[1] * t_cur
    for k in range(2, m + 1):
        t_next = np.zeros(k + 1)
        t_next[1:] = 2.0 * t_cur
        t_next[: k - 1] -= t_prev
        out[: k + 1] += coeffs[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return out


def chebyshev_expand(f: SmoothDescriptor, m: int) -> ChebyshevExpansion:
    """Interpolate f at the m+1 first-kind Chebyshev points of [-1, 1]."""
    a, b = f.interval
    if abs(a + 1.0) > 1e-12 or abs(b - 1.0) > 1e-12:
        raise ValueError("chebyshev_expand expects the interval [-1, 1]")
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m > MAX_DEGREE:
        raise ValueError(f"degree {m} exceeds the conditioning cap {MAX_DEGREE}")
    if m > WARN_DEGREE:
        warnings.warn(
            f"monomial conversion at degree {m} may lose precision",
            stacklevel=2,
        )
    nodes = chebyshev_nodes(m)
    values = np.array([f.evaluator(float(x)) for x in nodes])
    # Discrete orthogonality on first-kind points: T_j(x_k) = cos(j theta_k).
    k = np.arange(m + 1)
    theta = (2 * k + 1) * math.pi / (2 * m + 2)
    coeffs = np.empty(m + 1)
    for j in range(m + 1):
        coeffs[j] = (2.0 / (m + 1)) * np.sum(values * np.cos(j * theta))
    coeffs[0] /= 2.0
    mono = chebyshev_to_monomial(coeffs)
    # Interpolation must reproduce the samples; catches conversion blowups.
    recon = np.polyval(mono[::-1], nodes)
    scale = max(1.0, float(np.max(np.abs(values))))
    resid = float(np.max(np.abs(recon - values)))
    if resid > 1e-7 * scale:
        warnings.warn(
            f"interpolation residual {resid:g} at degree {m}", stacklevel=2
        )
    return ChebyshevExpansion(tuple(coeffs), tuple(mono))


def interpolation_degree(eps: float) -> int:
    """Chebyshev degree used for tolerance eps."""
    _check_eps(eps)
    return math.ceil(math.log2(2.0 / eps))


def smooth_network(f: SmoothDescriptor, eps: float) -> ReluNetwork:
    """Approximate a trusted-smooth f on [-1, 1] within eps via its Chebyshev
    interpolant realized as a polynomial network; width at most 9."""
    m = interpolation_degree(eps)
    expansion = chebyshev_expand(f, m)
    guard = max(abs(c) for c in expansion.coeffs)
    if guard > 2.0 + 1e-6:
        warnings.warn(
            f"Chebyshev coefficients reach {guard:g}; "
            f"'{f.label}' may violate the smoothness precondition",
            stacklevel=2,
        )
    return polynomial_network(expansion.monomial_coeffs, 1.0, eps / 2.0)


def hat_partition_networks(knots) -> list[ReluNetwork]:
    """Width-3, magnitude-1 networks forming the hat partition of unity over
    the given strictly increasing knots a_0 < ... < a_n (one hat per interior
    knot)."""
    knots = [float(a) for a in knots]
    n = len(knots) - 1
    if n < 3:
        raise ValueError("need at least two interior pieces")
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise ValueError("knots must be strictly increasing")
    hats = []
    for i in range(1, n):
        if i == 1:
            s = 1.0 / (knots[2] - knots[1])
            raw = ReluNetwork(
                (
                    AffineLayer([[1.0], [1.0]], [-knots[1], -knots[2]]),
                    AffineLayer([[-s, s]], [1.0]),
                )
            )
        elif i == n - 1:
            s = 1.0 / (knots[n - 1] - knots[n - 2])
            raw = ReluNetwork(
                (
                    AffineLayer([[1.0], [1.0]], [-knots[n - 2], -knots[n - 1]]),
                    AffineLayer([[s, -s]], [0.0]),
                )
            )
        else:
            left = 1.0 / (knots[i] - knots[i - 1])
            right = 1.0 / (knots[i + 1] - knots[i])
            raw = ReluNetwork(
                (
                    AffineLayer(
                        [[1.0], [1.0], [1.0]],
                        [-knots[i - 1], -knots[i], -knots[i + 1]],
                    ),
                    AffineLayer([[left, -(left + right), right]], [0.0]),
                )
            )
        hats.append(reduce_weights(raw))
    return hats


def stitch_networks(
    local_nets, knots, eps: float, f_bound: float
) -> ReluNetwork:
    """Glue local approximations into one network via the hat partition.

    local_nets[i] is trusted to approximate the target within eps/3 on
    [a_{i-1}, a_{i+1}]; the result approximates it within eps on the whole
    range.  Each local piece is multiplied by its hat and the products are
    summed at constant width.
    """
    _check_eps(eps)
    local_nets = list(local_nets)
    hats = hat_partition_networks(knots)
    if len(local_nets) != len(hats):
        raise ValueError(
            f"{len(local_nets)} local networks for {len(hats)} hat functions"
        )
    return sum_finite_width(
        [
            _product(net, hat, f_bound + 1.0 / 6.0, eps / 3.0)
            for net, hat in zip(local_nets, hats)
        ]
    )


def smooth_network_general(f: SmoothDescriptor, eps: float) -> ReluNetwork:
    """Approximate a trusted-smooth f on its interval [a, b] within eps.

    Intervals no longer than 2 are handled by centering and rescaling into
    [-1, 1]; longer intervals are split into unit-length cells whose local
    networks are stitched with the hat partition.
    """
    _check_eps(eps)
    a, b = f.interval

    def local_net(lo: float, hi: float, tol: float) -> ReluNetwork:
        # recentre [lo, hi] onto [-1, 1]; the half-width is at most 1, so the
        # pullback stays inside the trusted smoothness class
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        pulled = SmoothDescriptor(
            lambda y: f.evaluator(c + h * y), (-1.0, 1.0), f.label
        )
        core = smooth_network(pulled, tol)
        shift = affine_network([[1.0 / h]], [-c / h])
        return compose(core, shift)

    if b - a <= 2.0:
        return local_net(a, b, eps)
    n = math.ceil(b - a)
    knots = [a + i * (b - a) / n for i in range(n + 1)]
    locals_ = [
        local_net(knots[i - 1], knots[i + 1], eps / 3.0) for i in range(1, n)
    ]
    # members of the trusted class are bounded by 0! = 1
    return stitch_networks(locals_, knots, eps, f_bound=1.0)
