"""Cardinal B-spline networks, spline wavelets, Haar elements, and the
dilation/translation transform for affine dictionary elements.

The B-spline is assembled from shifted rectified monomials and localized by
an exact plateau gate, so the network vanishes identically outside the
support neighbourhood.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache

import numpy as np

from ..calculus import (
    affine_network,
    append_relu,
    compose,
    linear_combination_shared,
    scalar_mult_network,
    sum_finite_width,
)
from ..core import AffineLayer, ReluNetwork, _check_eps
from .algebra import _pow2_ceil, _product, polynomial_network


def _truncated_power_sum(m: int, p: int, q: int) -> int:
    """(m-1)! q**(m-1) N_m(p/q) for q > 0, as the exact integer
    sum_{0 <= k <= p/q} (-1)^k C(m, k) (p - k q)^(m-1)."""
    total = 0
    for k in range(min(m, p // q) + 1):
        total += (-1) ** k * math.comb(m, k) * (p - k * q) ** (m - 1)
    return total


def cardinal_bspline(m: int, x) -> float:
    """Cardinal B-spline of order m (the m-fold convolution power of the unit
    indicator), evaluated exactly at x through its truncated-power sum.

    x = p/q is read exactly (a float by as_integer_ratio, anything else
    through Fraction).  Outside the support [0, m) the value is 0.0 with no
    sum; inside, the sum runs over the shorter side, N_m(x) = N_m(m - x).
    Either way the result is the one integer quotient, correctly rounded.
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    if isinstance(x, float):
        p, q = x.as_integer_ratio()
    else:
        p, q = map(int, Fraction(x).as_integer_ratio())
    m = operator.index(m)
    span = m * q
    if p < 0 or p >= span:
        return 0.0
    p = min(p, span - p)
    return _truncated_power_sum(m, p, q) / (math.factorial(m - 1) * q ** (m - 1))


def _plateau_gate(
    lo: float, hi: float, ramp: float, dim: int = 1, scale: float | None = None
) -> tuple[ReluNetwork, float]:
    """Network g and amplitude A with A*g(x) equal to 1 on [lo, hi]^dim, 0
    outside [lo - ramp, hi + ramp]^dim, and in [0, 1] in between.

    Per coordinate, the nested form rho(ramp - rho(t - hi) - rho(lo - t))
    keeps the plateaus exact in floating point: inside, both inner terms are
    exactly zero; outside, monotone rounding keeps the pre-activation
    nonpositive.  For dim > 1 one more layer checks that every coordinate is
    on its plateau.  The first layer is divided by scale, a power of two that
    by default is the smallest keeping all weights at most 1, so the scaled
    arithmetic mirrors the unscaled one bit for bit.
    """
    if scale is None:
        scale = _pow2_ceil(max(abs(lo), abs(hi), ramp, (dim - 1) * ramp))
    inv = 1.0 / scale
    rows = np.arange(2 * dim)
    split = np.zeros((2 * dim, dim))
    split[rows, rows // 2] = np.tile([inv, -inv], dim)
    collect = np.zeros((dim, 2 * dim))
    collect[rows // 2, rows] = -1.0
    layers = (
        AffineLayer(split, np.tile([-hi * inv, lo * inv], dim)),
        AffineLayer(collect, np.full(dim, ramp * inv)),
    )
    if dim > 1:
        layers += (AffineLayer(np.ones((1, dim)), [-(dim - 1) * ramp * inv]),)
    return ReluNetwork(layers + (AffineLayer([[1.0]], [0.0]),)), scale / ramp


def bspline_network(m: int, eps: float) -> ReluNetwork:
    """Approximate the order-m cardinal B-spline within eps on all of R.

    For m >= 2 the truncated-power representation
    sum_k (-1)^k C(m, k) rho(x - k)^(m-1) / (m-1)! reproduces the spline; a
    plateau gate multiplied in keeps the output exactly zero outside
    [-1, m+1].  Order 1 is the unit indicator and is realized by a steep gate
    alone (ramp width eps^2 / 2 around the jumps).  Weights stay bounded by 1.
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    _check_eps(eps)
    if m == 1:
        body = ReluNetwork((AffineLayer([[0.0]], [1.0]),))
        gate, amp = _plateau_gate(0.0, 1.0, eps * eps / 2.0)
    else:
        mono = [0.0] * (m - 1) + [1.0]
        try:
            power = polynomial_network(mono, float(m + 2), eps / (4.0 * (m + 2)))
        except (ValueError, OverflowError) as exc:
            raise ValueError(
                f"order m = {m} is too large for eps = {eps}: the power "
                f"x^{m - 1} on [0, {m + 2}] leaves the float range"
            ) from exc
        terms = []
        for k in range(m + 1):
            coeff = (-1.0) ** k * math.comb(m, k) / math.factorial(m - 1)
            shifted = affine_network([[1.0]], [-float(k)])
            term = compose(power, append_relu(shifted))
            terms.append(compose(scalar_mult_network(coeff), term))
        body = sum_finite_width(terms)
        gate, amp = _plateau_gate(0.0, float(m), 1.0)
    return _product(body, gate, 1.0 + eps / 2.0, eps / 2.0, amp)


@cache
def spline_wavelet_coeffs(m: int) -> tuple[float, ...]:
    """Coefficients q_1..q_{3m-1} expanding the order-m spline wavelet in
    half-integer shifts of the order-m B-spline."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    # N_2m(n - j) = _truncated_power_sum(2m, n - j, 1) / (2m - 1)!
    den = math.factorial(2 * m - 1) * 2 ** (m - 1)
    out = []
    for n in range(1, 3 * m):
        total = sum(
            math.comb(m, j) * _truncated_power_sum(2 * m, n - j, 1)
            for j in range(m + 1)
        )
        out.append((-1) ** (n + 1) * total / den)
    return tuple(out)


def spline_wavelet_reference(m: int, x) -> float:
    """Spline wavelet value sum_n q_n N_m(2x - n + 1), summed in floats.

    Each B-spline term is exact, correctly rounded at its argument, but that
    argument 2x - n + 1 is computed in floats, and the products with the
    float q_n and their sum are rounded.  At m = 3 and x = 1e-17 the shift
    2x rounds away and the value is 0.0; with exact shifts the same terms
    sum to 4.2e-37.
    """
    q = spline_wavelet_coeffs(m)
    return float(
        sum(
            qn * cardinal_bspline(m, 2.0 * float(x) - n + 1)
            for n, qn in enumerate(q, start=1)
        )
    )


def dilate_translate(
    base, matrix, shift, p: float, half_width: float, eta: float
) -> ReluNetwork:
    """Network approximating |det A|**(1/p) * f(Ax - e) on [-E, E]**d.

    base is a constructor handle (D, eta) -> network approximating f on
    [-D, D]**d within eta.  The input transform is absorbed as a plain affine
    layer; the amplitude factor is applied at the output.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    e = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    d = a.shape[0]
    if a.shape[0] != a.shape[1] or e.shape[0] != d:
        raise ValueError("need a square matrix and a matching shift vector")
    det = float(np.linalg.det(a))
    if abs(det) <= 1e-12:
        raise ValueError("dilation matrix is singular")
    reach = d * float(half_width) * float(np.max(np.abs(a))) + float(
        np.max(np.abs(e)) if e.size else 0.0
    )
    net = base(reach, eta)
    net = compose(net, ReluNetwork((AffineLayer(a, -e),)))
    factor = 1.0 if math.isinf(p) else abs(det) ** (1.0 / p)
    if factor != 1.0:
        net = compose(ReluNetwork((AffineLayer([[factor]], [0.0]),)), net)
    return net


def spline_wavelet_network(m: int, eps: float) -> ReluNetwork:
    """Approximate the order-m spline wavelet within eps on its support."""
    _check_eps(eps)
    q = spline_wavelet_coeffs(m)
    budget = sum(abs(c) for c in q)
    eta = eps / budget
    terms = [
        dilate_translate(
            lambda reach, tol: bspline_network(m, tol),
            [[2.0]],
            [float(n - 1)],
            math.inf,
            2.0 * m,
            eta,
        )
        for n in range(1, 3 * m)
    ]
    return linear_combination_shared(terms, q)


def haar_mother_network(eps: float) -> ReluNetwork:
    """Continuous ramp approximation of the Haar mother wavelet with
    transition half-width eps**2."""
    return haar_element_network(0, 0, eps)


def haar_reference(x: float) -> float:
    """The Haar mother wavelet: 1 on [0, 1/2), -1 on [1/2, 1), 0 elsewhere."""
    if 0.0 <= x < 0.5:
        return 1.0
    if 0.5 <= x < 1.0:
        return -1.0
    return 0.0


def haar_element_network(n: int, k: int, eps: float) -> ReluNetwork:
    """Scaled and shifted Haar element 2**(n/2) * psi(2**n x - k) with ramp
    half-width eps**2; connectivity is exactly 18."""
    if n < 0:
        raise ValueError("scale index must be nonnegative")
    if not 0 <= k <= 2 ** n - 1:
        raise ValueError(f"shift index {k} out of range for scale {n}")
    _check_eps(eps)
    delta = eps * eps
    try:
        amp = 2.0 ** (n / 2.0)
        dil = 2.0 ** n
    except OverflowError:
        raise ValueError(
            f"scale index n = {n} is too large: 2**n exceeds the float range"
        ) from None
    mat = [[dil]] * 6
    bias = [
        -k + delta,
        -k - delta,
        -k - (0.5 - delta),
        -k - (0.5 + delta),
        -k - (1.0 - delta),
        -k - (1.0 + delta),
    ]
    inv = 1.0 / (2.0 * delta)
    out = [[amp * inv, -amp * inv, -2.0 * amp * inv, 2.0 * amp * inv, amp * inv, -amp * inv]]
    return ReluNetwork((AffineLayer(mat, bias), AffineLayer(out, [0.0])))
