"""Cardinal B-spline networks, spline wavelets, Haar elements, and the
dilation/translation transform for affine dictionary elements.

B-splines of order m >= 2 and spline wavelets come from one de Boor pyramid:
N_2 is exact, and each level forms N_{k+1} from two shifts of N_k through
the recurrence N_{k+1}(y) = (c N_k(y) + (k+1-c) N_k(y-1)) / k with the clamp
c = rho(y) - rho(y-k-1), two multiplier cores per shift.  One pyramid holds
every integer shift of N_m at once, and it vanishes exactly outside each
shift's support.  Order 1 is a steep plateau gate.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache, partial

import numpy as np

from ..calculus import _scalar_mult, compose, linear_combination_shared
from .. import core
from ..core import AffineLayer, ReluNetwork, _check_eps, _dense_entries, network
from .algebra import _pow2_ceil, multiply_network


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
    arithmetic mirrors the unscaled one bit for bit.  A gate of more than
    core.MAX_DENSE_ENTRIES dense weights (4 dim^2 + dim + 1 for dim > 1) is
    refused with ValueError before any matrix exists.
    """
    dense = _dense_entries([dim, 2 * dim, dim] + [1] * (dim > 1) + [1])
    if dense > core.MAX_DENSE_ENTRIES:
        raise ValueError(
            f"dimension {dim} is too large: its plateau gate holds {dense:,} "
            f"dense weights, more than MAX_DENSE_ENTRIES = {core.MAX_DENSE_ENTRIES:,}"
        )
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


def _product_tol(m: int, k: int, eps: float) -> float:
    """Tolerance of each product (c/k) N_k at level k of an order-m pyramid."""
    return eps / ((m - 2) * k)


class _Rows:
    """A layer of `_pyramid_layers` whose rows are made only when it is
    iterated; its length, the row count, is known without them."""

    def __init__(self, count: int, make):
        self.count, self.make = count, make

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.make())


def _core_rows(k: int, ell: int, layer: AffineLayer, cores, values, extra) -> list:
    """Layer ell of level k's multiplier cores, then the extra rows.

    Each side-0 core leaves out its input row 1, rho(-(x + y)/2), the
    negation of row 0.  Row 0 sums the values N_k (post-ReLU, so >= 0, and
    in the first columns) with weight 1/2, then rho(y - j) with 1/2k, then
    rho(y - j - k - 1) <= rho(y - j) with -1/2k: monotone rounding keeps
    each partial sum >= 0, so row 1 is 0 exactly."""
    rows = []
    for j, side in cores:
        if ell == 0:
            # x = c/k beside N_k(y - j), (k+1)/k - c/k beside N_k(y - j - 1)
            sign = 1.0 - 2.0 * side
            inputs = [
                [(j, sign / k), (j + k + 1, -sign / k)],
                [(v, 1.0) for v in values(j + side)],
            ]
            shift = [side * (k + 1) / k, 0.0]
        else:
            inputs = [
                [((j, side, c), 1.0)] * (ell > 1 or side or c != 1)
                for c in range(layer.in_dim)
            ]
            shift = [0.0] * layer.in_dim
        for r, (row, b) in enumerate(zip(layer.matrix, layer.bias)):
            if ell == 0 and side == 0 and r == 1:
                continue
            terms = [(v, a * w) for a, vs in zip(row, inputs) if a for v, w in vs]
            rows.append(((j, side, r), b + row @ shift, terms))
    return rows + extra


def _pyramid_layers(m: int, shifts: int, eps: float):
    """The layers of `_de_boor_pyramid`, in order, each a sized iterable of
    rows (key, bias, terms), where terms are (key of a row of the previous
    layer, weight) and the input is the key "y".  The multiplier layers
    are `_Rows`, so the sizes cost no row."""
    top = shifts + m - 1
    held = shifts + m - 2
    scale = _pow2_ceil(top)
    copy = lambda key: (key, 0.0, [(key, 1.0)])
    ramp = lambda t: (t, 0.0, [(0, 1.0), ("K", -t / scale)])  # rho(y - t)

    def tail(k):  # the ramps of level k + 1 and the K it carries on
        if k >= m - 1:
            return []
        # the knots of the clamps c_j = rho(y - j) - rho(y - j - k - 2) of
        # its held - 1 shifts j
        knots = itertools.chain(
            range(held - 1), range(max(k + 2, held - 1), top + 1)
        )
        carry = [copy("K")] * (k < m - 2)
        return [copy(0) if t == 0 else ramp(t) for t in knots] + carry

    # ramp 0 is rho(y); K doubles from 1 in the pair (Ka, Kb), then K = scale
    pair = [("Ka", 1.0), ("Kb", 1.0)]
    yield [(0, 0.0, [("y", 1.0)]), ("Ka", 1.0, []), ("Kb", 1.0, [])]
    for _ in range(int(math.log2(scale)) - 1):
        yield [copy(0), ("Ka", 0.0, pair), ("Kb", 0.0, pair)]
    yield [copy(0), ("K", 0.0, pair)]
    yield (
        [copy(0)]
        + [ramp(t) for t in range(1, held + 1)]
        + [(("d", t), 0.0, ramp(t)[2]) for t in range(1, held + 1)]
        + [copy("K")] * (m >= 3)
    )
    # level 2: N_2(y - j) = rho(y - j) - rho(y - j - 1) - ("d", j + 1), clipped
    hats = [[(j, 1.0), (j + 1, -1.0), (("d", j + 1), -1.0)] for j in range(held)]
    yield [(("v", j), 0.0, terms) for j, terms in enumerate(hats)] + tail(1)
    values = lambda j: [("v", j)]
    for k in range(2, m):
        core = multiply_network(1.0, _product_tol(m, k, eps)).layers
        cores = [(j, side) for j in range(held - 1) for side in (0, 1)]
        carried = [copy(0), copy("K")] if k < m - 1 else []
        held -= 1
        for ell, layer in enumerate(core):
            extra = tail(k) if ell == len(core) - 1 else carried
            # the held side-0 cores leave out input row 1
            count = len(cores) * layer.out_dim - held * (ell == 0) + len(extra)
            make = partial(_core_rows, k, ell, layer, cores, values, extra)
            yield _Rows(count, make)
        values = lambda j: [(j, 0, 0), (j, 1, 0)]
    yield [(j, 0.0, [(v, 1.0) for v in values(j)]) for j in range(shifts)]


def _de_boor_pyramid(
    m: int, shifts: int, eps: float, budget: float = 1.0
) -> ReluNetwork:
    """Network y -> (N_m(y - j))_{j < shifts} for m >= 2, each output within
    eps / budget on all of R (write eps for eps / budget below), with all
    weights at most 1.

    Level 2 is exact: N_2(y - j) = rho(rho(y - j) - 2 rho(y - j - 1)).  Level
    k holds N_k(y - j) for j < shifts + m - k and builds
    N_{k+1}(y - j) = (c/k) N_k(y - j) + ((k+1-c)/k) N_k(y - j - 1) with
    c = rho(y - j) - rho(y - j - k - 1), two multiplier cores per shift (de
    Boor, "A Practical Guide to Splines", 1978, ch. IX).  Each product is
    clipped at 0 and taken within eta / k, eta = eps / (m - 2), so
    e_{k+1} <= (k+1)/k e_k + 2 eta / k, which with e_2 = 0 solves to
    e_m <= eta (m - 2) = eps (up to float rounding).  The cores run at D = 1:
    they square (x +- y)/2, and here x = c/k and y = N_k(c) (or N_k(k - c)
    beside k+1-c) keep 0 <= x + y <= 3/2 + e_k < 2.

    The ramps rho(y - t) come from a carried copy of rho(y) and a constant
    channel K = P, the least power of two at or above the last knot
    shifts + m - 1, built by doubling; a knot t enters as the weight t/P on
    K, so y - t is rounded once, as a bias would be.  Outside its support
    each N_k(y - j) is exactly 0: level 2 by monotone rounding, and later
    levels because multiply(x, 0) == 0 bitwise.

    A first pass over `_pyramid_layers` reads only the layer sizes, which
    cost no multiplier row, and refuses more than MAX_DENSE_ENTRIES dense
    weights, the sum of rows x previous rows, with ValueError before any
    matrix exists; a second pass builds.
    """
    tol = eps / budget
    dense, previous = 0, 1
    for rows in _pyramid_layers(m, shifts, tol):
        dense, previous = dense + len(rows) * previous, len(rows)
        if dense > core.MAX_DENSE_ENTRIES:
            raise ValueError(
                f"order m = {m} is too large for eps = {eps}: its de Boor "
                f"pyramid holds more than MAX_DENSE_ENTRIES = "
                f"{core.MAX_DENSE_ENTRIES:,} dense weights"
            )
    layers, keys = [], {"y": 0}
    for rows in map(list, _pyramid_layers(m, shifts, tol)):
        mat = np.zeros((len(rows), len(keys)))
        for i, (_, _, terms) in enumerate(rows):
            for src, w in terms:
                mat[i, keys[src]] = w
        layers.append(AffineLayer(mat, [b for _, b, _ in rows]))
        keys = {key: i for i, (key, _, _) in enumerate(rows)}
    return ReluNetwork(tuple(layers))


def bspline_network(m: int, eps: float) -> ReluNetwork:
    """Approximate the order-m cardinal B-spline within eps on all of R, with
    weights at most 1.

    For m >= 2 this is the de Boor pyramid of `_de_boor_pyramid` with one
    shift: its multipliers take each product c N_k within eta = eps / (m - 2),
    so the error is at most e_m <= eta (m - 2) = eps, order 2 is exact, and
    the output is exactly 0 outside [0, m].  An order whose pyramid holds
    more than MAX_DENSE_ENTRIES dense weights is refused with ValueError.
    Order 1 is the unit indicator, realized as a steep gate (ramp width
    eps^2 / 2 around the jumps) scaled by its amplitude: exactly 1 on
    [0, 1], exactly 0 outside [-eps^2 / 2, 1 + eps^2 / 2].
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    _check_eps(eps)
    if m > 1:
        return _de_boor_pyramid(m, 1, eps)
    gate, amp = _plateau_gate(0.0, 1.0, eps * eps / 2.0)
    # the gate's output is its last hidden row, so the rescale reads x >= 0
    return compose(_scalar_mult(amp, 1, nonnegative=True), gate)


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
    """Approximate the order-m spline wavelet sum_n q_n N_m(2x - n + 1) within
    eps on all of R.

    The q_n alternate in sign and sum_n |q_n| = 2 (a partition of unity of
    the N_2m), so each of the 3m - 1 shifts is taken within eps / 2.  For
    m >= 2 all of them come from one de Boor pyramid (`_de_boor_pyramid`) on
    y = 2x, whose output layer is weighted by the q_n; the network vanishes
    exactly outside [0, 2m - 1].  Order 1 sums two order-1 gates.  The
    dilation weight 2 enters the first layer raw, so the weight magnitude is
    2; every other weight, the |q_n| < 1 included, is at most 1.
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    _check_eps(eps)
    # each merged entry below is one product: the dilation 2 (or shift j)
    # times a first-layer entry of at most 1, or q_n times an output row's
    # weight 1, and output rows read disjoint rows, so compose merges
    if m == 1:
        terms = [
            compose(bspline_network(1, eps / 2.0), network([([[2.0]], [-float(j)])]))
            for j in range(2)
        ]
        return linear_combination_shared(terms, spline_wavelet_coeffs(1))
    net = compose(_de_boor_pyramid(m, 3 * m - 1, eps, 2.0), network([([[2.0]], [0.0])]))
    return compose(network([([spline_wavelet_coeffs(m)], [0.0])]), net)


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
