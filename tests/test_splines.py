import hashlib
import math
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relucalc import evaluate_batch, metrics
from relucalc.constructors import (
    bspline_network,
    cardinal_bspline,
    dilate_translate,
    haar_element_network,
    haar_mother_network,
    haar_reference,
    spline_wavelet_coeffs,
    spline_wavelet_network,
    spline_wavelet_reference,
    square_network,
)
from relucalc import core
from relucalc.core import MAX_DENSE_ENTRIES, _dense_entries
from relucalc.constructors.splines import (
    _de_boor_pyramid,
    _pyramid_layers,
    _truncated_power_sum,
)

from conftest import grid_eval


def bspline_by_convolution(m, xs):
    """Oracle: m-fold convolution power of the unit indicator, by quadrature."""
    step = 1e-3
    t = np.arange(0.0, m + step, step)
    f = ((t >= 0) & (t < 1)).astype(float)
    g = f.copy()
    for _ in range(m - 1):
        g = np.convolve(g, f) * step
        g = g[: len(t)]
    return np.interp(xs, t, g)


def bspline_by_recurrence(m, x):
    """Oracle: N_m(x) = (x N_{m-1}(x) + (m - x) N_{m-1}(x - 1)) / (m - 1)
    in exact Fractions, from the unit indicator N_1 of [0, 1)."""
    if m == 1:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    return (
        x * bspline_by_recurrence(m - 1, x)
        + (m - x) * bspline_by_recurrence(m - 1, x - 1)
    ) / (m - 1)


# --- exact B-spline values ----------------------------------------------------------


def test_bspline_closed_form_equals_recurrence():
    rng = np.random.default_rng(3)
    points = (
        [k / 2 for k in range(-6, 19)]  # integers and half-integers
        + [5e-324, -5e-324, 1e-300, 1e6, -1e6]
        + rng.uniform(-3.0, 9.0, 200).tolist()
        + (rng.integers(-3 * 2 ** 10, 9 * 2 ** 10, 100) / 2 ** 10).tolist()
    )
    for m in range(1, 7):
        for x in points:
            p, q = Fraction(x).as_integer_ratio()
            want = bspline_by_recurrence(m, Fraction(x))
            got = Fraction(
                _truncated_power_sum(m, p, q), math.factorial(m - 1) * q ** (m - 1)
            )
            assert got == want, (m, x)
            assert cardinal_bspline(m, x) == float(want), (m, x)


def test_bspline_evaluation_retains_no_memory():
    xs = np.linspace(-2.0, 5.0, 20_001).tolist()
    ys = np.linspace(-1.0, 6.0, 20_001).tolist()
    tracemalloc.start()
    try:
        total = 0.0
        for x in xs:
            total += cardinal_bspline(3, x)
        wavelet = 0.0
        for y in ys:
            wavelet += spline_wavelet_reference(3, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert abs(total * (7.0 / 20_000) - 1.0) < 1e-6  # the spline integrates to 1
    assert abs(wavelet * (7.0 / 20_000)) < 1e-4  # the wavelet integrates to 0


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _truncated_power_value(m: int, x: float) -> float:
    # the whole truncated-power sum at x = p/q, one quotient rounded once
    p, q = Fraction(x).as_integer_ratio()
    return float(
        Fraction(_truncated_power_sum(m, p, q), math.factorial(m - 1) * q ** (m - 1))
    )


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(1, 8),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1.0, 9.0),
    ),
)
@example(1, 0.0)
@example(1, -0.0)
@example(3, 5e-324)
@example(3, -5e-324)
@example(8, 1e300)
@example(8, -1e300)
@example(4, 2.0)
@example(5, 2.5)
@example(3, 3.0 - 2.0 ** -50)
@example(3, 1.5 + 2.0 ** -50)
def test_bspline_gated_shorter_side_is_the_full_sum(m, x):
    # the support gate and the sum over the shorter side return the bits of
    # the full truncated-power sum; 0.0 and -0.0 are told apart
    assert _bits(cardinal_bspline(m, x)) == _bits(_truncated_power_value(m, x))


@pytest.mark.parametrize(
    "x, want",
    [
        (2, 0.5),
        (3, 0.0),
        (True, 0.5),
        (np.int64(2), 0.5),
        (np.float64(1.5), 0.75),
        (Fraction(3, 2), 0.75),
        (Decimal("1.5"), 0.75),
        ("1.5", 0.75),
        ("3/2", 0.75),
    ],
)
def test_bspline_accepts_exact_inputs(x, want):
    assert cardinal_bspline(3, x) == want


@pytest.mark.parametrize(
    "m, x, error",
    [
        (3, np.float32(1.5), TypeError),
        (3, math.inf, OverflowError),
        (3, -math.inf, OverflowError),
        (3, math.nan, ValueError),
        (0, 1.5, ValueError),
        (-1, 1.5, ValueError),
        (2.5, 1.5, TypeError),
        (2.5, 10.0, TypeError),  # no gate before the order is read
        (3.0, 1.5, TypeError),
        (Fraction(3), 1.5, TypeError),
    ],
)
def test_bspline_refuses_bad_inputs(m, x, error):
    with pytest.raises(error):
        cardinal_bspline(m, x)


def test_bspline_numpy_integers_are_exact():
    # numpy integers are read as Python ints, so high orders do not wrap
    assert cardinal_bspline(30, np.int64(15)) == cardinal_bspline(30, 15)
    assert cardinal_bspline(np.int64(30), 15.0) == cardinal_bspline(30, 15)


def test_bspline_order_two_at_integers():
    assert cardinal_bspline(2, 0) == 0.0
    assert cardinal_bspline(2, 1) == 1.0
    assert cardinal_bspline(2, 2) == 0.0


def test_bspline_order_four_at_integers():
    got = [cardinal_bspline(4, j) for j in range(5)]
    assert got == [0.0, 1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0, 0.0]


def test_bspline_matches_convolution_oracle():
    for m in (2, 3, 4):
        xs = np.linspace(-0.5, m + 0.5, 101)
        got = np.array([cardinal_bspline(m, x) for x in xs])
        want = bspline_by_convolution(m, xs)
        np.testing.assert_allclose(got, want, atol=5e-3)


def test_bspline_partition_of_unity():
    xs = np.linspace(0.0, 1.0, 37)
    for m in (2, 3, 5):
        total = [
            sum(cardinal_bspline(m, x + j) for j in range(m)) for x in xs
        ]
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


# --- B-spline networks ----------------------------------------------------------------


def test_bspline_network_hat_peak():
    eps = 1e-2
    net = bspline_network(2, eps)
    assert abs(evaluate_batch(net, 1.0)[0, 0] - 1.0) <= eps


def test_bspline_network_error_profile():
    for m in (2, 3):
        eps = 1e-2
        net = bspline_network(m, eps)
        xs = np.linspace(-2.0, m + 2.0, 4001)
        want = np.array([cardinal_bspline(m, x) for x in xs])
        assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps
        assert metrics(net).weight_magnitude <= 1.0


def test_bspline_network_vanishes_in_tails():
    net = bspline_network(2, 1e-2)
    for x in (-1.5, -10.0, 4.0, 10.0):
        assert evaluate_batch(net, x)[0, 0] == 0.0


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_bspline_network_meets_eps_at_high_order(m, eps):
    # the truncated-power sum missed eps from order 9 (by 0.21 at order 10);
    # the de Boor pyramid has no cancellation and is exactly 0 off [0, m]
    net = bspline_network(m, eps)
    xs = np.linspace(-1.0, m + 1.0, 4001)
    want = np.array([cardinal_bspline(m, x) for x in xs])
    got = grid_eval(net, xs)
    assert np.max(np.abs(got - want)) <= eps
    assert got[0] == 0.0 and got[-1] == 0.0
    assert metrics(net).weight_magnitude <= 1.0


@pytest.mark.parametrize(
    "m, shifts, eps", [(2, 1, 1e-2), (3, 1, 1e-3), (4, 11, 1e-2), (7, 2, 1e-4)]
)
def test_pyramid_rows_predict_the_built_dims(m, shifts, eps, monkeypatch):
    # the counting pass counts exactly the built network's dense weights, the
    # sum of rows x previous rows: a cap of that many builds, one less refuses
    net = _de_boor_pyramid(m, shifts, eps)
    dense = _dense_entries(net.dims)
    monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", dense)
    assert _de_boor_pyramid(m, shifts, eps) == net
    monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", dense - 1)
    with pytest.raises(ValueError, match=f"order m = {m} is too large"):
        _de_boor_pyramid(m, shifts, eps)


@pytest.mark.parametrize("m", range(2, 13))
def test_pyramid_sizes_come_before_its_rows(m):
    # the sizes _pyramid_layers states without making a multiplier row are
    # the dims of the built pyramid, for one shift and for a wavelet's
    for shifts in (1, 3 * m - 1):
        sizes = [len(rows) for rows in _pyramid_layers(m, shifts, 1e-2)]
        assert tuple(sizes) == _de_boor_pyramid(m, shifts, 1e-2).dims[1:]


def test_pyramid_shifts_are_the_shifted_bspline():
    m, shifts, eps = 4, 3, 1e-3
    net = _de_boor_pyramid(m, shifts, eps)
    xs = np.linspace(-1.0, m + shifts, 2001)
    got = evaluate_batch(net, xs.reshape(-1, 1))
    for j in range(shifts):
        want = np.array([cardinal_bspline(m, x - j) for x in xs])
        assert np.max(np.abs(got[:, j] - want)) <= eps
        assert np.all(got[(xs <= j) | (xs >= j + m), j] == 0.0)


def test_bspline_network_refuses_an_oversized_pyramid_before_building():
    # order 60 would hold about 6.4e7 dense weights; the count comes first
    tracemalloc.start()
    try:
        refusal = "order m = 60 is too large for eps = 0.01"
        with pytest.raises(ValueError, match=refusal):
            bspline_network(60, 1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    rows = [len(layer) for layer in _pyramid_layers(60, 1, 1e-2)]
    assert _dense_entries([1] + rows) > MAX_DENSE_ENTRIES


def test_bspline_network_order_one_away_from_jumps():
    eps = 1e-2
    net = bspline_network(1, eps)
    margin = 0.05
    xs = np.concatenate(
        [
            np.linspace(-2.0, -margin, 301),
            np.linspace(margin, 1.0 - margin, 301),
            np.linspace(1.0 + margin, 3.0, 301),
        ]
    )
    want = ((xs >= 0) & (xs < 1)).astype(float)
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps


# --- wavelet coefficients and networks ---------------------------------------------------


def test_wavelet_coeffs_order_one_is_haar():
    assert spline_wavelet_coeffs(1) == (1.0, -1.0)


def test_wavelet_coeffs_count():
    for m in (1, 2, 3, 4):
        assert len(spline_wavelet_coeffs(m)) == 3 * m - 1


def test_wavelet_reference_orthogonal_to_constants():
    # the wavelet integrates to zero
    for m in (1, 2, 3):
        xs = np.linspace(0.0, 2.0 * m - 1.0, 20001)
        vals = np.array([spline_wavelet_reference(m, x) for x in xs])
        integral = np.trapezoid(vals, xs)
        assert abs(integral) <= 1e-4


# sha256 of spline_wavelet_reference(m, x) on linspace(-1, 2m, 4001)
WAVELET_REFERENCE_DIGESTS = {
    1: "eca2097c44964698d47e62cbbe683cb8db0094dca533917bccbb488c7a0f09e2",
    2: "97adfa70421c33ce7291c0052d84926e3549239c30cb64e742456749859bdd83",
    3: "170fc992380bc23a6fdc032a1c9fbfc8c0af5fe700ac676b4db5b9953a0c3b9b",
    4: "96d20644401ba43df46c65448e9b64e387bb302588f20b39a0d5565164eba4fa",
}


@pytest.mark.parametrize("m", sorted(WAVELET_REFERENCE_DIGESTS))
def test_wavelet_reference_bits_are_pinned(m):
    xs = np.linspace(-1.0, 2.0 * m, 4001)
    vals = np.array([spline_wavelet_reference(m, x) for x in xs])
    assert hashlib.sha256(vals.tobytes()).hexdigest() == WAVELET_REFERENCE_DIGESTS[m]


def test_wavelet_reference_rounds_its_shifts():
    # the shift 2x - n + 1 is taken in floats, so 2e-17 rounds away
    assert spline_wavelet_reference(3, 1e-17) == 0.0


def test_wavelet_network_order_one_value():
    eps = 1e-2
    net = spline_wavelet_network(1, eps)
    assert abs(evaluate_batch(net, 0.25)[0, 0] - 1.0) <= eps


def test_wavelet_network_vanishes_off_its_support():
    for m in (2, 3):
        net = spline_wavelet_network(m, 1e-2)
        left = np.linspace(-50.0, 0.0, 501)
        xs = np.concatenate([left, np.linspace(2.0 * m - 1.0, 50.0, 501)])
        assert np.all(grid_eval(net, xs) == 0.0)
        assert metrics(net).weight_magnitude == 2.0  # the dilation weight


def test_wavelet_network_error():
    for m in (2, 3):
        eps = 2e-2
        net = spline_wavelet_network(m, eps)
        xs = np.linspace(0.0, 2.0 * m - 1.0, 2001)
        want = np.array([spline_wavelet_reference(m, x) for x in xs])
        assert np.max(np.abs(grid_eval(net, xs) - want)) <= eps


# --- dilation / translation ------------------------------------------------------------


def test_dilate_translate_identity_is_noop():
    base = lambda reach, tol: square_network(min(tol, 0.4))
    ref = base(1.0, 1e-3)
    net = dilate_translate(base, [[1.0]], [0.0], 2.0, 1.0, 1e-3)
    xs = np.linspace(0.0, 1.0, 301)
    np.testing.assert_allclose(grid_eval(net, xs), grid_eval(ref, xs), atol=1e-12)


def test_dilate_translate_scaled_square():
    eta = 1e-3
    base = lambda reach, tol: square_network(min(tol, 0.4))
    net = dilate_translate(base, [[2.0]], [0.0], 2.0, 0.5, eta)
    xs = np.linspace(0.0, 0.5, 301)
    want = math.sqrt(2.0) * (2.0 * xs) ** 2
    # amplitude factor multiplies the base tolerance
    assert np.max(np.abs(grid_eval(net, xs) - want)) <= math.sqrt(2.0) * eta


def test_dilate_translate_haar_element():
    eps = 5e-2
    base = lambda reach, tol: haar_mother_network(eps)
    net = dilate_translate(base, [[2.0]], [0.0], 2.0, 1.0, eps)
    xs = np.linspace(0.0, 1.0, 400001)
    want = np.array([math.sqrt(2.0) * haar_reference(2.0 * x) for x in xs])
    err = grid_eval(net, xs) - want
    l2 = math.sqrt(np.trapezoid(err ** 2, xs))
    assert l2 <= 3 * eps


def test_dilate_translate_rejects_singular():
    base = lambda reach, tol: square_network(0.1)
    with pytest.raises(ValueError):
        dilate_translate(base, [[0.0]], [0.0], 2.0, 1.0, 1e-2)


# --- Haar elements ----------------------------------------------------------------------


def test_haar_element_plateaus():
    net = haar_element_network(0, 0, 1e-2)
    assert evaluate_batch(net, 0.25)[0, 0] == 1.0
    assert evaluate_batch(net, 0.75)[0, 0] == -1.0


def test_haar_element_connectivity():
    for n, k in [(0, 0), (1, 1), (3, 5)]:
        assert metrics(haar_element_network(n, k, 1e-2)).connectivity == 18


def test_haar_element_l2_error():
    # transitions touching the domain boundary leave slack under the exact
    # L2 value; ramp widths must stay resolvable on the quadrature grid
    for n, k, eps in [(0, 0, 2e-2), (1, 0, 2e-2), (2, 3, 5e-2)]:
        net = haar_element_network(n, k, eps)
        xs = np.linspace(0.0, 1.0, 400001)
        amp = 2.0 ** (n / 2.0)
        want = np.array([amp * haar_reference(2.0 ** n * x - k) for x in xs])
        err = grid_eval(net, xs) - want
        l2 = math.sqrt(np.trapezoid(err ** 2, xs))
        assert l2 <= eps


def test_haar_element_rejects_bad_shift():
    with pytest.raises(ValueError):
        haar_element_network(2, 4, 1e-2)
