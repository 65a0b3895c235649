"""Weight quantization onto a dyadic lattice and the self-delimiting
bit-exact network codec.

The lattice for resolution parameter m and tolerance eps is
2**(-m*ceil(log2(1/eps))) * Z clipped to [-eps**-m, eps**-m].  Lattice
indices are handled as exact integers (floats are dyadic rationals), so
round trips are bitwise and the grid step may be far below the subnormal
range without loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import AffineLayer, ReluNetwork, metrics
from .calculus import is_nondegenerate


class QuantizationError(ValueError):
    """Violated quantization precondition."""


class CodecError(ValueError):
    """Malformed or inconsistent bitstring."""


def _ceil_log2_int(x: int) -> int:
    """ceil(log2(x)) for a positive integer."""
    return (x - 1).bit_length()


def _ceil_log2_inv(eps: float) -> int:
    """ceil(log2(1/eps)) computed exactly for eps in (0, 1)."""
    num, den = eps.as_integer_ratio()
    # den / num lies in (2**(t-1), 2**(t+1)) for t below; one step corrects
    t = den.bit_length() - num.bit_length()
    return t + 1 if num << t < den else t


def _check_tolerance(eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise QuantizationError(f"tolerance must lie in (0, 1/2), got {eps}")


@dataclass(frozen=True)
class QuantGrid:
    """Dyadic weight lattice with resolution m at tolerance eps."""

    m: int
    eps: float

    def __post_init__(self):
        if self.m < 1:
            raise QuantizationError("resolution parameter must be positive")
        _check_tolerance(self.eps)

    @cached_property
    def step_exponent(self) -> int:
        """t such that the lattice step is 2**-t."""
        return self.m * _ceil_log2_inv(self.eps)

    @cached_property
    def max_index(self) -> int:
        """Largest |index| in the clip range: |index| * 2**-t <= eps**-m,
        compared exactly (eps**-m can exceed the float range)."""
        bound = Fraction(self.eps) ** -self.m
        return (bound.numerator << self.step_exponent) // bound.denominator

    @property
    def bits_per_weight(self) -> int:
        """Fixed offset-binary width 2*(m*ceil(log2(1/eps)) + 1)."""
        return 2 * (self.step_exponent + 1)

    def index_of(self, value: float) -> int:
        """Nearest lattice index, ties toward smaller absolute value."""
        if not math.isfinite(value):
            raise QuantizationError("weights must be finite")
        num, den = float(value).as_integer_ratio()
        t = self.step_exponent
        # value = num / 2**s with den = 2**s
        s = den.bit_length() - 1
        if t >= s:
            return num << (t - s)
        shift = s - t
        sign = -1 if num < 0 else 1
        mag = abs(num)
        half = 1 << (shift - 1)
        # round to nearest, exact ties toward zero
        return sign * ((mag + half - 1) >> shift)

    def value_of(self, index: int) -> float:
        """Exact float value of a lattice index."""
        # int / int is correctly rounded, subnormal results included
        return index / (1 << self.step_exponent)

    def round(self, value: float) -> float:
        """Nearest lattice value; raises if it falls outside the clip range."""
        idx = self.index_of(value)
        if abs(idx) > self.max_index:
            raise QuantizationError(
                f"weight {value!r} exceeds the lattice range eps**-{self.m}"
            )
        return self.value_of(idx)

    def contains(self, value: float) -> bool:
        num, den = float(value).as_integer_ratio()
        shift = self.step_exponent - (den.bit_length() - 1)
        return shift >= 0 and abs(num << shift) <= self.max_index


def minimal_quantization_k(net: ReluNetwork, eps: float) -> int:
    """Smallest k with connectivity and magnitude both at most eps**-k."""
    _check_tolerance(eps)
    m = metrics(net)
    need = max(float(m.connectivity), m.weight_magnitude)
    k = 1
    while float(eps) ** -k < need:
        k += 1
    return k


def quantization_resolution(
    net: ReluNetwork, k: int, domain_half_width: float
) -> int:
    """Resolution m = ceil(3 k L + log2(ceil(D)))."""
    d_ceil = max(1, math.ceil(domain_half_width))
    return math.ceil(3 * k * net.depth + math.log2(d_ceil))


def quantize_network(
    net: ReluNetwork, k: int, domain_half_width: float, eps: float
) -> tuple[ReluNetwork, int]:
    """Replace every weight by its nearest lattice value.

    Requires connectivity and weight magnitude at most eps**-k; with the
    returned resolution m, outputs on [-D, D]^d deviate by at most eps.
    """
    if k < 1:
        raise QuantizationError("k must be a positive integer")
    m = quantization_resolution(net, k, domain_half_width)
    grid = QuantGrid(m, eps)  # validates eps before it is raised to -k
    try:
        cap = float(eps) ** -k
    except OverflowError:
        raise ValueError(
            f"k = {k} is too large: eps**-k exceeds the float range"
        ) from None
    stats = metrics(net)
    problems = []
    if stats.connectivity > cap:
        problems.append(f"connectivity {stats.connectivity} > {cap:g}")
    if stats.weight_magnitude > cap:
        problems.append(f"magnitude {stats.weight_magnitude:g} > {cap:g}")
    if problems:
        k_min = minimal_quantization_k(net, eps)
        raise QuantizationError(
            "; ".join(problems) + f"; smallest admissible k is {k_min}"
        )
    layers = []
    for layer in net.layers:
        mat = np.array(
            [grid.round(v) for v in layer.matrix.ravel()]
        ).reshape(layer.matrix.shape)
        bias = np.array([grid.round(v) for v in layer.bias])
        layers.append(AffineLayer(mat, bias))
    return ReluNetwork(tuple(layers)), m


# --- bitstrings -------------------------------------------------------------


class BitString:
    """Append-only bit sequence with random-access reads.

    Bits are packed most-significant-bit first into one byte buffer whose
    bits past the end are zero, so appends stay linear in the bits written.
    """

    __slots__ = ("_bytes", "_nbits")

    def __init__(self, bits=()):
        self._bytes = bytearray()
        self._nbits = 0
        for b in bits:
            self.append_uint(b & 1, 1)

    def __len__(self) -> int:
        return self._nbits

    def append_uint(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        used = self._nbits % 8
        acc = self._bytes.pop() >> (8 - used) if used else 0
        total = used + width
        pad = -total % 8
        acc = ((acc << width) | value) << pad
        self._bytes += acc.to_bytes((total + pad) // 8, "big")
        self._nbits += width

    def append_unary(self, count: int) -> None:
        """count ones followed by a single zero."""
        self.append_uint((1 << (count + 1)) - 2, count + 1)

    def uint(self, pos: int, width: int) -> int:
        if pos < 0 or width < 0 or pos + width > self._nbits:
            raise CodecError("bitstring truncated")
        first = pos // 8
        end = (pos + width + 7) // 8
        chunk = int.from_bytes(self._bytes[first:end], "big")
        return (chunk >> (8 * end - pos - width)) & ((1 << width) - 1)

    def to_list(self) -> list[int]:
        return [self.uint(i, 1) for i in range(self._nbits)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._nbits == other._nbits
            and self._bytes == other._bytes
        )

    def __repr__(self) -> str:
        if len(self) <= 64:
            return f"BitString('{''.join(str(b) for b in self.to_list())}')"
        return f"BitString(<{len(self)} bits>)"

    def to_bytes(self) -> bytes:
        """Wire format: 64-bit big-endian bit count, then the bits packed
        most-significant first and zero-padded to a byte boundary."""
        return self._nbits.to_bytes(8, "big") + bytes(self._bytes)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BitString":
        if len(blob) < 8:
            raise CodecError("missing bit-count header")
        nbits = int.from_bytes(blob[:8], "big")
        nbytes = (nbits + 7) // 8
        if len(blob) < 8 + nbytes:
            raise CodecError("bitstring truncated")
        out = cls()
        out._bytes = bytearray(blob[8 : 8 + nbytes])
        out._nbits = nbits
        if nbits % 8:
            out._bytes[-1] &= 0xFF << (8 - nbits % 8) & 0xFF
        return out


# --- codec ------------------------------------------------------------------


def code_length_bound(connectivity: int, m: int, eps: float) -> int:
    """Closed-form bit budget for a network with the given connectivity."""
    if connectivity < 0:
        raise ValueError("connectivity must be nonnegative")
    if connectivity == 0:
        return 1
    big_m = connectivity
    b_eps = QuantGrid(m, eps).bits_per_weight
    return (
        3 * big_m * b_eps
        + 3 * big_m * _ceil_log2_int(2 * big_m)
        + (big_m + 2) * _ceil_log2_int(big_m)
        + big_m
        + 1
    )


def _index_width(total: int) -> int:
    """Width for values 1..total with an all-zero terminator."""
    return max(1, _ceil_log2_int(total + 1))


def _size_width(connectivity: int) -> int:
    return max(1, _ceil_log2_int(connectivity))


def encode(net: ReluNetwork, m: int, eps: float) -> BitString:
    """Serialize a non-degenerate network with lattice weights to bits.

    Layout: unary connectivity; depth; layer dimensions; per non-output node
    the ascending child indices (zero-terminated); then per node its node
    weight followed by the edge weights to its children, each as an
    offset-binary lattice index.
    """
    grid = QuantGrid(m, eps)
    width_b = grid.bits_per_weight
    big_m = metrics(net).connectivity
    out = BitString()
    if big_m == 0:
        out.append_uint(0, 1)
        return out
    if not is_nondegenerate(net):
        raise CodecError(
            "encoder requires every non-output node to have an outgoing edge "
            "and every output node an incoming one (prune first)"
        )
    out.append_unary(big_m)
    w_m = _size_width(big_m)
    depth = net.depth
    dims = net.dims
    if depth >> w_m or any(d >> w_m for d in dims):
        raise CodecError(
            f"dimensions {dims} or depth {depth} overflow the {w_m}-bit size "
            f"fields implied by connectivity {big_m}"
        )
    out.append_uint(depth, w_m)
    for d in dims:
        out.append_uint(d, w_m)

    w_n = _index_width(sum(dims))
    # global index (layer-major, from 1) of the first node of layer ell + 1
    bases = (np.cumsum(dims) + 1).tolist()
    # per layer, per parent node, its child rows in wire order; non-degenerate
    # means every parent has at least one child, so the runs of equal parents
    # in np.nonzero(matrix.T) are the parents in order
    fans = []
    for layer in net.layers:
        parents, rows = np.nonzero(layer.matrix.T)
        runs = np.split(rows, np.flatnonzero(np.diff(parents)) + 1)
        fans.append([run.tolist() for run in runs])

    for base, fan in zip(bases, fans):
        for kids in fan:
            for row in kids:
                out.append_uint(base + row, w_n)
            out.append_uint(0, w_n)

    offset = 1 << (width_b - 1)

    def emit_weight(value: float) -> None:
        # a lattice index satisfies |idx| <= 2**(width_b - 2) < offset
        if not grid.contains(value):
            raise CodecError(f"weight {value!r} is not on the quantization lattice")
        out.append_uint(grid.index_of(value) + offset, width_b)

    node_weights = [0.0] * dims[0]  # input nodes carry none
    for layer, fan in zip(net.layers, fans):
        for local, kids in enumerate(fan):
            emit_weight(node_weights[local])
            for row in kids:
                emit_weight(float(layer.matrix[row, local]))
        node_weights = layer.bias.tolist()
    for value in node_weights:
        emit_weight(value)
    return out


def decode(bits: BitString, m: int, eps: float) -> ReluNetwork | None:
    """Invert encode; returns None for the connectivity-zero sentinel."""
    grid = QuantGrid(m, eps)
    width_b = grid.bits_per_weight
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        value = bits.uint(pos, width)
        pos += width
        return value

    big_m = 0
    while True:
        if take(1) == 0:
            break
        big_m += 1
    if big_m == 0:
        return None
    w_m = _size_width(big_m)
    depth = take(w_m)
    if depth < 1:
        raise CodecError("decoded depth must be positive")
    dims = [take(w_m) for _ in range(depth + 1)]
    if any(d < 1 for d in dims):
        raise CodecError("decoded layer dimensions must be positive")
    total_nodes = sum(dims)
    w_n = _index_width(total_nodes)
    # global index (layer-major, from 1) of the first node of layer ell + 1
    bases = (np.cumsum(dims) + 1).tolist()

    def kids_of(ell: int) -> list[int]:
        """Child rows of the next node of layer ell, in encode's order."""
        kids = []
        while idx := take(w_n):
            row = idx - bases[ell]
            if not 0 <= row < dims[ell + 1]:
                raise CodecError(f"child index {idx} points outside layer {ell + 1}")
            if kids and row <= kids[-1]:
                raise CodecError("child indices must be strictly ascending")
            kids.append(row)
        return kids

    fans = [[kids_of(ell) for _ in range(dims[ell])] for ell in range(depth)]

    # every node carries a node weight and every edge an edge weight; check
    # that the bits can back them before allocating the dense matrices
    edges = sum(len(kids) for fan in fans for kids in fan)
    weights = total_nodes + edges
    if len(bits) - pos < weights * width_b:
        raise CodecError(
            f"bitstring truncated: {len(bits) - pos} bits left for {weights} "
            f"weights of {width_b} bits"
        )
    # encode takes only networks where these hold
    if not all(kids for fan in fans for kids in fan):
        raise CodecError("a non-output node has no child")
    if len({row for kids in fans[-1] for row in kids}) != dims[depth]:
        raise CodecError("an output node has no parent")
    offset = 1 << (width_b - 1)

    def weight() -> float:
        idx = take(width_b) - offset
        if abs(idx) > grid.max_index:
            raise CodecError(f"lattice index lies outside the clip range eps**-{m}")
        try:
            return grid.value_of(idx)
        except OverflowError:
            raise CodecError("lattice value overflows a float") from None

    mats = [np.zeros((dims[ell + 1], dims[ell])) for ell in range(depth)]
    # node weights per layer; those of the input nodes must be zero
    node_weights = [np.zeros(d) for d in dims]
    for ell, fan in enumerate(fans):
        for local, kids in enumerate(fan):
            node_weights[ell][local] = weight()
            for row in kids:
                mats[ell][row, local] = weight()
    node_weights[depth][:] = [weight() for _ in range(dims[depth])]
    if pos != len(bits):
        raise CodecError(f"{len(bits) - pos} trailing bits after decode")
    if np.any(node_weights[0]):
        raise CodecError("input nodes must carry zero node weights")
    nonzero_edges = sum(np.count_nonzero(mt) for mt in mats)
    if nonzero_edges != edges:
        raise CodecError("edge weights must be nonzero")
    if nonzero_edges + sum(np.count_nonzero(w) for w in node_weights) != big_m:
        raise CodecError(f"header connectivity {big_m} differs from the decoded one")
    return ReluNetwork(
        tuple(AffineLayer(mt, bs) for mt, bs in zip(mats, node_weights[1:]))
    )
