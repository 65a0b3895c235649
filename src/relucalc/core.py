"""Immutable ReLU network representation, exact evaluation, and size metrics.

A network is an ordered list of affine layers; the ReLU is applied
component-wise between consecutive layers and never after the last one.
A single layer is a plain affine map.

Evaluation contract: on finite inputs whose pre-activations stay finite,
every output is bitwise equal to the column-sequential sum
out[i] = (((0 + A[i, 0] x[0]) + A[i, 1] x[1]) + ...) + b[i], columns strictly
left to right and the bias added last.  Several constructions rely on
term-by-term cancellation of identical column contributions, so this order
is part of the contract.  A pre-activation that overflows to inf mid-network
is outside it.

Each network is compiled once into an execution plan that skips zero
weights and reads every source through a basic slice (see `_compile`);
evaluate_batch and exact_pwl both run the plan through `_affine_step`.  The
plan keeps the contract because
- a skipped term A[i, j] x[j] with A[i, j] == 0 is +-0, and adding +-0 to a
  finite sum that started at +0.0 leaves it unchanged;
- the plan starts each sum at its first nonzero term a x instead of at
  0 + a x, which differs only where a x is -0.0; from there the two sums
  stay equal or are both zero, and the closing bias add turns two zeros
  into the same value, because the plan stores every bias -0.0 as +0.0
  (b + 0.0), which the contract's +0.0-started sum cannot tell apart;
- a run of weights 1.0 skips the multiply, since 1 * x == x bitwise, -0.0
  included; after the first term a run of weights -1.0 subtracts, since
  a + (-1 * x) == a - x exactly: -1 * x is the exact negation, and IEEE 754
  subtraction is addition of the negation;
- a sum that starts at +0.0 never becomes -0.0, and neither does its bias
  add, so no layer output (and no post-ReLU value) is -0.0;
- a copy row (single weight 1.0, zero bias) outside layer 0 therefore
  computes (0 + 1 * x[j]) + b == x[j], and is a plain copy of the
  post-ReLU value x[j].  Layer 0 reads raw inputs, where -0.0 would become
  +0.0, so it has no copy rows.  The plan stores a copy row as a term 0
  write of weight 1.0 after the sparse rows, past the rows that get the
  bias add and the ReLU.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Input or layer dimensions do not match."""


def _interval(bounds, what: str = "interval") -> tuple[float, float]:
    """(a, b) as floats, checked to be a nonempty interval with finite ends."""
    a, b = float(bounds[0]), float(bounds[1])
    if not a < b:
        raise ValueError(f"empty {what} [{a}, {b}]")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"{what} [{a}, {b}] has an infinite end")
    return a, b


# Dense float64 entries (`_dense_entries`) above which a network is refused
# before its matrices exist: 2^25 entries hold 256 MiB.  The B-spline of
# order 49 at eps 1e-2 needs 3.3e7, order 60 6.4e7; the widest plateau gate
# accepted has dimension 2,896; a codec header of about M bits can ask
# decode for depth * (2M)^2.
MAX_DENSE_ENTRIES = 2 ** 25


def _dense_entries(dims) -> int:
    """The sum of rows x cols over the layers of a network with dims."""
    return sum(a * b for a, b in zip(dims, dims[1:]))


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise ValueError(f"tolerance must lie in (0, 1/2), got {eps}")


def _frozen_array(data, shape_kind: str) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)
    if shape_kind == "matrix" and arr.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
    if shape_kind == "bias" and arr.ndim != 1:
        raise DimensionError(f"bias must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("layer entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AffineLayer:
    """One affine map x -> matrix @ x + bias.

    matrix has shape (out_dim, in_dim); bias has shape (out_dim,).
    """

    matrix: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, "matrix"))
        object.__setattr__(self, "bias", _frozen_array(self.bias, "bias"))
        if self.matrix.shape[0] != self.bias.shape[0]:
            raise DimensionError(
                f"matrix has {self.matrix.shape[0]} rows but bias has "
                f"length {self.bias.shape[0]}"
            )
        if self.matrix.shape[0] < 1 or self.matrix.shape[1] < 1:
            raise DimensionError("layer dimensions must be positive")

    def __eq__(self, other):
        """Equal shapes and equal float64 bit patterns, so -0.0 != +0.0."""
        if not isinstance(other, AffineLayer):
            return NotImplemented
        return np.array_equal(
            self.matrix.view(np.uint64), other.matrix.view(np.uint64)
        ) and np.array_equal(self.bias.view(np.uint64), other.bias.view(np.uint64))

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


def _magnitude(layer: AffineLayer) -> float:
    return float(max(np.max(np.abs(layer.matrix)), np.max(np.abs(layer.bias))))


@dataclass(frozen=True)
class ReluNetwork:
    """Nonempty chain of affine layers with component-wise ReLU in between.

    Two networks are == when their layers are, i.e. bitwise equal.
    """

    layers: tuple[AffineLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionError(
                    f"layer output dim {a.out_dim} feeds layer input dim {b.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer dimensions N_0, ..., N_L (input and output included)."""
        return (self.in_dim,) + tuple(layer.out_dim for layer in self.layers)

    @cached_property
    def _plan(self) -> _Plan:
        return _compile(self)


def network(layers: Iterable[tuple]) -> ReluNetwork:
    """Build a network from (matrix, bias) pairs."""
    return ReluNetwork(tuple(AffineLayer(m, b) for m, b in layers))


@dataclass(frozen=True)
class NetworkMetrics:
    """Size measures of a network.

    connectivity counts the nonzero entries of all matrices and biases
    (strict comparison to zero), depth counts affine layers, width is the
    maximum layer dimension including input and output, weight_magnitude is
    the largest absolute entry.
    """

    connectivity: int
    depth: int
    width: int
    weight_magnitude: float


# --- execution plan ------------------------------------------------------------

# points per pass of evaluate_batch through the plan.  It must exceed
# np.getbufsize() // 2 (4096 by default): up to that row length numpy buffers
# the broadcast (k, 1) weight and bias columns, which makes the multiply and
# the bias add about twice as slow per element.  From 16384 points on, the
# larger layer buffers lose to cache (measured on a 2-vCPU host with a 2 MiB
# L2 per core; see README "Numerics").
CHUNK_POINTS = 8192


class _Step(NamedTuple):
    """One layer of the plan, rows in buffer order: sparse rows first, by
    descending nonzero count, then copy rows.

    runs holds the runs (`_run_bounds`) of every term in term order.
    Term k takes the k-th nonzero (ascending column) of each of the first
    n_k sparse rows; a copy row's weight 1.0 is a term 0 entry after them.
    A run (r0, r1, s0, s1, weights, combine) reads the previous
    layer's buffer rows s0:s1 into buffer rows r0:r1: one row broadcast
    (stride 0) or r1 - r0 consecutive rows (stride 1).  weights is the
    (r1 - r0, 1) column, or None when every weight is 1.0, or -1.0 after
    term 0.  combine is None for a term 0 write, else np.add, or
    np.subtract for a -1.0 run.
    """

    runs: list[tuple]
    bias: np.ndarray  # (sparse rows, 1), -0.0 stored as +0.0
    filled: int  # sparse rows with a nonzero weight
    rows: int


class _Plan(NamedTuple):
    steps: tuple[_Step, ...]
    width: int
    scratch: int  # rows of the widest term after the first, in any step
    pos: np.ndarray  # buffer row of every row, layer by layer; outputs last


def _run_bounds(same: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split entries into runs: the index of each run's first and last entry.

    A run's source steps by one stride, 0 or 1: a run starts where the group
    ends (same[i]: entries i and i + 1 share one), where a step is not 0 or
    1, and where one follows a step of the other stride in the group.
    """
    step = src[1:] - src[:-1]
    fits = same & ((step == 0) | (step == 1))
    start = np.ones(src.size, dtype=bool)
    start[1:] = ~fits
    start[2:] |= fits[:-1] & (step[1:] != step[:-1])
    first = np.flatnonzero(start)
    return first, np.concatenate((first, [src.size]))[1:] - 1


def _compile(net: ReluNetwork) -> _Plan:
    """Sort the rows of every layer into copy and sparse rows and split
    every term into runs, in one vectorised pass over the concatenated
    matrices."""
    layers = net.layers
    depth = len(layers)
    in_dims = np.array([layer.in_dim for layer in layers])
    out_dims = np.array([layer.out_dim for layer in layers])
    row_start = np.concatenate([[0], np.cumsum(out_dims)])
    entry_start = np.concatenate([[0], np.cumsum(in_dims * out_dims)])
    flat = np.concatenate([layer.matrix.ravel() for layer in layers])
    bias = np.concatenate([layer.bias for layer in layers])

    # nonzeros in (layer, row, column) order
    nz = np.flatnonzero(flat)
    weight = flat[nz]
    ell = np.searchsorted(entry_start, nz, side="right") - 1
    row, col = np.divmod(nz - entry_start[ell], in_dims[ell])
    grow = row_start[ell] + row
    count = np.bincount(grow, minlength=row_start[-1])
    term = np.arange(nz.size) - (np.cumsum(count) - count)[grow]

    row_layer = np.repeat(np.arange(depth), out_dims)
    single = np.zeros(row_start[-1])
    single[grow] = weight  # the weight of every one-term row
    copy = (count == 1) & (single == 1.0) & (bias == 0.0) & (row_layer > 0)

    order = np.lexsort((np.arange(row_start[-1]), -count, copy, row_layer))
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size) - row_start[row_layer[order]]

    src = col.copy()
    deep = ell > 0
    src[deep] = pos[row_start[ell[deep] - 1] + col[deep]]

    # nonzeros by (layer, term, buffer row); term k covers buffer rows
    # 0 .. n_k - 1 and the copy rows follow the sparse rows in term 0, so a
    # run's next entry must be the next buffer row of the same layer
    at = np.lexsort((pos[grow], term, ell))
    layer, rows, srcs, weights = ell[at], pos[grow[at]], src[at], weight[at]
    same = (rows[1:] == rows[:-1] + 1) & (layer[1:] == layer[:-1])
    first, last = _run_bounds(same, srcs)
    later = term[at[first]] > 0
    minus = np.logical_and.reduceat(weights == -1.0, first) & later
    scaled = ~np.logical_and.reduceat(weights == 1.0, first) & ~minus
    column = weights.reshape(-1, 1)
    factors = [
        column[i : j + 1] if m else None
        for i, j, m in zip(first.tolist(), last.tolist(), scaled.tolist())
    ]
    ops = (None, np.add, np.subtract)  # write, add, subtract
    combine = map(ops.__getitem__, (later.astype(int) + minus).tolist())
    ends = (rows[first], rows[last] + 1, srcs[first], srcs[last] + 1)
    runs = list(zip(*(end.tolist() for end in ends), factors, combine))
    cut = np.searchsorted(layer[first], np.arange(depth + 1)).tolist()
    n_sparse = out_dims - np.bincount(row_layer[copy], minlength=depth)
    filled = np.bincount(row_layer[(count > 0) & ~copy], minlength=depth).tolist()
    ordered_bias = (bias[order] + 0.0).reshape(-1, 1)  # -0.0 becomes +0.0

    steps = tuple(
        _Step(
            runs=runs[cut[i] : cut[i + 1]],
            bias=ordered_bias[row_start[i] : row_start[i] + n_sparse[i]],
            filled=filled[i],
            rows=int(out_dims[i]),
        )
        for i in range(depth)
    )
    # terms narrow as k grows, so term 1 is a layer's widest after term 0
    scratch = int(np.bincount(ell[term == 1], minlength=1).max())
    return _Plan(steps, max(net.dims), scratch, pos)


def _affine_step(step: _Step, h: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Pre-activations of one layer in buffer order: h (rows of the previous
    layer, n) -> out (step.rows, n).  Every source is a basic slice of h.
    tmp holds the products of the runs after the first term, so it needs as
    many rows as the longest of them; the plan's scratch, the widest term
    after the first, is enough.  Copy rows get no bias add."""
    for r0, r1, s0, s1, weights, combine in step.runs:
        head, x = out[r0:r1], h[s0:s1]
        if combine is None:  # term 0 starts the sum
            if weights is None:
                head[...] = x
            else:
                np.multiply(x, weights, out=head)
            continue
        if weights is not None:
            x = np.multiply(x, weights, out=tmp[: r1 - r0])
        combine(head, x, out=head)
    acc = out[: len(step.bias)]
    acc[step.filled :].fill(0.0)  # rows with no nonzero weight
    np.add(acc, step.bias, out=acc)


def evaluate_batch(net: ReluNetwork, xs) -> np.ndarray:
    """Evaluate the network on a batch of inputs, shape (n, in_dim) -> (n, out_dim).

    This is the one evaluator.  A single point is a one-row batch:
    evaluate_batch(net, p)[0] is the output vector at point p, and
    evaluate_batch(net, x)[0, 0] the value of a 1-in 1-out network at x.

    Runs the network's plan over chunks of CHUNK_POINTS points.  Outputs are
    bitwise equal to the column-sequential sum of the module docstring as
    long as every pre-activation is finite; non-finite inputs raise
    ValueError.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != net.in_dim:
        raise DimensionError(
            f"input has {xs.shape[1]} coordinates, network expects {net.in_dim}"
        )
    if not np.all(np.isfinite(xs)):
        raise ValueError("inputs must be finite")
    plan = net._plan
    last = len(plan.steps) - 1
    out = np.empty((xs.shape[0], net.out_dim))
    chunk = min(xs.shape[0], CHUNK_POINTS)
    bufs = [np.empty(rows * chunk) for rows in (plan.width, plan.width, plan.scratch)]
    for start in range(0, xs.shape[0], CHUNK_POINTS):
        h = np.ascontiguousarray(xs[start : start + CHUNK_POINTS].T)
        n = h.shape[1]
        tmp = bufs[2][: plan.scratch * n].reshape(-1, n)
        for i, step in enumerate(plan.steps):
            nxt = bufs[i % 2][: step.rows * n].reshape(-1, n)
            _affine_step(step, h, nxt, tmp)
            if i < last:
                head = nxt[: len(step.bias)]
                np.maximum(head, 0.0, out=head)
            h = nxt
        out[start : start + n] = h[plan.pos[-net.out_dim :]].T
    return out


def metrics(net: ReluNetwork) -> NetworkMetrics:
    """Connectivity, depth, width, and weight magnitude of a network."""
    return NetworkMetrics(
        connectivity=sum(
            int(np.count_nonzero(layer.matrix)) + int(np.count_nonzero(layer.bias))
            for layer in net.layers
        ),
        depth=net.depth,
        width=max(net.dims),
        weight_magnitude=max(map(_magnitude, net.layers)),
    )


# --- plain-text serialization ("relunet v1") ---------------------------------

_MAGIC = "relunet v1"


def _write_text(path, text: str) -> None:
    """Write text to path as a new file.

    An existing regular file that may be written is unlinked first, because
    truncating a file whose previous version is still being written back
    can block until that writeback ends (about 50 ms a file on ext4).  So
    the path gets a new inode: a hard link to the old file keeps the old
    content, and the mode comes from the umask.  A file that cannot be
    unlinked is truncated in place, and symlinks, devices and FIFOs (such
    as /dev/stdout) are opened as they are.  There is no fsync.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass  # a missing file, or one the open below truncates or refuses
    with open(path, "w") as fh:
        fh.write(text)


def write_network(net: ReluNetwork, path) -> None:
    """Write a network as text; values are hex float literals for bit-exact round trips."""
    lines = [_MAGIC, str(net.depth), " ".join(str(d) for d in net.dims)]
    for layer in net.layers:
        lines.append(" ".join(v.hex() for v in layer.matrix.ravel(order="C")))
        lines.append(" ".join(v.hex() for v in layer.bias))
    _write_text(path, "\n".join(lines) + "\n")


class NetworkFormatError(ValueError):
    """Malformed relunet v1 file."""


def read_network(path) -> ReluNetwork:
    """Read a network written by write_network."""
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise NetworkFormatError(f"network file is not text: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise NetworkFormatError("missing 'relunet v1' magic line")
    tokens = " ".join(lines[1:]).split()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(tokens):
            raise NetworkFormatError("truncated network file")
        chunk = tokens[pos : pos + n]
        pos += n
        return chunk

    try:
        depth = int(take(1)[0])
        if depth < 1:
            raise NetworkFormatError(f"depth {depth} is not positive")
        dims = [int(t) for t in take(depth + 1)]
        if min(dims) < 1:
            raise NetworkFormatError("layer dimensions must be positive")
        layers = []
        for ell in range(depth):
            rows, cols = dims[ell + 1], dims[ell]
            mat = np.array(
                [float.fromhex(t) for t in take(rows * cols)], dtype=np.float64
            ).reshape(rows, cols)
            bias = np.array([float.fromhex(t) for t in take(rows)], dtype=np.float64)
            layers.append(AffineLayer(mat, bias))
    except (ValueError, OverflowError) as exc:
        if isinstance(exc, NetworkFormatError):
            raise
        raise NetworkFormatError(f"bad token in network file: {exc}") from exc
    if pos != len(tokens):
        raise NetworkFormatError("trailing tokens in network file")
    return ReluNetwork(tuple(layers))
