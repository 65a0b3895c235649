"""Immutable ReLU network representation, exact evaluation, and size metrics.

A network is an ordered list of affine layers; the ReLU is applied
component-wise between consecutive layers and never after the last one.
A single layer is a plain affine map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


class DimensionError(ValueError):
    """Input or layer dimensions do not match."""


def _frozen_array(data, shape_kind: str) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)
    if shape_kind == "matrix" and arr.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
    if shape_kind == "bias" and arr.ndim != 1:
        raise DimensionError(f"bias must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
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

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ReluNetwork:
    """Nonempty chain of affine layers with component-wise ReLU in between."""

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

    def __call__(self, x):
        return evaluate(self, x)


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


def apply_layer(layer: AffineLayer, xs_t: np.ndarray) -> np.ndarray:
    """One affine layer on points stored as columns: (in_dim, n) -> (out_dim, n)."""
    # Column-sequential accumulation with the bias added last:
    # out[i, r] = (sum_j A[i, j] * xs[j, r]) + b[i], j strictly left to right.
    # Several constructions rely on term-by-term cancellation of identical
    # column contributions, so the accumulation order is part of the
    # evaluation contract; evaluate_batch and exact_pwl both go through here.
    a = layer.matrix
    out_t = np.empty((a.shape[0], xs_t.shape[1]))
    out_t.fill(0.0)
    buf = np.empty_like(out_t)
    for j in range(a.shape[1]):
        np.multiply(a[:, j : j + 1], xs_t[j], out=buf)
        np.add(out_t, buf, out=out_t)
    out_t += layer.bias[:, None]
    return out_t


def evaluate_batch(net: ReluNetwork, xs) -> np.ndarray:
    """Evaluate the network on a batch of inputs, shape (n, in_dim) -> (n, out_dim)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != net.in_dim:
        raise DimensionError(
            f"input has {xs.shape[1]} coordinates, network expects {net.in_dim}"
        )
    out_t = apply_layer(net.layers[0], np.ascontiguousarray(xs.T))
    for layer in net.layers[1:]:
        np.maximum(out_t, 0.0, out=out_t)
        out_t = apply_layer(layer, out_t)
    return np.ascontiguousarray(out_t.T)


def evaluate(net: ReluNetwork, x) -> np.ndarray:
    """Evaluate the network at a single input vector of length in_dim."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise DimensionError("evaluate expects a single input vector")
    if x.shape[0] != net.in_dim:
        raise DimensionError(
            f"input has {x.shape[0]} coordinates, network expects {net.in_dim}"
        )
    return evaluate_batch(net, x.reshape(1, -1))[0]


def evaluate_scalar(net: ReluNetwork, x: float) -> float:
    """Evaluate a 1-in 1-out network at a scalar point."""
    if net.in_dim != 1 or net.out_dim != 1:
        raise DimensionError("evaluate_scalar needs a 1-D network")
    return float(evaluate(net, [x])[0])


def metrics(net: ReluNetwork) -> NetworkMetrics:
    """Connectivity, depth, width, and weight magnitude of a network."""
    nonzeros = 0
    magnitude = 0.0
    for layer in net.layers:
        nonzeros += int(np.count_nonzero(layer.matrix))
        nonzeros += int(np.count_nonzero(layer.bias))
        magnitude = max(
            magnitude,
            float(np.max(np.abs(layer.matrix))),
            float(np.max(np.abs(layer.bias))),
        )
    return NetworkMetrics(
        connectivity=nonzeros,
        depth=net.depth,
        width=max(net.dims),
        weight_magnitude=magnitude,
    )


# --- plain-text serialization ("relunet v1") ---------------------------------

_MAGIC = "relunet v1"


def write_network(net: ReluNetwork, path) -> None:
    """Write a network as text; values are hex float literals for bit-exact round trips."""
    lines = [_MAGIC, str(net.depth), " ".join(str(d) for d in net.dims)]
    for layer in net.layers:
        lines.append(" ".join(v.hex() for v in layer.matrix.ravel(order="C")))
        lines.append(" ".join(v.hex() for v in layer.bias))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class NetworkFormatError(ValueError):
    """Malformed relunet v1 file."""


def read_network(path) -> ReluNetwork:
    """Read a network written by write_network."""
    with open(path) as fh:
        text = fh.read()
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
        dims = [int(t) for t in take(depth + 1)]
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
