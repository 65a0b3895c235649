"""Bitwise reference for network evaluation.

The library's evaluation contract fixes the IEEE operations: for every
layer, out[r, i] = (((0 + A[i, 0] x[r, 0]) + A[i, 1] x[r, 1]) + ...) + b[i],
columns strictly left to right and the bias added last, with a ReLU between
layers.  This loop performs exactly those operations in a different layout
(points by rows) and with its own ReLU, so a faster evaluator must match it
bit for bit.
"""

from __future__ import annotations

import numpy as np


def reference_eval(net, xs) -> np.ndarray:
    """Evaluate `net` on points of shape (n, in_dim), column-sequentially."""
    h = np.array(xs, dtype=np.float64, ndmin=2)
    last = len(net.layers) - 1
    for ell, layer in enumerate(net.layers):
        a = layer.matrix
        acc = np.zeros((h.shape[0], a.shape[0]))
        for j in range(a.shape[1]):
            acc = acc + h[:, j : j + 1] * a[:, j]
        acc = acc + layer.bias
        h = acc if ell == last else np.where(acc > 0.0, acc, 0.0)
    return h


def bitwise_equal(a, b) -> bool:
    """True when both arrays have one shape and identical float64 bit patterns."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )
