"""Network calculus: composition, depth extension, parallelization, sums,
weight reduction, and pruning.

All operations are pure and return new networks that realize the stated
function exactly (in exact arithmetic) while respecting explicit bounds on
depth, width, connectivity, and weight magnitude.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import AffineLayer, DimensionError, ReluNetwork, _magnitude, network


def _stack_pm(layer: AffineLayer) -> AffineLayer:
    """Replace W by (W; -W), duplicating the affine map with flipped sign."""
    return AffineLayer(
        np.vstack([layer.matrix, -layer.matrix]),
        np.concatenate([layer.bias, -layer.bias]),
    )


def _merge(a: AffineLayer, w: AffineLayer) -> AffineLayer | None:
    """The single layer x -> a(w(x)), or None when it has more nonzeros than
    the sparse joint of `compose` or an entry larger than every entry of a
    and w.

    The product is summed over the interface index k in ascending order,
    from +0.0, with a's bias added last, so it does not depend on BLAS.
    """
    mat = np.zeros((a.out_dim, w.in_dim))
    bias = np.zeros(a.out_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(w.out_dim):
            mat += a.matrix[:, k, None] * w.matrix[k]
            bias += a.matrix[:, k] * w.bias[k]
        bias += a.bias
    joint = (
        2 * np.count_nonzero(w.matrix)
        + 2 * np.count_nonzero(w.bias)
        + 2 * np.count_nonzero(a.matrix)
        + np.count_nonzero(a.bias)
    )
    if np.count_nonzero(mat) + np.count_nonzero(bias) > joint:
        return None
    # a product that overflowed is inf or nan and fails this test too
    limit = max(_magnitude(a), _magnitude(w))
    if not (np.max(np.abs(mat)) <= limit and np.max(np.abs(bias)) <= limit):
        return None
    return AffineLayer(mat, bias)


def compose(outer: ReluNetwork, inner: ReluNetwork) -> ReluNetwork:
    """Network realizing outer(inner(x)).

    With L1 = outer.depth, L2 = inner.depth, W = inner's last layer and
    A = outer's first, the two are joined in one of two ways.
    - Merged: W and A become the single layer
      (A.matrix W.matrix, A.matrix W.bias + A.bias) whenever it has at most
      as many nonzeros (biases included) as the sparse joint below and no
      entry larger than every entry of A and W.  Depth is L1 + L2 - 1;
      connectivity is at most the sparse joint's; width and magnitude are
      at most the max of the two networks'.  The merged weights are rounded
      once, at build time, so the network realizes the rounded map.
    - Sparse (Petersen and Voigtlaender), otherwise: W becomes (W; -W) and
      A becomes (A, -A), so the value passes the interface as
      rho(x) - rho(-x).  Depth is L1 + L2; connectivity is the sum of the
      two plus nnz(W) (bias included) plus nnz(A.matrix); width is at most
      max(2 * interface_dim, widths); magnitude is the max of the two.
    """
    d2 = inner.out_dim
    if d2 != outer.in_dim:
        raise DimensionError(
            f"inner output dim {d2} does not match outer input dim {outer.in_dim}"
        )
    merged = _merge(outer.layers[0], inner.layers[-1])
    if merged is not None:
        return ReluNetwork(inner.layers[:-1] + (merged,) + outer.layers[1:])
    inner_last = _stack_pm(inner.layers[-1])
    first = outer.layers[0]
    outer_first = AffineLayer(
        np.hstack([first.matrix, -first.matrix]), first.bias
    )
    return ReluNetwork(
        inner.layers[:-1] + (inner_last, outer_first) + outer.layers[1:]
    )


def extend_depth(net: ReluNetwork, target_depth: int) -> ReluNetwork:
    """Pointwise-equal network of exactly the requested (larger) depth.

    The last affine map is split into (A; -A) followed by identity layers and
    a final recombination that also carries the last bias, which keeps the
    added connectivity within d2 * width + 2 * d2 * (K - L).
    """
    if target_depth <= net.depth:
        raise ValueError(
            f"target depth {target_depth} must exceed current depth {net.depth}"
        )
    d2 = net.out_dim
    last = net.layers[-1]
    split = AffineLayer(
        np.vstack([last.matrix, -last.matrix]), np.zeros(2 * d2)
    )
    eye = np.eye(2 * d2)
    mid = AffineLayer(eye, np.zeros(2 * d2))
    recombine = AffineLayer(
        np.hstack([np.eye(d2), -np.eye(d2)]), last.bias
    )
    n_mid = target_depth - net.depth - 1
    return ReluNetwork(
        net.layers[:-1] + (split,) + (mid,) * n_mid + (recombine,)
    )


def identity_network(dim: int, depth: int = 1) -> ReluNetwork:
    """Network realizing x -> x with the given depth."""
    plain = ReluNetwork((AffineLayer(np.eye(dim), np.zeros(dim)),))
    if depth == 1:
        return plain
    return extend_depth(plain, depth)


def _pad_all(nets: Sequence[ReluNetwork]) -> list[ReluNetwork]:
    target = max(n.depth for n in nets)
    return [n if n.depth == target else extend_depth(n, target) for n in nets]


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def parallelize(nets: Sequence[ReluNetwork]) -> ReluNetwork:
    """Block-diagonal run of equal-depth networks on concatenated inputs."""
    if not nets:
        raise ValueError("parallelize needs at least one network")
    depths = {n.depth for n in nets}
    if len(depths) != 1:
        raise DimensionError(f"depth mismatch in parallelize: {sorted(depths)}")
    layers = []
    for ell in range(nets[0].depth):
        mats = [n.layers[ell].matrix for n in nets]
        biases = [n.layers[ell].bias for n in nets]
        layers.append(AffineLayer(_block_diag(mats), np.concatenate(biases)))
    return ReluNetwork(tuple(layers))


def _shared_input(nets: Sequence[ReluNetwork], what: str) -> list[ReluNetwork]:
    """Networks on one input dimension, padded to equal depth."""
    if not nets:
        raise ValueError(f"{what} needs at least one network")
    if any(n.in_dim != nets[0].in_dim for n in nets):
        raise DimensionError(f"{what} needs equal input dims")
    return _pad_all(list(nets))


def _fan_out(nets: Sequence[ReluNetwork]) -> ReluNetwork:
    """The one layer x -> (x, ..., x), one copy of the shared input per
    network.  Composed under a block-diagonal first layer, each merged sum
    holds one nonzero product, a weight times 1, so `compose` merges the two
    into the stacked first layers."""
    copies = np.tile(np.eye(nets[0].in_dim), (len(nets), 1))
    return network([(copies, np.zeros(len(copies)))])


def parallelize_shared(nets: Sequence[ReluNetwork]) -> ReluNetwork:
    """(Phi_1(x), ..., Phi_n(x)) for networks sharing one input."""
    nets = _shared_input(nets, "parallelize_shared")
    return compose(parallelize(nets), _fan_out(nets))


def linear_combination(
    nets: Sequence[ReluNetwork], coeffs: Sequence[float]
) -> ReluNetwork:
    """sum_i a_i Phi_i(x_i) on distinct inputs; output dims must agree."""
    if len(nets) != len(coeffs):
        raise ValueError(
            f"{len(nets)} networks but {len(coeffs)} coefficients"
        )
    if not nets:
        raise ValueError("linear_combination needs at least one network")
    d_out = nets[0].out_dim
    if any(n.out_dim != d_out for n in nets):
        raise DimensionError("linear combination needs equal output dims")
    nets = _pad_all(list(nets))
    par = parallelize(nets)
    mats = [a * n.layers[-1].matrix for a, n in zip(coeffs, nets)]
    bias = sum(
        (a * n.layers[-1].bias for a, n in zip(coeffs, nets)),
        start=np.zeros(d_out),
    )
    return ReluNetwork(par.layers[:-1] + (AffineLayer(np.hstack(mats), bias),))


def linear_combination_shared(
    nets: Sequence[ReluNetwork], coeffs: Sequence[float]
) -> ReluNetwork:
    """sum_i a_i Phi_i(x) for networks sharing one input."""
    if len(nets) != len(coeffs):
        raise ValueError(
            f"{len(nets)} networks but {len(coeffs)} coefficients"
        )
    nets = _shared_input(nets, "linear_combination_shared")
    if nets[0].depth == 1:
        # Single affine layer: the combination collapses to one affine map.
        mat = sum(a * n.layers[0].matrix for a, n in zip(coeffs, nets))
        bias = sum(a * n.layers[0].bias for a, n in zip(coeffs, nets))
        return ReluNetwork((AffineLayer(mat, bias),))
    return compose(linear_combination(nets, coeffs), _fan_out(nets))


def scalar_mult_network(a: float, dim: int = 1) -> ReluNetwork:
    """Network computing x -> a*x with all weights bounded by 1.

    For |a| <= 1 this is a plain affine layer; otherwise the magnitude is
    traded for depth floor(log2|a|) + 4 via repeated doubling of the pair
    (rho(x), rho(-x)).
    """
    return _scalar_mult(a, dim, nonnegative=False)


def _scalar_mult(a: float, dim: int, nonnegative: bool) -> ReluNetwork:
    """scalar_mult_network(a, dim); with nonnegative, for an input that is
    >= 0 in floats, it omits the minus channel m: rho(-x) = 0 exactly, and
    each doubling then keeps p == q bitwise, so m' = rho(-p + q + m) = 0."""
    if not math.isfinite(a):
        raise ValueError("scale must be finite")
    if abs(a) <= 1.0:
        return ReluNetwork((AffineLayer(a * np.eye(dim), np.zeros(dim)),))
    # 2**k <= |a| < 2**(k+1), exactly
    k = math.frexp(a)[1] - 1
    alpha = a * 2.0 ** (-(k + 1))
    # channels p = rho(x), q = rho(x) + rho(-x) and m = rho(-x); n = 2 keeps p, q
    n = 2 if nonnegative else 3
    split = np.array([[1.0], [-1.0]])[: n - 1]
    spread = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])[:n, : n - 1]
    double = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])[:n, :n]
    one_dim = ReluNetwork(
        (AffineLayer(split, np.zeros(n - 1)), AffineLayer(spread, np.zeros(n)))
        + (AffineLayer(double, np.zeros(n)),) * (k + 1)
        + (AffineLayer([[alpha, 0.0, -alpha][:n]], [0.0]),)
    )
    if dim == 1:
        return one_dim
    return parallelize([one_dim] * dim)


def affine_network(matrix, bias) -> ReluNetwork:
    """Network computing x -> Ax + b with all weights bounded by 1: one affine
    layer through reduce_weights, depth at most floor(log2 max|A, b|) + 5."""
    layer = AffineLayer(np.atleast_2d(matrix), np.atleast_1d(bias))
    return reduce_weights(ReluNetwork((layer,)))


def reduce_weights(net: ReluNetwork) -> ReluNetwork:
    """Pointwise-equal network with weight magnitude at most 1.

    Matrices are scaled by 1/B and the layer-l bias by B**-l, which keeps the
    hidden activations positively scaled copies of the originals; a final
    scalar multiplication by B**L restores the output.
    """
    return _reduce_weights(net, nonnegative=False)


def _reduce_weights(net: ReluNetwork, nonnegative: bool) -> ReluNetwork:
    """reduce_weights(net); nonnegative states that net's output is >= 0 in
    floats, and so is the scaled one, which the rescale then reads."""
    b = max(map(_magnitude, net.layers))
    if b <= 1.0:
        return net
    scaled = []
    for ell, layer in enumerate(net.layers, start=1):
        scaled.append(AffineLayer(layer.matrix / b, layer.bias / b ** ell))
    a = float(b) ** net.depth
    if not math.isfinite(a):
        raise OverflowError(
            f"weight magnitude {b} at depth {net.depth} overflows the rescale factor"
        )
    rescale = _scalar_mult(a, net.out_dim, nonnegative)
    return compose(rescale, ReluNetwork(tuple(scaled)))


def sum_finite_width(nets: Sequence[ReluNetwork]) -> ReluNetwork:
    """sum_i Phi_i(x) with width independent of the number of summands.

    Each summand of depth >= 2 runs in its own depth segment while two
    identity channel groups carry the input forward and the running total
    backward, so the width stays within 2d + 2d' + max(2d, max_i width_i).
    The summands of depth 1 are affine: their sum is the total that the
    first layer starts, so the depth is sum_i depth_i - (n - 1) for any mix
    of depths.  Without them the first segment has no total to carry.
    """
    if not nets:
        raise ValueError("sum_finite_width needs at least one network")
    d = nets[0].in_dim
    d_out = nets[0].out_dim
    if any(n.in_dim != d or n.out_dim != d_out for n in nets):
        raise DimensionError("sum_finite_width needs equal input and output dims")
    flat = [n.layers[0] for n in nets if n.depth == 1]
    deep = [n for n in nets if n.depth > 1]
    # the depth-1 summands' sum is the total the first layer starts
    start = [(sum(f.matrix for f in flat), sum(f.bias for f in flat))][: len(flat)]
    if not deep:
        return network(start)

    # A segment's block is block-diagonal over its channel groups (input,
    # total, summand), and each post layer holds at most one 1 per group in
    # each row and column, so every merged sum below has one nonzero product
    # and compose merges into the block's own entries; the first layer's
    # total rows, the depth-1 summands' sum, are each read by one +-1.
    eye_d, eye_o = np.eye(d), np.eye(d_out)
    total = network(
        [
            (
                np.vstack([eye_d] + [m for m, _ in start] + [eye_d]),
                np.concatenate([np.zeros(d)] + [b for _, b in start] + [np.zeros(d)]),
            )
        ]
    )
    for i, sub in enumerate(deep):
        carried = bool(start) or i > 0  # a total so far
        block = parallelize(
            [identity_network(d, sub.depth)]
            + [identity_network(d_out, sub.depth)] * carried
            + [sub]
        )
        # rows: the input, the total plus the summand, the input again
        to_total = np.hstack([np.zeros((d_out, d))] + [eye_o] * carried + [eye_o])
        copy_in = np.hstack([eye_d, np.zeros((d, d_out * (carried + 1)))])
        post = to_total if i == len(deep) - 1 else np.vstack([copy_in, to_total, copy_in])
        segment = compose(network([(post, np.zeros(len(post)))]), block)
        total = compose(segment, total)
    return total


def append_relu(net: ReluNetwork) -> ReluNetwork:
    """Network realizing rho(net(x))."""
    d = net.out_dim
    return ReluNetwork(net.layers + (AffineLayer(np.eye(d), np.zeros(d)),))


def prune(net: ReluNetwork) -> ReluNetwork:
    """Remove hidden nodes with no outgoing nonzero edge (cascading).

    The result is pointwise equal.  A hidden layer whose nodes all die is
    collapsed into the following layer as a constant.  Degenerate input or
    output nodes cannot be removed without changing the signature; the
    encoder rejects them instead.
    """
    mats = [np.array(l.matrix) for l in net.layers]
    biases = [np.array(l.bias) for l in net.layers]
    # Hidden layer ell sits between mats[ell] (into it) and mats[ell+1] (out).
    # Going downward suffices: a step only changes which columns of mats[ell]
    # are zero, and those decide the next lower layer alone.
    for ell in range(len(mats) - 2, -1, -1):
        keep = np.any(mats[ell + 1] != 0.0, axis=0)
        if np.all(keep):
            continue
        if not np.any(keep):
            # Whole layer dead: the next layer sees rho(anything)=const 0,
            # so layers ell and ell+1 collapse into a constant affine map.
            const = biases[ell + 1]
            mats[ell : ell + 2] = [
                np.zeros((const.shape[0], mats[ell].shape[1]))
            ]
            biases[ell : ell + 2] = [const]
        else:
            mats[ell] = mats[ell][keep, :]
            biases[ell] = biases[ell][keep]
            mats[ell + 1] = mats[ell + 1][:, keep]
    return ReluNetwork(tuple(AffineLayer(m, b) for m, b in zip(mats, biases)))


def is_nondegenerate(net: ReluNetwork) -> bool:
    """True when every non-output node has an outgoing nonzero edge and every
    output node an incoming one."""
    for layer in net.layers:
        if not np.all(np.any(layer.matrix != 0.0, axis=0)):
            return False
    return bool(np.all(np.any(net.layers[-1].matrix != 0.0, axis=1)))
