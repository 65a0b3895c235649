"""Constructive ReLU network toolkit.

Exact network calculus, explicit approximating constructions, weight
quantization with a bit-exact codec, and piecewise-linear analysis tools.
"""

from .core import (
    AffineLayer,
    DimensionError,
    NetworkFormatError,
    NetworkMetrics,
    ReluNetwork,
    evaluate_batch,
    metrics,
    network,
    read_network,
    write_network,
)
from .calculus import (
    affine_network,
    append_relu,
    compose,
    extend_depth,
    identity_network,
    is_nondegenerate,
    linear_combination,
    linear_combination_shared,
    parallelize,
    parallelize_shared,
    prune,
    reduce_weights,
    scalar_mult_network,
    sum_finite_width,
)

__all__ = [name for name in dir() if not name.startswith("_")]
