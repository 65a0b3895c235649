"""Constructive ReLU network toolkit.

Exact network calculus, explicit approximating constructions, weight
quantization with a bit-exact codec, and piecewise-linear analysis tools.
"""

from types import ModuleType as _ModuleType

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

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
