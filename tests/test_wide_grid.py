"""The outputs of the benchmark's deep builds on grids wider than their
contract domains, pinned bit for bit.

OUTPUT_DIGESTS in test_digests.py samples 1,024 points in [-2, 2]; these
grids reach [-8, 8], far past where the cosine and Weierstrass networks
are accurate, so a structural change that keeps each function only on its
domain fails here.
"""

import hashlib

import numpy as np
import pytest

from relucalc import evaluate_batch
from relucalc import constructors as c

BUILDS = {
    "weier": lambda: c.weierstrass_network(0.4, 3, 1, 1e-1),
    "cos100": lambda: c.cosine_network(100, 1, 1e-2),
    "cos30": lambda: c.cosine_network(30, 1, 1e-2),
    "bspline3": lambda: c.bspline_network(3, 1e-3),
    "gauss2": lambda: c.gaussian_network(2, 1e-1),
}


def wide_grid(dim: int) -> np.ndarray:
    """65,537 points of [-8, 8] for dim 1; the 257 x 257 grid of [-8, 8]^2
    (first coordinate slowest) for dim 2."""
    if dim == 1:
        return np.linspace(-8.0, 8.0, 65_537).reshape(-1, 1)
    axis = np.linspace(-8.0, 8.0, 257)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


# sha256 of each build's float64 outputs on its wide grid
WIDE_DIGESTS = {
    "bspline3": "13ae95481196476f2889da5224077545f01cff42fe828432bf607dc51da41636",
    "cos100": "141023eeaa595b4d57f2a818732249b4bb079d6baafc1e9396cc0d1e88ffdd49",
    "cos30": "fa406cbd85606f9028cea615a190794d071da3c27e68120edcb328e533785c4d",
    "gauss2": "4b8b2f999193417b8beb42c1b5085900924e01bf1f049110ed373750c74177cb",
    "weier": "3299e471f6eeb38cdcc55a5e91ea8cb863e93e443f0bd24f55eb282576dda46d",
}


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_outputs_on_the_wide_grid_are_pinned(key):
    net = BUILDS[key]()
    out = evaluate_batch(net, wide_grid(net.in_dim))
    assert hashlib.sha256(out.tobytes()).hexdigest() == WIDE_DIGESTS[key]
