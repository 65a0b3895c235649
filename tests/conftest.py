import numpy as np
import pytest

from relucalc import ReluNetwork, evaluate_batch, network


def hat_reference(x: float) -> float:
    """The tent map g on [0,1]: 2x up to 1/2, then 2(1-x), zero elsewhere."""
    if 0.0 <= x < 0.5:
        return 2.0 * x
    if 0.5 <= x <= 1.0:
        return 2.0 * (1.0 - x)
    return 0.0


def hat_iterate(x: float, s: int) -> float:
    """s-fold self-composition of the tent map."""
    for _ in range(s):
        x = hat_reference(x)
    return x


@pytest.fixture
def hat_net() -> ReluNetwork:
    """Depth-2 network realizing the tent map g."""
    return network(
        [
            ([[1.0], [1.0], [1.0]], [0.0, -0.5, -1.0]),
            ([[2.0, -4.0, 2.0]], [0.0]),
        ]
    )


def grid_eval(net, xs):
    """Values of a 1-in 1-out network at each point of xs."""
    return evaluate_batch(net, np.asarray(xs).reshape(-1, 1))[:, 0]


def random_net(rng: np.random.Generator, in_dim=None, out_dim=None) -> ReluNetwork:
    """Small random network: dims <= 6, depth <= 4, weights in [-2, 2]."""
    depth = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
    if in_dim is not None:
        dims[0] = in_dim
    if out_dim is not None:
        dims[-1] = out_dim
    layers = []
    for ell in range(depth):
        mat = rng.uniform(-2.0, 2.0, size=(dims[ell + 1], dims[ell]))
        bias = rng.uniform(-2.0, 2.0, size=dims[ell + 1])
        layers.append((mat, bias))
    return network(layers)


def assert_close_rel(actual, expected, rel=1e-10):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(actual), np.abs(expected)))
    assert np.all(np.abs(actual - expected) <= rel * scale), (
        f"max deviation {np.max(np.abs(actual - expected) / scale):g} "
        f"exceeds {rel:g}"
    )
