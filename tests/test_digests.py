import hashlib
import math

import numpy as np
import pytest

from relucalc import evaluate_batch, network, write_network
from relucalc import constructors as c
from relucalc.analysis import exact_pwl
from relucalc.calculus import linear_combination_shared, parallelize_shared

WARP = c.SmoothDescriptor(lambda x: 1.0 / (2.0 - x), (-1.0, 1.0), "warp")
ENVELOPE = c.SmoothDescriptor(lambda x: 1.0 / (2.0 + x), (-1.0, 1.0), "envelope")
DECAY = c.SmoothDescriptor(lambda y: math.exp(-y), (0.0, 4.0), "decay")
KNOTS = [-1.0, -0.5, 0.0, 0.5, 1.0]


def modulated(part):
    envelope = c.gaussian_network(1, 1e-1)
    return c.modulated_network(envelope, 1.0, [2.0], 2.0, 1e-1)[part]


# a small build of each constructor and combinator, and the benchmark's
# networks (weier, gauss2, cos100, cos30, bspline3, mult)
BUILDS = {
    "weier": lambda: c.weierstrass_network(0.4, 3, 1, 1e-1),
    "polynomial": lambda: c.polynomial_network([0.1, 0.4, -0.3, 0.2], 1.0, 1e-2),
    "gauss1": lambda: c.gaussian_network(1, 1e-1),
    "gauss2": lambda: c.gaussian_network(2, 1e-1),
    "gauss3": lambda: c.gaussian_network(3, 2e-1),
    "cos100": lambda: c.cosine_network(100, 1, 1e-2),
    "cos30": lambda: c.cosine_network(30, 1, 1e-2),
    "bspline1": lambda: c.bspline_network(1, 1e-1),
    "bspline3": lambda: c.bspline_network(3, 1e-3),
    "mult": lambda: c.multiply_network(1, 1e-4),
    "multiply": lambda: c.multiply_network(2.0, 1e-2),
    "wavelet2": lambda: c.spline_wavelet_network(2, 2e-2),
    "cutoff1": lambda: c.cutoff_network(2.0, 1),
    "cutoff2": lambda: c.cutoff_network(1.0, 2),
    "cutoff3": lambda: c.cutoff_network(1.5, 3),
    "stitch": lambda: c.stitch_networks(
        [c.square_network(1e-2)] * 3, KNOTS, 1e-2, 1.0
    ),
    "smooth_general": lambda: c.smooth_network_general(DECAY, 1e-2),
    "modulated_re": lambda: modulated(0),
    "modulated_im": lambda: modulated(1),
    "oscillatory": lambda: c.oscillatory_network(WARP, ENVELOPE, 3.0, 1.0, 1e-1),
    "par_shared": lambda: parallelize_shared(
        [
            c.square_network(1e-2),
            c.cosine_network(3.0, 1.0, 1e-2),
            c.cutoff_network(1.0),
        ]
    ),
    "lincomb_shared": lambda: linear_combination_shared(
        [c.square_network(1e-2), c.cosine_network(3.0, 1.0, 1e-2)], [0.5, -2.0]
    ),
    "lincomb_shared_d1": lambda: linear_combination_shared(
        [network([([[1.0]], [0.5])]), network([([[2.0]], [0.0])])], [0.5, -2.0]
    ),
    "haar_mother": lambda: c.haar_mother_network(1e-2),
    "haar_element": lambda: c.haar_element_network(1, 1, 1e-2),
}

# sha256 of each build's relunet file
DIGESTS = {
    "weier": "30cb46de3694bb287826e3fe54f2c360ccb3d2a34bc90d1b05fed9dbe36da0b3",
    "polynomial": "60202cb5037d3f5dfa4f391b41a1578c7a104efac42565b3171bcb7802548880",
    "gauss1": "12669ca19fbb362de26a83ae151933415ec464358c4dbe5573d63ca503ee5855",
    "gauss2": "94f755ce3695a33851eacab1d1e8b7e2eece21e18f3539a64f1f85e70349e990",
    "gauss3": "09f8b98e59b45f96f650e0c5c725c8de7cfa1cb4849e326c54a29d06b8406cea",
    "cos100": "0fd891db319aa6c712a714be4ec75ebca59b90447bc371541691799f1726f6e9",
    "cos30": "46744a22d7db5564cd25bacaa1952fa555494df70eeaab19a748fbac21b865dc",
    "bspline1": "f2f1e638180e59b51ddf0d6c5544d83d19cd00437ae5e23f0a0e7be32e41a415",
    "bspline3": "d306bbba5752a9be44bb263309a447a0e125fd9eabe7730e2595b0ba20038971",
    "mult": "567c43a51f9222b4a394db87b8eb4311e97279a539042959de323fb73c7ea53c",
    "multiply": "e2377d10d8d40f9ebd94435962e25bda77afa43143b4ee19f740067f4c47460f",
    "wavelet2": "3e9078cdf9463f9540c2b46429755fc8cdf87a7debc0b10b1ace4fa55264113f",
    "cutoff1": "8853db51f967ea8df9d4eb2d038a20c683c2b39dbacef8162ffbe3eb5584a2c7",
    "cutoff2": "d79324a21f2f4a9fc2e195fce98a83322ddad5eedb8d84a40e15bd967f054ac6",
    "cutoff3": "0394ac9c5ca52a9004111e078d7716fc44305b4e2293c0c9124c9f0a93102da5",
    "stitch": "109ab35d778dcb6b87a16361fe615d20d862e62e87b46a9669391aa2c1200e16",
    "smooth_general": "ec3228278e901e2272863da708c048cb5b9e68fefb95e7d22c1e25da4d2140f2",
    "modulated_re": "4482ef5907a7af52f7a37a4fcc3f6835af9d1c83ffb63d671430c4e61505b176",
    "modulated_im": "ea81da59639172644af6fd497959ec661610f44421f93260fd9e86fdb4e2a2c4",
    "oscillatory": "e05a55443e851b5e96c1261b81117823c5c75c04ee59f0ff618593a429ba445c",
    "par_shared": "f830bb8d0e720b976675a1ed17a35c8e205a9f951e8a2434d45646fef410c694",
    "lincomb_shared": "c0d6726264e1c06d6775d43a9f08518d919ab7b1abfb5c91ad98530d7e50f22c",
    "lincomb_shared_d1": "eef6d9deabdc2804cfadb2b146264298f5fb9a85b756f3a1205ee4c9f08a8716",
    "haar_mother": "848583c20192eb46f92b792f22bcdba44307c86fd5443c53bd20e7ebd582148d",
    "haar_element": "5b3bec190b411c81bfb6423b3b43f5fa3d8a7c2f6ff632dbb40cb78901388eed",
}


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_construction_digest_is_pinned(key, tmp_path):
    path = tmp_path / f"{key}.relunet"
    write_network(BUILDS[key](), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[key]


def _outputs(net) -> bytes:
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(1024, net.in_dim))
    return evaluate_batch(net, pts).tobytes()


# sha256 of each build's outputs at 1024 seeded points in [-2, 2]^in_dim; a
# build may change its structure and keep these
OUTPUT_DIGESTS = {
    "bspline1": "af6dd3abe75e2afbc8ef1b8efa052438e09dc3c9110518a85620768468754b14",
    "bspline3": "1cbfd7141fa5be3b790faa16f8b1d29c939d5eb03345164a7c3e6fafa9ea5319",
    "cos100": "d12a09910074d011edb22520fc00d4ac9bd1adda89d85d59907b3ed4dc20dc1e",
    "cos30": "8d236676ee19247824513468f1812191a36f39979bb136ea29a1bae46829c795",
    "cutoff1": "ffc1f5db1faa7b6402489b6c3c21711ad6cb122faa068ac9410c12ab126aa81e",
    "cutoff2": "552314bb22083642839cfe552768f0a1d95f724d2ad969f3451a7cb1cb5e120b",
    "cutoff3": "d5dded8d9883842660302cb3bdbcdd08fa99d9ad1d46e916b7b660ae13d4148e",
    "gauss1": "e81a9c2b167122b1f4ee17d5a04cdb7a3d5f82cad7606b6714cb4c7a26c3ae1d",
    "gauss2": "9e7d32a172f50b80cb496234e24b3501920ad76d160c67f23dfaf8b82ec977ad",
    "gauss3": "a87b9210a48d564cc8b7c390028f0cfd2c615de3cd1e7fccdb7cf52c71952534",
    "haar_element": "9234950a443d645e94a23c865352dd6a29c9c799a1f8822359a9206a5ed6401a",
    "haar_mother": "44cb30dbae9452244121398df5de9356bff144f56b6d54a9a47a4c8a330876d0",
    "lincomb_shared": "28884a5441ca270232b112f0f478bb3e4633fb84bdbb2890f1721fadcc656084",
    "lincomb_shared_d1": "2030c175d58f023a1ffd8f150397b9a942af67ac1cc539a84137ec24ecc2e7b0",
    "modulated_im": "472d4b7e05cd80d2451c740b40b06ab7bfa955dc7547c3ce7465e4f1a1dd5a67",
    "modulated_re": "ef35c5d1d85323fbc0fc84f216736cd9909e5747e3969f97faaf25b281d2838a",
    "mult": "ef4969e9966fe0acb47710a28f0292028d8ea059c48522dba8c69b2cdecb349e",
    "multiply": "1515f39acc7f7b01ace561918db3e683527c553d229b0b13411b55fefa784199",
    "oscillatory": "93669b94f8ef13daf334324cad5250cb120fa61d32b4073642f28a7a11a224e4",
    "par_shared": "26de2699dbf95edfc22852d76134c4f94cb42ee904d77d10626ac4927fac4042",
    "polynomial": "e150bafa33fed0ba31242ebe48b1ce975641d79d8b6982e88bbae95c63c405a1",
    "smooth_general": "7cfddcb68333d7216982db153153ad67eae930299a759901f57c9c7ec33e11fa",
    "stitch": "391fb46289cb8516d9cc5b63e1b643bf5716593d4c505b0d00eb1d7bb2f1738d",
    "wavelet2": "1e249a92cf0923fbf0d83df1d4f2ef7a896731d751c8b0b5f8d1498ec77da47f",
    "weier": "77a7c521aea20705587fdde7990ad613c8e6849749fc4021baa1fc323e95afbf",
}


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_construction_outputs_are_pinned(key):
    assert hashlib.sha256(_outputs(BUILDS[key]())).hexdigest() == OUTPUT_DIGESTS[key]


NOT_1D = {"cutoff2", "cutoff3", "gauss2", "gauss3", "mult", "multiply", "par_shared"}


@pytest.mark.parametrize("key", sorted(set(BUILDS) - NOT_1D))
@pytest.mark.parametrize("interval", [(-0.3, -0.28), (0.41, 0.425)])
def test_exact_pwl_endpoints_equal_evaluate_batch(key, interval):
    # exact_pwl runs the same plan step as evaluate_batch, so the values at
    # the interval's ends are bitwise equal; short intervals keep the
    # breakpoint count of the deep builds small
    net = BUILDS[key]()
    pwl = exact_pwl(net, interval)
    ends = pwl.breakpoints[[0, -1]]
    assert ends.tolist() == list(interval)
    want = evaluate_batch(net, ends.reshape(-1, 1))[:, 0]
    assert np.array_equal(pwl.values[[0, -1]].view(np.uint64), want.view(np.uint64))
