import hashlib
import math

import pytest

from relucalc import network, write_network
from relucalc import constructors as c
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
    "weier": "e000e5985214960426d1b8989d58fb56a154e50d038167d08db68a7b1e0b2c07",
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
