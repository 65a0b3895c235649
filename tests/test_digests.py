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
    "weier": "3b2e0273741d4a514f5480b1b426eacc7ecef13de70f0bc3b0de2c357872e163",
    "polynomial": "d87c007c0e4c459c4fe659afd27e77b1cbf0f99b3cb090e56b6d2e64091da371",
    "gauss1": "95d45d82687a826449b8339fb6c3cda98b1cdc7973b8c2d96677ab9290ea2533",
    "gauss2": "dd9082dfb30f67dc7d1a08afb50fc13c3bf330c00a69691b8ac3af446fe10854",
    "gauss3": "6c323ed47f6a35c2b94d230cf7795936e1ae6292d129e2629ab5f79c0b9ecb0e",
    "cos100": "ec00c864a4f46659a8382f711a1f8b95d87c4c890f6904abbba24908fa872202",
    "cos30": "ac5afc850410691c03df006ea5b1ef9f65403d88963a97f3986432c60725aa3e",
    "bspline1": "463afab196ad48ad12383ab07aabf4736a3cb331770eb64a5d3a3fe72a089e3c",
    "bspline3": "d59f0564cec4967c89539f19a12398e6d7e11e667a685a5fe977321c6f76f2bd",
    "mult": "567c43a51f9222b4a394db87b8eb4311e97279a539042959de323fb73c7ea53c",
    "multiply": "bdfb633bb8bb903d655c10044f55a8eebfa9473187ac6850655b6d5a28bd3d52",
    "wavelet2": "8b402bd1a65bf7036ad28345bc97bfd118056c28b1abaed08141e2bc8f33330f",
    "cutoff1": "8853db51f967ea8df9d4eb2d038a20c683c2b39dbacef8162ffbe3eb5584a2c7",
    "cutoff2": "d79324a21f2f4a9fc2e195fce98a83322ddad5eedb8d84a40e15bd967f054ac6",
    "cutoff3": "0394ac9c5ca52a9004111e078d7716fc44305b4e2293c0c9124c9f0a93102da5",
    "stitch": "b38dbb04b85d04637fc4ed0c120b7cbd7825c5e87008f200f0920b41ed97dd3a",
    "smooth_general": "2d7431529366a3e41acc6466f86956a0ffc03f85ef6fe804a1c330de45213f34",
    "modulated_re": "22010d5f4484787ca4ca4cae8bcff0279d3be057169a9a2941ed5a627bd37762",
    "modulated_im": "61bd07d9f7402c83427321b94cd31ca9a07183a5a8e6ef0401d6de242df2e0bc",
    "oscillatory": "436a44c252d3c23e1dbe7a48303f89992f515f79aadbe84c5c1081ba2bdab9b8",
    "par_shared": "5f6c5c22383b8cabf0afae97735ddae534e003bf664f10c44b158d237742f698",
    "lincomb_shared": "f52516379f84ba787c7f6ffe50b37dd2163c27b99e86ff3ec0e33c16f317fd07",
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
    "bspline1": "27f03b43af36e9227439d81990478f52ea46f1e8d6286208b6c2478741256f14",
    "bspline3": "bae0a6280688dc19ab735cb447a678744773e975a87f7e36b72ca02ea32326e7",
    "cos100": "8c9811bcf28a3cca6f00521663e85402d56806acfe9641a21a75000b1ac1a942",
    "cos30": "41fb9178ad143cba275e4049b296ce538bb96ee1dbeb4c13f18118ed84481b1b",
    "cutoff1": "ffc1f5db1faa7b6402489b6c3c21711ad6cb122faa068ac9410c12ab126aa81e",
    "cutoff2": "552314bb22083642839cfe552768f0a1d95f724d2ad969f3451a7cb1cb5e120b",
    "cutoff3": "d5dded8d9883842660302cb3bdbcdd08fa99d9ad1d46e916b7b660ae13d4148e",
    "gauss1": "d6f6fcf61a5a12b024bdd063647fd3282f60fb16740b092c050c9ced1fe6c7ed",
    "gauss2": "9096368a49a1619edbe6cf09613206566128503b74d07886272a5c345d3a9fc8",
    "gauss3": "4b9565652e5e30f21f6493866fb153026631c44aa524ad065f7a8117e3a3be42",
    "haar_element": "9234950a443d645e94a23c865352dd6a29c9c799a1f8822359a9206a5ed6401a",
    "haar_mother": "44cb30dbae9452244121398df5de9356bff144f56b6d54a9a47a4c8a330876d0",
    "lincomb_shared": "58c3726459e59fd5d50f3ba38755e1c6756b07a1a879dd39813dcca4c09c1627",
    "lincomb_shared_d1": "2030c175d58f023a1ffd8f150397b9a942af67ac1cc539a84137ec24ecc2e7b0",
    "modulated_im": "290802f5c9530128cbff5f763e19a24a65781879b81f4bf5dd19bb3cdf4b36b6",
    "modulated_re": "e5a82ea37b5a32a2e6b81947ca1a5fb7e82983ab8dda836f932fa25b594ad2a1",
    "mult": "ef4969e9966fe0acb47710a28f0292028d8ea059c48522dba8c69b2cdecb349e",
    "multiply": "1515f39acc7f7b01ace561918db3e683527c553d229b0b13411b55fefa784199",
    "oscillatory": "46a5a5d55cb9e87a433865faf1b59bac5ae3515621959ee53c047b0c9db37331",
    "par_shared": "72602f4c245e3fd97850d3cfc597d1c7e9cca6fd311ed36b4cb33c43259a1ca1",
    "polynomial": "6afa9b71997344566d2371a5f9a4fc5a655f3daf70a24d9ba6ca211decbe5b73",
    "smooth_general": "eee368a420f37399c691bd3b41f66d29b228f724c99a47da8f8408c615173919",
    "stitch": "391fb46289cb8516d9cc5b63e1b643bf5716593d4c505b0d00eb1d7bb2f1738d",
    "wavelet2": "97087a262a1a1c4722ac08a82b67dece5fc438545f6f6be603d4401da0492e90",
    "weier": "b605bef595aab6cb556abf069f65dfb49a095822745416c8134411878aa85745",
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


def _pwl_digest(pwl) -> str:
    return hashlib.sha256(pwl.breakpoints.tobytes() + pwl.values.tobytes()).hexdigest()


# sha256 of exact_pwl's breakpoints and values for each 1-D build on the two
# short intervals above
PWL_DIGESTS = {
    ("bspline1", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("bspline1", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("bspline3", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("bspline3", (0.41, 0.425)): "ab63f6c85456bd914bfdbad95e980538e3872ae922cd157bdf572b541253b570",
    ("cos100", (-0.3, -0.28)): "811e633b3bb139700b0ca913a92bf9864b3a77cdf21ab6f75ba79a89fcd790b2",
    ("cos100", (0.41, 0.425)): "a73dc651c51f4e4f03d6c2a3ee6c73a4eb37e8ed93e5199919658cf79955ae21",
    ("cos30", (-0.3, -0.28)): "8b17fc449f1ab64c7b1b253ec76b3f8448e2bdf0ace27e9317469e61b4654583",
    ("cos30", (0.41, 0.425)): "7caf002f758e0e82319fec9bf144591a6c7fe2f71922a331f7d98904fc9a578c",
    ("cutoff1", (-0.3, -0.28)): "cc15ca7004cabc334bae1dfa3f7b43f885e56c0bfe4458bf7101d8a7b065e3e2",
    ("cutoff1", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("gauss1", (-0.3, -0.28)): "1da2501a5fd121a3af36bfee1616a106cfe2e1ece010f4da7c4c62f81fdb95b2",
    ("gauss1", (0.41, 0.425)): "df9644617c94f3658e44e28f784cd60f3b5bb7f7fac869b2f61211bdf3716a40",
    ("haar_element", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_element", (0.41, 0.425)): "66b2b2b7805a66bcc17647f84854bd24f0ef0b9038fe788b0c315db70b094f8d",
    ("haar_mother", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_mother", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("lincomb_shared", (-0.3, -0.28)): "bcffc66810566f01a5c663a9f9882eb0304ece87d75b0f752e6e3d130d69bed4",
    ("lincomb_shared", (0.41, 0.425)): "d49a695c59ba9f3c5e0e03aee133b78df22076fa38ba62f0dc408991b2d3b101",
    ("lincomb_shared_d1", (-0.3, -0.28)): "0fb2e3c6b93c450c54b3a1bddef5ef0f6a50865b0799d55fd67bc96f3cce7be1",
    ("lincomb_shared_d1", (0.41, 0.425)): "90adfb937b9c29980a6dc815cd5e4620f050c78846a88dd47e3a31f51187595a",
    ("modulated_im", (-0.3, -0.28)): "ea0111e2d2abb5a83aa927ab61334e75d3811b09b810338f9869882f5dbd5dd0",
    ("modulated_im", (0.41, 0.425)): "1d98c8f56d3889d437259cdf28887b4eb6c3dfe5a14bea02260e395fe7b01765",
    ("modulated_re", (-0.3, -0.28)): "f4e0cc4582b385887e78cbf126a981b808994af5da7550dbe33a95f54e32374c",
    ("modulated_re", (0.41, 0.425)): "b611c98920a3cfb1bdef2cac91449e835efb1480079dca909cfa93a7eb8cc0f0",
    ("oscillatory", (-0.3, -0.28)): "de1ff17cc7a681dc6760bd64451d920a7f39fc9de078d7582cdd217c497119bd",
    ("oscillatory", (0.41, 0.425)): "666c81c0dd621b816db120318d7b9a60fc7f52b2e9473e3030c90fc7a0e72c31",
    ("polynomial", (-0.3, -0.28)): "74e305b022fb462b22001b522a12a6ce1445d5da05721083d2f8d207ade09209",
    ("polynomial", (0.41, 0.425)): "5e1cda197425b743408765c90fefb605ce1d1f97a431bafe3f9eb80303ac46bd",
    ("smooth_general", (-0.3, -0.28)): "284484ee5c449516e92e0f492c61d0982e468edc0096a039c0081cf999ab151c",
    ("smooth_general", (0.41, 0.425)): "32ce44e7ee2cd3ebc64ac52abd30849e61a206bba023bd7f60490b187d7c62c9",
    ("stitch", (-0.3, -0.28)): "e40d9e5ba561a29225ae466fee33248edc230004d1df67fb927b8b1cea525795",
    ("stitch", (0.41, 0.425)): "9be31335625a252ac1630b9a223877f1502c8d5367736c130ab1df6e51025881",
    ("wavelet2", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("wavelet2", (0.41, 0.425)): "e62143c1cd8be6ee56a26409cba2bbeb4a7d918c7348a2f976b467507e511bb3",
    ("weier", (-0.3, -0.28)): "8287db37edfa144b7cccd289a758760b300be43b896719488bcfffdd9f531eaa",
    ("weier", (0.41, 0.425)): "e9953a833224566af54c521ac4e08f0281ca7c8b077ea1e56a94bcdbcfc1797f",
}


@pytest.mark.parametrize("key, interval", sorted(PWL_DIGESTS))
def test_exact_pwl_is_pinned(key, interval):
    pwl = exact_pwl(BUILDS[key](), interval)
    assert _pwl_digest(pwl) == PWL_DIGESTS[(key, interval)]


def test_exact_pwl_of_bspline3_is_pinned():
    pwl = exact_pwl(BUILDS["bspline3"](), (-2.0, 5.0))
    assert pwl.breakpoints.size == 147
    assert _pwl_digest(pwl) == (
        "bd30abaa60a9c90df8dc2af0bc9d60c91ee2659b23921148a893ec5ab074b919"
    )
