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
    "weier": "aeeb04e69d7f26a212d8fdf269ca57f0b81dcbb112c52a862267234f49b2d2ed",
    "polynomial": "e6de07c5863f0083fa291ae471afb9f140a868d4e78b61d6178184c4b10a1f53",
    "gauss1": "4c088e63aa9859ebc64e82faee6cdf9a9ef5c3112851617d9762e322f59389d9",
    "gauss2": "dd06a5998184e5f7538f7268b563b94fb23e40fe1b76215412dbaebd62ea1e34",
    "gauss3": "5ff0504bd1404385d2c9f274c29c4042fe2311cf9c1075f87e5ca2d52dcf764a",
    "cos100": "011c18baadf17d40769d49ff549abaa665a5a0970ba24a6ba23ef73d33ea0a62",
    "cos30": "07fa2cb6da891cccae7813a507ecaac8ab4e061fcd596edd100d8e401ede7751",
    "bspline1": "83d7d1c1161f56be124529362ccb628807d08b106dabd6050dde5e9504f0a2c0",
    "bspline3": "fc46a5ac1491b7119c6a9a5d3d9c46cc05b26dbd462cf458bdca4c955f878f24",
    "mult": "567c43a51f9222b4a394db87b8eb4311e97279a539042959de323fb73c7ea53c",
    "multiply": "bdfb633bb8bb903d655c10044f55a8eebfa9473187ac6850655b6d5a28bd3d52",
    "wavelet2": "8b402bd1a65bf7036ad28345bc97bfd118056c28b1abaed08141e2bc8f33330f",
    "cutoff1": "8853db51f967ea8df9d4eb2d038a20c683c2b39dbacef8162ffbe3eb5584a2c7",
    "cutoff2": "d79324a21f2f4a9fc2e195fce98a83322ddad5eedb8d84a40e15bd967f054ac6",
    "cutoff3": "0394ac9c5ca52a9004111e078d7716fc44305b4e2293c0c9124c9f0a93102da5",
    "stitch": "6844c61afa25cee3e1f8612b72047566cbf56f359a153b8feb30078db94780ce",
    "smooth_general": "c41bebf62804600a6e51e78ead85055209c67e4de0e1dcac30aadcc807674af7",
    "modulated_re": "e9e80d5802ea36865d2c03ae42c76cbc657edec93101aa0bff37c060a7c2ee98",
    "modulated_im": "97f538529ee2b3763bf34a448d7ad92c2faebfa096ebed66d3cb057d3ad3895a",
    "oscillatory": "ae4019a98520d8e531fa1180cceda76412d167c045aeb10a8ed4e0e2e3cb8bf3",
    "par_shared": "71494a6206295e72a564a6d458f2147c5ad1b09100a48bf83cac7d0fa01cdc00",
    "lincomb_shared": "3ac42c68b8767d8537270e688b7006169b595a3679bde41730d16446dc90f841",
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
    "cos100": "bb6dd798e0be09313e14e648ced37b9e55d0542312e495b46a9cec3ce57d0705",
    "cos30": "f99e46e1dd84f4937482a26ddfb97ce00a3febb3d42b4fca02215f69ea129ee6",
    "cutoff1": "ffc1f5db1faa7b6402489b6c3c21711ad6cb122faa068ac9410c12ab126aa81e",
    "cutoff2": "552314bb22083642839cfe552768f0a1d95f724d2ad969f3451a7cb1cb5e120b",
    "cutoff3": "d5dded8d9883842660302cb3bdbcdd08fa99d9ad1d46e916b7b660ae13d4148e",
    "gauss1": "e5f8330cddfd8a09f4dba7062bb5a56d02285a18141eb225188db40a96dedb55",
    "gauss2": "5f67546e9a1bee2442c543f4b1c6841b30c835d94338037a5633d30b2e8bb907",
    "gauss3": "b69498b0d8e3c7cc01db37c4705cbff030c4be84094aec8c4da9b7901d396cfd",
    "haar_element": "9234950a443d645e94a23c865352dd6a29c9c799a1f8822359a9206a5ed6401a",
    "haar_mother": "44cb30dbae9452244121398df5de9356bff144f56b6d54a9a47a4c8a330876d0",
    "lincomb_shared": "6e92dca4b84fceaa781bf9e121c53eb5d870e17bf7fbf8bd6c277f898304ec98",
    "lincomb_shared_d1": "2030c175d58f023a1ffd8f150397b9a942af67ac1cc539a84137ec24ecc2e7b0",
    "modulated_im": "a480cc6bfcc2e99347d6056d645360e00bf1981bf810ffc1d62b513caff71d3c",
    "modulated_re": "5e7c69c891e3e9d96535d232151f88465e86eb1562d058dde0347acd89dd4fd9",
    "mult": "ef4969e9966fe0acb47710a28f0292028d8ea059c48522dba8c69b2cdecb349e",
    "multiply": "1515f39acc7f7b01ace561918db3e683527c553d229b0b13411b55fefa784199",
    "oscillatory": "929afc4e7c3a6c6f139a629d1c267f39ac800bf787e8f1e6ce782cf529215277",
    "par_shared": "ae2b71d033c9d7595dd0fdc6f66d749dc8fa7a81c1e11376ffe79fc6680204d0",
    "polynomial": "1b1c6efacdb8b26ce1fffd1bb01861607c03e4e9b7838148aefa9d0d0314c070",
    "smooth_general": "1a2f24bae017f929b9ed62dd345ec67f099bda9ac10cc269a0ffe58831533d21",
    "stitch": "391fb46289cb8516d9cc5b63e1b643bf5716593d4c505b0d00eb1d7bb2f1738d",
    "wavelet2": "97087a262a1a1c4722ac08a82b67dece5fc438545f6f6be603d4401da0492e90",
    "weier": "fe8f04a89cbbbcf7ba2f2c5b9ba5d5951c2df6328205ffc15cf127c45453f85b",
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
    ("cos100", (-0.3, -0.28)): "8ad89755fed05629fe493e32e0d520ba7c74a3fe1183f831793bf93816b9115f",
    ("cos100", (0.41, 0.425)): "cf8c284cdaf1a87385b29d25f9bcc8dfe513cc3d21e4bd7ffb8dfbce53aa03b9",
    ("cos30", (-0.3, -0.28)): "6230a4efc2ef75355317f12477fab91e3b78f110dbd617a3feb152c2606c7ee2",
    ("cos30", (0.41, 0.425)): "b5081e3becab85fae9e86cc09340eafb842b1c91c361cce35127fbec21605214",
    ("cutoff1", (-0.3, -0.28)): "cc15ca7004cabc334bae1dfa3f7b43f885e56c0bfe4458bf7101d8a7b065e3e2",
    ("cutoff1", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("gauss1", (-0.3, -0.28)): "76e97200b1443a86d8146909140689820ea1fc048f7d02bd7c0b2c4325150a3c",
    ("gauss1", (0.41, 0.425)): "37dcf055363471049e0b55fd8faefaa89e1d7973dd8ccc9ceefc564df7f7b155",
    ("haar_element", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_element", (0.41, 0.425)): "66b2b2b7805a66bcc17647f84854bd24f0ef0b9038fe788b0c315db70b094f8d",
    ("haar_mother", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_mother", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("lincomb_shared", (-0.3, -0.28)): "6931f38b0648c1226b3911cf670464caad5525fcaf7098c76f45a7af6e2c31fd",
    ("lincomb_shared", (0.41, 0.425)): "7768e5721857e11169babce728ca85370630decf174726a84c6d5fb9d2bacc11",
    ("lincomb_shared_d1", (-0.3, -0.28)): "0fb2e3c6b93c450c54b3a1bddef5ef0f6a50865b0799d55fd67bc96f3cce7be1",
    ("lincomb_shared_d1", (0.41, 0.425)): "90adfb937b9c29980a6dc815cd5e4620f050c78846a88dd47e3a31f51187595a",
    ("modulated_im", (-0.3, -0.28)): "1008a6094d41ef784daa0cc0cb612abb313f0f2c890b8e0dac6ec8702cc031ef",
    ("modulated_im", (0.41, 0.425)): "f299a1ac2044fcfe9ba137891581f41bf24fb6a8375086d712b3265dd6962b6a",
    ("modulated_re", (-0.3, -0.28)): "2551da07d50d768edf38552875580f9a94a7caf5691077a1d761fef683480cc1",
    ("modulated_re", (0.41, 0.425)): "7f33273a19f29eb86d353753ae49e00d83a380ad498551bf2da22bcf7e5bcfee",
    ("oscillatory", (-0.3, -0.28)): "a1bd304dad0d8c9f3ccf124f22075872ae291152d40988e3640e7e0009df8059",
    ("oscillatory", (0.41, 0.425)): "1ce374bf162e1457c7b616deacaf32f2473ee5e7c4e6369891e9ee0562c47184",
    ("polynomial", (-0.3, -0.28)): "c9983854c585c3a70ab27d4e17a42a5578304f81a75e271cac1280abf8d4096a",
    ("polynomial", (0.41, 0.425)): "00a3773de2b56f45f45603395bf341995b4bc8e67a284645a378eda90e4140e7",
    ("smooth_general", (-0.3, -0.28)): "9f3a49a9524af59c917aed967e7530e819cca6e9074ca988be3ae0a585bb1c47",
    ("smooth_general", (0.41, 0.425)): "64bb1595b6ad472e0f6a4b09c47296a87e63d609ea7b619159d162bfd68cefa2",
    ("stitch", (-0.3, -0.28)): "e40d9e5ba561a29225ae466fee33248edc230004d1df67fb927b8b1cea525795",
    ("stitch", (0.41, 0.425)): "9be31335625a252ac1630b9a223877f1502c8d5367736c130ab1df6e51025881",
    ("wavelet2", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("wavelet2", (0.41, 0.425)): "e62143c1cd8be6ee56a26409cba2bbeb4a7d918c7348a2f976b467507e511bb3",
    ("weier", (-0.3, -0.28)): "cea8f85551a41356bf84f98137fc38ca5405127a51232ce2107b58bb0ff91da7",
    ("weier", (0.41, 0.425)): "f063d254a15fca5dadc0d5573d2591d1effdf9d70f965497b8be9f5cc7907b5a",
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
