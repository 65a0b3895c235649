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
    "weier": "c639c5fb9ddbe036a173f29c51f2caf440a1e0409eb7264fa4e48bd756e8aa3d",
    "polynomial": "60202cb5037d3f5dfa4f391b41a1578c7a104efac42565b3171bcb7802548880",
    "gauss1": "d40497b712ce679d262a711a52b0d5f8cf6e026db9681da6030c23a748bf45e9",
    "gauss2": "8fae9cbf025e9df37f49ef277c15df593209ea710aab2f90f56d1bb9e712c95a",
    "gauss3": "69f3786fcae27e2327f7aa3375bf3282ef055455eeb0eebf58f24c65feba86e5",
    "cos100": "9f28f70f112bbcac16d60ac3b7cc990cad0983d91233db9036c34a923e80bb2f",
    "cos30": "a05c66fcea138e25557fef17381238b572afbe884533432197664e1d444614d5",
    "bspline1": "f2f1e638180e59b51ddf0d6c5544d83d19cd00437ae5e23f0a0e7be32e41a415",
    "bspline3": "fc46a5ac1491b7119c6a9a5d3d9c46cc05b26dbd462cf458bdca4c955f878f24",
    "mult": "567c43a51f9222b4a394db87b8eb4311e97279a539042959de323fb73c7ea53c",
    "multiply": "e2377d10d8d40f9ebd94435962e25bda77afa43143b4ee19f740067f4c47460f",
    "wavelet2": "8b402bd1a65bf7036ad28345bc97bfd118056c28b1abaed08141e2bc8f33330f",
    "cutoff1": "8853db51f967ea8df9d4eb2d038a20c683c2b39dbacef8162ffbe3eb5584a2c7",
    "cutoff2": "d79324a21f2f4a9fc2e195fce98a83322ddad5eedb8d84a40e15bd967f054ac6",
    "cutoff3": "0394ac9c5ca52a9004111e078d7716fc44305b4e2293c0c9124c9f0a93102da5",
    "stitch": "109ab35d778dcb6b87a16361fe615d20d862e62e87b46a9669391aa2c1200e16",
    "smooth_general": "ec3228278e901e2272863da708c048cb5b9e68fefb95e7d22c1e25da4d2140f2",
    "modulated_re": "02830f1cdac0411c761ebcebe72d790839ba2fb922d95aaf77cdd01915b72110",
    "modulated_im": "e07769a6cc082d264e6c082d62ecdd5c40f851a0a5380a604a972923a718383e",
    "oscillatory": "f2e8b26f3e3d01959d0be34465b9e83c41786be3547676d18e8517eefa60d4ae",
    "par_shared": "78f80a1f083eeb05ce779452d40bfcf6b159c30654d4575bd9b5151c53d4fd7e",
    "lincomb_shared": "f13a56724f246f5fb1e9799b65dbbc1c39f3ce7aeb89716e673c9723a050fd34",
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
    "bspline3": "bae0a6280688dc19ab735cb447a678744773e975a87f7e36b72ca02ea32326e7",
    "cos100": "db15b92953aaf153915e2aa6407a307ba8a8c0f247d31b9d24d6abbc52043c8d",
    "cos30": "26f261630c4f5d715ce64eb1283df35d723e5339987897855e658e3e456e8bf6",
    "cutoff1": "ffc1f5db1faa7b6402489b6c3c21711ad6cb122faa068ac9410c12ab126aa81e",
    "cutoff2": "552314bb22083642839cfe552768f0a1d95f724d2ad969f3451a7cb1cb5e120b",
    "cutoff3": "d5dded8d9883842660302cb3bdbcdd08fa99d9ad1d46e916b7b660ae13d4148e",
    "gauss1": "94c68c11e8eee262c59bcc7116bb211f7e44633e9c87e1d1916dbf5276da48c2",
    "gauss2": "a0c6ac871ada884c6064015738d81af59f493b97be06f3d92f5fbace50af9276",
    "gauss3": "5b5d448a12a528e050cb2a99a1f228b29f444b4757125d68b625b017710594e3",
    "haar_element": "9234950a443d645e94a23c865352dd6a29c9c799a1f8822359a9206a5ed6401a",
    "haar_mother": "44cb30dbae9452244121398df5de9356bff144f56b6d54a9a47a4c8a330876d0",
    "lincomb_shared": "4e1ee8ed62459354eef9de58dfb09e967a6c196359b47f78562eebc8dae01987",
    "lincomb_shared_d1": "2030c175d58f023a1ffd8f150397b9a942af67ac1cc539a84137ec24ecc2e7b0",
    "modulated_im": "eee1789652a044c3ae5c8caa96238f847c29e4a2b4971b1ae5c6148af1431a0b",
    "modulated_re": "744d45be8d605684e73377378a32beb61980794d657f79b5b6f36c8cbec9046c",
    "mult": "ef4969e9966fe0acb47710a28f0292028d8ea059c48522dba8c69b2cdecb349e",
    "multiply": "1515f39acc7f7b01ace561918db3e683527c553d229b0b13411b55fefa784199",
    "oscillatory": "a72d316b59c02776e562b2783ad02dce35e84facac4c32f4068aa1ff247dc557",
    "par_shared": "09de8bc12890411eab01cc79a49fec7c5f3ef657c75a70421572bc684d6c53d5",
    "polynomial": "e150bafa33fed0ba31242ebe48b1ce975641d79d8b6982e88bbae95c63c405a1",
    "smooth_general": "7cfddcb68333d7216982db153153ad67eae930299a759901f57c9c7ec33e11fa",
    "stitch": "391fb46289cb8516d9cc5b63e1b643bf5716593d4c505b0d00eb1d7bb2f1738d",
    "wavelet2": "97087a262a1a1c4722ac08a82b67dece5fc438545f6f6be603d4401da0492e90",
    "weier": "b9f8ebb7b9aa34347f4f3518489360bcae5ae136bb4e8b106a465c7bfcfc1a24",
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
    ("bspline1", (0.41, 0.425)): "90c51b5bc28aa4181c8344abac44803ca716e944920f38ce00ead1aca6faa99d",
    ("bspline3", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("bspline3", (0.41, 0.425)): "ab63f6c85456bd914bfdbad95e980538e3872ae922cd157bdf572b541253b570",
    ("cos100", (-0.3, -0.28)): "73a2e734aac79d48aa2d8dfbd28899e45b6db22327a74b19aa5c9f3a3cf28918",
    ("cos100", (0.41, 0.425)): "13aac6e54f8ab2d56304711752521997aa5a37eea67f30fde1fb8eac11fa55a7",
    ("cos30", (-0.3, -0.28)): "ddcb9f9e9d8c191c95437e2bd27fe26e1a09c02c7e8b9873a19b6c343774c21b",
    ("cos30", (0.41, 0.425)): "b5081e3becab85fae9e86cc09340eafb842b1c91c361cce35127fbec21605214",
    ("cutoff1", (-0.3, -0.28)): "cc15ca7004cabc334bae1dfa3f7b43f885e56c0bfe4458bf7101d8a7b065e3e2",
    ("cutoff1", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("gauss1", (-0.3, -0.28)): "c0ec978b3573096d9410566073876b72a49d0a23499e25d8e96d76ac895ec30e",
    ("gauss1", (0.41, 0.425)): "0dc61f9be9f7ce7b30707cbf5fbde96af1e0a6f1274ef599e0fec204194e4cfd",
    ("haar_element", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_element", (0.41, 0.425)): "66b2b2b7805a66bcc17647f84854bd24f0ef0b9038fe788b0c315db70b094f8d",
    ("haar_mother", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_mother", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("lincomb_shared", (-0.3, -0.28)): "6931f38b0648c1226b3911cf670464caad5525fcaf7098c76f45a7af6e2c31fd",
    ("lincomb_shared", (0.41, 0.425)): "aeff933a3f77eaae1166ce9529a8e4a45005bc639dcac33cd0a8d8abfba2f0de",
    ("lincomb_shared_d1", (-0.3, -0.28)): "0fb2e3c6b93c450c54b3a1bddef5ef0f6a50865b0799d55fd67bc96f3cce7be1",
    ("lincomb_shared_d1", (0.41, 0.425)): "90adfb937b9c29980a6dc815cd5e4620f050c78846a88dd47e3a31f51187595a",
    ("modulated_im", (-0.3, -0.28)): "184f80fe8d348de0b07b1787eeaa0ce86574b6bf9947bb30f50f8eb848b92c06",
    ("modulated_im", (0.41, 0.425)): "f9de035fb0434e3158d22d612dc33362a6d7b54462929d1b95d86e19d97afdc2",
    ("modulated_re", (-0.3, -0.28)): "e26d5f3ca80891e5f90977d76ef95c98dabc5392d8f0da7bf0d2e3853aafcc36",
    ("modulated_re", (0.41, 0.425)): "90756841bb20adb83a8abfbb4af82a5a5e0ee4a1336b086df0532ed7d6b7df84",
    ("oscillatory", (-0.3, -0.28)): "772d95a7129824be7fb0ec9daa72d934b1b9209959a195a097d011396bd59ab9",
    ("oscillatory", (0.41, 0.425)): "dfa8e408e568b4e1f89cb205abffe74b4b2ee7b7d5e7372b8f94a61aa71484fe",
    ("polynomial", (-0.3, -0.28)): "c9983854c585c3a70ab27d4e17a42a5578304f81a75e271cac1280abf8d4096a",
    ("polynomial", (0.41, 0.425)): "00a3773de2b56f45f45603395bf341995b4bc8e67a284645a378eda90e4140e7",
    ("smooth_general", (-0.3, -0.28)): "68df4c705ed197adb48ac9b5d48b5b697589d6918fb9acac809949095f86c91f",
    ("smooth_general", (0.41, 0.425)): "749e9c069a79d3cc6645dfadb7d07812b3ecfd408cbcfb509a64003cb5510568",
    ("stitch", (-0.3, -0.28)): "e40d9e5ba561a29225ae466fee33248edc230004d1df67fb927b8b1cea525795",
    ("stitch", (0.41, 0.425)): "9be31335625a252ac1630b9a223877f1502c8d5367736c130ab1df6e51025881",
    ("wavelet2", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("wavelet2", (0.41, 0.425)): "e62143c1cd8be6ee56a26409cba2bbeb4a7d918c7348a2f976b467507e511bb3",
    ("weier", (-0.3, -0.28)): "fbb734b4b9ec0032c0545fd32059900c3df31407a48f5e1ddf2598554254bd81",
    ("weier", (0.41, 0.425)): "c5feec4ad182b149d1930409402f35f86b7fbb669a8b5d00510a1696e4bdda62",
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
