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


def _pwl_digest(pwl) -> str:
    return hashlib.sha256(pwl.breakpoints.tobytes() + pwl.values.tobytes()).hexdigest()


# sha256 of exact_pwl's breakpoints and values for each 1-D build on the two
# short intervals above
PWL_DIGESTS = {
    ("bspline1", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("bspline1", (0.41, 0.425)): "90c51b5bc28aa4181c8344abac44803ca716e944920f38ce00ead1aca6faa99d",
    ("bspline3", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("bspline3", (0.41, 0.425)): "7d9835fddd690f8d4c939e7802904fe6b2e585ac6dddd2e8863b9e93e5f25241",
    ("cos100", (-0.3, -0.28)): "39817e19ef10ba3afec5f16f73a9d3f5d087cceeab75b773683c514f4d9cb3d9",
    ("cos100", (0.41, 0.425)): "ed973739c3808ec67f45d0ffcb6c10d607679849dbf3e60faf19ebc9ae221a99",
    ("cos30", (-0.3, -0.28)): "dc42385a9a641bc25b01d817dfd34361fceb4c8ea5174d06462af0574ded31f2",
    ("cos30", (0.41, 0.425)): "ced1949e9e92e926fd630fdb46bb7887b6460da93d996bc205ad46ad187d922e",
    ("cutoff1", (-0.3, -0.28)): "cc15ca7004cabc334bae1dfa3f7b43f885e56c0bfe4458bf7101d8a7b065e3e2",
    ("cutoff1", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("gauss1", (-0.3, -0.28)): "74dea36db76246c58f010a4490203a1fbd4a73ee61703db67cfd5f829fcffc8b",
    ("gauss1", (0.41, 0.425)): "0c125cc1c51f3ec7ddce6e959ec505b9b54beaab406619bd79670576ed85d3dd",
    ("haar_element", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_element", (0.41, 0.425)): "66b2b2b7805a66bcc17647f84854bd24f0ef0b9038fe788b0c315db70b094f8d",
    ("haar_mother", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("haar_mother", (0.41, 0.425)): "4fe3059cbe5d2421e852272be3480253911aa9c2816c0b0f40b461808314e266",
    ("lincomb_shared", (-0.3, -0.28)): "5efb9913879d731be7b061be8b1d6436f6205dd6064d0b191c499011be2fa8c4",
    ("lincomb_shared", (0.41, 0.425)): "afb74af4181df36c7ae9cad6f8794779f725c45e751f9f0463d054340159599c",
    ("lincomb_shared_d1", (-0.3, -0.28)): "0fb2e3c6b93c450c54b3a1bddef5ef0f6a50865b0799d55fd67bc96f3cce7be1",
    ("lincomb_shared_d1", (0.41, 0.425)): "90adfb937b9c29980a6dc815cd5e4620f050c78846a88dd47e3a31f51187595a",
    ("modulated_im", (-0.3, -0.28)): "f6960e7b064cd3e593fa316da3e7ef323f43759c497eb11391062e37473240fb",
    ("modulated_im", (0.41, 0.425)): "87900e6b4e8a3bdb43b5dd7dcb2d0a15a64d7e3919745a5b9ff26d3d74e36ecb",
    ("modulated_re", (-0.3, -0.28)): "48ca4526c2ac4bc258d3252bd7b9736252c6e20f8c35434e8e3447c83c3dd40e",
    ("modulated_re", (0.41, 0.425)): "2ee194df73c36d8b188da4c53cd89741d4fe24be7f52050c35da6b04639450d0",
    ("oscillatory", (-0.3, -0.28)): "c1fa697391bd1abe6447c7db4b1de5994c6b0fb2f8d62eb0a579a1152bd419fc",
    ("oscillatory", (0.41, 0.425)): "4abe551cb26347e515ff140effa41528807d8f976a17cf71b810bc3638821721",
    ("polynomial", (-0.3, -0.28)): "c9983854c585c3a70ab27d4e17a42a5578304f81a75e271cac1280abf8d4096a",
    ("polynomial", (0.41, 0.425)): "00a3773de2b56f45f45603395bf341995b4bc8e67a284645a378eda90e4140e7",
    ("smooth_general", (-0.3, -0.28)): "68df4c705ed197adb48ac9b5d48b5b697589d6918fb9acac809949095f86c91f",
    ("smooth_general", (0.41, 0.425)): "749e9c069a79d3cc6645dfadb7d07812b3ecfd408cbcfb509a64003cb5510568",
    ("stitch", (-0.3, -0.28)): "e40d9e5ba561a29225ae466fee33248edc230004d1df67fb927b8b1cea525795",
    ("stitch", (0.41, 0.425)): "9be31335625a252ac1630b9a223877f1502c8d5367736c130ab1df6e51025881",
    ("wavelet2", (-0.3, -0.28)): "27d278fec565f81fcd3d9c9c24e556c883698940a7c179dd32d0a8d242ddbd0b",
    ("wavelet2", (0.41, 0.425)): "541767151ce7f09d3efb88e6cbd3d1cbaed7489429ad124c8a7ae48b00a55277",
    ("weier", (-0.3, -0.28)): "4fc85425d481b390cea297730bd43af806c496008995905695933f41b5ba7b25",
    ("weier", (0.41, 0.425)): "b1d1ee51ec077060169552499e786ed9a1a622bc88d0cff28f555b5e355790c8",
}


@pytest.mark.parametrize("key, interval", sorted(PWL_DIGESTS))
def test_exact_pwl_is_pinned(key, interval):
    pwl = exact_pwl(BUILDS[key](), interval)
    assert _pwl_digest(pwl) == PWL_DIGESTS[(key, interval)]


def test_exact_pwl_of_bspline3_is_pinned():
    pwl = exact_pwl(BUILDS["bspline3"](), (-2.0, 5.0))
    assert pwl.breakpoints.size == 3880
    assert _pwl_digest(pwl) == (
        "65aab0abd7fbf90bf7c00887ba2cbc2274974d354a6ba68b8e8d9afc095b31f4"
    )
