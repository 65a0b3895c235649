"""The explicit approximants.

No constructor emits a hidden row that is 0 on all of R.  Where the facts a
construction knows about its own values (an input >= 0, a tent value in
[0, 1], two multiplier inputs that are one form) make a row's
pre-activation <= 0 at every finite input whose pre-activations stay
finite, the row is left out, and its float argument stands next to the
omission.  A fact that holds only on a bounded range, or only up to the
rounding of an approximation, keeps its row, so every output bit is the
one the full construction gives, everywhere.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    multiply_network,
    multiply_refinement_steps,
    polynomial_network,
    sawtooth_network,
    square_interpolant_network,
    square_network,
    square_refinement_steps,
)
from .smooth import (
    ChebyshevExpansion,
    SmoothDescriptor,
    chebyshev_degree,
    chebyshev_expand,
    chebyshev_nodes,
    chebyshev_to_monomial,
    hat_partition_networks,
    interpolation_degree,
    smooth_network,
    smooth_network_general,
    stitch_networks,
)
from .trig import cosine_network, cosine_shifted_network, sine_network
from .splines import (
    bspline_network,
    cardinal_bspline,
    dilate_translate,
    haar_element_network,
    haar_mother_network,
    haar_reference,
    spline_wavelet_coeffs,
    spline_wavelet_network,
    spline_wavelet_reference,
)
from .gabor import cutoff_network, gaussian_network, modulated_network
from .textures import (
    oscillatory_network,
    weierstrass_network,
    weierstrass_reference,
    weierstrass_terms,
)

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
