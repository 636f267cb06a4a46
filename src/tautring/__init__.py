"""Exact verification of tautological rings of points on a genus-2 curve.

Two families of graded rings are built from explicit generators and
relations and checked to be Gorenstein by exact rational linear algebra:
the power rings X^n and the Fulton-MacPherson compactified rings X[n].
A closed-form psi-lambda integral evaluator provides an independent
moduli-side computation path cross-checked against the fiber rings.
"""

from .algebra import (
    GradedRing,
    PairingReport,
    Presentation,
    PresentationError,
    SizeCeilingError,
    SocleError,
    ring_for,
)
from .fm import (
    StandardMonomialFM,
    block_pairing,
    dual_fm,
    enumerate_standard_fm,
    filtration_p,
    fm_presentation,
    is_standard_fm,
    psi_pullback,
)
from .hodge import (
    bernoulli,
    bridge_check,
    bridge_constant,
    faber_constant,
    hodge_psi_integral,
)
from .xn import (
    StandardMonomialXn,
    dual_xn,
    enumerate_standard_xn,
    matching_gram,
    six_point_relations,
    xn_presentation,
)

__version__ = "0.1.0"

# The one exact kernel is pure Python; the benchmark records this name.
KERNEL_BACKEND = "pure"

__all__ = [
    "GradedRing",
    "KERNEL_BACKEND",
    "PairingReport",
    "Presentation",
    "PresentationError",
    "SizeCeilingError",
    "SocleError",
    "StandardMonomialFM",
    "StandardMonomialXn",
    "bernoulli",
    "block_pairing",
    "bridge_check",
    "bridge_constant",
    "dual_fm",
    "dual_xn",
    "enumerate_standard_fm",
    "enumerate_standard_xn",
    "faber_constant",
    "filtration_p",
    "fm_presentation",
    "hodge_psi_integral",
    "is_standard_fm",
    "matching_gram",
    "psi_pullback",
    "ring_for",
    "six_point_relations",
    "xn_presentation",
    "__version__",
]
