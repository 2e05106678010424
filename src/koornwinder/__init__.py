"""Exact computation of six-parameter Koornwinder polynomials.

Nonsymmetric polynomials are built as joint eigenvectors of a commuting
operator family acting on Laurent polynomials, via intertwiner chains;
symmetric ones by a Hecke symmetrizer.  All arithmetic is exact, either
symbolically over the field of rational functions in the parameter
square roots or at a rational specialization of the parameters, and the
library ships check suites for the defining operator relations and the
duality identities.
"""

from .paramfield import FieldElement, UnluckySpecializationError
from .domains import (Assignment, SymbolicDomain, SpecializedDomain,
                      make_domain)
from .laurent import (LaurentRing, LaurentPolynomial, ExactDivisionError,
                      apply_simple_reflection, apply_translation,
                      exact_divide)
from .weyl import (SignedPermutation, affine_action, functional_action,
                   w_alpha, spectral_vector, chain_to, enumerate_W0)
from .noumi import NoumiRepresentation, check_daha_relations
from .intertwine import (apply_intertwiner, spectral_intertwiner,
                         intertwiner_square_scalar, check_intertwining)
from .oracle import EigenOracle
from .polynomials import (KoornwinderFamily, LabeledPolynomial,
                          NonGenericParametersError)
from .duality import DualityChecker

__version__ = "0.1.0"

__all__ = [
    "FieldElement", "UnluckySpecializationError",
    "Assignment", "SymbolicDomain", "SpecializedDomain", "make_domain",
    "LaurentRing", "LaurentPolynomial", "ExactDivisionError",
    "apply_simple_reflection", "apply_translation", "exact_divide",
    "SignedPermutation", "affine_action", "functional_action",
    "w_alpha", "spectral_vector", "chain_to", "enumerate_W0",
    "NoumiRepresentation", "check_daha_relations",
    "apply_intertwiner", "spectral_intertwiner", "intertwiner_square_scalar",
    "check_intertwining",
    "EigenOracle",
    "KoornwinderFamily", "LabeledPolynomial", "NonGenericParametersError",
    "DualityChecker",
]
