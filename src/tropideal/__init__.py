"""Exact computation with degree-truncated tropical ideals.

Everything is built on the min-plus semiring over exact rationals: no
floating point appears anywhere in the core, because ties between terms
are what define the geometry.  All public objects are immutable after
construction and every operation is a pure function, safe for concurrent
use on shared data.
"""

from .semiring import INF, Trop, dot, weight_sigma
from .polynomials import TropPoly, least_coefficients, tropical_roots
from .matroids import VMatroid, check_valuated_exchange, circuits, is_vector
from .ideals import (ClassicalInput, QPoly, TruncIdeal, Valuation,
                     check_compatibility, compare, contains, initial_ideal,
                     nonrealizable_ideal, point_ideal, tropicalize)
from .polyhedra import (Cell, PolyComplex, normal_complex, quotient_lineality,
                        refine)
from .groebner import (Certificate, GroebnerComplex, VarietySubcomplex,
                       groebner_complex, groebner_poly, nullstellensatz,
                       tropical_basis, variety, variety_supports_equal)
from .errors import (DegenerateInputError, DimensionError, InputError,
                     InvalidMatroidError, InvariantViolationError,
                     OutOfRangeError, ParseError, PreconditionError,
                     SizeGuardError, TropidealError)

__version__ = "0.1.0"

__all__ = [
    "INF", "Trop", "dot", "weight_sigma",
    "TropPoly", "least_coefficients", "tropical_roots",
    "VMatroid", "check_valuated_exchange", "circuits", "is_vector",
    "ClassicalInput", "QPoly", "TruncIdeal", "Valuation",
    "check_compatibility", "compare", "contains",
    "initial_ideal", "nonrealizable_ideal", "point_ideal", "tropicalize",
    "Cell", "PolyComplex", "normal_complex", "quotient_lineality", "refine",
    "Certificate", "GroebnerComplex", "VarietySubcomplex", "groebner_complex",
    "groebner_poly", "nullstellensatz", "tropical_basis", "variety",
    "variety_supports_equal",
    "DegenerateInputError", "DimensionError", "InputError",
    "InvalidMatroidError", "InvariantViolationError", "OutOfRangeError",
    "ParseError", "PreconditionError", "SizeGuardError", "TropidealError",
    "__version__",
]
