"""CI-matrices: exact construction, closed-form determinants, verification.

The CI-matrix of nodes (x1, ..., xn) has (h, k) entry equal to the
(n-h)-th elementary symmetric polynomial of the nodes with node k removed;
its determinant is the pairwise-difference product prod_{i<j} (xj - xi).
This package builds the matrices over rationals, floats, or symbolic
nodes, evaluates the determinant in O(n^2), cross-checks it against
independent oracles, and verifies the identity mechanically over the
polynomial ring.
"""

from .matrix import (
    CIMatrix,
    NumericalError,
    SizeCapError,
    build_ci_matrix,
    closed_form_logdet,
    compare_determinants,
    det_bareiss,
    det_closed_form,
    det_cofactor,
    det_lu,
    lu_logdet,
    symbolic_ci_matrix,
    vandermonde_duality_residual,
)
from .multipoly import MultiPoly, parse_poly, vandermonde_product, variables
from .scalars import float_to_string, rational_from_string, rational_to_string
from .verifier import DEFAULT_CAP, verify_suite

__version__ = "0.1.0"

__all__ = [
    "CIMatrix",
    "DEFAULT_CAP",
    "MultiPoly",
    "NumericalError",
    "SizeCapError",
    "build_ci_matrix",
    "closed_form_logdet",
    "compare_determinants",
    "det_bareiss",
    "det_closed_form",
    "det_cofactor",
    "det_lu",
    "float_to_string",
    "lu_logdet",
    "parse_poly",
    "rational_from_string",
    "rational_to_string",
    "symbolic_ci_matrix",
    "vandermonde_duality_residual",
    "vandermonde_product",
    "variables",
    "verify_suite",
]
