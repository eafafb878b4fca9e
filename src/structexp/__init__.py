"""Closed-form exponentials of structured 2x2, 3x3 and 4x4 matrices.

The 4x4 families are recognized and exponentiated through the quaternion
tensor representation (classify / expm_auto); selected 3x3 and 4x4 Lie
algebras go through 2x2 covering computations (exp_via_covering); everything
is checkable against an independent series exponential (expm_series).
"""

from .quat import Quaternion, quat_exp, quat_mul
from .hxh import (BASIS_NAMES, I22, J4, R4, HxHElement, basis_matrix,
                  from_matrix, hxh_mul, scalar_square, to_matrix)
from .smalllin import SymEig3, Svd3, expm2, phi_c, phi_s, svd3, sym_eig3
from .oracle import expm_series, rel_error
from .classify import (DEFAULT_TOL, StructureClass, classify,
                       extract_special_normal, extract_symmetric_rep)
from .expm_structured import (ClosedFormDefect, ExpResult, ForcedClassMismatch,
                              MinimalPolySkew, exp_structured_class, expm_auto,
                              minimal_poly_skewT)
from .covering import (COVERING_ALGEBRAS, CoveringAlgebra, NotInAlgebra,
                       exp_via_covering, psi, psi_inverse)

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "quat_exp", "quat_mul",
    "BASIS_NAMES", "I22", "J4", "R4", "HxHElement", "basis_matrix",
    "from_matrix", "hxh_mul", "scalar_square", "to_matrix",
    "SymEig3", "Svd3", "expm2", "phi_c", "phi_s", "svd3", "sym_eig3",
    "expm_series", "rel_error",
    "DEFAULT_TOL", "StructureClass", "classify",
    "extract_special_normal", "extract_symmetric_rep",
    "ClosedFormDefect", "ExpResult", "ForcedClassMismatch",
    "MinimalPolySkew", "exp_structured_class", "expm_auto",
    "minimal_poly_skewT",
    "COVERING_ALGEBRAS", "CoveringAlgebra", "NotInAlgebra",
    "exp_via_covering", "psi", "psi_inverse",
    "__version__",
]
