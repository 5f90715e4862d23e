"""Exact computations in rational Cherednik algebras of G(r,p,n).

The package builds the polynomial representation with its Dunkl operators,
constructs the eigenbasis of non-symmetric Jack polynomials by two
independent routes, exposes the intertwining operators, checks the PBW
flatness conditions, and computes the submodule structure, graded characters
and q-Catalan series attached to the diagonal coinvariant quotient.  All
arithmetic is exact, over Q(zeta_r) or over rational functions in the
deformation parameters.
"""

from .cyclotomic import Cyc, Q, cyclotomic_polynomial, euler_phi
from .scalars import (
    GenericParameters, MPoly, ParamPoint, PoleError, RatFunc,
    SpecializedParameters, c_from_d, d_from_c, specialize,
)
from .groups import (
    GroupElement, Reflection, group_elements, group_order, parse_element,
    reflections,
)
from .polynomials import Poly
from .operators import (
    PolyRep, act_on_poly, monomials_of_degree, monomials_up_to,
)
from .jack import (
    Composition, JackVector, NonGenericError, Weight, bruhat_le, bruhat_lt,
    dominance_lt, jack_by_intertwiners, jack_by_solve, order_key, order_lt,
    v_permutation, weight_of, z_eigenvalue, zeta_compatible,
)
from .intertwiners import (
    Scaled, SingularIntertwinerError, apply_phi, apply_psi, apply_sigma,
    phi_on_poly, phi_psi_scalar, psi_on_poly, psi_scalar,
    verify_braid_and_quadratic,
)
from .pbw import FormFamily, check_pbw, rca_forms
from .reptheory import (
    Hjk, Hx, catalan_series, coinvariant_series, coxeter_number, degrees,
    exponents_and_freeness, genericity_guard, gordon_point,
    invariant_char_series, is_irreducible, l1_graded_dimension,
    on_hyperplane, singular_vector_check,
)
from .parsing import parse_cyc, parse_poly, parse_scalar, poly_from_json

__version__ = "0.1.0"

__all__ = [
    "Cyc", "Q", "cyclotomic_polynomial", "euler_phi",
    "GenericParameters", "MPoly", "ParamPoint", "PoleError", "RatFunc",
    "SpecializedParameters", "c_from_d", "d_from_c", "specialize",
    "GroupElement", "Reflection", "group_elements", "group_order",
    "parse_element", "reflections",
    "Poly", "PolyRep", "act_on_poly", "monomials_of_degree",
    "monomials_up_to",
    "Composition", "JackVector", "NonGenericError", "Weight",
    "bruhat_le", "bruhat_lt", "dominance_lt", "jack_by_intertwiners",
    "jack_by_solve", "order_key", "order_lt", "v_permutation", "weight_of",
    "z_eigenvalue", "zeta_compatible",
    "Scaled", "SingularIntertwinerError", "apply_phi", "apply_psi",
    "apply_sigma", "phi_on_poly", "phi_psi_scalar", "psi_on_poly",
    "psi_scalar", "verify_braid_and_quadratic",
    "FormFamily", "check_pbw", "rca_forms",
    "Hjk", "Hx", "catalan_series", "coinvariant_series",
    "coxeter_number", "degrees", "exponents_and_freeness",
    "genericity_guard", "gordon_point", "invariant_char_series",
    "is_irreducible", "l1_graded_dimension", "on_hyperplane",
    "singular_vector_check",
    "parse_cyc", "parse_poly", "parse_scalar", "poly_from_json",
]
