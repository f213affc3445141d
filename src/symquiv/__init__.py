"""symquiv: exact-arithmetic symmetric quivers and their semi-invariants.

The package models symmetric quivers over the rationals, computes their
orthogonal and symplectic representation-theoretic invariants (Euler forms,
reflection functors, regular decompositions), enumerates semi-invariant
generators for the finite and tame families, and evaluates them exactly.
"""

from .linalg import RationalMatrix, linalg_kit, pfaffian, determinant
from .quiver import (Quiver, DimensionVector, euler_form, null_root, defect,
                     tits_form, validate_and_classify)
from .symmetric import (SymmetricQuiver, SymmetricType, SYMPLECTIC, ORTHOGONAL,
                        validate_symmetric, classify_symmetric,
                        admissible_sinks, normalize_orientation)
from .reflection import (reflect_dim, reflect_pair_dim, reflect_weight,
                         reflect_rep, reflect_pair_rep, coxeter_dim,
                         coxeter_rep, dual_rep, PLUS, MINUS)
from .representation import (Representation, StructuredRepresentation,
                             GroupElement, dvw_and_homext, interval_module,
                             check_structured, random_structured,
                             random_group_element, act)
from .presentation import (PathMatrix, evaluate_template, minimal_presentation,
                           module_from_presentation)
from .schur import (lr_coefficient, rectangle_tensor,
                    classical_invariant_dim, pair_semiinvariant_dim,
                    weight_space_dim)
from .tame import (TauOrbits, tau_orbits, canonical_decomposition,
                   LabelledPolygon, Arc, admissible_arcs, generic_decomposition,
                   tame_regular_module, pencil_templates)
from .semiinvariant import (Weight, GeneratorDescriptor, weight_of_cv, gamma,
                            evaluate_cv, evaluate_det, evaluate_pf,
                            evaluate_all, is_pfaffian_type,
                            pencil_coefficients,
                            generators_finite, generators_tame,
                            reduce_composition)
from . import families

__all__ = [
    "RationalMatrix", "linalg_kit", "pfaffian", "determinant",
    "Quiver", "DimensionVector", "euler_form", "null_root", "defect",
    "tits_form", "validate_and_classify",
    "SymmetricQuiver", "SymmetricType", "SYMPLECTIC", "ORTHOGONAL",
    "validate_symmetric", "classify_symmetric", "admissible_sinks",
    "normalize_orientation",
    "reflect_dim", "reflect_pair_dim", "reflect_weight", "reflect_rep",
    "reflect_pair_rep", "coxeter_dim", "coxeter_rep", "dual_rep", "PLUS", "MINUS",
    "Representation", "StructuredRepresentation", "GroupElement",
    "dvw_and_homext", "interval_module", "check_structured",
    "random_structured", "random_group_element", "act",
    "PathMatrix", "evaluate_template", "minimal_presentation",
    "module_from_presentation",
    "lr_coefficient", "rectangle_tensor", "classical_invariant_dim",
    "pair_semiinvariant_dim", "weight_space_dim",
    "TauOrbits", "tau_orbits", "canonical_decomposition", "LabelledPolygon",
    "Arc", "admissible_arcs", "generic_decomposition", "tame_regular_module",
    "pencil_templates",
    "Weight", "GeneratorDescriptor", "weight_of_cv", "gamma", "evaluate_cv",
    "evaluate_det", "evaluate_pf", "evaluate_all", "is_pfaffian_type",
    "pencil_coefficients",
    "generators_finite", "generators_tame", "reduce_composition",
    "families",
]
