"""Exact-arithmetic jump loci toolkit.

Computes which free-abelian covers of a space or group have finite Betti
numbers, working from characteristic-variety data: Alexander matrices of
group presentations (Fox calculus), exponential tangent cones of Laurent
polynomial zero sets (minimal zero-sum parts), and incidence theory of
torsion-translated subtori (lattice normal forms, Plücker/Schubert
equations).  All arithmetic is exact — rationals, integers, cyclotomics.
"""

from .qlinalg import (IntegerLattice, PluckerVector, RationalSubspace,
                      coset_reduce, evaluate_form, format_rational, hnf,
                      integer_kernel, lattice_coset_membership,
                      lattice_coset_solve, parse_rational, plucker, rref,
                      saturated_integer_points, schubert_equations,
                      sigma_membership, snf)
from .laurent import (CyclotomicNumber, CycloLaurentPoly, LaurentPoly,
                      bareiss_rank, cyclotomic_polynomial, cyclotomic_rank,
                      evaluate_at_character,
                      restrict_matrix_to_translated_torus,
                      restrict_to_translated_torus)
from .fox import (Abelianization, AlexanderMatrix, FreeWord, Presentation,
                  PresentationSyntaxError, abelianize, alexander_matrix,
                  contains_translated_torus, depth1_membership,
                  fox_derivative_abelianized, generic_rank_on_torus,
                  parse_presentation, rank_at_character)
from .tcone import (SubspaceArrangement, tangent_cone_description,
                    tangent_cone_polys)
from .tori import (GradedDescription, OrbifoldDatum, TorsionCharacter,
                   TranslatedIntersection, TranslatedTorus,
                   VarietyDescription, intersect_translated,
                   orbifold_components, orbifold_v1, product_description,
                   pushforward, sigma_rho_membership, wedge_description)
from .omega import (ClosedFormVerdict, FpkReport, OmegaVerdict, PlaneQuery,
                    WitnessReport, WitnessStep, fpk_report,
                    maximal_cover_finiteness, nonopen_witness,
                    omega1_r1_description, omega1_r1_membership,
                    omega_codim1_closed_form, omega_membership,
                    plucker_distance, schubert_upper_bound)

__version__ = "0.1.0"

__all__ = [
    "Abelianization", "AlexanderMatrix",
    "ClosedFormVerdict", "CyclotomicNumber", "CycloLaurentPoly", "FpkReport",
    "FreeWord", "GradedDescription", "IntegerLattice", "LaurentPoly",
    "OmegaVerdict", "OrbifoldDatum", "PlaneQuery", "PluckerVector",
    "Presentation", "PresentationSyntaxError", "RationalSubspace",
    "SubspaceArrangement", "TorsionCharacter", "TranslatedIntersection",
    "TranslatedTorus", "VarietyDescription", "WitnessReport", "WitnessStep",
    "abelianize", "alexander_matrix",
    "bareiss_rank", "contains_translated_torus", "coset_reduce",
    "cyclotomic_polynomial", "cyclotomic_rank", "depth1_membership",
    "evaluate_at_character", "evaluate_form", "format_rational",
    "fox_derivative_abelianized", "fpk_report", "generic_rank_on_torus",
    "hnf", "integer_kernel", "intersect_translated",
    "lattice_coset_membership", "lattice_coset_solve",
    "maximal_cover_finiteness", "nonopen_witness",
    "omega1_r1_description", "omega1_r1_membership",
    "omega_codim1_closed_form", "omega_membership", "orbifold_components",
    "orbifold_v1", "parse_presentation", "parse_rational",
    "plucker", "plucker_distance",
    "product_description", "pushforward", "rank_at_character",
    "restrict_matrix_to_translated_torus", "restrict_to_translated_torus",
    "rref", "saturated_integer_points",
    "schubert_equations", "schubert_upper_bound",
    "sigma_membership", "sigma_rho_membership", "snf",
    "tangent_cone_description", "tangent_cone_polys", "wedge_description",
]
