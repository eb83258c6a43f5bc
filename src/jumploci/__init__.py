"""Exact-arithmetic jump loci toolkit.

Computes which free-abelian covers of a space or group have finite Betti
numbers, working from characteristic-variety data: Alexander matrices of
group presentations (Fox calculus), exponential tangent cones of Laurent
polynomial zero sets (minimal zero-sum parts), and incidence theory of
torsion-translated subtori (lattice normal forms, Plücker/Schubert
equations).  All arithmetic is exact — rationals, integers, cyclotomics.
"""

from .qlinalg import (RationalSubspace, coset_reduce_ints, format_rational,
                      hnf, parse_rational, schubert_equations, snf)
from .laurent import (CyclotomicNumber, LaurentPoly,
                      bareiss_rank, cyclotomic_polynomial, cyclotomic_rank)
from .fox import (Abelianization, AlexanderMatrix, FreeWord, Presentation,
                  PresentationSyntaxError, abelianize, alexander_matrix,
                  contains_translated_torus, generic_rank_on_torus,
                  parse_presentation, rank_at_character)
from .tcone import (SubspaceArrangement, tangent_cone_description,
                    tangent_cone_polys)
from .tori import (GradedDescription, TorsionCharacter, TranslatedTorus,
                   VarietyDescription, sigma_rho_membership)
from .omega import (ClosedFormVerdict, FpkReport, OmegaVerdict,
                    WitnessReport, WitnessStep, fpk_report, nonopen_witness,
                    omega1_r1_description, omega_codim1_closed_form,
                    omega_membership)

__version__ = "0.1.0"

__all__ = [
    "Abelianization", "AlexanderMatrix",
    "ClosedFormVerdict", "CyclotomicNumber", "FpkReport",
    "FreeWord", "GradedDescription", "LaurentPoly",
    "OmegaVerdict",
    "Presentation", "PresentationSyntaxError", "RationalSubspace",
    "SubspaceArrangement", "TorsionCharacter",
    "TranslatedTorus", "VarietyDescription", "WitnessReport", "WitnessStep",
    "abelianize", "alexander_matrix",
    "bareiss_rank", "contains_translated_torus", "coset_reduce_ints",
    "cyclotomic_polynomial", "cyclotomic_rank", "format_rational",
    "fpk_report", "generic_rank_on_torus",
    "hnf", "nonopen_witness",
    "omega1_r1_description", "omega_codim1_closed_form", "omega_membership",
    "parse_presentation", "parse_rational",
    "rank_at_character",
    "schubert_equations",
    "sigma_rho_membership", "snf",
    "tangent_cone_description", "tangent_cone_polys",
]
