"""Builders of library objects from plain Python values, for the tests.

The library reads its inputs in the forms the command line gives them:
polynomial and presentation text, and JSON descriptions.  The tests also
build objects from ints and Fractions and write descriptions back out as
the JSON the command line reads; these helpers do both on the library's
public constructors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from jumploci.fox import FreeWord
from jumploci.laurent import (CyclotomicNumber, LaurentPoly,
                              cyclotomic_polynomial)
from jumploci.qlinalg import RationalSubspace
from jumploci.tori import (GradedDescription, TorsionCharacter,
                           TranslatedTorus, VarietyDescription)


# ---------------------------------------------------------------------------
# subspaces, translated tori and descriptions
# ---------------------------------------------------------------------------

def full_space(n: int) -> RationalSubspace:
    """Q^n itself, the complement of the zero space."""
    return RationalSubspace.zero(n).perp()


def torus(lam, basis_rows, ambient_dim: int | None = None) -> TranslatedTorus:
    """The coset of lam along the span of basis_rows, both given as
    rationals (or anything ``Fraction`` reads)."""
    lam = [Fraction(x) for x in lam]
    den = math.lcm(*(x.denominator for x in lam))
    return TranslatedTorus(
        TorsionCharacter([x.numerator * (den // x.denominator) for x in lam],
                         den),
        RationalSubspace.from_rows(
            basis_rows, len(lam) if ambient_dim is None else ambient_dim))


def identity_only(n: int) -> VarietyDescription:
    """The description whose one component is the trivial character."""
    return VarietyDescription(n, [torus([0] * n, [], n)])


def full_torus(n: int) -> VarietyDescription:
    """The description whose one component is the whole torus (C*)^n."""
    return VarietyDescription(
        n, [TranslatedTorus(TorsionCharacter([0] * n, 1), full_space(n))])


def description_json(desc: VarietyDescription,
                     degree: int | None = None) -> dict:
    """The JSON form that ``VarietyDescription.from_json`` reads back."""
    out = {"n": desc.ambient_dim,
           "components": [c.to_json() for c in desc.components]}
    if degree is not None:
        out["degree"] = degree
    return out


def graded_json(graded: GradedDescription) -> dict:
    """The JSON form that ``GradedDescription.from_json`` reads back."""
    return {"n": graded.ambient_dim,
            "degrees": {str(i): description_json(d)["components"]
                        for i, d in graded.by_degree.items()}}


# ---------------------------------------------------------------------------
# cyclotomic numbers, Laurent polynomials and free words
# ---------------------------------------------------------------------------

def cyclotomic(order: int, value) -> CyclotomicNumber:
    """The rational value as an element of Q(zeta_order)."""
    phi = len(cyclotomic_polynomial(order)) - 1
    return CyclotomicNumber(order, [value] + [0] * (phi - 1))


def cyclotomic_coeffs(z: CyclotomicNumber) -> tuple[Fraction, ...]:
    """The coefficients of z in the basis 1, zeta, ..., as Fractions."""
    return tuple(Fraction(x, z.den) for x in z.num)


def constant(num_vars: int, value) -> LaurentPoly:
    return LaurentPoly(num_vars, {(0,) * num_vars: Fraction(value)})


def monomial(exponents, coeff=1, num_vars: int | None = None) -> LaurentPoly:
    exponents = tuple(int(x) for x in exponents)
    return LaurentPoly(len(exponents) if num_vars is None else num_vars,
                       {exponents: Fraction(coeff)})


def variables(num_vars: int) -> list[LaurentPoly]:
    """t1, ..., t_num_vars."""
    return [monomial([int(i == j) for j in range(num_vars)])
            for i in range(num_vars)]


def generator(index: int, exponent: int = 1) -> FreeWord:
    """The word x_index^exponent (zero-based index)."""
    return FreeWord(((index, exponent),))
