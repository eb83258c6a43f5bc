"""Worked examples shared across the test suite.

Small links, groups, and variety descriptions with exactly known invariants.
This module only *constructs* objects; every expected value lives in the
tests that use it.
"""

from __future__ import annotations

from fractions import Fraction

from builders import full_torus, identity_only, torus
from jumploci import (
    GradedDescription,
    LaurentPoly,
    RationalSubspace,
    TranslatedTorus,
    VarietyDescription,
)

F = Fraction


# ---------------------------------------------------------------------------
# three-component chain link
# ---------------------------------------------------------------------------

#: Multivariable Alexander polynomial of the closed three-link chain.
CHAIN_DELTA_TEXT = "t1 + t2 + t3 - t1*t2 - t1*t3 - t2*t3"


def chain_delta() -> LaurentPoly:
    return LaurentPoly.parse(CHAIN_DELTA_TEXT)


def chain_lines() -> list[RationalSubspace]:
    """The three tangent-cone lines of the chain-link jump locus."""
    return [
        RationalSubspace.from_rows([(0, 1, -1)], 3),   # {x1 = 0, x2 + x3 = 0}
        RationalSubspace.from_rows([(1, 0, -1)], 3),   # {x2 = 0, x1 + x3 = 0}
        RationalSubspace.from_rows([(1, -1, 0)], 3),   # {x3 = 0, x1 + x2 = 0}
    ]


#: Primitive integer directions of the three excluded projective points.
CHAIN_EXCLUDED_POINTS = {(0, 1, -1), (1, 0, -1), (1, -1, 0)}


# ---------------------------------------------------------------------------
# smallest nontrivial tangent cone: a line with f(1) = 0
# ---------------------------------------------------------------------------

TOY_CONE_TEXT = "t1 + t2 - 2"


# ---------------------------------------------------------------------------
# a 3-generator group whose jump locus is closed under the membership bound:
# W = {1} u rho.{subtorus t1 = const}, with the member set for planes a
# single point of the Grassmannian
# ---------------------------------------------------------------------------

#: Relator words written as differentiated (commutator sugar [u,v] = u v u^-1 v^-1).
CLOSED_OMEGA_PRES = ("<x1, x2, x3 | [x2, x1^2], [x3, x1], "
                     "x1 [x3, x2] x1^-1 [x3, x2]>")

#: Expected Fox-derivative matrix, ascending-exponent text rendering.
CLOSED_OMEGA_MATRIX_TEXT = (
    ("-1 + t2 - t1 + t1*t2", "1 - t1^2", "0"),
    ("-1 + t3", "0", "1 - t1"),
    ("0", "-1 + t3 - t1 + t1*t3", "1 - t2 + t1 - t1*t2"),
)


def closed_omega_component() -> TranslatedTorus:
    """The translated component: order-2 translate of {t1 = 1}."""
    return torus([F(1, 2), 0, 0], [(0, 1, 0), (0, 0, 1)], 3)


def closed_omega_description() -> VarietyDescription:
    return VarietyDescription(
        3, [torus([0, 0, 0], [], 3),
            closed_omega_component()])


def closed_omega_member_plane() -> RationalSubspace:
    """The unique member 2-plane {x1 = 0}."""
    return RationalSubspace.from_rows([(0, 1, 0), (0, 0, 1)], 3)


# ---------------------------------------------------------------------------
# two-generator one-relator group: a single commutator-of-powers relator
# ---------------------------------------------------------------------------

ONE_RELATOR_PRES = "<x1, x2 | x1 x2^2 x1^-1 x2^-2>"


# ---------------------------------------------------------------------------
# two-component link with Alexander polynomial t1 + t2
# ---------------------------------------------------------------------------

def two_component_link_description() -> VarietyDescription:
    """{1} union an order-2 translate of the diagonal subtorus of (C*)^2."""
    return VarietyDescription(
        2, [torus([0, 0], [], 2),
            torus([0, F(1, 2)], [(1, 1)], 2)])


# ---------------------------------------------------------------------------
# rank-8 arrangement group with an essential translated line component
# ---------------------------------------------------------------------------

ARRANGEMENT_LAMBDA = (F(1, 2), F(0), F(1, 2), F(1, 2), F(0), F(1, 2), F(0), F(0))
ARRANGEMENT_MU = (-1, 1, 0, 0, 1, -1, -2, 2)


def arrangement_component() -> TranslatedTorus:
    return torus(ARRANGEMENT_LAMBDA, [ARRANGEMENT_MU], 8)


def arrangement_test_plane() -> RationalSubspace:
    """span{mu, 2*lambda}: blocked by the translated line, invisible to the
    tangent-cone bound."""
    two_lambda = [2 * x for x in ARRANGEMENT_LAMBDA]
    return RationalSubspace.from_rows([ARRANGEMENT_MU, two_lambda], 8)


# ---------------------------------------------------------------------------
# a 6-generator Kaehler-type surface group: 16 relators, two components
# ---------------------------------------------------------------------------

SURFACE_PRES = (
    "<x1, x2, x3, x4, x5, x6 | "
    "[x3^2, x1], [x3^2, x2], "
    "[x2, x1] [x2^x3, x1^x3], "
    "[x3, x4] [x5, x6], "
    "[x1, x4], [x2, x4], [x1, x5], [x2, x5], [x1, x6], [x2, x6], "
    "[x1^x3, x4], [x2^x3, x4], [x1^x3, x5], [x2^x3, x5], "
    "[x1^x3, x6], [x2^x3, x6]>"
)


def surface_subtorus() -> TranslatedTorus:
    """The untranslated component: direction {x1 = x2 = 0}."""
    rows = [(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    return torus([0] * 6, rows, 6)


def surface_translated() -> TranslatedTorus:
    """The essential translate: rho = (1,1,-1,1,1,1) times {x3 = ... = x6 = 0}."""
    return torus([0, 0, F(1, 2), 0, 0, 0],
                 [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], 6)


def surface_description() -> VarietyDescription:
    return VarietyDescription(6, [surface_subtorus(), surface_translated()])


# ---------------------------------------------------------------------------
# orientable 2-orbifold groups, their degree-one loci pushed into (C*)^3 or
# (C*)^2 along a surjection of free abelianizations
# ---------------------------------------------------------------------------

def orbifold_torus_two_cones() -> VarietyDescription:
    """A torus with two order-2 cone points, through the first two
    coordinates: the trivial character and the order-2 translate of the
    image subtorus (every component off the identity)."""
    return VarietyDescription.from_json({"n": 3, "components": [
        {"lambda": ["0", "0", "0"], "basis": []},
        {"lambda": ["0", "0", "1/2"],
         "basis": [["1", "0", "0"], ["0", "1", "0"]]}]})


def orbifold_thrice_punctured_sphere() -> VarietyDescription:
    """A sphere with three punctures and one order-2 cone point (free rank
    2): the whole image subtorus and its order-2 translate."""
    return VarietyDescription.from_json({"n": 3, "components": [
        {"lambda": ["0", "0", "0"],
         "basis": [["1", "0", "0"], ["0", "1", "0"]]},
        {"lambda": ["0", "0", "1/2"],
         "basis": [["1", "0", "0"], ["0", "1", "0"]]}]})


def orbifold_annulus() -> VarietyDescription:
    """An annulus (free rank 1, no torsion): just the trivial character."""
    return VarietyDescription.from_json({"n": 2, "components": [
        {"lambda": ["0", "0"], "basis": []}]})


# ---------------------------------------------------------------------------
# graded descriptions built by combinators: circles, free groups, products
# ---------------------------------------------------------------------------

def _direct_sum(a: TranslatedTorus, b: TranslatedTorus) -> TranslatedTorus:
    lam = a.translate.values + b.translate.values
    p, q = a.ambient_dim, b.ambient_dim
    rows = [row + tuple(Fraction(0) for _ in range(q)) for row in a.direction.basis]
    rows += [tuple(Fraction(0) for _ in range(p)) + row for row in b.direction.basis]
    return torus(lam, rows, p + q)


def product_description(a: GradedDescription, b: GradedDescription,
                        k: int) -> GradedDescription:
    """Graded description of a direct product: degree i is the union over
    p + q = i of componentwise direct sums."""
    n = a.ambient_dim + b.ambient_dim
    if a.max_degree < k or b.max_degree < k:
        raise ValueError("factors must be graded at least up to the target degree")
    out = {}
    for i in range(k + 1):
        comps = []
        for p in range(i + 1):
            for ca in a.at(p).components:
                for cb in b.at(i - p).components:
                    comps.append(_direct_sum(ca, cb))
        out[i] = VarietyDescription(n, comps)
    return GradedDescription(n, out)


def wedge_description(a: GradedDescription, b: GradedDescription,
                      k: int) -> GradedDescription:
    """Graded description of a one-point union, valid when both pieces have
    positive first Betti number: degree 0 is the identity, every degree >= 1
    is the full character torus."""
    if a.ambient_dim == 0 or b.ambient_dim == 0:
        raise ValueError("wedge description requires positive first Betti "
                         "numbers on both sides")
    n = a.ambient_dim + b.ambient_dim
    out = {0: identity_only(n)}
    for i in range(1, k + 1):
        out[i] = full_torus(n)
    return GradedDescription(n, out)


def circle_graded(k: int) -> GradedDescription:
    """A single circle: every degree's description is just the identity."""
    return GradedDescription(
        1, {i: identity_only(1) for i in range(k + 1)})


def free2_graded(k: int) -> GradedDescription:
    """Rank-two free group as a wedge of two circles."""
    c = circle_graded(k)
    return wedge_description(c, c, k)


def free2_square_graded(k: int) -> GradedDescription:
    f2 = free2_graded(k)
    return product_description(f2, f2, k)


def free2_cube_graded(k: int) -> GradedDescription:
    return product_description(free2_square_graded(k), free2_graded(k), k)


#: Finite presentation of the kernel of the diagonal map (F2)^3 ->> Z.
PRODUCT_KERNEL_PRES = ("<a, b, c, x, y | [x, a], [y, a], [x, b], [y, b], "
                       "[a^-1 x, c], [a^-1 y, c], [b^-1 a, c]>")
