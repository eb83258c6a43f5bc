"""Membership verdicts, closed forms, bounds, witnesses, finiteness reports."""

import random
from fractions import Fraction

import pytest

import builders
import datasets
from jumploci.omega import (
    OmegaVerdict,
    fpk_report,
    nonopen_witness,
    omega1_r1_description,
    omega_codim1_closed_form,
    omega_membership,
    plucker_distance,
)
from jumploci.qlinalg import RationalSubspace, plucker
from jumploci.tcone import (SubspaceArrangement, tangent_cone_description,
                            tangent_cone_polys)
from jumploci.tori import GradedDescription, VarietyDescription
from suites import (arrangement_contains_vector, closed_form_contains,
                    schubert_upper_bound)

F = Fraction


def span(*rows):
    return RationalSubspace.from_rows(rows, len(rows[0]))


# ---------------------------------------------------------------------------
# queries and verdicts
# ---------------------------------------------------------------------------

def test_membership_refuses_the_zero_plane():
    W = datasets.closed_omega_description()
    assert omega_membership(W, builders.full_space(3)).member is False
    with pytest.raises(ValueError, match="^a plane query needs 1 <= dim "
                                         "<= ambient_dim$"):
        omega_membership(W, RationalSubspace.zero(3))


def test_verdict_consistency_check():
    comp = datasets.closed_omega_component()
    with pytest.raises(ValueError):
        OmegaVerdict(member=True, blockers=((comp, "sigma_rho"),))
    with pytest.raises(ValueError):
        OmegaVerdict(member=False, blockers=())
    v = OmegaVerdict(member=False, blockers=((comp, "sigma_rho"),))
    data = v.to_json()
    assert data["member"] is False
    assert data["blockers"][0]["reason"] == "sigma_rho"


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_closed_omega_planes():
    W = datasets.closed_omega_description()
    good = omega_membership(W, datasets.closed_omega_member_plane())
    assert good.member and good.blockers == ()
    bad = omega_membership(W, span((1, 0, 0), (0, 1, 0)))
    assert not bad.member
    ((comp, reason),) = bad.blockers
    assert comp == datasets.closed_omega_component()
    assert reason == "sigma_rho"


def test_membership_all_lines_pass_closed_omega():
    W = datasets.closed_omega_description()
    rng = random.Random(71)
    for _ in range(40):
        row = [F(rng.randint(-3, 3)) for _ in range(3)]
        if not any(row):
            continue
        assert omega_membership(W, span(tuple(row))).member


def test_membership_product_of_free_groups():
    W = datasets.free2_square_graded(1).at(1)
    blocked = omega_membership(W, span((1, 0, 0, 0), (0, 0, 1, 0)))
    assert not blocked.member
    assert {reason for _, reason in blocked.blockers} == {"dim_ge_1"}
    assert len(blocked.blockers) == 2  # meets both coordinate 2-tori
    ok = omega_membership(W, span((1, 0, 1, 0), (0, 1, 0, 1)))
    assert ok.member


def test_membership_two_component_link_blocks_full_plane():
    W = datasets.two_component_link_description()
    verdict = omega_membership(W, span((1, 0), (0, 1)))
    assert not verdict.member
    ((comp, reason),) = verdict.blockers
    assert reason == "sigma_rho"
    assert comp.direction == span((1, 1))


def test_membership_point_components_never_block():
    W = VarietyDescription(2, [
        builders.torus([F(1, 2), F(1, 2)], [], 2)])
    assert omega_membership(W, span((1, 0), (0, 1))).member


def test_membership_ambient_mismatch():
    with pytest.raises(ValueError):
        omega_membership(datasets.closed_omega_description(), span((1, 0)))


# ---------------------------------------------------------------------------
# line closed form
# ---------------------------------------------------------------------------

def test_line_description_for_chain_cone():
    cone = tangent_cone_polys([datasets.chain_delta()])
    excluded = omega1_r1_description(cone)
    assert set(excluded) == set(datasets.chain_lines())
    assert not arrangement_contains_vector(cone, (1, 1, 1))
    assert not arrangement_contains_vector(cone, (1, 2, 3))
    for pt in datasets.CHAIN_EXCLUDED_POINTS:
        assert arrangement_contains_vector(cone, pt)


def test_line_description_drops_origin_component():
    # {0}-only arrangements exclude no line
    trivial = SubspaceArrangement(3, [RationalSubspace.zero(3)])
    assert omega1_r1_description(trivial) == []
    assert not arrangement_contains_vector(trivial, (1, 0, 0))


@pytest.mark.parametrize("W", [
    datasets.free2_square_graded(1).at(1),
    datasets.free2_cube_graded(1).at(1),
    VarietyDescription(6, [datasets.surface_subtorus()]),
], ids=["F2xF2", "F2^3", "surface-subtorus"])
def test_line_membership_matches_tangent_cone_closed_form(W):
    # through the identity, a line is blocked iff it lies in a component's
    # direction, which is the line closed form on the tangent cone
    comps = [c for c in W.components if c.direction.dim >= 1]
    assert comps and all(c.through_identity() for c in W.components)
    cone = tangent_cone_description(W)
    rng = random.Random(72)
    outcomes = set()
    for _ in range(60):
        if rng.random() < 0.5:
            # a line inside a random component's direction
            basis = rng.choice(comps).direction.basis
            row = [sum((rng.randint(-2, 2) * b[i] for b in basis), F(0))
                   for i in range(W.ambient_dim)]
        else:
            row = [F(rng.randint(-2, 2)) for _ in range(W.ambient_dim)]
        if not any(row):
            continue
        member = omega_membership(W, span(tuple(row))).member
        assert member == (not arrangement_contains_vector(cone, row))
        outcomes.add(member)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# codimension-one closed form
# ---------------------------------------------------------------------------

def test_closed_form_for_closed_omega_description():
    W = datasets.closed_omega_description()
    all_lines = omega_codim1_closed_form(W, 1)
    assert all_lines.kind == "all"
    assert closed_form_contains(all_lines, span((1, 2, 3)))
    grass = omega_codim1_closed_form(W, 2)
    assert grass.kind == "grassmannian"
    assert grass.subspace == span((0, 1, 0), (0, 0, 1))
    assert closed_form_contains(grass, datasets.closed_omega_member_plane())
    assert not closed_form_contains(grass, span((1, 0, 0), (0, 1, 0)))
    empty = omega_codim1_closed_form(W, 3)
    assert empty.kind == "empty"
    assert not closed_form_contains(empty, builders.full_space(3))


def test_closed_form_for_two_component_link():
    W = datasets.two_component_link_description()
    assert omega_codim1_closed_form(W, 1).kind == "all"
    assert omega_codim1_closed_form(W, 2).kind == "empty"


def test_closed_form_agrees_with_membership_on_closed_omega():
    W = datasets.closed_omega_description()
    rng = random.Random(72)
    grass = omega_codim1_closed_form(W, 2)
    for _ in range(60):
        rows = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(2)]
        P = RationalSubspace.from_rows(rows, 3)
        if P.dim != 2:
            continue
        assert closed_form_contains(grass, P) == omega_membership(W, P).member


def test_closed_form_rejects_unsuitable_descriptions():
    with pytest.raises(ValueError, match="exactly one"):
        omega_codim1_closed_form(datasets.surface_description(), 2)
    with pytest.raises(ValueError, match="codimension one"):
        omega_codim1_closed_form(
            VarietyDescription(6, [datasets.surface_translated()]), 2)
    with pytest.raises(ValueError, match="proper translates"):
        omega_codim1_closed_form(VarietyDescription(2, [
            builders.torus([0, 0], [(1, 0)], 2)]), 1)
    with pytest.raises(ValueError, match="r must be"):
        omega_codim1_closed_form(datasets.closed_omega_description(), 0)


# ---------------------------------------------------------------------------
# Schubert bound
# ---------------------------------------------------------------------------

def test_schubert_bound_on_chain_cone():
    cone = tangent_cone_polys([datasets.chain_delta()])
    assert schubert_upper_bound(cone, span((1, 1, 1)))
    assert not schubert_upper_bound(cone, span((0, 1, -1)))
    assert schubert_upper_bound(cone, span((1, 0, 0), (0, 1, 1)))
    # planes containing an excluded line fail
    assert not schubert_upper_bound(cone, span((0, 1, -1), (1, 0, 0)))


def test_schubert_bound_is_strictly_weaker_than_membership():
    # one essential translate: the tangent cone is empty, so the bound
    # passes every plane, yet the translated incidence test blocks this one
    comp = datasets.arrangement_component()
    W = VarietyDescription(8, [comp])
    cone = tangent_cone_description(W)
    assert cone.empty
    plane = datasets.arrangement_test_plane()
    assert schubert_upper_bound(cone, plane)
    assert not omega_membership(W, plane).member


def test_schubert_bound_checks_ambient_dim():
    cone = tangent_cone_polys([datasets.chain_delta()])
    with pytest.raises(ValueError):
        schubert_upper_bound(cone, span((1, 0)))


# ---------------------------------------------------------------------------
# Plücker distance and the non-openness witness
# ---------------------------------------------------------------------------

def test_plucker_distance_values():
    assert plucker_distance(plucker(span((1, 0))), plucker(span((1, 1)))) == 1
    assert plucker_distance(plucker(span((1, 0, 0), (0, 1, 0))),
                            plucker(span((1, 0, 0), (0, 1, F(1, 4))))) == F(1, 4)
    same = plucker(span((2, 4)))
    assert plucker_distance(same, plucker(span((1, 2)))) == 0
    with pytest.raises(ValueError):
        plucker_distance(plucker(span((1, 0))), plucker(span((1, 0, 0))))


def test_witness_family_for_surface_description():
    qs = [1, 2, 3, 4, 10]
    surface = nonopen_witness(datasets.surface_description(), 0, 2, qs)
    distances = [step.plucker_distance for step in surface.family]
    assert distances == [F(1, 2), F(1, 4), F(1, 6), F(1, 8), F(1, 20)]
    assert surface.to_json()["family"][0]["plucker_distance"] == "1/2"
    # the member and blocked flags, here and on the closed-Omega description
    # (component 1: the order-2 translate of {t1 = 1})
    closed = nonopen_witness(datasets.closed_omega_description(), 1, 2, qs)
    for report, plane in (
            (surface, span((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))),
            (closed, datasets.closed_omega_member_plane())):
        assert report.plane == plane
        assert report.verdict.member
        for step in report.family:
            assert not step.verdict.member
            assert step.q >= 1
        data = report.to_json()
        assert data["member"] is True
        assert [s["member"] for s in data["family"]] == [False] * 5


def test_witness_rejects_component_through_identity():
    with pytest.raises(ValueError, match=r"hypothesis \(1\)"):
        nonopen_witness(datasets.surface_description(), 1, 2, [1])


def test_witness_rejects_parallel_component_on_subtorus():
    untranslated = builders.torus(
        [0] * 6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], 6)
    W = VarietyDescription(6, list(datasets.surface_description().components)
                           + [untranslated])
    target = [i for i, c in enumerate(W.components)
              if c == datasets.surface_translated()][0]
    with pytest.raises(ValueError, match=r"hypothesis \(2\)"):
        nonopen_witness(W, target, 2, [1])


def test_witness_rejects_transverse_meeting_component():
    crossing = builders.torus(
        [F(1, 2), 0, 0, 0, 0, 0],
        [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 6)
    W = VarietyDescription(6, [datasets.surface_translated(), crossing])
    target = [i for i, c in enumerate(W.components)
              if c == datasets.surface_translated()][0]
    with pytest.raises(ValueError, match=r"hypothesis \(3\)"):
        nonopen_witness(W, target, 2, [1])


def test_witness_parameter_validation():
    W = datasets.surface_description()
    with pytest.raises(ValueError, match="index out of range"):
        nonopen_witness(W, 5, 2, [1])
    with pytest.raises(ValueError, match="need 2 <= r"):
        nonopen_witness(W, 0, 1, [1])
    with pytest.raises(ValueError, match="need 2 <= r"):
        nonopen_witness(W, 0, 3, [1])
    with pytest.raises(ValueError, match="positive"):
        nonopen_witness(W, 0, 2, [0])


# ---------------------------------------------------------------------------
# finiteness reporters
# ---------------------------------------------------------------------------

def test_maximal_cover_finiteness():
    # the maximal free-abelian cover, the plane Q^n, has finite Betti
    # numbers iff W is finite: every component a point
    for W in (datasets.two_component_link_description(),
              datasets.closed_omega_description()):
        assert not omega_membership(W, builders.full_space(W.ambient_dim)).member
    for W in (builders.identity_only(3), VarietyDescription(3, []),
              VarietyDescription(2, [builders.torus([F(1, 3), 0], [], 2),
                                     builders.torus([0, F(1, 2)], [], 2)])):
        assert omega_membership(W, builders.full_space(W.ambient_dim)).member


def test_fpk_certifies_full_torus_degree():
    cube = datasets.free2_cube_graded(3)
    report = fpk_report(cube, 3, 1)
    assert report.certified_empty
    assert "codimension 0" in report.reason
    assert "H_3(K) is not finitely generated" in report.deduction
    data = report.to_json()
    assert data["certified_empty"] is True and "deduction" in data


def test_fpk_certification_depends_on_r():
    cube = datasets.free2_cube_graded(3)
    assert not fpk_report(cube, 2, 1).certified_empty
    assert fpk_report(cube, 2, 3).certified_empty
    assert not fpk_report(cube, 1, 1).certified_empty
    assert fpk_report(cube, 1, 5).certified_empty
    low = fpk_report(cube, 1, 1)
    assert low.deduction is None and "not certified" in low.reason


def test_fpk_ignores_translated_components():
    # a translated codim-1 line cannot certify emptiness even for large r
    deg1 = VarietyDescription(
        2, list(datasets.two_component_link_description().components))
    graded = GradedDescription(2, {0: builders.identity_only(2), 1: deg1})
    report = fpk_report(graded, 1, 2)
    assert not report.certified_empty
