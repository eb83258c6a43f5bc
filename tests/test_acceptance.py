"""Acceptance gate: end-to-end criteria with pinned values and time bounds.

Every assertion is exact (rational arithmetic throughout); each test prints a
single PASS line with its wall-clock time, and fails its stated bound if
exceeded.  Run with ``pytest -v`` for the per-criterion verdict lines.
"""

import json
import random
import time
from fractions import Fraction

import datasets
import oracles
import suites
from builders import full_space
from jumploci.cli import main as cli_main
from jumploci.fox import (alexander_matrix, contains_translated_torus,
                          generic_rank_on_torus, parse_presentation,
                          rank_at_character)
from jumploci.laurent import LaurentPoly
from jumploci.omega import (fpk_report, nonopen_witness,
                            omega1_r1_description, omega_codim1_closed_form,
                            omega_membership)
from jumploci.qlinalg import RationalSubspace, schubert_equations
from jumploci.tcone import tangent_cone_description, tangent_cone_polys
from jumploci.tori import VarietyDescription, sigma_rho_membership
from suites import schubert_upper_bound

F = Fraction


class Stopwatch:
    def __init__(self, label, bound_seconds):
        self.label = label
        self.bound = bound_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.bound, (
                f"{self.label}: {elapsed:.2f}s exceeded the {self.bound}s bound")
            print(f"PASS {self.label} ({elapsed:.3f}s < {self.bound}s)")
        return False


def cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def span(*rows):
    return RationalSubspace.from_rows(rows, len(rows[0]))


def random_plane(rng, n, r):
    while True:
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(r)]
        plane = RationalSubspace.from_rows(rows, n)
        if plane.dim == r:
            return plane


def test_01_chain_link_tangent_cone_and_line_exclusions(capsys):
    with Stopwatch("criterion 1: chain-link cone and excluded lines", 1.0):
        cone = tangent_cone_polys([datasets.chain_delta()])
        assert set(cone.subspaces) == {
            span((0, 1, -1)),   # {x1 = 0, x2 + x3 = 0}
            span((1, 0, -1)),   # {x2 = 0, x1 + x3 = 0}
            span((1, -1, 0)),   # {x3 = 0, x1 + x2 = 0}
        }
        assert len(cone.subspaces) == 3
        data = cli_json(capsys, "tcone", "--poly", datasets.CHAIN_DELTA_TEXT)
        assert {tuple(p) for p in data["projective_points"]} == \
            datasets.CHAIN_EXCLUDED_POINTS
        described = cli_json(capsys, "omega-describe", "--r", "1",
                             "--poly", datasets.CHAIN_DELTA_TEXT)
        assert {tuple(p) for p in described["excluded_projective_points"]} == \
            datasets.CHAIN_EXCLUDED_POINTS
        assert len(described["excluded_subspaces"]) == 3
        for point in datasets.CHAIN_EXCLUDED_POINTS:
            assert suites.arrangement_contains_vector(cone, point)
        assert not suites.arrangement_contains_vector(cone, (1, 1, 1))


def test_02_toy_cone_is_origin():
    with Stopwatch("criterion 2: cone of t1 + t2 = 2 is the origin", 1.0):
        cone = tangent_cone_polys([LaurentPoly.parse(datasets.TOY_CONE_TEXT)])
        assert cone.subspaces == (RationalSubspace.zero(2),)
        assert not cone.empty


def test_03_closed_membership_set_from_fox_pipeline():
    with Stopwatch("criterion 3: three-generator group, full pipeline", 5.0):
        pres = parse_presentation(datasets.CLOSED_OMEGA_PRES)
        matrix = alexander_matrix(pres)
        got = tuple(tuple(e.to_text() for e in row) for row in matrix.entries)
        assert got == datasets.CLOSED_OMEGA_MATRIX_TEXT
        component = datasets.closed_omega_component()
        assert generic_rank_on_torus(matrix, component) == 1
        assert rank_at_character(matrix, suites.character((F(1, 3), 0, 0))) == 2

        W = datasets.closed_omega_description()
        member_plane = datasets.closed_omega_member_plane()
        assert omega_membership(W, member_plane).member
        closed = omega_codim1_closed_form(W, 2)
        assert closed.kind == "grassmannian" and closed.subspace == member_plane

        rng = random.Random(301)
        others = 0
        while others < 200:
            plane = random_plane(rng, 3, 2)
            if plane == member_plane:
                continue
            verdict = omega_membership(W, plane)
            assert not verdict.member
            assert suites.closed_form_contains(closed, plane) == verdict.member
            others += 1


def test_04_product_of_free_groups_schubert_agreement():
    with Stopwatch("criterion 4: product of two free groups vs. incidence "
                   "forms", 5.0):
        deg1 = datasets.free2_square_graded(1).at(1)
        l1 = span((0, 0, 1, 0), (0, 0, 0, 1))   # {x1 = x2 = 0}
        l2 = span((1, 0, 0, 0), (0, 1, 0, 0))   # {x3 = x4 = 0}
        assert [c.direction for c in deg1.components] == [l1, l2]

        (form12,) = schubert_equations(l1, 2)
        (form34,) = schubert_equations(l2, 2)
        # up to normalization: a single nonzero coefficient, on p12 / p34
        assert [i for i, c in enumerate(form12) if c != 0] == [0]
        assert [i for i, c in enumerate(form34) if c != 0] == [5]

        rng = random.Random(401)
        member_seen = blocked_seen = 0
        for _ in range(500):
            plane = random_plane(rng, 4, 2)
            coords = oracles.plucker(plane).coords
            expected = all(sum(c * x for c, x in zip(form, coords)) != 0
                           for form in (form12, form34))
            verdict = omega_membership(deg1, plane)
            assert verdict.member == expected
            member_seen += verdict.member
            blocked_seen += not verdict.member
        assert member_seen and blocked_seen


def test_05_two_component_link_closed_forms():
    with Stopwatch("criterion 5: two-component link with essential translate",
                   1.0):
        W = datasets.two_component_link_description()
        cone = tangent_cone_description(W)
        assert cone.subspaces == (RationalSubspace.zero(2),)
        assert omega1_r1_description(cone) == []
        rng = random.Random(501)
        for _ in range(50):
            row = [F(rng.randint(-5, 5)) for _ in range(2)]
            if not any(row):
                continue
            assert not suites.arrangement_contains_vector(cone, row)
            assert omega_membership(W, span(tuple(row))).member
        assert omega_codim1_closed_form(W, 1).kind == "all"
        assert omega_codim1_closed_form(W, 2).kind == "empty"
        assert not omega_membership(W, full_space(2)).member
        assert any(c.dim for c in W.components)


def test_06_translated_line_blocks_while_cone_bound_passes():
    with Stopwatch("criterion 6: translated incidence is strictly sharper "
                   "than the cone bound", 1.0):
        comp = datasets.arrangement_component()
        plane = datasets.arrangement_test_plane()
        assert sigma_rho_membership(plane, comp.direction, comp.translate)
        W = VarietyDescription(8, [comp])
        assert not omega_membership(W, plane).member
        cone = tangent_cone_description(W)
        assert cone.empty
        assert schubert_upper_bound(cone, plane)


def test_07_surface_group_witness_family():
    with Stopwatch("criterion 7: 16-relator surface-bundle group, witness "
                   "family", 120.0):
        pres = parse_presentation(datasets.SURFACE_PRES)
        assert len(pres.relators) == 16
        t1 = datasets.surface_subtorus()
        rho_t2 = datasets.surface_translated()
        matrix = alexander_matrix(pres)
        assert contains_translated_torus(matrix, t1)
        assert contains_translated_torus(matrix, rho_t2)

        W = datasets.surface_description()
        assert W.components == (rho_t2, t1)
        report = nonopen_witness(W, 0, 2, list(range(1, 11)))
        assert report.plane == span((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
        assert report.verdict.member
        distances = [step.plucker_distance for step in report.family]
        assert distances == [F(1, 2 * q) for q in range(1, 11)]
        assert all(a >= b for a, b in zip(distances, distances[1:]))
        assert distances[-1] == F(1, 20)
        assert all(not step.verdict.member for step in report.family)


def test_08_product_cover_homology_deduction():
    with Stopwatch("criterion 8: triple product of free groups, degree-3 "
                   "deduction", 1.0):
        cube = datasets.free2_cube_graded(3)
        deg3 = cube.at(3)
        assert len(deg3.components) == 1
        assert deg3.components[0].direction == full_space(6)
        assert deg3.components[0].through_identity()
        report = fpk_report(cube, 3, 1)
        assert report.certified_empty
        assert "H_3(K) is not finitely generated" in report.deduction


def test_10_dense_prime_order_point_on_the_surface_group(capsys):
    # six nonzero coordinates of order 163: minutes before the ranks at
    # characters worked in Z[zeta_m] without inverses
    lam = [f"{k}/163" for k in (59, 3, 7, 11, 13, 17)]
    desc = json.dumps({"n": 6, "components": [{"lambda": lam, "basis": []}]})
    with Stopwatch("criterion 10: dense order-163 point on the surface group",
                   2.0):
        data = cli_json(capsys, "charvar-check", "--pres",
                        datasets.SURFACE_PRES, "--desc", desc)
        assert data["verified"] is False
        (report,) = data["components"]
        assert not report["generic_contained"]
        assert not report["translate_in_locus"]


def test_09_property_suites():
    with Stopwatch("criterion 9: seven randomized oracle suites", 60.0):
        counts = {fn.__name__: fn() for fn in suites.ALL_SUITES}
        assert len(counts) == 7
        for name, count in counts.items():
            assert count >= 200, f"{name} ran only {count} cases"


def test_11_sixteen_term_support_in_four_variables():
    # twelve +1 and four -3 on random exponents in [-2, 2]^4: 2^16 subset
    # sums, then about 47,000 subspace sums
    rng = random.Random(5)
    exps = set()
    while len(exps) < 16:
        exps.add(tuple(rng.randint(-2, 2) for _ in range(4)))
    coeffs = [1] * 12 + [-3] * 4
    rng.shuffle(coeffs)
    f = LaurentPoly(4, dict(zip(sorted(exps), coeffs)))
    with Stopwatch("criterion 11: 16-term support in four variables", 2.5):
        cone = tangent_cone_polys([f])
        assert cone.subspaces == (RationalSubspace.zero(4),)


def test_12_twenty_thousand_atom_relator(capsys):
    # minutes while every juxtaposed atom rebuilt and recounted the word;
    # each atom now meets only the top of one syllable stack
    text = "<x1, x2, x3 | " + " ".join(["x1 x2 x1^-1 x3^2"] * 5000) + ">"
    with Stopwatch("criterion 12: a 20,000-atom relator parses and "
                   "alexander exits 0", 2.0):
        (relator,) = parse_presentation(text).relators
        data = cli_json(capsys, "alexander", "--pres", text)
    assert (len(relator.syllables), relator.length()) == (20000, 25000)
    assert data["free_rank"] == 2 and data["torsion_invariants"] == [5000]
    assert (data["matrix"]["rows"], data["matrix"]["cols"]) == (1, 3)
