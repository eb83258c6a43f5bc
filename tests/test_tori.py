"""Translated tori, variety descriptions, combinators, intersections."""

import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import builders
import datasets
import oracles
from builders import description_json, full_torus, graded_json, identity_only
from datasets import product_description, wedge_description
from jumploci.omega import omega_membership
from jumploci.qlinalg import RationalSubspace, snf
from jumploci.tori import (
    MAX_VARIABLES,
    GradedDescription,
    TorsionCharacter,
    TranslatedTorus,
    VarietyDescription,
    sigma_rho_membership,
    subspace_from_json,
)
from suites import (character, fraction_rref, fraction_values,
                    intersect_translated, torsion_character_from_json)

F = Fraction


# ---------------------------------------------------------------------------
# torsion characters
# ---------------------------------------------------------------------------

def test_torsion_character_normalizes_mod_one():
    # (3/2, -1/3, 2) over 6: numerators in [0, 6), and over the order when
    # the denominator is not in lowest terms
    w = TorsionCharacter([9, -2, 12], 6)
    assert (w.nums, w.order, w.n) == ((3, 4, 0), 6, 3)
    assert fraction_values(w) == (F(1, 2), F(2, 3), 0)
    assert w == character([F(3, 2), F(-1, 3), 2])
    assert TorsionCharacter([6, -3, 12], 12) == TorsionCharacter([2, 3, 0], 4)
    trivial = TorsionCharacter([4, -8], 4)
    assert (trivial.nums, trivial.order) == ((0, 0), 1)
    assert trivial.is_trivial() and not w.is_trivial()
    assert repr(w) == "TorsionCharacter((1/2, 2/3, 0))"


def test_torsion_character_json_round_trip():
    w = TorsionCharacter([3, 4], 6)
    assert torsion_character_from_json(w.to_json()) == w
    with pytest.raises(ValueError, match="a torsion character entry 1 has a "
                                         "zero denominator"):
        torsion_character_from_json(["1/2", "1/0"])


# ---------------------------------------------------------------------------
# translated tori
# ---------------------------------------------------------------------------

def _point(chi: TorsionCharacter) -> TranslatedTorus:
    """The character chi as a translated torus of dimension 0."""
    return TranslatedTorus(chi, RationalSubspace.zero(chi.n))


def test_equal_cosets_share_canonical_form():
    # same coset of span{(1,1)} entered through different representatives
    a = builders.torus((0, F(1, 2)), [(1, 1)])
    b = builders.torus((F(1, 2), 0), [(1, 1)])
    assert a == b
    assert fraction_values(a.translate) == (0, F(1, 2))
    # representative differing by an integer-lattice step along the direction
    c = builders.torus((0, F(1, 2)), [(1, F(1, 2))])
    d = builders.torus((0, 0), [(1, F(1, 2))])
    assert c == d
    assert fraction_values(c.translate) == (0, 0)


def test_canonical_translate_entries_live_in_unit_box():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 4)
        lam = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        rows = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        t = builders.torus(lam, rows, n)
        assert all(0 <= v < 1 for v in fraction_values(t.translate))
        assert all(0 <= x < t.translate.order for x in t.translate.nums)
        # the canonical representative stays in the original coset
        assert t.contains(_point(character(lam)))


def test_coset_equality_matches_oracle():
    rng = random.Random(62)
    agreements = 0
    through = set()
    for _ in range(120):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        lam1 = [F(rng.randint(0, 5), rng.choice([1, 2, 3])) for _ in range(n)]
        lam2 = [F(rng.randint(0, 5), rng.choice([1, 2, 3])) for _ in range(n)]
        t1 = builders.torus(lam1, rows, n)
        t2 = builders.torus(lam2, rows, n)
        diff = [a - b for a, b in zip(lam1, lam2)]
        same_coset = oracles.oracle_lattice_membership(diff, rows, n)
        assert (t1 == t2) == same_coset
        agreements += same_coset
        # the canonical translate is 0 exactly when lambda is in L + Z^n
        for t, lam in ((t1, lam1), (t2, lam2)):
            on_subtorus = oracles.oracle_lattice_membership(lam, rows, n)
            assert t.through_identity() == on_subtorus
            through.add(on_subtorus)
    assert agreements > 5  # the sample hits both outcomes
    assert through == {True, False}


def test_membership_and_identity_flags():
    t = datasets.closed_omega_component()
    assert t.dim == 2 and not t.through_identity()
    assert t.contains(_point(character([F(1, 2), F(1, 3), F(2, 5)])))
    assert not t.contains(_point(character([0, 0, 0])))
    sub = datasets.surface_subtorus()
    assert sub.through_identity()
    assert sub.contains(sub)
    point = builders.torus([F(1, 2)], [], 1)
    assert point.dim == 0 and not point.through_identity()


def test_containment_of_components():
    plane = builders.torus([0, 0], [(1, 0), (0, 1)], 2)
    line = builders.torus([0, F(1, 2)], [(1, 0)], 2)
    assert plane.contains(line)  # translate differs by lattice-free part? no:
    # (0,1/2) - (0,0) = (0,1/2) lies in Q^2 + Z^2 trivially (full direction)
    skew = builders.torus([0, F(1, 2)], [(1, 0)], 2)
    base = builders.torus([0, 0], [(1, 0)], 2)
    assert not base.contains(skew)
    assert base.contains(builders.torus([0, 0], [], 2))


def test_component_sort_key_orders_by_dimension():
    point = builders.torus([0, F(1, 2)], [], 2)
    line = builders.torus([0, 0], [(1, 0)], 2)
    assert VarietyDescription(2, [line, point]).components == (point, line)


def test_translated_torus_json_round_trip():
    t = datasets.closed_omega_component()
    data = t.to_json()
    assert set(data) == {"lambda", "basis"}
    assert TranslatedTorus.from_json(data, 3) == t
    p = builders.torus([F(1, 3)], [], 1)
    assert TranslatedTorus.from_json(p.to_json(), 1) == p


def _json_entry(rng, value: Fraction):
    """value as a JSON entry: an int, or a "p/q" text in lowest terms or
    not (as "2/2" or "-3/6"), or a plain integer text."""
    k = rng.choice([1, 1, 2, 3])
    if value.denominator == 1 and rng.random() < 0.3:
        return int(value) if rng.random() < 0.5 else str(int(value))
    return f"{value.numerator * k}/{value.denominator * k}"


def test_component_from_json_matches_the_fraction_reader():
    """On random components (bases off the coordinate axes, negative
    entries, unreduced and mixed denominators), reading on integers gives
    the component built from the Fraction reader's values, and
    through_identity() agrees with the definition."""
    rng = random.Random(67)
    through = Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                 for _ in range(n)] for _ in range(rng.randint(0, n))]
        lam = _translate(rng, n, rows, rng.choice(("integral", "random", "on")))
        data = {"lambda": [_json_entry(rng, x) for x in lam],
                "basis": [[_json_entry(rng, x) for x in row] for row in rows]}
        expected = builders.torus(
            oracles.json_rationals(data["lambda"], "lambda"),
            oracles.json_rational_rows(data["basis"], "basis"), n)
        got = TranslatedTorus.from_json(data, n)
        assert got == expected
        assert (fraction_values(got.translate)
                == fraction_values(expected.translate))
        assert got.to_json() == expected.to_json()
        on = oracles.oracle_lattice_membership(lam, rows, n)
        assert got.through_identity() == on
        through[on] += 1
    assert min(through.values()) > 30
    # an integral lambda written with denominators
    t = TranslatedTorus.from_json({"lambda": ["2/2", "-3/3"], "basis": []}, 2)
    assert t.through_identity() and fraction_values(t.translate) == (0, 0)
    t = TranslatedTorus.from_json({"lambda": ["-3/6", "0"], "basis": []}, 2)
    assert fraction_values(t.translate) == (F(1, 2), 0)


def test_subspace_from_json_reads_each_row_over_its_own_denominator():
    expected = RationalSubspace.from_rows([(F(1, 2), F(1, 3)), (2, 0)], 2)
    assert subspace_from_json([["1/2", "1/3"], [2, 0]]) == expected
    assert subspace_from_json({"n": 2, "basis": [[3, 2], ["4/2", 0]]}, 2) \
        == expected
    assert subspace_from_json({"basis": []}, 3) == RationalSubspace.zero(3)
    with pytest.raises(ValueError, match="^a subspace's 'basis' row 1 entry 0 "
                                         "has a zero denominator$"):
        subspace_from_json([[1], ["0/0"]])


def test_readers_refuse_more_coordinates_than_max_variables():
    """A description, graded description, plane or subspace in Q^n with
    n above MAX_VARIABLES is refused as it is read, naming the limit and
    the field; n = MAX_VARIABLES is read."""
    top = MAX_VARIABLES
    limit = f", above MAX_VARIABLES = {top}$"
    assert VarietyDescription.from_json(
        {"n": top, "components": []}).ambient_dim == top
    assert subspace_from_json([[1] * top]).ambient_dim == top
    with pytest.raises(ValueError, match="^a variety description's 'n' is "
                                         f"{top + 1}" + limit):
        VarietyDescription.from_json({"n": top + 1, "components": [
            {"lambda": ["1/2"], "basis": []}]})
    with pytest.raises(ValueError, match="^a graded description's 'n' is "
                                         f"{10 ** 9}" + limit):
        GradedDescription.from_json({"n": 10 ** 9, "degrees": {"0": []}})
    with pytest.raises(ValueError, match="^a subspace's 'n' is "
                                         f"{top + 1}" + limit):
        subspace_from_json({"n": top + 1, "basis": []})
    with pytest.raises(ValueError, match="^the length of a subspace's "
                                         f"'basis' row 0 is {top + 1}" + limit):
        subspace_from_json([[0] * (top + 1), ["x"]])


def _old_sort_key(t: TranslatedTorus):
    """The order components had when it was read off the Fraction RREF."""
    return (t.direction.dim, fraction_rref(t.direction),
            fraction_values(t.translate))


def test_description_orders_components_as_the_fraction_rref_does():
    rng = random.Random(68)
    for _ in range(200):
        n = rng.randint(2, 4)
        dim = rng.randint(0, n - 1)
        comps = []
        for _ in range(rng.randint(2, 6)):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(dim)]
            lam = [F(rng.randint(0, 5), rng.choice([2, 3, 5])) for _ in range(n)]
            t = builders.torus(lam, rows, n)
            if t.dim == dim:
                comps.append(t)
        desc = VarietyDescription(n, comps)
        # components of equal dimension never contain one another unless
        # equal, so pruning only drops repeats
        assert list(desc.components) == sorted(set(comps), key=_old_sort_key)


# ---------------------------------------------------------------------------
# variety descriptions
# ---------------------------------------------------------------------------

def test_description_prunes_contained_components():
    full = builders.torus([0, 0], [(1, 0), (0, 1)], 2)
    point = builders.torus([F(1, 2), 0], [], 2)
    desc = VarietyDescription(2, [point, full])
    assert desc.components == (full,)
    kept = datasets.closed_omega_description()
    assert len(kept.components) == 2  # identity not inside the translate


def _pairwise_prune(comps):
    """The distinct components that no other one contains, every pair
    tested, in the canonical order."""
    distinct = set(comps)
    return sorted((c for c in distinct
                   if not any(d != c and d.contains(c) for d in distinct)),
                  key=_old_sort_key)


def test_description_prune_matches_every_pair_tested():
    rng = random.Random(72)
    for _ in range(150):
        n = rng.randint(1, 3)
        comps = []
        for _ in range(rng.randint(2, 9)):
            dim = rng.randint(0, n)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(dim)]
            lam = [F(rng.randint(0, 3), rng.choice([1, 2, 4])) for _ in range(n)]
            comps.append(builders.torus(lam, rows, n))
        # points on the tori drawn, and repeats
        for t in comps[:3]:
            step = [F(rng.randint(-3, 3), 2) for _ in t.direction.rows]
            lam = [x + sum(c * row[i] for c, row in zip(step, t.direction.rows))
                   for i, x in enumerate(fraction_values(t.translate))]
            comps.append(builders.torus(lam, [], n))
        comps += rng.sample(comps, 2)
        rng.shuffle(comps)
        assert list(VarietyDescription(n, comps).components) \
            == _pairwise_prune(comps)


def test_description_of_many_points_reads_in_linear_time():
    # 400 distinct points k/1000007 in Q^1 (17 KB of JSON): equal points are
    # merged and distinct ones never tested against each other; testing
    # every pair with a coset reduction took about 2 s
    data = {"n": 1, "components": [{"lambda": [f"{k}/1000007"], "basis": []}
                                   for k in range(1, 401)]}
    start = time.perf_counter()
    desc = VarietyDescription.from_json(data)
    assert time.perf_counter() - start < 0.2
    assert [fraction_values(c.translate) for c in desc.components] == [
        (F(k, 1000007),) for k in range(1, 401)]
    data["components"] += data["components"][:5] + [
        {"lambda": ["0"], "basis": [[1]]}]
    assert len(VarietyDescription.from_json(data).components) == 1


def test_description_is_order_independent():
    a, b = datasets.closed_omega_description().components
    assert VarietyDescription(3, [a, b]) == VarietyDescription(3, [b, a])


def test_description_union_and_finiteness():
    # a union is the description on both lists of components; it is finite
    # when every component is a point, which is when the maximal cover (the
    # plane Q^n) is a member
    d = datasets.two_component_link_description()
    points = VarietyDescription(2, [builders.torus([F(1, 2), 0], [], 2)])
    full = builders.full_space(2)
    assert not omega_membership(d, full).member
    assert omega_membership(points, full).member
    assert omega_membership(VarietyDescription(2, []), full).member
    merged = VarietyDescription(2, points.components + d.components)
    # the isolated point (1/2, 0) sits on the translated line and is pruned
    assert merged == d
    with pytest.raises(ValueError):
        VarietyDescription(3, points.components)


def test_description_json_round_trip():
    d = datasets.surface_description()
    data = description_json(d)
    assert data["n"] == 6
    assert VarietyDescription.from_json(data) == d


# ---------------------------------------------------------------------------
# graded descriptions
# ---------------------------------------------------------------------------

def test_graded_description_checks_cumulativity():
    with pytest.raises(ValueError, match="not cumulative at degree 1"):
        GradedDescription(2, {
            0: full_torus(2),
            1: identity_only(2)})


def test_graded_description_checks_contiguity():
    with pytest.raises(ValueError, match="contiguous"):
        GradedDescription(2, {
            0: identity_only(2),
            2: full_torus(2)})


def test_graded_description_json_needs_degree_zero():
    for degrees in ({}, {"1": []}):
        with pytest.raises(ValueError, match="'degrees' must include "
                                             "degree 0"):
            GradedDescription.from_json({"n": 1, "degrees": degrees})


def test_graded_description_json_refuses_a_degree_given_twice():
    # "0", "00" and " 0" all read as degree 0: the later list must not
    # silently replace the earlier one
    point = [{"lambda": ["1/2"], "basis": []}]
    circle = [{"lambda": ["0"], "basis": [[1]]}]
    for twin in ("00", " 0", "+0"):
        with pytest.raises(ValueError, match=re.escape(
                f"keys '0' and {twin!r} both name degree 0")):
            GradedDescription.from_json(
                {"n": 1, "degrees": {"0": point, twin: circle}})
    with pytest.raises(ValueError, match="keys '1' and '01' both name "
                                         "degree 1"):
        GradedDescription.from_json(
            {"n": 1, "degrees": {"0": point, "1": circle, "01": circle}})


def test_graded_description_access():
    g = datasets.free2_graded(2)
    assert g.max_degree == 2
    assert g.at(0) == identity_only(2)
    assert g.at(1) == full_torus(2)
    data = graded_json(g)
    assert set(data) == {"n", "degrees"}
    assert GradedDescription.from_json(data) == g


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_wedge_of_circles_fills_the_torus():
    g = datasets.free2_graded(3)
    assert g.at(0) == identity_only(2)
    for i in (1, 2, 3):
        assert g.at(i) == full_torus(2)


def test_wedge_rejects_rank_zero_factor():
    trivial = GradedDescription(0, {0: identity_only(0)})
    with pytest.raises(ValueError, match="positive first Betti"):
        wedge_description(trivial, datasets.circle_graded(1), 1)


def test_product_of_free_squares_degree_one():
    g = datasets.free2_square_graded(2)
    deg1 = g.at(1)
    l2 = RationalSubspace.from_rows([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    l1 = RationalSubspace.from_rows([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    assert [c.direction for c in deg1.components] == [l2, l1]
    assert all(c.through_identity() for c in deg1.components)
    # degree 2 is the full torus (full x full)
    assert g.at(2) == full_torus(4)


def test_product_cube_degrees():
    g = datasets.free2_cube_graded(3)
    assert [c.direction.dim for c in g.at(1).components] == [2, 2, 2]
    assert [c.direction.dim for c in g.at(2).components] == [4, 4, 4]
    deg3 = g.at(3)
    assert len(deg3.components) == 1
    assert deg3.components[0].direction == builders.full_space(6)


def test_product_requires_sufficient_grading():
    with pytest.raises(ValueError, match="graded at least up to"):
        product_description(datasets.circle_graded(0),
                            datasets.circle_graded(1), 1)


def test_product_symmetry_under_coordinate_permutation():
    a = datasets.circle_graded(1)
    b = datasets.free2_graded(1)
    ab = product_description(a, b, 1).at(1)
    ba = product_description(b, a, 1).at(1)

    def rotate(v):                          # (xb1, xb2, xa) -> (xa, xb1, xb2)
        return (v[2],) + tuple(v[:2])

    moved = VarietyDescription(3, [
        builders.torus(rotate(fraction_values(c.translate)),
                       [rotate(row) for row in fraction_rref(c.direction)], 3)
        for c in ba.components])
    assert moved == ab


# ---------------------------------------------------------------------------
# orbifolds
# ---------------------------------------------------------------------------

def test_orbifold_torsion_invariants_use_elementary_divisors():
    # the torsion of a compact orbifold group with cone orders m_i is
    # Z^t / (m_i e_i, (1, ..., 1)); of a punctured one, the sum of Z_{m_i}
    def invariants(rows):
        smith, _ = snf(rows)
        return tuple(d for d in (smith[i][i] for i in range(len(rows[0])))
                     if d > 1)

    # Z_2 + Z_3 modulo the diagonal: order 6 / lcm(2, 3) = 1, no torsion
    assert invariants([[2, 0], [0, 3], [1, 1]]) == ()
    assert invariants([[4, 0], [0, 2], [1, 1]]) == (2,)
    assert invariants([[2, 0], [0, 4]]) == (2, 4)


def test_orbifold_components_materialization():
    # the degree-one loci of three orbifold groups, kept as fixed data
    desc = datasets.orbifold_torus_two_cones()
    point, translate = desc.components
    assert point.dim == 0 and point.through_identity()
    assert fraction_values(translate.translate) == (0, 0, F(1, 2))
    assert translate.direction == RationalSubspace.from_rows(
        [(1, 0, 0), (0, 1, 0)], 3)
    # full case covers the whole image torus plus translated copies
    out = datasets.orbifold_thrice_punctured_sphere()
    dirs = [c.direction.dim for c in out.components]
    assert dirs == [2, 2] and len({fraction_values(c.translate)
                                   for c in out.components}) == 2
    # trivial case is just the identity
    assert datasets.orbifold_annulus() == identity_only(2)
    # through the image directions the translate blocks nothing, while a
    # plane meeting them and leaving them blocks on both descriptions
    inside = RationalSubspace.from_rows([(1, 0, 0)], 3)
    across = RationalSubspace.from_rows([(1, 0, 0), (0, 0, 1)], 3)
    assert omega_membership(desc, inside).member
    assert [reason for _, reason in omega_membership(desc, across).blockers] \
        == ["sigma_rho"]
    assert [reason for _, reason in omega_membership(out, across).blockers] \
        == ["dim_ge_1", "sigma_rho"]


# ---------------------------------------------------------------------------
# intersections and sigma tests
# ---------------------------------------------------------------------------

def test_intersect_translated_self():
    t = datasets.closed_omega_component()
    hit = intersect_translated(t, t)
    assert hit.dim == 2
    assert t.contains(_point(hit.witness))


def test_intersect_translated_surface_components():
    hit = intersect_translated(datasets.surface_subtorus(),
                               datasets.surface_translated())
    assert hit is not None and hit.dim == 0
    assert datasets.surface_subtorus().contains(_point(hit.witness))
    assert datasets.surface_translated().contains(_point(hit.witness))


def test_intersect_translated_parallel_cosets_miss():
    c1 = builders.torus((F(1, 2), 0), [(1, 0)], 2)
    c2 = builders.torus((0, F(1, 3)), [(1, 0)], 2)
    assert intersect_translated(c1, c2) is None
    with pytest.raises(ValueError):
        intersect_translated(c1, datasets.closed_omega_component())


def test_intersect_translated_witness_on_random_pairs():
    rng = random.Random(63)
    nonempty = 0
    for _ in range(80):
        n = rng.randint(1, 3)

        def rand_torus():
            lam = [F(rng.randint(0, 3), rng.choice([1, 2, 3])) for _ in range(n)]
            rows = [[rng.randint(-1, 1) for _ in range(n)]
                    for _ in range(rng.randint(0, n))]
            return builders.torus(lam, rows, n)

        t1, t2 = rand_torus(), rand_torus()
        hit = intersect_translated(t1, t2)
        if hit is not None:
            nonempty += 1
            assert t1.contains(_point(hit.witness))
            assert t2.contains(_point(hit.witness))
            assert hit.dim == t1.direction.intersect(t2.direction).dim
    assert nonempty > 10


def test_sigma_rho_membership_on_arrangement_data():
    plane = datasets.arrangement_test_plane()
    comp = datasets.arrangement_component()
    assert sigma_rho_membership(plane, comp.direction, comp.translate)
    # a plane that misses the direction entirely fails regardless of translate
    miss = RationalSubspace.from_rows(
        [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)], 8)
    assert miss.intersect(comp.direction).is_zero()
    assert not sigma_rho_membership(miss, comp.direction, comp.translate)


def test_sigma_rho_reduces_to_sigma_for_identity_translate():
    rng = random.Random(64)
    trivial = TorsionCharacter([0, 0, 0, 0], 1)
    checked = 0
    for _ in range(60):
        rows_p = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        rows_l = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        P = RationalSubspace.from_rows([[F(x) for x in r] for r in rows_p], 4)
        L = RationalSubspace.from_rows([[F(x) for x in r] for r in rows_l], 4)
        if P.dim != 2 or L.is_zero():
            continue
        checked += 1
        assert sigma_rho_membership(P, L, trivial) == \
            (not P.intersect(L).is_zero())
    assert checked > 20


def test_sigma_rho_equivalent_to_positive_dimensional_intersection():
    rng = random.Random(65)
    both = set()
    for _ in range(80):
        n = 4
        rows_p = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(2)]
        P = RationalSubspace.from_rows([[F(x) for x in r] for r in rows_p], n)
        if P.is_zero():
            continue
        comp = builders.torus(
            [F(rng.randint(0, 2), 2) for _ in range(n)],
            [[rng.randint(-1, 1) for _ in range(n)]
             for _ in range(rng.randint(1, 2))], n)
        direct = sigma_rho_membership(P, comp.direction, comp.translate)
        hit = intersect_translated(
            builders.torus([0] * n, fraction_rref(P), n), comp)
        infinite = hit is not None and hit.dim >= 1
        assert direct == infinite
        both.add(direct)
    assert both == {True, False}


def _translate(rng, n, rows, kind):
    """An integer vector, a random rational vector, or a rational point of
    the span of ``rows`` plus an integer vector."""
    lam = [F(rng.randint(-3, 3)) for _ in range(n)]
    if kind == "random":
        return [F(rng.randint(-6, 6), rng.randint(2, 6)) for _ in range(n)]
    if kind == "on":
        for row in rows:
            c = F(rng.randint(-5, 5), rng.randint(2, 5))
            lam = [a + c * x for a, x in zip(lam, row)]
    return lam


def test_sigma_rho_and_omega_membership_match_the_definition():
    """Both tests against the oracle that reads the translated incidence
    condition off its definition (ranks for P meet L, the determinantal
    criterion for lam in P + L + Z^n), on the raw input and on the
    canonical component.  The sample holds integral and non-integral
    translates, and non-integral ones whose sum P + L has an RREF pivot
    above 1, where the coset test still runs its HNF."""
    rng = random.Random(66)
    seen = Counter()
    for _ in range(250):
        n = rng.randint(2, 5)
        plane_rows = [[rng.randint(-3, 3) for _ in range(n)]
                      for _ in range(rng.randint(1, n))]
        P = RationalSubspace.from_rows(plane_rows, n)
        if P.is_zero():
            continue
        comps, blocking = [], []
        for _ in range(rng.randint(1, 3)):
            rows = [[rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, n - 1))]
            if rng.random() < 0.5:          # make L meet P
                a, b = rng.randint(1, 3), rng.randint(-2, 2)
                rows[0] = [a * x + b * y for x, y in
                           zip(plane_rows[0], plane_rows[-1])]
            kind = rng.choice(("integral", "random", "on"))
            lam = _translate(rng, n, plane_rows + rows, kind)
            expected = oracles.oracle_sigma_rho_membership(
                lam, plane_rows, rows, n)
            comp = builders.torus(lam, rows, n)
            L = comp.direction
            assert sigma_rho_membership(P, L, character(lam)) == expected
            assert sigma_rho_membership(P, L, comp.translate) == expected
            comps.append(comp)
            blocking.append(expected)
            S = P.sum(L)
            wide = max(r[p] for r, p in zip(S.rows, S.pivots)) > 1
            seen[(kind == "integral", wide, expected)] += 1
        verdict = omega_membership(VarietyDescription(n, comps), P)
        assert verdict.member == (not any(blocking))
        for comp, _ in verdict.blockers:
            assert oracles.oracle_sigma_rho_membership(
                fraction_values(comp.translate), plane_rows,
                fraction_rref(comp.direction), n)
    for integral in (True, False):
        for expected in (True, False):
            assert seen[(integral, True, expected)] + \
                seen[(integral, False, expected)] > 10
    assert seen[(False, True, True)] > 10
    assert seen[(False, True, False)] > 10
