"""Exponential tangent cones and subspace arrangements."""

import inspect
import random
from fractions import Fraction

import pytest

import builders
import datasets
import oracles
from jumploci.laurent import LaurentPoly
from jumploci.qlinalg import RationalSubspace, clear_denominators
from jumploci.tcone import (
    DEFAULT_SUPPORT_LIMIT,
    SUBSET_SUM_LIMIT,
    SubspaceArrangement,
    _poly_cone,
    _prune_subspaces,
    tangent_cone_description,
    tangent_cone_polys,
)
from suites import arrangement_contains_vector, arrangement_from_json

F = Fraction

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
B1, B2, B3 = (0, 1, 1), (1, 0, 1), (1, 1, 0)  # e2+e3, e1+e3, e1+e2


# ---------------------------------------------------------------------------
# tangent cones of one polynomial
# ---------------------------------------------------------------------------

def _in_part_kernel(parts, n=3):
    """L(p): the common kernel of the in-part exponent differences."""
    rows = [[a - b for a, b in zip(e, part[0])]
            for part in parts for e in part[1:]]
    return RationalSubspace.from_rows(rows, n).perp()


def test_chain_polynomial_has_three_maximal_partitions():
    # the maximal admissible partitions of the chain support are the three
    # matchings below, and the cone is the union of their subspaces L(p)
    matchings = ([[E1, B1], [E2, B3], [E3, B2]],
                 [[E1, B3], [E2, B2], [E3, B1]],
                 [[E1, B2], [E2, B1], [E3, B3]])
    cone = tangent_cone_polys([datasets.chain_delta()])
    assert set(cone.subspaces) == {_in_part_kernel(m) for m in matchings}
    assert set(cone.subspaces) == set(datasets.chain_lines())


def test_single_block_partition_of_toy_polynomial():
    # the one maximal partition is the whole support, so the cone is {0}
    toy = LaurentPoly.parse(datasets.TOY_CONE_TEXT)
    cone = tangent_cone_polys([toy])
    assert cone.subspaces == (RationalSubspace.zero(2),)
    assert not cone.empty


def test_no_partition_when_identity_misses_variety():
    assert tangent_cone_polys([LaurentPoly.parse("t1 + t2")]).empty
    assert tangent_cone_polys([LaurentPoly.parse("3")]).empty


def test_partition_enumeration_guard_rails():
    with pytest.raises(ValueError, match="zero polynomial"):
        tangent_cone_polys([LaurentPoly(2, {})])
    big = builders.monomial((8,), -8, 1)
    for k in range(8):
        big = big + builders.monomial((k,), 1, 1)
    with pytest.raises(ValueError, match="exceeds the enumeration limit"):
        tangent_cone_polys([big], max_support=8)
    assert tangent_cone_polys([big], max_support=9).subspaces == (
        RationalSubspace.zero(1),)


def test_partition_subspace_frozen():
    sub = _in_part_kernel([[E2, B3], [E3, B2], [E1, B1]])
    assert sub == RationalSubspace.from_rows([(0, 1, -1)], 3)
    assert sub in tangent_cone_polys([datasets.chain_delta()]).subspaces


def test_subspace_of_trivial_partition_is_full():
    # singleton parts have no in-part differences, so L(p) is everything;
    # they do not sum to zero, and the cone of (t1 - 1)(t2 + 1) is {z1 = 0}
    f = LaurentPoly.parse("t1 - t2 + t1*t2 - 1")
    assert _in_part_kernel([[e] for e in sorted(f.terms)], 2) == \
        builders.full_space(2)
    assert tangent_cone_polys([f]).subspaces == (line(0, 1),)


def _one_parameter_sum(f: LaurentPoly, z):
    """Collect f(s^z1, ..., s^zn) as {exponent: coefficient} in one variable s."""
    collected = {}
    for expo, coeff in f.terms.items():
        level = sum(a * b for a, b in zip(expo, z))
        collected[level] = collected.get(level, 0) + coeff
    return {k: v for k, v in collected.items() if v != 0}


def test_cone_directions_kill_one_parameter_substitution():
    f = datasets.chain_delta()
    cone = tangent_cone_polys([f])
    for sub in cone.subspaces:
        for row in sub.basis:
            z = clear_denominators(row)
            assert _one_parameter_sum(f, z) == {}
            assert _one_parameter_sum(f, [-c for c in z]) == {}
            assert _one_parameter_sum(f, [3 * c for c in z]) == {}
    # a direction outside the cone does not
    assert _one_parameter_sum(f, (1, 1, 1)) != {}
    assert _one_parameter_sum(f, (1, 2, 3)) != {}


def test_random_polynomials_against_partition_oracle():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(2, 3)
        f = LaurentPoly(n, {})
        for _ in range(rng.randint(2, 5)):
            expo = tuple(rng.randint(-1, 2) for _ in range(n))
            f = f + builders.monomial(expo, rng.choice([-2, -1, 1, 2]), n)
        if f.is_zero():
            continue
        ours = set(tangent_cone_polys([f]).subspaces)
        theirs = {
            RationalSubspace.from_rows([[F(x) for x in row] for row in rows], n)
            for rows in oracles.oracle_tangent_cone(
                {tuple(e): F(c) for e, c in f.terms.items()}, n)
        }
        assert ours == theirs


def _oracle_cone(f: LaurentPoly) -> SubspaceArrangement:
    n = f.num_vars
    return SubspaceArrangement(n, [
        RationalSubspace.from_rows([[F(x) for x in row] for row in rows], n)
        for rows in oracles.oracle_tangent_cone(dict(f.terms), n)])


def _random_poly(rng, n, size, coeffs, on_identity):
    """A polynomial with up to ``size`` terms; f(1) = 0 when on_identity."""
    terms = {}
    for _ in range(size):
        expo = tuple(rng.randint(-2, 2) for _ in range(n))
        terms[expo] = terms.get(expo, 0) + rng.choice(coeffs)
    if on_identity:
        anchor = next(iter(terms))
        terms[anchor] -= sum(terms.values())
    return LaurentPoly(n, {e: F(c) for e, c in terms.items() if c != 0})


@pytest.mark.parametrize("seed, coeffs", [
    (1, (-1, 1)),
    (2, (2, -1, -1, 3, -3, 1, -2)),     # minimal parts of sizes 2, 3 and 4
    (3, (F(1, 2), F(-3, 2), 1, -1, 2)),
])
def test_minimal_part_cone_matches_oracle_and_enumeration(seed, coeffs):
    rng = random.Random(seed)
    checked = 0
    for i in range(24):
        f = _random_poly(rng, rng.randint(2, 4), rng.randint(2, 8), coeffs,
                         on_identity=i % 4 != 3)
        if f.is_zero():
            continue
        cone = tangent_cone_polys([f])
        assert cone == _oracle_cone(f), f
        assert cone.empty == (f.coefficient_sum() != 0)
        checked += 1
    assert checked >= 20


def test_poly_cone_matches_the_partition_oracle_on_mixed_coefficients():
    # parse gives int coefficients where they are integral and Fractions
    # elsewhere, so the subset sums must take both
    rng = random.Random(19)
    checked = 0
    for _ in range(120):
        n, k = rng.randint(1, 4), rng.randint(2, 8)
        terms = {}
        for _ in range(k):
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            terms[e] = rng.choice([1, -1, 2, -3, F(1, 2), F(-3, 2), F(2, 3)])
        anchor = rng.choice(sorted(terms))
        terms[anchor] -= sum(terms.values())
        if terms[anchor] == 0:
            del terms[anchor]
        elif terms[anchor].denominator == 1:
            terms[anchor] = int(terms[anchor])
        if len(terms) < 2:
            continue
        f = LaurentPoly._make(n, terms)
        cone = _poly_cone(f)
        assert len(set(cone)) == len(cone), f
        assert set(cone) == set(_oracle_cone(f).subspaces), f
        checked += 1
    assert checked >= 100


def test_prune_subspaces_keeps_maximal_members_only():
    assert list(inspect.signature(_prune_subspaces).parameters) == ["subs"]
    a, b = line(1, 0, 0), line(0, 1, 0)
    plane = RationalSubspace.from_rows([(1, 0, 0), (0, 1, 0)], 3)
    assert _prune_subspaces([a, plane, b, a, RationalSubspace.zero(3)]) == [
        plane]
    assert sorted(_prune_subspaces([b, a, b]), key=lambda s: s.rows) == [b, a]


def test_minimal_parts_of_different_sizes():
    # coefficients 2, -1, -1, 3, -3, 1, -1: zero-sum parts such as {3, -3},
    # {1, -1}, {2, -1, -1} and {2, -3, 1}
    f = LaurentPoly.parse("2*t1 - t2 - t3 + 3*t1*t2 - 3*t2*t3 + t1*t3 - 1", 3)
    assert tangent_cone_polys([f]) == _oracle_cone(f)
    g = LaurentPoly.parse("2*t1 - t1^2 - 1", 1)   # -(t1 - 1)^2: one part
    assert tangent_cone_polys([g]).subspaces == (RationalSubspace.zero(1),)


def test_two_polynomial_systems_match_oracle():
    rng = random.Random(77)
    for i in range(15):
        n = rng.randint(2, 4)
        f = _random_poly(rng, n, rng.randint(2, 7), (2, -1, 1, -2, 3),
                         on_identity=True)
        g = _random_poly(rng, n, rng.randint(2, 6), (1, -1, 2),
                         on_identity=i % 5 != 4)
        if f.is_zero() or g.is_zero():
            continue
        expected = _oracle_cone(f).intersect(_oracle_cone(g))
        assert tangent_cone_polys([f, g]) == expected, (f, g)
        assert tangent_cone_polys([g, f]) == expected


def test_cone_of_product_at_support_limit_is_coordinate_hyperplanes():
    f = LaurentPoly.parse("t1 - 1", 4)
    for i in range(2, 5):
        f = f * LaurentPoly.parse(f"t{i} - 1", 4)
    assert len(f.terms) == DEFAULT_SUPPORT_LIMIT == 16
    hyperplanes = {RationalSubspace.from_rows(
        [[int(j == i) for j in range(4)] for i in range(4) if i != skip], 4)
        for skip in range(4)}
    assert set(tangent_cone_polys([f]).subspaces) == hyperplanes
    g = f + builders.monomial((5, 0, 0, 0), 1, 4) \
        - builders.monomial((6, 0, 0, 0), 1, 4)
    with pytest.raises(ValueError, match="enumeration limit 16.*exponentially"):
        tangent_cone_polys([g])
    with pytest.raises(ValueError, match="enumeration limit 16"):
        tangent_cone_polys([LaurentPoly.parse("t1 - 1", 4), g])


def test_support_beyond_subset_sum_table_is_rejected_before_allocating():
    k = SUBSET_SUM_LIMIT + 1
    f = LaurentPoly.parse(" + ".join(f"t1^{i}" for i in range(1, k))
                          + f" - {k - 1}")
    assert len(f.terms) == k
    # 2^34 table slots would take more than 100 GB: the check must come first.
    with pytest.raises(ValueError, match=rf"2\^{k} subset sums.*at most "
                                         rf"{SUBSET_SUM_LIMIT} terms"):
        tangent_cone_polys([f], max_support=34)


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

def line(*coords):
    return RationalSubspace.from_rows([coords], len(coords))


def test_arrangement_prunes_contained_subspaces():
    plane = RationalSubspace.from_rows([(1, 0, 0), (0, 1, 0)], 3)
    arr = SubspaceArrangement(3, [line(1, 0, 0), plane, line(0, 0, 1)])
    assert arr.subspaces == (line(0, 0, 1), plane)
    assert not arr.empty


def test_arrangement_empty_versus_origin():
    empty = SubspaceArrangement.empty_arrangement(3)
    origin = SubspaceArrangement(3, [RationalSubspace.zero(3)])
    assert empty.empty
    assert not origin.empty
    assert empty != origin
    assert not arrangement_contains_vector(empty, (0, 0, 0))
    assert arrangement_contains_vector(origin, (0, 0, 0))
    assert not arrangement_contains_vector(origin, (1, 0, 0))


def test_arrangement_empty_flag_consistency():
    assert SubspaceArrangement(2, [line(1, 0)]).subspaces == (line(1, 0),)
    data = SubspaceArrangement(2, [line(1, 0)]).to_json()
    data["empty"] = True
    with pytest.raises(ValueError, match="empty flag inconsistent"):
        arrangement_from_json(data)


def test_arrangement_union_and_intersection():
    # the union of two arrangements is the one on both lists of subspaces
    a = SubspaceArrangement(2, [line(1, 0)])
    b = SubspaceArrangement(2, [line(0, 1)])
    both = SubspaceArrangement(2, a.subspaces + b.subspaces)
    assert both.subspaces == (line(0, 1), line(1, 0))
    met = both.intersect(SubspaceArrangement(2, [line(1, 1)]))
    assert met.subspaces == (RationalSubspace.zero(2),)
    assert a.intersect(SubspaceArrangement.empty_arrangement(2)).empty
    diag = SubspaceArrangement(2, [line(1, 1)])
    assert diag.intersect(diag) == diag
    with pytest.raises(ValueError):
        a.intersect(SubspaceArrangement(3, [line(1, 0, 0)]))


def test_arrangement_contains_vector():
    arr = tangent_cone_polys([datasets.chain_delta()])
    assert arrangement_contains_vector(arr, (0, 2, -2))
    assert arrangement_contains_vector(arr, (F(1, 2), 0, F(-1, 2)))
    assert not arrangement_contains_vector(arr, (1, 1, 1))


def test_arrangement_json_round_trip():
    arr = tangent_cone_polys([datasets.chain_delta()])
    data = arr.to_json()
    assert data["ambient_dim"] == 3 and data["empty"] is False
    assert arrangement_from_json(data) == arr
    empty = SubspaceArrangement.empty_arrangement(2)
    assert arrangement_from_json(empty.to_json()) == empty
    data["subspaces"][-1][0][1] = "1/0"
    with pytest.raises(ValueError, match=(
            f"an arrangement's 'subspaces' item {len(data['subspaces']) - 1} "
            "row 0 entry 1 has a zero denominator")):
        arrangement_from_json(data)


# ---------------------------------------------------------------------------
# tangent cones of zero sets and of descriptions
# ---------------------------------------------------------------------------

def test_chain_cone_is_three_lines():
    cone = tangent_cone_polys([datasets.chain_delta()])
    assert set(cone.subspaces) == set(datasets.chain_lines())
    # canonical arrangement order: dimension first, then basis rows
    assert [s.basis[0] for s in cone.subspaces] == [
        (0, 1, -1), (1, -1, 0), (1, 0, -1)]


def test_cone_of_coordinate_equations_is_origin():
    cone = tangent_cone_polys([LaurentPoly.parse("t1 - 1", 2),
                               LaurentPoly.parse("t2 - 1", 2)])
    assert cone.subspaces == (RationalSubspace.zero(2),)
    assert not cone.empty


def test_cone_of_split_product_is_both_axes():
    f = LaurentPoly.parse("t1*t2 - t1 - t2 + 1")  # (t1 - 1)(t2 - 1)
    cone = tangent_cone_polys([f])
    assert set(cone.subspaces) == {line(1, 0), line(0, 1)}


def test_cone_empty_when_identity_not_on_variety():
    cone = tangent_cone_polys([LaurentPoly.parse("t1 + t2")])
    assert cone.empty
    mixed = tangent_cone_polys([datasets.chain_delta(),
                                LaurentPoly.parse("t1 + t2 + t3", 3)])
    assert mixed.empty


def test_cone_input_validation():
    with pytest.raises(ValueError):
        tangent_cone_polys([])
    with pytest.raises(ValueError, match="different tori"):
        tangent_cone_polys([LaurentPoly.parse("t1 - 1", 1),
                            LaurentPoly.parse("t2 - 1", 2)])
    with pytest.raises(ValueError):
        tangent_cone_polys([LaurentPoly(2, {})])


def test_cone_of_intersected_zero_sets():
    # cone(t3 - 1) is the plane {z3 = 0}; only one chain line lies inside it,
    # the other two meet it in {0} and are pruned away
    g = LaurentPoly.parse("t3 - 1", 3)
    cone = tangent_cone_polys([datasets.chain_delta(), g])
    assert cone.subspaces == (line(1, -1, 0),)


def test_description_cone_keeps_directions_through_identity():
    assert tangent_cone_description(
        datasets.two_component_link_description()).subspaces == (
        RationalSubspace.zero(2),)
    assert tangent_cone_description(
        datasets.closed_omega_description()).subspaces == (
        RationalSubspace.zero(3),)
    surf = tangent_cone_description(datasets.surface_description())
    assert surf.subspaces == (
        RationalSubspace.from_rows(
            [(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], 6),)


def test_description_cone_of_empty_description():
    from jumploci.tori import VarietyDescription
    cone = tangent_cone_description(VarietyDescription(4, []))
    assert cone.empty
