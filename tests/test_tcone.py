"""Exponential tangent cones and subspace arrangements."""

import inspect
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import builders
import datasets
import oracles
from jumploci import tcone
from jumploci.laurent import LaurentPoly
from jumploci.qlinalg import RationalSubspace, clear_denominators
from jumploci.tcone import (
    SUBSET_SUM_LIMIT,
    SubspaceArrangement,
    _poly_cone,
    _prune_subspaces,
    tangent_cone_description,
    tangent_cone_polys,
)
from suites import (arrangement_contains_vector, arrangement_from_json,
                    fraction_rref)

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
    assert tangent_cone_polys([big]).subspaces == (RationalSubspace.zero(1),)


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
        for row in fraction_rref(sub):
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


def _working_dim(f: LaurentPoly) -> int:
    """The dimension of the space the cone of f is found in: n, or the rank
    of the exponent differences when the k - 1 of them are fewer than n."""
    support = sorted(f.terms)
    n, k = f.num_vars, len(support)
    if k - 1 >= n:
        return n
    return RationalSubspace.from_rows(
        [[a - b for a, b in zip(e, support[0])] for e in support], n).dim


def _mixed_supports(rng):
    """Exponent sets: random ones in Q^1..Q^4, ones on a line or a plane
    through a random point of Q^3..Q^6 with fewer terms than variables, so
    that the differences are projected onto a span of dimension 1 or 2, and
    random ones of 5-8 terms in Q^3..Q^5, whose differences mostly span the
    whole space."""
    for _ in range(120):
        n, k = rng.randint(1, 4), rng.randint(2, 8)
        yield n, [tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(k)]
    for i in range(60):
        n = rng.randint(3, 6)
        base = [rng.randint(-2, 2) for _ in range(n)]
        basis = [[rng.randint(-2, 2) for _ in range(n)]
                 for _ in range(1 + i % 2)]
        yield n, [tuple(x + sum(c * v[j] for c, v in zip(cs, basis))
                        for j, x in enumerate(base))
                  for cs in ([rng.randint(-2, 2) for _ in basis]
                             for _ in range(rng.randint(2, n)))]
    for i in range(60):
        n = (3, 3, 4, 5)[i % 4]
        yield n, [tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(rng.randint(5, 8))]


def test_poly_cone_matches_the_partition_oracle_on_mixed_coefficients():
    # parse gives int coefficients where they are integral and Fractions
    # elsewhere, so the weights must take both; supports of working
    # dimension <= 2 and 3 take the two closed forms and the others the
    # recursion
    rng = random.Random(19)
    by_route = {2: 0, 3: 0, 4: 0}
    for n, exponents in _mixed_supports(rng):
        terms = {e: rng.choice([1, -1, 2, -3, F(1, 2), F(-3, 2), F(2, 3)])
                 for e in exponents}
        anchor = rng.choice(sorted(terms))
        terms[anchor] -= sum(terms.values())
        if terms[anchor] == 0:
            del terms[anchor]
        elif terms[anchor].denominator == 1:
            terms[anchor] = int(terms[anchor])
        if len(terms) < 2:
            continue
        f = LaurentPoly._make(n, terms)
        cone = _poly_cone(f, [0])
        assert len(set(cone)) == len(cone), f
        assert set(cone) == set(_oracle_cone(f).subspaces), f
        by_route[min(max(_working_dim(f), 2), 4)] += 1
    assert min(by_route.values()) >= 30, by_route


def _wide_polys(seed):
    """Zero-sum polynomials of 4-7 terms in 8-40 variables, so that the
    k - 1 differences span fewer dimensions than there are variables."""
    rng = random.Random(seed)
    for _ in range(14):
        n = rng.choice([8, 13, 21, 40])
        f = _random_poly(rng, n, rng.randint(4, 7), (1, -1, 2, -2, 3),
                         on_identity=True)
        if len(f.terms) >= 4:
            yield f


def test_cone_of_a_wide_support_matches_the_oracle():
    checked = 0
    for f in _wide_polys(41):
        assert len(f.terms) - 1 < f.num_vars
        assert tangent_cone_polys([f]) == _oracle_cone(f), f
        checked += 1
    assert checked >= 10


def test_recursion_on_a_wide_support_sees_only_span_coordinates(monkeypatch):
    seen = []
    recurse = tcone._row_spaces

    def spy(remaining, parts, memo, normals, full, spent):
        seen.extend(len(v) for part in parts for _, diffs in part
                    for v in diffs)
        seen.extend(map(len, full[0]))
        out = recurse(remaining, parts, memo, normals, full, spent)
        seen.extend(len(row) for rows, _ in out for row in rows)
        return out

    monkeypatch.setattr(tcone, "_row_spaces", spy)
    # the supports of working dimension >= 4; those of 3 and less take the
    # closed forms
    checked = 0
    for f in _wide_polys(43):
        if _working_dim(f) < 4:
            continue
        k, n = len(f.terms), f.num_vars
        del seen[:]
        tangent_cone_polys([f])
        assert seen and max(seen) <= k - 1 < n
        checked += 1
    assert checked == 10


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


def test_cone_of_four_binomial_product_is_coordinate_hyperplanes():
    f = LaurentPoly.parse(datasets.FOUR_BINOMIALS_TEXT)
    assert len(f.terms) == 16
    hyperplanes = {RationalSubspace.from_rows(
        [[int(j == i) for j in range(4)] for i in range(4) if i != skip], 4)
        for skip in range(4)}
    assert set(tangent_cone_polys([f]).subspaces) == hyperplanes
    # g = (t1 - 1) h with h(1) = -1, so its cone is that of t1 - 1 alone
    g = f + builders.monomial((5, 0, 0, 0), 1, 4) \
        - builders.monomial((6, 0, 0, 0), 1, 4)
    assert len(g.terms) == 18
    x1 = RationalSubspace.from_rows(
        [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert tangent_cone_polys([g]).subspaces == (x1,)
    assert tangent_cone_polys([f, g]).subspaces == (x1,)
    h = LaurentPoly.parse(datasets.EIGHTEEN_TERMS_TEXT)
    assert len(h.terms) == 18
    assert not tangent_cone_polys([h]).empty


def test_cone_over_the_step_budget_is_refused(monkeypatch):
    f = LaurentPoly.parse(datasets.FOUR_BINOMIALS_TEXT)
    assert len(tangent_cone_polys([f, f]).subspaces) == 4
    # the product takes 5938 steps; the budget is read at call time, and
    # the steps of all the call's polynomials add up
    monkeypatch.setattr(tcone, "CONE_BUDGET", 5938)
    assert len(tangent_cone_polys([f]).subspaces) == 4
    with pytest.raises(ValueError, match=r"^tangent cone steps = \d+ is above "
                                         r"CONE_BUDGET = 5938;"):
        tangent_cone_polys([f, f])
    monkeypatch.setattr(tcone, "CONE_BUDGET", 5937)
    with pytest.raises(ValueError, match="CONE_BUDGET = 5937"):
        tangent_cone_polys([f])


def test_working_dimension_two_takes_the_closed_form(monkeypatch):
    entered = []
    for name in ("_minimal_parts", "_row_spaces"):
        def spy(*args, _name=name, _real=getattr(tcone, name)):
            entered.append(_name)
            return _real(*args)
        monkeypatch.setattr(tcone, name, spy)
    # two variables, and four terms in Q^6 whose differences span a plane;
    # the closed form charges the budget one unit per term put in a class:
    # four for the first pass, and three per line tested in full
    for text in ("t1 - t2 + t1*t2 - 1", "t1*t4 - t2*t4 - t1*t6^2 + t2*t6^2"):
        f = LaurentPoly.parse(text)
        spent = [0]
        assert set(_poly_cone(f, spent)) == set(_oracle_cone(f).subspaces)
        assert spent == [10] and not entered
    spent = [0]
    _poly_cone(LaurentPoly.parse(datasets.FOUR_BINOMIALS_TEXT), spent)
    assert spent == [5938]
    assert entered[:2] == ["_minimal_parts", "_row_spaces"]


def test_working_dimension_three_takes_the_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("a support of working dimension 3 recursed")

    monkeypatch.setattr(tcone, "_minimal_parts", refuse)
    monkeypatch.setattr(tcone, "_row_spaces", refuse)
    # three variables, and four terms in Q^6 whose differences span Q^3
    for text in ("t1*t2^2 + t1*t2^2*t3 - t3 - t1^2*t2",
                 "t1*t5 - t2*t5 - t1*t3^2*t6 + t2^2*t4"):
        f = LaurentPoly.parse(text)
        spent = [0]
        assert set(_poly_cone(f, spent)) == set(_oracle_cone(f).subspaces)
        assert spent == [26]
    monkeypatch.undo()
    spent = [0]
    _poly_cone(LaurentPoly.parse(datasets.FOUR_BINOMIALS_TEXT), spent)
    assert spent == [5938]


def test_three_variable_product_takes_no_steps(monkeypatch):
    f = LaurentPoly.parse(datasets.FIVE_BINOMIALS_TEXT)
    assert len(f.terms) == 20
    spent = [0]
    cone = _poly_cone(f, spent)
    # no step of the recursion: only the closed form's 1557 class updates
    assert spent == [1557]
    # the planes normal to the five binomials' exponents
    assert set(cone) == {RationalSubspace.from_rows([r], 3).perp() for r in (
        (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1))}
    monkeypatch.setattr(tcone, "CONE_BUDGET", 10 ** 6)
    closed, recursed, steps = _both_routes(f)
    assert steps == 29_582
    assert set(closed) == set(recursed)


def _both_routes(f: LaurentPoly):
    """The closed form and the recursion on the working coordinates of a
    support in two or three variables with more terms than variables, with
    the recursion's step count."""
    support = sorted(f.terms)
    n, k = f.num_vars, len(support)
    assert n in (2, 3) and n <= k - 1
    coeffs = [F(f.terms[e]) for e in support]
    den = math.lcm(*(c.denominator for c in coeffs))
    weights = [c.numerator * (den // c.denominator) for c in coeffs]
    diffs = [tuple(a - b for a, b in zip(e, support[0])) for e in support]
    spent = [0]
    recursed = tcone._row_spaces(
        (1 << k) - 1, tcone._minimal_parts(diffs, weights), {0: [((), ())]},
        {}, tcone._identity(n), spent)
    closed = (tcone._line_spaces(diffs, weights, 2, [0]) if n == 2
              else tcone._plane_spaces(diffs, weights, [0]))
    return closed, recursed, spent[0]


def _planar_support(rng, kind, coeffs):
    """A zero-sum support in two variables of 9-16 terms before cancelling,
    as {exponent: coefficient}.

    kind 0: random exponents in [-3, 3]^2, where lines rarely qualify;
    kind 1: groups of 2-3 points on lines along one direction, each group
    summing to zero, so that lines along it qualify; kind 2: g(t^u) h(t^v)
    for zero-sum g and h of 3-4 terms, so that lines along u and along v
    both qualify.
    """
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1)]
    terms = {}
    if kind == 0:
        for _ in range(rng.randint(9, 16)):
            e = (rng.randint(-3, 3), rng.randint(-3, 3))
            terms[e] = terms.get(e, 0) + rng.choice(coeffs)
        anchor = next(iter(terms))
        terms[anchor] -= sum(terms.values())
    elif kind == 1:
        u, size = rng.choice(directions), rng.randint(9, 16)
        while len(terms) < size:
            base = (rng.randint(-2, 2), rng.randint(-2, 2))
            steps = rng.sample(range(-1, 2), rng.randint(2, 3))
            cs = [rng.choice(coeffs) for _ in steps[1:]]
            for t, c in zip(steps, [-sum(cs)] + cs):
                e = (base[0] + t * u[0], base[1] + t * u[1])
                terms[e] = terms.get(e, 0) + c
            terms = {e: c for e, c in terms.items() if c}
    else:
        u, v = rng.sample(directions, 2)
        factors = []
        for _ in range(2):
            cs = [rng.choice(coeffs) for _ in range(rng.randint(2, 3))]
            factors.append(zip(rng.sample(range(-2, 3), len(cs) + 1),
                               [-sum(cs)] + cs))
        g, h = map(list, factors)
        for a, c in g:
            for b, d in h:
                e = (a * u[0] + b * v[0], a * u[1] + b * v[1])
                terms[e] = terms.get(e, 0) + c * d
    return {e: c for e, c in terms.items() if c}


def test_closed_form_matches_the_recursion_past_the_oracle(monkeypatch):
    # the partition oracle stops near 9 terms; the recursion runs here with
    # no step budget on the same working coordinates
    monkeypatch.setattr(tcone, "CONE_BUDGET", 10 ** 9)
    coeffs = (1, -1, 2, -2, 3, F(1, 2), F(-1, 2))
    rng = random.Random(34)
    lines = {0: 0, 1: 0, 2: 0}
    for i in range(90):
        terms = _planar_support(rng, i % 3, coeffs)
        if len(terms) < 3:
            continue
        f = LaurentPoly(2, {e: F(c) for e, c in terms.items()})
        closed, recursed, _ = _both_routes(f)
        assert len(set(closed)) == len(closed), f
        assert set(closed) == set(recursed), f
        n_lines = 0 if len(closed[0][0]) == 2 else len(closed)
        lines[min(n_lines, 2)] += 1
    # no line, one line and several lines
    assert min(lines.values()) >= 15, lines


def _spatial_support(rng, kind, coeffs):
    """A zero-sum support in three variables of 9-16 terms before
    cancelling, as {exponent: coefficient}.

    kind 0: random exponents in [-2, 2]^3, where the whole space is most
    often the one minimal R; kind 1: groups of 2-3 points on lines along
    one direction, each group summing to zero, so that lines along it
    qualify; kind 2: groups of 2-4 points on parallel planes, each group
    summing to zero, so that the planes' direction qualifies and, mostly,
    no line does.
    """
    def point():
        return tuple(rng.randint(-2, 2) for _ in range(3))

    terms = {}
    size = rng.randint(9, 16)
    if kind == 0:
        for _ in range(size):
            e = point()
            terms[e] = terms.get(e, 0) + rng.choice(coeffs)
        anchor = next(iter(terms))
        terms[anchor] -= sum(terms.values())
        return {e: c for e, c in terms.items() if c}
    u = (0, 0, 0)
    while not any(u):
        u = point()
    while len(terms) < size:
        base = point()
        if kind == 1:
            group = [tuple(b + t * x for b, x in zip(base, u))
                     for t in rng.sample(range(-1, 2), rng.randint(2, 3))]
        else:
            # u is the planes' normal: points of the plane through base
            level = sum(map(operator.mul, u, base))
            group = list(dict.fromkeys(
                e for e in (point() for _ in range(40))
                if e != base and sum(map(operator.mul, u, e)) == level))
            if not group:
                continue
            group = [base] + group[:rng.randint(1, 3)]
        cs = [rng.choice(coeffs) for _ in group[1:]]
        for e, c in zip(group, [-sum(cs)] + cs):
            terms[e] = terms.get(e, 0) + c
        terms = {e: c for e, c in terms.items() if c}
    return terms


def test_closed_form_in_three_variables_matches_the_recursion(monkeypatch):
    monkeypatch.setattr(tcone, "CONE_BUDGET", 10 ** 9)
    coeffs = (1, -1, 2, -2, 3, F(1, 2), F(-1, 2))
    rng = random.Random(35)
    outcomes = {"whole": 0, "lines": 0, "planes": 0}
    for i in range(90):
        terms = _spatial_support(rng, i % 3, coeffs)
        if len(terms) < 4:
            continue
        f = LaurentPoly(3, {e: F(c) for e, c in terms.items()})
        closed, recursed, _ = _both_routes(f)
        assert len(set(closed)) == len(closed), f
        assert set(closed) == set(recursed), f
        dims = {len(rows) for rows, _ in closed}
        outcomes["whole" if dims == {3} else "lines" if 1 in dims
                 else "planes"] += 1
    # the whole space, some lines, and planes holding no qualifying line
    assert min(outcomes.values()) >= 15, outcomes


def test_planar_support_past_the_step_budget_is_answered(monkeypatch):
    f = LaurentPoly.parse(datasets.EIGHTEEN_PLANAR_TERMS_TEXT)
    assert len(f.terms) == 18
    assert tangent_cone_polys([f]).subspaces == (RationalSubspace.zero(2),)
    monkeypatch.setattr(tcone, "CONE_BUDGET", 10 ** 6)
    closed, recursed, steps = _both_routes(f)
    assert steps > 60_000
    # the whole working space as R, so the cone is {0}
    assert closed == recursed == [(((1, 0), (0, 1)), (0, 1))]


def test_support_beyond_subset_sum_table_is_rejected_before_allocating():
    # working dimension 4: t1^1..t1^(k-4), t2, t3, t4 and the constant
    k = SUBSET_SUM_LIMIT + 1
    f = LaurentPoly.parse(" + ".join(f"t1^{i}" for i in range(1, k - 3))
                          + f" + t2 + t3 + t4 - {k - 1}")
    assert len(f.terms) == k
    # the table would take 2^21 slots, about 80 MB: the check must come first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"2\^{k} subset sums.*at most "
                                             rf"{SUBSET_SUM_LIMIT} terms"):
            tangent_cone_polys([f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_long_supports_of_working_dimension_at_most_3_build_no_table():
    # the closed forms build no subset-sum table, so SUBSET_SUM_LIMIT does
    # not refuse them: (1 - t1) times 11 terms in two or three variables
    # (22 terms) has the line along e1 as a minimal R, so the hyperplane
    # x1 = 0 in its cone
    for n in (2, 3):
        g = LaurentPoly.parse(" + ".join(
            f"{i}*t2^{i}" + f"*t3^{i * i % 5}" * (n == 3)
            for i in range(1, 12)), n)
        f = LaurentPoly.parse("1 - t1", n) * g
        assert len(f.terms) == 22
        plane = RationalSubspace.from_rows(
            [[int(i == j) for i in range(n)] for j in range(1, n)], n)
        subspaces = tangent_cone_polys([f]).subspaces
        assert plane in subspaces
        assert n == 3 or subspaces == (plane,)


def _pairs_on_lines(count: int) -> LaurentPoly:
    """1 + (count - 1) t1, then t^u - 2 t^(2u) along count primitive
    directions u = (a, b) with 1 <= b <= a: the coefficients sum to zero,
    and every line through the constant but e1's passes the prefilter and
    is tested in full."""
    directions = [(a, b) for a in range(1, count + 1) for b in range(1, a + 1)
                  if math.gcd(a, b) == 1][:count]
    terms = {(0, 0): 1, (1, 0): count - 1}
    for a, b in directions:
        terms[a, b], terms[2 * a, 2 * b] = 1, -2
    return LaurentPoly(2, {e: Fraction(c) for e, c in terms.items()})


def test_long_supports_of_working_dimension_at_most_3_are_refused_in_time():
    # the closed forms charge CONE_BUDGET one unit per term put in a class,
    # before they put it there, so a support of thousands of terms is
    # refused once its charge passes the budget: the 8,001 terms on 4,000
    # lines, each tested in full, and 4,000 random terms in three variables
    rng = random.Random(4000)
    exponents = set()
    while len(exponents) < 3999:
        exponents.add(tuple(rng.randint(-40, 40) for _ in range(3)))
    exponents.discard((0, 0, 0))
    spatial = {e: Fraction(1) for e in exponents}
    spatial[0, 0, 0] = Fraction(-len(exponents))
    for f in (_pairs_on_lines(4000), LaurentPoly(3, spatial)):
        assert f.coefficient_sum() == 0 and len(f.terms) > 3000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"CONE_BUDGET = 60000; .* or "
                                             r"puts a term in a class"):
            tangent_cone_polys([f])
        assert time.perf_counter() - start < 1.0
    # a short one is answered: its lines are tested in full within budget
    assert tangent_cone_polys([_pairs_on_lines(100)]).subspaces == (
        RationalSubspace.zero(2),)


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
    assert [fraction_rref(s)[0] for s in cone.subspaces] == [
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
