"""Exact linear algebra: canonical forms, lattices, Plücker machinery."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import oracles
from builders import full_space
from jumploci.qlinalg import (
    PLUCKER_BUDGET,
    PluckerVector,
    RationalSubspace,
    clear_denominators,
    coset_reduce_ints,
    coset_rep_ints,
    format_rational,
    format_rref,
    hnf,
    json_rational_ints,
    parse_rational,
    plucker,
    rref,
    rref_order,
    schubert_equations,
    snf,
)
from jumploci import qlinalg
from jumploci.qlinalg import _det, _reduce
from suites import (contains_vector, coset_reduce, in_lattice_coset,
                    over_one_denominator)

F = Fraction


def rand_int_rows(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# ---------------------------------------------------------------------------
# RREF and subspaces
# ---------------------------------------------------------------------------

def test_rref_canonicalizes_spanning_sets():
    reduced, pivots = rref([(2, 4, 6), (1, 2, 3), (0, 0, 5)])
    assert reduced == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))
    assert pivots == (0, 2)


def test_rref_of_rational_rows_is_the_reduced_echelon_form():
    rng = random.Random(10)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))
                 for _ in range(n)] for _ in range(rng.randint(0, 5))]
        if rows and rng.random() < 0.3:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        reduced, pivots = rref(rows)
        assert len(reduced) == len(pivots) == oracles.naive_rank(rows)
        assert list(pivots) == sorted(set(pivots))
        for row, p in zip(reduced, pivots):
            assert all(type(x) is F for x in row)
            assert row[p] == 1 and not any(row[:p])
            assert all(other[p] == 0 for other in reduced if other is not row)
        assert oracles.spans_equal(rows, reduced)
        assert rref(reduced) == (reduced, pivots)


def test_rref_empty_and_zero():
    assert rref([]) == ((), ())
    assert rref([(0, 0)]) == ((), ())


def test_subspace_equality_is_set_equality():
    a = RationalSubspace.from_rows([(2, 4), (1, 2)], 2)
    b = RationalSubspace.from_rows([(-3, -6)], 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 1


def test_subspace_random_span_equality_matches_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows_a = rand_int_rows(rng, rng.randint(0, 3), n)
        rows_b = rand_int_rows(rng, rng.randint(0, 3), n)
        a = RationalSubspace.from_rows(rows_a, n)
        b = RationalSubspace.from_rows(rows_b, n)
        assert (a == b) == oracles.spans_equal(rows_a, rows_b)
        assert a.contains(b) == oracles.span_contains(rows_a, rows_b)


def test_sum_and_intersection_dimension_formula():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = RationalSubspace.from_rows(rand_int_rows(rng, rng.randint(0, n), n), n)
        b = RationalSubspace.from_rows(rand_int_rows(rng, rng.randint(0, n), n), n)
        s, m = a.sum(b), a.intersect(b)
        assert s.dim + m.dim == a.dim + b.dim
        assert a.contains(m) and b.contains(m)
        assert s.contains(a) and s.contains(b)


def test_perp_is_an_involution_and_complements_dimension():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = RationalSubspace.from_rows(rand_int_rows(rng, rng.randint(0, n), n), n)
        assert a.perp().dim == n - a.dim
        assert a.perp().perp() == a
    # the complement of the zero space is Q^n, in its identity RREF
    for n in range(4):
        whole = RationalSubspace.zero(n).perp()
        assert whole.rows == tuple(tuple(int(i == j) for j in range(n))
                                   for i in range(n))
        assert whole.pivots == tuple(range(n))


def test_reduce_vector_lands_outside_the_space():
    v = RationalSubspace.from_rows([(1, 2, 0)], 3)
    nums, den = _reduce((3, 7, 1), v.rows, v.pivots)
    reduced = [F(x, den) for x in nums]
    # the pivot coordinate is cleared and the difference is in the space
    assert reduced[0] == 0
    assert contains_vector(v, [a - b for a, b in zip((3, 7, 1), reduced)])


def test_nullspace_matches_oracle():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = rand_int_rows(rng, rng.randint(1, 3), n)
        ours = [list(v) for v in RationalSubspace.from_rows(rows, n).perp().basis]
        theirs = oracles.naive_nullspace(rows, n)
        assert oracles.spans_equal(ours, theirs) if ours or theirs else True
        for v in ours:
            for row in rows:
                assert sum(F(x) * y for x, y in zip(row, v)) == 0


def rand_rational_rows(rng, m, n):
    return [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))
             for _ in range(n)] for _ in range(m)]


def test_rref_order_sorts_as_the_fraction_rref_does():
    # the integer keys compare as (dim, basis) with Fraction entries do,
    # pair by pair, equal spaces included
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 5)
        spaces = [RationalSubspace.from_rows(
                      rand_rational_rows(rng, rng.randint(0, n), n), n)
                  for _ in range(rng.randint(0, 8))]
        keys = rref_order(spaces)
        fraction_keys = [(s.dim, s.basis) for s in spaces]
        for i, j in itertools.product(range(len(spaces)), repeat=2):
            assert ((keys[i] < keys[j], keys[i] == keys[j])
                    == (fraction_keys[i] < fraction_keys[j],
                        fraction_keys[i] == fraction_keys[j]))


def canonical_form_ok(space):
    """Rows primitive, zero before a positive pivot, zero at other pivots;
    basis is the rows divided by their pivots."""
    assert list(space.pivots) == sorted(set(space.pivots))
    assert len(space.rows) == len(space.pivots) == space.dim
    for row, p in zip(space.rows, space.pivots):
        assert len(row) == space.ambient_dim
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        assert row[p] > 0 and not any(row[:p])
        assert all(other[p] == 0 for other in space.rows if other is not row)
    assert space.basis == tuple(tuple(F(x, r[p]) for x in r)
                                for r, p in zip(space.rows, space.pivots))
    return True


def test_canonical_form_ignores_scaling_order_and_redundant_rows():
    rng = random.Random(15)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = rand_rational_rows(rng, rng.randint(0, 4), n)
        base = RationalSubspace.from_rows(rows, n)
        scaled = [[x * c for x in row] for row in rows
                  for c in [F(rng.choice([-5, -2, -1, 1, 3, 4]),
                              rng.choice([1, 2, 7]))]]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        padded = rows[:]
        for _ in range(rng.randint(1, 3)):
            cs = [rng.randint(-2, 2) for _ in rows]
            padded.append([sum(c * row[i] for c, row in zip(cs, rows))
                           for i in range(n)])
        padded.insert(rng.randint(0, len(padded)), [F(0)] * n)
        for variant in (scaled, shuffled, padded):
            other = RationalSubspace.from_rows(variant, n)
            assert other == base and hash(other) == hash(base)
            assert other.rows == base.rows and other.pivots == base.pivots


def test_stored_rows_are_primitive_with_positive_pivots():
    # rows the elimination never combines are normalized too
    space = RationalSubspace.from_rows([(0, -2, 4), (-3, 0, 6)], 3)
    assert space.rows == ((1, 0, -2), (0, 1, -2))
    assert RationalSubspace.from_rows([(F(-1, 2), F(3, 4))], 2).rows == ((2, -3),)
    assert RationalSubspace.from_rows([(0, 0, -6)], 3).rows == ((0, 0, 1),)
    rng = random.Random(16)
    for _ in range(80):
        n = rng.randint(1, 5)
        a = RationalSubspace.from_rows(rand_rational_rows(rng, rng.randint(0, 4), n), n)
        b = RationalSubspace.from_rows(rand_rational_rows(rng, rng.randint(0, 4), n), n)
        for space in (a, a.sum(b), a.intersect(b), a.perp(),
                      full_space(n), RationalSubspace.zero(n)):
            assert canonical_form_ok(space)
        assert a.basis is a.basis                     # built once


def test_subspace_operations_match_the_oracles():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows_a = rand_rational_rows(rng, rng.randint(0, n), n)
        rows_b = rand_rational_rows(rng, rng.randint(0, n), n)
        a = RationalSubspace.from_rows(rows_a, n)
        b = RationalSubspace.from_rows(rows_b, n)
        assert oracles.spans_equal(a.basis, rows_a)
        assert a.dim == oracles.naive_rank(rows_a)
        assert oracles.spans_equal(a.sum(b).basis, rows_a + rows_b)
        perp_a = oracles.naive_nullspace(rows_a, n)
        perp_b = oracles.naive_nullspace(rows_b, n)
        assert oracles.spans_equal(a.perp().basis, perp_a)
        met = oracles.naive_nullspace(perp_a + perp_b, n)
        assert oracles.spans_equal(a.intersect(b).basis, met)
        assert a.contains(b) == oracles.span_contains(rows_a, rows_b)
        assert b.contains(a) == oracles.span_contains(rows_b, rows_a)
        v = rand_rational_rows(rng, 1, n)[0]
        assert contains_vector(a, v) == oracles.span_contains(rows_a, [v])


def test_minor_matches_cofactor_determinant():
    # the fraction-free determinant behind every Pluecker minor
    rng = random.Random(48)
    singular = 0
    for trial in range(80):
        k = rng.randint(1, 5)
        rows = [[rng.choice([0, 0, -3, -1, 1, 2, 7]) for _ in range(k + 1)]
                for _ in range(k)]
        if trial % 3 == 0 and k >= 2:
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        cols = sorted(rng.sample(range(k + 1), k))
        square = [[row[c] for c in cols] for row in rows]
        expected = oracles.naive_det(square)
        singular += expected == 0
        assert _det(square) == expected
    assert singular > 0
    assert _det([[0, 2], [3, 1]]) == -6      # a row swap flips the sign


def test_clear_denominators_primitive_and_sign_preserving():
    assert clear_denominators((F(1, 2), F(-3, 4))) == (2, -3)
    assert clear_denominators((F(2), F(4))) == (1, 2)
    assert clear_denominators((F(0), F(0))) == (0, 0)
    assert clear_denominators((F(-1, 3),)) == (-1,)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def hnf_shape_ok(h):
    """Lower-triangular row HNF: pivots last-nonzero, increasing, positive,
    below-pivot entries reduced."""
    rows = [r for r in h if any(r)]
    pivcols = [max(j for j, x in enumerate(r) if x) for r in rows]
    if pivcols != sorted(pivcols) or len(set(pivcols)) != len(pivcols):
        return False
    for i, c in enumerate(pivcols):
        if rows[i][c] <= 0:
            return False
        for k in range(i + 1, len(rows)):
            if not 0 <= rows[k][c] < rows[i][c]:
                return False
    return True


def test_hnf_frozen_example():
    h, u = hnf([[1, 2], [0, 3]])
    assert h == ((3, 0), (2, 1))
    assert [list(r) for r in h] == [
        [sum(u[i][k] * [[1, 2], [0, 3]][k][j] for k in range(2)) for j in range(2)]
        for i in range(2)]


def test_hnf_random_shape_and_unimodularity():
    rng = random.Random(15)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = rand_int_rows(rng, m, n)
        h, u = hnf(rows)
        assert hnf_shape_ok(h)
        assert abs(oracles.naive_det([list(r) for r in u])) == 1
        product = [[sum(u[i][k] * rows[k][j] for k in range(m))
                    for j in range(n)] for i in range(m)]
        assert [list(r) for r in h] == product


def test_hnf_is_a_lattice_invariant():
    # Row-equivalent integer matrices (over Z) share their HNF.
    rows = [[2, 1, 0], [1, 3, 1]]
    mixed = [[3, 4, 1], [1, 3, 1]]        # row0 + row1, row1
    assert hnf(rows)[0] == hnf(mixed)[0]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_frozen_example():
    s, v = snf([[2, 4], [6, 8]])
    assert (s[0][0], s[1][1]) == (2, 4)


def test_snf_of_zero_matrix_keeps_identity_witnesses():
    s, v = snf([[0, 0], [0, 0]])
    assert s == ((0, 0), (0, 0))
    assert v == ((1, 0), (0, 1))


def test_snf_random_factorization_and_divisibility():
    # S = U @ M @ V for some unimodular U that snf does not return.  So V is
    # unimodular, M @ V = U^-1 @ S has column j divisible by d_j and zero
    # past the rank, and S is checked against the determinantal divisors
    # of M, an oracle independent of any normal form
    rng = random.Random(16)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = rand_int_rows(rng, m, n)
        s, v = snf(rows)
        assert abs(oracles.naive_det([list(r) for r in v])) == 1
        assert all(s[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = [s[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0)
        assert [d for d in diag if d != 0] == oracles.oracle_invariant_factors(rows)
        mv = [[sum(rows[i][k] * v[k][j] for k in range(n)) for j in range(n)]
              for i in range(m)]
        for j in range(n):
            d = diag[j] if j < len(diag) else 0
            assert all(r[j] == 0 if d == 0 else r[j] % d == 0 for r in mv)


# ---------------------------------------------------------------------------
# lattice-coset membership: lam in V + Z^n
# ---------------------------------------------------------------------------

def test_coset_membership_diagonal_examples():
    v = RationalSubspace.from_rows([(1, 1)], 2)
    assert in_lattice_coset((F(1, 2), F(1, 2)), v)
    assert not in_lattice_coset((F(1, 2), F(0)), v)
    assert in_lattice_coset((F(3, 2), F(-1, 2)), v)


def test_coset_solver_returns_a_real_witness():
    rng = random.Random(19)
    hits = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = rand_int_rows(rng, rng.randint(0, 2), n, -2, 2)
        v = RationalSubspace.from_rows(rows, n)
        lam = [F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)]
        rep, m = coset_reduce(lam, v)
        if not any(rep):
            hits += 1
            assert all(isinstance(x, int) for x in m)
            assert contains_vector(v, [a - b for a, b in zip(lam, m)])
    assert hits > 10  # the sampler must exercise the positive branch


def test_coset_rep_is_the_reduced_representative():
    """coset_rep_ints skips the HNF for integer vectors; its answers, and
    the membership read off it, are coset_reduce's."""
    rng = random.Random(23)
    integral = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = rand_int_rows(rng, rng.randint(0, 3), n, -3, 3)
        v = RationalSubspace.from_rows(rows, n)
        den = rng.choice([1, 1, 2, 3, 6])
        lam = [F(rng.randint(-6, 6), den) for _ in range(n)]
        integral += all(x.denominator == 1 for x in lam)
        rep, _ = coset_reduce(lam, v)
        x, d = coset_rep_ints(*over_one_denominator(lam), v)
        assert tuple(F(a, d) for a in x) == rep
        assert in_lattice_coset(lam, v) == (not any(rep))
    assert 20 < integral < 180      # both branches are exercised
    with pytest.raises(ValueError):
        coset_rep_ints([1, 2, 3], 1, RationalSubspace.zero(2))


def test_integer_coset_core_ignores_how_lam_is_written():
    """nums / den need not be in lowest terms: scaling both by k gives the
    same representative value and step, and an integral lam written with a
    denominator (as "2/2") gets 0 from coset_rep_ints without an HNF."""
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 4)
        v = RationalSubspace.from_rows(
            rand_int_rows(rng, rng.randint(0, 3), n, -3, 3), n)
        den = rng.choice([1, 2, 3, 6])
        nums = [rng.randint(-9, 9) for _ in range(n)]
        k = rng.randint(1, 5)
        x, d, m = coset_reduce_ints(nums, den, v)
        xk, dk, mk = coset_reduce_ints([a * k for a in nums], den * k, v)
        assert [F(a, d) for a in x] == [F(a, dk) for a in xk]
        assert m == mk
        assert coset_reduce([F(a, den) for a in nums], v) == (
            tuple(F(a, d) for a in x), tuple(m))
        rx, rd = coset_rep_ints([a * k for a in nums], den * k, v)
        assert [F(a, rd) for a in rx] == [F(a, d) for a in x]
    v = RationalSubspace.from_rows([(1, 2)], 2)
    real_hnf = qlinalg.hnf
    qlinalg.hnf = None                  # an HNF here would raise TypeError
    try:
        assert coset_rep_ints([2, -6], 2, v) == ([0, 0], 1)
    finally:
        qlinalg.hnf = real_hnf
    with pytest.raises(ValueError, match="character length"):
        coset_rep_ints([2, 2, 2], 2, v)
    with pytest.raises(ValueError, match="character length"):
        coset_reduce_ints([1, 2, 2], 2, v)


def _unit_pivot_space(rng, n):
    """A random subspace of Q^n whose integer RREF has every pivot entry 1:
    integer entries right of each pivot, off the other pivots."""
    pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = rng.randint(-4, 4)
        rows.append(row)
    return RationalSubspace.from_rows(rows, n)


def test_unit_pivot_spaces_take_their_representative_without_an_hnf(
        monkeypatch):
    """When every pivot entry is 1 the projection lattice is Z^n off the
    pivots, so coset_rep_ints answers with no HNF, and its answer is the
    (x, d) of coset_reduce_ints, which builds the HNF."""
    rng = random.Random(31)
    spaces = [RationalSubspace.zero(3), full_space(3),
              RationalSubspace.from_rows([(0, 1, 0)], 3),
              RationalSubspace.from_rows([(1, 2, -3)], 3),
              RationalSubspace.from_rows([(1, 0, 5, -2), (0, 1, -1, 3)], 4)]
    spaces += [_unit_pivot_space(rng, rng.randint(1, 5)) for _ in range(150)]
    cases = []
    for v in spaces:
        assert all(row[p] == 1 for row, p in zip(v.rows, v.pivots))
        for _ in range(3):
            den = rng.randint(2, 9)
            nums = [rng.randint(-20, 20) for _ in range(v.ambient_dim)]
            nums[0] = den * rng.randint(-2, 2) + rng.randint(1, den - 1)
            x, d, _ = coset_reduce_ints(nums, den, v)
            cases.append((nums, den, v, (x, d)))
    assert sum(not any(x) for *_, (x, _) in cases) > 20   # members too
    assert sum(bool(any(x)) for *_, (x, _) in cases) > 20

    def no_hnf(rows):
        raise AssertionError("coset_rep_ints built an HNF")

    monkeypatch.setattr(qlinalg, "hnf", no_hnf)
    for nums, den, v, expected in cases:
        assert coset_rep_ints(nums, den, v) == expected


def test_reading_a_point_component_builds_no_hnf(monkeypatch):
    """A point has L = 0, whose (empty) RREF has no pivot above 1: reading
    it builds no HNF.  A translated line with pivot entry 2 still does."""
    from jumploci.tori import VarietyDescription
    calls = []
    real_hnf = qlinalg.hnf
    monkeypatch.setattr(qlinalg, "hnf",
                        lambda rows: calls.append(rows) or real_hnf(rows))
    point = {"n": 2, "components": [{"lambda": ["1/3", "1/2"], "basis": []}]}
    VarietyDescription.from_json(point)
    assert calls == []
    line = {"n": 2, "components": [{"lambda": ["1/3", "0"],
                                    "basis": [[2, 1]]}]}
    VarietyDescription.from_json(line)
    assert len(calls) == 1


def test_coset_membership_of_full_and_zero_spaces():
    full = full_space(3)
    zero = RationalSubspace.zero(3)
    assert in_lattice_coset((F(1, 7), F(2, 9), F(1, 2)), full)
    assert in_lattice_coset((1, -2, 3), zero)
    assert not in_lattice_coset((F(1, 2), 0, 0), zero)


def test_coset_functions_accept_anything_fraction_accepts():
    v = RationalSubspace.from_rows([(1, 1)], 2)
    expected = coset_reduce((F(3, 2), F(1, 2)), v)
    assert coset_reduce(("3/2", 0.5), v) == expected
    assert coset_reduce((F(3, 2), "1/2"), v) == expected
    assert coset_reduce((3, 1), v) == ((F(0), F(0)), (0, -2))
    assert coset_reduce(["1/2", "1/2"], v) == ((F(0), F(0)), (0, 0))
    assert not in_lattice_coset(("1/2", 0), v)


# ---------------------------------------------------------------------------
# Plücker coordinates and incidence equations
# ---------------------------------------------------------------------------

def test_plucker_frozen_example_and_normalization():
    p = RationalSubspace.from_rows([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    pv = plucker(p)
    assert pv.coords == (F(1), F(0), F(1), F(-1), F(0), F(1))
    lead = next(c for c in pv.coords if c != 0)
    assert lead == 1


def test_plucker_rejects_zero_space():
    with pytest.raises(ValueError):
        plucker(RationalSubspace.zero(3))


def test_subset_order_is_lexicographic():
    assert PluckerVector.subset_order(4, 2) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_plucker_coordinates_satisfy_exchange_relations():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randint(4, 5)
        r = rng.randint(2, n - 2)
        rows = rand_int_rows(rng, r, n)
        space = RationalSubspace.from_rows(rows, n)
        if space.dim != r:
            continue
        res = oracles.plucker_relation_residuals(plucker(space).coords, r, n)
        assert all(x == 0 for x in res)


def test_schubert_equations_cut_out_incidence():
    rng = random.Random(21)
    checked = 0
    for _ in range(80):
        n = rng.randint(3, 5)
        s = rng.randint(1, n - 2)
        r = rng.randint(1, n - s)
        space = RationalSubspace.from_rows(rand_int_rows(rng, s, n), n)
        if space.dim != s or r + space.dim > n:
            continue
        forms = schubert_equations(space, r)
        plane = RationalSubspace.from_rows(rand_int_rows(rng, r, n), n)
        if plane.dim != r:
            continue
        pv = plucker(plane)
        vanish = all(sum(c * x for c, x in zip(f, pv.coords)) == 0
                     for f in forms)
        assert vanish == (not plane.intersect(space).is_zero())
        checked += 1
    assert checked >= 30


def rand_rational_rows(rng, m, n):
    return [[F(rng.choice([0, 0, 1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 7]))
             for _ in range(n)] for _ in range(m)]


def test_plucker_coordinates_are_ratios_of_minors_of_any_spanning_set():
    rng = random.Random(22)
    checked = 0
    while checked < 220:
        n = rng.randint(1, 7)
        r = rng.randint(1, n)
        rows = rand_rational_rows(rng, r, n)
        space = RationalSubspace.from_rows(rows, n)
        if space.dim != r:
            continue
        minors = [oracles.naive_det([[row[c] for c in cols] for row in rows])
                  for cols in itertools.combinations(range(n), r)]
        lead = next(x for x in minors if x)
        assert plucker(space).coords == tuple(x / lead for x in minors)
        checked += 1


def test_schubert_equations_match_the_laplace_oracle():
    rng = random.Random(23)
    spaces = wide = complementary = 0
    while spaces < 200:
        n = rng.randint(2, 7)
        space = RationalSubspace.from_rows(
            rand_rational_rows(rng, rng.randint(1, n), n), n)
        if space.is_zero():
            continue
        s = space.dim
        for r in range(1, n + 1):
            assert (schubert_equations(space, r)
                    == oracles.oracle_schubert_equations(space.basis, n, r))
            wide += 2 * s > n and r + s <= n
            complementary += r + s == n
        spaces += 1
    assert wide >= 50 and complementary >= 100


def test_plucker_layer_refuses_work_over_the_budget(monkeypatch):
    def no_minor(rows):
        raise AssertionError("a minor was computed")
    monkeypatch.setattr(qlinalg, "_det", no_minor)
    e1 = RationalSubspace.from_rows([[1] + [0] * 39], 40)
    half = RationalSubspace.from_rows(
        [[int(i == j) for j in range(20)] for i in range(10)], 20)
    with pytest.raises(ValueError, match=(
            r"^C\(20, 10\) Pluecker coordinates = 184756 is above "
            rf"PLUCKER_BUDGET = {PLUCKER_BUDGET}$")):
        plucker(half)
    with pytest.raises(ValueError, match=(
            r"C\(40, 21\) \* C\(40, 20\) Schubert coefficients = \d+ "
            "is above PLUCKER_BUDGET")):
        schubert_equations(e1, 20)
    with pytest.raises(ValueError, match="PLUCKER_BUDGET"):
        PluckerVector.subset_order(40, 20)
    # r + dim L > n: every plane meets L, so there is no table to refuse
    big = RationalSubspace.from_rows(
        [[int(i == j) for j in range(40)] for i in range(39)], 40)
    assert schubert_equations(big, 20) == []


def test_schubert_equations_trivial_when_every_plane_meets():
    space = RationalSubspace.from_rows([(1, 0, 0), (0, 1, 0)], 3)
    assert schubert_equations(space, 2) == []   # r + dim L > n
    with pytest.raises(ValueError):
        schubert_equations(RationalSubspace.zero(3), 2)
    with pytest.raises(ValueError):
        schubert_equations(space, 0)


def test_sigma_membership_basics():
    l1 = RationalSubspace.from_rows([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    meets = RationalSubspace.from_rows([(0, 1, 1, 0), (0, 0, 1, -1)], 4)
    misses = RationalSubspace.from_rows([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    assert not meets.intersect(l1).is_zero()
    assert misses.intersect(l1).is_zero()


# ---------------------------------------------------------------------------
# rational strings
# ---------------------------------------------------------------------------

def test_rational_round_trip():
    for text in ["0", "5", "-7", "1/2", "-3/4", "22/7"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 3/6 ") == F(1, 2)


#: Texts around the forms parse_rational reads directly (ASCII [-]digits and
#: [-]digits/digits) and the ones it leaves to Fraction: signs, whitespace,
#: decimals, exponents, underscores, non-ASCII digits, zero denominators,
#: digit runs past int()'s limit and exponents past it, which are refused
#: before Fraction builds their power of ten.
PARSE_TEXTS = [
    "0", "-0", "+0", "5", "-7", "+5", "007", "-0/5", "0005/0010", "3/6",
    " 7 ", "\t-3/4\n", "1 / 2", "1/ 2", "- 1", "--1", "-+1", "",
    "   ", "-", "/", "1/", "/2", "1/2/3", "3/-4", "3/+4", "-3/-4",
    "0.5", ".5", "5.", "-1.25", "1e3", "1E-3", "1.5/2", "1/2.0",
    "1_0", "1__0", "_1", "1_0/2_0", "²", "1²", "٣", "١/٢", "½", "−1",
    "1/0", "-1/0", "0/0", "0x10", "inf", "nan", "NaN", "1j",
    "7" * 4300, "7" * 4400, "-" + "7" * 4400, "1/" + "7" * 4400,
    "7" * 4400 + "/1", "0." + "7" * 4400,
    "1e4300", "1e4301", "1e2000000", "-1E-2000000", "1.5e1_000_000",
    ".5e+99999999", "٣e٣٣٣٣٣٣٣", "1e99999999 ", "1e" + "7" * 4400,
    "x1e99999999", "1e--99999999", "1e9999999_", "1e1__0000000",
]


def _parsed(parse, text):
    """``(type, value)`` of a parse, or ``(error type, message)``."""
    try:
        value = parse(text)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, value


def _reference(text):
    return oracles.rational(text)


def test_parse_rational_matches_fraction_on_fixed_texts():
    for text in PARSE_TEXTS:
        assert _parsed(parse_rational, text) == _parsed(_reference, text), text


def test_parse_rational_refuses_exponents_past_the_digit_limit():
    # Fraction would build 10^2000000 first (seconds), or 10^999999999
    # (a 415 MB integer); the refusal comes before any power is built
    limit = sys.get_int_max_str_digits()
    for text in ["1e2000000", "-2.5E-999999999", "1e1_000_000"]:
        with pytest.raises(OverflowError, match=f"^{text} written out is a "
                           f"number of more than {limit} digits$"):
            parse_rational(text)
    assert parse_rational(f"1e{limit}") == 10 ** limit
    with pytest.raises(ValueError, match="Invalid literal"):
        parse_rational("x1e999999999")


def _read_ints(values, what="a row"):
    """``json_rational_ints`` as values, or ``(error type, message)``."""
    try:
        nums, den = json_rational_ints(values, what)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    assert den > 0 and len(nums) == len(values)
    return [F(p, den) for p in nums]


def _read_oracle(values, what="a row"):
    try:
        return oracles.json_rationals(values, what)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


#: JSON values that are not strings: integers (big and negative), the
#: Fractions JSON numbers with a fraction part or an exponent are read to,
#: and values that are no rational at all.
JSON_VALUES = [0, -5, 7 ** 40, -(10 ** 30), F(1, 2), F(-3, 10 ** 400),
               F(5), True, False, None, [1], {"a": 1}]


def test_integer_reader_matches_the_fraction_reader_on_fixed_texts():
    for text in PARSE_TEXTS + JSON_VALUES:
        assert _read_ints([text]) == _read_oracle([text]), repr(text)[:60]
        # the same entry later in a row of mixed entries: its index is named
        row = [1, "-3/6", "2/2", text]
        assert _read_ints(row) == _read_oracle(row), repr(text)[:60]


def test_integer_reader_matches_the_fraction_reader_on_generated_rows():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    pieces = st.sampled_from(["-", "+", "/", ".", "_", "e", " ", "0",
                              "1", "2", "6", "7", "²", "7" * 4400,
                              "99999999"])
    entries = st.one_of(
        st.lists(pieces, max_size=6).map("".join),
        st.integers(-10 ** 20, 10 ** 20),
        st.fractions(max_denominator=10 ** 6),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99),
                  st.integers(0, 99)),
        st.text(max_size=4))

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.lists(entries, max_size=6))
    def check(row):
        assert _read_ints(row) == _read_oracle(row)

    check()


def test_integer_reader_denominator_and_rows():
    # den is the lcm of the denominators as written; an integer row is
    # returned as it is
    assert json_rational_ints([3, "-4", 0], "r") == ([3, -4, 0], 1)
    assert json_rational_ints(["2/2", "-3/6", 1], "r") == ([6, -3, 6], 6)
    assert json_rational_ints([], "r") == ([], 1)


def test_format_rref_writes_the_basis_as_format_rational_does():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        space = RationalSubspace.from_rows(rows, n)
        assert format_rref(space) == [[format_rational(x) for x in row]
                                      for row in space.basis]


def test_parse_rational_matches_fraction_on_generated_texts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    pieces = st.sampled_from(["-", "+", "/", ".", "_", "e", " ", "\t", "0",
                              "1", "7", "²", "٣", "7" * 4400, "99999999"])
    texts = st.one_of(st.lists(pieces, max_size=8).map("".join), st.text())

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(texts)
    def check(text):
        assert _parsed(parse_rational, text) == _parsed(_reference, text)

    check()
