"""Exact linear algebra: canonical forms, lattices, Plücker machinery."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import builders
import oracles
from builders import full_space
from jumploci.qlinalg import (
    PLUCKER_BUDGET,
    RationalSubspace,
    clear_denominators,
    coset_reduce_ints,
    format_rational,
    format_rref,
    hnf,
    json_rational_ints,
    parse_rational,
    rref,
    rref_order,
    schubert_equations,
    snf,
    subset_order,
)
from jumploci import omega, qlinalg
from jumploci.omega import nonopen_witness
from jumploci.qlinalg import _minor_table, _reduce, _uncovered
from jumploci.tori import VarietyDescription
from jumploci.tori import TranslatedTorus
from suites import (contains_vector, coset_reduce, fraction_rref,
                    in_lattice_coset, over_one_denominator)

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


def test_echelon_is_the_primitive_fraction_rref():
    rng = random.Random(29)
    full = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(0, n + 3))]
        if rows and rng.random() < 0.3:
            rows.append([3 * x - 2 * y for x, y in zip(rows[0], rows[-1])])
        # rows added onto an RREF of the first few, as the tangent cone adds
        # a part's differences to the row space of the rest
        h = rng.randint(0, len(rows))
        got, pivots = qlinalg._echelon(rows[h:], *qlinalg._echelon(rows[:h]))
        expected, expected_pivots = oracles.naive_rref(rows, n)
        assert pivots == expected_pivots
        assert [tuple(F(x, row[p]) for x in row)
                for row, p in zip(got, pivots)] == expected
        assert all(math.gcd(*row) == 1 and row[p] > 0
                   for row, p in zip(got, pivots))
        if len(pivots) == n:
            assert got == tuple(tuple(int(i == j) for j in range(n))
                                for i in range(n))
            full += 1
    assert full >= 100
    # once the rank is full the rest is not read
    rows = iter([(2, 1, 0), (0, 3, 1), (1, 0, 5), (1, 2, 3)])
    assert qlinalg._echelon(rows) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                      (0, 1, 2))
    assert list(rows) == [(1, 2, 3)]
    assert qlinalg._echelon([(0, 0, 0)], *qlinalg._echelon([(1, 2, 3)])) == (
        ((1, 2, 3),), (0,))


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
        ours = [list(v) for v in
                fraction_rref(RationalSubspace.from_rows(rows, n).perp())]
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
        fraction_keys = [(s.dim, fraction_rref(s)) for s in spaces]
        for i, j in itertools.product(range(len(spaces)), repeat=2):
            assert ((keys[i] < keys[j], keys[i] == keys[j])
                    == (fraction_keys[i] < fraction_keys[j],
                        fraction_keys[i] == fraction_keys[j]))


def test_uncovered_keeps_the_maximal_or_the_minimal_items():
    # against every pair tested: maximal subspaces and cosets walked by
    # decreasing dimension with inclusion, minimal row spaces (primitive
    # integer RREFs) by increasing dimension with the reverse inclusion
    rng = random.Random(42)
    dropped = [0, 0, 0]
    for _ in range(100):
        n = rng.randint(1, 4)
        spaces = list({RationalSubspace.from_rows(
            rand_int_rows(rng, rng.randint(0, n), n, -2, 2), n)
            for _ in range(rng.randint(0, 7))})
        maximal = _uncovered(
            sorted(spaces, key=lambda s: (s.dim, s.rows), reverse=True),
            lambda s: s.dim, RationalSubspace.contains)
        assert set(maximal) == {s for s in spaces if not any(
            t != s and t.contains(s) for t in spaces)}
        echelons = [(s.rows, s.pivots) for s in spaces]
        minimal = _uncovered(sorted(echelons, key=lambda r: (len(r[0]), r)),
                             lambda r: len(r[0]),
                             lambda t, r: qlinalg._echelon_contains(*r, *t))
        assert set(minimal) == {r for r in echelons if not any(
            t != r and qlinalg._echelon_contains(*r, *t) for t in echelons)}
        cosets = list({builders.torus(
            [F(rng.randrange(4), 4) for _ in range(n)], s.rows, n)
            for s in spaces})
        kept = _uncovered(sorted(cosets, key=lambda c: c.dim, reverse=True),
                          lambda c: c.dim, TranslatedTorus.contains)
        assert set(kept) == {c for c in cosets if not any(
            d != c and d.contains(c) for d in cosets)}
        dropped = [k + (len(got) < len(items)) for k, got, items in zip(
            dropped, (maximal, minimal, kept), (spaces, echelons, cosets))]
    assert min(dropped) >= 20, dropped


def canonical_form_ok(space):
    """Rows primitive, zero before a positive pivot, zero at other pivots:
    divided by their pivots, they are the RREF that ``rref`` computes."""
    assert list(space.pivots) == sorted(set(space.pivots))
    assert len(space.rows) == len(space.pivots) == space.dim
    for row, p in zip(space.rows, space.pivots):
        assert len(row) == space.ambient_dim
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        assert row[p] > 0 and not any(row[:p])
        assert all(other[p] == 0 for other in space.rows if other is not row)
    assert rref(space.rows) == (fraction_rref(space), space.pivots)
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


def test_subspace_operations_match_the_oracles():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows_a = rand_rational_rows(rng, rng.randint(0, n), n)
        rows_b = rand_rational_rows(rng, rng.randint(0, n), n)
        a = RationalSubspace.from_rows(rows_a, n)
        b = RationalSubspace.from_rows(rows_b, n)
        assert oracles.spans_equal(fraction_rref(a), rows_a)
        assert a.dim == oracles.naive_rank(rows_a)
        assert oracles.spans_equal(fraction_rref(a.sum(b)), rows_a + rows_b)
        perp_a = oracles.naive_nullspace(rows_a, n)
        perp_b = oracles.naive_nullspace(rows_b, n)
        assert oracles.spans_equal(fraction_rref(a.perp()), perp_a)
        met = oracles.naive_nullspace(perp_a + perp_b, n)
        assert oracles.spans_equal(fraction_rref(a.intersect(b)), met)
        assert a.contains(b) == oracles.span_contains(rows_a, rows_b)
        assert b.contains(a) == oracles.span_contains(rows_b, rows_a)
        v = rand_rational_rows(rng, 1, n)[0]
        assert contains_vector(a, v) == oracles.span_contains(rows_a, [v])


def test_minor_matches_cofactor_determinant():
    # every nonzero maximal minor of an integer matrix: one, the
    # determinant, for a square matrix; zero rows and rank-deficient rows
    # among them
    rng = random.Random(48)
    deficient = square = 0
    for trial in range(200):
        k = rng.randint(1, 5)
        n = k + rng.choice([0, 0, 1, 2])
        rows = [[rng.choice([0, 0, -3, -1, 1, 2, 7]) for _ in range(n)]
                for _ in range(k)]
        if trial % 5 == 0:
            rows[rng.randrange(k)] = [0] * n
        elif trial % 5 == 1 and k >= 2:
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        expected = {}
        for cols in itertools.combinations(range(n), k):
            d = oracles.naive_det([[row[c] for c in cols] for row in rows])
            if d:
                expected[cols] = d
        assert _minor_table(rows, n) == expected
        deficient += not expected
        square += n == k
    assert 40 <= deficient <= 150 and square >= 60, (deficient, square)
    assert _minor_table([[0, 2], [3, 1]], 2) == {(0, 1): -6}   # a row swap
    assert _minor_table([], 3) == {(): 1}


def test_minor_table_extended_from_a_shared_head_is_a_fresh_table():
    rng = random.Random(50)
    for _ in range(100):
        n = rng.randint(2, 7)
        k = rng.randint(2, min(n, 5))
        rows = rand_int_rows(rng, k, n, -3, 3)
        split = rng.randint(0, k)
        head = _minor_table(rows[:split], n)
        assert _minor_table(rows[split:], n, head) == _minor_table(rows, n)


def test_clear_denominators_primitive_and_sign_preserving():
    assert clear_denominators((F(1, 2), F(-3, 4))) == (2, -3)
    assert clear_denominators((F(2), F(4))) == (1, 2)
    assert clear_denominators((F(0), F(0))) == (0, 0)
    assert clear_denominators((F(-1, 3),)) == (-1,)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def hnf_shape_ok(h, modulus):
    """Square lower-triangular HNF modulo ``modulus``: row c ends at column
    c with a positive entry dividing modulus, and each entry left of a
    diagonal is reduced into [0, that diagonal) of its column."""
    w = len(h)
    for c, row in enumerate(h):
        if len(row) != w or any(row[c + 1:]) or modulus % row[c]:
            return False
        if not all(0 <= row[j] < h[j][j] for j in range(c)):
            return False
    return True


def _oracle_hnf_mod(gens, modulus):
    """The nonzero rows of the unbounded HNF of gens stacked on modulus I."""
    w = len(gens[0])
    stacked = [list(g) for g in gens] + [
        [modulus * (i == j) for j in range(w)] for i in range(w)]
    return tuple(r for r in oracles.unbounded_hnf(stacked)[0] if any(r))


def _coefficients_ok(gens, modulus, h, coef):
    """Every coefficient lies in [0, modulus) and row c of H is
    sum_i coef[c][i] gens[i] modulo modulus Z^w."""
    for row, cs in zip(h, coef):
        assert len(cs) == len(gens) and all(0 <= x < modulus for x in cs)
        combo = [sum(c * g[j] for c, g in zip(cs, gens))
                 for j in range(len(row))]
        assert all((a - b) % modulus == 0 for a, b in zip(row, combo))


def test_hnf_frozen_example():
    h, coef = hnf([[1, 2], [0, 3]], 6)
    assert h == ((3, 0), (2, 1))
    assert h == _oracle_hnf_mod([[1, 2], [0, 3]], 6)
    assert hnf([[2, 4]], 6) == (((6, 0), (4, 2)), ((0,), (5,)))
    _coefficients_ok([[1, 2], [0, 3]], 6, h, coef)


def test_hnf_random_shape_and_coefficients():
    """On random generators and moduli, H is the unbounded HNF of the
    generators stacked on modulus I, every entry of H lies in
    [0, modulus], and the coefficients reproduce H modulo modulus."""
    rng = random.Random(15)
    for _ in range(200):
        k, w = rng.randint(1, 4), rng.randint(1, 5)
        modulus = rng.choice([1, 2, 6, 12, 30, 64, 210, rng.randint(1, 500)])
        gens = rand_int_rows(rng, k, w, -40, 40)
        h, coef = hnf(gens, modulus)
        assert hnf_shape_ok(h, modulus)
        assert all(0 <= x <= modulus for row in h for x in row)
        assert h == _oracle_hnf_mod(gens, modulus)
        _coefficients_ok(gens, modulus, h, coef)


def test_hnf_is_a_lattice_invariant():
    # Row-equivalent integer matrices (over Z), and generators changed by
    # multiples of the modulus, share their HNF.
    rows = [[2, 1, 0], [1, 3, 1]]
    mixed = [[3, 4, 1], [1, 3, 1]]        # row0 + row1, row1
    shifted = [[2 - 12, 1, 24], [1, 3 + 36, 1]]
    assert hnf(rows, 12)[0] == hnf(mixed, 12)[0] == hnf(shifted, 12)[0]


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


def _no_hnf(*args):
    raise AssertionError("coset_reduce_ints built an HNF")


def _assert_reduced(lam, v, x, d, m):
    """(x, d, m) is a reduction of lam mod V + Z^n: rep = x / d has entries
    in [0, 1), m is an integer vector and lam - m - rep lies in V."""
    rep = [F(a, d) for a in x]
    assert all(0 <= r < 1 for r in rep)
    assert all(type(a) is int for a in m)
    assert contains_vector(v, [a - b - c for a, b, c in zip(lam, m, rep)])


def test_coset_rep_is_the_reduced_representative(monkeypatch):
    """coset_reduce_ints gives an integer vector the representative 0 and
    the step lam itself, with no HNF; on every lam it returns a reduction
    whose representative is 0 exactly when the oracle puts lam in V + Z^n."""
    rng = random.Random(23)
    real_hnf = qlinalg.hnf
    integral = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = rand_int_rows(rng, rng.randint(0, 3), n, -3, 3)
        v = RationalSubspace.from_rows(rows, n)
        den = rng.choice([1, 1, 2, 3, 6])
        lam = [F(rng.randint(-6, 6), den) for _ in range(n)]
        whole = all(x.denominator == 1 for x in lam)
        integral += whole
        monkeypatch.setattr(qlinalg, "hnf", _no_hnf if whole else real_hnf)
        nums, d = over_one_denominator(lam)
        # over den * d, not in lowest terms, as "2/2" is
        x, d, m = coset_reduce_ints([a * den for a in nums], d * den, v)
        _assert_reduced(lam, v, x, d, m)
        assert (not any(x)) == oracles.oracle_lattice_membership(lam, rows, n)
        if whole:
            assert (x, d, m) == ([0] * n, 1, [int(a) for a in lam])
    assert 20 < integral < 180      # both branches are exercised
    with pytest.raises(ValueError):
        coset_reduce_ints([1, 2, 3], 1, RationalSubspace.zero(2))


def test_integer_coset_core_ignores_how_lam_is_written():
    """nums / den need not be in lowest terms: scaling both by k gives the
    same representative value and step, and an integral lam written with a
    denominator (as "2/2") gets 0 from coset_reduce_ints without an HNF."""
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
    v = RationalSubspace.from_rows([(1, 2)], 2)
    real_hnf = qlinalg.hnf
    qlinalg.hnf = None                  # an HNF here would raise TypeError
    try:
        assert coset_reduce_ints([2, -6], 2, v) == ([0, 0], 1, [1, -3])
    finally:
        qlinalg.hnf = real_hnf
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
    pivots, so coset_reduce_ints answers with no HNF.  Its answer is a
    reduction with m and rep 0 at the pivots, rep is 0 exactly when the
    oracle puts lam in V + Z^n, and rep is the same for every lam of the
    coset: shifted by an integer vector and by an element of V."""
    rng = random.Random(31)
    spaces = [RationalSubspace.zero(3), full_space(3),
              RationalSubspace.from_rows([(0, 1, 0)], 3),
              RationalSubspace.from_rows([(1, 2, -3)], 3),
              RationalSubspace.from_rows([(1, 0, 5, -2), (0, 1, -1, 3)], 4)]
    spaces += [_unit_pivot_space(rng, rng.randint(1, 5)) for _ in range(150)]
    monkeypatch.setattr(qlinalg, "hnf", _no_hnf)
    members = others = 0
    for v in spaces:
        assert all(row[p] == 1 for row, p in zip(v.rows, v.pivots))
        n = v.ambient_dim
        for _ in range(3):
            den = rng.randint(2, 9)
            nums = [rng.randint(-20, 20) for _ in range(n)]
            nums[0] = den * rng.randint(-2, 2) + rng.randint(1, den - 1)
            lam = [F(a, den) for a in nums]
            x, d, m = coset_reduce_ints(nums, den, v)
            _assert_reduced(lam, v, x, d, m)
            assert not any(x[p] or m[p] for p in v.pivots)
            member = not any(x)
            assert member == oracles.oracle_lattice_membership(
                lam, v.rows, n)
            members += member
            others += not member
            shift = [rng.randint(-5, 5) for _ in range(n)]
            for row in v.rows:
                c = F(rng.randint(-9, 9), rng.randint(1, 5))
                shift = [a + c * b for a, b in zip(shift, row)]
            shifted = coset_reduce([a + b for a, b in zip(lam, shift)], v)
            assert shifted[0] == tuple(F(a, d) for a in x)
    assert members > 20 and others > 20


def test_reading_a_point_component_builds_no_hnf(monkeypatch):
    """A point has L = 0, whose (empty) RREF has no pivot above 1: reading
    it builds no HNF.  A translated line with pivot entry 2 still builds
    one, modulo that pivot entry, of its one pivot generator -(2 / 2) 1 on
    the coordinate off the pivot."""
    from jumploci.tori import VarietyDescription
    calls = []
    real_hnf = qlinalg.hnf
    monkeypatch.setattr(qlinalg, "hnf", lambda gens, modulus: calls.append(
        (gens, modulus)) or real_hnf(gens, modulus))
    point = {"n": 2, "components": [{"lambda": ["1/3", "1/2"], "basis": []}]}
    VarietyDescription.from_json(point)
    assert calls == []
    line = {"n": 2, "components": [{"lambda": ["1/3", "0"],
                                    "basis": [[2, 1]]}]}
    VarietyDescription.from_json(line)
    assert calls == [([[-1]], 2)]


def test_coset_reduce_ints_matches_the_unbounded_hnf(monkeypatch):
    """On random spaces in Q^n, n <= 12, of every rank and mostly with
    pivot entries above 1, coset_reduce_ints gives the representative that
    the unbounded HNF with its unimodular witness gives, m is a step with
    lam - m - rep in V, and every entry of the HNF it builds lies in
    [0, scale] and every coefficient in [0, scale), scale being the lcm of
    V's pivot entries."""
    rng = random.Random(37)
    real_hnf = qlinalg.hnf
    built = []

    def bounded_hnf(gens, modulus):
        h, coef = real_hnf(gens, modulus)
        built.append(modulus)
        assert all(0 <= x <= modulus for row in h for x in row)
        assert all(0 <= x < modulus for row in coef for x in row)
        return h, coef

    monkeypatch.setattr(qlinalg, "hnf", bounded_hnf)
    ranks = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        k = rng.randint(0, n)
        rows = rand_int_rows(rng, k, n, -5, 5)
        v = RationalSubspace.from_rows(rows, n)
        den = rng.choice([2, 3, 4, 6, 7, 12, 30])
        nums = [rng.randint(-60, 60) for _ in range(n)]
        lam = [F(a, den) for a in nums]
        before = len(built)
        x, d, m = coset_reduce_ints(nums, den, v)
        _assert_reduced(lam, v, x, d, m)
        rep, _ = oracles.oracle_coset_reduce(lam, rows, n)
        assert tuple(F(a, d) for a in x) == rep
        scale = math.lcm(*(r[p] for r, p in zip(v.rows, v.pivots)))
        if scale > 1 and any(a % den for a in nums):
            assert built[before:] == [scale]
            ranks.add(v.dim)
        else:
            assert len(built) == before
    assert len(built) > 150 and len(ranks) > 8


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
    rep, m = coset_reduce((3, 1), v)       # m is any integer step that works
    assert rep == (F(0), F(0)) and contains_vector(
        v, [a - b for a, b in zip((3, 1), m)])
    assert coset_reduce(["1/2", "1/2"], v) == ((F(0), F(0)), (0, 0))
    assert not in_lattice_coset(("1/2", 0), v)


# ---------------------------------------------------------------------------
# Plücker coordinates and incidence equations
# ---------------------------------------------------------------------------

def test_plucker_frozen_example_and_normalization():
    p = RationalSubspace.from_rows([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    pv = oracles.plucker(p)
    assert pv.coords == (F(1), F(0), F(1), F(-1), F(0), F(1))
    lead = next(c for c in pv.coords if c != 0)
    assert lead == 1


def test_plucker_rejects_zero_space():
    with pytest.raises(ValueError):
        oracles.plucker(RationalSubspace.zero(3))


def test_subset_order_is_lexicographic():
    assert subset_order(4, 2) == [
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
        res = oracles.plucker_relation_residuals(
            oracles.plucker(space).coords, r, n)
        assert all(x == 0 for x in res)
        # the library's minors of the stored rows, unnormalized
        table = _minor_table(space.rows, n)
        res = oracles.plucker_relation_residuals(
            [table.get(cols, 0) for cols in subset_order(n, r)], r, n)
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
        pv = oracles.plucker(plane)
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
        assert oracles.plucker(space).coords == tuple(x / lead for x in minors)
        # the library's table: each minor over the minor at the pivots
        table = _minor_table(space.rows, n)
        assert tuple(F(table.get(cols, 0), table[space.pivots])
                     for cols in itertools.combinations(range(n), r)) == \
            tuple(x / lead for x in minors)
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
                    == oracles.oracle_schubert_equations(
                        fraction_rref(space), n, r))
            wide += 2 * s > n and r + s <= n
            complementary += r + s == n
        spaces += 1
    assert wide >= 50 and complementary >= 100


def test_plucker_layer_refuses_work_over_the_budget(monkeypatch):
    def no_minor(*args):
        raise AssertionError("a minor was computed")
    monkeypatch.setattr(qlinalg, "_minor_table", no_minor)
    monkeypatch.setattr(omega, "_minor_table", no_minor)
    e1 = RationalSubspace.from_rows([[1] + [0] * 39], 40)
    half = builders.torus([F(1, 2)] + [0] * 19,
                          [[int(i == j) for j in range(20)]
                           for i in range(1, 11)], 20)
    with pytest.raises(ValueError, match=(
            r"^C\(20, 10\) Pluecker coordinates = 184756 is above "
            rf"PLUCKER_BUDGET = {PLUCKER_BUDGET}$")):
        nonopen_witness(VarietyDescription(20, [half]), 0, 10, [1])
    with pytest.raises(ValueError, match=(
            r"C\(40, 21\) \* C\(40, 20\) Schubert coefficients = \d+ "
            "is above PLUCKER_BUDGET")):
        schubert_equations(e1, 20)
    with pytest.raises(ValueError, match="PLUCKER_BUDGET"):
        subset_order(40, 20)
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
                                      for row in fraction_rref(space)]


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
