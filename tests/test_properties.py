"""Randomized suites (oracle cross-checks) and algebraic-law property tests."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import builders
import oracles
import suites
from jumploci.fox import FreeWord
from jumploci.laurent import LaurentPoly
from jumploci.qlinalg import RationalSubspace

F = Fraction


# ---------------------------------------------------------------------------
# oracle suites (also exercised by the acceptance gate)
# ---------------------------------------------------------------------------

def test_partition_oracle_suite():
    assert suites.suite_partition_oracle() >= 200


def test_lattice_oracle_suite():
    assert suites.suite_lattice_oracle() >= 200


def test_fox_product_rule_suite():
    assert suites.suite_fox_product_rule() >= 200


def test_fox_row_identity_suite():
    assert suites.suite_fox_row_identity() >= 200


def test_plucker_relations_suite():
    assert suites.suite_plucker_relations() >= 200


def test_sigma_containment_suite():
    assert suites.suite_sigma_containment() >= 200


def test_closed_form_agreement_suite():
    assert suites.suite_closed_form_agreement() >= 200


# ---------------------------------------------------------------------------
# algebraic laws via hypothesis
# ---------------------------------------------------------------------------

def poly_from_terms(terms, n=2):
    f = LaurentPoly(n, {})
    for expo, c in terms:
        f = f + builders.monomial(expo, c, n)
    return f


laurent_terms = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
              st.integers(-3, 3)),
    max_size=5)


@settings(max_examples=60, deadline=None)
@given(laurent_terms, laurent_terms, laurent_terms)
def test_laurent_ring_laws(ta, tb, tc):
    a, b, c = poly_from_terms(ta), poly_from_terms(tb), poly_from_terms(tc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly(2, {})


free_words = st.lists(
    st.tuples(st.integers(0, 2),
              st.integers(-2, 2).filter(lambda e: e != 0)),
    max_size=5).map(lambda syl: FreeWord(tuple(syl)))


@settings(max_examples=60, deadline=None)
@given(free_words, free_words, free_words)
def test_free_group_laws(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert u * u.inverse() == FreeWord()
    assert u * FreeWord() == u
    assert (u ** 2) == u * u


def _reduce_letters(letters):
    """Free reduction one letter at a time, the reference for products."""
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


@settings(max_examples=200, deadline=None)
@given(free_words, st.integers(0, 5), free_words)
def test_seam_reduced_product_is_the_reduced_concatenation(u, k, w):
    # v starts with the inverse of u's last k syllables, so the seam cancels
    # across several syllables, then merges or stops
    tail = u.syllables[len(u.syllables) - min(k, len(u.syllables)):]
    v = FreeWord(tuple((g, -e) for g, e in reversed(tail)) + w.syllables)
    product = u * v
    reduced = FreeWord(u.syllables + v.syllables)
    assert product == reduced and product.length() == reduced.length()
    letters = oracles.word_letters(product.syllables)
    assert letters == _reduce_letters(oracles.word_letters(u.syllables)
                                      + oracles.word_letters(v.syllables))
    assert product.length() == len(letters)


@settings(max_examples=200, deadline=None)
@given(free_words, st.integers(-6, 6))
def test_power_is_the_reduced_repetition(u, k):
    base = u if k >= 0 else u.inverse()
    reduced = FreeWord(base.syllables * abs(k))
    power = u ** k
    assert power == reduced and power.length() == reduced.length()
    assert oracles.word_letters(power.syllables) == _reduce_letters(
        oracles.word_letters(base.syllables) * abs(k))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)
char_values = st.lists(rationals, min_size=2, max_size=2)


@settings(max_examples=60, deadline=None)
@given(char_values, char_values)
def test_torsion_character_group_laws(xs, ys):
    # the integer form is a function on Q^2 / Z^2: it sees xs only mod Z^2,
    # so sums and differences of representatives give well-defined
    # characters
    a, b = suites.character(xs), suites.character(ys)
    total = suites.character([x + y for x, y in zip(xs, ys)])
    assert total == suites.character([x + y for x, y in
                                      zip(a.values, b.values)])
    assert total == suites.character([y + x for x, y in zip(xs, ys)])
    assert suites.character([x - y for x, y in zip(xs, xs)]).is_trivial()
    assert suites.character([x + 3 for x in xs]) == a
    assert all(0 <= v < 1 for v in total.values)
    assert math.lcm(*(v.denominator for v in a.values)) == a.order


basis_rows = st.lists(
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    max_size=3)


@settings(max_examples=60, deadline=None)
@given(basis_rows, char_values | st.lists(rationals, min_size=3, max_size=3))
def test_translated_torus_canonicalization_idempotent(rows, lam):
    if len(lam) != 3:
        lam = list(lam) + [F(0)] * (3 - len(lam))
    t = builders.torus(lam, rows, 3)
    again = builders.torus(t.translate.values, t.direction.basis, 3)
    assert again == t
    assert again.translate.values == t.translate.values
    # shifting the representative by lattice vectors or direction vectors
    # lands in the same canonical form
    shifted = [x + 1 for x in lam]
    assert builders.torus(shifted, rows, 3) == t
    if t.direction.dim:
        along = [x + y for x, y in zip(lam, t.direction.basis[0])]
        assert builders.torus(along, rows, 3) == t


@settings(max_examples=60, deadline=None)
@given(basis_rows)
def test_subspace_from_own_basis_is_identity(rows):
    s = RationalSubspace.from_rows([[F(x) for x in r] for r in rows], 3)
    assert RationalSubspace.from_rows(s.basis, 3) == s
