"""Presentations, Fox derivatives, Alexander matrices, exact ranks."""

import cmath
import copy
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import builders
import datasets
import oracles
from jumploci import fox, laurent
from jumploci.fox import (
    MAX_ALEXANDER_ENTRIES,
    MAX_GENERATORS,
    MAX_NESTING_DEPTH,
    MAX_PRESENTATION_LETTERS,
    MAX_RELATOR_LETTERS,
    Abelianization,
    AlexanderMatrix,
    FreeWord,
    Presentation,
    PresentationSyntaxError,
    abelianize,
    alexander_matrix,
    contains_translated_torus,
    generic_rank_on_torus,
    parse_presentation,
    rank_at_character,
)
from jumploci.laurent import LaurentPoly, bareiss_rank, cyclotomic_rank
from jumploci.fox import _d1_support, _kept_columns
from suites import (character, fraction_values, generator_character_poly,
                    restricted_to_coset)

F = Fraction


# ---------------------------------------------------------------------------
# free words
# ---------------------------------------------------------------------------

def test_free_reduction_merges_and_cancels():
    w = FreeWord(((0, 2), (0, -2), (1, 3)))
    assert w.syllables == ((1, 3),)
    assert builders.generator(0) * builders.generator(0, -1) == FreeWord()
    assert FreeWord(((0, 1), (1, 2), (1, -1), (0, 3))).syllables == \
        ((0, 1), (1, 1), (0, 3))


def test_inverse_and_powers():
    w = FreeWord(((0, 1), (1, -2)))
    assert (w * w.inverse()).syllables == ()
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) * (w.inverse())
    assert w ** 0 == FreeWord()
    # one syllable: exponent arithmetic, whatever the size of the power
    assert builders.generator(1, -3) ** 10 ** 12 == builders.generator(1, -3 * 10 ** 12)
    assert builders.generator(1, -3) ** -2 == builders.generator(1, 6)
    assert (w ** 4).length() == 12


def test_conjugation_convention():
    a, b = builders.generator(0), builders.generator(1)
    assert a.conjugate_by(b) == b.inverse() * a * b


def test_letters_and_exponent_vector():
    w = FreeWord(((0, 2), (1, -1)))
    assert oracles.word_letters(w.syllables) == [(0, 1), (0, 1), (1, -1)]
    assert w.exponent_vector(3) == (2, -1, 0)


def test_commutator_of_compound_words_has_six_syllables():
    # [a^-1 x, c] expands to a^-1 x c x^-1 a c^-1: no free cancellation
    pres = parse_presentation("<a, b, c, x, y | [a^-1 x, c]>")
    relator = pres.relators[0]
    assert len(relator.syllables) == 6
    assert relator.syllables == ((0, -1), (3, 1), (2, 1), (3, -1), (0, 1), (2, -1))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_basic_commutator():
    pres = parse_presentation("<a,b | [a,b]>")
    assert pres.generator_names == ("a", "b")
    assert pres.relators[0] == FreeWord(((0, 1), (1, 1), (0, -1), (1, -1)))


def test_parse_powers_conjugates_and_groups():
    pres = parse_presentation("<x1, x2 | x1^-2, x1^x2, (x1 x2)^2>")
    r1, r2, r3 = pres.relators
    assert r1 == FreeWord(((0, -2),))
    assert r2 == FreeWord(((1, -1), (0, 1), (1, 1)))
    w = FreeWord(((0, 1), (1, 1)))
    assert r3 == w * w
    # juxtaposed atoms cancel and merge where they meet, letters counted
    pres = parse_presentation("<a, b, c | a b b^-1 a^-1 c, a^3 a^-5 b^2 b^-1, "
                              "(a b)^2 (a b)^-1 c^-1 c, [a, b] [b, a]>")
    assert [(r.syllables, r.length()) for r in pres.relators] == [
        (((2, 1),), 1), (((0, -2), (1, 1)), 3), (((0, 1), (1, 1)), 2),
        ((), 0)]
    # a power is u c^k u^-1 with c cyclically reduced: conjugates, ends that
    # merge, ends that cancel
    pres = parse_presentation("<a, b | (a b a^-1)^3, (a^2 b a^-1)^3, "
                              "(a^2 b a^-3)^-2, (b a b^-1 a^-1 b^-1)^2>")
    assert [r.syllables for r in pres.relators] == [
        ((0, 1), (1, 3), (0, -1)),
        ((0, 2), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, -1)),
        ((0, 3), (1, -1), (0, 1), (1, -1), (0, -2)),
        ((1, 1), (0, 1), (1, -2), (0, -1), (1, -1))]
    # the identity to any power is the identity, at once, even past the
    # letter limit or with a 4300-digit exponent
    start = time.perf_counter()
    for text in ("<a | a^0^99999999999>", "<a | (a a^-1)^99999999999>",
                 "<a, b | [a, a]^99999999999>",
                 "<a | (a a^-1)^-" + "9" * 4300 + ">"):
        assert parse_presentation(text).relators == (FreeWord(),)
    assert time.perf_counter() - start < 1


def test_parse_accepts_empty_relator_list():
    pres = parse_presentation("<a, b>")
    assert pres.relators == ()
    assert parse_presentation("<a,b | >").relators == ()


def test_parse_rejects_bad_input():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("<a, a | [a,a]>")          # duplicate name
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("<a, b | c>")              # unknown generator
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("<a, b | [a b]>")          # missing comma
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("a, b | [a,b]")            # missing '<'
    err = None
    try:
        parse_presentation("<a | a^>")
    except PresentationSyntaxError as exc:
        err = exc
    assert err is not None and err.position == len("<a | a^")


def test_parse_errors_on_numbers_give_a_position():
    # a digit run past int()'s limit, and a digit that is not decimal
    for text, at in (("<x | x^" + "7" * 4400 + ">", 7),
                     ("<x | x^-" + "0" * 4400 + "1>", 7),
                     ("<x | x^²>", 7)):
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation(text)
        assert info.value.position == at
    with pytest.raises(PresentationSyntaxError, match=(
            f"^a number of more than {sys.get_int_max_str_digits()} digits "
            "at position 7$")):
        parse_presentation("<x | x^" + "7" * 4400 + ">")


def test_parse_refuses_relators_over_the_letter_limit():
    limit = MAX_RELATOR_LETTERS
    assert parse_presentation(f"<a | a^{limit}>").relators[0].length() == limit
    for text in (f"<a | a^{limit + 1}>",
                 f"<a, b | (a b)^{limit // 2 + 1}>",       # refused unbuilt
                 f"<a, b | a^{limit} b>",
                 f"<a, b | [a^{limit // 2}, b]>",
                 f"<a, b | a^(b^{limit})>",
                 "<a, b | " + "[" * 20 + "a, b" + "], a" * 20 + ">"):
        with pytest.raises(ValueError, match="MAX_RELATOR_LETTERS"):
            parse_presentation(text)


def test_parse_refuses_more_generators_than_the_limit():
    # the abelianization builds a q x q matrix, so q is refused while the
    # generators are read, before any relator
    names = [f"x{i}" for i in range(1, MAX_GENERATORS + 2)]
    pres = parse_presentation(f"<{', '.join(names[:-1])} | [x1, x2]>")
    assert pres.num_generators == MAX_GENERATORS
    assert abelianize(pres).free_rank == MAX_GENERATORS
    text = f"<{', '.join(names)} | x1^{MAX_RELATOR_LETTERS + 1}>"
    with pytest.raises(ValueError, match=(
            f"^generator {MAX_GENERATORS + 1} at position "
            f"{text.index(names[-1])} exceeds the limit MAX_GENERATORS = "
            f"{MAX_GENERATORS}$")):
        parse_presentation(text)


def test_parse_refuses_more_relators_times_generators_than_the_limit():
    # the limit is reached exactly, in the widest and the narrowest shape;
    # one relator more is refused before it is read, so its own fault (a
    # power past the letter limit) is never seen
    for q in (MAX_GENERATORS, 1):
        names = ", ".join(f"x{i}" for i in range(1, q + 1))
        m = MAX_ALEXANDER_ENTRIES // q
        relators = ", ".join(["x1"] * m)
        pres = parse_presentation(f"<{names} | {relators}>")
        assert len(pres.relators) * q == MAX_ALEXANDER_ENTRIES
        text = f"<{names} | {relators}, x1^{MAX_RELATOR_LETTERS + 1}>"
        with pytest.raises(ValueError, match=(
                f"^relator {m + 1} at position {text.index('x1^')} makes "
                f"{(m + 1) * q} entries \\({m + 1} relators x {q} generators"
                f"\\), over the limit MAX_ALEXANDER_ENTRIES = "
                f"{MAX_ALEXANDER_ENTRIES}$")):
            parse_presentation(text)


def test_parse_refuses_presentations_over_the_letter_budget():
    # every power, conjugate and atom built counts, so long atoms that
    # cancel each other, or a long word raised to -1 over and over, cannot
    # make a short text slow; many relators at the letter limit still parse
    limit = MAX_RELATOR_LETTERS
    k = limit // 2 - 1
    cancelling = " ".join([f"(x1 x2)^{k} (x1 x2)^-{k}"] * 200)
    start = time.perf_counter()
    for text in (f"<x1, x2 | {cancelling}>",
                 f"<x1, x2 | (x1 x2)^{k}" + "^-1" * 300 + ">"):
        with pytest.raises(ValueError, match=(
                "over the budget MAX_PRESENTATION_LETTERS = "
                f"{MAX_PRESENTATION_LETTERS}$")):
            parse_presentation(text)
    assert time.perf_counter() - start < 2
    commutators = ", ".join(
        f"([x1, x{a}] [x{b}, x{c}] [x{d}, x{e}])^{limit // 12}"
        for a, b, c, d, e in ((2, 3, 4, 5, 6), (3, 2, 5, 4, 6),
                              (4, 2, 6, 3, 5), (5, 2, 4, 3, 6)) * 2)
    pres = parse_presentation(f"<x1, x2, x3, x4, x5, x6 | {commutators}>")
    assert [r.length() for r in pres.relators] == [12 * (limit // 12)] * 8


def _nested(shape: str, depth: int) -> str:
    """x1 inside ``depth`` groups, commutators or conjugating exponents."""
    if shape == "groups":
        word = "(" * depth + "x1" + ")" * depth
    elif shape == "commutators":
        word = "[" * depth + "x1" + ", x1]" * depth
    else:
        word = "^".join(["x1"] * (depth + 1))
    return f"<x1 | {word}>"


@pytest.mark.parametrize("shape", ["groups", "commutators", "conjugates"])
def test_parse_refuses_nesting_past_the_depth_limit(shape):
    # the parser descends by recursion, so nesting past the limit would
    # end in a RecursionError; at the limit it parses
    assert parse_presentation(_nested(shape, MAX_NESTING_DEPTH)).relators
    for depth in (MAX_NESTING_DEPTH + 1, 400, 999):
        with pytest.raises(ValueError, match=(
                f"nests deeper than MAX_NESTING_DEPTH = {MAX_NESTING_DEPTH} "
                "at position")):
            parse_presentation(_nested(shape, depth))


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------

def test_abelianize_torsion_only():
    ab = abelianize(parse_presentation("<x | x^2>"))
    assert ab.free_rank == 0
    assert ab.torsion_invariants == (2,)


def test_abelianize_commutator_relators_give_identity_projection():
    for text, rank in [(datasets.ONE_RELATOR_PRES, 2),
                       (datasets.CLOSED_OMEGA_PRES, 3),
                       (datasets.SURFACE_PRES, 6),
                       (datasets.PRODUCT_KERNEL_PRES, 5)]:
        ab = abelianize(parse_presentation(text))
        assert ab.free_rank == rank
        assert ab.torsion_invariants == ()
        n = rank
        assert ab.projection == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_abelianize_free_group_without_relators():
    ab = abelianize(parse_presentation("<a, b, c>"))
    assert ab.free_rank == 3 and ab.torsion_invariants == ()


def test_abelianize_mixed_rank_and_torsion():
    # <a, b | a^2 b^4> has abelianization Z + Z/2
    ab = abelianize(parse_presentation("<a, b | a^2 b^4>"))
    assert ab.free_rank == 1
    assert ab.torsion_invariants == (2,)
    # generator images must satisfy the relator: 2*im(a) + 4*im(b) = 0
    im = ab.projection
    assert 2 * im[0][0] + 4 * im[1][0] == 0


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------

def _assert_entries_match_letterwise_oracle(pres, ab=None):
    m = alexander_matrix(pres, ab)
    proj = [list(row) for row in m.abelianization.projection]
    for r, row in zip(pres.relators, m.entries):
        letters = [(g + 1, s) for g, s in oracles.word_letters(r.syllables)]
        for j, entry in enumerate(row):
            assert entry.num_vars == m.num_vars
            assert entry.terms == oracles.oracle_fox_derivative(
                letters, j + 1, proj)


def test_fox_derivative_matches_letterwise_oracle():
    # every Alexander matrix entry against the letter-by-letter derivative
    _assert_entries_match_letterwise_oracle(
        parse_presentation(datasets.CLOSED_OMEGA_PRES))
    # powers of +-1 ... +-6, alone, in products and inside commutators
    for k in (1, 2, 3, 4, 5, 6):
        for s in (k, -k):
            _assert_entries_match_letterwise_oracle(parse_presentation(
                f"<a, b, c | a^{s} b^{-s} a^{s} c, (a b^-1)^{s} c^2, "
                f"[a^{s}, b c^{-s}], (a^{s})^b>"))
    # conjugations, syllables that cancel, and non-identity projections:
    # Z^2 + Z/2 with x1 -> (2, 0), Z + Z/3 with a, b -> 1, and Z with
    # a -> 4, b -> 3
    for text in ("<a, b, c | a^b, (a^-2)^(b c), [a^b, c^-1], a^b^c^-1>",
                 "<a, b, c | a b b^-1 a^-1 c, a^3 a^-5 b^2 b^-1, "
                 "(a b)^2 (a b)^-1 c^-1 c, [a, b] [b, a] c>",
                 "<x1, x2, x3 | x1^2 x2^-4, [x1, x3]>",
                 "<a, b, c | a^(b^-2) c^-3 (a^-1)^c, [a^-2, b^c] a b^-1>",
                 "<a, b | a b^-2 a^2 b^-2, [a, b^2]>"):
        _assert_entries_match_letterwise_oracle(parse_presentation(text))
    # random words over a free group, under the identity and under random
    # integer projections
    rng = random.Random(41)
    for _ in range(60):
        words = [FreeWord([(rng.randint(0, 2), rng.choice([-6, -3, -2, -1, 1, 2, 3, 6]))
                           for _ in range(rng.randint(1, 6))])
                 for _ in range(3)]
        pres = Presentation(("a", "b", "c"), tuple(words))
        for proj in (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                     tuple(tuple(rng.randint(-2, 2) for _ in range(2))
                           for _ in range(3))):
            _assert_entries_match_letterwise_oracle(
                pres, Abelianization(free_rank=len(proj[0]), projection=proj,
                                     torsion_invariants=()))


def test_one_relator_matrix_row():
    m = alexander_matrix(parse_presentation(datasets.ONE_RELATOR_PRES))
    assert [e.to_text() for e in m.entries[0]] == [
        "1 - t2^2", "-1 - t2 + t1 + t1*t2"]
    assert oracles.fundamental_identity_holds(m)


def test_closed_omega_matrix_is_reproduced_verbatim():
    m = alexander_matrix(parse_presentation(datasets.CLOSED_OMEGA_PRES))
    got = tuple(tuple(e.to_text() for e in row) for row in m.entries)
    assert got == datasets.CLOSED_OMEGA_MATRIX_TEXT
    # and as polynomials, independent of rendering
    for row, exp_row in zip(m.entries, datasets.CLOSED_OMEGA_MATRIX_TEXT):
        for entry, text in zip(row, exp_row):
            assert entry == LaurentPoly.parse(text, 3)
    assert oracles.fundamental_identity_holds(m)


def test_fundamental_identity_on_all_dataset_presentations():
    for text in [datasets.ONE_RELATOR_PRES, datasets.CLOSED_OMEGA_PRES,
                 datasets.SURFACE_PRES, datasets.PRODUCT_KERNEL_PRES]:
        m = alexander_matrix(parse_presentation(text))
        assert oracles.fundamental_identity_holds(m)


def test_generator_character_poly():
    ab = abelianize(parse_presentation(datasets.ONE_RELATOR_PRES))
    assert generator_character_poly(ab, 0).to_text() == "-1 + t1"
    assert generator_character_poly(ab, 1).to_text() == "-1 + t2"


# ---------------------------------------------------------------------------
# exact ranks and jump-locus membership
# ---------------------------------------------------------------------------

def test_rank_at_characters_of_closed_omega_matrix():
    m = alexander_matrix(parse_presentation(datasets.CLOSED_OMEGA_PRES))
    assert rank_at_character(m, character((0, 0, 0))) == 0
    assert rank_at_character(m, character((F(1, 2), F(1, 3), F(1, 5)))) == 1
    assert rank_at_character(m, character((F(1, 3), 0, 0))) == 2
    assert rank_at_character(m, character((F(1, 2), 0, 0))) == 1


def test_rank_matches_numeric_rank_at_random_characters():
    rng = random.Random(42)
    m = alexander_matrix(parse_presentation(datasets.CLOSED_OMEGA_PRES))
    for _ in range(15):
        lam = [F(rng.randint(0, 5), 6) for _ in range(3)]
        exact = rank_at_character(m, character(lam))
        point = tuple(oracles.unit_root(x) for x in lam)
        numeric = oracles.complex_rank(
            [[oracles.eval_laurent_complex(e.terms, point) for e in row]
             for row in m.entries], tol=1e-6)
        assert exact == numeric


def test_depth1_membership_one_relator_group():
    # a torsion point is the coset of dimension 0
    m = alexander_matrix(parse_presentation(datasets.ONE_RELATOR_PRES))
    assert contains_translated_torus(m, builders.torus((0, F(1, 2)), []))
    assert not contains_translated_torus(m, builders.torus((F(1, 2), 0), []))
    assert contains_translated_torus(m, builders.torus((0, 0), []))  # b_1 = 2


def test_depth1_membership_validates_length():
    m = alexander_matrix(parse_presentation(datasets.ONE_RELATOR_PRES))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        contains_translated_torus(m, builders.torus((0, 0, 0), []))


def test_degree_one_tests_need_the_abelianization():
    # a matrix given by its entries alone has ranks but no d1, and one with
    # no rows could not count its columns
    M = AlexanderMatrix(alexander_matrix(parse_presentation(
        datasets.ONE_RELATOR_PRES)).entries, 2, None)
    assert rank_at_character(M, character((0, F(1, 2)))) == 0
    assert rank_at_character(M, character((F(1, 2), 0))) == 1
    for lam, rank in (([0, F(1, 2)], 0), ([0, 0], 1)):
        assert generic_rank_on_torus(M, builders.torus(lam, [(1, 0)])) == rank
    with pytest.raises(ValueError, match="needs the presentation's "
                                         "abelianization"):
        contains_translated_torus(M, builders.torus([0, F(1, 2)], []))
    with pytest.raises(ValueError, match="needs the presentation's "
                                         "abelianization"):
        contains_translated_torus(M, builders.torus([0, 0], [(1, 0)]))
    with pytest.raises(ValueError, match="no rows needs the presentation's "
                                         "abelianization"):
        AlexanderMatrix([], 1, None)
    empty = alexander_matrix(parse_presentation("<x1, x2 | >"))
    assert (empty.num_rows, empty.num_cols) == (0, 2)


def test_generic_rank_on_translated_torus():
    pres = parse_presentation(datasets.CLOSED_OMEGA_PRES)
    m = alexander_matrix(pres)
    on_translate = generic_rank_on_torus(m, datasets.closed_omega_component())
    full = generic_rank_on_torus(
        m, builders.torus([0, 0, 0], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    assert on_translate == 1
    assert full == 2


def test_contains_translated_torus_closed_omega():
    m = alexander_matrix(parse_presentation(datasets.CLOSED_OMEGA_PRES))
    assert contains_translated_torus(m, datasets.closed_omega_component())
    full = builders.torus(
        [0, 0, 0], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert not contains_translated_torus(m, full)
    point = builders.torus([F(1, 2), 0, 0], [], 3)
    assert contains_translated_torus(m, point)


def test_surface_group_contains_both_components():
    pres = parse_presentation(datasets.SURFACE_PRES)
    ab = abelianize(pres)
    assert ab.free_rank == 6 and ab.torsion_invariants == ()
    m = alexander_matrix(pres, ab)
    assert oracles.fundamental_identity_holds(m)
    assert generic_rank_on_torus(m, datasets.surface_subtorus()) == 3
    assert generic_rank_on_torus(m, datasets.surface_translated()) == 3
    assert contains_translated_torus(m, datasets.surface_subtorus())
    assert contains_translated_torus(m, datasets.surface_translated())


def random_alexander_matrix(rng, q=3):
    """The Alexander matrix of 2-4 commutators of random words in q
    generators: free rank q and rank at most q - 1 at every character."""
    names = [f"x{i}" for i in range(1, q + 1)]

    def word():
        return " ".join(f"{rng.choice(names)}^{rng.choice([-2, -1, 1, 2])}"
                        for _ in range(rng.randint(1, 3)))

    rels = ", ".join(f"[{word()}, {word()}]" for _ in range(rng.randint(2, 4)))
    return alexander_matrix(
        parse_presentation(f"<{', '.join(names)} | {rels}>"))


def cyclotomic_entries(M, lam):
    """Entries of M at exp(2 pi i lam) as {k: c} sums of c zeta_m^k."""
    m = 1
    for x in lam:
        m = m * x.denominator // math.gcd(m, x.denominator)
    out = []
    for row in M.entries:
        out.append([])
        for f in row:
            terms = {}
            for e, c in f.terms.items():
                k = int(sum(a * x for a, x in zip(e, lam)) * m) % m
                terms[k] = terms.get(k, 0) + c
            out[-1].append(terms)
    return out, m


def test_rank_at_character_matches_the_fraction_oracle():
    rng = random.Random(45)
    deficient = 0
    for trial in range(40):
        if trial % 2:
            M = random_alexander_matrix(rng)
        else:
            # rows 3 and 4 combine rows 1 and 2 with Laurent multipliers
            t1, t2, t3 = builders.variables(3)
            f, g = rng.choice([t1 - 1, t2 * t3 + 2]), rng.choice([t3, t1 - t2])
            top = [[rng.choice([t1, t2 - 1, t3 + t1, LaurentPoly(3, {})])
                    for _ in range(3)] for _ in range(2)]
            rows = top + [[f * a + g * b for a, b in zip(*top)],
                          [g * a for a in top[0]]]
            M = AlexanderMatrix(rows, 3, None)
        lam = tuple(F(rng.randrange(d), d)
                    for d in rng.choice([(2, 3, 4), (5, 5, 1), (12, 6, 4),
                                         (8, 8, 8), (3, 1, 1)]))
        entries, m = cyclotomic_entries(M, lam)
        expected = oracles.oracle_cyclotomic_rank(entries, m)
        assert rank_at_character(M, character(lam)) == expected
        deficient += expected < min(len(M.entries), 3)
    assert deficient >= 20


def test_rank_at_character_takes_no_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("a conjugate product taken on the rank path")
    monkeypatch.setattr(laurent, "_conjugate_product", refuse)
    m = alexander_matrix(parse_presentation(datasets.SURFACE_PRES))
    assert rank_at_character(m, character(
        [F(k, 163) for k in (59, 3, 7, 11, 13, 17)])) == 5
    assert rank_at_character(m, character((F(1, 5), 0, F(1, 2), 0, 0, 0))) == 3
    assert rank_at_character(m, character(
        (F(1, 5), F(2, 5), F(1, 2), 0, F(1, 3), 0))) == 5


def test_bareiss_takes_one_conjugate_product_per_divisor():
    # every division in a Bareiss step is by the previous pivot's leading
    # coefficient, so the conjugate products are few: on the surface group,
    # the golden plane of order 3 and the circle of order 502 each take at
    # most 3 (21 and 12 when every division took its own).  Neither coset
    # reaches Bareiss through contains_translated_torus any more, so
    # Bareiss is called on their restriction directly.
    m = alexander_matrix(parse_presentation(datasets.SURFACE_PRES))
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    for lam, rows in (((F(1, 3), F(2, 3), 0, 0, F(1, 3), 0), e[:2]),
                      ((F(1, 251), 0, F(1, 2), 0, 0, 0), e[3:4])):
        torus = builders.torus(lam, rows, 6)
        columns = _kept_columns(m, torus.translate, torus.direction.rows)
        laurent._conjugate_product.cache_clear()
        assert bareiss_rank(builders.restricted_polys(
            m.term_table(), torus, columns)) == 5
        assert 1 <= laurent._conjugate_product.cache_info().misses <= 3
        assert not contains_translated_torus(m, torus)


#: Presentations for the rank properties: the worked examples, and groups
#: with torsion in the abelianization, where a generator can have zero
#: free image (a in the first two) and so is never the column left out,
#: and a free group, whose matrix has no rows.
RANK_PRESENTATIONS = (
    datasets.CLOSED_OMEGA_PRES, datasets.ONE_RELATOR_PRES,
    datasets.SURFACE_PRES, datasets.PRODUCT_KERNEL_PRES,
    "<a, b, c | a^2, [b, c] a>", "<a, b, c | a^3, [b, a c^2]>",
    "<a, b | a^2 b^-4, [a, b]>", "<a, b>")


def fraction_matrix(rng, n=2, q=3):
    """A hand-built AlexanderMatrix with Fraction coefficients and no
    abelianization, whose third row combines the first two."""
    def entry():
        f = LaurentPoly(n, {})
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(-1, 2) for _ in range(n))
            f = f + builders.monomial(e, F(rng.choice([-3, -1, 1, 2]),
                                              rng.choice([1, 2, 3])), n)
        return f
    top = [[entry() for _ in range(q)] for _ in range(2)]
    a, b = entry(), entry()
    return AlexanderMatrix(
        top + [[a * x + b * y for x, y in zip(*top)]], n, None)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_at_character_equals_the_oracle_on_the_full_matrix(data):
    # rank_at_character leaves one column out of a presentation's matrix,
    # and the oracle eliminates every column over Q(zeta_m) with inverses
    kind = data.draw(st.sampled_from(("presentation", "random", "fractions")))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    if kind == "presentation":
        M = alexander_matrix(parse_presentation(
            data.draw(st.sampled_from(RANK_PRESENTATIONS))))
    elif kind == "random":
        M = random_alexander_matrix(rng, data.draw(st.integers(2, 4)))
    else:
        M = fraction_matrix(rng)
    order = data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 12)))
    lam = [F(data.draw(st.integers(0, order - 1)), order)
           for _ in range(M.num_vars)]
    entries, m = cyclotomic_entries(M, lam)
    assert rank_at_character(M, character(lam)) == \
        oracles.oracle_cyclotomic_rank(entries, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_point_containment_is_the_rank_condition_at_the_point(data):
    # a torsion point is the coset of dimension 0, and on it the test reads
    # rank d2(chi) + rank d1(chi) <= q - 1, with rank d1(chi) = 1 exactly
    # when chi moves some generator: a_j . lam is not an integer
    M = alexander_matrix(parse_presentation(
        data.draw(st.sampled_from(RANK_PRESENTATIONS))))
    order = data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 12)))
    lam = [F(data.draw(st.integers(0, order - 1)), order)
           for _ in range(M.num_vars)]
    moves = any(sum(a * x for a, x in zip(row, lam)).denominator != 1
                for row in M.abelianization.projection)
    expected = rank_at_character(M, character(lam)) + moves <= M.num_cols - 1
    assert contains_translated_torus(M, builders.torus(lam, [], M.num_vars)) \
        == expected


def test_rank_at_character_leaves_out_one_column_only_where_it_moves():
    # the trivial character moves no generator, a generator of zero free
    # image never moves, and a hand-built matrix keeps every column
    M = alexander_matrix(parse_presentation("<a, b, c | a^2, [b, c] a>"))
    assert M.abelianization.projection[0] == (0, 0)
    trivial = character((0, 0))
    assert _kept_columns(M, trivial) == [0, 1, 2]
    entries, m = cyclotomic_entries(M, (F(0), F(0)))
    assert rank_at_character(M, trivial) == \
        oracles.oracle_cyclotomic_rank(entries, m)
    dropped = set()
    for lam in [(F(1, 2), F(0)), (F(0), F(1, 3)), (F(1, 5), F(2, 5))]:
        kept = _kept_columns(M, character(lam))
        assert len(kept) == 2 and 0 in kept
        dropped |= {0, 1, 2} - set(kept)
        entries, m = cyclotomic_entries(M, lam)
        assert rank_at_character(M, character(lam)) == \
            oracles.oracle_cyclotomic_rank(entries, m)
    assert dropped == {1, 2}
    hand_built = fraction_matrix(random.Random(49))
    assert _kept_columns(hand_built, character((F(1, 2), F(1, 3)))) == \
        [0, 1, 2]


def test_generic_rank_leaving_out_a_column_is_the_full_bareiss_rank():
    # translates of order 1 and 2 restrict into Q and run Bareiss on ints,
    # others into Q(zeta_m); each against Bareiss on every column
    rng = random.Random(50)
    dropped = {1: 0, 2: 0, 3: 0}
    for trial in range(60):
        M = (alexander_matrix(parse_presentation(datasets.CLOSED_OMEGA_PRES))
             if trial % 5 == 0
             else random_alexander_matrix(rng, rng.randint(2, 3)))
        n = M.num_vars
        order = (1, 2, rng.choice([3, 4, 6]))[trial % 3]
        lam = [F(rng.randrange(order), order) for _ in range(n)]
        rows = [[rng.choice([0, 1, -1, 2]) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))]
        torus = builders.torus(lam, rows, n)
        if torus.dim == 0:
            continue
        # the reference restricts term by term and takes every column
        full = bareiss_rank(restricted_to_coset(M.entries, torus))
        assert generic_rank_on_torus(M, torus) == full
        kept = _kept_columns(M, torus.translate, torus.direction.rows)
        dropped[min(torus.translate.order, 3)] += len(kept) < M.num_cols
    assert min(dropped.values()) >= 5


def test_restriction_through_the_term_table_matches_the_oracle():
    # every entry restricted through the term table, against the oracle's
    # term-by-term restriction, on the datasets' presentations at random
    # cosets; and the generic rank against Bareiss on the oracle's matrix
    rng = random.Random(51)
    checked = {}
    for text in (datasets.CLOSED_OMEGA_PRES, datasets.ONE_RELATOR_PRES,
                 datasets.SURFACE_PRES, datasets.PRODUCT_KERNEL_PRES):
        M = alexander_matrix(parse_presentation(text))
        n = M.num_vars
        for order in (1, 2, 3, 4, 6, 127):
            for dim in (1, 2):
                rows = [[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(dim)]
                torus = builders.torus(
                    [F(rng.randrange(order), order) for _ in range(n)],
                    rows, n)
                if torus.dim != dim:
                    continue
                oracle = restricted_to_coset(M.entries, torus)
                assert builders.restricted_polys(
                    M.term_table(), torus, range(M.num_cols)) == oracle
                # Bareiss on every column over Z[zeta_127], and on planes of
                # the surface group's 16 x 6 matrix, takes seconds
                if order == 127 and n > 3 or n == 6 and dim == 2:
                    continue
                assert generic_rank_on_torus(M, torus) == bareiss_rank(oracle)
                checked[order] = checked.get(order, 0) + 1
    assert min(checked.values()) >= 3 and len(checked) == 6


def test_generic_rank_at_a_point_is_the_bareiss_rank_of_the_restriction():
    rng = random.Random(46)
    for text in (datasets.CLOSED_OMEGA_PRES, datasets.ONE_RELATOR_PRES,
                 datasets.SURFACE_PRES):
        M = alexander_matrix(parse_presentation(text))
        for _ in range(6):
            order = rng.choice([2, 3, 4, 6, 12])
            lam = [F(rng.randrange(order), order) for _ in range(M.num_vars)]
            point = builders.torus(lam, [], M.num_vars)
            restricted = restricted_to_coset(M.entries, point)
            assert generic_rank_on_torus(M, point) == bareiss_rank(restricted)


def test_generic_rank_on_random_tori_lies_between_point_ranks_and_fox_bound():
    # Rank is lower-semicontinuous, so its value at any point of the coset
    # is at most the generic rank; Fox's identity
    # sum_j (dr/dx_j)(t^{a_j} - 1) = 0 caps the generic rank at q - 1
    # wherever d1 is generically nonzero.  The restriction substitutes the
    # stored RREF rows of L, which for a plane in Q^3 are often no basis
    # of L meet Z^3, as (2, 0, 1) and (0, 2, 1) are not.
    rng = random.Random(48)
    unsaturated = capped = attained = 0
    for trial in range(80):
        q = rng.choice([2, 3])
        M = random_alexander_matrix(rng, q)
        dim = rng.randint(1, 2)
        if q == 3 and trial % 4 == 0:
            rows, dim = [(2, 0, 1), (0, 2, 1)], 2
        else:
            rows = [[rng.choice([0, 1, -1, 2, -2, 3]) for _ in range(q)]
                    for _ in range(dim)]
        lam = [F(rng.randrange(d), d) for d in rng.choice(
            [(1,) * q, (2,) * q, (2, 3, 1), (4, 1, 6), (3, 3, 2)])[:q]]
        torus = builders.torus(lam, rows, q)
        if torus.dim != dim:
            continue
        basis = torus.direction.rows
        if dim == 2 and q == 3:
            minors = [basis[0][i] * basis[1][j] - basis[0][j] * basis[1][i]
                      for i, j in ((0, 1), (0, 2), (1, 2))]
            unsaturated += math.gcd(*minors) > 1
        generic = generic_rank_on_torus(M, torus)
        point_ranks = []
        for _ in range(3):
            steps = [F(rng.randrange(k), k) for k in rng.choice(
                [(2, 3), (5, 4), (3, 3), (7, 2)])[:dim]]
            point = [x + sum(c * row[i] for c, row in zip(steps, basis))
                     for i, x in enumerate(fraction_values(torus.translate))]
            point_ranks.append(rank_at_character(M, character(point)))
        assert max(point_ranks) <= generic
        attained += max(point_ranks) == generic
        if _d1_support(M.abelianization, torus.translate, basis):
            capped += 1
            assert generic <= q - 1
    assert unsaturated >= 5 and capped >= 30 and attained >= 30


def test_d1_support_reads_the_restriction_off_the_pairings():
    # d1 = (t^{a_j} - 1)_j restricted to random cosets: the entries that
    # vanish there are those _d1_support leaves out
    rng = random.Random(47)
    seen = []
    for text in (datasets.CLOSED_OMEGA_PRES, datasets.ONE_RELATOR_PRES,
                 datasets.SURFACE_PRES, "<a, b | a^2 b^-3>"):
        ab = abelianize(parse_presentation(text))
        n = ab.free_rank
        d1 = [[generator_character_poly(ab, j)
               for j in range(len(ab.projection))]]
        cosets = [([0] * n, [])]                 # the identity: d1 = 0
        for _ in range(12):
            order = rng.choice([1, 1, 2, 3, 6])
            cosets.append(([F(rng.randrange(order), order) for _ in range(n)],
                           [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n)]
                            for _ in range(rng.randint(0, n))]))
        for lam, rows in cosets:
            torus = builders.torus(lam, rows, n)
            restricted = restricted_to_coset(d1, torus)[0]
            expected = [j for j, p in enumerate(restricted) if not p.is_zero()]
            assert _d1_support(ab, torus.translate,
                               torus.direction.rows) == expected
            seen.append(bool(expected))
    assert seen.count(False) >= 4 and seen.count(True) >= 4


# ---------------------------------------------------------------------------
# generic ranks: the point of Cauchy's bound, the small point and Bareiss
# ---------------------------------------------------------------------------

#: The benchmark's group that RANK_PRESENTATIONS lacks; the other three
#: (surface, closed, one-relator) are among them.
F2XF2_PRES = "<x1, x2, x3, x4 | [x1, x3], [x1, x4], [x2, x3], [x2, x4]>"


def coset_routes(M, torus):
    """The routes of generic_rank_on_torus on the coset, each taken
    directly from one restriction: (s, phi(m) and the predicted size of
    the point of Cauchy's bound, a function giving the rank there, the
    rank at the small point, and a function giving Bareiss's rank)."""
    chi, basis = torus.translate, torus.direction.rows
    columns = _kept_columns(M, chi, basis)
    rows = M.term_table().restrict(chi, basis, columns)
    bounds = [(norm, spans) for _, _, norm, spans in rows if norm]
    s = min(len(bounds), len(columns))
    phi = len(laurent.cyclotomic_polynomial(chi.order)) - 1
    if not s:
        return 0, phi, 0, lambda: 0, 0, lambda: 0
    base, weights, size = fox._cauchy_point(bounds, phi, s)
    small = cyclotomic_rank(
        laurent.at_point(rows, fox._primes(len(basis))), chi.order)

    def cauchy():
        point = [base ** w for w in weights]
        return cyclotomic_rank(laurent.at_point(rows, point), chi.order)
    return (s, phi, size, cauchy, small, lambda: bareiss_rank(
        laurent.on_coset(rows, chi.order, len(basis))))


def numeric_generic_rank(M, torus, rng):
    """The oracle: the complex rank of every column of M, floating point,
    at two random points rho exp(2 pi i B^T theta) of the coset."""
    lam = fraction_values(torus.translate)
    basis = torus.direction.rows
    best = 0
    for _ in range(2):
        u = [cmath.exp(2j * math.pi * rng.random()) for _ in basis]
        t = [oracles.unit_root(x) * math.prod(
            uj ** row[i] for uj, row in zip(u, basis))
            for i, x in enumerate(lam)]
        best = max(best, oracles.complex_rank(
            [[oracles.eval_laurent_complex(f.terms, t) for f in row]
             for row in M.entries], tol=1e-7))
    return best


def test_generic_rank_routes_agree_with_bareiss_and_the_oracle():
    # random cosets of dimension 1 to 3 with translates of orders 1, 2, 3,
    # 4, 6 and 127, and 509 on circles, on the rank presentations and the
    # benchmark's groups.  The rank at the point of Cauchy's bound (taken
    # where the library takes it), Bareiss's rank and the oracle's agree;
    # the rank at the small point is at most them, and is all of them
    # when it reaches s.  Bareiss on the surface group's planes over
    # Z[zeta_127] and its circles over Z[zeta_509] takes up to half a
    # second, so those cosets lie on its components, where it is fast.
    rng = random.Random(52)
    routes = {"point": 0, "refuted": 0, "survived": 0, "bareiss": 0}
    surface = {(0, 0, F(1, 2), 0, 0, 0): (0, 1), (0,) * 6: (2, 3, 4, 5)}
    for text in RANK_PRESENTATIONS + (F2XF2_PRES,):
        M = alexander_matrix(parse_presentation(text))
        n = M.num_vars
        on_components = text == datasets.SURFACE_PRES
        for order in (1, 2, 3, 4, 6, 127, 509):
            dims = range(1, min(3, n) + 1)
            if order == 509 and not on_components:
                dims = [1]
            elif order >= 127 and on_components:
                dims = [1, 2, 2, 3, 3]
            for d in dims:
                if on_components and order >= 127:
                    lam0, free = rng.choice([c for c in surface.items()
                                             if len(c[1]) >= d])
                    lam = list(lam0)
                    for i in free:
                        lam[i] = F(rng.randrange(order), order)
                    rows = [[rng.randint(-3, 3) if i in free else 0
                             for i in range(n)] for _ in range(d)]
                else:
                    lam = [F(rng.randrange(order), order) for _ in range(n)]
                    rows = [[rng.randint(-2, 2) for _ in range(n)]
                            for _ in range(d)]
                torus = builders.torus(lam, rows, n)
                if torus.dim != d:
                    continue
                s, phi, size, cauchy, small, bareiss = coset_routes(M, torus)
                generic = bareiss()
                assert generic == numeric_generic_rank(M, torus, rng)
                assert generic == generic_rank_on_torus(M, torus)
                assert small <= generic
                if small == s:
                    assert generic == s
                if phi * size <= fox.POINT_BUDGET:
                    route = "point"
                elif small == s:
                    route = "refuted"
                else:
                    route = ("survived" if size <= fox.POINT_BUDGET
                             else "bareiss")
                if route in ("point", "survived"):
                    assert cauchy() == generic
                routes[route] += 1
    assert min(routes.values()) >= 3, routes


def test_every_route_restricts_the_coset_once(monkeypatch):
    # generic_rank_on_torus restricts a coset once and hands the rows to
    # every route it takes, and the term table, which the CLI memo keeps
    # between calls, holds nothing of the call.  On the surface group: a
    # plane of order 3 is ranked at the point of Cauchy's bound at once, a
    # plane of order 127 is refuted at the small point, a circle of order
    # 502 survives it and is ranked at the point of Cauchy's bound, and a
    # 3-torus of order 127 with wide direction rows survives it and goes
    # to Bareiss.
    M = alexander_matrix(parse_presentation(datasets.SURFACE_PRES))
    table = M.term_table()
    calls, restrict_once = [], laurent.TermTable.restrict

    def restrict(self, *args):
        calls.append("restrict")
        return restrict_once(self, *args)

    def at_point(rows, point):
        calls.append("small" if point == fox._primes(len(point))
                     else "cauchy")
        return laurent.at_point(rows, point)

    def on_coset(*args):
        calls.append("bareiss")
        return laurent.on_coset(*args)

    monkeypatch.setattr(laurent.TermTable, "restrict", restrict)
    monkeypatch.setattr(fox, "at_point", at_point)
    monkeypatch.setattr(fox, "on_coset", on_coset)
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    for lam, rows, rank, route in (
            ((F(1, 3), F(2, 3), 0, 0, F(1, 3), 0), e[:2], 5, ["cauchy"]),
            ([F(k, 127) for k in (56, 16, 16, 0, 124, 111)],
             [(-2, -1, -1, -1, -1, 0), (0, -1, 2, -1, -1, -1)], 5, ["small"]),
            ((F(1, 251), F(2, 251), F(1, 2), 0, 0, 0), e[:1], 3,
             ["small", "cauchy"]),
            ((0, 0, F(3, 127), F(5, 127), F(7, 127), F(11, 127)),
             [(0, 0, 2, 0, 0, -1), (0, 0, 0, 1, 0, 2), (0, 0, 0, 0, 2, -3)],
             3, ["small", "bareiss"])):
        before = [copy.deepcopy(getattr(table, name))
                  for name in laurent.TermTable.__slots__]
        calls.clear()
        assert generic_rank_on_torus(M, builders.torus(lam, rows, 6)) == rank
        assert calls == ["restrict"] + route
        assert [getattr(table, name)
                for name in laurent.TermTable.__slots__] == before


def test_containment_takes_the_d1_support_once(monkeypatch):
    # contains_translated_torus computes the generators that move on the
    # coset once, for the rank of d1 and the column left out alike
    M = alexander_matrix(parse_presentation(datasets.SURFACE_PRES))
    calls = []

    def counted(*args):
        calls.append(args)
        return _d1_support(*args)

    monkeypatch.setattr(fox, "_d1_support", counted)
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    for lam, rows, inside in (((0, 0, F(1, 2), 0, 0, 0), e[:2], True),
                              ((F(1, 3), 0, 0, 0, 0, 0), [], False),
                              ((F(1, 127), 0, F(1, 2), 0, 0, 0), e[3:4],
                               False)):
        calls.clear()
        assert contains_translated_torus(
            M, builders.torus(lam, rows, 6)) is inside
        assert len(calls) == 1
