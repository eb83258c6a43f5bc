"""Finitely presented groups and Fox free differential calculus.

A presentation ``<x1,...,xq | r1,...,rm>`` determines:

* the abelianization Z^q / (row lattice of the relator exponent matrix),
  split by Smith normal form into a free part Z^n and torsion invariants;
* the m x q Alexander matrix whose (i, j) entry is the image of the left
  Fox derivative d(r_i)/d(x_j) under the torsion-free abelianization
  alpha : G -> Z^n, a Laurent polynomial in n variables.  One walk over the
  letters of r_i builds row i on integers: with p the image of the prefix
  read so far, x_g adds t^p to column g and x_g^-1 adds -t^(p - alpha(x_g)).

The parser reads each word onto one stack of syllables, reducing an atom
only where it meets the top and counting letters as it goes, so parsing
is linear in the letters.

Depth-one jump-locus membership of a character rho = exp(2 pi i lambda) is
the determinantal condition

    rank d2(rho) + rank d1(rho) <= q - 1,

where d2 is the Alexander matrix and d1 is the column with entries
rho(x_j) - 1.  Ranks at torsion characters evaluate the matrix into integer
vectors of Z[zeta_m] and eliminate them without division; generic ranks
along a translated subtorus restrict the entries to the coset first and
then run fraction-free elimination.  Both leave out one column that Fox's
fundamental identity makes redundant (see :class:`AlexanderMatrix`).

>>> P = parse_presentation("<x1,x2 | x1 x2^2 x1^-1 x2^-2>")
>>> alexander_matrix(P).entries[0][0].to_text()
'1 - t2^2'
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .laurent import (LaurentPoly, TermTable, bareiss_rank, cyclotomic_rank,
                      restrict_matrix_to_translated_torus)
from .qlinalg import number_too_long, snf
from .tori import TorsionCharacter, TranslatedTorus

#: The longest relator :func:`parse_presentation` builds, in letters (the sum
#: of |exponent| over the syllables).  The Fox derivatives of a relator cost
#: one term per letter, so a longer power is refused before it is built.
MAX_RELATOR_LETTERS = 100_000

#: The most generators :func:`parse_presentation` reads.  The
#: abelianization builds a q x q unimodular matrix for q generators, and the
#: Alexander matrix has q columns of polynomials in up to q variables, so
#: the cost grows as q^2: ``alexander`` on ``<x1, ..., xq | >`` peaks at
#: 17 MB (the interpreter's own) at q = 256, and at 78 MB in 0.4 s at
#: q = 2000.  It matches ``laurent.MAX_VARIABLES``.
MAX_GENERATORS = 256

#: The most letters :func:`parse_presentation` builds in one presentation:
#: every power and conjugate it forms and every atom it appends to a word,
#: at each level of nesting.  Parsing costs time linear in this count, so a
#: short text of long atoms that cancel each other cannot make it slow.
MAX_PRESENTATION_LETTERS = 20 * MAX_RELATOR_LETTERS

#: The most entries, relators times generators, of a presentation that
#: :func:`parse_presentation` reads: the relator exponent matrix and the
#: Alexander matrix each have one entry per relator and generator.  At the
#: limit ``alexander`` takes 0.06 s and 22 MB on 2048 relators ``x1``,
#: 0.1 s on 1024 six-letter relators over two generators and 0.02 s on 8
#: commutators over 256 generators.  A relator that would pass the limit
#: is refused before it is read.
MAX_ALEXANDER_ENTRIES = 2048

#: The deepest :func:`parse_presentation` lets groups ``(w)``, commutators
#: ``[u, v]`` and conjugating exponents ``u^w`` nest in one another.  The
#: parser descends by recursion, at most three frames a level, so this
#: keeps it well inside Python's recursion limit.
MAX_NESTING_DEPTH = 100

# ---------------------------------------------------------------------------
# free words
# ---------------------------------------------------------------------------

class FreeWord:
    """A freely reduced word in syllable form: ((gen_index, exponent), ...).

    Generator indices are zero-based; exponents are nonzero; adjacent
    syllables use distinct generators.

    >>> w = parse_presentation("<a, b | a b^2>").relators[0]
    >>> w, w * w.inverse()
    (FreeWord(((0, 1), (1, 2))), FreeWord(()))
    """

    __slots__ = ("syllables", "_length")

    def __init__(self, syllables=()):
        stack: list = []
        length = 0
        for g, e in syllables:
            e = int(e)
            if e:
                length += abs(e) - _join(stack, ((int(g), e),))
        self.syllables, self._length = tuple(stack), length

    @classmethod
    def _make(cls, syllables: tuple, length: int) -> "FreeWord":
        """The word on freely reduced ``syllables`` of ``length`` letters."""
        w = cls.__new__(cls)
        w.syllables, w._length = syllables, length
        return w

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        stack = list(self.syllables)
        cancelled = _join(stack, other.syllables)
        return FreeWord._make(tuple(stack),
                              self._length + other._length - cancelled)

    def __pow__(self, k: int) -> "FreeWord":
        """Consecutive copies cancel the matched ends s_0 ... s_(i-1) and
        s_(j+1) ... against each other and meet as s_j s_i, merged when of one
        generator; that meeting is built once and repeated, so the power
        costs time linear in the result."""
        s = (self if k > 0 else self.inverse()).syllables
        if not s or not k:
            return FreeWord._make((), 0)
        i, j, k = 0, len(s) - 1, abs(k)
        while i < j and s[i][0] == s[j][0] and s[i][1] + s[j][1] == 0:
            i, j = i + 1, j - 1
        if i == j:
            word = s[:i] + ((s[i][0], s[i][1] * k),) + s[i + 1:]
        else:
            seam = (((s[i][0], s[i][1] + s[j][1]),) if s[i][0] == s[j][0]
                    else (s[j], s[i]))
            word = s[:j] + (seam + s[i + 1:j]) * (k - 1) + s[j:]
        return FreeWord._make(word, sum(abs(e) for _, e in word))

    def inverse(self) -> "FreeWord":
        return FreeWord._make(
            tuple([(g, -e) for g, e in reversed(self.syllables)]), self._length)

    def conjugate_by(self, w: "FreeWord") -> "FreeWord":
        """self^w = w^-1 self w."""
        return w.inverse() * self * w

    def length(self) -> int:
        """The number of letters: the sum of |exponent| over the syllables."""
        return self._length

    def exponent_vector(self, num_generators: int) -> tuple[int, ...]:
        v = [0] * num_generators
        for g, e in self.syllables:
            v[g] += e
        return tuple(v)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"FreeWord({self.syllables})"


def _join(stack: list, syllables: Sequence[tuple[int, int]]) -> int:
    """Append the freely reduced ``syllables`` to the freely reduced word
    ``stack``, reducing only where the two meet; return the number of
    letters that cancel there."""
    i = cancelled = 0
    while stack and i < len(syllables) and stack[-1][0] == syllables[i][0]:
        (g, f), e = stack.pop(), syllables[i][1]
        i += 1
        cancelled += abs(f) + abs(e) - abs(f + e)
        if f + e:
            stack.append((g, f + e))
            break
    stack.extend(syllables[i:])
    return cancelled


@dataclass(frozen=True)
class Presentation:
    """Generators (named, order fixes matrix columns) and relators."""
    generator_names: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)


# ---------------------------------------------------------------------------
# presentation parser
# ---------------------------------------------------------------------------

class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize_presentation(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "<>|,[]()^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "-" or ch.isdecimal():
            j = i + 1 if ch == "-" else i
            k = j
            while k < n and text[k].isdecimal():
                k += 1
            if k == j:
                raise PresentationSyntaxError("expected digits after '-'", i)
            try:
                tokens.append(("int", int(text[i:k]), i))
            except ValueError:
                raise PresentationSyntaxError(number_too_long(), i) from None
            i = k
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PresentationSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def parse_presentation(text: str) -> Presentation:
    """Parse ``<g1,g2,... | w1, w2, ...>``.

    Words are juxtaposed atoms.  An atom is a generator name, optionally
    followed by ``^`` and either an integer (power) or another atom
    (conjugation, ``u^w = w^-1 u w``); ``[u,v]`` is the commutator
    u v u^-1 v^-1 and ``(w)`` groups.  Whitespace is ignored.  More than
    ``MAX_GENERATORS`` generators, more relators times generators than
    ``MAX_ALEXANDER_ENTRIES``, a word of more than ``MAX_RELATOR_LETTERS``
    letters, more than ``MAX_PRESENTATION_LETTERS`` letters built in all,
    or nesting deeper than ``MAX_NESTING_DEPTH``, is a ValueError.

    >>> parse_presentation("<a,b | [a,b]>").relators[0]
    FreeWord(((0, 1), (1, 1), (0, -1), (1, -1)))
    """
    tokens = _tokenize_presentation(text)
    pos = 0

    def peek():
        return tokens[pos]

    def expect(kind):
        nonlocal pos
        k, v, at = tokens[pos]
        if k != kind:
            raise PresentationSyntaxError(f"expected {kind!r}, found {k!r}", at)
        pos += 1
        return v

    expect("<")
    names = [expect("name")]
    while peek()[0] == ",":
        pos += 1
        if len(names) == MAX_GENERATORS:
            raise ValueError(
                f"generator {len(names) + 1} at position {peek()[2]} exceeds "
                f"the limit MAX_GENERATORS = {MAX_GENERATORS}")
        names.append(expect("name"))
    if len(set(names)) != len(names):
        raise PresentationSyntaxError("duplicate generator name", tokens[0][2])
    index = {name: i for i, name in enumerate(names)}
    built = depth = 0

    def bounded(letters: int, at: int) -> None:
        if letters > MAX_RELATOR_LETTERS:
            raise ValueError(
                f"a word of {letters} letters at position {at} exceeds the "
                f"relator limit MAX_RELATOR_LETTERS = {MAX_RELATOR_LETTERS}")

    def spend(word: FreeWord, at: int) -> None:
        nonlocal built
        built += word.length()
        if built > MAX_PRESENTATION_LETTERS:
            raise ValueError(
                f"the words built by position {at} have {built} letters, over "
                f"the budget MAX_PRESENTATION_LETTERS = "
                f"{MAX_PRESENTATION_LETTERS}")

    def parse_primary() -> FreeWord:
        nonlocal pos
        kind, value, at = peek()
        if kind == "name":
            pos += 1
            if value not in index:
                raise PresentationSyntaxError(f"unknown generator {value!r}", at)
            return FreeWord._make(((index[value], 1),), 1)
        if kind == "[":
            pos += 1
            u = parse_word()
            expect(",")
            v = parse_word()
            expect("]")
            word = u * v * u.inverse() * v.inverse()
            bounded(word.length(), at)
            return word
        if kind == "(":
            pos += 1
            w = parse_word()
            expect(")")
            return w
        raise PresentationSyntaxError("expected a generator, '[' or '('", at)

    def parse_atom() -> FreeWord:
        nonlocal pos, depth
        if depth > MAX_NESTING_DEPTH:
            raise ValueError(
                f"the presentation nests deeper than MAX_NESTING_DEPTH = "
                f"{MAX_NESTING_DEPTH} at position {peek()[2]}")
        depth += 1
        word = parse_primary()
        while peek()[0] == "^":
            pos += 1
            kind, value, at = peek()
            if kind == "int":
                pos += 1
                bounded(word.length() * abs(value), at)
                word = word ** value
            else:
                word = word.conjugate_by(parse_atom())
                bounded(word.length(), at)
            spend(word, at)
        depth -= 1
        return word

    def parse_word() -> FreeWord:
        stack: list = []
        letters = 0
        while True:
            at = peek()[2]
            atom = parse_atom()
            spend(atom, at)
            letters += atom.length() - _join(stack, atom.syllables)
            bounded(letters, at)
            if peek()[0] not in ("name", "[", "("):
                return FreeWord._make(tuple(stack), letters)

    def parse_relator() -> FreeWord:
        k = len(relators) + 1
        if k * len(names) > MAX_ALEXANDER_ENTRIES:
            raise ValueError(
                f"relator {k} at position {peek()[2]} makes {k * len(names)} "
                f"entries ({k} relators x {len(names)} generators), over the "
                f"limit MAX_ALEXANDER_ENTRIES = {MAX_ALEXANDER_ENTRIES}")
        return parse_word()

    relators: list[FreeWord] = []
    kind, _, at = peek()
    if kind == "|":
        pos += 1
        if peek()[0] not in (">",):
            relators.append(parse_relator())
            while peek()[0] == ",":
                pos += 1
                relators.append(parse_relator())
    expect(">")
    expect("end")
    return Presentation(tuple(names), tuple(relators))


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Abelianization:
    """The torsion-free abelianization alpha : G ->> Z^n plus torsion data.

    ``projection`` is q x n: row j is alpha(x_j).  ``torsion_invariants``
    are the Smith invariant factors > 1 of the relator exponent matrix.
    """
    free_rank: int
    projection: tuple[tuple[int, ...], ...]
    torsion_invariants: tuple[int, ...]


def abelianize(P: Presentation) -> Abelianization:
    """Split G_ab by the Smith normal form of the relator exponent matrix.

    >>> abelianize(parse_presentation("<x | x^2>"))
    Abelianization(free_rank=0, projection=((),), torsion_invariants=(2,))
    """
    q = P.num_generators
    exponent_rows = [list(r.exponent_vector(q)) for r in P.relators]
    if not exponent_rows:
        exponent_rows = [[0] * q]
    s, v = snf(exponent_rows)
    diag = [s[i][i] for i in range(min(len(s), q)) if s[i][i] != 0]
    k = len(diag)
    projection = tuple(tuple(v[i][k:]) for i in range(q))
    torsion = tuple(d for d in diag if d > 1)
    return Abelianization(free_rank=q - k, projection=projection,
                          torsion_invariants=torsion)


# ---------------------------------------------------------------------------
# Fox derivatives and Alexander matrices
# ---------------------------------------------------------------------------

class AlexanderMatrix:
    """m x q matrix of Laurent polynomials alpha(dr_i/dx_j) in n variables.

    ``abelianization`` is the one the matrix was built with, or None for a
    matrix given by its entries alone.  A matrix built from a presentation
    satisfies Fox's fundamental identity

        sum_j M_ij (t^{a_j} - 1) = 0        (a_j = alpha(x_j)),

    the image of sum_j (dr_i/dx_j)(x_j - 1) = r_i - 1 under alpha.  So
    wherever one factor t^{a_j} - 1 is nonzero, column j is a combination of
    the others, and the ranks below leave it out.  :meth:`term_table`
    indexes the terms for evaluation at characters; it is built on first
    use and kept with the matrix.
    """

    __slots__ = ("entries", "num_vars", "abelianization", "_terms")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]], num_vars: int,
                 abelianization: Optional[Abelianization]):
        self.entries = tuple(tuple(row) for row in entries)
        self.num_vars = num_vars
        self.abelianization = abelianization
        self._terms: Optional[TermTable] = None

    def term_table(self) -> TermTable:
        """The entries' terms, indexed once (see :class:`TermTable`)."""
        if self._terms is None:
            self._terms = TermTable(self.entries)
        return self._terms

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.entries[0]) if self.entries else len(self.abelianization.projection)

    def to_json(self) -> dict:
        return {
            "rows": self.num_rows,
            "cols": self.num_cols,
            "num_vars": self.num_vars,
            "entries": [[e.to_json()["terms"] for e in row] for row in self.entries],
        }


def alexander_matrix(P: Presentation,
                     ab: Optional[Abelianization] = None) -> AlexanderMatrix:
    """Fox-derivative matrix of the presentation, abelianized.

    >>> M = alexander_matrix(parse_presentation("<x1,x2 | [x1,x2]>"))
    >>> [e.to_text() for e in M.entries[0]]
    ['1 - t2', '-1 + t1']
    """
    if ab is None:
        ab = abelianize(P)
    n, projection = ab.free_rank, ab.projection
    entries = []
    for r in P.relators:
        columns: list[dict] = [{} for _ in range(P.num_generators)]
        prefix = (0,) * n
        for g, e in r.syllables:
            a, terms = projection[g], columns[g]
            if e > 0:
                for _ in range(e):
                    terms[prefix] = terms.get(prefix, 0) + 1
                    prefix = tuple(map(operator.add, prefix, a))
            else:
                for _ in range(-e):
                    prefix = tuple(map(operator.sub, prefix, a))
                    terms[prefix] = terms.get(prefix, 0) - 1
        entries.append([LaurentPoly._make(n, terms if 0 not in terms.values()
                                          else {x: c for x, c in terms.items() if c})
                        for terms in columns])
    return AlexanderMatrix(entries, n, ab)


# ---------------------------------------------------------------------------
# exact ranks
# ---------------------------------------------------------------------------

def rank_at_character(M: AlexanderMatrix, chi: TorsionCharacter) -> int:
    """Exact rank of M(chi) over Q(zeta_m), m the order of chi.

    The matrix is evaluated from its :meth:`~AlexanderMatrix.term_table`:
    one dot product per distinct monomial gives the power of zeta_m each
    monomial takes, and each entry becomes one integer vector of Z[zeta_m],
    reduced mod Phi_m.  :func:`cyclotomic_rank` eliminates them without
    division.  For a matrix built from a presentation, one column j with
    chi(x_j) != 1 is left out: Fox's fundamental identity puts it in the
    span of the others, so the rank is the same (see
    :func:`_kept_columns`).
    """
    if chi.n != M.num_vars:
        raise ValueError("character length mismatch")
    return cyclotomic_rank(
        M.term_table().at_character(chi, _kept_columns(M, chi)), chi.order)


def depth1_membership(M: AlexanderMatrix, chi: TorsionCharacter) -> bool:
    """Whether chi lies in the depth-one degree-one jump locus of the
    presentation whose Alexander matrix is M.

    Criterion: rank d2(chi) + rank d1(chi) <= q - 1, with d1(chi) the
    column (chi(x_j) - 1)_j.  At the trivial character this reduces to
    b_1(G) >= 1.
    """
    rank2 = rank_at_character(M, chi)
    rank1 = _d1_rank(M.abelianization, chi)
    return rank2 + rank1 <= M.num_cols - 1


def _d1_support(ab: Abelianization, chi: TorsionCharacter,
                rows: Sequence[Sequence[int]] = ()) -> list[int]:
    """The generators j whose entry t^{a_j} - 1 of d1 is not identically
    zero on the coset chi times exp(L tensor C), L spanned by ``rows`` (a
    point when there are none).

    On the coset t^{a_j} is chi^{a_j} times a monomial whose exponents are
    the pairings of a_j with a basis of L, so the entry vanishes there iff
    a_j pairs to an integer with chi (a . nums divisible by the order) and
    to zero with L.
    """
    return [j for j, a in enumerate(ab.projection)
            if sum(x * y for x, y in zip(a, chi.nums)) % chi.order
            or any(sum(x * y for x, y in zip(a, row)) for row in rows)]


def _d1_rank(ab: Abelianization, chi: TorsionCharacter,
             rows: Sequence[Sequence[int]] = ()) -> int:
    """Generic rank of d1 = (t^{a_j} - 1)_j on the coset chi times
    exp(L tensor C): 0 if every entry vanishes there (see
    :func:`_d1_support`) and 1 otherwise."""
    return 1 if _d1_support(ab, chi, rows) else 0


def _kept_columns(M: AlexanderMatrix, chi: TorsionCharacter,
                  rows: Sequence[Sequence[int]] = ()) -> list[int]:
    """The columns that give M its generic rank on the coset chi times
    exp(L tensor C), L spanned by ``rows``.

    By Fox's fundamental identity sum_j M_ij (t^{a_j} - 1) = 0, a column j
    whose factor t^{a_j} - 1 is not identically zero on the coset (see
    :func:`_d1_support`) is, at a generic point, the combination
    -sum_{k != j} M_ik (t^{a_k} - 1) / (t^{a_j} - 1) of the others; at a
    point it is one wherever the factor is nonzero.  So leaving it out
    keeps every rank exact.  The column with the most terms among those is
    left out, since its entries cost elimination the most.  A matrix with
    no abelianization or no rows, and a coset on which every factor
    vanishes (at a point, the trivial character), keep all their columns.
    """
    columns = list(range(M.num_cols))
    if M.abelianization is not None and M.entries:
        movable = _d1_support(M.abelianization, chi, rows)
        if movable:
            weights = M.term_table().weights
            columns.remove(max(movable, key=weights.__getitem__))
    return columns


def generic_rank_on_torus(M: AlexanderMatrix, torus: TranslatedTorus) -> int:
    """Rank of M at a generic point of the coset rho exp(L otimes C).

    Entries are restricted to the coset (Laurent polynomials in dim L
    variables, with int or Fraction coefficients when rho has order at most
    2 and cyclotomic ones otherwise) and eliminated fraction-free, less the
    column that Fox's identity makes redundant (see :func:`_kept_columns`).
    A coset of dimension 0 is the point rho, where restricting is
    evaluating, so its rank is :func:`rank_at_character` at rho.
    """
    if torus.ambient_dim != M.num_vars:
        raise ValueError("torus ambient dimension mismatch")
    if not M.entries:
        return 0
    if torus.dim == 0:
        return rank_at_character(M, torus.translate)
    columns = _kept_columns(M, torus.translate, torus.direction.rows)
    return bareiss_rank(restrict_matrix_to_translated_torus(
        [[row[j] for j in columns] for row in M.entries], torus))


def contains_translated_torus(M: AlexanderMatrix, torus: TranslatedTorus) -> bool:
    """Generic containment of the coset in the degree-one jump locus of the
    presentation whose Alexander matrix is M.

    True iff generic rank d2 + generic rank d1 along the coset is at most
    q - 1.  Rank is lower-semicontinuous ({rank <= k} is closed), so the
    generic verdict certifies every point of the (closed) coset.
    """
    rank2 = generic_rank_on_torus(M, torus)
    rank1 = _d1_rank(M.abelianization, torus.translate, torus.direction.rows)
    return rank2 + rank1 <= M.num_cols - 1
