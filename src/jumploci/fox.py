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

Depth-one jump-locus membership of a coset rho exp(L tensor C) is the
determinantal condition

    rank d2 + rank d1 <= q - 1

at a generic point of the coset, where d2 is the Alexander matrix and d1 is
the column with entries t^{a_j} - 1.  One test,
:func:`contains_translated_torus`, decides it for every coset; a torsion
point rho = exp(2 pi i lambda) is the coset with L = 0.  Ranks at torsion
points evaluate the matrix into integer vectors of Z[zeta_m] and eliminate
them without division; a generic rank along a coset of positive dimension
is the same rank at one integer point of the coset, a Kronecker
substitution sized by the coefficient height of the minors (see
:func:`generic_rank_on_torus`), with Bareiss kept for contained cosets of
low order whose point is too large.  All read one term table and leave
out a column that Fox's identity makes redundant (:class:`AlexanderMatrix`).

>>> P = parse_presentation("<x1,x2 | x1 x2^2 x1^-1 x2^-2>")
>>> alexander_matrix(P).entries[0][0].to_text()
'1 - t2^2'
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .laurent import (LaurentPoly, TermTable, at_point, bareiss_rank,
                      cyclotomic_polynomial, cyclotomic_rank, on_coset,
                      zeta_height)
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
    matrix given by its entries alone, which has ranks but no degree-one
    test and needs a row.  A matrix built from a presentation satisfies
    Fox's fundamental identity

        sum_j M_ij (t^{a_j} - 1) = 0        (a_j = alpha(x_j)),

    the image of sum_j (dr_i/dx_j)(x_j - 1) = r_i - 1 under alpha.  So
    wherever one factor t^{a_j} - 1 is nonzero, column j is a combination of
    the others, and the ranks below leave it out.  :meth:`term_table`
    indexes the terms for evaluation at characters and restriction to
    cosets; it is built on first use and kept with the matrix.
    """

    __slots__ = ("entries", "num_vars", "abelianization", "_terms")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]], num_vars: int,
                 abelianization: Optional[Abelianization]):
        self.entries = tuple(tuple(row) for row in entries)
        if not self.entries and abelianization is None:
            raise ValueError("a matrix with no rows needs the presentation's "
                             "abelianization to count its columns")
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

def rank_at_character(M: AlexanderMatrix, chi: TorsionCharacter,
                      columns: Optional[Sequence[int]] = None) -> int:
    """Exact rank of M(chi) over Q(zeta_m), m the order of chi.

    The matrix is evaluated from its :meth:`~AlexanderMatrix.term_table`:
    one dot product per distinct monomial gives the power of zeta_m each
    monomial takes, and each entry becomes one integer vector of Z[zeta_m],
    reduced mod Phi_m.  :func:`cyclotomic_rank` eliminates them without
    division.  For a matrix built from a presentation, one column j with
    chi(x_j) != 1 is left out: Fox's fundamental identity puts it in the
    span of the others, so the rank is the same (see
    :func:`_kept_columns`; a caller that has them passes them as
    ``columns``).
    """
    if chi.n != M.num_vars:
        raise ValueError("character length mismatch")
    if columns is None:
        columns = _kept_columns(M, chi)
    return cyclotomic_rank(M.term_table().at_character(chi, columns),
                           chi.order)


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
    m, w = chi.order, chi.nums
    return [j for j, a in enumerate(ab.projection)
            if sum(map(operator.mul, a, w)) % m
            or any(sum(map(operator.mul, a, row)) for row in rows)]


def _kept_columns(M: AlexanderMatrix, chi: TorsionCharacter,
                  rows: Sequence[Sequence[int]] = (),
                  movable: Optional[Sequence[int]] = None) -> list[int]:
    """The columns that give M its generic rank on the coset chi times
    exp(L tensor C), L spanned by ``rows``.

    By Fox's fundamental identity sum_j M_ij (t^{a_j} - 1) = 0, a column j
    whose factor t^{a_j} - 1 is not identically zero on the coset (see
    :func:`_d1_support`; a caller that has its list passes it as
    ``movable``) is, at a generic point, the combination
    -sum_{k != j} M_ik (t^{a_k} - 1) / (t^{a_j} - 1) of the others; at a
    point it is one wherever the factor is nonzero.  So leaving it out
    keeps every rank exact.  The column with the most terms among those is
    left out, since its entries cost elimination the most.  A matrix with
    no abelianization or no rows, and a coset on which every factor
    vanishes (at a point, the trivial character), keep all their columns.
    """
    columns = list(range(M.num_cols))
    if M.abelianization is not None and M.entries:
        if movable is None:
            movable = _d1_support(M.abelianization, chi, rows)
        if movable:
            weights = M.term_table().weights
            columns.remove(max(movable, key=weights.__getitem__))
    return columns


#: The bits that :func:`generic_rank_on_torus` lets one evaluation at
#: u_j = N^(W_j) write: phi(m) integers of log2(N) bits times the largest
#: power of N in a shifted entry.  Past them the small point (2, 3, 5, ...)
#: is taken, and a coset it does not refute goes to Bareiss: elimination at
#: the point multiplies packed entries of all those bits, and a contained
#: coset of order 509 whose point holds 12.8 million (a dense 2 x 2 minor)
#: took 11.8 s there against 2.7 s by Bareiss (Python 3.11.7, 2 vCPUs).
POINT_BUDGET = 65_536
#: The highest order m at which it eliminates by Bareiss over Z[zeta_m];
#: past it such a coset is a ValueError.  Products and conjugate products in
#: Z[zeta_m] grow with m: one conjugate product takes 0.3 s at m = 509 and
#: 15-27 s at m = 4093, a 2 x 2 elimination of 50-term entries 2.7 s and 19 s.
MAX_BAREISS_ORDER = 512


def generic_rank_on_torus(M: AlexanderMatrix, torus: TranslatedTorus,
                          columns: Optional[Sequence[int]] = None) -> int:
    """Rank of M at a generic point of the coset rho exp(L otimes C).

    The rows B of L's basis parametrize the coset by t = rho u^B, and the
    entries, less the column that Fox's identity makes redundant (see
    :func:`_kept_columns`), become Laurent polynomials in u with
    coefficients in Z[zeta_m], m the order of rho, by one restriction
    (:meth:`jumploci.laurent.TermTable.restrict`) that every route below
    reads.  Their generic rank is the rank at the integer point
    u_j = N^(W_j), found by one evaluation (:func:`jumploci.laurent.at_point`)
    and one division-free elimination
    (:func:`jumploci.laurent.cyclotomic_rank`):

    * s = min(nonzero rows, kept columns) bounds the size of a minor, B
      is the product of the s largest row norms sum |c|, and D_j the sum
      of the s largest row spans in u_j (each row shifted by its least
      power of u, a unit, which keeps every rank);
    * N = 2 rho_m B + 1 (:func:`jumploci.laurent.zeta_height`), W_1 = 1
      and W_(j+1) = W_j (1 + D_j).

    Why it is exact (Kronecker substitution).  Every exponent vector e of a
    minor g of the shifted matrix has 0 <= e_j <= D_j, so e -> W.e is
    injective on its support, and each power-basis coordinate of g at the
    point is sum_e c_(e,i) N^(W.e): a balanced base-N number whose digits
    are g's coefficients.  Lifted to Z[x]/(x^m - 1), every minor has l1
    norm at most B (expand the determinant), and it reduces mod Phi_m to
    coordinates at most rho_m B < N/2.  So g is zero at the point only when
    g = 0, and the rank there is the generic rank.

    That point's integers grow with B and the spans, and at every pivot
    step of a matrix of full rank.  So when its entries would pass
    ``POINT_BUDGET`` bits, the rank at the small point (2, 3, 5, ...) is
    taken instead.  A rank at any point is at most the generic rank, so one
    that reaches s is the generic rank, and a coset that is not contained
    in the locus has full rank and is refuted there.  The restricted rows
    of a coset that survives become Laurent polynomials
    (:func:`jumploci.laurent.on_coset`) and are eliminated by fraction-free
    Bareiss (:func:`jumploci.laurent.bareiss_rank`), up to order
    ``MAX_BAREISS_ORDER``; past it such a coset is a ValueError.  A coset
    of dimension 0 is the point rho, where restricting is evaluating.
    ``columns`` are the kept columns when the caller has them.
    """
    if torus.ambient_dim != M.num_vars:
        raise ValueError("torus ambient dimension mismatch")
    chi, basis = torus.translate, torus.direction.rows
    if columns is None:
        columns = _kept_columns(M, chi, basis)
    if not basis:
        return rank_at_character(M, chi, columns)
    m, rows = chi.order, M.term_table().restrict(chi, basis, columns)
    bounds = [(norm, spans) for _, _, norm, spans in rows if norm]
    s = min(len(bounds), len(columns))
    if not s:
        return 0
    phi = len(cyclotomic_polynomial(m)) - 1
    base, weights, size = _kronecker_point(bounds, zeta_height(m), s)
    if phi * size > POINT_BUDGET:
        small = cyclotomic_rank(at_point(rows, _primes(len(basis))), m)
        if small == s:
            return small
        if m > MAX_BAREISS_ORDER:
            raise ValueError(
                f"the coset has order {m}, above MAX_BAREISS_ORDER = "
                f"{MAX_BAREISS_ORDER}, and needs Bareiss: the small point "
                f"does not refute it, and its point has {phi * size} bits")
        return bareiss_rank(on_coset(rows, m, len(basis)))
    return cyclotomic_rank(at_point(rows, [base ** w for w in weights]), m)


def _kronecker_point(bounds: Sequence[tuple[int, Sequence[int]]],
                     height: int, s: int) -> tuple[int, list[int], int]:
    """(N, W, size) of :func:`generic_rank_on_torus` from the (norm, spans)
    of the restricted rows with a term and rho_m = ``height``: size is the
    bits of N times the largest power of N in a shifted entry."""
    bound = math.prod(sorted(norm for norm, _ in bounds)[-s:])
    weights = [1]
    for column in list(zip(*(spans for _, spans in bounds)))[:-1]:
        weights.append(weights[-1] * (1 + sum(sorted(column)[-s:])))
    largest = max(sum(map(operator.mul, weights, spans))
                  for _, spans in bounds)
    base = 2 * height * bound + 1
    return base, weights, base.bit_length() * largest


def _primes(d: int) -> list[int]:
    """The first d primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def contains_translated_torus(M: AlexanderMatrix, torus: TranslatedTorus) -> bool:
    """Generic containment of the coset in the degree-one jump locus of the
    presentation whose Alexander matrix is M; on a coset of dimension 0,
    membership of one torsion point.

    True iff generic rank d2 + generic rank d1 along the coset is at most
    q - 1, rank d1 being 1 where some entry t^{a_j} - 1 is not identically
    zero on the coset (see :func:`_d1_support`, taken once and shared with
    the column choice of :func:`_kept_columns`); at the trivial character
    this reduces to b_1(G) >= 1.  A matrix without the presentation's
    abelianization has no d1: a ValueError.  Rank is lower-semicontinuous
    ({rank <= k} is closed), so the generic verdict certifies every point
    of the (closed) coset.
    """
    if M.abelianization is None:
        raise ValueError("the degree-one test needs the presentation's "
                         "abelianization")
    chi, rows = torus.translate, torus.direction.rows
    movable = _d1_support(M.abelianization, chi, rows)
    rank2 = generic_rank_on_torus(M, torus,
                                  _kept_columns(M, chi, rows, movable))
    return rank2 + (1 if movable else 0) <= M.num_cols - 1
