"""Exact linear algebra over Q and Z: subspaces, lattice cosets, Pluecker
minors.

Everything is computed with ``int`` arithmetic, and ``fractions.Fraction``
where rational values are asked for; there are no floats anywhere.  The
central canonical form is :class:`RationalSubspace`: a linear subspace of
Q^n stored as the primitive integer multiple of each row of the reduced row
echelon form (RREF) of any spanning set, so two subspaces are equal as sets
if and only if their stored integer rows are identical.  One integer
elimination core (``_echelon``) builds that form, adds rows to it, and
reads kernels off it; sums, intersections, complements, inclusion and
coset reduction all run on the integer rows.  JSON rows reach that core
without a ``Fraction``: :func:`json_rational_ints` reads each row as
integer numerators over one denominator, and the numerators span the same
line.  :func:`format_rref` writes the RREF back out as ``"p/q"`` strings
from the integer rows.  The ``Fraction`` RREF (:func:`rref`) is built only
for a spanning set given as rows of rationals (``from_rows``), which no
command-line path does.

A rational vector lambda enters the lattice layer as integer numerators
over one positive denominator.  :func:`coset_reduce_ints` decides
``lambda in V + Z^n`` (the decidable core of every "does this character lie
on that algebraic subtorus" question downstream): it reduces lambda to the
canonical representative of its coset mod V + Z^n, and returns the integer
step m taken, so lambda - m lies in V when the representative is 0.  It
builds one Hermite normal form (:func:`hnf`), taken modulo the lcm of V's
pivot entries so that no entry exceeds that lcm, and none for an integer
vector, which lies in every V + Z^n, or for a V whose stored rows all have
pivot entry 1 (the zero space among them), whose projection lattice is
already the coordinates off the pivots.  Membership tests, witnesses and
the canonical translates of ``tori`` all read it.
The module also provides Smith normal forms, the maximal minors of integer
rows as one table built by Laplace expansion row by row (``_minor_table``,
which the Pluecker coordinates of witnesses and the coefficients of
:func:`schubert_equations` are read from), the linear equations cutting out
the locus of r-planes meeting a fixed subspace nontrivially, and the
reading of rational JSON entries, whose errors name the entry.

>>> V = RationalSubspace.from_rows([(1, 1)], 2)
>>> coset_reduce_ints([3, 1], 2, V)
([0, 0], 2, [0, -1])
>>> coset_reduce_ints([1, 0], 2, V)
([0, 1], 2, [0, -1])
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]

#: The most Pluecker coordinates C(n, r) of an r-plane in Q^n that a
#: witness reads, and the most coefficients C(n, r + s) C(n, r) that
#: :func:`schubert_equations` writes; more is refused before any minor is
#: computed.  Built on RREF rows, every level of a minor table holds at most
#: C(n, r) entries (see :func:`_minor_table`), so this bounds memory as
#: well as time: the table of a random 8-plane in Q^16 (12870 coordinates)
#: takes about 0.1 s.
PLUCKER_BUDGET = 20_000


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def clear_denominators(row: Sequence) -> tuple[int, ...]:
    """Scale a rational row by the lcm of denominators (primitive direction)."""
    row = [x if type(x) is int or type(x) is Fraction else Fraction(x)
           for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*ints)
    return tuple([x // g for x in ints]) if g > 1 else tuple(ints)


def _echelon(new: Iterable[Sequence[int]],
             rows: Sequence[tuple[int, ...]] = (),
             pivots: Sequence[int] = ()
             ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Primitive integer RREF of the span of rows and new: (rows, pivots).

    ``rows`` and ``pivots`` must already be a primitive integer RREF (empty
    by default); the integer rows ``new`` are added one at a time.  Each is
    reduced to zero at the pivots present, and if anything is left it is
    made primitive with a positive leading entry, cleared from the other
    rows and inserted at its pivot.  Every row stays primitive, positive at
    its pivot and zero at the other pivots.  Once the rank reaches the row
    length the span is everything, whose primitive RREF is the identity; it
    is returned at once, and the rows of ``new`` not yet read are not read.
    """
    gcd = math.gcd
    rows, pivots = list(rows), list(pivots)
    for v in new:
        for row, p in zip(rows, pivots):
            f = v[p]
            if f:
                a = row[p]
                g = gcd(a, f)
                if g != 1:
                    a, f = a // g, f // g
                v = [a * x - f * y for x, y in zip(v, row)]
        for c, a in enumerate(v):
            if a:
                break
        else:
            continue
        n = len(v)
        if len(rows) + 1 == n:
            return _identity(n)
        g = gcd(*v)
        if a < 0:
            g = -g
        v = tuple([x // g for x in v]) if g != 1 else tuple(v)
        a = v[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f:
                g = gcd(a, f)
                s, t = a // g, f // g
                w = [s * x - t * y for x, y in zip(row, v)]
                g = gcd(*w)
                rows[i] = tuple([x // g for x in w]) if g != 1 else tuple(w)
        k = bisect.bisect(pivots, c)
        rows.insert(k, v)
        pivots.insert(k, c)
    return tuple(rows), tuple(pivots)


def _identity(n: int
              ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The primitive integer RREF of Q^n: the identity rows and pivots."""
    return (tuple(tuple([0] * i + [1] + [0] * (n - 1 - i)) for i in range(n)),
            tuple(range(n)))


def _reduce(v: Sequence[int], rows: Sequence[tuple[int, ...]],
            pivots: Sequence[int], den: int = 1) -> tuple[list[int], int]:
    """v / den minus the element of span(rows) that agrees with it at the
    pivots, as integers over a new denominator: ``(nums, den)``.

    ``rows`` is a primitive integer RREF, so each step multiplies v by a
    positive factor and subtracts a multiple of one row.
    """
    v = list(v)
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            a = row[p]
            g = math.gcd(a, f)
            a, f = a // g, f // g
            v = [a * x - f * y for x, y in zip(v, row)]
            den *= a
    return v, den


def _echelon_contains(rows: Sequence[tuple[int, ...]], pivots: Sequence[int],
                      sub_rows: Sequence[tuple[int, ...]],
                      sub_pivots: Sequence[int]) -> bool:
    """Whether the span of one primitive integer RREF, ``(sub_rows,
    sub_pivots)``, lies in the span of another, ``(rows, pivots)``.

    The pivots of a subspace are the columns where its vectors can start,
    so a subspace of V has a subset of V's pivots, and all of them only if
    it is V.
    """
    if not set(sub_pivots).issubset(pivots):
        return False
    if len(sub_rows) == len(rows):
        return sub_rows == rows
    return all(not any(_reduce(row, rows, pivots)[0]) for row in sub_rows)


def _kernel(rows: Sequence[tuple[int, ...]], pivots: Sequence[int], n: int
            ) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : rows @ x = 0}, from a primitive RREF.

    One vector per free column fc: 1 at fc, 0 at the other free columns and
    -row[fc] / row[pivot] at each pivot, scaled to primitive integers.
    """
    basis = []
    for fc in sorted(set(range(n)).difference(pivots)):
        den = math.lcm(*(r[p] for r, p in zip(rows, pivots) if r[fc]))
        v = [0] * n
        v[fc] = den
        for r, p in zip(rows, pivots):
            if r[fc]:
                v[p] = -r[fc] * (den // r[p])
        basis.append(_primitive(v))
    return basis


def rref(rows: Iterable[Iterable]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, pivot columns).

    The elimination runs on primitive integer multiples of the rows, which
    span the same space; each row is divided by its pivot only at the end.
    """
    reduced, pivots = _echelon(clear_denominators(r) for r in rows)
    return tuple(tuple(Fraction(x, r[p]) for x in r)
                 for r, p in zip(reduced, pivots)), pivots


# ---------------------------------------------------------------------------
# rational subspaces
# ---------------------------------------------------------------------------

class RationalSubspace:
    """A linear subspace of Q^n, stored as its primitive integer RREF.

    ``rows`` holds one integer row per dimension: primitive (its entries
    have gcd 1), positive at its pivot column and zero at the pivot columns
    of the other rows; ``pivots`` lists those columns in increasing order.
    Dividing each row by its pivot entry gives the reduced row echelon form,
    so two subspaces are equal as point sets exactly when their rows are
    identical, and equality and hashing compare tuples of ints.

    >>> A = RationalSubspace.from_rows([(2, 4), (1, 2)], 2)
    >>> A
    RationalSubspace(2, [(1, 2)])
    >>> A == RationalSubspace.from_rows([(-3, -6)], 2)
    True
    >>> RationalSubspace.from_rows([(2, 1, 0), (0, 3, 1)], 3).rows
    ((6, 0, -1), (0, 3, 1))
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...],
                 pivots: tuple[int, ...]):
        """Wrap rows already in primitive integer RREF (see :meth:`from_rows`
        for any other spanning set)."""
        self.ambient_dim = int(ambient_dim)
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ambient_dim: Optional[int] = None
                  ) -> "RationalSubspace":
        """The span of rows of ints, Fractions or anything Fraction accepts.

        The span is reduced by :func:`rref`, and its ``Fraction`` rows,
        scaled by the lcm of their denominators, are the stored primitive
        integer rows.  The command line never builds a subspace this way:
        its readers and the witness planes start from integer rows.
        """
        rows = [tuple(r) for r in rows]
        if ambient_dim is None:
            if not rows:
                raise ValueError("ambient dimension required for an empty row set")
            ambient_dim = len(rows[0])
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("rows of unequal length")
        basis, pivots = rref(rows)
        return cls(ambient_dim, tuple(clear_denominators(r) for r in basis),
                   pivots)

    @classmethod
    def zero(cls, n: int) -> "RationalSubspace":
        return cls(n, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalSubspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        rows = ", ".join("(" + ", ".join(r) + ")" for r in format_rref(self))
        return f"RationalSubspace({self.ambient_dim}, [{rows}])"

    def contains(self, other: "RationalSubspace") -> bool:
        """Inclusion (see :func:`_echelon_contains`)."""
        return (self.ambient_dim == other.ambient_dim
                and _echelon_contains(self.rows, self.pivots,
                                      other.rows, other.pivots))

    def sum(self, other: "RationalSubspace") -> "RationalSubspace":
        self._check_ambient(other)
        if not other.rows or len(self.rows) == self.ambient_dim:
            return self
        if not self.rows:
            return other
        return RationalSubspace(self.ambient_dim,
                                *_echelon(other.rows, self.rows, self.pivots))

    def intersect(self, other: "RationalSubspace") -> "RationalSubspace":
        """Intersection via the kernel of the stacked coefficient matrix.

        A vector of the intersection is c . rowsA where the stacked system
        [rowsA^T | -rowsB^T] has a kernel element (c, d).
        """
        self._check_ambient(other)
        a, b = self.rows, other.rows
        n = self.ambient_dim
        if not a or not b:
            return RationalSubspace.zero(n)
        width = len(a) + len(b)
        stacked = [[x[i] for x in a] + [-y[i] for y in b] for i in range(n)]
        kernel = _kernel(*_echelon(stacked), width)
        return RationalSubspace(n, *_echelon(
            [sum(c * row[i] for c, row in zip(k, a)) for i in range(n)]
            for k in kernel))

    def perp(self) -> "RationalSubspace":
        """Orthogonal complement {w : w . x = 0 for all x in the subspace}."""
        n = self.ambient_dim
        return RationalSubspace(n, *_echelon(_kernel(self.rows, self.pivots, n)))

    def _check_ambient(self, other: "RationalSubspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")


def rref_order(spaces: Sequence[RationalSubspace]) -> list[tuple]:
    """One sort key per space, ordering them by (dimension, RREF).

    The RREF is compared on the integer rows, each scaled by one common
    multiple of every pivot entry: that is the RREF times one positive
    integer, so it orders the same, and no ``Fraction`` is built.
    """
    scale = math.lcm(*(row[p] for s in spaces
                       for row, p in zip(s.rows, s.pivots)))
    return [(s.dim, tuple(tuple(x * (scale // row[p]) for x in row)
                          for row, p in zip(s.rows, s.pivots)))
            for s in spaces]


def _uncovered(ordered: Iterable, dim: Callable, covers: Callable) -> list:
    """The items of ``ordered``, in runs of equal ``dim(item)``, that no
    item kept from an earlier run ``covers(kept, item)``: distinct canonical
    subspaces or cosets of one dimension never contain one another.  By
    decreasing dimension under inclusion this keeps the maximal items; by
    increasing dimension under reverse inclusion, the minimal ones."""
    kept: list = []
    for _, group in itertools.groupby(ordered, key=dim):
        earlier = kept[:]
        kept.extend(x for x in group if not any(covers(y, x) for y in earlier))
    return kept


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------

def hnf(gens: Sequence[Sequence[int]], modulus: int
        ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Hermite normal form of the lattice spanned by the integer rows
    ``gens`` (one or more, of one length w) together with modulus Z^w
    (modulus >= 1), and the coefficients of its rows: ``(H, C)``.

    H is w x w and lower triangular: row c is the basis vector whose last
    nonzero entry sits at column c, positive and dividing ``modulus``, and
    every entry left of a diagonal is reduced into [0, H[j][j]) at its
    column j.  The lattice has one such basis, so H depends on the lattice
    only.  Row C[c] holds, in [0, modulus), coefficients of the generators
    with H[c] = sum_i C[c][i] gens[i] modulo modulus Z^w.

    The lattice holds modulus e_j for every j, so every step is taken
    modulo it (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen,
    GTM 138, 2.4): H starts as modulus times the identity and each
    generator is inserted column by column from the right, by one extended
    gcd with the row of that column wherever it is nonzero.  No entry of a
    row, a generator or a coefficient leaves [0, modulus], and no
    unimodular witness is built.

    >>> H, C = hnf([[1, 2], [0, 3]], 6)
    >>> H
    ((3, 0), (2, 1))
    >>> C
    ((3, 0), (2, 1))
    """
    k, w = len(gens), len(gens[0])
    h = [[0] * c + [modulus] for c in range(w)]     # row c: columns 0..c
    coef = [[0] * k for _ in range(w)]
    for i, gen in enumerate(gens):
        v = [x % modulus for x in gen]
        t = [0] * k
        t[i] = 1
        for c in range(w - 1, -1, -1):
            b = v[c]
            if not b:
                continue
            row, tc = h[c], coef[c]
            a = row[c]
            if b % a:
                # row c, v := x row + y v, (a/g) v - (b/g) row: determinant 1
                g, x, y = _xgcd(a, b)
                a, b = a // g, b // g
                h[c] = [(x * p + y * q) % modulus for p, q in zip(row, v)]
                coef[c] = [(x * p + y * q) % modulus for p, q in zip(tc, t)]
                v = [(a * q - b * p) % modulus for p, q in zip(row, v)]
                t = [(a * q - b * p) % modulus for p, q in zip(tc, t)]
            else:
                b //= a
                v = [(q - b * p) % modulus for p, q in zip(row, v)]
                t = [(q - b * p) % modulus for p, q in zip(tc, t)]
    # reduce each row left of its diagonal, rightmost column first: row j
    # only reaches columns <= j, which are reduced after it
    for c in range(1, w):
        row, tc = h[c], coef[c]
        for j in range(c - 1, -1, -1):
            f = row[j] // h[j][j]
            if f:
                row = ([(p - f * q) % modulus for p, q in zip(row, h[j])]
                       + row[j + 1:])
                tc = [(p - f * q) % modulus for p, q in zip(tc, coef[j])]
        h[c], coef[c] = row, tc
    return (tuple(tuple(row + [0] * (w - 1 - c)) for c, row in enumerate(h)),
            tuple(map(tuple, coef)))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with g = gcd(a,b) = a x + b y, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def snf(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...],
                                                tuple[tuple[int, ...], ...]]:
    """Smith normal form with its column witness: S = U @ M @ V.

    S is diagonal with nonnegative entries in a divisibility chain
    d1 | d2 | ... ; U and V are unimodular.  Only S and V are returned: the
    row operations that make up U are applied to M alone, so no m x m
    matrix is built for m rows.  A zero input yields S = 0 with V the
    identity (so the free projection read off V is the identity for
    commutator-only relator matrices).

    >>> S, V = snf([[2, 4], [6, 8]])
    >>> (S[0][0], S[1][1])
    (2, 4)
    """
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):              # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):              # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    piv, best = (i, j), abs(a[i][j])
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, m):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:       # remainder became the smaller pivot
                        a[t], a[i] = a[i], a[t]
            for j in range(t + 1, n):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
            if (all(a[i][t] == 0 for i in range(t + 1, m))
                    and all(a[t][j] == 0 for j in range(t + 1, n))):
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    # Enforce the divisibility chain d_i | d_{i+1}.  At this point the matrix
    # is diagonal, so each repair only touches the 2x2 block (i, i+1):
    # add column i+1 to column i, row-mix to put gcd/lcm on the diagonal,
    # then clear the single off-diagonal residue.
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if x == 0 or y % x == 0:
                continue
            changed = True
            col_op(i, i + 1, -1)      # col_i += col_{i+1}:  block [[x,0],[y,y]]
            g, p, q = _xgcd(x, y)
            a[i], a[i + 1] = ([p * r1 + q * r2 for r1, r2 in zip(a[i], a[i + 1])],
                              [-(y // g) * r1 + (x // g) * r2
                               for r1, r2 in zip(a[i], a[i + 1])])
            # block is now [[g, q*y], [0, lcm]]; g divides q*y
            col_op(i + 1, i, a[i][i + 1] // a[i][i])
            if a[i][i] < 0:
                a[i] = [-e for e in a[i]]
            if a[i + 1][i + 1] < 0:
                a[i + 1] = [-e for e in a[i + 1]]
    return tuple(tuple(r) for r in a), tuple(tuple(r) for r in v)


# ---------------------------------------------------------------------------
# lattice-coset membership: lambda in V + Z^n ?
# ---------------------------------------------------------------------------

def coset_reduce_ints(nums: Sequence[int], den: int, space: RationalSubspace
                      ) -> tuple[list[int], int, list[int]]:
    """The canonical representative of lam = nums / den (den > 0) mod
    V + Z^n, and the integer step: ``(rep nums, rep den, m)``.

    The representative rep = rep nums / rep den has every entry in [0, 1)
    and depends only on the coset lam + V + Z^n, and m is an integer vector
    with lam - m - rep in V (any such m).  So lam lies in V + Z^n exactly
    when rep is 0, and then m is a witness.

    An integer lam (den divides every numerator, as in ``"2/2"``) has rep 0
    and m = lam.  Otherwise, subtracting the element of V that agrees with
    lam on V's RREF pivots leaves a residue supported off the pivots.  The
    projection of Z^n along V onto those coordinates is generated by e_j off
    the pivots and by e_p - b / a at the pivot p of each stored row b, whose
    pivot entry is a.  When every pivot entry is 1 (the zero space, the
    full space, every coordinate subspace), that is Z^n off the pivots: rep
    is the residue mod 1 and m its integer part, with no HNF.  Otherwise,
    scaled by ``scale``, the lcm of the pivot entries, it is the lattice
    spanned by the k pivot generators -(scale / a) b (b is zero at every
    other pivot) and scale e_j for each j off the pivots.  Its HNF H is
    taken modulo scale by :func:`hnf`, so no entry of H exceeds scale and
    no coefficient C[c] of the pivot generators reaches it, whatever n is;
    the residue is reduced, rightmost column first, to H's fundamental
    domain.  Each step by f copies of row c of H adds f C[c] to the
    coefficients t of the pivot generators (mod scale): m is t at the
    pivots, and off the pivots it is whatever makes lam - m - rep lie in V.
    """
    n = space.ambient_dim
    if len(nums) != n:
        raise ValueError("character length does not match ambient dimension")
    if den == 1 or all(a % den == 0 for a in nums):
        return [0] * n, 1, [a // den for a in nums]
    rows, pivots = space.rows, space.pivots
    if all(row[p] == 1 for row, p in zip(rows, pivots)):
        x, _ = _reduce(nums, rows, pivots)
        return [a % den for a in x], den, [a // den for a in x]
    scale = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    free = sorted(set(range(n)).difference(pivots))
    gens = [[-row[j] * (scale // row[p]) for j in free]
            for row, p in zip(rows, pivots)]
    h, coef = hnf(gens, scale)
    # the residue of lam mod V, off the pivots, as integers y over scale * d
    x, d = _reduce(nums, rows, pivots, den)
    start = y = [x[j] * scale for j in free]
    t = [0] * len(rows)
    for c in range(len(free) - 1, -1, -1):
        f = y[c] // (d * h[c][c])
        if f:
            y = [a - f * d * b for a, b in zip(y, h[c])]
            t = [a + f * b for a, b in zip(t, coef[c])]
    # the steps sum to (start - y) / d = sum_i t_i gens[i] mod scale Z^w
    t = [a % scale for a in t]
    m, rep = [0] * n, [0] * n
    for p, a in zip(pivots, t):
        m[p] = a
    for c, j in enumerate(free):
        m[j] = ((start[c] - y[c]) // d
                - sum(a * g[c] for a, g in zip(t, gens))) // scale
        rep[j] = y[c]
    return rep, scale * d, m


# ---------------------------------------------------------------------------
# Pluecker minors and Schubert incidence equations
# ---------------------------------------------------------------------------

def subset_order(n: int, r: int) -> list[tuple[int, ...]]:
    """The r-subsets of range(n), lexicographic: the order of Pluecker
    coordinates.  More than ``PLUCKER_BUDGET`` is a ValueError."""
    _plucker_budget(n, r)
    return list(itertools.combinations(range(n), r))


def _plucker_budget(n: int, r: int) -> None:
    """Refuse an r-plane in Q^n with more than ``PLUCKER_BUDGET`` Pluecker
    coordinates."""
    _within_budget(math.comb(n, r), f"C({n}, {r}) Pluecker coordinates")


def _within_budget(count: int, what: str) -> None:
    if count > PLUCKER_BUDGET:
        raise ValueError(f"{what} = {count} is above PLUCKER_BUDGET = "
                         f"{PLUCKER_BUDGET}")


def _minor_table(rows: Iterable[Sequence[int]], n: int,
                 table: Optional[dict[tuple[int, ...], int]] = None
                 ) -> dict[tuple[int, ...], int]:
    """The nonzero maximal minors of integer rows of length n, keyed by
    their columns in increasing order.

    ``table`` is the table of the k rows above (by default that of no rows:
    the empty minor, 1), and each next row extends it by Laplace expansion
    along that row: the minor on columns S gains (-1)^(j + k) row[c] times
    the minor of the rows above on S without c, for each c in S at position
    j.  The k-minors of the first k rows of an r-row RREF vanish on every
    column set holding one of the later pivots, so on RREF rows each level
    holds at most C(n - r + k, k) <= C(n, r) entries.

    >>> _minor_table([(1, 0, 2), (0, 1, 3)], 3)
    {(0, 1): 1, (0, 2): 3, (1, 2): -2}
    """
    if table is None:
        table = {(): 1}
    for row in rows:
        support = [(c, row[c]) for c in range(n) if row[c]]
        grown: dict[tuple[int, ...], int] = {}
        for cols, minor in table.items():
            k, j = len(cols), 0
            for c, x in support:             # j: the columns of cols below c
                while j < k and cols[j] < c:
                    j += 1
                if j < k and cols[j] == c:
                    continue
                key = cols[:j] + (c,) + cols[j:]
                term = x * minor
                grown[key] = grown.get(key, 0) + (-term if (j + k) % 2
                                                  else term)
        table = {key: minor for key, minor in grown.items() if minor}
    return table


def schubert_equations(space: RationalSubspace, r: int) -> list[tuple[Fraction, ...]]:
    """Linear forms in Pluecker coordinates vanishing iff an r-plane meets L.

    Each form is the Laplace expansion, along the plane's rows, of one
    maximal minor of the stacked matrix (L's basis over a basis of the
    plane), so its coefficients are signed maximal minors of L's RREF: one
    minor table of L's stored integer rows, each minor divided by their
    pivot product.  The forms vanish together on the Pluecker coordinates
    of P exactly when P meets L nontrivially.  Coefficient tuples are
    aligned with :func:`subset_order`; r + dim L > n gives no forms (every
    plane meets L), and a table of more than ``PLUCKER_BUDGET`` coefficients
    is a ValueError.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if space.is_zero():
        raise ValueError("incidence with the zero subspace is vacuous")
    n, s = space.ambient_dim, space.dim
    if r + s > n:
        return []
    _within_budget(math.comb(n, r + s) * math.comb(n, r), f"a table of "
                   f"C({n}, {r + s}) * C({n}, {r}) Schubert coefficients")
    index = {sub: i for i, sub in enumerate(subset_order(n, r))}
    minor = _minor_table(space.rows, n)
    scale = math.prod(row[p] for row, p in zip(space.rows, space.pivots))
    # Laplace signs: the plane's rows are rows s+1..s+r of the stack, its
    # columns the positions J (0-based, hence the + r) in each column set
    parity = sum(range(s + 1, s + r + 1)) + r
    splits = [(J, [p for p in range(r + s) if p not in J],
               -1 if (parity + sum(J)) % 2 else 1)
              for J in itertools.combinations(range(r + s), r)]
    forms = []
    for cset in itertools.combinations(range(n), r + s):
        coeffs = [Fraction(0)] * len(index)
        for J, rest, sign in splits:
            m = minor.get(tuple(cset[p] for p in rest))
            if m:
                coeffs[index[tuple(cset[p] for p in J)]] = Fraction(sign * m,
                                                                    scale)
        if any(coeffs):
            forms.append(tuple(coeffs))
    return forms


# ---------------------------------------------------------------------------
# rational string forms ("p/q") shared by the JSON layer
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """``Fraction(text.strip())``: the accepted texts, their values and the
    errors raised are Fraction's, but for one refusal made first: a decimal
    whose exponent is past ``int()``'s digit limit
    (:func:`_exponent_too_large`) is an OverflowError, since Fraction would
    build its power of ten in full.  The plain forms JSON input takes are
    read to ints by :func:`json_rational_ints` and never reach it."""
    text = text.strip()
    if _exponent_too_large(text):
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise OverflowError(f"{shown} written out is {number_too_long()}")
    return Fraction(text)


def _exponent_too_large(text: str) -> bool:
    """Whether ``Fraction(text)`` would build a power of ten past ``int()``'s
    digit limit: text is a decimal that Fraction reads, whose exponent (after
    its last ``e`` or ``E``) is above that limit.  Whether Fraction reads it
    is asked of the text with each digit of the exponent made 0, at no cost.
    """
    limit = sys.get_int_max_str_digits()
    cut = max(text.rfind("e"), text.rfind("E")) + 1
    exponent = text[cut:].strip().lstrip("+-").replace("_", "")
    if not (limit and cut and exponent.isdecimal()
            and (len(exponent) > 20 or int(exponent) > limit)):
        return False
    try:
        Fraction(text[:cut] + "".join("0" if c.isdecimal() else c
                                      for c in text[cut:]))
    except ValueError:
        return False
    return True


def number_too_long() -> str:
    """How the parsers of this package name a number longer than ``int()``
    reads."""
    return f"a number of more than {sys.get_int_max_str_digits()} digits"


def _rational_fault(text: str, error: Exception) -> str:
    """What is wrong with a text that :func:`parse_rational` refused with
    ``error``: a zero denominator, a number too long to write out (a digit
    run ``int()`` refused, or an exponent past its limit; the text is well
    formed), or no rational at all."""
    if isinstance(error, ZeroDivisionError):
        return "has a zero denominator"
    if (isinstance(error, OverflowError)
            or str(error).startswith("Exceeds the limit")):  # int()'s limit
        return "has " + number_too_long()
    shown = text if len(text) <= 40 else text[:40] + "..."
    return f"is not a rational number ('p' or 'p/q'): {shown!r}"


def json_rational_ints(values: Sequence, what: str) -> tuple[list[int], int]:
    """A JSON array ``what`` of rationals (as in "a component's 'lambda'")
    as integer numerators over one positive denominator: ``(nums, den)``,
    entry i being nums[i] / den.

    A JSON integer is taken as it is, and a text ASCII ``[-]digits`` or
    ``[-]digits/digits`` is read with ``int()``; any other text (of a
    string, or of another JSON value) goes to :func:`parse_rational`, so the
    texts accepted and their values are parse_rational's.  den is the lcm
    of the denominators as written, so ``["2/2"]`` gives ``([2], 2)``.  An
    entry that is no rational is a ValueError naming it by its index and
    its fault.
    """
    nums, dens = [], []
    for i, x in enumerate(values):
        if type(x) is int:
            nums.append(x)
            dens.append(1)
            continue
        if type(x) is Fraction:         # a JSON number read exactly
            p, q = x.numerator, x.denominator
        else:
            text = x if type(x) is str else str(x)
            num, slash, d = text.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            try:
                if (digits.isascii() and digits.isdigit()
                        and (not slash or d.isascii() and d.isdigit())):
                    p, q = int(num), int(d) if slash else 1
                    if not q:
                        raise ZeroDivisionError
                else:
                    value = parse_rational(text)
                    p, q = value.numerator, value.denominator
            except (ValueError, ArithmeticError) as error:
                raise ValueError(f"{what} entry {i} "
                                 f"{_rational_fault(text, error)}") from None
        nums.append(p)
        dens.append(q)
    den = math.lcm(*dens)
    if den > 1:
        nums = [p * (den // q) for p, q in zip(nums, dens)]
    return nums, den


def format_rational(x: Fraction) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_rref(space: RationalSubspace) -> list[list[str]]:
    """The reduced row echelon form of a subspace as ``"p/q"`` strings, as
    :func:`format_rational` writes each of its entries, read straight off
    the primitive integer rows: entry x of a row with pivot entry a is
    x / a (a > 0)."""
    return [[format_ratio(x, row[p]) for x in row]
            for row, p in zip(space.rows, space.pivots)]


def format_ratio(x: int, d: int) -> str:
    """x / d (d > 0) in lowest terms, as :func:`format_rational` writes it."""
    g = math.gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
