"""Exact linear algebra over Q and Z: subspaces, lattice cosets, Pluecker
coordinates.

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
from the integer rows.  The ``Fraction`` RREF (``basis``, and :func:`rref`)
is built only where rational values are wanted: for a spanning set given
as rows of rationals (``from_rows`` goes through :func:`rref` and keeps its
result as ``basis``) and for explicit solutions; Pluecker minors are
fraction-free determinants of the stored integer rows.

A rational vector lambda enters the lattice layer as integer numerators
over one positive denominator.  :func:`coset_reduce_ints` decides
``lambda in V + Z^n`` (the decidable core of every "does this character lie
on that algebraic subtorus" question downstream): with one Hermite normal
form (:func:`hnf`) it reduces lambda to the canonical representative of its
coset mod V + Z^n, and returns the integer step m taken, so lambda - m lies
in V when the representative is 0.  :func:`coset_rep_ints` keeps only the
representative and skips the HNF for an integer vector, which lies in every
V + Z^n, and for a V whose stored rows all have pivot entry 1 (the zero
space among them), whose projection lattice is already the coordinates off
the pivots; membership tests and the canonical translates of ``tori`` read
it.
The module also provides Smith normal forms, Pluecker coordinates of
subspaces, the linear equations cutting out the locus of r-planes meeting a
fixed subspace nontrivially, and the reading of rational JSON entries,
whose errors name the entry.

>>> V = RationalSubspace.from_rows([(1, 1)], 2)
>>> coset_reduce_ints([3, 1], 2, V)
([0, 0], 2, [0, -1])
>>> coset_rep_ints([1, 0], 2, V)
([0, 1], 2)
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

#: The most Pluecker coordinates C(n, r) that :func:`plucker` computes, and
#: the most coefficients C(n, r + s) C(n, r) that :func:`schubert_equations`
#: writes; more is refused before any minor is computed.  A random 8-plane
#: in Q^16 (12870 coordinates) takes 1.8 s.
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
    its pivot and zero at the other pivots.
    """
    rows, pivots = list(rows), list(pivots)
    for v in new:
        v, _ = _reduce(v, rows, pivots)
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        v = _primitive(v)
        if v[c] < 0:
            v = tuple(-x for x in v)
        a = v[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f:
                g = math.gcd(a, f)
                rows[i] = _primitive([a // g * x - f // g * y
                                      for x, y in zip(row, v)])
        k = sum(p < c for p in pivots)
        rows.insert(k, v)
        pivots.insert(k, c)
    return tuple(rows), tuple(pivots)


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


def _fractions(rows: Sequence[tuple[int, ...]], pivots: Sequence[int]
               ) -> Matrix:
    """The rows of a primitive integer RREF divided by their pivots."""
    return tuple(tuple(Fraction(x, r[p]) for x in r)
                 for r, p in zip(rows, pivots))


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
    return _fractions(reduced, pivots), pivots


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
    identical, and equality and hashing compare tuples of ints.  ``basis``,
    that RREF with ``Fraction`` entries, is kept from :meth:`from_rows`;
    a subspace made from integer rows (by :meth:`sum`, :meth:`intersect`,
    :meth:`perp` or the constructor) builds it on first use only.

    >>> A = RationalSubspace.from_rows([(2, 4), (1, 2)], 2)
    >>> A.basis
    ((Fraction(1, 1), Fraction(2, 1)),)
    >>> A == RationalSubspace.from_rows([(-3, -6)], 2)
    True
    >>> RationalSubspace.from_rows([(2, 1, 0), (0, 3, 1)], 3).rows
    ((6, 0, -1), (0, 3, 1))
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_basis")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...],
                 pivots: tuple[int, ...]):
        """Wrap rows already in primitive integer RREF (see :meth:`from_rows`
        for any other spanning set)."""
        self.ambient_dim = int(ambient_dim)
        self.rows = rows
        self.pivots = pivots
        self._basis: Optional[Matrix] = None

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ambient_dim: Optional[int] = None
                  ) -> "RationalSubspace":
        """The span of rows of ints, Fractions or anything Fraction accepts.

        The span is reduced by :func:`rref`; its ``Fraction`` rows are kept
        as ``basis``, and scaled by the lcm of their denominators they are
        the stored primitive integer rows.
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
        space = cls(ambient_dim, tuple(clear_denominators(r) for r in basis),
                    pivots)
        space._basis = basis
        return space

    @classmethod
    def zero(cls, n: int) -> "RationalSubspace":
        return cls(n, (), ())

    @property
    def basis(self) -> Matrix:
        """The reduced row echelon form, each row divided by its pivot."""
        if self._basis is None:
            self._basis = _fractions(self.rows, self.pivots)
        return self._basis

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
        rows = ", ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.basis)
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


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------

def hnf(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...],
                                                tuple[tuple[int, ...], ...]]:
    """Row-style Hermite normal form with unimodular witness: H = U @ M.

    Shape convention: pivots are each row's *last* nonzero entry, pivot
    columns strictly increase down the matrix (lower-triangular in the square
    nonsingular case), pivots are positive, entries below a pivot are reduced
    into ``[0, pivot)``.  Zero rows, if any, are moved to the bottom.

    >>> H, U = hnf([[1, 2], [0, 3]])
    >>> H
    ((3, 0), (2, 1))
    """
    work = [list(map(int, row)) for row in rows]
    m = len(work)
    n = len(work[0]) if work else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    active = list(range(m))           # indices into work, still pivot-less
    pivot_rows: list[int] = []        # collected right-to-left

    for col in range(n - 1, -1, -1):
        carriers = [i for i in active if work[i][col] != 0]
        if not carriers:
            continue
        # combine all carriers into one row with the gcd at this column
        base = carriers[0]
        for other in carriers[1:]:
            a, b = work[base][col], work[other][col]
            g, x, y = _xgcd(a, b)
            # rows: base' = x*base + y*other ; other' = -(b/g)*base + (a/g)*other
            rb, ro = work[base], work[other]
            ub, uo = u[base], u[other]
            nb = [x * p + y * q for p, q in zip(rb, ro)]
            no = [-(b // g) * p + (a // g) * q for p, q in zip(rb, ro)]
            nub = [x * p + y * q for p, q in zip(ub, uo)]
            nuo = [-(b // g) * p + (a // g) * q for p, q in zip(ub, uo)]
            work[base], work[other] = nb, no
            u[base], u[other] = nub, nuo
        if work[base][col] < 0:
            work[base] = [-x for x in work[base]]
            u[base] = [-x for x in u[base]]
        active.remove(base)
        pivot_rows.insert(0, base)

    order = pivot_rows + active       # zero rows last
    work = [work[i] for i in order]
    u = [u[i] for i in order]

    # Reduce entries below each pivot into [0, pivot).  Rightmost pivot
    # first: reducing with row i only touches columns <= pivcol(i), so
    # earlier (further right) reductions are never disturbed.
    pivcols = []
    for row in work[: len(pivot_rows)]:
        c = max(j for j in range(n) if row[j] != 0)
        pivcols.append(c)
    for i in range(len(pivcols) - 1, -1, -1):
        c = pivcols[i]
        p = work[i][c]
        for k in range(i + 1, m):
            f = work[k][c] // p       # floor division: remainder in [0, p)
            if f:
                work[k] = [a - f * b for a, b in zip(work[k], work[i])]
                u[k] = [a - f * b for a, b in zip(u[k], u[i])]
    return tuple(tuple(r) for r in work), tuple(tuple(r) for r in u)


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
    with lam - m - rep in V.  So lam lies in V + Z^n exactly when rep is 0,
    and then m is a witness.

    Subtracting the element of V that agrees with lam on V's RREF pivots
    leaves a residue supported off the pivots.  The projection of Z^n along V
    onto those coordinates is generated by e_j off the pivots and by e_p - b
    at the pivot p of each basis row b; scaled by the common denominator
    ``scale`` of the basis, which is the lcm of the pivot entries of the
    stored integer rows, these are integer rows G.  The residue is reduced,
    rightmost pivot first, to the fundamental domain of the HNF H = U G.
    Row k of H is scale (U_k - x) for some x in V, so each step by f copies
    of it adds f U_k to m.
    """
    n = space.ambient_dim
    if len(nums) != n:
        raise ValueError("character length does not match ambient dimension")
    scale = math.lcm(*(row[p] for row, p in zip(space.rows, space.pivots)))
    gens = [[scale if i == j else 0 for j in range(n)] for i in range(n)]
    for row, p in zip(space.rows, space.pivots):
        f = scale // row[p]
        gens[p] = [-x * f for x in row]
        gens[p][p] = 0                          # scale - row[p] * f
    h, u = hnf(gens)
    # the residue of lam mod V, as integers x over scale * d
    x, d = _reduce(nums, space.rows, space.pivots, den)
    x = [a * scale for a in x]
    m = [0] * n
    for row, u_row in zip(reversed(h), reversed(u)):
        if not any(row):                        # zero rows sit at the bottom
            continue
        c = max(j for j in range(n) if row[j] != 0)
        f = x[c] // (d * row[c])
        if f:
            x = [a - f * d * b for a, b in zip(x, row)]
            m = [a + f * b for a, b in zip(m, u_row)]
    return x, scale * d, m


def coset_rep_ints(nums: Sequence[int], den: int, space: RationalSubspace
                   ) -> tuple[list[int], int]:
    """The representative of :func:`coset_reduce_ints` for lam = nums / den
    (den > 0), as ``(rep nums, rep den)``.  An integer vector (den divides
    every numerator, as in ``"2/2"``) lies in every V + Z^n, so its
    representative is 0 with no HNF.  When every pivot entry of V's stored
    rows is 1, as for the zero space (a point), the full space and every
    coordinate subspace, the projection of Z^n along V is Z^n on the
    coordinates off the pivots: its HNF is those unit rows, and the
    representative is the residue of lam mod V taken mod den, with no HNF
    either.  Only the remaining spaces go to :func:`coset_reduce_ints`."""
    if len(nums) != space.ambient_dim:
        raise ValueError("character length does not match ambient dimension")
    if den == 1 or all(a % den == 0 for a in nums):
        return [0] * len(nums), 1
    if all(row[p] == 1 for row, p in zip(space.rows, space.pivots)):
        x, _ = _reduce(nums, space.rows, space.pivots)
        return [a % den for a in x], den
    x, d, _ = coset_reduce_ints(nums, den, space)
    return x, d


# ---------------------------------------------------------------------------
# Pluecker coordinates and Schubert incidence equations
# ---------------------------------------------------------------------------

class PluckerVector:
    """Pluecker coordinates of an r-plane in Q^n.

    Coordinates are indexed by the r-element subsets of ``range(n)`` in
    lexicographic order and normalized so the first nonzero coordinate is 1.

    >>> P = RationalSubspace.from_rows([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    >>> plucker(P).coords
    (Fraction(1, 1), Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1))
    """

    __slots__ = ("r", "n", "coords")

    def __init__(self, r: int, n: int, coords: Sequence[Fraction]):
        if len(coords) != math.comb(n, r):
            raise ValueError("wrong number of Pluecker coordinates")
        self.r = int(r)
        self.n = int(n)
        self.coords = tuple(Fraction(x) for x in coords)

    def __eq__(self, other):
        return (isinstance(other, PluckerVector) and self.r == other.r
                and self.n == other.n and self.coords == other.coords)

    def __hash__(self):
        return hash((self.r, self.n, self.coords))

    def __repr__(self):
        return f"PluckerVector(r={self.r}, n={self.n}, {list(self.coords)})"

    @staticmethod
    def subset_order(n: int, r: int) -> list[tuple[int, ...]]:
        """The r-subsets of range(n), lexicographic; at most PLUCKER_BUDGET."""
        _within_budget(math.comb(n, r), f"C({n}, {r}) Pluecker coordinates")
        return list(itertools.combinations(range(n), r))


def _within_budget(count: int, what: str) -> None:
    if count > PLUCKER_BUDGET:
        raise ValueError(f"{what} = {count} is above PLUCKER_BUDGET = "
                         f"{PLUCKER_BUDGET}")


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss): each
    entry below pivot a becomes a 2x2 minor through a, divided exactly by
    the previous pivot, and the last pivot is the determinant up to sign."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        a, top = m[c][c], m[c]
        for i in range(c + 1, len(m)):
            f = m[i][c]
            m[i] = [(a * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = a
    return sign * prev


def _minors(space: RationalSubspace, subsets: Iterable[Sequence[int]]
            ) -> list[Fraction]:
    """The maximal minors of the RREF ``basis`` on each column subset: those
    of the integer rows over their minor at the pivots, the product of the
    pivot entries."""
    rows = space.rows
    scale = math.prod(row[p] for row, p in zip(rows, space.pivots))
    return [Fraction(_det([[row[c] for c in cols] for row in rows]), scale)
            for cols in subsets]


def plucker(space: RationalSubspace) -> PluckerVector:
    """Pluecker coordinates of a nonzero subspace: the maximal minors of its
    RREF basis.  The pivot columns are the lexicographically first subset
    with a nonzero minor, and that minor is 1, so they come normalized."""
    if space.is_zero():
        raise ValueError("the zero subspace has no Pluecker coordinates")
    r, n = space.dim, space.ambient_dim
    return PluckerVector(r, n, _minors(space, PluckerVector.subset_order(n, r)))


def schubert_equations(space: RationalSubspace, r: int) -> list[tuple[Fraction, ...]]:
    """Linear forms in Pluecker coordinates vanishing iff an r-plane meets L.

    Each form is the Laplace expansion, along the plane's rows, of one
    maximal minor of the stacked matrix (L's basis over a basis of the
    plane), so its coefficients are signed maximal minors of L's basis, each
    computed once.  The forms vanish together on plucker(P) exactly when P
    meets L nontrivially.  Coefficient tuples are aligned with
    ``PluckerVector.subset_order(n, r)``; r + dim L > n gives no forms (every
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
    index = {sub: i for i, sub in enumerate(PluckerVector.subset_order(n, r))}
    comps = list(itertools.combinations(range(n), s))
    minor = dict(zip(comps, _minors(space, comps)))
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
            m = minor[tuple(cset[p] for p in rest)]
            if m:
                coeffs[index[tuple(cset[p] for p in J)]] = sign * m
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
    :func:`format_rational` writes each entry of ``basis``, read straight
    off the primitive integer rows: entry x of a row with pivot entry a is
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
