"""Exponential tangent cones via zero-sum partitions of the support.

A Laurent polynomial f = sum_{a in S} c_a t^a vanishes identically on the
one-parameter subgroup exp(z C) (z a rational direction) iff the support
splits into parts on which z is constant as a linear functional and each
part's coefficients sum to zero.  Such set partitions of S are *admissible*
(every part sums to zero exactly), and each contributes the subspace

    L(p) = { x in Q^n : (a - b) . x = 0  whenever a, b lie in one part }.

The exponential tangent cone of V(f) at 1 is the finite union of the L(p);
only partitions whose subspace is maximal matter.  Intersecting over several
polynomials and over the components of a variety description gives the
degree-one characteristic arrangement.

:func:`tangent_cone_polys` does not visit every admissible partition (there
are Bell-number many).  Every admissible partition refines to one whose
parts are *minimal* zero-sum sets, and refining only enlarges L(p), so the
maximal L(p) all come from partitions into minimal parts, and L(p) =
R(p)^perp for the row space R(p) = span of in-part differences.

Every R lies in the span D of the k - 1 differences from the least exponent
a_0.  When k - 1 < n the cone is found on coordinates: each vector is
replaced by its entries at the pivot columns of D's RREF, a linear
bijection from D onto Q^(dim D) that keeps sums and inclusion, so rows have
at most k - 1 entries however many variables there are, and each R found
is lifted back into Q^n.  The working space is Q^d, with d = n or dim D.

The minimal R(p) are the minimal subspaces R that are spanned by
differences of the support and whose classes of exponents congruent mod R
each sum to zero: R(p) is one, as its classes are unions of parts, and any
such R contains R(p) for the partition cutting its classes into minimal
parts.  When d <= 3 this is settled in closed form; steps are taken only
from d = 4.  {0} never qualifies, as each of its classes is one term with
a nonzero coefficient; a qualifying R puts a_0 in a class with some other
exponent b, so it contains the line spanned by b - a_0.  So the lines
through a_0 and the other exponents are the only qualifying lines, and
distinct lines never contain each other.  When d <= 2 they are the only
proper candidates, and the whole working space is minimal only when no
line qualifies (always so when d = 1).  Each line is tested by one pass
over the support, its classes keyed by a 2 x 2 determinant.

When d = 3 a minimal R can also be a plane holding no qualifying line.
Such a plane R contains one of the lines Qu through a_0, and it qualifies
exactly when its image, a line in the quotient Q^3 / Qu, qualifies for
the classes mod Qu with their weights summed.  As Qu does not qualify, it
has a class c of nonzero sum, and c's class mod R holds another class e
of nonzero sum, so R is spanned by u and x_e - x_c for exponents x_e and
x_c of those classes: in the quotient, R is a line through c and e.  So
for each u, the lines of the quotient through one class c of nonzero sum
and the others are tested as the lines through a_0 are when d = 2, each
in full only when c's class mod it sums to zero.  Distinct planes never
contain each other, so the minimal R are the qualifying lines and the
qualifying planes holding none of them, or the whole working space when
there are neither.  No subset sum is tabulated and no step is taken.

When d >= 4 a recursion runs.  The minimal zero-sum subsets are found
once from the 2^k subset sums of the k support coefficients.  A recursion
anchored on the least unassigned exponent then covers the remaining
support with minimal parts, memoized on the remaining support.  It
carries R(p) and keeps only the inclusion-minimal R at each step.  This
is sound because R(part) + R(rest) grows with R(rest).  Each minimal part
joined to one R of the rest is a step, counted against ``CONE_BUDGET``.

Everything runs on ints.  The weights are the coefficients over their
common denominator, and the subset sums are tabulated from them by
doubling.  A minimal part is kept as its bitmask and its in-part
differences, which are integer vectors; no subspace is built per part.
Every route gives each R as a raw primitive integer RREF ``(rows, pivots)``
as ``qlinalg._echelon`` makes it.  In the recursion, R(part) + R(rest) is
the part's differences echelonized into the rows of R(rest).  A rest that
is the whole working space is the sum as it is, and a rest of codimension
one is settled by its normal vector, taken once per call: the sum is the
whole space if some difference of the part leaves the rest's hyperplane,
and the rest otherwise.  The memo and the minimal-R prune hash and compare
those tuples.  A :class:`jumploci.qlinalg.RationalSubspace` is built only
for each R found and for its complement L(p), and the final arrangement is
ordered on integer rows (:func:`jumploci.qlinalg.rref_order`); the cone of
a polynomial builds no ``Fraction``.

>>> f = LaurentPoly.parse("t1 + t2 - 2")
>>> [s.rows for s in tangent_cone_polys([f]).subspaces]
[()]
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Optional, Sequence

from .laurent import LaurentPoly
from .qlinalg import (RationalSubspace, _echelon, _echelon_contains,
                      _identity, _kernel, _primitive, _uncovered, format_rref,
                      rref_order)
from .tori import VarietyDescription

# The recursion tabulates all 2^k subset sums of a k-term support, about 40
# bytes each: 40 MB at this size, and gigabytes a few terms later.  Every
# support is checked against it, whichever route its cone takes.
SUBSET_SUM_LIMIT = 20
# The most steps one tangent_cone_polys call may take; a step is one of the
# recursion's, and costs at most one subspace sum, in the span of the
# support's differences when a k-term support has k - 1 < n.  Working
# dimension d <= 3 is found in closed form; steps are taken only from d = 4.
# Single runs on Python 3.11.7, 2 shared vCPUs: the product (t1 - 1)(t2 - 1)
# (t1 t2 - 1)(t3 - 1)(t1 t3 - 1), 20 terms with d = 3, would take 29,582
# steps (0.2 s) and takes none (about 1 ms); the product of (t_i - 1) over
# four variables takes 5,938 steps (0.08 s), and with t1^5 - t1^6 added 19,569
# (0.2 s); sixteen terms on random exponents in [-2, 2]^n, twelve +1 and
# four -3, take 37,510-48,270 for n = 4-6 (0.1-1.4 s) and 392,606-397,710
# for n = 7 (1.8-2.1 s), refused here after 0.7-1.1 s.  A step costs more as
# the working space grows, up to 15 dimensions for such a support: refused
# after 3-5 s at n = 10 and 9-13 s at n = 50 and at n = 256.
CONE_BUDGET = 60_000


# ---------------------------------------------------------------------------
# subspace arrangements
# ---------------------------------------------------------------------------

class SubspaceArrangement:
    """A finite union of rational subspaces, pruned and canonically sorted.

    The empty arrangement (no subspaces — the cone of a variety missing the
    identity) is distinct from the arrangement whose only member is {0}.
    """

    __slots__ = ("ambient_dim", "subspaces", "empty")

    def __init__(self, ambient_dim: int,
                 subspaces: Iterable[RationalSubspace] = ()):
        self.ambient_dim = int(ambient_dim)
        pruned = _prune_subspaces(list(subspaces))
        for s in pruned:
            if s.ambient_dim != self.ambient_dim:
                raise ValueError("ambient dimension mismatch")
        keys = rref_order(pruned)
        self.subspaces = tuple(pruned[i] for i in sorted(range(len(pruned)),
                                                         key=keys.__getitem__))
        self.empty = not self.subspaces

    @classmethod
    def empty_arrangement(cls, ambient_dim: int) -> "SubspaceArrangement":
        return cls(ambient_dim, ())

    def intersect(self, other: "SubspaceArrangement") -> "SubspaceArrangement":
        """Pairwise intersections (union-of-subspaces semantics), pruned."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.empty or other.empty:
            return SubspaceArrangement.empty_arrangement(self.ambient_dim)
        met = [a.intersect(b) for a in self.subspaces for b in other.subspaces]
        return SubspaceArrangement(self.ambient_dim, met)

    def __eq__(self, other):
        return (isinstance(other, SubspaceArrangement)
                and self.ambient_dim == other.ambient_dim
                and self.subspaces == other.subspaces)

    def __repr__(self):
        return (f"SubspaceArrangement(n={self.ambient_dim}, "
                f"{list(self.subspaces)})")

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "empty": self.empty,
            "subspaces": [format_rref(s) for s in self.subspaces],
        }


def _prune_subspaces(subs: Iterable[RationalSubspace]
                     ) -> list[RationalSubspace]:
    """The distinct maximal members of subs under inclusion.

    Distinct subspaces of equal dimension never contain one another, so each
    is compared only with the kept ones of higher dimension.  The order
    within a dimension is that of the integer rows; callers sort the result
    as they need.
    """
    return _uncovered(
        sorted(set(subs), key=lambda s: (s.dim, s.rows), reverse=True),
        operator.attrgetter("dim"), RationalSubspace.contains)


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------

# A primitive integer RREF as ``qlinalg._echelon`` returns it: (rows, pivots).
Echelon = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def _poly_cone(f: LaurentPoly, spent: list[int]) -> list[RationalSubspace]:
    """The maximal L(p) of f, where f(1) = 0, from minimal zero-sum parts."""
    support = sorted(f.terms)
    n, k = f.num_vars, len(support)
    if k > SUBSET_SUM_LIMIT:
        raise ValueError(
            f"support size {k} needs a table of 2^{k} subset sums (about "
            f"{(40 << k) >> 20} MB); tangent cones take at most "
            f"{SUBSET_SUM_LIMIT} terms")
    coeffs = [f.terms[e] for e in support]
    den = math.lcm(*(c.denominator for c in coeffs))
    weights = [c.numerator * (den // c.denominator) for c in coeffs]
    # Every R lies in the span D of the differences, of dimension at most
    # k - 1.  When that is less than n, the cone is found on coordinates at
    # the pivot columns of D's RREF: reading those coordinates is a linear
    # bijection from D onto Q^dim D, so it keeps sums, inclusion and
    # dimension, and each R found there is lifted back into Q^n.
    diffs = [tuple(map(operator.sub, e, support[0])) for e in support]
    project = k - 1 < n
    span, span_pivots = _echelon(diffs) if project else ((), tuple(range(n)))
    if project:
        diffs = [tuple([v[p] for p in span_pivots]) for v in diffs]
    d = len(span_pivots)
    if d <= 2:
        found = _line_spaces(diffs, weights, d)
    elif d == 3:
        found = _plane_spaces(diffs, weights)
    else:
        found = _row_spaces((1 << k) - 1, _minimal_parts(diffs, weights),
                            {0: [((), ())]}, {}, _identity(d), spent)
    if project:
        # a row w of R in coordinates is the vector sum_i w_i span_i / a_i of
        # D, a_i the pivot entry of span_i; times the lcm of the a_i it is
        # an integer vector
        scale = math.lcm(*(row[p] for row, p in zip(span, span_pivots)))
        lifts = [scale // row[p] for row, p in zip(span, span_pivots)]
        found = [_echelon([
            [sum(w_i * c * row[j] for w_i, c, row in zip(w, lifts, span) if w_i)
             for j in range(n)] for w in rows]) for rows, _ in found]
    return [RationalSubspace(n, rows, pivots).perp() for rows, pivots in found]


def _line_spaces(diffs: Sequence[tuple[int, ...]], weights: Sequence[int],
                 d: int) -> list[Echelon]:
    """Minimal R(p) on a working space Q^d with d <= 2, in closed form.

    ``diffs`` are the exponents less the least one, a_0, in working
    coordinates, and ``weights`` their integer coefficients.  The candidates
    are the lines through a_0 and another exponent (:func:`_lines_through`),
    and each direction found is the line's primitive RREF row.  Distinct
    lines are incomparable; with none, the whole working space is the one
    minimal R.
    """
    full = _identity(d)
    if d == 1:
        return [full]
    return [((u,), (0 if u[0] else 1,)) for u in _lines_through(
        weights[0], list(zip(diffs[1:], weights[1:])))] or [full]


def _plane_spaces(diffs: Sequence[tuple[int, ...]], weights: Sequence[int]
                  ) -> list[Echelon]:
    """Minimal R(p) on a working space Q^3, in closed form.

    ``diffs`` and ``weights`` are as for :func:`_line_spaces`.  For each
    line through a_0 along the primitive u of a difference, the support is
    cut into its classes mod the line, keyed by coordinates on the quotient
    Q^3 / Qu, and each class's weights are summed.  The line qualifies when
    every class sums to zero.  Otherwise the planes through it are the
    lines of the quotient, and a qualifying one joins a class c of nonzero
    sum to another: the lines of the quotient through c are tested as
    :func:`_line_spaces` tests the lines through a_0.  The minimal R are
    the qualifying lines and the qualifying planes holding none of them,
    or the whole working space when there are neither.
    """
    lines: list[tuple[tuple[int, ...], int]] = []
    planes: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    columns = tuple(zip(*diffs))
    for u in dict.fromkeys(map(_primitive, diffs[1:])):
        # a_0 is the least exponent, so each difference leads with a
        # positive entry, at a pivot of the span when projected, and so does
        # u, at u_j: ((u,), (j,)) is the line's primitive RREF.  For the
        # other coordinates a < b, x -> (u_j x_a - u_a x_j, u_j x_b - u_b x_j)
        # maps Q^3 onto Q^2 with kernel Qu
        j = 0 if u[0] else 1 if u[1] else 2
        a, b = (0, 1, 2)[:j] + (0, 1, 2)[j + 1:]
        uj, ua, ub = u[j], u[a], u[b]
        classes: dict[tuple[int, int], int] = {}
        for xa, xb, xj, w in zip(columns[a], columns[b], columns[j], weights):
            key = (uj * xa - ua * xj, uj * xb - ub * xj)
            classes[key] = classes.get(key, 0) + w
        # c is the class of a_0, at the origin, unless that sums to zero
        anchor = classes.pop((0, 0))
        others = [(q, s) for q, s in classes.items() if s]
        if not anchor:
            if not others:
                lines.append((u, j))
                continue
            (cx, cy), anchor = others.pop()
            others = [((x - cx, y - cy), s) for (x, y), s in others]
        for delta in _lines_through(anchor, others):
            # the plane spanned by u and y, where y_j = 0 and (y_a, y_b)
            # is delta, is named by its primitive normal u x y with a
            # positive leading entry
            y = [0, 0, 0]
            y[a], y[b] = delta
            normal = _primitive([u[1] * y[2] - u[2] * y[1],
                                 u[2] * y[0] - u[0] * y[2],
                                 u[0] * y[1] - u[1] * y[0]])
            if normal < (0, 0, 0):
                normal = tuple([-c for c in normal])
            planes.setdefault(normal, (u, y))
    found = [((u,), (j,)) for u, j in lines]
    found += [_echelon(span) for normal, span in planes.items()
              if all(sum(map(operator.mul, normal, u)) for u, _ in lines)]
    return found or [_identity(3)]


def _lines_through(anchor: int, points: Sequence[tuple[tuple[int, int], int]]
                   ) -> list[tuple[int, int]]:
    """The lines in Q^2 through the origin, of weight ``anchor``, along
    which the weighted ``points``, distinct and off the origin, cancel: each
    line's classes of points congruent mod it, keyed by the determinant of
    its direction with each point, sum to zero.  Each line is given by its
    primitive direction with a positive leading entry.

    The candidates are the lines through the origin and a point.  The class
    of the origin is the anchor and the points on the line, so only a line
    where those sum to zero is tested in full.
    """
    gcd = math.gcd
    through: dict[tuple[int, int], int] = {}
    for (x, y), w in points:
        g = gcd(x, y)
        if x < 0 or not x and y < 0:
            g = -g
        u = (x // g, y // g)
        through[u] = through.get(u, anchor) + w
    found = []
    for u, on_line in through.items():
        if on_line:
            continue
        ux, uy = u
        classes = {0: anchor}
        for (x, y), w in points:
            key = ux * y - uy * x
            classes[key] = classes.get(key, 0) + w
        if not any(classes.values()):
            found.append(u)
    return found


def _minimal_parts(diffs: Sequence[tuple[int, ...]], weights: Sequence[int]
                   ) -> list[list[tuple[int, list[tuple[int, ...]]]]]:
    """The minimal zero-sum subsets of the support, by least element.

    Entry i lists the minimal zero-sum subsets whose least element is i, as
    bitmasks with their in-part differences.  A zero-sum mask is not minimal
    iff it properly contains a minimal one with the same least element
    (split off a zero-sum proper subset and cut the piece holding that
    element into minimal parts); such a part is a smaller mask, so it is
    already listed.
    """
    k = len(weights)
    # sums[mask]: the sum of the integer weights at the bits of mask
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    parts: list[list[tuple[int, list[tuple[int, ...]]]]] = [[] for _ in range(k)]
    for mask in itertools.compress(range(1 << k), map(operator.not_, sums)):
        if not mask:
            continue
        least = (mask & -mask).bit_length() - 1
        for m, _ in parts[least]:
            if m & mask == m:
                break
        else:
            base = diffs[least]
            parts[least].append((mask, [
                tuple(map(operator.sub, diffs[i], base))
                for i in range(least + 1, k) if mask >> i & 1]))
    return parts


def _row_spaces(remaining: int,
                parts: Sequence[Sequence[tuple[int, list[tuple[int, ...]]]]],
                memo: dict[int, list[Echelon]],
                normals: dict[Echelon, tuple[int, ...]], full: Echelon,
                spent: list[int]) -> list[Echelon]:
    """Minimal R(p) over partitions of `remaining` into minimal parts, as
    primitive integer RREFs of subspaces of the working space Q^d, whose
    RREF is ``full`` (the identity).

    Each minimal part joined to each row space of the rest is a step, added
    to ``spent[0]``; more than ``CONE_BUDGET`` steps is a ValueError.  A
    step onto a rest of codimension one is settled by the rest's normal
    vector, kept in ``normals`` for the call: the sum is the whole space if
    some difference of the part is off the rest's hyperplane, and the rest
    itself otherwise.  Callers read ``memo`` before calling.

    A module-level function rather than a closure: a recursive closure is
    a reference cycle, which would keep the memo alive after the call until
    the cyclic garbage collector ran.
    """
    d = len(full[1])
    anchor = (remaining & -remaining).bit_length() - 1
    found = set()
    for mask, diffs in parts[anchor]:
        if mask & remaining == mask:
            rests = memo.get(remaining ^ mask)
            if rests is None:
                rests = _row_spaces(remaining ^ mask, parts, memo, normals,
                                    full, spent)
            spent[0] += len(rests)
            if spent[0] > CONE_BUDGET:
                raise ValueError(
                    f"tangent cone steps = {spent[0]} is above CONE_BUDGET = "
                    f"{CONE_BUDGET}; a step joins a minimal zero-sum part of "
                    f"the support to one partition of the rest")
            for rest in rests:
                rank = len(rest[0])
                if rank == d:
                    found.add(rest)
                elif rank == d - 1:
                    normal = normals.get(rest)
                    if normal is None:
                        normals[rest] = normal = _kernel(*rest, d)[0]
                    for v in diffs:
                        if sum(map(operator.mul, v, normal)):
                            found.add(full)
                            break
                    else:
                        found.add(rest)
                else:
                    found.add(_echelon(diffs, *rest))
    if len(found) < 2:
        memo[remaining] = out = list(found)
        return out
    # the inclusion-minimal sums, each compared with the kept ones of lower
    # dimension only
    memo[remaining] = out = _uncovered(
        sorted(found, key=lambda r: (len(r[0]), r[0])), lambda r: len(r[0]),
        lambda t, r: _echelon_contains(*r, *t))
    return out


def tangent_cone_polys(polys: Sequence[LaurentPoly]) -> SubspaceArrangement:
    """Tangent cone at 1 of the common zero set of the polynomials.

    Per polynomial, the union of the maximal L(p) over admissible
    partitions, built from partitions into minimal zero-sum parts; across
    polynomials, pairwise intersections.  A polynomial with f(1) != 0
    forces the empty arrangement (1 is not on the variety).

    The call is refused past ``CONE_BUDGET`` steps over all its polynomials
    (a step joins a minimal zero-sum part to one row space of the rest),
    and a support of more than ``SUBSET_SUM_LIMIT`` = 20 terms before its
    2^k subset sums are tabulated.  Working dimension d <= 3 is found in
    closed form; steps are taken only from d = 4.  In up to three
    variables, or when the differences span a space of dimension at most 3,
    the cone comes from the lines through the least exponent and the
    planes through them, with no steps.  The product of (t_i - 1)
    over four variables takes 5,938 steps (0.08 s); random 16-term supports
    take about 45,000 in four to six variables and 395,000, refused, in
    seven.  Steps run on rows of at most k - 1 entries whatever n is, so
    such a support is refused after 9-13 s in 50 or 256 variables.

    >>> cone = tangent_cone_polys([LaurentPoly.parse("t1 - 1", 2),
    ...                            LaurentPoly.parse("t2 - 1", 2)])
    >>> [s.rows for s in cone.subspaces]
    [()]
    """
    if not polys:
        raise ValueError("at least one polynomial is required")
    n = polys[0].num_vars
    for f in polys:
        if f.num_vars != n:
            raise ValueError("polynomials live in different tori")
        if f.is_zero():
            raise ValueError("tangent cone of the zero polynomial is everything")
    result: Optional[SubspaceArrangement] = None
    spent = [0]
    for f in polys:
        if f.coefficient_sum() != 0:
            return SubspaceArrangement.empty_arrangement(n)
        cone = SubspaceArrangement(n, _poly_cone(f, spent))
        result = cone if result is None else result.intersect(cone)
        if result.empty:
            return SubspaceArrangement.empty_arrangement(n)
    return result


def tangent_cone_description(W: VarietyDescription) -> SubspaceArrangement:
    """Tangent cone at 1 of a union of torsion-translated subtori.

    A component rho exp(L otimes C) meets 1 iff lambda lies in L + Z^n, that
    is, iff it passes through the identity, and then contributes exactly L
    (a point component contributes {0} iff it is the identity).
    """
    return SubspaceArrangement(W.ambient_dim, [
        comp.direction for comp in W.components if comp.through_identity()])
