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
maximal L(p) all come from partitions into minimal parts.  The minimal
zero-sum subsets are found once from the 2^k subset sums of the k support
coefficients.  A recursion anchored on the least unassigned exponent then
covers the remaining support with minimal parts, memoized on the remaining
support.  It carries the row space R(p) = span of in-part differences, so
L(p) = R(p)^perp, and keeps only the inclusion-minimal R at each step.  This
is sound because R(part) + R(rest) grows with R(rest).

Everything runs on ints.  The subset sums are the coefficients over their
common denominator, tabulated by doubling.  A minimal part is kept as its
bitmask and its in-part differences, which are integer vectors; no subspace
is built per part.  The recursion carries each R as a raw primitive integer
RREF ``(rows, pivots)`` from ``qlinalg._echelon``: R(part) + R(rest) is the
part's differences echelonized into the rows of R(rest) (a rest that is
already Q^n is the sum as it is), and the memo and the minimal-R prune hash
and compare those tuples.  A :class:`jumploci.qlinalg.RationalSubspace` is
built only for each R the recursion returns and for its complement L(p),
and the final arrangement is ordered on integer rows
(:func:`jumploci.qlinalg.rref_order`); the cone of a polynomial builds no
``Fraction``.

>>> f = LaurentPoly.parse("t1 + t2 - 2")
>>> [s.basis for s in tangent_cone_polys([f]).subspaces]
[()]
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Optional, Sequence

from .laurent import LaurentPoly
from .qlinalg import (RationalSubspace, _echelon, _echelon_contains,
                      format_rref, rref_order)
from .tori import VarietyDescription

DEFAULT_SUPPORT_LIMIT = 16
# The tangent cone tabulates all 2^k subset sums of a k-term support, about
# 40 bytes each: 40 MB at this size, and gigabytes a few terms later.
SUBSET_SUM_LIMIT = 20


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
                f"{[s.basis for s in self.subspaces]})")

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
    out: list[RationalSubspace] = []
    ordered = sorted(set(subs), key=lambda s: (s.dim, s.rows), reverse=True)
    for _, group in itertools.groupby(ordered, key=lambda s: s.dim):
        kept = out[:]
        out.extend(s for s in group if not any(t.contains(s) for t in kept))
    return out


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------

# A primitive integer RREF as ``qlinalg._echelon`` returns it: (rows, pivots).
Echelon = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def _poly_cone(f: LaurentPoly) -> list[RationalSubspace]:
    """The maximal L(p) of f, where f(1) = 0, from minimal zero-sum parts."""
    support = sorted(f.terms)
    n, k = f.num_vars, len(support)
    if k > SUBSET_SUM_LIMIT:
        raise ValueError(
            f"support size {k} needs a table of 2^{k} subset sums (about "
            f"{(40 << k) >> 20} MB); tangent cones take at most "
            f"{SUBSET_SUM_LIMIT} terms, whatever max_support is")
    coeffs = [f.terms[e] for e in support]
    den = math.lcm(*(c.denominator for c in coeffs))
    # sums[mask]: the sum of the integer weights at the bits of mask
    sums = [0]
    for c in coeffs:
        w = c.numerator * (den // c.denominator)
        sums += [s + w for s in sums]
    # parts[i]: the minimal zero-sum subsets with least element i, as bitmasks
    # with their in-part differences.  A zero-sum mask is not minimal iff it
    # properly contains a minimal one with the same least element (split off
    # a zero-sum proper subset and cut the piece holding that element into
    # minimal parts); such a part is a smaller mask, so it is already listed.
    parts: list[list[tuple[int, list[tuple[int, ...]]]]] = [[] for _ in range(k)]
    for mask in itertools.compress(range(1 << k), map(operator.not_, sums)):
        if not mask:
            continue
        least = (mask & -mask).bit_length() - 1
        if not any(m & mask == m for m, _ in parts[least]):
            base = support[least]
            parts[least].append((mask, [
                tuple(map(operator.sub, support[i], base))
                for i in range(least + 1, k) if mask >> i & 1]))
    memo: dict[int, list[Echelon]] = {0: [((), ())]}
    return [RationalSubspace(n, rows, pivots).perp()
            for rows, pivots in _row_spaces((1 << k) - 1, n, parts, memo)]


def _row_spaces(remaining: int, n: int,
                parts: Sequence[Sequence[tuple[int, list[tuple[int, ...]]]]],
                memo: dict[int, list[Echelon]]) -> list[Echelon]:
    """Minimal R(p) over partitions of `remaining` into minimal parts, as
    primitive integer RREFs of subspaces of Q^n.

    A module-level function rather than a closure: a recursive closure is
    a reference cycle, which would keep the memo alive after the call until
    the cyclic garbage collector ran.
    """
    if remaining in memo:
        return memo[remaining]
    anchor = (remaining & -remaining).bit_length() - 1
    found = set()
    for mask, diffs in parts[anchor]:
        if mask & remaining == mask:
            for rest in _row_spaces(remaining ^ mask, n, parts, memo):
                found.add(rest if len(rest[0]) == n else _echelon(diffs, *rest))
    if len(found) < 2:
        memo[remaining] = out = list(found)
        return out
    # the inclusion-minimal sums: distinct spans of equal dimension never
    # contain one another, so each is compared with the kept ones of lower
    # dimension only
    out = []
    ordered = sorted(found, key=lambda r: (len(r[0]), r[0]))
    for _, group in itertools.groupby(ordered, key=lambda r: len(r[0])):
        kept = out[:]
        out.extend(r for r in group
                   if not any(_echelon_contains(*r, *t) for t in kept))
    memo[remaining] = out
    return out


def tangent_cone_polys(polys: Sequence[LaurentPoly],
                       max_support: int = DEFAULT_SUPPORT_LIMIT
                       ) -> SubspaceArrangement:
    """Tangent cone at 1 of the common zero set of the polynomials.

    Per polynomial, the union of the maximal L(p) over admissible
    partitions, built from partitions into minimal zero-sum parts; across
    polynomials, pairwise intersections.  A polynomial with f(1) != 0
    forces the empty arrangement (1 is not on the variety).

    Supports larger than ``max_support`` (default ``DEFAULT_SUPPORT_LIMIT``
    = 16), or than ``SUBSET_SUM_LIMIT`` = 20 whatever ``max_support`` is,
    are rejected, because the cost grows exponentially with the support
    size k: 2^k subset sums, then up to one step per partition into
    minimal parts.  At k = 16 the product of (t_i - 1) over four variables
    takes about 0.2 s; random supports take about a second in four
    variables and tens of seconds in seven.

    >>> cone = tangent_cone_polys([LaurentPoly.parse("t1 - 1", 2),
    ...                            LaurentPoly.parse("t2 - 1", 2)])
    >>> [s.basis for s in cone.subspaces]
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
    for f in polys:
        if len(f.terms) > max_support:
            raise ValueError(
                f"support size {len(f.terms)} exceeds the enumeration limit "
                f"{max_support}: the cost grows exponentially with the support "
                f"size; pass a larger max_support to override")
        if f.coefficient_sum() != 0:
            return SubspaceArrangement.empty_arrangement(n)
        cone = SubspaceArrangement(n, _poly_cone(f))
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
