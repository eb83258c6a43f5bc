"""Translated subtori of a character torus, and finite unions of them.

A rank-n character torus (C*)^n is described here through its rational
points: a *torsion character* is a vector lambda in Q^n taken mod Z^n (the
character t = exp(2 pi i lambda)), and an algebraic subtorus is determined
by a rational subspace L of Q^n (the tangent direction; the subtorus is
exp(L tensor C)).  A *translated torus* is a coset rho.T, stored as a pair
(lambda, L).  Both halves are held on integers: a
:class:`TorsionCharacter` is its numerators over its order, each in
[0, order), and L is the primitive integer RREF of
:class:`jumploci.qlinalg.RationalSubspace`.

Canonical coset representative
------------------------------
Two pairs (lambda, L) and (lambda', L) describe the same coset exactly when
lambda - lambda' lies in L + Z^n, so a canonical representative must reduce
lambda modulo that subgroup.  :func:`jumploci.qlinalg.coset_rep_ints` does
it on the numerators of lambda over its order: an integral lambda lies in
Z^n itself, so its representative is 0 and no HNF is built.  Any other
lambda loses its L-part, and the remainder is reduced to the Hermite
fundamental domain of the projection of Z^n along L, so the canonical
vector has all entries in [0, 1); equality of cosets is then literal
equality of representations.  When every pivot entry of L's integer RREF
is 1 (a point, whose L is 0, a coordinate subtorus, or a direction such as
(1, 2, -3)), that projection is Z^n on the coordinates off the pivots, so
the remainder is simply taken mod 1 with no HNF; only the other directions
go through :func:`jumploci.qlinalg.coset_reduce_ints` and its HNF.
Every translated torus, whether built from a character and a subspace or
read from JSON, goes through that one constructor.  Components of a
description are ordered by a key read off the integer rows of their
directions and the numerators of their translates.  The plane-membership
test :func:`sigma_rho_membership` reads whether P meets L off dim(P + L)
and only then asks :func:`jumploci.qlinalg.coset_rep_ints` whether the
translate lies in P + L + Z^n.

>>> T1 = TranslatedTorus(TorsionCharacter((0, 1), 2),
...                      RationalSubspace.from_rows([(1, 1)], 2))
>>> T2 = TranslatedTorus(TorsionCharacter((1, 0), 2),
...                      RationalSubspace.from_rows([(2, 2)], 2))
>>> T1 == T2            # same coset of the diagonal subtorus
True
>>> T1.translate.nums, T1.translate.order
((0, 1), 2)
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .qlinalg import (
    RationalSubspace,
    _echelon,
    coset_rep_ints,
    format_ratio,
    format_rref,
    hnf,  # noqa: F401  unused here; perfbench's tracer test rebinds tori.hnf
    json_rational_ints,
    rref_order,
)


class TorsionCharacter:
    """A finite-order character of Z^n: a vector lambda in Q^n mod Z^n.

    It is held on integers: ``order`` is the order of the character, the
    lcm of the denominators of lambda in lowest terms, and ``nums`` are the
    numerators of lambda over it, each in [0, order).  Equal characters
    have equal fields; ``values`` reads lambda back as ``Fraction``s.

    >>> chi = TorsionCharacter((9, -2), 6)      # (3/2, -1/3) mod Z^2
    >>> chi.nums, chi.order
    ((3, 4), 6)
    >>> chi.values
    (Fraction(1, 2), Fraction(2, 3))
    """

    __slots__ = ("nums", "order")

    def __init__(self, nums: Iterable[int], den: int):
        """The character lambda = nums / den, for integers nums and den > 0."""
        nums = [x % den for x in nums]
        g = math.gcd(den, *nums)
        self.nums = tuple(x // g for x in nums) if g > 1 else tuple(nums)
        self.order = den // g

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.order) for x in self.nums)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __eq__(self, other):
        return (isinstance(other, TorsionCharacter)
                and self.order == other.order and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.order))

    def __repr__(self):
        return "TorsionCharacter((" + ", ".join(str(v) for v in self.values) + "))"

    def to_json(self) -> list[str]:
        return [format_ratio(x, self.order) for x in self.nums]


class TranslatedTorus:
    """A coset (torsion translate) of an algebraic subtorus, in canonical form:
    ``direction`` is L and ``translate`` the canonical representative of the
    translate mod L + Z^n."""

    __slots__ = ("translate", "direction")

    def __init__(self, translate: TorsionCharacter, direction: RationalSubspace):
        if translate.n != direction.ambient_dim:
            raise ValueError("translate length does not match ambient dimension")
        self.direction = direction
        self.translate = TorsionCharacter(
            *coset_rep_ints(translate.nums, translate.order, direction))

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim

    def through_identity(self) -> bool:
        """Does the coset contain the trivial character?

        The translate is the representative from
        :func:`jumploci.qlinalg.coset_rep_ints`, which is 0 exactly when
        lambda lies in L + Z^n: the translate lies on the subtorus itself.
        """
        return self.translate.is_trivial()

    def contains(self, other: "TranslatedTorus") -> bool:
        """Coset containment: directions nest and translates agree mod L+Z^n."""
        if not self.direction.contains(other.direction):
            return False
        a, b = self.translate, other.translate
        den = math.lcm(a.order, b.order)
        diff = [y * (den // b.order) - x * (den // a.order)
                for x, y in zip(a.nums, b.nums)]
        return not any(coset_rep_ints(diff, den, self.direction)[0])

    def __eq__(self, other):
        return (isinstance(other, TranslatedTorus)
                and self.direction == other.direction
                and self.translate == other.translate)

    def __hash__(self):
        return hash((self.direction, self.translate))

    def __repr__(self):
        return f"TranslatedTorus({self.translate!r}, {self.direction!r})"

    def to_json(self) -> dict:
        return {"lambda": self.translate.to_json(),
                "basis": format_rref(self.direction)}

    @classmethod
    def from_json(cls, data: dict, ambient_dim: int) -> "TranslatedTorus":
        """A component ``{"lambda": [...], "basis": [[...], ...]}`` of a
        description in Q^ambient_dim, read on integers: the basis rows go
        to the integer RREF and lambda, as numerators over one denominator,
        to the constructor."""
        lam_field = "a component's 'lambda'"
        nums, den = json_rational_ints(_json_list(
            _json_field(data, "lambda", "a component"), lam_field), lam_field)
        return cls(TorsionCharacter(nums, den),
                   _json_span(data.get("basis", []), "a component's 'basis'",
                              ambient_dim))


def subspace_from_json(data, ambient_dim: Optional[int] = None
                       ) -> RationalSubspace:
    """A subspace given as basis rows, or as ``{"basis": rows}`` with an
    optional ``"n"``, which must then be ambient_dim; entries are "p/q"
    strings or numbers."""
    if isinstance(data, dict):
        rows = _json_field(data, "basis", "a subspace")
        if "n" in data:
            n = _json_dim(data["n"], "a subspace's 'n'")
            if ambient_dim is not None and n != ambient_dim:
                raise ValueError(f"a subspace's 'n' is {n}, but the "
                                 f"description lives in Q^{ambient_dim}")
            ambient_dim = n
    else:
        rows = data
    return _json_span(rows, "a subspace's 'basis'", ambient_dim)


def _json_span(rows, what: str, n: Optional[int] = None) -> RationalSubspace:
    """The span in Q^n of a JSON array of rows ``what``, n being the length
    of the first row if not given.  Each row is read as integer numerators
    over its own denominator (:func:`jumploci.qlinalg.json_rational_ints`),
    which span the same line, and the numerators go to the integer RREF."""
    if not all(isinstance(row, (list, tuple)) for row in _json_list(rows, what)):
        raise ValueError(f"{what} must be a JSON array of rows (arrays)")
    ints = [json_rational_ints(row, f"{what} row {i}")[0]
            for i, row in enumerate(rows)]
    if n is None:
        if not ints:
            raise ValueError("cannot infer ambient dimension of an empty basis")
        n = len(ints[0])
    if any(len(r) != n for r in ints):
        raise ValueError("rows of unequal length")
    return RationalSubspace(n, *_echelon(ints))


def _json_field(data, key: str, what: str):
    """data[key], or a ValueError naming the missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in data:
        raise ValueError(f"{what} is missing the key {key!r}")
    return data[key]


def _json_dim(value, what: str) -> int:
    """A dimension: a JSON integer (or decimal string) >= 0, else a ValueError
    naming ``what``."""
    dim = -1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            dim = int(value)
        except ValueError:
            pass
    if dim < 0:
        raise ValueError(f"{what} must be a nonnegative integer")
    return dim


def _json_list(value, what: str) -> Sequence:
    """value if it is a JSON array, else a ValueError naming the field."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array")
    return value


# ---------------------------------------------------------------------------
# descriptions: finite unions of translated tori
# ---------------------------------------------------------------------------

class VarietyDescription:
    """A pruned, canonically ordered finite union of translated tori.

    Components contained in other components are dropped; the survivors are
    sorted by (dimension, direction basis, translate), so two descriptions
    with the same underlying set of characters compare equal.
    """

    __slots__ = ("ambient_dim", "components")

    def __init__(self, n: int, components: Iterable[TranslatedTorus]):
        comps = list(components)
        for c in comps:
            if c.ambient_dim != n:
                raise ValueError("component ambient dimension mismatch")
        self.ambient_dim = int(n)
        self.components = tuple(_prune(comps))

    def __eq__(self, other):
        return (isinstance(other, VarietyDescription)
                and self.ambient_dim == other.ambient_dim
                and self.components == other.components)

    def __hash__(self):
        return hash((self.ambient_dim, self.components))

    def __repr__(self):
        return f"VarietyDescription(n={self.ambient_dim}, {list(self.components)})"

    @classmethod
    def from_json(cls, data: dict) -> "VarietyDescription":
        """A description ``{"n": ..., "components": [...]}``.  An optional
        ``"degree"`` must be a nonnegative integer; it is checked and not
        kept."""
        n = _json_dim(_json_field(data, "n", "a variety description"),
                      "a variety description's 'n'")
        comps = [TranslatedTorus.from_json(c, n) for c in _json_list(
            data.get("components", []), "a variety description's 'components'")]
        if data.get("degree") is not None:
            _json_dim(data["degree"], "a variety description's 'degree'")
        return cls(n, comps)


def _prune(comps: list[TranslatedTorus]) -> list[TranslatedTorus]:
    """The components no other contains, ordered by (dimension, direction
    RREF, translate): the directions by :func:`jumploci.qlinalg.rref_order`,
    the translates by their numerators scaled by one common multiple of
    their orders, which orders them as their values.

    Components are canonical, so one contains another of the same dimension
    only when the two are equal: equal components are kept once, and each
    is tested only against the kept ones of higher dimension.  A point thus
    costs one coset test per such torus and none per other point.
    """
    comps = list(dict.fromkeys(comps))
    if len(comps) < 2:
        return comps
    order = math.lcm(*(c.translate.order for c in comps))
    keys = [key + (tuple(x * (order // c.translate.order)
                         for x in c.translate.nums),)
            for key, c in zip(rref_order([c.direction for c in comps]), comps)]
    kept: list[int] = []
    ordered = sorted(range(len(comps)), key=keys.__getitem__, reverse=True)
    for _, group in itertools.groupby(ordered, key=lambda i: comps[i].dim):
        above = kept[:]
        kept.extend(i for i in group
                    if not any(comps[j].contains(comps[i]) for j in above))
    kept.sort(key=keys.__getitem__)
    return [comps[i] for i in kept]


class GradedDescription:
    """Cumulative descriptions indexed by homological degree.

    ``by_degree[i]`` is the union of everything in degrees <= i, so the
    family must be monotone; the constructor verifies componentwise
    containment between consecutive degrees.
    """

    __slots__ = ("ambient_dim", "by_degree")

    def __init__(self, n: int, by_degree: dict[int, VarietyDescription]):
        self.ambient_dim = int(n)
        degrees = sorted(by_degree)
        if degrees != list(range(len(degrees))):
            raise ValueError("degrees must be contiguous starting at 0")
        for i, desc in by_degree.items():
            if desc.ambient_dim != n:
                raise ValueError("ambient dimension mismatch in degree %d" % i)
        for i in degrees[:-1]:
            lower, upper = by_degree[i], by_degree[i + 1]
            for comp in lower.components:
                if not any(c.contains(comp) for c in upper.components):
                    raise ValueError(
                        "graded description is not cumulative at degree %d" % (i + 1))
        self.by_degree = {i: by_degree[i] for i in degrees}

    @property
    def max_degree(self) -> int:
        return len(self.by_degree) - 1

    def at(self, degree: int) -> VarietyDescription:
        if degree not in self.by_degree:
            raise ValueError(f"degree {degree} not present (max {self.max_degree})")
        return self.by_degree[degree]

    def __eq__(self, other):
        return (isinstance(other, GradedDescription)
                and self.ambient_dim == other.ambient_dim
                and self.by_degree == other.by_degree)

    @classmethod
    def from_json(cls, data: dict) -> "GradedDescription":
        n = _json_dim(_json_field(data, "n", "a graded description"),
                      "a graded description's 'n'")
        degrees = _json_field(data, "degrees", "a graded description")
        if not isinstance(degrees, dict):
            raise ValueError("a graded description's 'degrees' must be a JSON "
                             "object mapping degrees to component lists")
        by_degree = {}
        for key, comps in degrees.items():
            degree = _json_dim(
                key, f"a graded description's degree key {key!r}")
            by_degree[degree] = VarietyDescription.from_json(
                {"n": n, "components": comps})
        return cls(n, by_degree)


def sigma_rho_membership(plane: RationalSubspace, direction: RationalSubspace,
                         translate: TorsionCharacter) -> bool:
    """Incidence test for a translated torus: does exp(P tensor C) meet the
    coset in infinitely many points?

    True iff P meets L nontrivially and the translate lies on
    exp((P + L) tensor C), a lattice-coset membership.  The sum S = P + L is
    built once and serves both: by the Grassmann formula
    dim(P meet L) = dim P + dim L - dim S, so P meets L exactly when
    dim S < dim P + dim L.  That count is read first; the coset test runs
    only when it passes, on the translate's numerators over its order, and
    needs no HNF for the trivial character.
    """
    if translate.n != plane.ambient_dim:
        raise ValueError("character length does not match ambient dimension")
    total = plane.sum(direction)
    return (total.dim < plane.dim + direction.dim
            and not any(coset_rep_ints(translate.nums, translate.order,
                                       total)[0]))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
