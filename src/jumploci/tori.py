"""Translated subtori of a character torus, and finite unions of them.

A rank-n character torus (C*)^n is described here through its rational
points: a *torsion character* is a vector in Q^n taken mod Z^n (the character
t = exp(2 pi i lambda)), and an algebraic subtorus is determined by a rational
subspace L of Q^n (the tangent direction; the subtorus is exp(L tensor C)).
A *translated torus* is a coset rho.T, stored as a pair (lambda, L).

Canonical coset representative
------------------------------
Two pairs (lambda, L) and (lambda', L) describe the same coset exactly when
lambda - lambda' lies in L + Z^n, so a canonical representative must reduce
lambda modulo that subgroup.  :func:`jumploci.qlinalg.coset_rep` does it:
an integral lambda lies in Z^n itself, so its representative is 0; any other
goes to :func:`jumploci.qlinalg.coset_reduce`, which kills the L-part of
lambda, then reduces the remainder to the Hermite fundamental domain of the
projection of Z^n along L, so the canonical vector has all entries in
[0, 1); equality of cosets is then literal equality of representations.
The plane-membership test
:func:`sigma_rho_membership` reads whether P meets L off dim(P + L) and only
then asks :func:`jumploci.qlinalg.lattice_coset_membership` whether the
translate lies in P + L + Z^n.

>>> T1 = TranslatedTorus.from_data(("0", "1/2"), [("1", "1")])
>>> T2 = TranslatedTorus.from_data(("1/2", "0"), [("2", "2")])
>>> T1 == T2            # same coset of the diagonal subtorus
True
>>> T1.translate.values
(Fraction(0, 1), Fraction(1, 2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .qlinalg import (
    RationalSubspace,
    Vector,
    _echelon,
    clear_denominators,
    coset_rep,
    format_rational,
    hnf,  # noqa: F401  unused here; perfbench's tracer test rebinds tori.hnf
    json_rational_rows,
    json_rationals,
    lattice_coset_membership,
    lattice_coset_solve,
    rref,
    snf,
    vec,
    vec_sub,
)


def _mod1(x: Fraction) -> Fraction:
    n, d = x.numerator, x.denominator
    return x if 0 <= n < d else Fraction(n % d, d)


class TorsionCharacter:
    """A finite-order character of Z^n: a vector in Q^n mod Z^n.

    >>> chi = TorsionCharacter((Fraction(3, 2), Fraction(-1, 3)))
    >>> chi.values
    (Fraction(1, 2), Fraction(2, 3))
    >>> chi.order
    6
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        self.values = tuple(_mod1(x if type(x) is Fraction else Fraction(x))
                            for x in values)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def order(self) -> int:
        m = 1
        for x in self.values:
            m = m * x.denominator // math.gcd(m, x.denominator)
        return m

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.values)

    def __add__(self, other: "TorsionCharacter") -> "TorsionCharacter":
        return TorsionCharacter(a + b for a, b in zip(self.values, other.values))

    def __sub__(self, other: "TorsionCharacter") -> "TorsionCharacter":
        return TorsionCharacter(a - b for a, b in zip(self.values, other.values))

    def __eq__(self, other):
        return isinstance(other, TorsionCharacter) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "TorsionCharacter((" + ", ".join(str(v) for v in self.values) + "))"

    def to_json(self) -> list[str]:
        return [format_rational(v) for v in self.values]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "TorsionCharacter":
        return cls(json_rationals(data, "a torsion character"))


class TranslatedTorus:
    """A coset (torsion translate) of an algebraic subtorus, in canonical form."""

    __slots__ = ("translate", "direction")

    def __init__(self, translate, direction: RationalSubspace):
        if isinstance(translate, TorsionCharacter):
            lam = translate.values
        else:
            lam = vec(translate)
        if len(lam) != direction.ambient_dim:
            raise ValueError("translate length does not match ambient dimension")
        self.direction = direction
        self.translate = TorsionCharacter(coset_rep(lam, direction))

    @classmethod
    def from_data(cls, lam: Iterable, basis_rows: Iterable[Iterable],
                  ambient_dim: Optional[int] = None) -> "TranslatedTorus":
        lam = vec(lam)
        if ambient_dim is None:
            ambient_dim = len(lam)
        rows = [clear_denominators(r) for r in basis_rows]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("rows of unequal length")
        return cls(lam, RationalSubspace(ambient_dim, *_echelon(rows)))

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim

    def is_point(self) -> bool:
        return self.direction.dim == 0

    def through_identity(self) -> bool:
        """Does the coset contain the trivial character?

        The translate is the representative from
        :func:`jumploci.qlinalg.coset_rep`, which is 0 exactly when lambda
        lies in L + Z^n: the translate lies on the subtorus itself.
        """
        return self.translate.is_trivial()

    def contains_character(self, chi: TorsionCharacter) -> bool:
        diff = vec_sub(vec(chi.values), vec(self.translate.values))
        return lattice_coset_membership(diff, self.direction)

    def contains(self, other: "TranslatedTorus") -> bool:
        """Coset containment: directions nest and translates agree mod L'+Z^n."""
        if not self.direction.contains(other.direction):
            return False
        diff = vec_sub(vec(other.translate.values), vec(self.translate.values))
        return lattice_coset_membership(diff, self.direction)

    def sort_key(self):
        return (self.direction.dim, self.direction.basis, self.translate.values)

    def __eq__(self, other):
        return (isinstance(other, TranslatedTorus)
                and self.direction == other.direction
                and self.translate == other.translate)

    def __hash__(self):
        return hash((self.direction, self.translate))

    def __repr__(self):
        return f"TranslatedTorus({self.translate!r}, {self.direction!r})"

    def to_json(self) -> dict:
        return {
            "lambda": self.translate.to_json(),
            "basis": [[format_rational(x) for x in row]
                      for row in self.direction.basis],
        }

    @classmethod
    def from_json(cls, data: dict, ambient_dim: int) -> "TranslatedTorus":
        lam_field, basis_field = "a component's 'lambda'", "a component's 'basis'"
        lam = json_rationals(_json_list(
            _json_field(data, "lambda", "a component"), lam_field), lam_field)
        rows = json_rational_rows(
            _json_rows(data.get("basis", []), basis_field), basis_field)
        return cls.from_data(lam, rows, ambient_dim)


def _json_field(data, key: str, what: str):
    """data[key], or a ValueError naming the missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in data:
        raise ValueError(f"{what} is missing the key {key!r}")
    return data[key]


def _json_dim(value, what: str) -> int:
    """A dimension: a JSON integer (or decimal string) >= 0, else a ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, str))
            or int(value) < 0):
        raise ValueError(f"{what} must be a nonnegative integer")
    return int(value)


def _json_list(value, what: str) -> Sequence:
    """value if it is a JSON array, else a ValueError naming the field."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array")
    return value


def _json_rows(value, what: str) -> Sequence:
    """value if it is a JSON array of arrays (basis rows), else a ValueError."""
    if not all(isinstance(row, (list, tuple))
               for row in _json_list(value, what)):
        raise ValueError(f"{what} must be a JSON array of rows (arrays)")
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

    __slots__ = ("ambient_dim", "components", "degree")

    def __init__(self, n: int, components: Iterable[TranslatedTorus],
                 degree: Optional[int] = None):
        comps = list(components)
        for c in comps:
            if c.ambient_dim != n:
                raise ValueError("component ambient dimension mismatch")
        self.ambient_dim = int(n)
        self.components = tuple(_prune(comps))
        self.degree = degree

    def is_empty(self) -> bool:
        return not self.components

    def is_finite(self) -> bool:
        return all(c.is_point() for c in self.components)

    def union(self, other: "VarietyDescription") -> "VarietyDescription":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return VarietyDescription(self.ambient_dim,
                                  self.components + other.components)

    def __eq__(self, other):
        return (isinstance(other, VarietyDescription)
                and self.ambient_dim == other.ambient_dim
                and self.components == other.components)

    def __hash__(self):
        return hash((self.ambient_dim, self.components))

    def __repr__(self):
        return f"VarietyDescription(n={self.ambient_dim}, {list(self.components)})"

    def to_json(self) -> dict:
        out = {"n": self.ambient_dim,
               "components": [c.to_json() for c in self.components]}
        if self.degree is not None:
            out["degree"] = self.degree
        return out

    @classmethod
    def from_json(cls, data: dict) -> "VarietyDescription":
        n = _json_dim(_json_field(data, "n", "a variety description"),
                      "a variety description's 'n'")
        comps = [TranslatedTorus.from_json(c, n) for c in _json_list(
            data.get("components", []), "a variety description's 'components'")]
        return cls(n, comps, degree=data.get("degree"))

    @classmethod
    def identity_only(cls, n: int, degree: Optional[int] = None):
        return cls(n, [TranslatedTorus.from_data([0] * n, [], n)], degree=degree)

    @classmethod
    def full_torus(cls, n: int, degree: Optional[int] = None):
        return cls(n, [TranslatedTorus([0] * n, RationalSubspace.full(n))],
                   degree=degree)

    @classmethod
    def empty(cls, n: int, degree: Optional[int] = None):
        return cls(n, [], degree=degree)


def _prune(comps: list[TranslatedTorus]) -> list[TranslatedTorus]:
    kept: list[TranslatedTorus] = []
    for cand in sorted(comps, key=TranslatedTorus.sort_key, reverse=True):
        if any(other.contains(cand) for other in kept):
            continue
        kept.append(cand)
    kept.sort(key=TranslatedTorus.sort_key)
    return kept


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

    def to_json(self) -> dict:
        return {"n": self.ambient_dim,
                "degrees": {str(i): d.to_json()["components"]
                            for i, d in self.by_degree.items()}}

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
            by_degree[int(key)] = VarietyDescription.from_json(
                {"n": n, "components": comps, "degree": int(key)})
        return cls(n, by_degree)


# ---------------------------------------------------------------------------
# constructors: products, wedges, pushforwards, orbifold groups
# ---------------------------------------------------------------------------

def _direct_sum(a: TranslatedTorus, b: TranslatedTorus) -> TranslatedTorus:
    lam = a.translate.values + b.translate.values
    p, q = a.ambient_dim, b.ambient_dim
    rows = [row + tuple(Fraction(0) for _ in range(q)) for row in a.direction.basis]
    rows += [tuple(Fraction(0) for _ in range(p)) + row for row in b.direction.basis]
    return TranslatedTorus.from_data(lam, rows, p + q)


def product_description(a: GradedDescription, b: GradedDescription,
                        k: int) -> GradedDescription:
    """Graded description of a direct product: degree i is the union over
    p + q = i of componentwise direct sums."""
    n = a.ambient_dim + b.ambient_dim
    if a.max_degree < k or b.max_degree < k:
        raise ValueError("factors must be graded at least up to the target degree")
    out = {}
    for i in range(k + 1):
        comps = []
        for p in range(i + 1):
            for ca in a.at(p).components:
                for cb in b.at(i - p).components:
                    comps.append(_direct_sum(ca, cb))
        out[i] = VarietyDescription(n, comps, degree=i)
    return GradedDescription(n, out)


def wedge_description(a: GradedDescription, b: GradedDescription,
                      k: int) -> GradedDescription:
    """Graded description of a one-point union, valid when both pieces have
    positive first Betti number: degree 0 is the identity, every degree >= 1
    is the full character torus."""
    if a.ambient_dim == 0 or b.ambient_dim == 0:
        raise ValueError("wedge description requires positive first Betti "
                         "numbers on both sides")
    n = a.ambient_dim + b.ambient_dim
    out = {0: VarietyDescription.identity_only(n, degree=0)}
    for i in range(1, k + 1):
        out[i] = VarietyDescription.full_torus(n, degree=i)
    return GradedDescription(n, out)


def pushforward(desc: VarietyDescription, surjection: Sequence[Sequence[int]],
                torsion_images: Optional[Sequence[TorsionCharacter]] = None
                ) -> VarietyDescription:
    """Transport a description along a quotient map.

    ``surjection`` is the m x n integer matrix of the induced map on free
    abelianizations (rows map the n source generators' images; it must have
    rank m).  The dual map on characters sends a component (lambda, L) over
    Q^m to (lambda . S + mu, span(L . S)) over Q^n, one copy per supplied
    torsion image mu (default: just the trivial one).
    """
    s = [tuple(int(x) for x in row) for row in surjection]
    m = len(s)
    if m != desc.ambient_dim:
        raise ValueError("surjection row count must match the description's rank")
    n = len(s[0]) if s else 0
    smith, _, _ = snf(s)
    diag = [smith[i][i] for i in range(min(m, n))]
    if len([d for d in diag if d != 0]) < m or any(d not in (0, 1) for d in diag):
        raise ValueError("matrix does not define an epimorphism of free "
                         "abelianizations")
    if torsion_images is None:
        torsion_images = [TorsionCharacter([0] * n)]
    for mu in torsion_images:
        if mu.n != n:
            raise ValueError("torsion image has wrong length")

    def push_vec(v: Sequence[Fraction]) -> Vector:
        return tuple(sum((Fraction(v[j]) * s[j][i] for j in range(m)), Fraction(0))
                     for i in range(n))

    comps = []
    for comp in desc.components:
        lam = push_vec(comp.translate.values)
        rows = [push_vec(row) for row in comp.direction.basis]
        for mu in torsion_images:
            shifted = tuple(a + b for a, b in zip(lam, mu.values))
            comps.append(TranslatedTorus.from_data(shifted, rows, n))
    return VarietyDescription(n, comps, degree=desc.degree)


@dataclass(frozen=True)
class OrbifoldDatum:
    """Abstract first-variety datum for an orientable 2-orbifold group.

    ``case`` is one of ``"full"`` (the whole character group), ``"off_identity"``
    (all components away from the identity component, together with the
    trivial character) and ``"trivial"`` (just the trivial character).
    Materialization into coordinates happens through :func:`pushforward`
    with user-supplied torsion images; see :func:`orbifold_components`.
    """

    kind: str                      # "compact" | "punctured"
    genus: int
    punctures: int
    cone_orders: tuple[int, ...]
    free_rank: int
    torsion_invariants: tuple[int, ...]
    case: str

    @property
    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion_invariants:
            out *= d
        return out


def orbifold_v1(kind: str, genus: int, punctures: int,
                cone_orders: Sequence[int]) -> OrbifoldDatum:
    """Shape of the degree-1 jump locus of an orientable 2-orbifold group.

    Compact case (no punctures): the group abelianization is Z^{2g} x A with
    A = Z^t / (m_i e_i, (1,...,1)); genus >= 2 gives the full character
    group, genus 1 with at least two cone points gives all off-identity
    components plus the trivial character, genus 1 with at most one cone
    point gives only the trivial character.

    Punctured case: free rank n = 2g + s - 1, torsion A = sum of Z_{m_i};
    n >= 2 gives the full character group, n = 1 behaves like the torus case
    (off-identity components iff there is torsion), n = 0 is rejected.
    """
    orders = tuple(int(m) for m in cone_orders)
    if any(m < 2 for m in orders):
        raise ValueError("cone orders must be at least 2")
    genus = int(genus)
    punctures = int(punctures)
    t = len(orders)
    if kind == "compact":
        if punctures != 0:
            raise ValueError("compact orbifolds have no punctures")
        if genus < 1:
            raise ValueError("compact case requires genus >= 1 "
                             "(positive first Betti number)")
        n = 2 * genus
        rel_rows = [[orders[i] if j == i else 0 for j in range(t)] for i in range(t)]
        if t:
            rel_rows.append([1] * t)
            smith, _, _ = snf(rel_rows)
            invariants = tuple(smith[i][i] for i in range(min(len(rel_rows), t))
                               if smith[i][i] > 1)
        else:
            invariants = ()
        if genus >= 2:
            case = "full"
        elif t > 1:
            case = "off_identity"
        else:
            case = "trivial"
        return OrbifoldDatum("compact", genus, 0, orders, n, invariants, case)
    if kind == "punctured":
        if punctures < 1:
            raise ValueError("punctured case requires at least one puncture")
        n = 2 * genus + punctures - 1
        if n == 0:
            raise ValueError("orbifold group has first Betti number zero")
        if t:
            smith, _, _ = snf([[orders[i] if j == i else 0 for j in range(t)]
                               for i in range(t)])
            invariants = tuple(smith[i][i] for i in range(t) if smith[i][i] > 1)
        else:
            invariants = ()
        if n >= 2:
            case = "full"
        elif t > 0:
            case = "off_identity"
        else:
            case = "trivial"
        return OrbifoldDatum("punctured", genus, punctures, orders, n, invariants,
                             case)
    raise ValueError("kind must be 'compact' or 'punctured'")


def orbifold_components(datum: OrbifoldDatum,
                        surjection: Sequence[Sequence[int]],
                        torsion_images: Sequence[TorsionCharacter]
                        ) -> VarietyDescription:
    """Materialize an orbifold datum inside a larger character torus.

    ``surjection`` maps the ambient free abelianization onto the orbifold
    group's (an m x n matrix with m = datum.free_rank); ``torsion_images``
    lists the images of the *nontrivial* torsion characters of the orbifold
    group inside the target torus.  Off-identity components become full
    translates of the image subtorus.
    """
    n = len(surjection[0]) if surjection else 0
    m = datum.free_rank
    identity_part = pushforward(
        VarietyDescription.identity_only(m), surjection)
    if datum.case == "trivial":
        return identity_part
    full_m = VarietyDescription.full_torus(m)
    if datum.case == "full":
        images = [TorsionCharacter([0] * n)] + list(torsion_images)
        return pushforward(full_m, surjection, images)
    if datum.case == "off_identity":
        off = pushforward(full_m, surjection, list(torsion_images)) \
            if torsion_images else VarietyDescription.empty(n)
        return identity_part.union(off)
    raise ValueError(f"unknown case tag {datum.case!r}")


# ---------------------------------------------------------------------------
# intersections of translated tori
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslatedIntersection:
    """Nonempty intersection data: its dimension and a common torsion point."""

    dim: int
    witness: TorsionCharacter


def intersect_translated(c1: TranslatedTorus, c2: TranslatedTorus
                         ) -> Optional[TranslatedIntersection]:
    """Intersection of two translated tori: None if empty, else dimension
    plus a common torsion character.

    The intersection is nonempty iff lambda1 - lambda2 lies in
    (L1 + L2) + Z^n; when it is, splitting the residual over the two
    directions produces an explicit common point, and the dimension equals
    dim(L1 meet L2).  The witness is not re-checked here: the tests check
    that it lies on both tori.
    """
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = c1.ambient_dim
    l1, l2 = c1.direction, c2.direction
    lam1 = vec(c1.translate.values)
    lam2 = vec(c2.translate.values)
    total = l1.sum(l2)
    diff = vec_sub(lam1, lam2)
    m = lattice_coset_solve(diff, total)
    if m is None:
        return None
    y = vec_sub(diff, vec(m))                   # y in L1 + L2
    # split y = -x1 + x2 with x1 in L1, x2 in L2: solve the augmented system
    # [-L1^T | L2^T | y]; the coefficients of x1 sit in the last column
    k1 = l1.dim
    reduced, pivots = rref([[-row[i] for row in l1.basis]
                            + [row[i] for row in l2.basis] + [y[i]]
                            for i in range(n)])
    x1 = tuple(sum((r[-1] * l1.basis[pc][i] for r, pc in zip(reduced, pivots)
                    if pc < k1), Fraction(0))
               for i in range(n))
    witness = TorsionCharacter(a + b for a, b in zip(lam1, x1))
    return TranslatedIntersection(l1.intersect(l2).dim, witness)


def sigma_rho_membership(plane: RationalSubspace, direction: RationalSubspace,
                         translate) -> bool:
    """Incidence test for a translated torus: does exp(P tensor C) meet the
    coset in infinitely many points?

    True iff P meets L nontrivially and the translate lies on
    exp((P + L) tensor C), a lattice-coset membership.  The sum S = P + L is
    built once and serves both: by the Grassmann formula
    dim(P meet L) = dim P + dim L - dim S, so P meets L exactly when
    dim S < dim P + dim L.  That count is read first; the coset test runs
    only when it passes, and needs no HNF for an integral translate.
    Implies the untranslated test :func:`jumploci.qlinalg.sigma_membership`.
    """
    if isinstance(translate, TorsionCharacter):
        lam = translate.values
    else:
        lam = vec(translate)
    if len(lam) != plane.ambient_dim:
        raise ValueError("character length does not match ambient dimension")
    total = plane.sum(direction)
    return (total.dim < plane.dim + direction.dim
            and lattice_coset_membership(lam, total))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
