"""Membership, bounds, closed forms, and witnesses for finite-Betti cover sets.

An r-plane P in Q^n determines a free-abelian cover; the cover has finite
Betti numbers (in the degrees described by the variety data) exactly when
exp(P (x) C) meets the degree-i jump locus W in finitely many points.  For
descriptions whose components are torsion-translated subtori rho exp(L (x) C)
this is decidable exactly:

* a positive-dimensional component blocks P iff lambda lies in P + L + Z^n
  and P meets L nontrivially (the translated incidence condition);
* point components never block.

On top of the membership test sit the classical closed forms (lines, the
single-codimension-one case), a constructive non-openness witness family
P_q -> P, and a homological finiteness reporter.  The excluded set for
lines is the tangent-cone arrangement itself: a line survives exactly when
no subspace of the arrangement contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .qlinalg import (RationalSubspace, _echelon, _minor_table,
                      _plucker_budget, format_rational, format_rref)
from .tcone import SubspaceArrangement
from .tori import (TranslatedTorus, VarietyDescription, GradedDescription,
                   sigma_rho_membership)

@dataclass(frozen=True)
class OmegaVerdict:
    """Membership verdict with the components that block, for explainability.

    ``reason`` is "dim_ge_1" when the blocking component is an honest
    subtorus (translate on the subtorus — the intersection with exp(P (x) C)
    is positive-dimensional through 1) and "sigma_rho" when the finite-order
    translate is essential.
    """
    blockers: tuple[tuple[TranslatedTorus, str], ...]

    @property
    def member(self) -> bool:
        """P is a member iff no component blocks it."""
        return not self.blockers

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "blockers": [{"component": comp.to_json(), "reason": reason}
                         for comp, reason in self.blockers],
        }


def omega_membership(W: VarietyDescription, plane: RationalSubspace
                     ) -> OmegaVerdict:
    """Does the Z^r-cover determined by P have finite Betti numbers w.r.t. W?

    P is a member iff no positive-dimensional component (lambda, L)
    satisfies the translated incidence condition: lambda in P + L + Z^n and
    P meet L != {0} (:func:`jumploci.tori.sigma_rho_membership`, one call
    per component).  A blocker's reason is "dim_ge_1" when its translate
    lies on the subtorus, which the canonical translate shows as
    ``through_identity()``, and "sigma_rho" otherwise.  The zero plane,
    which determines no cover, is refused.
    """
    if plane.is_zero():
        raise ValueError("a plane query needs 1 <= dim <= ambient_dim")
    if plane.ambient_dim != W.ambient_dim:
        raise ValueError("plane and description live in different tori")
    blockers = tuple(
        (comp, "dim_ge_1" if comp.through_identity() else "sigma_rho")
        for comp in W.components
        if comp.direction.dim >= 1
        and sigma_rho_membership(plane, comp.direction, comp.translate))
    return OmegaVerdict(blockers)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def omega1_r1_description(C: SubspaceArrangement) -> list[RationalSubspace]:
    """The excluded projective subspaces for lines: P(L) for L in C.

    A line P survives iff P is contained in none of the returned subspaces;
    the same test decides whether a degree-one cohomology class yields
    finite Betti numbers.
    """
    return [s for s in C.subspaces if s.dim >= 1]


@dataclass(frozen=True)
class ClosedFormVerdict:
    """One of: the whole Grassmannian, Grass_r of a fixed subspace, empty."""
    kind: str                                  # "all" | "grassmannian" | "empty"
    r: int
    subspace: Optional[RationalSubspace] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "r": self.r}
        if self.subspace is not None:
            out["subspace"] = format_rref(self.subspace)
        return out


def omega_codim1_closed_form(W: VarietyDescription, r: int) -> ClosedFormVerdict:
    """Closed form when W = finite set + translates of one codim-1 subtorus.

    The answer is the whole plane Grassmannian for r = 1, Grass_r(L) for
    1 < r < n, and empty for r >= n.  Preconditions: every
    positive-dimensional component shares one codimension-one direction L,
    and every translate lies off the subtorus.
    """
    n = W.ambient_dim
    if r < 1:
        raise ValueError("r must be >= 1")
    directions = {c.direction for c in W.components if c.direction.dim >= 1}
    if len(directions) != 1:
        raise ValueError("expected exactly one positive-dimensional direction")
    (L,) = directions
    if L.dim != n - 1:
        raise ValueError("the translated subtorus must have codimension one")
    for c in W.components:
        if c.direction.dim >= 1 and c.through_identity():
            raise ValueError("a translate lies on the subtorus; "
                             "the closed form requires proper translates")
    if r == 1:
        return ClosedFormVerdict("all", r)
    if r < n:
        return ClosedFormVerdict("grassmannian", r, L)
    return ClosedFormVerdict("empty", r)


# ---------------------------------------------------------------------------
# non-openness witness
# ---------------------------------------------------------------------------

#: The most q values one witness takes; more is refused before any plane is
#: built.  A step costs one membership test of P_q and one pass over the
#: Pluecker coordinates.  At the ``PLUCKER_BUDGET`` edge, 16 steps on a
#: random 7-plane in Q^17 (19448 coordinates) take 0.4 s in all, and on a
#: 2-plane of a random translated 6-plane in Q^200 (19900) 2.9-3.7 s, the
#: membership tests most of it (Python 3.11.7, 2 vCPUs).
MAX_WITNESS_STEPS = 16


@dataclass(frozen=True)
class WitnessStep:
    q: int
    plane: RationalSubspace
    plucker_distance: Fraction
    verdict: OmegaVerdict


@dataclass(frozen=True)
class WitnessReport:
    """A member plane P and blocked planes P_q converging to it.

    Certifies non-openness of the membership set in the Grassmannian: the
    P_q differ from P only in the last basis vector, perturbed by
    (translate of the chosen component)/q, so they converge to P while every
    P_q stays blocked.  Each step reports the max-norm distance of the
    Plücker coordinate vectors of P_q and P, each scaled to a leading 1: the
    coordinate on columns S is minor(S) / minor(pivots) for the maximal
    minors of any basis.  That number need not shrink with q: when the
    first nonzero coordinate of P_q vanishes on P, the scaling blows up.
    For W = {1} together with the order-2 translate of {t1 = 1} in (C*)^3,
    whose member 2-plane is {x1 = 0}, it reads 3, 5, 7, 9, 21 at
    q = 1, 2, 3, 4, 10.
    """
    component_index: int
    plane: RationalSubspace
    verdict: OmegaVerdict
    family: tuple[WitnessStep, ...]

    def to_json(self) -> dict:
        return {
            "component_index": self.component_index,
            "P": format_rref(self.plane),
            "member": self.verdict.member,
            "family": [{
                "q": step.q,
                "plane": format_rref(step.plane),
                "plucker_distance": format_rational(step.plucker_distance),
                "member": step.verdict.member,
            } for step in self.family],
        }


def nonopen_witness(W: VarietyDescription, beta: int, r: int,
                    q_list: Sequence[int]) -> WitnessReport:
    """Perturbation family showing the membership set is not open.

    ``beta`` indexes a component (lambda, L) of W.  Mechanical hypothesis
    checks, reported by number on failure:

    (1) the chosen component is an essential translate: dim L >= 1 and
        lambda not in L + Z^n, with lambda of finite order (always, here);
    (2) every component parallel to L is likewise translated off L;
    (3) every non-parallel positive-dimensional component meets L only in 0.

    With 2 <= r <= dim L, the plane P spanned by the first r rows of L's
    RREF is a member, while each P_q (last row perturbed by lambda/q) is
    blocked; P_q -> P in the Plücker embedding.  More than
    ``MAX_WITNESS_STEPS`` q values, or more than ``PLUCKER_BUDGET``
    Plücker coordinates, is refused before any plane is built.

    Everything runs on L's stored integer rows and the canonical translate
    lambda = nums / order.  For the last row ``row`` of P, with pivot entry
    a, P_q is spanned by the rows above it and q order row + a nums.  A
    maximal minor is linear in its last row, so on the minor table of the
    rows above, extended once by ``row`` and once by ``nums``, every minor of
    that basis of P_q is q order m_P + a m_lam: no minor is computed per q.
    """
    if len(q_list) > MAX_WITNESS_STEPS:
        raise ValueError(f"{len(q_list)} q values are more than "
                         f"MAX_WITNESS_STEPS = {MAX_WITNESS_STEPS}")
    if not 0 <= beta < len(W.components):
        raise ValueError("component index out of range")
    comp = W.components[beta]
    L = comp.direction
    if L.dim < 2 or not 2 <= r <= L.dim:
        raise ValueError("need 2 <= r <= dim of the chosen component")
    if comp.through_identity():
        raise ValueError(
            "hypothesis (1) fails: the chosen component is not translated "
            "off its subtorus")
    for i, other in enumerate(W.components):
        if other.direction.dim == 0:
            continue
        if other.direction == L:
            if other.through_identity():
                raise ValueError(
                    f"hypothesis (2) fails: parallel component {i} meets "
                    "its subtorus")
        elif other.direction.intersect(L).dim != 0:
            raise ValueError(
                f"hypothesis (3) fails: component {i} meets the chosen "
                "direction nontrivially")
    n = L.ambient_dim
    _plucker_budget(n, r)
    if any(q <= 0 for q in q_list):
        raise ValueError("q values must be positive")

    head, head_pivots = L.rows[:r - 1], L.pivots[:r - 1]
    row, nums, order = L.rows[r - 1], comp.translate.nums, comp.translate.order
    a = row[L.pivots[r - 1]]
    plane = RationalSubspace(n, L.rows[:r], L.pivots[:r])
    verdict = omega_membership(W, plane)
    shared = _minor_table(head, n)
    m_p = _minor_table([row], n, shared)
    m_lam = _minor_table([nums], n, shared)
    s_p = m_p[plane.pivots]
    pairs = [(m_p.get(cols, 0), m_lam.get(cols, 0))
             for cols in m_p.keys() | m_lam.keys()]
    steps = []
    for q in q_list:
        c = q * order
        plane_q = RationalSubspace(n, *_echelon(
            [[c * x + a * y for x, y in zip(row, nums)]], head, head_pivots))
        pivots_q = plane_q.pivots
        s_q = c * m_p.get(pivots_q, 0) + a * m_lam.get(pivots_q, 0)
        top = max(abs((c * x + a * y) * s_p - x * s_q) for x, y in pairs)
        steps.append(WitnessStep(
            q=q, plane=plane_q, plucker_distance=Fraction(top, abs(s_q * s_p)),
            verdict=omega_membership(W, plane_q)))
    return WitnessReport(component_index=beta, plane=plane, verdict=verdict,
                         family=tuple(steps))


# ---------------------------------------------------------------------------
# homological finiteness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpkReport:
    """Outcome of the homological-finiteness criterion in degree k."""
    k: int
    r: int
    certified_empty: bool
    reason: str
    deduction: Optional[str] = None

    def to_json(self) -> dict:
        out = {"k": self.k, "r": self.r,
               "certified_empty": self.certified_empty, "reason": self.reason}
        if self.deduction is not None:
            out["deduction"] = self.deduction
        return out


def fpk_report(W: GradedDescription, k: int, r: int) -> FpkReport:
    """Deduce infinite generation of H_k of Z^r-cover kernels when possible.

    Certification is sufficient-condition-based: a component through the
    identity whose direction has codimension <= r - 1 (the full torus in
    particular) makes every r-plane blocked, so the degree-k membership set
    is empty.  No claim is made when the certificate is absent.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    desc = W.at(k)
    n = desc.ambient_dim
    for i, comp in enumerate(desc.components):
        codim = n - comp.direction.dim
        if codim <= r - 1 and comp.through_identity():
            reason = (f"component {i} passes through the identity with "
                      f"direction of codimension {codim} <= r-1 = {r - 1}; "
                      "every r-plane meets it nontrivially")
            deduction = (
                f"the degree-{k} membership set of r-planes is empty: for "
                f"every surjection onto Z^{r} whose kernel K has the "
                f"degree-(k-1) finiteness property, H_{k}(K) is not "
                "finitely generated")
            return FpkReport(k=k, r=r, certified_empty=True, reason=reason,
                             deduction=deduction)
    return FpkReport(k=k, r=r, certified_empty=False,
                     reason="emptiness not certified by this tool")
