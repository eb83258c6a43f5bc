"""Randomized cross-validation suites, shared by property and acceptance tests.

Each ``suite_*`` function runs a seeded batch of exact checks against an
independent oracle (or an internal consistency law) and returns the number
of cases it verified.  All assertions are exact — no tolerances.  The
helpers at the top are second constructions that the library has no use
for itself: rational vectors as integers over one denominator and as
torsion characters, coset reduction and membership with ``Fraction``
values, the readers of torsion characters, arrangements and Laurent polynomials from their JSON
form, intersections of translated tori, the tangent-cone bound on planes,
and the d1 entries of a presentation.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import oracles
from builders import constant, monomial, torus
from jumploci.fox import (Abelianization, FreeWord, Presentation,
                          alexander_matrix)
from jumploci.laurent import LaurentPoly
from jumploci.omega import omega_codim1_closed_form, omega_membership
from jumploci.qlinalg import (RationalSubspace, coset_rep_ints,
                              coset_reduce_ints, plucker, rref)
from jumploci.tcone import SubspaceArrangement
from jumploci.tori import TorsionCharacter, TranslatedTorus, VarietyDescription, \
    sigma_rho_membership

F = Fraction


# ---------------------------------------------------------------------------
# second constructions the suites and tests compare the library against
# ---------------------------------------------------------------------------

def over_one_denominator(lam):
    """A rational vector as ``(nums, den)``: integer numerators over the
    lcm of its denominators."""
    lam = [F(x) for x in lam]
    d = math.lcm(*(x.denominator for x in lam))
    return [a.numerator * (d // a.denominator) for a in lam], d


def contains_vector(space: RationalSubspace, v) -> bool:
    """Whether the rational vector v lies in the subspace."""
    return space.contains(RationalSubspace.from_rows([v], space.ambient_dim))


def arrangement_contains_vector(arr: SubspaceArrangement, v) -> bool:
    """Whether some subspace of the arrangement holds the vector v."""
    return any(contains_vector(s, v) for s in arr.subspaces)


def closed_form_contains(verdict, plane: RationalSubspace) -> bool:
    """Whether a closed form (``omega_codim1_closed_form``) holds the plane:
    every r-plane, those inside its subspace, or none."""
    if plane.dim != verdict.r:
        raise ValueError("plane dimension does not match the closed form")
    if verdict.kind == "all":
        return True
    if verdict.kind == "empty":
        return False
    return verdict.subspace.contains(plane)


def character(lam) -> TorsionCharacter:
    """The torsion character of a rational vector."""
    return TorsionCharacter(*over_one_denominator(lam))


def coset_reduce(lam, space):
    """``(rep, m)`` of :func:`jumploci.qlinalg.coset_reduce_ints` for a
    rational lam, rep as ``Fraction`` values and m as a tuple."""
    x, den, m = coset_reduce_ints(*over_one_denominator(lam), space)
    return tuple(Fraction(a, den) for a in x), tuple(m)


def in_lattice_coset(lam, space) -> bool:
    """Is the rational lam in V + Z^n?  Exactly when its representative
    from :func:`jumploci.qlinalg.coset_rep_ints` is 0."""
    return not any(coset_rep_ints(*over_one_denominator(lam), space)[0])


def torsion_character_from_json(data) -> TorsionCharacter:
    """A torsion character from its ``to_json`` list."""
    return character(oracles.json_rationals(data, "a torsion character"))


def arrangement_from_json(data) -> SubspaceArrangement:
    """A subspace arrangement from its ``to_json`` object."""
    n = int(data["ambient_dim"])
    subs = [RationalSubspace.from_rows(oracles.json_rational_rows(
                rows, f"an arrangement's 'subspaces' item {k}"), n)
            for k, rows in enumerate(data.get("subspaces", []))]
    arr = SubspaceArrangement(n, subs)
    if data.get("empty", arr.empty) != arr.empty:
        raise ValueError("empty flag inconsistent with subspace list")
    return arr


def laurent_poly_from_json(data) -> LaurentPoly:
    """A Laurent polynomial from its ``to_json`` object."""
    terms = {}
    for k, t in enumerate(data.get("terms", [])):
        e = tuple(int(x) for x in t["exponents"])
        c = oracles.json_rational(t["coeff"], f"a polynomial's term {k} 'coeff'")
        terms[e] = terms.get(e, Fraction(0)) + c
    return LaurentPoly(int(data["num_vars"]), terms)


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
    lam1 = c1.translate.values
    lam2 = c2.translate.values
    diff = [a - b for a, b in zip(lam1, lam2)]
    rep, m = coset_reduce(diff, l1.sum(l2))
    if any(rep):
        return None
    y = [a - b for a, b in zip(diff, m)]        # y in L1 + L2
    # split y = -x1 + x2 with x1 in L1, x2 in L2: solve the augmented system
    # [-L1^T | L2^T | y]; the coefficients of x1 sit in the last column
    k1 = l1.dim
    reduced, pivots = rref([[-row[i] for row in l1.basis]
                            + [row[i] for row in l2.basis] + [y[i]]
                            for i in range(n)])
    x1 = tuple(sum((r[-1] * l1.basis[pc][i] for r, pc in zip(reduced, pivots)
                    if pc < k1), Fraction(0))
               for i in range(n))
    witness = character([a + b for a, b in zip(lam1, x1)])
    return TranslatedIntersection(l1.intersect(l2).dim, witness)


def schubert_upper_bound(C: SubspaceArrangement, P: RationalSubspace) -> bool:
    """True iff P survives the tangent-cone bound: P meets no L in C.

    Membership implies survival; the converse can fail for translated
    components, so this is only an upper bound for the membership set.
    """
    if not C.empty and C.ambient_dim != P.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(P.intersect(L).is_zero() for L in C.subspaces)


def generator_character_poly(ab: Abelianization, j: int) -> LaurentPoly:
    """t^{alpha(x_j)} - 1, the boundary-d1 entry for generator j."""
    n = ab.free_rank
    return monomial(ab.projection[j], 1, n) - constant(n, 1)


def _random_subspace(rng, n, max_rows=None, entry=2):
    rows = [[rng.randint(-entry, entry) for _ in range(n)]
            for _ in range(rng.randint(0, n if max_rows is None else max_rows))]
    return rows, RationalSubspace.from_rows([[F(x) for x in r] for r in rows], n)


def suite_partition_oracle(cases=210, seed=101):
    """The tangent cone of one polynomial, the maximal subspaces L(p) over
    admissible partitions, matches the brute-force partition oracle."""
    from jumploci.tcone import tangent_cone_polys
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(1, 7)):
            expo = tuple(rng.randint(-2, 2) for _ in range(n))
            terms[expo] = terms.get(expo, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
        terms = {e: F(c) for e, c in terms.items() if c != 0}
        if not terms:
            continue
        if rng.random() < 0.5:
            # steer half the sample onto the identity (nonempty cones)
            total = sum(terms.values())
            anchor = next(iter(terms))
            terms[anchor] -= total
            terms = {e: c for e, c in terms.items() if c != 0}
            if not terms:
                continue
        f = LaurentPoly(n, terms)
        ours = set(tangent_cone_polys([f]).subspaces)
        theirs = {
            RationalSubspace.from_rows([[F(x) for x in row] for row in rows], n)
            for rows in oracles.oracle_tangent_cone(dict(f.terms), n)
        }
        assert ours == theirs
        done += 1
    return done


def suite_lattice_oracle(cases=220, seed=102):
    """Coset membership, its witness and the canonical representative agree
    with the determinantal oracle."""
    rng = random.Random(seed)
    done = 0
    hits = 0
    while done < cases:
        n = rng.randint(1, 4)
        rows, space = _random_subspace(rng, n)
        lam = [F(rng.randint(-14, 14), rng.randint(1, 12)) for _ in range(n)]
        ours = in_lattice_coset(lam, space)
        theirs = oracles.oracle_lattice_membership(lam, rows, n)
        assert ours == theirs
        rep, m = coset_reduce(lam, space)
        if not any(rep):
            hits += 1
            assert contains_vector(space, [a - b for a, b in zip(lam, m)])
        assert all(0 <= x < 1 for x in rep)
        assert all(type(x) is int for x in m)
        assert contains_vector(space, [a - b - c for a, b, c in zip(lam, m, rep)])
        assert (not any(rep)) == theirs
        # rep depends only on the coset: shift by Z^n and by an element of V
        shift = [rng.randint(-5, 5) for _ in range(n)]
        for row in space.basis:
            c = F(rng.randint(-9, 9), rng.randint(1, 5))
            shift = [a + c * b for a, b in zip(shift, row)]
        assert coset_reduce([a + b for a, b in zip(lam, shift)], space)[0] == rep
        done += 1
    assert hits > cases // 20  # the sample exercises both outcomes
    return done


def suite_fox_product_rule(cases=200, seed=103):
    """d(uv) = du + t^alpha(u) dv for the abelianized left derivative."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        q = rng.randint(1, 3)
        n = rng.randint(1, 3)
        proj = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(q))
        ab = Abelianization(free_rank=n, projection=proj, torsion_invariants=())

        def rand_word():
            syllables = [(rng.randrange(q), rng.choice([-2, -1, 1, 2]))
                         for _ in range(rng.randint(0, 4))]
            return FreeWord(tuple(syllables))

        u, v = rand_word(), rand_word()
        uv = u * v
        exps = u.exponent_vector(q)
        alpha_u = tuple(sum(exps[g] * proj[g][k] for g in range(q))
                        for k in range(n))
        shift = monomial(alpha_u, 1, n)
        names = tuple(f"g{i + 1}" for i in range(q))
        d_uv, d_u, d_v = alexander_matrix(
            Presentation(names, (uv, u, v)), ab).entries
        for j in range(q):
            assert d_uv[j] == d_u[j] + shift * d_v[j]
        done += 1
    return done


def suite_fox_row_identity(cases=200, seed=105):
    """Every matrix row satisfies sum_j entry * (t^alpha(x_j) - 1) = 0."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        q = rng.randint(1, 4)
        names = tuple(f"g{i+1}" for i in range(q))
        relators = []
        for _ in range(rng.randint(1, 4)):
            syllables = [(rng.randrange(q), rng.choice([-2, -1, 1, 2]))
                         for _ in range(rng.randint(1, 6))]
            relators.append(FreeWord(tuple(syllables)))
        pres = Presentation(names, tuple(relators))
        matrix = alexander_matrix(pres)
        assert oracles.fundamental_identity_holds(matrix)
        ab = matrix.abelianization
        n = ab.free_rank
        gen_polys = [generator_character_poly(ab, j) for j in range(q)]
        for row in matrix.entries:
            total = LaurentPoly(n, {})
            for entry, gp in zip(row, gen_polys):
                total = total + entry * gp
            assert total.is_zero()
            done += 1
    return done


def suite_plucker_relations(cases=200, seed=106):
    """Plücker coordinates of actual planes satisfy all exchange relations."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        r = rng.randint(2, 3)
        n = rng.randint(r + 1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        space = RationalSubspace.from_rows([[F(x) for x in row] for row in rows], n)
        if space.dim != r:
            continue
        coords = plucker(space).coords
        residuals = oracles.plucker_relation_residuals(list(coords), r, n)
        assert residuals and all(v == 0 for v in residuals)
        done += 1
    return done


def suite_sigma_containment(cases=210, seed=107):
    """Translated incidence implies untranslated incidence; equality at 1."""
    rng = random.Random(seed)
    done = 0
    translated_hits = 0
    while done < cases:
        n = rng.randint(3, 5)
        _, P = _random_subspace(rng, n, max_rows=3)
        if P.is_zero():
            continue
        _, L = _random_subspace(rng, n, max_rows=3)
        if rng.random() < 0.3:
            rho = TorsionCharacter([0] * n, 1)
        else:
            rho = character(
                [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)])
        rho_hit = sigma_rho_membership(P, L, rho)
        plain_hit = not P.intersect(L).is_zero()
        if rho_hit:
            assert plain_hit
            translated_hits += 1
        if in_lattice_coset(rho.values, L):
            assert rho_hit == plain_hit
        done += 1
    assert translated_hits > cases // 20
    return done


def suite_closed_form_agreement(cases=200, seed=108):
    """Codimension-one closed form equals the direct membership test."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
        L = RationalSubspace.from_rows([[F(x) for x in r] for r in rows], n)
        if L.dim != n - 1:
            continue
        comps = []
        for _ in range(rng.randint(1, 2)):
            for _attempt in range(30):
                lam = [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)]
                if not in_lattice_coset(lam, L):
                    comps.append(torus(lam, L.basis, n))
                    break
        if not comps:
            continue
        if rng.random() < 0.5:
            comps.append(torus([0] * n, [], n))
        desc = VarietyDescription(n, comps)
        r = rng.randint(1, n)
        closed = omega_codim1_closed_form(desc, r)
        plane = None
        for _attempt in range(30):
            cand_rows = [[F(rng.randint(-2, 2)) for _ in range(n)]
                         for _ in range(r)]
            cand = RationalSubspace.from_rows(cand_rows, n)
            if cand.dim == r:
                plane = cand
                break
        if plane is None:
            continue
        assert (closed_form_contains(closed, plane)
                == omega_membership(desc, plane).member)
        done += 1
    return done


ALL_SUITES = (
    suite_partition_oracle,
    suite_lattice_oracle,
    suite_fox_product_rule,
    suite_fox_row_identity,
    suite_plucker_relations,
    suite_sigma_containment,
    suite_closed_form_agreement,
)
