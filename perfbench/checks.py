"""Answer checks that do not rely on the library.

Everything here is the benchmark's own exact arithmetic over ``Fraction``:
Gauss-Jordan elimination, a presentation parser with letter-by-letter Fox
derivatives, a tangent-cone reference built from minimal zero-sum parts,
and Pluecker coordinates.  :func:`check` compares one CLI answer with the
answer these give and returns a reason string when they differ.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

F = Fraction


class CheckError(Exception):
    """A planted certificate that does not verify: a benchmark defect."""


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------

def rref(rows) -> tuple:
    """Nonzero rows of the reduced row echelon form."""
    work = [[F(x) for x in row] for row in rows]
    if not work:
        return ()
    rank = 0
    for col in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        lead = work[rank][col]
        work[rank] = [x / lead for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return tuple(tuple(row) for row in work[:rank])


def rank(rows) -> int:
    return len(rref(rows))


def meets(a, b) -> bool:
    """Do span(a) and span(b) share a nonzero vector?"""
    a, b = list(a), list(b)
    return bool(a and b) and rank(a) + rank(b) > rank(a + b)


def in_span(rows, v) -> bool:
    return rank(list(rows) + [v]) == rank(rows)


def nullspace(rows, n: int) -> tuple:
    """RREF basis of {x : rows . x = 0}."""
    reduced = rref(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[free] = F(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
    return rref(basis)


def intersect(a, b, n: int) -> tuple:
    return nullspace(list(nullspace(a, n)) + list(nullspace(b, n)), n)


def contains(big, small) -> bool:
    return rank(list(big) + list(small)) == rank(big)


def maximal(spaces) -> set:
    """The subspaces not strictly inside another one of the set."""
    spaces = set(spaces)
    return {s for s in spaces
            if not any(t != s and contains(t, s) for t in spaces)}


def fmt(x) -> str:
    """A rational as the library prints it: "p/q", or "p" when integral."""
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def primitive(row) -> list:
    """The integer direction of a rational row, as the library prints it."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return [x // g for x in ints] if g > 1 else ints


def rows_text(rows) -> list:
    return [[fmt(x) for x in row] for row in rows]


def _as_key(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# membership: the verdict a plane's certificates prove
# ---------------------------------------------------------------------------

def expected_blockers(desc, rows, certs) -> list:
    """Sorted (direction rows, reason) of the components that block the plane.

    Untranslated components (integral translate) block exactly when they
    meet the plane, a rank count.  Each translated component needs a
    certificate: "disjoint" (no meet), "hyperplane" (plane and direction lie
    in a coordinate hyperplane where the translate is not integral), or
    "meet" with v in P and L, v != 0, and an integer m with lambda + m in
    P + L, which blocks.
    """
    n = desc.n
    certs = dict(certs)
    out = []
    for k, comp in enumerate(desc.comps):
        if not comp.basis:
            continue
        key = _as_key(rows_text(comp.basis))
        h = comp.plane_index
        if h is None:
            if any(x.denominator != 1 for x in comp.lam):
                raise CheckError(f"component {k} is translated but has no "
                                 "certifying coordinate")
            if meets(rows, comp.basis):
                out.append((key, "dim_ge_1"))
            continue
        if any(row[h] for row in comp.basis) or comp.lam[h].denominator == 1:
            raise CheckError(f"coordinate {h} does not certify component {k}")
        cert = certs.get(k)
        if cert is None:
            raise CheckError(f"no certificate for translated component {k}")
        if cert[0] == "disjoint":
            if meets(rows, comp.basis):
                raise CheckError("'disjoint' plane meets the direction")
        elif cert[0] == "hyperplane":
            if any(row[cert[1]] for row in list(rows) + list(comp.basis)) \
                    or comp.lam[cert[1]].denominator == 1:
                raise CheckError("'hyperplane' certificate does not hold")
        elif cert[0] == "meet":
            _, v, m = cert
            lam_m = [comp.lam[i] + m[i] for i in range(n)]
            if not (any(v) and in_span(rows, v) and in_span(comp.basis, v)
                    and all(F(x).denominator == 1 for x in m)
                    and in_span(list(rows) + list(comp.basis), lam_m)):
                raise CheckError("'meet' certificate does not hold")
            out.append((key, "sigma_rho"))
        else:
            raise CheckError(f"unknown certificate {cert[0]!r}")
    return sorted(out)


def _blockers_of(payload) -> list:
    return sorted((_as_key(b["component"]["basis"]), b["reason"])
                  for b in payload["blockers"])


def _check_omega(expect, payload):
    _, desc, rows, certs = expect
    want = expected_blockers(desc, rows, certs)
    if payload["plane"] != rows_text(rref(rows)):
        return "plane basis differs from its reduced echelon form"
    if payload["member"] != (not want):
        return f"member={payload['member']}, expected {not want}"
    if _blockers_of(payload) != want:
        return f"blockers {_blockers_of(payload)}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# witness families
# ---------------------------------------------------------------------------

def plucker(rows) -> list:
    """Normalized Pluecker coordinates of span(rows), lexicographic order."""
    basis = rref(rows)
    r, n = len(basis), len(basis[0])
    coords = [_det([[row[c] for c in cols] for row in basis])
              for cols in itertools.combinations(range(n), r)]
    lead = next(c for c in coords if c)
    return [c / lead for c in coords]


def _det(m) -> Fraction:
    m = [list(row) for row in m]
    det = F(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _check_witness(expect, payload):
    _, desc, index, r, qs = expect
    comp = desc.comps[index]
    basis = [list(map(F, row)) for row in comp.basis]
    plane = basis[:r]
    member = not expected_blockers(
        desc, plane, [(index, ("hyperplane", comp.plane_index))]
        + _disjoint_certs(desc, index))
    if (payload["component_index"], payload["P"], payload["member"]) != \
            (index, rows_text(rref(plane)), member):
        return "member plane P differs"
    if [step["q"] for step in payload["family"]] != list(qs):
        return "family q values differ"
    ref = plucker(plane)
    for q, step in zip(qs, payload["family"]):
        last = [x + y / q for x, y in zip(basis[r - 1], comp.lam)]
        plane_q = basis[:r - 1] + [last]
        cert = (index, ("meet", basis[0], (0,) * desc.n))
        member_q = not expected_blockers(
            desc, plane_q, [cert] + _disjoint_certs(desc, index))
        dist = max(abs(a - b) for a, b in zip(plucker(plane_q), ref))
        got = (step["plane"], F(step["plucker_distance"]), step["member"])
        if got != (rows_text(rref(plane_q)), dist, member_q):
            return f"family step q={q} differs"
    return None


def _disjoint_certs(desc, index) -> list:
    return [(k, ("disjoint",)) for k, c in enumerate(desc.comps)
            if k != index and c.plane_index is not None]


# ---------------------------------------------------------------------------
# tangent cones from minimal zero-sum parts
# ---------------------------------------------------------------------------

def poly_cone(terms, n: int):
    """Maximal subspaces L(p) of f = sum c_e t^e, or None when f(1) != 0.

    Every admissible partition refines to one whose parts are minimal
    zero-sum sets, and refining only enlarges L(p), so the maximal
    subspaces all come from partitions into minimal parts.
    """
    exps = [e for e, _ in terms]
    k = len(terms)
    full = (1 << k) - 1
    sums = [F(0)] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + terms[low.bit_length() - 1][1]
    if sums[full] != 0:
        return None
    zero = [m for m in range(1, 1 << k) if sums[m] == 0]
    minimal = [m for m in zero
               if not any(z != m and z & m == z for z in zero)]
    found = set()

    def rec(remaining: int, parts: list):
        if not remaining:
            diffs = []
            for part in parts:
                idx = [i for i in range(k) if part >> i & 1]
                diffs += [[a - b for a, b in zip(exps[i], exps[idx[0]])]
                          for i in idx[1:]]
            found.add(nullspace(diffs, n))
            return
        low = remaining & -remaining
        for m in minimal:
            if m & low and m & remaining == m:
                parts.append(m)
                rec(remaining ^ m, parts)
                parts.pop()

    rec(full, [])
    return maximal(found)


def tangent_cone(polys, n: int) -> set | None:
    """Reference cone of a system: pairwise intersections, kept maximal."""
    cone = None
    for terms in polys:
        own = poly_cone(terms, n)
        if own is None:
            return None
        cone = own if cone is None else maximal(
            intersect(a, b, n) for a in cone for b in own)
    return cone


def _check_tcone(expect, payload):
    kind, n, polys = expect
    cone = tangent_cone(polys, n) or set()
    want = {_as_key(rows_text(s)) for s in cone}
    if kind == "tcone":
        got, points = payload["subspaces"], payload["projective_points"]
        if payload["empty"] != (not want) or payload["ambient_dim"] != n:
            return "empty flag or ambient dimension differs"
    else:
        want = {s for s in want if s}
        got, points = (payload["excluded_subspaces"],
                       payload["excluded_projective_points"])
        if (payload["r"], payload["ambient_dim"]) != (1, n):
            return "r or ambient dimension differs"
    got_keys = [_as_key(s) for s in got]
    if len(set(got_keys)) != len(got_keys) or set(got_keys) != want:
        return f"cone {sorted(got_keys)}, expected {sorted(want)}"
    lines = [primitive([F(x) for x in s[0]]) for s in got if len(s) == 1]
    if points != lines:
        return "projective points differ from the one-dimensional subspaces"
    return None


# ---------------------------------------------------------------------------
# presentations and Fox calculus, letter by letter
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(-?\d+)|([A-Za-z_]\w*)|(.))")


def parse_presentation(text: str) -> tuple[list, list]:
    """Generator names and relators as lists of (generator, +-1) letters.

    ``[u,v]`` is u v u^-1 v^-1 and ``u^w`` is w^-1 u w, as in the library.
    """
    tokens = []
    for num, name, punct in _TOKEN.findall(text.strip()):
        tokens.append(("int", int(num)) if num else
                      ("name", name) if name else (punct, punct))
    tokens.append(("end", None))
    pos = 0

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind}, found {tok}")
        pos += 1
        return tok[1]

    def inv(w):
        return [(g, -e) for g, e in reversed(w)]

    take("<")
    names = [take("name")]
    while tokens[pos][0] == ",":
        take()
        names.append(take("name"))
    index = {name: i for i, name in enumerate(names)}

    def primary():
        kind = tokens[pos][0]
        if kind == "name":
            return [(index[take()], 1)]
        if kind == "[":
            take()
            u = word()
            take(",")
            v = word()
            take("]")
            return u + v + inv(u) + inv(v)
        take("(")
        w = word()
        take(")")
        return w

    def atom():
        w = primary()
        while tokens[pos][0] == "^":
            take()
            if tokens[pos][0] == "int":
                k = take()
                w = (w if k >= 0 else inv(w)) * abs(k)
            else:
                c = atom()
                w = inv(c) + w + c
        return w

    def word():
        w = atom()
        while tokens[pos][0] in ("name", "[", "("):
            w = w + atom()
        return w

    relators = []
    if tokens[pos][0] == "|":
        take()
        relators.append(word())
        while tokens[pos][0] == ",":
            take()
            relators.append(word())
    take(">")
    return names, relators


def fox_row(relator, q: int) -> list:
    """Abelianized left Fox derivatives d r / d x_j, j < q, for Z^q."""
    out = [dict() for _ in range(q)]
    prefix = [0] * q
    for g, e in relator:
        if e < 0:
            prefix[g] -= 1
        term = out[g]
        key = tuple(prefix)
        term[key] = term.get(key, 0) + e
        if e > 0:
            prefix[g] += 1
    return [{k: F(c) for k, c in d.items() if c} for d in out]


def _check_alexander(expect, payload):
    _, text = expect
    names, relators = parse_presentation(text)
    q = len(names)
    for rel in relators:
        if any(sum(e for g, e in rel if g == j) for j in range(q)):
            raise CheckError("relator with nonzero exponent sum")
    if (payload["generators"], payload["free_rank"],
            payload["torsion_invariants"]) != (names, q, []):
        return "generators, free rank or torsion differ"
    m = payload["matrix"]
    if (m["rows"], m["cols"], m["num_vars"]) != (len(relators), q, q):
        return "matrix shape differs"
    for i, rel in enumerate(relators):
        got = [{tuple(t["exponents"]): F(t["coeff"]) for t in entry}
               for entry in m["entries"][i]]
        if got != fox_row(rel, q):
            return f"Fox derivatives of relator {i} differ"
    return None


# ---------------------------------------------------------------------------
# characteristic-variety checks against the planted components
# ---------------------------------------------------------------------------

def on_component(point, comp) -> bool:
    """Does the torsion point lie on the coordinate-aligned component?"""
    free = {row.index(1) for row in comp.basis}
    return all((point[i] - comp.lam[i]).denominator == 1
               for i in range(len(point)) if i not in free)


def subtorus_inside(sub, comp) -> bool:
    """Coset containment for coordinate-aligned tori."""
    sub_free = {row.index(1) for row in sub.basis}
    free = {row.index(1) for row in comp.basis}
    return sub_free <= free and on_component(sub.lam, comp)


def _check_charvar(expect, payload):
    _, desc, comps = expect
    want = {}
    for c in comps:
        key = (tuple(fmt(x) for x in c.lam), _as_key(rows_text(c.basis)))
        generic = any(subtorus_inside(c, k) for k in desc.comps)
        at_translate = any(on_component(c.lam, k) for k in desc.comps)
        want[key] = (generic, at_translate)
    got = {(tuple(r["component"]["lambda"]), _as_key(r["component"]["basis"])):
           (r["generic_contained"], r["translate_in_locus"])
           for r in payload["components"]}
    if got != want:
        return f"components {got}, expected {want}"
    if payload["verified"] != all(g and t for g, t in want.values()):
        return "verified flag differs"
    return None


_CHECKERS = {"omega": _check_omega, "witness": _check_witness,
             "tcone": _check_tcone, "describe": _check_tcone,
             "alexander": _check_alexander, "charvar": _check_charvar}


def check(expect: tuple, code: int, stdout: str) -> str | None:
    """None when the CLI answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}: {stdout[:200]}"
    try:
        payload = json.loads(stdout)
        return _CHECKERS[expect[0]](expect, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
