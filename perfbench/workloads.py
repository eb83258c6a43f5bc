"""Seeded inputs for the benchmark workloads.

Every operation is one ``jumploci`` CLI argv plus an ``expect`` record that
the checkers in :mod:`perfbench.checks` turn into the exact answer.  The
answers are planted while the inputs are generated (membership certificates,
torsion points placed on or off a known component) or recomputed by the
benchmark's own naive code (tangent cones, Fox derivatives), so a wrong
verdict from the library shows up as a failed operation.

The fixed groups and descriptions mirror the worked examples of the test
suite.  Every description used here has coordinate-aligned components: the
direction of each component is spanned by unit vectors (or, for the rank-8
line, lies inside a coordinate hyperplane on which the translate is not
integral).  That keeps every planted fact checkable with plain ``Fraction``
arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .checks import fmt, meets, on_component, rank, subtorus_inside

F = Fraction

#: Seed used when none is given; results files record the seed they used.
DEFAULT_SEED = 1111

WORKLOADS = ("membership", "tcone", "characters")


@dataclass(frozen=True)
class Op:
    """One CLI call and the data its answer is checked against."""
    argv: tuple
    expect: tuple


@dataclass(frozen=True)
class Comp:
    """A component lambda + span(basis) of a description.

    ``basis`` rows are integer and already in reduced row echelon form, so
    they print exactly as the library prints the component's direction.
    ``plane_index`` names a coordinate i with basis[.][i] == 0 for every row
    and lambda_i not an integer (None for untranslated components): it
    certifies that lambda is not in span(basis) + Z^n.
    """
    lam: tuple
    basis: tuple
    plane_index: int | None = None


@dataclass(frozen=True)
class Description:
    n: int
    comps: tuple

    def to_json(self) -> str:
        return desc_json(self.n, self.comps)


def desc_json(n: int, comps) -> str:
    """Inline JSON of a variety description, as the CLI reads it."""
    return json.dumps({
        "n": n,
        "components": [{"lambda": [fmt(x) for x in c.lam],
                        "basis": [[str(x) for x in row] for row in c.basis]}
                       for c in comps]})


def unit(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def _coordinate_comp(n, lam, idx, plane_index=None) -> Comp:
    return Comp(tuple(F(x) for x in lam), tuple(unit(n, i) for i in idx),
                plane_index)


# ---------------------------------------------------------------------------
# fixed data: degree-one jump loci of a few groups
# ---------------------------------------------------------------------------

HALF = F(1, 2)

F2XF2 = Description(4, (
    _coordinate_comp(4, [0] * 4, (2, 3)),
    _coordinate_comp(4, [0] * 4, (0, 1))))

F2CUBE = Description(6, (
    _coordinate_comp(6, [0] * 6, (4, 5)),
    _coordinate_comp(6, [0] * 6, (2, 3)),
    _coordinate_comp(6, [0] * 6, (0, 1))))

SURFACE = Description(6, (
    _coordinate_comp(6, [0, 0, HALF, 0, 0, 0], (0, 1), plane_index=2),
    _coordinate_comp(6, [0] * 6, (2, 3, 4, 5))))

CLOSED = Description(3, (
    _coordinate_comp(3, [0, 0, 0], ()),
    _coordinate_comp(3, [HALF, 0, 0], (1, 2), plane_index=0)))

ARRANGEMENT = Description(8, (
    Comp(tuple(F(x) for x in (HALF, 0, HALF, HALF, 0, HALF, 0, 0)),
         ((1, -1, 0, 0, -1, 1, 2, -2),), plane_index=2),))

ONE_RELATOR = Description(2, (
    _coordinate_comp(2, [0, 0], ()),
    _coordinate_comp(2, [0, HALF], (0,), plane_index=1)))

SURFACE_PRES = (
    "<x1, x2, x3, x4, x5, x6 | "
    "[x3^2, x1], [x3^2, x2], "
    "[x2, x1] [x2^x3, x1^x3], "
    "[x3, x4] [x5, x6], "
    "[x1, x4], [x2, x4], [x1, x5], [x2, x5], [x1, x6], [x2, x6], "
    "[x1^x3, x4], [x2^x3, x4], [x1^x3, x5], [x2^x3, x5], "
    "[x1^x3, x6], [x2^x3, x6]>")
CLOSED_PRES = ("<x1, x2, x3 | [x2, x1^2], [x3, x1], "
               "x1 [x3, x2] x1^-1 [x3, x2]>")
F2XF2_PRES = "<x1, x2, x3, x4 | [x1, x3], [x1, x4], [x2, x3], [x2, x4]>"
ONE_RELATOR_PRES = "<x1, x2 | x1 x2^2 x1^-1 x2^-2>"

#: Each presentation with the complete list of components of its degree-one
#: jump locus (every relator has exponent sum zero, so the abelianization is
#: free on the generators).
GROUPS = (
    ("surface", SURFACE_PRES, SURFACE),
    ("closed", CLOSED_PRES, CLOSED),
    ("f2xf2", F2XF2_PRES, F2XF2),
    ("one_relator", ONE_RELATOR_PRES, ONE_RELATOR),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _rand_int_vec(rng, n, lo=-3, hi=3):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if any(v):
            return v


def _combo(rng, rows, n, allow_zero=False):
    """A random integer combination of rows (nonzero unless allowed)."""
    while True:
        cs = [rng.randint(-2, 2) for _ in rows]
        v = tuple(sum(c * r[i] for c, r in zip(cs, rows)) for i in range(n))
        if allow_zero or any(v):
            return v


def _plane(rng, desc: Description, r: int, plant: str, target: int):
    """r rows of a plane and one certificate per translated component.

    ``plant`` is "random" (r random rows), "blocked" (rows contain v in L
    and lambda + m + u for the target component), or "hyperplane" (rows
    contain v in L and lie in the coordinate hyperplane of a translated
    target).  Returns None when the draw cannot be certified; the caller
    draws again.
    """
    n = desc.n
    comp = desc.comps[target] if target is not None else None
    certs = {}
    if plant == "random":
        rows = [_rand_int_vec(rng, n) for _ in range(r)]
    elif plant == "blocked":
        v = _combo(rng, comp.basis, n)
        m = tuple(rng.randint(-2, 2) for _ in range(n))
        u = _combo(rng, comp.basis, n, allow_zero=True)
        w = tuple(comp.lam[i] + m[i] + u[i] for i in range(n))
        rows = [v, w][:r] + [_rand_int_vec(rng, n) for _ in range(r - 2)]
        if comp.plane_index is not None:
            certs[target] = ("meet", v, m)
    else:                                   # hyperplane
        h = comp.plane_index
        v = _combo(rng, comp.basis, n)
        rows = [v] + [tuple(0 if i == h else x
                            for i, x in enumerate(_rand_int_vec(rng, n)))
                      for _ in range(r - 1)]
        certs[target] = ("hyperplane", h)
    rng.shuffle(rows)
    if rank(rows) != r:
        return None
    for k, c in enumerate(desc.comps):
        if k in certs or c.plane_index is None:
            continue
        if meets(rows, c.basis):
            return None                     # translated, uncertified
        certs[k] = ("disjoint",)
    return rows, tuple(sorted(certs.items()))


#: (description, r, plant, target component, weight) for omega-test calls.
_MEMBERSHIP_MIX = (
    (F2XF2, 1, "random", None, 4), (F2XF2, 1, "blocked", 0, 3),
    (F2XF2, 2, "random", None, 8), (F2XF2, 2, "blocked", 1, 8),
    (F2XF2, 3, "random", None, 4),
    (F2CUBE, 1, "random", None, 3), (F2CUBE, 1, "blocked", 2, 3),
    (F2CUBE, 2, "random", None, 8), (F2CUBE, 2, "blocked", 0, 8),
    (F2CUBE, 3, "random", None, 6), (F2CUBE, 3, "blocked", 1, 6),
    (SURFACE, 1, "random", None, 4), (SURFACE, 1, "hyperplane", 0, 3),
    (SURFACE, 1, "blocked", 1, 3),
    (SURFACE, 2, "random", None, 10), (SURFACE, 2, "blocked", 0, 12),
    (SURFACE, 2, "hyperplane", 0, 10), (SURFACE, 2, "blocked", 1, 6),
    (SURFACE, 3, "random", None, 6), (SURFACE, 3, "blocked", 0, 6),
    (CLOSED, 1, "random", None, 4), (CLOSED, 2, "blocked", 1, 8),
    (CLOSED, 2, "hyperplane", 1, 4),
    (ARRANGEMENT, 1, "random", None, 4), (ARRANGEMENT, 1, "hyperplane", 0, 4),
    (ARRANGEMENT, 2, "random", None, 8), (ARRANGEMENT, 2, "blocked", 0, 10),
    (ARRANGEMENT, 2, "hyperplane", 0, 8),
    (ARRANGEMENT, 3, "blocked", 0, 8), (ARRANGEMENT, 3, "hyperplane", 0, 6),
)

#: (description, component index, r) for witness families.
_WITNESS_MIX = ((SURFACE, 0, 2), (CLOSED, 1, 2))
_WITNESS_PER_DESC = 4


def membership_ops(seed: int) -> list[Op]:
    rng = _rng("membership", seed)
    ops = []
    for desc, r, plant, target, count in _MEMBERSHIP_MIX:
        made = 0
        while made < count:
            got = _plane(rng, desc, r, plant, target)
            if got is None:
                continue
            rows, certs = got
            plane_json = json.dumps([[fmt(x) for x in row] for row in rows])
            ops.append(Op(("omega-test", "--desc", desc.to_json(),
                           "--plane", plane_json, "--r", str(r)),
                          ("omega", desc, tuple(rows), certs)))
            made += 1
    for desc, index, r in _WITNESS_MIX:
        for _ in range(_WITNESS_PER_DESC):
            qs = sorted(rng.sample(range(1, 13), rng.randint(3, 5)))
            ops.append(Op(("witness", "--desc", desc.to_json(),
                           "--component", str(index), "--r", str(r),
                           "--q", ",".join(map(str, qs))),
                          ("witness", desc, index, r, tuple(qs))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------

#: Coefficient patterns (each sums to zero), variable counts and calls per
#: pass.  The number of admissible partitions, and with it the cost of a
#: call, is set by the pattern; the seed only places the exponents.  The
#: calls of one pattern and one variable count cost about the same, so the
#: blocks are sized to put the median inside the seven-term block and the
#: 90th percentile inside the eight-term two-variable block.
_TCONE_PATTERNS = (
    ((1, 1, -1, -1), (2, 3, 4), 12),
    ((2, -1, -1, 1, -1), (2, 3, 4), 12),
    ((1, 1, 1, -1, -1, -1), (2, 3, 4), 18),
    ((2, 1, -1, -1, -1, 1, -1), (2, 3), 24),
    ((1, 1, 1, 1, -1, -1, -1, -1), (2,), 24),
    ((1, 1, 1, 1, 1, -1, -1, -1, -2), (2, 3), 2),
    ((3, 1, 1, -1, -1, -1, -1, -1, 1, -1), (2,), 2),
)

#: Pairs of patterns for two-polynomial systems, with calls per pass.
_TCONE_SYSTEMS = (
    (((1, 1, -1, -1), (1, 1, 1, -1, -1, -1)), 4),
    (((2, -1, -1, 1, -1), (1, 1, -1, -1)), 4),
)


def _poly(rng, nv: int, coeffs) -> tuple[str, tuple]:
    """Text and terms of a polynomial in exactly nv variables with the given
    coefficients on random distinct exponents."""
    while True:
        exps = set()
        while len(exps) < len(coeffs):
            exps.add(tuple(rng.randint(-2, 2) for _ in range(nv)))
        terms = tuple(zip(sorted(exps), map(F, rng.sample(coeffs, len(coeffs)))))
        if all(any(e[i] for e, _ in terms) for i in range(nv)):
            break
    parts = []
    for e, c in terms:
        mono = "*".join(f"t{i + 1}" + (f"^{k}" if k != 1 else "")
                        for i, k in enumerate(e) if k)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts).lstrip("+ "), terms


def tcone_ops(seed: int) -> list[Op]:
    rng = _rng("tcone", seed)
    ops = []
    for coeffs, nvs, count in _TCONE_PATTERNS:
        for k in range(count):
            nv = nvs[k % len(nvs)]
            text, terms = _poly(rng, nv, coeffs)
            if k % 2:
                argv = ("omega-describe", "--r", "1", "--poly", text)
                kind = "describe"
            else:
                argv = ("tcone", "--poly", text)
                kind = "tcone"
            ops.append(Op(argv, (kind, nv, (terms,))))
    for pair, count in _TCONE_SYSTEMS:
        for k in range(count):
            nv = 2 + k % 3
            polys = [_poly(rng, nv, c) for c in pair]
            argv = ("tcone",) + tuple(a for text, _ in polys
                                      for a in ("--poly", text))
            ops.append(Op(argv, ("tcone", nv, tuple(t for _, t in polys))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

CENSUS_ORDERS = tuple(range(2, 13))

#: Points of prime order, as (group index, numerators over the order; None
#: stands for the coordinate 1/2) and the orders they are taken at.  They
#: are fixed rather than drawn from the seed, and they are the costliest
#: calls of the workload, so its 90th latency percentile falls among them.
#: The cost of one call at order p depends strongly on the numerators: on
#: the surface group, 0.55 s for the point (1/163, 0, ..., 0) against 3.5 s
#: for (59/163, 0, ..., 0), and 17-65 s for a point with six nonzero
#: coordinates, so drawn numerators would swamp the run-to-run comparison.
_PRIME_POINTS = (
    (0, (1, 2, None, 0, 0, 0), (101, 127)),
    (1, (1, 2, 3), (101, 113, 127, 139, 151)),
    (2, (1, 2, 0, 0), (101, 113, 127, 139, 151)),
    (3, (1, None), (101, 113, 127, 139, 151)),
)


def canonical_point(point) -> tuple:
    return tuple(x - (x.numerator // x.denominator) for x in point)


def _point(rng, desc: Description, order: int, on: bool) -> tuple:
    """A torsion point of the given order, on or off the components."""
    n = desc.n
    while True:
        if on:
            comp = rng.choice([c for c in desc.comps if c.basis])
            p = list(comp.lam)
            for row in comp.basis:
                p[row.index(1)] = F(rng.randrange(order), order)
        else:
            p = [F(rng.randrange(order), order) for _ in range(n)]
        p = canonical_point(p)
        lcm = 1
        for x in p:
            lcm = math.lcm(lcm, x.denominator)
        if lcm % order:
            continue
        if any(on_component(p, c) for c in desc.comps) == on:
            return p


def _subtorus(rng, desc: Description, order: int, inside: bool) -> Comp:
    """A one-dimensional coordinate subtorus translated by a point of the
    given order; inside a component of the locus, or generically off it."""
    n = desc.n
    comps = [c for c in desc.comps if c.basis]
    while True:
        if inside:
            comp = rng.choice(comps)
            free = [row.index(1) for row in comp.basis]
            d = rng.choice(free)
            lam = list(comp.lam)
            for i in free:
                lam[i] = F(rng.randrange(order), order)
        else:
            d = rng.randrange(n)
            lam = [F(rng.randrange(order), order) for _ in range(n)]
        lam[d] = F(0)
        sub = Comp(canonical_point(lam), (unit(n, d),))
        contained = any(subtorus_inside(sub, c) for c in desc.comps)
        if contained == inside:
            return sub


def _charvar_op(pres: str, desc: Description, comps: list) -> Op:
    return Op(("charvar-check", "--pres", pres, "--desc",
               desc_json(desc.n, comps)),
              ("charvar", desc, tuple(comps)))


def characters_ops(seed: int) -> list[Op]:
    rng = _rng("characters", seed)
    ops = [Op(("alexander", "--pres", pres), ("alexander", pres))
           for _, pres, _ in GROUPS]
    # the surface group's own components: the generic rank by Bareiss
    # elimination over cyclotomic Laurent polynomials in 2 and 4 variables
    ops += [_charvar_op(SURFACE_PRES, SURFACE, [c]) for c in SURFACE.comps]
    # census on the smaller groups: one point per call, on and off the
    # locus, and translated subtori; the surface group's calls at these
    # orders cost as much as the prime-order calls of the others
    for _, pres, desc in GROUPS[1:]:
        for order in CENSUS_ORDERS:
            for on in (True, False):
                p = _point(rng, desc, order, on)
                ops.append(_charvar_op(pres, desc, [Comp(p, ())]))
        for order in (2, 3, 4, 6):
            sub = _subtorus(rng, desc, order, inside=order % 2 == 0)
            ops.append(_charvar_op(pres, desc, [sub]))
    for g, nums, orders in _PRIME_POINTS:
        _, pres, desc = GROUPS[g]
        for order in orders:
            p = tuple(HALF if k is None else F(k, order) for k in nums)
            ops.append(_charvar_op(pres, desc, [Comp(p, ())]))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"membership": membership_ops, "tcone": tcone_ops,
             "characters": characters_ops}


def build(workload: str, seed: int) -> list[Op]:
    """The fixed, seeded list of operations of one workload."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](seed)


def argv_digest(ops: list[Op]) -> str:
    """sha256 of the argv list: equal digests mean byte-identical inputs."""
    blob = json.dumps([list(op.argv) for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
