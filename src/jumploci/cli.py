"""Command-line front end.

Subcommands route to the library and emit deterministic JSON (default) or a
short text report.  All rationals appear as strings "p/q"; output is
byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 domain error (a JSON error object is printed),
2 usage error.

JSON output, the payload and the error object alike, is byte for byte
``json.dumps(obj, indent=2)``; ``_dumps`` writes it directly, because the
standard encoder runs its pure-Python generators whenever it indents.  A
call whose first argument names a subcommand is parsed by that
subcommand's parser alone, as argparse's own subcommand action would parse
it.  The whole parser runs only for a call that names no subcommand first
or leaves arguments unrecognized, and then prints argparse's usage text and
exits with its code.

One process that calls ``main`` many times (a batch driver, a test run)
parses each repeated input once.  A ``--desc`` text is kept as its
``VarietyDescription`` and a ``--pres`` text as its generator names,
abelianization and Alexander matrix.  The key is the text itself (for a
file, its content), so a changed file is a new key.  At most
``MEMO_ENTRIES`` texts of each kind are kept, and only a description of at
most ``MEMO_DESCRIPTION_CHARS`` characters or a presentation of weight at
most ``MEMO_PRESENTATION_WEIGHT``; a heavier input is answered but not
kept, and a refused one is never kept.  Every process starts with nothing
kept, so a single shell launch sees no change.  Planes, polynomials,
graded descriptions, ranks and verdicts are computed on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import OrderedDict
from typing import Optional, Sequence

from .fox import (abelianize, alexander_matrix, contains_translated_torus,
                  depth1_membership, parse_presentation)
from .laurent import LaurentPoly
from .omega import (fpk_report, nonopen_witness, omega1_r1_description,
                    omega_codim1_closed_form, omega_membership)
from .qlinalg import (PluckerVector, RationalSubspace, format_rational,
                      format_rref, parse_rational, schubert_equations)
from .tcone import (DEFAULT_SUPPORT_LIMIT, SUBSET_SUM_LIMIT,
                    SubspaceArrangement, tangent_cone_description,
                    tangent_cone_polys)
from .tori import GradedDescription, VarietyDescription, subspace_from_json

#: The highest order of a component's translate that charvar-check accepts.
#: Ranks at a character of order m work in Z[zeta_m], of rank phi(m) over
#: Z; a dense point of order 4001 on a 16 x 6 Alexander matrix takes about
#: 0.1 s.
MAX_CHARACTER_ORDER = 4096
#: The highest translate order that charvar-check accepts on a component of
#: dimension >= 1.  Bareiss elimination over the subtorus still inverts
#: leading coefficients in Q(zeta_m) for m > 2.  On the surface group the
#: circle through (1/p, 0, 1/2, 0, 0, 0) along e4, of order 2p, ranks in
#: 0.1 s at order 502 (p = 251), and, past this limit and so only through
#: the library, in 0.35-0.5 s at order 1018, 1.8-3.0 s at order 2018 and
#: 9-9.5 s at order 4006 (Python 3.11.7, 2 vCPUs, two runs each).
MAX_TORUS_ORDER = 512
#: The most --desc texts and the most --pres texts that one process keeps
#: parsed, each kind least recently used first out.
MEMO_ENTRIES = 16
#: A --desc text is kept parsed only if it has at most this many
#: characters.  Such a description retained at most 0.6 MB when measured
#: (tracemalloc, a dense 29 x 130 basis of one-digit entries, whose RREF
#: entries are longer than its own), so the 16 kept retain about 10 MB.
MEMO_DESCRIPTION_CHARS = 8192
#: A --pres text is kept parsed only if its weight (see
#: ``_presentation_weight``) is at most this.  Measured retention, with the
#: term table that a rank at a character builds on first use, is at most
#: 111 bytes per unit of weight (45 generators killed by 45 relators: a
#: 45 x 45 matrix over Z^0, nearly all of it empty entries), so one kept
#: presentation holds at most about 0.9 MB and the 16 kept about 15 MB.
MEMO_PRESENTATION_WEIGHT = 8192


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _json_number(text: str):
    """A JSON number with a fraction part or an exponent, read exactly from
    its text by ``parse_rational``: as a float, 1e-400 would be 0 and
    12345678901234567890.5 an integer.  One that ``parse_rational`` refuses
    (a JSON number is always a rational, so only for being too long to
    write out) stays text, which the reader of its field refuses by name."""
    try:
        return parse_rational(text)
    except (ValueError, OverflowError):
        return text


def _json_integer(text: str):
    """A JSON integer literal as an int, or as its text if it is longer than
    ``int()`` reads: the reader of its field then refuses it by name."""
    try:
        return int(text)
    except ValueError:
        return text


#: The decoder of JSON inputs, built once: ``json.loads`` with a keyword
#: argument builds a new one on every call.
_JSON = json.JSONDecoder(parse_float=_json_number, parse_int=_json_integer)


def _json_text(value: str) -> str:
    """The JSON text of an option: the value itself if it looks like JSON,
    else the content of the file it names."""
    text = value.strip()
    if not (text.startswith("{") or text.startswith("[")):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):          # refused as json.load does
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return text


def _load_json(value: str):
    """Inline JSON if the value looks like JSON, else a file path."""
    return _JSON.decode(_json_text(value))


def _memo(weight, cap: int):
    """Memoize a function of an input's text: a bounded least-recently-used
    map from the text to the immutable objects the function builds from it.

    The key is the text itself, never a file name, so an edited file is a
    new key.  At most ``MEMO_ENTRIES`` texts are kept, and only those whose
    ``weight(text, value)`` is at most ``cap``: a heavier value is built
    and returned but not kept.  A text whose build raises is not kept, so it
    raises the same error on every call.  At the caps above, the two memos
    together retain at most about 25 MB.  ``entries`` is the map and
    ``cache_clear`` empties it, as on ``functools.lru_cache``.
    """
    def decorate(build):
        entries: OrderedDict = OrderedDict()

        @functools.wraps(build)
        def memoized(text: str):
            if text in entries:
                entries.move_to_end(text)
                return entries[text]
            value = build(text)
            if weight(text, value) <= cap:
                entries[text] = value
                if len(entries) > MEMO_ENTRIES:
                    entries.popitem(last=False)
            return value

        memoized.entries = entries
        memoized.cache_clear = entries.clear
        return memoized
    return decorate


@_memo(lambda text, desc: len(text), MEMO_DESCRIPTION_CHARS)
def _description(text: str) -> VarietyDescription:
    """The variety description of a --desc text."""
    return VarietyDescription.from_json(_JSON.decode(text))


def _presentation_weight(text: str, entry) -> int:
    """The characters of the text plus n + 1 for each generator's image in
    Z^n, for each matrix entry and for each term of an entry: an upper
    bound on the integers and objects the entry holds."""
    _, ab, matrix = entry
    cells = sum(1 + len(e.terms) for row in matrix.entries for e in row)
    return len(text) + (len(ab.projection) + cells) * (matrix.num_vars + 1)


@_memo(_presentation_weight, MEMO_PRESENTATION_WEIGHT)
def _presentation(text: str):
    """The generator names, abelianization and Alexander matrix of a --pres
    text.  The parsed relators are not kept: a power of a commutator has
    many syllables and few matrix terms."""
    pres = parse_presentation(text)
    ab = abelianize(pres)
    return pres.generator_names, ab, alexander_matrix(pres, ab)


def _parse_polys(texts: Sequence[str]) -> list[LaurentPoly]:
    """Parse each text once, then pad every exponent to the most variables."""
    polys = [LaurentPoly.parse(t) for t in texts]
    n = max((f.num_vars for f in polys), default=0)
    return [f if f.num_vars == n else LaurentPoly._make(
                n, {e + (0,) * (n - f.num_vars): c for e, c in f.terms.items()})
            for f in polys]


def _arrangement(args) -> SubspaceArrangement:
    """The tangent cone of the --poly texts, or else of the --desc variety."""
    if args.poly:
        return tangent_cone_polys(_parse_polys(args.poly),
                                  max_support=args.max_support)
    return tangent_cone_description(
        _description(_json_text(args.desc)))


def _point(line: RationalSubspace) -> list[int]:
    """A line as a projective point: its primitive integer spanning vector."""
    return list(line.rows[0])


def _arrangement_payload(arr: SubspaceArrangement) -> dict:
    payload = arr.to_json()
    payload["projective_points"] = [_point(s) for s in arr.subspaces
                                    if s.dim == 1]
    return payload


def _arrangement_text(arr: SubspaceArrangement) -> list[str]:
    if arr.empty:
        return ["tangent cone: empty (the identity is not on the variety)"]
    lines = [f"tangent cone: {len(arr.subspaces)} subspace(s) in Q^{arr.ambient_dim}"]
    for s in arr.subspaces:
        if s.dim == 0:
            lines.append("  {0}")
        elif s.dim == 1:
            lines.append(f"  line through {_point(s)}")
        else:
            rows = "; ".join(str(row) for row in format_rref(s))
            lines.append(f"  dim {s.dim}: span of {rows}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json_payload, text_lines)
# ---------------------------------------------------------------------------

def _cmd_alexander(args) -> tuple[dict, list[str]]:
    names, ab, matrix = _presentation(args.pres)
    payload = {
        "generators": list(names),
        "free_rank": ab.free_rank,
        "torsion_invariants": list(ab.torsion_invariants),
        "matrix": matrix.to_json(),
        "matrix_text": [[e.to_text() for e in row] for row in matrix.entries],
    }
    lines = [f"generators: {', '.join(names)}",
             f"free rank: {ab.free_rank}",
             f"torsion invariants: {list(ab.torsion_invariants)}"]
    lines += ["  [" + ",  ".join(row) + "]" for row in payload["matrix_text"]]
    return payload, lines


def _cmd_tcone(args) -> tuple[dict, list[str]]:
    arr = _arrangement(args)
    return _arrangement_payload(arr), _arrangement_text(arr)


def _cmd_charvar_check(args) -> tuple[dict, list[str]]:
    _, ab, matrix = _presentation(args.pres)
    desc = _description(_json_text(args.desc))
    if desc.ambient_dim != ab.free_rank:
        raise ValueError(
            f"description lives in Q^{desc.ambient_dim} but the presentation "
            f"has free rank {ab.free_rank}")
    for i, comp in enumerate(desc.components):
        if comp.translate.order > MAX_CHARACTER_ORDER:
            raise ValueError(
                f"component {i} has a translate of order "
                f"{comp.translate.order}, above MAX_CHARACTER_ORDER = "
                f"{MAX_CHARACTER_ORDER}")
        if comp.dim >= 1 and comp.translate.order > MAX_TORUS_ORDER:
            raise ValueError(
                f"component {i} has dimension {comp.dim} and a translate of "
                f"order {comp.translate.order}, above MAX_TORUS_ORDER = "
                f"{MAX_TORUS_ORDER} for components of dimension >= 1")
    reports = []
    for comp in desc.components:
        # the translate is a point of the closed coset: off the locus, it
        # settles the coset without Bareiss; on a point the verdicts agree
        at_translate = depth1_membership(matrix, comp.translate)
        generic = at_translate and (
            comp.dim == 0 or contains_translated_torus(matrix, comp))
        reports.append({
            "component": comp.to_json(),
            "generic_contained": generic,
            "translate_in_locus": at_translate,
        })
    verified = all(r["generic_contained"] and r["translate_in_locus"]
                   for r in reports)
    payload = {"verified": verified, "components": reports}
    lines = [f"verified: {verified}"]
    for i, r in enumerate(reports):
        lines.append(f"  component {i}: generic={r['generic_contained']} "
                     f"translate={r['translate_in_locus']}")
    return payload, lines


def _cmd_omega_test(args) -> tuple[dict, list[str]]:
    desc = _description(_json_text(args.desc))
    plane = subspace_from_json(_load_json(args.plane), desc.ambient_dim)
    if args.r is not None and plane.dim != args.r:
        raise ValueError(f"plane has dimension {plane.dim}, expected r={args.r}")
    verdict = omega_membership(desc, plane)
    payload = verdict.to_json()
    payload["plane"] = format_rref(plane)
    if verdict.member:
        lines = ["member: the cover determined by this plane has finite "
                 "Betti numbers"]
    else:
        lines = [f"blocked by {len(verdict.blockers)} component(s):"]
        for comp, reason in verdict.blockers:
            lines.append(f"  {comp.to_json()} ({reason})")
    return payload, lines


def _cmd_omega_describe(args) -> tuple[dict, list[str]]:
    if args.r < 1:
        raise ValueError("r must be >= 1")
    if args.r == 1:
        arr = _arrangement(args)
        excluded = omega1_r1_description(arr)
        payload = {
            "r": 1,
            "ambient_dim": arr.ambient_dim,
            "excluded_subspaces": [format_rref(s) for s in excluded],
            "excluded_projective_points": [_point(s) for s in excluded
                                           if s.dim == 1],
        }
        if not excluded:
            lines = ["every line survives: the set is all of projective space"]
        else:
            lines = [f"{len(excluded)} excluded projective subspace(s):"]
            for s in excluded:
                if s.dim == 1:
                    lines.append(f"  point {_point(s)}")
                else:
                    lines.append(f"  P(L) for dim-{s.dim} L = {format_rref(s)}")
        return payload, lines
    if not args.desc:
        raise ValueError("closed forms for r >= 2 require --desc")
    desc = _description(_json_text(args.desc))
    verdict = omega_codim1_closed_form(desc, args.r)
    payload = verdict.to_json()
    if verdict.kind == "all":
        lines = [f"all r={args.r} planes are members"]
    elif verdict.kind == "empty":
        lines = [f"no r={args.r} plane is a member"]
    else:
        lines = [f"members are exactly the r={args.r} planes inside "
                 f"{format_rref(verdict.subspace)}"]
    return payload, lines


def _cmd_schubert_eqs(args) -> tuple[dict, list[str]]:
    space = subspace_from_json(_load_json(args.space))
    forms = schubert_equations(space, args.r)
    subsets = PluckerVector.subset_order(space.ambient_dim, args.r)
    payload = {
        "r": args.r,
        "n": space.ambient_dim,
        "subsets": [list(s) for s in subsets],
        "forms": [[format_rational(c) for c in form] for form in forms],
    }
    lines = [f"{len(forms)} incidence equation(s) for r={args.r} against "
             f"a dim-{space.dim} subspace of Q^{space.ambient_dim}"]
    for form in forms:
        terms = []
        for c, sub in zip(form, subsets):
            if c != 0:
                label = "p" + "".join(str(i + 1) for i in sub)
                terms.append(f"{format_rational(c)}*{label}")
        lines.append("  " + " + ".join(terms) + " = 0")
    return payload, lines


def _cmd_witness(args) -> tuple[dict, list[str]]:
    desc = _description(_json_text(args.desc))
    q_list = []
    for i, q in enumerate(args.q.split(",")):
        if q.strip():
            try:
                q_list.append(int(q))
            except ValueError:
                raise ValueError(f"--q entry {i} is {q.strip()!r}, not an "
                                 "integer") from None
    if not q_list:
        raise ValueError("--q names no integer; expected comma-separated "
                         "positive integers")
    report = nonopen_witness(desc, args.component, args.r, q_list)
    payload = report.to_json()
    lines = [f"P = {format_rref(report.plane)} -> member"]
    for step in report.family:
        lines.append(f"  q={step.q}: distance {format_rational(step.plucker_distance)}"
                     f" -> {'member' if step.verdict.member else 'blocked'}")
    return payload, lines


def _cmd_fpk(args) -> tuple[dict, list[str]]:
    graded = GradedDescription.from_json(_load_json(args.graded))
    report = fpk_report(graded, args.k, args.r)
    payload = report.to_json()
    lines = [f"certified empty: {report.certified_empty}", report.reason]
    if report.deduction:
        lines.append(report.deduction)
    return payload, lines


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _support_limit(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Exact computations with characteristic varieties and "
                    "finite-Betti-number cover sets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format (default json)")

    p = sub.add_parser("alexander",
                       help="Alexander matrix of a presentation")
    p.add_argument("--pres", required=True,
                   help="presentation text, e.g. '<x1,x2 | [x1,x2]>'")
    add_format(p)
    p.set_defaults(handler=_cmd_alexander)

    p = sub.add_parser("tcone", help="exponential tangent cone at 1")
    p.add_argument("--poly", action="append", default=[],
                   help="Laurent polynomial text (repeatable)")
    p.add_argument("--desc", help="variety description (JSON file or inline)")
    p.add_argument("--max-support", type=_support_limit,
                   default=DEFAULT_SUPPORT_LIMIT,
                   help="support-size guard for the tangent-cone enumeration, "
                        "whose cost grows exponentially with the support "
                        f"(default {DEFAULT_SUPPORT_LIMIT}; supports over "
                        f"{SUBSET_SUM_LIMIT} terms are always rejected)")
    add_format(p)
    p.set_defaults(handler=_cmd_tcone)

    p = sub.add_parser("charvar-check",
                       help="verify a description against a presentation")
    p.add_argument("--pres", required=True)
    p.add_argument("--desc", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_charvar_check)

    p = sub.add_parser("omega-test",
                       help="membership of a plane in the finite-Betti set")
    p.add_argument("--desc", required=True)
    p.add_argument("--plane", required=True,
                   help="basis rows (JSON file or inline)")
    p.add_argument("--r", type=int, default=None,
                   help="expected plane dimension (validated)")
    add_format(p)
    p.set_defaults(handler=_cmd_omega_test)

    p = sub.add_parser("omega-describe",
                       help="closed-form description of the membership set")
    p.add_argument("--poly", action="append", default=[])
    p.add_argument("--desc")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-support", type=_support_limit,
                   default=DEFAULT_SUPPORT_LIMIT)
    add_format(p)
    p.set_defaults(handler=_cmd_omega_describe)

    p = sub.add_parser("schubert-eqs",
                       help="incidence equations in Plücker coordinates")
    p.add_argument("--space", required=True,
                   help="subspace basis rows (JSON file or inline)")
    p.add_argument("--r", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_schubert_eqs)

    p = sub.add_parser("witness",
                       help="non-openness witness family P_q -> P")
    p.add_argument("--desc", required=True)
    p.add_argument("--component", type=int, required=True,
                   help="index of the translated component to perturb along")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated positive integers")
    add_format(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("fpk",
                       help="homological-finiteness deduction from emptiness")
    p.add_argument("--graded", required=True,
                   help="graded description (JSON file or inline)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_fpk)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name, built on first use and
    shared by later calls to main."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def _parse(argv: Sequence[str]) -> tuple[argparse.ArgumentParser,
                                         argparse.Namespace]:
    """The parser and the parsed arguments of a call.  The subcommand that
    ``argv[0]`` names parses the rest, by the call argparse's subcommand
    action makes; anything else, and any argument left over, goes through
    the whole parser, which exits with its usage error."""
    parser, choices = _parser()
    if argv and argv[0] in choices:
        args, extras = choices[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not extras:
            return parser, args
    return parser, parser.parse_args(argv)


_escape = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool and None; any other type is a TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of value to out; ``newline`` is a line break
    followed by the indent of value's own line."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is str for x in value):
            out.append("[" + inner + ("," + inner).join(map(_escape, value))
                       + newline + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, x in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _escape(key) + ": ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        "serializable")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.subcommand == "tcone" and bool(args.poly) == bool(args.desc):
        parser.error("tcone needs exactly one of --poly / --desc")
    if args.subcommand == "omega-describe" and bool(args.poly) == bool(args.desc):
        parser.error("omega-describe needs exactly one of --poly / --desc")
    try:
        payload, lines = args.handler(args)
    except (ValueError, ArithmeticError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(_dumps({"error": {"type": type(exc).__name__,
                                "message": str(exc)}}))
        return 1
    if args.format == "text":
        print("\n".join(lines))
    else:
        print(_dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
