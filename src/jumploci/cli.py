"""Command-line front end.

Subcommands route to the library and emit deterministic JSON (default) or a
short text report.  All rationals appear as strings "p/q"; output is
byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 domain error (a JSON error object is printed) or
a closed stdout (nothing more is printed), 2 usage error.

JSON output, the payload and the error object alike, is byte for byte
``json.dumps(obj, indent=2)``; ``_dumps`` writes it directly, because the
standard encoder runs its pure-Python generators whenever it indents.  A
well-formed call, a subcommand followed by ``--option value`` pairs of its
exact option strings, is read off that subcommand's option table, which is
built from its argparse parser: each value is converted by the action's
own type and checked against its choices, as ``parse_args`` would, and the
arguments are the ``Namespace`` that ``parse_args`` returns.  Any other
call (help, an abbreviated option, ``--option=value``, a value that starts
with ``-`` but not with ``- ``, a missing required option, any error) goes
to argparse's whole parser, which stays the only definition of the command
line and prints its help and usage errors with its own exit codes.

One process that calls ``main`` many times (a batch driver, a test run)
parses each repeated input once.  A ``--desc`` text is kept as its
``VarietyDescription`` and a ``--pres`` text as its generator names,
abelianization and Alexander matrix.  The key is the text itself (for a
file, its content), so a changed file is a new key.  At most
``MEMO_ENTRIES`` texts of each kind are kept, and only those of weight at
most ``MEMO_WEIGHT``: a description's characters, or a presentation's
weight; a heavier input is answered but not kept, and a refused one is
never kept.  Every process starts with nothing kept, so a single shell
launch sees no change.  Planes, polynomials,
graded descriptions, ranks and verdicts are computed on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import OrderedDict
from typing import Optional, Sequence

from .fox import (abelianize, alexander_matrix, contains_translated_torus,
                  parse_presentation)
from .laurent import LaurentPoly
from .omega import (fpk_report, nonopen_witness, omega1_r1_description,
                    omega_codim1_closed_form, omega_membership)
from .qlinalg import (RationalSubspace, format_rational, format_rref,
                      parse_rational, schubert_equations, subset_order)
from .tcone import (SubspaceArrangement, tangent_cone_description,
                    tangent_cone_polys)
from .tori import (GradedDescription, TranslatedTorus, VarietyDescription,
                   subspace_from_json)

#: The highest order of a component's translate that charvar-check accepts,
#: points and cosets alike (``fox.MAX_BAREISS_ORDER`` bounds Bareiss).  On
#: the surface group's 16 x 6 Alexander matrix, a dense point of order 4001
#: takes about 0.1 s and a contained circle of order 4078 about 3 ms.
MAX_CHARACTER_ORDER = 4096
#: The most --desc texts and the most --pres texts that one process keeps
#: parsed, each kind least recently used first out.
MEMO_ENTRIES = 16
#: A text is kept parsed only if its weight is at most this: a --desc
#: text's characters, a --pres text's ``_presentation_weight``.  At the cap
#: (tracemalloc) a description retained at most 0.6 MB (a dense 29 x 130
#: basis) and a presentation, with its term table, at most 0.9 MB (45 x 45
#: over Z^0), so the 16 kept of each kind retain about 10 MB and 15 MB.
MEMO_WEIGHT = 8192


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


def _memo(weight):
    """Memoize a function of an input's text: a bounded least-recently-used
    map from the text to the immutable objects the function builds from it.

    The key is the text itself, never a file name, so an edited file is a
    new key.  At most ``MEMO_ENTRIES`` texts are kept, and only those whose
    ``weight(text, value)`` is at most ``MEMO_WEIGHT``: a heavier value is
    built and returned but not kept.  A text whose build raises is not kept,
    so it raises the same error on every call.  At that cap, the two memos
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
            if weight(text, value) <= MEMO_WEIGHT:
                entries[text] = value
                if len(entries) > MEMO_ENTRIES:
                    entries.popitem(last=False)
            return value

        memoized.entries = entries
        memoized.cache_clear = entries.clear
        return memoized
    return decorate


@_memo(lambda text, desc: len(text))
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


@_memo(_presentation_weight)
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
        return tangent_cone_polys(_parse_polys(args.poly))
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
    reports = []
    origin = RationalSubspace.zero(desc.ambient_dim)
    for comp in desc.components:
        # the translate is a point of the closed coset: off the locus, it
        # settles the coset without Bareiss; a point is its own translate
        point = comp if comp.dim == 0 else TranslatedTorus(comp.translate,
                                                           origin)
        at_translate = contains_translated_torus(matrix, point)
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
        lines += [f"  {b['component']} ({b['reason']})"
                  for b in payload["blockers"]]
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
    if verdict.kind == "empty":
        lines = [f"no r={args.r} plane is a member"]
    else:
        lines = [f"members are exactly the r={args.r} planes inside "
                 f"{format_rref(verdict.subspace)}"]
    return payload, lines


def _cmd_schubert_eqs(args) -> tuple[dict, list[str]]:
    space = subspace_from_json(_load_json(args.space))
    forms = schubert_equations(space, args.r)
    subsets = subset_order(space.ambient_dim, args.r)
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
    """The parser and, by subcommand name, the option table read off its
    subcommand parser, built on first use and shared by later calls to main.

    A table is ``(options, defaults, required)``: ``options`` maps each
    exact option string of a store or append action of one value (so never
    ``-h``/``--help``) to its action; ``defaults`` holds those actions'
    defaults and the parser's own (``handler``), with ``subcommand`` set to
    the name; ``required`` is the set of required actions."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if a.nargs is None and type(a) in (
            argparse._StoreAction, argparse._AppendAction)]
        options = {s: a for a in actions for s in a.option_strings}
        defaults = {a.dest: a.default for a in actions}
        defaults.update(p._defaults, subcommand=name)
        tables[name] = (options, defaults,
                        frozenset(a for a in actions if a.required))
    return parser, tables


def _read_table(table, argv: Sequence[str]) -> Optional[dict]:
    """The arguments ``parse_args`` returns for the table's subcommand
    followed by ``argv``, or None unless ``argv`` is ``--option value``
    pairs in which each option is one of the table's exact option strings,
    each value is read by argparse as a value (it does not start with ``-``,
    or starts with ``- ``), converts by its action's type and lies in its
    choices, and every required option is given.  A repeated option keeps
    its last value; an append option adds to a copy of its list, never to
    its default."""
    options, defaults, required = table
    if len(argv) % 2:
        return None
    values = dict(defaults)
    seen = set()
    for i in range(0, len(argv), 2):
        action = options.get(argv[i])
        text = argv[i + 1]
        if action is None or (text.startswith("-")
                              and not text.startswith("- ")):
            return None
        if action.type is None:
            value = text
        else:
            try:
                value = action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        if type(action) is argparse._AppendAction:
            value = [*values[action.dest], value]
        values[action.dest] = value
        seen.add(action)
    return values if required <= seen else None


def _parse(argv: Sequence[str]) -> tuple[argparse.ArgumentParser,
                                         argparse.Namespace]:
    """The parser and the parsed arguments of a call: read off the option
    table of the subcommand that ``argv[0]`` names when ``_read_table``
    can, and otherwise by the whole parser, which prints help and usage
    errors and exits with its code."""
    parser, tables = _parser()
    if argv and argv[0] in tables:
        values = _read_table(tables[argv[0]], argv[1:])
        if values is not None:
            return parser, argparse.Namespace(**values)
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
        return _print(_dumps({"error": {"type": type(exc).__name__,
                                        "message": str(exc)}}), 1)
    return _print("\n".join(lines) if args.format == "text"
                  else _dumps(payload), 0)


def _print(text: str, code: int) -> int:
    """Print text and return code, or 1 if stdout is a closed pipe.  Then
    stdout is pointed at os.devnull, so that the interpreter's last flush
    of what is left in its buffer prints no traceback either."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
