"""Replay a recorded CLI transcript: every call must print the same bytes.

``tests/golden_cli.json`` holds about 150 fixed calls across the
subcommands, each with its argv, exit code and exact stdout.  A change that
claims to leave the output alone (a speed-up, a refactor) must pass this
test unchanged.  After a deliberate change of output, regenerate the file
from the root of a checkout with::

    PYTHONPATH=src:tests python tests/test_golden_cli.py

and review the diff of the JSON file like any other change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import datasets
from builders import description_json, graded_json
from jumploci.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_transcript_covers_every_subcommand_it_names():
    entries = _load()
    names = {e["argv"][0] for e in entries}
    assert names == {"alexander", "tcone", "omega-describe", "omega-test",
                     "witness", "charvar-check", "schubert-eqs", "fpk"}
    assert len(entries) >= 100
    assert {e["exit"] for e in entries} == {0, 1}


def test_cli_output_matches_the_transcript():
    for i, entry in enumerate(_load()):
        code, out = _call(entry["argv"])
        assert (code, out) == (entry["exit"], entry["stdout"]), (
            f"entry {i}: {entry['argv'][:3]}")


def test_cli_output_matches_the_transcript_with_a_warm_memo():
    # the second pass reads every description and presentation it can from
    # what the first pass kept; refused inputs are refused again
    entries = _load()
    for _ in range(2):
        for i, entry in enumerate(entries):
            code, out = _call(entry["argv"])
            assert (code, out) == (entry["exit"], entry["stdout"]), (
                f"entry {i}: {entry['argv'][:3]}")


# ---------------------------------------------------------------------------
# generator: the argv list below is what the recorded file was made from
# ---------------------------------------------------------------------------

def _poly_text(rng: random.Random, nv: int, coeffs) -> str:
    exps = set()
    while len(exps) < len(coeffs):
        exps.add(tuple(rng.randint(-2, 2) for _ in range(nv)))
    parts = []
    for e, c in zip(sorted(exps), rng.sample(list(coeffs), len(coeffs))):
        mono = "*".join(f"t{i + 1}" + (f"^{k}" if k != 1 else "")
                        for i, k in enumerate(e) if k)
        c = Fraction(c)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts).lstrip("+ ")


def _rational(rng: random.Random) -> str:
    x = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return str(x)


def _rows(rng: random.Random, r: int, n: int) -> str:
    return json.dumps([[_rational(rng) for _ in range(n)] for _ in range(r)])


def _desc(n: int, comps) -> str:
    return json.dumps({"n": n, "components": [
        {"lambda": lam, "basis": basis} for lam, basis in comps]})


SURFACE_PRES = (
    "<x1, x2, x3, x4, x5, x6 | [x3^2, x1], [x3^2, x2], [x2, x1] [x2^x3, x1^x3], "
    "[x3, x4] [x5, x6], [x1, x4], [x2, x4], [x1, x5], [x2, x5], [x1, x6], "
    "[x2, x6], [x1^x3, x4], [x2^x3, x4], [x1^x3, x5], [x2^x3, x5], "
    "[x1^x3, x6], [x2^x3, x6]>")
CLOSED_PRES = "<x1, x2, x3 | [x2, x1^2], [x3, x1], x1 [x3, x2] x1^-1 [x3, x2]>"
ONE_RELATOR_PRES = "<x1, x2 | x1 x2^2 x1^-1 x2^-2>"
F2XF2_PRES = "<x1, x2, x3, x4 | [x1, x3], [x1, x4], [x2, x3], [x2, x4]>"

SURFACE = _desc(6, [(["0", "0", "1/2", "0", "0", "0"],
                     [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]),
                    (["0"] * 6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                                 [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])])
CLOSED = _desc(3, [(["0", "0", "0"], []),
                   (["1/2", "0", "0"], [[0, 1, 0], [0, 0, 1]])])
F2XF2 = _desc(4, [(["0"] * 4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
                  (["0"] * 4, [[1, 0, 0, 0], [0, 1, 0, 0]])])
ONE_RELATOR = _desc(2, [(["0", "0"], []), (["0", "1/2"], [[1, 0]])])
#: Components with rational, non-coordinate directions.
SLANTED = _desc(4, [(["1/3", "0", "2/3", "0"], [["1", "2", "-1", "1/2"]]),
                    (["0"] * 4, [["1", "0", "1/2", "-1"], ["0", "1", "2/3", "1"]]),
                    (["1/2", "1/2", "0", "0"], [["0", "0", "1", "3"]])])
ARRANGEMENT = _desc(8, [(["1/2", "0", "1/2", "1/2", "0", "1/2", "0", "0"],
                         [[1, -1, 0, 0, -1, 1, 2, -2]])])


def build_argvs() -> list[list[str]]:
    rng = random.Random("golden-cli")
    calls: list[list[str]] = []

    for pres in (SURFACE_PRES, CLOSED_PRES, ONE_RELATOR_PRES, F2XF2_PRES):
        calls.append(["alexander", "--pres", pres])
    calls.append(["alexander", "--pres", CLOSED_PRES, "--format", "text"])
    calls.append(["alexander", "--pres", "<a, b | c>"])
    calls.append(["alexander", "--pres", "<x | x^" + "7" * 4400 + ">"])

    patterns = ((1, 1, -1, -1), (2, -1, -1, 1, -1), (1, 1, 1, -1, -1, -1),
                (2, 1, -1, -1, -1, 1, -1), (1, 1, 1, 1, -1, -1, -1, -1),
                ("1/2", "1/2", -1, 3, -3), (1, 1, 1, 1, 1, -1, -1, -1, -2),
                (3, 1, 1, -1, -1, -1, -1, -1, 1, -1),
                (1, 1, 1, 1, 1, 1, -3, -3))
    for k in range(36):
        coeffs = patterns[k % len(patterns)]
        nv = 2 + k % 4 if len(coeffs) <= 8 else 2 + k % 2
        text = _poly_text(rng, nv, coeffs)
        fmt = ["--format", "text"] if k % 3 == 2 else []
        if k % 4 == 3:
            calls.append(["omega-describe", "--r", "1", "--poly", text] + fmt)
        else:
            calls.append(["tcone", "--poly", text] + fmt)
    for k in range(4):
        nv = 2 + k % 3
        calls.append(["tcone", "--poly", _poly_text(rng, nv, patterns[k]),
                      "--poly", _poly_text(rng, nv, patterns[2 + k % 2])])
    calls.append(["tcone", "--poly", "t1 + t2 + t3 - t1*t2 - t1*t3 - t2*t3"])
    calls.append(["tcone", "--poly", "t1 + t2 - 2", "--format", "text"])
    calls.append(["tcone", "--poly", "t1 + t2 - 1"])
    calls.append(["tcone", "--poly", _poly_text(rng, 3, [1] * 9 + [-1] * 9)])
    # malformed polynomial text: the error and its position, byte for byte
    for text in ("t1 + + t2", "t0 + 1", "x1 + 1", "1/ + t1", "t1^", "t1^t2",
                 "2*", "", "t1^1/2 - 1", "2^3 - t1", "t1 - 1/0",
                 "t1\u00b2 - 1", "t1 - " + "7" * 4400):
        calls.append(["tcone", "--poly", text])
    calls.append(["tcone", "--poly", "t1 - 1", "--poly", "t2 - t1 +"])
    calls.append(["omega-describe", "--r", "1", "--poly", "t1^ - 2 t2 $ - 1"])
    for desc in (SURFACE, SLANTED, ARRANGEMENT):
        calls.append(["tcone", "--desc", desc])
    calls.append(["tcone", "--desc", SLANTED, "--format", "text"])

    for desc in (SLANTED, CLOSED, F2XF2):
        calls.append(["omega-describe", "--r", "1", "--desc", desc])
    calls.append(["omega-describe", "--r", "1", "--desc", SLANTED,
                  "--format", "text"])
    for desc, r in ((CLOSED, 2), (F2XF2, 2), (SLANTED, 2), (SURFACE, 3)):
        calls.append(["omega-describe", "--r", str(r), "--desc", desc])

    for k in range(22):
        desc, n = ((SURFACE, 6), (CLOSED, 3), (F2XF2, 4), (SLANTED, 4),
                   (ARRANGEMENT, 8))[k % 5]
        r = 1 + k % 3 if n > 3 else 1 + k % 2
        fmt = ["--format", "text"] if k % 4 == 1 else []
        calls.append(["omega-test", "--desc", desc, "--plane",
                      _rows(rng, r, n), "--r", str(r)] + fmt)
    calls.append(["omega-test", "--desc", CLOSED, "--plane",
                  '[["1", "0", "0"], ["0", "1", "1"]]'])
    calls.append(["omega-test", "--desc", SLANTED, "--plane",
                  '[["1", "2", "-1", "1/2"]]', "--format", "text"])
    calls.append(["omega-test", "--desc", CLOSED, "--plane", "[[1, 0]]"])

    for desc, comp, r, q in ((SURFACE, 0, 2, "1,2,4"), (CLOSED, 1, 2, "1,3,5"),
                             (SURFACE, 0, 2, "2,3"), (SURFACE, 1, 2, "1")):
        calls.append(["witness", "--desc", desc, "--component", str(comp),
                      "--r", str(r), "--q", q])
    calls.append(["witness", "--desc", CLOSED, "--component", "1", "--r", "2",
                  "--q", "1,2", "--format", "text"])

    def point(n, lam):
        return _desc(n, [(lam, [])])

    for pres, desc in ((CLOSED_PRES, CLOSED), (ONE_RELATOR_PRES, ONE_RELATOR),
                       (F2XF2_PRES, F2XF2)):
        calls.append(["charvar-check", "--pres", pres, "--desc", desc])
    calls.append(["charvar-check", "--pres", SURFACE_PRES, "--desc", SURFACE,
                  "--format", "text"])
    for order in (2, 3, 5, 6, 7, 12):
        lam = [f"{rng.randrange(order)}/{order}" for _ in range(3)]
        calls.append(["charvar-check", "--pres", CLOSED_PRES,
                      "--desc", point(3, lam)])
    for order in (4, 9):
        lam = [f"{rng.randrange(order)}/{order}", "0", "0", "0"]
        calls.append(["charvar-check", "--pres", F2XF2_PRES,
                      "--desc", _desc(4, [(lam, [[0, 1, 0, 0]])])])
    calls.append(["charvar-check", "--pres", ONE_RELATOR_PRES,
                  "--desc", point(2, ["1/3", "1/2"])])
    calls.append(["charvar-check", "--pres", "<a, b | [a, b]>",
                  "--desc", CLOSED])
    # a circle not in V^1: its points (0, -k/97, -k/97), k = 1, 5, 13, are not
    calls.append(["charvar-check", "--pres",
                  "<x1, x2, x3 | [x2, x1 x3^-1], [x2^-1 x1^-1, x3^2]>",
                  "--desc", _desc(3, [(["0", "0", "0"], [[0, -1, -1]])])])

    for k in range(10):
        n = 3 + k % 3
        dim = 1 + k % 2
        r = 1 + (k // 2) % 2
        calls.append(["schubert-eqs", "--space", _rows(rng, dim, n),
                      "--r", str(r)] + (["--format", "text"] if k % 3 == 0
                                        else []))
    calls.append(["schubert-eqs", "--space", "[]", "--r", "2"])

    # orbifold groups' loci: a plane inside the image directions, one across
    # them, and one off them
    for desc in (datasets.orbifold_torus_two_cones(),
                 datasets.orbifold_thrice_punctured_sphere()):
        text = json.dumps(description_json(desc))
        for plane in ('[[1, 0, 0]]', '[[1, 0, 0], [0, 0, 1]]', '[[0, 0, 1]]'):
            calls.append(["omega-test", "--desc", text, "--plane", plane])
        calls.append(["omega-test", "--desc", text, "--plane",
                      '[[1, 0, 1], [0, 1, 0]]', "--format", "text"])
    calls.append(["omega-test", "--desc",
                  json.dumps(description_json(datasets.orbifold_annulus())),
                  "--plane", "[[1, 1]]"])

    cube = json.dumps(graded_json(datasets.free2_cube_graded(3)))
    for k, r in ((3, 1), (1, 5), (2, 1)):
        calls.append(["fpk", "--graded", cube, "--k", str(k), "--r", str(r)])
        calls.append(["fpk", "--graded", cube, "--k", str(k), "--r", str(r),
                      "--format", "text"])
    calls.append(["fpk", "--graded", '{"n": 2, "degrees": {"a": []}}',
                  "--k", "0", "--r", "1"])
    # JSON numbers with a fraction part or an exponent are read exactly, as
    # their text would be; a plane's own n must be the description's
    for lam in ('1e-400', '"1e-400"', '12345678901234567890.5', '-0.25E1'):
        calls.append(["omega-test", "--desc",
                      '{"n": 2, "components": [{"lambda": [%s, "0"], '
                      '"basis": [[0, 1]]}]}' % lam, "--plane", "[[0, 1]]"])
    calls.append(["omega-test", "--desc",
                  '{"n": 2, "components": [{"lambda": ["1/2", "0"], '
                  '"basis": [[0, 1]]}]}',
                  "--plane", '{"n": 3, "basis": [[1, 0]]}'])
    # abelianizations with torsion, so alpha is not the identity on the
    # generators: Z^2 + Z/2 with x1 -> (2, 0), and Z + Z/3 reached through
    # conjugations and negative powers
    for pres, desc in (
            ("<x1, x2, x3 | x1^2 x2^-4, [x1, x3]>",
             _desc(2, [(["0", "0"], [[1, 0]]), (["1/2", "0"], [[0, 1]]),
                       (["1/3", "1/4"], [])])),
            ("<a, b, c | a^(b^-2) c^-3 (a^-1)^c, [a^-2, b^c] a b^-1>",
             _desc(1, [(["0"], []), (["1/2"], []), (["1/5"], [])]))):
        calls.append(["alexander", "--pres", pres])
        calls.append(["charvar-check", "--pres", pres, "--desc", desc])
    # a word over the letter limit built by juxtaposition, and a degree that
    # is no nonnegative integer
    calls.append(["alexander", "--pres", "<x1, x2 | (x1 x2)^50000 x1>"])
    calls.append(["tcone", "--desc",
                  '{"n": 1, "degree": -7, "components": []}'])
    # Bareiss over Q(zeta_3) on a plane through an order-3 point, which
    # inverts cyclotomic leading coefficients; and a degree past the top one
    calls.append(["charvar-check", "--pres", SURFACE_PRES, "--desc",
                  _desc(6, [(["1/3", "2/3", "0", "0", "1/3", "0"],
                             [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])])])
    calls.append(["fpk", "--graded", '{"n": 2, "degrees": {"0": []}}',
                  "--k", "3", "--r", "1"])
    return calls


def write_golden() -> None:
    entries = []
    for argv in build_argvs():
        code, out = _call(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    write_golden()
