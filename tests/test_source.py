"""Rules on the library's source code itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jumploci"


def test_library_has_no_assert_statements():
    # python -O strips asserts, so no verdict may rest on one; doctests and
    # tests are free to use them
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 8
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


#: The math functions that stay exact on ints and Fractions.
EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm",
              "perm", "prod"}


def test_library_has_no_floating_point():
    # every verdict is exact: no float or complex literal, no float() or
    # complex(), no cmath and no math function that returns a float
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            bad = (
                (isinstance(node, ast.Constant)
                 and type(node.value) in (float, complex))
                or (isinstance(node, ast.Name)
                    and node.id in ("float", "complex", "cmath"))
                or (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "cmath" in ([a.name for a in node.names]
                                    + [getattr(node, "module", None)]))
                or (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                    and node.attr not in EXACT_MATH))
            if bad:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from jumploci import *`` at the user's site, not at import time
    import jumploci
    assert len(set(jumploci.__all__)) == len(jumploci.__all__)
    missing = [name for name in jumploci.__all__
               if not hasattr(jumploci, name)]
    assert missing == []
