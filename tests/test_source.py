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


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from jumploci import *`` at the user's site, not at import time
    import jumploci
    assert len(set(jumploci.__all__)) == len(jumploci.__all__)
    missing = [name for name in jumploci.__all__
               if not hasattr(jumploci, name)]
    assert missing == []
