"""Rules on the library's source code itself, and on its CI workflow."""

import ast
import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jumploci"


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


def _own_code(obj):
    """The code object of a function defined in the library, else None; a
    wrapper such as ``functools.lru_cache`` is looked through."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    code = getattr(inspect.unwrap(obj), "__code__", None) \
        if callable(obj) else None
    if code is None or not Path(code.co_filename).resolve().is_relative_to(SRC):
        return None
    return code


#: Public methods of exported classes that no CLI call runs.
#: ``CyclotomicNumber.zeta_power`` builds the value the benchmark's
#: self-test multiplies, and ``RationalSubspace.from_rows`` is the call
#: through which that self-test reaches the traced ``qlinalg.rref``
#: (``perfbench/test_perfbench.py``).
NOT_ON_THE_TRANSCRIPT = {"CyclotomicNumber.zeta_power",
                         "RationalSubspace.from_rows"}


def test_every_exported_name_runs_on_the_cli_transcript():
    # the library keeps only what a CLI path reaches: replaying the recorded
    # transcript must run every exported function, every public method,
    # classmethod, staticmethod and property that an exported class defines
    # here (dunders and other names with a leading underscore are exempt),
    # and at least one method of every exported class that defines methods
    # here (a dataclass with none of its own, such as WitnessStep, is exempt)
    import jumploci
    from jumploci.cli import main
    golden = Path(__file__).resolve().parent / "golden_cli.json"
    entries = json.loads(golden.read_text(encoding="utf-8"))
    ran = set()
    # a function behind a warm cache would not run: start every cache empty
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("jumploci.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for entry in entries:
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(entry["argv"]))
    finally:
        sys.setprofile(previous)
    unused = []
    for name in jumploci.__all__:
        obj = getattr(jumploci, name)
        if inspect.isclass(obj):
            codes = {_own_code(v) for v in vars(obj).values()} - {None}
            if codes and not codes & ran:
                unused.append(name)
            unused += [f"{name}.{attr}" for attr, value in vars(obj).items()
                       if not attr.startswith("_")
                       and _own_code(value) not in ran | {None}
                       and f"{name}.{attr}" not in NOT_ON_THE_TRANSCRIPT]
        elif _own_code(obj) not in ran:
            unused.append(name)
    assert unused == []
    for exempt in NOT_ON_THE_TRANSCRIPT:
        owner, attr = exempt.split(".")
        assert _own_code(vars(getattr(jumploci, owner))[attr]) not in ran


def test_ci_workflow_parses_and_every_step_runs_a_string():
    # a step name holding `"verified": true` once left the workflow
    # unreadable as YAML, and nothing here caught it
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml")
                              .read_text(encoding="utf-8"))
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name", ""), str)
        assert isinstance(step.get("run", ""), str)
