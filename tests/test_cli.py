"""End-to-end command-line tests: JSON payloads, text reports, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import datasets
from builders import description_json, graded_json
from jumploci import cli, tcone
from jumploci.cli import (MAX_CHARACTER_ORDER, build_parser,
                          main)
from jumploci.fox import (MAX_ALEXANDER_ENTRIES, MAX_BAREISS_ORDER,
                          MAX_GENERATORS, MAX_RELATOR_LETTERS)
from jumploci.laurent import MAX_VARIABLES
from jumploci.tori import VarietyDescription


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def desc_json(desc) -> str:
    return json.dumps(description_json(desc))


# ---------------------------------------------------------------------------
# alexander
# ---------------------------------------------------------------------------

def test_alexander_json(capsys):
    code, data = run_json(capsys, "alexander", "--pres", datasets.ONE_RELATOR_PRES)
    assert code == 0
    assert data["generators"] == ["x1", "x2"]
    assert data["free_rank"] == 2
    assert data["torsion_invariants"] == []
    assert data["matrix_text"] == [["1 - t2^2", "-1 - t2 + t1 + t1*t2"]]


def test_alexander_text(capsys):
    code, out = run(capsys, "alexander", "--pres", datasets.ONE_RELATOR_PRES,
                    "--format", "text")
    assert code == 0
    assert "free rank: 2" in out
    assert "[1 - t2^2,  -1 - t2 + t1 + t1*t2]" in out


def test_alexander_reports_parse_errors(capsys):
    code, data = run_json(capsys, "alexander", "--pres", "<a, b | c>")
    assert code == 1
    assert data["error"]["type"] == "PresentationSyntaxError"
    assert "unknown generator" in data["error"]["message"]


# ---------------------------------------------------------------------------
# tcone
# ---------------------------------------------------------------------------

def test_tcone_poly_json(capsys):
    code, data = run_json(capsys, "tcone", "--poly", datasets.CHAIN_DELTA_TEXT)
    assert code == 0
    assert data["ambient_dim"] == 3 and data["empty"] is False
    assert len(data["subspaces"]) == 3
    assert data["projective_points"] == [[0, 1, -1], [1, -1, 0], [1, 0, -1]]


def test_tcone_poly_text(capsys):
    code, out = run(capsys, "tcone", "--poly", datasets.CHAIN_DELTA_TEXT,
                    "--format", "text")
    assert code == 0
    assert "tangent cone: 3 subspace(s) in Q^3" in out
    assert "line through [0, 1, -1]" in out
    assert "line through [1, -1, 0]" in out
    assert "line through [1, 0, -1]" in out


def test_tcone_desc_inline(capsys):
    code, data = run_json(capsys, "tcone", "--desc",
                          desc_json(datasets.closed_omega_description()))
    assert code == 0
    assert data["subspaces"] == [[]]  # just the origin
    assert data["projective_points"] == []


def test_tcone_desc_from_file(capsys, tmp_path):
    path = tmp_path / "desc.json"
    path.write_text(desc_json(datasets.surface_description()), encoding="utf-8")
    code, data = run_json(capsys, "tcone", "--desc", str(path))
    assert code == 0
    assert len(data["subspaces"]) == 1
    assert len(data["subspaces"][0]) == 4  # the dim-4 direction through 1
    # a file is read as inline JSON is: an over-long integer literal names
    # its entry, and a byte-order mark is refused as json.load refuses it
    path.write_text('{"n": 1, "components": [{"lambda": [%s], "basis": []}]}'
                    % ("7" * (sys.get_int_max_str_digits() + 1)),
                    encoding="utf-8")
    code, data = run_json(capsys, "tcone", "--desc", str(path))
    assert code == 1
    assert data["error"]["message"].startswith(
        "a component's 'lambda' entry 0 has a number of more than")
    path.write_text("\ufeff" + desc_json(datasets.surface_description()),
                    encoding="utf-8")
    code, data = run_json(capsys, "tcone", "--desc", str(path))
    assert code == 1
    assert data["error"]["message"].startswith("Unexpected UTF-8 BOM")


def test_tcone_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tcone"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["tcone", "--poly", "t1 - 1", "--desc", "{}"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_successive_calls_print_only_their_own_cone(capsys):
    code, first = run_json(capsys, "tcone", "--poly", "t1 - 1")
    assert code == 0
    code, second = run_json(capsys, "tcone", "--poly", "t2 - 1",
                            "--format", "json")
    assert code == 0
    assert first["ambient_dim"] == 1 and first["subspaces"] == [[]]
    assert second["ambient_dim"] == 2
    assert second["subspaces"] == [[["1", "0"]]]
    code, third = run_json(capsys, "tcone", "--poly", "t1 - 1")
    assert third == first


def test_each_poly_is_parsed_once_and_padded(capsys, monkeypatch):
    from jumploci.laurent import LaurentPoly
    texts = []
    parse = LaurentPoly.parse.__func__

    def counted(cls, text, num_vars=None):
        texts.append(text)
        return parse(cls, text, num_vars)

    monkeypatch.setattr(LaurentPoly, "parse", classmethod(counted))
    code, data = run_json(capsys, "tcone", "--poly", "t1 - 1",
                          "--poly", "t3^2 - t2")
    assert code == 0
    assert texts == ["t1 - 1", "t3^2 - t2"]
    assert data["ambient_dim"] == 3
    assert data["subspaces"] == [[["0", "1", "1/2"]]]


def test_cone_over_budget_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(tcone, "CONE_BUDGET", 100)
    for argv in (["tcone"], ["omega-describe", "--r", "1"]):
        code, data = run_json(capsys, *argv, "--poly",
                              datasets.FOUR_BINOMIALS_TEXT)
        assert code == 1
        assert data["error"]["type"] == "ValueError"
        assert "is above CONE_BUDGET = 100" in data["error"]["message"]


def test_support_beyond_subset_sum_table_is_domain_error(capsys):
    # 21 terms of working dimension 4: t1^1..t1^17, t2, t3, t4 and 1
    poly = (" + ".join(f"t1^{i}" for i in range(1, 18))
            + " + t2 + t3 + t4 - 20")
    code, data = run_json(capsys, "tcone", "--poly", poly)
    assert code == 1
    assert data["error"]["type"] == "ValueError"
    assert "2^21 subset sums" in data["error"]["message"]
    # 21 terms in one variable build no table: the cone is {0}
    poly = " + ".join(f"t1^{i}" for i in range(1, 21)) + " - 20"
    code, data = run_json(capsys, "tcone", "--poly", poly)
    assert code == 0
    assert data["subspaces"] == [[]] and not data["empty"]


def test_variable_index_over_the_limit_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, data = run_json(capsys, "tcone", "--poly", "t100000 - 1")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert data["error"] == {"type": "ValueError", "message": (
        f"variable t100000 at position 0 is above MAX_VARIABLES = "
        f"{MAX_VARIABLES}")}
    code, data = run_json(capsys, "omega-describe", "--r", "1", "--poly",
                          "t1 - 1", "--poly", f"t{MAX_VARIABLES + 1} - 1")
    assert code == 1
    assert f"MAX_VARIABLES = {MAX_VARIABLES}" in data["error"]["message"]


def test_missing_json_keys_are_named(capsys):
    code, data = run_json(capsys, "tcone", "--desc", "{}")
    assert code == 1
    assert data["error"]["type"] == "ValueError"
    assert "missing the key 'n'" in data["error"]["message"]
    with pytest.raises(ValueError, match="missing the key 'n'"):
        VarietyDescription.from_json({})
    for argv, message in (
            (["tcone", "--desc", "[]"], "must be a JSON object"),
            (["tcone", "--desc", '{"n": 1, "components": [{"basis": []}]}'],
             "missing the key 'lambda'"),
            (["fpk", "--graded", '{"n": 2}', "--k", "1", "--r", "1"],
             "missing the key 'degrees'"),
            (["schubert-eqs", "--space", '{"n": 3}', "--r", "1"],
             "missing the key 'basis'")):
        code, data = run_json(capsys, *argv)
        assert code == 1
        assert data["error"]["type"] == "ValueError"
        assert message in data["error"]["message"]


LINE_DESC = '{"n": 2, "components": [{"lambda": [0, 0], "basis": [[1, 0]]}]}'


@pytest.mark.parametrize("argv, field", [
    (["omega-test", "--desc", LINE_DESC, "--plane", "[1, 2]"],
     "a subspace's 'basis'"),
    (["omega-test", "--desc", LINE_DESC, "--plane", '{"basis": 5}'],
     "a subspace's 'basis'"),
    (["omega-test", "--desc", '{"n": 2, "components": 5}',
      "--plane", "[[1, 0]]"],
     "a variety description's 'components'"),
    (["tcone", "--desc",
      '{"n": 2, "components": [{"lambda": [0, 0], "basis": [1, 0]}]}'],
     "a component's 'basis'"),
    (["fpk", "--graded", '{"n": 2, "degrees": [1]}', "--k", "0", "--r", "1"],
     "a graded description's 'degrees'"),
    (["omega-test", "--desc", '{"n": [2]}', "--plane", "[[1, 0]]"],
     "a variety description's 'n'"),
    (["tcone", "--desc", '{"n": -2}'], "a variety description's 'n'"),
    (["tcone", "--desc", '{"n": "x", "components": []}'],
     "a variety description's 'n' must be a nonnegative integer"),
    (["omega-test", "--desc", '{"n": "2.5", "components": []}',
      "--plane", "[[1, 0]]"],
     "a variety description's 'n' must be a nonnegative integer"),
    (["fpk", "--graded", '{"n": 2, "degrees": {"a": []}}', "--k", "0",
      "--r", "1"],
     "a graded description's degree key 'a' must be a nonnegative integer"),
    (["omega-test", "--desc", '{"n": 2.0, "components": []}',
      "--plane", "[[1, 0]]"],
     "a variety description's 'n' must be a nonnegative integer"),
    (["omega-test", "--desc", LINE_DESC, "--plane",
      '{"n": 3, "basis": [[1, 0]]}'],
     "a subspace's 'n' is 3, but the description lives in Q^2"),
    (["omega-test", "--desc", LINE_DESC, "--plane",
      '{"n": 2.0, "basis": [[1, 0]]}'],
     "a subspace's 'n' must be a nonnegative integer"),
    (["tcone", "--desc", '{"n": 1, "degree": -7, "components": []}'],
     "a variety description's 'degree' must be a nonnegative integer"),
    (["omega-test", "--desc",
      '{"n": 1, "degree": {"x": [1]}, "components": []}', "--plane", "[[1]]"],
     "a variety description's 'degree' must be a nonnegative integer"),
    (["tcone", "--desc",
      '{"n": 1, "degree": %s, "components": []}' % ("7" * 5000)],
     "a variety description's 'degree' must be a nonnegative integer"),
], ids=["plane-row-not-array", "plane-basis-not-array", "components-not-array",
        "component-basis-flat", "degrees-not-object", "n-not-integer",
        "n-negative", "n-not-a-number", "n-decimal-string",
        "degree-key-not-a-number", "n-json-decimal", "plane-n-mismatch",
        "plane-n-json-decimal", "degree-negative", "degree-not-a-number",
        "degree-long-literal"])
def test_json_of_the_wrong_shape_is_a_named_domain_error(capsys, argv, field):
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"]["type"] == "ValueError"
    assert field in data["error"]["message"]


def test_dimensions_given_as_decimal_strings_keep_their_value(capsys):
    for n in (2, "2", " 2", "+2"):
        code, data = run_json(capsys, "tcone", "--desc",
                              json.dumps({"n": n, "components": []}))
        assert (code, data["ambient_dim"]) == (0, 2)
    graded = graded_json(datasets.free2_graded(1))
    graded["degrees"] = {" 0": graded["degrees"]["0"],
                         "+1": graded["degrees"]["1"]}
    code, data = run_json(capsys, "fpk", "--graded", json.dumps(graded),
                          "--k", "1", "--r", "1")
    assert (code, data["certified_empty"]) == (0, True)


@pytest.mark.parametrize("number", [
    "1e-400", "12345678901234567890.5", "-0.25E1", "1.5e0"])
def test_json_numbers_are_read_exactly(capsys, number):
    # read through a binary float, 1e-400 would be 0 and
    # 12345678901234567890.5 an integer, and the plane would be blocked by
    # lambda = (0, 0)
    desc = ('{"n": 2, "components": [{"lambda": [%s, "0"], '
            '"basis": [[0, 1]]}]}' % number)
    code, data = run_json(capsys, "omega-test", "--desc", desc,
                          "--plane", "[[0, 1]]")
    assert (code, data["member"]) == (0, True)
    # in a plane row too: the RREF of (x, 1) is (1, 1/x)
    code, data = run_json(capsys, "omega-test", "--desc", desc,
                          "--plane", "[[%s, 1]]" % number)
    inverse = 1 / Fraction(number)
    assert data["plane"] == [["1", f"{inverse.numerator}/{inverse.denominator}"
                              if inverse.denominator > 1
                              else str(inverse.numerator)]]


def test_json_number_with_a_huge_exponent_is_refused(capsys):
    # the exact value would be a power of ten of a billion digits
    code, data = run_json(capsys, "omega-test", "--desc",
                          '{"n": 1, "components": [{"lambda": [1e999999999], '
                          '"basis": []}]}', "--plane", "[[1]]")
    assert code == 1
    assert data["error"]["message"] == (
        f"a component's 'lambda' entry 0 has a number of more than "
        f"{sys.get_int_max_str_digits()} digits")


def _desc_with(lam, basis) -> str:
    return json.dumps({"n": 2, "components": [{"lambda": lam, "basis": basis}]})


LONG = "7" * (sys.get_int_max_str_digits() + 700)
TOO_LONG = f"has a number of more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("argv, message", [
    (["omega-test", "--desc", _desc_with(["1/0", "0"], []),
      "--plane", "[[1, 0]]"],
     "a component's 'lambda' entry 0 has a zero denominator"),
    (["omega-test", "--desc", _desc_with(["0", LONG], []),
      "--plane", "[[1, 0]]"],
     f"a component's 'lambda' entry 1 {TOO_LONG}"),
    (["tcone", "--desc", _desc_with(["0", "0"], [[1, 0], ["1/2", "2/0"]])],
     "a component's 'basis' row 1 entry 1 has a zero denominator"),
    (["charvar-check", "--pres", "<a, b | [a, b]>",
      "--desc", _desc_with([True, "0"], [])],
     "a component's 'lambda' entry 0 is not a rational number"),
    (["omega-test", "--desc", LINE_DESC, "--plane", '[["1", "1/0"]]'],
     "a subspace's 'basis' row 0 entry 1 has a zero denominator"),
    (["omega-test", "--desc", LINE_DESC, "--plane", f'[["{LONG}", 0]]'],
     f"a subspace's 'basis' row 0 entry 0 {TOO_LONG}"),
    (["schubert-eqs", "--space", '[[1, 0], ["1/0", 0]]', "--r", "1"],
     "a subspace's 'basis' row 1 entry 0 has a zero denominator"),
    (["schubert-eqs", "--space", '{"basis": [["one", 0]]}', "--r", "1"],
     "a subspace's 'basis' row 0 entry 0 is not a rational number"),
    # a long digit run in a text Fraction refuses anyway is not a rational;
    # a long one in a form it takes ("+p") is a number over the limit
    (["omega-test", "--desc", _desc_with(["x" + LONG, "0"], []),
      "--plane", "[[1, 0]]"],
     "a component's 'lambda' entry 0 is not a rational number"),
    (["schubert-eqs", "--space", f'[["+{LONG}", 0]]', "--r", "1"],
     f"a subspace's 'basis' row 0 entry 0 {TOO_LONG}"),
    # an exponent past int()'s digit limit is refused before Fraction
    # builds its power of ten (seconds for 1e2000000, and a 415 MB integer
    # for 1e999999999)
    (["omega-test", "--desc", _desc_with(["1e2000000", "0"], []),
      "--plane", "[[1, 0]]"],
     f"a component's 'lambda' entry 0 {TOO_LONG}"),
    (["tcone", "--desc", _desc_with(["0", "0"], [["1E-2000000", 1]])],
     f"a component's 'basis' row 0 entry 0 {TOO_LONG}"),
    (["omega-test", "--desc", LINE_DESC,
      "--plane", '[["1.5e1_000_000", 0]]'],
     f"a subspace's 'basis' row 0 entry 0 {TOO_LONG}"),
    (["schubert-eqs", "--space", '[[1, "-1e3000000"]]', "--r", "1"],
     f"a subspace's 'basis' row 0 entry 1 {TOO_LONG}"),
    # a JSON integer literal longer than int() reads is refused by the
    # reader of its field, as the same digits in a string are
    (["omega-test", "--desc", '{"n": 2, "components": [{"lambda": '
      f'[0, {LONG}], "basis": []}}]}}', "--plane", "[[1, 0]]"],
     f"a component's 'lambda' entry 1 {TOO_LONG}"),
    (["tcone", "--desc", '{"n": 2, "components": [{"lambda": [0, 0], '
      f'"basis": [[-{LONG}, 1]]}}]}}'],
     f"a component's 'basis' row 0 entry 0 {TOO_LONG}"),
    (["omega-test", "--desc", LINE_DESC, "--plane", f"[[1, {LONG}]]"],
     f"a subspace's 'basis' row 0 entry 1 {TOO_LONG}"),
    (["schubert-eqs", "--space", f'{{"basis": [[{LONG}, 0]]}}', "--r", "1"],
     f"a subspace's 'basis' row 0 entry 0 {TOO_LONG}"),
    (["tcone", "--desc", f'{{"n": {LONG}, "components": []}}'],
     "a variety description's 'n' must be a nonnegative integer"),
    (["omega-test", "--desc", LINE_DESC, "--plane", f"[[1, 0.{LONG}]]"],
     f"a subspace's 'basis' row 0 entry 1 {TOO_LONG}"),
], ids=["lambda-zero-denominator", "lambda-too-long", "basis-zero-denominator",
        "lambda-not-a-number", "plane-zero-denominator", "plane-too-long",
        "space-zero-denominator", "space-not-a-number",
        "lambda-long-but-not-a-number", "space-signed-too-long",
        "lambda-huge-exponent", "basis-huge-exponent", "plane-huge-exponent",
        "space-huge-exponent", "lambda-long-literal", "basis-long-literal",
        "plane-long-literal", "space-long-literal", "n-long-literal",
        "plane-long-decimal-literal"])
def test_bad_rational_entry_is_a_domain_error_naming_it(capsys, argv, message):
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"]["type"] == "ValueError"
    assert message in data["error"]["message"]
    assert len(data["error"]["message"]) < 200


EXPONENT_DESC = '{"n": 1, "components": [{"lambda": [%s], "basis": []}]}'
TRANSLATED_PLANE_DESC = ('{"n": 3, "components": [{"lambda": ["1/2", "0", "0"], '
                         '"basis": [[0, 1, 0], [0, 0, 1]]}]}')
NO_Q = "--q names no integer; expected comma-separated positive integers"


@pytest.mark.parametrize("argv, error", [
    (["omega-test", "--desc", _desc_with(["1/0", "0"], []),
      "--plane", "[[1, 0]]"],
     "a component's 'lambda' entry 0 has a zero denominator"),
    (["omega-test", "--desc", '{"n": 2, "components": [{"lambda": '
      f'[0, {LONG}], "basis": []}}]}}', "--plane", "[[1, 0]]"],
     f"a component's 'lambda' entry 1 {TOO_LONG}"),
    (["tcone", "--desc", '{"n": 2, "components": [{"lambda": [0, 0], '
      f'"basis": [[-{LONG}, 1]]}}]}}'],
     f"a component's 'basis' row 0 entry 0 {TOO_LONG}"),
    (["omega-test", "--desc", LINE_DESC, "--plane", f"[[1, {LONG}]]"],
     f"a subspace's 'basis' row 0 entry 1 {TOO_LONG}"),
    (["tcone", "--desc", f'{{"n": {LONG}, "components": []}}'],
     "a variety description's 'n' must be a nonnegative integer"),
    (["omega-test", "--desc", LINE_DESC,
      "--plane", f'{{"n": {LONG}, "basis": [[1, 0]]}}'],
     "a subspace's 'n' must be a nonnegative integer"),
    (["omega-test", "--desc", EXPONENT_DESC % '"1e999999999"',
      "--plane", "[[1]]"],
     f"a component's 'lambda' entry 0 {TOO_LONG}"),
    (["omega-test", "--desc", EXPONENT_DESC % "1e999999999",
      "--plane", "[[1]]"],
     f"a component's 'lambda' entry 0 {TOO_LONG}"),
    (["tcone", "--desc", _desc_with([0, 0], 5)],
     "a component's 'basis' must be a JSON array"),
    (["omega-test", "--desc", LINE_DESC, "--plane", '{"basis": 5}'],
     "a subspace's 'basis' must be a JSON array"),
    (["tcone", "--desc", _desc_with([0, 0], [1, 0])],
     "a component's 'basis' must be a JSON array of rows (arrays)"),
    (["omega-test", "--desc", LINE_DESC, "--plane", "[1, 2]"],
     "a subspace's 'basis' must be a JSON array of rows (arrays)"),
    (["tcone", "--desc", _desc_with([0, 0], [[1, 0], [1]])],
     "rows of unequal length"),
    (["omega-test", "--desc", LINE_DESC, "--plane", "[[1, 0], [1]]"],
     "rows of unequal length"),
    (["schubert-eqs", "--space", "[[1, 0], [1]]", "--r", "1"],
     "rows of unequal length"),
    (["schubert-eqs", "--space", "[]", "--r", "1"],
     "cannot infer ambient dimension of an empty basis"),
    (["schubert-eqs", "--space", '{"basis": []}', "--r", "1"],
     "cannot infer ambient dimension of an empty basis"),
    (["omega-test", "--desc", LINE_DESC,
      "--plane", '{"n": 3, "basis": [[1, 0]]}'],
     "a subspace's 'n' is 3, but the description lives in Q^2"),
    (["omega-test", "--desc", LINE_DESC, "--plane", "[[0, 0]]"],
     "a plane query needs 1 <= dim <= ambient_dim"),
    (["omega-test", "--desc", LINE_DESC, "--plane", '{"n": 2, "basis": []}'],
     "a plane query needs 1 <= dim <= ambient_dim"),
    (["omega-test", "--desc", LINE_DESC, "--plane", '{"n": 2}'],
     "a subspace is missing the key 'basis'"),
    (["schubert-eqs", "--space", '{"n": 3}', "--r", "1"],
     "a subspace is missing the key 'basis'"),
    (["witness", "--desc", TRANSLATED_PLANE_DESC, "--component", "0",
      "--r", "2", "--q", "a"],
     "--q entry 0 is 'a', not an integer"),
    (["witness", "--desc", TRANSLATED_PLANE_DESC, "--component", "0",
      "--r", "2", "--q", "1,, 2x"],
     "--q entry 2 is '2x', not an integer"),
    (["witness", "--desc", TRANSLATED_PLANE_DESC, "--component", "0",
      "--r", "2", "--q", ""],
     NO_Q),
    (["witness", "--desc", TRANSLATED_PLANE_DESC, "--component", "0",
      "--r", "2", "--q", ","],
     NO_Q),
], ids=["lambda-zero-denominator", "lambda-long-literal", "basis-long-literal",
        "plane-long-literal", "n-long-literal", "plane-n-long-literal",
        "exponent-string", "exponent-number", "basis-not-array",
        "plane-basis-not-array", "basis-row-not-array", "plane-row-not-array",
        "basis-unequal-rows", "plane-unequal-rows", "space-unequal-rows",
        "space-empty-basis", "space-empty-basis-object", "plane-n-mismatch",
        "zero-plane", "zero-plane-no-rows", "plane-missing-basis",
        "space-missing-basis", "q-not-integer", "q-entry-after-blank",
        "q-empty", "q-only-comma"])
def test_input_refusals_keep_their_whole_error(capsys, argv, error):
    # the whole error object, type and message: the messages are part of
    # the command-line interface
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data == {"error": {"type": "ValueError", "message": error}}


def test_tcone_domain_error_empty_identity(capsys):
    code, data = run_json(capsys, "tcone", "--poly", "t1 + t2")
    assert code == 0
    assert data["empty"] is True and data["subspaces"] == []


# ---------------------------------------------------------------------------
# charvar-check
# ---------------------------------------------------------------------------

def test_charvar_check_closed_omega(capsys):
    code, data = run_json(capsys, "charvar-check",
                          "--pres", datasets.CLOSED_OMEGA_PRES,
                          "--desc", desc_json(datasets.closed_omega_description()))
    assert code == 0
    assert data["verified"] is True
    assert len(data["components"]) == 2
    assert all(c["generic_contained"] and c["translate_in_locus"]
               for c in data["components"])


def point_desc(n, lam):
    return json.dumps({"n": n, "components": [{"lambda": lam, "basis": []}]})


def test_charvar_check_refuses_orders_over_the_limit(capsys):
    over = MAX_CHARACTER_ORDER + 3                # 4099 is prime
    code, data = run_json(capsys, "charvar-check",
                          "--pres", datasets.ONE_RELATOR_PRES,
                          "--desc", point_desc(2, [f"1/{over}", "0"]))
    assert code == 1
    assert data["error"]["message"] == (
        f"component 0 has a translate of order {over}, above "
        f"MAX_CHARACTER_ORDER = {MAX_CHARACTER_ORDER}")
    # the benchmark's costliest orders, 2 * 101 and 2 * 127, still run
    for p in (101, 127):
        lam = [f"1/{p}", f"2/{p}", "1/2", "0", "0", "0"]
        code, data = run_json(capsys, "charvar-check",
                              "--pres", datasets.SURFACE_PRES,
                              "--desc", point_desc(6, lam))
        assert code == 0 and data["verified"] is True     # on a component


def circle_desc(lam):
    return json.dumps({"n": 2, "components": [{"lambda": lam,
                                               "basis": [[1, 0]]}]})


def test_charvar_check_refuses_subtori_of_high_order(capsys):
    # a coset of any order up to MAX_CHARACTER_ORDER is answered when the
    # Kronecker point within POINT_BUDGET or the small point settles it:
    # circles of orders 526 and 4078 on a component of the surface group
    # are verified at the point
    for p in (263, 2039):
        lam = [f"1/{p}", f"2/{p}", "1/2", "0", "0", "0"]
        start = time.perf_counter()
        code, data = run_json(capsys, "charvar-check",
                              "--pres", datasets.SURFACE_PRES, "--desc",
                              json.dumps({"n": 6, "components": [{
                                  "lambda": lam,
                                  "basis": [[1, 0, 0, 0, 0, 0]]}]}))
        assert time.perf_counter() - start < 2.0
        assert code == 0 and data["verified"] is True
    # a contained 3-torus of order 4093 would need Bareiss over
    # Z[zeta_4093], past MAX_BAREISS_ORDER, and a circle of order 4099 is
    # past MAX_CHARACTER_ORDER: both are refused at once
    lam = ["0", "0", "5/4093", "7/4093", "11/4093", "0"]
    basis = [[int(i == j) for i in range(6)] for j in (3, 4, 5)]
    over = MAX_CHARACTER_ORDER + 3
    for pres, desc, limit in (
            (datasets.SURFACE_PRES, json.dumps({"n": 6, "components": [{
                "lambda": lam, "basis": basis}]}),
             f"MAX_BAREISS_ORDER = {MAX_BAREISS_ORDER}"),
            (datasets.ONE_RELATOR_PRES, circle_desc(["0", f"1/{over}"]),
             f"MAX_CHARACTER_ORDER = {MAX_CHARACTER_ORDER}")):
        start = time.perf_counter()
        code, data = run_json(capsys, "charvar-check", "--pres", pres,
                              "--desc", desc)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert limit in data["error"]["message"]
    assert data["error"]["message"] == (
        f"component 0 has a translate of order {over}, above "
        f"MAX_CHARACTER_ORDER = {MAX_CHARACTER_ORDER}")
    # the same 3-torus at order 509 is ranked by Bareiss, and a circle of
    # low order still runs
    lam = ["0", "0", "5/509", "7/509", "11/509", "0"]
    code, data = run_json(capsys, "charvar-check", "--pres",
                          datasets.SURFACE_PRES, "--desc", json.dumps({
                              "n": 6, "components": [{"lambda": lam,
                                                      "basis": basis}]}))
    assert code == 0 and data["verified"] is True
    code, data = run_json(capsys, "charvar-check",
                          "--pres", datasets.ONE_RELATOR_PRES,
                          "--desc", circle_desc(["0", "1/2"]))
    assert code == 0 and data["verified"] is True


def test_alexander_refuses_a_relator_power_over_the_limit_at_once(capsys):
    start = time.perf_counter()
    code, data = run_json(capsys, "alexander", "--pres",
                          "<x1,x2 | x1^100000000 x2 x1^-100000000 x2^-1>")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"MAX_RELATOR_LETTERS = {MAX_RELATOR_LETTERS}" in data["error"]["message"]


def test_alexander_refuses_a_presentation_over_the_generator_limit(capsys):
    # 2000 generators took 0.4 s and 78 MB, growing as their square
    names = ", ".join(f"x{i}" for i in range(1, 2001))
    start = time.perf_counter()
    code, data = run_json(capsys, "alexander", "--pres", f"<{names} | >")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"MAX_GENERATORS = {MAX_GENERATORS}" in data["error"]["message"]


def test_alexander_refuses_more_relators_than_the_entry_limit_at_once(capsys):
    # 20,000 copies of [x1, x2] over 256 generators ran 66 s and 7.1 GB
    names = ", ".join(f"x{i}" for i in range(1, 257))
    relators = ", ".join(["[x1, x2]"] * 20_000)
    start = time.perf_counter()
    code, data = run_json(capsys, "alexander", "--pres",
                          f"<{names} | {relators}>")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert data["error"]["message"].startswith(
        "relator 9 at position ")
    assert f"MAX_ALEXANDER_ENTRIES = {MAX_ALEXANDER_ENTRIES}" \
        in data["error"]["message"]


def test_charvar_check_builds_one_matrix_and_one_rank_per_point(
        capsys, monkeypatch):
    from jumploci import cli, fox
    calls = {"matrix": 0, "rank": 0}
    build, rank = fox.alexander_matrix, fox.rank_at_character

    def counted_build(*args):
        calls["matrix"] += 1
        return build(*args)

    def counted_rank(*args):
        calls["rank"] += 1
        return rank(*args)

    for module in (cli, fox):
        monkeypatch.setattr(module, "alexander_matrix", counted_build)
    monkeypatch.setattr(fox, "rank_at_character", counted_rank)
    # two points (one on the locus, one off it) and a translated plane
    desc = json.dumps({"n": 3, "components": [
        {"lambda": ["0", "0", "0"], "basis": []},
        {"lambda": ["1/3", "1/5", "1/7"], "basis": []},
        {"lambda": ["1/2", "0", "0"], "basis": [[0, 1, 0], [0, 0, 1]]}]})
    argv = ("charvar-check", "--pres", datasets.CLOSED_OMEGA_PRES,
            "--desc", desc)
    code, out = run(capsys, *argv)
    assert code == 0
    assert sorted((c["generic_contained"], c["translate_in_locus"])
                  for c in json.loads(out)["components"]) == [
        (False, False), (True, True), (True, True)]
    assert calls["matrix"] == 1
    assert calls["rank"] == 3           # one per point, one at the translate
    # the same presentation again: its matrix is kept, the ranks are not
    assert run(capsys, *argv) == (code, out)
    assert calls["matrix"] == 1
    assert calls["rank"] == 6


def test_charvar_check_rank_mismatch(capsys):
    code, data = run_json(capsys, "charvar-check",
                          "--pres", "<a, b | [a, b]>",
                          "--desc", desc_json(datasets.closed_omega_description()))
    assert code == 1
    assert "free rank" in data["error"]["message"]


# ---------------------------------------------------------------------------
# omega-test
# ---------------------------------------------------------------------------

def test_omega_test_member(capsys):
    code, data = run_json(capsys, "omega-test",
                          "--desc", desc_json(datasets.closed_omega_description()),
                          "--plane", '[["0","1","0"],["0","0","1"]]')
    assert code == 0
    assert data["member"] is True and data["blockers"] == []
    assert data["plane"] == [["0", "1", "0"], ["0", "0", "1"]]


def test_omega_test_blocked(capsys):
    code, data = run_json(capsys, "omega-test",
                          "--desc", desc_json(datasets.closed_omega_description()),
                          "--plane", '[[1, 0, 0], [0, 1, 0]]')
    assert code == 0
    assert data["member"] is False
    assert data["blockers"][0]["reason"] == "sigma_rho"


def test_omega_test_text(capsys):
    code, out = run(capsys, "omega-test",
                    "--desc", desc_json(datasets.closed_omega_description()),
                    "--plane", '[[0, 1, 0], [0, 0, 1]]', "--format", "text")
    assert code == 0
    assert out.startswith("member:")


def test_omega_test_r_validation(capsys):
    code, data = run_json(capsys, "omega-test",
                          "--desc", desc_json(datasets.closed_omega_description()),
                          "--plane", '[[0, 1, 0], [0, 0, 1]]', "--r", "3")
    assert code == 1
    assert "expected r=3" in data["error"]["message"]


# ---------------------------------------------------------------------------
# omega-describe
# ---------------------------------------------------------------------------

def test_omega_describe_lines_from_poly(capsys):
    code, data = run_json(capsys, "omega-describe", "--r", "1",
                          "--poly", datasets.CHAIN_DELTA_TEXT)
    assert code == 0
    assert data["r"] == 1 and data["ambient_dim"] == 3
    assert data["excluded_projective_points"] == [
        [0, 1, -1], [1, -1, 0], [1, 0, -1]]


def test_omega_describe_lines_text(capsys):
    code, out = run(capsys, "omega-describe", "--r", "1",
                    "--poly", datasets.CHAIN_DELTA_TEXT, "--format", "text")
    assert code == 0
    assert "3 excluded projective subspace(s):" in out
    assert "point [0, 1, -1]" in out


def test_omega_describe_closed_form(capsys):
    code, data = run_json(capsys, "omega-describe", "--r", "2",
                          "--desc", desc_json(datasets.closed_omega_description()))
    assert code == 0
    assert data["kind"] == "grassmannian"
    assert data["subspace"] == [["0", "1", "0"], ["0", "0", "1"]]
    code, data = run_json(capsys, "omega-describe", "--r", "3",
                          "--desc", desc_json(datasets.closed_omega_description()))
    assert code == 0
    assert data["kind"] == "empty"


def test_omega_describe_requires_desc_for_higher_r(capsys):
    code, data = run_json(capsys, "omega-describe", "--r", "2",
                          "--poly", datasets.CHAIN_DELTA_TEXT)
    assert code == 1
    assert "require --desc" in data["error"]["message"]


def test_omega_describe_rejects_r_below_one(capsys):
    for source in (["--poly", datasets.CHAIN_DELTA_TEXT],
                   ["--desc", desc_json(datasets.closed_omega_description())]):
        code, data = run_json(capsys, "omega-describe", "--r", "0", *source)
        assert code == 1
        assert data["error"]["message"] == "r must be >= 1"


def test_omega_describe_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["omega-describe", "--r", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# schubert-eqs
# ---------------------------------------------------------------------------

def test_schubert_eqs_json_and_text(capsys):
    code, data = run_json(capsys, "schubert-eqs", "--r", "2",
                          "--space", '[[0, 0, 1, 0], [0, 0, 0, 1]]')
    assert code == 0
    assert data["subsets"] == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert len(data["forms"]) == 1
    assert data["forms"][0] == ["1", "0", "0", "0", "0", "0"]
    code, out = run(capsys, "schubert-eqs", "--r", "2",
                    "--space", '[[0, 0, 1, 0], [0, 0, 0, 1]]',
                    "--format", "text")
    assert code == 0
    assert "1*p12 = 0" in out


def test_schubert_eqs_rejects_zero_space(capsys):
    code, data = run_json(capsys, "schubert-eqs", "--r", "2", "--space", "[]")
    assert code == 1
    assert data["error"]["type"] == "ValueError"


def test_plucker_work_over_the_budget_is_refused_at_once(capsys):
    # C(40, 20) ~ 1.4e11 coordinates: each command used to run for minutes
    n = 40
    e1 = json.dumps([[1] + [0] * (n - 1)])
    hyperplane = json.dumps([[int(i == j) for j in range(n)]
                             for i in range(n - 1)])
    half = [[int(i == j) for j in range(n)] for i in range(20)]
    desc = json.dumps({"n": n, "components": [
        {"lambda": ["0"] * (n - 1) + ["1/2"], "basis": half}]})
    for argv in (["schubert-eqs", "--space", e1, "--r", "20"],
                 ["schubert-eqs", "--space", hyperplane, "--r", "20"],
                 ["witness", "--desc", desc, "--component", "0", "--r", "20",
                  "--q", "1"]):
        start = time.perf_counter()
        code, data = run_json(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "PLUCKER_BUDGET" in data["error"]["message"]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_json(capsys):
    code, data = run_json(capsys, "witness",
                          "--desc", desc_json(datasets.surface_description()),
                          "--component", "0", "--r", "2", "--q", "1,2,4")
    assert code == 0
    assert data["member"] is True
    assert [s["plucker_distance"] for s in data["family"]] == ["1/2", "1/4", "1/8"]
    assert all(s["member"] is False for s in data["family"])


def test_witness_text(capsys):
    code, out = run(capsys, "witness",
                    "--desc", desc_json(datasets.surface_description()),
                    "--component", "0", "--r", "2", "--q", "1,2",
                    "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("P = ") and lines[0].endswith("-> member")
    assert lines[1].strip() == "q=1: distance 1/2 -> blocked"
    assert lines[2].strip() == "q=2: distance 1/4 -> blocked"


def test_witness_hypothesis_failure_is_domain_error(capsys):
    code, data = run_json(capsys, "witness",
                          "--desc", desc_json(datasets.surface_description()),
                          "--component", "1", "--r", "2", "--q", "1")
    assert code == 1
    assert "hypothesis (1)" in data["error"]["message"]


# ---------------------------------------------------------------------------
# fpk
# ---------------------------------------------------------------------------

def test_fpk_json(capsys):
    graded = datasets.free2_cube_graded(3)
    code, data = run_json(capsys, "fpk", "--graded",
                          json.dumps(graded_json(graded)), "--k", "3", "--r", "1")
    assert code == 0
    assert data["certified_empty"] is True
    assert "not finitely generated" in data["deduction"]


def test_fpk_uncertified(capsys):
    graded = datasets.free2_cube_graded(3)
    code, data = run_json(capsys, "fpk", "--graded",
                          json.dumps(graded_json(graded)), "--k", "2", "--r", "1")
    assert code == 0
    assert data["certified_empty"] is False and "deduction" not in data


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_missing_file_is_domain_error(capsys):
    code, data = run_json(capsys, "omega-test", "--desc", "/no/such/file.json",
                          "--plane", "[[1, 0]]")
    assert code == 1
    assert data["error"]["type"] in ("FileNotFoundError", "OSError")


def test_malformed_inline_json_is_domain_error(capsys):
    code, data = run_json(capsys, "omega-test", "--desc", '{"n": 2',
                          "--plane", "[[1, 0]]")
    assert code == 1
    assert data["error"]["type"] == "JSONDecodeError"


def test_output_is_deterministic(capsys):
    args = ["omega-describe", "--r", "1", "--poly", datasets.CHAIN_DELTA_TEXT]
    code1, first = run(capsys, *args)
    code2, second = run(capsys, *args)
    assert code1 == code2 == 0
    assert first == second


# ---------------------------------------------------------------------------
# the memo of parsed descriptions and presentations
# ---------------------------------------------------------------------------

def test_memo_key_is_the_file_content_not_its_path(capsys, tmp_path):
    path = tmp_path / "desc.json"
    argv = ("omega-test", "--desc", str(path), "--plane", "[[1, 0]]")
    path.write_text('{"n": 2, "components": [{"lambda": [0, 0], '
                    '"basis": [[1, 0]]}]}', encoding="utf-8")
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["member"] is False
    path.write_text('{"n": 2, "components": [{"lambda": [0, 0], '
                    '"basis": [[0, 1]]}]}', encoding="utf-8")
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["member"] is True


def test_memo_keeps_no_refused_input(capsys):
    from jumploci import cli
    for argv in (("omega-test", "--desc", _desc_with(["1/0", "0"], []),
                  "--plane", "[[1, 0]]"),
                 ("alexander", "--pres", "<a, b | c>")):
        first = run(capsys, *argv)
        assert first[0] == 1
        assert run(capsys, *argv) == first
    assert not cli._description.entries and not cli._presentation.entries


def test_memo_keeps_the_most_recent_descriptions(capsys):
    from jumploci import cli
    texts = [json.dumps({"n": n, "components": []}) for n in range(1, 18)]
    for text in texts:
        assert run(capsys, "tcone", "--desc", text)[0] == 0
    assert len(texts) == cli.MEMO_ENTRIES + 1
    assert list(cli._description.entries) == texts[1:]


def test_memo_answers_but_does_not_keep_heavy_inputs(capsys):
    from jumploci import cli
    # 100,000 matrix terms, about 13 MB, from a 38-character text
    heavy = "<x1, x2 | x1^49999 x2 x1^-49999 x2^-1>"
    code, data = run_json(capsys, "alexander", "--pres", heavy)
    assert code == 0
    assert sum(len(e) for row in data["matrix"]["entries"] for e in row) \
        == 100_000
    assert not cli._presentation.entries
    light = datasets.ONE_RELATOR_PRES
    assert run(capsys, "alexander", "--pres", light)[0] == 0
    assert list(cli._presentation.entries) == [light]
    # a description longer than the cap, padded with spaces
    long_desc = LINE_DESC[:-1] + " " * cli.MEMO_WEIGHT + "}"
    code, data = run_json(capsys, "omega-test", "--desc", long_desc,
                          "--plane", "[[0, 1]]")
    assert code == 0 and data["member"] is True
    assert not cli._description.entries


# ---------------------------------------------------------------------------
# argument dispatch and the JSON writer
# ---------------------------------------------------------------------------

def _reference_main(argv):
    """The command line as one pass of the whole parser and ``json.dumps``:
    what ``main`` must print and return, byte for byte."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.subcommand in ("tcone", "omega-describe")
            and bool(args.poly) == bool(args.desc)):
        parser.error(f"{args.subcommand} needs exactly one of --poly / --desc")
    try:
        payload, lines = args.handler(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}, indent=2))
        return 1
    print("\n".join(lines) if args.format == "text"
          else json.dumps(payload, indent=2))
    return 0


POINT = '{"n": 2, "components": [{"lambda": ["1/2", "0"], "basis": []}]}'
PLANE = "[[1, 0]]"
PRES = "<x1, x2 | [x1, x2]>"


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["omega-test", "-h"],
    ["bogus", "--desc", POINT],
    ["omega-test", "--plane", PLANE],                      # missing --desc
    ["omega-test", "--bogus", "1"],
    ["omega-test", "--desc", POINT, "--plane", PLANE, "--bogus", "1"],
    ["omega-test", "--desc", POINT, "--plane", PLANE, "--r", "one"],
    ["tcone", "--poly", "t1 - 1", "--format", "xml"],
    ["alexander", "--pres", PRES, "extra"],
    ["omega-test", "--des", POINT, "--pla", PLANE],
    ["omega-test", f"--desc={POINT}", f"--plane={PLANE}", "--r=1"],
    ["alexander", "--", "--pres", PRES],
    ["alexander", "--pres", PRES, "--"],
    ["--", "alexander", "--pres", PRES],
    ["-h", "alexander"],
    ["tcone"],
    ["tcone", "--poly", "t1 - 1", "--desc", POINT],
    ["omega-describe", "--r", "1"],
    ["omega-describe", "--r", "1", "--poly", "t1 - 1", "--desc", POINT],
    ["omega-test", "--desc", POINT, "--plane", "[[1, 0, 0]]"],
    ["omega-test", "--desc", POINT, "--plane", PLANE, "--format", "text"],
])
def test_main_matches_one_pass_of_the_whole_parser(capsys, argv):
    # exit code, stdout and stderr, of usage errors, help, domain errors
    # and answers alike
    def outcome(run_argv):
        try:
            code = run_argv(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, capsys.readouterr()

    expected = outcome(_reference_main)
    assert outcome(main) == expected


def test_unrecognized_arguments_exit_2_naming_them(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["omega-test", "--desc", POINT, "--plane", PLANE, "--bogus", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: jumploci [-h]")
    assert err.endswith("jumploci: error: unrecognized arguments: --bogus 1\n")


def _outcome(call):
    """What ``call()`` returns, or ("exit", code) if it exits, with what it
    printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def test_option_table_reads_what_the_whole_parser_reads():
    # every subcommand's options in any order, repeated, mixed with help,
    # abbreviations, --option=value, --, unknown options and values that
    # start with a dash: the table's Namespace is parse_args's, and a call
    # parse_args refuses exits from main with its code and text
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, tables = cli._parser()
    reference = build_parser()
    odd = ["-h", "--help", "--des", f"--desc={POINT}", "--", "--bogus"]
    values = st.sampled_from([POINT, PLANE, PRES, "[[1]]", "t1 - 1", "", "1",
                              "01", "-1", "- t1 + 1", "-t1 + 1", "--plane",
                              "-h x"])

    @st.composite
    def calls(draw):
        name = draw(st.sampled_from(sorted(tables) + ["-h", "bogus"]))
        own = sorted(tables[name][0]) if name in tables else []
        keys = st.sampled_from(own + odd)
        pairs = draw(st.lists(st.tuples(keys, values), max_size=6))
        tail = draw(st.lists(keys | values, max_size=1))
        return [name] + [s for pair in pairs for s in pair] + tail

    read = []

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(calls())
    @hypothesis.example(["omega-test", "--plane", PLANE, "--desc", POINT,
                         "--r", "01", "--r", "1"])
    @hypothesis.example(["tcone", "--poly", "- t1 + 1", "--poly", "t1 - 1",
                         "--format", "text"])
    @hypothesis.example(["schubert-eqs", "--space", "[[1]]", "--r", "-1"])
    @hypothesis.example(["tcone", "--poly", "-t1 + 1", "--des", POINT])
    def check(argv):
        expected = _outcome(lambda: vars(reference.parse_args(argv)))
        table = (cli._read_table(tables[argv[0]], argv[1:])
                 if argv[0] in tables else None)
        if isinstance(expected[0], dict):
            assert expected[1:] == ("", "")
            assert vars(cli._parse(argv)[1]) == expected[0]
            read.append(table is not None)
        else:
            assert table is None
            assert _outcome(lambda: main(argv)) == expected

    check()
    assert any(read) and not all(read)


def test_table_read_poly_leaves_the_default_list_alone(capsys):
    for name, argv in (("tcone", []), ("omega-describe", ["--r", "1"])):
        options = cli._parser()[1][name][0]
        for _ in range(2):
            args = cli._parse([name, "--poly", "t1 - 1", "--poly",
                               "- t2 + 1"] + argv)[1]
            assert args.poly == ["t1 - 1", "- t2 + 1"]
        assert options["--poly"].default == []
        assert run(capsys, name, "--poly", "t1 - 1", *argv)[0] == 0
        assert options["--poly"].default == []


def test_closed_stdout_exits_1_without_a_traceback():
    # the read end is closed before the interpreter starts, so the first
    # write fails; a traceback, or Python's "Exception ignored" note at its
    # last flush, would land on stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["schubert-eqs", "--space", "[[1, 2, 3, 4, 5, 6]]",
                      "--r", "2"],
                     ["omega-test", "--desc", POINT, "--plane", "[[1]]"]):
            proc = subprocess.run(
                [sys.executable, "-m", "jumploci.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": src})
            assert (proc.returncode, proc.stderr) == (1, b"")
    finally:
        os.close(write_end)


def test_json_writer_is_json_dumps_with_indent_2():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from jumploci.cli import _dumps

    text = st.text(st.characters(exclude_categories=()), max_size=8)
    scalars = (st.none() | st.booleans() | text
               | st.integers(-2 ** 70, 2 ** 70) | st.integers())
    values = st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.lists(text, max_size=4)
                       | st.dictionaries(text, inner, max_size=4)),
        max_leaves=30)

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(values)
    @hypothesis.example(["é☃\U0001f600", '"\\', "\x00\x1f\x7f", "\ud800"])
    @hypothesis.example({"": [], "a": {}, "b": (), "c": [[], {}],
                         "\udfff": -2 ** 64 - 1, "t": [True, False, None]})
    def check(value):
        assert _dumps(value) == json.dumps(value, indent=2)

    check()
    for bad in (Fraction(1, 2), [1, Fraction(1, 2)], {"x": 1.5},
                {1: "int key"}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            _dumps(bad)
