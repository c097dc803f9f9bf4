import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import (
    ScenarioError,
    counting_measure,
    generate_scenarios,
    load_scenario,
    make_finite_measure,
    render_json,
    render_text,
    run_scenario,
    run_scenario_file,
)
from gibbsgap.cli import main
from gibbsgap.scenario import MAX_ORACLE_ITERS

REPO = Path(__file__).resolve().parent.parent
TWO_POINT = REPO / "scenarios" / "two_point.json"
DATA = REPO / "tests" / "data"
VIOLATION = REPO / "scenarios" / "designed_violation.json"


def _cli_subprocess(*args):
    """The ``python -m gibbsgap.cli`` entry point in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsgap.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _cli(*args):
    """``main`` in this process: ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# bundled scenarios


def test_two_point_scenario_passes():
    report, code = run_scenario_file(TWO_POINT)
    assert code == 0
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == 9
    by_identity = {r["identity"] for r in report["records"]}
    assert "gap-common-reference" in by_identity
    assert "variational-optimum" in by_identity


def test_two_point_gap_record_values():
    report, _ = run_scenario_file(TWO_POINT)
    rec = report["records"][0]
    assert rec["direct"] == -1.0
    assert abs(rec["closed_form"] - (-1.0)) <= 1e-12
    assert rec["status"] == "pass"


def test_designed_violation_passes_via_expected_errors():
    report, code = run_scenario_file(VIOLATION)
    assert code == 0
    statuses = [r["status"] for r in report["records"]]
    assert statuses.count("expected-error") == 3
    assert all(s in ("pass", "expected-error") for s in statuses)
    failing = [r for r in report["records"] if r["status"] == "expected-error"]
    assert {r["error"] for r in failing} == {
        "MutualContinuityViolated",
        "NotAbsolutelyContinuous",
    }


def test_two_point_scenario_passes_at_extreme_tilts(tmp_path):
    # exp(-800) underflows a Gibbs atom to 0, but its log atom stays finite
    doc = json.loads(TWO_POINT.read_text())
    doc["lambdas"] = [800, -800]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report, code = run_scenario_file(path)
    assert [r["status"] for r in report["records"]] == ["pass"] * 18, render_text(report)
    assert code == 0


def test_generated_ops_pass_at_extreme_tilts(tmp_path):
    (path,) = generate_scenarios(11, nx=4, ny=64, count=1, out_dir=tmp_path)
    doc = json.loads(path.read_text())
    doc["lambdas"] = [800, -800]
    path.write_text(json.dumps(doc))
    report, code = run_scenario_file(path)
    assert len({r["identity"] for r in report["records"]}) == 9
    assert [r["status"] for r in report["records"]] == ["pass"] * 20, render_text(report)
    assert code == 0


def test_cli_exit_codes_for_bundled_scenarios():
    code, out, _ = _cli_subprocess("verify", TWO_POINT)
    assert code == 0
    assert "summary: 9/9 passed" in out
    code, out, _ = _cli_subprocess("verify", VIOLATION)
    assert code == 0


# ---------------------------------------------------------------------------
# failure and input-error paths


def test_unmet_expectation_is_a_failure(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["pairs"] = [
        {"op": "gap_closed_form", "x_index": 0, "p1": "point0", "p2": "point1",
         "expect": "error:NotAbsolutelyContinuous"},
    ]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report, code = run_scenario_file(path)
    assert code == 1
    assert report["records"][0]["status"] == "fail"
    assert "no error was raised" in report["records"][0]["note"]


@pytest.mark.parametrize(
    "name",
    ["Nope", "ValueError", "ScenarioError", "GibbsGapError",
     # only building a measure raises these, and a loaded scenario has built its measures
     "DuplicatePoint", "EmptySupport", "NegativeWeight", "ZeroMass"],
)
def test_an_expected_error_no_check_can_raise_exits_2_naming_the_check(tmp_path, name):
    doc = json.loads(TWO_POINT.read_text())
    doc["pairs"][1]["expect"] = f"error:{name}"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=rf"^pairs\[1\]: 'expect' names '{name}'"):
        load_scenario(path)
    code, out, err = _cli("verify", path)
    assert code == 2 and out == ""
    assert err.startswith("error: pairs[1]: 'expect'") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["x_points", "y_support"])
def test_ragged_points_exit_2_naming_the_dimension(tmp_path, key):
    doc = json.loads(TWO_POINT.read_text())
    doc[key] = [[0.0], [1.0, 2.0]]
    if key == "x_points":
        doc.update(cost=doc["cost"] * 2, p_x=[1.0, 1.0],
                   families={k: rows * 2 for k, rows in doc["families"].items()})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = _cli("verify", path)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.endswith("support points must all have the same dimension\n")


def test_absurd_tolerance_forces_failure():
    report, code = run_scenario_file(TWO_POINT, tolerance=1e-30)
    assert code == 1
    assert any(r["status"] == "fail" for r in report["records"])
    # per-check override in the file would still win; here none is set
    assert all(r["tolerance"] == 1e-30 for r in report["records"])


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema": 1, "name": ')
    code, _, err = _cli("verify", bad)
    assert code == 2
    assert "invalid JSON" in err
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_missing_file_exits_2(tmp_path):
    code, _, err = _cli("verify", tmp_path / "nope.json")
    assert code == 2
    assert "cannot read" in err


def test_a_file_that_is_not_utf8_exits_2_with_one_line(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"schema": 1, "name": "\xff"}')
    code, out, err = _cli("verify", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec") and err.count("\n") == 1


def test_a_utf8_scenario_verifies_under_an_ascii_locale(tmp_path):
    doc = json.loads(TWO_POINT.read_text(encoding="utf-8"))
    doc["name"] = "zwei Punkte – λ"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "gibbsgap.cli", "verify", str(path), "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["scenario"] == "zwei Punkte – λ"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("cost"),
        lambda d: d.pop("reference"),
        lambda d: d.update(schema=99),
        lambda d: d.update(lambdas=[0.0]),
        lambda d: d["pairs"].append({"op": "no_such_op"}),
        lambda d: d["pairs"].append({"op": "gap_closed_form", "p1": "ghost", "p2": "point1"}),
        lambda d: d["families"].update(bad=[[1.0]]),  # wrong row length
        lambda d: d.update(y_grid={"lo": 0.0, "hi": 1.0, "n_cells": 2}),  # both reps
        lambda d: d.update(reference=[1.0, 2.0, 3.0]),  # wrong length
        lambda d: d.update(p_x=[1.0, 1.0]),  # wrong length
        lambda d: d["pairs"].append({"op": "gap_closed_form", "p2": "point1"}),  # no p1
        lambda d: d["pairs"].append({"op": "gap_closed_form", "p1": "point0"}),  # no p2
        lambda d: d["pairs"].append({"op": "marginal_gap"}),  # no family
        lambda d: d["pairs"].append({"op": "expected_gap_closed_form", "family2": "even"}),
        lambda d: d["pairs"].append(
            {"op": "expected_gap_relative", "family1": "point0", "family2": "even",
             "direction": "sideways"}),
        lambda d: d["pairs"].append(
            {"op": "gap_closed_form", "x_index": -1, "p1": "point0", "p2": "point1"}),
        lambda d: d["pairs"].append(
            {"op": "gap_closed_form", "x_index": 1.5, "p1": "point0", "p2": "point1"}),
        lambda d: d["pairs"].append({"op": "marginal_gap", "family": "even", "alpha": 0.5}),
        lambda d: d["pairs"].append({"op": "gibbs_marginal_gap", "x_index": 0}),
        lambda d: d.update(schema=True),  # a bool is not the integer 1
        lambda d: d.update(schema=1.0),
        lambda d: d["families"].update(huge=[[10**400, 1]]),  # an integer too large for a float
        lambda d: d.update(cost=[[0.0, 10**400]]),
        lambda d: d.update(lambdas=[10**400]),
        lambda d: d["families"].update(huge=[["1e308", "1e308"]]),  # the total mass overflows
        lambda d: d.update(reference=[1e308, 1e308]),
        lambda d: d["pairs"][0].update(tolerance="inf"),
        lambda d: d["pairs"][0].update(tolerance=float("nan")),
        lambda d: (d.pop("y_support"), d.update(  # the mass overflows only times the cell width
            y_grid={"lo": 0.0, "hi": 1e300, "n_cells": 2}, reference=[1e300, 1e300])),
        lambda d: (d.pop("y_support"), d.update(  # the cell width rounds to zero
            y_grid={"lo": 0, "hi": 5e-324, "n_cells": 2}, reference="lebesgue")),
    ],
)
def test_schema_violations_raise_scenario_error(tmp_path, mutate):
    doc = json.loads(TWO_POINT.read_text())
    mutate(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError):
        load_scenario(path)
    code, _, err = _cli("verify", path)
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["0", "-1e-10", "inf", "nan"])
def test_cli_tolerance_must_be_finite_and_positive(tolerance):
    code, out, err = _cli("verify", TWO_POINT, f"--tolerance={tolerance}")
    assert code == 2 and out == ""
    assert err == "error: --tolerance must be finite and positive\n"


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"schema": 1, "name": ' + "[" * 100_000)
    code, out, err = _cli("verify", path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: invalid JSON: nested too deeply\n"


def test_integer_past_the_digit_limit_exits_2(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(TWO_POINT.read_text().replace('"lambdas": [', '"lambdas": [' + "9" * 5000 + ", "))
    code, _, err = _cli("verify", path)
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[-1, 2], ["x", 1]], "NegativeWeight: negative weight at atom 0"),
        ([[1, 1], ["x", 1]], "families.bad[1][0]: cannot parse 'x' as a number"),
        ([[1, 1], [True, 1]], "families.bad[1][0]: expected a number, got True"),
        ([[1, 1], [1, 10**400]], "families.bad[1][1]: " + str(10**400) + " is too large for a float"),
        ([[1, 1], [1e308, 1e308]], "NonFiniteValue: total mass overflows a float"),
        ([[1, -2], [1e308, 1e308]], "NegativeWeight: negative weight at atom 1"),
        ([[0, 0], [3, -4]], "ZeroMass: total mass must be strictly positive"),
        ([[1, 2], [3, -4]], "NegativeWeight: negative weight at atom 1"),
        ([[1, 2], [float("inf"), 1]], "NonFiniteValue: weights must be finite"),
        ([[1, 2], [float("inf"), float("-inf")]], "NonFiniteValue: weights must be finite"),
        ([[1, 2], [1]], "families.bad[1]: 1 weights for 2 support points"),
    ],
)
def test_a_family_reports_its_first_faulty_row(tmp_path, rows, message):
    # the rows are parsed and validated as one matrix; the error is the one the
    # first faulty row raises on its own, in row order
    doc = json.loads(VIOLATION.read_text())
    doc["families"]["bad"] = rows
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, _, err = _cli("verify", path)
    assert code == 2 and err.count("\n") == 1
    assert err.rstrip("\n").endswith(message)


@pytest.mark.parametrize(
    "name",
    ["two_point", "designed_violation", "generated-7-64x128", "multi_tilt", "multi_op", "multi_grid"])
def test_reports_match_the_golden_files(name, tmp_path):
    # tests/data holds `verify --format json` without wall_time_s of the bundled
    # scenarios, of `generate --seed 7 --nx 64 --ny 128`, whose 128-atom rows
    # take seven levels of the pairwise row sum, of tests/data/multi_tilt.json, whose
    # oracle checks each run at six tilts, of tests/data/multi_op.json, where
    # every op runs at six tilts and some tilts raise while others pass, and of
    # tests/data/multi_grid.json, the same on a 64-cell grid with a Lebesgue
    # reference that has null cells (both exit 1); a change that claims
    # byte-identical reports keeps them
    if name.startswith("generated"):
        (path,) = generate_scenarios(7, nx=64, ny=128, count=1, out_dir=tmp_path)
    elif name.startswith("multi"):
        path = REPO / "tests" / "data" / f"{name}.json"
    else:
        path = REPO / "scenarios" / f"{name}.json"
    report, code = run_scenario_file(path)
    del report["wall_time_s"]
    assert code == (1 if name in ("multi_op", "multi_grid") else 0)
    assert render_json(report) == (REPO / "tests" / "data" / f"{name}.report.json").read_text()


def test_bool_grid_cell_count_exits_2_naming_the_field(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    del doc["y_support"]
    doc["y_grid"] = {"lo": 0.0, "hi": 1.0, "n_cells": True}  # a bool is not the integer 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, _, err = _cli("verify", path)
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert "y_grid.n_cells" in err


def test_runtime_dimension_error_exits_2(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["pairs"] = [{"op": "gap_closed_form", "x_index": 5, "p1": "point0", "p2": "point1"}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, _, _ = _cli("verify", path)
    assert code == 2


@pytest.mark.parametrize(
    "bad",
    [{"seed": -1}, {"seed": True}, {"iters": True}, {"iters": 0},
     {"iters": MAX_ORACLE_ITERS + 1}],
)
def test_bad_oracle_seed_or_iters_exits_2_with_one_line(tmp_path, bad):
    doc = json.loads(TWO_POINT.read_text())
    doc["pairs"] = [{"op": "variational_oracle", "x_index": 0, **bad}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, _, err = _cli("verify", path)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("x_index", [True, 2])
def test_x_index_is_checked_against_the_number_of_x_points(tmp_path, capsys, x_index):
    # designed_violation has two x points, so a bool x_index would name row 1
    doc = json.loads(VIOLATION.read_text())
    doc["pairs"] = [{"op": "gap_closed_form", "x_index": x_index, "p1": "full", "p2": "partial"}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_default_labels_list_the_given_parameters_in_file_order(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["pairs"] = [
        {"op": "gap_mixture_reference", "p2": "point1", "alpha": "0.25", "p1": "point0"},
        {"op": "variational_oracle", "seed": 3, "x_index": 0, "iters": 50},
        {"op": "gibbs_marginal_gap", "name": ""},
        {"op": "marginal_gap", "family": "even", "name": "named"},
    ]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report, code = run_scenario_file(path)
    assert code == 0
    assert [r["check"] for r in report["records"]] == [
        "gap_mixture_reference(p2=point1, alpha=0.25, p1=point0)",
        "variational_oracle(x_index=0)",
        "gibbs_marginal_gap",
        "named",
    ]


def test_readme_scenario_example_loads_and_passes(tmp_path, capsys):
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    block = section[section.index("```jsonc") + len("```jsonc"):]
    block = block[:block.index("```")]
    path = tmp_path / "readme.json"
    path.write_text(re.sub(r"//[^\n]*", "", block))
    scn = load_scenario(path)
    assert len(scn.checks) >= 2
    assert main(["verify", str(path)]) == 0
    assert "summary: 2/2 passed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# parsing details


def test_decimal_string_weights_round_to_nearest(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["families"]["strings"] = [["0.1", "0.9"]]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    assert scn.families["strings"][0].weights[0] == 0.1  # same float as the literal


def test_a_loaded_family_is_one_matrix_of_normalized_rows(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    rows = [[0.1, 0.7], ["0.3", 0.2]]
    doc.update(x_points=[[0.0], [1.0]], cost=[[0.0, 1.0], [1.0, 0.0]], p_x=[1, 1],
               families={"mixed": rows}, pairs=[{"op": "marginal_gap", "family": "mixed"}])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    fam = scn.families["mixed"]
    assert fam.domain is scn.cost.y_support
    for k, row in enumerate(rows):
        want = make_finite_measure(scn.cost.y_support, [float(v) for v in row], normalize=True)
        assert fam[k].weights.tobytes() == want.weights.tobytes()  # the same per-row sum
        assert fam[k].is_probability and fam[k].domain is fam.domain
        assert not fam[k].weights.flags.writeable


def test_family_rows_are_normalized_on_load(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["families"]["raw"] = [[2.0, 6.0]]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    assert scn.families["raw"][0].weights.tolist() == [0.25, 0.75]
    assert scn.families["raw"][0].is_probability


def test_reference_is_not_normalized(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["reference"] = [2.0, 6.0]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(path)
    assert not scn.reference.is_probability


# ---------------------------------------------------------------------------
# report formats


def test_json_report_round_trips_numbers_exactly():
    report, _ = run_scenario_file(TWO_POINT)
    text = render_json(report)
    parsed = json.loads(text)
    for rec, back in zip(report["records"], parsed["records"]):
        if rec["direct"] is not None:
            assert back["direct"] == rec["direct"]
            assert back["closed_form"] == rec["closed_form"]
            assert back["discrepancy"] == rec["discrepancy"]
        for k, v in rec["terms"].items():
            assert back["terms"][k] == v
    assert "Infinity" not in text  # non-finite floats use quoted strings


def test_json_report_uses_17_significant_digits():
    report, _ = run_scenario_file(TWO_POINT)
    text = render_json(report)
    # the free-energy value has a 17-digit decimal expansion
    assert "-0.58496250072115619" in text


def test_json_report_serializes_non_finite_as_strings():
    from gibbsgap.scenario import render_json as rj

    doc = {"x": math.inf, "y": -math.inf, "z": math.nan}
    parsed = json.loads(rj(doc))
    assert parsed == {"x": "inf", "y": "-inf", "z": "nan"}


def _fmt17_reference(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _to_json_reference(value, indent: int) -> str:
    """The recursive renderer that ``render_json`` replaced, one ``json.dumps`` per string."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_to_json_reference(v, indent + 2)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_to_json_reference(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt17_reference(value)
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


_ODD_TEXT = st.sampled_from(['"', "\\", 'a "quoted\\" word', "\x00\x1f\x7f\n\t\r\b\f",
                             "caf\u00e9", "\u2028\u2029", "\U0001f600 \U00010348", "\ud800"])
_TEXT = st.text() | st.text(st.characters(min_codepoint=0x10000)) | _ODD_TEXT
_LEAVES = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                          -2.2250738585072e-309, 1e308, -1e308])
           | st.integers() | st.booleans() | st.none() | _TEXT)
_NESTS = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.lists(inner, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_TEXT, _NESTS, max_size=6))
def test_json_report_renders_as_the_recursive_renderer_byte_for_byte(report):
    assert render_json(report) == _to_json_reference(report, 0) + "\n"


def test_text_report_mentions_every_check():
    report, _ = run_scenario_file(TWO_POINT)
    text = render_text(report)
    assert text.count("[            PASS]") == 9
    assert "summary: 9/9 passed, 0 failed" in text


def test_cli_json_format_flag():
    code, out, _ = _cli("verify", TWO_POINT, "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["scenario"] == "two_point"
    assert parsed["summary"]["failed"] == 0


# ---------------------------------------------------------------------------
# generation


def test_generate_is_byte_identical(tmp_path):
    a = generate_scenarios(9, nx=2, ny=5, count=3, out_dir=tmp_path / "a")
    b = generate_scenarios(9, nx=2, ny=5, count=3, out_dir=tmp_path / "b")
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_generate_then_verify_passes(tmp_path):
    for seed in (0, 1, 2):
        for path in generate_scenarios(seed, nx=2, ny=6, count=1, out_dir=tmp_path):
            report, code = run_scenario_file(path)
            assert code == 0, render_text(report)


def test_generate_degenerate_single_outcome(tmp_path):
    # ny = 1: every measure is the point mass, every gap is zero
    for path in generate_scenarios(5, nx=2, ny=1, count=1, out_dir=tmp_path):
        report, code = run_scenario_file(path)
        assert code == 0
        gaps = [
            r["direct"] for r in report["records"]
            if r["identity"].startswith(("gap-", "expected-gap", "marginal", "gibbs-"))
        ]
        assert all(abs(v) <= 1e-15 for v in gaps)


def test_generate_rejects_bad_counts(tmp_path):
    with pytest.raises(ValueError):
        generate_scenarios(1, nx=0, ny=3, count=1, out_dir=tmp_path)


def test_cli_generate_of_a_bad_count_exits_2_with_one_line_and_writes_nothing(tmp_path):
    out_dir = tmp_path / "out"
    code = _cli("generate", "--seed", 1, "--nx", 0, "--ny", 2, "--count", 1, "--out", out_dir)
    assert code == (2, "", "error: nx, ny and count must all be >= 1\n")
    assert not out_dir.exists()


def test_cli_generate_writes_and_reports_paths(tmp_path):
    code, out, _ = _cli(
        "generate", "--seed", 3, "--nx", 2, "--ny", 4, "--count", 2, "--out", tmp_path
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(Path(line).exists() for line in lines)


def test_generate_into_a_path_it_cannot_write_exits_2_with_one_line(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out_dir in (taken, taken / "below"):  # a file, and a directory under a file
        code, out, err = _cli(
            "generate", "--seed", 1, "--nx", 2, "--ny", 2, "--count", 1, "--out", out_dir
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_dir}: ") and err.count("\n") == 1


def test_main_is_callable_in_process(capsys):
    assert main(["verify", str(TWO_POINT)]) == 0
    out = capsys.readouterr().out
    assert "summary: 9/9 passed" in out


def test_checks_run_once_per_lambda(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc["lambdas"] = [0.5, -0.5, 2.0]
    doc["pairs"] = [{"op": "gap_closed_form", "x_index": 0, "p1": "point0", "p2": "point1"}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report, code = run_scenario_file(path)
    assert code == 0
    assert [r["lambda"] for r in report["records"]] == [0.5, -0.5, 2.0]


def test_an_overflowing_oracle_step_does_not_warn(tmp_path):
    # at lam = 800 a step on the cost 1e306 overflows and the row cannot
    # certify; at lam = -800 the tilt itself overflows.  Both are records,
    # and NumPy prints nothing
    doc = {
        "schema": 1, "name": "oracle_overflow", "y_support": [[0.0], [1.0], [2.0]],
        "x_points": [[0.0]], "cost": [[1e306, 0.0, 1.0]], "reference": [0.2, 0.3, 0.5],
        "lambdas": [800.0, -800.0], "p_x": [1.0], "pairs": [{"op": "variational_oracle"}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _cli("verify", path, "--format", "json")
    assert (code, err, caught) == (1, "", [])
    records = json.loads(out)["records"]
    assert [(r["error"], r["note"]) for r in records] == [
        ("NonConvergence", "residual nan > 2.5e-13 after 800 iterations"),
        ("InfiniteLogPartition", "log-partition value is inf"),
    ]


def test_an_overflowing_expectation_is_a_record_not_a_traceback():
    # both costs are -1.7976931348623157e308: the tilt's log atoms are 0 and 0,
    # so E_G[h] sums past the largest float
    code, out, err = _cli("verify", DATA / "expectation_overflow.json", "--format", "json")
    assert (code, err) == (1, "")
    assert [(r["check"], r["error"], r["note"]) for r in json.loads(out)["records"]] == [
        (op, "NonFiniteValue", "expectation overflows a float")
        for op in ("free_energy_identities", "gibbs_marginal_gap")
    ]


def test_an_error_an_op_group_raises_before_any_check_is_the_record_of_each():
    # a reference on three points against a cost table on two: the free-energy and oracle
    # groups raise before any check, each gap op that reads the reference before any tilt
    # of its check; the relative and mixture forms read no reference and pass
    scn = dataclasses.replace(load_scenario(TWO_POINT), lambdas=(0.5, -2.0),
                              reference=counting_measure([[0.0], [1.0], [2.0]]))
    records = run_scenario(scn)["records"]
    assert len(records) == 2 * len(scn.checks) == 18
    mismatch = ("unexpected-error", "RepresentationMismatch",
                "measure does not live on the cost table's Y-representation")
    free = {"gap-mixture-reference", "gap-relative-reference", "expected-gap-relative-reference"}
    assert {(r["identity"], r["status"], r["error"], r["note"]) for r in records} == {
        *((tag, *mismatch) for tag in ("free-energy", "variational-optimum",
                                       "gap-common-reference", "expected-gap-common-reference",
                                       "marginal-gap-information", "gibbs-marginal-gap")),
        *((tag, "pass", None, None) for tag in free)}


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize(
    "doc, records",
    [
        ({  # E_P[h] and E_G[h] sum past the largest float at the optimum
            "y_support": [[0.0], [1.0], [2.0]], "x_points": [[0.0]],
            "cost": [[_MAX, 1.7958954417274534e308, _MAX]], "reference": [0.2, 0.3, 0.5],
            "lambdas": [-1.0], "p_x": [1.0],
            "pairs": [{"op": "variational_oracle"}, {"op": "free_energy_identities"}],
        }, [("variational_oracle", "NonFiniteValue", "expectation overflows a float"),
            ("free_energy_identities", "NonFiniteValue", "expectation overflows a float")]),
        ({  # the gaps of points 0 and 1 overflow to +inf and -inf
            "y_support": [[0.0], [1.0]], "x_points": [[0.0], [1.0], [2.0]],
            "cost": [[_MAX, -_MAX], [-_MAX, _MAX], [0.0, 0.0]], "reference": "counting",
            "lambdas": [1.0], "p_x": [0.05, 0.05, 0.9],
            "families": {"f": [[0.001, 0.999], [0.001, 0.999], [0.999, 0.001]]},
            "pairs": [{"op": "marginal_gap", "family": "f"}],
        }, [("marginal_gap(family=f)", "NonFiniteExpectation", "gap evaluated to inf")]),
    ],
    ids=["oracle", "marginal-gap"],
)
def test_a_value_past_the_largest_float_is_a_record_not_a_traceback(tmp_path, doc, records):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"schema": 1, "name": "overflow", **doc}))
    code, out, err = _cli("verify", path, "--format", "json")
    assert (code, err) == (1, "")
    assert [(r["check"], r["error"], r["note"]) for r in json.loads(out)["records"]] == records


def test_a_grid_row_rescaled_past_the_largest_float_exits_2_with_one_line(tmp_path):
    doc = {"schema": 1, "name": "subnormal_cell", "x_points": [[0.0]],
           "y_grid": {"lo": 0.0, "hi": 1e-310, "n_cells": 1}, "cost": [[0.0]],
           "reference": "lebesgue", "lambdas": [1.0], "p_x": [1.0], "families": {"f": [[1.0]]},
           "pairs": [{"op": "marginal_gap", "family": "f"}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert _cli("verify", path) == (
        2, "", f"error: {path}: NonFiniteValue: total mass overflows a float\n")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: (d.pop("y_support"), d.update(y_grid=[0.0, 1.0, 2])),
         "'y_grid' must be an object with lo/hi/n_cells"),
        (lambda d: d.update(reference="lebesgue"),
         "a 'lebesgue' reference does not fit this Y-representation"),
        (lambda d: d.pop("pairs"), "scenario needs a non-empty 'pairs' list of checks"),
        (lambda d: d["pairs"].insert(0, ["gap_closed_form"]), "pairs[0]: each check must be an object"),
        (lambda d: d.update(x_points=[0, 1], cost=[[0, 1], [1]]),
         "cost[1]: 1 values, but cost[0] has 2"),
        (lambda d: d.update(x_points=5), "x_points: expected a non-empty list of points"),
        (lambda d: d["pairs"][0].update(name=5), "pairs[0]: 'name' must be a string"),
    ],
    ids=["y_grid-not-an-object", "lebesgue-on-points", "no-pairs", "check-not-an-object",
         "ragged-cost", "x_points-not-a-list", "label-not-a-string"],
)
def test_a_loader_exit_names_its_fault(tmp_path, mutate, message):
    doc = json.loads(TWO_POINT.read_text())
    mutate(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as e:
        load_scenario(path)
    assert str(e.value) == message
    assert _cli("verify", path) == (2, "", f"error: {message}\n")


def test_cost_rows_of_one_wrong_width_name_the_columns_and_the_y_atoms(tmp_path):
    doc = json.loads(TWO_POINT.read_text())
    doc.update(x_points=[0, 1], cost=[[0, 1, 2], [1, 2, 3]])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert _cli("verify", path) == (
        2, "", f"error: {path}: IndexMismatch: 3 cost columns for 2 Y atoms\n")


@pytest.mark.parametrize("path", [TWO_POINT, DATA / "multi_grid.json"], ids=["points", "grid"])
def test_every_measure_of_a_loaded_scenario_lives_on_the_cost_tables_supports(path):
    scn = load_scenario(path)
    assert scn.is_grid == (path != TWO_POINT)
    assert scn.reference.domain is scn.cost.y_support
    assert scn.p_x.domain is scn.cost.x_points
    assert scn.families
    for fam in scn.families.values():
        assert fam.domain is scn.cost.y_support
        assert fam.x_points is scn.cost.x_points


# ---------------------------------------------------------------------------
# stdout: an encoding that cannot hold the report, and a reader that goes away


@pytest.mark.parametrize(
    "env, encoding, first_line",
    [
        ({"LC_ALL": "C"}, "ascii", "scenario: zwei Punkte \\u2013 \\u03bb, caf\\xe9"),
        ({"PYTHONIOENCODING": "latin-1"}, "latin-1", "scenario: zwei Punkte \\u2013 \\u03bb, café"),
        ({"PYTHONIOENCODING": "utf-8"}, "utf-8", "scenario: zwei Punkte – λ, café"),
    ],
)
def test_a_text_report_escapes_what_stdout_cannot_encode(tmp_path, env, encoding, first_line):
    doc = json.loads(TWO_POINT.read_text(encoding="utf-8"))
    doc["name"] = "zwei Punkte – λ, café"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "gibbsgap.cli", "verify", str(path)],
        capture_output=True, env={**os.environ, **env},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = proc.stdout.decode(encoding).splitlines()
    assert lines[0] == first_line and lines[-1].startswith("summary: 9/9 passed")


def test_a_closed_stdout_ends_generate_without_a_traceback(tmp_path):
    # generate writes far more than a pipe holds; the reader takes one line and closes
    # its end, so a later write meets a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "gibbsgap.cli", "generate", "--seed", "1", "--nx", "2", "--ny", "3",
         "--count", "2000", "--out", str(tmp_path / ("d" * 100))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first and (proc.wait(), err) == (1, b"")


def test_a_closed_stdout_ends_verify_without_a_traceback():
    # stdout is a pipe whose reader is gone before verify writes its report
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "gibbsgap.cli", "verify", str(TWO_POINT)],
                            stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_a_reader_gone_mid_report_ends_an_unbuffered_verify_with_exit_1(tmp_path):
    # unbuffered, stdout's buffer is a raw file: once the reader closes, a write
    # into the pipe returns a short count, and the rest of the report must still
    # be written, meet the broken pipe and exit 1
    doc = json.loads(TWO_POINT.read_text())
    doc["pairs"] *= 100  # a text report of about 370 KB, far more than a pipe holds
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.Popen([sys.executable, "-m", "gibbsgap.cli", "verify", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": "1"})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"scenario: two_point\n" and (proc.wait(), err) == (1, b"")
