"""Scenario files: load, run, report, and generate.

A scenario is a JSON document (``"schema": 1``) describing one experiment:
a Y-representation, conditioning points, a cost table, a reference
measure, a list of tilt parameters, an X-marginal, named conditional
families, and a list of identity checks (``"pairs"``).  Every check runs
at all the tilt parameters in one kernel call, in declaration order, and
the outcome is a report with one record per (check, lambda).  A kernel
checks its inputs and sums the terms that do not depend on the tilt once,
and the rest at each tilt; the tilts of a single cost row are stacked as
the rows of one sum.  The results are those of one call per tilt.

Numeric scenario fields may be JSON numbers or decimal strings
(``"0.1"``); strings go through ordinary round-to-nearest float parsing,
so weights can be stated exactly in decimal.  Family rows and ``p_x`` are
normalized to probabilities at load time; the reference is taken as-is
(sigma-finite references are legitimate).

A check passes when its discrepancy is within tolerance.  A check that
declares ``"expect": "error:Name"`` passes exactly when running it raises
that error — designed-violation scenarios exit 0.  Tolerance defaults to
1e-10 for finite supports and 1e-6 for grids; a per-check ``tolerance``
beats the runner-level override, which beats the default.

Report JSON is schema-stable (``"schema": 1``): records carry the check
name, the identity tag, lambda, direct and closed-form values, the term
table, discrepancy, tolerance and status.  All numbers are serialized with
17 significant digits; non-finite values become the strings ``"inf"``,
``"-inf"``, ``"nan"``.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .errors import GibbsGapError, ScenarioError
from .gaps import (
    _common_gap,
    _expected_common,
    _expected_relative,
    _gibbs_marginal,
    _marginal,
    _mixture_gap,
    _relative_gap,
)
from .gibbs import CostTable, _free_energy_rows, _oracle_rows
from .measures import (
    ConditionalFamily,
    FiniteMeasure,
    Measure,
    _probability_family,
    make_finite_measure,
    make_grid_density,
)

__all__ = [
    "Scenario",
    "Check",
    "load_scenario",
    "run_scenario",
    "run_scenario_file",
    "render_text",
    "render_json",
    "generate_scenarios",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

#: Default check tolerances by Y-representation.
DEFAULT_TOL_FINITE = 1e-10
DEFAULT_TOL_GRID = 1e-6

@dataclass(frozen=True)
class Check:
    """One identity check: an op name, its validated parameters and its label.

    ``params`` holds every parameter of the op, defaults included; a family
    parameter holds the :class:`ConditionalFamily` it names.
    """

    op: str
    params: dict[str, Any]
    tolerance: Optional[float] = None
    expect_error: Optional[str] = None
    label: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """A fully constructed scenario, ready to run."""

    name: str
    cost: CostTable
    reference: Measure
    lambdas: tuple[float, ...]
    p_x: FiniteMeasure
    families: dict[str, ConditionalFamily]
    checks: tuple[Check, ...]
    is_grid: bool


# ---------------------------------------------------------------------------
# loading


def _num(value, where: str) -> float:
    """Accept JSON numbers or decimal strings; reject everything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{where}: cannot parse {value!r} as a number") from None
    except OverflowError:
        raise ScenarioError(f"{where}: {value!r} is too large for a float") from None


def _num_list(values, where: str) -> np.ndarray:
    """A non-empty list of numbers as a float array.  A list of ``int`` and ``float``
    entries only is converted in one call; any other goes entry by entry through
    :func:`_num`, which names a bad entry."""
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"{where}: expected a non-empty list of numbers")
    if set(map(type, values)) <= {float, int}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:
            pass  # an integer too large for a float, named entry by entry
    return np.array([_num(v, f"{where}[{i}]") for i, v in enumerate(values)])


def _num_matrix(values, where: str) -> list[np.ndarray]:
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"{where}: expected a non-empty list of rows")
    return [_num_list(row, f"{where}[{i}]") for i, row in enumerate(values)]


def _points(values, where: str) -> list:
    """Points may be scalars or coordinate lists; normalize to vectors."""
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"{where}: expected a non-empty list of points")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, list):
            out.append(_num_list(v, f"{where}[{i}]"))
        else:
            out.append([_num(v, f"{where}[{i}]")])
    return out


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises :class:`~gibbsgap.errors.ScenarioError` for anything wrong with
    the input — JSON syntax, schema shape, or measure construction — so the
    caller can map every input problem to exit code 2.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer literal past Python's digit limit
        raise ScenarioError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from None
    del text  # not needed past parsing: free it before the matrices are built
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 are not schema 1
        raise ScenarioError(f"{path}: unsupported schema {schema!r} (want {SCHEMA_VERSION})")
    try:
        return _build_scenario(doc)
    except ScenarioError:
        raise
    except GibbsGapError as e:
        raise ScenarioError(f"{path}: {type(e).__name__}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise ScenarioError(f"{path}: malformed scenario: {e}") from e


def _build_scenario(doc: dict) -> Scenario:
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario needs a non-empty string 'name'")
    if ("y_support" in doc) == ("y_grid" in doc):
        raise ScenarioError("exactly one of 'y_support' / 'y_grid' must be present")
    for key in ("x_points", "cost", "reference"):
        if key not in doc:
            raise ScenarioError(f"scenario needs '{key}'")
    x_points = _points(doc["x_points"], "x_points")
    cost_rows = _num_matrix(doc["cost"], "cost")

    is_grid = "y_grid" in doc
    if not is_grid:
        y_support = _points(doc["y_support"], "y_support")
        n_y = len(y_support)
        unit = "weights for {} support points"
        cost = CostTable.on_support(x_points, y_support, cost_rows)
        build = functools.partial(make_finite_measure, cost.y_support)
    else:
        g = doc["y_grid"]
        if not isinstance(g, dict):
            raise ScenarioError("'y_grid' must be an object with lo/hi/n_cells")
        lo = _num(g.get("lo"), "y_grid.lo")
        hi = _num(g.get("hi"), "y_grid.hi")
        n_y = _int_in(g.get("n_cells"), "y_grid.n_cells", 1)
        unit = "values for {} cells"
        cost = CostTable.on_grid(x_points, lo, hi, n_y, cost_rows)
        build = functools.partial(make_grid_density, lo, hi)

    def vector(raw, where: str) -> np.ndarray:
        vals = _num_list(raw, where)
        if len(vals) != n_y:
            raise ScenarioError(f"{where}: {len(vals)} {unit.format(n_y)}")
        return vals

    # "counting" on a support and "lebesgue" on a grid: unit mass per atom
    raw_ref = doc["reference"]
    if raw_ref == ("lebesgue" if is_grid else "counting"):
        reference = build(np.ones(n_y))
    elif raw_ref in ("counting", "lebesgue"):
        raise ScenarioError(f"a {raw_ref!r} reference does not fit this Y-representation")
    else:
        reference = build(vector(raw_ref, "reference"), normalize=False)

    lambdas = tuple(_num_list(doc.get("lambdas"), "lambdas").tolist())
    for i, lam in enumerate(lambdas):
        if not math.isfinite(lam) or abs(lam) < 1e-12:
            raise ScenarioError(f"lambdas[{i}]: tilt parameters must satisfy |lam| >= 1e-12")

    p_x_vals = _num_list(doc.get("p_x"), "p_x")
    if len(p_x_vals) != len(x_points):
        raise ScenarioError(f"p_x: {len(p_x_vals)} weights for {len(x_points)} x points")
    p_x = make_finite_measure(cost.x_points, p_x_vals, normalize=True)

    families_doc = doc.get("families", {})
    if not isinstance(families_doc, dict):
        raise ScenarioError("'families' must be an object of name -> rows")
    families: dict[str, ConditionalFamily] = {}
    for fam_name, rows in families_doc.items():
        where = f"families.{fam_name}"
        if not isinstance(rows, list) or len(rows) != len(x_points):
            raise ScenarioError(f"{where}: expected one row for each of {len(x_points)} x points")
        try:  # one matrix per family, normalized and validated at once
            matrix = np.empty((len(rows), n_y))
            for k, row in enumerate(rows):
                matrix[k] = vector(row, f"{where}[{k}]")
            families[fam_name] = _probability_family(cost.x_points, cost.y_support, matrix)
        except GibbsGapError:
            for k, row in enumerate(rows):  # the first faulty row raises what it raises alone
                build(vector(row, f"{where}[{k}]"), normalize=True)
            raise

    checks_doc = doc.get("pairs")
    if not isinstance(checks_doc, list) or not checks_doc:
        raise ScenarioError("scenario needs a non-empty 'pairs' list of checks")
    checks = tuple(
        _parse_check(c, i, len(x_points), families) for i, c in enumerate(checks_doc)
    )

    return Scenario(
        name=name,
        cost=cost,
        reference=reference,
        lambdas=lambdas,
        p_x=p_x,
        families=families,
        checks=checks,
        is_grid=is_grid,
    )


# ---------------------------------------------------------------------------
# the op table: each op's identity tag, parameters and runner, declared once.
# A runner makes one kernel call with all of a check's tilts and returns one
# outcome per tilt; the error of a tilt stays at its tilt, and an error raised
# before any tilt is the outcome at each.  Parameters are validated against
# ``_PARAMS`` at load time, so a runner meets only the library's errors, and
# those are check outcomes.

#: Largest oracle ``iters`` a check may ask for.  The oracle halves its
#: distance to the optimum on every step and certifies within tens of steps;
#: the cap bounds the time a check that cannot certify spends failing.
MAX_ORACLE_ITERS = 10_000


def _int_in(v, where: str, lo: int, hi: float = math.inf) -> int:
    if type(v) is not int or not lo <= v <= hi:  # bool is an int subclass
        raise ScenarioError(f"{where} must be an integer in [{lo}, {hi}], got {v!r}")
    return v


def _one_of(v, where: str, choices) -> str:
    if not isinstance(v, str) or v not in choices:
        raise ScenarioError(f"{where} must be one of {list(choices)}, got {v!r}")
    return v


class _Param(NamedTuple):
    parse: Callable[[Any, str, int, dict], Any]  # (value, where, n_x, families)
    default: Any = None  # None: the parameter is required
    in_label: bool = True


_family = _Param(lambda v, where, n_x, fams: fams[_one_of(v, where, fams)])
_PARAMS = {
    "x_index": _Param(lambda v, where, n_x, fams: _int_in(v, where, 0, n_x - 1), 0),
    "p1": _family,
    "p2": _family,
    "family": _family,
    "family1": _family,
    "family2": _family,
    "direction": _Param(lambda v, where, n_x, fams: _one_of(v, where, ("P2-ref", "P1-ref")),
                        "P2-ref"),
    "alpha": _Param(lambda v, where, n_x, fams: _num(v, where), 0.5),
    "iters": _Param(lambda v, where, n_x, fams: _int_in(v, where, 1, MAX_ORACLE_ITERS), 800,
                    in_label=False),
    "seed": _Param(lambda v, where, n_x, fams: _int_in(v, where, 0), 0, in_label=False),
}


def _fields(dec) -> dict[str, Any]:
    """Record fields of a :class:`~gibbsgap.gaps.GapDecomposition`."""
    return {
        "direct": dec.direct,
        "closed_form": dec.closed_form,
        "discrepancy": dec.discrepancy,
        "terms": dict(dec.terms),
    }


def _pair(p: dict) -> tuple[int, Measure, Measure]:
    """``(x_index, P1, P2)``: the two named members at the check's point."""
    xi = p["x_index"]
    return xi, p["p1"][xi], p["p2"][xi]


def _free_energy(scn: Scenario, p: dict, lams) -> list:
    """The free-energy identities at every tilt in one call: a tilt's row carries its split
    and its log-partition value."""
    rows = _free_energy_rows(scn.cost, scn.reference, lams, p["x_index"])
    return [row if isinstance(row, GibbsGapError) else _split_fields(*row) for row in rows]


def _split_fields(split, log_partition: float) -> dict[str, Any]:
    """Record fields of a :class:`~gibbsgap.gibbs.FreeEnergySplit`."""
    terms = {"via_gibbs": split.via_gibbs, "log_partition": log_partition}
    if split.via_reference is not None:
        terms["via_reference"] = split.via_reference
    return {
        "direct": split.free_energy,
        "closed_form": split.via_gibbs,
        "discrepancy": split.max_discrepancy,
        "terms": terms,
        "note": "reference side skipped (non-probability reference)"
        if split.reference_skipped else None,
    }


def _oracle(scn: Scenario, p: dict, lams) -> list:
    """The oracle at every tilt in one call: its rows carry the objective and the tilt
    that the record compares."""
    rows = _oracle_rows(scn.cost, scn.reference, lams, p["x_index"], p["iters"])
    return [row if isinstance(row, GibbsGapError) else {
        "direct": row.objective,
        "closed_form": row.free_energy,
        "discrepancy": abs(row.objective - row.free_energy),
        "terms": {"objective": row.objective, "total_variation":
                  0.5 * float(np.abs(np.exp(row.log_p) - np.exp(row.log_g)).sum())},
    } for row in rows]


class _Op(NamedTuple):
    tag: str
    params: tuple[str, ...]
    # (scenario, params, lambdas) -> one outcome per lambda: the record fields or the
    # GibbsGapError raised at that lambda; a GibbsGapError it raises is the outcome at each
    run: Callable[[Scenario, dict, tuple[float, ...]], list]


def _gap_op(tag: str, params: tuple[str, ...], gaps) -> _Op:
    """The op of the decomposition kernel ``gaps(scn, params, lambdas)``."""
    return _Op(tag, params, lambda scn, p, lams: [
        d if isinstance(d, GibbsGapError) else _fields(d) for d in gaps(scn, p, lams)])


_OPS = {
    "gap_closed_form": _gap_op(
        "gap-common-reference", ("x_index", "p1", "p2"),
        lambda scn, p, lams: _common_gap(scn.cost, *_pair(p), scn.reference, lams),
    ),
    "gap_closed_form_relative": _gap_op(
        "gap-relative-reference", ("x_index", "p1", "p2", "direction"),
        lambda scn, p, lams: _relative_gap(scn.cost, *_pair(p), p["direction"], lams),
    ),
    "gap_mixture_reference": _gap_op(
        "gap-mixture-reference", ("x_index", "p1", "p2", "alpha"),
        lambda scn, p, lams: _mixture_gap(scn.cost, *_pair(p), p["alpha"], lams),
    ),
    "expected_gap_closed_form": _gap_op(
        "expected-gap-common-reference", ("family1", "family2"),
        lambda scn, p, lams: _expected_common(
            scn.cost, p["family1"], p["family2"], scn.p_x, scn.reference, lams),
    ),
    "expected_gap_relative": _gap_op(
        "expected-gap-relative-reference", ("family1", "family2", "direction"),
        lambda scn, p, lams: _expected_relative(
            scn.cost, p["family1"], p["family2"], scn.p_x, p["direction"], lams),
    ),
    "marginal_gap": _gap_op(
        "marginal-gap-information", ("family",),
        lambda scn, p, lams: _marginal(scn.cost, p["family"], scn.p_x, scn.reference, lams),
    ),
    "gibbs_marginal_gap": _gap_op(
        "gibbs-marginal-gap", (),
        lambda scn, p, lams: _gibbs_marginal(scn.cost, scn.reference, lams, scn.p_x),
    ),
    "free_energy_identities": _Op("free-energy", ("x_index",), _free_energy),
    "variational_oracle": _Op("variational-optimum", ("x_index", "iters", "seed"), _oracle),
}


def _parse_check(c, index: int, n_x: int, families: dict) -> Check:
    """Validate one check against its op's parameters; fill defaults and label."""
    where = f"pairs[{index}]"
    if not isinstance(c, dict):
        raise ScenarioError(f"{where}: each check must be an object")
    op_name = c.get("op")
    op = _OPS.get(op_name) if isinstance(op_name, str) else None
    if op is None:
        raise ScenarioError(f"{where}: unknown op {op_name!r}")
    foreign = [k for k in c if k not in ("op", "name", "tolerance", "expect", *op.params)]
    if foreign:
        raise ScenarioError(f"{where}: keys {foreign} do not apply to op {op_name!r}")
    params = {}
    for key in op.params:
        spec = _PARAMS[key]
        if key in c:
            params[key] = spec.parse(c[key], f"{where}.{key}", n_x, families)
        elif spec.default is None:
            raise ScenarioError(f"{where}: op {op_name!r} needs '{key}'")
        else:
            params[key] = spec.default
    expect = None
    if "expect" in c:
        raw = c["expect"]
        if not (isinstance(raw, str) and raw.startswith("error:") and len(raw) > 6):
            raise ScenarioError(f"{where}: 'expect' must look like 'error:ErrorName'")
        expect = raw[len("error:"):]
    tolerance = None
    if "tolerance" in c:
        tolerance = _num(c["tolerance"], f"{where}.tolerance")
        if not 0 < tolerance < math.inf:
            raise ScenarioError(f"{where}: tolerance must be finite and positive")
    label = c.get("name")
    if label is not None and not isinstance(label, str):
        raise ScenarioError(f"{where}: 'name' must be a string")
    if not label:  # the op and the parameters the file gives, as written
        shown = [f"{k}={v}" for k, v in c.items() if k in op.params and _PARAMS[k].in_label]
        label = f"{op_name}({', '.join(shown)})" if shown else op_name
    return Check(op=op_name, params=params, tolerance=tolerance, expect_error=expect, label=label)


# ---------------------------------------------------------------------------
# running


def run_scenario(scn: Scenario, tolerance: Optional[float] = None) -> dict[str, Any]:
    """Run every check at all its lambdas in one kernel call; return the report, one
    record per (check, lambda), as a plain dict."""
    t0 = time.perf_counter()
    records = []
    n_pass = 0
    for check in scn.checks:
        tol = check.tolerance if check.tolerance is not None else (
            tolerance if tolerance is not None else
            (DEFAULT_TOL_GRID if scn.is_grid else DEFAULT_TOL_FINITE)
        )
        op = _OPS[check.op]
        try:
            outcomes = op.run(scn, check.params, scn.lambdas)
        except GibbsGapError as e:  # raised before any tilt, so the outcome at each
            outcomes = [e.with_traceback(None)] * len(scn.lambdas)
        for lam, outcome in zip(scn.lambdas, outcomes, strict=True):
            rec: dict[str, Any] = {
                "check": check.label,
                "identity": op.tag,
                "lambda": lam,
                "tolerance": tol,
                "direct": None,
                "closed_form": None,
                "discrepancy": None,
                "terms": {},
                "error": None,
                "note": None,
            }
            if isinstance(outcome, GibbsGapError):
                rec["error"] = type(outcome).__name__
                rec["note"] = str(outcome)
            else:
                rec.update(outcome)
            expect, error = check.expect_error, rec["error"]
            if expect is None and error is None:
                rec["status"] = "pass" if rec["discrepancy"] <= tol else "fail"
            elif expect is None:
                rec["status"] = "unexpected-error"
            elif error == expect:
                rec["status"] = "expected-error"
            else:
                rec["status"] = "fail"
                rec["note"] = (f"expected {expect}, got {error}: {rec['note']}" if error
                               else f"expected {expect}, but no error was raised")
            if rec["status"] in ("pass", "expected-error"):
                n_pass += 1
            records.append(rec)
    total = len(records)
    return {
        "schema": SCHEMA_VERSION,
        "scenario": scn.name,
        "records": records,
        "summary": {"total": total, "passed": n_pass, "failed": total - n_pass},
        "wall_time_s": time.perf_counter() - t0,
    }


def run_scenario_file(path, tolerance: Optional[float] = None) -> tuple[dict[str, Any], int]:
    """Load + run; return ``(report, exit_code)`` with 0 pass / 1 fail.

    Input problems raise :class:`ScenarioError`; the CLI maps those to
    exit code 2.
    """
    report = run_scenario(load_scenario(path), tolerance=tolerance)
    return report, (0 if report["summary"]["failed"] == 0 else 1)


# ---------------------------------------------------------------------------
# rendering


def _fmt17(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _to_json(value, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_to_json(v, indent + 2)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt17(value)
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


def render_json(report: dict[str, Any]) -> str:
    """Serialize a report with 17-significant-digit numbers."""
    return _to_json(report, 0) + "\n"


def render_text(report: dict[str, Any]) -> str:
    """Human-readable report: one block per record plus a summary line."""
    lines = [f"scenario: {report['scenario']}"]
    for rec in report["records"]:
        status = rec["status"].upper()
        lines.append(
            f"[{status:>16}] {rec['check']}  lambda={rec['lambda']:g}  "
            f"identity={rec['identity']}"
        )
        if rec["error"] is not None:
            lines.append(f"{'':18} error={rec['error']}: {rec['note']}")
        elif rec["direct"] is not None:
            lines.append(
                f"{'':18} direct={rec['direct']:.17g}  closed={rec['closed_form']:.17g}"
            )
            lines.append(
                f"{'':18} discrepancy={rec['discrepancy']:.3e}  tolerance={rec['tolerance']:g}"
            )
            for k, v in rec["terms"].items():
                lines.append(f"{'':22} {k} = {v:.17g}")
            if rec["note"]:
                lines.append(f"{'':18} note: {rec['note']}")
    s = report["summary"]
    lines.append(
        f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed "
        f"({report['wall_time_s']:.3f}s)"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generation


_GENERATE_LAMBDAS = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def generate_scenarios(seed: int, nx: int, ny: int, count: int, out_dir) -> list[Path]:
    """Write ``count`` random scenario files; byte-identical per seed.

    Costs are uniform on [-1, 1], tilt parameters are drawn from
    ``{±0.5, ±1, ±2}``, and all weights are strictly positive so every
    absolute-continuity hypothesis holds and every check is expected to
    pass.  A single ``random.Random(seed)`` drives everything, so equal
    arguments reproduce equal bytes.
    """
    if nx < 1 or ny < 1 or count < 1:
        raise ValueError("nx, ny and count must all be >= 1")
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        doc = _generate_one(rng, f"generated-{seed}-{i:03d}", nx, ny)
        path = out_dir / f"scenario-{seed:04d}-{i:03d}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(path)
    return paths


def _positive_row(rng: random.Random, n: int, normalize: bool) -> list[float]:
    row = [rng.uniform(0.05, 1.0) for _ in range(n)]
    if normalize:
        total = math.fsum(row)
        row = [w / total for w in row]
    return row


def _generate_one(rng: random.Random, name: str, nx: int, ny: int) -> dict[str, Any]:
    reference_kind = rng.choice(("counting", "sigma-finite", "probability"))
    if reference_kind == "counting":
        reference: Any = "counting"
    else:
        reference = _positive_row(rng, ny, normalize=reference_kind == "probability")
    lambdas = rng.sample(_GENERATE_LAMBDAS, k=min(2, len(_GENERATE_LAMBDAS)))
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "y_support": [[float(j)] for j in range(ny)],
        "x_points": [[float(j)] for j in range(nx)],
        "cost": [[rng.uniform(-1.0, 1.0) for _ in range(ny)] for _ in range(nx)],
        "reference": reference,
        "lambdas": lambdas,
        "p_x": _positive_row(rng, nx, normalize=True),
        "families": {
            "f1": [_positive_row(rng, ny, normalize=True) for _ in range(nx)],
            "f2": [_positive_row(rng, ny, normalize=True) for _ in range(nx)],
        },
        "pairs": [
            {"op": "free_energy_identities", "x_index": rng.randrange(nx)},
            {
                "op": "variational_oracle",
                "x_index": rng.randrange(nx),
                "iters": 800,
                "seed": rng.randrange(2**31),
            },
            {"op": "gap_closed_form", "x_index": rng.randrange(nx), "p1": "f1", "p2": "f2"},
            {
                "op": "gap_closed_form_relative",
                "x_index": rng.randrange(nx),
                "p1": "f1",
                "p2": "f2",
                "direction": "P2-ref",
            },
            {
                "op": "gap_closed_form_relative",
                "x_index": rng.randrange(nx),
                "p1": "f1",
                "p2": "f2",
                "direction": "P1-ref",
            },
            {
                "op": "gap_mixture_reference",
                "x_index": rng.randrange(nx),
                "p1": "f1",
                "p2": "f2",
                "alpha": rng.choice((0.25, 0.5, 0.75)),
            },
            {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
            {
                "op": "expected_gap_relative",
                "family1": "f1",
                "family2": "f2",
                "direction": rng.choice(("P2-ref", "P1-ref")),
            },
            {"op": "marginal_gap", "family": "f1"},
            {"op": "gibbs_marginal_gap"},
        ],
    }
    return doc
