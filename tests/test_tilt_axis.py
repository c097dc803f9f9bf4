"""Every op of the scenario runner at all of a check's tilts in one call.

Each op receives all of a check's tilts at once and sums what does not
depend on the tilt once.  The outcome at each tilt must be the one of a
call at that tilt alone: the same record, its numbers bit for bit, or the
same error type and message.  Two references are used:

* the runner with the check's tilts one at a time;
* the per-tilt runner the ops replaced, kept here: one call of the public
  one-tilt function per tilt, each error caught at its tilt.

Each op also receives all of its checks at once: the oracle and the
free-energy identities step every (check, tilt) row in one kernel call.
The records of each check must be those of the scenario holding that check
alone.
"""

import dataclasses
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import (
    GibbsGapError,
    expected_gap_closed_form,
    expected_gap_relative,
    free_energy_identities,
    gap_closed_form,
    gap_closed_form_relative,
    gap_mixture_reference,
    gibbs_marginal_gap,
    gibbs_tilt,
    marginal_gap,
    run_scenario,
)
from gibbsgap import scenario
from gibbsgap.scenario import _OPS, _build_scenario, _pair

# ---------------------------------------------------------------------------
# the per-tilt reference


def _per_tilt(run):
    """The op that calls ``run(scn, params, lam)`` once per check and tilt, keeping each error
    at its tilt."""
    def run_all(scn, ps, lams):
        out = []
        for p in ps:
            out.append([])
            for lam in lams:
                try:
                    out[-1].append(run(scn, p, lam))
                except GibbsGapError as e:
                    out[-1].append(e)
        return out
    return run_all


def _free_energy_at(scn, p, lam):
    g = gibbs_tilt(scn.cost, scn.reference, lam, p["x_index"])
    return free_energy_identities(g, scn.cost, scn.reference, p["x_index"]), g.log_partition


_PUBLIC = {
    "gap_closed_form":
        lambda scn, p, lam: gap_closed_form(scn.cost, *_pair(p), scn.reference, lam),
    "gap_closed_form_relative":
        lambda scn, p, lam: gap_closed_form_relative(scn.cost, *_pair(p), p["direction"], lam),
    "gap_mixture_reference":
        lambda scn, p, lam: gap_mixture_reference(scn.cost, *_pair(p), p["alpha"], lam),
    "expected_gap_closed_form": lambda scn, p, lam: expected_gap_closed_form(
        scn.cost, p["family1"], p["family2"], scn.p_x, scn.reference, lam),
    "expected_gap_relative": lambda scn, p, lam: expected_gap_relative(
        scn.cost, p["family1"], p["family2"], scn.p_x, p["direction"], lam),
    "marginal_gap":
        lambda scn, p, lam: marginal_gap(scn.cost, p["family"], scn.p_x, scn.reference, lam),
    "gibbs_marginal_gap":
        lambda scn, p, lam: gibbs_marginal_gap(scn.cost, scn.reference, lam, scn.p_x),
}
ORACLE = _OPS["variational_oracle"]
#: The op table of one public call per tilt; the oracle keeps its one-tilt call.
REFERENCE_OPS = {
    **{name: _OPS[name]._replace(run=_per_tilt(gap)) for name, gap in _PUBLIC.items()},
    "free_energy_identities": _OPS["free_energy_identities"]._replace(run=_per_tilt(_free_energy_at)),
    "variational_oracle": ORACLE._replace(
        run=lambda scn, ps, lams: [[ORACLE.run(scn, [p], [lam])[0][0] for lam in lams]
                                   for p in ps]),
}


def test_the_reference_covers_every_op():
    assert set(REFERENCE_OPS) == set(_OPS)


def _bits(value):
    """``value`` with every float replaced by its bit pattern."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def _records(scn):
    return _bits(run_scenario(scn)["records"])


# ---------------------------------------------------------------------------
# random scenarios

#: Tilts at the edges: the smallest allowed, and ones whose log-partition
#: value overflows next to a large cost.  Costs at the edges: some reach the
#: largest float, so a tilt of 1 already puts ``lam * h`` there.
EDGE_TILTS = (1e-12, 0.5, 2.0, 800.0, 1e300)
EDGE_COSTS = (1e10, -1e10, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308)


def _vector(rng, n, nulls):
    w = rng.uniform(0.05, 1.0, size=n)
    w[[k for k in nulls if k < n]] = 0.0
    if not w.any():
        w[0] = 1.0
    return w.tolist()


@st.composite
def scenario_docs(draw, n_y):
    n_x = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = {"schema": 1, "name": "tilt-axis", "x_points": [[float(k)] for k in range(n_x)]}
    grid = draw(st.booleans())
    if grid:
        doc["y_grid"] = {"lo": -1.0, "hi": 2.0, "n_cells": n_y}
    else:
        doc["y_support"] = [[float(j)] for j in range(n_y)]
    cost = rng.uniform(-2.0, 2.0, size=(n_x, n_y))
    for _ in range(draw(st.integers(0, 2))):
        cost[draw(st.integers(0, n_x - 1)), draw(st.integers(0, n_y - 1))] = draw(
            st.sampled_from(EDGE_COSTS))
    doc["cost"] = cost.tolist()
    nulls = st.lists(st.integers(0, min(n_y, 12) - 1), max_size=2)
    kind = draw(st.sampled_from(["base", "probability", "sigma-finite"]))
    if kind == "base":
        doc["reference"] = "lebesgue" if grid else "counting"
    else:
        ref = np.array(_vector(rng, n_y, draw(nulls)))
        doc["reference"] = (ref / ref.sum() / (3.0 / n_y if grid else 1.0)).tolist() \
            if kind == "probability" else ref.tolist()
    doc["lambdas"] = draw(st.lists(
        st.builds(lambda m, s: s * m, st.sampled_from(EDGE_TILTS) | st.floats(1e-3, 50.0),
                  st.sampled_from([1.0, -1.0])),
        min_size=1, max_size=6))
    xi = st.integers(0, n_x - 1)
    p_x = draw(st.lists(st.sampled_from([1.0, 0.0, 0.25]), min_size=n_x, max_size=n_x))
    p_x[draw(xi)] = 1.0  # a zero-mass X row at most n_x - 1 times
    doc["p_x"] = p_x
    doc["families"] = {f: [_vector(rng, n_y, draw(nulls)) for _ in range(n_x)]
                       for f in ("f1", "f2")}
    pair = {"x_index": draw(xi), "p1": "f1", "p2": "f2"}
    direction = st.sampled_from(["P2-ref", "P1-ref"])
    doc["pairs"] = [
        {"op": "gap_closed_form", **pair},
        {"op": "gap_closed_form_relative", **pair, "direction": draw(direction)},
        {"op": "gap_mixture_reference", **pair, "alpha": draw(st.sampled_from([0.25, 0.5]))},
        {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
        {"op": "expected_gap_relative", "family1": "f2", "family2": "f1",
         "direction": draw(direction)},
        {"op": "marginal_gap", "family": draw(st.sampled_from(["f1", "f2"]))},
        {"op": "gibbs_marginal_gap"},
        {"op": "free_energy_identities", "x_index": draw(xi)},
    ]
    if not grid:
        doc["pairs"].append(
            {"op": "variational_oracle", "x_index": draw(xi), "iters": draw(st.integers(1, 60))})
    return doc


def _assert_each_tilt_is_its_one_tilt_call(doc):
    scn = _build_scenario(doc)
    records = _records(scn)
    n = len(scn.lambdas)
    for t, lam in enumerate(scn.lambdas):  # the check's tilts one at a time
        one = _records(dataclasses.replace(scn, lambdas=(lam,)))
        assert records[t::n] == one
    with mock.patch.dict(scenario._OPS, REFERENCE_OPS):  # one public call per tilt
        assert records == _records(scn)
    return [r["error"] for r in run_scenario(scn)["records"]]


@settings(max_examples=60, deadline=None)
@given(doc=st.integers(1, 12).flatmap(scenario_docs))
def test_each_tilt_of_an_op_is_its_one_tilt_call(doc):
    _assert_each_tilt_is_its_one_tilt_call(doc)


@settings(max_examples=4, deadline=None)
@given(doc=scenario_docs(8192))
def test_each_tilt_of_an_op_on_a_long_row_is_its_one_tilt_call(doc):
    # 8192 atoms: the stacked single-point sums take the vectorized row sum
    _assert_each_tilt_is_its_one_tilt_call(doc)


@st.composite
def edge_docs(draw):
    """A scenario with a cost row holding two costs of magnitude the largest float, either
    sign, and a tilt of 1 or -1 among its tilts, so ``lam * h`` is at the float limit."""
    doc = draw(scenario_docs(draw(st.integers(2, 12))))
    row = doc["cost"][draw(st.integers(0, len(doc["cost"]) - 1))]
    for j in draw(st.permutations(range(len(row))))[:2]:
        row[j] = draw(st.sampled_from([1.0, -1.0])) * 1.7976931348623157e308
    doc["lambdas"] = doc["lambdas"][:3] + [draw(st.sampled_from([1.0, -1.0]))]
    return doc


@settings(max_examples=20, deadline=None)
@given(doc=edge_docs())
def test_each_tilt_of_an_op_at_the_float_limit_is_its_one_tilt_call(doc):
    # every op: no NumPy warning (warnings are errors), no OverflowError from a sum
    _assert_each_tilt_is_its_one_tilt_call(doc)


def test_a_check_mixing_failing_and_passing_tilts_matches_its_one_tilt_calls():
    # a cost of 1e10 raises InfiniteLogPartition at -1e300 and an infinite
    # divergence at 1e300, and the tilt-free terms of the other tilts still sum
    doc = {
        "schema": 1, "name": "mixed", "y_support": [[0.0], [1.0], [2.0]], "x_points": [[0.0], [1.0]],
        "cost": [[0.5, 1e10, -1.0], [1.0, 0.0, 2.0]], "reference": [0.2, 0.3, 0.5],
        "lambdas": [0.5, -1e300, 2.0, 1e300, -0.5], "p_x": [0.5, 0.5],
        "families": {"f1": [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]],
                     "f2": [[0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]},
        "pairs": [{"op": op, **params} for op, params in [
            ("gap_closed_form", {"x_index": 0, "p1": "f1", "p2": "f2"}),
            ("gap_closed_form_relative", {"x_index": 0, "p1": "f1", "p2": "f2"}),
            ("gap_mixture_reference", {"x_index": 0, "p1": "f1", "p2": "f2"}),
            ("expected_gap_closed_form", {"family1": "f1", "family2": "f2"}),
            ("expected_gap_relative", {"family1": "f1", "family2": "f2"}),
            ("marginal_gap", {"family": "f1"}),
            ("gibbs_marginal_gap", {}),
            ("free_energy_identities", {"x_index": 0}),
            ("variational_oracle", {"x_index": 0, "iters": 40}),
        ]],
    }
    errors = _assert_each_tilt_is_its_one_tilt_call(doc)
    for check in range(9):  # records run by check, then by tilt
        assert errors[5 * check + 1] == "InfiniteLogPartition"
        assert errors[5 * check] in (None, "NonConvergence")
    assert errors[:5] == [None, "InfiniteLogPartition", None, "InfiniteDivergence", None]


@pytest.mark.parametrize("reference", ["counting", [0.2, 0.3, 0.5], [0.5, 1.5, 0.0]])
def test_a_free_energy_is_minus_the_log_partition_over_the_tilt_bit_for_bit(reference):
    # |lam| from 1e-12 to 1e300 in steps of 1e13, and max/3, where lam * h reaches the
    # largest float at the cost -3
    lams = [s * m for m in [10.0**e for e in range(-12, 301, 13)] + [1.7976931348623157e308 / 3.0]
            for s in (1.0, -1.0)]
    doc = {
        "schema": 1, "name": "free-energy", "y_support": [[0.0], [1.0], [2.0]],
        "x_points": [[0.0], [1.0], [2.0]], "reference": reference, "lambdas": lams,
        "cost": [[0.5, -1.0, 2.0], [1e-300, 0.0, -3.0], [1.0, 1.0, 1.0]], "p_x": [1.0, 1.0, 1.0],
        "pairs": [{"op": "free_energy_identities", "x_index": k} for k in range(3)],
    }
    records = [r for r in run_scenario(_build_scenario(doc))["records"] if r["error"] is None]
    assert len(records) > len(lams)
    for r in records:
        assert _bits(r["direct"]) == _bits(-r["terms"]["log_partition"] / r["lambda"])


# ---------------------------------------------------------------------------
# the check axis: every check of an op in one call


@st.composite
def check_axis_docs(draw):
    """A scenario with 1-6 oracle and 1-6 free-energy checks at repeated and distinct
    points and 1-60 steps, and 0-3 mixture gaps, some with an alpha that raises before
    any tilt, in a shuffled declaration order."""
    doc = draw(scenario_docs(draw(st.integers(1, 12))))
    xi = st.integers(0, len(doc["x_points"]) - 1)
    doc["lambdas"] = doc["lambdas"][:4]
    oracle = [{"op": "variational_oracle", "x_index": draw(xi), "iters": draw(st.integers(1, 60))}
              for _ in range(draw(st.integers(1, 6)))]
    free_energy = [{"op": "free_energy_identities", "x_index": draw(xi)}
                   for _ in range(draw(st.integers(1, 6)))]
    mixture = [{"op": "gap_mixture_reference", "x_index": draw(xi), "p1": "f1", "p2": "f2",
                "alpha": draw(st.sampled_from([0.25, 0.5, 1.5]))}
               for _ in range(draw(st.integers(0, 3)))]
    doc["pairs"] = draw(st.permutations(oracle + free_energy + mixture))
    return doc


def _assert_each_check_is_its_run_alone(doc):
    scn = _build_scenario(doc)
    records, n = _records(scn), len(scn.lambdas)
    for c, check in enumerate(scn.checks):
        assert records[c * n:(c + 1) * n] == _records(dataclasses.replace(scn, checks=(check,)))
    return run_scenario(scn)["records"]


@settings(max_examples=60, deadline=None)
@given(doc=check_axis_docs())
def test_each_check_of_an_op_is_its_run_alone(doc):
    _assert_each_check_is_its_run_alone(doc)


def test_checks_of_one_op_keep_their_own_steps_and_cost_rows():
    doc = {
        "schema": 1, "name": "checks", "y_support": [[0.0], [1.0], [2.0]],
        "x_points": [[0.0], [1.0]], "cost": [[0.5, 1.0, -1.0], [1.0, 0.0, 2.0]],
        "reference": [0.2, 0.0, 0.8], "lambdas": [0.5, -2.0, 1e300], "p_x": [0.5, 0.5],
        "families": {"f1": [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]],
                     "f2": [[0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]},
        "pairs": [
            {"op": "variational_oracle", "x_index": 1, "iters": 60},
            {"op": "free_energy_identities", "x_index": 0},
            {"op": "variational_oracle", "x_index": 0, "iters": 5},
            {"op": "gap_mixture_reference", "p1": "f1", "p2": "f2", "alpha": 1.5},
            {"op": "free_energy_identities", "x_index": 1},
            {"op": "variational_oracle", "x_index": 1, "iters": 60},
            {"op": "gap_mixture_reference", "p1": "f1", "p2": "f2", "alpha": 0.5},
        ],
    }
    records = _assert_each_check_is_its_run_alone(doc)
    assert [r["error"] for r in records] == [  # by check, then by tilt
        None, None, None,
        None, None, None,
        *["NonConvergence"] * 3,  # 5 steps are too few
        *["AlphaOutOfRange"] * 3,  # raised before any tilt
        None, None, None,
        None, None, None,
        None, None, None,
    ]
    assert records[0] == records[15] != records[6]
    assert records[3]["direct"] != records[12]["direct"]
