"""Metamorphic relations of the gap identities: changes of the input whose effect on every
value is known in exact arithmetic (Chen, Cheung and Yiu 1998).  The values compared must
agree within 64 u, u = 2**-53, times the sum of the magnitudes of the records compared, or
times 1 if that is less: the costs and log atoms the records sum are of order 1, so a record
near 0, a difference of such sums, carries their rounding.

* Swapping P1 and P2 negates every single-point gap.
* A grid scenario equals its point twin: the same costs on the cell midpoints, with the
  reference and family rows multiplied by the cell width, so that every atom keeps its mass.
  The variational oracle, which reads the reference as atom masses, ends each row the same
  way on both, after the same number of steps.
* Scaling the reference, ``Q -> c Q``, leaves every gap unchanged and shifts ``log Z`` by
  ``log c``, and so the free energy by ``-log c / lam``.
* Translating each cost row, ``h -> h + a(x)``, leaves every gap and every Gibbs tilt
  unchanged and shifts ``log Z`` by ``-lam a(x)``, and so the free energy by ``a(x)``.
"""

import math
from itertools import chain

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import (
    CostTable,
    GibbsGapError,
    atom_masses,
    gap_closed_form,
    gap_closed_form_relative,
    gap_mixture_reference,
    gibbs_tilt,
    make_finite_measure,
    run_scenario,
)
from gibbsgap import scenario
from gibbsgap.scenario import _build_scenario

U = 2.0**-53


def _magnitude(rec: dict) -> float:
    """The sum of the magnitudes of a record's numbers."""
    return abs(rec["direct"]) + abs(rec["closed_form"]) + sum(map(abs, rec["terms"].values()))


def _bound(a: dict, b: dict) -> float:
    return 64 * U * max(1.0, _magnitude(a) + _magnitude(b))


def _record(dec) -> dict:
    return {"direct": dec.direct, "closed_form": dec.closed_form, "terms": dec.terms}


def _lam(draw):
    """A moderate tilt of either sign."""
    return draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.25, 4.0))


# ---------------------------------------------------------------------------
# swapping P1 and P2


@st.composite
def point_gaps(draw):
    """A cost table on at most 4 x 12 points, a row of it, two laws, a reference and a tilt."""
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = [[float(j)] for j in range(n_y)]
    h = CostTable.on_support([[float(k)] for k in range(n_x)], pts,
                             rng.uniform(-2.0, 2.0, size=(n_x, n_y)))
    p1, p2 = (make_finite_measure(pts, rng.uniform(0.05, 1.0, n_y), normalize=True)
              for _ in range(2))
    q = make_finite_measure(pts, rng.uniform(0.2, 5.0, n_y))
    return h, draw(st.integers(0, n_x - 1)), p1, p2, q, _lam(draw), draw(st.floats(0.05, 0.95))


@settings(max_examples=60, deadline=None)
@given(case=point_gaps())
def test_swapping_the_two_laws_negates_every_single_point_gap(case):
    h, x, p1, p2, q, lam, alpha = case
    pairs = {
        "common": (gap_closed_form(h, x, p1, p2, q, lam), gap_closed_form(h, x, p2, p1, q, lam)),
        "relative": (gap_closed_form_relative(h, x, p1, p2, "P2-ref", lam),
                     gap_closed_form_relative(h, x, p2, p1, "P1-ref", lam)),
        "mixture": (gap_mixture_reference(h, x, p1, p2, alpha, lam),
                    gap_mixture_reference(h, x, p2, p1, 1.0 - alpha, lam)),
    }
    for name, (a, b) in pairs.items():
        assert b.direct == -a.direct, name  # the direct gap is exactly antisymmetric
        bound = _bound(_record(a), _record(b))
        assert abs(a.closed_form + b.closed_form) <= bound, (name, a, b)


# ---------------------------------------------------------------------------
# the grid and its point twin

_PAIR = {"p1": "f1", "p2": "f2"}
_OPS = [
    {"op": "free_energy_identities", "x_index": 0},
    {"op": "gap_closed_form", "x_index": 0, **_PAIR},
    {"op": "gap_closed_form_relative", "x_index": 0, **_PAIR, "direction": "P2-ref"},
    {"op": "gap_closed_form_relative", "x_index": 0, **_PAIR, "direction": "P1-ref"},
    {"op": "gap_mixture_reference", "x_index": 0, **_PAIR, "alpha": 0.25},
    {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
    {"op": "expected_gap_relative", "family1": "f1", "family2": "f2"},
    {"op": "marginal_gap", "family": "f1"},
    {"op": "gibbs_marginal_gap"},
]


@st.composite
def grid_docs(draw):
    """A grid scenario of at most 4 x 12 cells whose cell width is far from 1, with the ops of
    ``_OPS``: every op but the oracle, which has a twin test of its own."""
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([draw(st.floats(0.1, 0.5)), draw(st.floats(2.0, 8.0))]))
    lo = draw(st.floats(-3.0, 3.0))
    reference = rng.uniform(0.2, 5.0, n_y)
    if draw(st.booleans()):  # a probability reference: the reference side is evaluated
        reference /= reference.sum() * width
    return {
        "schema": 1, "name": "twin", "y_grid": {"lo": lo, "hi": lo + width * n_y, "n_cells": n_y},
        "x_points": [[float(k)] for k in range(n_x)],
        "cost": rng.uniform(-2.0, 2.0, size=(n_x, n_y)).tolist(),
        "reference": reference.tolist(),
        "lambdas": [_lam(draw), _lam(draw)],
        "p_x": rng.uniform(0.05, 1.0, n_x).tolist(),
        "families": {f: rng.uniform(0.05, 1.0, size=(n_x, n_y)).tolist() for f in ("f1", "f2")},
        "pairs": [dict(op, x_index=min(op["x_index"], n_x - 1)) if "x_index" in op else op
                  for op in _OPS],
    }


def _point_twin(doc: dict) -> dict:
    """``doc`` on the midpoints of its cells, its reference and family rows times their width."""
    grid = _build_scenario(doc).cost.y_support
    width = grid.cell_width
    return {
        **{k: v for k, v in doc.items() if k != "y_grid"},
        "y_support": grid.points.tolist(),
        "reference": [v * width for v in doc["reference"]],
        "families": {f: [[v * width for v in row] for row in rows]
                     for f, rows in doc["families"].items()},
    }


@settings(max_examples=40, deadline=None)
@given(doc=grid_docs())
def test_a_grid_scenario_equals_its_point_twin(doc):
    grid, points = (run_scenario(_build_scenario(d))["records"] for d in (doc, _point_twin(doc)))
    assert len(grid) == len(points) == len(_OPS) * 2
    for a, b in zip(grid, points):
        assert (a["check"], a["lambda"], a["error"], b["error"]) == \
            (b["check"], b["lambda"], None, None)
        assert a["terms"].keys() == b["terms"].keys()
        bound = _bound(a, b)
        for field in ("direct", "closed_form"):
            assert abs(a[field] - b[field]) <= bound, (a, b)
        for name, value in a["terms"].items():
            assert abs(value - b["terms"][name]) <= bound, (name, a, b)


_ORACLE = scenario._OPS["variational_oracle"]


def _end(outcome) -> tuple:
    """How an oracle row ended: certified, or its error and the step count its message ends
    with."""
    if isinstance(outcome, GibbsGapError):
        return type(outcome).__name__, str(outcome).rpartition(" after ")[2]
    return ("certified",)


@settings(max_examples=40, deadline=None)
@given(doc=grid_docs(), iters=st.integers(1, 60),
       lam=st.sampled_from([800.0, -800.0, 1e300, -1e300]))
def test_the_oracle_on_a_grid_is_the_oracle_on_its_point_twin(doc, iters, lam):
    # Each row certifies on both or ends on both after the same steps, at the doc's two
    # moderate tilts and at an extreme one.  A certified objective is within its tolerance
    # of its own optimum, and the two optima are one value.
    doc = {**doc, "lambdas": [*doc["lambdas"], lam]}
    checks = [{"x_index": x, "iters": iters} for x in range(len(doc["x_points"]))]
    grid, points = ([[r if isinstance(r, GibbsGapError) else _ORACLE.fields(r) for r in rows]
                     for rows in _ORACLE.run(scn, checks, scn.lambdas)]
                    for scn in map(_build_scenario, (doc, _point_twin(doc))))
    for a, b, t in zip(chain(*grid), chain(*points), doc["lambdas"] * len(checks), strict=True):
        assert _end(a) == _end(b), (t, a, b)
        if isinstance(a, dict):
            bound = _bound(a, b)
            assert abs(a["closed_form"] - b["closed_form"]) <= bound, (t, a, b)
            assert abs(a["direct"] - b["direct"]) <= bound + min(1e-10, 2e-10 / abs(t)), (t, a, b)


# ---------------------------------------------------------------------------
# scaling the reference and translating the cost rows


@st.composite
def docs(draw):
    """A scenario of :func:`grid_docs`, on its grid or on the points of its twin."""
    doc = draw(grid_docs())
    return _point_twin(doc) if draw(st.booleans()) else doc


def _shifted(before: list, after: list, log_z_shift, free_energy_shift) -> None:
    """Each record of ``after`` matches its record of ``before``: a gap's values are unchanged,
    a free-energy record's are shifted by ``free_energy_shift(record)`` and its ``log Z`` by
    ``log_z_shift(record)``."""
    assert len(before) == len(after) == len(_OPS) * 2
    for a, b in zip(before, after):
        assert (a["check"], a["lambda"], a["error"], b["error"]) == \
            (b["check"], b["lambda"], None, None)
        bound, shift = _bound(a, b), 0.0
        if a["identity"] == "free-energy":
            shift = free_energy_shift(a)
            moved = b["terms"]["log_partition"] - (a["terms"]["log_partition"] + log_z_shift(a))
            assert abs(moved) <= bound, (a, b)
        for field in ("direct", "closed_form"):
            assert abs(b[field] - (a[field] + shift)) <= bound, (field, a, b)


@settings(max_examples=30, deadline=None)
@given(doc=docs(), c=st.sampled_from([1e-3, 1e3]))
def test_scaling_the_reference_leaves_every_gap_and_shifts_log_z_by_log_c(doc, c):
    scaled = {**doc, "reference": [v * c for v in doc["reference"]]}
    before, after = (run_scenario(_build_scenario(d))["records"] for d in (doc, scaled))
    _shifted(before, after, lambda rec: math.log(c), lambda rec: -math.log(c) / rec["lambda"])


@settings(max_examples=30, deadline=None)
@given(doc=docs(), data=st.data())
def test_translating_the_cost_rows_leaves_every_gap_and_tilt_and_shifts_log_z(doc, data):
    a = [data.draw(st.floats(-3.0, 3.0)) for _ in doc["cost"]]
    moved = {**doc, "cost": [[v + a_k for v in row] for row, a_k in zip(doc["cost"], a)]}
    scns = [_build_scenario(d) for d in (doc, moved)]
    before, after = (run_scenario(scn)["records"] for scn in scns)
    # every free-energy check of _OPS is at x_index 0
    _shifted(before, after, lambda rec: -rec["lambda"] * a[0], lambda rec: a[0])
    for x, a_x in enumerate(a):
        for lam in doc["lambdas"]:
            g, g_moved = (gibbs_tilt(scn.cost, scn.reference, lam, x) for scn in scns)
            assert abs(g_moved.log_partition - (g.log_partition - lam * a_x)) <= \
                64 * U * max(1.0, abs(g.log_partition) + abs(g_moved.log_partition)), (x, lam)
            w, w_moved = atom_masses(g.measure), atom_masses(g_moved.measure)
            assert np.abs(w_moved - w).max() <= 64 * U * (w.sum() + w_moved.sum()), (x, lam)
