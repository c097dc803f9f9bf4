"""The run phase of a loaded scenario: it reads the scenario's arrays in place, so it must
leave them as they were, and the kernels write only into arrays of their own, a block of rows
at a time, so each op group's traced memory stays within a few matrices of the size of the
cost table and the run keeps none once it ends."""

import json
import random
import tracemalloc

import numpy as np
import pytest

from gibbsgap import gaps, scenario
from gibbsgap.divergences import _kl_rows
from gibbsgap.measures import (
    GridSupport,
    PointSupport,
    _logsumexp,
    _mean_rows,
    _probability_family,
    _sum_rows,
)
from gibbsgap.scenario import load_scenario, run_scenario


def _scenario_file(path, n_x, n_y, grid):
    """A scenario given in numbers only, every point carrying X-mass, with the ten ops of
    ``gibbsgap generate``."""
    rng = random.Random(20250)

    def row():
        return [rng.uniform(0.05, 1.0) for _ in range(n_y)]

    doc = {"schema": 1, "name": "run-memory"}
    if grid:
        doc["y_grid"] = {"lo": -3.0, "hi": 3.0, "n_cells": n_y}
    else:
        doc["y_support"] = [[float(j)] for j in range(n_y)]
    pair = {"p1": "f1", "p2": "f2"}
    ops = [
        {"op": "free_energy_identities", "x_index": 1},
        {"op": "variational_oracle", "x_index": 0},
        {"op": "gap_closed_form", "x_index": 0, **pair},
        {"op": "gap_closed_form_relative", "x_index": 1, **pair, "direction": "P2-ref"},
        {"op": "gap_closed_form_relative", "x_index": 0, **pair, "direction": "P1-ref"},
        {"op": "gap_mixture_reference", "x_index": 1, **pair, "alpha": 0.25},
        {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
        {"op": "expected_gap_relative", "family1": "f1", "family2": "f2"},
        {"op": "marginal_gap", "family": "f1"},
        {"op": "gibbs_marginal_gap"},
    ]
    doc.update({
        "x_points": [[float(i)] for i in range(n_x)],
        "cost": [[rng.uniform(-1.0, 1.0) for _ in range(n_y)] for _ in range(n_x)],
        "reference": row(),
        "lambdas": [1.0, -2.0],
        "p_x": [rng.uniform(0.05, 1.0) for _ in range(n_x)],
        "families": {"f1": [row() for _ in range(n_x)], "f2": [row() for _ in range(n_x)]},
        "pairs": ops,
    })
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _arrays(scn) -> dict:
    """Copies of every array of ``scn`` that a run reads."""
    arrays = {"cost": scn.cost.values, "p_x": scn.p_x.weights, "p_x log": scn.p_x.log_density,
              "reference": scn.reference._density, "reference log": scn.reference.log_density}
    for name, fam in scn.families.items():
        arrays[f"{name} weights"] = fam._density
        arrays[f"{name} log"] = fam.log_density
    return {name: a.copy() for name, a in arrays.items()}


@pytest.mark.parametrize("n_x, n_y, grid", [(16, 512, False), (4, 4096, True)])
def test_a_run_leaves_the_scenario_arrays_as_they_were(tmp_path, n_x, n_y, grid):
    # the averaged forms read the cost rows, the family matrices and their atom masses in
    # place, and sum rows of odd and even widths
    scn = load_scenario(_scenario_file(tmp_path / "s.json", n_x, n_y, grid))
    before = _arrays(scn)
    report = run_scenario(scn)
    assert report["summary"]["failed"] == 0
    after = _arrays(scn)
    assert {name: a.tobytes() for name, a in after.items()} == \
        {name: a.tobytes() for name, a in before.items()}


def _op_group_peaks(path, monkeypatch, n_x, n_y, grid) -> dict:
    """The traced peak of each op group of a run of ``_scenario_file``, in matrices of
    ``n_x * n_y`` floats, each above the memory held as the group starts."""
    scn = load_scenario(_scenario_file(path, n_x, n_y, grid))
    run_scenario(scn)  # derives the reference's log atoms, once
    peaks = {}

    def traced(name, run):
        def op(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = run(*args)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / (n_x * n_y * 8)
            return out
        return op

    for name, op in scenario._OPS.items():
        monkeypatch.setitem(scenario._OPS, name, op._replace(run=traced(name, op.run)))
    tracemalloc.start()
    try:
        run_scenario(scn)
    finally:
        tracemalloc.stop()
    return peaks


def test_each_op_group_of_a_run_stays_within_three_matrices(tmp_path, monkeypatch):
    # A matrix is n_x * n_y floats; the gap kernel reads 128 rows, half of one, at a time.
    # The widest group, the expected common-reference gap, holds a block's log atoms of both
    # families, a tilt block and its log-sum-exp temporary, a block of log ratios and the
    # row sum's half block: 2.79.  Holding whole matrices (the Gibbs family as log atoms and
    # atom masses, a tilt, its ratios) took the Gibbs-family marginal gap to 4.15, and
    # temporaries beside those (a shifted matrix and its exp, a TwoSum cascade) past 6.
    peaks = _op_group_peaks(tmp_path / "s.json", monkeypatch, 256, 256, grid=False)
    assert len(peaks) == 9
    assert max(peaks.values()) <= 3.0, {name: round(p, 2) for name, p in peaks.items()}


def test_each_op_group_of_a_long_row_run_stays_within_two_and_a_half_matrices(tmp_path,
                                                                              monkeypatch):
    # Few rows, long ones, two tilts: the shape of a fine grid, whose run phase set the
    # peak memory of the whole verify.  A block is one row here.  The widest group is the
    # oracle, at 2.39 (its rows are vectors the gap kernel does not read); the widest gap
    # group, the Gibbs-family marginal, holds its family as one matrix of log atoms, 1.88.
    # Whole-matrix tilts and log ratios took the expected common-reference gap to 4.77.
    peaks = _op_group_peaks(tmp_path / "s.json", monkeypatch, 8, 20_000, grid=True)
    assert len(peaks) == 9
    assert max(peaks.values()) <= 2.5, {name: round(p, 2) for name, p in peaks.items()}


def test_a_family_row_derives_its_log_atoms_alone():
    # A family stacked from weights, as the loader builds it, holds no log atoms: a row
    # measure holds views of the row, and derives its log atoms from that row alone.
    # Deriving the family's whole matrix, kept for the family's lifetime, read 1 matrix.
    n_x, n_y = 8, 20_000
    w = np.random.default_rng(3).uniform(0.05, 1.0, size=(n_x, n_y))
    fam = _probability_family(PointSupport(np.arange(n_x)), GridSupport(-3.0, 3.0, n_y), w)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        log_row = fam[3].log_density
        lift = (tracemalloc.get_traced_memory()[1] - start) / (n_x * n_y * 8)
    finally:
        tracemalloc.stop()
    assert lift <= 0.15, round(lift, 3)
    assert "log_density" not in fam.__dict__
    assert log_row.tobytes() == np.log(fam._density[3]).tobytes()


def test_a_run_keeps_nothing_the_size_of_a_matrix(tmp_path):
    # The kernels derive log atoms and atom masses a block of rows at a time and keep none,
    # so what a run leaves is vectors: the reference's and the X-marginal's log atoms.
    # Deriving each family's log atoms once and keeping them for the scenario's lifetime
    # left 2.02 matrices.
    n_x = n_y = 256
    run_scenario(load_scenario(_scenario_file(tmp_path / "warm.json", 4, 8, grid=False)))
    path = _scenario_file(tmp_path / "s.json", n_x, n_y, grid=False)
    tracemalloc.start()
    try:
        scn = load_scenario(path)
        loaded = tracemalloc.get_traced_memory()[0]
        assert run_scenario(scn)["summary"]["failed"] == 0
        kept = (tracemalloc.get_traced_memory()[0] - loaded) / (n_x * n_y * 8)
    finally:
        tracemalloc.stop()
    assert kept <= 0.05, round(kept, 3)


# ---------------------------------------------------------------------------
# the kernels alone, on read-only inputs: a write into one would raise


def _traced(call) -> int:
    """The traced peak of ``call()`` above its start, in bytes, after a warm call."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def test_each_kernel_writes_only_the_matrices_it_owns():
    # 64 x 4097 floats, 2 MB: NumPy's fixed iteration buffers (64 KB per strided operand)
    # stay within the 0.1 of slack; an odd width gives the row sum an odd column to add
    rng = np.random.default_rng(8)
    shape = (64, 4097)
    x, log_p, log_q = _read_only(rng.standard_normal(shape), np.log(rng.uniform(0.1, 1.0, shape)),
                                 np.log(rng.uniform(0.1, 1.0, shape)))
    (mass,) = _read_only(np.exp(log_p))
    size = x.nbytes
    assert _traced(lambda: _sum_rows(x)) <= 0.6 * size  # its half-width matrix
    assert _traced(lambda: _logsumexp(x, axis=-1)) <= 1.1 * size  # its one temporary
    assert _traced(lambda: _mean_rows(x, mass)) <= 1.6 * size  # products, row sum
    assert _traced(lambda: _kl_rows(mass, log_p, log_q)) <= 1.6 * size  # ratios, row sum


def test_an_averaged_form_holds_one_tilt_block_at_a_time(tmp_path, monkeypatch):
    # Each averaged form reads its rows in blocks, two of 128 rows here, and tilts a block
    # one tilt at a time; a tilt block's log atoms are freed before the next is tilted, and
    # a block of rows before the next is read, so every tilt starts where the first did.
    # Holding the first tilt's log atoms while the second was tilted read 1.04 matrices.
    n_x = n_y = 256
    scn = load_scenario(_scenario_file(tmp_path / "s.json", n_x, n_y, grid=False))
    run_scenario(scn)  # derives the reference's log atoms, once
    h, q, p_x, (f1, f2) = scn.cost, scn.reference, scn.p_x, scn.families.values()
    forms = {
        "expected_gap_closed_form": lambda lams: gaps._expected_common(h, f1, f2, p_x, q, lams),
        "expected_gap_relative P2-ref": lambda lams: gaps._expected_relative(
            h, f1, f2, p_x, "P2-ref", lams),
        "expected_gap_relative P1-ref": lambda lams: gaps._expected_relative(
            h, f1, f2, p_x, "P1-ref", lams),
        "marginal_gap": lambda lams: gaps._marginal(h, f1, p_x, q, lams),
        "gibbs_marginal_gap": lambda lams: gaps._gibbs_marginal(h, q, lams, p_x),
    }
    starts = []

    def tilts(*args):
        starts.append(tracemalloc.get_traced_memory()[0])
        return gibbs_tilts(*args)

    gibbs_tilts = gaps._gibbs_tilts
    monkeypatch.setattr(gaps, "_gibbs_tilts", tilts)
    lifts = {}
    tracemalloc.start()
    try:
        for name, form in forms.items():
            starts.clear()
            assert not any(isinstance(d, Exception) for d in form([1.0, -2.0]))
            assert len(starts) == 2 * 2  # (row blocks) x (tilts)
            lifts[name] = (max(starts) - starts[0]) / (n_x * n_y * 8)
    finally:
        tracemalloc.stop()
    assert max(lifts.values()) <= 0.25, {name: round(v, 2) for name, v in lifts.items()}
