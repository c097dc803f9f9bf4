"""The benchmark's metrics, and the end-to-end metric each layer metric should move.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` carries;
``run.py`` prints exactly these names.  ``PER_LAYER`` adds, per metric, the
end-to-end metric and workload a change to that layer should move (the
``moves`` column), written down before any change is measured.
"""

from __future__ import annotations

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("checks_passed_frac", "ratio", "higher", 0.02),
)

#: Public functions of ``gibbsgap.gaps`` (its ``__all__`` minus the class).
GAP_FUNCTIONS = (
    "gap_direct",
    "gap_closed_form",
    "gap_closed_form_relative",
    "gap_mixture_reference",
    "expected_gap_direct",
    "expected_gap_closed_form",
    "expected_gap_relative",
    "marginal_gap",
    "gibbs_marginal_gap",
)

_FINITE = "run_s on wide-finite"
_GRID = "run_s on grid-fine"
_ORACLE = "run_s, verify_s and checks_passed_frac on oracle-sweep"
_PER_ATOM = "run_s on grid-fine (per-atom cost) and wide-finite (per-call cost)"


def _pairs(qual: str, moves: str, stats=("calls", "self_s")) -> list[tuple[str, str, str, str]]:
    units = {"calls": "count", "self_s": "s", "total_s": "s", "distinct_frac": "ratio"}
    better = {"distinct_frac": "higher"}
    return [(f"{qual}.{s}", units[s], better.get(s, "lower"), moves) for s in stats]


#: (name, unit, better, moves)
PER_LAYER = tuple(
    [
        ("import.gibbsgap_s", "s", "lower", "setup_s and verify_s on cli-bundled"),
        ("import.numpy_s", "s", "lower", "none: the floor under import.gibbsgap_s"),
        ("scenario.load_scenario.total_s", "s", "lower",
         "setup_s and verify_s on wide-finite and grid-fine"),
        ("scenario.run_scenario.self_s", "s", "lower",
         "run_s on oracle-sweep, only if per-record runner overhead changes"),
        ("scenario.render_json.total_s", "s", "lower",
         "none: kept so the rendering stage is accounted for"),
    ]
    + _pairs("measures.make_finite_measure", _FINITE)
    + _pairs("measures.absolutely_continuous", _FINITE)
    + _pairs("measures.make_grid_density", _GRID)
    + _pairs("measures.expectation", _GRID)
    + _pairs("measures.marginal_y", _FINITE, ("calls", "self_s", "distinct_frac"))
    + _pairs("gibbs.gibbs_tilt", _FINITE, ("calls", "self_s", "distinct_frac"))
    + _pairs("gibbs.log_partition", _PER_ATOM)
    + _pairs("divergences.kl", _PER_ATOM)
    + _pairs("gibbs.variational_oracle", _ORACLE)
    + _pairs("gibbs.free_energy_identities", _ORACLE, ("self_s",))
    + _pairs("divergences.mutual_information", _FINITE)
    + _pairs("divergences.lautum_information", _FINITE)
    + [m for fn in GAP_FUNCTIONS for m in _pairs(f"gaps.{fn}", _FINITE, ("calls", "self_s", "total_s"))]
    + [
        ("gaps.discrepancy_max", "value", "lower",
         "none: information, the largest |direct - closed_form| over passing gap records"),
        ("trace.overhead_frac", "ratio", "lower", "none: the tracing cost itself"),
    ]
)
