"""The benchmark's workloads and their seeded input generator.

Each workload fixes the shape of its scenario files (support sizes,
reference kind, tilt set and op list); the seed draws only the numbers, so
a claim can be re-checked on a fresh seed without the work changing.  The
generator is written here, not taken from ``gibbsgap.generate_scenarios``,
so that a change to the package's own generator cannot change a workload.

``cli-bundled`` is the exception: it reads the frozen copies of the two
bundled scenarios kept in ``bench/data/`` and ignores the seed.

Only the standard library is used, so the orchestrator can import this
module without importing NumPy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("cli-bundled", "wide-finite", "oracle-sweep", "grid-fine")

ORACLE_ITERS = 800


def _positive_row(rng: random.Random, n: int) -> list[float]:
    """Strictly positive weights; the loader normalizes family rows."""
    return [rng.uniform(0.05, 1.0) for _ in range(n)]


def _normalized_row(rng: random.Random, n: int) -> list[float]:
    row = _positive_row(rng, n)
    total = sum(row)
    return [w / total for w in row]


def _cost(rng: random.Random, n_x: int, n_y: int) -> list[list[float]]:
    return [[rng.uniform(-1.0, 1.0) for _ in range(n_y)] for _ in range(n_x)]


def _generate_ops(rng: random.Random, n_x: int, oracle: bool) -> list[dict]:
    """The ten ops of ``gibbsgap generate``, with the directions fixed.

    The oracle works on finite supports only, so grid workloads leave it out.
    """
    ops = [{"op": "free_energy_identities", "x_index": rng.randrange(n_x)}]
    if oracle:
        ops.append({"op": "variational_oracle", "x_index": rng.randrange(n_x),
                    "iters": ORACLE_ITERS, "seed": rng.randrange(2**31)})
    return ops + [
        {"op": "gap_closed_form", "x_index": rng.randrange(n_x), "p1": "f1", "p2": "f2"},
        {"op": "gap_closed_form_relative", "x_index": rng.randrange(n_x),
         "p1": "f1", "p2": "f2", "direction": "P2-ref"},
        {"op": "gap_closed_form_relative", "x_index": rng.randrange(n_x),
         "p1": "f1", "p2": "f2", "direction": "P1-ref"},
        {"op": "gap_mixture_reference", "x_index": rng.randrange(n_x),
         "p1": "f1", "p2": "f2", "alpha": rng.choice((0.25, 0.5, 0.75))},
        {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
        {"op": "expected_gap_relative", "family1": "f1", "family2": "f2",
         "direction": "P2-ref"},
        {"op": "marginal_gap", "family": "f1"},
        {"op": "gibbs_marginal_gap"},
    ]


def _families(rng: random.Random, n_x: int, n_y: int) -> dict:
    return {name: [_positive_row(rng, n_y) for _ in range(n_x)] for name in ("f1", "f2")}


def _wide_finite(rng: random.Random) -> dict:
    """256 x 256 finite support, the ten ops of ``gibbsgap generate``."""
    n_x, n_y = 256, 256
    return {
        "schema": 1,
        "name": "wide-finite",
        "y_support": [[float(j)] for j in range(n_y)],
        "x_points": [[float(j)] for j in range(n_x)],
        "cost": _cost(rng, n_x, n_y),
        "reference": _normalized_row(rng, n_y),
        "lambdas": [1.0, -2.0],
        "p_x": _positive_row(rng, n_x),
        "families": _families(rng, n_x, n_y),
        "pairs": _generate_ops(rng, n_x, oracle=True),
    }


def _oracle_sweep(rng: random.Random) -> dict:
    """4 x 64 finite support; the oracle and free energy at every x."""
    n_x, n_y = 4, 64
    pairs = [
        {"op": "variational_oracle", "x_index": k, "iters": ORACLE_ITERS,
         "seed": rng.randrange(2**31)}
        for k in range(n_x)
    ]
    pairs += [{"op": "free_energy_identities", "x_index": k} for k in range(n_x)]
    pairs.append({"op": "gap_closed_form", "x_index": rng.randrange(n_x),
                  "p1": "f1", "p2": "f2"})
    return {
        "schema": 1,
        "name": "oracle-sweep",
        "y_support": [[float(j)] for j in range(n_y)],
        "x_points": [[float(j)] for j in range(n_x)],
        "cost": _cost(rng, n_x, n_y),
        "reference": _normalized_row(rng, n_y),
        "lambdas": [0.5, -0.5, 2.0, -2.0, 800.0, -800.0],
        "p_x": _positive_row(rng, n_x),
        "families": _families(rng, n_x, n_y),
        "pairs": pairs,
    }


def _grid_fine(rng: random.Random) -> dict:
    """20,000-cell grid on [-3, 3), 8 rows, every op legal on a grid."""
    n_x, n_y = 8, 20_000
    return {
        "schema": 1,
        "name": "grid-fine",
        "y_grid": {"lo": -3.0, "hi": 3.0, "n_cells": n_y},
        "x_points": [[float(j)] for j in range(n_x)],
        "cost": _cost(rng, n_x, n_y),
        "reference": "lebesgue",
        "lambdas": [1.0, -2.0],
        "p_x": _positive_row(rng, n_x),
        "families": _families(rng, n_x, n_y),
        "pairs": _generate_ops(rng, n_x, oracle=False),
    }


_GENERATORS = {
    "wide-finite": _wide_finite,
    "oracle-sweep": _oracle_sweep,
    "grid-fine": _grid_fine,
}


def workload_files(name: str, seed: int, out_dir: Path) -> list[Path]:
    """Return the scenario files of workload ``name``, writing them if generated.

    The same ``(name, seed)`` writes the same bytes.
    """
    if name == "cli-bundled":
        return [DATA_DIR / "two_point.json", DATA_DIR / "designed_violation.json"]
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    doc = _GENERATORS[name](random.Random(f"{name}:{seed}"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-{seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    return [path]
