"""Print the peak RSS of each stage of ``gibbsgap verify`` on a scenario file.

    python3 tools/stage_rss.py FILE [--src DIR] [--runs N] [--json]

Each stage runs in a fresh interpreter, with ``DIR`` (default: this
checkout's ``src/``) first on ``sys.path`` and no bytecode written, and
reports its ``ru_maxrss`` when it ends:

* ``import``: ``import gibbsgap.cli`` and ``gibbsgap.scenario``;
* ``read``: the import, then the read that ``load_scenario`` makes, without the scan:
  ``FILE`` opened as UTF-8 text and read ``scenario._CHUNK`` characters at a time, or
  whole at once by a revision that has no ``_CHUNK``;
* ``load``: the import, then ``load_scenario(FILE)``;
* ``run``: the load, then ``render_json(run_scenario(...))``.

In the ``run`` stage each op group of the runner (the checks of one op, in
one kernel call) also reports ``ru_maxrss`` as it returns, so the table
shows which op lifts the peak above the load.  Every figure is the median
of ``N`` runs (default 5), in MB.  Uses the standard library and the
package only; pass another checkout's ``src/`` as ``DIR`` to compare two
revisions on one host.

``ru_maxrss`` counts the heap that the allocator keeps, not only what the
program holds, so the table has a floor: the glibc arenas left by the import
alone differed by 0.45 MB between two trees, and a stage-level difference
under about 1.3 MB between two trees says nothing about their allocations.
Use it to see which stage or op group lifts the peak; for any claim about
allocations, read the ``tracemalloc`` op-group peaks of
``tests/test_run_memory.py``, which repeat byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("import", "read", "load", "run")

# argv: src, file, stage.  Prints {"peak": MB, "ops": {op: MB as it returns}} as JSON.
_CHILD = r"""
import json, resource, sys
src, path, stage = sys.argv[1:4]
sys.path.insert(0, src)
import gibbsgap.cli
from gibbsgap import scenario

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

ops = {}
if stage == "read":
    with open(path, encoding="utf-8") as f:
        while f.read(getattr(scenario, "_CHUNK", -1)):
            pass
elif stage in ("load", "run"):
    scn = scenario.load_scenario(path)
    if stage == "run":
        def peak_after(name, run):
            def timed(*args):
                out = run(*args)
                ops[name] = peak()
                return out
            return timed
        for name, op in list(scenario._OPS.items()):
            scenario._OPS[name] = op._replace(run=peak_after(name, op.run))
        scenario.render_json(scenario.run_scenario(scn))
print(json.dumps({"peak": peak(), "ops": ops}))
"""


def _stage(src: Path, path: Path, stage: str) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-c", _CHILD, str(src), str(path), stage],
                         capture_output=True, text=True, env=env)
    if run.returncode != 0:
        raise SystemExit(f"stage {stage} of {path} failed:\n{run.stderr}")
    return json.loads(run.stdout.splitlines()[-1])


def measure(src: Path, path: Path, runs: int) -> dict:
    """``{"stages": {stage: MB}, "ops": {op: MB}}``, each the median of ``runs`` runs; the
    stages take turns within each run."""
    stages: dict[str, list[float]] = {s: [] for s in STAGES}
    ops: dict[str, list[float]] = {}
    for _ in range(runs):
        for stage in STAGES:
            seen = _stage(src, path, stage)
            stages[stage].append(seen["peak"])
            for name, mb in seen["ops"].items():
                ops.setdefault(name, []).append(mb)
    median = lambda values: round(statistics.median(values), 2)
    return {"stages": {s: median(v) for s, v in stages.items()},
            "ops": {name: median(v) for name, v in ops.items()}}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("file", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--json", action="store_true", help="print the result as one JSON line")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    result = measure(args.src.resolve(), args.file.resolve(), args.runs)
    if args.json:
        print(json.dumps(result))
        return 0
    print(f"{args.file.name}: peak RSS in MB, median of {args.runs} runs")
    for stage, mb in result["stages"].items():
        print(f"  {stage:<26} {mb:8.2f}")
    print("  as each op group of the run returns:")
    for name, mb in result["ops"].items():
        print(f"    {name:<24} {mb:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
