"""Run every workload once, untraced and traced, and write one record.

    python3 bench/record.py --seed N [--seconds S] [--out FILE]

Runs ``bench/run.py`` for each workload with ``--trace 0`` and then
``--trace 1``, one run at a time, printing each run's table.  With
``--out`` it writes a JSON record: the git commit (when the checkout is a
git repository), the CPU count, the Python, NumPy and SciPy versions, and
each run's result line.  Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "runs": []}
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"run failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            record["runs"].append({"workload": workload, "trace": trace, "result": result})
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
