"""The gibbsgap benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Workloads are listed in ``workloads.py`` and metrics in
``metrics.py``.  Each workload is a closed loop with one client: one
scenario is verified at a time, from one process, with no added threads.

A run repeats rounds for ``S`` seconds (at least three rounds) and reports
the median of each metric's samples.  With ``--trace 0`` a round takes one
sample of each end-to-end metric:

* ``setup_s``: a fresh interpreter imports gibbsgap and loads the
  workload's files, timed from outside;
* ``verify_s``: ``python -m gibbsgap.cli verify FILE --format json`` as a
  subprocess over each file in turn, with ``peak_rss_mb`` read from each
  child's own resource usage;
* ``run_s``: load + run + render over the files in the warm worker process.

With ``--trace 1`` a round times a fresh-interpreter ``import numpy`` and
``import gibbsgap``, then an untraced and a traced pass in the worker; the
per-layer metrics come from the traced passes.  The spans of the last
traced pass are written to ``.bench_out/`` when the run ends.

Every sample passes a correctness gate: each ``verify`` report parses, its
exit code is 0 exactly when ``summary.failed == 0`` (else 1), its statuses
equal the in-process ones, and every ``pass`` record has ``discrepancy <=
tolerance``.  An exit code of 2 or a traceback aborts the run (exit 1, no
result).  Failed checks are the program's outcome, counted by
``checks_passed_frac``, not benchmark errors.

The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit, the median's sample count and the
highest percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from worker import summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable

#: A run is abandoned after this many seconds, well inside the 180 s limit.
DEADLINE_S = 170
#: Every run measures at least this many rounds, however long they take.
MIN_ROUNDS = 3


class BenchError(Exception):
    """The harness or a hard correctness gate failed; the run has no result."""


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(1)


class Children:
    """Starts and reaps every child process of the run."""

    def __init__(self, env: dict[str, str], work: Path) -> None:
        self.env = env
        self.work = work
        self.live: set[int] = set()
        self.worker: subprocess.Popen | None = None

    def spawn_wait(self, args: list[str], tag: str):
        """Run ``python ARGS`` to completion; return ``(seconds, exit code, rusage, stdout, stderr)``.

        ``posix_spawn`` plus ``wait4`` reads the child's own peak RSS and
        starts timing at the spawn, with no polling delay.
        """
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(PYTHON, [PYTHON, *args], self.env, file_actions=actions)
        self.live.add(pid)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
        self.live.discard(pid)
        return seconds, os.waitstatus_to_exitcode(status), usage, out.read_text(), err.read_text()

    def start_worker(self, workload: str, seed: int) -> list[str]:
        self.worker = subprocess.Popen(
            [PYTHON, str(BENCH / "worker.py"), str(ROOT), workload, str(seed), str(self.work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )
        return self._read()["files"]

    def ask(self, command: str) -> dict:
        self.worker.stdin.write(command + "\n")
        self.worker.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        line = self.worker.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.worker.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.worker is not None:
            try:
                self.worker.stdin.close()
                self.worker.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.worker.kill()
                self.worker.wait()
        for pid in list(self.live):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            self.live.discard(pid)


# ---------------------------------------------------------------------------
# statistics and printing


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.9 with at least ten samples beyond it, by nearest rank."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            rank = math.ceil(p * n / 100)
            return p, sorted(samples)[rank - 1]
    return None


def describe(samples: list[float], unit: str) -> str:
    t = tail(samples)
    spread = f"p{t[0]:g} {t[1]:.6g} {unit}" if t else "no tail percentile (needs >= 20 samples)"
    return f"median of n={len(samples)}; {spread}"


def print_row(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


# ---------------------------------------------------------------------------
# measurement


def rounds(seconds: float, one_round) -> None:
    """Call ``one_round()`` at least :data:`MIN_ROUNDS` times, then until ``seconds`` have passed.

    Each round takes one sample of every metric, so all of them are spread
    over the whole run and see the same host conditions.
    """
    t0 = time.perf_counter()
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        one_round()
        n += 1


def verify_files(kids: Children, files: list[str]) -> tuple[list[float], float, list[dict]]:
    """One ``verify_s`` sample: seconds per file, the largest child peak RSS in MB, the reports."""
    times, peak, reports = [], 0.0, []
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, path in enumerate(files):
        seconds, code, usage, out, err = kids.spawn_wait(
            ["-m", "gibbsgap.cli", "verify", path, "--format", "json"], f"verify-{i}"
        )
        if code == 2 or "Traceback" in err:
            raise BenchError(f"verify {path} exited {code}:\n{err}")
        try:
            report = json.loads(out)
        except json.JSONDecodeError as e:
            raise BenchError(f"verify {path}: report is not JSON: {e}") from None
        want = 0 if report["summary"]["failed"] == 0 else 1
        if code != want:
            report["gate"] = f"exit code {code}, expected {want} for summary {report['summary']}"
        if usage.ru_maxrss <= own_rss:
            raise BenchError("the benchmark process is larger than a verify child; its RSS would leak in")
        times.append(seconds)
        peak = max(peak, usage.ru_maxrss / 1024)
        reports.append(report)
    return times, peak, reports


def measure_end_to_end(kids: Children, files: list[str], seconds: float) -> tuple[dict, dict]:
    samples = {"setup_s": [], "verify_s": [], "run_s": [], "peak_rss_mb": []}
    attempted, failed, problems = 0, 0, []
    records = {"total": 0, "passed": 0, "failed_records": []}
    per_file: dict[str, list[float]] = {}

    def one_round():
        nonlocal attempted, failed
        secs, code, _, _, err = kids.spawn_wait([str(BENCH / "probe.py"), "setup", *files], "setup")
        if code != 0:
            raise BenchError(f"set-up probe exited {code}:\n{err}")
        samples["setup_s"].append(secs)
        v_times, peak, reports = verify_files(kids, files)
        run = kids.ask("run")
        samples["verify_s"].append(sum(v_times))
        for path, secs in zip(files, v_times):
            per_file.setdefault(Path(path).name, []).append(secs)
        samples["peak_rss_mb"].append(peak)
        samples["run_s"].append(run["seconds"])
        sub = summarize(reports)
        gate = [r["gate"] for r in reports if "gate" in r] + sub["violations"] + run["violations"]
        if sub["statuses"] != run["statuses"]:
            gate.append("statuses differ between the verify report and the in-process report")
        attempted += len(files) + 1
        if gate:
            failed += 1
            problems.extend(gate)
        records["total"] = sum(len(s) for s in sub["statuses"])
        records["passed"] = sum(st in ("pass", "expected-error") for s in sub["statuses"] for st in s)
        records["failed_records"] = sub["failed_records"]

    kids.spawn_wait([str(BENCH / "probe.py"), "gibbsgap"], "warm")  # byte-code and page cache
    rounds(seconds, one_round)
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["checks_passed_frac"] = records["passed"] / records["total"]
    info = {"samples": samples, "per_file": per_file, "records": records,
            "attempted": attempted, "failed": failed, "problems": problems}
    return values, info


def measure_layers(kids: Children, files: list[str], seconds: float, spans_path: Path) -> tuple[dict, dict]:
    imports = {"import.numpy_s": [], "import.gibbsgap_s": []}
    plain, traced = [], []

    def one_round():
        for module in ("numpy", "gibbsgap"):
            _, code, _, out, err = kids.spawn_wait([str(BENCH / "probe.py"), module], "import")
            if code != 0:
                raise BenchError(f"import probe exited {code}:\n{err}")
            imports[f"import.{module}_s"].append(float(out))
        order = (plain, traced) if len(plain) % 2 == 0 else (traced, plain)
        for out in order:  # alternate which pass goes first, so neither gains from going second
            out.append(kids.ask("run" if out is plain else "trace"))

    kids.spawn_wait([str(BENCH / "probe.py"), "gibbsgap"], "warm")
    rounds(seconds, one_round)
    kids.ask(f"spans {spans_path}")

    problems = [v for r in plain + traced for v in r["violations"]]
    if any(r["statuses"] != plain[0]["statuses"] for r in plain + traced):
        problems.append("statuses differ between passes")
    layers = [t["layers"] for t in traced]
    for qual, row in layers[0].items():
        if any(other[qual]["calls"] != row["calls"] for other in layers):
            problems.append(f"{qual}: call count differs between traced passes")

    values = {k: statistics.median(v) for k, v in imports.items()}
    for qual, row in layers[0].items():
        values[f"{qual}.calls"] = row["calls"]  # identical in every pass, checked above
        for stat in ("total_s", "self_s", "distinct_frac"):
            if stat in row:
                values[f"{qual}.{stat}"] = statistics.median(lay[qual][stat] for lay in layers)
    values["gaps.discrepancy_max"] = max(r["discrepancy_max"] for r in plain + traced)
    untraced = statistics.median(r["seconds"] for r in plain)
    values["trace.overhead_frac"] = (statistics.median(r["seconds"] for r in traced) - untraced) / untraced
    info = {"samples": {**imports, "run_s": [r["seconds"] for r in plain],
                        "traced_run_s": [r["seconds"] for r in traced]},
            "attempted": len(plain) + len(traced), "failed": 1 if problems else 0,
            "problems": problems}
    return values, info


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gibbsgap" / "__init__.py").is_file():
        print(f"error: no src/gibbsgap under {ROOT}; run from the root of a gibbsgap checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    kids = Children(env, work)
    try:
        files = kids.start_worker(args.workload, args.seed)
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
            values, info = measure_layers(kids, files, args.seconds, spans)
        else:
            values, info = measure_end_to_end(kids, files, args.seconds)
    except (BenchError, _Deadline) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        kids.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client")
    if args.trace:
        for name, unit, _, moves in PER_LAYER:
            print_row(name, values.get(name, 0.0), unit, f"moves {moves}")
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
    else:
        for name, unit, _, _ in END_TO_END:
            note = describe(info["samples"][name], unit) if name in info["samples"] else ""
            print_row(name, values[name], unit, note)
        if len(info["per_file"]) > 1:
            for fname, secs in info["per_file"].items():
                print_row(f"verify_s[{fname}]", statistics.median(secs), "s", describe(secs, "s"))
        rec = info["records"]
        n_bad = rec["total"] - rec["passed"]
        print_row("checks_failed_frac", n_bad / rec["total"], "ratio",
                  f"{n_bad} of {rec['total']} records per pass")
        for ident in rec["failed_records"]:
            print(f"    failed: {ident}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    for problem in info["problems"]:
        print(f"  gate: {problem}")
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
