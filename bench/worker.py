"""Warm-interpreter worker: the library user's view of one workload.

Started by ``run.py`` as ``worker.py ROOT WORKLOAD SEED WORKDIR`` with
``ROOT/src`` on ``PYTHONPATH``.  It imports gibbsgap, writes the workload's
scenario files, warms up on a bundled scenario, and prints one JSON line
``{"files": [...]}``.  It then answers one JSON line per command read from
stdin:

``run``
    One untraced pass: ``load_scenario`` + ``run_scenario`` +
    ``render_json`` over the workload's files, timed as a whole.
``trace``
    The same pass with the :class:`tracer.Tracer` installed; the reply adds
    the per-function aggregates.
``spans PATH``
    Write the spans of the last traced pass to ``PATH``.

It exits when stdin closes.

Entry points are called through the module attributes, so the tracer's
rebinding applies to them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: Report identities that are not gap decompositions.
_NOT_GAPS = ("free-energy", "variational-optimum")


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def summarize(reports: list[dict]) -> dict:
    """Statuses, failed records and gate violations of one pass's reports."""
    statuses, failed, violations = [], [], []
    discrepancy_max = 0.0
    for rep in reports:
        statuses.append([rec["status"] for rec in rep["records"]])
        for rec in rep["records"]:
            ident = f"{rep['scenario']} / {rec['check']} / lambda={rec['lambda']:g}"
            if rec["status"] == "pass":
                if not rec["discrepancy"] <= rec["tolerance"]:
                    violations.append(f"{ident}: pass with discrepancy {rec['discrepancy']!r}")
                if rec["identity"] not in _NOT_GAPS:
                    discrepancy_max = max(discrepancy_max, abs(rec["direct"] - rec["closed_form"]))
            elif rec["status"] != "expected-error":
                failed.append(f"{ident}: {rec['status']} {rec['error'] or ''}".rstrip())
    return {
        "statuses": statuses,
        "failed_records": failed,
        "violations": violations,
        "discrepancy_max": discrepancy_max,
    }


def main() -> None:
    root, workload, seed, work = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    import gibbsgap
    import gibbsgap.scenario as scenario

    expected = (root / "src" / "gibbsgap").resolve()
    if Path(gibbsgap.__file__).resolve().parent != expected:
        sys.exit(f"worker: imported gibbsgap from {gibbsgap.__file__}, not {expected}")

    from tracer import Tracer
    from workloads import DATA_DIR, workload_files

    files = workload_files(workload, seed, work)

    def one_pass(paths) -> tuple[float, list[dict]]:
        reports = []
        t0 = time.perf_counter()
        for path in paths:
            rep = scenario.run_scenario(scenario.load_scenario(path))
            scenario.render_json(rep)
            reports.append(rep)
        return time.perf_counter() - t0, reports

    one_pass([DATA_DIR / "two_point.json"])  # warm-up: imports and first-call paths
    _send({"files": [str(f) for f in files]})

    tracer = Tracer()
    for line in sys.stdin:
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "run":
            seconds, reports = one_pass(files)
            _send({"seconds": seconds, **summarize(reports)})
        elif cmd == "trace":
            tracer.reset()
            tracer.install()
            try:
                seconds, reports = one_pass(files)
            finally:
                tracer.remove()
            _send({"seconds": seconds, "layers": tracer.aggregate(), **summarize(reports)})
        elif cmd == "spans":
            tracer.write_spans(Path(arg))
            _send({"written": arg})
        else:
            sys.exit(f"worker: unknown command {cmd!r}")


if __name__ == "__main__":
    main()
