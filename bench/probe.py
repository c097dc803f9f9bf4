"""Fresh-interpreter probes, started by ``run.py`` with ``ROOT/src`` on ``PYTHONPATH``.

``probe.py numpy`` and ``probe.py gibbsgap`` print the seconds the import
took.  ``probe.py setup FILE...`` imports gibbsgap and loads each scenario
file without running a check; ``run.py`` times it from outside, so
interpreter start is included.
"""

import sys
import time


def main() -> None:
    what, files = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    if what == "numpy":
        import numpy  # noqa: F401
    elif what in ("gibbsgap", "setup"):
        import gibbsgap

        for path in files:
            gibbsgap.load_scenario(path)
    else:
        sys.exit(f"probe: unknown probe {what!r}")
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
