"""Command-line entry point.

Two subcommands:

``gibbsgap verify <file> [--tolerance R] [--format text|json]``
    Run every check in a scenario file and print the report.  Exit code 0
    when all checks pass (expected-failure checks pass by raising their
    declared error), 1 when any check fails, 2 when the input cannot be
    parsed or validated.

``gibbsgap generate --seed N --nx N --ny N --count N --out DIR``
    Write ``count`` random scenario files.  Output is a pure function of
    the arguments: the same seed reproduces the same bytes.  Exit code 2
    when the arguments are invalid or ``DIR`` cannot be written.

No network access, no environment variables: exit codes and stdout/stderr
are the only side channels.  A stdout closed early ends a command with exit
code 1 and no traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ScenarioError
from .scenario import (DEFAULT_TOL_FINITE, DEFAULT_TOL_GRID, generate_scenarios, render_json,
                       render_text, run_scenario_file)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsgap",
        description="verify exact divergence decompositions of expectation gaps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the checks in a scenario file")
    verify.add_argument("file", help="path to a scenario JSON file")
    verify.add_argument(
        "--tolerance", type=float, default=None, metavar="R",
        help="override the default discrepancy tolerance "
        f"({DEFAULT_TOL_FINITE:g} finite support, {DEFAULT_TOL_GRID:g} grid)",
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )

    gen = sub.add_parser("generate", help="write random scenario files")
    gen.add_argument("--seed", type=int, required=True, help="RNG seed")
    gen.add_argument("--nx", type=int, required=True, help="number of conditioning points")
    gen.add_argument("--ny", type=int, required=True, help="number of outcome points")
    gen.add_argument("--count", type=int, required=True, help="number of files to write")
    gen.add_argument("--out", required=True, metavar="DIR", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:  # the reader is gone; see "Note on SIGPIPE" in Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    if args.command == "verify":
        if args.tolerance is not None and not 0 < args.tolerance < math.inf:
            print("error: --tolerance must be finite and positive", file=sys.stderr)
            return 2
        try:
            report, code = run_scenario_file(args.file, tolerance=args.tolerance)
        except ScenarioError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        text = (render_json if args.format == "json" else render_text)(report)
        encoding = sys.stdout.encoding or "utf-8"  # what it cannot encode: \xXX / \uXXXX escapes
        view = memoryview(text.encode(encoding, "backslashreplace"))
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream only, such as a StringIO
            sys.stdout.write(view.tobytes().decode(encoding))
        else:  # unbuffered (-u), the buffer is a raw file: a write may take part of the bytes
            sys.stdout.flush()
            while view:
                view = view[out.write(view):]
        return code
    try:  # generate, the one other command argparse lets through
        paths = generate_scenarios(args.seed, args.nx, args.ny, args.count, args.out)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
