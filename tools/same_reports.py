"""Compare the reports of this checkout's ``src/`` with those of another revision.

    python3 tools/same_reports.py REV [FILE ...]

Unpacks ``src/`` of the git revision ``REV`` with ``git archive`` into a
temporary directory, then runs ``gibbsgap verify`` with both trees, in JSON
and in text, on a fixed input set (and on each ``FILE`` given):

* ``scenarios/*.json`` and ``bench/data/*.json``;
* ``tests/data/*.json``, the golden ``*.report.json`` files excepted;
* the files of every workload of ``bench/workloads.py`` at seeds 911 and 4242;
* two copies of the ``wide-finite`` file at seed 911, indented one value a line: one
  with CRLF line ends, and one with a byte that is no UTF-8 at byte 70,000, past the
  loader's first chunk, so that line ends and the decoding message cross chunk
  boundaries;
* ``invalid.json``, a document that is not JSON (``INVALID``);
* ``blocks.json`` (``_blocks_doc``), a 5 x 8193 point scenario whose rows the gap
  kernel reads three to a block: point 2 carries no X-mass, so the four rows that do
  split 3 + 1 and point 4 is the last block.  There, family ``f2``'s member is the only
  one with mass where the reference has none, and the cost holds ``1e10``, so the tilt
  ``-1e300`` overflows and raises ``InfiniteLogPartition`` for that row alone.  Its ten
  checks compare which row and which error each op names;
* through a pipe, as ``verify /dev/stdin``, so that the loader takes the path of a stream
  that cannot seek: the ``wide-finite`` file at seed 911, its CRLF and bad-byte copies,
  and ``invalid.json``;
* ``gibbsgap generate --seed 7`` at 4x8x5 and 16x32x3 (written by ``REV``'s
  tree; the generated bytes of both trees are compared too);
* the one-fault documents of ``FAULTS``, written into the temporary directory, which
  take every exit-2 message of the loader's ``_build_scenario`` and ``_parse_check`` at
  least once.  Each is the valid 2 x 2 document ``POINTS`` or ``GRID`` with one field
  set (or dropped, ``DROP``):

  - the document: ``no-name``, ``both-y``, ``no-x_points``, ``no-cost``,
    ``no-reference``, ``schema-2``;
  - ``POINTS``' Y-support and cost: ``duplicate-y``, ``cost-not-rows``, ``ragged-cost``,
    ``cost-columns``, ``cost-rows``;
  - ``GRID``'s Y-support and cost: ``y_grid-not-an-object``, ``grid-lo``,
    ``grid-n_cells``, ``grid-lo-above-hi``, ``grid-cost-columns``;
  - the reference: ``reference-length`` and ``grid-reference-length``,
    ``lebesgue-on-points``, ``counting-on-grid``, ``negative-reference``;
  - the other measures: ``zero-lambda``, ``p_x-length``, ``families-not-an-object``,
    ``family-rows``, ``family-row-length``, ``grid-family-row-length``,
    ``family-negative``, ``grid-family-zero-mass``;
  - the checks: ``no-pairs``, ``check-not-an-object``, ``unknown-op``, ``foreign-key``,
    ``missing-p2``, ``x_index-range``, ``unknown-family``, ``bad-direction``,
    ``bad-alpha``, ``bad-iters``, ``bad-seed``, ``expect-form``, ``expect-unknown``,
    ``bad-tolerance``, ``label-not-a-string``.

It prints each input whose report, exit code or stderr differs, the JSON
``wall_time_s`` and the text summary's time ignored, and exits 1 if any
does.  For a JSON report that differs it prints how many records moved, the
largest move in units of ``u * M`` (``u = 2**-53``, ``M = max(1, |direct|,
sum |terms|)`` of the record at ``REV``) over its ``direct``, ``closed_form``,
``discrepancy`` and terms, with the field that made it, and every record whose
``status``, ``error`` or ``note`` changed; for any other output, the first line
that differs.  Uses the standard library and git only.
"""

from __future__ import annotations

import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (911, 4242)
GENERATE = ((4, 8, 5), (16, 32, 3))

POINTS = {
    "schema": 1, "name": "fault", "y_support": [[0.0], [1.0]], "x_points": [[0.0], [1.0]],
    "cost": [[0.0, 1.0], [1.0, 0.0]], "reference": "counting", "lambdas": [0.5],
    "p_x": [0.5, 0.5], "families": {"f": [[0.5, 0.5], [0.25, 0.75]]},
    "pairs": [{"op": "gap_closed_form", "x_index": 0, "p1": "f", "p2": "f"}],
}
DROP = "<drop>"
INVALID = '{"schema": 1, "name": "x",, }'  # a doubled comma
GRID = {**POINTS, "y_support": DROP, "y_grid": {"lo": 0.0, "hi": 2.0, "n_cells": 2},
        "reference": "lebesgue"}


def _blocks_doc() -> dict:
    """The ``blocks.json`` document: see the module docstring."""
    rng = random.Random(30)
    n_x, n_y = 5, 8193  # 3 rows of 8193 floats fit a block of 2**15, 4 do not

    def row():
        return [rng.uniform(0.05, 1.0) for _ in range(n_y)]

    reference = row()
    reference[100] = 0.0
    families = {"f1": [row() for _ in range(n_x)], "f2": [row() for _ in range(n_x)]}
    for rows in families.values():
        for r in rows:
            r[100] = 0.0
    families["f2"][4][100] = 0.5
    cost = [[rng.uniform(-1.0, 1.0) for _ in range(n_y)] for _ in range(n_x)]
    cost[4][7] = 1e10
    pair = {"p1": "f1", "p2": "f2"}
    return {
        "schema": 1, "name": "blocks", "y_support": [[float(j)] for j in range(n_y)],
        "x_points": [[float(k)] for k in range(n_x)], "cost": cost, "reference": reference,
        "lambdas": [0.5, -1e300, -2.0], "p_x": [0.3, 0.2, 0.0, 0.4, 0.1], "families": families,
        "pairs": [
            {"op": "gap_closed_form", "x_index": 4, **pair},
            {"op": "gap_closed_form_relative", "x_index": 4, **pair, "direction": "P2-ref"},
            {"op": "gap_mixture_reference", "x_index": 1, **pair, "alpha": 0.25},
            {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
            {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f1"},
            {"op": "expected_gap_relative", "family1": "f2", "family2": "f1"},
            {"op": "marginal_gap", "family": "f1"},
            {"op": "marginal_gap", "family": "f2"},
            {"op": "gibbs_marginal_gap"},
            {"op": "free_energy_identities", "x_index": 4},
        ],
    }


def _check(**fields) -> dict:
    return {"pairs": [fields]}


#: name -> (base document, the fields set on it, DROP to remove one)
FAULTS = {
    "no-name": (POINTS, {"name": DROP}),
    "both-y": (POINTS, {"y_grid": GRID["y_grid"]}),
    "no-x_points": (POINTS, {"x_points": DROP}),
    "no-cost": (POINTS, {"cost": DROP}),
    "no-reference": (POINTS, {"reference": DROP}),
    "schema-2": (POINTS, {"schema": 2}),
    "duplicate-y": (POINTS, {"y_support": [[0.0], [0.0]]}),
    "cost-not-rows": (POINTS, {"cost": []}),
    "ragged-cost": (POINTS, {"cost": [[0.0, 1.0], [1.0]]}),
    "cost-columns": (POINTS, {"cost": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]}),
    "cost-rows": (POINTS, {"cost": [[0.0, 1.0]]}),
    "y_grid-not-an-object": (GRID, {"y_grid": [0.0, 2.0, 2]}),
    "grid-lo": (GRID, {"y_grid": {"lo": "low", "hi": 2.0, "n_cells": 2}}),
    "grid-n_cells": (GRID, {"y_grid": {"lo": 0.0, "hi": 2.0, "n_cells": 0}}),
    "grid-lo-above-hi": (GRID, {"y_grid": {"lo": 2.0, "hi": 0.0, "n_cells": 2}}),
    "grid-cost-columns": (GRID, {"cost": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]}),
    "reference-length": (POINTS, {"reference": [1.0]}),
    "grid-reference-length": (GRID, {"reference": [1.0, 1.0, 1.0]}),
    "lebesgue-on-points": (POINTS, {"reference": "lebesgue"}),
    "counting-on-grid": (GRID, {"reference": "counting"}),
    "negative-reference": (POINTS, {"reference": [1.0, -1.0]}),
    "zero-lambda": (POINTS, {"lambdas": [0.5, 0.0]}),
    "p_x-length": (POINTS, {"p_x": [1.0]}),
    "families-not-an-object": (POINTS, {"families": []}),
    "family-rows": (POINTS, {"families": {"f": [[0.5, 0.5]]}}),
    "family-row-length": (POINTS, {"families": {"f": [[0.5, 0.5], [1.0]]}}),
    "grid-family-row-length": (GRID, {"families": {"f": [[0.5, 0.5], [0.2, 0.3, 0.5]]}}),
    "family-negative": (POINTS, {"families": {"f": [[0.5, 0.5], [-1.0, 2.0]]}}),
    "grid-family-zero-mass": (GRID, {"families": {"f": [[0.0, 0.0], [0.5, 0.5]]}}),
    "no-pairs": (POINTS, {"pairs": DROP}),
    "check-not-an-object": (POINTS, {"pairs": [["gap_closed_form"]]}),
    "unknown-op": (POINTS, _check(op="gap")),
    "foreign-key": (POINTS, _check(op="gibbs_marginal_gap", x_index=0)),
    "missing-p2": (POINTS, _check(op="gap_closed_form", p1="f")),
    "x_index-range": (POINTS, _check(op="free_energy_identities", x_index=2)),
    "unknown-family": (POINTS, _check(op="marginal_gap", family="g")),
    "bad-direction": (POINTS, _check(op="expected_gap_relative", family1="f", family2="f",
                                     direction="up")),
    "bad-alpha": (POINTS, _check(op="gap_mixture_reference", p1="f", p2="f", alpha="half")),
    "bad-iters": (POINTS, _check(op="variational_oracle", iters=0)),
    "bad-seed": (POINTS, _check(op="variational_oracle", seed=-1)),
    "expect-form": (POINTS, _check(op="gibbs_marginal_gap", expect="ZeroMass")),
    "expect-unknown": (POINTS, _check(op="gibbs_marginal_gap", expect="error:ZeroMass")),
    "bad-tolerance": (POINTS, _check(op="gibbs_marginal_gap", tolerance=0)),
    "label-not-a-string": (POINTS, _check(op="gibbs_marginal_gap", name=3)),
}


def _unpack(rev: str, into: Path) -> Path:
    """``src/`` of ``rev``, written under ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def _gibbsgap(src: Path, *args: str, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gibbsgap.cli", *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=ROOT, input=stdin)


def _workload_files(out_dir: Path) -> list[Path]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [path for name in workloads.WORKLOADS for seed in SEEDS
            for path in workloads.workload_files(name, seed, out_dir)]


def _text_files(source: Path, out_dir: Path) -> list[Path]:
    """A CRLF copy of the scenario file ``source``, one value a line, and a copy of that
    with a byte that is no UTF-8 at byte 70,000, written under ``out_dir``."""
    raw = json.dumps(json.loads(source.read_text()), indent=1).replace("\n", "\r\n").encode()
    crlf, bad = out_dir / "crlf.json", out_dir / "bad-byte.json"
    crlf.write_bytes(raw)
    bad.write_bytes(raw[:70_000] + b"\xff" + raw[70_000:])
    return [crlf, bad]


def _fault_files(out_dir: Path) -> list[Path]:
    """The documents of ``FAULTS``, written under ``out_dir``."""
    out_dir.mkdir()
    paths = []
    for name, (base, fields) in FAULTS.items():
        doc = {k: v for k, v in {**base, **fields}.items() if v != DROP}
        paths.append(out_dir / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    return paths


def _generated(srcs: list[Path], out_dir: Path) -> tuple[list[Path], list[str]]:
    """The files ``generate`` writes with the first tree, and the runs whose bytes differ."""
    files, differ = [], []
    for nx, ny, count in GENERATE:
        args = ["--seed", "7", "--nx", str(nx), "--ny", str(ny), "--count", str(count)]
        written = []
        for i, src in enumerate(srcs):
            out = out_dir / f"gen-{nx}x{ny}x{count}-{i}"
            _gibbsgap(src, "generate", *args, "--out", str(out))
            written.append(sorted(out.iterdir()))
        old, new = ([(p.name, p.read_bytes()) for p in w] for w in written)
        if old != new:
            differ.append(f"generate {' '.join(args)}")
        files += written[0]
    return files, differ


def _seen(src: Path, path: Path, piped: bool) -> list:
    """What ``verify`` shows of ``path``, or of ``/dev/stdin`` with ``path``'s bytes piped in,
    in JSON and in text, with its timing removed."""
    seen = []
    for fmt in ("json", "text"):
        run = (_gibbsgap(src, "verify", "--format", fmt, "/dev/stdin", stdin=path.read_bytes())
               if piped else _gibbsgap(src, "verify", "--format", fmt, str(path)))
        out = re.sub(rb',\n *"wall_time_s": [^\n]*', b"", run.stdout)  # the last key
        out = re.sub(rb"\(\d+\.\d+s\)\n$", b"", out)
        seen.append((fmt, run.returncode, out, run.stderr.replace(bytes(src), b"<src>")))
    return seen


def _first_change(a: bytes, b: bytes) -> str:
    """The first line where ``a`` and ``b`` differ, as it reads in each."""
    old, new = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y), min(len(old), len(new)))
    line = lambda lines: lines[i].decode(errors="replace") if i < len(lines) else "<end>"
    return f"line {i + 1}: {line(old)!r}\n        -> {line(new)!r}"


def _number(v):
    """A report's number as a float (``"nan"``, ``"inf"`` and ``"-inf"`` included), else None."""
    if isinstance(v, (int, float)):
        return float(v)
    return float(v) if v in ("nan", "inf", "-inf") else None


def _move(was, now, scale: float) -> float:
    """How far one field moved, in units of ``u * scale``: infinite if it became or stopped
    being a finite number."""
    if was == now:
        return 0.0
    was, now = _number(was), _number(now)
    if was is None or now is None or not (math.isfinite(was) and math.isfinite(now)):
        return math.inf
    return abs(now - was) / (2.0**-53 * scale)


def _scale(record: dict) -> float:
    """``M = max(1, |direct|, sum |terms|)`` of a record, its non-numbers left out."""
    direct = _number(record["direct"])
    terms = [abs(t) for t in map(_number, (record["terms"] or {}).values()) if t is not None]
    return max(1.0, abs(direct) if direct is not None else 0.0, math.fsum(terms))


def _record_moves(a: bytes, b: bytes) -> list[str]:
    """How the records of the JSON reports ``a`` and ``b`` moved, or nothing if either is
    not a report."""
    try:
        old, new = (json.loads(r)["records"] for r in (a, b))
    except (ValueError, KeyError, TypeError):
        return []
    lines = [] if len(old) == len(new) else [f"  records {len(old)} -> {len(new)}"]
    moves = []
    for k, (was, now) in enumerate(zip(old, new)):
        name = f"record {k}, {was['check']} at lambda {was['lambda']}"
        was_terms, now_terms = was["terms"] or {}, now["terms"] or {}
        fields = {f: (was[f], now[f]) for f in ("direct", "closed_form", "discrepancy")}
        fields.update({t: (was_terms.get(t), now_terms.get(t)) for t in {**was_terms, **now_terms}})
        if any(x != y for x, y in fields.values()):
            moves.append(max((_move(x, y, _scale(was)), f"{name}, {f}")
                             for f, (x, y) in fields.items()))
        lines += [f"  {name}: {f} {was[f]!r} -> {now[f]!r}"
                  for f in ("status", "error", "note") if was[f] != now[f]]
    if moves:
        worst, name = max(moves)
        lines.insert(0, f"  {len(moves)} of {len(old)} records moved, the largest by "
                        f"{worst:.3g} u*M ({name})")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        srcs = [_unpack(argv[0], tmp / "rev"), ROOT / "src"]
        inputs = [*sorted((ROOT / "scenarios").glob("*.json")),
                  *sorted((ROOT / "bench" / "data").glob("*.json")),
                  *sorted(p for p in (ROOT / "tests" / "data").glob("*.json")
                          if not p.name.endswith(".report.json")),
                  *_workload_files(tmp / "workloads"), *_fault_files(tmp / "faults")]
        wide, invalid = tmp / "workloads" / "wide-finite-911.json", tmp / "invalid.json"
        invalid.write_text(INVALID)
        blocks = tmp / "blocks.json"
        blocks.write_text(json.dumps(_blocks_doc()))
        piped = [wide, *_text_files(wide, tmp), invalid]
        generated, differ = _generated(srcs, tmp)
        inputs = list(dict.fromkeys([*inputs, blocks, *piped, *generated,
                                     *(Path(a).resolve() for a in argv[1:])]))
        runs = [(path, False) for path in inputs] + [(path, True) for path in piped]
        for path, pipe in runs:
            name = next((path.relative_to(d) for d in (tmp, ROOT) if d in path.parents), path)
            name = f"{name} via stdin" if pipe else name
            for (fmt, *was), (_, *now) in zip(*(_seen(src, path, pipe) for src in srcs)):
                if was != now:
                    differ.append(f"{name} ({fmt}): exit {was[0]} -> {now[0]}")
                    if was[1] != now[1]:
                        differ += ((fmt == "json" and _record_moves(was[1], now[1]))
                                   or [f"  stdout {_first_change(was[1], now[1])}"])
                    if was[2] != now[2]:
                        differ.append(f"  stderr {_first_change(was[2], now[2])}")
        print(f"{len(inputs)} inputs, {len(piped)} of them also piped, verified with {argv[0]} "
              "and with this checkout")
    print("\n".join(differ) if differ else "every report, exit code and stderr is the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
