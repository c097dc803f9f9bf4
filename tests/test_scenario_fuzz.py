"""Mutation fuzzing of the scenario loader through ``gibbsgap verify``.

Each example takes a bundled scenario and applies a few mutations: drop a
key or list entry, replace a value by one of another type or out of range,
or add to a check a key that belongs to another op.  Whatever comes out,
``verify`` must return 0, 1 or 2, and an input error must be one
``error:`` line; no exception may escape.

A differential test checks that the one-call parse of an all-number row
and the entry-by-entry parse agree bit for bit, and reject alike.
"""

import contextlib
import copy
import io
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import ScenarioError
from gibbsgap.cli import main
from gibbsgap.scenario import _num, _num_list

REPO = Path(__file__).resolve().parent.parent
BASES = [json.loads(p.read_text()) for p in sorted((REPO / "scenarios").glob("*.json"))]

CHECK_KEYS = (
    "op", "name", "tolerance", "expect", "x_index", "p1", "p2", "direction", "alpha",
    "family", "family1", "family2", "iters", "seed",
)
ODD_VALUES = (
    None, True, False, -1, 0, 1, 2, 1.5, -0.5, 1e300, 10**6, "", "x", "nan", "0.5",
    "P1-ref", "sideways", "error:", "error:ZeroMass", "full", "even", [], [1.0], [[1.0]], {},
)


def _paths(node, prefix=()):
    """Every location inside a JSON value, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _odd(data):
    """One of ``ODD_VALUES``, copied so that later mutations leave the table alone."""
    return copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))


def _mutate(doc, data):
    kind = data.draw(st.sampled_from(("drop", "replace", "foreign")))
    if kind == "foreign" and isinstance(doc, dict) and isinstance(doc.get("pairs"), list):
        checks = [c for c in doc["pairs"] if isinstance(c, dict)]
        if checks:
            check = data.draw(st.sampled_from(checks))
            check[data.draw(st.sampled_from(CHECK_KEYS))] = _odd(data)
            return doc
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return _odd(data)
    parent = _at(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _odd(data)
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_scenarios_never_escape_verify(tmp_path_factory, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(BASES))))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    path = tmp_path_factory.mktemp("fuzz") / "s.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert "summary:" in out.getvalue()


# ---------------------------------------------------------------------------
# the two parse paths of a numeric row: a row of JSON numbers only is
# converted in one NumPy call, any other row entry by entry by ``_num``

MAX_INT = int(sys.float_info.max)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2**53 + 1]),
    st.integers(-(2**64), 2**64),
    st.integers(-MAX_INT, MAX_INT),
    st.integers(2**1023, MAX_INT),
)
NOT_NUMBERS = st.one_of(
    st.booleans(), st.none(), st.just([1.0]), st.sampled_from(["x", "", "1.0.0", "0x10"]),
    st.integers(2**1024, 2**1100), st.integers(-(2**1100), -(2**1024)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(NUMBERS, min_size=1, max_size=40))
def test_bulk_row_parse_gives_the_bits_of_the_entrywise_parse(row):
    bulk = _num_list(row, "row")
    each = [_num(v, f"row[{i}]") for i, v in enumerate(row)]
    assert bulk.dtype == np.float64
    assert bulk.tobytes() == struct.pack(f"{len(each)}d", *each)
    assert each == [float(v) for v in row]


@settings(max_examples=200, deadline=None)
@given(st.lists(NUMBERS, min_size=1, max_size=20), NOT_NUMBERS, st.data())
def test_a_row_with_a_non_number_is_rejected_by_name(row, bad, data):
    i = data.draw(st.integers(0, len(row)))
    row.insert(i, bad)
    with pytest.raises(ScenarioError) as whole:
        _num_list(row, "row")
    with pytest.raises(ScenarioError) as entry:
        _num(bad, f"row[{i}]")
    assert str(whole.value) == str(entry.value)
    assert str(whole.value).startswith(f"row[{i}]: ")


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Hypothesis's failure report imports modules that emit DeprecationWarning;
    # under the repository's filterwarnings they must not end the run in an
    # INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
