"""Mutation fuzzing of the scenario loader through ``gibbsgap verify``.

Each example takes a bundled scenario and applies a few mutations: drop a
key or list entry, replace a value by one of another type or out of range,
or add to a check a key that belongs to another op.  Whatever comes out,
``verify`` must return 0, 1 or 2, and an input error must be one
``error:`` line; no exception may escape.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap.cli import main

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
