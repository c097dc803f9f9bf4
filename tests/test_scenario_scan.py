"""The scenario loader's scan against ``json.loads``.

``load_scenario`` reads a file as UTF-8 text in chunks of ``scenario._CHUNK``
(64 Ki) characters and scans it through a window that holds only the text
not yet consumed: one top-level value, one family and one matrix row at a
time, each all-number row of ``cost`` and of a family held as a float array
once scanned.  A differential test over generated JSON texts checks that the
scanned document is ``json.loads``'s, row arrays aside, scanned whole and
read 1 and 7 characters at a time; a table of malformed and edge-case files
checks that every message is the one ``json.loads(path.read_text(...))``
gives, at those chunk sizes too, and from a pipe; and tracemalloc bounds
check that the load's peak stays near the file size, where reading the whole
text holds twice that.
"""

import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gibbsgap import ScenarioError, load_scenario, render_json, run_scenario
from gibbsgap import scenario

# ---------------------------------------------------------------------------
# generated texts: a JSON value is a scalar, ("arr", items) or ("obj", pairs),
# where pairs may repeat a key; it is written with chosen whitespace between
# every two tokens

SPACES = st.sampled_from(["", " ", "\t", "\n", "\r", "\r\n", " \t\n\r ", "    "])
NUMBERS = st.one_of(
    st.integers(-(2**64), 2**64),
    st.integers(2**1023, 2**1100),  # some overflow a float
    st.floats(),  # NaN and the infinities included
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, 2**53 + 1, math.inf, -math.inf, math.nan]),
)
NOT_NUMBERS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), st.just(("arr", [1.0])), st.just(("obj", [])))
ROWS = st.one_of(
    st.lists(NUMBERS, max_size=6),  # all numbers, or empty
    st.lists(st.one_of(NUMBERS, NOT_NUMBERS), min_size=1, max_size=6),
    NUMBERS, NOT_NUMBERS,  # a row that is no list
)
MATRICES = st.one_of(st.lists(ROWS, max_size=4).map(lambda rows: ("arr", rows)), NUMBERS, NOT_NUMBERS)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=6))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda items: ("arr", items)),
        st.lists(st.tuples(st.text(max_size=4), inner), max_size=3).map(lambda ps: ("obj", ps)),
    ),
    max_leaves=8,
)
FAMILY_NAMES = st.sampled_from(["f1", "f2", "even", "cost", "families", ""])
FAMILIES = st.one_of(
    st.lists(st.tuples(FAMILY_NAMES, MATRICES), max_size=4).map(lambda ps: ("obj", ps)),
    MATRICES, VALUES,  # 'families' that is not an object
)
MEMBERS = st.one_of(
    st.tuples(st.just("cost"), st.one_of(MATRICES, VALUES)),
    st.tuples(st.just("families"), FAMILIES),
    st.tuples(st.sampled_from(["schema", "name", "x_points", "reference", "p_x", "pairs"]), VALUES),
    st.tuples(st.text(max_size=4), VALUES),
)
DOCUMENTS = st.lists(MEMBERS, max_size=6).map(lambda ps: ("obj", ps))


def _write(value, spaces) -> str:
    """JSON text of a generated value, with ``spaces()`` between every two tokens."""
    if isinstance(value, tuple):
        kind, items = value
        if kind == "arr":
            parts = [_write(v, spaces) for v in items]
            opening, closing = "[", "]"
        else:
            parts = [f"{json.dumps(k)}{spaces()}:{spaces()}{_write(v, spaces)}" for k, v in items]
            opening, closing = "{", "}"
        inner = "".join((spaces() + "," if i else "") + spaces() + p for i, p in enumerate(parts))
        return opening + inner + spaces() + closing
    return json.dumps(value)


def _rule(row) -> bool:
    """Whether the loader holds a row as an array: a non-empty list of int and float entries
    (no bool), none of which overflows a float."""
    if not isinstance(row, list) or not row or not {type(v) for v in row} <= {int, float}:
        return False
    try:
        [float(v) for v in row]
    except OverflowError:
        return False
    return True


def _assert_same(got, want, path="$"):
    """``got`` is ``want``: same types, same key order, floats equal bit for bit."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            _assert_same(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), path
    else:
        assert got == want, path


def _assert_rows(got, want, where):
    """The rows of a matrix: an array exactly where the rule holds, with the bits of
    ``float`` of each entry; any other row as ``json.loads`` gives it."""
    if not isinstance(want, list):
        _assert_same(got, want, where)
        return
    assert type(got) is list and len(got) == len(want), where
    for k, (g, w) in enumerate(zip(got, want)):
        if _rule(w):
            assert isinstance(g, np.ndarray) and g.dtype == np.float64, f"{where}[{k}]"
            assert g.tobytes() == struct.pack(f"={len(w)}d", *map(float, w)), f"{where}[{k}]"
        else:
            _assert_same(g, w, f"{where}[{k}]")


def _assert_scanned(got, want):
    """``got`` is the document ``want`` with the rows of ``cost`` and of each family as the
    loader holds them."""
    assert type(got) is type(want)
    if not isinstance(want, dict):
        _assert_same(got, want)
        return
    assert list(got) == list(want)
    for key in want:
        if key == "cost":
            _assert_rows(got[key], want[key], "$.cost")
        elif key == "families" and isinstance(want[key], dict):
            assert list(got[key]) == list(want[key])
            for name in want[key]:
                _assert_rows(got[key][name], want[key][name], f"$.families.{name}")
        else:
            _assert_same(got[key], want[key], f"$.{key}")


#: Chunk sizes, in characters, that put a chunk boundary inside every token and every row.
CHUNKS = [1, 7]


def _scanned(text, chunk):
    """The loader's document of ``text``: scanned as one chunk (``chunk`` None), or read from
    a stream ``chunk`` characters at a time."""
    if chunk is None:
        chunks = iter((text,))
        return scenario._scan(lambda n: next(chunks, ""), lambda: text)
    with mock.patch.object(scenario, "_CHUNK", chunk):
        return scenario._read(io.StringIO(text))


@pytest.fixture(scope="module")
def chunk():
    """The differential tests scan a text as one chunk; the chunked run passes a size."""
    return None


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS, data=st.data())
def test_the_scan_gives_the_document_of_json_loads(chunk, doc, data):
    text = _write(doc, lambda: data.draw(SPACES))
    want = json.loads(text)
    with mock.patch.object(json, "loads", side_effect=AssertionError("the scan fell back")):
        got = _scanned(text, chunk)
    _assert_scanned(got, want)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS, data=st.data())
def test_a_cut_or_padded_text_parses_or_fails_as_json_loads_does(chunk, doc, data):
    text = _write(doc, lambda: data.draw(SPACES))
    text = data.draw(st.sampled_from([
        text[:data.draw(st.integers(0, len(text)))],
        text + data.draw(st.sampled_from(["x", "{}", ",", " 1", "]"])),
        "\ufeff" + text, "[" + text + "]", text.replace(":", "", 1), text.replace(",", "", 1),
        text.replace("}", ",}", 1), text.replace("]", ",]", 1), text.replace('"', "", 1),
    ]))
    try:
        want = json.loads(text)
    except ValueError as e:
        with pytest.raises(type(e)) as got:
            _scanned(text, chunk)
        assert str(got.value) == str(e)
    else:
        _assert_scanned(_scanned(text, chunk), want)


@pytest.mark.parametrize("size", CHUNKS)
def test_texts_read_in_chunks_parse_or_fail_as_json_loads_does(size):
    test_the_scan_gives_the_document_of_json_loads(chunk=size)
    test_a_cut_or_padded_text_parses_or_fails_as_json_loads_does(chunk=size)


# ---------------------------------------------------------------------------
# malformed and edge-case files: load_scenario says what it says when the file
# is parsed by json.loads

BASE = {
    "schema": 1,
    "name": "scan",
    "y_support": [[0.0], [1.0], [2.0]],
    "x_points": [[0.0], [1.0]],
    "cost": [[0.0, 1.0, -1.5], [2, -0.25, 0.5]],
    "reference": "counting",
    "lambdas": [0.5, -1.0],
    "p_x": [0.25, 0.75],
    "families": {"f1": [[0.2, 0.3, 0.5], [1, 2, 3]], "f2": [[0.5, 0.25, 0.25], ["0.1", 0.4, 0.5]]},
    "pairs": [
        {"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"},
        {"op": "gap_closed_form", "x_index": 1, "p1": "f1", "p2": "f2"},
        {"op": "marginal_gap", "family": "f2"},
    ],
}
T = json.dumps(BASE, indent=1)
F1 = '"f1": [\n   [\n    0.2,\n    0.3,\n    0.5\n   ],'
assert F1 in T
DEEP = "[" * 100_000


def _text(**changes):
    return json.dumps({**BASE, **changes}, indent=1)


CORPUS = {
    "empty file": "",
    "whitespace only": " \n\t",
    "byte order mark": "\ufeff" + T,
    "trailing data": T + " x",
    "a second object": T + "{}",
    "no colon": T.replace('"cost":', '"cost"', 1),
    "no comma": T.replace(',\n "reference"', '\n "reference"', 1),
    "trailing comma in families": T.replace('\n  ]\n }', '\n  ],\n }', 1),
    "trailing comma at the top": T[:-2] + ",\n}",
    "trailing comma in a family row": T.replace("0.5\n   ],", "0.5,\n   ],", 1),
    "duplicate cost, the last valid": T.replace('"cost":', '"cost": "x", "cost":', 1),
    "duplicate cost, the last bad": T.replace(
        '"reference":', '"cost": [[0, 1, "x"], [1, 2, 3]], "reference":', 1),
    "duplicate family": T.replace('"f2":', '"f1": [[1, 0, 0], [0, 1, 0]], "f2":', 1),
    "duplicate families": T.replace('"families":', '"families": [1], "families":', 1),
    "families a list": _text(families=[BASE["families"]]),
    "5000-digit integer in cost": T.replace("-1.5", "9" * 5000, 1),
    "5000-digit integer in a family": T.replace("0.3,", "9" * 5000 + ",", 1),
    "nested 100000 deep in the name": T.replace('"scan"', DEEP, 1),
    "nested 100000 deep in a family": T.replace(F1, '"f1": ' + DEEP, 1),
    "control character in a key": T.replace('"cost"', '"co\x01st"', 1),
    "control character in a family name": T.replace('"f2":', '"f\x02":', 1),
    "true in cost": T.replace("-1.5", "true", 1),
    "null in a family": T.replace("0.3,", "null,", 1),
    "an empty family row": T.replace("[\n    0.2,\n    0.3,\n    0.5\n   ]", "[]", 1),
    "a negative weight in a family": T.replace("0.3,", "-0.3,", 1),
    "an overflowing integer in a family": T.replace("0.3,", str(10**400) + ",", 1),
    "a bad name and a bad family row": T.replace('"scan"', "7", 1).replace("0.3,", "true,", 1),
    "top level a list": "[" + T + "]",
    "top level a string": '"scan"',
    "unterminated": T[: T.index('"families"')],
    "a key that is no string": T.replace('"schema"', "1", 1),
    "an empty object": "{}",
    "no families": json.dumps({k: v for k, v in BASE.items() if k != "families"}),
    "an escaped key": T.replace('"cost"', '"co\\u0073t"', 1),
    "NaN and Infinity in cost": _text(cost=[[0.0, math.nan, -1.5], [2, -math.inf, 0.5]]),
    "-0.0 in cost and a family": _text(
        cost=[[-0.0, 1.0, -1.5], [2, -0.0, 0.5]],
        families={"f1": [[-0.0, 0.5, 0.5], [1, 2, 3]], "f2": BASE["families"]["f2"]}),
    "CRLF line ends": T.replace("\n", "\r\n"),
    "CR line ends": T.replace("\n", "\r"),
    "CRLF line ends and no colon": T.replace("\n", "\r\n").replace('"cost":', '"cost"', 1),
    "CRLF line ends and a trailing comma in a family row": T.replace(
        "0.5\n   ],", "0.5,\n   ],", 1).replace("\n", "\r\n"),
}


def _outcome(path):
    try:
        scn = load_scenario(path)
    except ScenarioError as e:
        return "error", str(e)
    report = run_scenario(scn)
    del report["wall_time_s"]
    return "report", render_json(report)


def _json_loads_outcome(path):
    """What ``load_scenario`` says when the file is parsed by ``json.loads`` of its whole text."""
    with mock.patch.object(scenario, "_read", lambda f: json.loads(path.read_text(encoding="utf-8"))):
        return _outcome(path)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_a_malformed_or_odd_file_says_what_json_loads_says(name, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(CORPUS[name], encoding="utf-8")
    got = _outcome(path)
    want = _json_loads_outcome(path)
    assert got == want


@pytest.mark.parametrize("size", CHUNKS)
def test_a_malformed_or_odd_file_read_in_chunks_says_what_json_loads_says(size, tmp_path):
    for name, text in CORPUS.items():
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        want = _json_loads_outcome(path)
        with mock.patch.object(scenario, "_CHUNK", size):
            assert _outcome(path) == want, name


@pytest.mark.parametrize("size", [scenario._CHUNK, *CHUNKS])
def test_an_undecodable_byte_past_the_first_chunk_is_named_at_its_file_offset(size, tmp_path):
    raw = T.encode().replace(b'"scan"', b'"' + b"s" * 70_000 + b'\xff"', 1)
    path = tmp_path / "s.json"
    path.write_bytes(raw)
    at = raw.index(b"\xff")
    assert at > 70_000 > scenario._CHUNK
    want = f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    assert _json_loads_outcome(path) == ("error", want)
    with mock.patch.object(scenario, "_CHUNK", size):
        assert _outcome(path) == ("error", want)


@pytest.mark.parametrize("text", [T, '{"schema": 1, "name": "x",, }'], ids=["valid", "malformed"])
def test_a_pipe_is_read_once_and_never_opened_again(text, tmp_path):
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        run = subprocess.run([sys.executable, "-m", "gibbsgap.cli", "verify", "--format", "json",
                              str(pipe)], capture_output=True, text=True, timeout=30)
    finally:
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # frees a writer still waiting
        writer.join(timeout=10)
        os.close(reader)
    assert not writer.is_alive()
    if text == T:
        (tmp_path / "s.json").write_text(T, encoding="utf-8")
        kind, want = _outcome(tmp_path / "s.json")
        got = json.loads(run.stdout)
        del got["wall_time_s"]
        assert (run.returncode, run.stderr, kind) == (0, "", "report")
        assert got == json.loads(want)
    else:
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (f"error: {pipe}: invalid JSON at line 1 column 27: "
                              "Expecting property name enclosed in double quotes\n")


def test_the_corpus_reaches_both_outcomes_and_keeps_the_name_first(tmp_path):
    outcomes = {}
    for name, text in CORPUS.items():
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        outcomes[name] = _outcome(path)
    assert outcomes["duplicate cost, the last valid"][0] == "report"
    assert outcomes["a bad name and a bad family row"] == (
        "error", "scenario needs a non-empty string 'name'")
    assert sum(kind == "error" for kind, _ in outcomes.values()) >= 27


# ---------------------------------------------------------------------------
# load memory: the file is read in chunks, so the load never holds its whole
# text; the scanned rows and the built scenario set the peak, about the file
# size.  A read of the whole text holds its bytes and the text together, twice
# the file size: the 2.25x bound is the one that read met.


def _all_number_scenario(path, n_x, n_y, grid):
    rng = random.Random(20250)

    def rows():
        return [[rng.uniform(0.05, 1.0) for _ in range(n_y)] for _ in range(n_x)]

    doc = {"schema": 1, "name": "load-memory"}
    if grid:
        doc["y_grid"] = {"lo": -3.0, "hi": 3.0, "n_cells": n_y}
    else:
        doc["y_support"] = [[float(j)] for j in range(n_y)]
    doc.update({
        "x_points": [[float(i)] for i in range(n_x)],
        "cost": [[rng.uniform(-1.0, 1.0) for _ in range(n_y)] for _ in range(n_x)],
        "reference": "lebesgue" if grid else "counting",
        "lambdas": [1.0, -2.0],
        "p_x": [rng.uniform(0.05, 1.0) for _ in range(n_x)],
        "families": {"f1": rows(), "f2": rows()},
        "pairs": [{"op": "expected_gap_closed_form", "family1": "f1", "family2": "f2"}],
    })
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _load_peak(path) -> tuple[int, int]:
    """``load_scenario``'s traced peak on ``path``, and the file size, in bytes."""
    tracemalloc.start()
    try:
        load_scenario(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, path.stat().st_size


SHAPES = [(4, 20_000, True), (64, 512, False)]


@pytest.mark.parametrize("n_x, n_y, grid", SHAPES)
def test_the_load_peaks_at_the_read(tmp_path, n_x, n_y, grid):
    peak, size = _load_peak(_all_number_scenario(tmp_path / "s.json", n_x, n_y, grid))
    assert peak <= 2.25 * size, f"peak {peak / size:.2f} x the file size"


@pytest.mark.parametrize("n_x, n_y, grid", SHAPES)
def test_the_load_peaks_near_the_file_size(tmp_path, n_x, n_y, grid):
    path = _all_number_scenario(tmp_path / "s.json", n_x, n_y, grid)
    with mock.patch.object(json, "loads", side_effect=AssertionError("the load fell back")):
        peak, size = _load_peak(path)
    assert peak <= 1.25 * size, f"peak {peak / size:.2f} x the file size"
