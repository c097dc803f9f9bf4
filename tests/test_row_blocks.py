"""The gap kernel reads its rows a block at a time: any block size gives the same report.

``measures._BLOCK`` bounds the floats of a block.  A report of one row per block
(``_BLOCK = 1``), or of blocks of a drawn size, must equal the report of one block
for all rows, bit for bit in every field: the per-row sums do not depend on the
block, the reductions over rows run in row order, and the first failing row names
the error, whichever block it is in.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import measures, run_scenario
from gibbsgap.scenario import _build_scenario

from test_tilt_axis import _bits, scenario_docs


@st.composite
def block_docs(draw):
    """A scenario of :func:`scenario_docs` with at least two points, some of no X-mass, and,
    if drawn, a member that escapes the reference only at a later point and a cost at a
    later point that ``1e300`` times overflows, with ``-1e300`` or ``1e300`` among the tilts."""
    n_y = draw(st.integers(1, 12))
    doc = draw(scenario_docs(n_y))
    n_x = len(doc["x_points"])
    if n_x == 1:  # a second point, the first one's twin
        doc["x_points"].append([1.0])
        doc["cost"].append(list(doc["cost"][0]))
        doc["p_x"].append(draw(st.sampled_from([0.0, 0.25, 1.0])))
        for rows in doc["families"].values():
            rows.append(list(rows[0]))
        n_x = 2
    later = st.integers(1, n_x - 1)
    if draw(st.booleans()):  # member k of a family is the first with mass where q has none
        k, j, fam = draw(later), draw(st.integers(0, n_y - 1)), draw(st.sampled_from(["f1", "f2"]))
        ref = doc["reference"]
        ref = [1.0] * n_y if isinstance(ref, str) else ref
        ref[j] = 0.0
        if not any(ref):
            ref[(j + 1) % n_y] = 1.0
        doc["reference"] = ref
        rows = doc["families"][fam]
        for r in range(k):
            if n_y > 1:
                rows[r][j] = 0.0
                rows[r][(j + 1) % n_y] += 1.0
        rows[k][j] = 1.0
    if draw(st.booleans()):  # a later row's tilt overflows
        sign = draw(st.sampled_from([1.0, -1.0]))
        doc["cost"][draw(later)][draw(st.integers(0, n_y - 1))] = sign * 1e10
        doc["lambdas"] = doc["lambdas"][:4] + [-sign * 1e300]
    return doc


def _report(scn, block):
    with mock.patch.object(measures, "_BLOCK", block):
        report = run_scenario(scn)
    report.pop("wall_time_s", None)
    return _bits(report)


@settings(max_examples=80, deadline=None)
@given(doc=block_docs(), data=st.data())
def test_a_report_is_the_same_at_any_block_size(doc, data):
    scn = _build_scenario(doc)
    n_y = len(doc["cost"][0])
    one_block = _report(scn, 2**62)
    assert _report(scn, 1) == one_block  # one row per block
    block = data.draw(st.integers(1, len(doc["x_points"]) * n_y))
    assert _report(scn, block) == one_block
