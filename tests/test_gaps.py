import math
import re
import tracemalloc

import numpy as np
import pytest

from gibbsgap import (
    ConditionalFamily,
    CostTable,
    IndexMismatch,
    MutualContinuityViolated,
    NonFiniteExpectation,
    NonProbabilityMeasure,
    NotAbsolutelyContinuous,
    RepresentationMismatch,
    constant_family,
    counting_measure,
    expected_gap_closed_form,
    expected_gap_direct,
    expected_gap_relative,
    gap_closed_form,
    gap_closed_form_relative,
    gap_direct,
    gap_mixture_reference,
    gibbs_marginal_gap,
    gibbs_tilt,
    kl,
    lautum_information,
    lebesgue_grid,
    make_finite_measure,
    make_grid_density,
    marginal_gap,
    marginal_y,
    mutual_information,
    variational_oracle,
)
from conftest import LAMBDAS, rand_cost, rand_family, rand_prob, rand_reference, y_points

PTS = [[0.0], [1.0]]
H01 = CostTable.on_support([[0.0]], PTS, [[0.0, 1.0]])
P_AT_0 = make_finite_measure(PTS, (1.0, 0.0))
P_AT_1 = make_finite_measure(PTS, (0.0, 1.0))


# ---------------------------------------------------------------------------
# the hand-worked instance


def test_two_point_direct_gap_is_minus_one():
    assert gap_direct(H01, 0, P_AT_0, P_AT_1) == -1.0


def test_two_point_closed_form_reproduces_minus_one():
    dec = gap_closed_form(H01, 0, P_AT_0, P_AT_1, counting_measure(PTS), math.log(2.0))
    assert dec.direct == -1.0
    assert dec.closed_form == pytest.approx(-1.0, abs=1e-12)
    assert dec.discrepancy <= 1e-12
    # the four terms: kl to the (2/3,1/3) tilt and to counting
    assert dec.terms["kl_p1_gibbs"] == pytest.approx(math.log(1.5), abs=1e-14)
    assert dec.terms["kl_p2_gibbs"] == pytest.approx(math.log(3.0), abs=1e-14)
    assert dec.terms["kl_p1_reference"] == 0.0
    assert dec.terms["kl_p2_reference"] == 0.0
    assert dec.reference_tag == "explicit"


def test_two_point_mixture_reference_handles_singular_pair():
    # point masses are mutually singular; the strict mixture still works
    dec = gap_mixture_reference(H01, 0, P_AT_0, P_AT_1, 0.5, math.log(2.0))
    assert dec.closed_form == pytest.approx(-1.0, abs=1e-12)
    assert dec.reference_tag == "mixture(0.5)"


def test_relative_direction_raises_for_singular_pair():
    with pytest.raises(NotAbsolutelyContinuous):
        gap_closed_form_relative(H01, 0, P_AT_0, P_AT_1, "P2-ref", 1.0)
    with pytest.raises(NotAbsolutelyContinuous):
        gap_closed_form_relative(H01, 0, P_AT_0, P_AT_1, "P1-ref", 1.0)


# ---------------------------------------------------------------------------
# randomized equivalences


def test_closed_form_matches_direct_everywhere():
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(2, 16))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        p1, p2 = rand_prob(rng, pts), rand_prob(rng, pts)
        q = rand_reference(rng, pts, probability=bool(rng.integers(2)))
        lam = rng.choice(LAMBDAS)
        dec = gap_closed_form(h, 0, p1, p2, q, lam)
        assert dec.discrepancy <= 1e-10


def test_relative_forms_match_direct_and_each_other():
    rng = np.random.default_rng(59)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        p1, p2 = rand_prob(rng, pts), rand_prob(rng, pts)
        lam = rng.choice(LAMBDAS)
        a = gap_closed_form_relative(h, 0, p1, p2, "P2-ref", lam)
        b = gap_closed_form_relative(h, 0, p1, p2, "P1-ref", lam)
        assert a.discrepancy <= 1e-10
        assert b.discrepancy <= 1e-10
        assert a.closed_form == pytest.approx(b.closed_form, abs=1e-10)
        assert a.reference_tag == "P2-as-reference"
        assert b.reference_tag == "P1-as-reference"
        # three terms each, with the right cross term
        assert set(a.terms) == {"kl_p1_gibbs", "kl_p2_gibbs", "kl_p1_p2"}
        assert set(b.terms) == {"kl_p1_gibbs", "kl_p2_gibbs", "kl_p2_p1"}


def test_one_sided_continuity_allows_exactly_one_direction():
    pts = y_points(3)
    h = CostTable.on_support([[0.0]], pts, [[0.2, -0.4, 0.9]])
    p1 = make_finite_measure(pts, (0.5, 0.5, 0.0))
    p2 = make_finite_measure(pts, (0.3, 0.3, 0.4))
    # p1 << p2 but not p2 << p1
    dec = gap_closed_form_relative(h, 0, p1, p2, "P2-ref", 1.0)
    assert dec.discrepancy <= 1e-10
    with pytest.raises(NotAbsolutelyContinuous):
        gap_closed_form_relative(h, 0, p1, p2, "P1-ref", 1.0)


def test_gap_direct_is_exactly_antisymmetric():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        p1, p2 = rand_prob(rng, pts), rand_prob(rng, pts)
        assert gap_direct(h, 0, p1, p2) == -gap_direct(h, 0, p2, p1)


def test_closed_form_is_invariant_across_references_and_lambdas():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        p1, p2 = rand_prob(rng, pts), rand_prob(rng, pts)
        values = [
            gap_closed_form(h, 0, p1, p2, rand_reference(rng, pts), lam).closed_form
            for lam in LAMBDAS
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-10)


def test_pythagorean_identity():
    # lam * gap(P, G) + kl(P, Q) = kl(P, G) + kl(G, Q)
    rng = np.random.default_rng(71)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        p = rand_prob(rng, pts)
        q = rand_reference(rng, pts, probability=bool(rng.integers(2)))
        lam = rng.choice(LAMBDAS)
        g = gibbs_tilt(h, q, lam, 0).measure
        lhs = lam * gap_direct(h, 0, p, g) + kl(p, q)
        rhs = kl(p, g) + kl(g, q)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_grid_decomposition_is_exact_to_rounding():
    rng = np.random.default_rng(73)
    n = 64
    ref = lebesgue_grid(0.0, 2.0, n)
    h = CostTable.on_grid([[0.0]], 0.0, 2.0, n, [rng.uniform(-1, 1, n)])
    p1 = make_grid_density(0.0, 2.0, rng.uniform(0.05, 1.0, n), normalize=True)
    p2 = make_grid_density(0.0, 2.0, rng.uniform(0.05, 1.0, n), normalize=True)
    dec = gap_closed_form(h, 0, p1, p2, ref, 0.5)
    assert dec.discrepancy <= 1e-6  # in practice it is ~1e-15


# ---------------------------------------------------------------------------
# averaged over X


def _family_pair(rng, n_x, pts):
    return rand_family(rng, n_x, pts), rand_family(rng, n_x, pts)


def test_expected_gap_matches_direct():
    rng = np.random.default_rng(79)
    for _ in range(30):
        n_x = int(rng.integers(1, 8))
        n_y = int(rng.integers(2, 12))
        pts = y_points(n_y)
        h = rand_cost(rng, n_x, pts)
        c1, c2 = _family_pair(rng, n_x, pts)
        p_x = rand_prob(rng, y_points(n_x))
        q = rand_reference(rng, pts)
        lam = rng.choice(LAMBDAS)
        dec = expected_gap_closed_form(h, c1, c2, p_x, q, lam)
        assert dec.discrepancy <= 1e-10
        assert dec.direct == pytest.approx(
            expected_gap_direct(h, c1, c2, p_x), abs=0.0
        )


def test_expected_gap_relative_matches_direct():
    rng = np.random.default_rng(83)
    for _ in range(30):
        n_x = int(rng.integers(1, 6))
        n_y = int(rng.integers(2, 10))
        pts = y_points(n_y)
        h = rand_cost(rng, n_x, pts)
        c1, c2 = _family_pair(rng, n_x, pts)
        p_x = rand_prob(rng, y_points(n_x))
        lam = rng.choice(LAMBDAS)
        for direction in ("P2-ref", "P1-ref"):
            dec = expected_gap_relative(h, c1, c2, p_x, direction, lam)
            assert dec.discrepancy <= 1e-10


def test_expected_gap_aggregates_per_point_decompositions():
    # aggregated terms equal the p_x-weighted sums of per-x terms
    rng = np.random.default_rng(89)
    n_x, n_y = 3, 5
    pts = y_points(n_y)
    h = rand_cost(rng, n_x, pts)
    c1, c2 = _family_pair(rng, n_x, pts)
    p_x = rand_prob(rng, y_points(n_x))
    q = rand_reference(rng, pts)
    lam = 1.0
    dec = expected_gap_closed_form(h, c1, c2, p_x, q, lam)
    for name in ("kl_p1_gibbs", "kl_p2_gibbs", "kl_p1_reference", "kl_p2_reference"):
        want = math.fsum(
            p_x.weights[k] * gap_closed_form(h, k, c1[k], c2[k], q, lam).terms[name]
            for k in range(n_x)
        )
        assert dec.terms[name] == pytest.approx(want, abs=1e-12)


def test_expected_gap_alignment_errors():
    rng = np.random.default_rng(97)
    pts = y_points(4)
    h = rand_cost(rng, 2, pts)
    c1, c2 = _family_pair(rng, 2, pts)
    p_bad = rand_prob(rng, [[5.0], [6.0]])
    with pytest.raises(IndexMismatch):
        expected_gap_direct(h, c1, c2, p_bad)


def test_zero_mass_conditioning_points_are_skipped():
    rng = np.random.default_rng(101)
    pts = y_points(3)
    h = rand_cost(rng, 2, pts)
    c1, c2 = _family_pair(rng, 2, pts)
    p_x = make_finite_measure(y_points(2), (1.0, 0.0))
    dec = expected_gap_closed_form(h, c1, c2, p_x, rand_reference(rng, pts), 1.0)
    one_point = gap_closed_form(h, 0, c1[0], c2[0], rand_reference(rng, pts), 1.0)
    assert dec.direct == pytest.approx(one_point.direct, abs=1e-15)


# ---------------------------------------------------------------------------
# marginal vs conditional


def test_marginal_gap_matches_direct():
    rng = np.random.default_rng(103)
    for _ in range(30):
        n_x = int(rng.integers(1, 8))
        n_y = int(rng.integers(2, 12))
        pts = y_points(n_y)
        h = rand_cost(rng, n_x, pts)
        cond = rand_family(rng, n_x, pts)
        p_x = rand_prob(rng, y_points(n_x))
        q = rand_reference(rng, pts)
        lam = rng.choice(LAMBDAS)
        dec = marginal_gap(h, cond, p_x, q, lam)
        assert dec.discrepancy <= 1e-10
        assert dec.terms["mutual"] >= -1e-12
        assert dec.terms["lautum"] >= -1e-12


def test_marginal_gap_direct_is_the_constant_family_gap():
    rng = np.random.default_rng(107)
    n_x, n_y = 3, 6
    pts = y_points(n_y)
    h = rand_cost(rng, n_x, pts)
    cond = rand_family(rng, n_x, pts)
    p_x = rand_prob(rng, y_points(n_x))
    q = rand_reference(rng, pts)
    p_y = marginal_y(cond, p_x)
    dec = marginal_gap(h, cond, p_x, q, 1.0)
    want = expected_gap_direct(h, constant_family(y_points(n_x), p_y), cond, p_x)
    assert dec.direct == pytest.approx(want, abs=1e-14)


def test_marginal_gap_information_terms_match_module_values():
    rng = np.random.default_rng(109)
    n_x, n_y = 4, 7
    pts = y_points(n_y)
    h = rand_cost(rng, n_x, pts)
    cond = rand_family(rng, n_x, pts)
    p_x = rand_prob(rng, y_points(n_x))
    dec = marginal_gap(h, cond, p_x, rand_reference(rng, pts), -1.0)
    assert dec.terms["mutual"] == pytest.approx(mutual_information(cond, p_x), abs=1e-14)
    assert dec.terms["lautum"] == pytest.approx(lautum_information(cond, p_x), abs=1e-14)


def test_marginal_gap_rejects_partial_support_families():
    # members (1,0) and (0,1): the marginal is not dominated by either member
    cond = ConditionalFamily(
        x_points=y_points(2),
        members=(P_AT_0, P_AT_1),
    )
    h = CostTable.on_support(y_points(2), PTS, [[0.0, 1.0], [0.0, 1.0]])
    p_x = make_finite_measure(y_points(2), (0.5, 0.5))
    with pytest.raises(MutualContinuityViolated):
        marginal_gap(h, cond, p_x, counting_measure(PTS), 1.0)


def test_marginal_gap_requires_domination_by_reference():
    pts = y_points(2)
    cond = ConditionalFamily(
        x_points=pts,
        members=(
            make_finite_measure(PTS, (0.5, 0.5)),
            make_finite_measure(PTS, (0.25, 0.75)),
        ),
    )
    h = CostTable.on_support(pts, PTS, [[0.0, 1.0], [0.0, 1.0]])
    p_x = make_finite_measure(pts, (0.5, 0.5))
    q = make_finite_measure(PTS, (1.0, 0.0))
    with pytest.raises(NotAbsolutelyContinuous):
        marginal_gap(h, cond, p_x, q, 1.0)


def test_gibbs_family_cross_terms_vanish_exactly():
    rng = np.random.default_rng(113)
    for _ in range(20):
        n_x = int(rng.integers(1, 6))
        n_y = int(rng.integers(2, 10))
        pts = y_points(n_y)
        h = rand_cost(rng, n_x, pts)
        q = rand_reference(rng, pts, probability=bool(rng.integers(2)))
        p_x = rand_prob(rng, y_points(n_x))
        lam = rng.choice(LAMBDAS)
        dec = gibbs_marginal_gap(h, q, lam, p_x)
        assert dec.terms["cross_marginal"] == 0.0
        assert dec.terms["cross_conditional"] == 0.0
        assert dec.closed_form == pytest.approx(
            (dec.terms["mutual"] + dec.terms["lautum"]) / lam, abs=0.0
        )
        assert dec.discrepancy <= 1e-10


def test_gap_decomposition_discrepancy_is_derived():
    dec = gap_closed_form(H01, 0, P_AT_0, P_AT_1, counting_measure(PTS), 1.0)
    assert dec.discrepancy == abs(dec.direct - dec.closed_form)


# ---------------------------------------------------------------------------
# one row kernel: a single point is the one-row case


def _same(a, b):
    assert (a.direct, a.closed_form, a.reference_tag) == (b.direct, b.closed_form, b.reference_tag)
    assert list(a.terms.items()) == list(b.terms.items())


def test_a_single_point_is_exactly_the_one_row_case():
    rng = np.random.default_rng(127)
    for _ in range(60):
        n_x, n_y = int(rng.integers(1, 6)), int(rng.integers(2, 10))
        pts, xs = y_points(n_y), y_points(int(n_x))
        h = rand_cost(rng, n_x, pts)
        c1, c2 = _family_pair(rng, n_x, pts)
        q = rand_reference(rng, pts, probability=bool(rng.integers(2)))
        lam = rng.choice(LAMBDAS)
        k = int(rng.integers(n_x))
        at_k = make_finite_measure(xs, np.eye(n_x)[k])
        _same(
            expected_gap_closed_form(h, c1, c2, at_k, q, lam),
            gap_closed_form(h, k, c1[k], c2[k], q, lam),
        )
        for direction in ("P2-ref", "P1-ref"):
            _same(
                expected_gap_relative(h, c1, c2, at_k, direction, lam),
                gap_closed_form_relative(h, k, c1[k], c2[k], direction, lam),
            )
        p_x = rand_prob(rng, xs)
        tilted = tuple(gibbs_tilt(h, q, lam, j).measure for j in range(n_x))
        family = ConditionalFamily(x_points=xs, members=tilted)
        _same(gibbs_marginal_gap(h, q, lam, p_x), marginal_gap(h, family, p_x, q, lam))


def test_batched_hypothesis_checks_name_the_first_failing_member():
    pts = xs = y_points(3)
    full = make_finite_measure(pts, (0.2, 0.3, 0.5))
    partial = make_finite_measure(pts, (0.5, 0.5, 0.0))
    q = make_finite_measure(pts, (1.0, 1.0, 0.0))  # dominates `partial` only
    h = CostTable.on_support(xs, pts, np.arange(9.0).reshape(3, 3) / 9.0)
    p_x = make_finite_measure(xs, (0.2, 0.3, 0.5))

    def fam(*members):
        return ConditionalFamily(x_points=xs, members=members)

    def raises(error, message, fn, *args):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            fn(*args)

    escapes = "member {} is not absolutely continuous w.r.t. q"
    cases = [  # (cond1, cond2, the failing member named)
        ((partial, partial, partial), (partial, full, partial), "cond2 " + escapes.format(1)),
        ((partial, partial, full), (partial, full, partial), "cond2 " + escapes.format(1)),
        ((partial, full, partial), (partial, full, full), "cond1 " + escapes.format(1)),
        ((full, partial, partial), (full, partial, partial), "cond1 " + escapes.format(0)),
    ]
    for cond1, cond2, message in cases:
        args = (h, fam(*cond1), fam(*cond2), p_x, q, 1.0)
        raises(NotAbsolutelyContinuous, message, expected_gap_closed_form, *args)

    raises(NotAbsolutelyContinuous, "family " + escapes.format(1),
           marginal_gap, h, fam(partial, full, full), p_x, q, 1.0)
    mutual = "family member {} and the marginal are not mutually absolutely continuous"
    counting = counting_measure(pts)
    for members, k in (((full, partial, full), 1), ((full, full, partial), 2),
                       ((full, partial, partial), 1)):
        raises(MutualContinuityViolated, mutual.format(k),
               marginal_gap, h, fam(*members), p_x, counting, 1.0)

    raises(NotAbsolutelyContinuous, "p2 is not absolutely continuous w.r.t. the reference",
           gap_closed_form, h, 0, partial, full, q, 1.0)
    raises(NotAbsolutelyContinuous, "P2-ref direction requires p1 << p2",
           gap_closed_form_relative, h, 0, full, partial, "P2-ref", 1.0)
    raises(NotAbsolutelyContinuous, "P1-ref direction requires p2 << p1",
           expected_gap_relative, h, fam(full, partial, full), fam(full, full, full), p_x,
           "P1-ref", 1.0)


def test_a_row_without_x_mass_is_never_tilted():
    # lam * h overflows on row 1 only; row 1 carries no X-mass, so no form tilts it
    h = CostTable.on_support(y_points(2), PTS, [[0.0, 0.5], [-1e10, 0.0]])
    p = make_finite_measure(PTS, (0.5, 0.5))
    cond = constant_family(y_points(2), p)
    p_x = make_finite_measure(y_points(2), (1.0, 0.0))
    q, lam = counting_measure(PTS), 1e300
    averaged = expected_gap_closed_form(h, cond, cond, p_x, q, lam)
    assert averaged.direct == 0.0
    dec = marginal_gap(h, cond, p_x, q, lam)
    assert (dec.direct, dec.terms["mutual"], dec.terms["lautum"]) == (0.0, 0.0, 0.0)
    dec = gibbs_marginal_gap(h, q, lam, p_x)  # its family is tilted at row 0 alone
    assert (dec.direct, dec.terms["mutual"], dec.terms["lautum"]) == (0.0, 0.0, 0.0)


def test_an_averaged_op_reads_the_family_matrices_in_place():
    # Every point carries X-mass, so each op reads the family matrices, their atom masses
    # and the cost rows in place.  Copies of them would take each op's traced peak to 8-10
    # matrices of n_x * n_y floats; read in place, it stays at about 5-6.
    rng = np.random.default_rng(5)
    n_x, n_y = 32, 2048
    pts = y_points(n_y)
    h, q = rand_cost(rng, n_x, pts), rand_reference(rng, pts)
    c1, c2 = _family_pair(rng, n_x, pts)
    p_x = rand_prob(rng, y_points(n_x))
    ops = {
        "expected_gap_closed_form": lambda: expected_gap_closed_form(h, c1, c2, p_x, q, 1.0),
        "expected_gap_relative": lambda: expected_gap_relative(h, c1, c2, p_x, "P2-ref", 1.0),
        "marginal_gap": lambda: marginal_gap(h, c1, p_x, q, 1.0),
        "gibbs_marginal_gap": lambda: gibbs_marginal_gap(h, q, 1.0, p_x),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, op in ops.items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            op()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / (n_x * n_y * 8)
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 7.0, peaks


def _tilt_taking_calls(x_index: int, p_x) -> dict:
    """Each public function that takes a tilt, as a function of the tilt alone."""
    q, cond = counting_measure(PTS), constant_family([[0.0]], P_AT_0)
    return {
        "gap_closed_form": lambda lam: gap_closed_form(H01, x_index, P_AT_0, P_AT_1, q, lam),
        "gap_closed_form_relative": lambda lam: gap_closed_form_relative(
            H01, x_index, P_AT_0, P_AT_1, "P2-ref", lam),
        "gap_mixture_reference": lambda lam: gap_mixture_reference(
            H01, x_index, P_AT_0, P_AT_1, 0.5, lam),
        "expected_gap_closed_form": lambda lam: expected_gap_closed_form(
            H01, cond, cond, p_x, q, lam),
        "expected_gap_relative": lambda lam: expected_gap_relative(
            H01, cond, cond, p_x, "P2-ref", lam),
        "marginal_gap": lambda lam: marginal_gap(H01, cond, p_x, q, lam),
        "gibbs_marginal_gap": lambda lam: gibbs_marginal_gap(H01, q, lam, p_x),
        "gibbs_tilt": lambda lam: gibbs_tilt(H01, q, lam, x_index),
        "variational_oracle": lambda lam: variational_oracle(H01, q, lam, x_index),
    }


@pytest.mark.parametrize("lam", [0.0, 1e-13, math.nan, math.inf])
@pytest.mark.parametrize("name", list(_tilt_taking_calls(0, None)))
def test_every_function_taking_a_tilt_rejects_a_bad_one_before_any_other_check(name, lam):
    # with sound arguments, and with an x_index past H01's one row or a p_x on other points,
    # which would raise IndexMismatch: the tilt is checked first
    for x_index, p_x in ((0, make_finite_measure([[0.0]], (1.0,))),
                         (1, make_finite_measure([[5.0]], (1.0,)))):
        with pytest.raises(ValueError, match=r"^tilt parameter must satisfy \|lam\| >= 1e-12"):
            _tilt_taking_calls(x_index, p_x)[name](lam)


# ---------------------------------------------------------------------------
# contract errors: each call's error type and message


def _contract_calls() -> dict:
    """A call that breaks one contract of a gap form, with the error and message it raises."""
    q, px = counting_measure(PTS), make_finite_measure(y_points(2), (0.5, 0.5))
    fam = constant_family(y_points(2), P_AT_0)
    h_elsewhere = CostTable.on_support([[5.0], [6.0]], PTS, [[0.0, 1.0], [1.0, 0.0]])
    h_here = CostTable.on_support(y_points(2), PTS, [[0.0, 1.0], [1.0, 0.0]])
    half = make_finite_measure(PTS, (0.5, 0.0))  # mass 1/2
    half_x = make_finite_measure(y_points(2), (0.25, 0.25))  # mass 1/2
    other = counting_measure([[0.0], [2.0]])  # on another Y-support
    even = make_finite_measure([[0.0], [2.0]], (0.5, 0.5))
    points = "the cost table's conditioning points must equal the "
    not_probability = (NonProbabilityMeasure, "kl(p, q) requires p to be a probability")
    not_probability_x = (NonProbabilityMeasure, "the X-marginal must be a probability measure")
    direction = (ValueError, "direction must be 'P2-ref' or 'P1-ref', got 'sideways'")
    foreign = (RepresentationMismatch, "measure does not live on the cost table's Y-representation")
    return {
        "expected_gap_direct, p_x elsewhere": (
            lambda: expected_gap_direct(h_elsewhere, fam, fam, px), IndexMismatch,
            points + "families'"),
        "expected_gap_closed_form, p_x elsewhere": (
            lambda: expected_gap_closed_form(h_elsewhere, fam, fam, px, q, 1.0), IndexMismatch,
            points + "families'"),
        "expected_gap_relative, p_x elsewhere": (
            lambda: expected_gap_relative(h_elsewhere, fam, fam, px, "P2-ref", 1.0),
            IndexMismatch, points + "families'"),
        "marginal_gap, p_x elsewhere": (
            lambda: marginal_gap(h_elsewhere, fam, px, q, 1.0), IndexMismatch, points + "family's"),
        "gibbs_marginal_gap, p_x elsewhere": (
            lambda: gibbs_marginal_gap(h_elsewhere, q, 1.0, px), IndexMismatch,
            "p_x must live on the cost table's conditioning points"),
        "gap_direct, p1 of mass 1/2": (
            lambda: gap_direct(H01, 0, half, P_AT_1), NonProbabilityMeasure,
            "expectation requires a probability measure"),
        "gap_closed_form, p1 of mass 1/2": (
            lambda: gap_closed_form(H01, 0, half, P_AT_1, q, 1.0), *not_probability),
        "gap_closed_form_relative, p2 of mass 1/2": (
            lambda: gap_closed_form_relative(H01, 0, P_AT_0, half, "P1-ref", 1.0),
            *not_probability),
        "gap_mixture_reference, p1 of mass 1/2": (
            lambda: gap_mixture_reference(H01, 0, half, P_AT_1, 0.5, 1.0), *not_probability),
        "marginal_gap, p_x of mass 1/2": (
            lambda: marginal_gap(h_here, fam, half_x, q, 1.0), *not_probability_x),
        "gibbs_marginal_gap, p_x of mass 1/2": (
            lambda: gibbs_marginal_gap(h_here, q, 1.0, half_x), *not_probability_x),
        "gap_closed_form_relative, bad direction": (
            lambda: gap_closed_form_relative(H01, 0, P_AT_0, P_AT_1, "sideways", 1.0), *direction),
        "expected_gap_relative, bad direction": (
            lambda: expected_gap_relative(H01, fam, fam, px, "sideways", 1.0), *direction),
        "gap_direct, laws elsewhere": (
            lambda: gap_direct(H01, 0, even, even), *foreign),
        "gap_closed_form, laws elsewhere": (
            lambda: gap_closed_form(H01, 0, even, even, other, 1.0), *foreign),
        "gibbs_marginal_gap, reference elsewhere": (
            lambda: gibbs_marginal_gap(H01, other, 1.0, make_finite_measure([[0.0]], (1.0,))),
            *foreign),
        # a reference elsewhere is a mismatch, not the continuity failure that unequal
        # supports would also be
        "gap_closed_form, reference elsewhere": (
            lambda: gap_closed_form(H01, 0, P_AT_0, P_AT_1, other, 1.0), *foreign),
        "expected_gap_closed_form, reference elsewhere": (
            lambda: expected_gap_closed_form(h_here, fam, fam, px, other, 1.0), *foreign),
        "marginal_gap, reference elsewhere": (
            lambda: marginal_gap(h_here, fam, px, other, 1.0), *foreign),
    }


@pytest.mark.parametrize("name", list(_contract_calls()))
def test_a_broken_contract_raises_its_error_and_message(name):
    call, error, message = _contract_calls()[name]
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


# ---------------------------------------------------------------------------
# a gap row past the largest float

M = 1.7976931348623157e308


def _overflowing_marginal(p_x):
    """Costs +-M whose marginal-vs-member gap overflows: to +inf at point 0, -inf at point 1."""
    pts = y_points(3)
    h = CostTable.on_support(pts, PTS, [[M, -M], [-M, M], [0.0, 0.0]])
    rows = ((0.001, 0.999), (0.001, 0.999), (0.999, 0.001))
    fam = ConditionalFamily(x_points=pts, members=tuple(
        make_finite_measure(PTS, w, normalize=True) for w in rows))
    return h, fam, make_finite_measure(pts, p_x), counting_measure(PTS)


@pytest.mark.parametrize("p_x", [(0.05, 0.05, 0.9), (0.1, 0.0, 0.9)])
@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_a_marginal_gap_row_past_the_largest_float_is_a_non_finite_expectation(p_x, lam):
    # two rows whose gaps overflow with opposite signs, or one alone: the first such row
    # raises, as in every other gap form, before inf - inf could be summed
    with pytest.raises(NonFiniteExpectation, match=r"^gap evaluated to inf$"):
        marginal_gap(*_overflowing_marginal(p_x), lam)
