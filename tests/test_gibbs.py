import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gibbsgap import (
    CostTable,
    IndexMismatch,
    InfiniteLogPartition,
    NonConvergence,
    RepresentationMismatch,
    counting_measure,
    expectation,
    free_energy_identities,
    gap_direct,
    gibbs_tilt,
    kl,
    lebesgue_grid,
    log_partition,
    make_finite_measure,
    total_mass,
    variational_oracle,
)
from gibbsgap.gibbs import _logsumexp
from conftest import LAMBDAS, rand_cost, rand_prob, rand_reference, y_points

PTS = [[0.0], [1.0]]
H01 = CostTable.on_support([[0.0]], PTS, [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# the x_index contract


H2 = CostTable.on_support([[0.0], [1.0]], PTS, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [-1, 2, 5, True, False, 1.0, 1.5, np.float64(0.0), "0", None])
def test_cost_row_rejects_non_integer_and_out_of_range_indices(bad):
    q = counting_measure(PTS)
    p = make_finite_measure(PTS, (0.5, 0.5))
    with pytest.raises(IndexMismatch):
        H2.row(bad)
    with pytest.raises(IndexMismatch):
        gibbs_tilt(H2, q, 1.0, bad)
    with pytest.raises(IndexMismatch):
        log_partition(H2, q, bad, 1.0)
    with pytest.raises(IndexMismatch):
        gap_direct(H2, bad, p, p)
    with pytest.raises(IndexMismatch):
        variational_oracle(H2, q, 1.0, bad)


@pytest.mark.parametrize("good", [0, 1, np.int64(1), np.int32(0), np.uint8(1)])
def test_cost_row_accepts_python_and_numpy_integers(good):
    assert H2.row(good).tolist() == H2.values[int(good)].tolist()
    g = gibbs_tilt(H2, counting_measure(PTS), 1.0, good)
    assert g.measure.is_probability


# ---------------------------------------------------------------------------
# log partition


def test_log_partition_at_zero_is_log_mass():
    p = make_finite_measure(PTS, (0.5, 0.5))
    q = counting_measure(PTS)
    assert log_partition(H01, p, 0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert log_partition(H01, q, 0, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert log_partition(H01, q, 0, 0.0) == pytest.approx(
        math.log(total_mass(q)), abs=1e-12
    )


def test_log_partition_hand_value():
    # counting reference, h=(0,1), t=-log2: log(1 + 1/2)
    assert log_partition(H01, counting_measure(PTS), 0, -math.log(2.0)) == (
        pytest.approx(math.log(1.5), abs=1e-15)
    )


def test_log_partition_is_convex_in_t():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        q = rand_reference(rng, pts)
        t1, t2 = rng.uniform(-3, 3, 2)
        mid = log_partition(h, q, 0, 0.5 * (t1 + t2))
        avg = 0.5 * (log_partition(h, q, 0, t1) + log_partition(h, q, 0, t2))
        assert mid <= avg + 1e-10


def test_log_partition_does_not_overflow():
    # max-shift keeps huge tilts finite
    h = CostTable.on_support([[0.0]], PTS, [[0.0, 1000.0]])
    q = counting_measure(PTS)
    assert log_partition(h, q, 0, -800.0) == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(log_partition(h, q, 0, 800.0))


def test_package_import_pulls_in_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import gibbsgap, sys; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# log-sum-exp


def _lse_reference(a, b=None):
    """``log fsum(b * exp(a))``, shifted by the largest weighted exponent."""
    b = [1.0] * len(a) if b is None else b
    live = [(x, w) for x, w in zip(a, b) if w != 0]
    if not live or all(x == -math.inf for x, _ in live):
        return -math.inf
    m = max(x for x, _ in live)
    return m + math.log(math.fsum(w * math.exp(x - m) for x, w in live))


def _lse(a, b=None, axis=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _logsumexp(a, b=b, axis=axis)


def test_logsumexp_ignores_zero_weights_next_to_huge_exponents():
    a = [math.inf, 1e300, 0.0, 1.0]
    b = [0.0, 0.0, 2.0, 3.0]
    assert float(_lse(a, b)) == pytest.approx(
        math.log(math.fsum([2.0, 3.0 * math.exp(1.0)])), rel=1e-15
    )


def test_logsumexp_of_an_all_minus_inf_slice_is_minus_inf():
    assert float(_lse([-math.inf, -math.inf])) == -math.inf
    assert float(_lse([5.0, 7.0], [0.0, 0.0])) == -math.inf
    rows = np.array([[-math.inf, -math.inf], [0.0, math.log(3.0)]])
    out = _lse(rows, axis=1)
    assert out[0] == -math.inf
    assert out[1] == pytest.approx(math.log(4.0), rel=1e-15)


def test_logsumexp_row_wise_matches_reference():
    rng = np.random.default_rng(31)
    a = rng.uniform(-30.0, 30.0, size=(5, 9))
    b = rng.uniform(0.0, 2.0, size=(5, 9))
    b[1, :4] = 0.0
    for weights in (None, b):
        out = _lse(a, weights, axis=1)
        assert out.shape == (5,)
        for k in range(5):
            row_b = None if weights is None else list(weights[k])
            assert out[k] == pytest.approx(_lse_reference(list(a[k]), row_b), rel=1e-14)


def test_logsumexp_handles_exponents_near_1e3_without_overflow():
    for a in ([1000.0, 999.5, -1000.0], [-1000.0, -1001.0, -999.0], [1e3, -1e3]):
        out = float(_lse(a))
        assert math.isfinite(out)
        assert out == pytest.approx(_lse_reference(a), rel=1e-15)


def test_logsumexp_with_positive_weights_matches_reference():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        a = rng.uniform(-50.0, 50.0, size=n)
        b = rng.uniform(1e-3, 5.0, size=n)
        assert float(_lse(a, b)) == pytest.approx(
            _lse_reference(list(a), list(b)), rel=1e-14, abs=1e-14
        )


# ---------------------------------------------------------------------------
# tilting


def test_two_point_gibbs_weights():
    g = gibbs_tilt(H01, counting_measure(PTS), math.log(2.0), 0)
    assert np.allclose(g.measure.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert g.log_partition == pytest.approx(math.log(1.5), abs=1e-15)
    assert g.measure.is_probability


def test_negative_tilt_mirrors_the_weights():
    g = gibbs_tilt(H01, counting_measure(PTS), -math.log(2.0), 0)
    assert np.allclose(g.measure.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_constant_cost_tilts_to_the_normalized_reference():
    h = CostTable.on_support([[0.0]], PTS, [[5.0, 5.0]])
    q = make_finite_measure(PTS, (0.4, 1.2))
    g = gibbs_tilt(h, q, 1.0, 0)
    assert np.allclose(g.measure.weights, [0.25, 0.75], atol=1e-14)


def test_gibbs_normalization_invariant():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 16))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        q = rand_reference(rng, pts)
        lam = rng.choice(LAMBDAS)
        g = gibbs_tilt(h, q, lam, 0)
        assert total_mass(g.measure) == pytest.approx(1.0, abs=1e-12)
        assert abs(g.free_energy * (-lam) - g.log_partition) <= 1e-12


def test_tilting_composes_additively():
    # tilting by lam1 then lam2 equals tilting once by lam1 + lam2
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        q = rand_reference(rng, pts)
        lam1, lam2 = rng.uniform(0.2, 1.5, 2)
        g1 = gibbs_tilt(h, q, lam1, 0).measure
        g12 = gibbs_tilt(h, g1, lam2, 0).measure
        g_once = gibbs_tilt(h, q, lam1 + lam2, 0).measure
        assert np.allclose(g12.weights, g_once.weights, atol=1e-12)


def test_gibbs_preserves_representation():
    grid_ref = lebesgue_grid(0.0, 1.0, 8)
    h = CostTable.on_grid([[0.0]], 0.0, 1.0, 8, [np.linspace(0, 1, 8)])
    g = gibbs_tilt(h, grid_ref, 1.0, 0)
    assert g.measure.n_cells == 8
    assert g.measure.is_probability


def test_gibbs_tiny_lambda_rejected():
    with pytest.raises(ValueError):
        gibbs_tilt(H01, counting_measure(PTS), 0.0, 0)
    with pytest.raises(ValueError):
        gibbs_tilt(H01, counting_measure(PTS), 1e-13, 0)


def test_overflowing_tilt_raises_infinite_log_partition():
    h = CostTable.on_support([[0.0]], PTS, [[0.0, 2.0]])
    with pytest.raises(InfiniteLogPartition):
        gibbs_tilt(h, counting_measure(PTS), -1e308, 0)


def test_null_atom_stays_null_where_the_tilt_overflows():
    # lam * h overflows to -inf on the reference's null atom: log g must be
    # -inf there, never -inf - (-inf) = nan
    q = make_finite_measure(PTS, (1.0, 0.0))
    h = CostTable.on_support([[0.0]], PTS, [[0.0, -1e10]])
    g = gibbs_tilt(h, q, 1e300, 0)
    assert g.measure.log_density.tolist() == [0.0, -math.inf]


def test_gibbs_is_the_variational_optimum_against_samples():
    # the tilted measure beats random competitors on E_P[h] + kl(P,Q)/lam
    rng = np.random.default_rng(41)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        q = rand_reference(rng, pts, probability=bool(trial % 2))
        lam = rng.choice(LAMBDAS)
        g = gibbs_tilt(h, q, lam, 0)
        row = h.row(0)
        opt_val = expectation(row, g.measure) + kl(g.measure, q) / lam
        assert opt_val == pytest.approx(g.free_energy, abs=1e-12)
        for _ in range(100):
            p = rand_prob(rng, pts)
            val = expectation(row, p) + kl(p, q) / lam
            if lam > 0:
                assert val >= opt_val - 1e-10
            else:
                assert val <= opt_val + 1e-10


# ---------------------------------------------------------------------------
# free energy identities


def test_free_energy_sides_agree_for_probability_reference():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        q = rand_reference(rng, pts, probability=True)
        lam = rng.choice(LAMBDAS)
        g = gibbs_tilt(h, q, lam, 0)
        split = free_energy_identities(g, h, q, 0)
        assert not split.reference_skipped
        assert split.via_reference == pytest.approx(split.free_energy, abs=1e-12)
        assert split.via_gibbs == pytest.approx(split.free_energy, abs=1e-12)
        assert split.max_discrepancy <= 1e-12


def test_free_energy_reference_side_skipped_for_sigma_finite():
    q = counting_measure(PTS)
    g = gibbs_tilt(H01, q, math.log(2.0), 0)
    split = free_energy_identities(g, H01, q, 0)
    assert split.reference_skipped
    assert split.via_reference is None
    assert split.via_gibbs == pytest.approx(split.free_energy, abs=1e-12)


def test_free_energy_hand_value():
    # h=(0,1), Q=(1/2,1/2), lam=log2: fe = -log((1+1/2)/2)/log2
    q = make_finite_measure(PTS, (0.5, 0.5))
    g = gibbs_tilt(H01, q, math.log(2.0), 0)
    want = -math.log(0.75) / math.log(2.0)
    assert g.free_energy == pytest.approx(want, abs=1e-14)
    split = free_energy_identities(g, H01, q, 0)
    assert split.max_discrepancy <= 1e-12


@pytest.mark.parametrize("lam", [800.0, -800.0])
def test_divergence_to_an_extreme_tilt_is_finite(lam):
    # kl(Q, G) = lam * E_Q[h] + log Z(-lam), although exp(-lam * h) underflows
    rng = np.random.default_rng(59)
    pts = y_points(64)
    h = rand_cost(rng, 2, pts)
    q = rand_reference(rng, pts, probability=True)
    for k in range(2):
        g = gibbs_tilt(h, q, lam, k).measure
        assert np.any(g.weights == 0.0)
        want = lam * expectation(h.row(k), q) + log_partition(h, q, k, -lam)
        got = kl(q, g)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# variational oracle


def test_oracle_matches_tilt_on_the_two_point_instance():
    q = counting_measure(PTS)
    lam = math.log(2.0)
    opt = variational_oracle(H01, q, lam, 0, iters=400, seed=1)
    g = gibbs_tilt(H01, q, lam, 0).measure
    assert 0.5 * np.abs(opt.weights - g.weights).sum() <= 1e-5


def test_oracle_agreement_random_instances():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        pts = y_points(n)
        h = rand_cost(rng, 1, pts)
        q = rand_reference(rng, pts)
        lam = rng.choice(LAMBDAS)
        opt = variational_oracle(h, q, lam, 0, iters=800, seed=int(rng.integers(2**31)))
        g = gibbs_tilt(h, q, lam, 0).measure
        tv = 0.5 * np.abs(opt.weights - g.weights).sum()
        assert tv <= 1e-5
        value = expectation(h.row(0), opt) + kl(opt, q) / lam
        assert value == pytest.approx(
            expectation(h.row(0), g) + kl(g, q) / lam, abs=1e-8
        )


@pytest.mark.parametrize("lam", [800.0, -800.0])
def test_oracle_certifies_the_two_point_instance_at_extreme_tilts(lam):
    q = counting_measure(PTS)
    opt = variational_oracle(H01, q, lam, 0)
    g = gibbs_tilt(H01, q, lam, 0).measure
    assert 0.5 * np.abs(opt.weights - g.weights).sum() <= 1e-5


@pytest.mark.parametrize("lam", [800.0, -800.0])
def test_oracle_objective_at_extreme_tilts_on_64_points(lam):
    rng = np.random.default_rng(53)
    pts = y_points(64)
    h = rand_cost(rng, 1, pts)
    q = rand_reference(rng, pts, probability=True)
    opt = variational_oracle(h, q, lam, 0)
    value = expectation(h.row(0), opt) + kl(opt, q) / lam
    assert abs(value - gibbs_tilt(h, q, lam, 0).free_energy) <= 1e-10


def test_oracle_flags_non_convergence_honestly():
    h = CostTable.on_support([[0.0]], PTS, [[0.0, 3.0]])
    q = make_finite_measure(PTS, (0.5, 0.5))
    with pytest.raises(NonConvergence):
        variational_oracle(h, q, 2.0, 0, iters=1, seed=0)


def test_oracle_requires_finite_support():
    grid_ref = lebesgue_grid(0.0, 1.0, 4)
    h = CostTable.on_grid([[0.0]], 0.0, 1.0, 4, [np.ones(4)])
    with pytest.raises(RepresentationMismatch):
        variational_oracle(h, grid_ref, 1.0, 0)


def test_oracle_keeps_reference_null_points_null():
    pts = y_points(3)
    h = CostTable.on_support([[0.0]], pts, [[0.0, 1.0, -1.0]])
    q = make_finite_measure(pts, (1.0, 0.0, 1.0))
    opt = variational_oracle(h, q, 1.0, 0, iters=600, seed=3)
    assert opt.weights[1] == 0.0
    g = gibbs_tilt(h, q, 1.0, 0).measure
    assert 0.5 * np.abs(opt.weights - g.weights).sum() <= 1e-5
