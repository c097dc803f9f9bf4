import math
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gibbsgap import (
    CostTable,
    GibbsResult,
    GridDensity,
    IndexMismatch,
    InfiniteLogPartition,
    NonConvergence,
    NonFiniteValue,
    RepresentationMismatch,
    atom_masses,
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
from gibbsgap import gibbs
from gibbsgap.gibbs import _logsumexp, _normalize_rows, _oracle_rows, _tilt_rows
from gibbsgap.measures import _sum_rows
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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_log_partition_rejects_a_non_finite_tilt(t):
    with pytest.raises(ValueError, match="tilt t must be finite"):
        log_partition(H01, counting_measure(PTS), 0, t)


def test_log_partition_of_an_overflowing_tilt_is_extended_real():
    # -inf when t * h overflows to -inf on every atom of Q, +inf when it overflows to +inf
    h = CostTable.on_support([[0.0]], PTS, [[1e300, 2e300]])
    q = counting_measure(PTS)
    assert log_partition(h, q, 0, -1e10) == -math.inf
    assert log_partition(h, q, 0, 1e10) == math.inf


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


def _lse_reference(a):
    """``log fsum(exp(a))``, shifted by the largest exponent."""
    if all(x == -math.inf for x in a):
        return -math.inf
    m = max(a)
    return m + math.log(math.fsum(math.exp(x - m) for x in a))


def _lse(a, axis=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _logsumexp(a, axis=axis)


def test_logsumexp_of_an_all_minus_inf_slice_is_minus_inf():
    assert float(_lse([-math.inf, -math.inf])) == -math.inf
    rows = np.array([[-math.inf, -math.inf], [0.0, math.log(3.0)]])
    out = _lse(rows, axis=1)
    assert out[0] == -math.inf
    assert out[1] == pytest.approx(math.log(4.0), rel=1e-15)


def test_logsumexp_row_wise_matches_reference():
    rng = np.random.default_rng(31)
    a = rng.uniform(-30.0, 30.0, size=(5, 9))
    out = _lse(a, axis=1)
    assert out.shape == (5,)
    for k in range(5):
        assert out[k] == pytest.approx(_lse_reference(list(a[k])), rel=1e-14)


def test_logsumexp_handles_exponents_near_1e3_without_overflow():
    for a in ([1000.0, 999.5, -1000.0], [-1000.0, -1001.0, -999.0], [1e3, -1e3]):
        out = float(_lse(a))
        assert math.isfinite(out)
        assert out == pytest.approx(_lse_reference(a), rel=1e-15)


# ---------------------------------------------------------------------------
# tilting


def test_two_point_gibbs_weights():
    g = gibbs_tilt(H01, counting_measure(PTS), math.log(2.0), 0)
    assert np.allclose(g.measure.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert g.log_partition == pytest.approx(math.log(1.5), abs=1e-15)
    assert g.measure.is_probability


def test_a_tilt_far_below_its_log_partition_value_does_not_warn():
    # -lam * h is -1.7e308 on the first atom and 1.7e308 on the second, the
    # log-partition value: the first log atom overflows to -inf, a null atom
    h = CostTable.on_support([[0.0]], PTS, [[1.7e308, -1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gibbs_tilt(h, counting_measure(PTS), 1.0, 0)
    assert g.measure.log_density.tolist() == [-math.inf, 0.0]


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


def test_a_gibbs_result_at_a_zero_tilt_is_rejected():
    # free_energy_identities would divide by this tilt
    q = make_finite_measure(PTS, (0.5, 0.5))
    with pytest.raises(ValueError, match="tilt parameter"):
        GibbsResult(measure=q, log_partition=0.0, free_energy=0.0, lam=0.0)


def test_overflowing_tilt_raises_infinite_log_partition():
    h = CostTable.on_support([[0.0]], PTS, [[0.0, 2.0]])
    with pytest.raises(InfiniteLogPartition):
        gibbs_tilt(h, counting_measure(PTS), -1e308, 0)


def test_a_tilt_overflowing_next_to_a_large_finite_entry_does_not_warn():
    # -lam * h is +inf on one atom and 7e307 on the other: the log-partition value
    # is a legal +inf, and the exponential of the other entry must not warn
    h = CostTable.on_support([[0.0]], PTS, [[0.7, 3.0]])
    assert log_partition(h, counting_measure(PTS), 0, 1e308) == math.inf
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


@pytest.mark.parametrize("lam", [0.5, -2.0, 7.0])
def test_the_oracle_on_a_grid_is_the_oracle_on_its_counting_twin(lam):
    # Lebesgue measure on 4 cells of width 1/4 is the counting measure on their midpoints
    # times 1/4: the oracle reads both as the same atom masses
    grid_ref = lebesgue_grid(0.0, 1.0, 4)
    cost = [[0.0, 1.0, -0.5, 2.0]]
    h = CostTable.on_grid([[0.0]], 0.0, 1.0, 4, cost)
    twin = make_finite_measure(grid_ref.domain.points, np.full(4, 0.25))
    h_twin = CostTable.on_support([[0.0]], twin.domain, cost)
    opt = variational_oracle(h, grid_ref, lam, 0)
    opt_twin = variational_oracle(h_twin, twin, lam, 0)
    assert isinstance(opt, GridDensity) and opt.domain is grid_ref.domain and opt.is_probability
    assert np.abs(atom_masses(opt) - opt_twin.weights).max() <= 1e-15
    g = gibbs_tilt(h, grid_ref, lam, 0).measure
    assert 0.5 * np.abs(atom_masses(opt) - atom_masses(g)).sum() <= 1e-5
    ((row,),), ((row_twin,),) = (_oracle_rows(*hq, [lam], [0], [800])
                                 for hq in ((h, grid_ref), (h_twin, twin)))
    assert abs(row.total_variation - row_twin.total_variation) <= 1e-15


def test_oracle_keeps_reference_null_points_null():
    pts = y_points(3)
    h = CostTable.on_support([[0.0]], pts, [[0.0, 1.0, -1.0]])
    q = make_finite_measure(pts, (1.0, 0.0, 1.0))
    opt = variational_oracle(h, q, 1.0, 0, iters=600, seed=3)
    assert opt.weights[1] == 0.0
    g = gibbs_tilt(h, q, 1.0, 0).measure
    assert 0.5 * np.abs(opt.weights - g.weights).sum() <= 1e-5


#: Tilts whose oracle rows certify after 34 to 49 steps, or never: at 1e-6 the
#: residual stays above its tolerance by rounding, and at 1e308 the tilt overflows.
_TILTS = tuple(sign * mag for mag in (1e-6, 1e-3, 0.5, 2.0, 7.5, 40.0, 800.0, 1e308)
               for sign in (1.0, -1.0))


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _one_tilt_loop(h, q, lam, iters):
    """The oracle at one tilt, written as a plain loop: ``(log p, objective, free
    energy)`` on the atoms of Q, or the error it raises."""
    log_q = q.log_density[q.log_density > -math.inf][None]
    h_live = h.row(0)[q.log_density > -math.inf][None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing tilt is a legal +inf
        a = -lam * h.row(0) + q.log_density
    k = float(_logsumexp(np.where(np.isnan(a), -math.inf, a)))  # a null atom stays null
    if not math.isfinite(k):
        return InfiniteLogPartition(f"log-partition value is {k!r}")
    tol = min(1e-10, 2e-10 / abs(lam))
    log_p = log_q - _logsumexp(log_q)
    for steps in range(iters + 1):
        grad = h_live + (log_p - log_q + 1.0) / lam
        resid = float(np.max(grad) - np.min(grad))
        if resid <= tol:
            break
        if steps == iters:
            return NonConvergence(f"residual {resid!r} > {tol!r} after {steps} iterations")
        log_p -= 0.5 * lam * grad
        log_p -= _logsumexp(log_p)
    p = np.exp(log_p[0])
    # the rows the kernel sums, in the package's order: the products, +0.0 where p has no mass
    mean, div = _sum_rows(np.where(p > 0, [h_live[0] * p, (log_p[0] - log_q[0]) * p], 0.0))
    value = mean + div / lam
    if abs(value + k / lam) > 1e-6:
        return NonConvergence(f"objective {value!r} is not within 1e-6 of the free energy "
                              f"{-k / lam!r} after {steps} iterations")
    return log_p[0], value, -k / lam


def _assert_rows_are_one_tilt_calls(h, q, lams, iters) -> list:
    """Each row of one oracle call at ``lams`` holds the bits, or raises the error, of
    the kernel, of ``variational_oracle`` and of a plain loop at its tilt alone."""
    (rows,) = _oracle_rows(h, q, lams, [0], [iters])
    for lam, row in zip(lams, rows, strict=True):
        ((one,),) = _oracle_rows(h, q, [lam], [0], [iters])
        loop = _one_tilt_loop(h, q, lam, iters)
        if isinstance(one, Exception):
            assert (type(row), str(row)) == (type(one), str(one)) == (type(loop), str(loop))
            with pytest.raises(type(one)) as raised:
                variational_oracle(h, q, lam, 0, iters=iters)
            assert str(raised.value) == str(one)
            continue
        live = q.log_density > -math.inf
        assert _bits(*row.log_p) == _bits(*one.log_p)
        assert _bits(*row.log_p[live]) == _bits(*loop[0]) and np.all(row.log_p[~live] == -math.inf)
        assert _bits(*row.log_g) == _bits(*one.log_g)
        assert _bits(row.objective, row.free_energy) == _bits(one.objective, one.free_energy)
        assert _bits(row.objective, row.free_energy) == _bits(*loop[1:])
        assert _bits(*variational_oracle(h, q, lam, 0, iters=iters).log_density) == _bits(*row.log_p)
    return rows


@pytest.mark.parametrize("n_atoms", [st.integers(1, 40), st.just(8192)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_oracle_row_is_its_one_tilt_call_bit_for_bit(n_atoms, data):
    # the rows of one call step in lockstep but stop at different steps: certified,
    # out of iterations, or at a tilt that overflows
    n = data.draw(n_atoms)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = y_points(n)
    cost = rng.uniform(-1.0, 1.0, size=(1, n)) * data.draw(st.sampled_from([1.0, 3.0, 50.0]))
    weights = rng.uniform(0.2, 2.0, size=n)
    if n > 1 and data.draw(st.booleans()):  # a null atom of the reference
        weights[rng.integers(n)] = 0.0
    h = CostTable.on_support([[0.0]], pts, cost)
    q = make_finite_measure(pts, weights, normalize=data.draw(st.booleans()))
    lams = data.draw(st.lists(st.sampled_from(_TILTS), min_size=1, max_size=6))
    iters = data.draw(st.integers(1, 60))
    # a row at 1e308 that does not overflow in the tilt overflows in its steps
    with np.errstate(over="ignore", invalid="ignore") if 1e308 in map(abs, lams) else np.errstate():
        _assert_rows_are_one_tilt_calls(h, q, lams, iters)


def test_oracle_rows_stop_at_their_own_steps():
    pts = y_points(5)
    h = CostTable.on_support([[0.0]], pts, [[0.0, 2.0, -1.5, 0.7, 3.0]])
    q = make_finite_measure(pts, (1.0, 0.0, 2.0, 0.5, 1.0))
    lams = [0.5, 1e-6, -2.0, 800.0, -1e308]
    rows = _assert_rows_are_one_tilt_calls(h, q, lams, 40)
    assert [type(r).__name__ for r in rows] == [
        "_OracleRow", "NonConvergence", "_OracleRow", "NonConvergence", "InfiniteLogPartition"]
    assert str(rows[3]).endswith("after 40 iterations")
    assert rows[0].log_p[1] == -math.inf


def test_a_stalled_oracle_row_ends_with_the_error_of_its_last_step():
    # at |lam| >= 1e6 the residual stops above a tolerance finer than its rounding:
    # a step leaves the iterate as it was after about 55 steps, and every later step
    # would repeat it, so the row ends there with the message of its 10000th step
    pts = y_points(5)
    h = CostTable.on_support([[0.0]], pts, [[0.0, 1.0, -0.5, 2.0, 0.25]])
    q = counting_measure(pts)
    lams = [1e8, -1e6, 1e300]
    calls = []

    def counted(log_p):
        calls.append(None)
        return _normalize_rows(log_p)

    with mock.patch.object(gibbs, "_normalize_rows", counted):
        (rows,) = _oracle_rows(h, q, lams, [0], [10_000])
    assert len(calls) < 100  # one per step
    assert all(str(row).endswith("after 10000 iterations") for row in rows)
    _assert_rows_are_one_tilt_calls(h, q, lams, 10_000)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats() | st.sampled_from([-math.inf, math.inf, math.nan])))
def test_an_oracle_step_normalises_each_row_as_logsumexp_bit_for_bit(log_p):
    # rows whose maximum is +-inf or nan included: the shift is 0 there
    with np.errstate(all="ignore"):
        expected = log_p - _logsumexp(log_p, axis=-1)[:, None]
        _normalize_rows(log_p)
    assert log_p.tobytes() == expected.tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
       per_row=st.booleans())
def test_a_tilt_built_in_one_buffer_is_t_times_h_plus_log_ref_bit_for_bit(data, shape, per_row):
    # costs and tilts of every size, so t * h overflows and meets a -inf log reference
    h = data.draw(hnp.arrays(float, shape, elements=_FINITE))
    log_ref = data.draw(hnp.arrays(float, shape[1:], elements=_FINITE | st.just(-math.inf)))
    t = data.draw(hnp.arrays(float, (shape[0], 1), elements=_FINITE) if per_row else _FINITE)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = t * h + log_ref
    expected[np.isnan(expected)] = -math.inf
    a, k_vals = _tilt_rows(h, log_ref, t, 1.0)
    assert a.tobytes() == expected.tobytes()
    assert k_vals.tobytes() == _logsumexp(expected, axis=-1).tobytes()


def _foreign_support_calls() -> dict:
    """Each tilting function given a reference that does not live on the cost table's Y-support."""
    pts = [[0.0], [1.0]]
    h = CostTable.on_support([[0.0]], pts, [[0.0, 1.0]])
    other = make_finite_measure([[0.0], [2.0]], (0.5, 0.5))
    g = gibbs_tilt(h, make_finite_measure(pts, (0.5, 0.5)), 1.0, 0)
    return {
        "log_partition": lambda: log_partition(h, other, 0, 1.0),
        "gibbs_tilt": lambda: gibbs_tilt(h, other, 1.0, 0),
        "free_energy_identities": lambda: free_energy_identities(g, h, other, 0),
        "variational_oracle": lambda: variational_oracle(h, other, 1.0, 0),
    }


@pytest.mark.parametrize("name", list(_foreign_support_calls()))
def test_a_reference_on_another_y_support_is_a_representation_mismatch(name):
    with pytest.raises(RepresentationMismatch) as caught:
        _foreign_support_calls()[name]()
    assert str(caught.value) == "measure does not live on the cost table's Y-representation"


def test_an_oracle_expectation_past_the_largest_float_is_a_non_finite_value():
    # E_P[h] sums past the largest float at the optimum; the free-energy identities of the
    # same tilt raise the same error for E_G[h]
    pts = [[0.0], [1.0], [2.0]]
    big = 1.7976931348623157e308
    h = CostTable.on_support([[0.0]], pts, [[big, 1.7958954417274534e308, big]])
    q = make_finite_measure(pts, (0.2, 0.3, 0.5))
    for call in (lambda: variational_oracle(h, q, -1.0, 0),
                 lambda: free_energy_identities(gibbs_tilt(h, q, -1.0, 0), h, q, 0)):
        with pytest.raises(NonFiniteValue, match=r"^expectation overflows a float$"):
            call()
