import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbsgap.divergences as divergences
from gibbsgap import (
    ConditionalFamily,
    InfoSummary,
    NonProbabilityMeasure,
    conditional_entropy,
    counting_measure,
    differential_entropy,
    info_summary,
    kl,
    lautum_information,
    lebesgue_grid,
    make_finite_measure,
    make_grid_density,
    marginal_y,
    mutual_information,
    shannon_entropy,
)

PTS = [[0.0], [1.0]]


def _fam(*rows, x=None):
    x = x if x is not None else [[float(j)] for j in range(len(rows))]
    pts = [[float(j)] for j in range(len(rows[0]))]
    return ConditionalFamily(
        x_points=x,
        members=tuple(make_finite_measure(pts, r, normalize=True) for r in rows),
    )


def _px(*w):
    return make_finite_measure([[float(j)] for j in range(len(w))], w, normalize=True)


# ---------------------------------------------------------------------------
# kl


def test_kl_of_measure_with_itself_is_exactly_zero():
    p = make_finite_measure(PTS, (0.3, 0.7))
    assert kl(p, p) == 0.0


def test_kl_hand_value():
    # sum p log(p/q) for p=(3/4,1/4), q=(1/2,1/2): log2 - H(p)
    p = make_finite_measure(PTS, (0.75, 0.25))
    q = make_finite_measure(PTS, (0.5, 0.5))
    oracle = math.fsum(
        [0.75 * math.log(0.75 / 0.5), 0.25 * math.log(0.25 / 0.5)]
    )
    assert kl(p, q) == pytest.approx(oracle, abs=1e-16)
    assert kl(p, q) == pytest.approx(math.log(2.0) - shannon_entropy(p), abs=1e-15)


def test_kl_infinite_when_not_dominated():
    p = make_finite_measure(PTS, (0.5, 0.5))
    q = make_finite_measure(PTS, (1.0, 0.0))
    assert kl(p, q) == math.inf


def test_kl_zero_mass_points_contribute_nothing():
    p = make_finite_measure(PTS, (1.0, 0.0))
    q = make_finite_measure(PTS, (0.25, 0.75))
    assert kl(p, q) == pytest.approx(math.log(4.0), abs=1e-15)


def test_kl_requires_probability_first_argument():
    with pytest.raises(NonProbabilityMeasure):
        kl(counting_measure(PTS), make_finite_measure(PTS, (0.5, 0.5)))


def test_kl_against_sigma_finite_reference_can_be_negative():
    # against a counting measure the divergence is minus the entropy
    p = make_finite_measure(PTS, (0.5, 0.5))
    assert kl(p, counting_measure(PTS)) < 0.0


def test_kl_on_grids_matches_atom_oracle():
    rng = np.random.default_rng(3)
    v1 = rng.uniform(0.1, 2.0, 16)
    v2 = rng.uniform(0.1, 2.0, 16)
    p = make_grid_density(0.0, 4.0, v1, normalize=True)
    q = make_grid_density(0.0, 4.0, v2, normalize=True)
    width = p.cell_width
    oracle = sum(
        (a * width) * math.log(a / b) for a, b in zip(p.values, q.values)
    )
    assert kl(p, q) == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
)
def test_gibbs_inequality(w1, w2):
    n = min(len(w1), len(w2))
    pts = [[float(j)] for j in range(n)]
    p = make_finite_measure(pts, w1[:n], normalize=True)
    q = make_finite_measure(pts, w2[:n], normalize=True)
    assert kl(p, q) >= -1e-12


# ---------------------------------------------------------------------------
# entropies


def test_point_mass_has_zero_entropy():
    assert shannon_entropy(make_finite_measure(PTS, (1.0, 0.0))) == 0.0


def test_uniform_maximizes_entropy():
    for k in (2, 3, 5, 8):
        pts = [[float(j)] for j in range(k)]
        p = make_finite_measure(pts, np.ones(k), normalize=True)
        assert shannon_entropy(p) == pytest.approx(math.log(k), abs=1e-12)


def test_entropy_oracle_three_quarters():
    p = make_finite_measure(PTS, (0.75, 0.25))
    oracle = -math.fsum([0.75 * math.log(0.75), 0.25 * math.log(0.25)])
    assert oracle == pytest.approx(0.5623351446188083, abs=1e-15)
    assert shannon_entropy(p) == pytest.approx(0.5623, abs=1e-4)
    assert shannon_entropy(p) == oracle


def test_entropy_is_exactly_minus_kl_from_counting():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7):
        pts = [[float(j)] for j in range(n)]
        p = make_finite_measure(pts, rng.uniform(0.01, 1.0, n), normalize=True)
        assert shannon_entropy(p) == -kl(p, counting_measure(pts))


def test_differential_entropy_of_uniform_is_log_length():
    u1 = make_grid_density(0.0, 1.0, np.ones(100))
    u2 = make_grid_density(0.0, 2.0, np.full(100, 0.5))
    assert differential_entropy(u1) == pytest.approx(0.0, abs=1e-9)
    assert differential_entropy(u2) == pytest.approx(math.log(2.0), abs=1e-9)


def test_differential_entropy_standard_normal():
    n = 4000
    mids = lebesgue_grid(-8.0, 8.0, n).midpoints
    pdf = np.exp(-(mids**2) / 2.0) / math.sqrt(2.0 * math.pi)
    p = make_grid_density(-8.0, 8.0, pdf, normalize=True)
    want = 0.5 * math.log(2.0 * math.pi * math.e)
    assert differential_entropy(p) == pytest.approx(want, abs=1e-3)


def test_differential_entropy_can_be_negative():
    # uniform on [0, 1/2): density 2, entropy -log 2
    p = make_grid_density(0.0, 0.5, np.full(10, 2.0))
    assert differential_entropy(p) == pytest.approx(-math.log(2.0), abs=1e-9)


def test_conditional_entropy_mixes_member_entropies():
    fam = _fam([1.0, 0.0], [0.5, 0.5])
    assert conditional_entropy(fam, _px(0.5, 0.5)) == pytest.approx(
        0.5 * math.log(2.0), abs=1e-15
    )


def test_conditional_entropy_skips_zero_mass_points():
    fam = _fam([1.0, 0.0], [0.5, 0.5])
    p_x = make_finite_measure([[0.0], [1.0]], (1.0, 0.0))
    assert conditional_entropy(fam, p_x) == 0.0


# ---------------------------------------------------------------------------
# information measures


def test_mutual_information_zero_for_identical_members():
    fam = _fam([0.3, 0.7], [0.3, 0.7], [0.3, 0.7])
    assert abs(mutual_information(fam, _px(0.2, 0.5, 0.3))) <= 1e-12


def test_mutual_information_of_perfect_correlation():
    fam = _fam([1.0, 0.0], [0.0, 1.0])
    assert mutual_information(fam, _px(0.5, 0.5)) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_lautum_infinite_when_marginal_escapes_a_member():
    fam = _fam([1.0, 0.0], [0.0, 1.0])
    assert lautum_information(fam, _px(0.5, 0.5)) == math.inf


def test_lautum_hand_value():
    # members (3/4,1/4) and (1/4,3/4), uniform X: marginal is (1/2,1/2)
    fam = _fam([0.75, 0.25], [0.25, 0.75])
    p_x = _px(0.5, 0.5)
    q1 = [0.75, 0.25]
    oracle = math.fsum(
        0.5 * (0.5 * math.log(0.5 / a) + 0.5 * math.log(0.5 / b))
        for a, b in (q1, q1[::-1])
    )
    assert oracle == pytest.approx(0.14384103622589045, abs=1e-15)
    assert lautum_information(fam, p_x) == pytest.approx(oracle, abs=1e-14)


def test_information_measures_match_joint_table_oracle():
    # chain-rule consistency against a plain double-loop joint computation
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_x = int(rng.integers(2, 5))
        n_y = int(rng.integers(2, 7))
        rows = rng.uniform(0.05, 1.0, size=(n_x, n_y))
        rows /= rows.sum(axis=1, keepdims=True)
        w_x = rng.uniform(0.05, 1.0, size=n_x)
        w_x /= w_x.sum()
        fam = _fam(*rows)
        p_x = _px(*w_x)

        p_y = w_x @ rows
        mi_oracle = sum(
            w_x[i] * rows[i, j] * math.log(rows[i, j] / p_y[j])
            for i in range(n_x)
            for j in range(n_y)
        )
        lautum_oracle = sum(
            w_x[i] * p_y[j] * math.log(p_y[j] / rows[i, j])
            for i in range(n_x)
            for j in range(n_y)
        )
        assert mutual_information(fam, p_x) == pytest.approx(mi_oracle, abs=1e-10)
        assert lautum_information(fam, p_x) == pytest.approx(lautum_oracle, abs=1e-10)
        assert mutual_information(fam, p_x) >= -1e-12
        assert lautum_information(fam, p_x) >= -1e-12


def test_info_summary_entropy_difference_is_mutual_information():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_x, n_y = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rows = rng.uniform(0.05, 1.0, size=(n_x, n_y))
        w_x = rng.uniform(0.05, 1.0, size=n_x)
        fam = _fam(*rows)
        p_x = _px(*w_x)
        s = info_summary(fam, p_x)
        assert isinstance(s, InfoSummary)
        assert s.mutual == pytest.approx(
            s.cond_entropy_1 - s.cond_entropy_2, abs=1e-10
        )
        assert s.mutual >= 0.0 and s.lautum >= 0.0


def test_info_summary_builds_the_marginal_once(monkeypatch):
    fam = _fam([0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5])
    p_x = _px(0.5, 0.0, 0.5)  # a zero-mass row is skipped by every term
    calls = []

    def counted(cond, px):
        calls.append(1)
        return marginal_y(cond, px)

    monkeypatch.setattr(divergences, "marginal_y", counted)
    s = info_summary(fam, p_x)
    assert len(calls) == 1
    assert s.mutual == mutual_information(fam, p_x)
    assert s.lautum == lautum_information(fam, p_x)
    assert s.cond_entropy_1 == shannon_entropy(marginal_y(fam, p_x))
    assert s.cond_entropy_2 == conditional_entropy(fam, p_x)


def test_info_summary_rejects_negative_information():
    with pytest.raises(ValueError):
        InfoSummary(mutual=-1e-3, lautum=0.0, cond_entropy_1=0.0, cond_entropy_2=0.0)
