import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import (
    AlphaOutOfRange,
    ConditionalFamily,
    CostTable,
    DuplicatePoint,
    EmptySupport,
    GridDensity,
    IndexMismatch,
    NegativeWeight,
    NonFiniteValue,
    NonProbabilityMeasure,
    NotAbsolutelyContinuous,
    PointSupport,
    RepresentationMismatch,
    ZeroMass,
    absolutely_continuous,
    atom_masses,
    counting_measure,
    expectation,
    gibbs_tilt,
    lebesgue_grid,
    make_finite_measure,
    make_grid_density,
    marginal_y,
    mix,
    radon_nikodym,
    total_mass,
    variational_oracle,
)

PTS = [[0.0], [1.0]]


# ---------------------------------------------------------------------------
# construction


def test_counting_measure_is_not_probability():
    q = make_finite_measure(PTS, (1.0, 1.0), normalize=False)
    assert total_mass(q) == 2.0
    assert not q.is_probability


def test_normalize_builds_probability():
    p = make_finite_measure(PTS, (3.0, 1.0), normalize=True)
    assert p.is_probability
    assert np.allclose(p.weights, [0.75, 0.25])


def test_mass_one_is_flagged_automatically():
    p = make_finite_measure(PTS, (0.75, 0.25))
    assert p.is_probability


def test_construction_errors():
    with pytest.raises(NegativeWeight):
        make_finite_measure(PTS, (1.0, -0.5))
    with pytest.raises(EmptySupport):
        make_finite_measure([], [])
    with pytest.raises(ZeroMass):
        make_finite_measure(PTS, (0.0, 0.0))
    with pytest.raises(DuplicatePoint):
        make_finite_measure([[1.0], [1.0]], (0.5, 0.5))


def test_each_fault_is_named_once_by_the_measure_itself():
    nan = float("nan")
    with pytest.raises(NonFiniteValue):
        make_finite_measure(PTS, (nan, 1.0))
    with pytest.raises(NonFiniteValue):
        make_finite_measure(PTS, (nan, 1.0), normalize=True)
    with pytest.raises(NonFiniteValue):
        make_finite_measure([[nan], [1.0]], (0.5, 0.5))
    with pytest.raises(NonFiniteValue):
        make_grid_density(0.0, 1.0, (nan, 1.0))
    # a 2-D value array is the same error from the helper and the class
    with pytest.raises(ValueError):
        make_grid_density(0.0, 1.0, np.ones((2, 2)))
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, np.ones((2, 2)))


def test_normalize_leaves_invalid_mass_for_validation_to_name():
    with pytest.raises(ZeroMass):
        make_finite_measure(PTS, (0.0, 0.0), normalize=True)
    with pytest.raises(NegativeWeight):
        make_finite_measure(PTS, (-1.0, -1.0), normalize=True)
    with pytest.raises(NegativeWeight):
        make_finite_measure(PTS, (1.0, -0.5), normalize=True)
    with pytest.raises(ZeroMass):
        make_grid_density(0.0, 1.0, (0.0, 0.0), normalize=True)
    with pytest.raises(NegativeWeight):
        make_grid_density(0.0, 1.0, (-1.0, -1.0), normalize=True)
    with pytest.raises(EmptySupport):
        make_grid_density(0.0, 1.0, [], normalize=True)


def test_zero_weight_points_are_allowed():
    p = make_finite_measure(PTS, (1.0, 0.0))
    assert p.is_probability
    assert p.weights[1] == 0.0


def test_weights_are_immutable():
    p = make_finite_measure(PTS, (0.5, 0.5))
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


def test_scalar_points_are_lifted_to_vectors():
    p = make_finite_measure([0.0, 1.0, 2.0], (1.0, 1.0, 1.0))
    assert p.support.shape == (3, 1)


def test_grid_construction_and_cell_geometry():
    g = make_grid_density(0.0, 1.0, np.ones(4))
    assert g.cell_width == 0.25
    assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])
    assert g.is_probability  # unit density on [0,1] integrates to 1


def test_grid_probability_tolerance_is_looser_than_finite():
    # integral = 1 + 5e-10: inside the grid tolerance, outside the finite one
    v = np.ones(10) * (1.0 + 5e-10)
    assert make_grid_density(0.0, 1.0, v).is_probability
    w = np.full(2, 0.5 * (1.0 + 5e-10))
    assert not make_finite_measure(PTS, w).is_probability


def test_grid_requires_ordered_endpoints():
    with pytest.raises(ValueError):
        make_grid_density(1.0, 0.0, np.ones(4))


def test_grid_normalize():
    # raw values integrate to 2
    g = make_grid_density(0.0, 1.0, 2.0 * np.ones(8), normalize=True)
    assert g.is_probability
    assert np.allclose(g.values, 1.0)


def test_supports_compare_by_value_and_derived_measures_share_them():
    p = make_finite_measure(PTS, (0.6, 0.4))
    q = make_finite_measure([[0.0], [1.0]], (0.2, 0.8))
    assert p.domain is not q.domain and p.domain == q.domain
    assert absolutely_continuous(p, q)
    assert mix(p, q, 0.5).domain is p.domain
    fam = ConditionalFamily(x_points=[[0.0], [1.0]], members=(p, q))
    p_x = make_finite_measure([[0.0], [1.0]], (0.5, 0.5))
    assert marginal_y(fam, p_x).domain is p.domain
    h = CostTable.on_support([[0.0]], PTS, [[0.0, 1.0]])
    assert gibbs_tilt(h, q, 1.0, 0).measure.domain is q.domain
    assert variational_oracle(h, q, 1.0, 0).domain is q.domain
    shared = PointSupport(PTS)
    assert make_finite_measure(shared, (1.0, 1.0)).domain is shared
    g = make_grid_density(0.0, 1.0, np.ones(2))
    assert g.domain is not lebesgue_grid(0.0, 1.0, 2).domain
    assert g.domain == lebesgue_grid(0.0, 1.0, 2).domain
    assert mix(g, g, 0.5).domain is g.domain
    r = make_finite_measure([[0.0], [2.0]], (0.5, 0.5))
    assert p.domain != r.domain
    with pytest.raises(RepresentationMismatch):
        mix(p, r, 0.5)


# ---------------------------------------------------------------------------
# expectation


def test_expectation_of_constant_is_the_constant():
    p = make_finite_measure(PTS, (0.3, 0.7))
    assert expectation(lambda y: 4.5, p) == pytest.approx(4.5, abs=1e-15)


def test_expectation_bernoulli_mean():
    p = make_finite_measure(PTS, (0.75, 0.25))
    assert expectation([0.0, 1.0], p) == pytest.approx(0.25, abs=1e-15)


def test_expectation_requires_probability():
    with pytest.raises(NonProbabilityMeasure):
        expectation([0.0, 1.0], counting_measure(PTS))


def test_expectation_rejects_non_finite_integrand_on_support():
    p = make_finite_measure(PTS, (0.5, 0.5))
    with pytest.raises(NonFiniteValue):
        expectation([math.inf, 0.0], p)


def test_expectation_ignores_integrand_off_support():
    p = make_finite_measure(PTS, (1.0, 0.0))
    assert expectation([2.0, math.nan], p) == 2.0


def test_grid_second_moment_of_standard_normal():
    # midpoint-rule quadrature against the exact second moment
    n = 4000
    g_ref = lebesgue_grid(-8.0, 8.0, n)
    mids = g_ref.midpoints
    pdf = np.exp(-(mids**2) / 2.0) / math.sqrt(2.0 * math.pi)
    p = make_grid_density(-8.0, 8.0, pdf, normalize=True)
    assert expectation(mids**2, p) == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# marginal / mix


def test_marginal_is_the_weighted_mixture():
    fam = ConditionalFamily(
        x_points=[[0.0], [1.0]],
        members=(
            make_finite_measure(PTS, (1.0, 0.0)),
            make_finite_measure(PTS, (0.0, 1.0)),
        ),
    )
    p_x = make_finite_measure([[0.0], [1.0]], (0.25, 0.75))
    m = marginal_y(fam, p_x)
    assert m.is_probability
    assert np.allclose(m.weights, [0.25, 0.75], atol=1e-15)


def test_marginal_checks_alignment():
    fam = ConditionalFamily(
        x_points=[[0.0], [1.0]],
        members=(
            make_finite_measure(PTS, (1.0, 0.0)),
            make_finite_measure(PTS, (0.0, 1.0)),
        ),
    )
    p_wrong = make_finite_measure([[0.0], [2.0]], (0.5, 0.5))
    with pytest.raises(IndexMismatch):
        marginal_y(fam, p_wrong)


def test_family_members_must_be_probabilities():
    with pytest.raises(NonProbabilityMeasure):
        ConditionalFamily(x_points=[[0.0]], members=(counting_measure(PTS),))


def test_mix_idempotent_on_equal_arguments():
    p = make_finite_measure(PTS, (0.6, 0.4))
    m = mix(p, p, 0.3)
    assert np.allclose(m.weights, p.weights, atol=1e-15)


def test_mix_rejects_endpoint_alphas():
    p = make_finite_measure(PTS, (0.6, 0.4))
    q = make_finite_measure(PTS, (0.2, 0.8))
    for alpha in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(AlphaOutOfRange):
            mix(p, q, alpha)


def test_mix_rejects_mixed_representations():
    p = make_finite_measure(PTS, (0.6, 0.4))
    g = make_grid_density(0.0, 1.0, np.ones(2))
    with pytest.raises(RepresentationMismatch):
        mix(p, g, 0.5)


# ---------------------------------------------------------------------------
# absolute continuity / densities


def test_absolute_continuity_uses_mass_not_points():
    p = make_finite_measure(PTS, (1.0, 0.0))
    q = make_finite_measure(PTS, (0.0, 1.0))
    r = make_finite_measure(PTS, (0.5, 0.5))
    assert absolutely_continuous(p, r)
    assert not absolutely_continuous(r, p)
    assert not absolutely_continuous(p, q)


def test_radon_nikodym_hand_value():
    p = make_finite_measure(PTS, (2.0 / 3.0, 1.0 / 3.0))
    q = make_finite_measure(PTS, (0.5, 0.5))
    assert np.allclose(radon_nikodym(p, q), [4.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_radon_nikodym_zero_over_zero_is_zero():
    p = make_finite_measure(PTS, (1.0, 0.0))
    q = make_finite_measure(PTS, (1.0, 0.0))
    rn = radon_nikodym(p, q)
    assert rn[1] == 0.0


def test_radon_nikodym_requires_domination():
    p = make_finite_measure(PTS, (0.5, 0.5))
    q = make_finite_measure(PTS, (1.0, 0.0))
    with pytest.raises(NotAbsolutelyContinuous):
        radon_nikodym(p, q)


def test_radon_nikodym_reconstructs_mass():
    rng = np.random.default_rng(11)
    pts = [[float(j)] for j in range(6)]
    for _ in range(50):
        p = make_finite_measure(pts, rng.uniform(0.0, 1.0, 6) + 1e-3)
        q = make_finite_measure(pts, rng.uniform(0.1, 2.0, 6))
        rn = radon_nikodym(p, q)
        assert math.fsum(rn * atom_masses(q)) == pytest.approx(
            total_mass(p), abs=1e-12
        )


def test_radon_nikodym_on_grids_is_the_density_ratio():
    g1 = make_grid_density(0.0, 1.0, np.array([2.0, 0.0]))
    g2 = make_grid_density(0.0, 1.0, np.array([1.0, 1.0]))
    assert np.allclose(radon_nikodym(g1, g2), [2.0, 0.0])


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.floats(0.01, 0.99),
)
def test_mixture_mass_is_convex_combination(w1, w2, alpha):
    n = min(len(w1), len(w2))
    pts = [[float(j)] for j in range(n)]
    p = make_finite_measure(pts, w1[:n])
    q = make_finite_measure(pts, w2[:n])
    m = mix(p, q, alpha)
    want = alpha * total_mass(p) + (1 - alpha) * total_mass(q)
    assert total_mass(m) == pytest.approx(want, abs=1e-12)
    assert absolutely_continuous(p, m) and absolutely_continuous(q, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_marginal_mass_conservation(n_x, n_y, seed):
    rng = np.random.default_rng(seed)
    pts = [[float(j)] for j in range(n_y)]
    members = tuple(
        make_finite_measure(pts, rng.uniform(0.01, 1.0, n_y), normalize=True)
        for _ in range(n_x)
    )
    fam = ConditionalFamily(x_points=[[float(j)] for j in range(n_x)], members=members)
    p_x = make_finite_measure(
        [[float(j)] for j in range(n_x)], rng.uniform(0.01, 1.0, n_x), normalize=True
    )
    m = marginal_y(fam, p_x)
    assert m.is_probability
    assert total_mass(m) == pytest.approx(1.0, abs=1e-12)


def test_grid_atoms_are_values_times_width():
    g = make_grid_density(0.0, 2.0, np.array([1.0, 3.0]))
    assert np.allclose(atom_masses(g), [1.0, 3.0])  # width = 1
    g2 = make_grid_density(0.0, 1.0, np.array([1.0, 3.0]))
    assert np.allclose(atom_masses(g2), [0.5, 1.5])


def test_grid_type_roundtrip():
    g = make_grid_density(-1.0, 1.0, np.array([0.25, 0.75]))
    assert isinstance(g, GridDensity)
    assert g.n_cells == 2 and g.lo == -1.0 and g.hi == 1.0


def test_constructors_copy_the_callers_arrays():
    pts, w = np.array([[0.0], [1.0], [2.0]]), np.array([0.2, 0.3, 0.5])
    v, x = np.array([0.5, 1.5]), np.array([[0.0], [1.0]])
    c, p = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]), np.array([[3.0], [4.0]])
    kept = [a.copy() for a in (pts, w, v, x, c, p)]
    m = make_finite_measure(pts, w)
    g = make_grid_density(0.0, 1.0, v)
    h = CostTable.on_support(x, pts, c)
    s = PointSupport(p)
    for a in (pts, w, v, x, c, p):
        a[0] = -7.0  # the caller's arrays stay writable
    held = (m.support, m.weights, g.values, h.x_points.points, h.values, s.points)
    for got, want in zip(held, kept):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(h.y_support.points, kept[0])
