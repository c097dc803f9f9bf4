import math
import struct
from fractions import Fraction

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
    FiniteMeasure,
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
from gibbsgap.measures import GridSupport, _live_rows, _sum_rows

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


def test_an_expectation_past_the_largest_float_is_a_non_finite_value():
    # a probability within its tolerance: each product is finite, their sum is not
    p = make_finite_measure(PTS, (0.5 + 1e-13, 0.5))
    assert p.is_probability
    with pytest.raises(NonFiniteValue, match="expectation overflows a float"):
        expectation([1.7976931348623157e308] * 2, p)


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


@pytest.mark.parametrize("normalize", [False, True])
def test_an_overflowing_total_mass_is_a_non_finite_value(normalize):
    # each weight is finite, but their sum is not a float
    with pytest.raises(NonFiniteValue, match="total mass"):
        make_finite_measure([0, 1], [1e308, 1e308], normalize=normalize)
    with pytest.raises(NonFiniteValue, match="total mass"):
        make_grid_density(0.0, 1.0, [1e308, 1e308], normalize=normalize)
    with pytest.raises(NonFiniteValue, match="total mass"):
        FiniteMeasure([0, 1], [1e308, 1e308])


_HUGE = [1e308, 1e308]  # weights whose total mass overflows a float
_WIDE_GRID = "the cell width of [-1e+308, 1e+308) overflows a float"


@pytest.mark.parametrize(
    "make, construct, error, message",
    [
        (lambda: make_finite_measure([0.0, 0.0], _HUGE), lambda: FiniteMeasure([0.0, 0.0], _HUGE),
         DuplicatePoint, "support points must be pairwise distinct"),
        (lambda: make_finite_measure([0.0, 1.0, 2.0], _HUGE),
         lambda: FiniteMeasure([0.0, 1.0, 2.0], _HUGE), ValueError, "(2,) weights for 3 atoms"),
        (lambda: make_grid_density(-1e308, 1e308, [1.0, 1.0]),
         lambda: GridDensity(-1e308, 1e308, [1.0, 1.0]), NonFiniteValue, _WIDE_GRID),
        (lambda: lebesgue_grid(-1e308, 1e308, 2),
         lambda: GridDensity(-1e308, 1e308, [1.0, 1.0]), NonFiniteValue, _WIDE_GRID),
    ],
    ids=["duplicate-points", "too-few-weights", "grid", "lebesgue-grid"],
)
def test_make_raises_what_its_constructor_raises(make, construct, error, message):
    # both validate the support, then the number of weights, then the weights
    for build in (make, construct):
        with pytest.raises(error) as e:
            build()
        assert (type(e.value), str(e.value)) == (error, message)


def test_a_row_rescaled_past_the_largest_float_does_not_warn():
    # the mass 1e-310 is subnormal, so 1.0 / 1e-310 overflows in the rescaling divide
    with pytest.raises(NonFiniteValue) as e:
        make_grid_density(0.0, 1e-310, [1.0], normalize=True)
    assert str(e.value) == "total mass overflows a float"


@pytest.mark.parametrize("normalize", [False, True])
def test_a_total_mass_overflowing_with_the_cell_width_is_a_non_finite_value(normalize):
    # the weights sum to 2e300, a float; times the cell width 5e299 they do not
    with pytest.raises(NonFiniteValue, match="total mass overflows a float"):
        make_grid_density(0.0, 1e300, [1e300, 1e300], normalize=normalize)


def test_an_infinite_cell_width_is_a_non_finite_value():
    with pytest.raises(NonFiniteValue, match="cell width"):
        GridSupport(-1e308, 1e308, 4)
    with pytest.raises(NonFiniteValue, match="cell width"):
        GridDensity(-1e308, 1e308, [0.0, 1.0])


@pytest.mark.parametrize("normalize", [False, True])
def test_a_cell_width_that_rounds_to_zero_is_rejected(normalize):
    # every weight is positive, but the width 5e-324 / 2 rounds to 0.0
    with pytest.raises(ValueError, match=r"cell width .* is 0\.0, not positive"):
        make_grid_density(0.0, 5e-324, [1.0, 1.0], normalize=normalize)
    with pytest.raises(ValueError, match="cell width"):
        GridSupport(0.0, 5e-324, 2)


@pytest.mark.parametrize("normalize", [False, True])
def test_infinite_weights_of_both_signs_are_a_non_finite_value(normalize):
    # fsum of inf and -inf raises a bare ValueError: the weights are checked first
    with pytest.raises(NonFiniteValue, match="weights must be finite"):
        make_finite_measure([0, 1], [math.inf, -math.inf], normalize=normalize)


def test_a_family_is_one_matrix_and_its_members_are_row_views():
    p = make_finite_measure(PTS, (0.6, 0.4))
    q = make_finite_measure([[0.0], [1.0]], (0.2, 0.8))
    fam = ConditionalFamily(x_points=[[0.0], [1.0]], members=(p, q))
    assert fam.domain is p.domain and fam.n_x == 2
    assert fam.log_density.shape == (2, 2) and not fam.log_density.flags.writeable
    for k, m in enumerate((p, q)):
        row = fam[k]
        assert type(row) is FiniteMeasure and row.domain is fam.domain and row.is_probability
        assert np.shares_memory(row.weights, fam.members[k].weights)  # views, not copies
        assert row.weights.tobytes() == m.weights.tobytes()
        assert row.log_density.tobytes() == m.log_density.tobytes()
    assert fam[-1].weights.tolist() == [0.2, 0.8]
    with pytest.raises(IndexError):
        fam[2]


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


# weights with -0.0 and subnormals, and a positive one so that the mass is positive
_WEIGHTS = st.lists(st.floats(0.0, 1e300) | st.sampled_from([-0.0, 5e-324, 2.0**-1060]),
                    min_size=1, max_size=8).map(lambda w: [*w, 0.5])


@settings(max_examples=100, deadline=None)
@given(weights=_WEIGHTS, hi=st.floats(1e-3, 1e3))
def test_atom_masses_are_density_times_base_mass_bit_for_bit_and_read_only(weights, hi):
    p = FiniteMeasure([[float(j)] for j in range(len(weights))], weights)
    g = GridDensity(0.0, hi, weights)
    assert atom_masses(p) is p.weights  # x * 1.0 == x bit for bit
    for m in (p, g):
        masses = atom_masses(m)
        assert masses.tobytes() == (m._density * m.domain.base_mass).tobytes()
        assert not masses.flags.writeable


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_x=st.integers(1, 4), n_y=st.integers(1, 6), grid=st.booleans())
def test_live_rows_are_the_rows_of_the_points_with_x_mass_bit_for_bit(data, n_x, n_y, grid):
    # every point live, or some of zero X-mass; null atoms and subnormal weights included
    def member():
        w = data.draw(st.lists(st.sampled_from([0.0, 5e-324, 0.25, 1.0, 3.0]),
                               min_size=n_y, max_size=n_y).map(lambda w: [*w[:-1], 1.0]))
        if grid:
            return make_grid_density(-1.0, 2.0, w, normalize=True)
        return make_finite_measure([[float(j)] for j in range(n_y)], w, normalize=True)

    x_points = [[float(k)] for k in range(n_x)]
    families = [ConditionalFamily(x_points, [member() for _ in range(n_x)]) for _ in range(2)]
    p_x = make_finite_measure(x_points, data.draw(
        st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n_x, max_size=n_x)
        .filter(lambda w: sum(w) > 0)), normalize=True)
    live, weights, rows = _live_rows(p_x, *families)
    expected = np.flatnonzero(p_x.weights > 0)
    assert live.tolist() == expected.tolist()
    assert weights.tobytes() == p_x.weights[expected].tobytes()
    for c, r in zip(families, rows, strict=True):
        assert r.log.tobytes() == c.log_density[expected].tobytes()
        assert r.mass.tobytes() == (c._density[expected] * c.domain.base_mass).tobytes()
        if expected.size == n_x:  # read in place
            assert r.log is c.log_density
            assert np.shares_memory(r.mass, c._density) == (c.domain.base_mass == 1.0)


def test_grid_type_roundtrip():
    g = make_grid_density(-1.0, 1.0, np.array([0.25, 0.75]))
    assert isinstance(g, GridDensity)
    assert g.n_cells == 2 and g.lo == -1.0 and g.hi == 1.0


@pytest.mark.parametrize("points", [
    [[0.0], [1.0, 2.0]], [0.0, [1.0, 2.0]], [np.array([0.0]), np.array([1.0, 2.0])]])
def test_ragged_support_points_are_rejected_by_name(points):
    with pytest.raises(ValueError, match="^support points must all have the same dimension$"):
        PointSupport(points)
    with pytest.raises(ValueError, match="^support points must all have the same dimension$"):
        CostTable.on_support(points, [[0.0]], [[1.0]] * len(points))


def test_a_point_that_is_no_number_keeps_numpys_error():
    with pytest.raises(ValueError, match="could not convert string to float"):
        PointSupport([[0.0], ["x"]])


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


# ---------------------------------------------------------------------------
# the row sum: one pairwise order for every row


def _pairwise(row: list) -> float:
    """The row sum's order in plain Python: each level adds the second half of the
    entries to the first, and an odd last entry into the last of those sums."""
    while len(row) > 1:
        h = len(row) // 2
        head = [a + b for a, b in zip(row[:h], row[h:2 * h])]
        if len(row) % 2:
            head[-1] += row[-1]
        row = head
    return row[0] + 0.0


def _bits(values) -> list:
    return [struct.pack("<d", v) for v in values]


_WIDE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and 1e±300 included
_ENTRIES = st.one_of(
    _WIDE,
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.0, 2.0**-53]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_SPECIAL_ROWS = st.sampled_from([
    [0.0], [-0.0], [-0.0, -0.0, -0.0], [0.0] * 9,
    [1.0, 2.0**-53], [3.0, -(2.0**-52)], [2.0**53, 1.0, 0.0],  # exact ties, rounded half-even
    [1.0, -(2.0**-54)], [1.0, -(2.0**-55)], [0.5, 2.0**-55, -(2.0**-57)],  # by a power of two
    [1e308, 5e307, 1e308, -1e308],  # a partial sum overflows in some orders
    [1e308, 1e308], [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 0.0],
])


@st.composite
def _cancelled(draw):
    """``x`` and ``-x + eps`` for a few ``x``, shuffled: the sum is the planted ``eps``s."""
    xs = draw(st.lists(_WIDE, min_size=1, max_size=35))
    eps = draw(st.lists(st.sampled_from([0.0, 2.0**-60, 1e-300, 5e-324, 1e-20]),
                        min_size=len(xs), max_size=len(xs)))
    return draw(st.permutations(xs + [-x + e for x, e in zip(xs, eps)]))


_ROWS = st.lists(
    st.one_of(st.lists(_ENTRIES, min_size=1, max_size=70), _SPECIAL_ROWS, _cancelled()),
    min_size=1, max_size=8,
)


def test_the_row_sum_is_its_plain_order_bit_for_bit():
    # every width of 1 to 70, and one past 4096; odd widths carry a column at some level
    rng = np.random.default_rng(26)
    for n in [*range(1, 71), 4097]:
        x = rng.standard_normal((3, n)) * rng.choice([1.0, 1e-8, 1e8], size=(3, n))
        assert _bits(_sum_rows(x)) == _bits(map(_pairwise, x.tolist())), n


def _gamma(n: int) -> Fraction:
    """``k u / (1 - k u)`` with ``k = ceil(log2 n)``: the bound of a pairwise sum of ``n``."""
    ku = Fraction((n - 1).bit_length(), 2**53)
    return ku / (1 - ku)


@settings(max_examples=150, deadline=None)
@given(rows=_ROWS)
def test_the_row_sum_is_within_the_pairwise_bound(rows):
    rows = [[v for v in r if math.isfinite(v)] or [0.0] for r in rows]
    width = max(map(len, rows))
    x = np.zeros((len(rows), width))
    for k, r in enumerate(rows):
        x[k, :len(r)] = r
    # each row alone, and padded with +0.0 to the widest, as a row with atoms of no mass is
    for r, alone, padded in zip(rows, (_sum_rows(np.array([r]))[0] for r in rows), _sum_rows(x)):
        exact, size = sum(map(Fraction, r)), sum(abs(Fraction(v)) for v in r)
        for got, n in ((alone, len(r)), (padded, width)):
            if size <= 2**1023:  # no partial sum can pass the largest float
                assert math.isfinite(got), r
            if math.isfinite(got):
                assert abs(Fraction(got) - exact) <= _gamma(n) * size, (r, n)


def test_the_row_sum_of_special_rows():
    inf, nan = math.inf, math.nan
    rows = {  # row -> its sum
        (inf,): inf, (-inf,): -inf, (1.0, inf, 2.0): inf, (-inf, 1.0, 2.0): -inf,
        (nan,): nan, (1.0, nan, 2.0): nan, (inf, -inf): nan, (1.0, 2.0, inf, -inf): nan,
        (1e308, 1e308): inf, (-1e308, -1e308, 1.0): -inf,
        (0.0,): 0.0, (-0.0,): 0.0, (-0.0, -0.0): 0.0, (-0.0, 0.0, -0.0): 0.0, (-0.0,) * 9: 0.0,
    }
    for row, want in rows.items():
        (got,) = _sum_rows(np.array([row]))
        same = math.isnan(got) if math.isnan(want) else _bits([got]) == _bits([want])
        assert same, row  # an exact zero is +0.0
    # rows of different fates in one call, with no floating-point warning
    x = np.array([[inf, -inf, 0.0], [1e308, 1e308, 0.0], [-0.0, -0.0, -0.0], [1.0, 2.0, 3.0]])
    got = _sum_rows(x)
    assert math.isnan(got[0]) and got[1:] == [inf, 0.0, 6.0]
    assert struct.pack("<d", got[2]) == struct.pack("<d", 0.0)
