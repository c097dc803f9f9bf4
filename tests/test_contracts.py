"""Public error paths of the measures, Gibbs and divergence modules: each broken contract
raises its error type with its message."""

import math

import pytest

from gibbsgap import (
    ConditionalFamily,
    CostTable,
    EmptySupport,
    FiniteMeasure,
    GibbsResult,
    IndexMismatch,
    InfiniteDivergence,
    NonProbabilityMeasure,
    PointSupport,
    RepresentationMismatch,
    absolutely_continuous,
    constant_family,
    counting_measure,
    expectation,
    free_energy_identities,
    gibbs_tilt,
    lebesgue_grid,
    make_finite_measure,
    marginal_y,
    mutual_information,
    shannon_entropy,
    variational_oracle,
)
from gibbsgap.measures import GridSupport

PTS = [[0.0], [1.0]]


def _contract_calls() -> dict:
    """A call that breaks one public contract, with the error and message it raises."""
    q, even = counting_measure(PTS), make_finite_measure(PTS, (0.5, 0.5))
    h = CostTable.on_support([[0.0]], PTS, [[0.0, 1.0]])
    g = gibbs_tilt(h, q, 1.0, 0)
    at_0, at_1 = make_finite_measure(PTS, (1.0, 0.0)), make_finite_measure(PTS, (0.0, 1.0))
    family, half = constant_family([[0.0]], even), make_finite_measure([[0.0]], (0.5,))
    elsewhere = make_finite_measure([[0.0], [2.0]], (0.5, 0.5))
    not_probability_x = (NonProbabilityMeasure, "the X-marginal must be a probability measure")
    return {
        "FiniteMeasure flagged as probability with mass 1.1": (
            lambda: FiniteMeasure(PTS, [0.5, 0.6], is_probability=True), NonProbabilityMeasure,
            "flagged as probability but total mass is 1.1"),
        "GibbsResult of a measure that is not a probability": (
            lambda: GibbsResult(q, g.log_partition, g.free_energy, 1.0), ValueError,
            "a Gibbs measure must be a probability measure"),
        "GibbsResult with an inconsistent free energy": (
            lambda: GibbsResult(g.measure, g.log_partition, g.free_energy + 1.0, 1.0), ValueError,
            f"free energy {g.free_energy + 1.0!r} inconsistent with "
            f"log-partition {g.log_partition!r} at lam=1.0"),
        "free_energy_identities of a Gibbs measure not << q": (
            lambda: free_energy_identities(GibbsResult(at_0, 0.0, -0.0, 1.0), h, at_1, 0),
            InfiniteDivergence, "kl(gibbs, reference) is infinite"),
        "marginal_y, p_x of mass 1/2": (lambda: marginal_y(family, half), *not_probability_x),
        "mutual_information, p_x of mass 1/2": (
            lambda: mutual_information(family, half), NonProbabilityMeasure,
            "mutual information needs a probability X-marginal"),
        "shannon_entropy of the counting measure": (
            lambda: shannon_entropy(q), NonProbabilityMeasure,
            "entropy requires a probability measure"),
        "ConditionalFamily with no member": (
            lambda: ConditionalFamily([[0.0]], []), EmptySupport,
            "a conditional family needs at least one member"),
        "ConditionalFamily with a member per point missing": (
            lambda: ConditionalFamily([[0.0]], [even, even]), IndexMismatch,
            "1 conditioning points for 2 members"),
        "ConditionalFamily with a member elsewhere": (
            lambda: ConditionalFamily(PTS, [even, elsewhere]), RepresentationMismatch,
            "family member 1 uses a different Y-representation"),
        "expectation of a vector of the wrong length": (
            lambda: expectation([1.0, 2.0, 3.0], even), ValueError,
            "integrand has (3,) values for (2,) atoms"),
        "CostTable of a vector": (
            lambda: CostTable.on_support([[0.0]], PTS, [0.0, 1.0]), ValueError,
            "cost values must be a 2-D (n_x, n_y) array"),
        "CostTable with a row missing": (
            lambda: CostTable.on_support(PTS, PTS, [[0.0, 1.0]]), IndexMismatch,
            "1 cost rows for 2 conditioning points"),
        "lebesgue_grid of -1 cells": (
            lambda: lebesgue_grid(0.0, 1.0, -1), EmptySupport, "a grid needs at least one cell"),
        "GridSupport with an infinite endpoint": (
            lambda: GridSupport(0, math.inf, 2), ValueError, "grid endpoints must be finite"),
        "PointSupport of a 3-D array": (
            lambda: PointSupport([[[0.0]]]), ValueError,
            "support points must be scalars or vectors, got ndim=3"),
        **{f"variational_oracle with iters={bad!r}": (
            lambda bad=bad: variational_oracle(h, q, 1.0, 0, iters=bad), ValueError,
            f"iters must be a nonnegative integer, got {bad!r}") for bad in (-1, 2.5, True)},
    }


@pytest.mark.parametrize("name", list(_contract_calls()))
def test_a_broken_contract_raises_its_error_and_message(name):
    call, error, message = _contract_calls()[name]
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_measures_on_unequal_supports_are_never_absolutely_continuous():
    even = make_finite_measure(PTS, (0.5, 0.5))
    elsewhere = make_finite_measure([[0.0], [2.0]], (0.5, 0.5))
    assert absolutely_continuous(even, elsewhere) is False
    assert absolutely_continuous(even, even) is True
