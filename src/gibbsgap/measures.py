"""Finite measures on small spaces, in two concrete representations.

A measure here is one of

* :class:`FiniteMeasure` — nonnegative weights on finitely many pairwise
  distinct support points in ``R^m``;
* :class:`GridDensity` — a nonnegative piecewise-constant density on a
  uniform 1-D grid over ``[lo, hi)``, integrated by the midpoint rule.

Both carry strictly positive total mass.  Probability is a property, not a
requirement: sigma-finite reference measures (counting, Lebesgue-on-a-grid)
are first-class citizens, which is what makes entropy a special case of a
divergence later on.

Every value is immutable after construction (frozen dataclasses, read-only
arrays), so instances can be shared freely across threads.

The two representations are deliberately *never* mixed inside a single
computation; any operation combining two measures first checks that both
live in the same representation and raises
:class:`~gibbsgap.errors.RepresentationMismatch` otherwise.

Internally every computation reduces a measure to its vector of *atom
masses*: the weights themselves for a finite measure, ``value * cell_width``
for a grid density.  Ratios of atom masses equal ratios of densities (the
cell width cancels), so divergences and tiltings written on atoms are exact
for both representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DuplicatePoint,
    EmptySupport,
    IndexMismatch,
    NegativeWeight,
    NonFiniteValue,
    NonProbabilityMeasure,
    NotAbsolutelyContinuous,
    RepresentationMismatch,
    ZeroMass,
)

__all__ = [
    "FiniteMeasure",
    "GridDensity",
    "Measure",
    "ConditionalFamily",
    "make_finite_measure",
    "make_grid_density",
    "counting_measure",
    "lebesgue_grid",
    "total_mass",
    "atom_masses",
    "expectation",
    "marginal_y",
    "mix",
    "absolutely_continuous",
    "radon_nikodym",
]

#: Sum-to-one tolerance for flagging a finite measure as a probability.
PROB_TOL_FINITE = 1e-12
#: Integral-to-one tolerance for flagging a grid density as a probability.
PROB_TOL_GRID = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _as_points(points) -> np.ndarray:
    """Coerce point data to a 2-D ``(n, m)`` float array.

    A flat sequence of scalars is read as ``n`` points in ``R^1``.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"support points must be scalars or vectors, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Nonnegative weights on pairwise distinct points of ``R^m``.

    Attributes
    ----------
    support:
        Read-only ``(n, m)`` array of support points.  Points are compared
        exactly (no tolerance); duplicates are construction errors.
    weights:
        Read-only ``(n,)`` array of nonnegative weights with positive sum.
    is_probability:
        True when the weights sum to one within ``1e-12``.
    """

    support: np.ndarray
    weights: np.ndarray
    is_probability: bool = field(default=False)

    def __post_init__(self) -> None:
        support = _as_points(self.support)
        weights = np.asarray(self.weights, dtype=float)
        if support.shape[0] == 0:
            raise EmptySupport("a finite measure needs at least one support point")
        if weights.ndim != 1 or weights.shape[0] != support.shape[0]:
            raise ValueError(
                f"{weights.shape[0] if weights.ndim == 1 else weights.shape} weights "
                f"for {support.shape[0]} support points"
            )
        if not np.all(np.isfinite(support)):
            raise NonFiniteValue("support points must be finite")
        if not np.all(np.isfinite(weights)):
            raise NonFiniteValue("weights must be finite")
        if np.any(weights < 0):
            raise NegativeWeight(f"negative weight at index {int(np.argmin(weights))}")
        seen = set(map(tuple, support))
        if len(seen) != support.shape[0]:
            raise DuplicatePoint("support points must be pairwise distinct")
        mass = math.fsum(weights)
        if not mass > 0.0:
            raise ZeroMass("total mass must be strictly positive")
        if self.is_probability and abs(mass - 1.0) > PROB_TOL_FINITE:
            raise NonProbabilityMeasure(
                f"flagged as probability but total mass is {mass!r}"
            )
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n_points(self) -> int:
        return self.support.shape[0]

    @property
    def point_dim(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Piecewise-constant density on a uniform grid over ``[lo, hi)``.

    ``values[i]`` is the density on cell ``i``; the cell midpoints are
    ``lo + (i + 1/2) * cell_width``.  Integrals use the midpoint rule:
    ``\\int f dP = sum_i f(mid_i) * values[i] * cell_width``.

    Attributes
    ----------
    lo, hi:
        Interval endpoints, ``lo < hi``.
    values:
        Read-only ``(n_cells,)`` array of nonnegative densities with
        strictly positive integral.
    is_probability:
        True when the integral is one within ``1e-9``.
    """

    lo: float
    hi: float
    values: np.ndarray
    is_probability: bool = field(default=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("grid values must be a 1-D array")
        if values.shape[0] == 0:
            raise EmptySupport("a grid density needs at least one cell")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("density values must be finite")
        if np.any(values < 0):
            raise NegativeWeight(f"negative density at cell {int(np.argmin(values))}")
        width = (self.hi - self.lo) / values.shape[0]
        integral = math.fsum(values) * width
        if not integral > 0.0:
            raise ZeroMass("total mass must be strictly positive")
        if self.is_probability and abs(integral - 1.0) > PROB_TOL_GRID:
            raise NonProbabilityMeasure(
                f"flagged as probability but integral is {integral!r}"
            )
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    @property
    def midpoints(self) -> np.ndarray:
        return self.lo + (np.arange(self.n_cells) + 0.5) * self.cell_width


Measure = Union[FiniteMeasure, GridDensity]


def same_representation(a: Measure, b: Measure) -> bool:
    """True when the two measures live on the same discrete structure."""
    if isinstance(a, FiniteMeasure) and isinstance(b, FiniteMeasure):
        return np.array_equal(a.support, b.support)
    if isinstance(a, GridDensity) and isinstance(b, GridDensity):
        return a.lo == b.lo and a.hi == b.hi and a.n_cells == b.n_cells
    return False


def require_same_representation(a: Measure, b: Measure) -> None:
    if not same_representation(a, b):
        raise RepresentationMismatch(
            f"cannot combine {type(a).__name__} and {type(b).__name__} "
            "with different supports/grids in one identity"
        )


def atom_masses(p: Measure) -> np.ndarray:
    """Vector of point masses: weights, or ``values * cell_width``."""
    if isinstance(p, FiniteMeasure):
        return p.weights
    return p.values * p.cell_width


def density_values(p: Measure) -> np.ndarray:
    """Per-atom density relative to the representation's base measure."""
    if isinstance(p, FiniteMeasure):
        return p.weights
    return p.values


def total_mass(p: Measure) -> float:
    """Total mass ``P(Y)``, by compensated summation."""
    return math.fsum(atom_masses(p))


# ---------------------------------------------------------------------------
# construction helpers


def make_finite_measure(
    points,
    weights: Sequence[float],
    normalize: bool = False,
) -> FiniteMeasure:
    """Build a :class:`FiniteMeasure`, optionally rescaled to mass one.

    The probability flag is set automatically when the (possibly rescaled)
    weights sum to one within ``1e-12``.  Only a strictly positive mass is
    rescaled; any other input reaches :class:`FiniteMeasure` unchanged, so
    that its validation names the fault.

    Raises
    ------
    EmptySupport, NonFiniteValue, NegativeWeight, DuplicatePoint, ZeroMass
        on invalid input data.
    """
    w = np.asarray(weights, dtype=float)
    mass = math.fsum(w.ravel())
    if normalize and mass > 0.0:
        w = w / mass
        mass = math.fsum(w.ravel())
    return FiniteMeasure(
        support=points,
        weights=w,
        is_probability=abs(mass - 1.0) <= PROB_TOL_FINITE,
    )


def make_grid_density(
    lo: float,
    hi: float,
    values: Sequence[float],
    normalize: bool = False,
) -> GridDensity:
    """Build a :class:`GridDensity`, optionally rescaled to integral one.

    The probability flag is set automatically when the integral is one
    within ``1e-9``; pass ``normalize=True`` when the raw values only
    integrate to one approximately (e.g. a truncated continuous density).
    As in :func:`make_finite_measure`, only a strictly positive integral is
    rescaled and :class:`GridDensity` validates the result.
    """
    v = np.asarray(values, dtype=float)
    width = (float(hi) - float(lo)) / max(v.size, 1)
    integral = math.fsum(v.ravel()) * width
    if normalize and integral > 0.0:
        v = v / integral
        integral = math.fsum(v.ravel()) * width
    return GridDensity(
        lo=float(lo),
        hi=float(hi),
        values=v,
        is_probability=abs(integral - 1.0) <= PROB_TOL_GRID,
    )


def counting_measure(points) -> FiniteMeasure:
    """Unit weight on every support point (sigma-finite reference)."""
    support = _as_points(points)
    return make_finite_measure(support, np.ones(support.shape[0]))


def lebesgue_grid(lo: float, hi: float, n_cells: int) -> GridDensity:
    """Lebesgue measure restricted to ``[lo, hi)``: unit density everywhere."""
    return make_grid_density(lo, hi, np.ones(int(n_cells)))


# ---------------------------------------------------------------------------
# conditional families


@dataclass(frozen=True, eq=False)
class ConditionalFamily:
    """A probability measure over Y for each conditioning point x.

    ``members[k]`` is the conditional law at ``x_points[k]``.  All members
    must share one Y-representation and all must be probability measures.
    """

    x_points: np.ndarray
    members: tuple[Measure, ...]

    def __post_init__(self) -> None:
        x_points = _as_points(self.x_points)
        members = tuple(self.members)
        if len(members) == 0:
            raise EmptySupport("a conditional family needs at least one member")
        if x_points.shape[0] != len(members):
            raise IndexMismatch(
                f"{x_points.shape[0]} conditioning points for {len(members)} members"
            )
        if len(set(map(tuple, x_points))) != x_points.shape[0]:
            raise DuplicatePoint("conditioning points must be pairwise distinct")
        first = members[0]
        for k, m in enumerate(members):
            if not m.is_probability:
                raise NonProbabilityMeasure(f"family member {k} is not a probability")
            if not same_representation(first, m):
                raise RepresentationMismatch(
                    f"family member {k} uses a different Y-representation"
                )
        object.__setattr__(self, "x_points", _freeze(x_points))
        object.__setattr__(self, "members", members)

    @property
    def n_x(self) -> int:
        return self.x_points.shape[0]

    def __getitem__(self, k: int) -> Measure:
        return self.members[k]


def constant_family(x_points, p: Measure) -> ConditionalFamily:
    """The family equal to ``p`` at every conditioning point."""
    pts = _as_points(x_points)
    return ConditionalFamily(x_points=pts, members=(p,) * pts.shape[0])


def require_aligned(p_x: FiniteMeasure, cond: ConditionalFamily) -> None:
    """Check that ``p_x`` lives exactly on ``cond``'s conditioning points."""
    if not np.array_equal(p_x.support, cond.x_points):
        raise IndexMismatch(
            "the X-marginal's support must equal the family's conditioning points"
        )


# ---------------------------------------------------------------------------
# operations


def expectation(f, p: Measure) -> float:
    """Integral of ``f`` against the probability measure ``p``.

    ``f`` may be a vector of values aligned with ``p``'s atoms (e.g. a cost
    table row) or a callable; a callable receives the scalar coordinate for
    1-D points and grid midpoints, the point vector otherwise.  ``f`` must
    be finite on the support of ``p``; values on zero-mass atoms are
    ignored.

    Raises
    ------
    NonProbabilityMeasure
        if ``p`` is not a probability measure.
    NonFiniteValue
        if ``f`` is non-finite somewhere ``p`` has mass.
    """
    if not p.is_probability:
        raise NonProbabilityMeasure("expectation requires a probability measure")
    atoms = atom_masses(p)
    if callable(f):
        if isinstance(p, GridDensity):
            vals = np.array([float(f(float(y))) for y in p.midpoints])
        elif p.point_dim == 1:
            vals = np.array([float(f(float(pt[0]))) for pt in p.support])
        else:
            vals = np.array([float(f(pt)) for pt in p.support])
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != atoms.shape:
            raise ValueError(
                f"integrand has {vals.shape} values for {atoms.shape} atoms"
            )
    live = atoms > 0
    if not np.all(np.isfinite(vals[live])):
        raise NonFiniteValue("integrand is not finite on the support")
    return math.fsum(vals[live] * atoms[live])


def marginal_y(cond: ConditionalFamily, p_x: FiniteMeasure) -> Measure:
    """Mixture ``sum_x p_x(x) * cond[x]`` — the Y-marginal of the joint law.

    Raises
    ------
    IndexMismatch
        if ``p_x``'s support differs from the family's conditioning points.
    NonProbabilityMeasure
        if ``p_x`` is not a probability measure.
    """
    if not p_x.is_probability:
        raise NonProbabilityMeasure("the X-marginal must be a probability measure")
    require_aligned(p_x, cond)
    stacked = np.stack([density_values(m) for m in cond.members])
    mixed = p_x.weights @ stacked
    template = cond.members[0]
    if isinstance(template, FiniteMeasure):
        return make_finite_measure(template.support, mixed)
    return make_grid_density(template.lo, template.hi, mixed)


def mix(p: Measure, q: Measure, alpha: float) -> Measure:
    """Convex combination ``alpha * p + (1 - alpha) * q``, same representation.

    ``alpha`` must lie strictly inside ``(0, 1)`` so that both ingredients
    keep positive mass in the mixture (which is what makes the mixture a
    valid common reference: both ``p`` and ``q`` are absolutely continuous
    with respect to it).
    """
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1), got {alpha!r}")
    require_same_representation(p, q)
    mixed = alpha * density_values(p) + (1.0 - alpha) * density_values(q)
    if isinstance(p, FiniteMeasure):
        return make_finite_measure(p.support, mixed)
    return make_grid_density(p.lo, p.hi, mixed)


def absolutely_continuous(p: Measure, q: Measure) -> bool:
    """``p << q``: every atom where ``p`` has mass, ``q`` has mass too.

    Zero-weight support points do not count as mass.  Measures in different
    representations are never absolutely continuous with respect to each
    other here (densities against different base measures are not compared).
    """
    if not same_representation(p, q):
        return False
    return bool(np.all(atom_masses(q)[atom_masses(p) > 0] > 0))


def radon_nikodym(p: Measure, q: Measure) -> np.ndarray:
    """Density of ``p`` with respect to ``q`` as a per-atom ratio.

    Entry ``i`` is ``dP/dQ`` at atom ``i``; the convention ``0/0 := 0`` is
    applied on atoms where ``q`` vanishes (which ``p << q`` guarantees are
    also ``p``-null).  Summing the result against ``q``'s atom masses
    recovers ``p``'s total mass.

    Raises
    ------
    NotAbsolutelyContinuous
        if ``p`` puts mass on a ``q``-null atom (or representations differ).
    """
    if not absolutely_continuous(p, q):
        raise NotAbsolutelyContinuous("dP/dQ requires P << Q in one representation")
    pa = atom_masses(p)
    qa = atom_masses(q)
    out = np.zeros_like(pa)
    live = qa > 0
    np.divide(pa, qa, out=out, where=live)
    return _freeze(out)
