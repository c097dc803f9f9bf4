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

A measure lives on a support, its ``domain`` (:class:`PointSupport` or
:class:`GridSupport`), validated once when built and shared by every
measure derived from it.  Supports are equal when they are the same object
or hold equal points or grids; combining measures on unequal supports
raises :class:`~gibbsgap.errors.RepresentationMismatch`.

Per-atom data are *log atoms*: ``log_density[i]`` is the log density of
atom ``i`` against the support's base measure (counting on points,
Lebesgue on cells), ``-inf`` on a null atom, so an atom that underflows a
float (``exp(-800)``) still counts as mass.  The linear ``weights`` /
``values`` are derived from them, or, for a measure built from given
weights, kept as given.  The *atom mass* of a cell is ``value *
cell_width``; ratios of atom masses equal ratios of densities.

Every value is immutable after construction (frozen dataclasses, read-only
array copies), so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

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
    "PointSupport",
    "GridSupport",
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


def _freeze(a) -> np.ndarray:
    """A read-only contiguous float copy of ``a``: never the caller's own array."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def _logsumexp(a, b=None, axis=None):
    """Max-shifted ``log sum(b * exp(a))`` over ``axis`` (every entry when None).

    Zero weights contribute nothing, however large ``a`` is there, and an
    all-``-inf`` slice gives ``-inf``, not NaN.
    """
    a = np.asarray(a, dtype=float)
    if b is not None:
        a = np.where(np.asarray(b) != 0, a, -math.inf)
    shift = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    terms = np.exp(a - shift) if b is None else b * np.exp(a - shift)
    with np.errstate(divide="ignore"):  # an empty sum is a legal -inf
        return np.squeeze(np.log(np.sum(terms, axis=axis, keepdims=True)) + shift, axis=axis)


# ---------------------------------------------------------------------------
# supports


@dataclass(frozen=True, eq=False)
class PointSupport:
    """Pairwise distinct finite points of ``R^m`` (scalars are points of ``R^1``),
    compared exactly, each of base mass 1."""

    points: np.ndarray

    base_mass = 1.0
    prob_tol = PROB_TOL_FINITE

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.ndim != 2:
            raise ValueError(f"support points must be scalars or vectors, got ndim={points.ndim}")
        if points.shape[0] == 0:
            raise EmptySupport("a support needs at least one point")
        if not np.all(np.isfinite(points)):
            raise NonFiniteValue("support points must be finite")
        if len(set(map(tuple, points))) != points.shape[0]:
            raise DuplicatePoint("support points must be pairwise distinct")
        object.__setattr__(self, "points", _freeze(points))

    n_atoms = property(lambda self: self.points.shape[0])

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PointSupport) and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True)
class GridSupport:
    """``n_cells`` equal cells over ``[lo, hi)``, each of base mass ``cell_width``."""

    lo: float
    hi: float
    n_cells: int

    prob_tol = PROB_TOL_GRID

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not self.n_cells >= 1:
            raise EmptySupport("a grid needs at least one cell")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    n_atoms = property(lambda self: self.n_cells)
    cell_width = base_mass = property(lambda self: (self.hi - self.lo) / self.n_cells)
    points = property(lambda self: self.midpoints.reshape(-1, 1))

    @property
    def midpoints(self) -> np.ndarray:
        return self.lo + (np.arange(self.n_cells) + 0.5) * self.cell_width


def _point_support(points) -> PointSupport:
    return points if isinstance(points, PointSupport) else PointSupport(points)


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True, eq=False, init=False)
class _Measure:
    domain: Union[PointSupport, GridSupport]
    is_probability: bool

    def __init__(self, domain, is_probability: bool, *, log_density=None, density=None) -> None:
        """The one constructor of every measure; ``domain`` is never validated again.

        A given ``density`` (the caller's weights or cell values) is checked."""
        if log_density is None:
            density = _freeze(density)
            if density.shape != (domain.n_atoms,):
                raise ValueError(f"{density.shape} weights for {domain.n_atoms} atoms")
            if not np.all(np.isfinite(density)):
                raise NonFiniteValue("weights must be finite")
            if np.any(density < 0):
                raise NegativeWeight(f"negative weight at atom {int(np.argmin(density))}")
            mass = math.fsum(density) * domain.base_mass
            if not mass > 0.0:
                raise ZeroMass("total mass must be strictly positive")
            if is_probability and abs(mass - 1.0) > domain.prob_tol:
                raise NonProbabilityMeasure(f"flagged as probability but total mass is {mass!r}")
            self.__dict__["_density"] = density
        else:
            self.__dict__["log_density"] = _freeze(log_density)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "is_probability", bool(is_probability))

    @cached_property
    def log_density(self) -> np.ndarray:
        """Log atoms: the log density of each atom, ``-inf`` on null atoms."""
        with np.errstate(divide="ignore"):
            return _freeze(np.log(self._density))

    @cached_property
    def _density(self) -> np.ndarray:
        return _freeze(np.exp(self.log_density))


def _derived(like: Measure, log_density: np.ndarray, is_probability: bool) -> Measure:
    """A measure of ``like``'s type on ``like``'s support object."""
    m = object.__new__(type(like))
    _Measure.__init__(m, like.domain, is_probability, log_density=log_density)
    return m


class FiniteMeasure(_Measure):
    """Nonnegative weights on pairwise distinct points of ``R^m``.

    Built from point data or a :class:`PointSupport` to share.  ``support``
    is the ``(n, m)`` array of points, ``weights`` the ``(n,)`` weights with
    positive sum; ``is_probability`` when they sum to one within ``1e-12``.
    """

    def __init__(self, support, weights, is_probability: bool = False) -> None:
        super().__init__(_point_support(support), is_probability, density=weights)

    support = property(lambda self: self.domain.points)
    weights = property(lambda self: self._density)


class GridDensity(_Measure):
    """Piecewise-constant density on a uniform grid over ``[lo, hi)``.

    ``values[i]`` is the density on cell ``i``; the cell midpoints are
    ``lo + (i + 1/2) * cell_width``.  Integrals use the midpoint rule:
    ``\\int f dP = sum_i f(mid_i) * values[i] * cell_width``; ``is_probability``
    when the (strictly positive) integral is one within ``1e-9``.
    """

    def __init__(self, lo: float, hi: float, values, is_probability: bool = False) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("grid values must be a 1-D array")
        super().__init__(GridSupport(lo, hi, values.shape[0]), is_probability, density=values)

    lo = property(lambda self: self.domain.lo)
    hi = property(lambda self: self.domain.hi)
    n_cells = property(lambda self: self.domain.n_cells)
    cell_width = property(lambda self: self.domain.cell_width)
    midpoints = property(lambda self: self.domain.midpoints)
    values = property(lambda self: self._density)


Measure = Union[FiniteMeasure, GridDensity]


def require_same_representation(a: Measure, b: Measure) -> None:
    if a.domain != b.domain:
        raise RepresentationMismatch(
            f"cannot combine {type(a).__name__} and {type(b).__name__} "
            "with different supports/grids in one identity"
        )


def atom_masses(p: Measure) -> np.ndarray:
    """Vector of point masses: weights, or ``values * cell_width``."""
    return p._density * p.domain.base_mass


def total_mass(p: Measure) -> float:
    """Total mass ``P(Y)``, by compensated summation."""
    return math.fsum(atom_masses(p))


# ---------------------------------------------------------------------------
# construction helpers


def _normalized(values, base_mass: float, normalize: bool, tol: float):
    """``(values, is_probability)``; only a positive mass is rescaled, validation names the rest."""
    v = np.asarray(values, dtype=float)
    mass = math.fsum(v.ravel()) * base_mass
    if normalize and mass > 0.0:
        v = v / mass
        mass = math.fsum(v.ravel()) * base_mass
    return v, abs(mass - 1.0) <= tol


def make_finite_measure(points, weights: Sequence[float], normalize: bool = False) -> FiniteMeasure:
    """Build a :class:`FiniteMeasure`, optionally rescaled to mass one.

    ``points`` is point data, or a :class:`PointSupport` to share.  The
    probability flag is set automatically when the (possibly rescaled)
    weights sum to one within ``1e-12``.

    Raises
    ------
    EmptySupport, NonFiniteValue, NegativeWeight, DuplicatePoint, ZeroMass
        on invalid input data.
    """
    w, flag = _normalized(weights, 1.0, normalize, PROB_TOL_FINITE)
    return FiniteMeasure(support=points, weights=w, is_probability=flag)


def make_grid_density(lo: float, hi: float, values: Sequence[float],
                      normalize: bool = False) -> GridDensity:
    """Build a :class:`GridDensity`, optionally rescaled to integral one.

    The probability flag is set automatically when the integral is one
    within ``1e-9``; pass ``normalize=True`` when the raw values only
    integrate to one approximately (e.g. a truncated continuous density).
    """
    v = np.asarray(values, dtype=float)
    v, flag = _normalized(v, (float(hi) - float(lo)) / max(v.size, 1), normalize, PROB_TOL_GRID)
    return GridDensity(lo=float(lo), hi=float(hi), values=v, is_probability=flag)


def counting_measure(points) -> FiniteMeasure:
    """Unit weight on every support point (sigma-finite reference)."""
    support = _point_support(points)
    return make_finite_measure(support, np.ones(support.n_atoms))


def lebesgue_grid(lo: float, hi: float, n_cells: int) -> GridDensity:
    """Lebesgue measure restricted to ``[lo, hi)``: unit density everywhere."""
    return make_grid_density(lo, hi, np.ones(int(n_cells)))


# ---------------------------------------------------------------------------
# conditional families


@dataclass(frozen=True, eq=False)
class ConditionalFamily:
    """A probability measure over Y for each conditioning point x.

    ``members[k]`` is the conditional law at point ``k`` of ``x_points``
    (point data, or a :class:`PointSupport` to share).  All members must
    share one Y-support and all must be probability measures.
    """

    x_points: PointSupport
    members: tuple[Measure, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if len(members) == 0:
            raise EmptySupport("a conditional family needs at least one member")
        x_points = _point_support(self.x_points)
        if x_points.n_atoms != len(members):
            raise IndexMismatch(
                f"{x_points.n_atoms} conditioning points for {len(members)} members"
            )
        for k, m in enumerate(members):
            if not m.is_probability:
                raise NonProbabilityMeasure(f"family member {k} is not a probability")
            if m.domain != members[0].domain:
                raise RepresentationMismatch(
                    f"family member {k} uses a different Y-representation"
                )
        object.__setattr__(self, "x_points", x_points)
        object.__setattr__(self, "members", members)

    @property
    def n_x(self) -> int:
        return self.x_points.n_atoms

    def __getitem__(self, k: int) -> Measure:
        return self.members[k]


def constant_family(x_points, p: Measure) -> ConditionalFamily:
    """The family equal to ``p`` at every conditioning point."""
    x_points = _point_support(x_points)
    return ConditionalFamily(x_points=x_points, members=(p,) * x_points.n_atoms)


def require_aligned(p_x: FiniteMeasure, cond: ConditionalFamily) -> None:
    """Check that ``p_x`` lives exactly on ``cond``'s conditioning points."""
    if p_x.domain != cond.x_points:
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
        pts = p.domain.points
        vals = np.array([float(f(float(pt[0]) if pts.shape[1] == 1 else pt)) for pt in pts])
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != atoms.shape:
            raise ValueError(
                f"integrand has {vals.shape} values for {atoms.shape} atoms"
            )
    if not np.all(np.isfinite(vals[atoms > 0])):
        raise NonFiniteValue("integrand is not finite on the support")
    return _mean_rows(vals[None], atoms[None])[0]


def _mean_rows(f: np.ndarray, masses: np.ndarray) -> list[float]:
    """The one expectation sum: ``fsum`` of ``f * mass`` over each row's atoms of positive mass."""
    if f.shape != masses.shape:
        f, masses = np.broadcast_arrays(f, masses)
    live = masses > 0
    flat = f[live] * masses[live]  # the live products, row after row
    ends = live.sum(axis=-1).cumsum().tolist()
    return [math.fsum(flat[a:b].tolist()) for a, b in zip([0] + ends, ends)]


def _average(weights, rows) -> float:
    """``sum_k weights[k] * rows[k]`` by compensated summation: the reduction over x."""
    return math.fsum(w * v for w, v in zip(weights, rows))


class _Rows(NamedTuple):
    """Measures on one support stacked one per row: log atoms and atom masses."""

    domain: Union[PointSupport, GridSupport]
    log: np.ndarray
    mass: Optional[np.ndarray]


def _rows(measures) -> _Rows:
    measures = list(measures)
    domain = measures[0].domain
    log = np.array([m.log_density for m in measures])
    return _Rows(domain, log, np.array([m._density for m in measures]) * domain.base_mass)


def _live_rows(p_x: FiniteMeasure, *families: ConditionalFamily):
    """The conditioning points carrying X-mass, their weights and each family's members there, stacked."""
    for cond in families:
        require_aligned(p_x, cond)
    live = np.flatnonzero(p_x.weights > 0)
    return live, p_x.weights[live], [_rows(cond.members[k] for k in live) for cond in families]


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
    stacked = np.stack([m.log_density for m in cond.members])
    mixed = _logsumexp(stacked + p_x.log_density[:, None], axis=0)
    return _derived(cond.members[0], mixed, True)


def mix(p: Measure, q: Measure, alpha: float) -> Measure:
    """Convex combination ``alpha * p + (1 - alpha) * q``, same representation.

    ``alpha`` must lie strictly inside ``(0, 1)`` so that both ingredients
    keep positive mass in the mixture (which is what makes the mixture a
    valid common reference: both ``p`` and ``q`` are absolutely continuous
    with respect to it).  The mixture is a probability when both
    ingredients are.
    """
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1), got {alpha!r}")
    require_same_representation(p, q)
    mixed = np.logaddexp(math.log(alpha) + p.log_density, math.log1p(-alpha) + q.log_density)
    return _derived(p, mixed, p.is_probability and q.is_probability)


def absolutely_continuous(p: Measure, q: Measure) -> bool:
    """``p << q``: every atom where ``p`` has mass, ``q`` has mass too.

    Decided on log atoms: only a ``-inf`` log atom is null.  Measures on
    unequal supports are never absolutely continuous with respect to each
    other here (densities against different base measures are not compared).
    """
    return not _escapes(_rows([p]), _rows([q]))[0]


def _escapes(p: _Rows, q: _Rows) -> np.ndarray:
    """Per row, not ``p << q``; every row fails on unequal supports."""
    if p.domain != q.domain:
        return np.ones(max(len(p.log), len(q.log)), dtype=bool)
    return ((p.log > -math.inf) & ~(q.log > -math.inf)).any(axis=-1)


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
    lp, lq = p.log_density, q.log_density
    live = lq > -math.inf
    out = np.zeros(lq.shape)
    out[live] = np.exp(lp[live] - lq[live])
    return _freeze(out)
