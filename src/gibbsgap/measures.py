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
    "constant_family",
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


def _logsumexp(a, axis=None, keepdims=False):
    """Max-shifted ``log sum(exp(a))`` over ``axis`` (every entry when None), the reduced axes
    kept with ``keepdims``.  The shift is each slice's maximum, 0 where that is not finite, so
    an all-``-inf`` slice gives ``-inf``, not NaN.  ``a`` is only read: one temporary of its
    shape holds ``a`` minus the shift, and then its ``exp``, in place.
    """
    a = np.asarray(a, dtype=float)
    shift = a.max(axis=axis, keepdims=True)
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    # exp overflows only next to a +inf entry, and an empty sum is -inf: both legal
    with np.errstate(over="ignore", divide="ignore"):
        shifted = np.subtract(a, shift)
        total = np.log(np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)) + shift
    return total if keepdims else np.squeeze(total, axis=axis)


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
        try:
            points = np.asarray(self.points, dtype=float)
        except ValueError:
            if len({np.shape(p) for p in self.points}) > 1:  # NumPy's "inhomogeneous shape"
                raise ValueError("support points must all have the same dimension") from None
            raise
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
        if not math.isfinite(self.cell_width):
            raise NonFiniteValue(f"the cell width of [{self.lo}, {self.hi}) overflows a float")
        if not self.cell_width > 0.0:
            raise ValueError(f"the cell width of [{self.lo}, {self.hi}) over {self.n_cells} cells "
                             f"is {self.cell_width!r}, not positive")

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, an array its caller has just made, set read-only in place rather than copied."""
    a.flags.writeable = False
    return a


#: The two views of the atoms of a measure or family, as :class:`_Atoms` names them.
_VIEWS = ("log_density", "_density")


class _Atoms:
    """Two views of the atoms of a measure, or of each row of a family: weights
    (``_density``) and log atoms.  One is kept as given, the other derived once, in
    the one array the ``log`` or ``exp`` writes."""

    @cached_property
    def log_density(self) -> np.ndarray:
        """Log atoms: the log density of each atom, ``-inf`` on null atoms."""
        with np.errstate(divide="ignore"):
            return _read_only(np.log(self._density))

    @cached_property
    def _density(self) -> np.ndarray:
        return _read_only(np.exp(self.log_density))


@dataclass(frozen=True, eq=False, init=False)
class _Measure(_Atoms):
    """A measure's support object and whether it is a probability, beside its atoms."""

    domain: Union[PointSupport, GridSupport]
    is_probability: bool


def _built(domain, density, is_probability: Optional[bool], normalize: bool = False) -> Measure:
    """The one validation pass of a measure on ``domain``, a valid support: the shape of
    ``density``, the caller's weights or cell values, then its weights by :func:`_weights`.
    The measure holds them as a read-only copy, rescaled to mass one with ``normalize``, and is
    a probability as ``is_probability`` says, or, when it is None, when its mass is one within
    the support's tolerance."""
    density = np.array(density, dtype=float)
    if density.shape != (domain.n_atoms,):
        raise ValueError(f"{density.shape} weights for {domain.n_atoms} atoms")
    mass = float(_weights(density[None], domain.base_mass, normalize)[1][0])
    if is_probability and abs(mass - 1.0) > domain.prob_tol:
        raise NonProbabilityMeasure(f"flagged as probability but total mass is {mass!r}")
    density.flags.writeable = False
    flag = abs(mass - 1.0) <= domain.prob_tol if is_probability is None else bool(is_probability)
    return _derived(domain, flag, _density=density)


def _derived(domain, is_probability: bool, **views) -> Measure:
    """A measure on the support object ``domain`` holding the read-only ``views`` as given."""
    m = object.__new__(FiniteMeasure if isinstance(domain, PointSupport) else GridDensity)
    m.__dict__.update(views, domain=domain, is_probability=is_probability)
    return m


class FiniteMeasure(_Measure):
    """Nonnegative weights on pairwise distinct points of ``R^m``.

    Built from point data or a :class:`PointSupport` to share.  ``support``
    is the ``(n, m)`` array of points, ``weights`` the ``(n,)`` weights with
    positive sum; ``is_probability`` when they sum to one within ``1e-12``.
    """

    def __new__(cls, support, weights, is_probability: bool = False) -> FiniteMeasure:
        return _built(_point_support(support), weights, is_probability)

    support = property(lambda self: self.domain.points)
    weights = property(lambda self: self._density)


class GridDensity(_Measure):
    """Piecewise-constant density on a uniform grid over ``[lo, hi)``.

    ``values[i]`` is the density on cell ``i``; the cell midpoints are
    ``lo + (i + 1/2) * cell_width``.  Integrals use the midpoint rule:
    ``\\int f dP = sum_i f(mid_i) * values[i] * cell_width``; ``is_probability``
    when the (strictly positive) integral is one within ``1e-9``.
    """

    def __new__(cls, lo: float, hi: float, values, is_probability: bool = False) -> GridDensity:
        return _built(*_grid(lo, hi, values), is_probability)

    lo = property(lambda self: self.domain.lo)
    hi = property(lambda self: self.domain.hi)
    n_cells = property(lambda self: self.domain.n_cells)
    cell_width = property(lambda self: self.domain.cell_width)
    midpoints = property(lambda self: self.domain.midpoints)
    values = property(lambda self: self._density)


Measure = Union[FiniteMeasure, GridDensity]


def _grid(lo: float, hi: float, values):
    """The grid of the cells of ``values``, a 1-D array, over ``[lo, hi)``, and ``values``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("grid values must be a 1-D array")
    return GridSupport(lo, hi, values.shape[0]), values


def require_same_representation(a: Measure, b: Measure) -> None:
    if a.domain != b.domain:
        raise RepresentationMismatch(
            f"cannot combine {type(a).__name__} and {type(b).__name__} "
            "with different supports/grids in one identity"
        )


def atom_masses(p: Measure) -> np.ndarray:
    """Point masses, read-only: the ``weights`` array itself, or ``values * cell_width``."""
    return _atom_masses(p._density, p.domain)


def _atom_masses(density: np.ndarray, domain) -> np.ndarray:
    """The one rule for atom masses, read-only: ``density`` times the base mass of ``domain``."""
    masses = density if domain.base_mass == 1.0 else density * domain.base_mass  # x * 1.0 == x
    return _read_only(masses)


def total_mass(p: Measure) -> float:
    """Total mass ``P(Y)``, by compensated summation."""
    return math.fsum(atom_masses(p))


# ---------------------------------------------------------------------------
# row sums

def _sum_rows(x: np.ndarray) -> list[float]:
    """Each row's sum of the float matrix ``x``, pairwise in one fixed order.

    Each level adds the second half of the columns to the first, and an odd
    last column into the last of those sums, until one column is left; an
    exact zero sum is +0.0.  Every entry passes through at most
    ``k = ceil(log2 n)`` additions of a row of ``n``, so a finite sum is within
    ``k u / (1 - k u) * sum |x|`` of the exact one, ``u = 2**-53``.  Its bits
    depend only on IEEE addition in this order.  A row past the largest float
    is ``+-inf`` where a partial sum overflows, and NaN from ``inf - inf``.

    ``x`` is only read: the first level writes a new matrix of half its width,
    and each later level adds in place into the start of that one.
    """
    s = x
    with np.errstate(over="ignore", invalid="ignore"):
        while s.shape[1] > 1:
            h = s.shape[1] // 2
            head = np.add(s[:, :h], s[:, h:2 * h], out=None if s is x else s[:, :h])
            if s.shape[1] % 2:
                head[:, -1] += s[:, -1]
            s = head
        return (s[:, 0] + 0.0).tolist()


# ---------------------------------------------------------------------------
# construction helpers


def _masses(w: np.ndarray, base_mass: float) -> np.ndarray:
    """Each row's total mass: the :func:`_sum_rows` sum of the row, times ``base_mass``.  The
    rows hold finite, nonnegative weights; a mass past the largest float raises
    :class:`NonFiniteValue`."""
    mass = [s * base_mass for s in _sum_rows(w)]
    if not all(map(math.isfinite, mass)):  # the sum, or its product with the cell width
        raise NonFiniteValue("total mass overflows a float")
    return np.array(mass)


def _weights(w: np.ndarray, base_mass: float, normalize: bool = False):
    """The rows of the float matrix ``w`` as the weights of measures, validated, and their masses.

    Non-finite, then negative weights are rejected before any sum, then a row of
    no mass.  With ``normalize``, each row is rescaled to mass one in place, and
    its mass is that of the rescaled row.
    """
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("weights must be finite")
    negative = (w < 0).any(axis=1)
    if negative.any():
        raise NegativeWeight(f"negative weight at atom {int(np.argmin(w[np.argmax(negative)]))}")
    mass = _masses(w, base_mass)
    if not np.all(mass > 0.0):
        raise ZeroMass("total mass must be strictly positive")
    if normalize:
        with np.errstate(over="ignore"):  # a row past the largest float: _masses raises
            w /= mass[:, None]
        mass = _masses(w, base_mass)
    return w, mass


def make_finite_measure(points, weights: Sequence[float], normalize: bool = False) -> FiniteMeasure:
    """Build a :class:`FiniteMeasure`, optionally rescaled to mass one.

    ``points`` is point data, or a :class:`PointSupport` to share.  The
    probability flag is set automatically when the (possibly rescaled)
    weights sum to one within ``1e-12``.  Validates as the constructor does:
    the points, then the number of weights, then the weights.

    Raises
    ------
    EmptySupport, NonFiniteValue, NegativeWeight, DuplicatePoint, ZeroMass
        on invalid input data.
    """
    return _built(_point_support(points), weights, None, normalize)


def make_grid_density(lo: float, hi: float, values: Sequence[float],
                      normalize: bool = False) -> GridDensity:
    """Build a :class:`GridDensity`, optionally rescaled to integral one.

    The probability flag is set automatically when the integral is one
    within ``1e-9``; pass ``normalize=True`` when the raw values only
    integrate to one approximately (e.g. a truncated continuous density).
    Validates as the constructor does: the grid, then the values.
    """
    return _built(*_grid(float(lo), float(hi), values), None, normalize)


def counting_measure(points) -> FiniteMeasure:
    """Unit weight on every support point (sigma-finite reference)."""
    support = _point_support(points)
    return make_finite_measure(support, np.ones(support.n_atoms))


def lebesgue_grid(lo: float, hi: float, n_cells: int) -> GridDensity:
    """Lebesgue measure restricted to ``[lo, hi)``: unit density everywhere."""
    domain = GridSupport(float(lo), float(hi), int(n_cells))
    return _built(domain, np.ones(domain.n_cells), None)


# ---------------------------------------------------------------------------
# conditional families


@dataclass(frozen=True, eq=False, init=False)
class ConditionalFamily(_Atoms):
    """A probability measure over Y for each conditioning point x.

    Held as one read-only ``(n_x, n_y)`` matrix on one Y-support, ``domain``:
    row ``k`` is the law at point ``k`` of ``x_points`` (point data, or a
    :class:`PointSupport` to share).  The given ``members``, probability
    measures on one Y-support, are stacked.  ``family[k]`` and ``members``
    derive row measures only when asked; each holds views of its row of the
    views the family holds, so a view the family does not hold is derived
    for that row alone.
    """

    x_points: PointSupport
    domain: Union[PointSupport, GridSupport]

    def __init__(self, x_points, members) -> None:
        members = tuple(members)
        if len(members) == 0:
            raise EmptySupport("a conditional family needs at least one member")
        x_points = _point_support(x_points)
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
        self.__dict__.update(x_points=x_points, domain=members[0].domain,
                             log_density=_freeze([m.log_density for m in members]),
                             _density=_freeze([m._density for m in members]))

    n_x = property(lambda self: self.x_points.n_atoms)

    def __getitem__(self, k: int) -> Measure:
        k = range(self.n_x)[k]
        views = self.__dict__  # the views held: none is derived here
        return _derived(self.domain, True, **{name: views[name][k] for name in _VIEWS if name in views})

    members = property(lambda self: tuple(self[k] for k in range(self.n_x)))


def _family(x_points: PointSupport, domain, **views) -> ConditionalFamily:
    """A family on the support object ``domain`` holding the read-only matrix ``views`` as given."""
    fam = object.__new__(ConditionalFamily)
    fam.__dict__.update(views, x_points=x_points, domain=domain)
    return fam


def _probability_family(x_points: PointSupport, domain, w: np.ndarray) -> ConditionalFamily:
    """The family of the rows of ``w``, a float matrix it takes over, rescaled to mass one
    and validated as one matrix."""
    w, mass = _weights(w, domain.base_mass, normalize=True)
    is_probability = np.abs(mass - 1.0) <= domain.prob_tol
    if not is_probability.all():
        raise NonProbabilityMeasure(f"family member {int(np.argmin(is_probability))} is not a probability")
    w.flags.writeable = False
    return _family(x_points, domain, _density=w)


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
        if ``f`` is non-finite somewhere ``p`` has mass, or the integral is
        past the largest float.
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
    (value,) = _mean_rows(vals[None], atoms[None])
    if not math.isfinite(value):
        raise NonFiniteValue("expectation overflows a float")
    return value


def _mean_rows(f: np.ndarray, masses: np.ndarray, work: Optional[np.ndarray] = None) -> list[float]:
    """The one expectation sum: the :func:`_sum_rows` sum of ``f * mass`` over each row's atoms
    of positive mass, as one row of products with +0.0 on the atoms of no mass.  With ``f``
    finite there, a row's sum is not finite only where it is past the largest float: ``+-inf``
    where a product or a partial sum overflows, NaN where two of opposite signs meet.

    The products go into a new matrix, or into ``work``, a matrix of the broadcast shape that
    the caller owns and hands over, ``f`` itself included: its entries of no mass are set to
    +0.0 before any product is written.  Beyond that matrix, only a mask of ``masses``' shape
    and the row sum's half-width matrix are written; ``f`` and ``masses`` are otherwise only
    read.
    """
    live = masses > 0.0
    if work is None:
        work = np.zeros(np.broadcast(f, masses).shape)
    else:
        np.copyto(work, 0.0, where=~live)
    with np.errstate(over="ignore"):  # a product past the largest float is infinite
        np.multiply(f, masses, out=work, where=live)
    del live  # before the row sum's matrix is taken
    return _sum_rows(work)


def _average(weights, rows) -> float:
    """``sum_k weights[k] * rows[k]`` by compensated summation: the reduction over x."""
    return math.fsum(w * v for w, v in zip(weights, rows))


#: The most floats of any one matrix that a kernel reading a stack of rows in blocks holds: a
#: block is as many rows as fit, or one row if a row is wider.
_BLOCK = 2**15


def _blocks(n: int, width: int) -> Sequence[slice]:
    """``range(n)`` in blocks of as many items of ``width`` floats as :data:`_BLOCK` holds, one
    at least."""
    step = max(1, _BLOCK // width)
    return [slice(i, i + step) for i in range(0, n, step)]


class _Rows(NamedTuple):
    """Measures on one support stacked one per row: log atoms and atom masses."""

    domain: Union[PointSupport, GridSupport]
    log: np.ndarray
    mass: Optional[np.ndarray]

    def at(self, s: slice) -> _Rows:
        """A stack of one row, which every block of rows reads whole."""
        return self


class _Stack(NamedTuple):
    """The rows ``rows`` of a matrix of measures on one support, in the views that its owner
    holds: log atoms, densities or both, None where not held.  Read a block at a time."""

    domain: Union[PointSupport, GridSupport]
    log: Optional[np.ndarray]
    density: Optional[np.ndarray]
    rows: Sequence[int]

    def logs(self, s: slice) -> np.ndarray:
        """The log atoms of ``rows[s]``, derived for them alone if not held."""
        if self.log is not None:
            return _at(self.log, self.rows, s)
        with np.errstate(divide="ignore"):
            return np.log(_at(self.density, self.rows, s))

    def at(self, s: slice) -> _Rows:
        """``rows[s]`` as log atoms and atom masses, each derived for them alone if not held."""
        log = self.logs(s)
        density = np.exp(log) if self.density is None else _at(self.density, self.rows, s)
        return _Rows(self.domain, log, _atom_masses(density, self.domain))


def _row(p: Measure) -> _Rows:
    """``p`` as a stack of one row."""
    return _Rows(p.domain, p.log_density[None], atom_masses(p)[None])


def _at(a: np.ndarray, rows, s: slice = slice(None)) -> np.ndarray:
    """``a[rows[s]]``, ``rows`` ascending and distinct: ``a[s]``, read in place, if they are all
    of ``a``'s rows."""
    return a[s] if len(rows) == len(a) else a[rows[s]]


def _stack(atoms: _Atoms, rows) -> _Stack:
    """The rows ``rows`` of the family ``atoms``, in the views it holds: none is derived here."""
    return _Stack(atoms.domain, *map(atoms.__dict__.get, _VIEWS), rows)


def _live_rows(p_x: FiniteMeasure, *families: ConditionalFamily):
    """The points carrying X-mass, their weights and each family's rows there."""
    for cond in families:
        require_aligned(p_x, cond)
    live = np.flatnonzero(p_x.weights > 0)
    return live, _at(p_x.weights, live), [_stack(c, live) for c in families]


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
    return _mixture(_stack(cond, np.arange(cond.n_x)), p_x.log_density)


def _mixture(rows: _Stack, log_w: np.ndarray) -> Measure:
    """The probability ``sum_k exp(log_w[k]) * rows[k]`` on the support of ``rows``, from their
    log atoms: a row of weight 0 adds nothing, bit for bit, so only the rows of positive weight
    may be given.

    The max-shifted :func:`_logsumexp` of each column, in two passes over blocks of the rows:
    the first takes each column's largest exponent, the second sums the shifted exponentials,
    each block's first row adding the sum of the blocks before.  NumPy sums a matrix of two or
    more columns down its rows in order, so the sum holds the bits of the sum of one matrix; it
    sums a single column pairwise, so a support of one atom is one block.
    """
    width = rows.domain.n_atoms
    blocks = _blocks(len(log_w), width) if width > 1 else [slice(None)]
    shift, total = np.full(width, -math.inf), np.zeros(width)
    for s in blocks:
        np.maximum(shift, (rows.logs(s) + log_w[s, None]).max(axis=0), out=shift)
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    with np.errstate(over="ignore", divide="ignore"):  # as in _logsumexp
        for s in blocks:
            a = rows.logs(s) + log_w[s, None]
            a -= shift
            np.exp(a, out=a)
            a[0] += total  # exp is never -0.0, so the first block's zeros change no bit
            total = a.sum(axis=0)
        mixed = np.log(total) + shift
    return _derived(rows.domain, True, log_density=_read_only(mixed))


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
    return _derived(p.domain, p.is_probability and q.is_probability, log_density=_freeze(mixed))


def absolutely_continuous(p: Measure, q: Measure) -> bool:
    """``p << q``: every atom where ``p`` has mass, ``q`` has mass too.

    Decided on log atoms: only a ``-inf`` log atom is null.  Measures on
    unequal supports are never absolutely continuous with respect to each
    other here (densities against different base measures are not compared).
    """
    return not _escapes(_row(p), _row(q))[0]


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
