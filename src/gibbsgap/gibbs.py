"""Exponential tilting: log-partition values, Gibbs measures, free energy.

For a cost row ``h`` (the cost restricted to one conditioning point), a
reference measure ``Q`` and a tilt ``t``, the log-partition value is

    log_partition(t) = log  sum_i  exp(t * h_i) * Q_i

evaluated by a max-shifted log-sum-exp so that only representable
magnitudes are ever exponentiated.  The Gibbs measure tilted by ``lam`` is

    G_i  proportional to  Q_i * exp(-lam * h_i),

normalized by ``exp(log_partition(-lam))``, and its free energy is
``-log_partition(-lam) / lam``.  The free energy equals both

    E_Q[h]  -  kl(Q, G) / lam        (probability reference only)
    E_G[h]  +  kl(G, Q) / lam

and is the optimal value of ``E_P[h] + kl(P, Q)/lam`` over probability
measures ``P`` (minimal for ``lam > 0``, maximal for ``lam < 0``), attained
at ``G``.  A multiplicative-weights iteration recovers the optimum
numerically and serves as an independent check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    IndexMismatch,
    InfiniteDivergence,
    InfiniteLogPartition,
    NonConvergence,
    NonFiniteValue,
    RepresentationMismatch,
)
from .measures import (
    FiniteMeasure,
    GridSupport,
    Measure,
    PointSupport,
    _derived,
    _freeze,
    _logsumexp,
    _mean_rows,
    _point_support,
    expectation,
)
from .divergences import _kl_rows, kl

__all__ = [
    "CostTable",
    "GibbsResult",
    "FreeEnergySplit",
    "log_partition",
    "gibbs_tilt",
    "free_energy_identities",
    "variational_oracle",
]

#: Smallest |lam| accepted by any tilt; below this the division by lam in
#: the closed forms is numerically meaningless.
MIN_ABS_LAMBDA = 1e-12


def _require_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or abs(lam) < MIN_ABS_LAMBDA:
        raise ValueError(f"tilt parameter must satisfy |lam| >= 1e-12, got {lam!r}")
    return lam


@dataclass(frozen=True, eq=False)
class CostTable:
    """A bounded cost ``h(x, y)`` on finitely many conditioning points.

    ``values[k]`` is the cost vector at point ``k`` of ``x_points``, aligned
    with the atoms of ``y_support``: one entry per support point or per grid
    cell.  All entries must be finite.  Point data given for ``x_points`` or
    ``y_support`` are validated into a :class:`PointSupport`.

    Construct with :meth:`on_support` or :meth:`on_grid`.
    """

    x_points: PointSupport
    values: np.ndarray
    y_support: Union[PointSupport, GridSupport]

    def __post_init__(self) -> None:
        x_points = _point_support(self.x_points)
        y_support = self.y_support
        if not isinstance(y_support, GridSupport):
            y_support = _point_support(y_support)
        values = _freeze(self.values)
        if values.ndim != 2:
            raise ValueError("cost values must be a 2-D (n_x, n_y) array")
        if values.shape[0] != x_points.n_atoms:
            raise IndexMismatch(
                f"{values.shape[0]} cost rows for {x_points.n_atoms} conditioning points"
            )
        if values.shape[1] != y_support.n_atoms:
            raise IndexMismatch(f"{values.shape[1]} cost columns for {y_support.n_atoms} Y atoms")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("cost entries must be finite")
        object.__setattr__(self, "x_points", x_points)
        object.__setattr__(self, "y_support", y_support)
        object.__setattr__(self, "values", values)

    @classmethod
    def on_support(cls, x_points, y_points, values) -> "CostTable":
        return cls(x_points=x_points, values=values, y_support=y_points)

    @classmethod
    def on_grid(cls, x_points, lo: float, hi: float, n_cells: int, values) -> "CostTable":
        return cls(x_points=x_points, values=values, y_support=GridSupport(lo, hi, int(n_cells)))

    @property
    def n_x(self) -> int:
        return self.x_points.n_atoms

    def row(self, x_index: int) -> np.ndarray:
        """Cost vector at conditioning point ``x_index``.

        Raises :class:`IndexMismatch` unless ``x_index`` is an integer in
        ``[0, n_x)``: NumPy integers are accepted, bools are not.
        """
        is_int = isinstance(x_index, (int, np.integer)) and not isinstance(x_index, bool)
        if not (is_int and 0 <= x_index < self.n_x):
            raise IndexMismatch(f"x_index {x_index!r} is not an integer in [0, {self.n_x})")
        return self.values[x_index]

    def matches(self, p: Measure) -> bool:
        """True when ``p`` lives on this table's Y-support."""
        return self.y_support == p.domain

    def require_matches(self, p: Measure) -> None:
        if not self.matches(p):
            raise RepresentationMismatch(
                "measure does not live on the cost table's Y-representation"
            )


def log_partition(h: CostTable, q: Measure, x_index: int, t: float) -> float:
    """``log integral exp(t * h(x, y)) dQ(y)`` at one conditioning point.

    Max-shifted log-sum-exp: never overflows, never raises; extended-real
    return (``-inf`` cannot occur since Q has positive mass, ``+inf`` only
    if ``t*h`` overflows the shift, which finite inputs do not).
    """
    h.require_matches(q)
    _, k_val = _tilt_rows(h.row(x_index)[None], q.log_density, float(t), q.domain.base_mass)
    return float(k_val[0])


def _tilt_rows(h_rows: np.ndarray, log_ref, t: float, base_mass: float):
    """``t * h + log ref`` and the log-partition value of each row, by one batched
    log-sum-exp; :func:`log_partition` and :func:`gibbs_tilt` are its one-row case."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing tilt is a legal +inf
        a = t * h_rows + log_ref
    a[np.isnan(a)] = -math.inf  # a null atom stays null, however large t * h is there
    return a, _logsumexp(a, axis=-1) + math.log(base_mass)


def _gibbs_rows(h_rows: np.ndarray, log_ref, lam: float, base_mass: float):
    """Log atoms ``log ref - lam * h - log_partition`` of each row's tilt, and the log-partition
    values; :class:`InfiniteLogPartition` at the first row whose value is not finite."""
    a, k_vals = _tilt_rows(h_rows, log_ref, -lam, base_mass)
    if not np.isfinite(k_vals).all():
        bad = float(k_vals[~np.isfinite(k_vals)][0])
        raise InfiniteLogPartition(f"log-partition value is {bad!r}")
    return a - k_vals[:, None], k_vals


@dataclass(frozen=True, eq=False)
class GibbsResult:
    """A tilted measure together with its normalization bookkeeping.

    Invariant: ``free_energy * (-lam) == log_partition`` within 1e-12
    (relative to the magnitude of the log-partition value).
    """

    measure: Measure
    log_partition: float
    free_energy: float
    lam: float

    def __post_init__(self) -> None:
        if not self.measure.is_probability:
            raise ValueError("a Gibbs measure must be a probability measure")
        resid = abs(self.free_energy * (-self.lam) - self.log_partition)
        if resid > 1e-12 * max(1.0, abs(self.log_partition)):
            raise ValueError(
                f"free energy {self.free_energy!r} inconsistent with "
                f"log-partition {self.log_partition!r} at lam={self.lam!r}"
            )


def gibbs_tilt(h: CostTable, q: Measure, lam: float, x_index: int) -> GibbsResult:
    """Tilt ``q`` by ``exp(-lam * h(x, .))`` and normalize.

    Works for probability and sigma-finite references alike and returns the
    result on ``q``'s support object.  Computed on log atoms,
    ``log g = log q - lam * h - log_partition``, so an atom too small for a
    float keeps its finite log.

    Raises
    ------
    InfiniteLogPartition
        if the normalization constant is not finite.
    """
    lam = _require_lambda(lam)
    h.require_matches(q)
    log_g, k_vals = _gibbs_rows(h.row(x_index)[None], q.log_density, lam, q.domain.base_mass)
    k_val = float(k_vals[0])
    return GibbsResult(
        measure=_derived(q, log_g[0], True),
        log_partition=k_val,
        free_energy=-k_val / lam,
        lam=lam,
    )


@dataclass(frozen=True)
class FreeEnergySplit:
    """The free energy evaluated three ways.

    ``via_reference`` is ``E_Q[h] - kl(Q, G)/lam`` (None when the reference
    is not a probability measure, flagged by ``reference_skipped``);
    ``via_gibbs`` is ``E_G[h] + kl(G, Q)/lam``; ``free_energy`` is the
    closed form ``-log_partition/lam``.  ``max_discrepancy`` is the largest
    absolute difference between the closed form and the evaluated sides.
    """

    free_energy: float
    via_reference: Optional[float]
    via_gibbs: float
    max_discrepancy: float
    reference_skipped: bool = field(default=False)


def free_energy_identities(
    g: GibbsResult, h: CostTable, q: Measure, x_index: int
) -> FreeEnergySplit:
    """Evaluate both divergence forms of the free energy and compare.

    The reference-side form needs ``E_Q[h]`` and is only defined when ``q``
    is a probability measure; otherwise that side is skipped and flagged,
    never raised.

    Raises
    ------
    InfiniteDivergence
        if a divergence entering an evaluated side is infinite.
    """
    h.require_matches(q)
    lam = g.lam
    fe = g.free_energy

    d_g_q = kl(g.measure, q)
    if math.isinf(d_g_q):
        raise InfiniteDivergence("kl(gibbs, reference) is infinite")
    via_gibbs = expectation(h.row(x_index), g.measure) + d_g_q / lam

    via_reference: Optional[float] = None
    skipped = True
    if q.is_probability:
        d_q_g = kl(q, g.measure)
        if math.isinf(d_q_g):
            raise InfiniteDivergence("kl(reference, gibbs) is infinite")
        via_reference = expectation(h.row(x_index), q) - d_q_g / lam
        skipped = False

    sides = [via_gibbs] if via_reference is None else [via_gibbs, via_reference]
    return FreeEnergySplit(
        free_energy=fe,
        via_reference=via_reference,
        via_gibbs=via_gibbs,
        max_discrepancy=max(abs(fe - s) for s in sides),
        reference_skipped=skipped,
    )


def variational_oracle(
    h: CostTable,
    q: FiniteMeasure,
    lam: float,
    x_index: int,
    iters: int = 800,
    seed: int = 0,
) -> FiniteMeasure:
    """Optimize ``E_P[h] + kl(P, Q)/lam`` by multiplicative weights.

    Starts from ``q`` normalized and takes exponentiated-gradient steps
    ``log p -= sign(lam) * (|lam|/2) * grad`` with ``grad = h + (log p -
    log q + 1)/lam``; each step halves the distance to the optimum ``G``.
    It stops once the first-order residual ``r = max grad - min grad`` over
    the atoms of Q is at most ``min(1e-10, 2e-10/|lam|)``.  As ``log(P/G) =
    lam * grad + const``, this certifies against every competitor at once
    that ``|objective - optimum| = kl(P, G)/|lam| <= r`` and, by Pinsker's
    inequality, ``TV(P, G) <= sqrt(|lam| * r / 2) <= 1e-5``.  The objective
    must also land within 1e-6 of the closed-form free energy.  If it does
    not, or ``iters`` steps leave ``r`` above the tolerance,
    :class:`~gibbsgap.errors.NonConvergence` is raised: the iterate is never
    silently returned as if optimal.  ``seed`` is kept for existing callers
    and no longer affects the result.  Finite-support references only.
    """
    if not isinstance(q, FiniteMeasure):
        raise RepresentationMismatch("the variational oracle works on finite supports")
    lam = _require_lambda(lam)
    h.require_matches(q)
    k_vals = _gibbs_rows(h.row(x_index)[None], q.log_density, lam, q.domain.base_mass)[1]
    free_energy = -float(k_vals[0]) / lam
    tol = min(1e-10, 2e-10 / abs(lam))

    live = q.log_density > -math.inf
    h_live = h.row(x_index)[live][None]  # one row on the atoms of Q
    log_qa = q.log_density[live][None]
    log_p = log_qa - _logsumexp(log_qa)
    steps = 0
    while True:
        grad = h_live + (log_p - log_qa + 1.0) / lam
        resid = float(np.max(grad) - np.min(grad))
        if resid <= tol:
            break
        if steps >= iters:
            raise NonConvergence(f"residual {resid!r} > {tol!r} after {steps} iterations")
        log_p -= 0.5 * lam * grad
        log_p -= _logsumexp(log_p)
        steps += 1

    p = np.exp(log_p)  # the objective E_P[h] + kl(P, Q)/lam
    value = _mean_rows(h_live, p)[0] + _kl_rows(p, log_p, log_qa)[0] / lam
    if abs(value - free_energy) > 1e-6:
        raise NonConvergence(
            f"objective {value!r} is not within 1e-6 of the free energy {free_energy!r} "
            f"after {steps} iterations"
        )
    log_full = np.full(live.shape, -math.inf)
    log_full[live] = log_p[0]
    return _derived(q, log_full, True)
