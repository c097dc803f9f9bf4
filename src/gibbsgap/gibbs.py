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
numerically and serves as an independent check of the closed form.  It
steps on the reference's atom masses, so one path serves every
:class:`~gibbsgap.measures.Measure`: a grid is its point twin, whose
masses are density times cell width.

Every Gibbs measure here, in this module and in :mod:`gibbsgap.gaps`, comes
from one tilt helper, ``_gibbs_tilts``: the cost rows at the tilts, against
one reference row or one per cost row, by one batched log-sum-exp, with the
log-partition value or its :class:`~gibbsgap.errors.InfiniteLogPartition`
per row.  A tilt is checked once, where it enters: in each public function
that takes one, or in the scenario loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import (
    GibbsGapError,
    IndexMismatch,
    InfiniteDivergence,
    InfiniteLogPartition,
    NonConvergence,
    NonFiniteValue,
    RepresentationMismatch,
)
from .measures import (
    GridSupport,
    Measure,
    PointSupport,
    _atom_masses,
    _derived,
    _freeze,
    _logsumexp,
    _mean_rows,
    _point_support,
    _row,
    _Rows,
    atom_masses,
    require_same_representation,
)
from .divergences import _kl_rows

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
    """``lam`` as a float, once it is a legal tilt.  Each public one-tilt function checks its
    tilt here, before any other check, and the scenario loader checks against the same bound;
    the kernels take tilts that have passed."""
    lam = float(lam)
    if not math.isfinite(lam) or abs(lam) < MIN_ABS_LAMBDA:
        raise ValueError(f"tilt parameter must satisfy |lam| >= {MIN_ABS_LAMBDA:g}, got {lam!r}")
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

    Max-shifted log-sum-exp, so no exponential overflows.  The value is
    extended-real: ``+inf`` when ``t * h`` overflows to ``+inf`` on an atom
    of Q, ``-inf`` when it overflows to ``-inf`` on every atom of Q.

    Raises
    ------
    ValueError
        if ``t`` is not finite.
    RepresentationMismatch
        if ``q`` does not live on ``h``'s Y-support.
    IndexMismatch
        if ``x_index`` is not a row of ``h``.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"tilt t must be finite, got {t!r}")
    h.require_matches(q)
    _, k_val = _tilt_rows(h.row(x_index)[None], q.log_density, t, q.domain.base_mass)
    return float(k_val[0])


def _tilt_rows(h_rows: np.ndarray, log_ref, t: float, base_mass: float):
    """``t * h + log ref``, built in place in the one array ``t * h``, and the log-partition value
    of each row, by one batched log-sum-exp, whose one temporary is the only other matrix
    written; :func:`log_partition` is its one-row case."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing tilt is a legal +inf
        a = t * h_rows  # the broadcast shape, as log_ref has no more rows than h_rows
        a += log_ref
    a[np.isnan(a)] = -math.inf  # a null atom stays null, however large t * h is there
    return a, _logsumexp(a, axis=-1) + math.log(base_mass)


def _gibbs_tilts(h_rows: np.ndarray, ref: _Rows, lams: list):
    """The one tilt helper: the Gibbs tilts of each cost row of ``h_rows`` at each of ``lams``,
    stacked by one :func:`_tilt_rows` call.  ``ref`` holds one reference row for all cost rows
    or one per cost row.  Returns their log atoms, one row per cost row and tilt (cost row by
    cost row, each at every tilt), normalised in place in the array :func:`_tilt_rows` built,
    and per row the log-partition value or the :class:`InfiniteLogPartition` raised there.  The
    row of a tilt that raises holds no tilt.  Each row holds the bits of a one-row call alone."""
    a, k_vals = _tilt_rows(h_rows[:, None], ref.log[:, None], -np.array(lams)[:, None],
                           ref.domain.base_mass)
    a, k_vals = a.reshape(-1, a.shape[-1]), k_vals.reshape(-1)
    finite = np.isfinite(k_vals)
    with np.errstate(over="ignore"):  # an atom that far below the log-partition value is null
        np.subtract(a, np.where(finite, k_vals, 0.0)[:, None], out=a)
    return a, [k if ok else InfiniteLogPartition(f"log-partition value is {k!r}")
               for k, ok in zip(k_vals.tolist(), finite.tolist())]


def _cost_tilts(h: CostTable, q: Measure, lams: list, x_indices):
    """The cost rows at ``x_indices``, one per check, each validated by :meth:`CostTable.row`
    once ``q`` lives on ``h``'s Y-support, and their :func:`_gibbs_tilts` of ``q`` at ``lams``."""
    h.require_matches(q)
    h_rows = np.array([h.row(x_index) for x_index in x_indices])
    return (h_rows, *_gibbs_tilts(h_rows, _row(q), lams))


def _by_check(outcomes: list, n_checks: int, n_tilts: int) -> list:
    """The outcomes of (check, tilt) rows, check by check, as one list of tilts per check."""
    return [outcomes[c * n_tilts:(c + 1) * n_tilts] for c in range(n_checks)]


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
        lam = _require_lambda(self.lam)
        if abs(self.free_energy * -lam - self.log_partition) > 1e-12 * max(1.0, abs(self.log_partition)):
            raise ValueError(
                f"free energy {self.free_energy!r} inconsistent with "
                f"log-partition {self.log_partition!r} at lam={lam!r}"
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
    _, log_g, k_vals = _cost_tilts(h, q, [lam], [x_index])
    k_val = _one_tilt(k_vals)
    return GibbsResult(
        measure=_derived(q.domain, True, log_density=_freeze(log_g[0])),
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
    never raised.  This is the one-check, one-tilt case of the scenario
    runner's kernel, which evaluates every free-energy check of a scenario
    at all its tilts in one pass.

    Raises
    ------
    InfiniteDivergence
        if a divergence entering an evaluated side is infinite.
    NonFiniteValue
        if ``E_G[h]`` or ``E_Q[h]`` is past the largest float.
    """
    h.require_matches(q)
    require_same_representation(g.measure, q)
    return _one_tilt(_splits(q, h.row(x_index)[None], [0], atom_masses(g.measure)[None],
                             g.measure.log_density[None], [g.lam], [g.free_energy]))


def _splits(q: Measure, h_rows: np.ndarray, row_check, mass_g, log_g, lams,
            free_energies) -> list:
    """The :class:`FreeEnergySplit` of each row ``k`` of ``log_g``, a tilt of ``q`` at ``lams[k]``
    of the cost row ``h_rows[row_check[k]]``, with atom masses ``mass_g[k]`` and free energy
    ``free_energies[k]``, or the :class:`InfiniteDivergence` raised there, or the
    :class:`NonFiniteValue` of an expectation past the largest float.  Each divergence and
    ``E_G[h]`` is one sum over the rows, and ``E_Q[h]`` one sum over the cost rows."""
    d_g_q = _kl_rows(mass_g, log_g, q.log_density[None])
    mean_g = _mean_rows(h_rows[row_check], mass_g)
    d_q_g, mean_q = [None] * len(d_g_q), [0.0] * len(h_rows)
    if q.is_probability:  # the reference side, skipped otherwise
        d_q_g = _kl_rows(atom_masses(q)[None], q.log_density[None], log_g)
        mean_q = _mean_rows(h_rows, atom_masses(q)[None])
    out: list = []
    for k, (d_gq, mean, d_qg) in enumerate(zip(d_g_q, mean_g, d_q_g, strict=True)):
        if math.isinf(d_gq):
            out.append(InfiniteDivergence("kl(gibbs, reference) is infinite"))
        elif d_qg is not None and math.isinf(d_qg):
            out.append(InfiniteDivergence("kl(reference, gibbs) is infinite"))
        elif not (math.isfinite(mean) and math.isfinite(mean_q[row_check[k]])):
            out.append(NonFiniteValue("expectation overflows a float"))  # E_G[h] or E_Q[h]
        else:
            via_gibbs = mean + d_gq / lams[k]
            via_reference = None if d_qg is None else mean_q[row_check[k]] - d_qg / lams[k]
            sides = [via_gibbs] if via_reference is None else [via_gibbs, via_reference]
            out.append(FreeEnergySplit(
                free_energy=free_energies[k],
                via_reference=via_reference,
                via_gibbs=via_gibbs,
                max_discrepancy=max(abs(free_energies[k] - s) for s in sides),
                reference_skipped=via_reference is None,
            ))
    return out


def _free_energy_rows(h: CostTable, q: Measure, lams, x_indices) -> list:
    """:func:`free_energy_identities` of :func:`gibbs_tilt` for every check, at cost row
    ``x_indices[c]``, and every tilt of ``lams``: per check, per tilt, the split and the
    log-partition value, or the error raised at that tilt.

    One :func:`_gibbs_tilts` call tilts every check's cost row at every tilt, and
    :func:`_splits` sums over the stacked (check, tilt) rows, so no measure is built.
    """
    h_rows, log_g, out = _cost_tilts(h, q, lams, x_indices)
    ok = [k for k, v in enumerate(out) if not isinstance(v, GibbsGapError)]
    log_g, row_lams = log_g[ok], [lams[k % len(lams)] for k in ok]
    splits = _splits(q, h_rows, [k // len(lams) for k in ok], _atom_masses(np.exp(log_g), q.domain),
                     log_g, row_lams, [-out[k] / lam for k, lam in zip(ok, row_lams)])
    for k, split in zip(ok, splits, strict=True):
        out[k] = split if isinstance(split, GibbsGapError) else (split, out[k])
    return _by_check(out, len(h_rows), len(lams))


def _one_tilt(outcomes: list):
    """The first outcome of a kernel called at a single tilt, once none is an error: the first
    error raises."""
    for outcome in outcomes:
        if isinstance(outcome, GibbsGapError):
            raise outcome
    return outcomes[0]


class _OracleRow(NamedTuple):
    """A certified oracle row: the iterate's and the Gibbs tilt's log atoms on Q's support,
    the objective ``E_P[h] + kl(P, Q)/lam``, the closed-form free energy and the total
    variation between the iterate and the Gibbs tilt."""

    log_p: np.ndarray
    log_g: np.ndarray
    objective: float
    free_energy: float
    total_variation: float


#: Past this step, every 8 steps, the oracle checks whether a step left a row's
#: iterate unchanged, bit for bit; such a row would repeat that state to its last
#: step.  A row that certifies halves its distance to the optimum on each step
#: and most stop within about 50, before the check starts.
_STALL_AFTER = 64


def _normalize_rows(log_p: np.ndarray) -> None:
    """Subtract from each row of ``log_p``, in place, its :func:`_logsumexp`."""
    log_p -= _logsumexp(log_p, axis=-1, keepdims=True)


def _oracle_rows(h: CostTable, q: Measure, lams, x_indices, iters) -> list:
    """The variational oracle of every check at every tilt of ``lams``: check ``c`` at cost
    row ``x_indices[c]`` with at most ``iters[c]`` steps.  One row per check and tilt, all
    stepped in lockstep.

    The rows step on atom masses, Q's log atoms plus the log of its support's base mass, and
    the total variation sums them, so one path serves every :class:`Measure`: a grid is its
    point twin, whose masses are density times cell width.  A row's log atoms are its log
    masses less that log base mass.

    One :func:`_gibbs_tilts` call tilts every check's cost row at every tilt;
    the rows then step together, each frozen at its own certificate or stopped
    with its own error after its own ``iters``.  Row ``(c, k)`` does the
    arithmetic of a call of check ``c`` at ``lams[k]`` alone, so it holds the
    same bits.  A step that overflows leaves a row that cannot certify; it is
    reported as that row's :class:`NonConvergence`, not warned.  A row whose
    step leaves its iterate unchanged, bit for bit, would repeat that state to
    its last step, so it ends at once with the :class:`NonConvergence` it would
    reach there.  A step normalises by :func:`_normalize_rows`, and the loop ends
    as soon as no row is left.  Returns,
    per check, per tilt, an :class:`_OracleRow` or the
    :class:`InfiniteLogPartition`, :class:`NonConvergence` or
    :class:`NonFiniteValue` (an ``E_P[h]`` past the largest float) raised there.
    """
    h_rows, log_g, k_vals = _cost_tilts(h, q, lams, x_indices)
    log_w = math.log(q.domain.base_mass)
    n_t = len(lams)
    col = np.array(lams * len(h_rows))[:, None]  # the tilt of each (check, tilt) row
    tol = np.minimum(1e-10, 2e-10 / np.abs(col[:, 0]))
    cap = [n for n in iters for _ in lams]  # the iters of each row
    out: list = [k if isinstance(k, GibbsGapError) else None for k in k_vals]

    live = q.log_density > -math.inf
    h_live = h_rows[:, live]  # on the atoms of Q
    log_qa = q.log_density[live][None] + log_w  # Q's log atom masses
    rows = np.flatnonzero([row is None for row in out])  # the (check, tilt) of each row stepping
    log_p = np.repeat(log_qa - _logsumexp(log_qa), rows.size, axis=0)
    final, n_steps = np.empty((len(out), log_qa.shape[1])), [0] * len(out)
    row_h, lam, row_tol, row_cap = h_live[rows // n_t], col[rows], tol[rows], np.array(cap)[rows]
    half, grad = 0.5 * lam, np.empty_like(log_p)
    steps, first_cap = 0, min(cap, default=0)
    with np.errstate(all="ignore"):  # a step that overflows cannot certify
        while rows.size:
            np.subtract(log_p, log_qa, out=grad)  # row_h + (log_p - log_qa + 1.0) / lam, in place
            grad += 1.0
            grad /= lam
            grad += row_h
            resid = grad.max(axis=1) - grad.min(axis=1)
            done = resid <= row_tol
            stop = done | (steps >= row_cap) if steps >= first_cap else done
            if steps > _STALL_AFTER and steps % 8 == 1:  # the last step left the iterate as it was
                stop = stop | (log_p.view(np.int64) == before.view(np.int64)).all(axis=1)
            if stop.any():
                for i in np.flatnonzero(stop).tolist():
                    k = rows[i]
                    if done[i]:
                        final[k], n_steps[k] = log_p[i], steps
                    else:  # out of steps, or stalled: then its last step has this residual
                        out[k] = NonConvergence(f"residual {float(resid[i])!r} > {float(tol[k])!r} "
                                                f"after {max(steps, cap[k])} iterations")
                go = ~stop
                rows, row_h, lam, half, row_tol, row_cap, log_p, grad = (
                    a[go] for a in (rows, row_h, lam, half, row_tol, row_cap, log_p, grad))
                if not rows.size:
                    break
            if steps >= _STALL_AFTER and steps % 8 == 0:
                before = log_p.copy()
            grad *= half
            log_p -= grad
            _normalize_rows(log_p)
            steps += 1

    ok = [k for k, row in enumerate(out) if row is None]  # the certified rows
    log_p = final[ok]
    p = np.exp(log_p)  # the objective E_P[h] + kl(P, Q)/lam
    means = _mean_rows(h_live[[k // n_t for k in ok]], p)
    log_full = np.full((len(ok), live.size), -math.inf)  # on the full support
    log_full[:, live] = log_p
    tvs = 0.5 * np.abs(np.exp(log_full) - np.exp(log_g[ok] + log_w)).sum(axis=1)
    for k, mean, div, log_pk, tv in zip(ok, means, _kl_rows(p, log_p, log_qa), log_full - log_w,
                                        tvs.tolist(), strict=True):
        lam = lams[k % n_t]
        value, free_energy = mean + div / lam, -k_vals[k] / lam
        if not math.isfinite(mean):
            out[k] = NonFiniteValue("expectation overflows a float")
        elif not abs(value - free_energy) <= 1e-6:
            out[k] = NonConvergence(
                f"objective {value!r} is not within 1e-6 of the free energy {free_energy!r} "
                f"after {n_steps[k]} iterations")
        else:
            out[k] = _OracleRow(log_pk, log_g[k], value, free_energy, tv)
    return _by_check(out, len(h_rows), n_t)


def variational_oracle(
    h: CostTable,
    q: Measure,
    lam: float,
    x_index: int,
    iters: int = 800,
    seed: int = 0,
) -> Measure:
    """Optimize ``E_P[h] + kl(P, Q)/lam`` by multiplicative weights.

    ``q`` is any :class:`Measure`, read as its atom masses (density times
    cell width on a grid); the optimum is returned as a measure on ``q``'s
    support object, a :class:`GridDensity` on a grid.  Starts from ``q``
    normalized and takes exponentiated-gradient steps ``log p -= sign(lam)
    * (|lam|/2) * grad`` with ``grad = h + (log p - log q + 1)/lam``, ``p``
    and ``q`` atom masses; each step halves the distance to the optimum ``G``.
    It stops once the first-order residual ``r = max grad - min grad`` over
    the atoms of Q is at most ``min(1e-10, 2e-10/|lam|)``.  As ``log(P/G) =
    lam * grad + const``, this certifies against every competitor at once
    that ``|objective - optimum| = kl(P, G)/|lam| <= r`` and, by Pinsker's
    inequality, ``TV(P, G) <= sqrt(|lam| * r / 2) <= 1e-5``.  The objective
    must also land within 1e-6 of the closed-form free energy.  If it does
    not, or ``iters`` steps leave ``r`` above the tolerance,
    :class:`~gibbsgap.errors.NonConvergence` is raised: the iterate is never
    silently returned as if optimal.  A certified iterate whose ``E_P[h]``
    sums past the largest float raises
    :class:`~gibbsgap.errors.NonFiniteValue`, as ``free_energy_identities``
    does for ``E_G[h]``.  Where a step leaves the iterate
    unchanged bit for bit (the residual of a large ``|lam|`` can stop above
    a tolerance finer than its rounding), every later step repeats it, so
    the oracle stops there and raises the
    :class:`~gibbsgap.errors.NonConvergence` of ``iters`` steps at once:
    the same residual and message.  It looks for such a state every 8 steps
    past step 64, where most rows that certify have stopped.  ``seed`` is kept for existing callers
    and no longer affects the result.  An ``iters`` that is negative, a bool
    or not an integer raises :class:`ValueError`.  This is the one-check,
    one-tilt case of the scenario runner's oracle, which steps every oracle
    check of a scenario at all its tilts as rows of one loop.
    """
    lam = _require_lambda(lam)
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
        raise ValueError(f"iters must be a nonnegative integer, got {iters!r}")
    row = _one_tilt(_oracle_rows(h, q, [lam], [x_index], [iters])[0])
    return _derived(q.domain, True, log_density=_freeze(row.log_p))
