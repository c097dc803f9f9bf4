"""Kullback-Leibler divergence, entropies, and the two information measures.

All quantities are in nats.  The divergence of a probability measure P from
a reference Q in the same representation is

    kl(P, Q) = sum_i  P_i * (log p_i - log q_i)

over the atoms, where ``log p_i`` and ``log q_i`` are the log atoms of the
two measures, with ``0 * log(0/q) := 0`` and ``p * log(p/0) := +inf``; an
atom is null only when its log atom is ``-inf``.  Q
may be any sigma-finite measure, not just a probability; against a
non-probability reference the value can be negative, which is a feature:
``shannon_entropy(P) == -kl(P, counting measure on supp P)`` holds exactly.

``+inf`` is an ordinary return value (absolute continuity failed), never an
exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonProbabilityMeasure
from .measures import (
    ConditionalFamily,
    FiniteMeasure,
    GridDensity,
    Measure,
    _average,
    _live_rows,
    _mean_rows,
    atom_masses,
    marginal_y,
    require_same_representation,
)

__all__ = [
    "kl",
    "shannon_entropy",
    "differential_entropy",
    "conditional_entropy",
    "mutual_information",
    "lautum_information",
    "InfoSummary",
    "info_summary",
]


def kl(p: Measure, q: Measure) -> float:
    """Divergence of the probability ``p`` from the reference ``q``, in nats.

    Returns ``+inf`` when ``p`` is not absolutely continuous with respect to
    ``q``.  ``q`` need not be a probability measure; the result may then be
    negative.

    Raises
    ------
    NonProbabilityMeasure
        if ``p`` is not a probability measure.
    RepresentationMismatch
        if the two measures use different supports/grids.
    """
    require_same_representation(p, q)
    if not p.is_probability:
        raise NonProbabilityMeasure("kl(p, q) requires p to be a probability")
    return _kl_rows(atom_masses(p)[None], p.log_density[None], q.log_density[None])[0]


def _kl_rows(mass: np.ndarray, log_p: np.ndarray, log_q) -> list[float]:
    """The one divergence sum: the expectation of ``log p - log q`` under ``mass``, per row.

    With ``mass`` the atom masses of ``p`` a row is ``kl(p, q)``, ``+inf``
    where ``q`` is null on an atom where ``p`` is not, or where the sum is past
    the largest float (``+inf``, or NaN from :func:`_mean_rows`).  Such a sum
    is positive: no log atom is above about 745, so only a positive term can
    be that large.

    The inputs are only read.  The kernel owns one matrix, of the broadcast
    shape: it holds ``log p - log q``, and then, written by :func:`_mean_rows`,
    the products with ``mass``, which the row sum adds into a matrix of half
    its width.
    """
    shape = np.broadcast(mass, log_p, log_q).shape
    with np.errstate(invalid="ignore"):  # -inf - -inf on atoms of neither law, never summed
        ratio = np.subtract(log_p, log_q, out=np.empty(shape))
    escaped = (ratio == math.inf).any(axis=-1).tolist()  # p has mass where q has none
    return [math.inf if e or math.isnan(s) else s
            for s, e in zip(_mean_rows(ratio, mass, work=ratio), escaped, strict=True)]


def _entropy(p: Measure) -> float:
    """``-kl(p, base measure)``: minus the sum of atom masses times log atoms."""
    if not p.is_probability:
        raise NonProbabilityMeasure("entropy requires a probability measure")
    return -_kl_rows(atom_masses(p)[None], p.log_density[None], 0.0)[0]


def shannon_entropy(p: FiniteMeasure) -> float:
    """Entropy ``-sum_i p_i log p_i`` of a finite probability measure, nats.

    Equal, exactly, to ``-kl(p, counting_measure(p.support))``.
    """
    return _entropy(p)


def differential_entropy(p: GridDensity) -> float:
    """Midpoint-rule differential entropy ``-sum_i v_i log(v_i) * width``.

    Equal, exactly, to ``-kl(p, lebesgue_grid(p.lo, p.hi, p.n_cells))``.
    """
    return _entropy(p)


def _members(cond: ConditionalFamily, p_x: FiniteMeasure, what: str):
    """The X-mass weights and the members carrying them, stacked, once ``p_x`` may average them."""
    if not p_x.is_probability:
        raise NonProbabilityMeasure(f"{what} needs a probability X-marginal")
    _, weights, (members,) = _live_rows(p_x, cond)
    return weights, members


def conditional_entropy(cond: ConditionalFamily, p_x: FiniteMeasure) -> float:
    """Average member entropy ``sum_x p_x(x) * H(cond[x])``.

    Shannon or differential entropy according to the family's
    Y-representation.  Members at zero-mass conditioning points are skipped.
    """
    w, m = _members(cond, p_x, "conditional entropy")
    return _average(w, [-v for v in _kl_rows(m.mass, m.log, 0.0)])


def _mutual(w, m, p_y: Measure) -> float:
    return _average(w, _kl_rows(m.mass, m.log, p_y.log_density))


def _lautum(w, m, p_y: Measure) -> float:
    return _average(w, _kl_rows(atom_masses(p_y), p_y.log_density, m.log))


def mutual_information(cond: ConditionalFamily, p_x: FiniteMeasure) -> float:
    """``I = sum_x p_x(x) * kl(cond[x], marginal)`` in nats; always >= 0.

    Finite whenever ``p_x`` has mass only on well-defined members (each
    member is automatically absolutely continuous with respect to the
    mixture it enters with positive coefficient).
    """
    return _mutual(*_members(cond, p_x, "mutual information"), marginal_y(cond, p_x))


def lautum_information(cond: ConditionalFamily, p_x: FiniteMeasure) -> float:
    """``L = sum_x p_x(x) * kl(marginal, cond[x])`` in nats.

    The reversed-order companion of mutual information; ``+inf`` as soon as
    the marginal escapes the support of a member carrying X-mass.
    """
    return _lautum(*_members(cond, p_x, "lautum information"), marginal_y(cond, p_x))


@dataclass(frozen=True)
class InfoSummary:
    """Information content of a conditional family against its own marginal.

    ``cond_entropy_1`` is the entropy of the mixture marginal (the
    conditional entropy of the constant family sitting at the marginal);
    ``cond_entropy_2`` is the conditional entropy of the family itself.
    Their difference is the mutual information whenever everything is
    finite and the family is finite-support.
    """

    mutual: float
    lautum: float
    cond_entropy_1: float
    cond_entropy_2: float

    def __post_init__(self) -> None:
        for name in ("mutual", "lautum"):
            v = getattr(self, name)
            if math.isfinite(v) and v < -1e-12:
                raise ValueError(f"{name} information must be nonnegative, got {v!r}")


def info_summary(cond: ConditionalFamily, p_x: FiniteMeasure) -> InfoSummary:
    """Bundle mutual/lautum information with the two conditional entropies.

    The Y-marginal is built once and shared by the three terms that need it.
    """
    p_y = marginal_y(cond, p_x)
    w, m = _members(cond, p_x, "mutual information")
    return InfoSummary(
        mutual=_mutual(w, m, p_y),
        lautum=_lautum(w, m, p_y),
        cond_entropy_1=_entropy(p_y),
        cond_entropy_2=conditional_entropy(cond, p_x),
    )
