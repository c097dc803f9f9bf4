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
    atom_masses,
    marginal_y,
    require_aligned,
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
    lp, lq = p.log_density, q.log_density
    live = lp > -math.inf
    if np.any(lq[live] == -math.inf):
        return math.inf
    return math.fsum(atom_masses(p)[live] * (lp[live] - lq[live]))


def _entropy(p: Measure) -> float:
    """``-sum_i m_i log d_i`` over atom masses ``m`` and log atoms ``log d``."""
    if not p.is_probability:
        raise NonProbabilityMeasure("entropy requires a probability measure")
    ld = p.log_density
    live = ld > -math.inf
    return -math.fsum(atom_masses(p)[live] * ld[live])


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


def conditional_entropy(cond: ConditionalFamily, p_x: FiniteMeasure) -> float:
    """Average member entropy ``sum_x p_x(x) * H(cond[x])``.

    Shannon or differential entropy according to the family's
    Y-representation.  Members at zero-mass conditioning points are skipped.
    """
    if not p_x.is_probability:
        raise NonProbabilityMeasure("conditional entropy needs a probability X-marginal")
    require_aligned(p_x, cond)
    w = p_x.weights
    return math.fsum(
        w[k] * _entropy(cond.members[k]) for k in range(cond.n_x) if w[k] > 0
    )


def mutual_information(cond: ConditionalFamily, p_x: FiniteMeasure) -> float:
    """``I = sum_x p_x(x) * kl(cond[x], marginal)`` in nats; always >= 0.

    Finite whenever ``p_x`` has mass only on well-defined members (each
    member is automatically absolutely continuous with respect to the
    mixture it enters with positive coefficient).
    """
    if not p_x.is_probability:
        raise NonProbabilityMeasure("mutual information needs a probability X-marginal")
    require_aligned(p_x, cond)
    p_y = marginal_y(cond, p_x)
    w = p_x.weights
    parts = [w[k] * kl(cond.members[k], p_y) for k in range(cond.n_x) if w[k] > 0]
    if any(math.isinf(t) for t in parts):
        return math.inf
    return math.fsum(parts)


def lautum_information(cond: ConditionalFamily, p_x: FiniteMeasure) -> float:
    """``L = sum_x p_x(x) * kl(marginal, cond[x])`` in nats.

    The reversed-order companion of mutual information; ``+inf`` as soon as
    the marginal escapes the support of a member carrying X-mass.
    """
    if not p_x.is_probability:
        raise NonProbabilityMeasure("lautum information needs a probability X-marginal")
    require_aligned(p_x, cond)
    p_y = marginal_y(cond, p_x)
    w = p_x.weights
    parts = [w[k] * kl(p_y, cond.members[k]) for k in range(cond.n_x) if w[k] > 0]
    if any(math.isinf(t) for t in parts):
        return math.inf
    return math.fsum(parts)


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
    """Bundle mutual/lautum information with the two conditional entropies."""
    p_y = marginal_y(cond, p_x)
    return InfoSummary(
        mutual=mutual_information(cond, p_x),
        lautum=lautum_information(cond, p_x),
        cond_entropy_1=_entropy(p_y),
        cond_entropy_2=conditional_entropy(cond, p_x),
    )
