"""Expectation gaps between two laws, decomposed exactly into divergences.

The *gap* between two probability measures under a cost ``h`` at a
conditioning point ``x`` is

    gap(P1, P2) = E_{P1}[h(x, .)] - E_{P2}[h(x, .)].

Every closed form below rewrites this difference as a signed combination of
Kullback-Leibler divergences involving a Gibbs tilting of some reference
measure, scaled by ``1/lam``:

* common reference Q:
  ``lam * gap = kl(P1, G) - kl(P2, G) + kl(P2, Q) - kl(P1, Q)``
  where ``G`` is ``Q`` tilted by ``exp(-lam h)``;
* one law as the reference (``Q = P2`` or ``Q = P1``): one divergence
  collapses to zero and the four terms reduce to three;
* a strict mixture ``alpha P1 + (1-alpha) P2`` as reference: always a
  legal common reference, even for mutually singular inputs;
* marginal-vs-conditional (averaged over an X-marginal):
  ``lam * gap = mutual + lautum + cross_marginal - cross_conditional``
  where the cross terms integrate ``log(dP_{Y|X}/dG_x)`` against the
  product law and the joint law respectively — both vanish identically
  when the conditional family *is* the Gibbs family.

Each decomposition is returned with every term stored, so a caller can
audit the arithmetic; ``discrepancy = |direct - closed_form|`` is computed
from the stored fields.  Aggregations over conditioning points use
compensated summation, making reported totals independent of summation
order to tight tolerance.

Infinities never silently cancel: absolute-continuity hypotheses are
checked up front and violations raise, rather than producing ``inf - inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    IndexMismatch,
    InfiniteDivergence,
    MutualContinuityViolated,
    NonFiniteExpectation,
    NotAbsolutelyContinuous,
)
from .divergences import kl, lautum_information, mutual_information
from .gibbs import CostTable, _require_lambda, gibbs_tilt
from .measures import (
    ConditionalFamily,
    FiniteMeasure,
    Measure,
    absolutely_continuous,
    atom_masses,
    expectation,
    marginal_y,
    mix,
    require_aligned,
    require_same_representation,
)

__all__ = [
    "GapDecomposition",
    "gap_direct",
    "gap_closed_form",
    "gap_closed_form_relative",
    "gap_mixture_reference",
    "expected_gap_direct",
    "expected_gap_closed_form",
    "expected_gap_relative",
    "marginal_gap",
    "gibbs_marginal_gap",
]


@dataclass(frozen=True)
class GapDecomposition:
    """A gap evaluated directly and through a divergence identity.

    ``terms`` maps term names to their values; ``reference_tag`` records
    which reference convention produced the closed form (``explicit``,
    ``P2-as-reference``, ``P1-as-reference`` or ``mixture(alpha)``);
    ``discrepancy`` is ``|direct - closed_form|``, derived, not supplied.
    """

    direct: float
    closed_form: float
    terms: Mapping[str, float]
    lam: float
    reference_tag: str
    discrepancy: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.direct) and math.isfinite(self.closed_form)):
            raise InfiniteDivergence(
                "a gap decomposition requires finite direct and closed-form values"
            )
        object.__setattr__(self, "terms", dict(self.terms))
        object.__setattr__(self, "discrepancy", abs(self.direct - self.closed_form))


def _check_ac(p: Measure, q: Measure, what: str) -> None:
    if not absolutely_continuous(p, q):
        raise NotAbsolutelyContinuous(what)


# ---------------------------------------------------------------------------
# single conditioning point


def gap_direct(h: CostTable, x_index: int, p1: Measure, p2: Measure) -> float:
    """``E_{p1}[h(x, .)] - E_{p2}[h(x, .)]`` by compensated summation.

    Exactly antisymmetric in ``(p1, p2)``.
    """
    require_same_representation(p1, p2)
    h.require_matches(p1)
    row = h.row(x_index)
    value = expectation(row, p1) - expectation(row, p2)
    if not math.isfinite(value):
        raise NonFiniteExpectation(f"gap evaluated to {value!r}")
    return value


def gap_closed_form(
    h: CostTable,
    x_index: int,
    p1: Measure,
    p2: Measure,
    q: Measure,
    lam: float,
) -> GapDecomposition:
    """Four-divergence decomposition against an explicit common reference.

    Requires ``p1 << q`` and ``p2 << q``; the reference may be any
    sigma-finite measure in the same representation.
    """
    lam = _require_lambda(lam)
    require_same_representation(p1, p2)
    _check_ac(p1, q, "p1 is not absolutely continuous w.r.t. the reference")
    _check_ac(p2, q, "p2 is not absolutely continuous w.r.t. the reference")
    g = gibbs_tilt(h, q, lam, x_index).measure
    terms = {
        "kl_p1_gibbs": kl(p1, g),
        "kl_p2_gibbs": kl(p2, g),
        "kl_p1_reference": kl(p1, q),
        "kl_p2_reference": kl(p2, q),
    }
    closed = (
        terms["kl_p1_gibbs"]
        - terms["kl_p2_gibbs"]
        + terms["kl_p2_reference"]
        - terms["kl_p1_reference"]
    ) / lam
    return GapDecomposition(
        direct=gap_direct(h, x_index, p1, p2),
        closed_form=closed,
        terms=terms,
        lam=lam,
        reference_tag="explicit",
    )


def gap_closed_form_relative(
    h: CostTable,
    x_index: int,
    p1: Measure,
    p2: Measure,
    direction: str,
    lam: float,
) -> GapDecomposition:
    """Three-divergence decomposition using one of the laws as reference.

    ``direction="P2-ref"`` tilts ``p2`` and requires ``p1 << p2``:
    ``lam * gap = kl(p1, G) - kl(p2, G) - kl(p1, p2)``.
    ``direction="P1-ref"`` tilts ``p1`` and requires ``p2 << p1``:
    ``lam * gap = kl(p1, G) - kl(p2, G) + kl(p2, p1)``.

    Only the stated one-sided absolute continuity is needed; the opposite
    direction may legitimately fail for the same pair.
    """
    lam = _require_lambda(lam)
    require_same_representation(p1, p2)
    if direction == "P2-ref":
        _check_ac(p1, p2, "P2-ref direction requires p1 << p2")
        g = gibbs_tilt(h, p2, lam, x_index).measure
        terms = {
            "kl_p1_gibbs": kl(p1, g),
            "kl_p2_gibbs": kl(p2, g),
            "kl_p1_p2": kl(p1, p2),
        }
        closed = (terms["kl_p1_gibbs"] - terms["kl_p2_gibbs"] - terms["kl_p1_p2"]) / lam
        tag = "P2-as-reference"
    elif direction == "P1-ref":
        _check_ac(p2, p1, "P1-ref direction requires p2 << p1")
        g = gibbs_tilt(h, p1, lam, x_index).measure
        terms = {
            "kl_p1_gibbs": kl(p1, g),
            "kl_p2_gibbs": kl(p2, g),
            "kl_p2_p1": kl(p2, p1),
        }
        closed = (terms["kl_p1_gibbs"] - terms["kl_p2_gibbs"] + terms["kl_p2_p1"]) / lam
        tag = "P1-as-reference"
    else:
        raise ValueError(f"direction must be 'P2-ref' or 'P1-ref', got {direction!r}")
    return GapDecomposition(
        direct=gap_direct(h, x_index, p1, p2),
        closed_form=closed,
        terms=terms,
        lam=lam,
        reference_tag=tag,
    )


def gap_mixture_reference(
    h: CostTable,
    x_index: int,
    p1: Measure,
    p2: Measure,
    alpha: float,
    lam: float,
) -> GapDecomposition:
    """Four-divergence decomposition against ``alpha p1 + (1-alpha) p2``.

    A strict mixture dominates both ingredients, so this works even when
    ``p1`` and ``p2`` are mutually singular.
    """
    lam = _require_lambda(lam)
    q = mix(p1, p2, alpha)
    dec = gap_closed_form(h, x_index, p1, p2, q, lam)
    return GapDecomposition(
        direct=dec.direct,
        closed_form=dec.closed_form,
        terms=dec.terms,
        lam=lam,
        reference_tag=f"mixture({alpha:g})",
    )


# ---------------------------------------------------------------------------
# averaged over an X-marginal


def _aligned_pair(
    h: CostTable,
    cond1: ConditionalFamily,
    cond2: ConditionalFamily,
    p_x: FiniteMeasure,
) -> None:
    require_aligned(p_x, cond1)
    require_aligned(p_x, cond2)
    if h.x_points != cond1.x_points:
        raise IndexMismatch(
            "the cost table's conditioning points must equal the families'"
        )


def expected_gap_direct(
    h: CostTable,
    cond1: ConditionalFamily,
    cond2: ConditionalFamily,
    p_x: FiniteMeasure,
) -> float:
    """``sum_x p_x(x) * gap_direct(h, x, cond1[x], cond2[x])``."""
    _aligned_pair(h, cond1, cond2, p_x)
    w = p_x.weights
    parts = [
        w[k] * gap_direct(h, k, cond1[k], cond2[k])
        for k in range(cond1.n_x)
        if w[k] > 0
    ]
    return math.fsum(parts)


def expected_gap_closed_form(
    h: CostTable,
    cond1: ConditionalFamily,
    cond2: ConditionalFamily,
    p_x: FiniteMeasure,
    q: Measure,
    lam: float,
) -> GapDecomposition:
    """Averaged four-divergence decomposition with one shared reference.

    Every family member carrying X-mass must be absolutely continuous with
    respect to ``q``; the aggregated terms are the p_x-weighted sums of the
    per-point divergences, accumulated by compensated summation.
    """
    lam = _require_lambda(lam)
    _aligned_pair(h, cond1, cond2, p_x)
    w = p_x.weights
    live = [k for k in range(cond1.n_x) if w[k] > 0]
    for k in live:
        _check_ac(cond1[k], q, f"cond1 member {k} is not absolutely continuous w.r.t. q")
        _check_ac(cond2[k], q, f"cond2 member {k} is not absolutely continuous w.r.t. q")
    rows: dict[str, list[float]] = {
        "kl_p1_gibbs": [],
        "kl_p2_gibbs": [],
        "kl_p1_reference": [],
        "kl_p2_reference": [],
    }
    for k in live:
        g = gibbs_tilt(h, q, lam, k).measure
        rows["kl_p1_gibbs"].append(w[k] * kl(cond1[k], g))
        rows["kl_p2_gibbs"].append(w[k] * kl(cond2[k], g))
        rows["kl_p1_reference"].append(w[k] * kl(cond1[k], q))
        rows["kl_p2_reference"].append(w[k] * kl(cond2[k], q))
    terms = {name: math.fsum(vals) for name, vals in rows.items()}
    closed = (
        terms["kl_p1_gibbs"]
        - terms["kl_p2_gibbs"]
        + terms["kl_p2_reference"]
        - terms["kl_p1_reference"]
    ) / lam
    return GapDecomposition(
        direct=expected_gap_direct(h, cond1, cond2, p_x),
        closed_form=closed,
        terms=terms,
        lam=lam,
        reference_tag="explicit",
    )


def expected_gap_relative(
    h: CostTable,
    cond1: ConditionalFamily,
    cond2: ConditionalFamily,
    p_x: FiniteMeasure,
    direction: str,
    lam: float,
) -> GapDecomposition:
    """Averaged three-divergence decomposition with per-point references.

    At each conditioning point the reference is that point's own second
    (``direction="P2-ref"``) or first (``direction="P1-ref"``) member, so
    the reference varies with x.
    """
    lam = _require_lambda(lam)
    if direction not in ("P2-ref", "P1-ref"):
        raise ValueError(f"direction must be 'P2-ref' or 'P1-ref', got {direction!r}")
    _aligned_pair(h, cond1, cond2, p_x)
    w = p_x.weights
    live = [k for k in range(cond1.n_x) if w[k] > 0]
    cross_key = "kl_p1_p2" if direction == "P2-ref" else "kl_p2_p1"
    rows: dict[str, list[float]] = {"kl_p1_gibbs": [], "kl_p2_gibbs": [], cross_key: []}
    for k in live:
        dec = gap_closed_form_relative(h, k, cond1[k], cond2[k], direction, lam)
        for name in rows:
            rows[name].append(w[k] * dec.terms[name])
    terms = {name: math.fsum(vals) for name, vals in rows.items()}
    sign = -1.0 if direction == "P2-ref" else 1.0
    closed = (
        terms["kl_p1_gibbs"] - terms["kl_p2_gibbs"] + sign * terms[cross_key]
    ) / lam
    return GapDecomposition(
        direct=expected_gap_direct(h, cond1, cond2, p_x),
        closed_form=closed,
        terms=terms,
        lam=lam,
        reference_tag="P2-as-reference" if direction == "P2-ref" else "P1-as-reference",
    )


# ---------------------------------------------------------------------------
# marginal vs conditional


def _cross_terms(
    cond: ConditionalFamily,
    gibbs_members: list[Measure],
    p_y: Measure,
    p_x: FiniteMeasure,
) -> tuple[float, float]:
    """Product-law and joint-law integrals of ``log(d cond / d gibbs)``.

    Every member carrying X-mass must be mutually absolutely continuous with
    ``p_y`` and dominated by its Gibbs member, so that ``log m - log g`` is
    finite on the member's atoms and both integrals run over those atoms.
    """
    w = p_x.weights
    py_atoms = atom_masses(p_y)
    t_marginal: list[float] = []
    t_joint: list[float] = []
    for k in range(cond.n_x):
        if w[k] == 0:
            continue
        log_m = cond[k].log_density
        live = log_m > -math.inf
        log_ratio = log_m[live] - gibbs_members[k].log_density[live]
        t_marginal.append(w[k] * math.fsum(py_atoms[live] * log_ratio))
        t_joint.append(w[k] * math.fsum(atom_masses(cond[k])[live] * log_ratio))
    return math.fsum(t_marginal), math.fsum(t_joint)


def marginal_gap(
    h: CostTable,
    cond: ConditionalFamily,
    p_x: FiniteMeasure,
    q: Measure,
    lam: float,
) -> GapDecomposition:
    """Gap between the Y-marginal and the conditional family, averaged.

    Direct value: ``sum_x p_x(x) * (E_{marginal}[h(x,.)] - E_{cond[x]}[h(x,.)])``.
    Closed form: ``(mutual + lautum + cross_marginal - cross_conditional)/lam``
    with the Gibbs family tilted from ``q`` at each conditioning point.

    Hypotheses, checked up front: each X-mass member is absolutely
    continuous w.r.t. ``q`` (:class:`NotAbsolutelyContinuous` otherwise)
    and mutually absolutely continuous with the marginal
    (:class:`MutualContinuityViolated` otherwise — the lautum term and the
    cross terms would degenerate to ``inf - inf``).
    """
    lam = _require_lambda(lam)
    require_aligned(p_x, cond)
    if h.x_points != cond.x_points:
        raise IndexMismatch("the cost table's conditioning points must equal the family's")
    w = p_x.weights
    live = [k for k in range(cond.n_x) if w[k] > 0]
    for k in live:
        _check_ac(cond[k], q, f"family member {k} is not absolutely continuous w.r.t. q")
    p_y = marginal_y(cond, p_x)
    for k in live:
        if not (
            absolutely_continuous(p_y, cond[k]) and absolutely_continuous(cond[k], p_y)
        ):
            raise MutualContinuityViolated(
                f"family member {k} and the marginal are not mutually "
                "absolutely continuous"
            )
    gibbs_members = [gibbs_tilt(h, q, lam, k).measure for k in range(cond.n_x)]
    mutual = mutual_information(cond, p_x)
    lautum = lautum_information(cond, p_x)
    cross_m, cross_j = _cross_terms(cond, gibbs_members, p_y, p_x)
    terms = {
        "mutual": mutual,
        "lautum": lautum,
        "cross_marginal": cross_m,
        "cross_conditional": cross_j,
    }
    closed = (mutual + lautum + cross_m - cross_j) / lam
    direct_parts = [
        w[k]
        * (expectation(h.row(k), p_y) - expectation(h.row(k), cond[k]))
        for k in live
    ]
    return GapDecomposition(
        direct=math.fsum(direct_parts),
        closed_form=closed,
        terms=terms,
        lam=lam,
        reference_tag="explicit",
    )


def gibbs_marginal_gap(
    h: CostTable,
    q: Measure,
    lam: float,
    p_x: FiniteMeasure,
) -> GapDecomposition:
    """Marginal-vs-conditional gap for the Gibbs family itself.

    The conditional family is ``x -> gibbs_tilt(h, q, lam, x)``; its cross
    terms vanish identically (the log ratio is log 1 at every atom), so the
    closed form collapses to ``(mutual + lautum)/lam``.  Both cross terms
    are still computed and stored so the collapse is auditable.
    """
    lam = _require_lambda(lam)
    if h.x_points != p_x.domain:
        raise IndexMismatch("p_x must live on the cost table's conditioning points")
    members = tuple(gibbs_tilt(h, q, lam, k).measure for k in range(h.n_x))
    cond = ConditionalFamily(x_points=h.x_points, members=members)
    dec = marginal_gap(h, cond, p_x, q, lam)
    closed = (dec.terms["mutual"] + dec.terms["lautum"]) / lam
    return GapDecomposition(
        direct=dec.direct,
        closed_form=closed,
        terms=dec.terms,
        lam=lam,
        reference_tag="explicit",
    )
