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
  product law and the joint law respectively;
* the Gibbs family as the conditional family: the family is its own tilt,
  both cross terms vanish identically, and ``lam * gap = mutual + lautum``.

Each decomposition is returned with every term stored, so a caller can
audit the arithmetic; ``discrepancy = |direct - closed_form|`` is computed
from the stored fields.

Every form is one entry of a table of identities, run through one row
kernel at all the tilts of a call.  The entry names the law it tilts, its
terms, its closed form and its tag; the kernel holds no case of its own.
The laws are stacked one row per conditioning point, the named law is
tilted by the one tilt helper of :mod:`gibbsgap.gibbs` when a term needs
the tilt, and each term is a pairwise per-row sum.  The inputs are
checked, and the direct value and the terms that do not name the Gibbs
measure are summed, once, before the first tilt; the Gibbs terms are
summed at each tilt.  A single conditioning point is the one-row case, and
its tilts are stacked as the rows of one sum; the averaged and marginal
forms are ``p_x``-weighted sums, by ``math.fsum``, of the per-row values
over the points carrying X-mass, tilted one tilt at a time.  The kernel
loops over these tilt blocks itself: it tilts a block, sums each Gibbs term
over every row of it, reads each tilt's rows and error as every
``len(block)``-th row, and frees the block before it tilts the next.  The
Gibbs-family marginal tilts only the rows carrying X-mass to build its
family, as the other averaged forms tilt only those.  Each public function checks its tilt and
is the one-tilt case of its kernel.

Infinities never silently cancel: absolute-continuity hypotheses are
checked up front and violations raise, rather than producing ``inf - inf``,
and a row whose gap is past the largest float raises
:class:`~gibbsgap.errors.NonFiniteExpectation` in every form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    GibbsGapError,
    IndexMismatch,
    InfiniteDivergence,
    MutualContinuityViolated,
    NonFiniteExpectation,
    NonFiniteValue,
    NonProbabilityMeasure,
    NotAbsolutelyContinuous,
)
from .divergences import _kl_rows
from .gibbs import CostTable, _gibbs_tilts, _one_tilt, _require_lambda
from .measures import (
    ConditionalFamily,
    FiniteMeasure,
    Measure,
    _at,
    _atom_masses,
    _average,
    _escapes,
    _live_rows,
    _mean_rows,
    _mixture,
    _row,
    _Rows,
    mix,
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


# ---------------------------------------------------------------------------
# the identities and the row kernel.  An identity gives ``lam * gap`` as
# ``lam_gap(terms)``; a term ``(a, b, c)`` sums, row by row, the atom masses of
# law ``a`` times ``log b - log c`` over the atoms of ``b``, so ``(a, a, c)`` is
# ``kl(a, c)``.  The laws are ``p1``, ``p2``, ``ref`` and ``gibbs``, the tilt
# of the law named by ``reference``; the ``dominated`` laws must be absolutely
# continuous w.r.t. it.  A law is tilted only if a term names ``gibbs``.  Each
# form is its identity alone: the mixture is ``_COMMON`` with its own tag, and
# the Gibbs marginal names the family, its own tilt, where the marginal names
# ``gibbs``.


class _Identity(NamedTuple):
    """A gap identity, as the comment above reads it: its KL terms, its gap and its tag."""

    terms: dict[str, tuple[str, str, str]]
    lam_gap: Callable[[Mapping[str, float]], float]
    tag: str
    reference: str = "ref"
    dominated: tuple[str, ...] = ("p1", "p2")


_TILT_TERMS = {"kl_p1_gibbs": ("p1", "p1", "gibbs"), "kl_p2_gibbs": ("p2", "p2", "gibbs")}
_COMMON = _Identity(
    {**_TILT_TERMS, "kl_p1_reference": ("p1", "p1", "ref"), "kl_p2_reference": ("p2", "p2", "ref")},
    lambda t: t["kl_p1_gibbs"] - t["kl_p2_gibbs"] + t["kl_p2_reference"] - t["kl_p1_reference"],
    "explicit",
)
_RELATIVE = {
    "P2-ref": _Identity(
        {**_TILT_TERMS, "kl_p1_p2": ("p1", "p1", "p2")},
        lambda t: t["kl_p1_gibbs"] - t["kl_p2_gibbs"] - t["kl_p1_p2"],
        "P2-as-reference",
        reference="p2",
        dominated=("p1",),
    ),
    "P1-ref": _Identity(
        {**_TILT_TERMS, "kl_p2_p1": ("p2", "p2", "p1")},
        lambda t: t["kl_p1_gibbs"] - t["kl_p2_gibbs"] + t["kl_p2_p1"],
        "P1-as-reference",
        reference="p1",
        dominated=("p2",),
    ),
}
# ``p1`` is the Y-marginal and ``p2`` the conditional family
_MARGINAL = _Identity(
    {
        "mutual": ("p2", "p2", "p1"),
        "lautum": ("p1", "p1", "p2"),
        "cross_marginal": ("p1", "p2", "gibbs"),
        "cross_conditional": ("p2", "p2", "gibbs"),
    },
    lambda t: t["mutual"] + t["lautum"] + t["cross_marginal"] - t["cross_conditional"],
    "explicit",
    dominated=(),  # its hypotheses need the marginal: _marginal_rows checks them
)
# the Gibbs family is its own tilt: the cross terms are log 1 at every atom
_GIBBS_MARGINAL = _MARGINAL._replace(
    terms={**_MARGINAL.terms, "cross_marginal": ("p1", "p2", "p2"),
           "cross_conditional": ("p2", "p2", "p2")},
    lam_gap=lambda t: t["mutual"] + t["lautum"],
)


def _direct(h_rows: np.ndarray, p1: _Rows, p2: _Rows, weights) -> float:
    """``sum_k weights[k] * (E_{p1}[h_k] - E_{p2}[h_k])``.  An expectation past the largest
    float raises :class:`NonFiniteValue`, and a row's gap past it :class:`NonFiniteExpectation`."""
    means = _mean_rows(h_rows, p1.mass), _mean_rows(h_rows, p2.mass)
    if not all(map(math.isfinite, means[0] + means[1])):
        raise NonFiniteValue("expectation overflows a float")
    rows = [a - b for a, b in zip(*means)]
    for value in rows:
        if not math.isfinite(value):
            raise NonFiniteExpectation(f"gap evaluated to {value!r}")
    return _average(weights, rows)


def _outcome(make: Callable, *args):
    """``make(*args)``, or the :class:`GibbsGapError` it raises, without its traceback,
    which would keep the failed call's arrays."""
    try:
        return make(*args)
    except GibbsGapError as e:
        return e.with_traceback(None)


def _decompose(identity, h, rows, weights, lams, laws, messages):
    """The row kernel: at each tilt of ``lams``, the terms and gap of ``identity``, reduced
    with ``weights``, or the error raised at that tilt.

    Each law holds a row per entry of ``rows`` or one for all; ``messages``
    names the dominated laws.  The inputs are checked, every law's Y-support before any
    continuity, and the direct value and the terms that do not name ``gibbs`` summed, once,
    before the first tilt; ``h``'s rows are read by :func:`_at`.  The law named by
    ``identity.reference`` is tilted only if a term names ``gibbs``, so an identity that names
    none is one pass at all its tilts.

    The tilts come in blocks: a single row at all its tilts in one block, the tilts stacked as
    rows; more rows one tilt per block, so that only one tilt's rows are held at once.  Each
    Gibbs term is summed over every row of a block, a row whose tilt raised included, whose
    sums are dropped; tilt ``j`` of a block is its every ``len(block)``-th row from ``j``, and
    its error that of its first row that raised.  The block's log atoms are freed before the
    next block is tilted.
    """
    ref = laws[identity.reference]
    _require_supports(h, laws)
    _require_continuity(rows, *((laws[p], ref, m) for p, m in zip(identity.dominated, messages)))
    h_rows = _at(h.values, rows)
    direct = _outcome(_direct, h_rows, laws["p1"], laws["p2"], weights)
    fixed = {name: _average(weights, _kl_rows(laws[a].mass, laws[b].log, laws[c].log))
             for name, (a, b, c) in identity.terms.items() if "gibbs" not in (b, c)}
    tilting = len(fixed) < len(identity.terms)
    out: list = []
    for block in [range(len(lams))] if len(rows) == 1 else [[t] for t in range(len(lams))]:
        if tilting:
            log_g, k_vals = _gibbs_tilts(h_rows, ref, [lams[t] for t in block])
            tilted = {**laws, "gibbs": _Rows(None, log_g, None)}
            sums = {name: _kl_rows(tilted[a].mass, tilted[b].log, tilted[c].log)
                    for name, (a, b, c) in identity.terms.items() if name not in fixed}
            del log_g, tilted  # before the next block is tilted
        for j, t in enumerate(block):
            tilt = _outcome(_one_tilt, k_vals[j::len(block)]) if tilting else None
            failed = [e for e in (tilt, direct) if isinstance(e, GibbsGapError)]
            if failed:
                out.append(failed[0])
                continue
            terms = {name: fixed[name] if name in fixed else
                     _average(weights, sums[name][j::len(block)]) for name in identity.terms}
            closed_form = identity.lam_gap(terms) / lams[t]
            out.append(_outcome(GapDecomposition, direct, closed_form, terms, lams[t], identity.tag))
    return out


def _require_supports(h: CostTable, laws: dict) -> None:
    """Raise :class:`~gibbsgap.errors.RepresentationMismatch` unless each law lives on ``h``'s
    Y-support.  Checked before any continuity, which fails every row on unequal supports."""
    for law in laws.values():
        h.require_matches(law)


def _require_continuity(rows, *checks, error=NotAbsolutelyContinuous) -> None:
    """Raise ``error`` at the first row, and there at the first ``(p, q, message)``,
    where ``p`` is not absolutely continuous w.r.t. ``q``; ``{k}`` names the row."""
    fails = np.array([_escapes(p, q) for p, q, _ in checks])
    if fails.any():
        row = int(np.argmax(fails.any(axis=0)))
        raise error(checks[int(np.argmax(fails[:, row]))][2].format(k=rows[row]))


def _relative(direction: str) -> tuple[_Identity, list[str]]:
    """The identity with ``p2`` (``"P2-ref"``) or ``p1`` (``"P1-ref"``) as the reference."""
    if direction not in _RELATIVE:
        raise ValueError(f"direction must be 'P2-ref' or 'P1-ref', got {direction!r}")
    rel = _RELATIVE[direction]
    return rel, [f"{direction} direction requires {rel.dominated[0]} << {rel.reference}"]


def _point(h: CostTable, x_index: int, p1: Measure, p2: Measure, needs: str) -> list[int]:
    """The one row of a single-point form, once ``p1`` and ``p2`` may enter it."""
    require_same_representation(p1, p2)
    h.row(x_index)
    if not (p1.is_probability and p2.is_probability):
        raise NonProbabilityMeasure(needs)
    return [x_index]


def _aligned(h: CostTable, p_x: FiniteMeasure, *families: ConditionalFamily):
    """:func:`_live_rows`, once ``h`` is aligned with ``p_x`` too."""
    aligned = _live_rows(p_x, *families)
    if h.x_points != p_x.domain:
        which = "families'" if len(families) > 1 else "family's"
        raise IndexMismatch(f"the cost table's conditioning points must equal the {which}")
    return aligned


# ---------------------------------------------------------------------------
# single conditioning point: the one-row case


def gap_direct(h: CostTable, x_index: int, p1: Measure, p2: Measure) -> float:
    """``E_{p1}[h(x, .)] - E_{p2}[h(x, .)]``, each expectation one pairwise row sum.

    Exactly antisymmetric in ``(p1, p2)``.  An expectation past the largest
    float raises :class:`~gibbsgap.errors.NonFiniteValue`.
    """
    rows = _point(h, x_index, p1, p2, "expectation requires a probability measure")
    h.require_matches(p1)
    return _direct(h.values[rows], _row(p1), _row(p2), [1.0])


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
    return _one_tilt(_common_gap(h, x_index, p1, p2, q, [_require_lambda(lam)]))


def _common_gap(h, x_index, p1, p2, q, lams, identity=_COMMON) -> list:
    """:func:`gap_closed_form` at every tilt of ``lams``, tagged as ``identity`` is."""
    rows = _point(h, x_index, p1, p2, "kl(p, q) requires p to be a probability")
    laws = {"p1": _row(p1), "p2": _row(p2), "ref": _row(q)}
    messages = [f"{p} is not absolutely continuous w.r.t. the reference" for p in ("p1", "p2")]
    return _decompose(identity, h, rows, [1.0], lams, laws, messages)


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
    return _one_tilt(_relative_gap(h, x_index, p1, p2, direction, [_require_lambda(lam)]))


def _relative_gap(h, x_index, p1, p2, direction, lams) -> list:
    """:func:`gap_closed_form_relative` at every tilt of ``lams``."""
    rows = _point(h, x_index, p1, p2, "kl(p, q) requires p to be a probability")
    identity, messages = _relative(direction)
    laws = {"p1": _row(p1), "p2": _row(p2)}
    return _decompose(identity, h, rows, [1.0], lams, laws, messages)


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
    return _one_tilt(_mixture_gap(h, x_index, p1, p2, alpha, [_require_lambda(lam)]))


def _mixture_gap(h, x_index, p1, p2, alpha, lams) -> list:
    """:func:`gap_mixture_reference` at every tilt of ``lams``."""
    identity = _COMMON._replace(tag=f"mixture({alpha:g})")
    return _common_gap(h, x_index, p1, p2, mix(p1, p2, alpha), lams, identity)


# ---------------------------------------------------------------------------
# averaged over an X-marginal: p_x-weighted reductions of the rows


def expected_gap_direct(
    h: CostTable,
    cond1: ConditionalFamily,
    cond2: ConditionalFamily,
    p_x: FiniteMeasure,
) -> float:
    """``sum_x p_x(x) * gap_direct(h, x, cond1[x], cond2[x])``."""
    live, weights, (p1, p2) = _aligned(h, p_x, cond1, cond2)
    require_same_representation(cond1[live[0]], cond2[live[0]])
    h.require_matches(cond1[live[0]])
    return _direct(_at(h.values, live), p1, p2, weights)


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
    per-point divergences, each a pairwise row sum, accumulated over the
    points by ``math.fsum``.
    """
    return _one_tilt(_expected_common(h, cond1, cond2, p_x, q, [_require_lambda(lam)]))


def _expected_common(h, cond1, cond2, p_x, q, lams) -> list:
    """:func:`expected_gap_closed_form` at every tilt of ``lams``."""
    live, weights, (p1, p2) = _aligned(h, p_x, cond1, cond2)
    laws = {"p1": p1, "p2": p2, "ref": _row(q)}
    messages = [f"cond{c} member {{k}} is not absolutely continuous w.r.t. q" for c in (1, 2)]
    return _decompose(_COMMON, h, live, weights, lams, laws, messages)


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
    return _one_tilt(_expected_relative(h, cond1, cond2, p_x, direction, [_require_lambda(lam)]))


def _expected_relative(h, cond1, cond2, p_x, direction, lams) -> list:
    """:func:`expected_gap_relative` at every tilt of ``lams``."""
    identity, messages = _relative(direction)
    live, weights, (p1, p2) = _aligned(h, p_x, cond1, cond2)
    require_same_representation(cond1[live[0]], cond2[live[0]])
    return _decompose(identity, h, live, weights, lams, {"p1": p1, "p2": p2}, messages)


# ---------------------------------------------------------------------------
# marginal vs conditional


def _marginal(h, cond, p_x, q, lams) -> list:
    """:func:`marginal_gap` at every tilt of ``lams``: ``cond``'s rows at the points carrying
    X-mass, by ``_MARGINAL``, which tilts ``q``."""
    live, weights, (members,) = _aligned(h, p_x, cond)
    return _marginal_rows(h, live, weights, members, p_x, q, lams, _MARGINAL)


def _marginal_rows(h, live, weights, members, p_x, q, lams, identity) -> list:
    """The marginal gap by ``identity`` of the family rows ``members`` at the points ``live`` of
    ``p_x``, which weighs them by ``weights``; the Y-marginal mixes those rows alone."""
    laws = {"p2": members, "ref": _row(q)}
    _require_supports(h, laws)
    _require_continuity(
        live, (laws["p2"], laws["ref"], "family member {k} is not absolutely continuous w.r.t. q")
    )
    if not p_x.is_probability:
        raise NonProbabilityMeasure("the X-marginal must be a probability measure")
    # dominates every member it mixes in
    laws["p1"] = _row(_mixture(members.domain, members.log, _at(p_x.log_density, live)))
    mutual = "family member {k} and the marginal are not mutually absolutely continuous"
    _require_continuity(live, (laws["p1"], laws["p2"], mutual), error=MutualContinuityViolated)
    return _decompose(identity, h, live, weights, lams, laws, [])


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
    return _one_tilt(_marginal(h, cond, p_x, q, [_require_lambda(lam)]))


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
    return _one_tilt(_gibbs_marginal(h, q, [_require_lambda(lam)], p_x))


def _gibbs_marginal(h, q, lams, p_x) -> list:
    """:func:`gibbs_marginal_gap` at every tilt of ``lams``: the family is the tilt, so each tilt
    tilts the rows carrying X-mass and is their own :func:`_marginal_rows` by
    ``_GIBBS_MARGINAL``, which tilts no further."""
    if h.x_points != p_x.domain:
        raise IndexMismatch("p_x must live on the cost table's conditioning points")
    h.require_matches(q)
    return [_outcome(_gibbs_marginal_at, h, q, lam, p_x) for lam in lams]


def _gibbs_marginal_at(h, q, lam, p_x) -> GapDecomposition:
    """The gap of ``q``'s Gibbs family at ``lam`` at the points carrying X-mass, the cost rows
    there read in place if every point does: its rows are the log atoms the tilt built, and
    their masses are derived from the one array their ``exp`` writes."""
    live, weights, _ = _live_rows(p_x)
    log_gibbs, k_vals = _gibbs_tilts(_at(h.values, live), _row(q), [lam])
    _one_tilt(k_vals)
    members = _Rows(q.domain, log_gibbs, _atom_masses(np.exp(log_gibbs), q.domain))
    return _one_tilt(_marginal_rows(h, live, weights, members, p_x, q, [lam], _GIBBS_MARGINAL))
