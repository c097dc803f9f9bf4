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
from the stored fields.

Every form runs through one row kernel, at all the tilts of a call: the
laws are stacked one row per conditioning point, their reference is tilted
by one batched log-sum-exp, and each term is a compensated per-row sum.
The inputs are checked, and the direct value and the terms that do not
name the Gibbs measure are summed, once for all tilts; the Gibbs terms are
summed at each tilt.  A single conditioning point is the one-row case, and
its tilts are stacked as the rows of one sum; the averaged and marginal
forms are ``p_x``-weighted compensated sums of the per-row values, tilted
one tilt at a time.  Each public function is the one-tilt case of its
kernel.

Infinities never silently cancel: absolute-continuity hypotheses are
checked up front and violations raise, rather than producing ``inf - inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    GibbsGapError,
    IndexMismatch,
    InfiniteDivergence,
    MutualContinuityViolated,
    NonFiniteExpectation,
    NonProbabilityMeasure,
    NotAbsolutelyContinuous,
)
from .divergences import _kl_rows
from .gibbs import CostTable, _gibbs_rows, _gibbs_tilts, _one_tilt, _require_lambda
from .measures import (
    ConditionalFamily,
    FiniteMeasure,
    Measure,
    _average,
    _escapes,
    _family,
    _live_rows,
    _mean_rows,
    _row,
    _Rows,
    marginal_y,
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
# continuous w.r.t. it.


class _Identity(NamedTuple):
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
    dominated=(),  # its hypotheses need the marginal: _marginal checks them
)


def _direct(h_rows: np.ndarray, p1: _Rows, p2: _Rows, weights, checked: bool = True) -> float:
    """``sum_k weights[k] * (E_{p1}[h_k] - E_{p2}[h_k])``; ``checked`` rejects a non-finite row."""
    rows = [a - b for a, b in zip(_mean_rows(h_rows, p1.mass), _mean_rows(h_rows, p2.mass))]
    for value in rows if checked else ():
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


def _decompose(identity, h, rows, weights, lams, laws, messages, log_gibbs=None, checked=True):
    """The row kernel: at each tilt of ``lams``, the terms and gap of ``identity``, reduced
    with ``weights``, or the error raised at that tilt.

    Each law holds a row per entry of ``rows`` or one for all; ``messages``
    names the dominated laws.  The reference is tilted unless ``log_gibbs``
    is, at the one tilt of ``lams``.  The inputs are checked, and the direct
    value and the terms that do not name ``gibbs`` summed, once for all tilts.
    """
    ref = laws[identity.reference]
    _require_continuity(rows, *((laws[p], ref, m) for p, m in zip(identity.dominated, messages)))
    h.require_matches(ref)
    h_rows = h.values[rows]
    out: list = [None] * len(lams)
    fixed = None  # the tilt-free terms, summed for the first tilt that needs them
    for tilts, log_g in [([0], log_gibbs)] if log_gibbs is not None else _tilts(h_rows, ref, lams):
        if isinstance(log_g, GibbsGapError):
            out[tilts[0]] = log_g
            continue
        if fixed is None:
            fixed = {name: _average(weights, _kl_rows(laws[a].mass, laws[b].log, laws[c].log))
                     for name, (a, b, c) in identity.terms.items() if "gibbs" not in (b, c)}
            direct = _outcome(_direct, h_rows, laws["p1"], laws["p2"], weights, checked)
        tilted = {**laws, "gibbs": _Rows(None, log_g, None)}
        sums = {name: _kl_rows(tilted[a].mass, tilted[b].log, tilted[c].log)
                for name, (a, b, c) in identity.terms.items() if name not in fixed}
        n = len(log_g) // len(tilts)  # the rows of each tilt
        for j, t in enumerate(tilts):
            terms = {name: fixed[name] if name in fixed else
                     _average(weights, sums[name][j * n:j * n + n]) for name in identity.terms}
            if isinstance(direct, GibbsGapError):
                out[t] = direct
            else:
                closed_form = identity.lam_gap(terms) / lams[t]
                out[t] = _outcome(GapDecomposition, direct, closed_form, terms, lams[t], identity.tag)
    return out


def _tilts(h_rows: np.ndarray, ref: _Rows, lams: list):
    """The tilts of ``ref`` at ``lams``, as blocks ``(tilts, log atoms)`` with one row per tilt
    and conditioning point, or ``([tilt], error)`` where a tilt raises.  A single row is
    tilted at all its tilts at once, the tilts stacked as rows; more rows, or a single tilt,
    one tilt at a time."""
    base_mass = ref.domain.base_mass
    if len(h_rows) > 1 or len(lams) == 1:
        for t, lam in enumerate(lams):
            yield [t], _outcome(lambda: _gibbs_rows(h_rows, ref.log, lam, base_mass)[0])
        return
    log_g, k_vals = _gibbs_tilts(h_rows[0], ref.log, lams, base_mass)
    ok = [t for t, k in enumerate(k_vals) if not isinstance(k, GibbsGapError)]
    yield from (([t], k) for t, k in enumerate(k_vals) if isinstance(k, GibbsGapError))
    if ok:
        yield ok, log_g if len(ok) == len(lams) else log_g[ok]


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
    """``E_{p1}[h(x, .)] - E_{p2}[h(x, .)]`` by compensated summation.

    Exactly antisymmetric in ``(p1, p2)``.
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
    return _one_tilt(_common_gap(h, x_index, p1, p2, q, [lam]))


def _common_gap(h, x_index, p1, p2, q, lams) -> list:
    """:func:`gap_closed_form` at every tilt of ``lams``."""
    lams = [_require_lambda(lam) for lam in lams]
    rows = _point(h, x_index, p1, p2, "kl(p, q) requires p to be a probability")
    laws = {"p1": _row(p1), "p2": _row(p2), "ref": _row(q)}
    messages = [f"{p} is not absolutely continuous w.r.t. the reference" for p in ("p1", "p2")]
    return _decompose(_COMMON, h, rows, [1.0], lams, laws, messages)


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
    return _one_tilt(_relative_gap(h, x_index, p1, p2, direction, [lam]))


def _relative_gap(h, x_index, p1, p2, direction, lams) -> list:
    """:func:`gap_closed_form_relative` at every tilt of ``lams``."""
    lams = [_require_lambda(lam) for lam in lams]
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
    return _one_tilt(_mixture_gap(h, x_index, p1, p2, alpha, [lam]))


def _mixture_gap(h, x_index, p1, p2, alpha, lams) -> list:
    """:func:`gap_mixture_reference` at every tilt of ``lams``."""
    lams = [_require_lambda(lam) for lam in lams]
    decs = _common_gap(h, x_index, p1, p2, mix(p1, p2, alpha), lams)
    return [d if isinstance(d, GibbsGapError) else replace(d, reference_tag=f"mixture({alpha:g})")
            for d in decs]


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
    return _direct(h.values[live], p1, p2, weights)


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
    return _one_tilt(_expected_common(h, cond1, cond2, p_x, q, [lam]))


def _expected_common(h, cond1, cond2, p_x, q, lams) -> list:
    """:func:`expected_gap_closed_form` at every tilt of ``lams``."""
    lams = [_require_lambda(lam) for lam in lams]
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
    return _one_tilt(_expected_relative(h, cond1, cond2, p_x, direction, [lam]))


def _expected_relative(h, cond1, cond2, p_x, direction, lams) -> list:
    """:func:`expected_gap_relative` at every tilt of ``lams``."""
    lams = [_require_lambda(lam) for lam in lams]
    identity, messages = _relative(direction)
    live, weights, (p1, p2) = _aligned(h, p_x, cond1, cond2)
    require_same_representation(cond1[live[0]], cond2[live[0]])
    return _decompose(identity, h, live, weights, lams, {"p1": p1, "p2": p2}, messages)


# ---------------------------------------------------------------------------
# marginal vs conditional


def _marginal(h, cond, p_x, q, lams, tilted=False) -> list:
    """:func:`marginal_gap` at every tilt of ``lams``; ``tilted`` when ``cond`` is ``q``'s Gibbs
    family at the one tilt of ``lams``, so its rows are the tilt."""
    lams = [_require_lambda(lam) for lam in lams]
    live, weights, (members,) = _aligned(h, p_x, cond)
    laws = {"p2": members, "ref": _row(q)}
    _require_continuity(
        live, (laws["p2"], laws["ref"], "family member {k} is not absolutely continuous w.r.t. q")
    )
    laws["p1"] = _row(marginal_y(cond, p_x))  # dominates every member it mixes in
    mutual = "family member {k} and the marginal are not mutually absolutely continuous"
    _require_continuity(live, (laws["p1"], laws["p2"], mutual), error=MutualContinuityViolated)
    log_gibbs = laws["p2"].log if tilted else None
    return _decompose(_MARGINAL, h, live, weights, lams, laws, [], log_gibbs, False)


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
    return _one_tilt(_marginal(h, cond, p_x, q, [lam]))


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
    return _one_tilt(_gibbs_marginal(h, q, [lam], p_x))


def _gibbs_marginal(h, q, lams, p_x) -> list:
    """:func:`gibbs_marginal_gap` at every tilt of ``lams``: the family is the tilt, so no term
    is tilt-free, and each tilt is its own :func:`_marginal`."""
    lams = [_require_lambda(lam) for lam in lams]
    if h.x_points != p_x.domain:
        raise IndexMismatch("p_x must live on the cost table's conditioning points")
    h.require_matches(q)
    return [_outcome(_gibbs_marginal_at, h, q, lam, p_x) for lam in lams]


def _gibbs_marginal_at(h, q, lam, p_x) -> GapDecomposition:
    log_gibbs = _gibbs_rows(h.values, q.log_density, lam, q.domain.base_mass)[0]
    log_gibbs.flags.writeable = False
    family = _family(h.x_points, q.domain, log_density=log_gibbs)
    dec = _one_tilt(_marginal(h, family, p_x, q, [lam], tilted=True))
    return replace(dec, closed_form=(dec.terms["mutual"] + dec.terms["lautum"]) / lam)
