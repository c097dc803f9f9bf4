"""Exception classes shared across the package.

Every exception that a caller is expected to catch derives from
:class:`GibbsGapError`.  Infinite values are *not* errors in this library:
a Kullback-Leibler divergence of ``+inf`` is a legitimate return value.
Exceptions are reserved for contract violations (bad construction data,
mismatched representations, hypotheses of an identity not met) and for the
few places where an infinity would otherwise poison a decomposition
(``inf - inf``).
"""

from __future__ import annotations

__all__ = [
    "GibbsGapError",
    # measure construction: raised only while a measure is built
    "NegativeWeight", "EmptySupport", "ZeroMass", "DuplicatePoint",
    # measure operations
    "NonProbabilityMeasure", "NonFiniteValue", "IndexMismatch", "AlphaOutOfRange",
    "RepresentationMismatch", "NotAbsolutelyContinuous", "MutualContinuityViolated",
    # Gibbs / variational
    "InfiniteLogPartition", "InfiniteDivergence", "NonConvergence", "NonFiniteExpectation",
    # scenario input
    "ScenarioError",
]


class GibbsGapError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# measure construction


class NegativeWeight(GibbsGapError):
    """A weight or density value was negative."""


class EmptySupport(GibbsGapError):
    """A measure was constructed with no support points / no cells."""


class ZeroMass(GibbsGapError):
    """Total mass of a measure was zero (or not strictly positive)."""


class DuplicatePoint(GibbsGapError):
    """Two support points compared exactly equal."""


# ---------------------------------------------------------------------------
# measure operations


class NonProbabilityMeasure(GibbsGapError):
    """An operation requiring a probability measure got something else."""


class NonFiniteValue(GibbsGapError):
    """An integrand evaluated to ``nan`` or ``±inf`` on the support."""


class IndexMismatch(GibbsGapError):
    """Conditioning points of two objects do not line up."""


class AlphaOutOfRange(GibbsGapError):
    """Mixture coefficient outside the open interval (0, 1)."""


class RepresentationMismatch(GibbsGapError):
    """Finite-support and grid-density measures were mixed in one identity."""


class NotAbsolutelyContinuous(GibbsGapError):
    """P puts mass where the reference puts none."""


class MutualContinuityViolated(GibbsGapError):
    """Two measures required to be mutually absolutely continuous are not."""


# ---------------------------------------------------------------------------
# Gibbs / variational


class InfiniteLogPartition(GibbsGapError):
    """The log-partition value is not finite, so no tilted measure exists."""


class InfiniteDivergence(GibbsGapError):
    """A divergence needed with a finite value came out infinite."""


class NonConvergence(GibbsGapError):
    """The variational oracle failed to certify the Gibbs optimum."""


class NonFiniteExpectation(GibbsGapError):
    """An expectation gap evaluated to ``nan`` or ``±inf``."""


# ---------------------------------------------------------------------------
# scenario input


class ScenarioError(GibbsGapError):
    """A scenario file could not be parsed or failed schema validation."""
