"""Exact divergence decompositions of expectation gaps.

The difference of a cost's expectation under two probability measures can
be written, exactly, as a signed combination of Kullback-Leibler
divergences involving an exponentially tilted (Gibbs) reference measure.
This package implements the measures, the tiltings, the decompositions,
and a scenario runner that verifies the identities numerically to tight
tolerances.
"""

from . import divergences, errors, gaps, gibbs, measures, scenario
from .divergences import *
from .errors import *
from .gaps import *
from .gibbs import *
from .measures import *
from .scenario import *

__version__ = "0.1.0"

#: Every module's public names: a name joins the package by joining its module's ``__all__``.
__all__ = sorted({name for module in (errors, measures, divergences, gibbs, gaps, scenario)
                  for name in module.__all__})
