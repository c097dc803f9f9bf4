"""An outside truth for the variational oracle: the free energy at 50 digits.

``F* = -(1/lam) ln sum_i q_i w exp(-lam h_i)`` is evaluated in stdlib :mod:`decimal` at 50
significant digits, from the floats the library reads: the costs, the reference's values and
its support's base mass ``w``, the cell width on a grid and 1 on points.  ``Decimal(float)``
converts exactly, and ``exp`` and ``ln`` are correctly rounded, so ``F*`` is the exact free
energy of those floats to far below a float's rounding.  It follows the closed form of the
paper, not the library's log-sum-exp.

The oracle must land on it on a grid and on the grid's point twin alike:

* the closed-form free energy within ``1e-13 * max(1, |F*|)``;
* the certified objective within its certificate, ``min(1e-10, 2e-10/|lam|)``, plus that.
"""

import decimal
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import CostTable, GridDensity, atom_masses, make_finite_measure
from gibbsgap.gibbs import _oracle_rows, _OracleRow

#: The tilts of every drawn instance, both signs.
LAMS = [0.5, -0.5, 2.0, -2.0, 7.0]


def free_energy_50(h_row, q_values, base_mass: float, lam: float) -> Decimal:
    """``-(1/lam) ln sum_i q_i w exp(-lam h_i)`` at 50 digits, over the atoms where q_i > 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lam_d, w = Decimal(lam), Decimal(base_mass)
        z = sum((Decimal(q) * w * (-lam_d * Decimal(h)).exp()
                 for h, q in zip(h_row, q_values) if q > 0), Decimal(0))
        return -z.ln() / lam_d


@st.composite
def grids(draw):
    """A cost row on at most 12 cells whose width is far from 1, and a reference on them
    with null cells, as a grid and as its point twin: (cost table, reference) pairs."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([draw(st.floats(0.1, 0.5)), draw(st.floats(2.0, 8.0))]))
    lo = draw(st.floats(-3.0, 3.0))
    cost = rng.uniform(-2.0, 2.0, size=(1, n))
    values = rng.uniform(0.2, 5.0, n)
    values[draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))] = 0.0
    q = GridDensity(lo, lo + width * n, values)
    twin = make_finite_measure(q.domain.points, atom_masses(q))
    return [(CostTable.on_grid([[0.0]], lo, q.hi, n, cost), q),
            (CostTable.on_support([[0.0]], twin.domain, cost), twin)]


@settings(max_examples=100, deadline=None)
@given(pairs=grids())
def test_the_oracle_lands_on_the_free_energy_at_50_digits(pairs):
    for h, q in pairs:
        (rows,) = _oracle_rows(h, q, LAMS, [0], [800])
        for lam, row in zip(LAMS, rows, strict=True):
            assert isinstance(row, _OracleRow), (type(q).__name__, lam, row)
            exact = free_energy_50(h.row(0), q._density, q.domain.base_mass, lam)
            slack = 1e-13 * max(1.0, abs(float(exact)))
            assert abs(Decimal(row.free_energy) - exact) <= Decimal(slack), (lam, row)
            certificate = min(1e-10, 2e-10 / abs(lam))
            assert abs(Decimal(row.objective) - exact) <= Decimal(certificate + slack), (lam, row)
