"""Slow, direct pricing of the model, for the tests to check the engine against.

Every function walks the horizon slot by slot in plain Python and prices
a share ``h`` at load ``l`` as ``beta * l * (1 - math.exp(-xi * h))``,
the paper's utility written out, so it shares no arithmetic with
``economics.utility``.  Capacity is priced by ``economics.cost``, and
loads come from the engine's samplers and expected-load rows: drawing
is not pricing.
"""

import math

import numpy as np

from coinvest import cost
from coinvest.traffic import expected_load_matrix


def utilities(params, loads, shares) -> list:
    """One list per SP of its per-slot utilities ``beta * l * (1 - exp(-xi * h))``."""
    xi = params.saturation
    return [
        [beta * load * (1.0 - math.exp(-xi * share)) for load, share in zip(load_row, share_row)]
        for beta, load_row, share_row in zip(params.benefits, np.asarray(loads).tolist(), shares.tolist())
    ]


def sp_revenues(plan, loads, params) -> list:
    """Revenue each SP collects under ``plan`` at ``loads``, summed slot by slot."""
    return [sum(row) for row in utilities(params, loads, plan.shares)]


def value(plan, loads, params) -> float:
    """Coalition value of ``plan`` at ``loads``: revenue minus installed cost."""
    return sum(sp_revenues(plan, loads, params)) - cost(params, plan.capacity)


def values(plans, loads, params) -> list:
    """``value`` of every plan, in order."""
    return [value(p, loads, params) for p in plans]


def utility_ranges(plan, models, params) -> list:
    """Per-player rows of each slot's utility width under the bounded model.

    A load uniform on ``mean * (1 -/+ spread)`` moves the utility, linear
    in the load, over the utility of the width ``2 * spread * mean``.
    Row 0 is the InP's, all zero.
    """
    horizon = plan.shares.shape[1]
    widths = [[2.0 * m.spread * mean for mean in row] for m, row in zip(models, expected_load_matrix(models, horizon).tolist())]
    return [[0.0] * horizon] + utilities(params, widths, plan.shares)


def payback_slot(plan, loads, params):
    """First slot whose running revenue covers the installed cost, or None."""
    installed = cost(params, plan.capacity)
    running = 0.0
    for t, slot in enumerate(zip(*utilities(params, loads, plan.shares))):
        running += sum(slot)
        if running >= installed:
            return t
    return None
