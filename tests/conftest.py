"""Shared generators for randomized suites.

Everything is seeded by the caller; no test draws from global state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from nlg import (HostilityWeights, Interval, StepFunction1D, TailMode,
                 pair_cell_energy, step_cells)


# property tests replay the same examples on every run and keep no
# example database, so a tier-1 run is reproducible
settings.register_profile("nlg", derandomize=True, database=None)
settings.load_profile("nlg")


def random_breakpoints(rng, n_cells: int, lo: float = 0.0, hi: float = 1.0,
                       min_width: float = 1e-3) -> np.ndarray:
    while True:
        bp = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, n_cells - 1)), [hi]])
        if np.min(np.diff(bp)) >= min_width:
            return bp


def random_step(rng, n_range=(3, 10), value_range=(-1.0, 1.0),
                tail=TailMode.DOMAIN_ONLY) -> StepFunction1D:
    """Step function with arbitrary (non-grid) values on (0, 1)."""
    n = int(rng.integers(*n_range))
    bp = random_breakpoints(rng, n)
    vals = rng.uniform(*value_range, n)
    return StepFunction1D(tuple(bp), tuple(vals), tail)


def random_grid_step(rng, delta: float, n_range=(3, 12), max_jump: int = 1,
                     tail=TailMode.DOMAIN_ONLY, base_level: int = 0) -> StepFunction1D:
    """Step function whose values are multiples of delta with bounded jumps."""
    n = int(rng.integers(*n_range))
    bp = random_breakpoints(rng, n)
    levels = base_level + np.cumsum(rng.integers(-max_jump, max_jump + 1, n))
    return StepFunction1D(tuple(bp), tuple(levels * delta), tail)


def pairwise_energy(u: StepFunction1D, domain: Interval, interacts, params,
                    labels=None) -> float:
    """Energy as 2 * the sum of pair_cell_energy over explicitly listed pairs.

    ``labels`` (default: the cell values) are what ``interacts(a, b)``
    compares; the oracle of every pair-sum shortcut.
    """
    edges, vals = step_cells(u, domain)
    labels = vals if labels is None else labels
    cells = [Interval(float(a), float(b)) for a, b in zip(edges, edges[1:])]
    return 2.0 * math.fsum(pair_cell_energy(cells[i], cells[j], params)
                           for i in range(len(cells))
                           for j in range(i + 1, len(cells))
                           if interacts(labels[i], labels[j]))


def random_nonincreasing_weights(rng, length: int, lo: float = 0.0,
                                 hi: float = 1.0) -> HostilityWeights:
    return HostilityWeights(tuple(np.sort(rng.uniform(lo, hi, length))[::-1]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


UNIT = Interval(0.0, 1.0)
