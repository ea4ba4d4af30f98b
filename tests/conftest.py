"""Shared generators for randomized suites.

Everything is seeded by the caller; no test draws from global state.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from nlg import (HostilityWeights, Interval, StepFunction1D, TailMode,
                 pair_cell_energy, step_cells)
from nlg.rearrange import _on_level, grid_floor_level


# property tests replay the same examples on every run and keep no
# example database, so a tier-1 run is reproducible
settings.register_profile("nlg", derandomize=True, database=None)
settings.load_profile("nlg")

# the closed forms and the engine code they are built from: no oracle
# names any of them (Monte Carlo in nlg.multidim, every function of
# nlg.oracles)
CLOSED_FORMS = frozenset({
    "_pair_sum", "_unimodal_sums", "_pair_energies", "_level_sum", "step_energy", "step_cells",
    "grid_floor_level", "_on_level", "_level_cells", "_merge_cells", "_radial_cells",
    "_sections", "_cells", "section", "step_segmentation", "vertical_segmentation"})


# numpy's AVX-512 loops, switched off for one process: the baseline dispatch
BASELINE_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def numpy_dispatch() -> str:
    """The numpy SIMD dispatch that pinned bits depend on: ``"X86_V4"``
    where numpy's AVX-512 loops run, ``"pre-X86_V4"`` where they do not.
    With numpy 2.4.6 on x86-64, array ``np.power`` rounds differently in
    the two, while switching off AVX512_ICL and AVX512_SPR alone, or X86_V3
    too, moved no pinned bit."""
    from numpy._core._multiarray_umath import __cpu_features__
    return "X86_V4" if __cpu_features__.get("X86_V4") else "pre-X86_V4"


def run_under_baseline_dispatch(check: str):
    """Run the Python source ``check`` in a subprocess with numpy's AVX-512
    loops switched off, the tests and ``nlg`` importable, and fail with its
    stderr unless it exits with 0; skip where this process already runs
    without them."""
    from numpy._core._multiarray_umath import __cpu_features__
    if numpy_dispatch() != "X86_V4":
        pytest.skip("numpy's AVX-512 loops are off: this run already uses the baseline dispatch")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]),
               NPY_DISABLE_CPU_FEATURES=" ".join(
                   f for f in BASELINE_DISPATCH if __cpu_features__.get(f)))
    check = ("import conftest; assert conftest.numpy_dispatch() == 'pre-X86_V4', "
             f"'dispatch not switched'; {check}")
    run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-3000:]


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


def cells_to_step_loop(edges, values, tail_mode):
    """Scalar oracle of ``rearrange._cells_to_step``: one pass over the cells."""
    out_e: list[float] = []
    out_v: list[float] = []
    last = None
    for a, b, v in zip(edges, edges[1:], values):
        if a == b:
            continue
        if v == last:
            out_e[-1] = b
            continue
        if not out_e:
            out_e.append(a)
        out_e.append(b)
        out_v.append(v)
        last = v
    if not out_v:
        return None
    return StepFunction1D(tuple(out_e), tuple(out_v), tail_mode)


def level_runs_loop(xs, ys, delta, place, compact):
    """Scalar oracle of the segmentation of one function that is monotone
    between its nodes (``rearrange._level_cells`` merged by
    ``rearrange._merge_cells``): one pass over the pieces, each one's start
    cell and crossings in a Python loop, merged by ``merge_cells_loop``.
    ``place(pieces, values)`` gives the crossing of each level value in its
    piece; one past the piece's end is put on it."""
    k = [grid_floor_level(y, delta) for y in ys]
    s = [kk * delta if _on_level(y, kk, delta) else y for y, kk in zip(ys, k)]
    runs = []  # each piece's start level and its (crossed level, next level)
    for i in range(len(xs) - 1):
        k0, k1, s0, s1 = k[i], k[i + 1], s[i], s[i + 1]
        if s1 > s0:  # up through every level above k0 and below the end
            runs.append((k0, [(lev, lev) for lev in range(k0 + 1, k1 + (k1 * delta < s1))]))
        elif s1 < s0:  # from a start on a level, the piece sits below it
            start = k0 - (s0 == k0 * delta)
            runs.append((start, [(lev, lev - 1)
                                 for lev in range(start, k1 - (k1 * delta > s1), -1)]))
        else:
            runs.append((k0, []))
    cuts = iter(place([i for i, (_, cross) in enumerate(runs) for _ in cross],
                      [lev * delta for _, cross in runs for lev, _ in cross]))
    edges, levels = [], []
    for i, (start, cross) in enumerate(runs):
        edges.append(xs[i])
        levels.append(start)
        for _, lev in cross:
            cut = next(cuts)
            edges.append(cut if cut < xs[i + 1] else xs[i + 1])
            levels.append(lev)
    edges.append(xs[-1])
    return merge_cells_loop(edges, [lev * delta for lev in levels], compact)


def merge_cells_loop(edges, values, compact):
    """Scalar oracle of ``rearrange._merge_cells`` on one line: with
    ``compact`` the zero cells of positive width at both ends join the
    tails, then ``cells_to_step_loop`` drops and joins the cells."""
    if compact:
        kept = [j for j, v in enumerate(values) if v != 0.0 and edges[j + 1] > edges[j]]
        if kept:
            edges, values = edges[kept[0]:kept[-1] + 2], values[kept[0]:kept[-1] + 1]
    return cells_to_step_loop(edges, values, TailMode.COMPACT_SUPPORT if compact
                              else TailMode.DOMAIN_ONLY)
