"""Segmentation, truncation, rearrangement, and hostility functionals.

Two parallel settings share this module:

* the discrete one: ``n`` positions holding integer species, a symmetric
  enemy list saying which species interact, and a nonincreasing weight
  per position gap ("total hostility");
* the semi-discrete one: integer-valued step functions on an interval,
  with the singular kernel as the hostility weight.

The load-bearing facts, each of which has an exhaustive or randomized
test, are that sorting an arrangement never increases its total
hostility, and that vertical segmentation plus truncation never increase
the non-local energy.  The discrete operations take one arrangement or
an ``(m, n)`` integer array of arrangements, one per row.  Their
independent oracles, the scalar ``total_hostility`` and the brute-force
minimizer, are in ``nlg.oracles``.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable

import numpy as np

from .core import (DiscreteArrangement, EnemyList, HostilityWeights, Interval,
                   PiecewiseAffine1D, StepFunction1D, TailMode, TooShort, WeightsTooShort)
from .functional1d import (EnergyParams, _check_delta, _level_sum, _on_level, _ragged_arange,
                           step_cells)
from .oracles import total_hostility  # noqa: F401 -- perfbench's tracer rebinds it here


class ValuesNotOnGrid(ValueError):
    """Step function values are not integer multiples of delta."""


class BadBounds(ValueError):
    """Invalid truncation bounds."""


# ---------------------------------------------------------------------------
# vertical segmentation and truncation
# ---------------------------------------------------------------------------

def _floor_level(v, delta: float):
    """``(k, on)``, elementwise: k the grid level of v, the nearest one if v
    sits on it within the guard of the interaction threshold, else the
    largest k with k*delta <= v, and ``on`` whether v sits on level k."""
    _check_delta(delta)
    q = np.divide(v, delta)
    if not (np.abs(q) < 2.0 ** 53).all():  # float levels are exact integers below 2**53
        raise ValueError(f"grid levels need |v/delta| < 2**53, got v = {v}, delta = {delta}")
    k = np.floor(q)
    near, floor = np.rint(q), k + ((k + 1.0) * delta <= v) - (k * delta > v)
    on = _on_level(v, near, delta)
    return np.where(on, near, floor).astype(np.int64), on | _on_level(v, floor, delta)


def grid_floor_level(v, delta: float):
    """Largest integer k with k*delta <= v, robust to float rounding;
    elementwise on an array (int64), an int for a number.

    Values within a relative INTERACTION_GUARD of a grid level count as
    sitting on it (the guard of the interaction threshold), so functions
    with values intended to be exact multiples of delta are fixed points
    of the segmentation even when k*delta rounds.
    """
    k = _floor_level(v, delta)[0]
    return k if np.ndim(v) else int(k)


_ONE_LINE = np.empty(0, dtype=np.intp)  # no joins


def _merge_cells(edges: np.ndarray, values: np.ndarray, joins: np.ndarray = _ONE_LINE,
                 compact: bool = False):
    """Steps from the raw cells of lines laid end to end, ``joins`` the
    sorted indices of the cells between lines.  A line drops its cells of
    zero width and joins runs of equal neighbours, each keeping its first
    value and its last cell's right edge; with ``compact`` the zero run at
    either end folds into the tail, and a line left empty is dropped.
    Returns ``(lines, edges, values, counts)``: the lines left, their cells
    laid end to end, ``counts[i]`` values and one more edge for line
    ``lines[i]``.  A line with edges out of order fails like public
    construction.  The arrays pass on uncopied, or as views where only one
    line's ends go, so no one may write them later."""
    lines = np.arange(len(joins) + 1)
    first, stop = lines[:1], np.array([len(values)])  # a line's first cell, one past its last
    ordered = not len(joins) and 0 < np.count_nonzero(edges[1:] > edges[:-1]) == len(values)
    if not ordered:  # drop the joins and the cells of zero width
        wide = edges[1:] != edges[:-1]
        wide[joins] = False
        cell = np.flatnonzero(wide)
        bounds = cell.searchsorted(np.concatenate(([0], joins + 1, stop)))  # in kept cells
        lines = np.flatnonzero(bounds[1:] > bounds[:-1])
        first, stop = bounds[lines], bounds[lines + 1]
        at = np.append(False, wide)  # every kept cell's right edge
        at[cell[first]] = True  # and each line's left edge
        edges, values = edges[at], values[cell]
        del wide, cell, at
    # line i's edges start at first[i] + i; a joined cell's left edge goes
    same = values[1:] == values[:-1]
    same[stop[:-1] - 1] = False
    joined = np.flatnonzero(same) + 1
    del same
    if len(joined):
        edges = np.delete(edges, joined + first.searchsorted(joined, "right") - 1)
        values = np.delete(values, joined)
        first, stop = first - joined.searchsorted(first), stop - joined.searchsorted(stop)
    if compact:  # runs are merged: a zero run at a line's end is one cell
        first = first + (values[first] == 0.0)
        stop = stop - (values[stop - 1] == 0.0)  # below first for a lone zero cell
        if len(lines) == 1:
            edges, values = edges[first[0]:stop[0] + 1], values[first[0]:stop[0]]
        else:
            n = np.maximum(stop - first, 0)
            at = first + np.arange(len(lines))  # each line's first edge
            edges = edges[_ragged_arange(n + (n > 0)) + np.repeat(at, n + (n > 0))]
            values = values[_ragged_arange(n) + np.repeat(first, n)]
    counts = stop - first
    if compact:
        lines, counts = lines[counts > 0], counts[counts > 0]
    if not ordered:
        up = edges[1:] > edges[:-1]
        end = np.cumsum(counts + 1)  # one past each line's last edge
        up[end[:-1] - 1] = True  # from one line to the next
        if np.count_nonzero(up) < len(up):  # the first line out of order raises
            i = int(end.searchsorted(np.argmin(up), "right"))
            StepFunction1D(np.split(edges, end)[i], np.split(values, np.cumsum(counts))[i])
    return lines, edges, values, counts


def _cells_to_step(edges: np.ndarray, values: np.ndarray,
                   tail_mode: TailMode) -> StepFunction1D | None:
    """The step function of one line's raw cells, merged by ``_merge_cells``;
    None when no cell has nonzero width."""
    lines, edges, values, _ = _merge_cells(edges, values)
    return StepFunction1D._of_own_arrays(edges, values, tail_mode) if len(lines) else None


# cells and their crossings computed at a time by the level-cell engine,
# so that the arithmetic on them stays in cache
_CHUNK = 1 << 15

# pieces of at least this many cells fill chunks of their own, their
# numbers broadcast; shorter ones share chunks, their numbers gathered a
# cell at a time
_LONG_PIECE = 1 << 10


def _level_cells(xs, ys, delta, crossings, join=False):
    """Raw cells ``(edges, values, first)`` of the exact vertical
    segmentation of a function monotone between its nodes ``(xs, ys)``,
    piece i's cells from ``first[i]`` on: its start cell, then one cell
    past each crossing.  A piece crosses one arithmetic run of levels k,
    judged on node values snapped to their level (``_on_level``).  A start
    cell on the level of the cell before it is left out, so that cell runs
    on to the piece's first crossing.  The cells are filled a chunk at a
    time, and ``crossings(piece, values)``, called once a chunk on its
    crossings in order, returns a new array placing each crossing of
    k*delta in its piece (one piece number, or one a crossing); the engine
    writes them into ``edges``.  A crossing lies on the value of the cell
    it opens on a rising piece, of the cell it closes on a falling one.
    The pieces where ``join`` holds cross no level: they join functions
    laid end to end, and their start cells belong to neither."""
    k, on = _floor_level(ys, delta)
    # k*delta is at or below a node, strictly below it off its level, and hi
    # is the lowest level at or above it; k + hi orders the nodes like their
    # snapped values, nodes inside one cell tied (no piece there crosses)
    hi = k + ~on
    rank = k + hi
    step = np.sign(rank[1:] - rank[:-1], dtype=float)  # 1 rising, -1 falling, 0 flat
    fall = step < 0.0
    # a piece starts on the level just right of its start node, one below
    # it if the piece falls from it; a rising piece crosses the levels
    # k0+1 .. hi1-1, a falling one hi0-1 .. k1+1
    start = k[:-1] - (fall & on[:-1])
    counts = np.maximum(np.maximum(hi[1:] - k[:-1], hi[:-1] - k[1:]) - 1, 0)
    # a start cell is kept off the level the piece before ends on, and
    # next to a join
    own = np.ones(len(counts), dtype=bool)
    np.not_equal(start[1:], start[:-1] + step[:-1] * counts[:-1], out=own[1:])
    if join is not False:
        counts[join] = 0
        own[join] = own[1:][join[:-1]] = True
    # cell c of piece i, from slot first[i] on, sits on level lev[i] +
    # step[i]*(c - first[i]); exact, as the levels are integers below 2**53
    size = counts + own
    first = size.cumsum() - size
    lev = start + step * ~own
    n = int(first[-1] + size[-1])
    values, edges = np.empty(n), np.empty(n + 1)
    edges[-1] = xs[-1]
    # a chunk of cells at a time, and the edges they open: a start cell's
    # edge is its node, every other a crossing.  A long piece fills chunks
    # of its own; short pieces go together, up to the next long one
    long = np.append(first[size >= _LONG_PIECE], n)
    a = 0
    while a < n:
        i = int(first.searchsorted(a, "right")) - 1
        end = int(first[i] + size[i])
        b = min(a + _CHUNK, end if size[i] >= _LONG_PIECE else
                int(long[long.searchsorted(a, "right")]))
        if b <= end:  # in one piece: its numbers broadcast
            cell = np.arange(a - first[i], b - first[i], dtype=float)
            cell *= step[i]
            cell += lev[i]
            np.multiply(cell, delta, out=values[a:b])
            del cell  # before the crossings' temporaries
            e = a + int(a == first[i] and own[i])
            f = e - int(fall[i])
            edges[a:e] = xs[i]
            if e < b:
                edges[e:b] = crossings(i, values[f:f + b - e])
        else:  # one piece number a cell
            i = first.searchsorted(np.arange(a, b), "right") - 1
            cell = np.arange(a, b, dtype=float)
            cell -= first[i]
            node = (cell == 0.0) & own[i]
            cell *= step[i]
            cell += lev[i]
            np.multiply(cell, delta, out=values[a:b])
            del cell
            e = np.flatnonzero(node)
            edges[e + a] = xs[i[e]]
            e = np.flatnonzero(~node)
            i = i[e]
            e += a
            edges[e] = crossings(i, values[e - fall[i]])
        a = b
    return edges, values, first


def _segment_pwa(u: PiecewiseAffine1D, delta: float) -> StepFunction1D:
    """Exact vertical segmentation of a piecewise affine function."""
    xs, ys = np.array(u.nodes).T
    slope = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
    cells = _level_cells(xs, ys, delta, lambda i, v: _pwa_crossings(xs, ys, slope, i, v))
    lines, edges, values, _ = _merge_cells(*cells[:2], compact=u.compact_support)
    if not len(lines):  # compact, and zero on every cell
        return StepFunction1D((xs[0], xs[-1]), (0.0,))
    return StepFunction1D._of_own_arrays(edges, values, TailMode.COMPACT_SUPPORT
                                         if u.compact_support else TailMode.DOMAIN_ONLY)


def _pwa_crossings(xs, ys, slope, i, values):
    """The crossings callback of ``_level_cells`` for affine pieces from the
    nodes ``(xs, ys)`` with slopes ``slope``: xs[i] + (v - ys[i]) / slope[i],
    at most xs[i + 1], for one chunk's crossings, ``i`` one piece number
    broadcast over them or one a crossing."""
    return np.minimum((values - ys[i]) / slope[i] + xs[i], xs[i + 1])


def vertical_segmentation(u, delta: float):
    """Round u down to the value grid delta*Z, pointwise.

    For a piecewise affine input the result is an exact
    :class:`StepFunction1D`; for a step function the values are floored
    in place; for a plain number or callable the floored number/callable
    is returned.
    """
    _check_delta(delta)
    if isinstance(u, PiecewiseAffine1D):
        return _segment_pwa(u, delta)
    if isinstance(u, StepFunction1D):
        return _cells_to_step(u.breakpoints, grid_floor_level(u.values, delta) * delta,
                              u.tail_mode)
    if callable(u):
        return lambda x: grid_floor_level(u(x), delta) * delta
    return grid_floor_level(float(u), delta) * delta


def clamp_values(u: StepFunction1D, lo: float, hi: float) -> StepFunction1D:
    """Truncation: clamp the values of u into [lo, hi] pointwise.

    For a compactly supported function the bounds must bracket 0, since
    the zero tails are part of the function and must stay fixed under the
    clamp.
    """
    if not lo <= hi:  # NaN fails too
        raise BadBounds(f"need lo <= hi, got ({lo}, {hi})")
    if u.tail_mode is TailMode.COMPACT_SUPPORT and not lo <= 0.0 <= hi:
        raise BadBounds("bounds must bracket 0 for a compactly supported function")
    # min(max(v, lo), hi) elementwise: an equal bound keeps v, and its sign
    values = np.where(lo > u.values, lo, u.values)
    return _cells_to_step(u.breakpoints, np.where(hi < values, hi, values), u.tail_mode)


# ---------------------------------------------------------------------------
# monotone rearrangement
# ---------------------------------------------------------------------------

def _as_rows(u) -> np.ndarray:
    """An arrangement as a one-row array, or an ``(m, n)`` integer array as
    it is: the discrete operations below take either and treat the
    arrangement as the one-row case."""
    if isinstance(u, DiscreteArrangement):
        # int64, or object for species past it: numpy would pick uint64,
        # or float64 where such species mix with negative or small ones
        try:
            return np.array([u.species], dtype=np.int64)
        except OverflowError:
            return np.array([u.species], dtype=object)
    rows = np.asarray(u)
    if rows.ndim != 2 or rows.shape[1] < 1 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"need a DiscreteArrangement or an (m, n) integer array "
                         f"with n >= 1, got shape {rows.shape} of {rows.dtype}")
    return rows


def _ranks(enemies: EnemyList, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank array of the rows (``np.unique``) and the hostility table of the
    ranks."""
    values, ranks = np.unique(rows, return_inverse=True)
    return ranks.reshape(rows.shape), enemies.table(values.tolist())


def _hostile(table: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise hostility of two rank arrays (one flat gather)."""
    return table.ravel().take(left * len(table) + right)


def _own_counts(table: np.ndarray, rows: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """own[r, d]: hostile partners of position m0[r] of rank row r at
    distance d (itself at d = 0), as integers: one gather and one
    ``bincount``."""
    m, n = rows.shape
    partner = _hostile(table, rows, rows[np.arange(m), m0][:, None]).astype(bool, copy=False)
    slot = np.arange(m)[:, None] * n + np.abs(np.arange(n) - m0[:, None])
    return np.bincount(slot[partner], minlength=m * n).reshape(m, n)


def _one_or_rows(u, rows: np.ndarray):
    """Result rows as they came in: one arrangement or an array."""
    if isinstance(u, DiscreteArrangement):
        return DiscreteArrangement(tuple(rows[0].tolist()))
    return rows


def monotone_rearrangement(u):
    """Nondecreasing rearrangement; level-set cardinalities are preserved.

    Takes a :class:`DiscreteArrangement` or an ``(m, n)`` integer array
    whose rows are arrangements, and returns the same kind.
    """
    return _one_or_rows(u, np.sort(_as_rows(u), axis=1))


def monotone_rearrangement_step(u: StepFunction1D, domain: Interval) -> StepFunction1D:
    """Nondecreasing rearrangement of a step function on a bounded domain.

    Cells are sorted by value (stably) and laid out left to right with
    their lengths preserved, so every level set keeps its measure.
    """
    if not domain.bounded:
        raise ValueError("monotone rearrangement needs a bounded domain")
    edges, vals = step_cells(u, domain)
    order = np.argsort(vals, kind="stable")
    # lengths added left to right; a sum that rounds onto or past domain.hi
    # is held there, so the few-ulp cell it would leave behind is dropped
    laid = np.append(domain.lo, np.diff(edges)[order[:-1]]).cumsum()
    new_edges = np.append(np.minimum(laid, domain.hi), domain.hi)
    return _cells_to_step(new_edges, vals[order], TailMode.DOMAIN_ONLY)


# ---------------------------------------------------------------------------
# hostility functionals
# ---------------------------------------------------------------------------

def _gap_counts(ranks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """counts[r, d] = hostile pairs x <= y with y - x = d in rank row r."""
    m, n = ranks.shape
    counts = np.empty((m, n))
    for d in range(n):
        counts[:, d] = np.count_nonzero(_hostile(table, ranks[:, :n - d], ranks[:, d:]),
                                        axis=1)
    return counts


def hostile_gap_counts(enemies: EnemyList, u) -> np.ndarray:
    """counts[d] = number of pairs x <= y with y - x = d and hostile species.

    The total hostility is the dot product of this vector with the
    weights, which lets property suites reuse one enumeration across many
    weight vectors.  An ``(m, n)`` integer array of arrangements gives an
    ``(m, n)`` array, one row of counts per row; an arrangement gives its
    one row.
    """
    rows = _as_rows(u)
    counts = _gap_counts(*_ranks(enemies, rows))
    return counts[0] if isinstance(u, DiscreteArrangement) else counts


def step_hostility(u: StepFunction1D, domain: Interval, k: int,
                   params: EnergyParams) -> float:
    """Semi-discrete total hostility of a delta-grid step function.

    The enemy list is "levels differing by at least k+1" and the weight
    is the singular kernel, so for k = 1 this coincides with the exact
    non-local energy (an identity the tests assert).  Counts both (x, y)
    and (y, x), like the symmetric double integral.
    """
    if not domain.bounded:
        raise ValueError("step hostility needs a bounded domain")
    # an integral float such as 2.0 counts; a bool, inf and nan do not
    if isinstance(k, bool) or not (isinstance(k, numbers.Real) and math.isfinite(k)
                                   and int(k) == k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    delta = params.delta
    edges, vals = step_cells(u, domain)
    levels = np.round(vals / delta)
    bad = ~_on_level(vals, levels, delta)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValuesNotOnGrid(f"value {vals[i]} at cell {i} is not a multiple of {delta}")
    # integer levels: |d| >= k+1 is |d| > k
    return _level_sum(edges, levels, k, params)


# ---------------------------------------------------------------------------
# reduction and gap formulas
# ---------------------------------------------------------------------------

def _rightmost_max(rows: np.ndarray) -> np.ndarray:
    """0-based position of each row's rightmost maximum."""
    if rows.shape[1] < 2:
        raise TooShort("reduction needs at least two positions")
    return rows.shape[1] - 1 - np.argmax(rows[:, ::-1], axis=1)


def reduce_arrangement(u):
    """Remove the rightmost occurrence of the highest species.

    Returns the shortened arrangement and the removed position (1-based,
    matching the gap formulas).  The rightmost tie-break is what makes
    reduction commute with monotone rearrangement.  An ``(m, n)`` integer
    array gives the ``(m, n - 1)`` array of reduced rows and the ``(m,)``
    array of positions.
    """
    rows = _as_rows(u)
    m0 = _rightmost_max(rows)
    keep = np.ones(rows.shape, dtype=bool)
    keep[np.arange(len(rows)), m0] = False
    reduced = rows[keep].reshape(len(rows), -1)
    if isinstance(u, DiscreteArrangement):
        return _one_or_rows(u, reduced), int(m0[0]) + 1
    return reduced, m0 + 1


def hostility_gap(weights: HostilityWeights, enemies: EnemyList, u):
    """Hostility decrease caused by one reduction, by the direct formula.

    Equals total_hostility(u) - total_hostility(reduce(u)): the removed
    position m0 drops all its own interactions, while each hostile pair
    i < m0 < j that straddled it gets one position closer, from gap g to
    g - 1.  Both are counted by gap and dotted with the weights.  An
    ``(m, n)`` integer array gives the ``(m,)`` array of gaps.
    """
    rows = _as_rows(u)
    m, n = rows.shape
    if n < 2:
        raise TooShort("hostility gap needs at least two positions")
    if len(weights) < n:
        raise WeightsTooShort(f"need weights for gaps 0..{n - 1}, got {len(weights)}")
    h = np.asarray(weights.h[:n])
    ranks, table = _ranks(enemies, rows)
    m0 = _rightmost_max(rows)
    # own[r, d]: hostile partners of the removed position at distance d
    own = _own_counts(table, ranks, m0)
    # straddle[r, g]: hostile pairs i < m0 < i + g, for g = 2 .. n - 1
    straddle = np.zeros((m, n))
    at, m0 = np.arange(n), m0[:, None]
    for g in range(2, n):
        i = at[:n - g]
        across = (i < m0) & (i + g > m0)
        straddle[:, g] = np.count_nonzero(
            _hostile(table, ranks[:, :n - g], ranks[:, g:]) & across, axis=1)
    # row sums, not BLAS, so that a row's gap does not depend on its batch
    gap = (own * h).sum(axis=1) \
        - (straddle[:, 2:] * (h[1:-1] - h[2:])).sum(axis=1)
    return float(gap[0]) if isinstance(u, DiscreteArrangement) else gap


def left_right_gap(weights: HostilityWeights, left: Iterable[int],
                   right: Iterable[int]) -> float:
    """Closed-form gap for positions of the top species block.

    With L and R the gaps to the same-block members on each side of the
    removed position, the value is
    h(0) + sum h(l) + sum h(r) - sum over LxR of [h(l+r-1) - h(l+r)],
    and it is bounded by the first |L|+|R|+1 weights (an inequality the
    acceptance suite checks exhaustively).
    """
    L = sorted(set(int(v) for v in left))
    R = sorted(set(int(v) for v in right))
    if any(v < 1 for v in L + R):
        raise ValueError("gap sets must contain positive integers")
    needed = max([0] + L + R + [(max(L) + max(R)) if L and R else 0])
    if needed > len(weights) - 1:
        raise WeightsTooShort(f"need weights up to gap {needed}, got {len(weights)}")
    h = weights.h
    total = h[0] + math.fsum(h[v] for v in L) + math.fsum(h[v] for v in R)
    cross = math.fsum(h[a + b - 1] - h[a + b] for a in L for b in R)
    return total - cross

