"""One-dimensional threshold energies, exact on step functions.

The central object is the non-local energy

    E(u, D) = double integral of  delta^p / |y-x|^(1+p)
              over {(x, y) in D^2 : |u(y) - u(x)| > delta},

whose integrand depends on u only through the integration set.  On step
functions the double integral splits over pairs of constancy intervals
and each pair has an elementary antiderivative, so the energy is exact:
for bounded intervals (a1,b1), (a2,b2) with b1 < a2,

    p = 1:  delta * log[(a2-a1)(b2-b1) / ((a2-b1)(b2-a1))]
    p > 1:  delta^p/(p(p-1)) * [(a2-b1)^(1-p) - (a2-a1)^(1-p)
                                - (b2-b1)^(1-p) + (b2-a1)^(1-p)]

Unbounded tails are the analytic limits of these expressions (the terms
containing an infinite endpoint tend to 0), never truncations.  Touching
intervals whose values differ by more than delta make the energy +inf.

The energy of n maximal constancy runs (equal neighbours never interact,
so they are merged first) is not summed pair by pair.  Each pair energy
is a mixed second difference of the double antiderivative, so summation
by parts along a row leaves only the columns where the row's interaction
switches on or off, each weighted by the cell's energy against a
half-line (the tail case of the closed form).  With the values sorted
once, those switches come from the ends of one band of non-interacting
values per column, and the sum costs O(n log n + K) for K switches,
with K = O(n) on monotone and unimodal staircases, against n^2/2 pairs.
A zero tail on the right is the last column of that sum, closed by the
half-line past +inf, whose energy is 0; the pairs of a zero tail on the
left are one vector term.  The step function alone decides its tails
and its default domain (``StepFunction1D.domain``, :func:`step_cells`).
A unimodal staircase, as every line section of the catalog's fields is,
needs no sort: a row interacts with at most two ranges of cells, found by
arithmetic, and each range is one closed-form term (:func:`_unimodal_sums`).
Steps on the delta-grid are summed on their integer levels, by ranges if
unimodal, as every vertical segmentation of a tent or a ramp is, and by
parts otherwise (:func:`_level_sum`, which :func:`step_energy` and
``rearrange.step_hostility`` share).

Interaction uses the strict inequality |u(y)-u(x)| > delta.  Jumps equal
to delta do NOT interact; that is what keeps staircases with consecutive
delta-multiple values at finite energy, and it is load-bearing for every
convergence experiment in this package.  Since values like k*delta carry
float rounding of about one ulp, the comparison applies a relative guard
of 1e-12: differences below delta*(1 + 1e-12) are treated as "equal to
delta", i.e. not interacting.  Inputs are expected to be exact multiples
of delta, for which the guard changes nothing mathematically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Interval, PiecewiseAffine1D, StepFunction1D, TailMode

INTERACTION_GUARD = 1e-12

INF = math.inf


def _on_level(v, k, delta: float):
    """Whether v sits on grid level k, within the guard of the interaction
    threshold, elementwise; the guard's max(|v|, delta) is an or, so scalar
    calls skip numpy's cost."""
    d = abs(v - k * delta)
    return (d <= INTERACTION_GUARD * abs(v)) | (d <= INTERACTION_GUARD * delta)


class OverlappingIntervals(ValueError):
    """The two intervals of a pair energy have intersecting interiors."""


class DomainMismatch(ValueError):
    """Requested domain is not contained in the function's domain."""


class UnsupportedCombination(ValueError):
    """Energy not defined for this input type / exponent combination."""


def _check_delta(delta: float):
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _check_p(p: float):
    if not 1.0 <= p < INF:
        raise ValueError(f"p must be finite and >= 1, got {p}")


@dataclass(frozen=True)
class EnergyParams:
    """Finite threshold delta > 0 and finite kernel exponent p >= 1."""

    delta: float
    p: float = 1.0

    def __post_init__(self):
        _check_delta(self.delta)
        _check_p(self.p)

    @property
    def threshold(self) -> float:
        """Effective strict-interaction threshold including the float guard."""
        return self.delta * (1.0 + INTERACTION_GUARD)


# ---------------------------------------------------------------------------
# pair energies
# ---------------------------------------------------------------------------

def pair_cell_energy(i1: Interval, i2: Interval, params: EnergyParams) -> float:
    """Exact kernel integral over i1 x i2 for disjoint intervals.

    Returns +inf when the intervals touch (shared endpoint), since the
    kernel is not integrable across the contact point for any p >= 1, and
    for two unbounded intervals at p = 1.
    """
    a1, b1, a2, b2 = i1.lo, i1.hi, i2.lo, i2.hi
    if (a2, b2) < (a1, b1):
        a1, b1, a2, b2 = a2, b2, a1, b1
    if b1 > a2:
        raise OverlappingIntervals(f"({a1}, {b1}) and ({a2}, {b2}) overlap")
    gap = a2 - b1
    if gap == 0.0:
        return INF
    len1 = b1 - a1
    len2 = b2 - a2
    if len1 == INF:
        if len2 == INF and params.p == 1.0:
            return INF
        len1, len2 = len2, len1
    return float(_pair_energies(gap, len1, len2, params))


def _pair_energies(gap, len1, len2, params: EnergyParams, coef=None, out=None):
    """Closed-form pair energies of separated cells, vectorized.

    ``gap`` is the distance between two cells and ``len1``, ``len2`` their
    lengths.  ``len2`` may be the scalar +inf: the analytic limit for a
    cell against an unbounded tail, in which the terms containing the
    infinite endpoint vanish.  ``coef``, if given, stands for the kernel's
    constant factor (:func:`_pair_coef`), one or per pair: the pair sum
    passes it with the sign of each term.  The tail form runs in place: an
    array ``out`` receives the energies and ``gap`` may be overwritten;
    with ``out=None`` an array ``gap`` is copied first.  Numbers stay
    numbers, whose powers are libm's ``pow``: numpy's array power differs
    from it in the last bits of some values.
    """
    p = params.p
    if coef is None:
        coef = _pair_coef(params)
    if np.ndim(len2) == 0 and len2 == INF:  # the tail
        gap = np.array(gap, dtype=float) if out is None and isinstance(gap, np.ndarray) else gap
        if p == 1.0:
            h = np.log1p(np.divide(len1, gap, out=out), out=out)
        else:  # **= is in place on arrays
            h = np.add(gap, len1, out=out)
            h **= 1.0 - p
            gap **= 1.0 - p
            h = np.maximum(np.subtract(gap, h, out=out), 0.0, out=out)
        return np.multiply(h, coef, out=out)
    if p == 1.0:
        return coef * np.log1p(len1 * len2 / (gap * (gap + len1 + len2)))
    q = 1.0 - p
    brk = gap ** q - (gap + len1) ** q - (gap + len2) ** q + (gap + len1 + len2) ** q
    return coef * np.maximum(brk, 0.0)


def _pair_coef(params: EnergyParams) -> float:
    """The constant factor of the pair energies: delta at p = 1, else
    delta^p / (p (p - 1))."""
    delta, p = params.delta, params.p
    return delta if p == 1.0 else delta ** p / (p * (p - 1.0))


# ---------------------------------------------------------------------------
# step functions: cells and exact energy
# ---------------------------------------------------------------------------

def step_cells(u: StepFunction1D, domain: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Constancy cells of ``u`` restricted to ``domain``.

    Returns ``(edges, values)`` with ``len(edges) == len(values) + 1``;
    the outer edges may be infinite for a compactly supported function on
    an unbounded domain.  Either may be a read-only view of the step's own
    arrays.
    """
    bp, vals = u.breakpoints, u.values
    if u.tail_mode is TailMode.DOMAIN_ONLY and not u.support.contains(domain):
        raise DomainMismatch(
            f"domain ({domain.lo}, {domain.hi}) exceeds the function's "
            f"support ({bp[0]}, {bp[-1]})")
    # breakpoints increase strictly, so the cells meeting the open domain
    # are one run j0 .. j1-1, with cells -1 and len(vals) the zero tails of
    # a compact step, and only the run's two outer edges need clipping
    n = len(bp)
    j0 = int(np.searchsorted(bp, domain.lo, "right")) - 1
    j1 = int(np.searchsorted(bp, domain.hi, "left"))
    if j0 >= 0 and j1 < n and bp[j0] == domain.lo and bp[j1] == domain.hi:
        edges = bp[j0:j1 + 1]
    else:
        edges = np.concatenate(([max(bp[j0], domain.lo) if j0 >= 0 else domain.lo],
                                bp[j0 + 1:j1], [min(bp[j1], domain.hi) if j1 < n else domain.hi]))
    values = vals[max(j0, 0):j1]
    if j0 < 0 or j1 == n:
        values = np.concatenate(([0.0] * (j0 < 0), values, [0.0] * (j1 == n)))
    return edges, values


# the length of the pieces of a function's transitions summed apart, and
# about the rows the pair-sum engine expands at a time; bounds its scratch
# memory independently of the number of cells and of interacting pairs
_SBP_CHUNK = 1 << 14

# a slot of the pair sum expands the prefixes of its runs where it has at
# most this many runs and they average this many rows or more; below that
# a unit per run costs more than the rows it saves
_PREFIX_RUN = 8


def _first_past(past, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise, the smallest float in (lo, hi] at which ``past`` holds, for
    a predicate monotone there and true at hi, found by bisection on the
    floats' ordered integer keys down to adjacent floats.  Each round
    probes every bracket once, so an entry's answer depends on its own
    bracket only, also where rounding makes ``past`` non-monotone at the ulp
    level; a finished bracket stays put."""
    def key(x):  # float <-> order-preserving int64 key, both ways
        return x.view(np.int64) ^ ((x.view(np.int64) >> 63) & 0x7FFF_FFFF_FFFF_FFFF)

    base = key(np.asarray(lo, dtype=np.float64))
    # the answer is key base + a + w; unsigned, so no overflow
    a = np.zeros(len(base), dtype=np.uint64)
    w = (key(np.asarray(hi, dtype=np.float64)) - base).view(np.uint64)
    for _ in range(int(w.max(initial=0)).bit_length()):
        step = (w + np.uint64(1)) >> np.uint64(1)  # ceil(w / 2)
        below = ~past(key(base + (a + step).view(np.int64)).view(np.float64))
        a, w = np.where(below, a + step, a), np.where(below, w - step, step)
    return key(base + (a + w).view(np.int64)).view(np.float64)


def _bands(s, y, radius):
    """Sorted-index ranges ``[lo, hi)`` of the labels within ``radius``.

    ``s`` is sorted and nonempty; entry b covers the k with ``abs(s[k] -
    y[b]) <= radius``, evaluated in floating point exactly like every
    other interaction test.  ``searchsorted`` at ``y -+ radius`` is almost
    always exact; the float difference is monotone in ``s[k]``, so checking
    the labels on both sides of each boundary finds the rare off ones.
    Such a boundary is the count of labels below the first float past it.
    """
    n = len(s)
    out = []
    for past, guess in ((lambda v, y: v - y >= -radius,   # true from lo on
                         np.searchsorted(s, y - radius, "left")),
                        (lambda v, y: v - y > radius,     # true from hi on
                         np.searchsorted(s, y + radius, "right"))):
        bad = (guess > 0) & past(s[guess - 1], y) | (guess < n) & ~past(s[guess % n], y)
        if bad.any():
            lim = np.full(bad.sum(), INF)
            at = _first_past(lambda v, y=y[bad]: past(v, y), -lim, lim)
            guess[bad] = np.searchsorted(s, at)
        out.append(guess)
    return out


def _switch_ranges(x, radius, right, lens):
    """The rows whose interaction switches at each column of one step
    function, as one table of sorted-index ranges.

    The labels ``x`` are sorted once.  Cell c's band ``[lo[c], hi[c])``
    holds its non-interacting rows.  Equal labels have equal bands, so one
    search (:func:`_bands`) finds the bands of the distinct labels, and
    each band maps to sorted indices through the starts of the runs of
    equal labels; the last column closes with the band of all the cells.
    Adjacent cells do not interact, so consecutive bands overlap, and the
    rows that switch between columns c and c+1 are the ones each band end
    sweeps over: the lower end moving right (or the upper end moving left)
    switches rows on, the other way off.

    Returns ``(order, cells, swept, start, runs, right_s, lens_s)``: sorted
    index k is cell ``order[k]``, and slot j switches the ``abs(swept[j])``
    rows from sorted index ``start[j]`` on at the right edge of cell
    ``cells[j]``, on where ``swept[j] > 0`` and off where it is negative.
    Slots ``[0, n)`` are the lower ends in cell order and ``[n, 2 n)`` the
    upper ends, with the zero-length ones in place.  ``runs[k]`` holds where
    sorted index k starts a run of equal labels, and ``runs`` is None if no
    run has ``_PREFIX_RUN`` cells.  The sort is stable, so a run's cells are
    in order, and a band end is the same for equal labels, so a slot's range
    holds whole runs.  ``right_s`` and ``lens_s`` are the cells' right
    edges ``right`` and lengths ``lens`` in sorted order, gathered with the
    sort's own intp indices; the index tables are int32 below 2**31 cells.
    """
    n = len(x)
    index = np.int32 if n < 1 << 31 else np.intp
    order = np.argsort(x, kind="stable")
    keys = x[order]
    runs = np.empty(n, dtype=bool)
    runs[0] = True
    np.not_equal(keys[1:], keys[:-1], out=runs[1:])
    first = np.append(np.flatnonzero(runs), n)  # the runs' starts, and the end
    keys = keys[first[:-1]]
    # the bands of the distinct labels at themselves (sorted queries:
    # faster), each mapped to its runs' cells and freed in turn
    bands = _bands(keys, keys, radius)
    del keys
    size = np.diff(first)
    if size.max() < _PREFIX_RUN:
        runs = None
    lo, hi = np.empty(n, dtype=index), np.empty(n, dtype=index)
    for band in (lo, hi):
        band[order] = first[bands.pop(0)].repeat(size)
    del first, size
    right_s, lens_s = right[order], lens[order]
    order = order.astype(index)
    swept, start = np.empty(2 * n, dtype=order.dtype), np.empty(2 * n, dtype=order.dtype)
    for band, close, at, sign in ((lo, 0, slice(0, n), 1), (hi, n, slice(n, None), -1)):
        nxt = np.roll(band, -1)
        nxt[-1] = close
        swept[at] = sign * (nxt - band)  # signed: > 0 switches on
        start[at] = np.minimum(band, nxt, out=nxt)
    return order, np.tile(np.arange(n, dtype=order.dtype), 2), swept, start, runs, right_s, lens_s


def _ragged_arange(counts):
    """0, 1, .., counts[0]-1, 0, 1, .., counts[1]-1, ..."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _prefix_units(order, cells, swept, start, ends, runs):
    """The nonempty slots of :func:`_switch_ranges` as units to expand.

    A slot of at most ``_PREFIX_RUN`` runs that average ``_PREFIX_RUN``
    rows or more becomes one unit per run: the prefix of the run's cells
    that come before the slot's column, found for every run by one
    ``searchsorted`` on the sorted (run, cell) keys.  Any other slot stays
    one unit of all its rows.  Returns ``(lo, end, flat, exact, cells,
    swept)``: unit u expands the sorted indices from ``lo[u]`` on to the
    expanded positions ``[end[u], end[u + 1])``, the first of them at flat
    transition ``flat[u]``, for the column ``cells[u]`` with the sign of
    ``swept[u]``; ``exact[u]`` holds if the unit keeps all its rows.
    """
    n = len(order)
    live = np.flatnonzero(swept)
    cells, swept, start, flat = cells[live], swept[live], start[live], ends[live]
    del live
    size = np.abs(swept)
    first = np.flatnonzero(runs)
    run = np.cumsum(runs, dtype=np.intp)  # wide: run * n below
    run -= 1
    r = run[start]  # a slot's runs are r .. r + per - 1
    per = run[start + size - 1] - r + 1
    exact = (size >= _PREFIX_RUN * per) & (per <= _PREFIX_RUN)
    nu = np.where(exact, per, 1)
    if len(nu) < nu.sum():  # slots of several long runs: a unit for each
        r = np.repeat(r, nu) + _ragged_arange(nu)
        cells, swept, start, size, flat, exact = (
            np.repeat(v, nu) for v in (cells, swept, start, size, flat, exact))
    lo = np.where(exact, first[r], start)
    run *= n
    run += order  # the sorted (run, cell) keys
    end = np.where(exact, np.searchsorted(run, r * n + cells), start + size)
    end -= lo
    flat += lo - start
    return lo, np.concatenate(([0], np.cumsum(end))), flat, exact, cells, swept


def _segment_sums(v, counts):
    """``np.sum`` of each of the consecutive segments of ``v`` with the
    given lengths, rounded bit for bit like a lone ``np.sum`` of it.

    A few segments are summed one at a time.  Many go through one
    ``np.add.reduceat``, which adds a segment's first entry to numpy's
    pairwise sum of the rest, so each segment is led by an inserted 0.0.
    """
    if len(counts) <= 8:
        ends = np.cumsum(counts).tolist()
        return np.array([np.add.reduce(v[a:b]) for a, b in zip([0] + ends[:-1], ends)],
                        dtype=float)
    starts = counts.cumsum() - counts
    return np.add.reduceat(np.insert(v, starts, 0.0), starts + np.arange(len(counts)))


def _jumps(x, radius) -> bool:
    """Whether two adjacent labels of ``x`` differ by more than ``radius``,
    compared ``_SBP_CHUNK`` neighbours at a time up to the first such jump."""
    for a in range(0, len(x) - 1, _SBP_CHUNK):
        gap = np.subtract(x[a + 1:a + _SBP_CHUNK + 1], x[a:min(a + _SBP_CHUNK, len(x) - 1)])
        if np.any(np.abs(gap, out=gap) > radius):
            return True
    return False


def _pair_sum(edges, x, radius, params) -> float:
    """Sum of pair energies over ordered pairs of interacting cells of one
    step function.

    The function's ``len(x) + 1`` ``edges`` and its labels ``x`` are as
    :func:`step_cells` returns them.  A label is any per-cell number
    (values, or integer grid levels).  Cells i and j interact where
    ``abs(x[i] - x[j]) > radius``, the one predicate used by every check
    below.  A function with two interacting adjacent cells sums to +inf;
    that test (:func:`_jumps`) compares neighbours ``_SBP_CHUNK`` at a time
    and stops at the first jump.  Each run of equal adjacent labels is then
    one cell, since equal labels never interact: n below counts runs.

    Every pair energy is a mixed second difference of the kernel's double
    antiderivative.  With H(i, b) the energy of cell i against the
    half-line right of edge b (``_pair_energies(gap, len, inf)``) and
    I(i, j) the interaction indicator, Abel summation along row i of a
    function of n cells gives

        sum_{j >= i+2} I(i, j) (H(i, j) - H(i, j+1))
            = sum_{b = i+2}^{n} (I(i, b) - I(i, b-1)) H(i, b),

    with I(i, n) = 0.  The differences are nonzero only where row i
    switches on or off.  The labels are sorted once; over them the
    non-interacting rows of each column form one band, the same for equal
    labels and searched once for each distinct label (:func:`_bands`), and
    with no two adjacent cells interacting, the rows that switch are two
    sorted-index ranges per column (:func:`_switch_ranges`), of which the
    rows i <= b-2, before the column, are kept.  The sort is stable, so
    equal labels lie in runs in cell order, and a band end sweeps whole
    runs, so the kept rows of a run are a prefix of it; one
    ``searchsorted`` on the sorted (run, cell) keys finds every prefix
    (:func:`_prefix_units`).  A slot of long runs, as on staircases that
    revisit their levels, expands only those prefixes, and a slot of short
    runs all its rows, which costs less than a search per run.  One loop
    body serves both: a step expands its units' rows, gathers their edges
    from copies in sorted order, and, only if one of its units is a slot of
    short runs, drops the rows at or past their column: those whose gap to
    the column's edge is not positive, as the edges increase strictly.  The
    kept rows come in sorted order, slot by slot, and a step keeps about
    ``_SBP_CHUNK`` / 2 of them: an input with runs expands that many rows
    a step, and one without expands twice as many and drops about half.
    The cost is O(n log n + kept rows + rows of short-run slots), and the
    memory O(n + chunk).
    A row whose interacting run is thin against its gap subtracts nearly
    equal H terms: the error relative to that run's energy grows like
    eps * gap / run length.

    A right zero tail is the last column like any other: the closing
    half-line past its +inf edge has zero energy at every p.  A left zero
    tail, an infinitely long row, pairs with the cells 2 .. n-1 in one
    vector term instead; the right tail has its label, so it drops out.
    The transitions are cut into pieces of ``_SBP_CHUNK``, every piece and
    the tail term are summed like a lone ``np.sum`` (:func:`_segment_sums`),
    and the parts are added with math.fsum.
    """
    x = np.asarray(x, dtype=float)
    if _jumps(x, radius):  # adjacent interacting cells diverge
        return INF
    keep = np.append(True, x[1:] != x[:-1])  # the first cell of each run of equal labels
    if not keep.all():  # a run is one cell: equal labels never interact
        x, edges = x[keep], edges[np.append(keep, True)]
    right, lens = edges[1:], np.diff(edges)  # per cell
    parts = []
    if len(x) and edges[0] == -INF:  # a left zero tail, then the other cells
        col = 2 + np.flatnonzero(np.abs(x[2:] - x[0]) > radius)
        gap, len1 = edges[col], lens[col]
        gap -= right[0]
        parts.append(np.add.reduce(_pair_energies(gap, len1, INF, params, out=len1)))
        del col, gap, len1
        x, right, lens = x[1:], right[1:], lens[1:]
    if len(x):
        order, cells, swept, start, runs, right_s, lens_s = _switch_ranges(x, radius, right, lens)
        del lens
        # slot j covers the flat transitions [ends[j], ends[j + 1]); int32
        # below 2**31 of them
        ends = np.zeros(len(swept) + 1, dtype=np.intp)
        np.abs(swept, out=ends[1:])
        np.cumsum(ends, out=ends)
        if ends[-1] < 1 << 31:
            ends = ends.astype(np.int32)
        # the transitions in pieces of _SBP_CHUNK
        p0 = _SBP_CHUNK * np.arange(-(-int(ends[-1]) // _SBP_CHUNK))
        sums = np.zeros(len(p0))
        # the units to expand, and the expanded rows before each piece and
        # after the last: the slots and all their rows, unless runs are long;
        # a step expands a window of them, so that it keeps about
        # _SBP_CHUNK / 2: expand and filter keeps about half its rows,
        # prefixes keep all
        unit_lo, unit_end, at = start, ends, np.append(p0, ends[-1])
        exact, window = np.broadcast_to(False, swept.shape), _SBP_CHUNK  # every slot filters
        if runs is not None and ends[-1]:
            unit_lo, unit_end, flat, exact, cells, swept = _prefix_units(
                order, cells, swept, start, ends, runs)
            u = np.searchsorted(flat, at, "right") - 1
            at = unit_end[u] + np.clip(at - flat[u], 0, unit_end[u + 1] - unit_end[u])
            window = max(_SBP_CHUNK // 2, 1)
            del flat, u
        del runs, start
        # the pieces in groups of those starting in one window
        g0 = np.flatnonzero(np.diff(at[:-1] // window, prepend=-1))
        g1 = np.append(g0, len(p0))[1:]
        c0, c1 = at[g0], at[g1]
        # the units a group's window [c0, c1) meets, zero-length ones between
        j0, j1 = np.searchsorted(unit_end, c0, "right") - 1, np.searchsorted(unit_end, c1, "left")
        coef = _pair_coef(params)  # signed per unit below: a row switching on adds
        kept_all = np.diff(at)  # each piece's expanded rows
        del order
        # a step's arrays, kept across steps: fresh ones of this size are
        # trimmed from the heap and faulted in again at every step; take in
        # "clip" mode writes them unbuffered, and every index is in range
        most = int(np.max(c1 - c0, initial=0))
        ar, gap_b, len_b, scale_b = np.arange(most), *(np.empty(most) for _ in range(3))
        for a, b, c0, c1, j0, j1 in zip(*(v.tolist() for v in (g0, g1, c0, c1, j0, j1))):
            first = unit_end[j0:j1]
            cnt = np.minimum(unit_end[j0 + 1:j1 + 1], c1) - np.maximum(first, c0)
            # the expanded sorted indices, as intp: int32 ones are converted by every take
            k = (np.subtract(unit_lo[j0:j1], first, dtype=np.intp) + c0).repeat(cnt)
            k += ar[:len(k)]
            gap = right[cells[j0:j1]].repeat(cnt)
            gap -= right_s.take(k, out=len_b[:len(k)], mode="clip")
            scale = np.copysign(coef, swept[j0:j1]).repeat(cnt)
            kept = kept_all[a:b]
            # units of short runs: keep the rows before their column, which
            # are the ones with a positive gap, as edges increase strictly
            if not exact[j0:j1].all():
                pick = np.flatnonzero(gap > 0.0)
                k = k.take(pick)
                gap = gap.take(pick, out=gap_b[:len(k)], mode="clip")
                scale = scale.take(pick, out=scale_b[:len(k)], mode="clip")
                kept = np.diff(pick.searchsorted(at[a:b + 1] - c0))
            len1 = lens_s.take(k, out=len_b[:len(k)], mode="clip")
            h = _pair_energies(gap, len1, INF, params, scale, out=len1)
            sums[a:b] = _segment_sums(h, kept)
        parts.extend(sums.tolist())
    return 2.0 * math.fsum(parts)


def _unimodal_sums(edges, levels, counts, params) -> np.ndarray:
    """Energies at radius 1 of lines of integer levels laid end to end, as a
    sectioning pass's ``_cells`` yields them: line f has ``counts[f] >= 1``
    cells and ``counts[f] + 1`` edges.

    A line is unimodal if every cell k lies on level T - |k - m| for its
    top cell m on level T, as every section of the catalog's fields does.
    Row i on level a then meets level a again at r = m + T - a, on the
    falling side (r = i from the top on).  Of the cells past i + 1, only
    r - 1, r and r + 1 lie within one level of a, so row i interacts with
    the two ranges [i + 2, r - 1) and [r + 2, end), either of which may be
    empty.  A row's energy against a range is one closed-form pair energy
    against the union of the range's cells (:func:`_pair_energies`), in
    the tail form where the row is a left zero tail (the lengths swapped)
    or the range ends in a right zero tail; both tails sit on level 0, so
    never both.  So a line's energy is a sum of positive terms, with no sort
    and no half-line differences.  Each range's terms of a line are summed
    like a lone ``np.sum`` (:func:`_segment_sums`), so that the line's bits
    do not depend on its block.  A line that is not unimodal (a jump, which
    diverges, a valley, or ulp noise on a tensor tent's top) takes
    :func:`_pair_sum` alone.
    """
    counts = np.asarray(counts, dtype=np.intp)
    end = np.cumsum(counts)
    start = end - counts
    line = np.repeat(np.arange(len(counts)), counts)
    i = np.arange(len(levels))
    top = np.maximum.reduceat(levels, start)
    below = top[line] - levels
    # a unimodal line's top cell is as far from its first cell as it lies above it
    peak = np.repeat(start + (top - levels[start]).astype(np.intp), counts)
    ok = np.logical_and.reduceat(below == np.abs(i - peak), start)
    # as edge indices: line f's cell k has the edges k + f and k + f + 1
    i += line
    r = peak + line + below.astype(np.intp)
    stop = np.repeat(end + np.arange(len(counts)), counts)
    del line, below, peak
    live, out = np.repeat(ok, counts), np.zeros(len(counts))
    for lo, hi in ((i + 2, np.minimum(r - 1, stop)), (r + 2, stop)):  # each row's two ranges
        keep = (lo < hi) & live
        row, lo, hi = i[keep], lo[keep], hi[keep]
        gap, len2 = edges[lo], edges[hi]
        len2 -= gap
        len1 = edges[row + 1]
        gap -= len1
        len1 -= edges[row]
        h = np.empty(len(gap))
        tail = np.isinf(len1) | np.isinf(len2)
        h[tail] = _pair_energies(gap[tail], np.minimum(len1[tail], len2[tail]), INF, params)
        fin = ~tail
        h[fin] = _pair_energies(gap[fin], len1[fin], len2[fin], params)
        out += _segment_sums(h, np.add.reduceat(keep, start, dtype=np.intp))
    out *= 2.0
    for f in np.flatnonzero(~ok).tolist():
        out[f] = _pair_sum(edges[start[f] + f:end[f] + f + 1], levels[start[f]:end[f]], 1, params)
    return out


def _level_sum(edges, levels, radius, params) -> float:
    """:func:`_pair_sum` of one step function's integer grid levels at an
    integer ``radius``, as a unimodal line's ranges at radius 1.

    The line is unimodal if its top cell m lies T - levels[0] cells in, and
    its levels step up by one to m and down by one after it, the test of
    :func:`_unimodal_sums` read off the steps; a line that fails takes
    :func:`_pair_sum` with nothing of the test kept.
    """
    m = int(levels.max() - levels[0])  # the top cell of a unimodal line
    if radius == 1 and m < len(levels) and levels[m] == levels[0] + m \
            and (np.diff(levels[:m + 1]) == 1.0).all() and (np.diff(levels[m:]) == -1.0).all():
        return float(_unimodal_sums(edges, levels, [len(levels)], params)[0])
    return _pair_sum(edges, levels, radius, params)


def step_energy(u: StepFunction1D, domain: Interval | None = None,
                params: EnergyParams = None) -> float:
    """Exact non-local energy of a step function on a domain.

    The sum runs over ordered pairs of distinct cells whose values differ
    by more than delta, so every unordered pair is counted twice, matching
    the symmetric double integral.  Returns +inf exactly when two touching
    cells interact, tested on the values first.  Values on their integer
    levels times delta, within the guard (``_on_level``) and below 2**49
    levels, then take :func:`_level_sum`, as in ``step_hostility``; on
    exact multiples of delta, interaction at radius 1 on the levels is the
    same set as on the values.  A unimodal line there is summed per interaction range, each
    range's terms like a lone ``np.sum``; any other step, off-grid ones
    included, by parts, with partial sums over fixed-size chunks
    accumulated with math.fsum.  Either way the result is reproducible bit
    for bit.
    """
    if params is None:
        raise TypeError("params is required")
    if domain is None:
        domain = u.domain
    edges, vals = step_cells(u, domain)
    if _jumps(vals, params.threshold):  # before any full-length work
        return INF
    # values within the guard of levels of magnitude below 2**49 are on the
    # grid, as step_hostility reads them.  On exact ones the levels give the
    # float set: cells one level apart differ by some adjacent pair's float
    # difference, which passed the test, and two or more apart by more than
    # the threshold
    levels = np.rint(vals / params.delta)
    if -2.0 ** 49 < levels.min() and levels.max() < 2.0 ** 49 \
            and _on_level(vals, levels, params.delta).all():
        return _level_sum(edges, levels, 1, params)
    del levels
    return _pair_sum(edges, vals, params.threshold, params)


# ---------------------------------------------------------------------------
# local limit energy
# ---------------------------------------------------------------------------

def local_energy(u: PiecewiseAffine1D | StepFunction1D, p: float,
                 extended: bool = False) -> float:
    """The local energy: integral of |u'|^p for p > 1, total variation for p = 1.

    Step functions have infinite local energy for p > 1 (they are not
    Sobolev); pass ``extended=True`` to get +inf instead of an error.
    """
    _check_p(p)
    if isinstance(u, PiecewiseAffine1D):
        total = 0.0
        for (x0, y0), (x1, y1) in zip(u.nodes, u.nodes[1:]):
            slope = (y1 - y0) / (x1 - x0)
            total += abs(slope) ** p * (x1 - x0)
        return total
    if isinstance(u, StepFunction1D):
        if p > 1.0:
            if extended:
                return INF
            raise UnsupportedCombination(
                "step functions have infinite |u'|^p energy for p > 1; "
                "pass extended=True for the +inf convention")
        pad = int(u.tail_mode is TailMode.COMPACT_SUPPORT)  # the zero tails are cells too
        return math.fsum(np.abs(np.diff(np.pad(u.values, pad))))
    raise UnsupportedCombination(f"unsupported input type {type(u).__name__}")
