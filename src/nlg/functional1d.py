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
so they are merged first) is not summed pair by pair.  A pair energy is
additive over adjacent cells, so a row's energy against a maximal run of
the cells it interacts with is one positive closed-form term, the tail
form where the row or the run is a zero tail.  The runs of a row depend
only on its label: with the distinct labels sorted once, each label's
band of non-interacting labels is one rank range, and the runs start and
end where the band ends of adjacent cells sweep over the label, so the
sum costs O(n log n + E log E + T) for E swept labels and T (row, run)
terms, against n^2/2 pairs (:func:`_pair_sum`).  The step function alone
decides its tails and its default domain (``StepFunction1D.domain``,
:func:`step_cells`).  A unimodal staircase, as every line section of the
catalog's fields is, needs no sort: a row interacts with at most two
ranges of cells, found by arithmetic (:func:`_unimodal_sums`).  Steps on
the delta-grid are summed on their integer levels, by ranges if
unimodal, as every vertical segmentation of a tent or a ramp is, and by
runs otherwise (:func:`_level_sum`, which :func:`step_energy` and
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


def _pair_energies(gap, len1, len2, params: EnergyParams):
    """Closed-form pair energies of separated cells, vectorized.

    ``gap`` is the distance between two cells and ``len1``, ``len2`` their
    lengths.  ``len2`` may be the scalar +inf: the analytic limit for a
    cell against an unbounded tail, in which the terms containing the
    infinite endpoint vanish.  Numbers stay numbers, whose powers are
    libm's ``pow``: numpy's array power differs from it in the last bits
    of some values.
    """
    p, q = params.p, 1.0 - params.p
    if np.ndim(len2) == 0 and len2 == INF:  # the tail
        h = np.log1p(len1 / gap) if p == 1.0 else np.maximum(gap ** q - (gap + len1) ** q, 0.0)
    elif p == 1.0:
        h = np.log1p(len1 * len2 / (gap * (gap + len1 + len2)))
    else:
        h = gap ** q - (gap + len1) ** q - (gap + len2) ** q + (gap + len1 + len2) ** q
        h = np.maximum(h, 0.0)
    return _pair_coef(params) * h


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


# the cells the adjacent-jump test compares at a time, and about the
# (row, run) terms a group of the range sum evaluates and sums at a time;
# bounds their scratch memory independently of the number of cells and of
# interacting pairs
_SBP_CHUNK = 1 << 13


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


def _ragged_arange(counts):
    """0, 1, .., counts[0]-1, 0, 1, .., counts[1]-1, ..."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


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


def _run_energies(gap, len1, len2, params):
    """Energies of rows of lengths ``len1`` against runs of adjacent cells of
    total lengths ``len2``, ``gap`` apart.  A pair energy is additive over
    adjacent cells, so each is one closed-form pair energy
    (:func:`_pair_energies`), in the tail form where the row is a left zero
    tail (the lengths swapped) or the run ends in a right zero tail."""
    tail = np.isinf(len1) | np.isinf(len2)
    if not tail.any():
        return _pair_energies(gap, len1, len2, params)
    h = np.empty(len(gap))
    h[tail] = _pair_energies(gap[tail], np.minimum(len1[tail], len2[tail]), INF, params)
    fin = ~tail
    h[fin] = _pair_energies(gap[fin], len1[fin], len2[fin], params)
    return h


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

    Row i on label a interacts with the cells j >= i + 2 outside a's band
    of non-interacting labels; cells i and i + 1 lie inside it, so these
    cells form maximal runs that start past i + 1, the same runs for every
    row on label a.  A pair energy is additive over adjacent cells, so row
    i's energy is one positive closed-form term per run
    (:func:`_run_energies`), with no differences to cancel.  The distinct
    labels are ranked, and each label's band is a rank range from one
    search (:func:`_bands`).  Between cells c - 1 and c the band ends of
    the two cells sweep over the labels for which a run starts at c (those
    leaving the band) or ends there (those entering it); sorted by (label,
    column), a label's events alternate, so a start's run ends at the
    label's next event, or at the last edge.  Row i takes its label's runs
    that start past i, found by one ``searchsorted``.  A left zero tail is
    row 0 with infinite length, and a run ending in a right zero tail has
    infinite length; both take the tail form.  The events number E: 2 sum
    |jump| on integer levels at an integer radius, but up to O(n^2) where a
    walk packs off-grid labels densely.  So the labels are taken in blocks
    of about 2 n events, each with the bands cut to it, and the (row, run)
    terms of a block in row groups of about ``_SBP_CHUNK`` terms, each
    group summed like a lone ``np.sum`` and the groups with math.fsum, so
    the result is reproducible bit for bit.  The cost is O(n log n + E log
    E + terms), and the memory O(n + chunk).
    """
    x = np.asarray(x, dtype=float)
    if _jumps(x, radius):  # adjacent interacting cells diverge
        return INF
    keep = np.append(True, x[1:] != x[:-1])  # the first cell of each run of equal labels
    if not keep.all():  # a run is one cell: equal labels never interact
        x, edges = x[keep], edges[np.append(keep, True)]
    del keep
    n = len(x)
    if n < 3:
        return 0.0
    index = np.int32 if n < 1 << 31 else np.int64  # the tables of cells
    labels = np.sort(x)
    labels = labels[np.append(True, labels[1:] != labels[:-1])]
    rank = np.searchsorted(labels, x).astype(index)
    lo, hi = (band.astype(index)[rank] for band in _bands(labels, labels, radius))
    span, step, m = n + 1, 2 * (n + 1), len(labels)
    del labels
    # between cells c - 1 and c each band end sweeps the labels between its
    # two places: those leaving the band start a run at c, those entering it
    # end one.  The labels go in blocks of about 2 n such events, so that
    # the scratch memory stays O(n) however many labels the ends sweep
    per = np.zeros(m + 1, dtype=np.int64)
    for band in (lo, hi):
        per += np.bincount(np.minimum(band[1:], band[:-1]), minlength=m + 1)
        per -= np.bincount(np.maximum(band[1:], band[:-1]), minlength=m + 1)
    per = np.cumsum(per[:-1])
    per = np.cumsum(per) - per  # the events of the labels before each
    blocks = np.append(np.flatnonzero(np.diff(per // (2 * n), prepend=-1)), m).tolist()
    del per
    parts = []
    for l0, l1 in zip(blocks, blocks[1:]):
        # the bands cut to the block sweep its labels alone: consecutive
        # bands overlap, so no cut band is empty above the block and the
        # next below it
        blo, bhi = np.clip(lo, l0, l1), np.clip(hi, l0, l1)
        size = np.concatenate((np.diff(blo), np.diff(bhi))).astype(np.intp)  # as repeat takes it
        first = np.concatenate((np.minimum(blo[1:], blo[:-1]), np.minimum(bhi[1:], bhi[:-1])))
        starts = np.concatenate((blo[1:] > blo[:-1], bhi[1:] < bhi[:-1]))
        del blo, bhi
        np.abs(size, out=size)
        # an event is keyed 2 (label * span + c) + (it starts a run), and a
        # column's keys are its base plus their flat indices times step
        base = np.cumsum(size, dtype=np.int64)
        base -= size
        np.subtract(first, base, out=base)
        base *= step
        col = np.arange(2, step - 2, 2)
        base[:n - 1] += col
        base[n - 1:] += col
        base += starts
        del first, starts, col
        key = base.repeat(size)
        del base
        key += np.arange(0, len(key) * step, step)
        del size
        key.sort()
        # the runs in (label, start) order: a label's events alternate, so a
        # run ends at the next event if that is its label's end (the last
        # event, a start there, is clipped to itself), else at the last edge
        at = np.flatnonzero(key & 1)
        stop = key.take(at + 1, mode="clip")
        key = key.take(at) >> 1
        del at
        stop = np.where((stop // step == key // span) & (stop % 2 == 0), (stop >> 1) % span, n)
        run_lo = edges.take(key % span)
        run_len = edges.take(stop)
        run_len -= run_lo
        del stop
        # row i takes its label's runs from the first that starts past i;
        # its k-th term, flat index before[i] + k, is run first[i] + k
        rows = np.flatnonzero((rank >= l0) & (rank < l1)).astype(index)
        row = rank.take(rows).astype(np.int64)
        row *= span
        first = np.searchsorted(key, row + rows, "right")
        row += span
        cnt = np.searchsorted(key, row)
        del row, key
        cnt -= first
        cnt = cnt.astype(index)
        before = np.cumsum(cnt, dtype=np.int64)
        before -= cnt
        first -= before
        # the rows in groups of those whose first term lies in one chunk
        before //= _SBP_CHUNK
        g = np.flatnonzero(np.append(True, before[1:] != before[:-1]))
        del before
        b = 0  # the flat index of a group's first term
        for r0, r1 in zip(g.tolist(), g[1:].tolist() + [len(rows)]):
            c = cnt[r0:r1]
            t = first[r0:r1].repeat(c)
            t += np.arange(b, b + len(t))
            b += len(t)
            right = edges.take(rows[r0:r1] + 1)
            gap = run_lo.take(t)
            gap -= right.repeat(c)
            right -= edges.take(rows[r0:r1])
            h = _run_energies(gap, right.repeat(c), run_len.take(t), params)
            parts.append(np.add.reduce(h))
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
    empty.  These are the runs of :func:`_pair_sum`, found by arithmetic
    instead of a sort, and a row's energy against one is the same term
    (:func:`_run_energies`), the tail form where the row is a left zero
    tail or the range ends in a right zero tail; both tails sit on level
    0, so never both.  Each range's terms of a line are summed like a lone
    ``np.sum`` (:func:`_segment_sums`), so that the line's bits do not
    depend on its block.  A line that is not unimodal (a jump, which
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
        h = _run_energies(gap, len1, len2, params)
        out += _segment_sums(h, np.add.reduceat(keep, start, dtype=np.intp))
    out *= 2.0
    for f in np.flatnonzero(~ok).tolist():
        out[f] = _pair_sum(edges[start[f] + f:end[f] + f + 1], levels[start[f]:end[f]], 1, params)
    return out


def _level_sum(edges, levels, radius, params) -> float:
    """The pair sum of one step function's integer grid levels at an
    integer ``radius``: a unimodal line's ranges at radius 1
    (:func:`_unimodal_sums`, with no sort), else the range sum of
    :func:`_pair_sum`.

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
    same set as on the values.  A unimodal line there is summed per
    interaction range, each range's terms like a lone ``np.sum``; any other
    step, off-grid ones included, per row and run of interacting cells
    (:func:`_pair_sum`), with partial sums over groups of about
    ``_SBP_CHUNK`` terms accumulated with math.fsum.  Either way the result
    is reproducible bit for bit.
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
