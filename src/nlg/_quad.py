"""Internal adaptive quadrature engine, in one and two dimensions.

One globally adaptive rule shared by the oracles and estimators.  A
region's cells live in one array: intervals as rows lo, hi, index in 1D,
rectangles as rows x0, x1, y0, y1 in 2D.  Each cell is evaluated on five
nodes per axis, all cells in one vectorized call of the integrand; the
composite Simpson rule on all nodes gives the value, and its difference
from the Simpson rule on the even nodes the error estimate.  Refinement
(:func:`_refine`, one loop for both dimensions) marks the smallest set
of cells holding half of the total error, so progress is guaranteed even
along discontinuity curves, and splits them: intervals into halves,
square cells into quadrants and skewed cells along their long axis only.

* :func:`adaptive_intervals_1d` -- the sum of many integrals at once,
  each interval passing its index to the integrand.  An interval with one
  infinite end is integrated in t in (0, 1] through s = end -+ (1 - t)/t,
  with the integrand taken as 0 at t = 0.
* :func:`adaptive_cells_2d` -- the integral over a rectangle.  Cells can
  be skipped wholesale through a predicate, which is how callers excise
  the diagonal band where a kernel would be singular but the integrand
  is known to vanish.
"""

from __future__ import annotations

import numpy as np

# 5x5 tensor grid on [0,1]^2.  The fine weights are the 2x2-composite
# Simpson rule on all nodes, the coarse weights the 3x3 Simpson rule on
# the even nodes.
_NODES5 = np.linspace(0.0, 1.0, 5)
_GX5, _GY5 = (g.ravel() for g in np.meshgrid(_NODES5, _NODES5, indexing="ij"))
_FINE_1D = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
_COARSE_1D = np.array([1.0, 0.0, 4.0, 0.0, 1.0]) / 6.0
_W_FINE = np.outer(_FINE_1D, _FINE_1D).ravel()
_W_COARSE = np.outer(_COARSE_1D, _COARSE_1D).ravel()

# Children of a split cell, as the rows of (x0, x1, y0, y1) moved to the
# midpoint of their axis: quadrants for square cells, halves along the
# long axis for wide and tall ones.
_QUADRANTS = ((1, 3), (0, 3), (1, 2), (0, 2))
_HALVES_X = ((1,), (0,))
_HALVES_Y = ((3,), (2,))

# interval evaluations allowed to one call of adaptive_intervals_1d
_MAX_INTERVALS = 400_000


class ToleranceNotReached(RuntimeError):
    """Adaptive refinement budget exhausted before reaching the tolerance."""

    def __init__(self, estimate: float, error_estimate: float):
        self.estimate = estimate
        self.error_estimate = error_estimate
        super().__init__(f"achieved {estimate} +- {error_estimate}")


def _refine(evaluate, split, cells, tol, max_cells, splittable=None):
    """The refinement loop of both rules.  ``evaluate(cells)`` returns the
    cells it keeps with their values and error estimates, ``split(marked)``
    the children of the marked cells, and ``splittable(cells)`` (optional)
    the cells large enough to split.  Returns ``(value, error_estimate)``;
    raises :class:`ToleranceNotReached` once ``max_cells`` cells have been
    evaluated without reaching ``tol``."""
    cells, val, err = evaluate(cells)
    n_evals = cells.shape[1]

    while True:
        total = float(np.sum(val))
        total_err = float(np.sum(err))
        refinable = err > 0.0
        if splittable is not None:
            refinable &= splittable(cells)
        if total_err <= tol or not np.any(refinable):
            return total, total_err
        if n_evals >= max_cells:
            raise ToleranceNotReached(total, total_err)
        # mark the smallest error-sorted prefix holding half the total error
        order = np.argsort(err)[::-1]
        sorted_err = err[order]
        k = int(np.searchsorted(np.cumsum(sorted_err), 0.5 * total_err)) + 1
        marked = np.zeros(len(err), dtype=bool)
        marked[order[:k]] = True
        marked &= refinable
        if not np.any(marked):
            marked = refinable & (err == np.max(err[refinable]))

        new, nval, nerr = evaluate(split(cells.compress(marked, axis=1)))
        n_evals += new.shape[1]
        keep = ~marked
        cells = np.concatenate([cells.compress(keep, axis=1), new], axis=1)
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])


def _halves(marked):
    """Children of the marked intervals: the left halves, then the right."""
    mid = 0.5 * (marked[0] + marked[1])
    return np.concatenate(([marked[0], mid, marked[2]], [mid, marked[1], marked[2]]), axis=1)


def adaptive_intervals_1d(f, lo, hi, tol: float) -> tuple[float, float]:
    """Globally adaptive sum over i of the integrals of ``f(s, i)`` over
    s in (lo[i], hi[i]).

    ``f`` maps flat numpy arrays ``s`` and integer ``i`` of one shape,
    empty ones included, to the values at those nodes.  ``lo`` and ``hi``
    are scalars or arrays of one length; at most one end of an interval
    may be infinite.
    Returns ``(value, error_estimate)``; raises :class:`ToleranceNotReached`
    if the estimate cannot be pushed below ``tol`` within
    ``_MAX_INTERVALS`` interval evaluations.
    """
    lo, hi = np.atleast_1d(*np.broadcast_arrays(lo, hi))
    side = (hi == np.inf).astype(float) - (lo == -np.inf)
    end = np.where(side > 0.0, lo, hi)

    def in_t(t, i):
        """``f`` with the half-lines' intervals in t, s = end + side (1 - t)/t,
        and 0 at their infinite end t = 0 (where ``f`` sees t = 1 instead)."""
        sd = side[i]
        x = np.where((sd == 0.0) | (t == 0.0), 1.0, t)
        s = np.where(sd == 0.0, t, end[i] + sd * ((1.0 - x) / x))
        return np.where((sd != 0.0) & (t == 0.0), 0.0, f(s, i) / (x * x))

    integrand = in_t if np.any(side) else f

    def evaluate(cells):  # fine and coarse Simpson values as in _evaluate_cells
        lo, hi, idx = cells
        w = hi - lo
        t = lo[:, None] + _NODES5[None, :] * w[:, None]
        vals = integrand(t.ravel(), np.repeat(idx.astype(np.intp), 5)).reshape(t.shape)
        fine = (vals @ _FINE_1D) * w
        return cells, fine, np.abs(fine - (vals @ _COARSE_1D) * w)

    cells = np.array([np.where(side == 0.0, lo, 0.0), np.where(side == 0.0, hi, 1.0),
                      np.arange(len(lo))])
    return _refine(evaluate, _halves, cells, tol, _MAX_INTERVALS)


def _evaluate_cells(f, cells):
    """Fine and coarse Simpson values of the cells in a ``(4, n)`` array
    with rows x0, x1, y0, y1."""
    x0, x1, y0, y1 = cells
    wx = x1 - x0
    wy = y1 - y0
    xs = x0[:, None] + _GX5[None, :] * wx[:, None]
    ys = y0[:, None] + _GY5[None, :] * wy[:, None]
    vals = np.asarray(f(xs.ravel(), ys.ravel()), dtype=float).reshape(xs.shape)
    area = wx * wy
    return (vals @ _W_FINE) * area, (vals @ _W_COARSE) * area


def _split(marked):
    """Children of the marked cells: square cells' quadrants first, then
    the halves of wide cells, then those of tall cells."""
    wx = marked[1] - marked[0]
    wy = marked[3] - marked[2]
    wide = wx > 1.8 * wy
    tall = wy > 1.8 * wx
    children = []
    for sel, moves in ((~(wide | tall), _QUADRANTS), (wide, _HALVES_X), (tall, _HALVES_Y)):
        parents = marked.compress(sel, axis=1)
        mid = 0.5 * (parents[0::2] + parents[1::2])
        for rows in moves:
            child = parents.copy()
            for r in rows:
                child[r] = mid[r // 2]
            children.append(child)
    return np.concatenate(children, axis=1)


def adaptive_cells_2d(f, x0: float, x1: float, y0: float, y1: float,
                      tol: float, *, skip=None, max_cells: int = 400_000,
                      min_size: float = 0.0,
                      initial: int = 4) -> tuple[float, float]:
    """Globally adaptive integral of ``f`` over [x0,x1]x[y0,y1].

    ``f`` must accept flat numpy arrays, empty ones included.
    ``skip(cx0, cx1, cy0, cy1)`` (vectorized over cell arrays) marks cells
    whose integral is exactly zero; they are dropped without evaluation.
    Returns ``(value, error_estimate)``; raises :class:`ToleranceNotReached`
    if the estimate cannot be pushed below ``tol`` within ``max_cells``
    cell evaluations.
    """
    def evaluate(cells):
        if skip is not None:
            cells = cells.compress(~skip(*cells), axis=1)
        fine, coarse = _evaluate_cells(f, cells)
        return cells, fine, np.abs(fine - coarse)

    def splittable(cells):
        return np.maximum(cells[1] - cells[0], cells[3] - cells[2]) > min_size

    xs = np.linspace(x0, x1, initial + 1)
    ys = np.linspace(y0, y1, initial + 1)
    cells = np.array([np.repeat(xs[:-1], initial), np.repeat(xs[1:], initial),
                      np.tile(ys[:-1], initial), np.tile(ys[1:], initial)])
    return _refine(evaluate, _split, cells, tol, max_cells, splittable)
