"""Internal adaptive quadrature engines.

Two small workhorses shared by the oracles and estimators:

* :func:`adaptive_simpson` -- classic 1D adaptive Simpson with Richardson
  error control, robust to mild endpoint singularities through geometric
  refinement.
* :func:`adaptive_cells_2d` -- globally adaptive tensor-product rule on a
  rectangle.  Each cell carries a 5x5 grid evaluated in one vectorized
  call; the 3x3 Simpson rule on the even nodes against the composite
  Simpson rule on the four quadrants gives the value and its error
  estimate.  The cells live in one ``(4, n)`` array with rows x0, x1,
  y0, y1.  Refinement marks the smallest set of cells holding half of
  the total error (so progress is guaranteed even along discontinuity
  curves), splitting skewed cells along their long axis only.  Cells can
  be skipped wholesale through a predicate, which is how callers excise
  the diagonal band where a kernel would be singular but the integrand
  is known to vanish.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float) -> float:
    """Adaptive Simpson integral of ``f`` over [a, b], absolute tolerance,
    halving at most 48 times."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, 48)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        return left + right
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


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


class BudgetExhausted(Exception):
    """Raised by :func:`adaptive_cells_2d` when the cell budget runs out."""

    def __init__(self, value: float, error_estimate: float):
        self.value = value
        self.error_estimate = error_estimate
        super().__init__(f"cell budget exhausted; estimate {value} +- {error_estimate}")


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
    Returns ``(value, error_estimate)``; raises :class:`BudgetExhausted`
    if the estimate cannot be pushed below ``tol`` within ``max_cells``
    cell evaluations.
    """
    def evaluate(cells):
        if skip is not None:
            cells = cells.compress(~skip(*cells), axis=1)
        fine, coarse = _evaluate_cells(f, cells)
        return cells, fine, np.abs(fine - coarse)

    xs = np.linspace(x0, x1, initial + 1)
    ys = np.linspace(y0, y1, initial + 1)
    cells, val, err = evaluate(np.array([
        np.repeat(xs[:-1], initial), np.repeat(xs[1:], initial),
        np.tile(ys[:-1], initial), np.tile(ys[1:], initial)]))
    n_evals = cells.shape[1]

    while True:
        total = float(np.sum(val))
        total_err = float(np.sum(err))
        refinable = err > 0.0
        if min_size > 0.0:
            refinable &= np.maximum(cells[1] - cells[0], cells[3] - cells[2]) > min_size
        if total_err <= tol or not np.any(refinable):
            return total, total_err
        if n_evals >= max_cells:
            raise BudgetExhausted(total, total_err)
        # mark the smallest error-sorted prefix holding half the total error
        order = np.argsort(err)[::-1]
        sorted_err = err[order]
        k = int(np.searchsorted(np.cumsum(sorted_err), 0.5 * total_err)) + 1
        marked = np.zeros(len(err), dtype=bool)
        marked[order[:k]] = True
        marked &= refinable
        if not np.any(marked):
            marked = refinable & (err == np.max(err[refinable]))

        new, nval, nerr = evaluate(_split(cells.compress(marked, axis=1)))
        n_evals += new.shape[1]
        keep = ~marked
        cells = np.concatenate([cells.compress(keep, axis=1), new], axis=1)
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
