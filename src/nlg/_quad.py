"""Internal adaptive quadrature engines.

Two small workhorses shared by the oracles and estimators:

* :func:`adaptive_simpson` -- classic 1D adaptive Simpson with Richardson
  error control, robust to mild endpoint singularities through geometric
  refinement.
* :func:`adaptive_cells_2d` -- globally adaptive tensor-product rule on a
  rectangle.  Each cell carries a 5x5 grid evaluated in one vectorized
  call; the 3x3 Simpson rule on the even nodes against the composite
  Simpson rule on the four quadrants gives the value and its error
  estimate.  Refinement marks the smallest set of cells holding half of
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


# 5x5 tensor grid on [0,1]^2; the even nodes carry the coarse 3x3 Simpson
# rule, all nodes the 2x2-composite Simpson rule.
_NODES5 = np.linspace(0.0, 1.0, 5)
_GX5, _GY5 = np.meshgrid(_NODES5, _NODES5, indexing="ij")
_GX5 = _GX5.ravel()
_GY5 = _GY5.ravel()
_W3 = np.array([1.0, 4.0, 1.0]) / 6.0


def _weights_25():
    coarse, fine = np.zeros((5, 5)), np.zeros((5, 5))
    coarse[::2, ::2] = np.outer(_W3, _W3)
    for di in (0, 2):
        for dj in (0, 2):
            fine[di:di + 3, dj:dj + 3] += np.outer(0.25 * _W3, _W3)
    return coarse.ravel(), fine.ravel()


_W_COARSE, _W_FINE = _weights_25()


def _simpson_cell(f, x0, x1, y0, y1):
    """Plain 3x3 Simpson estimate on one cell (pilot use only)."""
    xs = x0 + np.repeat(_NODES5[::2], 3) * (x1 - x0)
    ys = y0 + np.tile(_NODES5[::2], 3) * (y1 - y0)
    vals = np.asarray(f(xs, ys), dtype=float)
    w = np.outer(_W3, _W3).ravel()
    return float(vals @ w) * (x1 - x0) * (y1 - y0)


class BudgetExhausted(Exception):
    """Raised by :func:`adaptive_cells_2d` when the cell budget runs out."""

    def __init__(self, value: float, error_estimate: float):
        self.value = value
        self.error_estimate = error_estimate
        super().__init__(f"cell budget exhausted; estimate {value} +- {error_estimate}")


def _evaluate_cells(f, x0, x1, y0, y1):
    """Vectorized coarse/fine values and error estimates for cell arrays."""
    wx = x1 - x0
    wy = y1 - y0
    xs = x0[:, None] + _GX5[None, :] * wx[:, None]
    ys = y0[:, None] + _GY5[None, :] * wy[:, None]
    vals = np.asarray(f(xs.ravel(), ys.ravel()), dtype=float).reshape(xs.shape)
    area = wx * wy
    fine = (vals @ _W_FINE) * area
    coarse = (vals @ _W_COARSE) * area
    return fine, np.abs(fine - coarse)


def adaptive_cells_2d(f, x0: float, x1: float, y0: float, y1: float,
                      tol: float, *, skip=None, max_cells: int = 400_000,
                      min_size: float = 0.0,
                      initial: int = 4) -> tuple[float, float]:
    """Globally adaptive integral of ``f`` over [x0,x1]x[y0,y1].

    ``f`` must accept flat numpy arrays.  ``skip(cx0, cx1, cy0, cy1)``
    (vectorized over cell arrays) marks cells whose integral is exactly
    zero; they are dropped without evaluation.  Returns
    ``(value, error_estimate)``; raises :class:`BudgetExhausted` if the
    estimate cannot be pushed below ``tol`` within ``max_cells`` cell
    evaluations.
    """
    xs = np.linspace(x0, x1, initial + 1)
    ys = np.linspace(y0, y1, initial + 1)
    cx0, cy0 = [a.ravel() for a in np.meshgrid(xs[:-1], ys[:-1], indexing="ij")]
    cx1, cy1 = [a.ravel() for a in np.meshgrid(xs[1:], ys[1:], indexing="ij")]

    def drop_skipped(a0, a1, b0, b1):
        if skip is None:
            return a0, a1, b0, b1
        keep = ~skip(a0, a1, b0, b1)
        return a0[keep], a1[keep], b0[keep], b1[keep]

    cx0, cx1, cy0, cy1 = drop_skipped(cx0, cx1, cy0, cy1)
    if len(cx0) == 0:
        return 0.0, 0.0
    val, err = _evaluate_cells(f, cx0, cx1, cy0, cy1)
    n_evals = len(cx0)

    while True:
        total = float(np.sum(val))
        total_err = float(np.sum(err))
        refinable = err > 0.0
        if min_size > 0.0:
            refinable &= np.maximum(cx1 - cx0, cy1 - cy0) > min_size
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

        mx0, mx1, my0, my1 = cx0[marked], cx1[marked], cy0[marked], cy1[marked]
        wx = mx1 - mx0
        wy = my1 - my0
        xm = 0.5 * (mx0 + mx1)
        ym = 0.5 * (my0 + my1)
        # skewed cells split along the long axis only
        wide = wx > 1.8 * wy
        tall = wy > 1.8 * wx
        square = ~(wide | tall)
        parts = []
        for sel, boxes in (
            (square, [(mx0, xm, my0, ym), (xm, mx1, my0, ym),
                      (mx0, xm, ym, my1), (xm, mx1, ym, my1)]),
            (wide, [(mx0, xm, my0, my1), (xm, mx1, my0, my1)]),
            (tall, [(mx0, mx1, my0, ym), (mx0, mx1, ym, my1)]),
        ):
            if not np.any(sel):
                continue
            for a0, a1, b0, b1 in boxes:
                parts.append((a0[sel], a1[sel], b0[sel], b1[sel]))
        nx0 = np.concatenate([p[0] for p in parts])
        nx1 = np.concatenate([p[1] for p in parts])
        ny0 = np.concatenate([p[2] for p in parts])
        ny1 = np.concatenate([p[3] for p in parts])
        nx0, nx1, ny0, ny1 = drop_skipped(nx0, nx1, ny0, ny1)
        if len(nx0):
            nval, nerr = _evaluate_cells(f, nx0, nx1, ny0, ny1)
            n_evals += len(nx0)
        else:
            nval = nerr = np.empty(0)
        keep = ~marked
        cx0 = np.concatenate([cx0[keep], nx0])
        cx1 = np.concatenate([cx1[keep], nx1])
        cy0 = np.concatenate([cy0[keep], ny0])
        cy1 = np.concatenate([cy1[keep], ny1])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
