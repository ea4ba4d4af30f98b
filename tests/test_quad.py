"""The adaptive rules of nlg._quad.

``_four_array_cells_2d`` below is the 2D engine as it was when it carried
x0, x1, y0, y1 as four parallel arrays and split each marked cell box by
box.  It stays here as the reference: the one-array engine must return
the same ``(value, error)`` bit for bit, and run out of budget with the
same estimate.  The 1D rule is checked against known integrals, and
through the radial sections' local energies against their closed forms.
"""

import math

import numpy as np
import pytest

from nlg import _quad
from nlg.fields import RadialSection


def _old_weights():
    w3 = np.array([1.0, 4.0, 1.0]) / 6.0
    coarse, fine = np.zeros((5, 5)), np.zeros((5, 5))
    coarse[::2, ::2] = np.outer(w3, w3)
    for di in (0, 2):
        for dj in (0, 2):
            fine[di:di + 3, dj:dj + 3] += np.outer(0.25 * w3, w3)
    return coarse.ravel(), fine.ravel()


_OLD_COARSE, _OLD_FINE = _old_weights()


def _old_evaluate(f, x0, x1, y0, y1):
    wx = x1 - x0
    wy = y1 - y0
    xs = x0[:, None] + _quad._GX5[None, :] * wx[:, None]
    ys = y0[:, None] + _quad._GY5[None, :] * wy[:, None]
    vals = np.asarray(f(xs.ravel(), ys.ravel()), dtype=float).reshape(xs.shape)
    area = wx * wy
    fine = (vals @ _OLD_FINE) * area
    coarse = (vals @ _OLD_COARSE) * area
    return fine, np.abs(fine - coarse)


def _four_array_cells_2d(f, x0, x1, y0, y1, tol, *, skip=None, max_cells=400_000,
                         min_size=0.0, initial=4):
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
    val, err = _old_evaluate(f, cx0, cx1, cy0, cy1)
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
            raise _quad.ToleranceNotReached(total, total_err)
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
            nval, nerr = _old_evaluate(f, nx0, nx1, ny0, ny1)
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


def _hex(result):
    return tuple(float(v).hex() for v in result)


def _pair_kernel(delta, p):
    return lambda xs, ys: delta ** p * np.abs(ys - xs) ** (-1.0 - p)


def _ramp_energy_integrand(delta, p, slope):
    """energy_quadrature's integrand for u(x) = slope * x, with its skip."""
    r = delta / slope

    def f(xs, ys):
        s = np.abs(ys - xs)
        far = s >= r
        out = np.zeros_like(s)
        if np.any(far):
            du = np.abs(slope * ys[far] - slope * xs[far])
            out[far] = np.where(du > delta, delta ** p * s[far] ** (-1.0 - p), 0.0)
        return out

    def skip(cx0, cx1, cy0, cy1):
        return (cy1 - cx0 < r) & (cy0 - cx1 > -r)

    return f, skip


def test_weights_equal_the_loop_built_matrices():
    assert _quad._W_FINE.tobytes() == _OLD_FINE.tobytes()
    assert _quad._W_COARSE.tobytes() == _OLD_COARSE.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_pair_kernel_matches_four_array_engine(p):
    rng = np.random.default_rng(int(p * 10))
    for _ in range(5):
        a1 = rng.uniform(-3, 3)
        b1 = a1 + rng.uniform(0.05, 2.0)
        a2 = b1 + rng.uniform(0.02, 3.0)
        b2 = a2 + rng.uniform(0.05, 2.0)
        kernel = _pair_kernel(rng.uniform(0.2, 2.0), p)
        tol = 1e-9 * abs(float(_quad._evaluate_cells(
            kernel, np.array([[a1], [b1], [a2], [b2]]))[1][0]))
        want = _four_array_cells_2d(kernel, a1, b1, a2, b2, tol)
        got = _quad.adaptive_cells_2d(kernel, a1, b1, a2, b2, tol)
        assert _hex(got) == _hex(want)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_energy_integrand_with_skip_matches_four_array_engine(p):
    f, skip = _ramp_energy_integrand(0.1, p, 1.0)
    kw = dict(skip=skip, min_size=1e-8, initial=8)
    want = _four_array_cells_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-4, **kw)
    got = _quad.adaptive_cells_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-4, **kw)
    assert _hex(got) == _hex(want)


def test_skipped_everywhere_is_zero():
    def f(xs, ys):  # NaN would show if a skipped cell were evaluated
        return np.full_like(xs, np.nan)

    def skip(cx0, cx1, cy0, cy1):
        return np.ones(len(cx0), dtype=bool)

    got = _quad.adaptive_cells_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-9, skip=skip)
    assert _hex(got) == _hex(_four_array_cells_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-9, skip=skip))
    assert _hex(got) == _hex((0.0, 0.0))


@pytest.mark.parametrize("long_axis", ["wide", "tall"])
def test_long_rectangle_matches_four_array_engine(long_axis):
    # a 100:1 rectangle starts with long cells, which split across their
    # long axis only until they turn square
    def f(xs, ys):
        if long_axis == "tall":
            xs, ys = ys, xs
        return 1.0 / ((xs - 99.9) ** 2 + (ys - 0.05) ** 2 + 1e-3)

    box = (0.0, 100.0, 0.0, 1.0) if long_axis == "wide" else (0.0, 1.0, 0.0, 100.0)
    shapes = set()
    split = _quad._split

    def recording_split(marked):
        wx, wy = marked[1] - marked[0], marked[3] - marked[2]
        shapes.update(name for name, sel in (("wide", wx > 1.8 * wy), ("tall", wy > 1.8 * wx),
                                              ("square", (wx <= 1.8 * wy) & (wy <= 1.8 * wx)))
                      if np.any(sel))
        return split(marked)

    want = _four_array_cells_2d(f, *box, 1e-8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_quad, "_split", recording_split)
        got = _quad.adaptive_cells_2d(f, *box, 1e-8)
    assert shapes == {long_axis, "square"}
    assert _hex(got) == _hex(want)


def test_budget_exhausted_estimate_matches_four_array_engine():
    kernel = _pair_kernel(1.0, 1.5)
    with pytest.raises(_quad.ToleranceNotReached) as want:
        _four_array_cells_2d(kernel, 0.0, 1.0, 1.001, 2.0, 1e-14, max_cells=500)
    with pytest.raises(_quad.ToleranceNotReached) as got:
        _quad.adaptive_cells_2d(kernel, 0.0, 1.0, 1.001, 2.0, 1e-14, max_cells=500)
    assert _hex((got.value.estimate, got.value.error_estimate)) == \
        _hex((want.value.estimate, want.value.error_estimate))
    assert math.isfinite(got.value.estimate)


def _inv_sqrt(t, i):
    return np.divide(1.0, np.sqrt(t), out=np.zeros_like(t), where=t > 0.0)


@pytest.mark.parametrize("f, lo, hi, want", [
    (_inv_sqrt, 0.0, 1.0, 2.0),
    (lambda s, i: s ** -2.0, 1.0, math.inf, 1.0),
    (lambda s, i: s ** -2.0, -math.inf, -1.0, 1.0),
    (lambda s, i: np.exp(-s * s), -math.inf, 0.0, 0.5 * math.sqrt(math.pi)),
], ids=["endpoint_singularity", "right_half_line", "left_half_line", "gaussian_half_line"])
def test_intervals_1d_known_integrals(f, lo, hi, want):
    value, err = _quad.adaptive_intervals_1d(f, lo, hi, 1e-12)
    assert type(value) is float and err <= 1e-12
    assert abs(value - want) <= 1e-12


def test_intervals_1d_sums_integrands_by_index():
    # i = 0: s on (0, 1); i = 1: sin on (0, pi); i = 2: e^-s on (2, inf);
    # i = 3: 1/sqrt(-s) on (-4, 0), singular at its right end
    lo = np.array([0.0, 0.0, 2.0, -4.0])
    hi = np.array([1.0, math.pi, math.inf, 0.0])

    def f(s, i):
        out = np.empty_like(s)
        for k, g in enumerate((lambda x: x, np.sin, lambda x: np.exp(-x),
                               lambda x: _inv_sqrt(-x, None))):
            out[i == k] = g(s[i == k])
        return out

    value, err = _quad.adaptive_intervals_1d(f, lo, hi, 1e-11)
    assert err <= 1e-11
    assert abs(value - (0.5 + 2.0 + math.exp(-2.0) + 4.0)) <= 1e-11
    for k in range(4):  # each alone, with the same integrand
        alone, _ = _quad.adaptive_intervals_1d(lambda s, i: f(s, i + k), lo[k], hi[k], 1e-12)
        assert abs(alone - (0.5, 2.0, math.exp(-2.0), 4.0)[k]) <= 1e-12


def test_intervals_1d_empty_is_zero():
    def f(s, i):
        assert len(s) == len(i) == 0
        return s

    assert _hex(_quad.adaptive_intervals_1d(f, np.empty(0), np.empty(0), 1e-9)) == _hex((0.0, 0.0))


def test_intervals_1d_budget_exhausted_carries_the_estimate(monkeypatch):
    monkeypatch.setattr(_quad, "_MAX_INTERVALS", 40)
    with pytest.raises(_quad.ToleranceNotReached) as got:
        _quad.adaptive_intervals_1d(_inv_sqrt, 0.0, 1.0, 1e-14)
    est, err = got.value.estimate, got.value.error_estimate
    assert 1e-14 < err < 1e-2
    assert abs(est - 2.0) <= 3.0 * err


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_radial_section_local_energy_matches_closed_form(p):
    # 2 (peak/r)^p times the integral over |s| < T of (s^2/(rho^2 + s^2))^(p/2):
    # p = 1: r - rho; p = 2: T - rho atan(T/rho)
    r, peak = 1.3, 0.7
    for rho in np.geomspace(1e-6, 0.999, 40) * r:
        rho = float(rho)
        T = math.sqrt(r * r - rho * rho)
        scale = 2.0 * (peak / r) ** p
        want = scale * ((r - rho) if p == 1.0 else T - rho * math.atan(T / rho))
        got = RadialSection(0.3, rho, r, peak).local_energy(p)
        assert abs(got - want) <= 1e-12 * T * scale
