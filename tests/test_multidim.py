import ast
import inspect
import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nlg import (FULL_LINE, AffineRamp, Box, Direction, EnergyParams, RadialTent,
                 TensorTent, energy_by_montecarlo, energy_by_sectioning,
                 gamma_limit_constant, local_energy_by_sectioning,
                 local_energy_field, section, spherical_moment, step_cells, step_energy)
from nlg import PiecewiseAffine1D, fields, functional1d, multidim, vertical_segmentation
from nlg.functional1d import _first_past, _unimodal_sums
from nlg.fields import (DegenerateBox, RadialSection, ScaleOutOfRange, UnsupportedDimension,
                        UnsupportedField, _radial_cells, _top_levels)
from nlg.rearrange import grid_floor_level

from conftest import CLOSED_FORMS, level_runs_loop

TENT = RadialTent((0.0, 0.0), 1.0, 1.0)
UNIT_BOX = Box((0.0, 0.0), (1.0, 1.0))


def _pass_cells(u, sigma, points, delta):
    """The cells a sectioning pass sums, line by line: {line: (edges,
    levels)} for the lines along sigma[i] through points[i] with a cell."""
    lines, sections = u._sections(sigma, points)
    got = {}
    for i, edges, levels, counts in sections._cells(delta):
        at = np.cumsum(counts) - counts
        for j, a, c, k in zip(lines[i], at, counts, range(len(counts))):
            got[int(j)] = (edges[a + k:a + k + c + 1], levels[a:a + c])
    return got


def _no_fallback(edges, x, radius, params):
    raise AssertionError(f"a line of {len(x)} cells fell back to the pair sum")


def _horner(coef, t):
    v = coef[:, -1]
    for c in coef[:, -2::-1].T:
        v = v * t + c
    return v


def _scalar_tensor_section(u, sigma, z_point):
    """Scalar reference for a tensor tent's section, built one line and one
    piece at a time: ``(cuts, coef)``, or None off the support."""
    s, z = np.asarray(sigma), np.asarray(z_point, dtype=float)
    c, w = np.asarray(u.center), np.asarray(u.halfwidths)
    t0, t1 = -math.inf, math.inf
    const_factor = 1.0
    lines = []  # (axis, kink) per nonconstant axis: factor 1 - |z_i + s_i t - c_i| / w_i
    for i in range(u.dim):
        if s[i] == 0.0:
            f = max(0.0, 1.0 - abs(z[i] - c[i]) / w[i])
            if f == 0.0:
                return None
            const_factor *= f
            continue
        ta, tb = sorted(((c[i] - w[i] - z[i]) / s[i], (c[i] + w[i] - z[i]) / s[i]))
        t0, t1 = max(t0, ta), min(t1, tb)
        lines.append((i, (c[i] - z[i]) / s[i]))
    if not lines or not t0 < t1:
        return None
    cuts = sorted({t0, t1} | {k for _, k in lines if t0 < k < t1})
    coef = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        row = np.array([u.peak * const_factor])
        for i, _ in lines:
            sign = 1.0 if z[i] + s[i] * mid >= c[i] else -1.0
            row = np.convolve(row, [1.0 - sign * (z[i] - c[i]) / w[i], -sign * s[i] / w[i]])
        coef.append(row)
    return np.array(cuts), np.array(coef)


def _scalar_poly_step(cuts, coef, delta):
    """Scalar reference for the segmentation of one such section alone, by
    the scalar level-run oracle ``level_runs_loop``."""
    a, b = cuts[:-1], cuts[1:]
    slope = coef[:, 1:] * np.arange(1, coef.shape[1])
    i = np.flatnonzero((_horner(slope, a) > 0.0) & (_horner(slope, b) < 0.0))
    tops = _first_past(lambda t, s=slope[i]: _horner(s, t) < 0.0, a[i], b[i])
    xs = np.sort(np.concatenate((cuts, tops)))
    owner = np.searchsorted(a, xs, side="right") - 1
    ys = np.maximum(_horner(coef[owner], xs), 0.0)
    rise = ys[1:] > ys[:-1]

    def crossings(j, values):
        c, up = coef[owner[j]], rise[j]
        return _first_past(lambda t: (_horner(c, t) >= values) == up, xs[j], xs[j + 1])

    step = level_runs_loop(xs.tolist(), ys.tolist(), delta, lambda pieces, values: crossings(
        np.array(pieces, dtype=np.intp), np.array(values)).tolist(), True)
    return step if step is not None and step.values.any() else None


class TestDirection:
    def test_from_angle_frame(self):
        d = Direction.from_angle(0.7)
        s = np.asarray(d.sigma)
        f = np.asarray(d.frame[0])
        assert abs(np.linalg.norm(s) - 1.0) < 1e-14
        assert abs(np.dot(s, f)) < 1e-14

    def test_three_dimensional_frame(self):
        d = Direction.from_vector((1.0, 2.0, -0.5))
        vecs = [np.asarray(d.sigma)] + [np.asarray(f) for f in d.frame]
        gram = np.array([[np.dot(a, b) for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_frames_past_the_plane_are_orthonormal(self, d):
        rng = np.random.default_rng(d)
        tiny = np.zeros(d)
        tiny[:2] = 1e-300, 1.0
        for v in (*np.eye(d), -np.eye(d)[d - 1], tiny, np.ones(d), *rng.normal(size=(20, d))):
            got = Direction.from_vector(tuple(v))
            vecs = np.array([got.sigma, *got.frame])
            assert vecs.shape == (d, d)
            assert np.max(np.abs(vecs @ vecs.T - np.eye(d))) <= 1e-12
            assert np.max(np.abs(vecs[0] - v / np.linalg.norm(v))) <= 1e-15

    def test_offset_has_one_component_per_frame_vector(self):
        # an offset of the wrong length is an error, not the line at z[0]
        d = Direction.from_angle(0.3)
        for z in ((0.1, 5.0), (), np.zeros((1, 1))):
            with pytest.raises(ValueError, match=r"^z must have 1 components, got "):
                section(RadialTent((0.0, 0.0), 1.0, 1.0), d, z)
        d3 = Direction.from_vector((0.3, -1.0, 0.5))
        with pytest.raises(ValueError, match=r"^z must have 2 components, got \[0\.1\]$"):
            d3.point(0.1)
        assert d.point(0.2).tolist() == d.point((0.2,)).tolist() == d.point([0.2]).tolist()

    def test_bad_frame_rejected(self):
        with pytest.raises(ValueError):
            Direction((1.0, 0.0), ((1.0, 0.0),))

    def test_zero_and_nan_vectors_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 RuntimeWarning on the way
            for v in ((0.0, 0.0), (0.0, 0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0)):
                with pytest.raises(ValueError, match="nonzero finite vector"):
                    Direction.from_vector(v)
        with pytest.raises(ValueError, match="unit vector"):
            Direction((math.nan, math.nan), ((0.0, 1.0),))
        with pytest.raises(ValueError, match="orthonormal"):
            Direction((1.0, 0.0), ((math.nan, 1.0),))


class TestSections:
    def test_affine_section_slope(self):
        ramp = AffineRamp((3.0, 4.0), UNIT_BOX)
        d = Direction.from_vector((1.0, 0.0))
        sec = section(ramp, d, 0.5)
        assert sec is not None
        assert math.isclose(sec.slope[0], 3.0, rel_tol=1e-14)
        assert (sec.t0[0], sec.t1[0]) == (0.0, 1.0)

    def test_affine_local_energy_takes_libm_powers(self, rng):
        # |slope|^p times the chord in numbers, libm's pow, as when a
        # one-line section held numbers: numpy's array power differs from it
        # in the last bits of some values under AVX-512
        ramp = AffineRamp((1.5, -0.5), UNIT_BOX)
        for theta, z in zip(rng.uniform(0.0, 2.0 * math.pi, 60), rng.uniform(-0.7, 0.7, 60)):
            sec = section(ramp, Direction.from_angle(float(theta)), float(z))
            if sec is None:
                continue
            slope, chord = abs(float(sec.slope[0])), float(sec.t1[0]) - float(sec.t0[0])
            for p in (1.5, 2.5, 3.0):
                assert sec.local_energy(p) == slope ** p * chord

    def test_affine_section_misses_box(self):
        ramp = AffineRamp((1.0, 1.0), UNIT_BOX)
        d = Direction.from_vector((1.0, 0.0))
        assert section(ramp, d, 2.0) is None

    def test_radial_center_section_is_tent(self):
        d = Direction.from_angle(1.2)
        sec = section(TENT, d, 0.0)
        assert math.isclose(sec(sec.t_center[0]), 1.0, rel_tol=1e-14)
        assert math.isclose(sec.half_width, 1.0, rel_tol=1e-14)
        assert sec(5.0) == 0.0

    def test_segmentation_commutes_with_sectioning(self, rng):
        # the tensor tent also along and next to the axes, where its
        # sections' leading coefficients are float noise or nearly so
        fields = [(TENT, (), (0.22,)),
                  (RadialTent((0.3, -0.2), 0.8, 1.4), (), (0.22,)),
                  (TensorTent((0.0, 0.0), (1.0, 0.7), 1.2),
                   (math.pi / 2, math.pi, math.pi / 2 + 1e-9), (0.22, 0.01)),
                  (AffineRamp((1.5, -0.5), UNIT_BOX), (), (0.22,))]
        for u, axes, deltas in fields:
            for delta in deltas:
                for theta in (*axes, *rng.uniform(0, 2 * math.pi, 4)):
                    d = Direction.from_angle(float(theta))
                    z = float(rng.uniform(-0.4, 0.4))
                    sec = section(u, d, z)
                    if sec is None:
                        continue
                    step = sec.step_segmentation(delta)
                    domain = step.domain if step is not None else FULL_LINE
                    lo, hi = (domain.lo, domain.hi) if domain.bounded else (-2.5, 2.5)
                    ts = rng.uniform(lo, hi, 1000)
                    for t in ts:
                        pt = d.point((z,), float(t))
                        want = delta * grid_floor_level(float(u(pt)), delta)
                        got = step(float(t)) if step is not None else 0.0
                        assert got == pytest.approx(want, abs=1e-12)

    def test_tensor_section_along_an_axis_is_finite(self):
        u = TensorTent((0.0, 0.1), (1.0, 0.7), 1.0)
        step = section(u, Direction.from_angle(math.pi / 2), 0.1).step_segmentation(0.1)
        assert len(step.values) == 15
        assert math.isclose(step_energy(step, step.domain, EnergyParams(0.1, 1.0)),
                            2.3987673591161784, rel_tol=1e-12)

    def test_near_axis_tensor_crossings_are_exact(self):
        # every interior breakpoint lies within 1e-15 of the level crossing
        # of the exact field on the same float line, evaluated at 50 digits
        mp = pytest.importorskip("mpmath")
        u = TensorTent((0.05, -0.1), (1.0, 0.7), 1.0)
        delta = 0.1

        def exact(z_point, sigma, t):
            value = mp.mpf(u.peak)
            for x, s, c, w in zip(z_point, sigma, u.center, u.halfwidths):
                x = mp.mpf(x) + mp.mpf(s) * mp.mpf(t)
                value *= max(mp.mpf(0), 1 - abs(x - mp.mpf(c)) / mp.mpf(w))
            return value

        for theta in (1e-9, math.pi / 2 + 1e-9, math.pi - 1e-9):
            d = Direction.from_angle(theta)
            for z in (-0.3, 0.1):
                z_point = d.point((z,))
                step = section(u, d, (z,)).step_segmentation(delta)
                edges = step.breakpoints
                for e, left, right in zip(edges[1:-1], step.values, step.values[1:]):
                    with mp.workdps(50):
                        below, above = (exact(z_point, d.sigma, t) - mp.mpf(max(left, right))
                                        for t in (e - 1e-15, e + 1e-15))
                        # rising crossings enter the level, falling ones leave it
                        assert (below < 0 <= above) if right > left else (above < 0 <= below)

    def test_radial_cells_match_step_segmentation(self):
        # all sections at once against each alone, and against the closed
        # form level by level; the last rho puts a top one ulp off level 3
        r, peak = 1.0, 1.0
        for delta in (0.3, 0.1, 0.07, 1e-3):
            rho = np.concatenate((np.linspace(0.0, r, 23, endpoint=False),
                                  [np.nextafter(0.7, k) for k in (0.0, 1.0)], [0.7]))
            t_center = np.linspace(-0.4, 0.3, len(rho))
            top = _top_levels(rho, r, peak, delta)
            keep = top >= 1
            edges, levels = _radial_cells(t_center[keep], rho[keep], top[keep], r, peak, delta)
            sections = np.split(np.arange(len(levels)), np.cumsum(2 * top[keep] + 1)[:-1])
            for j, (i, cells) in enumerate(zip(np.flatnonzero(keep), sections)):
                step = RadialSection(float(t_center[i]), float(rho[i]), r, peak) \
                    .step_segmentation(delta)
                e = edges[cells[0] + j + np.arange(len(cells) + 1)]  # one more edge a section
                assert step.breakpoints.tolist() == e[1:-1].tolist()
                assert step.values.tolist() == (levels[cells][1:-1] * delta).tolist()
                n = top[i]
                half = [math.sqrt(max((r * (1.0 - k * delta / peak)) ** 2 - rho[i] ** 2, 0.0))
                        for k in range(1, n + 1)]
                assert step.breakpoints.tolist() == ([t_center[i] - h for h in half]
                                                     + [t_center[i] + h for h in half[::-1]])
            for i in np.flatnonzero(~keep):
                assert RadialSection(0.0, float(rho[i]), r, peak).step_segmentation(delta) is None

    def test_section_cells_match_sections(self, monkeypatch):
        # the cells a sectioning pass sums are those of section() on each
        # line, built alone; a pass's lines span several directions, and
        # blocks of about 50 cells cut a direction into many
        for u, block in itertools.product(
                (TENT, RadialTent((0.1, -0.2), 0.8, 1.3),
                 TensorTent((0.05, -0.1), (1.0, 0.7), 1.2),
                 AffineRamp((0.6, -0.3), Box((-1.0, -0.5), (1.0, 1.5)))),
                (fields._SECTION_CELLS, 50)):
            monkeypatch.setattr(fields, "_SECTION_CELLS", block)
            for delta in (0.1, 0.013):
                dirs = [Direction.from_angle(theta)
                        for theta in (0.3, math.pi / 2, 2.9, 1e-9, math.pi / 2 + 1e-9)]
                zs = np.linspace(-1.1, 1.1, 13)
                sigma = np.repeat([d.sigma for d in dirs], len(zs), axis=0)
                points = np.concatenate([np.outer(zs, d.frame[0]) for d in dirs])
                got = _pass_cells(u, sigma, points, delta)
                for k, (d, z) in enumerate((d, z) for d in dirs for z in zs.tolist()):
                    sec = section(u, d, z)
                    step = None if sec is None else sec.step_segmentation(delta)
                    if step is None:
                        assert k not in got
                        continue
                    e, v = step_cells(step, step.domain)
                    assert got[k][0].tolist() == e.tolist()
                    assert got[k][1].tolist() == np.rint(v / delta).tolist()

    @pytest.mark.parametrize("u", [TensorTent((0.0, 0.0), (1.0, 1.0), 1.0),
                                   TensorTent((0.05, -0.1), (1.0, 0.7), 1.2),
                                   TensorTent((0.3, -0.2), (0.4, 1.3), 0.8)])
    def test_tensor_pass_matches_scalar_sections(self, u):
        # every line of a pass against the scalar reference builder and its
        # per-section segmentation: levels equal, edges within 1e-15
        for delta in (0.1, 0.03, 0.007):
            sigma, points, _, _ = multidim._line_grid(u, 12, 32)
            got = _pass_cells(u, sigma, points, delta)
            n = 0
            for k, (s, z) in enumerate(zip(sigma, points)):
                ref = _scalar_tensor_section(u, s, z)
                step = None if ref is None else _scalar_poly_step(*ref, delta)
                if step is None:
                    assert k not in got
                    continue
                edges, levels = got[k]
                assert np.rint(step.values / delta).tolist() == levels[1:-1].tolist()
                assert edges[[0, -1]].tolist() == [-math.inf, math.inf]
                err = np.abs(edges[1:-1] - step.breakpoints)
                assert np.all(err <= 1e-15 * np.abs(step.breakpoints)), (k, err.max())
                n += 1
            assert n >= 120

    def test_ramp_pass_matches_vertical_segmentation(self):
        # every chord of a pass against the segmentation of its piecewise
        # affine restriction, bit for bit
        for u in (AffineRamp((1.5, -0.5), UNIT_BOX),
                  AffineRamp((0.6, -0.3), Box((0.0, 0.0), (1.0, 1.5))),
                  AffineRamp((0.0, 2.0), Box((-1.0, -0.5), (1.0, 1.5)))):
            for delta in (0.1, 0.01, 1e-3):
                sigma, points, _, _ = multidim._line_grid(u, 8, 24)
                lines, secs = u._sections(sigma, points)
                got = _pass_cells(u, sigma, points, delta)
                assert sorted(got) == lines.tolist()
                for j, k in enumerate(lines.tolist()):
                    t0, t1, off, slope = secs.t0[j], secs.t1[j], secs.offset[j], secs.slope[j]
                    want = vertical_segmentation(PiecewiseAffine1D(
                        ((t0, off + slope * t0), (t1, off + slope * t1)), compact_support=False),
                        delta)
                    edges, levels = got[k]
                    assert list(map(float.hex, edges.tolist())) == \
                        list(map(float.hex, want.breakpoints.tolist()))
                    assert list(map(float.hex, (levels * delta).tolist())) == \
                        list(map(float.hex, want.values.tolist()))

    def test_radial_section_local_energy(self):
        # through the center the profile is a 1D tent with slope peak/radius
        sec = section(TENT, Direction.from_angle(0.0), 0.0)
        assert math.isclose(sec.local_energy(2.0), 2.0, rel_tol=1e-10)


class TestLocalEnergyField:
    def test_radial_tent_p2(self):
        assert math.isclose(local_energy_field(TENT, 2.0), math.pi, rel_tol=1e-14)

    def test_affine_ramp_p1(self):
        ramp = AffineRamp((3.0, 4.0), UNIT_BOX)
        assert math.isclose(local_energy_field(ramp, 1.0), 5.0, rel_tol=1e-14)

    def test_tensor_tent_p2_matches_analytic(self):
        # grad(f(x)g(y)) energy factorizes at p = 2:
        # int f'^2 * int g^2 + int f^2 * int g'^2
        u = TensorTent((0.0, 0.0), (1.0, 1.0), 1.0)
        int_t2 = 2.0 / 3.0   # integral of tent^2 over its support
        int_dt2 = 2.0        # integral of tent'^2
        expected = int_dt2 * int_t2 + int_t2 * int_dt2
        assert math.isclose(local_energy_field(u, 2.0), expected, rel_tol=1e-6)

    @pytest.mark.parametrize("u", [TensorTent((0.0, 0.0), (1.0, 1.0), 1.0),
                                   TensorTent((0.05, -0.1), (1.0, 0.7), 1.2)])
    def test_tensor_tent_matches_factorized_p2_and_mpmath(self, u):
        mp = pytest.importorskip("mpmath")
        (w0, w1), peak = u.halfwidths, u.peak
        # p = 2: int f'^2 int g^2 + int f^2 int g'^2, with int f'^2 = 2/w0
        # and int f^2 = 2 w0 / 3 for the unit tent f of halfwidth w0
        exact = peak ** 2 * ((2.0 / w0) * (2.0 * w1 / 3.0) + (2.0 * w0 / 3.0) * (2.0 / w1))
        got = u.local_energy(2.0)
        assert type(got) is float
        assert abs(got - exact) <= 1e-14 * exact
        mp.mp.dps = 20
        for p in (1.0, 1.5, 3.0):
            # one quadrant, in the tent factors a = f_y and b = f_x
            quadrant = mp.quad(lambda a, b: mp.hypot(a / w0, b / w1) ** p, [0, 1], [0, 1])
            ref = float(4 * w0 * w1 * mp.mpf(peak) ** p * quadrant)
            assert abs(u.local_energy(p) - ref) <= 1e-11 * ref

    def test_infinite_exponent_rejected(self):
        with pytest.raises(ValueError, match="p must be finite"):
            local_energy_field(TENT, math.inf)

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    @pytest.mark.parametrize("u", [RadialTent((0.0, 0.0), 1.0, 1.0),
                                   TensorTent((0.0, 0.0), (1.0, 0.7), 1.0),
                                   AffineRamp((3.0, 4.0), UNIT_BOX),
                                   AffineRamp((0.0, 0.0), UNIT_BOX)],
                             ids=["radial", "tensor", "ramp", "flat_ramp"])
    def test_exponent_checked_on_every_entry(self, u, p):
        # below 1, infinite or NaN: the exponent error, never a number or a
        # ScaleOutOfRange, from the field, the dispatcher and sectioning
        for energy in (u.local_energy, lambda p: local_energy_field(u, p),
                       lambda p: local_energy_by_sectioning(u, p, 8, 16)):
            with pytest.raises(ValueError, match="p must be finite and >= 1") as err:
                energy(p)
            assert not isinstance(err.value, ScaleOutOfRange)

    @pytest.mark.parametrize("u,p", [
        (RadialTent((0.0, 0.0), 1.0, 1e200), 2.0),  # (peak / r)^p overflows
        (TensorTent((0.0, 0.0), (1.0, 1.0), 1e200), 2.0),  # peak^p overflows
        (RadialTent((0.0, 0.0), 1e200, 1.0), 1.0),  # r^d overflows
        (RadialTent((0.0, 0.0), 1e-200, 1.0), 1.0),  # r^d underflows to 0.0
        (TensorTent((0.0, 0.0), (1e200, 1e200), 1.0), 1.0),  # the area is inf
        (TensorTent((0.0, 0.0), (1e200, 1e200), 1.0), 2.0),  # inf * 0.0
        (AffineRamp((1e200, 0.0), UNIT_BOX), 2.0),  # L^p overflows
        (AffineRamp((1e-200, 0.0), UNIT_BOX), 2.0),  # L^p underflows to 0.0
        (AffineRamp((1.0, 0.0), Box((0.0, 0.0), (1e-200, 1e-200))), 1.0),  # V is 0.0
    ], ids=["radial_peak", "tensor_peak", "radial_radius_big", "radial_radius_small",
            "tensor_area_inf", "tensor_area_nan", "ramp_big", "ramp_small", "ramp_volume"])
    def test_scales_floats_cannot_carry_raise(self, u, p):
        # a positive finite float or ScaleOutOfRange, with no numpy warning
        # on the way; Monte Carlo raises the same class
        assert multidim.ScaleOutOfRange is ScaleOutOfRange
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleOutOfRange, match="local energy of"):
                local_energy_field(u, p)
            with pytest.raises(ScaleOutOfRange, match="local energy of"):
                u.local_energy(p)

    @pytest.mark.parametrize("gradient", [(0.0, 0.0), (-0.0, 0.0), (0.0, 0.0, -0.0)])
    def test_flat_ramp_reads_zero(self, gradient):
        ramp = AffineRamp(gradient, Box((0.0,) * len(gradient), (1.0,) * len(gradient)))
        for p in (1.0, 1.5, 2.0):
            assert local_energy_field(ramp, p) == 0.0

    def test_positive_energies_keep_their_bits(self, rng):
        # where the closed forms read a positive float they keep their bits,
        # scales near the ends of the float range included
        ramp_big = AffineRamp((1e150, 0.0), UNIT_BOX)
        assert local_energy_field(ramp_big, 2.0) == 1e150 ** 2
        assert local_energy_field(AffineRamp((1e200, 0.0), UNIT_BOX), 1.0) == 1e200
        assert local_energy_field(AffineRamp((1e-200, 0.0), UNIT_BOX), 1.0) == 1e-200
        for _ in range(200):
            d, p = int(rng.integers(2, 4)), float(rng.choice((1.0, 1.5, 2.0)))
            g = tuple(np.exp(rng.uniform(-60.0, 60.0, d)) * rng.choice((-1.0, 1.0), d))
            box = Box((0.0,) * d, tuple(np.exp(rng.uniform(-20.0, 20.0, d))))
            ramp = AffineRamp(g, box)
            assert ramp.local_energy(p) == float(np.linalg.norm(g)) ** p * box.volume
            radius, peak = np.exp(rng.uniform(-40.0, 40.0, 2))
            tent = RadialTent((0.0,) * d, float(radius), float(peak))
            want = (peak / radius) ** p * (fields._pi_gamma_ratio(d / 2.0, 1.0, d / 2.0 + 1.0)
                                           * radius ** d)
            assert tent.local_energy(p) == want

    @pytest.mark.parametrize("u,p", [
        (RadialTent((0.0, 0.0), 1.0, 1e200), 2.0),  # (peak / r)^p overflows
        (TensorTent((0.0, 0.0), (1.0, 1.0), 1e200), 2.0),  # |slope|^p overflows
        (RadialTent((0.0, 0.0), 1.0, 1e-200), 2.0),  # (peak / r)^p underflows to 0.0
        (RadialTent((0.0, 0.0), 1e200, 1.0), 1.0),  # r^2 overflows
        (AffineRamp((1e200, 0.0), UNIT_BOX), 2.0),  # |slope|^p overflows
    ], ids=["radial_peak_big", "tensor_peak", "radial_peak_small", "radial_radius_big",
            "ramp_big"])
    def test_sectioning_scales_floats_cannot_carry_raise(self, u, p):
        # the sections' local energies: a positive finite float or
        # ScaleOutOfRange, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleOutOfRange, match="local energy of"):
                local_energy_by_sectioning(u, p, 8, 16)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_tensor_sectioning_scales_with_the_peak(self, p):
        # the pieces' tolerance scales with |slope|^p: a tall tent reaches it
        # as a unit one does, where an absolute one raised ToleranceNotReached
        unit = local_energy_by_sectioning(TensorTent((0.0, 0.0), (1.0, 1.0), 1.0), p, 8, 16)
        for peak in (1e3, 1e6, 1e100):
            got = local_energy_by_sectioning(TensorTent((0.0, 0.0), (1.0, 1.0), peak), p, 8, 16)
            assert math.isclose(got, unit * peak ** p, rel_tol=1e-12)

    @pytest.mark.parametrize("gradient", [(0.0, 0.0), (-0.0, 0.0)])
    def test_sectioning_of_a_flat_ramp_reads_zero(self, gradient):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1.0, 1.5, 2.0):
                assert local_energy_by_sectioning(AffineRamp(gradient, UNIT_BOX), p, 8, 16) == 0.0

    def test_sectioning_positive_energies_keep_their_bits(self, rng):
        # against the sum without the range check, scales near the ends of
        # the float range included
        def unchecked(u, p):
            sigma, points, w_z, w_dir = multidim._line_grid(u, 8, 16)
            acc = np.array([u._sections(s, z)[1].local_energy(p) for s, z in
                            zip(np.split(sigma, len(w_z)), np.split(points, len(w_z)))])
            return 2.0 * float(np.cumsum(acc * w_z * w_dir)[-1])

        fields_at = [(AffineRamp((1e150, 0.0), UNIT_BOX), 2.0),
                     (RadialTent((0.0, 0.0), 1.0, 1e150), 2.0),
                     (RadialTent((0.0, 0.0), 1.0, 1e-150), 2.0)]
        for _ in range(8):
            p = float(rng.choice((1.0, 1.5, 2.0)))
            g, (r, peak) = (np.exp(rng.uniform(-30.0, 30.0, 2)) for _ in range(2))
            # a tensor tent's slopes near 1 and its center at 0: the pieces'
            # tolerance scales with |slope|^p, but a far center's rounding
            # is noise against small halfwidths
            w = r * np.exp(rng.uniform(-1.0, 1.0, 2))
            fields_at += [(AffineRamp(tuple(g * rng.choice((-1.0, 1.0), 2)), UNIT_BOX), p),
                          (RadialTent((0.1, -0.2), float(r), float(peak)), p),
                          (TensorTent((0.0, 0.0), tuple(w.tolist()), float(r)), p)]
        for u, p in fields_at:
            want = unchecked(u, p)
            assert 0.0 < want < math.inf
            assert local_energy_by_sectioning(u, p, 8, 16).hex() == want.hex()

    def test_local_energy_sectioning_identity(self):
        for p in (1.0, 2.0):
            lhs = local_energy_by_sectioning(TENT, p, 48, 192)
            rhs = spherical_moment(2, p).value * local_energy_field(TENT, p)
            assert math.isclose(lhs, rhs, rel_tol=1e-3)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_tensor_local_energy_sectioning_identity(self, p):
        # the midpoint grids miss the kinks: within 5e-5 at 48 x 192
        u = TensorTent((0.05, -0.1), (1.0, 0.7), 1.2)
        lhs = local_energy_by_sectioning(u, p, 48, 192)
        assert math.isclose(lhs, spherical_moment(2, p).value * u.local_energy(p), rel_tol=2e-4)


class TestSectioningEnergy:
    def test_constant_field_zero(self):
        flat = AffineRamp((0.0, 0.0), UNIT_BOX)
        est, err = energy_by_sectioning(flat, EnergyParams(0.2, 2.0), 8, 16)
        assert est == 0.0 and err == 0.0

    @pytest.mark.parametrize("args, name", [
        ((-2, 8), "n_dirs"), ((0, 8), "n_dirs"), ((1, 8), "n_dirs"), ((4.0, 8), "n_dirs"),
        ((True, 8), "n_dirs"), ((4, 1), "n_offsets"), ((4, 8.0), "n_offsets"),
        ((4, False), "n_offsets"), ((np.int64(4), "8"), "n_offsets")],
        ids=["negative", "zero", "one", "float", "bool", "one_offset", "float_offsets",
             "bool_offsets", "str_offsets"])
    def test_counts_are_integers_from_two(self, args, name):
        # one check for both estimators: -2 directions gave 0.0 and 0 a
        # ZeroDivisionError in the local energy, 4.0 a TypeError in the energy
        for estimate in (lambda: energy_by_sectioning(TENT, EnergyParams(0.2, 1.0), *args),
                         lambda: local_energy_by_sectioning(TENT, 1.0, *args)):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 2, got "):
                estimate()

    def test_numpy_integer_counts(self):
        a = energy_by_sectioning(TENT, EnergyParams(0.2, 1.0), np.int64(6), np.int32(8))
        assert a == energy_by_sectioning(TENT, EnergyParams(0.2, 1.0), 6, 8)

    def test_unsupported_dimension(self):
        u3 = RadialTent((0.0, 0.0, 0.0), 1.0, 1.0)
        with pytest.raises(UnsupportedDimension):
            energy_by_sectioning(u3, EnergyParams(0.2, 2.0))

    @pytest.mark.parametrize("box", [Box((0.0, 0.0), (math.inf, 1.0)),
                                     Box((0.0, -math.inf), (1.0, 1.0))],
                             ids=["inf_upper", "inf_lower"])
    def test_support_box_must_be_finite(self, box):
        ramp = AffineRamp((1.0, 1.0), box)
        side = r"\(0\.0, inf\)" if box.upper[0] == math.inf else r"\(-inf, 1\.0\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any arithmetic on the box
            with pytest.raises(DegenerateBox, match=rf"^support box side {side} must be finite$"):
                energy_by_sectioning(ramp, EnergyParams(0.25, 1.0), 4, 8)
            with pytest.raises(DegenerateBox, match=rf"^support box side {side} must be finite$"):
                local_energy_by_sectioning(ramp, 1.0, 4, 8)

    def test_matches_full_circle_midpoint_sum(self):
        # the estimators walk each unordered line once; the reference walks
        # every direction in [0, 2*pi), so even counts see each line twice
        def full_circle(u, n_dirs, n_offsets, inner):
            box = u.support_box()
            total = 0.0
            for j in range(n_dirs):
                direction = Direction.from_angle(2.0 * math.pi * (j + 0.5) / n_dirs)
                proj = [float(np.dot(direction.frame[0], (x, y)))
                        for x in (box.lower[0], box.upper[0])
                        for y in (box.lower[1], box.upper[1])]
                w_z = (max(proj) - min(proj)) / n_offsets
                for i in range(n_offsets):
                    sec = section(u, direction, min(proj) + (i + 0.5) * w_z)
                    if sec is not None:
                        total += inner(sec) * w_z * 2.0 * math.pi / n_dirs
            return total

        params = EnergyParams(0.1, 1.5)

        def energy(sec):
            step = sec.step_segmentation(params.delta)
            if step is None:
                return 0.0
            return step_energy(step, step.domain, params)

        # peak 0.97 keeps the top of every section off the grid: a top on a
        # level gives a top cell about sqrt(eps) wide, so a line and its
        # reverse would differ by about 1e-8 relative
        fields = (RadialTent((0.1, -0.2), 1.0, 0.97),
                  AffineRamp((0.6, -0.3), Box((0.0, 0.0), (1.0, 1.5))))
        for u in fields:
            for n_dirs in (5, 6, 8):
                est, err = energy_by_sectioning(u, params, n_dirs, 12)
                fine = 0.5 * full_circle(u, n_dirs, 12, energy)
                coarse = 0.5 * full_circle(u, n_dirs // 2, 6, energy)
                assert math.isclose(est, fine, rel_tol=1e-12)
                assert math.isclose(err, abs(fine - coarse), rel_tol=0.0,
                                    abs_tol=1e-12 * fine)
                local = local_energy_by_sectioning(u, 1.5, n_dirs, 12)
                ref = full_circle(u, n_dirs, 12, lambda sec: sec.local_energy(1.5))
                assert math.isclose(local, ref, rel_tol=1e-12)

    @pytest.mark.parametrize("u", [RadialTent((0.1, -0.2), 1.0, 0.97),
                                   AffineRamp((0.6, -0.3), Box((0.0, 0.0), (1.0, 1.5))),
                                   TensorTent((0.05, -0.1), (1.0, 0.7), 1.2)])
    def test_pass_adds_lines_in_offset_order(self, u):
        # each line's energy alone, added 0.0 + e0 + e1 + ... over the
        # offsets of a direction and then over the directions, bit for bit
        params = EnergyParams(0.05, 1.5)
        sigma, points, w_z, w_dir = multidim._line_grid(u, 10, 24)
        cells = _pass_cells(u, sigma, points, params.delta)
        total = 0.0
        for j, w in enumerate(w_z.tolist()):
            acc = 0.0
            for k in range(24 * j, 24 * j + 24):
                if k in cells:
                    edges, levels = cells[k]
                    acc += float(_unimodal_sums(edges, levels, [len(levels)], params)[0])
            total += acc * w * w_dir
        got = multidim._sectioning_pass(u, params, 10, 24)
        assert got.hex() == total.hex()

    @pytest.mark.parametrize("u", [TENT, AffineRamp((0.6, -0.3), Box((-1.0, -0.5), (1.0, 1.5)))],
                             ids=["radial", "ramp"])
    def test_line_energies_do_not_depend_on_blocks_or_bands(self, u, monkeypatch):
        # a pass's line energies in blocks of one line, of about 7 cells and
        # of the default size: the same bits, and none of them from the
        # bands of the pair sum
        params = EnergyParams(0.1, 1.5)
        sigma, points, _, _ = multidim._line_grid(u, 8, 32)
        monkeypatch.setattr(functional1d, "_pair_sum", _no_fallback)

        def line_energies(block):
            monkeypatch.setattr(fields, "_SECTION_CELLS", block)
            energies = np.zeros(len(points))
            lines, sections = u._sections(sigma, points)
            for i, edges, levels, counts in sections._cells(params.delta):
                energies[lines[i]] = _unimodal_sums(edges, levels, counts, params)
            return [e.hex() for e in energies.tolist()]

        want = line_energies(fields._SECTION_CELLS)
        assert any(float.fromhex(e) > 0.0 for e in want)
        for block in (1, 7):
            assert line_energies(block) == want

    @pytest.mark.parametrize("u, dirs, offsets, delta", [
        pytest.param(AffineRamp((0.6, -0.3), Box((-1.0, -0.5), (1.0, 1.5))), *grid, id=name)
        for name, grid in (("8-32-0.001", (8, 32, 1e-3)), ("48-192-0.01", (48, 192, 1e-2)),
                           ("48-192-0.001", (48, 192, 1e-3)))] + [
        pytest.param(TENT, 48, 192, delta, id=f"benchmark-{delta}") for delta in (0.1, 0.05)])
    def test_every_line_of_a_pass_takes_the_ranges(self, u, dirs, offsets, delta, monkeypatch):
        # a ramp's chords on distant level ranges, and the radial tent on
        # the benchmark's grids: every line is unimodal, so no line of a
        # pass falls back to the pair sum
        monkeypatch.setattr(functional1d, "_pair_sum", _no_fallback)
        params = EnergyParams(delta, 1.0)
        sigma, points, _, _ = multidim._line_grid(u, dirs, offsets)
        lines, sections = u._sections(sigma, points)
        n = 0
        for i, edges, levels, counts in sections._cells(delta):
            energies = _unimodal_sums(edges, levels, counts, params)
            assert np.all(np.isfinite(energies)) and np.all(energies[counts > 3] > 0.0)
            n += len(counts)
        assert n > len(lines) // 2
        assert math.isfinite(multidim._sectioning_pass(u, params, dirs, offsets))

    def test_short_chords_match_mpmath_at_p1(self):
        # a ramp's chords of up to 6 cells, some with cells of 2.6e-4 next
        # to 0.16: at p = 1 each range term is the closed form of one pair of
        # intervals, so a line is within 1e-15 of its 50-digit pair sum
        mp = pytest.importorskip("mpmath")
        u = AffineRamp((0.6, -0.3), Box((-1.0, -0.5), (1.0, 1.5)))
        params = EnergyParams(0.1, 1.0)
        sigma, points, _, _ = multidim._line_grid(u, 48, 192)
        checked = 0
        for _, edges, levels, counts in u._sections(sigma, points)[1]._cells(params.delta):
            got = _unimodal_sums(edges, levels, counts, params)
            for f, (a, n) in enumerate(zip((np.cumsum(counts) - counts).tolist(), counts.tolist())):
                if n > 6:
                    continue
                e, x = edges[a + f:a + f + n + 1].tolist(), levels[a:a + n]
                with mp.workdps(50):
                    want = 2 * params.delta * mp.fsum(
                        mp.log((mp.mpf(e[j]) - e[i]) * (mp.mpf(e[j + 1]) - e[i + 1])
                               / ((mp.mpf(e[j]) - e[i + 1]) * (mp.mpf(e[j + 1]) - e[i])))
                        for i in range(n) for j in range(i + 2, n) if abs(x[i] - x[j]) > 1)
                    if want > 0:
                        assert abs(got[f] - want) <= 1e-15 * want
                        checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("delta, per_cell", [(0.1, 123), (0.05, 137), (1e-3, 153)])
    def test_unimodal_sums_scratch_memory(self, delta, per_cell):
        # every block of a radial tent's pass at 48 x 192: the traced peak of
        # its range sums stays within per_cell bytes a cell (112, 124 and 139
        # measured with numpy 2.4)
        params = EnergyParams(delta, 1.0)
        sigma, points, _, _ = multidim._line_grid(TENT, 48, 192)
        for _, edges, levels, counts in TENT._sections(sigma, points)[1]._cells(delta):
            tracemalloc.start()
            try:
                energies = _unimodal_sums(edges, levels, counts, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(energies))
            assert peak <= per_cell * len(levels)

    def test_small_delta_stays_finite(self):
        # k*delta near 1 rounds by more than delta * 1e-12 below delta ~ 1e-4;
        # integer levels keep adjacent cells apart however k*delta rounds
        for delta in (6.25e-5, 3e-5):
            est, err = energy_by_sectioning(TENT, EnergyParams(delta, 1.0), 4, 8)
            assert math.isfinite(est) and math.isfinite(err) and est > 0.0
        # the central section, a 1D tent of variation 2, falls to 4 log 2
        central = []
        for delta in (6.25e-5, 3e-5, 1e-5):
            rho = np.zeros(1)
            top = _top_levels(rho, 1.0, 1.0, delta)
            edges, levels = _radial_cells(np.zeros(1), rho, top, 1.0, 1.0, delta)
            central.append(_unimodal_sums(edges, levels, [len(levels)],
                                          EnergyParams(delta, 1.0))[0])
        assert central == pytest.approx([2.77348, 2.77307, 2.77277], abs=6e-6)
        assert central[0] > central[1] > central[2] > 4.0 * math.log(2.0)

    def test_error_estimate_honest(self):
        params = EnergyParams(0.25, 2.0)
        ref, _ = energy_by_sectioning(TENT, params, 128, 512)
        est, err = energy_by_sectioning(TENT, params, 32, 128)
        assert abs(est - ref) <= max(err, 1e-4)


class TestMonteCarlo:
    def test_interactionless_field_is_zero(self):
        low = RadialTent((0.5, 0.5), 0.4, 0.3)   # delta > 2 * sup u
        est, se = energy_by_montecarlo(low, EnergyParams(0.7, 2.0), UNIT_BOX,
                                       20_000, 3)
        assert est == 0.0 and se == 0.0

    def test_deterministic_given_seed(self):
        params = EnergyParams(0.25, 2.0)
        a = energy_by_montecarlo(TENT, params, TENT.support_box(), 100_000, 11)
        b = energy_by_montecarlo(TENT, params, TENT.support_box(), 100_000, 11)
        assert a == b

    def test_box_must_cover_support(self):
        with pytest.raises(DegenerateBox):
            energy_by_montecarlo(TENT, EnergyParams(0.25, 2.0), UNIT_BOX, 1000, 0)

    def test_ramp_not_supported(self):
        ramp = AffineRamp((1.0, 0.0), UNIT_BOX)
        with pytest.raises(UnsupportedField):
            energy_by_montecarlo(ramp, EnergyParams(0.25, 2.0), UNIT_BOX, 1000, 0)

    def test_box_enlargement_invariance(self):
        # estimates agree within error bars when the sampling box changes
        params = EnergyParams(0.25, 2.0)
        n = 400_000
        tight = TENT.support_box()
        loose = Box((-1.7, -1.3), (1.4, 1.6))
        e1, s1 = energy_by_montecarlo(TENT, params, tight, n, 5)
        e2, s2 = energy_by_montecarlo(TENT, params, loose, n, 6)
        assert abs(e1 - e2) <= 4.0 * (s1 + s2)

    def test_cross_validation_with_sectioning(self):
        params = EnergyParams(0.25, 2.0)
        sect, serr = energy_by_sectioning(TENT, params, 48, 192)
        mc, mcerr = energy_by_montecarlo(TENT, params, TENT.support_box(),
                                         500_000, 12)
        assert abs(sect - mc) <= 3.0 * (mcerr + serr)

    def test_three_dimensional_tent(self):
        u3 = RadialTent((0.0, 0.0, 0.0), 1.0, 1.0)
        params = EnergyParams(0.4, 2.0)
        est, se = energy_by_montecarlo(u3, params, u3.support_box(), 200_000, 9)
        assert est > 0.0 and se > 0.0 and se < est

    CASES = [
        (TENT, EnergyParams(0.25, 2.0), Box((-1.7, -1.3), (1.4, 1.6))),
        (RadialTent((0.0, 0.0, 0.0), 1.0, 1.0), EnergyParams(0.4, 2.0), None),
        (TensorTent((0.0, 0.1), (1.0, 0.7), 1.0), EnergyParams(0.1, 1.5), None),
    ]

    @pytest.mark.parametrize("u,params,box", CASES)
    def test_hit_counts_match_weight_array(self, monkeypatch, u, params, box):
        # 10_500 samples are 11 chunks, the last one of 500
        box = box or u.support_box()
        monkeypatch.setattr(multidim, "_MC_CHUNK", 1000)
        for seed in (0, 7, 123):
            for n in (1, 999, 2500, 10_500):
                want = _weight_array_montecarlo(u, params, box, n, seed, 1000)
                got = energy_by_montecarlo(u, params, box, n, seed)
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (seed, n)

    @pytest.mark.parametrize("block", [1, 3, 5, 1000])
    @pytest.mark.parametrize("u,params,box", CASES)
    def test_block_edges_keep_hit_counts(self, monkeypatch, u, params, box, block):
        # blocks of 1, 3 and 5 rows end at every word offset mod 4 of each region's
        # stream, in chunks of 1000 and 999 rows; 2500 samples are 3 chunks
        box = box or u.support_box()
        monkeypatch.setattr(multidim, "_MC_CHUNK", 1000)
        monkeypatch.setattr(multidim, "_MC_BLOCK", block)
        for n in (999, 2500):
            want = _weight_array_montecarlo(u, params, box, n, 7, 1000)
            got = energy_by_montecarlo(u, params, box, n, 7)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), n

    @pytest.mark.parametrize("m", [1, 999, 1001])
    @pytest.mark.parametrize("d", [2, 3])
    def test_region_streams_are_slices_of_one_draw(self, d, m):
        # the points (d*m words), zc for d = 3, phi and r (m words each), each
        # read from its own generator 3 words at a time, are the chunk's one draw
        key = np.array([5, 2], dtype=np.uint64)
        whole = np.random.Generator(np.random.Philox(key=key)).random(2 * d * m)
        starts = [0, *range(d * m, 2 * d * m, m)]
        for start, end in zip(starts, [*starts[1:], 2 * d * m]):
            stream = multidim._stream_at(key, start)
            got = np.concatenate([stream.random(min(3, end - i)) for i in range(start, end, 3)])
            assert got.tobytes() == whole[start:end].tobytes(), (start, end)

    def test_chunk_error_reaches_the_caller(self, monkeypatch):
        # chunk 3 of 40 fails: the error reaches the caller as it is, the
        # chunks before it ran in index order on the calling thread, and no
        # chunk after it started
        monkeypatch.setattr(multidim, "_MC_CHUNK", 1000)
        chunk = multidim._montecarlo_chunk
        started = []

        def failing(*args):
            started.append((int(args[5][1]), threading.current_thread() is threading.main_thread()))
            if started[-1][0] == 3:
                raise MemoryError("chunk 3")
            return chunk(*args)

        monkeypatch.setattr(multidim, "_montecarlo_chunk", failing)
        with pytest.raises(MemoryError, match="chunk 3"):
            energy_by_montecarlo(TENT, EnergyParams(0.25, 2.0), TENT.support_box(), 40_000, 0)
        assert started == [(0, True), (1, True), (2, True), (3, True)]

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_chunk_scratch_memory(self, chunks):
        # the benchmark's field: the traced peak stays within 84 bytes per
        # sample in flight, one block (about 75 are measured), however many
        # chunks run.  A first, untraced call imports what the estimator
        # imports on first use, so the bound holds whichever test runs first
        params, box = EnergyParams(0.1, 1.0), TENT.support_box()
        energy_by_montecarlo(TENT, params, box, 1000, 0)
        tracemalloc.start()
        try:
            est, _ = energy_by_montecarlo(TENT, params, box, chunks * multidim._MC_CHUNK, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est > 0.0
        assert peak <= 84 * multidim._MC_BLOCK

    @pytest.mark.parametrize("chunks", [1, 2])
    @pytest.mark.parametrize("u,per_sample", [
        (TensorTent((0.0, 0.0), (1.0, 1.0), 1.0), 84),
        (RadialTent((0.0, 0.0, 0.0), 1.0, 1.0), 120),
        (TensorTent((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0), 120),
    ], ids=["tensor_d2", "radial_d3", "tensor_d3"])
    def test_chunk_scratch_memory_of_each_field(self, u, per_sample, chunks):
        # as test_chunk_scratch_memory, for the other fields: a block holds
        # one more axis in d = 3 (about 57 bytes a sample are measured in
        # d = 2 and 73 in d = 3)
        params, box = EnergyParams(0.1, 1.0), u.support_box()
        energy_by_montecarlo(u, params, box, 1000, 0)
        tracemalloc.start()
        try:
            est, _ = energy_by_montecarlo(u, params, box, chunks * multidim._MC_CHUNK, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est > 0.0
        assert peak <= per_sample * multidim._MC_BLOCK

    @pytest.mark.parametrize("box", [Box((-2.0, -2.0), (math.inf, 2.0)),
                                     Box((-math.inf, -2.0), (2.0, 2.0))],
                             ids=["inf_upper", "inf_lower"])
    def test_box_must_be_finite(self, box):
        with pytest.raises(DegenerateBox, match="must be finite"):
            energy_by_montecarlo(TENT, EnergyParams(0.25, 1.0), box, 10_000, 0)

    @pytest.mark.parametrize("n_samples, seed, name", [
        (True, 0, "n_samples"), (1000.0, 0, "n_samples"), (0, 0, "n_samples"),
        (1000, -1, "seed"), (1000, 2 ** 64, "seed"), (1000, 2 ** 70, "seed"),
        (1000, False, "seed"), (1000, 1.0, "seed"),
    ], ids=["n_bool", "n_float", "n_zero", "seed_negative", "seed_2_64", "seed_2_70",
            "seed_bool", "seed_float"])
    def test_count_arguments_are_integers_in_range(self, n_samples, seed, name):
        with pytest.raises(ValueError, match=name):
            energy_by_montecarlo(TENT, EnergyParams(0.25, 1.0), TENT.support_box(),
                                 n_samples, seed)

    def test_seeds_up_to_2_64_key_their_own_streams(self):
        # a seed above 2**63 used to reach Philox through a float cast, which
        # gave 2**63 + 1 the stream of 2**63 and overflowed at 2**64 - 1
        params, box = EnergyParams(0.25, 1.0), TENT.support_box()
        got = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1):
                got[seed] = energy_by_montecarlo(TENT, params, box, 3000, seed)
                want = _weight_array_montecarlo(TENT, params, box, 3000, seed, 3000)
                assert list(map(float.hex, got[seed])) == list(map(float.hex, want))
            assert got[2 ** 64 - 1] == energy_by_montecarlo(
                TENT, params, box, np.int64(3000), np.uint64(2 ** 64 - 1))
        assert len(set(got.values())) == 4

    def test_hit_counts_match_weight_array_at_full_chunks(self):
        n = multidim._MC_CHUNK + 777
        for u, params, box in self.CASES:
            box = box or u.support_box()
            got = energy_by_montecarlo(u, params, box, n, 4)
            want = _weight_array_montecarlo(u, params, box, n, 4, multidim._MC_CHUNK)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), u

    @pytest.mark.parametrize("u,params", [(TENT, EnergyParams(0.1, 1.0)),
                                          (RadialTent((0.0, 0.0, 0.0), 1.0, 1.0),
                                           EnergyParams(0.2, 1.5))], ids=["d2", "d3"])
    def test_edge_angles_match_cos_and_sin(self, monkeypatch, u, params):
        # the angle region yields U = 0, 1/4, 1/2, 3/4 and 1 - 2**-53 (where
        # tan(pi U) is about 1.6e16 at U = 1/2), 300 rows each, then seeded
        # draws; every other region is the chunk's own stream
        d, box, seed = u.dim, u.support_box(), 3
        edges = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53]
        angle_u = np.concatenate([np.repeat(edges, 300),
                                  np.random.default_rng(seed).random(2500)])
        m, key = len(angle_u), np.array([seed, 0], dtype=np.uint64)
        stream_at, floor_levels = multidim._stream_at, multidim._floor_levels
        evaluated = []  # the points, then the partners, of the chunk's one block
        assert m <= multidim._MC_BLOCK

        class AngleDraws:
            def random(self, n):
                assert n == m
                return angle_u.copy()

        def draws(key, word):
            return AngleDraws() if word == (2 * d - 2) * m else stream_at(key, word)

        def spy(u, points, delta):
            evaluated.append(points.copy())
            return floor_levels(u, points, delta)

        monkeypatch.setattr(multidim, "_stream_at", draws)
        monkeypatch.setattr(multidim, "_floor_levels", spy)
        lower, upper = np.asarray(box.lower), np.asarray(box.upper)
        r_min = params.delta / u.lipschitz
        got = multidim._montecarlo_chunk(u, params, r_min, lower, upper, key, m)

        x = lower + stream_at(key, 0).random((m, d)) * (upper - lower)
        phi = angle_u * (2.0 * math.pi)
        omega = np.column_stack([np.cos(phi), np.sin(phi)])
        if d == 3:
            zc = 2.0 * stream_at(key, d * m).random(m) - 1.0
            sc = np.sqrt(np.clip(1.0 - zc * zc, 0.0, None))
            omega = np.column_stack([sc[:, None] * omega, zc])
        r = r_min * (1.0 - stream_at(key, (2 * d - 1) * m).random(m)) ** (-1.0 / params.p)
        y = x + r[:, None] * omega
        hit = np.abs(np.floor(u.evaluate(y) / params.delta)
                     - np.floor(u.evaluate(x) / params.delta)) >= 2.0
        outside = np.any((y < lower) | (y > upper), axis=1)
        want = int(np.count_nonzero(hit)), int(np.count_nonzero(hit & outside))
        assert got == want and want[1] > 0
        assert len(evaluated) == 2
        partners = evaluated[1]
        assert np.isfinite(partners).all()
        assert (np.abs(partners - y) <= 4e-16 * r[:, None] + 2 * np.spacing(np.abs(y))).all()

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("u,delta,cause", [
        (RadialTent((0.0, 0.0), 1e-200, 1e200), 0.1, "Lipschitz constant L = inf"),
        (TensorTent((0.0, 0.0), (1e-200, 1.0), 1e200), 0.1, "Lipschitz constant L = inf"),
        (RadialTent((0.0, 0.0), 1.0, 1e200), 0.1, "partners at r_min"),  # x + r omega == x
        (RadialTent((0.0, 0.0), 1.0, 1.0), 1e-300, "partners at r_min"),
        (RadialTent((0.0, 0.0), 1e-200, 1e-190), 1e-191, "scale"),  # the box's volume is 0.0
        (RadialTent((0.0, 0.0), 1.0, 1e308), 1e300, "scale"),  # 8 pi L overflows, L^2 too
    ], ids=["radial_lipschitz_inf", "tensor_lipschitz_inf", "radial_partners_round",
            "delta_partners_round", "volume_underflows", "scale_overflows"])
    def test_scales_floats_cannot_carry_raise(self, u, delta, cause, p):
        with pytest.raises(multidim.ScaleOutOfRange, match=cause):
            energy_by_montecarlo(u, EnergyParams(delta, p), u.support_box(), 1000, 0)

    def test_resolution_bound(self):
        # r_min >= 2**-42 * sqrt(d * n_samples) * X, with X the box's
        # largest coordinate: at the bound the estimate runs, just below it
        # raises; a box far from the origin needs a larger r_min
        n, params = 1000, EnergyParams(0.25, 1.0)
        for c in (0.0, 1e6):
            box = Box((c - 1.0, -1.0), (c + 1.0, 1.0))
            bound = 2.0 ** -42 * math.sqrt(2 * n) * (abs(c) + 1.0)
            at = RadialTent((c, 0.0), 1.0, params.delta / bound)
            assert params.delta / at.lipschitz >= bound
            est, se = energy_by_montecarlo(at, params, box, n, 0)
            assert math.isfinite(est) and math.isfinite(se) and est > 0.0
            below = RadialTent((c, 0.0), 1.0, 1.001 * at.peak)
            with pytest.raises(multidim.ScaleOutOfRange, match="2\\*\\*-42"):
                energy_by_montecarlo(below, params, box, n, 0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("u", [
        TENT, RadialTent((0.3, -0.2), 0.7, 1.3), RadialTent((0.1, 0.0, -0.2), 0.8, 0.9),
        TensorTent((0.0, 0.1), (1.0, 0.7), 1.0),
        TensorTent((0.1, -0.2, 0.05), (0.9, 0.6, 1.2), 1.1),
    ], ids=["radial_d2", "radial_off_centre", "radial_d3", "tensor_d2", "tensor_d3"])
    def test_blocks_match_one_pass_over_the_chunk(self, monkeypatch, u, p):
        # 2777 samples are two blocks of 1000 and one of 777; a box larger
        # than the support on every side
        monkeypatch.setattr(multidim, "_MC_BLOCK", 1000)
        params = EnergyParams(0.1 if u.dim == 2 else 0.2, p)
        lower = np.asarray(u.support_box().lower) - 0.3
        upper = np.asarray(u.support_box().upper) + 0.2
        r_min = params.delta / u.lipschitz
        twice = 0
        for seed, index in ((0, 0), (7, 3), (2 ** 64 - 1, 1)):
            key = np.array([seed, index], dtype=np.uint64)
            got = multidim._montecarlo_chunk(u, params, r_min, lower, upper, key, 2777)
            want = _one_pass_chunk(u, params, r_min, lower, upper, key, 2777)
            assert got == want, (seed, index)
            twice += want[1]
        assert twice > 0

    def test_shares_no_code_with_the_closed_forms(self):
        # the oracle evaluates the field at points; it must not reach the
        # sections, the segmentations or the pair sum that it checks
        for fn in (multidim.energy_by_montecarlo, multidim._montecarlo_chunk,
                   multidim._floor_levels, multidim._stream_at):
            tree = ast.parse(inspect.getsource(fn))
            named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            assert "np" in named and not named & CLOSED_FORMS, (fn.__name__, named & CLOSED_FORMS)


def _one_pass_chunk(u, params, r_min, lower, upper, key, m):
    """The chunk's ``(hits, twice)`` from one generator and whole-chunk
    arrays, the points row-major and every partner box-tested, with the
    chunk's own float operations on each sample (the azimuth's tangent
    form): the reference for the blocked kernel, bit for bit."""
    d = len(lower)
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.random((m, d)) * (upper - lower) + lower
    zc = 2.0 * rng.random(m) - 1.0 if d == 3 else None
    t = np.tan(rng.random(m) * math.pi)
    q = 2.0 / (t * t + 1.0)
    omega = [q - 1.0, t * q]
    if d == 3:
        sc = np.sqrt(1.0 - zc * zc)
        omega = [w * sc for w in omega] + [zc]
    r = (1.0 - rng.random(m)) ** (-1.0 / params.p) * r_min
    y = x + np.column_stack([w * r for w in omega])
    k = [np.floor(u.evaluate(v) / params.delta) for v in (x, y)]
    hit = np.abs(k[1] - k[0]) >= 2.0
    outside = np.any((y < lower) | (y > upper), axis=1)
    return int(np.count_nonzero(hit)), int(np.count_nonzero(hit & outside))


def _weight_array_montecarlo(u, params, box, n_samples, seed, chunk):
    """Monte Carlo with one float weight per sample (0, or 1 + partner
    outside the box if the pair interacts) and every partner box-tested:
    the reference for energy_by_montecarlo's two hit counts per chunk."""
    d, delta, p = u.dim, params.delta, params.p
    lower, upper = np.asarray(box.lower), np.asarray(box.upper)
    r_min = delta / u.lipschitz
    sphere = 2.0 * math.pi if d == 2 else 4.0 * math.pi
    scale = box.volume * sphere * u.lipschitz ** p / p
    total = total_sq = 0.0
    done = chunk_index = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        key = np.array([seed, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = lower + rng.random((m, d)) * (upper - lower)
        if d == 2:
            phi = rng.random(m) * (2.0 * math.pi)
            omega = np.column_stack([np.cos(phi), np.sin(phi)])
        else:
            zc = 2.0 * rng.random(m) - 1.0
            phi = rng.random(m) * (2.0 * math.pi)
            sc = np.sqrt(np.clip(1.0 - zc * zc, 0.0, None))
            omega = np.column_stack([sc * np.cos(phi), sc * np.sin(phi), zc])
        r = r_min * (1.0 - rng.random(m)) ** (-1.0 / p)
        y = x + r[:, None] * omega
        interact = np.abs(np.floor(u.evaluate(y) / delta) - np.floor(u.evaluate(x) / delta)) >= 2.0
        outside = np.any((y < lower) | (y > upper), axis=1)
        w = np.where(interact, 1.0 + outside.astype(float), 0.0)
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += m
        chunk_index += 1
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return scale * mean, scale * math.sqrt(var / n_samples)


def test_delta_sweep_approaches_limit():
    limit = gamma_limit_constant(2, 2.0).value * local_energy_field(TENT, 2.0)
    dists = []
    for delta in (0.4, 0.2, 0.1):
        est, _ = energy_by_sectioning(TENT, EnergyParams(delta, 2.0), 32, 128)
        dists.append(abs(est - limit))
    assert dists[0] > dists[1] > dists[2]


@pytest.mark.parametrize("make, name", [
    (lambda: TensorTent((0.0, 0.0), (math.inf, 1.0), 1.0), "halfwidth"),
    (lambda: TensorTent((0.0, 0.0), (1.0, 1.0), math.inf), "peak"),
    (lambda: RadialTent((0.0, 0.0), 1.0, math.inf), "peak"),
    (lambda: RadialTent((0.0, 0.0), math.inf, 1.0), "radius"),
    (lambda: AffineRamp((math.nan, 1.0), UNIT_BOX), "gradient"),
    (lambda: AffineRamp((1.0, -math.inf), UNIT_BOX), "gradient"),
    (lambda: RadialTent((math.nan, 0.0), 1.0, 1.0), "center"),
    (lambda: TensorTent((0.0, math.inf), (1.0, 1.0), 1.0), "center"),
], ids=["tensor_halfwidth", "tensor_peak", "radial_peak", "radial_radius",
        "ramp_nan_gradient", "ramp_inf_gradient", "radial_nan_center", "tensor_inf_center"])
def test_field_parameters_must_be_finite(make, name):
    with pytest.raises(UnsupportedField, match=name):
        make()


@pytest.mark.parametrize("u", [TensorTent((0.05, -0.1), (1.0, 0.7), 1.2),
                               TensorTent((0.1, -0.2, 0.05), (0.9, 0.6, 1.2), 1.1)])
def test_tensor_tent_evaluate_matches_broadcast_formula(u, rng):
    # the factors one column at a time, bit for bit the (n, d) broadcast;
    # points inside and outside the support, some coordinates on a kink or
    # on a face of the support
    c, w = np.asarray(u.center), np.asarray(u.halfwidths)
    pts = rng.uniform(c - 1.5 * w, c + 1.5 * w, (4000, u.dim))
    at = rng.integers(0, 6, pts.shape)
    pts = np.select([at == 0, at == 1, at == 2], [c, c - w, c + w], pts)
    want = u.peak * np.prod(np.clip(1.0 - np.abs(pts - c) / w, 0.0, None), axis=-1)
    assert np.array_equal(u.evaluate(pts), want)
    assert 0 < np.count_nonzero(want) < len(want) and (want == u.peak).any()
    assert [u(x) for x in pts[:100]] == want[:100].tolist()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tents_evaluate_as_their_numpy_formulas(d, rng):
    # RadialTent as peak * max(0, 1 - np.linalg.norm(x - c, axis=-1) / r) and
    # TensorTent as peak * np.prod(max(0, 1 - |x - c| / w), axis=-1), bit for
    # bit: points inside, on the support's boundary (axis points and the
    # 3-4-5 triangle at radius 5) and outside, with coordinates of +0.0 and -0.0
    tents = [RadialTent((0.0,) * d, 5.0, 0.7),
             RadialTent(tuple(rng.uniform(-0.5, 0.5, d)), 0.9, 1.3),
             TensorTent((0.0,) * d, (5.0,) * d, 0.7),
             TensorTent(tuple(rng.uniform(-0.5, 0.5, d)), tuple(rng.uniform(0.5, 1.5, d)), 1.2)]
    for u in tents:
        c = np.asarray(u.center)
        reach = u.radius if isinstance(u, RadialTent) else np.asarray(u.halfwidths)
        pts = rng.uniform(c - 1.5 * reach, c + 1.5 * reach, (3000, d))
        edges = np.concatenate([c + reach * np.eye(d), c - reach * np.eye(d), [c]])
        if d >= 2:
            edges = np.concatenate([edges, [c + np.r_[3.0, 4.0, [0.0] * (d - 2)]]])
        signed_zero = rng.integers(0, 4, pts.shape)
        pts = np.where(signed_zero == 0, 0.0, np.where(signed_zero == 1, -0.0, pts))
        pts = np.concatenate([pts, edges, -0.0 * edges])
        if isinstance(u, RadialTent):
            want = u.peak * np.clip(1.0 - np.linalg.norm(pts - c, axis=-1) / u.radius, 0.0, None)
        else:
            want = u.peak * np.prod(np.clip(1.0 - np.abs(pts - c) / reach, 0.0, None), axis=-1)
        got = u.evaluate(pts)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), u
        assert (want == 0.0).any() and (want > 0.0).any() and (want == u.peak).any(), u
        assert [u(x) for x in pts[-50:]] == want[-50:].tolist()
    on_sphere = np.concatenate([5.0 * np.eye(d), -5.0 * np.eye(d)])
    assert (tents[0].evaluate(on_sphere) == 0.0).all()  # |x| = 5 exactly


def test_tents_without_axes_are_their_peak():
    for u in (RadialTent((), 1.0, 0.7), TensorTent((), (), 0.7)):
        assert u.evaluate(np.zeros((3, 0))).tolist() == [0.7] * 3


def test_tensor_tent_lipschitz_past_the_range_of_squares(rng):
    # peak * sqrt(sum 1 / w^2), as before, where it is a positive float; the
    # norm of peak / w where w^2 under- or overflows
    assert TensorTent((0.0, 0.0), (1e-200, 1.0), 1e200).lipschitz == math.inf
    assert TensorTent((0.0, 0.0), (1e-200, 1.0), 1e-190).lipschitz == pytest.approx(1e10)
    assert TensorTent((0.0, 0.0), (1e200, 1e200), 1e190).lipschitz == \
        pytest.approx(math.sqrt(2.0) * 1e-10)
    for _ in range(200):
        w = tuple(np.exp(rng.uniform(-30.0, 30.0, rng.integers(1, 5))))
        peak = float(np.exp(rng.uniform(-30.0, 30.0)))
        u = TensorTent((0.0,) * len(w), w, peak)
        assert u.lipschitz == peak * math.sqrt(sum(1.0 / v ** 2 for v in w))


def test_affine_ramp_lipschitz_past_the_range_of_squares(rng):
    # np.linalg.norm, as before, where it is a positive float; math.hypot of
    # the gradient where a square under- or overflows, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert AffineRamp((1e200, 0.0), UNIT_BOX).lipschitz == 1e200
        assert AffineRamp((0.0, -1e-200), UNIT_BOX).lipschitz == 1e-200
        assert AffineRamp((3e200, 4e200), UNIT_BOX).lipschitz == pytest.approx(5e200)
        assert AffineRamp((3e-200, 4e-200), UNIT_BOX).lipschitz == pytest.approx(5e-200)
        assert AffineRamp((0.0, -0.0), UNIT_BOX).lipschitz == 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        g = tuple(np.exp(rng.uniform(-60.0, 60.0, d)) * rng.choice((-1.0, 1.0), d))
        ramp = AffineRamp(g, Box((0.0,) * d, (1.0,) * d))
        assert ramp.lipschitz.hex() == float(np.linalg.norm(g)).hex()


def test_degenerate_box_rejected():
    with pytest.raises(DegenerateBox):
        Box((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(DegenerateBox):
        Box((0.0,), (1.0, 2.0))


def test_three_dimensional_section_commutes(rng):
    delta = 0.2
    for d, u3 in itertools.product(
            (Direction.from_vector((0.3, -1.0, 0.5)), Direction.from_vector((0.0, 0.0, 1.0))),
            (RadialTent((0.1, -0.2, 0.05), 0.9, 1.1),
             TensorTent((0.1, -0.2, 0.05), (0.9, 0.6, 1.2), 1.1))):
        sec = section(u3, d, (0.15, -0.1))
        step = sec.step_segmentation(delta)
        for t in rng.uniform(-2.0, 2.0, 500):
            pt = d.point((0.15, -0.1), float(t))
            want = delta * grid_floor_level(float(u3(pt)), delta)
            got = step(float(t)) if step is not None else 0.0
            assert got == pytest.approx(want, abs=1e-12)
