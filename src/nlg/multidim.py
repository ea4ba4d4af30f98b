"""d-dimensional energies via line sections and Monte Carlo.

A d-dimensional non-local energy averages, over all line directions and
offsets, the one-dimensional energies of the restrictions to those lines
(with a factor 1/2 because sigma and -sigma give the same line):

    energy(u, R^d) = 1/2 * int_{S^(d-1)} int_{sigma-perp}
                     energy(u restricted to the line z + sigma*R) dz dsigma,

and the same representation without the 1/2 holds for the local energy
with an extra factor spherical_moment(d, p).  The d = 2 estimators walk
each unordered line once, which applies the 1/2.  The catalog fields
below expose exact level-crossing solutions along any line, so the
section of a vertically segmented field is an exact StepFunction1D and
the inner 1D energy is computed in closed form; only the two outer
integrals carry discretization error.  A sectioning pass hands the
sections' cells to the pair sum as integer levels, many sections per
call (radial sections built for all offsets of a direction at once).

Both estimators here target the segmented field: the sectioning path
computes the energy of the vertical segmentation exactly in the inner
dimension, and the Monte Carlo indicator compares grid levels, so the
two are estimates of the same number and can cross-validate at fixed
delta (the segmentations are also exactly the recovery family whose
energies converge to the limit constant times the local energy).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quad
from .core import PiecewiseAffine1D, StepFunction1D, TailMode
from .functional1d import (INF, EnergyParams, _check_p, _first_past, _pair_sum, _ragged_arange,
                           step_cells)
from .functional1d import step_energy  # noqa: F401 -- perfbench's tracer rebinds it here
from .rearrange import _level_runs, _on_level, grid_floor_level, vertical_segmentation


class UnsupportedDimension(ValueError):
    """Requested dimension outside what this estimator supports."""


class DegenerateBox(ValueError):
    """Bounding box with a nonpositive side."""


class UnsupportedField(ValueError):
    """Operation not available for this field type, or a bad field parameter."""


def _check_positive(name: str, v: float):
    if not 0.0 < v < INF:
        raise UnsupportedField(f"{name} must be positive and finite, got {v}")


def _check_finite_sides(name: str, box: Box):
    for lo, hi in zip(box.lower, box.upper):
        if not math.isfinite(hi - lo):
            raise DegenerateBox(f"{name} side ({lo}, {hi}) must be finite")


def _check_finite(name: str, vs: tuple[float, ...]):
    if not all(map(math.isfinite, vs)):
        raise UnsupportedField(f"{name} must be finite, got {vs}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis lower and upper bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if len(self.lower) != len(self.upper):
            raise DegenerateBox("lower/upper dimension mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise DegenerateBox(f"side ({lo}, {hi}) is empty")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.upper) - np.asarray(self.lower)))

    def contains_box(self, other: "Box") -> bool:
        return all(a <= c and d <= b for a, b, c, d in
                   zip(self.lower, self.upper, other.lower, other.upper))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class Direction:
    """Unit vector plus an orthonormal frame of its orthogonal complement."""

    sigma: tuple[float, ...]
    frame: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        s = np.asarray(self.sigma)
        if not abs(np.linalg.norm(s) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("sigma must be a unit vector")
        vecs = [s] + [np.asarray(f) for f in self.frame]
        if len(vecs) != len(s):
            raise ValueError(f"frame must have {len(s) - 1} vectors")
        gram = np.asarray([[float(np.dot(a, b)) for b in vecs] for a in vecs])
        if not np.max(np.abs(gram - np.eye(len(s)))) <= 1e-12:
            raise ValueError("frame is not orthonormal to sigma")

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "Direction":
        v = np.asarray(v, dtype=float)
        if not 0.0 < np.linalg.norm(v) < math.inf:
            raise ValueError(f"a direction needs a nonzero finite vector, got {v.tolist()}")
        s = _unit(v)
        d = len(s)
        if d == 2:
            frame = [np.asarray([-s[1], s[0]])]
        elif d == 3:
            k = int(np.argmin(np.abs(s)))
            e = np.zeros(3)
            e[k] = 1.0
            u1 = _unit(e - s[k] * s)
            u2 = np.cross(s, u1)
            frame = [u1, u2]
        else:
            # complete to an orthonormal basis; QR of [sigma | identity-ish]
            m = np.column_stack([s, np.eye(d)])
            q, _ = np.linalg.qr(m)
            q[:, 0] = s
            frame = [q[:, i] for i in range(1, d)]
        return cls(tuple(s), tuple(tuple(f) for f in frame))

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        return cls.from_vector((math.cos(theta), math.sin(theta)))

    def point(self, z: Sequence[float], t: float = 0.0) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        pt = t * np.asarray(self.sigma)
        for zi, f in zip(zs, self.frame):
            pt = pt + zi * np.asarray(f)
        return pt


# ---------------------------------------------------------------------------
# 1D sections
# ---------------------------------------------------------------------------

class AffineSection:
    """Restriction of an affine field to a line chord; domain-only."""

    def __init__(self, offset: float, slope: float, t0: float, t1: float):
        self.offset = offset
        self.slope = slope
        self.t0 = t0
        self.t1 = t1

    def __call__(self, t: float) -> float:
        return self.offset + self.slope * t

    def local_energy(self, p: float) -> float:
        return abs(self.slope) ** p * (self.t1 - self.t0)

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        pwa = PiecewiseAffine1D(((self.t0, self(self.t0)), (self.t1, self(self.t1))),
                                compact_support=False)
        return vertical_segmentation(pwa, delta)


class RadialSection:
    """Restriction of a radial tent to a line: a bump of height peak*(1 - rho/r)."""

    def __init__(self, t_center: float, rho: float, radius: float, peak: float):
        self.t_center = t_center
        self.rho = rho
        self.radius = radius
        self.peak = peak

    @property
    def half_width(self) -> float:
        if self.rho >= self.radius:
            return 0.0
        return math.sqrt(self.radius ** 2 - self.rho ** 2)

    def __call__(self, t: float) -> float:
        dist = math.hypot(self.rho, t - self.t_center)
        return self.peak * max(0.0, 1.0 - dist / self.radius)

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        rho = np.array([self.rho])
        top = _top_levels(rho, self.radius, self.peak, delta)
        if top[0] < 1:
            return None
        edges, levels = _radial_cells(np.array([self.t_center]), rho, top,
                                      self.radius, self.peak, delta)
        return StepFunction1D(edges[1:-1], levels[1:-1] * delta, TailMode.COMPACT_SUPPORT)

    def local_energy(self, p: float) -> float:
        return _radial_local_energy(np.array([self.rho]), self.radius, self.peak, p)


def _radial_lines(u: RadialTent, sigma: Sequence[float], points: np.ndarray):
    """``(along, rho)`` of the lines through the rows of ``points`` along
    ``sigma``: the center of ``u`` sits at t = -along on a line, at distance
    rho from it.  The sums run in axis order, for one line as for many."""
    along = norm2 = 0.0
    for w, s in zip((points - np.asarray(u.center)).T, sigma):
        along = along + w * s
        norm2 = norm2 + w * w
    return along, np.sqrt(np.maximum(norm2 - along * along, 0.0))


def _radial_local_energy(rho: np.ndarray, radius: float, peak: float, p: float) -> float:
    """The summed local energies of radial sections at distances ``rho``,
    2 (peak/r)^p times the integral of (s^2 / (rho^2 + s^2))^(p/2) over s
    in (0, T), T = sqrt(r^2 - rho^2), to an absolute tolerance of 1e-12 T
    each; the integrand is 1 on a section through the center."""
    rho = rho[rho < radius]
    half = np.sqrt(radius * radius - rho * rho)
    off = rho > 0.0
    rho2 = rho[off] * rho[off]
    value, _ = _quad.adaptive_intervals_1d(
        lambda s, i: (s * s / (rho2[i] + s * s)) ** (p / 2.0), 0.0, half[off],
        1e-12 * np.sum(half) + 1e-300)
    return 2.0 * (peak / radius) ** p * (value + float(np.sum(half[~off])))


def _top_levels(rho: np.ndarray, radius: float, peak: float, delta: float) -> np.ndarray:
    """The highest level a radial section at distances ``rho`` crosses: the
    floor level of its top peak*(1 - rho/r), less one where the top sits on
    that level (its level set would be a single point); below 1 if none."""
    top = peak * (1.0 - rho / radius)
    n = grid_floor_level(top, delta)
    return n - _on_level(top, n, delta)


def _radial_cells(t_center, rho, top, radius, peak, delta):
    """Cells of radial sections with top levels ``top >= 1``, laid end to end
    with their zero tails: ``(edges, levels)``, with ``2*top + 1`` integer
    levels 0, 1, .., top, .., 1, 0 per section.  The profile
    peak*(1 - sqrt(rho^2 + s^2)/r) crosses level k at s = -+sqrt(reach^2 -
    rho^2), with reach = r*(1 - k*delta/peak)."""
    k = 1 + _ragged_arange(top)
    reach = radius * (1.0 - k * delta / peak)
    r = np.repeat(rho, top)
    half = np.sqrt(np.maximum(reach * reach - r * r, 0.0))
    t = np.repeat(t_center, top)
    e0 = 2 * (np.cumsum(top) - top) + 2 * np.arange(len(top))  # a section's -inf
    edges = np.empty(2 * int(top.sum()) + 2 * len(top))
    edges[e0], edges[e0 + 2 * top + 1] = -INF, INF
    at = np.repeat(e0, top) + k
    edges[at] = t - half
    edges[at + 2 * (np.repeat(top, top) - k) + 1] = t + half
    n = np.repeat(top, 2 * top + 1)
    return edges, (n - np.abs(_ragged_arange(2 * top + 1) - n)).astype(float)


def _horner(coef: np.ndarray, t) -> np.ndarray:
    """Row i of ``coef`` (lowest degree first) evaluated at ``t[..., i]``."""
    v = coef[:, -1]
    for c in coef[:, -2::-1].T:
        v = v * t + c
    return v


class PolySection:
    """Piecewise polynomial section (tensor-product fields): row i of
    ``coef``, lowest degree first, on [cuts[i], cuts[i+1]]; 0 outside."""

    def __init__(self, cuts: np.ndarray, coef: np.ndarray):
        self.cuts = cuts
        self.coef = coef
        self.slope = coef[:, 1:] * np.arange(1, coef.shape[1])  # derivative rows

    def __call__(self, t: float) -> float:
        if not self.cuts[0] <= t <= self.cuts[-1]:
            return 0.0
        i = max(int(np.searchsorted(self.cuts, t)) - 1, 0)
        return max(float(_horner(self.coef[i:i + 1], t)[0]), 0.0)

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        a, b, coef, slope = self.cuts[:-1], self.cuts[1:], self.coef, self.slope
        # a product of nonnegative affine factors is log-concave, so a piece
        # is monotone on both sides of at most one interior maximum
        i = np.flatnonzero((_horner(slope, a) > 0.0) & (_horner(slope, b) < 0.0))
        tops = _first_past(lambda t, s=slope[i]: _horner(s, t) < 0.0, a[i], b[i])
        xs = np.sort(np.concatenate((self.cuts, tops)))
        owner = np.searchsorted(a, xs, side="right") - 1
        ys = np.maximum(_horner(coef[owner], xs), 0.0)
        rise = ys[1:] > ys[:-1]

        def crossings(j, values):
            c, up = coef[owner[j]], rise[j]
            return _first_past(lambda t: (_horner(c, t) >= values) == up, xs[j], xs[j + 1])

        step = _level_runs(xs, ys, delta, crossings, compact_support=True)
        return step if step is not None and step.values.any() else None

    def local_energy(self, p: float) -> float:
        a, b = self.cuts[:-1], self.cuts[1:]
        return _quad.adaptive_intervals_1d(lambda t, i: np.abs(_horner(self.slope[i], t)) ** p,
                                           a, b, 1e-10 * float(np.sum(b - a)) + 1e-300)[0]


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineRamp:
    """u(x) = <gradient, x> on a box; domain-only, not extended by zero."""

    gradient: tuple[float, ...]
    box: Box

    def __post_init__(self):
        object.__setattr__(self, "gradient", tuple(float(g) for g in self.gradient))
        if len(self.gradient) != self.box.dim:
            raise UnsupportedField("gradient dimension does not match the box")
        _check_finite("gradient", self.gradient)

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.gradient))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ np.asarray(self.gradient)

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float)))

    def support_box(self) -> Box:
        return self.box

    def local_energy(self, p: float) -> float:
        return self.lipschitz ** p * self.box.volume

    def section_along(self, sigma: Sequence[float], z_point: np.ndarray):
        s = np.asarray(sigma)
        z = np.asarray(z_point, dtype=float)
        t0, t1 = -math.inf, math.inf
        for lo, hi, zi, si in zip(self.box.lower, self.box.upper, z, s):
            if si == 0.0:
                if not lo <= zi <= hi:
                    return None
                continue
            a, b = sorted(((lo - zi) / si, (hi - zi) / si))
            t0, t1 = max(t0, a), min(t1, b)
        if not t0 < t1:
            return None
        g = np.asarray(self.gradient)
        return AffineSection(float(np.dot(g, z)), float(np.dot(g, s)), t0, t1)


@dataclass(frozen=True)
class RadialTent:
    """u(x) = peak * max(0, 1 - |x - center| / radius)."""

    center: tuple[float, ...]
    radius: float
    peak: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        _check_finite("center", self.center)
        _check_positive("radius", self.radius)
        _check_positive("peak", self.peak)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def lipschitz(self) -> float:
        return self.peak / self.radius

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # |x - c| summed column by column in axis order, as
        # np.linalg.norm(axis=-1) sums it, without its (n, d) temporaries
        dist = np.zeros(pts.shape[:-1])
        for i, c in enumerate(self.center):
            t = pts[..., i] - c
            t *= t
            dist += t
        np.sqrt(dist, out=dist)
        dist /= self.radius
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, None, out=dist)
        dist *= self.peak
        return dist

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float))[0])

    def support_box(self) -> Box:
        c = np.asarray(self.center)
        return Box(tuple(c - self.radius), tuple(c + self.radius))

    def local_energy(self, p: float) -> float:
        d = self.dim
        ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * self.radius ** d
        return (self.peak / self.radius) ** p * ball

    def section_along(self, sigma: Sequence[float], z_point: np.ndarray):
        along, rho = _radial_lines(self, sigma, np.asarray(z_point, dtype=float)[None])
        return RadialSection(-float(along[0]), float(rho[0]), self.radius, self.peak)


@dataclass(frozen=True)
class TensorTent:
    """u(x) = peak * product over axes of max(0, 1 - |x_i - c_i| / w_i)."""

    center: tuple[float, ...]
    halfwidths: tuple[float, ...]
    peak: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "halfwidths", tuple(float(w) for w in self.halfwidths))
        if len(self.center) != len(self.halfwidths):
            raise UnsupportedField("center/halfwidths dimension mismatch")
        _check_finite("center", self.center)
        _check_positive("peak", self.peak)
        for w in self.halfwidths:
            _check_positive("halfwidth", w)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def lipschitz(self) -> float:
        return self.peak * math.sqrt(sum(1.0 / w ** 2 for w in self.halfwidths))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = np.asarray(self.center)
        w = np.asarray(self.halfwidths)
        factors = np.clip(1.0 - np.abs(pts - c) / w, 0.0, None)
        return self.peak * np.prod(factors, axis=-1)

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float))[0])

    def support_box(self) -> Box:
        c = np.asarray(self.center)
        w = np.asarray(self.halfwidths)
        return Box(tuple(c - w), tuple(c + w))

    def local_energy(self, p: float) -> float:
        # |grad u|^p has no closed form for general p.  With the unit tent
        # factors f_x, f_y, |grad u| = peak * hypot(f_y / w0, f_x / w1),
        # which is continuous across the kinks x_i = c_i; the even initial
        # grid puts those on cell edges.
        if self.dim != 2:
            raise UnsupportedField("tensor tent local energy is implemented for d = 2")
        (c0, c1), (w0, w1) = self.center, self.halfwidths

        def g(xs, ys):
            fx = 1.0 - np.abs(xs - c0) / w0
            fy = 1.0 - np.abs(ys - c1) / w1
            return np.hypot(fy / w0, fx / w1) ** p

        bound = 4.0 * w0 * w1 * math.hypot(1.0 / w0, 1.0 / w1) ** p  # area times the largest g
        raw, _ = _quad.adaptive_cells_2d(g, c0 - w0, c0 + w0, c1 - w1, c1 + w1, 1e-11 * bound)
        return raw * float(self.peak) ** p

    def section_along(self, sigma: Sequence[float], z_point: np.ndarray):
        s = np.asarray(sigma)
        z = np.asarray(z_point, dtype=float)
        c = np.asarray(self.center)
        w = np.asarray(self.halfwidths)
        t0, t1 = -math.inf, math.inf
        const_factor = 1.0
        lines = []  # (axis, kink) per nonconstant axis: factor 1 - |z_i + s_i t - c_i| / w_i
        for i in range(self.dim):
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
            row = np.array([self.peak * const_factor])
            for i, _ in lines:
                sign = 1.0 if z[i] + s[i] * mid >= c[i] else -1.0
                # 1 - sign*(z_i + s_i t - c_i)/w_i as a polynomial in t
                row = np.convolve(row, [1.0 - sign * (z[i] - c[i]) / w[i], -sign * s[i] / w[i]])
            coef.append(row)
        return PolySection(np.array(cuts), np.array(coef))


ScalarField = AffineRamp | RadialTent | TensorTent


def section(u: ScalarField, direction: Direction, z: Sequence[float] | float):
    """One-dimensional restriction of u to the line {point(z) + sigma*t}.

    ``z`` is given in the coordinates of the direction's orthogonal frame.
    Returns a section object (callable, with the exact ``step_segmentation``
    and ``local_energy``), or None if the line misses the domain.
    """
    if isinstance(z, (int, float)):
        z = (float(z),)
    z_point = direction.point(z)
    return u.section_along(direction.sigma, z_point)


def local_energy_field(u: ScalarField, p: float) -> float:
    """Integral of |grad u|^p over the field's domain."""
    _check_p(p)
    if isinstance(u, (AffineRamp, RadialTent, TensorTent)):
        return u.local_energy(p)
    raise UnsupportedField(f"unknown field type {type(u).__name__}")


# ---------------------------------------------------------------------------
# sectioning estimators (d = 2)
# ---------------------------------------------------------------------------

def _offset_range(u: ScalarField, direction: Direction) -> tuple[float, float]:
    box = u.support_box()
    f = np.asarray(direction.frame[0])
    corners = np.array([[box.lower[0], box.lower[1]], [box.lower[0], box.upper[1]],
                        [box.upper[0], box.lower[1]], [box.upper[0], box.upper[1]]])
    proj = corners @ f
    return float(np.min(proj)), float(np.max(proj))


def _line_grid(u: ScalarField, n_dirs: int, n_offsets: int):
    """The midpoint grid of unordered lines, one direction at a time:
    ``(direction, offsets, w_z, w_dir)``, each line weighing w_z * w_dir, with
    w_dir = pi / lines.  theta and theta + pi give the same line reversed, so
    an even ``n_dirs`` walks only the first half of its direction grid on
    [0, 2*pi)."""
    n_lines, arc = (n_dirs // 2, math.pi) if n_dirs % 2 == 0 else (n_dirs, 2.0 * math.pi)
    w_dir = math.pi / n_lines
    for j in range(n_lines):
        direction = Direction.from_angle(arc * (j + 0.5) / n_lines)
        z_lo, z_hi = _offset_range(u, direction)
        w_z = (z_hi - z_lo) / n_offsets
        yield direction, z_lo + (np.arange(n_offsets) + 0.5) * w_z, w_z, w_dir


# cells summed by one pair-sum call of a sectioning pass, and built at a
# time along a direction; bounds the pass's memory at small delta
_SECTION_CELLS = 1 << 14


def _section_cells(u: ScalarField, direction: Direction, zs: np.ndarray, delta: float):
    """The nonempty segmented sections of ``u`` on the lines of one direction
    at offsets ``zs``, in order, as blocks ``(edges, levels, counts)`` of
    sections laid end to end with integer levels, a block about
    ``_SECTION_CELLS`` cells or one section.  Radial sections are built from
    their closed form, all offsets at once; other fields give the cells of
    each section's ``step_segmentation``."""
    if not isinstance(u, RadialTent):
        for z in zs.tolist():
            sec = section(u, direction, z)
            step = None if sec is None else sec.step_segmentation(delta)
            if step is not None:
                edges, values = step_cells(step, step.domain)
                yield edges, np.rint(values / delta), np.array([len(values)])
        return
    along, rho = _radial_lines(u, direction.sigma, np.outer(zs, direction.frame[0]))
    top = _top_levels(rho, u.radius, u.peak, delta)
    keep = top >= 1
    along, rho, top = along[keep], rho[keep], top[keep]
    counts = 2 * top + 1
    block = (np.cumsum(counts) - counts) // _SECTION_CELLS
    cuts = (np.flatnonzero(np.diff(block)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(top)] if len(top) else []):
        edges, levels = _radial_cells(-along[a:b], rho[a:b], top[a:b],
                                      u.radius, u.peak, delta)
        yield edges, levels, counts[a:b]


def _batches(blocks):
    """Consecutive ``(owner, edges, levels, counts)`` blocks, grouped into
    lists of at most ``_SECTION_CELLS`` cells, or of one larger block."""
    batch, cells = [], 0
    for block in blocks:
        if batch and cells + len(block[2]) > _SECTION_CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(block)
        cells += len(block[2])
    if batch:
        yield batch


def _sectioning_pass(u: ScalarField, params: EnergyParams, n_dirs: int,
                     n_offsets: int) -> float:
    """Midpoint sum of the sections' exact energies over the line grid.  The
    sections are summed in batches of about ``_SECTION_CELLS`` cells, one
    pair sum each; each direction then adds its energies in offset order."""
    lines = list(_line_grid(u, n_dirs, n_offsets))
    energies = [[] for _ in lines]
    blocks = ((j, *block) for j, (direction, zs, _, _) in enumerate(lines)
              for block in _section_cells(u, direction, zs, params.delta))
    for batch in _batches(blocks):
        owner, edges, levels, counts = zip(*batch)
        e = _pair_sum(np.concatenate(edges), np.concatenate(levels),
                      np.concatenate(counts), 1, params)
        for j, part in zip(owner, np.split(e, np.cumsum([len(c) for c in counts])[:-1])):
            energies[j].append(part)
    total = 0.0
    for (_, _, w_z, w_dir), e in zip(lines, energies):
        acc = float(np.cumsum(np.concatenate(e))[-1]) if e else 0.0  # 0.0 + e0 + e1 + ...
        total += acc * w_z * w_dir
    return total


def _check_sectioning(u: ScalarField):
    if u.dim != 2:
        raise UnsupportedDimension("sectioning quadrature is implemented for d = 2")
    _check_finite_sides("support box", u.support_box())


def energy_by_sectioning(u: ScalarField, params: EnergyParams,
                         n_dirs: int = 64, n_offsets: int = 256
                         ) -> tuple[float, float]:
    """Sectioning estimate of the energy of the segmented field, d = 2.

    Every inner 1D energy is exact: the closed-form pair sum over the exactly
    sectioned step function, on its integer grid levels, so adjacent levels
    never interact whatever the float rounding of k*delta.  The two outer
    integrals use composite midpoint rules.  The error estimate is the raw
    difference from a second pass on the half-resolution grid, with no
    Richardson factor.  Returns (estimate, error_estimate).
    """
    _check_sectioning(u)
    if n_dirs < 2 or n_offsets < 2:
        raise ValueError("need at least 2 directions and offsets")
    fine = _sectioning_pass(u, params, n_dirs, n_offsets)
    coarse = _sectioning_pass(u, params, max(n_dirs // 2, 2), max(n_offsets // 2, 2))
    # the offset integrand has kinks, so the usual factor 1/3 of the
    # half-grid comparison is not reliable; report the raw difference
    return fine, abs(fine - coarse)


def local_energy_by_sectioning(u: ScalarField, p: float, n_dirs: int = 64,
                               n_offsets: int = 256) -> float:
    """Outer average of the sections' local energies; equals
    spherical_moment(2, p) times the field's local energy.  Radial sections
    are integrated all offsets of a direction at once."""
    _check_sectioning(u)
    total = 0.0
    for direction, zs, w_z, w_dir in _line_grid(u, n_dirs, n_offsets):
        if isinstance(u, RadialTent):
            _, rho = _radial_lines(u, direction.sigma, np.outer(zs, direction.frame[0]))
            acc = _radial_local_energy(rho, u.radius, u.peak, p)
        else:
            secs = (section(u, direction, z) for z in zs.tolist())
            acc = sum(sec.local_energy(p) for sec in secs if sec is not None)
        total += acc * w_z * w_dir
    # every line once is half of the integral over all directions
    return 2.0 * total


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 19


def _cpus() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_montecarlo_counts(n_samples, seed):
    """Raise ``ValueError`` unless ``n_samples`` is an integer >= 1 and
    ``seed`` one in [0, 2**64), as :func:`energy_by_montecarlo` needs."""
    if not (_is_int(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def energy_by_montecarlo(u: ScalarField, params: EnergyParams, bounding_box: Box,
                         n_samples: int, seed: int) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of the segmented field's energy.

    One point is uniform in the box, the partner sits at a distance drawn
    from the density proportional to r^(-1-p) on [delta/L, infinity) --
    with that density the radial kernel factor cancels exactly, so each
    sample contributes V * |S^(d-1)| * L^p / p times an indicator weight.
    Pairs whose partner leaves the box are counted twice, which restores
    the contribution of the mirrored pair (interaction forces at least
    one point inside the box, since the box must contain the support).

    Streams are counter-based per fixed-size chunk (Philox keyed by
    (seed, chunk index)), and a chunk yields two integer hit counts, so
    the result is reproducible bit for bit for a given seed whatever the
    order the chunks run in.  The chunks are shared out among one thread
    per core (the calling thread is one of them), at most one per chunk.
    ``n_samples`` must be an integer >= 1 and ``seed`` one in [0, 2**64).
    """
    d = u.dim
    if d not in (2, 3):
        raise UnsupportedDimension("Monte Carlo supports d in {2, 3}")
    if isinstance(u, AffineRamp):
        raise UnsupportedField("Monte Carlo needs a compactly supported field")
    if bounding_box.dim != d:
        raise DegenerateBox("bounding box dimension does not match the field")
    _check_finite_sides("bounding box", bounding_box)
    if not bounding_box.contains_box(u.support_box()):
        raise DegenerateBox("bounding box must contain the support of the field")
    _check_montecarlo_counts(n_samples, seed)

    lip = u.lipschitz
    r_min = params.delta / lip
    lower = np.asarray(bounding_box.lower)
    upper = np.asarray(bounding_box.upper)
    n_chunks = -(-n_samples // _MC_CHUNK)
    n_workers = min(_cpus(), n_chunks)
    sums = [None] * n_workers
    stop = threading.Event()  # set when a worker fails or is interrupted

    def work(worker: int):
        # chunks worker, worker + n_workers, ...: exact integer sums of the
        # weights and their squares, where a hit weighs 1, or 2 if counted twice
        try:
            total = total_sq = 0
            for i in range(worker, n_chunks, n_workers):
                if stop.is_set():
                    return
                m = min(_MC_CHUNK, n_samples - i * _MC_CHUNK)
                hits, twice = _montecarlo_chunk(u, params, r_min, lower, upper,
                                                np.array([seed, i], dtype=np.uint64), m)
                total += hits + twice
                total_sq += hits + 3 * twice
            sums[worker] = total, total_sq
        except BaseException as exc:  # re-raised in the calling thread
            sums[worker] = exc
            stop.set()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, n_workers)]
    for t in threads:
        t.start()
    work(0)  # raises nothing: a failure is kept in sums[0]
    for t in threads:
        t.join()
    for s in sums:
        if isinstance(s, BaseException):
            raise s
    total = sum(s[0] for s in sums)
    total_sq = sum(s[1] for s in sums)

    sphere = 2.0 * math.pi if d == 2 else 4.0 * math.pi
    scale = bounding_box.volume * sphere * lip ** params.p / params.p
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    estimate = scale * mean
    stderr = scale * math.sqrt(var / n_samples)
    return estimate, stderr


def _montecarlo_chunk(u: ScalarField, params: EnergyParams, r_min: float, lower: np.ndarray,
                      upper: np.ndarray, key: np.ndarray, m: int) -> tuple[int, int]:
    """One chunk of ``m`` samples drawn from the Philox stream ``key``:
    ``(hits, twice)``, the interacting pairs and those of them whose partner
    leaves the box.  The partners are written over the points once the
    points' levels are known, so few arrays of ``m`` rows are alive at once."""
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.random((m, len(lower)))
    x *= upper - lower
    x += lower
    kx = _floor_levels(u, x, params.delta)
    outside = _move_to_partners(rng, x, r_min, params.p, lower, upper)
    ky = _floor_levels(u, x, params.delta)
    ky -= kx
    hit = np.abs(ky, out=ky) >= 2.0
    return int(np.count_nonzero(hit)), int(np.count_nonzero(hit & outside))


def _floor_levels(u: ScalarField, points: np.ndarray, delta: float) -> np.ndarray:
    k = u.evaluate(points)
    k /= delta
    return np.floor(k, out=k)


def _move_to_partners(rng: np.random.Generator, x: np.ndarray, r_min: float, p: float,
                      lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Draw each point's partner y = x + r * omega and write it over x, one
    axis at a time: omega uniform on the unit sphere (d = 2 or 3), r from the
    density proportional to r^(-1-p) on [r_min, infinity).  Returns the mask
    of partners outside the box [lower, upper]."""
    m, d = x.shape
    if d == 3:
        zc = rng.random(m)
        zc *= 2.0
        zc -= 1.0
    phi = rng.random(m)
    phi *= 2.0 * math.pi
    r = rng.random(m)
    np.subtract(1.0, r, out=r)
    r **= -1.0 / p
    r *= r_min
    omega = [np.cos(phi), np.sin(phi, out=phi)]
    if d == 3:
        sc = zc * zc  # sin of the polar angle, sqrt(1 - zc^2)
        np.subtract(1.0, sc, out=sc)
        np.sqrt(np.clip(sc, 0.0, None, out=sc), out=sc)
        omega[0] *= sc
        omega[1] *= sc
        omega.append(zc)
    outside = np.zeros(m, dtype=bool)
    for i, w in enumerate(omega):
        w *= r
        y = x[:, i]
        y += w
        outside |= y < lower[i]
        outside |= y > upper[i]
    return outside
