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
integrals carry discretization error.  There is one way to build
sections: a field's ``_sections`` takes every line of a sectioning pass
as arrays, and the section classes hold many lines, whose cells they
build in blocks; a lone section is the one-line case.  A pass hands each
block's cells to the pair sum as integer levels, many lines per call.

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
from .core import StepFunction1D, TailMode
from .functional1d import INF, EnergyParams, _check_p, _first_past, _pair_sum, _ragged_arange
from .functional1d import step_energy  # noqa: F401 -- perfbench's tracer rebinds it here
from .rearrange import _level_cells, _merge_cells, _on_level, _pwa_crossings, grid_floor_level
from .rearrange import vertical_segmentation  # noqa: F401 -- perfbench's tracer rebinds it here


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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        if zs.shape != (len(self.frame),):
            raise ValueError(f"z must have {len(self.frame)} components, got {zs.tolist()}")
        return t * np.asarray(self.sigma) + zs @ np.asarray(self.frame)


# ---------------------------------------------------------------------------
# 1D sections, one line at a time or all lines of a pass at once
# ---------------------------------------------------------------------------

# cells summed by one pair-sum call of a sectioning pass, and built at a
# time; bounds the pass's memory at small delta
_SECTION_CELLS = 1 << 14


def _spans(sizes: np.ndarray):
    """Consecutive ranges ``(a, b)`` of lines with ``sizes`` cells, about
    ``_SECTION_CELLS`` cells each: a range ends with the line that reaches it."""
    cuts = (np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _SECTION_CELLS)) + 1).tolist()
    return zip([0, *cuts], [*cuts, len(sizes)] if len(sizes) else [])


def _node_cells(xs, ys, nodes: np.ndarray, delta: float, crossings, compact: bool):
    """Cell blocks ``(lines, edges, levels, counts)`` of the segmented
    sections whose nodes ``(xs, ys)`` are laid end to end, ``nodes[i]`` for
    line i, each section monotone between its consecutive nodes: one
    ``_level_cells`` call a block of about ``_SECTION_CELLS`` cells, merged
    by ``_merge_cells``.  ``crossings`` is the engine's callback, called a
    chunk at a time, with pieces numbered in ``xs``.
    Integer levels; lines without a cell are left out.  A compact line, on
    level 0 at both ends like a section at the edge of a field's support,
    gets zero tails out to -+inf for the pair sum."""
    first = np.append(0, np.cumsum(nodes))  # line i's first node, and the end
    steps = np.abs(np.diff(grid_floor_level(ys, delta))) + 1
    steps[first[1:-1] - 1] = 0  # the joins between lines
    for a, b in _spans(np.add.reduceat(np.append(steps, 0), first[:-1])):
        lo, hi = first[a], first[b]
        join = np.isin(np.arange(lo + 1, hi), first[a + 1:b])  # the piece before a line
        edges, values, cell = _level_cells(xs[lo:hi], ys[lo:hi], delta,
                                           lambda i, v: crossings(i + lo, v), join)
        lines, edges, values, counts = _merge_cells(edges, values, cell[join], compact)
        if compact:  # zero tails at each line's first cell and one past its last
            at = np.column_stack((np.cumsum(counts) - counts, np.cumsum(counts))).ravel()
            values = np.insert(values, at, 0.0)
            edges = np.insert(edges, at + (np.arange(len(at)) + 1) // 2,
                              np.resize((-INF, INF), len(at)))
            counts = counts + 2
        if len(lines):
            yield a + lines, edges, np.rint(values / delta), counts


class AffineSection:
    """Restriction of an affine field to a line chord (t0, t1), where it is
    offset + slope*t; domain-only.  The section of one line holds floats,
    the sections of many lines hold arrays of them."""

    def __init__(self, offset, slope, t0, t1):
        self.offset = offset
        self.slope = slope
        self.t0 = t0
        self.t1 = t1

    def __call__(self, t: float) -> float:
        return self.offset + self.slope * t

    def local_energy(self, p: float) -> float:
        energies = np.abs(self.slope) ** p * np.subtract(self.t1, self.t0)
        return float(np.cumsum(np.append(0.0, energies))[-1])  # 0.0 + e0 + e1 + ...

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        for _, edges, levels, _ in self._cells(delta):  # one block, or none: None
            return StepFunction1D(edges, levels * delta, TailMode.DOMAIN_ONLY)

    def _cells(self, delta: float):
        """Cell blocks of the segmentations, each the one of the domain-only
        piecewise affine function from (t0, u(t0)) to (t1, u(t1))."""
        offset, slope, t0, t1 = map(np.atleast_1d, (self.offset, self.slope, self.t0, self.t1))
        y0, y1 = offset + slope * t0, offset + slope * t1
        xs, ys = np.column_stack((t0, t1)).ravel(), np.column_stack((y0, y1)).ravel()
        rate = np.repeat((y1 - y0) / (t1 - t0), 2)[:-1]  # a join's is never used
        return _node_cells(xs, ys, np.full(len(t0), 2), delta,
                           lambda i, v: _pwa_crossings(xs, ys, rate, i, v), compact=False)


def _chords(lo, hi, sigma, points):
    """``(lines, s, z, t0, t1)``: the lines along ``sigma[i]`` through
    ``points[i]`` that cross the box [lo, hi], as rows, and the ends t0 < t1
    of their chords in it."""
    s, z = np.atleast_2d(sigma), np.atleast_2d(points)
    flat = s == 0.0  # an axis the line runs across does not bound its chord
    ta, tb = (lo - z) / np.where(flat, 1.0, s), (hi - z) / np.where(flat, 1.0, s)
    t0 = np.where(flat, -INF, np.minimum(ta, tb)).max(axis=1)
    t1 = np.where(flat, INF, np.maximum(ta, tb)).min(axis=1)
    lines = np.flatnonzero((t0 < t1) & (~flat | ((lo <= z) & (z <= hi))).all(axis=1))
    return lines, s[lines], z[lines], t0[lines], t1[lines]


class RadialSection:
    """Restriction of a radial tent to a line: a bump of height peak*(1 - rho/r)
    centred at t_center.  The section of one line holds floats, the sections
    of many lines hold arrays of ``t_center`` and ``rho``."""

    def __init__(self, t_center, rho, radius: float, peak: float):
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
        for _, edges, levels, _ in self._cells(delta):  # one block, or none: None
            return StepFunction1D(edges[1:-1], levels[1:-1] * delta, TailMode.COMPACT_SUPPORT)

    def local_energy(self, p: float) -> float:
        """2 (peak/r)^p times the integral of (s^2 / (rho^2 + s^2))^(p/2)
        over s in (0, T), T = sqrt(r^2 - rho^2), summed over the sections to
        an absolute tolerance of 1e-12 T each; the integrand is 1 on a
        section through the center."""
        radius, rho = self.radius, np.atleast_1d(self.rho)
        rho = rho[rho < radius]
        half = np.sqrt(radius * radius - rho * rho)
        off = rho > 0.0
        rho2 = rho[off] * rho[off]
        value, _ = _quad.adaptive_intervals_1d(
            lambda s, i: (s * s / (rho2[i] + s * s)) ** (p / 2.0), 0.0, half[off],
            1e-12 * np.sum(half) + 1e-300)
        return 2.0 * (self.peak / radius) ** p * (value + float(np.sum(half[~off])))

    def _cells(self, delta: float):
        """Cell blocks from the closed form; sections below level 1 are left out."""
        t_center, rho = np.atleast_1d(self.t_center), np.atleast_1d(self.rho)
        top = _top_levels(rho, self.radius, self.peak, delta)
        lines = np.flatnonzero(top >= 1)
        t_center, rho, top = t_center[lines], rho[lines], top[lines]
        for a, b in _spans(2 * top + 1):
            edges, levels = _radial_cells(t_center[a:b], rho[a:b], top[a:b],
                                          self.radius, self.peak, delta)
            yield lines[a:b], edges, levels, 2 * top[a:b] + 1


def _radial_lines(u: RadialTent, sigma, points: np.ndarray):
    """``(along, rho)`` of the lines along ``sigma`` (one vector, or one a
    line) through the rows of ``points``: the center of ``u`` sits at t =
    -along on a line, at distance rho from it.  The sums run in axis order,
    for one line as for many."""
    along = norm2 = 0.0
    for w, s in zip((points - np.asarray(u.center)).T, np.asarray(sigma).T):
        along = along + w * s
        norm2 = norm2 + w * w
    return along, np.sqrt(np.maximum(norm2 - along * along, 0.0))


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
    ``coef``, lowest degree first, on [cuts[i], cuts[i+1]]; 0 outside.  The
    sections of many lines lie end to end, line j with ``pieces[j]`` rows
    on ``pieces[j] + 1`` cuts; one line's has ``pieces == [len(coef)]``."""

    def __init__(self, cuts: np.ndarray, coef: np.ndarray, pieces: np.ndarray):
        self.cuts = cuts
        self.coef = coef
        self.pieces = pieces

    def __call__(self, t: float) -> float:
        if not self.cuts[0] <= t <= self.cuts[-1]:
            return 0.0
        i = max(int(np.searchsorted(self.cuts, t)) - 1, 0)
        return max(float(_horner(self.coef[i:i + 1], t)[0]), 0.0)

    def _piece_ends(self):
        """Each piece's first cut, its ends and its derivative row."""
        at = np.arange(len(self.coef)) + np.repeat(np.arange(len(self.pieces)), self.pieces)
        slope = self.coef[:, 1:] * np.arange(1, self.coef.shape[1])
        return at, self.cuts[at], self.cuts[at + 1], slope

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        for _, edges, levels, _ in self._cells(delta):  # one block, or none: None
            return StepFunction1D(edges[1:-1], levels[1:-1] * delta, TailMode.COMPACT_SUPPORT)

    def local_energy(self, p: float) -> float:
        """The summed local energies, all pieces in one quadrature call."""
        _, a, b, slope = self._piece_ends()
        return _quad.adaptive_intervals_1d(lambda t, i: np.abs(_horner(slope[i], t)) ** p,
                                           a, b, 1e-10 * float(np.sum(b - a)) + 1e-300)[0]

    def _cells(self, delta: float):
        """Cell blocks of the segmentations.  A product of nonnegative affine
        factors is log-concave, so a piece is monotone on both sides of at
        most one interior maximum: one search finds every top, and the tops
        split the pieces into monotone ones."""
        coef, pieces = self.coef, self.pieces
        at, a, b, slope = self._piece_ends()
        top = (_horner(slope, a) > 0.0) & (_horner(slope, b) < 0.0)
        tops = _first_past(lambda t, s=slope[top]: _horner(s, t) < 0.0, a[top], b[top])
        # the nodes: the cuts, each top after its piece's first cut
        line = np.repeat(np.arange(len(pieces)), pieces + 1)
        owner = np.arange(len(line)) - line  # the piece a cut starts
        owner[np.cumsum(pieces + 1) - 1] -= 1  # or, a line's last cut, ends
        at = at[top] + 1
        xs, owner, line = (np.insert(v, at, x) for v, x in
                           ((self.cuts, tops), (owner, np.flatnonzero(top)), (line, line[at])))
        ys = np.maximum(_horner(coef[owner], xs), 0.0)
        rise = ys[1:] > ys[:-1]

        # one bisection a chunk of the engine: a block's short pieces share
        # one, and a long piece, with its number passed once, has its own
        def crossings(j, values):
            j = np.broadcast_to(j, values.shape)
            c, up = coef[owner[j]], rise[j]
            return _first_past(lambda t: (_horner(c, t) >= values) == up, xs[j], xs[j + 1])

        return _node_cells(xs, ys, np.bincount(line, minlength=len(pieces)), delta, crossings,
                           compact=True)


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
        lines, sec = self._sections(sigma, np.asarray(z_point, dtype=float))
        chord = (sec.offset, sec.slope, sec.t0, sec.t1)
        return AffineSection(*(float(v[0]) for v in chord)) if len(lines) else None

    def _sections(self, sigma: np.ndarray, points: np.ndarray):
        """The lines along ``sigma[i]`` through ``points[i]`` that cross the
        box, and their sections."""
        lo, hi = np.asarray(self.box.lower), np.asarray(self.box.upper)
        lines, s, z, t0, t1 = _chords(lo, hi, sigma, points)
        g = np.asarray(self.gradient)  # np.vecdot sums like np.dot(g, z), line by line
        return lines, AffineSection(np.vecdot(z, g), np.vecdot(s, g), t0, t1)


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

    def _sections(self, sigma: np.ndarray, points: np.ndarray):
        """The lines along ``sigma[i]`` through ``points[i]``, and their sections."""
        along, rho = _radial_lines(self, sigma, points)
        return np.arange(len(rho)), RadialSection(-along, rho, self.radius, self.peak)


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
        lines, sec = self._sections(sigma, np.asarray(z_point, dtype=float))
        return sec if len(lines) else None

    def _sections(self, sigma: np.ndarray, points: np.ndarray):
        """The lines along ``sigma[i]`` through ``points[i]`` that meet the
        support, and their sections: on each line, the support's ends and the
        kinks between them cut it into pieces of degree d."""
        c, w = np.asarray(self.center), np.asarray(self.halfwidths)
        lines, s, z, t0, t1 = _chords(c - w, c + w, sigma, points)
        kink = (c - z) / np.where(s == 0.0, 1.0, s)
        inside = (s != 0.0) & (t0[:, None] < kink) & (kink < t1[:, None])
        cand = np.sort(np.column_stack((t0, t1, np.where(inside, kink, INF))), axis=1)
        new = np.isfinite(cand)
        new[:, 1:] &= cand[:, 1:] != cand[:, :-1]
        cuts, pieces = cand[new], new.sum(axis=1) - 1
        line = np.repeat(np.arange(len(lines)), pieces)
        s, z, at = s[line], z[line], np.arange(len(line)) + line  # at: a piece's first cut
        sign = np.where(z + s * (0.5 * (cuts[at] + cuts[at + 1]))[:, None] >= c, 1.0, -1.0)
        coef = np.full((len(line), 1), self.peak)
        # times 1 - sign_i*(z_i + s_i t - c_i)/w_i, axis by axis, as a polynomial in t
        for alpha, beta in zip((1.0 - sign * (z - c) / w).T, (-sign * s / w).T):
            coef = (np.pad(coef * alpha[:, None], ((0, 0), (0, 1)))
                    + np.pad(coef * beta[:, None], ((0, 0), (1, 0))))
        return lines, PolySection(cuts, coef, pieces)


ScalarField = AffineRamp | RadialTent | TensorTent


def section(u: ScalarField, direction: Direction, z: Sequence[float] | float):
    """One-dimensional restriction of u to the line {point(z) + sigma*t}.

    ``z`` is given in the coordinates of the direction's orthogonal frame.
    Returns a section object (callable, with the exact ``step_segmentation``
    and ``local_energy``), or None if the line misses the domain.
    """
    return u.section_along(direction.sigma, direction.point(z))


def local_energy_field(u: ScalarField, p: float) -> float:
    """Integral of |grad u|^p over the field's domain."""
    _check_p(p)
    if isinstance(u, (AffineRamp, RadialTent, TensorTent)):
        return u.local_energy(p)
    raise UnsupportedField(f"unknown field type {type(u).__name__}")


# ---------------------------------------------------------------------------
# sectioning estimators (d = 2)
# ---------------------------------------------------------------------------

def _line_grid(u: ScalarField, n_dirs: int, n_offsets: int):
    """The midpoint grid of unordered lines as arrays ``(sigma, points, w_z,
    w_dir)``: line i runs along ``sigma[i]`` through ``points[i]``, the
    ``n_offsets`` lines of a direction in a row, and a line of direction j
    weighs w_z[j] * w_dir, with w_dir = pi / directions.  theta and theta +
    pi give the same line reversed, so an even ``n_dirs`` walks only the
    first half of its direction grid on [0, 2*pi)."""
    n_lines, arc = (n_dirs // 2, math.pi) if n_dirs % 2 == 0 else (n_dirs, 2.0 * math.pi)
    dirs = [Direction.from_angle(arc * (j + 0.5) / n_lines) for j in range(n_lines)]
    box = u.support_box()  # the offsets span the projections of its corners
    corners = np.stack(np.meshgrid(*zip(box.lower, box.upper), indexing="ij"), -1).reshape(-1, 2)
    proj = np.array([corners @ np.asarray(d.frame[0]) for d in dirs])
    z_lo, z_hi = proj.min(axis=1), proj.max(axis=1)
    w_z = (z_hi - z_lo) / n_offsets
    zs = z_lo[:, None] + (np.arange(n_offsets) + 0.5) * w_z[:, None]
    points = zs[:, :, None] * np.array([d.frame[0] for d in dirs])[:, None, :]
    sigma = np.repeat([d.sigma for d in dirs], n_offsets, axis=0)
    return sigma, points.reshape(-1, 2), w_z, math.pi / n_lines


def _sectioning_pass(u: ScalarField, params: EnergyParams, n_dirs: int,
                     n_offsets: int) -> float:
    """Midpoint sum of the sections' exact energies over the line grid.  The
    field's sections of every line of the pass build their cells as arrays
    (``_cells``), in blocks of about ``_SECTION_CELLS`` cells that may span
    directions: ``(lines, edges, levels, counts)``, the nonempty lines'
    cells laid end to end with integer levels, one more edge a line, and
    ``lines`` indexing the sections.  A block is one pair sum; each
    direction then adds its energies in offset order."""
    sigma, points, w_z, w_dir = _line_grid(u, n_dirs, n_offsets)
    energies = np.zeros(len(points))
    lines, sections = u._sections(sigma, points)
    for i, edges, levels, counts in sections._cells(params.delta):
        energies[lines[i]] = _pair_sum(edges, levels, counts, 1, params)
    # 0.0 + e0 + e1 + ... in offset order, where an empty line adds 0.0, and
    # then over the directions in order
    acc = np.cumsum(energies.reshape(len(w_z), -1), axis=1)[:, -1]
    return float(np.cumsum(acc * w_z * w_dir)[-1])


def _check_sectioning(u: ScalarField, n_dirs, n_offsets):
    """Raise unless ``u`` is a d = 2 field with a finite support box and
    ``n_dirs`` and ``n_offsets`` are integers >= 2."""
    if u.dim != 2:
        raise UnsupportedDimension("sectioning quadrature is implemented for d = 2")
    _check_finite_sides("support box", u.support_box())
    for name, n in (("n_dirs", n_dirs), ("n_offsets", n_offsets)):
        if not (_is_int(n) and n >= 2):
            raise ValueError(f"{name} must be an integer >= 2, got {n!r}")


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
    _check_sectioning(u, n_dirs, n_offsets)
    fine = _sectioning_pass(u, params, n_dirs, n_offsets)
    coarse = _sectioning_pass(u, params, max(n_dirs // 2, 2), max(n_offsets // 2, 2))
    # the offset integrand has kinks, so the usual factor 1/3 of the
    # half-grid comparison is not reliable; report the raw difference
    return fine, abs(fine - coarse)


def local_energy_by_sectioning(u: ScalarField, p: float, n_dirs: int = 64,
                               n_offsets: int = 256) -> float:
    """Outer average of the sections' local energies; equals
    spherical_moment(2, p) times the field's local energy.  The sections of
    a direction are integrated together, in one quadrature call."""
    _check_sectioning(u, n_dirs, n_offsets)
    sigma, points, w_z, w_dir = _line_grid(u, n_dirs, n_offsets)
    acc = np.array([u._sections(s, z)[1].local_energy(p) for s, z in
                    zip(np.split(sigma, len(w_z)), np.split(points, len(w_z)))])
    # every line once is half of the integral over all directions
    return 2.0 * float(np.cumsum(acc * w_z * w_dir)[-1])


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 19
# samples in flight per chunk: the fastest size with two workers (2**12 is
# bound by the GIL), and the smallest of the fast ones
_MC_BLOCK = 1 << 14


def _cpus() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    return scale * mean, scale * math.sqrt(var / n_samples)


def _montecarlo_chunk(u: ScalarField, params: EnergyParams, r_min: float, lower: np.ndarray,
                      upper: np.ndarray, key: np.ndarray, m: int) -> tuple[int, int]:
    """One chunk of ``m`` samples drawn from the Philox stream ``key``:
    ``(hits, twice)``, the interacting pairs and those of them whose partner
    leaves the box.  Each point has a partner y = x + r * omega: omega
    uniform on the unit sphere (d = 2 or 3), r from the density proportional
    to r^(-1-p) on [r_min, infinity).

    The stream holds the points (d * m words, row-major), then, for d = 3,
    the polar cosines zc, then the angles' uniforms U and the radii's
    uniforms (m words each).  Each region is read from its own generator,
    started at its first word, and the samples are walked in blocks of
    ``_MC_BLOCK``, so only arrays of block rows are alive and the draws are
    those of one pass over the chunk, whatever the block size.  A block
    writes the partners over the points, one axis at a time, once the
    points' levels are known, and frees the directions and radii before it
    evaluates the partners' levels.

    The azimuth phi = 2 pi U comes from the tangent of its half,
    t = tan(pi U), which is half of it exactly (fl(2 pi U) = 2 fl(pi U)):
    cos phi = (1 - t^2) / (1 + t^2) and sin phi = 2t / (1 + t^2), within
    3.4e-16 of libm's cos and sin.  numpy runs tan as a SIMD loop and cos
    and sin as scalar libm loops (numpy 2.4), so one tan and a few
    elementwise operations cost well under the two.  At U = 1/2, t is
    about 1.6e16 and t^2 stays finite.  For d = 3 both scale by the sine of
    the polar angle, sqrt(1 - zc^2), and zc = 2 U' - 1 is the third axis."""
    d = len(lower)
    points, *polar, angles, radii = [_stream_at(key, o)
                                     for o in (0, *range(d * m, 2 * d * m, m))]
    hits = twice = 0
    for start in range(0, m, _MC_BLOCK):
        n = min(_MC_BLOCK, m - start)
        x = points.random((n, d))
        for i in range(d):
            x[:, i] *= upper[i] - lower[i]
            x[:, i] += lower[i]
        kx = _floor_levels(u, x, params.delta)
        t = angles.random(n)
        np.tan(np.multiply(t, math.pi, out=t), out=t)
        q = t * t
        np.divide(2.0, np.add(q, 1.0, out=q), out=q)
        t *= q  # sin phi = t q, with q = 2 / (1 + t^2)
        omega = [np.subtract(q, 1.0, out=q), t]  # cos phi = q - 1
        if d == 3:
            zc = polar[0].random(n)
            zc *= 2.0
            zc -= 1.0
            sc = zc * zc  # zc^2 <= 1, so 1 - zc^2 >= 0
            np.sqrt(np.subtract(1.0, sc, out=sc), out=sc)
            omega = [np.multiply(w, sc, out=w) for w in omega] + [zc]
        r = radii.random(n)
        np.subtract(1.0, r, out=r)
        r **= -1.0 / params.p
        r *= r_min
        outside = np.zeros(n, dtype=bool)
        for i, w in enumerate(omega):
            w *= r
            y = x[:, i]
            y += w
            outside |= y < lower[i]
            outside |= y > upper[i]
        del omega, w, t, q, r  # the partners' levels take their place
        ky = _floor_levels(u, x, params.delta)
        ky -= kx
        hit = np.abs(ky, out=ky) >= 2.0
        hits += int(np.count_nonzero(hit))
        twice += int(np.count_nonzero(hit & outside))
    return hits, twice


def _stream_at(key: np.ndarray, word: int) -> np.random.Generator:
    """A generator on the Philox stream ``key`` that starts at its
    ``word``-th 64-bit word; a double takes one word."""
    bits = np.random.Philox(key=key, counter=word // 4)
    bits.random_raw(word % 4)
    return np.random.Generator(bits)


def _floor_levels(u: ScalarField, points: np.ndarray, delta: float) -> np.ndarray:
    k = u.evaluate(points)
    k /= delta
    return np.floor(k, out=k)
