"""The field catalog: d-dimensional scalar fields and their exact line sections.

A field (``AffineRamp``, ``RadialTent``, ``TensorTent``) evaluates itself
at points, knows its support box, Lipschitz constant and local energy, and
restricts itself to lines.  Its sections expose exact level-crossing
solutions along any line, so the vertical segmentation of a section is an
exact StepFunction1D.  There is one way to build sections: a field's
``_sections`` takes every line of a sectioning pass as arrays, and the
section classes hold many lines, whose cells they build in blocks of
about ``_SECTION_CELLS`` cells with integer levels; a lone ``section`` is
the one-line case.  The estimators that integrate sections and sample
fields live in ``nlg.multidim``; nothing here imports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quad
from .constants import _pi_gamma_ratio
from .core import StepFunction1D, TailMode
from .functional1d import INF, _check_p, _first_past, _ragged_arange
from .rearrange import _floor_level, _level_cells, _merge_cells, _pwa_crossings, grid_floor_level


class UnsupportedDimension(ValueError):
    """Requested dimension outside what this estimator supports."""


class DegenerateBox(ValueError):
    """Bounding box with a nonpositive side."""


class UnsupportedField(ValueError):
    """Operation not available for this field type, or a bad field parameter."""


class ScaleOutOfRange(ValueError):
    """A scale that floats cannot carry: a field's local energy that is not
    a positive float, or, in a Monte Carlo estimate, a Lipschitz constant or
    an estimate's scale that is not one, or partners' displacements below
    the rounding of the box's coordinates."""


def _check_positive(name: str, v: float):
    if not 0.0 < v < INF:
        raise UnsupportedField(f"{name} must be positive and finite, got {v}")


def _check_finite_sides(name: str, box: Box):
    for lo, hi in zip(box.lower, box.upper):
        if not math.isfinite(hi - lo):
            raise DegenerateBox(f"{name} side ({lo}, {hi}) must be finite")


def _positive_energy(u, p: float, energy, flat: bool = False) -> float:
    """``energy()``, the local energy of ``u`` at ``p``, or raise
    :class:`ScaleOutOfRange` unless it is a positive float: a power or a
    product that over- or underflows gives inf, nan or 0.0, not the energy.
    The exponent is checked first; a ``flat`` field's reads 0.0."""
    _check_p(p)
    if flat:
        return 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = energy()
    except OverflowError:  # a Python float's power
        value = INF
    if not 0.0 < value < INF:
        raise ScaleOutOfRange(f"the local energy of {u!r} at p = {p!r} is {value!r} in floats")
    return value


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
        s = v / np.linalg.norm(v)
        if len(s) == 2:  # the sectioning grid's bits rest on this frame
            frame = [np.asarray([-s[1], s[0]])]
        else:  # Q of the QR of [sigma | identity]: +-sigma, then an orthonormal frame
            frame = np.linalg.qr(np.column_stack([s, np.eye(len(s))]))[0].T[1:]
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
# 1D sections: all lines of a pass at once, and one line as the case of one
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
    """Restriction of an affine field to line chords (t0, t1), where it is
    offset + slope*t; domain-only.  It holds arrays, one entry a line, for
    one line as for many; the one-line reads take entry 0."""

    def __init__(self, offset, slope, t0, t1):
        self.offset, self.slope, self.t0, self.t1 = np.atleast_1d(offset, slope, t0, t1)

    def __call__(self, t: float) -> float:
        return float(self.offset[0] + self.slope[0] * t)

    def local_energy(self, p: float) -> float:
        # libm's pow line by line, as a number's power: numpy's array power
        # differs from it in the last bits of some values under AVX-512, so
        # a line has the same bits alone, in a pass and under any dispatch
        energies = np.array([abs(g) ** p for g in self.slope.tolist()]) * (self.t1 - self.t0)
        return float(np.cumsum(np.append(0.0, energies))[-1])  # 0.0 + e0 + e1 + ...

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        for _, edges, levels, _ in self._cells(delta):  # one block, or none: None
            return StepFunction1D(edges, levels * delta, TailMode.DOMAIN_ONLY)

    def _cells(self, delta: float):
        """Cell blocks of the segmentations, each the one of the domain-only
        piecewise affine function from (t0, u(t0)) to (t1, u(t1))."""
        offset, slope, t0, t1 = self.offset, self.slope, self.t0, self.t1
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
    """Restriction of a radial tent to lines: on each, a bump of height
    peak*(1 - rho/r) centred at t_center.  It holds arrays of ``t_center``
    and ``rho``, one entry a line, for one line as for many; the one-line
    reads take entry 0."""

    def __init__(self, t_center, rho, radius: float, peak: float):
        self.t_center, self.rho = np.atleast_1d(t_center, rho)
        self.radius, self.peak = radius, peak

    @property
    def half_width(self) -> float:
        return math.sqrt(max(0.0, self.radius ** 2 - float(self.rho[0]) ** 2))

    def __call__(self, t: float) -> float:
        dist = math.hypot(self.rho[0], t - self.t_center[0])
        return self.peak * max(0.0, 1.0 - dist / self.radius)

    def step_segmentation(self, delta: float) -> StepFunction1D | None:
        for _, edges, levels, _ in self._cells(delta):  # one block, or none: None
            return StepFunction1D(edges[1:-1], levels[1:-1] * delta, TailMode.COMPACT_SUPPORT)

    def local_energy(self, p: float) -> float:
        """2 (peak/r)^p times the integral of (s^2 / (rho^2 + s^2))^(p/2)
        over s in (0, T), T = sqrt(r^2 - rho^2), summed over the sections to
        an absolute tolerance of 1e-12 T each; the integrand is 1 on a
        section through the center."""
        radius, rho = self.radius, self.rho[self.rho < self.radius]
        half = np.sqrt(radius * radius - rho * rho)
        off = rho > 0.0
        rho2 = rho[off] * rho[off]
        value, _ = _quad.adaptive_intervals_1d(
            lambda s, i: (s * s / (rho2[i] + s * s)) ** (p / 2.0), 0.0, half[off],
            1e-12 * np.sum(half) + 1e-300)
        return 2.0 * (self.peak / radius) ** p * (value + float(np.sum(half[~off])))

    def _cells(self, delta: float):
        """Cell blocks from the closed form; sections below level 1 are left out."""
        top = _top_levels(self.rho, self.radius, self.peak, delta)
        lines = np.flatnonzero(top >= 1)
        t_center, rho, top = self.t_center[lines], self.rho[lines], top[lines]
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
    n, on = _floor_level(top, delta)
    return n - on


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
        self.cuts, self.coef, self.pieces = cuts, coef, pieces

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

    # the same as a radial section's, bound here too for perfbench's tracer
    step_segmentation = RadialSection.step_segmentation

    def local_energy(self, p: float) -> float:
        """The summed local energies, all pieces in one quadrature call, to
        a tolerance relative to the integrand's size: the largest |u'| at
        the pieces' ends, to the p (u' is linear on a piece in d = 2)."""
        _, a, b, slope = self._piece_ends()
        size = np.abs(_horner(slope, np.stack((a, b)))).max(initial=0.0) ** p
        return _quad.adaptive_intervals_1d(lambda t, i: np.abs(_horner(slope[i], t)) ** p,
                                           a, b, 1e-10 * float(np.sum(b - a)) * size + 1e-300)[0]

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
        with np.errstate(over="ignore"):  # a square past the float range
            lip = float(np.linalg.norm(self.gradient))
        # elsewhere the same norm without squares, as a tensor tent's
        return lip if 0.0 < lip < INF else math.hypot(*self.gradient)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ np.asarray(self.gradient)

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float)))

    def support_box(self) -> Box:
        return self.box

    def local_energy(self, p: float) -> float:
        lip = self.lipschitz  # 0.0 only on a flat ramp
        return _positive_energy(self, p, lambda: lip ** p * self.box.volume, flat=lip == 0.0)

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
        # np.linalg.norm(axis=-1) sums it, without its (n, d) temporaries;
        # the sum starts at the first square, not at 0.0 (0.0 + t == t for t >= 0)
        dist = None if self.center else np.zeros(pts.shape[:-1])
        for i, c in enumerate(self.center):
            t = pts[..., i] - c
            t *= t
            dist = t if dist is None else np.add(dist, t, out=dist)
        np.sqrt(dist, out=dist)
        dist /= self.radius
        np.subtract(1.0, dist, out=dist)
        np.maximum(dist, 0.0, out=dist)
        dist *= self.peak
        return dist

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float))[0])

    def support_box(self) -> Box:
        c = np.asarray(self.center)
        return Box(tuple(c - self.radius), tuple(c + self.radius))

    def local_energy(self, p: float) -> float:
        d = self.dim
        return _positive_energy(self, p, lambda: (self.peak / self.radius) ** p * (
            _pi_gamma_ratio(d / 2.0, 1.0, d / 2.0 + 1.0) * self.radius ** d))

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
        try:
            lip = self.peak * math.sqrt(sum(1.0 / w ** 2 for w in self.halfwidths))
        except (ZeroDivisionError, OverflowError):  # w^2 under- or overflows
            lip = 0.0
        # elsewhere the same norm, of the scaled terms peak / w, without squares
        return lip if 0.0 < lip < INF else math.hypot(*(self.peak / w for w in self.halfwidths))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # the factors column by column, multiplied in axis order, then the
        # peak: as np.prod(axis=-1) multiplies them, without (n, d) temporaries;
        # the product starts at the first factor, not at 1.0 (1.0 * f == f)
        v = None if self.center else np.ones(pts.shape[:-1])
        for i, (c, w) in enumerate(zip(self.center, self.halfwidths)):
            f = np.abs(pts[..., i] - c)
            np.maximum(np.subtract(1.0, np.divide(f, w, out=f), out=f), 0.0, out=f)
            v = f if v is None else np.multiply(v, f, out=v)
        return np.multiply(v, self.peak, out=v)

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
        return _positive_energy(self, p, lambda: self._gradient_integral(p))

    def _gradient_integral(self, p: float) -> float:
        (c0, c1), (w0, w1) = self.center, self.halfwidths

        def g(xs, ys):
            fx = 1.0 - np.abs(xs - c0) / w0
            fy = 1.0 - np.abs(ys - c1) / w1
            return np.hypot(fy / w0, fx / w1) ** p

        bound = 4.0 * w0 * w1 * math.hypot(1.0 / w0, 1.0 / w1) ** p  # area times the largest g
        raw, _ = _quad.adaptive_cells_2d(g, c0 - w0, c0 + w0, c1 - w1, c1 + w1, 1e-11 * bound)
        return raw * float(self.peak) ** p

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
    and ``local_energy``), or None if the line misses the domain: the
    one-line case of the field's ``_sections``.
    """
    lines, sec = u._sections(np.asarray(direction.sigma), direction.point(z)[None])
    return sec if len(lines) else None


def local_energy_field(u: ScalarField, p: float) -> float:
    """Integral of |grad u|^p over the field's domain."""
    if isinstance(u, (AffineRamp, RadialTent, TensorTent)):
        return u.local_energy(p)
    raise UnsupportedField(f"unknown field type {type(u).__name__}")
