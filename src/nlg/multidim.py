"""d-dimensional energies via line sections and Monte Carlo.

A d-dimensional non-local energy averages, over all line directions and
offsets, the one-dimensional energies of the restrictions to those lines
(with a factor 1/2 because sigma and -sigma give the same line):

    energy(u, R^d) = 1/2 * int_{S^(d-1)} int_{sigma-perp}
                     energy(u restricted to the line z + sigma*R) dz dsigma,

and the same representation without the 1/2 holds for the local energy
with an extra factor spherical_moment(d, p).  The d = 2 estimators walk
each unordered line once, which applies the 1/2.  The fields of
``nlg.fields`` build exact sections along any line, so the section of a
vertically segmented field is an exact StepFunction1D and the inner 1D
energy is computed in closed form; only the two outer integrals carry
discretization error.  Every section of the catalog is unimodal, and a
pass hands each block of section cells, on integer levels, to the sum of
unimodal lines by interaction ranges (``functional1d._unimodal_sums``),
many lines per call.

Both estimators here target the segmented field: the sectioning path
computes the energy of the vertical segmentation exactly in the inner
dimension, and the Monte Carlo indicator compares grid levels, so the
two are estimates of the same number and can cross-validate at fixed
delta (the segmentations are also exactly the recovery family whose
energies converge to the limit constant times the local energy).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (AffineRamp, Box, DegenerateBox, Direction, ScalarField, ScaleOutOfRange,
                     UnsupportedDimension, UnsupportedField, _check_finite_sides, _is_int,
                     _positive_energy)
# not called here: perfbench's tracer rebinds them, and the sections' step_segmentation
from .fields import AffineSection, PolySection, RadialSection, section  # noqa: F401
from .functional1d import EnergyParams, _unimodal_sums
from .functional1d import step_energy  # noqa: F401 -- perfbench's tracer rebinds it here
from .rearrange import vertical_segmentation  # noqa: F401 -- perfbench's tracer rebinds it here


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
    ``lines`` indexing the sections.  A block is one range sum of its
    unimodal lines; each direction then adds its energies in offset order."""
    sigma, points, w_z, w_dir = _line_grid(u, n_dirs, n_offsets)
    energies = np.zeros(len(points))
    lines, sections = u._sections(sigma, points)
    for i, edges, levels, counts in sections._cells(params.delta):
        energies[lines[i]] = _unimodal_sums(edges, levels, counts, params)
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

    Every inner 1D energy is exact: closed-form pair energies over the exactly
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
    a direction are integrated together, in one quadrature call.  Like the
    field's local energy, it checks p, and is a positive finite float or
    raises :class:`ScaleOutOfRange`, save a flat field's 0.0."""
    _check_sectioning(u, n_dirs, n_offsets)
    sigma, points, w_z, w_dir = _line_grid(u, n_dirs, n_offsets)

    def energy():
        acc = np.array([u._sections(s, z)[1].local_energy(p) for s, z in
                        zip(np.split(sigma, len(w_z)), np.split(points, len(w_z)))])
        # every line once is half of the integral over all directions
        return 2.0 * float(np.cumsum(acc * w_z * w_dir)[-1])
    return _positive_energy(u, p, energy, flat=u.lipschitz == 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 19
# samples in flight per chunk.  A 2**19-sample chunk of the radial tent
# took, in ns a sample at p = 1 and 2 (best of 15, three rounds, one thread
# of a 2-core Xeon): 49-54 at 2**12, 43-47 at 2**13, 42-44 at 2**14, 40-44
# at 2**15 and 43-47 at 2**16.  2**15 gains less than the spread of the
# rounds and doubles the block's scratch, so 2**14
_MC_BLOCK = 1 << 14


def _check_montecarlo_counts(n_samples, seed):
    """Raise ``ValueError`` unless ``n_samples`` is an integer >= 1 and
    ``seed`` one in [0, 2**64), as :func:`energy_by_montecarlo` needs."""
    if not (_is_int(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _montecarlo_scales(u: ScalarField, params: EnergyParams, box: Box,
                       n_samples: int) -> tuple[float, float]:
    """``(r_min, scale)`` of :func:`energy_by_montecarlo`, the shortest
    displacement delta / L and the weight V * |S^(d-1)| * L^p / p of a hit,
    or raise :class:`ScaleOutOfRange` where floats cannot resolve them."""
    lip = u.lipschitz
    if not 0.0 < lip < math.inf:
        raise ScaleOutOfRange(
            f"the field's Lipschitz constant L = {lip!r} is not a positive float")
    r_min = params.delta / lip
    coord = max(map(abs, box.lower + box.upper))
    bound = 2.0 ** -42 * math.sqrt(box.dim * n_samples) * coord
    if not r_min >= bound:
        raise ScaleOutOfRange(
            f"partners at r_min = delta / L = {r_min!r} are below the rounding of box coordinates"
            f" up to {coord!r} for {n_samples} samples: need r_min >= 2**-42 * sqrt(d * n_samples)"
            f" * {coord!r} = {bound!r}")
    sphere = 2.0 * math.pi if box.dim == 2 else 4.0 * math.pi
    try:
        scale = box.volume * sphere * lip ** params.p / params.p
    except OverflowError:  # L^p
        scale = math.inf
    if not (0.0 < scale and 2.0 * scale < math.inf):
        raise ScaleOutOfRange(f"the estimate's scale V * |S^(d-1)| * L^p / p = {scale!r} "
                              f"(L = {lip!r}, p = {params.p!r}) is not a positive float")
    return r_min, scale


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
    the result is reproducible bit for bit for a given seed, whatever the
    order of the chunks; they run in index order on the calling thread.
    ``n_samples`` must be an integer >= 1 and ``seed`` one in [0, 2**64).

    The resolution bound: rounding a partner x + r * omega to floats moves
    each coordinate by at most 2**-53 (X + r), where X is the largest
    magnitude of a box coordinate, so a displacement of r >= r_min is off
    by a relative eta <= 2**-53 * sqrt(d) * (X / r_min + 1), plus the few
    ulps of r and omega.  Levels cross a ray at most L / delta = 1 / r_min
    times a unit length, so about eta of the samples can change their
    indicator and the mean weight (at most 2 a sample) moves by at most
    about 2 eta.  The estimator raises :class:`ScaleOutOfRange` unless
    r_min >= 2**-42 * sqrt(d * n_samples) * X, which keeps that bias below
    2**-10 / sqrt(n_samples): a thousandth of the standard error of a mean
    weight of order one.  A tent's levels then stay below X / r_min < 2**42,
    so they and their differences are exact.  It raises it too where L or
    the scale V * |S^(d-1)| * L^p / p (twice it, the largest estimate) is
    not a positive float.
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
    r_min, scale = _montecarlo_scales(u, params, bounding_box, n_samples)

    lower = np.asarray(bounding_box.lower)
    upper = np.asarray(bounding_box.upper)
    # exact integer sums of the weights and their squares, where a hit
    # weighs 1, or 2 if counted twice
    total = total_sq = 0
    for i in range(-(-n_samples // _MC_CHUNK)):
        m = min(_MC_CHUNK, n_samples - i * _MC_CHUNK)
        hits, twice = _montecarlo_chunk(u, params, r_min, lower, upper,
                                        np.array([seed, i], dtype=np.uint64), m)
        total += hits + twice
        total_sq += hits + 3 * twice

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
    ``_MC_BLOCK``, so the draws are those of one pass over the chunk,
    whatever the block size.  The chunk allocates one workspace, a row of
    block length per axis, and a block scales its drawn points into it, so
    the field reads each axis as a contiguous column.  Once the points'
    levels are known, the block adds each displacement r * omega to its
    axis in place, frees the directions and radii, and evaluates the
    partners' levels.  A block holds, besides the workspace, the points'
    levels, then either the directions and radii or the partners' levels
    and the field's temporaries: about 57 bytes a sample in d = 2 and 73 in
    d = 3.  The box test, two comparisons an axis and one count of the hits
    whose partner leaves the box, runs on every partner: picking out the
    hits' partners first cost more than it saved.

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
    xs = np.empty((d, min(_MC_BLOCK, m)))  # the workspace: one row an axis
    hits = twice = 0
    for start in range(0, m, _MC_BLOCK):
        n = min(_MC_BLOCK, m - start)
        x = xs[:, :n]
        drawn = points.random((n, d))
        for i in range(d):
            np.multiply(drawn[:, i], upper[i] - lower[i], out=x[i])
            x[i] += lower[i]
        del drawn
        kx = _floor_levels(u, x.T, params.delta)
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
            del zc, sc
        r = radii.random(n)
        np.subtract(1.0, r, out=r)
        r **= -1.0 / params.p
        r *= r_min
        for y, w in zip(x, omega):
            y += np.multiply(w, r, out=w)
        del omega, w, t, q, r  # the partners' levels take their place
        ky = _floor_levels(u, x.T, params.delta)
        ky -= kx
        hit = np.abs(ky, out=ky) >= 2.0
        hits += int(np.count_nonzero(hit))
        hit &= ((x < lower[:, None]) | (x > upper[:, None])).any(axis=0)
        twice += int(np.count_nonzero(hit))
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
