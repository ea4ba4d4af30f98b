"""Independent oracles, against which the closed forms are tested.

Each function here recomputes a quantity that an engine module computes
in closed form, by a different route:

* quadrature of the kernel: :func:`pair_cell_quadrature` for one pair of
  cells (``functional1d.pair_cell_energy``) and :func:`energy_quadrature`
  for a Lipschitz function on a bounded domain;
* the pointwise hostility, whose integral over the domain is the energy
  (:func:`pointwise_hostility`, :func:`integrate_pointwise_hostility`;
  ``functional1d.step_energy``);
* spherical quadrature of the moment ``constants.spherical_moment``
  (:func:`spherical_moment_quadrature`);
* a scalar double loop for the total hostility of one arrangement
  (:func:`total_hostility`), and brute force over the distinct orderings
  of a multiset (:func:`brute_force_min_hostility`), for the array forms
  and the sorting statements of ``nlg.rearrange``.

An oracle shares no code with what it checks: this module takes only
classes from the other ``nlg`` modules, plus the adaptive rule of
``nlg._quad``, and builds a step function's cells itself from its
breakpoints, values and tail mode.  Monte Carlo, the oracle for the
sectioning estimators, stays in ``nlg.multidim`` next to them.

A quadrature that runs out of its budget raises the rule's one exception,
:class:`ToleranceNotReached` (defined in ``nlg._quad``), with the estimate
it reached.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _quad
from ._quad import ToleranceNotReached  # noqa: F401 -- every oracle raises it
from .constants import BadDimension, BadExponent, LimitConstant, Provenance
from .core import (DiscreteArrangement, EnemyList, HostilityWeights, Interval, StepFunction1D,
                   TailMode, TooShort, WeightsTooShort)
from .functional1d import (DomainMismatch, EnergyParams, OverlappingIntervals,
                           UnsupportedCombination)


class BreakpointQuery(ValueError):
    """Pointwise quantity requested exactly at a breakpoint."""


class TooManyPermutations(ValueError):
    """Brute-force enumeration would exceed the safety bound."""


# ---------------------------------------------------------------------------
# quadrature of the kernel
# ---------------------------------------------------------------------------

def pair_cell_quadrature(i1: Interval, i2: Interval, params: EnergyParams) -> float:
    """Adaptive quadrature oracle for ``functional1d.pair_cell_energy``, to a
    relative tolerance of 1e-9.

    With (a1, b1) the left cell and (a2, b2) the right one, the inner
    integral over y is the elementary antiderivative of the kernel,
    delta^p/p ((a2 - x)^-p - (b2 - x)^-p), and the outer one over x, a
    half-line included, is adaptive quadrature; neither is the closed form
    under test.
    """
    a1, b1, a2, b2 = i1.lo, i1.hi, i2.lo, i2.hi
    if (a2, b2) < (a1, b1):
        a1, b1, a2, b2 = a2, b2, a1, b1
    if b1 > a2:
        raise OverlappingIntervals(f"({a1}, {b1}) and ({a2}, {b2}) overlap")
    if a2 - b1 == 0.0:
        return math.inf
    delta, p = params.delta, params.p
    if p == 1.0 and a1 == -math.inf and b2 == math.inf:
        return math.inf

    def inner(x, i):
        return delta ** p / p * ((a2 - x) ** -p - (b2 - x) ** -p)

    # the inner integral is largest at x = b1, and with the shorter of the
    # gap and the left cell it sets the first tolerance; one looser than
    # 1e-9 of the value reached is run once more at that
    tol = max(1e-9 * float(inner(b1, 0)) * min(a2 - b1, b1 - a1), 1e-300)
    value = _quad.adaptive_intervals_1d(inner, a1, b1, tol)[0]
    if tol > 1e-9 * value:
        value = _quad.adaptive_intervals_1d(inner, a1, b1, max(1e-9 * value, 1e-300))[0]
    return value


def energy_quadrature(u: Callable[[float], float], lipschitz: float,
                      domain: Interval, params: EnergyParams, tol: float,
                      max_cells: int = 300_000) -> float:
    """Numerical energy of an L-Lipschitz function on a bounded domain.

    No pair closer than delta/L can interact, so integration runs only
    over {|y - x| >= delta/L}; cells entirely inside that excluded band
    are dropped without evaluating the (there singular) kernel.  The
    indicator |u(y)-u(x)| > delta is evaluated pointwise on the adaptive
    grid, and the refinement queue resolves its discontinuity curve.
    Raises :class:`ToleranceNotReached`, with the estimate reached, if
    ``max_cells`` cell evaluations do not bring the error below ``tol``.
    """
    if not domain.bounded:
        raise DomainMismatch("energy_quadrature needs a bounded domain")
    if not (lipschitz > 0.0 and math.isfinite(lipschitz)):
        raise ValueError(f"need a positive finite Lipschitz bound, got {lipschitz}")
    delta, p = params.delta, params.p
    r = delta / lipschitz
    try:
        probe = np.asarray(u(np.asarray([domain.lo, domain.hi])), dtype=float)
        uvec = u if probe.shape == (2,) else np.vectorize(u, otypes=[float])
    except Exception:
        uvec = np.vectorize(u, otypes=[float])

    def f(xs, ys):
        s = np.abs(ys - xs)
        far = s >= r
        out = np.zeros_like(s)
        if np.any(far):
            du = np.abs(uvec(ys[far]) - uvec(xs[far]))
            out[far] = np.where(du > delta, delta ** p * s[far] ** (-1.0 - p), 0.0)
        return out

    def skip(cx0, cx1, cy0, cy1):
        return (cy1 - cx0 < r) & (cy0 - cx1 > -r)

    lo, hi = domain.lo, domain.hi
    return _quad.adaptive_cells_2d(f, lo, hi, lo, hi, tol, skip=skip, max_cells=max_cells,
                                   min_size=(hi - lo) * 1e-8, initial=8)[0]


# ---------------------------------------------------------------------------
# pointwise hostility
# ---------------------------------------------------------------------------

def _constancy_cells(u: StepFunction1D) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, values)`` of ``u`` on its whole domain; a compact step's zero
    tails are the cells (-inf, x0) and (xn, +inf)."""
    if u.tail_mode is TailMode.COMPACT_SUPPORT:
        return (np.concatenate(([-math.inf], u.breakpoints, [math.inf])),
                np.concatenate(([0.0], u.values, [0.0])))
    return u.breakpoints, u.values


def _hostility_at(edges, vals, x: float, params: EnergyParams) -> float:
    """The kernel integrated over the cells that interact with the one
    holding x, each by the one-variable antiderivative."""
    i = min(max(int(np.searchsorted(edges, x, "right")) - 1, 0), len(vals) - 1)
    ux = vals[i]
    thr = params.threshold
    delta, p = params.delta, params.p
    parts = []
    for j, v in enumerate(vals):
        if j == i or not abs(v - ux) > thr:
            continue
        c, d = edges[j], edges[j + 1]
        near, far = (c - x, d - x) if c >= x else (x - d, x - c)  # far ** -p is 0 at inf
        parts.append(delta ** p / p * (near ** -p - far ** -p))
    return math.fsum(parts)


def pointwise_hostility(u: StepFunction1D, x: float, params: EnergyParams) -> float:
    """Contribution of the single point x to the energy of u.

    Integrates the kernel over {y : |u(y) - u(x)| > delta}, exactly, via
    the one-dimensional antiderivative on each interacting cell.  The
    energy of u is the integral of this function over the domain.
    """
    domain = u.domain
    if u.tail_mode is TailMode.DOMAIN_ONLY and not (domain.lo < x < domain.hi):
        raise BreakpointQuery(f"x={x} outside the domain ({domain.lo}, {domain.hi})")
    if x in u.breakpoints:
        raise BreakpointQuery(f"x={x} is a breakpoint")
    return _hostility_at(*_constancy_cells(u), x, params)


def integrate_pointwise_hostility(u: StepFunction1D, params: EnergyParams) -> float:
    """Quadrature of the pointwise hostility over the whole domain, to a
    relative tolerance of 1e-6.

    The identity "integral of the pointwise hostility equals the energy"
    checks ``functional1d.step_energy``, so nothing here comes from it:
    the cells are the step's own, two adjacent cells that interact make
    the energy +inf and raise :class:`UnsupportedCombination`, and the
    tolerance comes from a pilot pass of the rule, one Simpson rule a
    cell.  All cells and tails are integrated in one call, each nudged
    inward off its breakpoints by 1e-9 times its length, at most 1e-9 (the
    integrand is defined off a null set).
    """
    edges, vals = _constancy_cells(u)
    if np.any(np.abs(np.diff(vals)) > params.threshold):
        raise UnsupportedCombination("divergent energy; the identity is +inf = +inf")
    eps = np.minimum(np.diff(edges), 1.0) * 1e-9
    hostility = np.vectorize(lambda x: _hostility_at(edges, vals, x, params), otypes=[float])

    def integral(tol):
        return _quad.adaptive_intervals_1d(lambda x, i: hostility(x), edges[:-1] + eps,
                                           edges[1:] - eps, tol)[0]

    # the pilot reads a few percent high as a rule, so its tolerance is
    # halved; one still looser than 1e-6 of the value reached is run again
    tol = max(integral(math.inf), 1e-12) * 0.5e-6
    value = integral(tol)
    if tol > 1e-6 * value:
        value = integral(max(value, 1e-12) * 1e-6)
    return value


# ---------------------------------------------------------------------------
# spherical quadrature
# ---------------------------------------------------------------------------

def spherical_moment_quadrature(d: int, p: float) -> LimitConstant:
    """Direct spherical quadrature oracle for ``constants.spherical_moment``.

    d = 2: the circle integral of |cos(theta)|^p, computed as
    4 * integral over (0,1) of (1 - t^2)^((p-1)/2) via t = sin(theta).
    d = 3: the polar integral 2*pi * integral of |cos(phi)|^p sin(phi),
    computed as 2*pi * integral over (-1,1) of |t|^p via t = cos(phi), so
    that the peaks at t = -1 and 1 are nodes of the rule at any p.

    The tolerance is 1e-11 relative to a first estimate reached at 1e-11
    absolute: the integral falls like p^(-1/2) (d = 2) and 1/p (d = 3).
    """
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"p must be finite and >= 1, got {p}")
    if d == 2:
        scale, lo, integrand = 4.0, 0.0, lambda t, i: (1.0 - t * t) ** ((p - 1.0) / 2.0)
    elif d == 3:
        scale, lo, integrand = 2.0 * math.pi, -1.0, lambda t, i: np.abs(t) ** p
    else:
        raise BadDimension(f"quadrature oracle covers d in {{2, 3}}, got {d}")
    value = _quad.adaptive_intervals_1d(integrand, lo, 1.0, 1e-11)[0]
    if value < 1.0:
        value = _quad.adaptive_intervals_1d(integrand, lo, 1.0, 1e-11 * value)[0]
    return LimitConstant(scale * value, Provenance.QUADRATURE)


# ---------------------------------------------------------------------------
# discrete hostility: a double loop and brute force
# ---------------------------------------------------------------------------

def total_hostility(weights: HostilityWeights, enemies: EnemyList,
                    u: DiscreteArrangement) -> float:
    """Sum of h(y - x) over hostile pairs x <= y (self-pairs contribute h(0)).

    A scalar double loop over one arrangement: the oracle that the array
    forms of ``nlg.rearrange`` are tested against.
    """
    spe = u.species
    n = len(spe)
    if len(weights) < n:
        raise WeightsTooShort(f"need weights for gaps 0..{n - 1}, got {len(weights)}")
    h = weights.h
    acc = 0.0
    for x in range(n):
        sx = spe[x]
        for y in range(x, n):
            if enemies.hostile(sx, spe[y]):
                acc += h[y - x]
    return acc


def multiset_permutations(items: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset, in lexicographic order."""
    seq = sorted(items)
    n = len(seq)
    while True:
        yield tuple(seq)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def count_multiset_permutations(items: Sequence[int]) -> int:
    total = math.factorial(len(items))
    for v in set(items):
        total //= math.factorial(list(items).count(v))
    return total


def brute_force_min_hostility(weights: HostilityWeights, enemies: EnemyList,
                              multiset: Sequence[int],
                              guard: int = 1_000_000
                              ) -> tuple[float, DiscreteArrangement]:
    """Exact hostility minimum over all distinct orderings of a multiset.

    Enumerates lexicographically, so the returned witness is the
    lexicographically first minimizer regardless of evaluation order.
    """
    items = [int(v) for v in multiset]
    if len(items) < 1:
        raise TooShort("need at least one entry")
    if len(weights) < len(items):
        raise WeightsTooShort(f"need weights for gaps 0..{len(items) - 1}")
    n_perms = count_multiset_permutations(items)
    if n_perms > guard:
        raise TooManyPermutations(f"{n_perms} distinct permutations exceed the "
                                  f"guard of {guard}")
    h = weights.h
    hostile: dict[tuple[int, int], bool] = {}
    for a in set(items):
        for b in set(items):
            hostile[(a, b)] = enemies.hostile(a, b)
    best_val = math.inf
    best_perm: tuple[int, ...] | None = None
    n = len(items)
    for perm in multiset_permutations(items):
        acc = 0.0
        for x in range(n):
            px = perm[x]
            for y in range(x, n):
                if hostile[(px, perm[y])]:
                    acc += h[y - x]
        if acc < best_val:
            best_val = acc
            best_perm = perm
    return best_val, DiscreteArrangement(best_perm)
