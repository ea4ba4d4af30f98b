"""Domain types shared by every other module.

All types are immutable after construction and validate their invariants
eagerly, so a value that exists is a value that is well formed.  Energies
throughout the package are plain nonnegative floats where ``math.inf``
stands for a divergent integral; there is no wrapper type for that.

Conventions baked into the types:

* Step functions never store values *at* their breakpoints.  Every
  integral in the package treats the constancy intervals as open, so the
  breakpoint values are irrelevant (they form a null set).
* ``Interval`` endpoints may be infinite.  This makes the zero tails of a
  compactly supported step function first-class intervals, and full-line
  energies go through the same code path as bounded ones.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class SchemaError(ValueError):
    """A serialized description violates the schema or an invariant."""


class NonMonotoneBreakpoints(SchemaError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"breakpoints must be strictly increasing; violated at index {index}")


class NonSymmetricEnemyList(SchemaError):
    def __init__(self, index: int, pair: tuple[int, int]):
        self.index = index
        self.pair = pair
        super().__init__(f"explicit enemy list is not symmetric: pair {pair} at index {index} "
                         f"has no mirror")


class NonMonotoneWeights(SchemaError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"hostility weights must be nonincreasing; violated at index {index}")


class TooShort(ValueError):
    """Operation needs an arrangement with at least two positions."""


class WeightsTooShort(ValueError):
    """Weights do not cover every position gap that can occur."""


def _require_finite(values: Sequence[float], what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise SchemaError(f"{what} must be finite; got {float(values[i])!r} at index {i}")


def _integers(values: Iterable, field: str) -> list[int]:
    """``values`` as ints; a bool (JSON's true and false) or a non-integer
    is a SchemaError naming ``field``."""
    for v in values:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real) \
                or not float(v).is_integer():
            raise SchemaError(f"field {field!r} must hold integers; got {v!r}")
    return [int(v) for v in values]


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise SchemaError("interval endpoints must not be NaN")
        if not self.lo < self.hi:
            raise SchemaError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")

    @staticmethod
    def full_line() -> "Interval":
        return Interval(-math.inf, math.inf)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


FULL_LINE = Interval.full_line()


class TailMode(enum.Enum):
    """Behaviour of a step function outside its breakpoint range."""

    COMPACT_SUPPORT = "compact_support"   # value 0 on both unbounded tails
    DOMAIN_ONLY = "domain_only"           # undefined outside (x_0, x_n)


@dataclass(frozen=True, eq=False)
class StepFunction1D:
    """Piecewise constant function on a finite partition.

    ``values[i]`` is the value on the open interval
    ``(breakpoints[i], breakpoints[i+1])``.  With
    ``TailMode.COMPACT_SUPPORT`` the function is 0 on the two unbounded
    tails; with ``TailMode.DOMAIN_ONLY`` it is only defined on
    ``(breakpoints[0], breakpoints[-1])``.

    Both fields are read-only float64 copies of the input.  Steps compare
    by value (``-0.0 == 0.0``) and are not hashable.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    tail_mode: TailMode = TailMode.COMPACT_SUPPORT

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=np.float64)
        vals = np.array(self.values, dtype=np.float64)
        if bp.ndim != 1 or vals.ndim != 1:
            raise SchemaError("breakpoints and values must be flat lists")
        if len(bp) < 2:
            raise SchemaError("a step function needs at least two breakpoints")
        if len(vals) != len(bp) - 1:
            raise SchemaError(f"expected {len(bp) - 1} values for {len(bp)} breakpoints, "
                              f"got {len(vals)}")
        increasing = bp[1:] > bp[:-1]
        if np.count_nonzero(increasing) < len(increasing):
            _require_finite(bp, "breakpoints")
            _require_finite(vals, "values")
            raise NonMonotoneBreakpoints(int(np.argmin(increasing)) + 1)
        self._hold(bp, vals)

    @classmethod
    def _of_own_arrays(cls, breakpoints: np.ndarray, values: np.ndarray,
                       tail_mode: TailMode) -> "StepFunction1D":
        """A step function on a builder's fresh float64 arrays, which no one
        else writes, with breakpoints it has put in strictly increasing
        order: no copies and no order check."""
        step = object.__new__(cls)
        object.__setattr__(step, "tail_mode", tail_mode)
        step._hold(breakpoints, values)
        return step

    def _hold(self, bp: np.ndarray, vals: np.ndarray) -> None:
        """Check that the values and the strictly increasing breakpoints are
        finite (the latter at their ends) and keep both, read-only; the
        first bad index only on failure."""
        if not (math.isfinite(bp[0]) and math.isfinite(bp[-1])) \
                or np.count_nonzero(np.isfinite(vals)) < len(vals):
            _require_finite(bp, "breakpoints")
            _require_finite(vals, "values")
        if not isinstance(self.tail_mode, TailMode):
            raise SchemaError(f"bad tail_mode {self.tail_mode!r}")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, StepFunction1D):
            return NotImplemented
        return (self.tail_mode is other.tail_mode
                and np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    @property
    def support(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    @property
    def domain(self) -> Interval:
        """Largest interval on which the function is defined."""
        if self.tail_mode is TailMode.COMPACT_SUPPORT:
            return FULL_LINE
        return self.support

    def __call__(self, x: float) -> float:
        # Value at a breakpoint itself is a null-set convention: we return the
        # value of the cell to the right (left for the last breakpoint).
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            if self.tail_mode is TailMode.COMPACT_SUPPORT:
                return 0.0
            raise ValueError(f"x={x} outside the domain of a domain-only step function")
        i = min(int(np.searchsorted(bp, x, "right")) - 1, len(self.values) - 1)
        return float(self.values[i])

    def to_json(self) -> dict:
        return {
            "breakpoints": self.breakpoints.tolist(),
            "values": self.values.tolist(),
            "tail_mode": self.tail_mode.value,
        }


@dataclass(frozen=True)
class PiecewiseAffine1D:
    """Continuous piecewise affine function given by its nodes.

    With ``compact_support=True`` the first and last node values must be 0
    and the function is 0 outside the node range; otherwise the function
    is only defined on the node range.
    """

    nodes: tuple[tuple[float, float], ...]
    compact_support: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", tuple((float(x), float(y)) for x, y in self.nodes))
        if len(self.nodes) < 2:
            raise SchemaError("a piecewise affine function needs at least two nodes")
        xs = [x for x, _ in self.nodes]
        ys = [y for _, y in self.nodes]
        _require_finite(xs, "node abscissae")
        _require_finite(ys, "node values")
        for i in range(1, len(xs)):
            if not xs[i - 1] < xs[i]:
                raise NonMonotoneBreakpoints(i)
        if self.compact_support and (ys[0] != 0.0 or ys[-1] != 0.0):
            raise SchemaError("compact support requires zero values at the first and last node")

    @property
    def lipschitz(self) -> float:
        """Largest slope magnitude; finite by construction."""
        return max(abs((y1 - y0) / (x1 - x0))
                   for (x0, y0), (x1, y1) in zip(self.nodes, self.nodes[1:]))

    @property
    def support(self) -> Interval:
        return Interval(self.nodes[0][0], self.nodes[-1][0])

    def __call__(self, x: float) -> float:
        xs = [p[0] for p in self.nodes]
        if x <= xs[0] or x >= xs[-1]:
            if self.compact_support:
                return 0.0
            if x == xs[0]:
                return self.nodes[0][1]
            if x == xs[-1]:
                return self.nodes[-1][1]
            raise ValueError(f"x={x} outside the domain of a domain-only function")
        i = bisect.bisect_right(xs, x) - 1
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    def to_json(self) -> dict:
        return {"nodes": [list(n) for n in self.nodes],
                "compact_support": self.compact_support}


@dataclass(frozen=True)
class DiscreteArrangement:
    """Finite sequence of integer species, positions 1..n."""

    species: tuple[int, ...]

    def __post_init__(self):
        if len(self.species) < 1:
            raise SchemaError("an arrangement needs at least one entry")
        object.__setattr__(self, "species", tuple(_integers(self.species, "species")))

    def __len__(self) -> int:
        return len(self.species)

    def to_json(self) -> dict:
        return {"species": list(self.species)}


class _EnemyKind(enum.Enum):
    BAND_COMPLEMENT = "band_complement"
    BAND_SQUARE = "band_square"
    BAND_SQUARE_COMPLEMENT = "band_square_complement"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class EnemyList:
    """Symmetric subset of Z^2: which pairs of species are hostile.

    Construct through the classmethods; ``hostile(i, j)`` is the
    membership predicate.  ``band_complement(k)`` holds the pairs with
    ``|j - i| >= k + 1``; the two band-square variants hold a square
    block ``{lo..hi}^2`` or its complement; ``explicit`` holds a finite
    symmetric pair set.
    """

    kind: _EnemyKind
    a: int = 0
    b: int = 0
    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    @classmethod
    def band_complement(cls, k: int) -> "EnemyList":
        (k,) = _integers([k], "band_complement")
        if k < 1:
            raise SchemaError(f"band_complement needs a positive integer, got {k!r}")
        return cls(_EnemyKind.BAND_COMPLEMENT, a=k)

    @classmethod
    def band_square(cls, lo: int, hi: int) -> "EnemyList":
        lo, hi = _integers((lo, hi), "band_square")
        if lo > hi:
            raise SchemaError(f"band_square needs lo <= hi, got ({lo}, {hi})")
        return cls(_EnemyKind.BAND_SQUARE, a=lo, b=hi)

    @classmethod
    def band_square_complement(cls, lo: int, hi: int) -> "EnemyList":
        lo, hi = _integers((lo, hi), "band_square_complement")
        if lo > hi:
            raise SchemaError(f"band_square_complement needs lo <= hi, got ({lo}, {hi})")
        return cls(_EnemyKind.BAND_SQUARE_COMPLEMENT, a=lo, b=hi)

    @classmethod
    def explicit(cls, pairs: Iterable[Sequence[int]]) -> "EnemyList":
        seq = [tuple(_integers((i, j), "explicit")) for i, j in pairs]
        as_set = frozenset(seq)
        for idx, (i, j) in enumerate(seq):
            if (j, i) not in as_set:
                raise NonSymmetricEnemyList(idx, (i, j))
        return cls(_EnemyKind.EXPLICIT, pairs=as_set)

    def hostile(self, i: int, j: int) -> bool:
        if self.kind is _EnemyKind.BAND_COMPLEMENT:
            return abs(j - i) >= self.a + 1
        if self.kind is _EnemyKind.BAND_SQUARE:
            return self.a <= i <= self.b and self.a <= j <= self.b
        if self.kind is _EnemyKind.BAND_SQUARE_COMPLEMENT:
            return not (self.a <= i <= self.b and self.a <= j <= self.b)
        return (i, j) in self.pairs

    def table(self, values: Sequence[int]) -> np.ndarray:
        """Boolean matrix ``T[a, b] = hostile(values[a], values[b])``."""
        return np.array([[self.hostile(a, b) for b in values] for a in values],
                        dtype=bool).reshape(len(values), len(values))

    def to_json(self) -> dict:
        if self.kind is _EnemyKind.BAND_COMPLEMENT:
            return {"band_complement": self.a}
        if self.kind is _EnemyKind.BAND_SQUARE:
            return {"band_square": [self.a, self.b]}
        if self.kind is _EnemyKind.BAND_SQUARE_COMPLEMENT:
            return {"band_square_complement": [self.a, self.b]}
        return {"explicit": [list(p) for p in sorted(self.pairs)]}


@dataclass(frozen=True)
class HostilityWeights:
    """Nonincreasing weight per position gap, h(0), h(1), ..."""

    h: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        if len(self.h) < 1:
            raise SchemaError("weights need at least one entry")
        _require_finite(self.h, "weights")
        for i in range(1, len(self.h)):
            if self.h[i] > self.h[i - 1]:
                raise NonMonotoneWeights(i)

    def __len__(self) -> int:
        return len(self.h)

    def to_json(self) -> dict:
        return {"h": list(self.h)}


_NUMBER_TYPES = {int, float}  # what json.load gives for a JSON number; true/false are not


def _is_numbers(v, length: int | None = None) -> bool:
    return (isinstance(v, (list, tuple)) and length in (None, len(v))
            and set(map(type, v)) <= _NUMBER_TYPES)


def _field(raw: dict, key: str, ok, what: str):
    """``raw[key]`` if ``ok`` accepts it, else a SchemaError naming the field."""
    if not ok(raw[key]):
        raise SchemaError(f"field {key!r} must be {what}")
    return raw[key]


def _numbers(raw: dict, key: str):
    return _field(raw, key, _is_numbers, "a list of numbers")


def _pairs(raw: dict, key: str):
    return _field(raw, key, lambda v: isinstance(v, (list, tuple))
                  and all(_is_numbers(n, 2) for n in v), "a list of [number, number] pairs")


def validate_and_build(raw: dict):
    """Build a validated domain value from its serialized description.

    Dispatches on the field names of the JSON schema.  Raises a
    :class:`SchemaError` subclass naming the violated invariant, or the
    field whose JSON type is wrong.
    """
    if not isinstance(raw, dict):
        raise SchemaError(f"expected a JSON object, got {type(raw).__name__}")
    keys = set(raw)
    if keys == {"breakpoints", "values", "tail_mode"}:
        try:
            mode = TailMode(raw["tail_mode"])
        except ValueError:
            raise SchemaError(f"unknown tail_mode {raw['tail_mode']!r}") from None
        return StepFunction1D(_numbers(raw, "breakpoints"), _numbers(raw, "values"), mode)
    if keys == {"nodes", "compact_support"}:
        return PiecewiseAffine1D(_pairs(raw, "nodes"), _field(
            raw, "compact_support", lambda v: type(v) is bool, "true or false"))
    if keys == {"species"}:
        return DiscreteArrangement(_numbers(raw, "species"))
    if keys == {"band_complement"}:
        return EnemyList.band_complement(
            _field(raw, "band_complement", lambda v: type(v) in _NUMBER_TYPES, "a number"))
    for key, build in (("band_square", EnemyList.band_square),
                       ("band_square_complement", EnemyList.band_square_complement)):
        if keys == {key}:
            return build(*_field(raw, key, lambda v: _is_numbers(v, 2), "a [lo, hi] pair"))
    if keys == {"explicit"}:
        return EnemyList.explicit(_pairs(raw, "explicit"))
    if keys == {"h"}:
        return HostilityWeights(_numbers(raw, "h"))
    raise SchemaError(f"unrecognized object with fields {sorted(keys)}")
