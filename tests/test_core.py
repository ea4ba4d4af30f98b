import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlg import (DiscreteArrangement, EnemyList, HostilityWeights, Interval,
                 PiecewiseAffine1D, SchemaError, StepFunction1D, TailMode,
                 validate_and_build)
from nlg.core import (NonMonotoneBreakpoints, NonMonotoneWeights,
                      NonSymmetricEnemyList)


def test_interval_basics():
    full = Interval.full_line()
    assert not full.bounded
    assert Interval(0, 1).bounded
    assert Interval(-math.inf, 3.0).contains(Interval(0, 1))
    with pytest.raises(SchemaError):
        Interval(1.0, 1.0)
    with pytest.raises(SchemaError):
        Interval(2.0, 1.0)
    with pytest.raises(SchemaError):
        Interval(math.inf, 2.0)


def test_nonmonotone_breakpoints_names_index():
    with pytest.raises(NonMonotoneBreakpoints) as exc:
        validate_and_build({"breakpoints": [0, 1, 0.5], "values": [1.0, 2.0],
                            "tail_mode": "compact_support"})
    assert exc.value.index == 2


def test_weights_validation():
    assert validate_and_build({"h": [3, 2, 2, 1]}).h == (3.0, 2.0, 2.0, 1.0)
    with pytest.raises(NonMonotoneWeights) as exc:
        HostilityWeights((3.0, 2.0, 2.5))
    assert exc.value.index == 2


def test_explicit_enemy_list_symmetry():
    with pytest.raises(NonSymmetricEnemyList):
        EnemyList.explicit([(0, 2)])
    e = EnemyList.explicit([(0, 2), (2, 0)])
    assert e.hostile(0, 2) and e.hostile(2, 0) and not e.hostile(0, 1)


def test_band_lists():
    e1 = EnemyList.band_complement(1)
    assert e1.hostile(0, 2) and not e1.hostile(0, 1) and not e1.hostile(3, 3)
    sq = EnemyList.band_square(1, 3)
    sqc = EnemyList.band_square_complement(1, 3)
    for i in range(-2, 6):
        for j in range(-2, 6):
            assert sq.hostile(i, j) != sqc.hostile(i, j)
            assert sq.hostile(i, j) == sq.hostile(j, i)


def test_enemy_table_matches_predicate():
    values = [-3, 0, 1, 2, 7]
    for e in (EnemyList.band_complement(2), EnemyList.band_square(0, 2),
              EnemyList.band_square_complement(0, 2),
              EnemyList.explicit([(-3, 7), (7, -3), (0, 0)])):
        table = e.table(values)
        assert table.dtype == bool and table.shape == (5, 5)
        assert table.tolist() == [[e.hostile(a, b) for b in values] for a in values]
    assert EnemyList.band_complement(1).table([]).shape == (0, 0)


def test_step_function_validation():
    with pytest.raises(SchemaError):
        StepFunction1D((0.0,), ())
    with pytest.raises(SchemaError):
        StepFunction1D((0.0, 1.0), (math.nan,))
    u = StepFunction1D((0.0, 1.0, 2.0), (3.0, 4.0))
    assert u(0.5) == 3.0 and u(1.5) == 4.0
    assert u(-1.0) == 0.0  # compact support tail
    dom = StepFunction1D((0.0, 1.0), (3.0,), TailMode.DOMAIN_ONLY)
    with pytest.raises(ValueError):
        dom(2.0)


def test_step_holds_read_only_float64_copies():
    bp, vals = np.array([0.0, 1.0, 2.0]), np.array([3, 4])
    u = StepFunction1D(bp, vals)
    assert u.breakpoints.dtype == u.values.dtype == np.float64
    with pytest.raises(ValueError):
        u.values[0] = 9.0
    with pytest.raises(ValueError):
        u.breakpoints[0] = -1.0
    bp[1], vals[0] = 0.5, 7
    assert u.breakpoints.tolist() == [0.0, 1.0, 2.0] and u.values.tolist() == [3.0, 4.0]


def test_step_equality_by_value():
    u = StepFunction1D((0.0, 1.0), (0.0,))
    assert u == StepFunction1D(np.array([0.0, 1.0]), [-0.0])
    assert u != StepFunction1D((0.0, 1.0), (0.0,), TailMode.DOMAIN_ONLY)
    assert u != StepFunction1D((0.0, 1.0), (0.5,))
    assert u != StepFunction1D((0.0, 1.0, 2.0), (0.0, 0.0))
    assert u != (0.0, 1.0)
    with pytest.raises(TypeError):
        hash(u)


def test_step_scalars_are_python_floats():
    u = StepFunction1D((0.0, 1.0, 2.0), (3.0, 4.0), TailMode.DOMAIN_ONLY)
    assert type(u(0.5)) is float and type(u(2.0)) is float
    assert type(u.support.lo) is float and type(u.support.hi) is float
    assert type(u.domain.lo) is float


@pytest.mark.parametrize("bp,index", [((0.0, 1.0, 1.0, 2.0), 2), ((0.0, 2.0, 1.0, 3.0), 2),
                                      ((1.0, 0.0), 1), ((0.0, 1.0, 2.0, 2.0), 3)])
def test_nonmonotone_breakpoints_index(bp, index):
    with pytest.raises(NonMonotoneBreakpoints) as exc:
        StepFunction1D(bp, (0.0,) * (len(bp) - 1))
    assert exc.value.index == index


def test_nonfinite_messages_print_plain_floats():
    with pytest.raises(SchemaError, match=r"^values must be finite; got inf at index 1$"):
        StepFunction1D((0.0, 1.0, 2.0), (0.0, math.inf))
    with pytest.raises(SchemaError, match=r"^breakpoints must be finite; got -inf at index 0$"):
        StepFunction1D(np.array([-math.inf, 1.0]), (0.0,))


@pytest.mark.parametrize("bp,vals,tail,error,message", [
    (((0.0, 1.0), (1.0, 2.0)), (0.0,), TailMode.DOMAIN_ONLY, SchemaError,
     "breakpoints and values must be flat lists"),
    ((0.0, 1.0), ((0.0,),), TailMode.DOMAIN_ONLY, SchemaError,
     "breakpoints and values must be flat lists"),
    ((0.0,), (), TailMode.DOMAIN_ONLY, SchemaError,
     "a step function needs at least two breakpoints"),
    ((0.0, 1.0, 2.0), (1.0,), TailMode.DOMAIN_ONLY, SchemaError,
     "expected 2 values for 3 breakpoints, got 1"),
    ((0.0, math.nan, 2.0), (1.0, 2.0), TailMode.DOMAIN_ONLY, SchemaError,
     "breakpoints must be finite; got nan at index 1"),
    # finiteness is reported before order, and breakpoints before values
    ((0.0, 2.0, 1.0, math.inf), (math.nan, 2.0, 3.0), TailMode.DOMAIN_ONLY, SchemaError,
     "breakpoints must be finite; got inf at index 3"),
    ((0.0, 2.0, 1.0), (1.0, -math.inf), TailMode.DOMAIN_ONLY, SchemaError,
     "values must be finite; got -inf at index 1"),
    ((0.0, 1.0, 1.0, 0.5), (1.0, 2.0, 3.0), TailMode.DOMAIN_ONLY, NonMonotoneBreakpoints,
     "breakpoints must be strictly increasing; violated at index 2"),
    ((1.0, 0.0), (1.0,), "compact", NonMonotoneBreakpoints,
     "breakpoints must be strictly increasing; violated at index 1"),
    ((0.0, 1.0), (1.0,), "compact", SchemaError, "bad tail_mode 'compact'"),
])
def test_step_construction_messages(bp, vals, tail, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        StepFunction1D(bp, vals, tail)


def test_pwa_validation_and_eval():
    with pytest.raises(SchemaError):
        PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=True)
    tent = PiecewiseAffine1D(((0.0, 0.0), (1.0, 2.0), (2.0, 0.0)))
    assert tent.lipschitz == 2.0
    assert tent(0.5) == 1.0
    assert tent(5.0) == 0.0


def test_validate_and_build_dispatch_errors():
    with pytest.raises(SchemaError):
        validate_and_build({"foo": 1})
    with pytest.raises(SchemaError):
        validate_and_build([1, 2])
    with pytest.raises(SchemaError):
        validate_and_build({"breakpoints": [0, 1], "values": [0.0],
                            "tail_mode": "bogus"})


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(FINITE, min_size=2, max_size=8, unique=True),
       st.sampled_from(["compact_support", "domain_only"]))
def test_step_roundtrip(points, mode):
    bp = sorted(points)
    values = list(range(len(bp) - 1))
    raw = {"breakpoints": bp, "values": values, "tail_mode": mode}
    u = validate_and_build(raw)
    again = validate_and_build(json.loads(json.dumps(u.to_json())))
    assert again == u
    assert again.to_json() == u.to_json()


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=10))
def test_arrangement_roundtrip(species):
    u = DiscreteArrangement(tuple(species))
    assert validate_and_build(u.to_json()) == u


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                min_size=0, max_size=8))
def test_enemy_roundtrip(pairs):
    sym = set()
    for i, j in pairs:
        sym.add((i, j))
        sym.add((j, i))
    e = EnemyList.explicit(sym)
    assert validate_and_build(e.to_json()) == e


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=10))
def test_weights_roundtrip(raw):
    h = HostilityWeights(tuple(sorted(raw, reverse=True)))
    assert validate_and_build(h.to_json()) == h
    assert all(a >= b for a, b in zip(h.h, h.h[1:]))
