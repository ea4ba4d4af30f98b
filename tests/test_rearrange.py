import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlg import (AffineRamp, Box, Direction, DiscreteArrangement, EnemyList, EnergyParams,
                 HostilityWeights, Interval, PiecewiseAffine1D, SchemaError, StepFunction1D,
                 TailMode, TensorTent, fields, multidim, rearrange,
                 brute_force_min_hostility, clamp_values, hostility_gap,
                 left_right_gap, monotone_rearrangement,
                 monotone_rearrangement_step, multiset_permutations,
                 reduce_arrangement, step_cells, step_energy, step_hostility,
                 total_hostility, vertical_segmentation)
from nlg.core import NonMonotoneBreakpoints
from nlg.functional1d import INTERACTION_GUARD
from nlg.oracles import TooManyPermutations
from nlg.rearrange import (BadBounds, TooShort, ValuesNotOnGrid, WeightsTooShort,
                           _cells_to_step, _merge_cells, _on_level, grid_floor_level,
                           hostile_gap_counts)

from conftest import (UNIT, cells_to_step_loop, level_runs_loop, merge_cells_loop,
                      pairwise_energy, random_grid_step, random_nonincreasing_weights,
                      random_step)

E1 = EnemyList.band_complement(1)
H3 = HostilityWeights((1.0, 0.5, 1.0 / 3.0))


def _random_pwa(rng, delta: float, compact: bool) -> PiecewiseAffine1D:
    """2-6 nodes: each value off the grid, on a level, 1-3 ulps off a
    level, or equal to the previous one (a flat piece).

    Compact support keeps level 0 exact, so that the end nodes are 0.
    """
    m = int(rng.integers(2, 7))
    ys: list[float] = []
    for j in range(m):
        end = compact and j in (0, m - 1)
        kind = 0 if end else int(rng.integers(4))
        level = 0 if end else int(rng.integers(-6, 7))
        if kind == 3 and ys:
            y = ys[-1]
        elif kind == 2:
            y = float(rng.uniform(-2.0, 2.0))
        else:
            y = level * delta
            if kind == 1 and not (compact and level == 0):
                for _ in range(int(rng.integers(1, 4))):
                    y = math.nextafter(y, float(rng.choice((-math.inf, math.inf))))
        ys.append(y)
    xs = np.cumsum(rng.uniform(0.05, 0.5, m))
    return PiecewiseAffine1D(tuple(zip(xs, ys)), compact_support=compact)


def _segment_loop(u: PiecewiseAffine1D, delta: float):
    """Scalar oracle of ``vertical_segmentation`` on a piecewise affine
    function, each crossing placed by xs[i] + (v - ys[i]) / slope[i]."""
    xs, ys = [x for x, _ in u.nodes], [y for _, y in u.nodes]
    slope = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(u.nodes, u.nodes[1:])]
    return level_runs_loop(xs, ys, delta, lambda pieces, values: [
        xs[i] + (v - ys[i]) / slope[i] for i, v in zip(pieces, values)], u.compact_support)


def _hex(step):
    """A step function as the hex strings of its floats, to compare bit for bit."""
    if step is None:
        return None
    return ([v.hex() for v in step.breakpoints.tolist()],
            [v.hex() for v in step.values.tolist()], step.tail_mode)


def _bits(step):
    """A step function as comparable bits: zeros of opposite sign differ."""
    if step is None:
        return None
    return (step.breakpoints.tolist(), np.signbit(step.breakpoints).tolist(),
            step.values.tolist(), np.signbit(step.values).tolist(), step.tail_mode)


class TestCellsToStep:
    def test_matches_scalar_loop_bit_for_bit(self, rng):
        pool = np.array([-1.5, -0.0, 0.0, 0.25, 1.0])
        for i in range(3000):
            n = int(rng.integers(1, 10))
            # zero widths come in runs; +-0.0 sit among edges and values
            edges = rng.choice(pool) + np.cumsum(
                np.concatenate(([0.0], rng.choice([0.0, 0.0, 0.5, 1.0], n))))
            signed = rng.random(n + 1) < 0.3
            edges[signed] = rng.choice([0.0, -0.0], int(signed.sum()))
            edges = np.maximum.accumulate(edges)
            if i % 9 == 0:  # no cell of positive width: None
                edges[:] = edges[0]
            values = rng.choice([-0.0, 0.0, 1.0, 1.0, -2.5], n)
            tail = (TailMode.COMPACT_SUPPORT, TailMode.DOMAIN_ONLY)[i % 2]
            want = cells_to_step_loop(edges.tolist(), values.tolist(), tail)
            got = _cells_to_step(edges, values, tail)
            assert _bits(got) == _bits(want), (edges, values)

    def test_fails_like_public_construction(self):
        # edges out of order, also once a zero-width cell is dropped, and
        # values that are not finite
        for edges, values, error, message in (
                ([0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 3.0], NonMonotoneBreakpoints,
                 "breakpoints must be strictly increasing; violated at index 2"),
                ([0.0, 1.0, 1.0, 0.5], [1.0, 2.0, 3.0], NonMonotoneBreakpoints,
                 "breakpoints must be strictly increasing; violated at index 2"),
                ([0.0, 1.0, 2.0], [1.0, math.inf], SchemaError,
                 "values must be finite; got inf at index 1")):
            with pytest.raises(error, match="^" + re.escape(message) + "$"):
                _cells_to_step(np.array(edges), np.array(values), TailMode.DOMAIN_ONLY)
        u = StepFunction1D((0.0, 1.0), (0.5,), TailMode.DOMAIN_ONLY)
        with pytest.raises(SchemaError, match="^values must be finite; got -inf at index 0$"):
            clamp_values(u, -math.inf, -math.inf)

    def test_run_keeps_first_value_and_last_right_edge(self):
        got = _cells_to_step(np.array([-0.0, 0.0, 1.0, 1.0, 2.0]),
                             np.array([5.0, -0.0, 3.0, 0.0]), TailMode.DOMAIN_ONLY)
        assert _bits(got) == _bits(StepFunction1D((0.0, 2.0), (-0.0,),
                                                  TailMode.DOMAIN_ONLY))


@st.composite
def laid_lines(draw):
    """Raw cells of 1-4 lines laid end to end, with a join cell between
    consecutive lines: ``(lines, compact)``, each line ``(edges, values)``.

    Edges come from a small pool, so zero-width cells fall anywhere: at a
    line's start or end, next to a join, and between +0.0 and -0.0.  Values
    hold +-0.0; a compact line may be all zeros or start below 0, and a
    domain-only line may have its edges out of order.
    """
    compact = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 7))
        edges = draw(st.lists(st.sampled_from((-1.0, -0.0, 0.0, 0.5, 1.0, 2.0)),
                              min_size=n + 1, max_size=n + 1))
        if compact or draw(st.integers(0, 3)):
            edges.sort()  # stable: +0.0 and -0.0 keep their drawn order
        pool = draw(st.sampled_from(((-0.0, 0.0), (-0.0, 0.0, 1.0, 1.0, -2.5))))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        if draw(st.integers(0, 3)) == 0:
            values[0] = -2.5  # below 0 from the line's first edge
        lines.append((edges, values))
    return lines, compact


def _error(f, *args):
    """``(type, message)`` of what f raises, or None with its result."""
    try:
        return None, f(*args)
    except ValueError as exc:
        return (type(exc), str(exc)), None


class TestMergeCells:
    @settings(max_examples=300)
    @given(case=laid_lines(), join=st.sampled_from((-2.5, 0.0, 1.0)))
    def test_lines_match_scalar_oracle(self, case, join):
        # each line against the scalar merge of its cells alone; a compact
        # line without a nonzero cell is left out
        lines, compact = case
        edges, values, joins = [], [], []
        for e, v in lines:
            if edges:
                joins.append(len(values))
                values.append(join)
            edges += e
            values += v
        tail = TailMode.COMPACT_SUPPORT if compact else TailMode.DOMAIN_ONLY
        wants = [_error(merge_cells_loop, e, v, compact) for e, v in lines]
        error, got = _error(_merge_cells, np.array(edges), np.array(values),
                            np.array(joins, dtype=np.intp), compact)
        failed = [e for e, _ in wants if e is not None]
        assert error == (failed[0] if failed else None)  # the first line out of order
        if len(lines) == 1 and not compact:  # the one-line wrapper, its errors included
            e, step = _error(_cells_to_step, np.array(edges), np.array(values), tail)
            assert (e, _bits(step)) == (wants[0][0], _bits(wants[0][1]))
        if error:
            return
        wants = {i: w for i, (_, w) in enumerate(wants)
                 if w is not None and (w.values.any() or not compact)}
        kept, edges, values, counts = got
        assert kept.tolist() == list(wants)
        at = np.cumsum(counts) - counts
        for i, a, c in zip(range(len(kept)), at, counts):
            step = StepFunction1D(edges[a + i:a + i + c + 1], values[a:a + c], tail)
            want = wants[int(kept[i])]
            if compact:
                # a folded zero run and the cell after it meet at one point,
                # which either may write as +0.0 and the other as -0.0
                assert step.breakpoints.tolist() == want.breakpoints.tolist()
                assert _bits(step)[2:] == _bits(want)[2:]  # values and their signs
            else:
                assert _bits(step) == _bits(want)


class TestVerticalSegmentation:
    def test_scalar_floor(self):
        assert vertical_segmentation(2.5, 1.0) == 2.0
        assert vertical_segmentation(-0.3, 1.0) == -1.0
        assert vertical_segmentation(0.3, 0.1) == pytest.approx(0.3)

    def test_callable(self):
        f = vertical_segmentation(lambda x: x * x, 0.5)
        assert f(1.1) == 1.0

    def test_grid_floor_snaps_intended_multiples(self):
        # k*delta wobbles by ulps; intended multiples must map to level k
        for k in range(-30, 30):
            for delta in (0.1, 1e-4, 1 / 3):
                assert grid_floor_level(k * delta, delta) == k

    def test_grid_floor_brackets_generic_values(self, rng):
        for _ in range(300):
            v = float(rng.uniform(-5, 5))
            delta = float(rng.uniform(0.05, 2.0))
            k = grid_floor_level(v, delta)
            assert k * delta <= v < (k + 1) * delta

    def test_grid_floor_rejects_non_finite(self):
        for v in (math.nan, math.inf, np.array([0.5, -math.inf])):
            with pytest.raises(ValueError):
                grid_floor_level(v, 0.1)

    def test_grid_floor_levels_below_2_53(self):
        # levels are exact integers only below 2**53; past it int64 wrapped
        assert grid_floor_level(2.0 ** 53 - 1.0, 1.0) == 2 ** 53 - 1
        for v, delta in ((1.0, 1e-300), (-(2.0 ** 53), 1.0), (np.array([0.5, 2.0 ** 52]), 0.5)):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                grid_floor_level(v, delta)

    @pytest.mark.parametrize("delta", [0.1, 0.3, 1e-5])
    def test_floor_level_is_the_floor_then_the_level_test(self, delta):
        # _floor_level's (k, on) against grid_floor_level and then _on_level
        # at that level, on values on levels -3..3 and a few guard widths
        # and ulps either side of them, as numbers and as one array
        vs = []
        for k in range(-3, 4):
            level = k * delta
            guard = INTERACTION_GUARD * max(abs(level), delta)
            vs += [level, np.nextafter(level, -1.0), np.nextafter(level, 1.0), level + 0.5 * delta]
            vs += [level + f * guard for f in (-10.0, -2.0, -1.01, -0.99, -0.5, 0.5, 0.99,
                                               1.01, 2.0, 10.0)]
        vs = np.array(vs)
        want_k = [grid_floor_level(float(v), delta) for v in vs]
        want_on = [bool(_on_level(float(v), k, delta)) for v, k in zip(vs, want_k)]
        assert any(want_on) and not all(want_on)
        for v, k, on in zip(vs.tolist(), want_k, want_on):
            got_k, got_on = rearrange._floor_level(v, delta)
            assert (int(got_k), bool(got_on)) == (k, on), v
            m = round(v / delta)  # the rule itself: the nearest level within the guard
            if abs(v - m * delta) <= INTERACTION_GUARD * max(abs(v), delta):
                assert (k, on) == (m, True), v
            else:
                assert k * delta <= v < (k + 1) * delta and not on, v
        got_k, got_on = rearrange._floor_level(vs, delta)
        assert got_k.dtype == np.int64 and got_k.tolist() == want_k
        assert got_on.dtype == bool and got_on.tolist() == want_on
        # the radial tops peak*(1 - rho/r) near the same levels, less one on a level
        radius, peak = 1.3, 0.9
        rho = radius * (1.0 - vs / peak)
        top = peak * (1.0 - rho / radius)
        n = grid_floor_level(top, delta)
        assert fields._top_levels(rho, radius, peak, delta).tolist() == \
            (n - _on_level(top, n, delta)).tolist()

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -0.5])
    def test_delta_must_be_positive_and_finite(self, delta):
        tent = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        step = StepFunction1D((0.0, 1.0, 2.0), (0.3, 0.7))
        for u in (tent, step, 0.3, lambda x: x):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                vertical_segmentation(u, delta)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            grid_floor_level(0.3, delta)

    def test_grid_step_is_fixed_point(self, rng):
        # up to merging of equal-valued neighbours: pointwise identical,
        # and a second application changes nothing
        delta = 0.1
        u = random_grid_step(rng, delta, n_range=(3, 8))
        s = vertical_segmentation(u, delta)
        assert vertical_segmentation(s, delta) == s
        for x in rng.uniform(0.0, 1.0, 500):
            if x not in u.breakpoints and x not in s.breakpoints:
                assert s(x) == u(x)

    def test_tent_exact_breakpoints(self):
        tent = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        delta = 1.0 / 3.0
        s = vertical_segmentation(tent, delta)
        assert s.tail_mode is TailMode.COMPACT_SUPPORT
        assert np.allclose(s.breakpoints, (1 / 3, 2 / 3, 4 / 3, 5 / 3))
        assert np.allclose(s.values, (delta, 2 * delta, delta))
        # consecutive values differ by exactly one level across each crossing
        jumps = np.abs(np.diff(s.values))
        assert np.all(np.abs(jumps - delta) < 1e-15)

    def test_pointwise_floor_match(self, rng):
        tent = PiecewiseAffine1D(((0.0, 0.0), (0.7, 1.3), (1.1, 0.4), (2.0, 0.0)))
        for delta in (1 / 3, 0.21, 0.05):
            s = vertical_segmentation(tent, delta)
            xs = rng.uniform(-0.5, 2.5, 10_000)
            for x in xs:
                assert s(x) == delta * grid_floor_level(tent(x), delta)
        # random inputs: flat, rising and falling pieces, negative values,
        # node values off the grid, on a level and within 3 ulps of one,
        # both tail modes
        for trial in range(400):
            delta = float(rng.choice((0.5, 0.1, 1 / 3, 0.013, 0.07)))
            u = _random_pwa(rng, delta, compact=trial % 2 == 0)
            s = vertical_segmentation(u, delta)
            if u.compact_support and s.values.tolist() != [0.0]:
                # zero cells at both ends belong to the tails
                assert s.values[0] != 0.0 and s.values[-1] != 0.0
            lo, hi = u.nodes[0][0], u.nodes[-1][0]
            pad = 0.2 if u.compact_support else 0.0
            for x in rng.uniform(lo - pad, hi + pad, 200):
                if x not in s.breakpoints:
                    assert s(x) == delta * grid_floor_level(u(x), delta)

    def test_matches_scalar_piece_loop_bit_for_bit(self, rng):
        # random inputs (flat pieces, nodes off the grid, on a level and
        # within 3 ulps of one, both tail modes), then the ramp and the tent
        for trial in range(3000):
            delta = float(rng.choice((0.5, 0.1, 1 / 3, 0.013, 0.07)))
            u = _random_pwa(rng, delta, compact=trial % 2 == 0)
            assert _hex(vertical_segmentation(u, delta)) == _hex(_segment_loop(u, delta)), \
                (u, delta)
        for u in (PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False),
                  PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))):
            for delta in (1e-2, 1e-3, 1e-4):
                assert _hex(vertical_segmentation(u, delta)) == _hex(_segment_loop(u, delta))
        # steep pieces whose last crossing computes to an ulp past the end
        # node (0.44700000000000006 and 0.8600000000000001)
        for nodes in (((0.162, -20.0), (0.447, 0.0010000000000024703)),
                      ((0.32, 12.0), (0.86, 0.0009999999999976655))):
            u = PiecewiseAffine1D(nodes, compact_support=False)
            assert _hex(vertical_segmentation(u, 1e-3)) == _hex(_segment_loop(u, 1e-3))

    def test_tensor_tent_sections_match_scalar_piece_loop(self, rng, monkeypatch):
        # the level cells of a pass's tensor-tent sections, laid end to end,
        # line by line against the oracle on that line's nodes; the oracle
        # places the crossings with the builder's own callback
        calls = []

        def level_cells(xs, ys, delta, crossings, join=False):
            calls.append((xs, ys, delta, crossings, join))
            return engine(xs, ys, delta, crossings, join)

        engine = fields._level_cells
        monkeypatch.setattr(fields, "_level_cells", level_cells)
        sections = 0
        for _ in range(30):
            tent = TensorTent(tuple(rng.uniform(-0.3, 0.3, 2)), tuple(rng.uniform(0.3, 1.5, 2)),
                              float(rng.uniform(0.5, 2.0)))
            d = Direction.from_angle(float(rng.choice((0.0, math.pi / 2,
                                                       rng.uniform(0.0, math.pi)))))
            zs = rng.uniform(-1.2, 1.2, 12)
            calls.clear()
            _, secs = tent._sections(np.repeat([d.sigma], len(zs), axis=0),
                                     np.outer(zs, d.frame[0]))
            delta = float(rng.choice((0.1, 0.05, 0.01)))
            got = {}
            for i, edges, levels, counts in secs._cells(delta):
                at = np.cumsum(counts) - counts
                for j, a, c, k in zip(i, at, counts, range(len(counts))):
                    got[int(j)] = StepFunction1D(edges[a + k + 1:a + k + c], levels[a + 1:a + c - 1]
                                                 * delta, TailMode.COMPACT_SUPPORT)
            want = []
            for xs, ys, delta, crossings, join in calls:
                ends = [0, *(np.flatnonzero(join) + 1).tolist(), len(xs)]
                for a, b in zip(ends, ends[1:]):  # one line's nodes
                    step = level_runs_loop(xs[a:b].tolist(), ys[a:b].tolist(), delta, (
                        lambda pieces, values, a=a: crossings(np.array(pieces, dtype=np.intp) + a,
                                                              np.array(values)).tolist()), True)
                    want.append(step if step is not None and step.values.any() else None)
            assert len(want) == len(secs.pieces)
            for j, step in enumerate(want):
                assert _hex(got.get(j)) == _hex(step), (tent, d, zs[j], delta)
            sections += len(got)
        assert sections > 200

    def test_cells_do_not_depend_on_chunks(self, rng, monkeypatch):
        # segmentations and section cells, bit for bit, with the level-cell
        # engine's chunks of 1, 7 and the default size, and with every piece
        # long (chunks of its own) or at the default length
        cases = []
        for trial in range(300):
            delta = float(rng.choice((0.5, 0.1, 1 / 3, 0.013, 0.07)))
            cases.append((_random_pwa(rng, delta, compact=trial % 2 == 0), delta))
        cases += [
            # 7 cells, a flat piece from slot 7 on, a falling one from slot
            # 8, and a rising one whose start cell is the falling one's last
            (PiecewiseAffine1D(((0.0, 0.0), (1.0, 0.7), (2.0, 0.7), (3.0, -0.7), (4.0, 0.0)),
                               compact_support=False), 0.1),
            # short pieces, then a long one
            (PiecewiseAffine1D(((0.0, 0.0), (0.1, 0.3), (0.2, 0.1), (0.3, 0.35), (1.3, 1.5),
                                (1.4, 0.0))), 1e-3),
            (PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))), 5e-4),
            (PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False), 5e-4)]
        fields = [(AffineRamp((0.6, -0.3), Box((-1.0, -0.5), (1.0, 1.5))), 0.05),
                  (TensorTent((0.1, -0.2), (0.9, 0.6), 1.0), 0.1)]

        def cells():
            out = [_hex(vertical_segmentation(u, delta)) for u, delta in cases]
            for u, delta in fields:
                sigma, points, _, _ = multidim._line_grid(u, 8, 8)
                for block in u._sections(sigma, points)[1]._cells(delta):
                    out.append([(a.dtype.str, a.tobytes()) for a in block])  # bit for bit
            return out

        want = cells()
        for chunk, long in itertools.product((1, 7, rearrange._CHUNK),
                                             (1, rearrange._LONG_PIECE)):
            monkeypatch.setattr(rearrange, "_CHUNK", chunk)
            monkeypatch.setattr(rearrange, "_LONG_PIECE", long)
            assert cells() == want, (chunk, long)

    @pytest.mark.parametrize("shape, bound", [
        (PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False), 23.5),  # 10^5 cells
        (PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))), 20.5)],  # 2 * 10^5 cells
        ids=["ramp", "tent"])
    def test_segmentation_scratch_memory(self, shape, bound):
        # at delta = 1e-5 the traced peak of the segmentation, its result
        # included: 16 bytes a cell for the result, one chunk's cells and
        # crossings, and a few bool arrays
        tracemalloc.start()
        try:
            u = vertical_segmentation(shape, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(u.values)

    def test_divergence_test_scratch_memory(self):
        # 10^5 cells at delta = 1e-5 alternating between 0 and delta, exact
        # jumps of delta that do not interact, and one adjacent jump of
        # 2 delta into the last cell, so the energy truly diverges; finding
        # it compares neighbours a chunk at a time into one bool array: at
        # most 5 bytes a cell past the input
        delta, cells = 1e-5, 10 ** 5
        values = delta * (np.arange(cells) % 2)
        values[-1] = 2 * delta  # its left neighbour holds 0
        u = StepFunction1D(np.linspace(0.0, 1.0, cells + 1), values, TailMode.DOMAIN_ONLY)
        tracemalloc.start()
        try:
            energy = step_energy(u, None, EnergyParams(delta, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == math.inf
        assert peak <= 5 * len(u.values)

    def test_end_node_on_a_level_adds_no_cell(self):
        # the crossing of the end node's level lands on or an ulp before
        # the node; the strict tests k*delta < y1 and k*delta > y1 drop it
        peak = PiecewiseAffine1D(((0.082, 0.0), (0.571, 1.0), (0.639, 0.0)))
        assert vertical_segmentation(peak, 1 / 3).values.tolist() == [1 / 3, 2 / 3, 1 / 3]
        tent = PiecewiseAffine1D(((0.002, 0.0), (0.174, 0.5), (0.939, 0.0)))
        s = vertical_segmentation(tent, 0.25)
        assert s.breakpoints.tolist() == [0.088, 0.5565]
        assert s.values.tolist() == [0.25]

    def test_falling_piece_within_ulps_of_one_level(self):
        u = PiecewiseAffine1D(((0.0, -0.49999999999999994), (1.0, -0.5000000000000001)),
                              compact_support=False)
        s = vertical_segmentation(u, 0.1)
        assert s(0.5) == 0.1 * grid_floor_level(u(0.5), 0.1)

    def test_rising_crossing_rounding_past_the_end_stays_on_it(self):
        # the last crossing computes to 0.6380000000000001, past the end node
        ramp = PiecewiseAffine1D(((0.06, -0.039), (0.638, 0.02600000000000001)),
                                 compact_support=False)
        s = vertical_segmentation(ramp, 0.013)
        assert s.breakpoints.tolist() == [0.06, 0.17560000000000003, 0.2912,
                                          0.40680000000000005, 0.5224, 0.638]
        assert s.values.tolist() == [-0.039, -0.026, -0.013, 0.0, 0.013]

    def test_falling_crossing_rounding_past_the_end_stays_on_it(self):
        # level 0 is crossed at the end node, where u is -1e-323
        falling = PiecewiseAffine1D(((0.102, 0.07), (0.33, -1e-323)),
                                    compact_support=False)
        s = vertical_segmentation(falling, 0.07)
        assert s.breakpoints.tolist() == [0.102, 0.33]
        assert s.values.tolist() == [0.0]

    def test_step_input_floors_values(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.55, 1.9), TailMode.DOMAIN_ONLY)
        s = vertical_segmentation(u, 0.5)
        assert s.values.tolist() == [0.5, 1.5]

    def test_domain_only_keeps_range(self):
        ramp = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False)
        s = vertical_segmentation(ramp, 0.25)
        assert s.tail_mode is TailMode.DOMAIN_ONLY
        assert s.breakpoints[0] == 0.0 and s.breakpoints[-1] == 1.0
        assert s.values.tolist() == [0.0, 0.25, 0.5, 0.75]


class TestClampValues:
    def test_basic_clamp(self):
        u = StepFunction1D((0.0, 1.0, 2.0, 3.0), (-1.0, 0.5, 2.0),
                           TailMode.DOMAIN_ONLY)
        t = clamp_values(u, 0.0, 1.0)
        assert t.values.tolist() == [0.0, 0.5, 1.0]

    def test_identity_when_bounds_cover(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.2, 0.8), TailMode.DOMAIN_ONLY)
        assert clamp_values(u, 0.2, 0.8) == u

    def test_bad_bounds(self):
        u = StepFunction1D((0.0, 1.0), (0.5,), TailMode.DOMAIN_ONLY)
        with pytest.raises(BadBounds):
            clamp_values(u, 1.0, 0.0)
        compact = StepFunction1D((0.0, 1.0), (0.5,))
        with pytest.raises(BadBounds):
            clamp_values(compact, 0.2, 1.0)

    def test_nan_bounds_rejected(self):
        for u in (StepFunction1D((0.0, 1.0), (0.5,), TailMode.DOMAIN_ONLY),
                  StepFunction1D((0.0, 1.0), (0.5,))):
            for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
                with pytest.raises(BadBounds, match="lo <= hi"):
                    clamp_values(u, lo, hi)

    def test_energy_never_increases(self, rng):
        for _ in range(60):
            u = random_step(rng)
            params = EnergyParams(float(rng.uniform(0.1, 0.8)),
                                  float(rng.choice([1.0, 2.0])))
            a, b = sorted(rng.uniform(-1.0, 1.0, 2))
            before = step_energy(u, u.support, params)
            after = step_energy(clamp_values(u, a, b), u.support, params)
            assert after <= before * (1 + 1e-12) + 1e-12 or math.isinf(before)


class TestMonotoneRearrangement:
    def test_discrete_examples(self):
        assert monotone_rearrangement(DiscreteArrangement((3, 1, 2))).species == (1, 2, 3)
        assert monotone_rearrangement(DiscreteArrangement((2, 1, 2, 0))).species == (0, 1, 2, 2)
        sorted_in = DiscreteArrangement((1, 1, 4))
        assert monotone_rearrangement(sorted_in) == sorted_in

    def test_step_example(self):
        u = StepFunction1D((0.0, 0.3, 1.0), (1.0, 0.0), TailMode.DOMAIN_ONLY)
        mu = monotone_rearrangement_step(u, UNIT)
        assert mu.breakpoints.tolist() == [0.0, 0.7, 1.0]
        assert mu.values.tolist() == [0.0, 1.0]

    def test_step_idempotent_and_measure_preserving(self, rng):
        for _ in range(40):
            u = random_grid_step(rng, 0.25, n_range=(3, 9))
            mu = monotone_rearrangement_step(u, UNIT)
            assert monotone_rearrangement_step(mu, UNIT) == mu
            assert all(a <= b for a, b in zip(mu.values, mu.values[1:]))
            for fn_a, fn_b in ((u, mu),):
                ea, va = step_cells(fn_a, UNIT)
                eb, vb = step_cells(fn_b, UNIT)
                for level in set(va) | set(vb):
                    ma = sum(ea[i + 1] - ea[i] for i, v in enumerate(va) if v == level)
                    mb = sum(eb[i + 1] - eb[i] for i, v in enumerate(vb) if v == level)
                    assert math.isclose(ma, mb, rel_tol=0, abs_tol=1e-12)

    def test_last_cell_few_ulps_wide(self):
        # the lengths laid out before the largest value round past domain.hi
        u = StepFunction1D((3.0, 4.014414394323118, 5.461675714544933, 7.547482011407145,
                            7.744011785271194, 9.327561179041531, 10.260726622112166,
                            13.099999999999998, 13.1),
                           (2, 2, 0, 2, 0, 1, 0, 5), TailMode.DOMAIN_ONLY)
        domain = Interval(3, 13.1)
        mu = monotone_rearrangement_step(u, domain)
        assert mu.breakpoints[0] == 3.0 and mu.breakpoints[-1] == 13.1
        assert mu.values.tolist() == [0.0, 1.0, 2.0]  # the one-ulp cell of 5 is dropped
        ea, va = step_cells(u, domain)
        eb, vb = step_cells(mu, domain)
        for level in (0.0, 1.0, 2.0, 5.0):
            ma = math.fsum(np.diff(ea)[va == level])
            mb = math.fsum(np.diff(eb)[vb == level])
            assert math.isclose(ma, mb, rel_tol=0, abs_tol=1e-12)

    def test_discrete_idempotent(self, rng):
        for _ in range(50):
            u = DiscreteArrangement(tuple(int(v) for v in rng.integers(-4, 5, 6)))
            mu = monotone_rearrangement(u)
            assert monotone_rearrangement(mu) == mu


class TestHostility:
    def test_two_entry_example(self):
        h = HostilityWeights((1.0, 0.5))
        assert total_hostility(h, E1, DiscreteArrangement((0, 2))) == 0.5

    def test_three_entry_example(self):
        assert total_hostility(H3, E1, DiscreteArrangement((0, 2, 0))) == 1.0

    def test_rearrangement_decreases(self):
        u = DiscreteArrangement((2, 0, 1))
        assert total_hostility(H3, E1, u) == 0.5
        assert total_hostility(H3, E1, monotone_rearrangement(u)) == pytest.approx(1 / 3)

    def test_self_pairs_with_square_list(self):
        sq = EnemyList.band_square(0, 1)
        h = HostilityWeights((2.0, 1.0))
        # both entries hostile with everything in {0,1}^2 incl. themselves
        assert total_hostility(h, sq, DiscreteArrangement((0, 1))) == 2.0 + 2.0 + 1.0

    def test_weights_too_short(self):
        with pytest.raises(WeightsTooShort):
            total_hostility(HostilityWeights((1.0,)), E1, DiscreteArrangement((0, 2)))


class TestStepHostility:
    def test_k1_equals_energy(self, rng):
        delta = 0.2
        for _ in range(200):
            u = random_grid_step(rng, delta)
            for p in (1.0, 2.0):
                params = EnergyParams(delta, p)
                a = step_energy(u, UNIT, params)
                b = step_hostility(u, UNIT, 1, params)
                assert (math.isinf(a) and math.isinf(b)) or a == b

    def test_constant_zero_any_k(self):
        u = StepFunction1D((0.0, 1.0), (0.6,), TailMode.DOMAIN_ONLY)
        for k in (1, 2, 5):
            assert step_hostility(u, u.support, k, EnergyParams(0.2, 1.0)) == 0.0

    def test_two_levels_equal_pair_energy(self):
        delta, k = 0.3, 2
        u = StepFunction1D((0.0, 1.0, 2.0, 3.0),
                           (0.0, delta, (k + 1) * delta), TailMode.DOMAIN_ONLY)
        params = EnergyParams(delta, 2.0)
        got = step_hostility(u, u.support, k, params)
        from nlg import pair_cell_energy
        expected = 2.0 * pair_cell_energy(Interval(0.0, 1.0), Interval(2.0, 3.0),
                                          params)
        assert math.isclose(got, expected, rel_tol=1e-14)

    def test_matches_pairwise_sum(self, rng):
        delta = 0.2
        for _ in range(40):
            for k in (2, 3):
                u = random_grid_step(rng, delta, max_jump=k)
                levels = [round(v / delta) for v in u.values]
                for p in (1.0, 1.5, 2.0):
                    params = EnergyParams(delta, p)
                    got = step_hostility(u, UNIT, k, params)
                    expected = pairwise_energy(
                        u, UNIT, lambda a, b: abs(b - a) >= k + 1, params, levels)
                    assert math.isclose(got, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, np.float64(math.inf), True,
                                   False, 0, -2, 1.5, "2", None])
    def test_k_must_be_a_positive_integer(self, k):
        u = StepFunction1D((0.0, 1.0), (0.6,), TailMode.DOMAIN_ONLY)
        with pytest.raises(ValueError, match="^k must be a positive integer, got "):
            step_hostility(u, u.support, k, EnergyParams(0.2, 1.0))

    def test_integral_float_k_is_that_integer(self, rng):
        for _ in range(20):
            u = random_grid_step(rng, 0.2, max_jump=3)
            params = EnergyParams(0.2, 1.5)
            for k in (1, 2, 3):
                want = step_hostility(u, UNIT, k, params)
                for same in (float(k), np.float64(k), np.int64(k)):
                    got = step_hostility(u, UNIT, same, params)
                    assert got == want or (math.isinf(got) and math.isinf(want))

    def test_values_off_grid_rejected(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.0, 0.31), TailMode.DOMAIN_ONLY)
        with pytest.raises(ValuesNotOnGrid):
            step_hostility(u, u.support, 1, EnergyParams(0.2, 1.0))

    def test_values_within_an_absolute_tolerance_rejected(self):
        # 1e-11 off level 1 is outside the relative guard under which
        # step_energy counts a value as on its level, so the two would
        # disagree here if step_hostility accepted it
        u = StepFunction1D((0.0, 1.0, 2.0, 3.0), (0.2 + 1e-11, 0.2, 0.0),
                           TailMode.DOMAIN_ONLY)
        with pytest.raises(ValuesNotOnGrid, match="at cell 0 "):
            step_hostility(u, u.support, 1, EnergyParams(0.2, 1.0))

    def test_semidiscrete_rearrangement_never_increases(self, rng):
        delta = 0.25
        for i in range(150):
            u = random_grid_step(rng, delta, max_jump=2 if i % 4 == 0 else 1)
            mu = monotone_rearrangement_step(u, UNIT)
            for k in (1, 2):
                for p in (1.0, 2.0):
                    params = EnergyParams(delta, p)
                    fu = step_hostility(u, UNIT, k, params)
                    fm = step_hostility(mu, UNIT, k, params)
                    assert fu >= fm - 1e-10 * max(abs(fm), 1.0) or math.isinf(fu)


class TestReduction:
    def test_rightmost_maximum(self):
        reduced, pos = reduce_arrangement(DiscreteArrangement((1, 3, 2, 3)))
        assert reduced.species == (1, 3, 2)
        assert pos == 4

    def test_too_short(self):
        with pytest.raises(TooShort):
            reduce_arrangement(DiscreteArrangement((5,)))

    @pytest.mark.parametrize("species,n_max", [(3, 7), (4, 6)])
    def test_matches_scalar_rightmost_deletion_exhaustive(self, species, n_max):
        # every arrangement, as one array of rows and one at a time, against
        # deleting the last maximum by hand; commuting with rearrangement
        # holds for any tie-break, so it cannot tell them apart
        for n in range(2, n_max + 1):
            flats = list(itertools.product(range(species), repeat=n))
            want_rows, want_pos = [], []
            for flat in flats:
                m0 = max(i for i, v in enumerate(flat) if v == max(flat))
                want_rows.append(flat[:m0] + flat[m0 + 1:])
                want_pos.append(m0 + 1)
            rows, pos = reduce_arrangement(np.array(flats))
            assert rows.tolist() == [list(r) for r in want_rows]
            assert pos.tolist() == want_pos
            for flat, r, p in zip(flats, want_rows, want_pos):
                reduced, at = reduce_arrangement(DiscreteArrangement(flat))
                assert (reduced.species, at) == (r, p)

    def test_commutes_with_rearrangement(self, rng):
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            u = DiscreteArrangement(tuple(int(v) for v in rng.integers(-3, 6, n)))
            ru, _ = reduce_arrangement(u)
            assert monotone_rearrangement(ru) == \
                reduce_arrangement(monotone_rearrangement(u))[0]


class TestHostilityGap:
    def test_matches_difference_exhaustive(self, rng):
        for n in range(2, 6):
            weights = [random_nonincreasing_weights(rng, n) for _ in range(5)]
            for flat in itertools.product(range(3), repeat=n):
                u = DiscreteArrangement(flat)
                mu_val = max(flat)
                lists = [E1, EnemyList.band_complement(2),
                         EnemyList.band_square_complement(mu_val - 1, mu_val),
                         EnemyList.band_square(mu_val - 1, mu_val)]
                ru, _ = reduce_arrangement(u)
                for enemies in lists:
                    for h in weights:
                        direct = total_hostility(h, enemies, u) \
                            - total_hostility(h, enemies, ru)
                        assert math.isclose(hostility_gap(h, enemies, u), direct,
                                            rel_tol=1e-12, abs_tol=1e-12)

    def test_two_entry_formula(self):
        h = HostilityWeights((1.0, 0.5))
        u = DiscreteArrangement((0, 3))
        explicit = EnemyList.explicit([(0, 3), (3, 0)])
        assert hostility_gap(h, explicit, u) == 0.5
        with_self = EnemyList.explicit([(0, 3), (3, 0), (3, 3)])
        assert hostility_gap(h, with_self, u) == 1.5

    def test_constant_arrangement_zero_gap(self):
        h = HostilityWeights((1.0, 0.5, 0.25))
        assert hostility_gap(h, E1, DiscreteArrangement((1, 1, 1))) == 0.0

    def test_gap_inequality_under_rearrangement(self, rng):
        for n in range(2, 6):
            for flat in itertools.product(range(3), repeat=n):
                u = DiscreteArrangement(flat)
                mu = monotone_rearrangement(u)
                for k in (1, 2):
                    enemies = EnemyList.band_complement(k)
                    h = random_nonincreasing_weights(rng, n)
                    assert hostility_gap(h, enemies, u) >= \
                        hostility_gap(h, enemies, mu) - 1e-12


# each enemy list with the species its random rows draw from
ROW_CASES = [
    (EnemyList.band_complement(1), range(-2, 4)),
    (EnemyList.band_complement(2), range(-2, 4)),
    (EnemyList.band_square(0, 2), range(-2, 4)),
    (EnemyList.band_square_complement(0, 2), range(-2, 4)),
    (EnemyList.explicit([(-3, 7), (7, -3), (0, 7), (7, 0), (0, 0)]), (-3, 0, 7)),
]


@st.composite
def ranked_rows(draw):
    """Integer rows of a drawn dtype whose species span exactly a drawn
    width: 0, the counting cut 4 * size and the width just under it among
    them, anywhere in the dtype's range."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64, np.uint8, np.uint64]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    size = m * n
    span = 0 if size == 1 else draw(st.one_of(
        st.sampled_from([4 * size - 1, 4 * size]), st.integers(0, 5 * size)))
    info = np.iinfo(dtype)
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    offsets = draw(st.lists(st.integers(0, span), min_size=size, max_size=size))
    at_lo, at_hi = draw(st.permutations(range(size)))[:2] if size > 1 else (0, 0)
    offsets[at_lo], offsets[at_hi] = 0, span
    return np.array([lo + v for v in offsets], dtype=dtype).reshape(m, n)


def _reference_ranks(enemies, rows):
    """Ranks from the sorted distinct species as Python ints, and their table."""
    values = sorted(set(rows.ravel().tolist()))
    rank = {v: r for r, v in enumerate(values)}
    ranks = np.array([rank[v] for v in rows.ravel().tolist()], dtype=np.intp)
    return ranks.reshape(rows.shape), enemies.table(values)


class TestRowArrays:
    """The (m, n) array forms against the scalar oracle and the one-row form."""

    @pytest.fixture(params=range(len(ROW_CASES)),
                    ids=["band1", "band2", "square", "square-complement", "explicit"])
    def case(self, request, rng):
        enemies, species = ROW_CASES[request.param]
        return enemies, [rng.choice(np.array(species), (int(rng.integers(1, 9)), n))
                         for n in range(1, 7)]

    def test_counts_dot_weights_is_total_hostility(self, case, rng):
        enemies, batches = case
        for rows in batches:
            h = random_nonincreasing_weights(rng, rows.shape[1], lo=-0.5)
            totals = hostile_gap_counts(enemies, rows) @ np.asarray(h.h)
            for row, got in zip(rows, totals):
                want = total_hostility(h, enemies, DiscreteArrangement(tuple(row.tolist())))
                assert abs(got - want) <= 1e-12

    def test_gap_is_difference_of_totals(self, case, rng):
        enemies, batches = case
        for rows in batches[1:]:
            h = random_nonincreasing_weights(rng, rows.shape[1], lo=-0.5)
            gaps = hostility_gap(h, enemies, rows)
            assert gaps.shape == (len(rows),)
            for row, got in zip(rows, gaps):
                u = DiscreteArrangement(tuple(row.tolist()))
                want = total_hostility(h, enemies, u) \
                    - total_hostility(h, enemies, reduce_arrangement(u)[0])
                assert abs(got - want) <= 1e-12

    def test_rows_match_one_row_results(self, case, rng):
        enemies, batches = case
        for rows in batches:
            n = rows.shape[1]
            h = random_nonincreasing_weights(rng, n)
            counts = hostile_gap_counts(enemies, rows)
            sorted_rows = monotone_rearrangement(rows)
            assert sorted_rows.shape == rows.shape
            if n >= 2:
                reduced, positions = reduce_arrangement(rows)
                assert reduced.shape == (len(rows), n - 1)
                gaps = hostility_gap(h, enemies, rows)
            for r, row in enumerate(rows):
                u = DiscreteArrangement(tuple(row.tolist()))
                assert monotone_rearrangement(u).species == tuple(sorted_rows[r].tolist())
                one = hostile_gap_counts(enemies, u)
                assert one.shape == (n,) and np.array_equal(one, counts[r])
                if n >= 2:
                    ru, pos = reduce_arrangement(u)
                    assert ru.species == tuple(reduced[r].tolist())
                    assert pos == positions[r]
                    assert hostility_gap(h, enemies, u) == gaps[r]

    def test_rightmost_maximum_rows(self):
        reduced, positions = reduce_arrangement(np.array([[1, 3, 2, 3], [3, 0, 0, 0],
                                                          [2, 2, 2, 2]]))
        assert reduced.tolist() == [[1, 3, 2], [0, 0, 0], [2, 2, 2]]
        assert positions.tolist() == [4, 1, 4]

    def test_sparse_and_huge_species(self):
        u = DiscreteArrangement((2 ** 70, -5, 2 ** 70 + 1))
        assert monotone_rearrangement(u).species == (-5, 2 ** 70, 2 ** 70 + 1)
        assert reduce_arrangement(u) == (DiscreteArrangement((2 ** 70, -5)), 3)
        assert hostile_gap_counts(E1, u).tolist() == [0.0, 2.0, 0.0]
        # species past 2**63 among small ones made lossy float64 rows
        u = DiscreteArrangement((2 ** 63 + 1000, 2 ** 63 + 3, 1))
        assert hostile_gap_counts(E1, u).tolist() == [0.0, 2.0, 1.0]

    @settings(max_examples=300)
    @given(ranked_rows(), st.sampled_from([e for e, _ in ROW_CASES]))
    def test_counted_ranks_match_unique(self, rows, enemies):
        ranks, table = rearrange._ranks(enemies, rows)
        want_ranks, want_table = _reference_ranks(enemies, rows)
        assert ranks.dtype == want_ranks.dtype and np.array_equal(ranks, want_ranks)
        assert table.dtype == want_table.dtype and np.array_equal(table, want_table)

    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.integers(-3, 8), st.integers(2 ** 63 - 2, 2 ** 63 + 2),
                              st.integers(-2 ** 70, 2 ** 70)), min_size=1, max_size=6))
    def test_one_arrangement_ranks_match_unique(self, species):
        u = DiscreteArrangement(tuple(species))
        rows = rearrange._as_rows(u)
        huge = not all(-2 ** 63 <= v < 2 ** 63 for v in species)
        assert rows.dtype == (object if huge else np.int64) and rows.tolist() == [species]
        for enemies, _ in ROW_CASES:
            ranks, table = rearrange._ranks(enemies, rows)
            want_ranks, want_table = _reference_ranks(enemies, rows)
            assert np.array_equal(ranks, want_ranks) and np.array_equal(table, want_table)
        h = HostilityWeights(tuple(1.0 / (1 + g) for g in range(len(species))))
        assert hostile_gap_counts(E1, u) @ np.asarray(h.h) \
            == pytest.approx(total_hostility(h, E1, u), rel=1e-12)

    def test_bad_rows(self):
        for bad in (np.array([1, 2]), np.zeros((2, 3)), np.zeros((2, 0), dtype=int)):
            with pytest.raises(ValueError):
                hostile_gap_counts(E1, bad)
        with pytest.raises(TooShort):
            reduce_arrangement(np.zeros((3, 1), dtype=int))
        with pytest.raises(TooShort):
            hostility_gap(H3, E1, np.zeros((3, 1), dtype=int))
        with pytest.raises(WeightsTooShort):
            hostility_gap(H3, E1, np.zeros((3, 4), dtype=int))


class TestLeftRightGap:
    def test_empty_sets(self):
        assert left_right_gap(H3, set(), set()) == 1.0

    def test_singletons(self):
        got = left_right_gap(H3, {1}, {1})
        assert math.isclose(got, 11.0 / 6.0, rel_tol=1e-15)
        assert math.isclose(got, sum(H3.h), rel_tol=1e-15)

    def test_weights_too_short(self):
        with pytest.raises(WeightsTooShort):
            left_right_gap(H3, {1, 2}, {1})

    def test_bound_exhaustive_small(self, rng):
        h = random_nonincreasing_weights(rng, 9)
        universe = [1, 2, 3, 4]
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(universe, r) for r in range(len(universe) + 1)))
        for L in subsets:
            for R in subsets:
                bound = math.fsum(h.h[i] for i in range(len(L) + len(R) + 1))
                assert left_right_gap(h, L, R) <= bound + 1e-12


class TestBruteForce:
    def test_lexicographic_enumeration(self):
        perms = list(multiset_permutations([1, 0, 1]))
        assert perms == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_min_on_three_species(self):
        val, witness = brute_force_min_hostility(H3, E1, [0, 1, 2])
        assert math.isclose(val, 1.0 / 3.0, rel_tol=1e-15)
        assert witness.species == (0, 1, 2)

    def test_singleton(self):
        val, witness = brute_force_min_hostility(HostilityWeights((2.0,)),
                                                 EnemyList.band_square(0, 0), [0])
        assert val == 2.0 and witness.species == (0,)

    def test_guard(self):
        with pytest.raises(TooManyPermutations):
            brute_force_min_hostility(HostilityWeights(tuple(range(20, 0, -1))),
                                      E1, list(range(14)), guard=1000)

    def test_minimum_attained_by_rearrangement(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            multiset = [int(v) for v in rng.integers(0, 4, n)]
            h = random_nonincreasing_weights(rng, n)
            for k in (1, 2):
                enemies = EnemyList.band_complement(k)
                val, _ = brute_force_min_hostility(h, enemies, multiset)
                mu = monotone_rearrangement(DiscreteArrangement(tuple(multiset)))
                assert math.isclose(val, total_hostility(h, enemies, mu),
                                    rel_tol=1e-12, abs_tol=1e-15)

    def test_negative_tail_weights_still_minimized_by_sorting(self, rng):
        # nonincreasing weights may go negative; the sorting theorem has no
        # sign condition
        for _ in range(10):
            n = int(rng.integers(2, 6))
            h = random_nonincreasing_weights(rng, n, lo=-0.5, hi=1.0)
            multiset = [int(v) for v in rng.integers(0, 3, n)]
            val, _ = brute_force_min_hostility(h, E1, multiset)
            mu = monotone_rearrangement(DiscreteArrangement(tuple(multiset)))
            assert val <= total_hostility(h, E1, mu) + 1e-12
            assert math.isclose(val, total_hostility(h, E1, mu),
                                rel_tol=1e-12, abs_tol=1e-15)


def test_segmentation_truncation_chain(rng):
    for _ in range(100):
        u = random_step(rng)
        delta = float(rng.uniform(0.1, 0.6))
        params = EnergyParams(delta, float(rng.choice([1.0, 1.5, 2.0])))
        a, b = sorted(rng.uniform(-1.0, 1.0, 2))
        tu = clamp_values(u, a, b)
        stu = vertical_segmentation(tu, delta)
        e_u = step_energy(u, UNIT, params)
        e_tu = step_energy(tu, UNIT, params)
        e_stu = step_energy(stu, UNIT, params)
        assert e_stu <= e_tu * (1 + 1e-12) + 1e-12
        assert e_tu <= e_u * (1 + 1e-12) + 1e-12
