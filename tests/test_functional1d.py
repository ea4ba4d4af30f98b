import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlg import functional1d
from nlg import (EnergyParams, FULL_LINE, Interval, PiecewiseAffine1D,
                 StepFunction1D, TailMode, energy_quadrature,
                 integrate_pointwise_hostility, local_energy, pair_cell_energy,
                 pair_cell_quadrature, pointwise_hostility, step_cells, step_energy,
                 step_hostility, vertical_segmentation)
from nlg.functional1d import (DomainMismatch, OverlappingIntervals, UnsupportedCombination,
                              _bands, _first_past, _level_sum, _pair_sum, _segment_sums,
                              _unimodal_sums)
from nlg.oracles import BreakpointQuery, ToleranceNotReached

from conftest import (UNIT, numpy_dispatch, pairwise_energy, random_grid_step, random_step,
                      run_under_baseline_dispatch)

P1 = EnergyParams(1.0, 1.0)
P2 = EnergyParams(1.0, 2.0)


# pair_cell_energy(HALF_LINE_PAIRS[i], EnergyParams(0.3, p)) as float.hex:
# libm's powers, which numpy's array power misses on some of these pairs
HALF_LINE_PAIRS = [((0.0, 0.1), (0.8, math.inf)), ((0.0, 0.1), (0.100001, math.inf)),
                   ((0.0, 1000.0), (1000.3, math.inf)), ((0.0, 0.3), (2.8, math.inf)),
                   ((-math.inf, -0.3), (0.4, 0.5)), ((-math.inf, 0.0), (1e-06, 1.5))]
HALF_LINE_BITS = {
    1.0: ["0x1.482ab02964561p-5", "0x1.ba18c2c36b01dp+1", "0x1.37807afd52354p+1",
          "0x1.16843e6415ecap-5", "0x1.482ab02964560p-5", "0x1.110af0893976ep+2"],
    1.5: ["0x1.15182429432f8p-6", "0x1.b4cadb88155c8p+7", "0x1.9281af7a407bap-2",
          "0x1.f44208b3bb249p-8", "0x1.1518242943306p-6", "0x1.b5d1fd8cff55cp+7"],
    2.0: ["0x1.075075075074bp-7", "0x1.5f8f199a2f155p+15", "0x1.331b9d36b10b0p-3",
          "0x1.f9903cdad7eb2p-10", "0x1.0750750750751p-7", "0x1.5f8ff0a3d70a4p+15"],
    3.0: ["0x1.1a1f58d0fac66p-9", "0x1.0c388cff8a7f8p+32", "0x1.9999972f7f6a0p-5",
          "0x1.323a1c1561238p-13", "0x1.1a1f58d0fac66p-9", "0x1.0c388cffff7cfp+32"],
}


class TestPairCellEnergy:
    @pytest.mark.parametrize("p", sorted(HALF_LINE_BITS))
    def test_half_lines_keep_their_bits(self, p):
        got = [pair_cell_energy(Interval(*a), Interval(*b), EnergyParams(0.3, p)).hex()
               for a, b in HALF_LINE_PAIRS]
        assert got == HALF_LINE_BITS[p]

    def test_unit_separated_p1(self):
        assert math.isclose(pair_cell_energy(Interval(0, 1), Interval(2, 3), P1),
                            math.log(4.0 / 3.0), rel_tol=1e-14)

    def test_unit_separated_p2(self):
        assert math.isclose(pair_cell_energy(Interval(0, 1), Interval(2, 3), P2),
                            1.0 / 6.0, rel_tol=1e-14)

    def test_touching_diverges(self):
        assert pair_cell_energy(Interval(0, 1), Interval(1, 2), P1) == math.inf
        assert pair_cell_energy(Interval(0, 1), Interval(1, 2), P2) == math.inf

    def test_unbounded_right(self):
        got = pair_cell_energy(Interval(0, 1), Interval(2, math.inf), P2)
        assert math.isclose(got, 0.25, rel_tol=1e-14)

    def test_unbounded_both_p1_diverges(self):
        assert pair_cell_energy(Interval(-math.inf, 1), Interval(2, math.inf),
                                P1) == math.inf

    def test_symmetry(self):
        a, b = Interval(-2.0, -0.5), Interval(0.25, 4.0)
        for params in (P1, EnergyParams(0.7, 1.5), P2):
            assert pair_cell_energy(a, b, params) == pair_cell_energy(b, a, params)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingIntervals):
            pair_cell_energy(Interval(0, 2), Interval(1, 3), P1)
        with pytest.raises(OverlappingIntervals):
            pair_cell_energy(Interval(0, 2), Interval(0.5, 1.5), P2)

    def test_quadrature_oracle_unbounded(self):
        got = pair_cell_quadrature(Interval(0, 1), Interval(2, math.inf), P2)
        assert math.isclose(got, 0.25, rel_tol=1e-7)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_quadrature_oracle_two_half_lines(self, p):
        # the outer integral runs over a whole half-line, and so does the
        # inner one, in closed form
        for gap in (0.3, 0.5264, 2.0, 7.0, 40.0):
            for delta, b1 in ((1.0, 1.0), (0.4, -3.0)):
                i1, i2 = Interval(-math.inf, b1), Interval(b1 + gap, math.inf)
                params = EnergyParams(delta, p)
                cf = pair_cell_energy(i1, i2, params)
                assert math.isclose(cf, pair_cell_quadrature(i1, i2, params), rel_tol=1e-9)
                assert math.isclose(cf, pair_cell_quadrature(i2, i1, params), rel_tol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 40.0])
    def test_quadrature_oracle_small_gap(self, p):
        # a gap of 0.01 against cells of length 2-3, bounded and with one
        # side unbounded: the integrand peaks at the gap's scale, and at
        # p = 40 falls off within a fortieth of it, so that the first
        # tolerance is too loose and the rerun against the value is needed
        params = EnergyParams(0.7, p)
        for l1, l2 in ((2.0, 3.0), (3.0, 2.0), (2.5, 2.5)):
            b1 = -1.0 + l1
            a2 = b1 + 0.01
            for i1, i2 in ((Interval(-1.0, b1), Interval(a2, a2 + l2)),
                           (Interval(-1.0, b1), Interval(a2, math.inf)),
                           (Interval(-math.inf, b1), Interval(a2, a2 + l2))):
                cf = pair_cell_energy(i1, i2, params)
                assert math.isclose(cf, pair_cell_quadrature(i1, i2, params), rel_tol=1e-9)
                assert math.isclose(cf, pair_cell_quadrature(i2, i1, params), rel_tol=1e-9)

    def test_oracle_matches_closed_form(self, rng):
        for _ in range(25):
            a1 = rng.uniform(-2, 2)
            l1 = rng.uniform(0.05, 1.5)
            gap = rng.uniform(0.02, 2.0)
            l2 = rng.uniform(0.05, 1.5)
            i1 = Interval(a1, a1 + l1)
            i2 = Interval(a1 + l1 + gap, a1 + l1 + gap + l2)
            for p in (1.0, 1.5, 2.0, 3.0):
                params = EnergyParams(rng.uniform(0.3, 1.5), p)
                cf = pair_cell_energy(i1, i2, params)
                assert math.isclose(cf, pair_cell_quadrature(i1, i2, params),
                                    rel_tol=1e-6)


def test_step_cells_clip_the_run_to_the_domain():
    # the cells meeting the domain, the outer two clipped; a compact step's
    # zero tails are cells too; on the step's own range, its own arrays
    u = StepFunction1D((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    for domain, edges, values in (
            (Interval(0.5, 2.5), [0.5, 1.0, 2.0, 2.5], [1.0, 2.0, 3.0]),
            (Interval(1.0, 2.0), [1.0, 2.0], [2.0]),
            (Interval(-1.0, 0.5), [-1.0, 0.0, 0.5], [0.0, 1.0]),
            (Interval(2.5, math.inf), [2.5, 3.0, math.inf], [3.0, 0.0]),
            (Interval(3.5, 4.0), [3.5, 4.0], [0.0]),
            (Interval(-math.inf, math.inf), [-math.inf, 0.0, 1.0, 2.0, 3.0, math.inf],
             [0.0, 1.0, 2.0, 3.0, 0.0])):
        got_edges, got_values = step_cells(u, domain)
        assert (got_edges.tolist(), got_values.tolist()) == (edges, values), domain
    dom = StepFunction1D((0.0, 1.0, 2.0), (1.0, 2.0), TailMode.DOMAIN_ONLY)
    edges, values = step_cells(dom, dom.support)
    assert np.shares_memory(edges, dom.breakpoints) and np.shares_memory(values, dom.values)
    assert edges.tolist() == [0.0, 1.0, 2.0] and values.tolist() == [1.0, 2.0]


def test_first_past_answer_does_not_depend_on_the_batch():
    # a rising quadratic near its flat top: Horner's rounding makes the
    # crossing predicate flip back and forth near the crossing, so a search
    # whose probes depended on the batch size found another float in a batch
    coef = np.array([2.0032934551130004, -0.5520114340447455, -3.2997662271054664])
    value, lo, hi = 2.026379683223117, -0.5836440214325374, -0.08364402143253741

    def past(t):
        return (coef[2] * t + coef[1]) * t + coef[0] >= value

    alone = _first_past(past, np.array([lo]), np.array([hi]))
    assert lo < alone[0] <= hi
    near = np.linspace(alone[0] - 2e-8, alone[0] + 2e-8, 100_001)
    assert np.count_nonzero(np.diff(past(near))) > 2  # not monotone
    batch = _first_past(past, np.full(1000, lo), np.full(1000, hi))
    assert batch.tolist() == alone.tolist() * 1000


class TestStepEnergy:
    def test_three_step_staircase(self):
        for delta in (0.05, 0.3, 1.7):
            u = StepFunction1D((0.0, 1 / 3, 2 / 3, 1.0),
                               (0.0, delta, 2 * delta), TailMode.DOMAIN_ONLY)
            got = step_energy(u, u.support, EnergyParams(delta, 2.0))
            assert math.isclose(got, delta * delta, rel_tol=1e-12)

    def test_constant_is_zero(self):
        u = StepFunction1D((0.0, 0.4, 1.0), (0.7, 0.7), TailMode.DOMAIN_ONLY)
        assert step_energy(u, u.support, P1) == 0.0
        # equal cells are one run, also where a compact step's zero cells
        # join its two tails: zero energy, hostility and pair sum
        for value, tail, domain in ((3.0, TailMode.DOMAIN_ONLY, Interval(0.0, 5.0)),
                                    (0.0, TailMode.COMPACT_SUPPORT, Interval(-1.0, 7.0))):
            u = StepFunction1D(np.arange(6.0), (value,) * 5, tail)
            assert step_energy(u, u.domain, P2) == 0.0
            assert step_hostility(u, domain, 1, P2) == step_hostility(u, domain, 2, P2) == 0.0
            assert _pair_sum(*step_cells(u, u.domain), 0.5, P2) == 0.0

    def test_adjacent_big_jump_diverges(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.0, 2.0), TailMode.DOMAIN_ONLY)
        assert step_energy(u, u.support, P1) == math.inf

    def test_jump_exactly_delta_is_finite(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.0, 1.0), TailMode.DOMAIN_ONLY)
        assert step_energy(u, u.support, P1) == 0.0

    def test_compact_support_boundary_jump_diverges(self):
        # right boundary jumps from 2 to the zero tail
        u = StepFunction1D((0.0, 1.0), (2.0,), TailMode.COMPACT_SUPPORT)
        assert step_energy(u, FULL_LINE, P1) == math.inf

    def test_compact_support_tails_interact(self):
        # values (d, 2d, d) with compact support: the tails see the middle cell
        d = 0.5
        u = StepFunction1D((0.0, 1.0, 2.0, 3.0), (d, 2 * d, d))
        params = EnergyParams(d, 2.0)
        got = step_energy(u, FULL_LINE, params)
        left = pair_cell_energy(Interval(-math.inf, 0.0), Interval(1.0, 2.0), params)
        right = pair_cell_energy(Interval(1.0, 2.0), Interval(3.0, math.inf), params)
        assert math.isclose(got, 2.0 * (left + right), rel_tol=1e-12)

    def test_domain_mismatch(self):
        u = StepFunction1D((0.0, 1.0), (1.0,), TailMode.DOMAIN_ONLY)
        with pytest.raises(DomainMismatch):
            step_energy(u, Interval(-1.0, 1.0), P1)

    def test_uniform_staircase_matches_aggregated_sum(self):
        # on a uniform partition with consecutive levels, the pair (i, i+m)
        # has gap (m-1)*ell and interacts iff m >= 2, so the energy
        # aggregates by the index gap m over unit cells scaled to width ell
        n = 10 ** 5
        ell = 1.0 / n
        u = StepFunction1D(tuple(np.linspace(0, 1, n + 1)),
                           tuple(np.arange(n, dtype=float)), TailMode.DOMAIN_ONLY)
        m = np.arange(2, n, dtype=float)
        for p in (1.0, 1.5, 2.0):
            got = step_energy(u, u.support, EnergyParams(1.0, p))
            if p == 1.0:
                pair = np.log(m * m / (m * m - 1.0))
            else:
                q = 1.0 - p
                pair = ((m - 1.0) ** q - 2.0 * m ** q + (m + 1.0) ** q) / (p * (p - 1.0))
            expected = 2.0 * math.fsum((n - m) * ell ** (1.0 - p) * pair)
            assert math.isclose(got, expected, rel_tol=1e-12)

    def test_uniform_staircase_matches_pairwise_sum(self):
        n = 200
        delta = 1.0 / n
        u = StepFunction1D(tuple(np.linspace(0, 1, n + 1)),
                           tuple(np.arange(n) * delta), TailMode.DOMAIN_ONLY)
        levels = np.arange(n)
        for p in (1.0, 1.5, 2.0):
            params = EnergyParams(delta, p)
            got = step_energy(u, u.support, params)
            expected = pairwise_energy(
                u, u.support, lambda a, b: abs(b - a) > params.threshold, params)
            assert math.isclose(got, expected, rel_tol=1e-12)
            # k = 2 drops the index gap m = 2
            got = step_hostility(u, u.support, 2, params)
            expected = pairwise_energy(
                u, u.support, lambda a, b: abs(b - a) >= 3, params, levels)
            assert math.isclose(got, expected, rel_tol=1e-12)

    def test_full_line_matches_pairwise_sum(self, rng):
        # compact support: both zero tails pair with every bounded cell
        delta = 0.25
        checked = 0
        while checked < 60:
            u = random_grid_step(rng, delta, tail=TailMode.COMPACT_SUPPORT)
            if abs(u.values[-1]) > delta:
                continue  # the jump into the right tail would diverge
            checked += 1
            for p in (1.0, 1.5, 2.0):
                params = EnergyParams(delta, p)
                got = step_energy(u, FULL_LINE, params)
                expected = pairwise_energy(
                    u, FULL_LINE, lambda a, b: abs(b - a) > params.threshold, params)
                assert math.isclose(got, expected, rel_tol=1e-12)

    def test_translation_invariance_and_dilation_scaling(self, rng):
        # the values walk by less than delta, so that the energies are
        # finite and both the shift and the dilation are checked
        finite = 0
        for _ in range(20):
            u = random_step(rng, n_range=(6, 16))
            walk = np.cumsum(rng.uniform(-0.35, 0.35, len(u.values)))
            u = StepFunction1D(u.breakpoints, tuple(walk), u.tail_mode)
            params = EnergyParams(0.35, float(rng.choice([1.0, 1.5, 2.0])))
            base = step_energy(u, u.support, params)
            shift = float(rng.uniform(-5, 5))
            moved = StepFunction1D(tuple(b + shift for b in u.breakpoints),
                                   u.values, u.tail_mode)
            got = step_energy(moved, moved.support, params)
            if math.isinf(base):
                assert math.isinf(got)
                continue
            assert math.isclose(got, base, rel_tol=1e-9, abs_tol=1e-15)
            lam = float(rng.uniform(0.5, 3.0))
            scaled = StepFunction1D(tuple(b * lam for b in u.breakpoints),
                                    u.values, u.tail_mode)
            got = step_energy(scaled, scaled.support, params)
            assert math.isclose(got, base * lam ** (1.0 - params.p),
                                rel_tol=1e-9, abs_tol=1e-15)
            finite += 0.0 < base < math.inf
        assert finite >= 18

    def test_interaction_set_shrinks_with_delta(self, rng):
        # a pair that interacts at 1.8 delta interacts at delta, so the energy
        # over delta^p, the kernel |y - x|^(-1-p) summed over the interacting
        # pairs, cannot grow with delta; the values walk by less than delta,
        # so that the energies are finite
        finite = 0
        for _ in range(30):
            d = float(rng.uniform(0.05, 0.5))
            u = random_step(rng, n_range=(6, 16))
            u = StepFunction1D(u.breakpoints, tuple(np.cumsum(rng.uniform(-d, d, len(u.values)))),
                               u.tail_mode)
            for p in (1.0, 2.0):
                small = step_energy(u, u.support, EnergyParams(d, p)) / d ** p
                big = step_energy(u, u.support, EnergyParams(1.8 * d, p)) / (1.8 * d) ** p
                assert big <= small * (1.0 + 1e-12)
                finite += 0.0 < big < small < math.inf
        assert finite >= 20

    def test_divergence_iff_adjacent_jump(self, rng):
        for _ in range(60):
            u = random_step(rng, n_range=(2, 6))
            d = float(rng.uniform(0.05, 1.2))
            params = EnergyParams(d, 1.0)
            jumps = np.abs(np.diff(u.values))
            expect_inf = bool(np.any(jumps > params.threshold))
            assert math.isinf(step_energy(u, u.support, params)) == expect_inf

    def test_divergent_pair_blows_up_under_shrinking_cutoff(self):
        # clip the touching pair away from the contact point: energy grows
        # without bound as the cutoff shrinks
        params = EnergyParams(0.5, 1.0)
        prev = 0.0
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            e = pair_cell_energy(Interval(0.0, 1.0 - eps), Interval(1.0, 2.0), params)
            assert e > prev
            prev = e
        assert prev > 3.0  # log divergence: ~ delta * log(1/eps)

    def test_additivity_with_cross_term(self, rng):
        for _ in range(20):
            u = random_grid_step(rng, 0.25, n_range=(4, 9))
            params = EnergyParams(0.25, float(rng.choice([1.0, 2.0])))
            edges, vals = step_cells(u, u.support)
            cut = edges[len(edges) // 2]
            whole = step_energy(u, u.support, params)
            left = step_energy(u, Interval(edges[0], cut), params)
            right = step_energy(u, Interval(cut, edges[-1]), params)
            le, lv = step_cells(u, Interval(edges[0], cut))
            re, rv = step_cells(u, Interval(cut, edges[-1]))
            cross = 0.0
            for i in range(len(lv)):
                for j in range(len(rv)):
                    if abs(rv[j] - lv[i]) > params.threshold:
                        cross += 2.0 * pair_cell_energy(
                            Interval(le[i], le[i + 1]),
                            Interval(re[j], re[j + 1]), params)
            if math.isinf(whole):
                assert math.isinf(left) or math.isinf(right) or math.isinf(cross)
            else:
                assert math.isclose(whole, left + right + cross,
                                    rel_tol=1e-10, abs_tol=1e-14)


@st.composite
def engine_cases(draw):
    """A step function and parameters for the pair-sum engine.

    At p = 1 the widths are log-uniform in [1e-6, 1], so thin cells lie
    far from wide ones: the range sum adds one positive bounded term per
    row and run, which keeps 1e-13 relative there.  At p > 1 the widths
    share one scale drawn from [1e-6, 1] and vary within a factor 8 of it,
    since the four-term closed form of the pair energy cancels on thin
    cells far apart (ROADMAP item 3), in the engine and in the oracle
    alike; this test does not measure that.
    """
    n = draw(st.integers(1, 12))
    delta = 0.25
    p = draw(st.sampled_from([1.0, 1.5, 2.0]))
    scale = 10.0 ** draw(st.floats(-6.0, 0.0))
    if p == 1.0:
        widths = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=n, max_size=n)))
    else:
        widths = scale * np.array(draw(st.lists(st.floats(0.125, 1.0), min_size=n, max_size=n)))
    origin = draw(st.floats(-2.0, 2.0))
    bp = scale * origin + np.concatenate([[0.0], np.cumsum(widths)])
    grid = draw(st.booleans())
    if grid:  # delta-grid values, jumps of up to one level
        jumps = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    else:  # off-grid values, adjacent jumps below delta
        jumps = draw(st.lists(st.floats(-0.99, 0.99), min_size=n, max_size=n))
    levels = draw(st.integers(-2, 2)) + np.cumsum(jumps)
    tail = draw(st.sampled_from(list(TailMode)))
    u = StepFunction1D(tuple(bp), tuple(levels * delta), tail)
    params = EnergyParams(delta, p)
    domain = u.domain
    if tail is TailMode.COMPACT_SUPPORT:
        # the full line, or a half-line cut at a breakpoint, a cell's
        # midpoint or one scale outside the support: one zero tail only
        cuts = np.concatenate((bp, 0.5 * (bp[:-1] + bp[1:]), [bp[0] - scale, bp[-1] + scale]))
        a = draw(st.sampled_from(cuts.tolist()))
        domain = draw(st.sampled_from([domain, Interval(-math.inf, a), Interval(a, math.inf)]))
    return u, params, levels if grid else None, domain


def spread_walk(rng):
    """Edges and integer levels of a walk of 5 to 40 cells with steps of
    -1, 0 and 1 and widths log-uniform in [1e-6, 1]."""
    n = int(rng.integers(5, 41))
    edges = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-6.0, 0.0, n))))
    return edges, np.cumsum(rng.integers(-1, 2, n)).astype(float)


class TestPairSumEngine:
    @pytest.mark.parametrize("chunk", [1, 7, functional1d._SBP_CHUNK])
    @given(case=engine_cases())
    def test_matches_pairwise_sum(self, chunk, case):
        # chunk sizes 1 and 7 put group seams between every few rows
        u, params, levels, domain = case
        tol = 1e-13 if params.p == 1.0 else 1e-12
        with mock.patch.object(functional1d, "_SBP_CHUNK", chunk):
            got = step_energy(u, domain, params)
            expected = pairwise_energy(
                u, domain, lambda a, b: abs(b - a) > params.threshold, params)
            assert math.isclose(got, expected, rel_tol=tol)  # inf == inf too
            if levels is None:
                return  # off the grid: no hostility
            for k in (1, 2, 3):
                got = step_hostility(u, u.support, k, params)
                expected = pairwise_energy(
                    u, u.support, lambda a, b: abs(b - a) >= k + 1, params, levels)
                assert math.isclose(got, expected, rel_tol=tol)

    def test_spread_walks_match_mpmath_at_p1(self):
        # 150 walks whose cell widths span six decades, at p = 1, against a
        # 50-digit sum over every interacting ordered pair of the same
        # float edges: within 1e-15 relative
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(41)
        params = EnergyParams(0.25, 1.0)
        worst = 0.0
        for _ in range(150):
            edges, x = spread_walk(rng)
            got = _pair_sum(edges, x, 1, params)
            with mp.workdps(50):
                e = [mp.mpf(float(v)) for v in edges]
                want = 2 * mp.mpf(params.delta) * mp.fsum(
                    mp.log((e[j] - e[i]) * (e[j + 1] - e[i + 1])
                           / ((e[j] - e[i + 1]) * (e[j + 1] - e[i])))
                    for i in range(len(x)) for j in range(i + 2, len(x)) if abs(x[j] - x[i]) > 1)
            if want:
                worst = max(worst, float(abs(got - want) / want))
            else:
                assert got == 0.0
        assert worst <= 1e-15

    def test_difference_within_an_ulp_of_threshold(self):
        # cells 0 and 2 at labels whose float difference straddles thr
        # within an ulp; only abs(d) > thr decides, however d rounds
        params = EnergyParams(0.3, 1.5)
        thr = params.threshold
        pair = 2.0 * pair_cell_energy(Interval(0.0, 1.0), Interval(2.0, 3.0), params)
        base = 0.7
        t = base + thr
        for _ in range(3):
            t = np.nextafter(t, -np.inf)
        seen = set()
        for _ in range(7):
            interacts = bool(abs(t - base) > thr)
            seen.add(interacts)
            u = StepFunction1D((0.0, 1.0, 2.0, 3.0), (base, 0.5 * (base + t), t),
                               TailMode.DOMAIN_ONLY)
            got = step_energy(u, u.support, params)
            if interacts:
                assert math.isclose(got, pair, rel_tol=1e-12)
            else:
                assert got == 0.0
            t = np.nextafter(t, np.inf)
        assert seen == {False, True}

    def test_bands_are_exact_at_float_boundaries(self):
        # labels one ulp around y -+ r, where searchsorted at the rounded
        # y -+ r may be off and the fix-up must place the boundary
        rng = np.random.default_rng(7)
        # across zero, at large magnitudes, and with r below half an ulp of y
        for y0, r in ((1000.0, 0.1), (1.0, 1.0), (-3.7, 0.3 * (1 + 1e-12)), (0.0, 1e-300),
                      (3.3e5, 1e-6 * (1 + 1e-12)), (-2.5e-8, 1e-6 * (1 + 1e-12)),
                      (1e-300, 7e-9), (5e15, 0.1)):
            near = []
            for v in (y0 - r, y0 + r, y0):
                for _ in range(4):
                    v = np.nextafter(v, -np.inf)
                for _ in range(9):
                    near.append(v)
                    v = np.nextafter(v, np.inf)
            x = rng.permutation(np.repeat(near, 2))  # ties too
            s = np.sort(x, kind="stable")
            lo, hi = _bands(s, x, r)
            inside = np.abs(s[None, :] - x[:, None]) <= r
            k = np.arange(len(s))
            assert np.array_equal(inside, (k >= lo[:, None]) & (k < hi[:, None]))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_half_line_energies_without_out_keep_the_gap(self, p):
        # the one tail form leaves an array gap as it was and keeps its
        # shape; numbers stay numbers, whose powers are Python's
        rng = np.random.default_rng(3)
        params = EnergyParams(0.3, p)
        for gap, len1 in ((rng.uniform(1e-3, 5.0, 500), rng.uniform(1e-3, 5.0, 500)),
                          (np.array(0.7), np.array(0.1)), (np.array(1e-6), 0.1)):
            before = gap.copy()
            got = functional1d._pair_energies(gap, len1, math.inf, params)
            assert gap.tobytes() == before.tobytes()
            assert np.shape(got) == gap.shape
        coef, q = functional1d._pair_coef(params), 1.0 - p
        for gap, len1 in ((0.7, 0.1), (1e-6, 0.1), (0.3, 1000.0), (2.5, 0.3)):
            got = functional1d._pair_energies(gap, len1, math.inf, params)
            want = coef * (float(np.log1p(len1 / gap)) if p == 1.0 else
                           max(gap ** q - (gap + len1) ** q, 0.0))
            assert float(got).hex() == want.hex()


def grid_steps(rng, n_funcs, delta):
    """Random delta-grid step functions of 1 to 40 cells, compact or
    domain-only, jumps of up to one level; cells of 1 and 2 often."""
    out = []
    for _ in range(n_funcs):
        n = int(rng.choice([1, 2, 3, 8, 40]))
        bp = np.cumsum(rng.uniform(0.05, 1.0, n + 1))
        levels = np.cumsum(rng.integers(-1, 2, n)) + int(rng.integers(-2, 3))
        tail = TailMode.COMPACT_SUPPORT if rng.random() < 0.5 else TailMode.DOMAIN_ONLY
        out.append(StepFunction1D(tuple(bp), tuple(levels * delta), tail))
    return out


def batch_of(steps, delta):
    """The cells of ``steps`` laid end to end, with integer levels."""
    cells = [step_cells(u, u.domain) for u in steps]
    return (np.concatenate([e for e, _ in cells]) if cells else np.zeros(0),
            np.concatenate([np.rint(v / delta) for _, v in cells]) if cells else np.zeros(0),
            [len(v) for _, v in cells])


def labelled_cells(rng, k):
    """Edges and integer labels of 1 to 40 cells: a walk of steps -1, 0
    and 1, a staircase that mostly stays on its level, or one of distinct
    labels, at times between zero tails and at times with a jump of k + 1."""
    n = int(rng.integers(1, 41))
    kind = int(rng.integers(3))
    if kind == 0:
        x = np.cumsum(rng.integers(-1, 2, n))
    elif kind == 1:
        x = np.cumsum(rng.choice([-1, 0, 0, 0, 0, 0, 0, 1], n))
    else:
        x = np.cumsum(rng.integers(1, k + 1, n)) * int(rng.choice([-1, 1]))
    edges = np.cumsum(rng.uniform(0.05, 1.0, n + 1))
    if rng.random() < 0.1:
        x[int(rng.integers(n))] += k + 1
    if rng.random() < 0.3:
        edges, x = np.append(-math.inf, edges), np.append(0, x)
    if rng.random() < 0.3:
        edges, x = np.append(edges, math.inf), np.append(x, 0)
    return edges, x.astype(float)


def ordered_pair_sum(edges, x, radius, params):
    """The energy of one function's cells by a loop over every ordered pair."""
    cells = [Interval(float(a), float(b)) for a, b in zip(edges, edges[1:])]
    return math.fsum(pair_cell_energy(ci, cj, params)
                     for i, ci in enumerate(cells) for j, cj in enumerate(cells)
                     if i != j and abs(x[i] - x[j]) > radius)


def assert_sum_matches(got, want):
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBatchedPairSum:
    def test_matches_one_function_sums(self):
        # a block's line energies against each function's own step energy,
        # and its hostility bit for bit against the level sum of its levels
        # alone, and within 1e-15 against their pair sum
        rng = np.random.default_rng(11)
        delta = 0.1
        for trial in range(40):
            steps = grid_steps(rng, int(rng.integers(1, 9)), delta)
            params = EnergyParams(delta, float(rng.choice([1.0, 1.5, 2.0])))
            edges, levels, counts = batch_of(steps, delta)
            want = [step_energy(u, u.domain, params) for u in steps]
            assert _unimodal_sums(edges, levels, counts, params).tolist() == \
                pytest.approx(want, rel=1e-15, abs=0.0)
            for u in steps:
                if u.tail_mode is TailMode.DOMAIN_ONLY:  # hostility needs a bounded domain
                    e, x, _ = batch_of([u], delta)
                    for k in (1, 2):
                        got = step_hostility(u, u.domain, k, params)
                        assert got.hex() == _level_sum(e, x, k, params).hex()
                        assert got == pytest.approx(_pair_sum(e, x, k, params), rel=1e-15, abs=0.0)

    def test_only_the_divergent_function_is_inf(self):
        delta = 0.1
        steps = [StepFunction1D((0.0, 1.0, 2.0, 3.0), (0.1, 0.2, 0.1)),
                 StepFunction1D((0.0, 1.0, 2.0), (0.1, 0.4)),       # jump of 3 levels
                 StepFunction1D((0.0, 1.0, 2.0, 3.5), (0.0, 0.1, 0.2), TailMode.DOMAIN_ONLY)]
        got = _unimodal_sums(*batch_of(steps, delta), EnergyParams(delta, 1.0))
        assert got[1] == math.inf
        for i in (0, 2):
            assert 0.0 < got[i] < math.inf
            assert got[i] == pytest.approx(step_energy(steps[i], steps[i].domain,
                                                       EnergyParams(delta, 1.0)), rel=1e-15)

    def test_empty_batch(self):
        got = _unimodal_sums(np.zeros(0), np.zeros(0), [], EnergyParams(0.1, 1.0))
        assert got.shape == (0,)

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 8), at=st.integers(0, 8),
           p=st.sampled_from([1.0, 1.5, 2.0]))
    def test_energy_does_not_depend_on_batch_neighbours(self, seed, size, at, p):
        # a block's line against the same line alone, bit for bit, with
        # chunk sizes 1 and 7 in the pair sum of the lines that are not
        # unimodal; a divergent line (a jump of 2 levels) is inf in the block
        delta = 0.25
        rng = np.random.default_rng(seed)
        steps = grid_steps(rng, size, delta)
        bad = int(rng.integers(size + 1))
        steps.insert(bad, StepFunction1D((0.0, 1.0, 2.0, 3.0), (0.0, 2 * delta, 2 * delta)))
        params = EnergyParams(delta, p)
        at %= size + 1
        for chunk in (1, 7, functional1d._SBP_CHUNK):
            with mock.patch.object(functional1d, "_SBP_CHUNK", chunk):
                batch = _unimodal_sums(*batch_of(steps, delta), params)
                alone = _unimodal_sums(*batch_of(steps[at:at + 1], delta), params)
            assert batch[bad] == math.inf
            assert batch[at].hex() == alone[0].hex()

    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([1.0, 1.5, 2.0]),
           k=st.integers(1, 3), chunk=st.sampled_from([1, 7, functional1d._SBP_CHUNK]))
    def test_matches_brute_force_ordered_pairs(self, seed, p, k, chunk):
        # walks and few-level staircases repeat their labels in long runs,
        # staircases of distinct labels have none, and zero tails join the
        # runs of level 0; integer labels, then off-grid float labels, one
        # function at a time, then a sawtooth
        rng = np.random.default_rng(seed)
        params = EnergyParams(0.1, p)
        with mock.patch.object(functional1d, "_SBP_CHUNK", chunk):
            for _ in range(int(rng.integers(1, 6))):
                edges, x = labelled_cells(rng, k)
                assert_sum_matches(_pair_sum(edges, x, k, params),
                                   ordered_pair_sum(edges, x, k, params))
            radius = 0.1 * k * (1.0 + 1e-12)
            for _ in range(2):
                edges, x = labelled_cells(rng, k)
                x = np.cumsum(rng.uniform(-radius, radius, len(x)))  # all distinct
                assert_sum_matches(_pair_sum(edges, x, radius, params),
                                   ordered_pair_sum(edges, x, radius, params))
            # a sawtooth 0, k, 2k, k, 0, ...: a row on level 0 meets each top
            # cell as a run of its own, more runs than a group of 1 or 7
            # terms holds; alone, and after a left zero tail
            x = k * (2.0 - np.abs(np.arange(41) % 4 - 2))
            edges = np.cumsum(rng.uniform(0.05, 1.0, 42))
            for edges in (edges, np.append(-math.inf, edges[1:])):
                assert_sum_matches(_pair_sum(edges, x, k, params),
                                   ordered_pair_sum(edges, x, k, params))

    # the float bits of the walk's energies under each numpy dispatch (for
    # the range sum's terms the two agree)
    WALK_PINS = {
        "X86_V4": ["0x1.55da200c70c9dp+4", "0x1.fe2fd9b23ccd5p+2",
                   "0x1.326384dbbe480p+8", "0x1.5c2428e1b31d0p+5"],
        "pre-X86_V4": ["0x1.55da200c70c9dp+4", "0x1.fe2fd9b23ccd5p+2",
                       "0x1.326384dbbe480p+8", "0x1.5c2428e1b31d0p+5"],
    }

    def test_walk_energies_are_pinned(self):
        # a 4000-cell walk shaped like the benchmark's, whose rows meet
        # many runs of interacting cells, with the pins of the dispatch in use
        rng = np.random.default_rng(19)
        edges = np.concatenate(([0], np.cumsum(rng.integers(64, 449, 4000)))) * 2.0 ** -20
        u = StepFunction1D(edges, np.cumsum(rng.integers(-1, 2, 4000)) * 0.01,
                           TailMode.DOMAIN_ONLY)
        got = [f(EnergyParams(0.01, p)).hex() for p in (1.0, 2.0)
               for f in (lambda q: step_energy(u, u.domain, q),
                         lambda q: step_hostility(u, u.domain, 2, q))]
        dispatch = numpy_dispatch()
        assert got == self.WALK_PINS[dispatch], f"as pinned under numpy's {dispatch} dispatch"

    def test_walk_energies_under_the_baseline_dispatch(self):
        run_under_baseline_dispatch("from test_functional1d import TestBatchedPairSum; "
                                    "TestBatchedPairSum().test_walk_energies_are_pinned()")

    @pytest.mark.parametrize("case, radius, per_cell", [
        ("ramp", 1, 76), ("tent", 1, 84), ("walk", 1, 56), ("walk", 2, 56)],
        ids=["ramp", "tent", "walk-r1", "walk-r2"])
    def test_integer_level_scratch_memory(self, case, radius, per_cell):
        # the segmented ramp (10^5 cells) and tent (2 * 10^5) at delta = 1e-5
        # on integer levels, and a 10^5-cell walk shaped like the benchmark's,
        # whose rows meet many runs: the traced peak of the pair sum stays
        # within per_cell bytes per cell (64.1, 64.0, 53.3 and 53.3 measured
        # with numpy 2.4; the walks' bounds are 53.3 plus 5%)
        if case == "walk":
            delta, rng = 0.01, np.random.default_rng(19)
            edges = np.concatenate(([0], np.cumsum(rng.integers(64, 449, 10 ** 5)))) * 2.0 ** -20
            levels = np.cumsum(rng.integers(-1, 2, 10 ** 5)).astype(float)
        else:
            delta = 1e-5
            shape = {"ramp": PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False),
                     "tent": PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))}[case]
            u = vertical_segmentation(shape, delta)
            edges, vals = step_cells(u, u.domain)
            levels = np.rint(vals / delta)
        tracemalloc.start()
        try:
            energy = _pair_sum(edges, levels, radius, EnergyParams(delta, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < energy < math.inf
        assert peak <= per_cell * len(levels)

    def test_off_grid_walk_scratch_memory(self):
        # a 3 * 10^4-cell walk of distinct off-grid values, whose band ends
        # sweep about 290 labels a cell: the pair sum takes its labels in
        # blocks of about 2 n events, so its traced peak stays within 93
        # bytes a cell (88.2 measured with numpy 2.4, plus 5%), against
        # 5784 with every event at once
        n, rng = 3 * 10 ** 4, np.random.default_rng(1)
        edges = np.cumsum(rng.uniform(0.05, 1.0, n + 1))
        x = np.cumsum(rng.uniform(-0.099, 0.099, n))
        tracemalloc.start()
        try:
            energy = _pair_sum(edges, x, 0.1 * (1.0 + 1e-12), EnergyParams(0.1, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < energy < math.inf
        assert peak <= 93 * n

    def test_segment_sums_round_like_numpy(self):
        # numpy's pairwise sum changes its grouping at lengths 8, 128 and up
        def check(v, counts):
            counts = np.asarray(counts, dtype=np.intp)
            starts = np.cumsum(counts) - counts
            want = np.array([np.sum(v[a:a + c]) for a, c in zip(starts, counts)])
            # bit patterns, so that the sign of a zero counts too
            assert _segment_sums(v, counts).view(np.int64).tolist() == \
                want.view(np.int64).tolist()

        rng = np.random.default_rng(5)
        for _ in range(30):
            counts = rng.choice([0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300],
                                size=int(rng.integers(1, 20)))
            check(rng.normal(size=counts.sum()) * 10.0 ** rng.uniform(-8, 8, counts.sum()),
                  counts)
        check(np.zeros(0), [0, 0, 0])  # every segment empty
        for n in (0, 1, 9, 300, 8191, 8192, 8193, 16383, 16384, 16385):
            check(rng.normal(size=n), [n])  # one segment: a lone function's piece
        check(rng.normal(size=42), [0, 0, 8, 17, 0, 17, 0, 0])  # empty at both ends
        counts = [8191, 8192, 8193, 16383, 16384, 16385, 3]
        check(rng.normal(size=sum(counts)) * 10.0 ** rng.uniform(-8, 8, sum(counts)), counts)
        check(np.full(4, -0.0), [1, 1, 0, 1, 1])  # segments of a single -0.0
        check(np.array([-0.0, -0.0, 1.0, -0.0]), [2, 2])


def unimodal_cells(rng):
    """Edges and integer levels T - |k - m| of a unimodal line of 1 to 17
    cells of widths 0.05 to 1; half of them between zero tails, from level 0
    up to their top and back."""
    if rng.random() < 0.5:
        rise = fall = top = int(rng.integers(0, 8))
    else:
        rise, fall, top = (int(v) for v in rng.integers([0, 0, -3], [9, 9, 9]))
    x = top - np.abs(np.arange(rise + fall + 1) - rise)
    edges = np.cumsum(rng.uniform(0.05, 1.0, len(x) + 1))
    if rise == fall == top:
        edges[[0, -1]] = -math.inf, math.inf
    return edges, x.astype(float)


def block_of(lines):
    """The edges, levels and counts of ``lines`` laid end to end."""
    return (np.concatenate([e for e, _ in lines]), np.concatenate([x for _, x in lines]),
            [len(x) for _, x in lines])


class TestUnimodalSums:
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([1.0, 1.5, 2.0]))
    def test_matches_brute_force_ordered_pairs(self, seed, p):
        # one to four unimodal lines in a block, with and without zero
        # tails, none of them through the pair sum
        rng = np.random.default_rng(seed)
        params = EnergyParams(0.1, p)
        lines = [unimodal_cells(rng) for _ in range(int(rng.integers(1, 5)))]
        with mock.patch.object(functional1d, "_pair_sum", side_effect=AssertionError("fell back")):
            got = _unimodal_sums(*block_of(lines), params)
        for (edges, x), g in zip(lines, got):
            assert_sum_matches(g, ordered_pair_sum(edges, x, 1, params))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_other_lines_take_the_pair_sum(self, p):
        # a valley between zero tails, a plateau and a jump among unimodal
        # lines in one block: those three, and only they, take the pair sum
        # of their cells alone, bit for bit, and the jump is inf
        rng = np.random.default_rng(3)
        params = EnergyParams(0.1, p)
        planted = {1: [0, 1, 0, 1, 0], 3: [2, 3, 3, 2, 1], 4: [0, 1, 3, 2]}
        lines = []
        for j in range(6):
            edges, x = unimodal_cells(rng)
            if j in planted:
                x = np.array(planted[j], dtype=float)
                edges = np.cumsum(rng.uniform(0.05, 1.0, len(x) + 1))
            lines.append((edges, x))
        lines[1][0][[0, -1]] = -math.inf, math.inf
        calls = []

        def pair_sum(edges, x, radius, params):
            calls.append(x.tolist())
            return _pair_sum(edges, x, radius, params)

        with mock.patch.object(functional1d, "_pair_sum", pair_sum):
            got = _unimodal_sums(*block_of(lines), params)
        assert calls == [planted[j] for j in sorted(planted)]
        assert got[4] == math.inf
        for j, ((edges, x), g) in enumerate(zip(lines, got)):
            if j in planted:
                assert g.hex() == _pair_sum(edges, x, 1, params).hex()
            else:
                assert_sum_matches(g, ordered_pair_sum(edges, x, 1, params))


def exact_grid_step(rng):
    """A step of 1 to 30 cells on exact grid values: a unimodal line (between
    zero tails, from level 1 up and back), a walk, or a staircase that
    mostly stays on its level; compact or domain-only."""
    delta = float(rng.choice([0.1, 0.25, 1 / 3, 0.07, 1e-3]))
    compact = bool(rng.random() < 0.5)
    kind, n = int(rng.integers(3)), int(rng.integers(1, 31))
    if kind == 0:
        m = n // 2 if compact else int(rng.integers(n))
        n, top = (2 * m + 1, m + 1) if compact else (n, int(rng.integers(-3, 9)))
        levels = top - np.abs(np.arange(n) - m)
    else:
        steps = [-1, 0, 1] if kind == 1 else [-1, 0, 0, 0, 0, 1]
        levels = np.cumsum(rng.choice(steps, n)) + int(rng.integers(-2, 3))
    bp = np.cumsum(rng.uniform(0.05, 1.0, n + 1))
    tail = TailMode.COMPACT_SUPPORT if compact else TailMode.DOMAIN_ONLY
    return StepFunction1D(bp, levels * delta, tail), delta


def nudged(u, j, v):
    """``u`` with its value j replaced by v."""
    values = u.values.copy()
    values[j] = v
    return StepFunction1D(u.breakpoints, values, u.tail_mode)


def is_unimodal(x):
    """Whether every label k of ``x`` lies on x[m] - |k - m| for its maximum m."""
    m = int(np.argmax(x))
    return np.array_equal(x, x[m] - np.abs(np.arange(len(x)) - m))


class TestGridLevelSum:
    def check(self, u, delta, p):
        # against the float pair sum of the same cells.  A value nudged one
        # ulp off its level stays on it within the guard, and the step keeps
        # its bits; the top value nudged down by 1e-11 of max(|v|, delta)
        # is off the grid and takes the float sum alone, bit for bit
        params = EnergyParams(delta, p)
        edges, vals = step_cells(u, u.domain)
        want = _pair_sum(edges, vals, params.threshold, params)
        with mock.patch.object(functional1d, "_level_sum", wraps=_level_sum) as level_sum:
            got = step_energy(u, u.domain, params)
        assert math.isinf(got) == math.isinf(want)
        assert level_sum.call_count == (not math.isinf(want))
        if not is_unimodal(np.rint(vals / delta)):
            assert got.hex() == want.hex()
        if not math.isinf(want):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            if len(vals) <= 12:
                assert got == pytest.approx(pairwise_energy(
                    u, u.domain, lambda a, b: abs(a - b) > params.threshold, params),
                    rel=1e-13, abs=0.0)
        j = int(np.flatnonzero(u.values)[-1]) if np.any(u.values) else 0
        w = nudged(u, j, np.nextafter(u.values[j], math.inf))
        assert step_energy(w, w.domain, params).hex() == got.hex()
        j = int(np.argmax(u.values))
        w = nudged(u, j, u.values[j] - 1e-11 * max(abs(u.values[j]), delta))
        with mock.patch.object(functional1d, "_level_sum", side_effect=AssertionError("levels")):
            got = step_energy(w, w.domain, params)
        assert got.hex() == _pair_sum(*step_cells(w, w.domain), params.threshold, params).hex()

    def test_values_within_the_guard_match_step_hostility(self):
        # 0.3 is not fl(3 * 0.1) but lies within the guard of level 3:
        # step_energy takes the level sum of step_hostility(k=1), bit for bit
        u = StepFunction1D(np.arange(6.0), (0.1, 0.2, 0.3, 0.2, 0.1), TailMode.DOMAIN_ONLY)
        assert 0.3 != 3 * 0.1
        for p in (1.0, 1.5, 2.0):
            params = EnergyParams(0.1, p)
            assert step_energy(u, u.domain, params).hex() \
                == step_hostility(u, u.domain, 1, params).hex()

    def test_random_steps_match_the_float_sum(self):
        rng = np.random.default_rng(33)
        unimodal = 0
        for _ in range(150):
            u, delta = exact_grid_step(rng)
            unimodal += is_unimodal(np.rint(step_cells(u, u.domain)[1] / delta))
            for p in (1.0, 1.5, 2.0):
                self.check(u, delta, p)
        assert unimodal >= 40

    @pytest.mark.parametrize("shape", ["tent", "ramp"])
    def test_segmented_shapes_match_the_float_sum(self, shape):
        # the recovery families down to delta = 1e-5; from 6.25e-5 on, the
        # adjacent-jump test of the float values reads inf (ROADMAP item 1)
        u = {"tent": PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))),
             "ramp": PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False)}[shape]
        for delta in (1e-2, 1.5625e-4, 1e-4, 6.25e-5, 1e-5):
            s = vertical_segmentation(u, delta)
            for p in (1.0, 1.5, 2.0):
                self.check(s, delta, p)

    def test_levels_past_2_to_the_49_take_the_float_sum(self):
        # a unimodal line whose levels reach 2**49 in magnitude takes the
        # float sum, bit for bit; one just inside takes the level sum
        delta = 2.0 ** -10
        edges = np.cumsum(np.random.default_rng(2).uniform(0.05, 1.0, 22))
        rise = 10 - np.abs(np.arange(21) - 10)
        for base, inside in ((2 ** 49 - 11, True), (2 ** 49 - 10, False),
                             (-2 ** 49 + 1, True), (-2 ** 49, False)):
            u = StepFunction1D(edges, (base + rise) * delta, TailMode.DOMAIN_ONLY)
            params = EnergyParams(delta, 1.0)
            want = _pair_sum(edges, u.values, params.threshold, params)
            with mock.patch.object(functional1d, "_level_sum", wraps=_level_sum) as level_sum:
                got = step_energy(u, u.domain, params)
            assert level_sum.called == inside
            assert 0.0 < got == pytest.approx(want, rel=1e-13)
            if not inside:
                assert got.hex() == want.hex()

    def test_grid_walk_scratch_memory(self):
        # a 10^5-cell walk on exact grid values, shaped like the benchmark's:
        # step_energy's traced peak, its integer levels included, stays
        # within 65 bytes a cell (61.3 measured with numpy 2.4, plus 5%)
        rng = np.random.default_rng(19)
        edges = np.concatenate(([0], np.cumsum(rng.integers(64, 449, 10 ** 5)))) * 2.0 ** -20
        u = StepFunction1D(edges, np.cumsum(rng.integers(-1, 2, 10 ** 5)) * 0.01,
                           TailMode.DOMAIN_ONLY)
        tracemalloc.start()
        try:
            energy = step_energy(u, u.domain, EnergyParams(0.01, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < energy < math.inf
        assert peak <= 65 * len(u.values)


def flat_walk(rng, n):
    """Integer levels of a walk of n steps of -1, 0 and +1 from level 0,
    one of them flat at least, then back to level 0 one level a step, and
    a last flat step: zero cells at both ends, and never unimodal."""
    steps = rng.integers(-1, 2, n)
    steps[rng.integers(n)] = 0
    walk = np.cumsum(np.append(0, steps))
    s = int(np.sign(walk[-1]))
    back = np.arange(walk[-1] - s, -s, -s) if s else np.zeros(0, dtype=walk.dtype)
    return np.concatenate((walk, back, [0]))


def split_cells(rng, u, times):
    """``u`` with ``times`` breakpoints inserted inside its cells, each new
    cell keeping the value of the cell it was cut from."""
    bp, vals = list(u.breakpoints), list(u.values)
    for _ in range(times):
        j = int(rng.integers(len(vals)))
        cut = bp[j] + (bp[j + 1] - bp[j]) * rng.uniform(0.2, 0.8)
        if bp[j] < cut < bp[j + 1]:
            bp.insert(j + 1, cut)
            vals.insert(j, vals[j])
    return StepFunction1D(tuple(bp), tuple(vals), u.tail_mode)


def merged_runs(u):
    """``u`` with each run of equal adjacent values joined into one cell."""
    keep = np.append(True, u.values[1:] != u.values[:-1])
    return StepFunction1D(u.breakpoints[np.append(keep, True)], u.values[keep], u.tail_mode)


def walk_step(rng, n, delta, tail):
    """A flat walk of ``n`` steps (:func:`flat_walk`) as a step function on
    random cells, and a bounded domain for it: its support, with a zero
    cell on each side where it is compact."""
    levels = flat_walk(rng, n)
    bp = np.cumsum(rng.uniform(0.05, 1.0, len(levels) + 1))
    u = StepFunction1D(bp, levels * delta, tail)
    pad = 1.0 if tail is TailMode.COMPACT_SUPPORT else 0.0
    return u, Interval(bp[0] - pad, bp[-1] + pad)


class TestMaximalRuns:
    # the pair sum makes each maximal run of equal adjacent labels one cell
    TAILS = [TailMode.DOMAIN_ONLY, TailMode.COMPACT_SUPPORT]

    @pytest.mark.parametrize("tail", TAILS, ids=["domain_only", "compact"])
    def test_split_cells_keep_their_bits(self, tail):
        # cutting cells in two, values kept, moves no bit of the energy (on
        # the step's own domain: zero tails out to -inf and +inf where it is
        # compact) nor of the hostility at k = 1 and 2 (on a bounded domain
        # with a zero cell beside each end of a compact step); the walks
        # start and end on zero cells, which join the tails
        rng = np.random.default_rng(39)
        delta = 0.1
        for _ in range(60):
            u, domain = walk_step(rng, int(rng.integers(1, 40)), delta, tail)
            w = split_cells(rng, u, int(rng.integers(1, 2 * len(u.values))))
            assert len(w.values) > len(u.values)
            for p in (1.0, 1.5, 2.0):
                params = EnergyParams(delta, p)
                want = step_energy(u, u.domain, params)
                assert step_energy(w, w.domain, params).hex() == want.hex()
                for k in (1, 2):
                    assert step_hostility(w, domain, k, params).hex() \
                        == step_hostility(u, domain, k, params).hex()

    @pytest.mark.parametrize("tail", TAILS, ids=["domain_only", "compact"])
    def test_split_off_grid_cells_keep_their_bits(self, tail):
        # off-grid values, some runs of them equal, take the float pair sum
        rng = np.random.default_rng(391)
        delta = 0.1
        for _ in range(60):
            n = int(rng.integers(2, 40))
            rise = rng.uniform(-delta, delta, n) * (rng.random(n) < 0.7)
            vals = np.cumsum(rise) + 0.0123
            u = StepFunction1D(np.cumsum(rng.uniform(0.05, 1.0, n + 1)), vals, tail)
            w = split_cells(rng, u, int(rng.integers(1, 2 * n)))
            for p in (1.0, 1.5, 2.0):
                params = EnergyParams(delta, p)
                with mock.patch.object(functional1d, "_level_sum",
                                       side_effect=AssertionError("levels")):
                    want = step_energy(u, u.domain, params)
                    assert step_energy(w, w.domain, params).hex() == want.hex()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_energy_is_hostility_at_k_1_on_flat_walks(self, p):
        rng = np.random.default_rng(392)
        params = EnergyParams(0.25, p)
        for _ in range(40):
            u, _ = walk_step(rng, int(rng.integers(1, 200)), 0.25, TailMode.DOMAIN_ONLY)
            assert step_energy(u, u.domain, params).hex() \
                == step_hostility(u, u.domain, 1, params).hex()

    def test_split_step_evaluates_the_rows_of_its_merged_form(self):
        # a work guard: the (row, run) terms the pair sum evaluates for a
        # 2000-cell walk with flat steps, cut further, are those of the
        # same walk with its runs joined
        rng = np.random.default_rng(393)
        u, _ = walk_step(rng, 2000, 0.01, TailMode.DOMAIN_ONLY)
        w = split_cells(rng, u, 1000)
        runs = merged_runs(w)
        assert not np.any(runs.values[1:] == runs.values[:-1])
        assert len(runs.values) < 0.8 * len(u.values) < len(w.values)

        def rows(v):
            with mock.patch.object(functional1d, "_pair_energies",
                                   wraps=functional1d._pair_energies) as energies:
                got = step_energy(v, v.domain, EnergyParams(0.01, 1.0))
            return got, sum(np.size(c.args[0]) for c in energies.call_args_list)

        (e_split, n_split), (e_runs, n_runs) = rows(w), rows(runs)
        assert n_runs > 0 and n_split == n_runs
        assert e_split.hex() == e_runs.hex()


class TestEnergyQuadrature:
    def test_linear_exact_value_p1(self):
        # |y-x| > 1/2 on the unit square: 2*delta*(1 - log 2)
        got = energy_quadrature(lambda x: x, 1.0, UNIT, EnergyParams(0.5, 1.0), 1e-4)
        assert math.isclose(got, 2.0 * 0.5 * (1.0 - math.log(2.0)), abs_tol=1e-4)

    def test_linear_exact_value_p2(self):
        # closed form (1 - delta)^2 for the linear ramp
        got = energy_quadrature(lambda x: x, 1.0, UNIT, EnergyParams(0.1, 2.0), 1e-4)
        assert math.isclose(got, 0.81, abs_tol=2e-4)

    def test_constant_is_zero(self):
        got = energy_quadrature(lambda x: 0.0 * x, 1.0, UNIT,
                                EnergyParams(0.1, 2.0), 1e-6)
        assert got == 0.0

    def test_unbounded_domain_rejected(self):
        with pytest.raises(DomainMismatch):
            energy_quadrature(lambda x: x, 1.0, FULL_LINE, P1, 1e-3)


class TestLocalEnergy:
    def test_tent(self):
        tent = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        assert local_energy(tent, 2.0) == 2.0
        assert local_energy(tent, 1.0) == 2.0

    def test_step_total_variation(self):
        u = StepFunction1D((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0))
        assert local_energy(u, 1.0) == 2.0
        dom = StepFunction1D((0.0, 1.0, 2.0), (1.0, 3.0), TailMode.DOMAIN_ONLY)
        assert local_energy(dom, 1.0) == 2.0

    def test_compact_support_boundary_jumps_count(self):
        u = StepFunction1D((0.0, 1.0), (2.0,), TailMode.COMPACT_SUPPORT)
        assert local_energy(u, 1.0) == 4.0

    def test_step_p_above_one(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.0, 1.0), TailMode.DOMAIN_ONLY)
        with pytest.raises(UnsupportedCombination):
            local_energy(u, 2.0)
        assert local_energy(u, 2.0, extended=True) == math.inf


class TestExponentMustBeFinite:
    def test_energy_params(self):
        with pytest.raises(ValueError, match="p must be finite"):
            EnergyParams(0.25, math.inf)

    def test_local_energy(self):
        tent = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        with pytest.raises(ValueError, match="p must be finite"):
            local_energy(tent, math.inf)


class TestPointwiseHostility:
    def test_constant_zero(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.3, 0.3), TailMode.DOMAIN_ONLY)
        assert pointwise_hostility(u, 0.7, P1) == 0.0

    def test_two_cell_example(self):
        delta = 0.4
        u = StepFunction1D((0.0, 1.0, 2.0), (0.0, 2 * delta), TailMode.DOMAIN_ONLY)
        got = pointwise_hostility(u, 0.5, EnergyParams(delta, 1.0))
        assert math.isclose(got, delta * (2.0 - 2.0 / 3.0), rel_tol=1e-13)

    def test_breakpoint_query(self):
        u = StepFunction1D((0.0, 1.0, 2.0), (0.0, 1.0), TailMode.DOMAIN_ONLY)
        with pytest.raises(BreakpointQuery):
            pointwise_hostility(u, 1.0, P1)
        with pytest.raises(BreakpointQuery):
            pointwise_hostility(u, 5.0, P1)

    def test_integral_identity_small(self, rng):
        for _ in range(6):
            u = random_grid_step(rng, 0.2, n_range=(4, 9))
            for p in (1.0, 2.0):
                params = EnergyParams(0.2, p)
                lam = step_energy(u, u.support, params)
                if lam == 0.0:
                    continue
                approx = integrate_pointwise_hostility(u, params)
                assert math.isclose(lam, approx, rel_tol=1e-5)

    def test_integral_identity_compact_support(self):
        u = StepFunction1D((0.0, 0.3, 0.7, 1.1, 1.6),
                           (0.15, 0.3, 0.3, 0.15), TailMode.COMPACT_SUPPORT)
        params = EnergyParams(0.15, 2.0)
        lam = step_energy(u, FULL_LINE, params)
        assert math.isclose(lam, integrate_pointwise_hostility(u, params),
                            rel_tol=1e-5)


class TestAffineInterpolationEnergy:
    """The local energy of the affine interpolant through samples: the
    PiecewiseAffine1D on them."""

    def interpolant_energy(self, samples, p):
        return local_energy(PiecewiseAffine1D(tuple(samples), compact_support=False), p)

    def test_linear_function_any_grid(self):
        samples = [(i / 4.0, i / 4.0) for i in range(5)]
        assert math.isclose(self.interpolant_energy(samples, 2.0), 1.0, rel_tol=1e-12)

    def test_vee_function(self):
        samples = [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)]
        assert math.isclose(self.interpolant_energy(samples, 2.0), 1.0, rel_tol=1e-12)

    def test_dyadic_refinement_monotone(self):
        tent = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        p = 2.0
        prev = 0.0
        for k in (2, 4, 8, 16, 32, 64):
            xs = np.linspace(0.0, 2.0, 2 * k + 1)
            energy = self.interpolant_energy([(x, tent(x)) for x in xs], p)
            assert energy >= prev - 1e-12
            prev = energy
        assert math.isclose(prev, local_energy(tent, p), rel_tol=1e-3)


def test_segmented_ramp_energy_chain():
    # quadrature of the Lipschitz ramp and the exact energy of its
    # segmentation are both reproduced by their own oracles
    ramp = PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False)
    delta = 0.1
    step = vertical_segmentation(ramp, delta)
    params = EnergyParams(delta, 2.0)
    exact = step_energy(step, step.support, params)
    n = 10
    m = np.arange(2, n)
    aggregated = float(np.sum((n - m) * (1.0 / (2 * n))
                              * (1.0 / (m - 1) - 2.0 / m + 1.0 / (m + 1)))) * 2.0
    assert math.isclose(exact, aggregated, rel_tol=1e-12)
    quad = energy_quadrature(lambda x: x, 1.0, UNIT, params, 1e-4)
    assert math.isclose(quad, (1.0 - delta) ** 2, abs_tol=2e-4)


def test_quadrature_budget_exhaustion_reports_estimate():
    with pytest.raises(ToleranceNotReached) as exc:
        energy_quadrature(lambda x: x, 1.0, UNIT, EnergyParams(0.1, 2.0),
                          1e-9, max_cells=500)
    assert exc.value.estimate > 0.0
    assert exc.value.error_estimate > 1e-9
