import json
import math
import subprocess
import sys

import numpy as np
import pytest

import nlg.cli
import nlg.fields
import nlg.functional1d
import nlg.multidim
from nlg import EnemyList, EnergyParams
from nlg.cli import main
from nlg.rearrange import hostile_gap_counts, hostility_gap, reduce_arrangement

from conftest import random_nonincreasing_weights


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_row_d1_p1(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "1", "--p", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "d,p,C_p,G_dp,gamma_limit_constant"
    fields = row.split(",")
    assert fields[0] == "1"
    assert math.isclose(float(fields[-1]), 2.0 * math.log(2.0), rel_tol=1e-12)


def test_constants_row_d1_p2(capsys):
    _, out, _ = run_cli(capsys, "constants", "--d", "1", "--p", "2")
    assert out.strip().splitlines()[1].endswith(",0.5")


def test_constants_row_d2_p2(capsys):
    _, out, _ = run_cli(capsys, "constants", "--d", "2", "--p", "2")
    last = float(out.strip().splitlines()[1].split(",")[-1])
    assert math.isclose(last, math.pi / 4.0, rel_tol=1e-12)


@pytest.fixture
def staircase_file(tmp_path):
    path = tmp_path / "stairs.json"
    path.write_text(json.dumps({
        "breakpoints": [0.0, 1 / 3, 2 / 3, 1.0],
        "values": [0.0, 0.1, 0.2],
        "tail_mode": "domain_only",
    }))
    return str(path)


def test_lambda_staircase(capsys, staircase_file):
    code, out, _ = run_cli(capsys, "lambda", "--input", staircase_file,
                           "--delta", "0.1", "--p", "2")
    assert code == 0
    assert math.isclose(float(out), 0.01, rel_tol=1e-12)


def test_lambda_constant_fixture(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [0.4],
                                "tail_mode": "domain_only"}))
    _, out, _ = run_cli(capsys, "lambda", "--input", str(path),
                        "--delta", "0.1", "--p", "1")
    assert out.strip() == "0"


def test_lambda_divergent_prints_inf(capsys, tmp_path):
    path = tmp_path / "jump.json"
    path.write_text(json.dumps({"breakpoints": [0.0, 1.0, 2.0],
                                "values": [0.0, 1.0],
                                "tail_mode": "domain_only"}))
    _, out, _ = run_cli(capsys, "lambda", "--input", str(path),
                        "--delta", "0.4", "--p", "1")
    assert out.strip() == "inf"


def test_lambda_pwa_requires_segment_flag(capsys, tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(json.dumps({"nodes": [[0, 0], [1, 1], [2, 0]],
                                "compact_support": True}))
    code, _, err = run_cli(capsys, "lambda", "--input", str(path),
                           "--delta", "0.25", "--p", "1")
    assert code == 2 and "--segment" in err
    code, out, _ = run_cli(capsys, "lambda", "--input", str(path),
                           "--delta", "0.25", "--p", "1", "--segment")
    assert code == 0 and float(out) > 0.0


def test_segment_roundtrip(capsys, tmp_path):
    src = tmp_path / "tent.json"
    src.write_text(json.dumps({"nodes": [[0, 0], [1, 1], [2, 0]],
                               "compact_support": True}))
    dst = tmp_path / "step.json"
    code, _, _ = run_cli(capsys, "segment", "--input", str(src),
                         "--delta", "0.25", "--output", str(dst))
    assert code == 0
    step = json.loads(dst.read_text())
    assert step["tail_mode"] == "compact_support"
    assert step["values"] == [0.25, 0.5, 0.75, 0.5, 0.25]


def test_segment_crossing_on_end_node(capsys, tmp_path):
    # the last level crossing rounds one ulp past the end node
    src = tmp_path / "ramp.json"
    src.write_text(json.dumps({"nodes": [[0.06, -0.039], [0.638, 0.02600000000000001]],
                               "compact_support": False}))
    code, out, _ = run_cli(capsys, "segment", "--input", str(src), "--delta", "0.013")
    assert code == 0
    assert json.loads(out)["breakpoints"][-1] == 0.638


@pytest.mark.parametrize("delta", ["inf", "1e-300"])
def test_segment_bad_delta_is_one_error_line(capsys, tmp_path, delta):
    src = tmp_path / "tent.json"
    src.write_text(json.dumps({"nodes": [[0, 0], [1, 1], [2, 0]],
                               "compact_support": True}))
    code, out, err = run_cli(capsys, "segment", "--input", str(src), "--delta", delta)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "delta" in err and "repeats" not in err


@pytest.mark.parametrize("command", ["lambda", "constants"])
def test_infinite_p_is_one_error_line(capsys, tmp_path, command):
    src = tmp_path / "tent.json"
    src.write_text(json.dumps({"nodes": [[0, 0], [1, 1], [2, 0]],
                               "compact_support": True}))
    args = {"lambda": ["lambda", "--input", str(src), "--delta", "0.25", "--segment"],
            "constants": ["constants"]}[command]
    code, out, err = run_cli(capsys, *args, "--p", "inf")
    assert code == 1 and out == ""
    assert err.startswith("error: p must be finite") and len(err.splitlines()) == 1


def test_rearrange_discrete(capsys, tmp_path):
    src = tmp_path / "arr.json"
    src.write_text(json.dumps({"species": [2, 0, 1]}))
    code, out, _ = run_cli(capsys, "rearrange", "--input", str(src))
    assert code == 0
    assert json.loads(out) == {"species": [0, 1, 2]}


def test_rearrange_step(capsys, tmp_path):
    src = tmp_path / "step.json"
    src.write_text(json.dumps({"breakpoints": [0.0, 0.3, 1.0],
                               "values": [1.0, 0.0],
                               "tail_mode": "domain_only"}))
    code, out, _ = run_cli(capsys, "rearrange", "--input", str(src),
                           "--domain", "0", "1")
    assert code == 0
    got = json.loads(out)
    assert got["values"] == [0.0, 1.0]
    assert got["breakpoints"] == [0.0, 0.7, 1.0]


def test_rearrange_step_last_cell_few_ulps_wide(capsys, tmp_path):
    src = tmp_path / "step.json"
    src.write_text(json.dumps({
        "breakpoints": [3.0, 4.014414394323118, 5.461675714544933, 7.547482011407145,
                        7.744011785271194, 9.327561179041531, 10.260726622112166,
                        13.099999999999998, 13.1],
        "values": [2, 2, 0, 2, 0, 1, 0, 5],
        "tail_mode": "domain_only"}))
    code, out, _ = run_cli(capsys, "rearrange", "--input", str(src),
                           "--domain", "3", "13.1")
    assert code == 0
    got = json.loads(out)
    assert got["values"] == [0.0, 1.0, 2.0]
    assert got["breakpoints"][0] == 3.0 and got["breakpoints"][-1] == 13.1


def test_hostility(capsys, tmp_path):
    (tmp_path / "arr.json").write_text(json.dumps({"species": [0, 2, 0]}))
    (tmp_path / "h.json").write_text(json.dumps({"h": [1.0, 0.5, 1 / 3]}))
    (tmp_path / "e.json").write_text(json.dumps({"band_complement": 1}))
    code, out, _ = run_cli(capsys, "hostility",
                           "--arrangement", str(tmp_path / "arr.json"),
                           "--weights", str(tmp_path / "h.json"),
                           "--enemies", str(tmp_path / "e.json"))
    assert code == 0 and out.strip() == "1"


def test_hostility_schema_error_exit_code(capsys, tmp_path):
    (tmp_path / "arr.json").write_text(json.dumps({"species": [0, 2, 0]}))
    (tmp_path / "h.json").write_text(json.dumps({"h": [1.0, 2.0]}))
    (tmp_path / "e.json").write_text(json.dumps({"band_complement": 1}))
    code, _, err = run_cli(capsys, "hostility",
                           "--arrangement", str(tmp_path / "arr.json"),
                           "--weights", str(tmp_path / "h.json"),
                           "--enemies", str(tmp_path / "e.json"))
    assert code == 1 and "nonincreasing" in err


def test_fuzz_no_violations(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--n-max", "4", "--species-max", "3",
                           "--k", "1", "--trials", "10", "--seed", "7")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "checked,violations"
    assert row.endswith(",0")


def test_fuzz_flat_weights_tie_handling(capsys):
    # constant h exercises the tie case: still no violations expected
    code, out, _ = run_cli(capsys, "fuzz", "--n-max", "3", "--species-max", "3",
                           "--k", "2", "--trials", "3", "--seed", "123")
    assert code == 0 and out.strip().splitlines()[1].endswith(",0")


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-1"),
                                        ("--n-max", "0"), ("--species-max", "0"),
                                        ("--k", "0"), ("--k", "-3")])
def test_fuzz_rejects_counts_below_one(capsys, flag, value):
    args = {"--n-max": "3", "--species-max": "2", "--trials": "2", flag: value}
    code, out, err = run_cli(capsys, "fuzz", *[a for kv in args.items() for a in kv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("n_max,species,trials,k", [
    (4, 3, 10, 1), (5, 1, 3, 1), (3, 4, 1, 2), (1, 5, 2, 3), (6, 2, 1, 1),
    (70, 1, 2, 1),  # past numpy's 64 array dimensions
    # S**2 passes int8 from S = 12: the rows take the next signed type
    (4, 11, 2, 2), (4, 12, 2, 2), (4, 16, 2, 2)])
def test_fuzz_checked_count(capsys, n_max, species, trials, k):
    code, out, _ = run_cli(capsys, "fuzz", "--n-max", str(n_max), "--species-max",
                           str(species), "--k", str(k), "--trials", str(trials))
    want = sum(species ** n * (trials + 2 * (n >= 2)) for n in range(1, n_max + 1))
    assert code == 0 and out.splitlines()[1] == f"{want},0"


def _roll_rows(fn):
    return lambda u: np.roll(fn(u), 1, axis=1)


def _drop_last_pair(fn):
    # the pair of the first and the last position goes missing
    def broken(hostile, u):
        last = fn(hostile, u)
        last[:, -1] = 0
        return last
    return broken


def _one_more_at(fn, gap):
    def broken(*args):
        counts = fn(*args)
        counts[:, gap] += 1
        return counts
    return broken


def _self_counted(fn):
    # the removed position counted as its own hostile partner
    return _one_more_at(fn, 0)


def _one_more_widest_straddle(fn):
    return _one_more_at(fn, -1)


@pytest.mark.parametrize("name,breaker", [("monotone_rearrangement", _roll_rows),
                                          ("_last_pairs", _drop_last_pair),
                                          ("_own_counts", _self_counted),
                                          ("_straddles", _one_more_widest_straddle)])
def test_fuzz_catches_broken_operations(capsys, monkeypatch, name, breaker):
    monkeypatch.setattr(nlg.cli, name, breaker(getattr(nlg.cli, name)))
    code, out, _ = run_cli(capsys, "fuzz", "--n-max", "4", "--species-max", "3",
                           "--k", "1", "--trials", "3", "--seed", "5")
    assert code == 1 and int(out.splitlines()[1].split(",")[1]) > 0


_FIELDS = ("n", "first", "u", "cu", "mu", "cm", "ru", "cr", "own", "su")


def _sorted_counts_dominate(block, r):
    # the sorted row's counts looked up as its row's plus one self pair
    block["cm"][r] = block["cu"][r]
    block["cm"][r, 0] += 1


def _own_self_pair_twice(block, r):
    block["own"][r, 0] += 1


def _reduced_row_bumped(block, r):
    block["ru"][r, 0] += 1


def _sort_fails(block, r):
    # some nonincreasing h makes the sorted row worse: a prefix of its
    # counts exceeds its row's
    cu, cm = block["cu"][r].tolist(), block["cm"][r].tolist()
    return any(sum(cm[:m + 1]) > sum(cu[:m + 1]) for m in range(len(cu)))


def _gap_fails(block, r):
    n = block["n"]
    if n == 1:
        return False
    cu, cr, own, su = (block[key][r].tolist() for key in ("cu", "cr", "own", "su"))
    formula = [own[g] + su[g] + (cr[g] - su[g + 1] if g < n - 1 else 0)
               for g in range(n)]
    return formula != cu


def _commute_fails(block, r):
    if block["n"] == 1:
        return False
    mu = block["mu"][r].tolist()
    top = len(mu) - 1 - mu[::-1].index(max(mu))
    return sorted(block["ru"][r].tolist()) != mu[:top] + mu[top + 1:]


@pytest.mark.parametrize("plant,fails,per_row", [
    (_sorted_counts_dominate, _sort_fails, 3), (_own_self_pair_twice, _gap_fails, 1),
    (_reduced_row_bumped, _commute_fails, 1)], ids=["sort", "gap", "commute"])
def test_fuzz_counts_the_failing_rows_of_a_failing_block(capsys, monkeypatch, plant,
                                                         fails, per_row):
    # two rows of one 7-row block at n = 4 are broken for one check; the
    # whole-block comparison fails, and fuzz must then count those rows one
    # by one (the sort check once per trial), as a plain per-row loop does
    monkeypatch.setattr(nlg.cli, "FUZZ_BLOCK", 7)
    blocks_of = nlg.cli._fuzz_blocks
    seen = []

    def planted(*args):
        for fields in blocks_of(*args):
            block = dict(zip(_FIELDS, fields))
            if block["n"] == 4 and block["first"] == 14:
                for r in (1, 4):
                    plant(block, r)
            seen.append({key: value.copy() if isinstance(value, np.ndarray) else value
                         for key, value in block.items()})
            yield tuple(block.values())

    monkeypatch.setattr(nlg.cli, "_fuzz_blocks", planted)
    code, out, _ = run_cli(capsys, "fuzz", "--n-max", "5", "--species-max", "3",
                           "--k", "1", "--trials", "3", "--seed", "5")
    broken = [(block["n"], block["first"] + r) for block in seen
              for r in range(len(block["u"])) if fails(block, r)]
    assert broken == [(4, 15), (4, 18)]
    assert code == 1 and out.splitlines()[1].endswith(f",{per_row * len(broken)}")


def _own_and_straddles_loop(u, k):
    """Pair by pair, over all rows at once: the hostile partners of each
    row's rightmost maximum by distance, and the hostile pairs i < m0 < j
    that straddle it by gap."""
    m, n = u.shape
    m0 = np.where(u == u.max(axis=1, keepdims=True), np.arange(n), -1).max(axis=1)
    own = np.zeros((m, n), dtype=np.int64)
    straddle = np.zeros((m, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            hostile = np.abs(u[:, i] - u[:, j]) > k
            own[:, j - i] += hostile & ((i == m0) | (j == m0))
            straddle[:, j - i] += hostile & (i < m0) & (m0 < j)
    return own, straddle


@pytest.mark.parametrize("block", [7, nlg.cli.FUZZ_BLOCK])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("species", [1, 2, 3, 4, 5])
def test_fuzz_looked_up_counts_match_direct(monkeypatch, species, k, block):
    # a row and its counts come from its prefix's rows of the n - 1 tables,
    # and the counts of its sorted and reduced rows from the tables of n and
    # n - 1; the row must be its index's digits in a signed type, and each
    # count must equal the one computed on that row directly.  The gap
    # formula's terms must equal a pair loop, and give hostility_gap's
    # float value.
    monkeypatch.setattr(nlg.cli, "FUZZ_BLOCK", block)
    enemies = EnemyList.band_complement(k)
    rng = np.random.default_rng(species * 10 + k)
    seen = {}
    for n, first, u, cu, mu, cm, ru, cr, own, su in nlg.cli._fuzz_blocks(enemies, 6,
                                                                       species):
        index = np.arange(first, first + len(u))
        assert np.issubdtype(u.dtype, np.signedinteger)
        assert np.array_equal(u, np.stack(np.unravel_index(index, (species,) * n), axis=1))
        assert np.array_equal(cu, hostile_gap_counts(enemies, u))
        assert np.array_equal(mu, np.sort(u, axis=1))
        assert np.array_equal(cm, hostile_gap_counts(enemies, mu))
        if n == 1:
            assert ru is None and cr is None and own is None and su is None
        else:
            assert np.array_equal(ru, reduce_arrangement(u)[0])
            assert np.array_equal(cr, hostile_gap_counts(enemies, ru))
            want_own, want_straddle = _own_and_straddles_loop(u, k)
            assert np.array_equal(own, want_own)
            assert np.array_equal(su, want_straddle)
            h = random_nonincreasing_weights(rng, n)
            w = np.asarray(h.h)
            terms = own @ w - su[:, 2:] @ (w[1:-1] - w[2:])
            gap = hostility_gap(h, enemies, u)
            assert np.all(np.abs(terms - gap) <= 1e-12 * np.maximum(
                np.maximum(np.abs(terms), np.abs(gap)), 1.0))
        seen[n] = seen.get(n, 0) + len(u)
    assert seen == {n: species ** n for n in range(1, 7)}


def _sorting_violations(species, k, n_max):
    """Rows whose sorted row has more hostile pairs than they do at gaps
    0 .. m, for some m.  Every nonincreasing weight vector is a constant
    plus a nonnegative sum of prefix indicators, so where this is 0,
    sorting never increases the hostility for any of them."""
    bad = 0
    for n, first, u, cu, mu, cm, *_ in nlg.cli._fuzz_blocks(
            EnemyList.band_complement(k), n_max, species):
        bad += int(np.sum(np.any(np.cumsum(cm, axis=1, dtype=np.int64)
                                 > np.cumsum(cu, axis=1, dtype=np.int64), axis=1)))
    return bad


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("species", [1, 2, 3, 4])
def test_fuzz_sorting_is_optimal_for_every_weight(species, k):
    assert _sorting_violations(species, k, 7) == 0


def test_fuzz_exact_sorting_check_catches_a_wrong_rearrangement(monkeypatch):
    monkeypatch.setattr(nlg.cli, "monotone_rearrangement",
                        _roll_rows(nlg.cli.monotone_rearrangement))
    assert _sorting_violations(3, 1, 5) > 0


def test_converge_recovery_ramp(capsys):
    code, out, _ = run_cli(capsys, "converge-recovery", "--shape", "ramp",
                           "--p", "2", "--delta-start", "0.01",
                           "--delta-factor", "0.1", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,lambda,limit,ratio"
    assert len(lines) == 5  # three deltas + extrapolated row
    ratios = [float(l.split(",")[-1]) for l in lines[1:]]
    assert ratios[-1] == pytest.approx(1.0, abs=1e-3)
    # tail ratios approach 1 monotonically
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_converge_recovery_single_step_no_extrapolation(capsys):
    code, out, _ = run_cli(capsys, "converge-recovery", "--shape", "tent",
                           "--p", "1", "--delta-start", "0.1",
                           "--delta-factor", "0.5", "--steps", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("shape, p, factor, steps", [
    ("tent", 1, 0.5, 7), ("tent", 2, 0.5, 7), ("ramp", 1, 0.1, 5), ("ramp", 2, 0.1, 5)])
def test_recovery_rows_take_the_ranges(capsys, monkeypatch, shape, p, factor, steps):
    # the benchmark's converge-recovery job lists: every segmentation is a
    # unimodal line on exact grid values, so no finite row calls the pair sum
    calls = []
    pair_sum = nlg.functional1d._pair_sum

    def counted(edges, x, radius, params):
        calls.append(len(x))
        return pair_sum(edges, x, radius, params)

    monkeypatch.setattr(nlg.functional1d, "_pair_sum", counted)
    code, out, _ = run_cli(capsys, "converge-recovery", "--shape", shape, "--p", str(p),
                           "--delta-start", "0.01", "--delta-factor", str(factor),
                           "--steps", str(steps))
    assert code == 0
    rows = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:-1]]
    assert len(rows) == steps and sum(map(math.isfinite, rows)) >= 3
    assert calls == []


def test_converge_sectioning_small(capsys):
    code, out, _ = run_cli(capsys, "converge-sectioning", "--d", "2",
                           "--shape", "radial-tent", "--delta", "0.4",
                           "--p", "2", "--dirs", "8", "--offsets", "32",
                           "--mc-samples", "20000", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,sectioning_estimate,mc_estimate,mc_stderr,limit"
    fields = [float(v) for v in lines[1].split(",")]
    sect, mc, se, lim = fields[1], fields[2], fields[3], fields[4]
    assert abs(sect - mc) < 6.0 * se + 0.2
    assert math.isclose(lim, math.pi ** 2 / 4.0, rel_tol=1e-12)


def test_converge_sectioning_small_delta_is_finite(capsys):
    code, out, _ = run_cli(capsys, "converge-sectioning", "--p", "1", "--delta", "1e-4",
                           "5e-5", "--dirs", "4", "--offsets", "8",
                           "--mc-samples", "100000", "--seed", "1")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == [1e-4, 5e-5]
    for _, sect, mc, se, _ in rows:
        assert math.isfinite(sect) and abs(sect - mc) < 5.0 * se


@pytest.mark.parametrize("args, want", [
    (("converge-recovery", "--shape", "tent", "--p", "1", "--delta-start", "0.1",
      "--delta-factor", "1", "--steps", "3"), 2),
    (("converge-recovery", "--shape", "tent", "--p", "1", "--delta-start", "0.1",
      "--delta-factor", "0", "--steps", "3"), 2),
    (("converge-recovery", "--shape", "ramp", "--p", "1", "--delta-start", "-0.1",
      "--delta-factor", "0.5", "--steps", "3"), 2),
    (("converge-recovery", "--shape", "tent", "--p", "1", "--delta-start", "0.1",
      "--delta-factor", "0.5", "--steps", "0"), 2),
    (("lambda", "--delta", "0.1", "--p", "0.5"), 1),
    (("lambda", "--delta", "0.1", "--p", "1", "--domain", "-5", "5"), 1),
    (("converge-sectioning", "--delta", "0.4", "--p", "2", "--dirs", "1",
      "--offsets", "8", "--mc-samples", "100"), 1),
    (("converge-sectioning", "--delta", "0.4", "--p", "2", "--dirs", "4",
      "--offsets", "8", "--mc-samples", "100", "--seed", "-1"), 1),
], ids=["delta-factor-1", "delta-factor-0", "negative-delta-start", "zero-steps",
        "p-below-1", "domain-outside-domain-only-step", "one-direction", "negative-seed"])
def test_bad_numeric_flags_end_in_one_error_line(capsys, staircase_file, args, want):
    if args[0] == "lambda":
        args = args[:1] + ("--input", staircase_file) + args[1:]
    code, out, err = run_cli(capsys, *args)
    assert code == want
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert out == ""


_INPUTS = {
    "step": {"breakpoints": [0, 1, 2], "values": [1, 2], "tail_mode": "domain_only"},
    "compact": {"breakpoints": [0, 1, 2], "values": [1, 2], "tail_mode": "compact_support"},
    "pwa": {"nodes": [[0, 0], [1, 1], [2, 0]], "compact_support": True},
    "arrangement": {"species": [0, 2, 0]},
    "weights": {"h": [1.0, 0.5]},
    "enemies": {"band_complement": 1},
}
_RECOVERY = ("converge-recovery", "--shape", "tent", "--p", "1", "--delta-start", "0.1")
_SECTIONING = ("converge-sectioning", "--delta", "0.4", "--p", "2", "--dirs", "4",
               "--offsets", "8", "--mc-samples", "100")
_FUZZ = {"--n-max": "3", "--species-max": "2", "--k": "1", "--trials": "2"}


@pytest.mark.parametrize("args", [
    ("lambda", "--input", "pwa", "--delta", "0.25", "--p", "1"),
    ("lambda", "--input", "arrangement", "--delta", "0.25", "--p", "1"),
    ("segment", "--input", "step", "--delta", "0.25"),
    ("rearrange", "--input", "weights"),
    ("rearrange", "--input", "compact"),
    ("hostility", "--arrangement", "weights", "--weights", "arrangement",
     "--enemies", "enemies"),
    *[("fuzz", *[a for kv in {**_FUZZ, flag: "0"}.items() for a in kv]) for flag in _FUZZ],
    _RECOVERY + ("--delta-factor", "1", "--steps", "3"),
    _RECOVERY + ("--delta-factor", "0.5", "--steps", "0"),
    _SECTIONING + ("--d", "3"),
    _SECTIONING + ("--shape", "x"),
], ids=["lambda-affine-without-segment", "lambda-arrangement", "segment-step",
        "rearrange-weights", "rearrange-compact-step-without-domain", "hostility-swapped",
        "fuzz-n-max-0", "fuzz-species-max-0", "fuzz-k-0", "fuzz-trials-0",
        "recovery-delta-factor-1", "recovery-zero-steps", "sectioning-d-3",
        "sectioning-shape-x"])
def test_usage_errors_exit_two_with_one_error_line(capsys, tmp_path, args):
    # every flag or input that a command cannot take: exit 2, no output,
    # one error line; input names stand for files of those documents
    for name, doc in _INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    args = [str(tmp_path / f"{a}.json") if a in _INPUTS else a for a in args]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("d, p", [("2", "400"), ("400", "2")])
def test_constants_past_the_range_of_math_gamma(capsys, d, p):
    code, out, err = run_cli(capsys, "constants", "--d", d, "--p", p)
    assert code == 0 and err == ""
    assert all(float(v) > 0.0 for v in out.splitlines()[1].split(","))


@pytest.mark.parametrize("flag, value, name", [("--seed", "-1", "seed"),
                                               ("--mc-samples", "0", "n_samples")])
def test_montecarlo_flags_checked_before_sectioning(capsys, monkeypatch, flag, value, name):
    calls = []
    monkeypatch.setattr(nlg.cli, "_sectioning_pass", lambda *args: calls.append(args) or 1.0)
    code, out, err = run_cli(capsys, "converge-sectioning", "--delta", "0.4", "--p", "2",
                             "--dirs", "4", "--offsets", "8", flag, value)
    assert code == 1 and out == "" and calls == []
    assert err.startswith(f"error: {name} must be an integer")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("deltas", [["1e-12"], ["1e-300"], ["0.4", "1e-12"]],
                         ids=["small", "tiny", "second-row"])
def test_unresolved_montecarlo_scale_checked_before_sectioning(capsys, monkeypatch, deltas):
    # partners below the rounding of the box's coordinates: one error line
    # naming r_min, before the first sectioning pass of any row
    calls = []
    monkeypatch.setattr(nlg.cli, "_sectioning_pass", lambda *args: calls.append(args) or 1.0)
    code, out, err = run_cli(capsys, "converge-sectioning", "--delta", *deltas, "--p", "2",
                             "--dirs", "4", "--offsets", "8", "--mc-samples", "1000")
    assert code == 1 and out == "" and calls == []
    assert err.startswith("error: partners at r_min = delta / L = ")
    assert len(err.splitlines()) == 1


def test_converge_sectioning_runs_one_pass_per_row(capsys, monkeypatch):
    # each row prints the fine estimate of energy_by_sectioning; the coarse
    # pass behind its error estimate, which the row does not print, is not run
    one_pass, deltas = nlg.multidim._sectioning_pass, []

    def counted(u, params, *grid):
        deltas.append(params.delta)
        return one_pass(u, params, *grid)

    for owner in (nlg.multidim, nlg.cli):
        monkeypatch.setattr(owner, "_sectioning_pass", counted)
    code, out, _ = run_cli(capsys, "converge-sectioning", "--delta", "0.4", "0.3", "--p", "2",
                           "--dirs", "6", "--offsets", "24", "--mc-samples", "100")
    assert code == 0 and deltas == [0.4, 0.3]
    monkeypatch.undo()
    tent = nlg.fields.RadialTent((0.0, 0.0), 1.0, 1.0)
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == [
        nlg.cli._fmt(nlg.multidim.energy_by_sectioning(tent, EnergyParams(d, 2.0), 6, 24)[0])
        for d in (0.4, 0.3)]


_STEP = {"breakpoints": [0, 1, 2], "values": [1, 2], "tail_mode": "compact_support"}
_PWA = {"nodes": [[0, 0], [1, 1]], "compact_support": False}


@pytest.mark.parametrize("doc,field", [
    ({**_STEP, "values": [1, None]}, "values"),
    ({**_STEP, "values": [1, [2]]}, "values"),
    ({**_STEP, "breakpoints": 5}, "breakpoints"),
    ({**_PWA, "nodes": 5}, "nodes"),
    ({**_PWA, "nodes": [[0, 0], [1, None]]}, "nodes"),
    ({"h": [1, None]}, "h"),
    ({"species": 5}, "species"),
    ({"species": [1, None]}, "species"),
    ({"band_complement": None}, "band_complement"),
    ({"band_square": 5}, "band_square"),
    ({"band_square_complement": [1]}, "band_square_complement"),
    ({"explicit": 5}, "explicit"),
    ({**_STEP, "values": [1, True]}, "values"),  # true is no number
    # species are integers: no truncation, and JSON true/false are no numbers here
    ({"explicit": [[1.5, 1.5]]}, "explicit"),
    ({"band_square": [0.5, 2.7]}, "band_square"),
    ({"band_complement": True}, "band_complement"),
    ({"band_square_complement": [True, 2]}, "band_square_complement"),
    ({"species": [1, math.inf]}, "species"),  # JSON Infinity: no int, no crash
    # compact_support is a JSON boolean, not any truthy or falsy value
    ({**_PWA, "compact_support": "false"}, "compact_support"),
    ({**_PWA, "compact_support": "no"}, "compact_support"),
    ({**_PWA, "compact_support": None}, "compact_support"),
    ({**_PWA, "compact_support": 0}, "compact_support"),
    ({**_PWA, "compact_support": []}, "compact_support"),
])
def test_malformed_json_is_one_error_line(capsys, tmp_path, doc, field):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "rearrange", "--input", str(tmp_path / "doc.json"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(field) in err and "nan" not in err


def test_unknown_flag_is_error():
    proc = subprocess.run([sys.executable, "-m", "nlg.cli", "constants",
                           "--p", "1", "--bogus"], capture_output=True)
    assert proc.returncode == 2


def _run_bytes(args):
    proc = subprocess.run([sys.executable, "-m", "nlg.cli"] + args,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_byte_identical_reruns(tmp_path):
    (tmp_path / "arr.json").write_text(json.dumps({"species": [3, 1, 2]}))
    invocations = [
        ["constants", "--d", "2", "--p", "1.5"],
        ["fuzz", "--n-max", "3", "--species-max", "3", "--k", "1",
         "--trials", "7", "--seed", "99"],
        ["converge-recovery", "--shape", "tent", "--p", "1",
         "--delta-start", "0.2", "--delta-factor", "0.5", "--steps", "3"],
        ["rearrange", "--input", str(tmp_path / "arr.json")],
        ["converge-sectioning", "--delta", "0.4", "--p", "2", "--dirs", "6",
         "--offsets", "24", "--mc-samples", "5000", "--seed", "17"],
    ]
    for args in invocations:
        assert _run_bytes(args) == _run_bytes(args)


def test_repeated_main_calls_print_what_fresh_processes_print(tmp_path, capsys):
    # main parses with one parser per process: no flag, default or error
    # of one call may reach the next, in any order
    stairs = tmp_path / "stairs.json"
    stairs.write_text(json.dumps({"breakpoints": [0.0, 1 / 3, 2 / 3, 1.0],
                                  "values": [0.0, 0.1, 0.2], "tail_mode": "domain_only"}))
    lam = ["lambda", "--input", str(stairs), "--delta", "0.1"]
    invocations = [
        lam + ["--p", "2"],
        lam + ["--p", "1", "--domain", "0.1", "0.9"],
        lam + ["--p", "1", "--domain", "0", "2"],  # an error line
        lam + ["--p", "2"],
        ["constants", "--d", "2", "--p", "1.5"],
        ["constants", "--p", "1.5"],
        ["converge-sectioning", "--delta", "0.4", "0.3", "--p", "2", "--dirs", "6",
         "--offsets", "24", "--mc-samples", "5000", "--seed", "17"],
        ["converge-sectioning", "--delta", "0.4", "--p", "2", "--dirs", "4",
         "--offsets", "16", "--mc-samples", "5000"],
    ]
    fresh = []
    for args in invocations:
        proc = subprocess.run([sys.executable, "-m", "nlg.cli"] + args, capture_output=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for order in (invocations, invocations[::-1]):
        for args in order:
            code = main(list(args))
            out = capsys.readouterr()
            assert (code, out.out.encode(), out.err.encode()) == fresh[invocations.index(args)]
