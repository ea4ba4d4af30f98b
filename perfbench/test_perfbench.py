"""Self-tests of the benchmark.  Run: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fresh_setup import import_nlg  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload: str, seed: int, trace: int = 0):
    """Run a smoke-size workload; returns (stdout lines, record)."""
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    record = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return proc.stdout.splitlines(), json.loads(record.read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_and_passes_its_checks(workload, trace):
    lines, _ = smoke(workload, 1, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for name, unit in listed.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("fail_ratio ") for line in lines)


def _replace_field(stdout: str, row: int, col: int, text: str) -> str:
    lines = stdout.splitlines()
    fields = lines[row].split(",")
    fields[col] = text
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def recovery_job(tmp_path_factory):
    nlg = import_nlg()
    w = workloads.build("recovery", 1, tmp_path_factory.mktemp("in"), smoke=True)
    job = w.jobs[0]
    return job, run.run_job(nlg, job), reference.expected_outputs(w, 1)[job.name]


def test_good_output_passes(recovery_job):
    job, good, exp = recovery_job
    assert reference.check_job(good, exp) == ["ok"] * len(exp.rows)


def test_injected_inf_counts_as_failure(recovery_job):
    job, good, exp = recovery_job
    bad = dict(good, stdout=_replace_field(good["stdout"], 1, 1, "inf"))
    assert reference.check_job(bad, exp)[0] == "spurious"


def test_value_perturbed_past_tolerance_counts_as_failure(recovery_job):
    job, good, exp = recovery_job
    lam = float(good["stdout"].splitlines()[1].split(",")[1])
    bad = dict(good, stdout=_replace_field(good["stdout"], 1, 1, "%.12g" % (lam * (1 + 1e-7))))
    assert reference.check_job(bad, exp)[0] == "wrong"
    # a perturbation below the tolerance is rounding, not an error
    near = dict(good, stdout=_replace_field(good["stdout"], 1, 1, "%.12g" % (lam * (1 + 1e-11))))
    assert reference.check_job(near, exp)[0] == "ok"


def test_failed_values_reach_the_result_line(recovery_job):
    job, good, exp = recovery_job
    w = workloads.Workload("recovery", job, (job,), {})
    inf = dict(good, stdout=_replace_field(good["stdout"], 1, 1, "inf"))
    crash = dict(good, exit=None, error="ValueError: boom")
    passes = [{"traced": False, "jobs": [good]}, {"traced": False, "jobs": [inf]},
              {"traced": False, "jobs": [crash]}]
    statuses = run.check_passes(w, passes, {job.name: exp})
    n = len(exp.rows)
    # the inf pass also differs from the first pass, which makes it wrong
    assert statuses["ok"] == n and statuses["wrong"] == n and statuses["error"] == n


@pytest.mark.parametrize("compact", (False, True))
@pytest.mark.parametrize("p", (1, 2))
def test_pair_sums_match_the_pair_formula(p, compact):
    """The reference against the textbook pair formula, pair by pair."""
    rng = np.random.default_rng(5)
    n, unit, delta = 30, 2.0 ** -10, 0.01
    edges = np.concatenate([[0], np.cumsum(rng.integers(1, 9, n))])
    rise = 1 + np.cumsum(np.concatenate([[0], rng.integers(0, 2, n // 2 - 1)]))
    levels = np.concatenate([rise, rise[::-1]])   # ends at level 1, next to the tails
    e = [x * unit for x in edges]
    cells = [(e[i], e[i + 1], levels[i]) for i in range(n)]
    if compact:
        cells = [(-math.inf, e[0], 0)] + cells + [(e[-1], math.inf, 0)]
    brute = [0.0, 0.0]
    for a1, b1, la in cells:
        for a2, b2, lb in cells:
            if a2 <= b1:
                continue
            g = a2 - b1
            if p == 1:
                val = delta * (math.log1p((b2 - a2) / g) if a1 == -math.inf else
                               math.log1p((b1 - a1) / g) if b2 == math.inf else
                               math.log1p((b1 - a1) * (b2 - a2)
                                          / (g * (g + b1 - a1 + b2 - a2))))
            else:
                val = delta ** 2 / 2 * (1 / g - 1 / (g + b1 - a1) - 1 / (g + b2 - a2)
                                        + 1 / (g + b1 - a1 + b2 - a2))
            for i, gap in enumerate((2, 3)):
                if abs(int(la) - int(lb)) >= gap:
                    brute[i] += val
    got = reference.pair_sums(edges, levels, p, delta, unit, compact, min_gaps=(2, 3))
    assert got == pytest.approx([2 * b for b in brute], rel=1e-12)


def test_same_seed_is_byte_identical_and_other_seed_keeps_sizes():
    outputs = {}
    for workload in ("random-walk", "sectioning"):
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            _, record = smoke(workload, seed)
            outputs[workload, tag] = ([j["stdout"] for j in record["passes"][0]["jobs"]],
                                      record["sizes_per_pass"])
        (a, size_a), (b, _), (c, size_c) = (outputs[workload, t] for t in "abc")
        assert a == b
        assert size_a == size_c
        if workload == "random-walk":
            assert all(x != y for x, y in zip(a, c))
            continue
        for x, y in zip(a, c):
            (row_x,), (row_y,) = ([r.split(",") for r in out.splitlines()[1:]]
                                  for out in (x, y))
            assert row_x[1] == row_y[1]     # the sectioning estimate has no seed
            assert row_x[2] != row_y[2]     # the Monte Carlo estimate has one


def test_self_times_add_up_to_the_job_time():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        traced_leaf()
        time.sleep(0.001)
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    walls = {}
    for job, fn in ((0, traced_middle), (1, traced_leaf)):
        t0 = time.perf_counter()
        tracer.run_job(job, fn)
        walls[job] = time.perf_counter() - t0
    assert len(tracer.spans) == 6
    tracing.check_spans(tracer.spans, walls)
    selfs = tracing.self_times(tracer.spans)
    by_name = {}
    for sid, _, _, name, t0, t1, _ in tracer.spans:
        by_name.setdefault(name, []).append((selfs[sid], t1 - t0))
    for self_s, duration in by_name["leaf"]:
        assert self_s == duration
    (mid_self, mid_dur), = by_name["middle"]
    assert 0.0009 < mid_self < mid_dur - 0.004

    def broken(i, **changes):
        spans = [list(sp) for sp in tracer.spans]
        for k, v in changes.items():
            spans[i]["id parent job name start end".split().index(k)] = v
        return [tuple(sp) for sp in spans]

    leaf0 = next(i for i, sp in enumerate(tracer.spans) if sp[3] == "leaf")
    start, end = tracer.spans[leaf0][4:6]
    bad = [broken(leaf0, end=end + 1.0),              # outlives its parent
           broken(leaf0, start=start - 1.0),          # starts before its parent
           broken(leaf0, job=1),                      # parent is in another job
           broken(leaf0, end=end + 0.0015)]           # overlaps its sibling
    for spans in bad:
        with pytest.raises(ValueError):
            tracing.check_spans(spans, walls)
    with pytest.raises(ValueError):                   # the job ran longer than traced
        tracing.check_spans(tracer.spans, {0: walls[0] + 0.01, 1: walls[1]})
    with pytest.raises(ValueError):                   # a job was never traced
        tracing.check_spans(tracer.spans, {**walls, 2: 1.0})


def test_pass_count_is_fixed_per_workload():
    """Faster code gets no more samples: the count depends on the flags only."""
    for workload in workloads.WORKLOADS:
        args = run.argparse.Namespace(workload=workload, seconds=20, trace=0)
        n = run.pass_count(args)
        assert n >= run.MIN_PASSES
        assert n * run.PASS_S[workload] <= 20 * 1.2
        args.trace = 1
        assert 1 <= run.pass_count(args) <= n


def test_scaled_cancels_a_uniform_slowdown():
    assert run.scaled(2.0, 0.028, 0.032) == pytest.approx(2.0 * run.REF_PROBE_S / 0.030)
    assert run.scaled(2.0 * 1.7, 0.028 * 1.7, 0.032 * 1.7) == \
        pytest.approx(run.scaled(2.0, 0.028, 0.032))


def test_install_restores_every_binding():
    nlg = import_nlg()
    before = {(m, a): tracing._resolve(nlg, m, a) for targets in tracing.TARGETS.values()
              for m, a in targets}
    before = {k: getattr(owner, last) for k, (owner, last) in before.items()}
    undo = tracing.install(nlg, tracing.Tracer())
    assert nlg.multidim.step_energy is not before["multidim", "step_energy"]
    undo()
    for (m, a), original in before.items():
        owner, last = tracing._resolve(nlg, m, a)
        assert getattr(owner, last) is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sectioning", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
