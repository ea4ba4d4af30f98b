"""The nlg benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed in fresh interpreters
(``fresh_setup.py``); everything else runs in this process: ``nlg`` is
imported from the checkout's ``src/``, one untimed warm-up job runs, then
a fixed number of timed passes over the workload's job list.  Outputs are
checked against references this benchmark computes itself
(``reference.py``) after the timed passes.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# before numpy loads here or in a set-up process: the workloads are
# serial, and BLAS threads would only compete with them on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import reference
import tracing
import workloads
from fresh_setup import import_nlg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# seconds one untraced pass takes at the seed, at the reference speed.  The
# pass count of a run is --seconds over this, fixed per workload, so that
# faster code gets no more samples than slower code
PASS_S = {"recovery": 6.5, "random-walk": 6.0, "sectioning": 7.0, "fuzz": 2.4}
MIN_PASSES = 3

# the reference speed: the one at which speed_probe() takes this long
REF_PROBE_S = 0.03


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def speed_probe() -> float:
    """Wall time of a fixed mix of interpreter and numpy work, in seconds.

    It runs no ``nlg`` code.  Timed work is divided by the probes taken
    just before and after it; see ``scaled``.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    a = numpy.arange(100_000, dtype=float)
    for _ in range(60):
        a = numpy.log1p(a) * 1.0001
    return time.perf_counter() - t0


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` converted to the reference speed.

    On a shared machine the speed of the same work drifts by up to 1.7x
    over seconds to minutes.  Probes taken right before and after the
    timed work drift with it, so dividing by their mean cancels most of it.
    """
    return seconds * REF_PROBE_S / ((probe_before + probe_after) / 2)


def measure_setup(args, input_dir: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import nlg and write the inputs,
    each already converted to the reference speed, and the raw times."""
    cmd = [sys.executable, str(HERE / "fresh_setup.py"), args.workload,
           str(args.seed), str(input_dir)] + (["--smoke"] if args.smoke else [])
    samples, raw, probe = [], [], speed_probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"set-up exceeded {SETUP_TIMEOUT_S} s") from None
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up exited with {proc.returncode}:\n{proc.stderr}")
        after = speed_probe()
        samples.append(scaled(raw[-1], probe, after))
        probe = after
    return samples, raw


def run_job(nlg, job: workloads.Job) -> dict:
    """Run one job with stdout and stderr captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.kind == "cli":
                code = nlg.cli.main(list(job.args))
            else:
                path, delta, p, k = job.args
                with open(path) as fh:
                    u = nlg.core.validate_and_build(json.load(fh))
                value = nlg.rearrange.step_hostility(
                    u, u.domain, k, nlg.functional1d.EnergyParams(delta, p))
                print(repr(value))
                code = 0
        except SystemExit as exc:   # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:    # counted as a failed output, run goes on
            error = f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def run_pass(nlg, jobs, tracer: tracing.Tracer | None, first_job_id: int) -> dict:
    """One pass over the job list, with a speed probe between every two jobs
    and at both ends; each job result carries its wall time and that time
    at the reference speed."""
    uninstall = tracing.install(nlg, tracer) if tracer else None
    results, probe = [], speed_probe()
    try:
        for i, job in enumerate(jobs):
            start = time.perf_counter()
            if tracer:
                r = tracer.run_job(first_job_id + i, lambda: run_job(nlg, job))
            else:
                r = run_job(nlg, job)
            r["wall_s"] = time.perf_counter() - start
            after = speed_probe()
            r["probe_s"] = (probe, after)
            r["scaled_s"] = scaled(r["wall_s"], probe, after)
            results.append(r)
            probe = after
    finally:
        if uninstall:
            uninstall()
    return {"traced": tracer is not None, "jobs": results}


def pass_count(args) -> int:
    """Untraced passes of a run; a traced run adds as many traced ones."""
    n = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
    return max(1, n // 2) if args.trace else n


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def check_passes(w: workloads.Workload, passes: list[dict],
                 expected: dict[str, reference.Expected]) -> Counter:
    """Status counts over every checked value of every pass.

    A job whose stdout differs from its first pass is ``wrong`` too: the
    program promises byte-identical output for identical flags.
    """
    statuses = Counter()
    first = passes[0]["jobs"]
    for p in passes:
        for job, result, base in zip(w.jobs, p["jobs"], first):
            got = reference.check_job(result, expected[job.name])
            if result["stdout"] != base["stdout"]:
                got = ["wrong"] * len(got)
            statuses.update(got)
    return statuses


def job_list_time(passes: list[dict], key: str = "scaled_s") -> float:
    """Time of the job list: the sum over jobs of each job's mean over passes.

    ``key`` is ``"scaled_s"`` for the time at the reference speed, or
    ``"wall_s"`` for the raw wall time.  Scaling removes the slow stretches
    that skew raw times upward; what noise is left is about as often fast
    as slow, and the mean of the few passes uses all of them.
    """
    jobs = zip(*(p["jobs"] for p in passes))
    return sum(statistics.fmean(r[key] for r in results) for results in jobs)


def workload_sizes(expected: dict[str, reference.Expected]) -> dict:
    sizes = Counter()
    for exp in expected.values():
        sizes.update(exp.sizes)
    return dict(sizes)


def timed_passes(nlg, w: workloads.Workload, args) -> tuple[list[dict], dict]:
    """The fixed passes of a run and, when tracing, the per-layer metrics.

    With ``--trace 1`` untraced and traced passes alternate; per-layer
    metrics are lower medians over the traced passes, so counts stay whole,
    and the spans of the first one are written, gzipped, when the passes end.
    """
    passes: list[dict] = []
    layer_runs: list[dict] = []
    kept_spans = None
    for _ in range(pass_count(args) * (2 if args.trace else 1)):
        tracer = tracing.Tracer() if args.trace and len(passes) % 2 == 1 else None
        first_job = len(passes) * len(w.jobs)
        p = run_pass(nlg, w.jobs, tracer, first_job)
        passes.append(p)
        if tracer:
            try:
                tracing.check_spans(tracer.spans, {
                    job: r["wall_s"] for job, r in enumerate(p["jobs"], first_job)})
            except ValueError as exc:
                raise BenchmarkError(f"bad span tree: {exc}") from None
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            kept_spans = kept_spans or tracer.spans
    if not args.trace:
        return passes, {}
    stem = f"{args.workload}-seed{args.seed}-trace1"
    with gzip.open(OUT / f"{stem}.spans.json.gz", "wt") as fh:
        json.dump({"fields": ["id", "parent", "job", "name", "start", "end", "counts"],
                   "spans": kept_spans}, fh)
    return passes, {k: statistics.median_low(r[k] for r in layer_runs) for k in layer_runs[0]}


def run(args) -> dict:
    """Run one workload; returns the result record (last line is built from it)."""
    if not (ROOT / "src" / "nlg" / "__init__.py").is_file():
        raise BenchmarkError(f"no nlg sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    input_dir = OUT / "inputs" / args.workload
    setup, raw_setup = ([], []) if args.trace else measure_setup(args, input_dir)

    nlg = import_nlg()
    w = workloads.build(args.workload, args.seed, input_dir, args.smoke)
    workloads.write_inputs(w, args.seed, input_dir)
    run_job(nlg, w.warmup)
    passes, layers = timed_passes(nlg, w, args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = reference.expected_outputs(w, args.seed)
    statuses = check_passes(w, passes, expected)
    attempted = sum(statuses.values())
    untraced = [p for p in passes if not p["traced"]]
    wall = job_list_time(untraced)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "sizes_per_pass": workload_sizes(expected),
        "raw_wall_s": job_list_time(untraced, "wall_s"),
        "raw_setup_s": raw_setup,
        "setup_samples_s": setup,
        "statuses": dict(statuses),
        "correct": statuses["wrong"] == 0,
        "attempted": attempted,
        "failed": attempted - statuses["ok"],
    }
    if args.trace:
        traced = job_list_time([p for p in passes if p["traced"]])
        layers.update({"trace.wall_s": traced, "trace.overhead_s": traced - wall})
        metrics = {k: (layers[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
    else:
        metrics = {"wall_s": (wall, "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["passes"] = passes
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']}")
    print("sizes per pass: " + ", ".join(f"{k}={v}" for k, v in
                                         result["sizes_per_pass"].items()))
    untraced = [p for p in result["passes"] if not p["traced"]]
    print(f"untraced passes: {len(untraced)}, raw job times (s): "
          + "; ".join(" ".join(f"{r['wall_s']:.4f}" for r in p["jobs"]) for p in untraced))
    print(f"raw_wall_s {result['raw_wall_s']!r} s (wall_s is at the reference speed, "
          f"where the speed probe takes {REF_PROBE_S} s)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} values; "
          + ", ".join(f"{k}={v}" for k, v in sorted(result["statuses"].items())) + ")")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken job sizes, for the self-tests")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
