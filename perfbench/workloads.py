"""Workload definitions: the fixed job lists and their seeded inputs.

This module imports no ``nlg`` code.  The runner uses it to know which
jobs to run, and the checker uses it to rebuild the same inputs for the
references.  Every input is a pure function of ``(workload, seed)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("recovery", "random-walk", "sectioning", "fuzz")

# random-walk inputs: levels on the grid RW_DELTA * Z, cell widths integer
# multiples of RW_UNIT, so every breakpoint is exact in binary and every
# gap the references form is an exact integer count of units
RW_DELTA = 0.01
RW_UNIT = 2.0 ** -20
RW_WIDTHS = (64, 448)
RW_K = 2


@dataclass(frozen=True)
class Job:
    """One timed unit of work.

    ``kind`` is ``"cli"`` (``args`` is the argv of ``nlg.cli.main``) or
    ``"step_hostility"`` (``args`` is ``(input_path, delta, p, k)``).
    ``spec`` carries what the references need to rebuild the expected
    output; it never reaches the program.
    """

    name: str
    kind: str
    args: tuple
    spec: dict


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Job
    jobs: tuple[Job, ...]
    inputs: dict[str, tuple[int, int]]   # file name -> (n cells, walk stream)


def _recovery(shape: str, p: int, start: float, factor: float, steps: int) -> Job:
    argv = ("converge-recovery", "--shape", shape, "--p", str(p),
            "--delta-start", repr(start), "--delta-factor", repr(factor),
            "--steps", str(steps))
    return Job(f"recovery-{shape}-p{p}", "cli", argv,
               {"shape": shape, "p": p, "start": start, "factor": factor,
                "steps": steps})


def _sectioning(delta: float, p: int, seed: int, dirs: int, offsets: int,
                samples: int) -> Job:
    argv = ("converge-sectioning", "--delta", repr(delta), "--p", str(p),
            "--dirs", str(dirs), "--offsets", str(offsets),
            "--mc-samples", str(samples), "--seed", str(seed))
    return Job(f"sectioning-d{delta}-p{p}", "cli", argv,
               {"delta": delta, "p": p, "dirs": dirs,
                "offsets": offsets, "samples": samples})


def _fuzz(n_max: int, species: int, k: int, seed: int) -> Job:
    argv = ("fuzz", "--n-max", str(n_max), "--species-max", str(species),
            "--k", str(k), "--seed", str(seed))
    return Job(f"fuzz-n{n_max}-s{species}-k{k}", "cli", argv,
               {"n_max": n_max, "species": species, "trials": 20})


def _walk_jobs(name: str, n: int, p: int, input_dir: Path) -> tuple[Job, Job]:
    path = str(input_dir / name)
    spec = {"input": name, "n": n, "p": p}
    lam = Job(f"lambda-{name}-p{p}", "cli",
              ("lambda", "--input", path, "--delta", repr(RW_DELTA), "--p", str(p)),
              dict(spec, k=1))
    host = Job(f"step_hostility-{name}-p{p}", "step_hostility",
               (path, RW_DELTA, p, RW_K), dict(spec, k=RW_K))
    return lam, host


def build(workload: str, seed: int, input_dir: Path, smoke: bool = False) -> Workload:
    """The warm-up job, the fixed job list and the input files of a workload.

    ``smoke`` keeps every job class but shrinks sizes so that a whole
    pass takes well under a second; it exists for the self-tests.
    """
    if workload == "recovery":
        tent_steps, ramp_steps = (2, 2) if smoke else (7, 5)
        jobs = [_recovery("tent", p, 1e-2, 0.5, tent_steps) for p in (1, 2)]
        jobs += [_recovery("ramp", p, 1e-2, 0.1, ramp_steps) for p in (1, 2)]
        warmup = _recovery("tent", 1, 1e-1, 0.5, 2)
        return Workload(workload, warmup, tuple(jobs), {})
    if workload == "random-walk":
        plan = ((200, 1), (400, 2)) if smoke else \
            ((2000, 1), (4000, 2), (8000, 1), (16000, 2))
        inputs = {f"walk-{n}.json": (n, i) for i, (n, _) in enumerate(plan)}
        jobs: list[Job] = []
        for (name, (n, _)), (_, p) in zip(inputs.items(), plan):
            jobs += _walk_jobs(name, n, p, input_dir)
        inputs["warmup.json"] = (100, len(plan))
        warmup = _walk_jobs("warmup.json", 100, 1, input_dir)[0]
        return Workload(workload, warmup, tuple(jobs), inputs)
    if workload == "sectioning":
        size = dict(dirs=12, offsets=48, samples=400_000) if smoke else \
            dict(dirs=48, offsets=192, samples=1_000_000)
        rows = ((0.2, 1), (0.2, 2)) if smoke else ((0.1, 1), (0.05, 1), (0.1, 2))
        jobs = [_sectioning(delta, p, seed, **size) for delta, p in rows]
        warmup = _sectioning(0.4, 1, seed, 4, 8, 1000)
        return Workload(workload, warmup, tuple(jobs), {})
    if workload == "fuzz":
        jobs = [_fuzz(5, 3, 1, seed), _fuzz(4, 4, 2, seed)] if smoke else \
            [_fuzz(8, 3, 1, seed), _fuzz(7, 4, 2, seed)]
        return Workload(workload, _fuzz(3, 3, 1, seed), tuple(jobs), {})
    raise ValueError(f"unknown workload {workload!r}")


def random_walk(seed: int, n: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer breakpoints (in units of RW_UNIT) and integer levels of a walk.

    Levels move by -1, 0 or +1 per cell, so no two adjacent cells
    interact and the energy is finite.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, stream, n])
    widths = rng.integers(RW_WIDTHS[0], RW_WIDTHS[1] + 1, n)
    edges = np.concatenate([[0], np.cumsum(widths)]).astype(np.int64)
    levels = np.cumsum(rng.integers(-1, 2, n)).astype(np.int64)
    return edges, levels


def write_inputs(w: Workload, seed: int, input_dir: Path) -> None:
    """Write the workload's step-function JSON files (random-walk only)."""
    if not w.inputs:
        return
    input_dir.mkdir(parents=True, exist_ok=True)
    for name, (n, stream) in w.inputs.items():
        edges, levels = random_walk(seed, n, stream)
        doc = {"breakpoints": (edges * RW_UNIT).tolist(),
               "values": (levels * RW_DELTA).tolist(),
               "tail_mode": "domain_only"}
        (input_dir / name).write_text(json.dumps(doc))
