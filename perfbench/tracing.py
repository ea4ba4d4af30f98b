"""Spans at the ``nlg`` module boundaries, recorded from outside the package.

:func:`install` rebinds the public names that callers look up (for
example ``nlg.cli.step_energy`` and ``nlg.multidim.step_energy``) to
wrappers that record one span per call: id, parent, job id, name, start,
end and per-call counts.  Spans stay in memory until the run ends.
:func:`layer_metrics` turns them into per-layer self times, counts and
ratios.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

# span name -> the (module, attribute) bindings its callers look up
TARGETS = {
    "cli.main": [("cli", "main")],
    "core.validate_and_build": [("cli", "validate_and_build"),
                                ("core", "validate_and_build")],
    "core.StepFunction1D": [("core", "StepFunction1D.__post_init__")],
    "functional1d.step_energy": [("cli", "step_energy"), ("multidim", "step_energy"),
                                 ("functional1d", "step_energy")],
    "rearrange.vertical_segmentation": [("cli", "vertical_segmentation"),
                                        ("multidim", "vertical_segmentation"),
                                        ("rearrange", "vertical_segmentation")],
    "rearrange.step_hostility": [("rearrange", "step_hostility")],
    "rearrange.hostile_gap_counts": [("cli", "hostile_gap_counts"),
                                     ("rearrange", "hostile_gap_counts")],
    "rearrange.total_hostility": [("cli", "total_hostility"),
                                  ("rearrange", "total_hostility")],
    "rearrange.hostility_gap": [("cli", "hostility_gap"), ("rearrange", "hostility_gap")],
    "rearrange.reduce_arrangement": [("cli", "reduce_arrangement"),
                                     ("rearrange", "reduce_arrangement")],
    "rearrange.monotone_rearrangement": [("cli", "monotone_rearrangement"),
                                         ("rearrange", "monotone_rearrangement")],
    "multidim.energy_by_sectioning": [("cli", "energy_by_sectioning"),
                                      ("multidim", "energy_by_sectioning")],
    "multidim.energy_by_montecarlo": [("cli", "energy_by_montecarlo"),
                                      ("multidim", "energy_by_montecarlo")],
    "multidim.section": [("multidim", "section")],
    "multidim.step_segmentation": [("multidim", "RadialSection.step_segmentation"),
                                   ("multidim", "AffineSection.step_segmentation"),
                                   ("multidim", "PolySection.step_segmentation")],
}


def _line_key(direction, z) -> tuple[int, int, int]:
    """The unoriented line {z * frame + t * sigma}, rounded to about 1e-9.

    sigma and -sigma give the same line; the sign is fixed so that sigma
    points into the upper half plane, and the offset follows it.
    """
    s0, s1 = direction.sigma
    offset = z if isinstance(z, (int, float)) else z[0]
    if s1 < 0.0 or (s1 == 0.0 and s0 < 0.0):
        s0, s1, offset = -s0, -s1, -offset
    return (round(s0 * 1e9), round(s1 * 1e9), round(offset * 1e9))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


COUNTERS = {
    "functional1d.step_energy": lambda a, kw, r: {
        "cells": len(_arg(a, kw, 0, "u").values), "inf": int(r == math.inf)},
    "rearrange.vertical_segmentation": lambda a, kw, r: {
        "cells": len(r.values) if hasattr(r, "values") else 0},
    "rearrange.step_hostility": lambda a, kw, r: {"cells": len(_arg(a, kw, 0, "u").values)},
    "multidim.step_segmentation": lambda a, kw, r: {
        "cells": 0 if r is None else len(r.values), "empty": int(r is None)},
    "multidim.section": lambda a, kw, r: {
        "line": _line_key(_arg(a, kw, 1, "direction"), _arg(a, kw, 2, "z"))},
    "multidim.energy_by_montecarlo": lambda a, kw, r: {
        "samples": _arg(a, kw, 3, "n_samples")},
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.job = None

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.job, name, t0, t1, None))
                raise
            t1 = perf_counter()
            self._stack.pop()
            counts = count(args, kwargs, result) if count else None
            self.spans.append((sid, parent, self.job, name, t0, t1, counts))
            return result

        return traced

    def run_job(self, job_id, fn):
        """Run ``fn`` as the root span ``job`` of a new job id."""
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = None


def _resolve(nlg, module: str, attr: str):
    owner = getattr(nlg, module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(nlg, tracer: Tracer):
    """Rebind every target to its traced wrapper; returns the undo function."""
    saved = []
    for name, targets in TARGETS.items():
        wrappers = {}
        for module, attr in targets:
            owner, last = _resolve(nlg, module, attr)
            original = owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original)
            saved.append((owner, last, original))
            setattr(owner, last, wrappers[id(original)])

    def uninstall():
        for owner, last, original in reversed(saved):
            setattr(owner, last, original)

    return uninstall


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

# per-layer metric name -> unit; the order is the report order
LAYER_METRICS = {
    "functional1d.step_energy.calls": "count",
    "functional1d.step_energy.cells": "count",
    "functional1d.step_energy.self_s": "s",
    "functional1d.step_energy.cells_per_s": "1/s",
    "functional1d.step_energy.inf": "count",
    "rearrange.vertical_segmentation.calls": "count",
    "rearrange.vertical_segmentation.cells": "count",
    "rearrange.vertical_segmentation.self_s": "s",
    "rearrange.step_hostility.calls": "count",
    "rearrange.step_hostility.cells": "count",
    "rearrange.step_hostility.self_s": "s",
    **{f"rearrange.{fn}.{stat}": unit
       for fn in ("hostile_gap_counts", "total_hostility", "hostility_gap",
                  "reduce_arrangement", "monotone_rearrangement")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "core.validate_and_build.calls": "count",
    "core.validate_and_build.self_s": "s",
    "core.StepFunction1D.calls": "count",
    "core.StepFunction1D.self_s": "s",
    "multidim.energy_by_sectioning.calls": "count",
    "multidim.energy_by_sectioning.self_s": "s",
    "multidim.section.calls": "count",
    "multidim.section.distinct_ratio": "ratio",
    "multidim.section.self_s": "s",
    "multidim.step_segmentation.calls": "count",
    "multidim.step_segmentation.cells": "count",
    "multidim.step_segmentation.empty_ratio": "ratio",
    "multidim.step_segmentation.self_s": "s",
    "multidim.energy_by_montecarlo.calls": "count",
    "multidim.energy_by_montecarlo.samples": "count",
    "multidim.energy_by_montecarlo.self_s": "s",
    "multidim.energy_by_montecarlo.samples_per_s": "1/s",
    "cli.jobs": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    child = defaultdict(float)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, _, _, t0, t1, _ in spans}


WRAPPER_ALLOWANCE_S = 1e-3  # a job's wall time minus its summed self times


def check_spans(spans, job_walls: dict[int, float]) -> None:
    """Raise ``ValueError`` unless the spans of a pass form a proper tree.

    Every job has one root span; every other span lies inside its parent's
    interval, in the same job, without overlapping its siblings.  Then the
    self times of a job add up to its root's duration, and that must match
    the job's wall time measured outside the tracer (``job_walls``), short
    of at most the wrapper's own cost.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    roots = {}
    for sid, parent, job, name, t0, t1, _ in spans:
        if t1 < t0:
            raise ValueError(f"span {sid} ({name}) ends before it starts")
        if parent is None:
            if job in roots:
                raise ValueError(f"job {job} has two root spans")
            roots[job] = sid
            continue
        pid, _, pjob, pname, p0, p1, _ = by_id.get(parent, (None,) * 7)
        if pid is None or pjob != job or t0 < p0 or t1 > p1:
            raise ValueError(f"span {sid} ({name}) lies outside its parent {parent}")
        children[parent].append((t0, t1))
    for parent, spans_in in children.items():
        spans_in.sort()
        if any(b0 < a1 for (_, a1), (b0, _) in zip(spans_in, spans_in[1:])):
            raise ValueError(f"children of span {parent} overlap")
    if set(roots) != set(job_walls):
        raise ValueError(f"traced jobs {sorted(roots)} are not the jobs run "
                         f"{sorted(job_walls)}")
    selfs = self_times(spans)
    total = defaultdict(float)
    for sid, _, job, *_ in spans:
        total[job] += selfs[sid]
    for job, wall in job_walls.items():
        if not -1e-9 <= wall - total[job] <= WRAPPER_ALLOWANCE_S:
            raise ValueError(f"job {job}: self times sum to {total[job]} s, "
                             f"its wall time is {wall} s")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the ``trace.*`` entries."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(int)
    lines = defaultdict(set)    # energy_by_sectioning span -> distinct lines
    for sid, parent, _, name, _, _, counts in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        if not counts:
            continue
        for key, value in counts.items():
            if key == "line":
                lines[parent].add(value)
            else:
                sums[f"{name}.{key}"] += value
    out = {}
    for metric in LAYER_METRICS:
        name, stat = metric.rsplit(".", 1)
        if name == "trace":
            continue
        if name == "cli":
            name, stat = "cli.main", "calls" if stat == "jobs" else stat
        built = calls[name]
        if stat == "calls":
            value = built
        elif stat == "self_s":
            value = self_s[name]
        elif stat == "distinct_ratio":
            value = sum(len(s) for s in lines.values()) / built if built else 0.0
        elif stat == "empty_ratio":
            value = sums[f"{name}.empty"] / built if built else 0.0
        elif stat.endswith("_per_s"):
            work = sums[f"{name}.{stat[:-len('_per_s')]}"]
            value = work / self_s[name] if self_s[name] > 0 else 0.0
        else:
            value = sums[metric]
        out[metric] = value
    return out
