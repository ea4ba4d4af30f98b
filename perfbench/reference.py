"""Reference values for every job output and the checks against them.

Nothing here imports ``nlg``: the staircases, pair sums and constants
are rebuilt from the definitions, so a defect in the program cannot
hide in its own reference.

* tent and random-walk rows: a per-gap pair sum over exact integer cell
  geometry.  Pair terms use cancellation-free forms (``log1p`` at p = 1,
  the factored rational bracket at p = 2) and are accumulated in
  extended precision (``np.longdouble``).
* uniform ramp rows: the O(n) sum aggregated by index gap, in extended
  precision.
* sectioning rows: the sectioning estimate must agree with the Monte
  Carlo estimate, as in acceptance criterion 10.
* fuzz rows: the expected ``checked`` count and ``violations == 0``.

Every checked value gets one status: ``ok``; ``spurious`` (``inf`` or
``nan`` where the reference is finite); ``error`` (nonzero exit or an
exception); ``wrong`` (a finite value off its reference, or output that
does not have the expected shape).  All but ``ok`` count as failed;
only ``wrong`` makes a run incorrect, because it is the one failure the
program does not announce itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import RW_DELTA, RW_K, RW_UNIT, Workload, random_walk

REL_TOL = 1e-9          # the seed matches to 2e-16, plus %.12g printing
MC_SIGMAS = 5.0         # sectioning vs Monte Carlo: statistical allowance
SECTION_ALLOWANCE = 0.01  # relative allowance for the midpoint-rule error
MC_MAX_GAP = 0.05       # criterion 10's relative cap on the gap


def staircase_constant(p: float) -> float:
    return math.log(2.0) if p == 1 else (1.0 - 2.0 ** (1.0 - p)) / (p - 1.0)


# integral of |cos(theta)|^p over the circle, for the exponents used here
CIRCLE_MOMENT = {1: 4.0, 2: math.pi}


def _terms(gap, l1, l2, p):
    """Pair brackets in length units: delta^p/(p(p-1)) and 1/unit^(p-1) excluded."""
    if p == 1:
        return np.log1p(l1 * l2 / (gap * (gap + l1 + l2)))
    if p == 2:
        s = gap + l1 + l2
        return l1 * l2 * (gap + s) / (gap * (gap + l1) * (gap + l2) * s)
    raise ValueError(f"references cover p in {{1, 2}}, got {p}")


def _tail_terms(gap, length, p):
    if p == 1:
        return np.log1p(length / gap)
    return length / (gap * (gap + length))


def pair_sums(edges: np.ndarray, levels: np.ndarray, p: int, delta: float,
              unit: float, compact: bool, min_gaps=(2,)) -> list[float]:
    """Exact step energies, one per interaction rule, by per-gap pair sums.

    ``edges`` are integer breakpoints in units of ``unit``; cells i, j
    interact when their integer levels differ by at least ``min_gap``
    (2 is the energy; k + 1 is ``step_hostility`` with parameter k).  A
    compactly supported function adds the two unbounded zero tails.
    Ordered pairs are counted, so the result is twice the unordered sum.
    """
    n = len(levels)
    e = edges.astype(float)
    w = np.diff(e)
    adjacent = np.max(np.abs(np.diff(levels)), initial=0)
    if compact:
        adjacent = max(adjacent, abs(levels[0]), abs(levels[-1]))
    parts: list[list] = [[] for _ in min_gaps]
    first = min(min_gaps)
    for m in range(2, n):
        dl = np.abs(levels[m:] - levels[:-m])
        mask = dl >= first
        if not mask.any():
            continue
        t = _terms((e[m:n] - e[1:n - m + 1])[mask], w[:n - m][mask], w[m:][mask], p)
        dl = dl[mask]
        for i, g in enumerate(min_gaps):
            parts[i].append(np.sum(t[dl >= g], dtype=np.longdouble))
    if compact:
        left = np.arange(1, n)          # tail (-inf, e[0]) against cells 1..n-1
        t_left = _tail_terms(e[left] - e[0], w[left], p)
        right = np.arange(0, n - 1)     # tail (e[n], inf) against cells 0..n-2
        t_right = _tail_terms(e[n] - e[right + 1], w[right], p)
        for i, g in enumerate(min_gaps):
            parts[i].append(np.sum(t_left[np.abs(levels[left]) >= g], dtype=np.longdouble))
            parts[i].append(np.sum(t_right[np.abs(levels[right]) >= g], dtype=np.longdouble))
    scale = delta if p == 1 else delta ** p / (p * (p - 1)) / unit ** (p - 1)
    return [math.inf if adjacent >= g else
            float(2 * scale * np.sum(np.asarray(part, dtype=np.longdouble)))
            for g, part in zip(min_gaps, parts)]


def tent_staircase(n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertical segmentation of the tent (0,0)-(1,1)-(2,0) at delta = 1/N.

    Edges are in units of 1/N: crossings at j and 2N - j; the top cell
    (N-1, N+1) holds level N-1, and the level-0 cells are the tails.
    """
    n = n_levels
    edges = np.concatenate([np.arange(1, n), np.arange(n + 1, 2 * n)]).astype(np.int64)
    levels = np.concatenate([np.arange(1, n), np.arange(n - 2, 0, -1)]).astype(np.int64)
    return edges, levels


def ramp_energy(n_levels: int, p: int, delta: float) -> float:
    """Energy of the ramp (0,0)-(1,1) segmented at delta = 1/N, on (0, 1).

    N cells of width 1/N with levels 0..N-1: the pair (i, i+m) interacts
    iff m >= 2 and its energy depends on m only, so the sum aggregates
    by the index gap with N - m pairs each.
    """
    n = n_levels
    m = np.arange(2, n, dtype=np.longdouble)
    if p == 1:
        t = delta * np.log1p(1 / (m * m - 1))
    elif p == 2:
        t = np.longdouble(delta) ** 2 * n / ((m - 1) * m * (m + 1))
    else:
        raise ValueError(f"references cover p in {{1, 2}}, got {p}")
    return float(2 * np.sum((n - m) * t))


def _levels_of(delta: float) -> int:
    n = round(1.0 / delta)
    if abs(n * delta - 1.0) > 1e-12:
        raise ValueError(f"delta {delta} is not 1/N")
    return n


@dataclass
class Expected:
    """Reference rows of one job: ``kind`` selects the check."""

    kind: str
    rows: list
    sizes: dict


def _recovery_expected(spec: dict) -> Expected:
    shape, p = spec["shape"], spec["p"]
    local = 2.0 if shape == "tent" else 1.0
    limit = (2.0 / p) * staircase_constant(p) * local
    rows, cells, pairs = [], 0, 0
    delta = spec["start"]
    for _ in range(spec["steps"]):
        n = _levels_of(delta)
        if shape == "tent":
            edges, levels = tent_staircase(n)
            lam = pair_sums(edges, levels, p, delta, 1.0 / n, compact=True)[0]
            c = len(levels) + 2
        else:
            lam = ramp_energy(n, p, delta)
            c = n
        cells += c
        pairs += c * (c - 1) // 2
        rows.append((delta, lam, limit, lam / limit))
        delta *= spec["factor"]
    if len(rows) >= 2:
        f = spec["factor"]
        ext = (rows[-1][1] - f * rows[-2][1]) / (1.0 - f)
        rows.append((0.0, ext, limit, ext / limit))
    return Expected("recovery", rows, {"cells": cells, "pair_bound": pairs})


def _sectioning_expected(spec: dict) -> Expected:
    p = spec["p"]
    limit = CIRCLE_MOMENT[p] * staircase_constant(p) / p * math.pi
    # the fine pass plus the half-resolution pass of the error estimate
    per_row = spec["dirs"] * spec["offsets"] \
        + max(spec["dirs"] // 2, 2) * max(spec["offsets"] // 2, 2)
    return Expected("sectioning", [(spec["delta"], limit)],
                    {"sections": per_row, "samples": spec["samples"]})


def _fuzz_expected(spec: dict) -> Expected:
    s, trials = spec["species"], spec["trials"]
    checked = sum(s ** n * (trials + (2 if n >= 2 else 0))
                  for n in range(1, spec["n_max"] + 1))
    arrangements = sum(s ** n for n in range(1, spec["n_max"] + 1))
    return Expected("fuzz", [(checked, 0)], {"arrangements": arrangements})


def _walk_expected(w: Workload, seed: int) -> dict[str, Expected]:
    """Energy (k = 1) and step_hostility (k = RW_K) of every walk, one pair sum each."""
    out = {}
    for lam, host in zip(w.jobs[::2], w.jobs[1::2]):
        n, stream = w.inputs[lam.spec["input"]]
        edges, levels = random_walk(seed, n, stream)
        values = pair_sums(edges, levels, lam.spec["p"], RW_DELTA, RW_UNIT,
                           compact=False, min_gaps=(2, RW_K + 1))
        sizes = {"cells": n, "pair_bound": n * (n - 1) // 2}
        out[lam.name] = Expected("scalar", [values[0]], sizes)
        out[host.name] = Expected("scalar", [values[1]], sizes)
    return out


def expected_outputs(w: Workload, seed: int) -> dict[str, Expected]:
    """Reference rows for every job of a workload, keyed by job name."""
    if w.name == "random-walk":
        return _walk_expected(w, seed)
    build = {"recovery": _recovery_expected, "sectioning": _sectioning_expected,
             "fuzz": _fuzz_expected}[w.name]
    return {job.name: build(job.spec) for job in w.jobs}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _number_status(got: float, want: float) -> str:
    if not math.isfinite(got):
        return "ok" if got == want else "spurious"
    return "ok" if _close(got, want) else "wrong"


def _row_status(fields: list[float], wants: list[float]) -> str:
    statuses = [_number_status(g, w) for g, w in zip(fields, wants)]
    for s in ("wrong", "spurious"):
        if s in statuses:
            return s
    return "ok"


def _parse_rows(stdout: str, header: str) -> list[list[float]] | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        return None
    try:
        return [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None


def check_job(result: dict, exp: Expected) -> list[str]:
    """One status per checked value of a job's output (see module docstring)."""
    n = len(exp.rows)
    # fuzz exits 1 when it finds violations; its row says how many
    allowed = (0, 1) if exp.kind == "fuzz" else (0,)
    if result["error"] is not None or result["exit"] not in allowed:
        return ["error"] * n
    out = result["stdout"]
    if exp.kind == "scalar":
        try:
            return [_number_status(float(out), exp.rows[0])]
        except ValueError:
            return ["wrong"]
    header = {"recovery": "delta,lambda,limit,ratio",
              "sectioning": "delta,sectioning_estimate,mc_estimate,mc_stderr,limit",
              "fuzz": "checked,violations"}[exp.kind]
    rows = _parse_rows(out, header)
    if rows is None or len(rows) != n:
        return ["wrong"] * n
    if exp.kind == "recovery":
        return [_row_status(r, list(w)) for r, w in zip(rows, exp.rows)]
    if exp.kind == "fuzz":
        (checked, violations), = rows
        if checked != exp.rows[0][0]:
            return ["wrong"]
        return ["ok" if violations == 0 and result["exit"] == 0 else "error"]
    return [_sectioning_status(r, w) for r, w in zip(rows, exp.rows)]


def _sectioning_status(row: list[float], want: tuple[float, float]) -> str:
    delta, sect, mc, stderr, limit = row
    if not all(math.isfinite(v) for v in row):
        return "spurious"
    if not (_close(delta, want[0]) and _close(limit, want[1]) and stderr > 0.0):
        return "wrong"
    gap = abs(sect - mc)
    agree = gap <= MC_SIGMAS * stderr + SECTION_ALLOWANCE * abs(sect) \
        and gap <= MC_MAX_GAP * max(abs(sect), abs(mc))
    return "ok" if agree else "wrong"
