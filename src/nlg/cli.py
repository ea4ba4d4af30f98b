"""Batch experiment runner: the ``nlg`` command.

Subcommands take JSON files in the documented schemas and print CSV (or
a single scalar) to stdout with full %.12g precision and the literal
``inf`` for divergent energies.  Every subcommand is deterministic given
its flags and seed: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .core import (DiscreteArrangement, EnemyList, HostilityWeights, Interval,
                   PiecewiseAffine1D, StepFunction1D, validate_and_build)
from .constants import gamma_limit_constant, spherical_moment, staircase_constant
from .functional1d import EnergyParams, local_energy, step_energy
from .fields import RadialTent
from .multidim import (_check_montecarlo_counts, _check_sectioning, _montecarlo_scales,
                       _sectioning_pass, energy_by_montecarlo)
from .multidim import energy_by_sectioning  # noqa: F401 -- perfbench's tracer rebinds it here
from .oracles import total_hostility
from .rearrange import (_hostile, _own_counts, monotone_rearrangement,
                        monotone_rearrangement_step, reduce_arrangement, vertical_segmentation)
# not called here: perfbench's tracer rebinds them in this module
from .rearrange import hostile_gap_counts, hostility_gap  # noqa: F401


def _fmt(x: float) -> str:
    return "%.12g" % x


class _Usage(Exception):
    """A flag or input that the command cannot take: one error line, exit 2."""


def _load(path: str, *kinds):
    """The object that the JSON file ``path`` holds, if it is one of ``kinds``."""
    with open(path) as fh:
        obj = validate_and_build(json.load(fh))
    if not isinstance(obj, kinds):
        raise _Usage(f"{path}: got {type(obj).__name__}, expected "
                     + " or ".join(kind.__name__ for kind in kinds))
    return obj


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _domain_from_args(args, u: StepFunction1D) -> Interval:
    return u.domain if args.domain is None else Interval(*args.domain)


def cmd_constants(args) -> int:
    c = staircase_constant(args.p)
    g = spherical_moment(args.d, args.p)
    lim = gamma_limit_constant(args.d, args.p)
    print("d,p,C_p,G_dp,gamma_limit_constant")
    print(",".join([str(args.d), _fmt(args.p), _fmt(c.value), _fmt(g.value),
                    _fmt(lim.value)]))
    return 0


def cmd_lambda(args) -> int:
    u = _load(args.input, StepFunction1D, PiecewiseAffine1D)
    params = EnergyParams(args.delta, args.p)
    if isinstance(u, PiecewiseAffine1D):
        if not args.segment:
            raise _Usage("piecewise affine input requires --segment")
        u = vertical_segmentation(u, args.delta)
    print(_fmt(step_energy(u, _domain_from_args(args, u), params)))
    return 0


def cmd_segment(args) -> int:
    u = _load(args.input, PiecewiseAffine1D)
    step = vertical_segmentation(u, args.delta)
    _write(json.dumps(step.to_json()) + "\n", args.output)
    return 0


def cmd_rearrange(args) -> int:
    u = _load(args.input, DiscreteArrangement, StepFunction1D)
    if isinstance(u, DiscreteArrangement):
        out = monotone_rearrangement(u)
    else:
        domain = _domain_from_args(args, u)
        if not domain.bounded:
            raise _Usage("rearranging a step function needs a bounded --domain")
        out = monotone_rearrangement_step(u, domain)
    _write(json.dumps(out.to_json()) + "\n", args.output)
    return 0


def cmd_hostility(args) -> int:
    u = _load(args.arrangement, DiscreteArrangement)
    h = _load(args.weights, HostilityWeights)
    e = _load(args.enemies, EnemyList)
    print(_fmt(total_hostility(h, e, u)))
    return 0


FUZZ_BLOCK = 2048  # arrangements per batch: bounds the temporary arrays of one n


def _last_pairs(hostile: np.ndarray, u: np.ndarray) -> np.ndarray:
    """last[r, g] = 1 where positions n - 1 - g and n - 1 of row r hold
    hostile species: the pairs that the last position adds to the row's
    prefix, by gap (its self-pair at gap 0)."""
    return _hostile(hostile, u[:, ::-1], u[:, -1:])


def _straddles(prefix: np.ndarray, last: np.ndarray, m0: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """straddle[r, g]: hostile pairs i < m0[r] < i + g of row r, written
    into ``out`` and returned.

    A row whose maximum sits left of its last position removes the same
    m0 as its prefix, so its straddles are the prefix's row ``prefix``
    plus the last position's pairs (i, n - 1) with i < m0; nothing
    straddles a last position."""
    n = out.shape[1]
    out[:, :-1] = prefix
    out[:, -1] = 0
    out += last * (np.arange(n - 1, -1, -1) < m0[:, None])
    out *= (m0 < n - 1)[:, None]
    return out


def _fuzz_blocks(enemies: EnemyList, n_max: int, species: int):
    """Every arrangement of n = 1 .. n_max positions over species
    0 .. species - 1, FUZZ_BLOCK rows at a time, with the gap counts of
    the rows, of their sorted rows and of their reduced rows, and the
    terms of the gap formula.

    Arrangement i of n holds the base-``species`` digits of i, most
    significant first (``np.ndindex`` order), so a row's index is
    ``row @ power``, and its first n - 1 positions are arrangement
    i // species of n - 1.  Each n keeps three tables by index, n bytes
    an arrangement each while species <= 11: the rows themselves, in the
    smallest signed type that holds species**2 (so that the flat index
    of :func:`rearrange._hostile` cannot wrap); the gap counts; and the
    straddle counts of the reduction (both in the smallest unsigned type
    that holds n).  A row is its prefix's row of the n - 1 rows table
    with ``i % species`` appended.  Its counts are its prefix's row of
    the n - 1 table plus the last position's pairs (j, n - 1), at gap
    n - 1 - j (:func:`_last_pairs`): O(n) pairs a row.  Its straddles
    come from the n - 1 straddle table the same way (:func:`_straddles`),
    and the removed position's own partners from one gather
    (:func:`rearrange._own_counts`).  A sorted row is the smallest
    permutation of its row, so its index is no larger and its counts are
    already in the table; a reduced row's counts are in the table of
    n - 1.  The n - 1 tables are freed once n is done.  No later n reads
    the rows and straddles of n_max, so that n keeps one block of each.

    Yields ``(n, first, u, cu, mu, cm, ru, cr, own, su)``: the block's
    first index; its rows ``u``, sorted rows ``mu`` and reduced rows
    ``ru`` (in the rows table's type); their gap counts ``cu``, ``cm``
    and ``cr`` (in the count table's type); and the removed position's
    own counts ``own`` and the straddle counts ``su``, both by gap.
    ``ru``, ``cr``, ``own`` and ``su`` are None at n = 1.  At n_max, ``u``
    and ``su`` are overwritten by the next block: copy what outlives it.
    """
    hostile = enemies.table(range(species)).astype(np.uint8)
    row_type = np.min_scalar_type(-species ** 2)
    prev = prev_straddle = prev_rows = None
    for n in range(1, n_max + 1):
        power = np.array([species ** e for e in range(n - 1, -1, -1)])
        total = species ** n
        # zeros, not empty: counts are added in place, and a broken sort
        # that looks ahead reads no garbage
        table = np.zeros((total, n), dtype=np.min_scalar_type(n))
        # no later n reads the last n's rows and straddles: one block of each
        size = min(total, FUZZ_BLOCK) if n == n_max else total
        straddle = np.zeros((size, n), dtype=table.dtype)
        rows = np.empty((size, n), dtype=row_type)
        for first in range(0, total, FUZZ_BLOCK):
            index = np.arange(first, min(first + FUZZ_BLOCK, total))
            prefix = index // species
            at = first % size  # the block's place in the rows and straddles
            u = rows[at:at + len(index)]
            u[:, -1] = index % species
            if n >= 2:
                u[:, :-1] = prev_rows.take(prefix, axis=0)
            last = _last_pairs(hostile, u)
            cu = table[first:first + len(u)]
            cu += last
            ru = cr = own = su = None
            if n >= 2:
                cu[:, :-1] += prev.take(prefix, axis=0)
                ru, m0 = reduce_arrangement(u)
                m0 -= 1
                cr = prev.take(ru @ power[1:], axis=0)
                own = _own_counts(hostile, u, m0)
                su = _straddles(prev_straddle.take(prefix, axis=0), last, m0,
                                straddle[at:at + len(u)])
            mu = monotone_rearrangement(u)
            cm = table.take(mu @ power, axis=0)
            yield n, first, u, cu, mu, cm, ru, cr, own, su
        prev, prev_straddle, prev_rows = table, straddle, rows


def _differing_rows(a: np.ndarray, b: np.ndarray) -> int:
    """Rows where ``a`` and ``b`` differ, counted only if the whole blocks do."""
    return 0 if np.array_equal(a, b) else int(np.sum(np.any(a != b, axis=1)))


def cmd_fuzz(args) -> int:
    """Rearrangement property suite: sorting minimizes, gaps match, M and R commute.

    Every arrangement of n positions over species 0 .. species_max - 1 is
    checked, for n = 1 .. n_max, as the FUZZ_BLOCK-row integer arrays of
    :func:`_fuzz_blocks`, which builds each arrangement's row and gap
    counts from its prefix's and looks up those of the sorted and reduced
    rows.  The sort check draws ``--trials`` nonincreasing weight vectors
    per n and takes one float product a block, of the integer count
    differences ``c(u) - c(sort u)``.  The gap formula is checked
    exactly, gap by gap in integers:
    ``c(u) - c(reduce u) == own_g + S_g - S_{g+1}``, with own_g the
    removed position's hostile partners at distance g and S_g the hostile
    pairs at gap g that straddle it.  The gap is linear in the weights,
    so this holds for every nonincreasing h.  Each check is made on the
    whole block first, and its failing rows are counted only in a block
    that fails.
    """
    for flag in ("n_max", "species_max", "trials", "k"):
        if getattr(args, flag) < 1:
            raise _Usage(f"need --{flag.replace('_', '-')} >= 1")
    rng = np.random.default_rng(args.seed)
    enemies = EnemyList.band_complement(args.k)
    checked = 0
    violations = 0
    tol = 1e-12
    for n, first, u, cu, mu, cm, ru, cr, own, su in _fuzz_blocks(
            enemies, args.n_max, args.species_max):
        if first == 0:  # weights drawn once per n, in the order of n
            # one nonincreasing vector per trial, each a column: BLAS-ready
            h_cols = np.ascontiguousarray(
                np.sort(rng.random((args.trials, n)), axis=1).T[::-1])
            signed = np.promote_types(cu.dtype, np.int8)
        checked += len(u) * args.trials
        # c(u)·h < c(sort u)·h - tol, as one product of the differences
        gain = (cu.astype(signed) - cm) @ h_cols
        if gain.min() < -tol:
            violations += int(np.sum(gain < -tol))
        if n >= 2:
            # gap formula: c(u)_g == c(reduce u)_g + own_g + S_g - S_{g+1}
            formula = own + su
            formula[:, :-1] += cr
            formula[:, :-1] -= su[:, 1:]
            violations += _differing_rows(formula, cu)
            # commutation of rearrangement and reduction
            violations += _differing_rows(monotone_rearrangement(ru),
                                          reduce_arrangement(mu)[0])
            checked += 2 * len(u)
    print("checked,violations")
    print(f"{checked},{violations}")
    return 0 if violations == 0 else 1


_SHAPES = {"tent": PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))),
           "ramp": PiecewiseAffine1D(((0.0, 0.0), (1.0, 1.0)), compact_support=False)}


def cmd_converge_recovery(args) -> int:
    if not (args.delta_start > 0.0 and 0.0 < args.delta_factor < 1.0):
        raise _Usage("need --delta-start > 0 and 0 < --delta-factor < 1")
    if args.steps < 1:
        raise _Usage("need --steps >= 1")
    u = _SHAPES[args.shape]
    limit = gamma_limit_constant(1, args.p).value * local_energy(u, args.p)
    rows = []
    delta = args.delta_start
    for _ in range(args.steps):
        params = EnergyParams(delta, args.p)
        rows.append((delta, step_energy(vertical_segmentation(u, delta), params=params)))
        delta *= args.delta_factor
    print("delta,lambda,limit,ratio")
    for delta, lam in rows:
        print(",".join([_fmt(delta), _fmt(lam), _fmt(limit), _fmt(lam / limit)]))
    if len(rows) >= 2:
        # Richardson extrapolation assuming error linear in delta
        f = args.delta_factor
        lam_ext = (rows[-1][1] - f * rows[-2][1]) / (1.0 - f)
        print(",".join([_fmt(0.0), _fmt(lam_ext), _fmt(limit), _fmt(lam_ext / limit)]))
    return 0


def cmd_converge_sectioning(args) -> int:
    if args.d != 2:
        raise _Usage("only --d 2 is supported")
    if args.shape != "radial-tent":
        raise _Usage(f"unknown shape {args.shape!r}")
    _check_montecarlo_counts(args.mc_samples, args.seed)  # before any sectioning pass
    u = RadialTent((0.0, 0.0), 1.0, 1.0)
    _check_sectioning(u, args.dirs, args.offsets)
    box = u.support_box()
    limit = gamma_limit_constant(2, args.p).value * u.local_energy(args.p)
    runs = [(delta, EnergyParams(delta, args.p)) for delta in args.delta]
    for _, params in runs:  # Monte Carlo's scales too, before any sectioning pass
        _montecarlo_scales(u, params, box, args.mc_samples)
    rows = []
    for delta, params in runs:
        # the fine estimate of energy_by_sectioning, without its coarse pass,
        # whose error estimate is not printed
        sect = _sectioning_pass(u, params, args.dirs, args.offsets)
        mc, stderr = energy_by_montecarlo(u, params, box, args.mc_samples, args.seed)
        rows.append(",".join([_fmt(delta), _fmt(sect), _fmt(mc), _fmt(stderr), _fmt(limit)]))
    print("\n".join(["delta,sectioning_estimate,mc_estimate,mc_stderr,limit", *rows]))
    return 0


@functools.cache  # one parser a process: parsing keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlg",
        description="threshold-type non-local energies: exact evaluation, "
                    "rearrangement tools, and convergence experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="limit constants as a CSV row")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("lambda", help="exact energy of a step function")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--segment", action="store_true",
                   help="vertically segment a piecewise affine input first")
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("segment", help="vertical segmentation of a piecewise "
                                       "affine function, as step-function JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("rearrange", help="monotone rearrangement of an arrangement "
                                         "or step function")
    p.add_argument("--input", required=True)
    p.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--output")
    p.set_defaults(fn=cmd_rearrange)

    p = sub.add_parser("hostility", help="total hostility of an arrangement")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--enemies", required=True)
    p.set_defaults(fn=cmd_hostility)

    p = sub.add_parser("fuzz", help="rearrangement property suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--species-max", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("converge-recovery", help="segmented recovery family "
                                                 "energies along a delta schedule")
    p.add_argument("--shape", choices=list(_SHAPES), required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--delta-start", type=float, required=True)
    p.add_argument("--delta-factor", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(fn=cmd_converge_recovery)

    p = sub.add_parser("converge-sectioning", help="d=2 sectioning vs Monte Carlo")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--shape", default="radial-tent")
    p.add_argument("--delta", type=float, nargs="+", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--dirs", type=int, default=48)
    p.add_argument("--offsets", type=int, default=192)
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_converge_sectioning)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_Usage, ValueError, OSError) as exc:  # SchemaError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _Usage) else 1


if __name__ == "__main__":
    sys.exit(main())
