"""Seeded corpora pinned by SHA-256: the bit-identity claims as a test.

Each family below runs a fixed, seeded set of inputs through one part of
``nlg`` and hashes what comes out: floats as their ``float.hex`` strings,
arrays as their little-endian bytes (float64 and int64; gap counts are
cast to int64, so that a change of a table's dtype alone moves nothing),
and CLI output as its bytes.  A change that moves one bit of one result changes
the family's digest.  Such a change must say why, and re-pin the digest
where the diff shows it: a failing family's message names the digest it
computed, which is the one to pin.

The digests pin numpy's and libm's rounding too (``np.log1p``, pairwise
sums, ``np.tan`` in the Monte Carlo directions, ``math.cos`` and
``math.sin`` in the sectioning directions), so they hold for the numpy
version and platform stored next to them.  On any other, every family
fails with a message that names both, rather than passing or skipping.
Two families depend on numpy's SIMD dispatch as well (array ``np.power``
rounds differently with the AVX-512 loops than without them), so they
are pinned once for each dispatch, and the pin of the dispatch in use is
checked; a subprocess with the AVX-512 loops switched off checks the
other.  Every failure message names the dispatch.

The tent's and the ramp's rows at delta <= 1e-5 are pinned as they are
today: ``step_energy`` reads ``inf`` there, because ``k * delta`` near 1
carries more rounding error than the guard allows and adjacent cells
count as interacting (ROADMAP item 1).  The fix for that defect moves
these rows on purpose.
"""

import contextlib
import hashlib
import io
import platform
import sys

import numpy as np
import pytest

from nlg import (AffineRamp, Box, EnemyList, EnergyParams, Interval, RadialTent,
                 TensorTent, step_energy, step_hostility, vertical_segmentation)
from nlg.cli import _SHAPES, _fuzz_blocks, main
from nlg.multidim import energy_by_montecarlo, energy_by_sectioning
from nlg.rearrange import hostile_gap_counts

from conftest import numpy_dispatch, run_under_baseline_dispatch
from test_rearrange import _random_pwa

PINNED_ON = ("2.4.6", "linux x86_64")

DIGESTS = {
    "segment_random":
        "d8b7ce589036010b48216d162687903fab6785ec986a613ce81bfba51608f71e",
    "segment_shapes":
        "3ef38ae5422aa7ea25aa287e1d58c5b56f0abfd26c497388a559a5e130efe9e1",
    "energy_random": {
        "X86_V4": "91e61c40db8917ad75bad00ce960b00c10cba98353e1ad039d5d6bcb38aafb12",
        "pre-X86_V4": "e2ae173339596e9a2a293e7c0e17bc1aae42fce88ab0357496527d20aa3f2d92"},
    "energy_shapes":
        "abff8ae99553aa33f86ba66509b895faacae086c14bd047f86f60484acd45498",
    "sectioning": {
        "X86_V4": "9ed4bba406a0a0e0f8998ba2232aee57629adc7dd4bd29f0dc2f6b40b2ea5a68",
        "pre-X86_V4": "8874a912adb1c76c3263677da9beb49537e35e29866198fddbaa38f353c6bbf4"},
    "montecarlo":
        "6d6d285513287ac619f413d837516f585b4faaac707091756dede67de8bbcf1c",
    "fuzz_counts":
        "76692540fff1b282085023f22b9a2f7c72a30c12001279d00ca123e71f531137",
    "fuzz_stdout":
        "dbd4b9fca932fb55276e6a9e8b6d7f4bf170a5a778b77d2b8a604b592ed10cdc",
}


def _here() -> tuple[str, str]:
    return np.__version__, f"{sys.platform} {platform.machine()}"


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def floats(self, *xs):
        for x in xs:
            self._h.update(float(x).hex().encode() + b";")

    def array(self, a):
        a = np.asarray(a)
        a = a.astype("<f8" if a.dtype.kind == "f" else "<i8", copy=False)
        self._h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())

    def raw(self, b: bytes):
        self._h.update(len(b).to_bytes(8, "little") + b)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _step(d: _Digest, s):
    d.array(s.breakpoints)
    d.array(s.values)


def _random_inputs():
    rng = np.random.default_rng(20261019)
    for trial in range(200):
        delta = float(rng.choice((0.5, 0.1, 1 / 3, 0.013, 0.07)))
        u = _random_pwa(rng, delta, compact=trial % 2 == 0)
        yield u, delta, vertical_segmentation(u, delta)


def _shape_inputs(deltas):
    for name in ("tent", "ramp"):
        u = _SHAPES[name]
        for delta in deltas:
            yield u, delta, vertical_segmentation(u, delta)


SHAPE_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _segment_random(d):
    for _, _, s in _random_inputs():
        _step(d, s)


def _segment_shapes(d):
    for _, _, s in _shape_inputs(SHAPE_DELTAS):
        _step(d, s)


def _energies(d, inputs, ps):
    for u, delta, s in inputs:
        # the span of the nodes is inside every function's support
        domain = Interval(u.nodes[0][0], u.nodes[-1][0])
        for p in ps:
            params = EnergyParams(delta, p)
            d.floats(step_energy(s, None, params), step_energy(s, domain, params))
            for k in (1, 2):
                d.floats(step_hostility(s, domain, k, params))


def _energy_random(d):
    _energies(d, _random_inputs(), (1.0, 1.5))


def _energy_shapes(d):
    # step_hostility's 2e6-cell tent at 1e-6 alone would take most of the budget
    _energies(d, _shape_inputs(SHAPE_DELTAS[:-1]), (1.0, 2.0))
    for u, delta, s in _shape_inputs(SHAPE_DELTAS[-1:]):
        d.floats(step_energy(s, None, EnergyParams(delta, 1.0)))


def _sectioning(d):
    fields = (RadialTent((0.0, 0.0), 1.0, 1.0),
              TensorTent((0.05, -0.1), (1.0, 0.7), 1.2),
              AffineRamp((1.5, -0.5), Box((0.0, 0.0), (1.0, 1.0))))
    for u in fields:
        for delta in (0.1, 0.02):
            for p in (1.0, 1.5, 2.0):
                d.floats(*energy_by_sectioning(u, EnergyParams(delta, p), 8, 32))


def _montecarlo(d):
    u = RadialTent((0.1, -0.2), 0.8, 1.3)
    box = Box((-1.0, -1.5), (1.0, 1.0))
    d.floats(*energy_by_montecarlo(u, EnergyParams(0.1, 1.5), box, 20_000, 3))


def _fuzz_counts(d):
    for species, k in ((3, 1), (4, 2), (2, 1)):
        enemies = EnemyList.band_complement(k)
        for n, first, u, cu, mu, cm, ru, cr, *_ in _fuzz_blocks(enemies, 6, species):
            # as int64 whatever the dtype: the counts, not their type, are pinned
            for counts in (hostile_gap_counts(enemies, u), cu, cm, cr):
                if counts is not None:
                    d.array(np.asarray(counts, dtype=np.int64))


def _fuzz_stdout(d):
    # the benchmark's two fuzz argument lists
    for argv in (["--n-max", "8", "--species-max", "3", "--k", "1"],
                 ["--n-max", "7", "--species-max", "4", "--k", "2"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fuzz", *argv, "--seed", "1"])
        d.raw(f"{code}\n{out.getvalue()}".encode())


FAMILIES = {"segment_random": _segment_random, "segment_shapes": _segment_shapes,
            "energy_random": _energy_random, "energy_shapes": _energy_shapes,
            "sectioning": _sectioning, "montecarlo": _montecarlo,
            "fuzz_counts": _fuzz_counts, "fuzz_stdout": _fuzz_stdout}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_digest(family):
    d = _Digest()
    FAMILIES[family](d)
    got = d.hexdigest()
    here, dispatch = _here(), numpy_dispatch()
    assert here == PINNED_ON, (
        f"digests were pinned on numpy {PINNED_ON[0]} on {PINNED_ON[1]}; this is "
        f"numpy {here[0]} on {here[1]} ({dispatch} dispatch): results may differ in the "
        f"last bit, so re-pin on this platform ({family} computes {got}) and say why in CHANGES")
    pin = DIGESTS[family]
    pin = pin[dispatch] if isinstance(pin, dict) else pin
    assert got == pin, (
        f"{family}: digest {got} differs from the pinned one (numpy {here[0]} on "
        f"{here[1]}, {dispatch} dispatch, as pinned): results moved by at least one bit")


@pytest.mark.parametrize("family", sorted(f for f, pin in DIGESTS.items() if isinstance(pin, dict)))
def test_digest_under_the_baseline_dispatch(family):
    # the families pinned once for each dispatch: their baseline pins, in a
    # subprocess with numpy's AVX-512 loops switched off
    run_under_baseline_dispatch(f"import test_digests; test_digests.test_digest({family!r})")


def test_montecarlo_digest_under_the_baseline_dispatch():
    # a layout change in the Monte Carlo chunk must not route np.tan, the
    # radius power or np.sqrt through another SIMD loop: the family keeps its
    # digest with those loops switched off, in a subprocess of its own
    run_under_baseline_dispatch("import test_digests; test_digests.test_digest('montecarlo')")
