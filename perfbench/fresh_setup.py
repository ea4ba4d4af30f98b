"""One set-up sample: a fresh interpreter imports nlg and writes the inputs.

    python3 perfbench/fresh_setup.py WORKLOAD SEED INPUT_DIR [--smoke]

``run.py`` starts this several times and times each process from spawn
to exit; that is ``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_nlg():
    """Import ``nlg`` from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nlg
    import nlg.cli
    if Path(nlg.__file__).resolve().parent != (src / "nlg").resolve():
        raise ImportError(f"nlg was imported from {nlg.__file__}, not from {src}")
    return nlg


def main(argv: list[str]) -> None:
    workload, seed, input_dir = argv[0], int(argv[1]), Path(argv[2])
    import_nlg()
    w = workloads.build(workload, seed, input_dir, smoke="--smoke" in argv[3:])
    workloads.write_inputs(w, seed, input_dir)


if __name__ == "__main__":
    main(sys.argv[1:])
