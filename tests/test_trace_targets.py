"""The benchmark tracer's bindings exist in ``nlg``.

``perfbench/tracing.py`` rebinds names such as ``multidim.section`` and
``multidim.RadialSection.step_segmentation`` by attribute path, so a
renamed function breaks ``perfbench/run.py --trace 1`` and nothing else.
The tracer is loaded by its path and its own ``_resolve`` is used; nothing
is installed.
"""

import importlib.util
from pathlib import Path

import nlg
import nlg.cli  # noqa: F401 -- the tracer looks up nlg.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, targets in tracing.TARGETS.items():
        for module, attr in targets:
            owner, last = tracing._resolve(nlg, module, attr)
            assert callable(getattr(owner, last, None)), (name, module, attr)
