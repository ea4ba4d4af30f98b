"""``import nlg`` loads no process or executor machinery.

``concurrent.futures`` alone adds several milliseconds to every CLI start,
and Monte Carlo runs its chunks on the calling thread.  A fresh interpreter
is used, so modules that pytest or other tests loaded do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_executor_modules():
    code = ("import sys, nlg, nlg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
