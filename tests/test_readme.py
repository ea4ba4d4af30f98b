"""The README's command-line examples print what the README says they print.

Each ``$`` line of the block after "Examples:" runs in one temporary
directory, in order, with ``nlg`` as ``python -m nlg.cli``; its stdout
must equal the lines that follow it, byte for byte.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text()
    block = text[text.index("Examples:"):]
    block = block[block.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return [(command, "".join(out + "\n" for out in lines)) for command, lines in examples]


def test_readme_examples(tmp_path):
    examples = _examples()
    assert len(examples) == 5
    nlg = f"{shlex.quote(sys.executable)} -m nlg.cli"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command, expected in examples:
        shell = nlg + command[3:] if command.startswith("nlg ") else command
        proc = subprocess.run(shell, shell=True, cwd=tmp_path, env=env,
                              capture_output=True)
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout == expected.encode(), command
