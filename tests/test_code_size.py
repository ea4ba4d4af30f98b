"""A ratchet on the size of the library: each module's code lines stay at
or below its ceiling.

Code lines are counted as the change log counts them: the lines that hold
a token other than a comment, a newline or an indent, less the lines of
module, class and function docstrings (``tokenize`` and ``ast``).  A change
that shrinks a module lowers its ceiling here; one that must grow it
raises the ceiling and says why in CHANGES.md.

Each module also stays below ``MAX_TOKENS`` parser tokens.  Python 3.11's
parser keeps a module's tokens in an array that doubles when it fills,
and at 8192 entries that doubling raised the traced peak of compiling a
module from 2.80 to 3.27 MB.  The benchmark compiles ``nlg`` from source
inside its measured process, so one module past that step added about
0.45 MB to ``peak_rss_mb`` on every workload, more than that metric's
0.2 MB bound.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nlg"

CEILINGS = {
    "__init__.py": 16,
    "_quad.py": 107,
    "cli.py": 267,
    "constants.py": 47,
    "core.py": 291,
    "fields.py": 384,
    "functional1d.py": 280,
    "multidim.py": 162,
    "oracles.py": 176,
    "rearrange.py": 266,
}

# below the 8192-entry step of the parser's token array, with some room
MAX_TOKENS = 8000

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code, docstrings and comments excluded."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def parser_tokens(source: str) -> int:
    """Tokens of ``source`` as the parser reads them: comments, the newlines
    inside a logical line and the encoding left out."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
               for tok in tokenize.generate_tokens(io.StringIO(source).readline))


def test_code_lines_rule():
    source = '''"""Module
docstring."""

import os  # a comment


def f(x):
    """Its docstring."""
    # a comment line
    s = """a string
that is not a docstring"""
    return (x +
            1)
'''
    # import, def, the two lines of s, the two of the return
    assert code_lines(source) == 6
    # docstring, import, os, NEWLINE; def, f, (, x, ), :, NEWLINE, INDENT;
    # docstring, NEWLINE; s, =, string, NEWLINE; return, (, x, +, 1, ),
    # NEWLINE, DEDENT, ENDMARKER
    assert parser_tokens(source) == 28


def test_every_module_has_a_ceiling():
    assert sorted(p.name for p in SRC.glob("*.py")) == sorted(CEILINGS)


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_module_within_its_ceiling(module):
    got = code_lines((SRC / module).read_text())
    assert got <= CEILINGS[module], (
        f"{module} has {got} code lines, past its ceiling of {CEILINGS[module]}: "
        f"shrink it, or raise the ceiling and say why in CHANGES.md")


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_module_below_the_parser_step(module):
    got = parser_tokens((SRC / module).read_text())
    assert got < MAX_TOKENS, (
        f"{module} has {got} parser tokens, {MAX_TOKENS} or more: split it before it "
        f"reaches the parser's 8192-token step")
