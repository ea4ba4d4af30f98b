"""The oracles of ``nlg.oracles`` share no code with the closed forms they
check.

The module may take classes from the other ``nlg`` modules (exceptions,
parameter records, domain types) and the adaptive rule of ``nlg._quad``,
and nothing else; it never imports ``nlg.rearrange``, whose array forms
its discrete oracles check; and none of its functions names a closed form
or the engine code the closed forms are built from (``CLOSED_FORMS``, the
list the Monte Carlo test in ``test_multidim.py`` uses too).
"""

import ast
import math
import importlib
import inspect
from pathlib import Path

import pytest

from nlg import _quad, oracles

from conftest import CLOSED_FORMS

SRC = Path(oracles.__file__).resolve().parent
SOURCE = (SRC / "oracles.py").read_text()

ORACLES = ("pair_cell_quadrature", "energy_quadrature", "pointwise_hostility",
           "integrate_pointwise_hostility", "spherical_moment_quadrature", "total_hostility",
           "brute_force_min_hostility", "multiset_permutations", "count_multiset_permutations")


def shared_code(source: str) -> list[str]:
    """What ``source``, read as a module of ``nlg``, shares with the rest of
    the package: each name it imports from an ``nlg`` module that is not a
    class (``nlg._quad`` aside), each import of ``nlg.rearrange``, and each
    name of ``CLOSED_FORMS`` that it mentions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "nlg"]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nlg")):
            base = ".".join(filter(None, ("nlg", node.module))) if node.level else node.module
            if base == "nlg.rearrange":
                found.append(base)
            for alias in node.names:
                if (base, alias.name) == ("nlg", "_quad"):
                    continue
                owner = importlib.import_module(base)
                if alias.name in CLOSED_FORMS \
                        or not inspect.isclass(getattr(owner, alias.name, None)):
                    found.append(f"{base}.{alias.name}")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in CLOSED_FORMS:
                found.append(name)
    return found


def test_oracles_share_no_code_with_the_closed_forms():
    assert shared_code(SOURCE) == []


@pytest.mark.parametrize("planted", [
    "from .functional1d import _pair_energies\n",
    "from .functional1d import step_cells\n",
    "from .rearrange import BadBounds\n",
    "from . import functional1d\n",
    "import nlg.core\n",
    "def scale(u, params):\n    return step_energy(u, u.domain, params)\n",
])
def test_a_planted_share_is_caught(planted):
    assert shared_code(SOURCE + "\n" + planted)


def test_every_oracle_lives_in_oracles():
    for name in ORACLES:
        assert getattr(oracles, name).__module__ == "nlg.oracles", name
    for path in sorted(SRC.glob("*.py")):
        if path.name != "oracles.py":
            defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.FunctionDef)}
            assert not defined & set(ORACLES), (path.name, defined & set(ORACLES))


def test_every_quadrature_raises_the_one_budget_exception(monkeypatch):
    # a rule out of budget raises the oracles' ToleranceNotReached, a
    # RuntimeError carrying the estimate reached, whichever caller it serves
    from nlg import Direction, Interval, RadialTent, StepFunction1D, TensorTent, fields, section
    from nlg.functional1d import EnergyParams

    assert _quad.ToleranceNotReached is oracles.ToleranceNotReached
    assert issubclass(oracles.ToleranceNotReached, RuntimeError)
    assert not hasattr(_quad, "BudgetExhausted")
    monkeypatch.setattr(_quad, "_MAX_INTERVALS", 3)
    params = EnergyParams(0.1, 1.5)
    step = StepFunction1D((0.0, 0.3, 0.7, 1.0), (0.1, 0.2, 0.1))
    sigma = Direction.from_angle(0.4)
    radial = section(RadialTent((0.0, 0.0), 1.0, 1.0), sigma, 0.3)
    poly = section(TensorTent((0.0, 0.0), (1.0, 0.8), 1.0), sigma, 0.2)
    assert isinstance(radial, fields.RadialSection) and isinstance(poly, fields.PolySection)
    for run in (lambda: oracles.pair_cell_quadrature(Interval(0.0, 1.0), Interval(1.5, 3.0),
                                                     params),
                lambda: oracles.spherical_moment_quadrature(2, 1.5),
                lambda: oracles.spherical_moment_quadrature(3, 1.5),
                lambda: oracles.integrate_pointwise_hostility(step, params),
                lambda: radial.local_energy(1.5),
                lambda: poly.local_energy(1.5),
                lambda: oracles.energy_quadrature(lambda x: x, 1.0, Interval(0.0, 1.0), params,
                                                  1e-12, max_cells=100)):
        with pytest.raises(oracles.ToleranceNotReached) as got:
            run()
        assert type(got.value) is oracles.ToleranceNotReached
        assert math.isfinite(got.value.estimate) and got.value.error_estimate > 0.0
