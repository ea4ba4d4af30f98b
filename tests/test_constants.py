import math

import numpy as np
import pytest

from nlg import (LimitConstant, Provenance, gamma_limit_constant,
                 spherical_moment, spherical_moment_quadrature,
                 staircase_constant)
from nlg.constants import BadDimension, BadExponent


def test_staircase_constant_values():
    assert math.isclose(staircase_constant(1.0).value, math.log(2.0), rel_tol=1e-15)
    assert math.isclose(staircase_constant(2.0).value, 0.5, rel_tol=1e-15)
    assert math.isclose(staircase_constant(3.0).value, 3.0 / 8.0, rel_tol=1e-15)


def test_staircase_constant_continuity_at_one():
    assert abs(staircase_constant(1.0 + 1e-9).value - math.log(2.0)) < 1e-8
    assert abs(staircase_constant(1.0 + 1e-12).value - math.log(2.0)) < 1e-11


def test_staircase_constant_monotone_decreasing_in_range():
    ps = np.linspace(1.0, 8.0, 200)
    vals = [staircase_constant(float(p)).value for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= math.log(2.0) + 1e-15 for v in vals)


def test_staircase_constant_bad_exponent():
    with pytest.raises(BadExponent):
        staircase_constant(0.5)


@pytest.mark.parametrize("constant", [
    staircase_constant,
    lambda p: spherical_moment(1, p),
    lambda p: spherical_moment(2, p),
    lambda p: spherical_moment_quadrature(2, p),
], ids=["staircase", "moment_d1", "moment_d2", "moment_quadrature_d2"])
def test_infinite_exponent_is_a_bad_exponent(constant):
    with pytest.raises(BadExponent, match="p must be finite"):
        constant(math.inf)


def test_spherical_moment_dimension_one():
    for p in (1.0, 1.7, 3.0):
        lc = spherical_moment(1, p)
        assert lc.value == 2.0
        assert lc.provenance is Provenance.CLOSED_FORM


def test_spherical_moment_closed_forms():
    assert math.isclose(spherical_moment(2, 2.0).value, math.pi, rel_tol=1e-14)
    assert math.isclose(spherical_moment(2, 1.0).value, 4.0, rel_tol=1e-14)
    assert math.isclose(spherical_moment(3, 2.0).value, 4.0 * math.pi / 3.0,
                        rel_tol=1e-14)


def test_spherical_moment_vs_quadrature():
    for d in (2, 3):
        for p in (1.0, 2.0, 3.5):
            closed = spherical_moment(d, p).value
            quad = spherical_moment_quadrature(d, p)
            assert quad.provenance is Provenance.QUADRATURE
            assert math.isclose(closed, quad.value, rel_tol=1e-8)


def test_spherical_moment_errors():
    with pytest.raises(BadDimension):
        spherical_moment(0, 2.0)
    with pytest.raises(BadExponent):
        spherical_moment(2, 0.9)
    with pytest.raises(BadDimension):
        spherical_moment_quadrature(4, 2.0)


def test_gamma_limit_constant():
    assert math.isclose(gamma_limit_constant(1, 1.0).value, 2.0 * math.log(2.0),
                        rel_tol=1e-15)
    assert math.isclose(gamma_limit_constant(1, 2.0).value, 0.5, rel_tol=1e-15)
    assert math.isclose(gamma_limit_constant(2, 2.0).value, math.pi / 4.0,
                        rel_tol=1e-14)


def test_gamma_limit_dimension_one_identity():
    for p in (1.0, 1.5, 2.0, 4.0):
        lhs = gamma_limit_constant(1, p).value
        rhs = 2.0 / p * staircase_constant(p).value
        assert math.isclose(lhs, rhs, rel_tol=1e-15)


def test_limit_constant_positive():
    with pytest.raises(ValueError):
        LimitConstant(0.0, Provenance.CLOSED_FORM)
