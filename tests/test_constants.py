import math
import sys

import numpy as np
import pytest

from nlg import (LimitConstant, Provenance, RadialTent, gamma_limit_constant,
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
    for p in (1.0, 1.7, 3.0, 171.0, 400.0, 1e17, 1e300, 1.7e308):
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
        for p in (1.0, 2.0, 3.5, 100.0, 400.0, 1000.0):
            closed = spherical_moment(d, p).value
            quad = spherical_moment_quadrature(d, p)
            assert quad.provenance is Provenance.QUADRATURE
            assert math.isclose(closed, quad.value, rel_tol=1e-8)


def _moment_mp(mp, d, p):
    """The closed form of the spherical moment in mpmath."""
    p = mp.mpf(p)
    return 2 * mp.pi ** (mp.mpf(d - 1) / 2) * mp.gamma((p + 1) / 2) / mp.gamma((p + d) / 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 10, 100, 400])
def test_closed_forms_match_mpmath_past_the_range_of_math_gamma(d):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for p in (1.0, 1.5, 2.0, 10.0, 100.0, 400.0, 1000.0):
            want = _moment_mp(mp, d, p)
            if want < sys.float_info.min:
                # d = 400 from p = 100 (1e-327 and below): no normal float holds it
                with pytest.raises(ValueError, match="positive"):
                    spherical_moment(d, p)
                continue
            assert spherical_moment(d, p).value == pytest.approx(float(want), rel=1e-12)
            stairs = mp.log(2) if p == 1.0 else (1 - mp.mpf(2) ** (1 - p)) / (p - 1)
            assert gamma_limit_constant(d, p).value == pytest.approx(
                float(want * stairs / p), rel=1e-12)


def test_spherical_moment_at_large_p_matches_mpmath():
    # past math.gamma's range, lgamma(a) - lgamma(b) would cancel to a relative
    # error of about p * 1e-16 (2.3e-5 at p = 1e10)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(150):
        for d in (2, 3, 10):
            for p in (1e4, 1e10, 1e17, 1e100):
                p_mp = mp.mpf(p)
                want = 2 * mp.pi ** (mp.mpf(d - 1) / 2) * mp.exp(
                    mp.loggamma((p_mp + 1) / 2) - mp.loggamma((p_mp + d) / 2))
                if want > sys.float_info.min:
                    assert spherical_moment(d, p).value == pytest.approx(float(want),
                                                                         rel=1e-12)


def test_spherical_moment_keeps_the_gamma_expression_where_it_is_finite():
    for d in range(2, 13):
        for p in np.linspace(1.0, 150.0, 299):
            p = float(p)
            want = (2.0 * math.pi ** ((d - 1) / 2.0)
                    * math.gamma((p + 1.0) / 2.0) / math.gamma((p + d) / 2.0))
            assert spherical_moment(d, p).value == want


def test_radial_tent_local_energy_in_dimension_400():
    # the ball volume pi^200 / Gamma(201) is past math.gamma's range from d = 342
    mp = pytest.importorskip("mpmath")
    u = RadialTent((0.0,) * 400, 1.5, 2.0)
    with mp.workdps(50):
        for p in (1.0, 2.0):
            want = ((mp.mpf(2) / mp.mpf(1.5)) ** p * mp.pi ** 200 / mp.gamma(201)
                    * mp.mpf(1.5) ** 400)
            assert u.local_energy(p) == pytest.approx(float(want), rel=1e-12)


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
    # subnormal: spherical_moment(341, 342.0) is 6.6e-324, which rounds to 1e-323
    with pytest.raises(ValueError, match="normal"):
        spherical_moment(341, 342.0)
