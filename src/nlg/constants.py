"""The two constants that scale the limit of the non-local energies.

The limit of the energy family, as the threshold goes to 0, is

    (1/p) * spherical_moment(d, p) * staircase_constant(p) * local energy.

``staircase_constant`` is the one-dimensional factor produced by optimal
staircases, ``spherical_moment`` the purely geometric factor that enters
when a d-dimensional energy is averaged over line directions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class BadExponent(ValueError):
    """Exponent p below 1, or not finite."""


class BadDimension(ValueError):
    """Dimension d below 1 (or unsupported for the requested path)."""


class Provenance(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class LimitConstant:
    value: float
    provenance: Provenance

    def __post_init__(self):
        if not self.value >= 2.0 ** -1022:  # a subnormal float keeps too few bits
            raise ValueError(f"limit constants are positive normal floats, got {self.value}")


def staircase_constant(p: float) -> LimitConstant:
    """The one-dimensional limit factor: (1 - 2^(1-p))/(p - 1), log 2 at p = 1.

    Evaluated as -expm1(-(p-1) log 2)/(p-1), which is exact at every
    scale and in particular has no cancellation for p near 1, where the
    value tends continuously to log 2.
    """
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"p must be finite and >= 1, got {p}")
    if p == 1.0:
        return LimitConstant(math.log(2.0), Provenance.CLOSED_FORM)
    q = p - 1.0
    return LimitConstant(-math.expm1(-q * math.log(2.0)) / q, Provenance.CLOSED_FORM)


def _stirling_rest(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi) / 2: Stirling's series past
    its leading terms, to three terms from z = 50 (truncated below 1e-15)."""
    if z < 50.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z


def _pi_gamma_ratio(x: float, a: float, b: float) -> float:
    """pi^x * Gamma(a) / Gamma(b), for b = a + x and a >= 1.

    Where ``math.gamma`` overflows or the product is not finite, the
    leading terms (z - 1/2) ln z - z of Stirling's series for ln Gamma(a)
    and ln Gamma(b) are subtracted exactly: they differ by
    -(a - 1/2) log1p(x / a) - x ln b + x, so the value is (pi e / b)^x
    times the exponential of the log1p term and of the rest of the two
    series.  ``lgamma(a) - lgamma(b)`` would cancel instead, to a
    relative error of about a * 1e-16.
    """
    try:
        value = math.pi ** x * math.gamma(a) / math.gamma(b)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        value = (math.pi * math.e / b) ** x * math.exp(
            _stirling_rest(a) - _stirling_rest(b) - (a - 0.5) * math.log1p(x / a))
    return value


def spherical_moment(d: int, p: float) -> LimitConstant:
    """Integral of |<v, sigma>|^p over the unit sphere in dimension d.

    The value does not depend on the unit vector v.  The closed form is

        2 * pi^((d-1)/2) * Gamma((p+1)/2) / Gamma((p+d)/2),

    which ``oracles.spherical_moment_quadrature`` verifies independently.
    At d = 1 it is exactly 2, the two-point sphere {-1, 1} with counting
    measure.
    """
    if int(d) != d or d < 1:
        raise BadDimension(f"d must be a positive integer, got {d!r}")
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"p must be finite and >= 1, got {p}")
    value = 2.0 * _pi_gamma_ratio((d - 1) / 2.0, (p + 1.0) / 2.0, (p + d) / 2.0)
    return LimitConstant(value, Provenance.CLOSED_FORM)


def gamma_limit_constant(d: int, p: float) -> LimitConstant:
    """(1/p) * spherical_moment(d, p) * staircase_constant(p)."""
    g = spherical_moment(d, p)
    c = staircase_constant(p)
    return LimitConstant(g.value * c.value / p, Provenance.CLOSED_FORM)
