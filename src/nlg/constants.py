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
        if not self.value > 0.0:
            raise ValueError(f"limit constants are positive, got {self.value}")


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


def spherical_moment(d: int, p: float) -> LimitConstant:
    """Integral of |<v, sigma>|^p over the unit sphere in dimension d.

    The value does not depend on the unit vector v.  For d = 1 the sphere
    is the two-point set {-1, 1} with counting measure, giving exactly 2.
    For d >= 2 the closed form is

        2 * pi^((d-1)/2) * Gamma((p+1)/2) / Gamma((p+d)/2),

    which ``oracles.spherical_moment_quadrature`` verifies independently.
    """
    if int(d) != d or d < 1:
        raise BadDimension(f"d must be a positive integer, got {d!r}")
    if not 1.0 <= p < math.inf:
        raise BadExponent(f"p must be finite and >= 1, got {p}")
    if d == 1:
        return LimitConstant(2.0, Provenance.CLOSED_FORM)
    value = (2.0 * math.pi ** ((d - 1) / 2.0)
             * math.gamma((p + 1.0) / 2.0) / math.gamma((p + d) / 2.0))
    return LimitConstant(value, Provenance.CLOSED_FORM)


def gamma_limit_constant(d: int, p: float) -> LimitConstant:
    """(1/p) * spherical_moment(d, p) * staircase_constant(p)."""
    g = spherical_moment(d, p)
    c = staircase_constant(p)
    return LimitConstant(g.value * c.value / p, Provenance.CLOSED_FORM)
