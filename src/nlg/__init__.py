"""Non-local threshold energies, rearrangement operators, and their limits.

The package computes, exactly on step functions and numerically on
Lipschitz functions, the family of non-local energies whose integrand is
the singular kernel delta^p/|y-x|^(d+p) restricted to pairs of points
where the function values differ by more than delta.  It ships the
operator toolbox (vertical segmentation, truncation, monotone
rearrangement, hostility functionals with their gap formulas), the limit
constants, d-dimensional estimators by line sectioning and Monte Carlo,
and brute-force / quadrature oracles against which every closed form is
tested.
"""

from .core import (DiscreteArrangement, EnemyList, HostilityWeights, Interval,
                   FULL_LINE, PiecewiseAffine1D, SchemaError, StepFunction1D,
                   TailMode, validate_and_build)
from .functional1d import EnergyParams, local_energy, pair_cell_energy, step_cells, step_energy
from .constants import (LimitConstant, Provenance, gamma_limit_constant, spherical_moment,
                        staircase_constant)
from .oracles import (brute_force_min_hostility, energy_quadrature,
                      integrate_pointwise_hostility, multiset_permutations, pair_cell_quadrature,
                      pointwise_hostility, spherical_moment_quadrature, total_hostility)
from .rearrange import (clamp_values, hostility_gap, left_right_gap, monotone_rearrangement,
                        monotone_rearrangement_step, reduce_arrangement, step_hostility,
                        vertical_segmentation)
from .fields import (AffineRamp, Box, Direction, RadialTent, TensorTent, local_energy_field,
                     section)
from .multidim import energy_by_montecarlo, energy_by_sectioning, local_energy_by_sectioning

__version__ = "0.1.0"
