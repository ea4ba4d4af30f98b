"""The public names of ``nlg``, pinned: a change that moves code between
modules keeps them, and one that adds or removes a name says so here."""

import inspect

import nlg

PUBLIC = [
    "AffineRamp", "Box", "Direction", "DiscreteArrangement", "EnemyList", "EnergyParams",
    "FULL_LINE", "HostilityWeights", "Interval", "LimitConstant", "PiecewiseAffine1D",
    "Provenance", "RadialTent", "SchemaError", "StepFunction1D", "TailMode", "TensorTent",
    "brute_force_min_hostility", "clamp_values", "energy_by_montecarlo", "energy_by_sectioning",
    "energy_quadrature", "gamma_limit_constant", "hostility_gap", "integrate_pointwise_hostility",
    "left_right_gap", "local_energy", "local_energy_by_sectioning", "local_energy_field",
    "monotone_rearrangement", "monotone_rearrangement_step", "multiset_permutations",
    "pair_cell_energy", "pair_cell_quadrature", "pointwise_hostility", "reduce_arrangement",
    "section", "spherical_moment", "spherical_moment_quadrature", "staircase_constant",
    "step_cells", "step_energy", "step_hostility", "total_hostility", "validate_and_build",
    "vertical_segmentation",
]


def test_public_names_are_pinned():
    # the submodules are left out: which of them are attributes of the
    # package depends on what the test session imported
    got = sorted(name for name, value in vars(nlg).items()
                 if not name.startswith("_") and not inspect.ismodule(value))
    assert got == PUBLIC
