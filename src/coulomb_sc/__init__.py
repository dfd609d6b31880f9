"""Closed-form semiclassical Coulomb/Kepler energy Green functions.

The fixed-energy quantum propagator of the attractive 1/r problem in n >= 2
dimensions is evaluated analytically by projecting every trajectory pair
onto collinear motion through the two distance combinations
alpha_+- = r + r' +- s: reduced actions, travel times and the
Van Vleck-Pauli-Morette amplitude determinants all come out in closed
form, and the infinite loop sum collapses to a cotangent factor whose
poles are the exact bound-state energies.  A Langer-uniform Airy
approximation built on Hostler's closed form (n = 3) repairs the caustic,
a complex-action continuation covers classically forbidden points, and an
exact reference (n = 3, Hostler's form on one Numerov-integrated radial
channel) backs the validation suite and the comparison CLI.
"""

from .actions import (
    BasicActions,
    PathQuantity,
    basic_actions,
    four_paths,
    kepler_transfer_time,
    loop_variant,
    reduced_action_bound,
    reduced_action_bound_forbidden,
    reduced_action_repulsive_forbidden,
    reduced_action_scatter_attractive,
    reduced_action_scatter_repulsive,
    round_trip,
    scatter_velocity,
    travel_time_bound,
    velocity,
)
from .geometry import (
    LambertPair,
    Region,
    RegionClass,
    action_via_anomalies,
    anomaly_angles,
    classify_region,
    lambert_variables,
)
from .model import (
    AU,
    EnergySpec,
    SystemParams,
    energy_eigenvalue,
    energy_from_nu,
    quantization_action,
)
from .qm_oracle import RadialSolution, green_qm, qm_field, radial_green, solve_radial
from .semiclassical import (
    FieldSample,
    green_sc_bound,
    green_sc_bound_product,
    green_sc_bound_sum,
    green_sc_scatter_attractive,
    green_sc_tunnel,
    loop_factor,
)
from .uniform import UniformInputs, airy_ai, airy_ai_prime, green_uniform, uniform_inputs
from .vvpm import VvpmValue, dimensional_factor, morse_index, vvpm_det, vvpm_det_numeric
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AU",
    "BasicActions",
    "EnergySpec",
    "FieldSample",
    "LambertPair",
    "PathQuantity",
    "RadialSolution",
    "Region",
    "RegionClass",
    "SystemParams",
    "UniformInputs",
    "VvpmValue",
    "action_via_anomalies",
    "airy_ai",
    "airy_ai_prime",
    "anomaly_angles",
    "basic_actions",
    "classify_region",
    "dimensional_factor",
    "energy_eigenvalue",
    "energy_from_nu",
    "errors",
    "four_paths",
    "green_qm",
    "green_sc_bound",
    "green_sc_bound_product",
    "green_sc_bound_sum",
    "green_sc_scatter_attractive",
    "green_sc_tunnel",
    "green_uniform",
    "kepler_transfer_time",
    "lambert_variables",
    "loop_factor",
    "loop_variant",
    "morse_index",
    "qm_field",
    "quantization_action",
    "radial_green",
    "reduced_action_bound",
    "reduced_action_bound_forbidden",
    "reduced_action_repulsive_forbidden",
    "reduced_action_scatter_attractive",
    "reduced_action_scatter_repulsive",
    "round_trip",
    "scatter_velocity",
    "solve_radial",
    "travel_time_bound",
    "uniform_inputs",
    "velocity",
    "vvpm_det",
    "vvpm_det_numeric",
]
