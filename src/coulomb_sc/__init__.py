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

Each public name is imported from its submodule on first access (PEP 562),
so that importing the package, or a command that needs a few of its
modules, compiles only those.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "actions": ("BasicActions", "PathQuantity", "basic_actions", "four_paths",
                "loop_variant", "reduced_action_bound", "reduced_action_bound_forbidden",
                "reduced_action_repulsive_forbidden", "reduced_action_scatter_attractive",
                "reduced_action_scatter_repulsive", "round_trip", "scatter_velocity",
                "travel_time_bound", "velocity"),
    "geometry": ("LambertPair", "Region", "RegionClass", "anomaly_angles",
                 "classify_region", "lambert_variables"),
    "model": ("AU", "EnergySpec", "SystemParams", "energy_eigenvalue", "energy_from_nu",
              "quantization_action"),
    "qm_oracle": ("RadialSolution", "green_qm", "qm_field", "solve_radial"),
    "semiclassical": ("FieldSample", "green_sc_bound", "green_sc_scatter_attractive",
                      "green_sc_tunnel", "loop_factor"),
    "uniform": ("UniformInputs", "green_uniform", "uniform_inputs"),
    "vvpm": ("VvpmValue", "morse_index", "vvpm_det"),
}.items() for name in names}

__all__ = sorted([*_EXPORTS, "errors"])


def __getattr__(name):
    """A public name, imported from its submodule on first access and then
    kept in the package namespace."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
