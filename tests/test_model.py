import math

import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc.errors import UnsupportedDimensionError

from oracles import (green_sc_bound_product, green_sc_bound_sum, kepler_transfer_time,
                     radial_green)


def test_eigenvalue_ground_states(au):
    assert cs.energy_eigenvalue(0, au) == pytest.approx(-0.5, rel=1e-15)
    assert cs.energy_eigenvalue(0, au.with_ndim(2)) == pytest.approx(-2.0, rel=1e-15)
    assert cs.energy_eigenvalue(1, au) == pytest.approx(-0.125, rel=1e-15)


def test_eigenvalue_general_dimension(au):
    # E_k = -1/(2 (k + (n-1)/2)^2) in atomic units
    for n in (2, 3, 4, 5):
        for k in (0, 3, 7):
            e = cs.energy_eigenvalue(k, au.with_ndim(n))
            assert e == pytest.approx(-0.5 / (k + (n - 1) / 2) ** 2, rel=1e-14)


def test_energy_from_nu_values(au):
    spec = cs.energy_from_nu(29.2, au)
    assert spec.E == pytest.approx(-1.0 / (2.0 * 29.2**2), rel=1e-14)
    assert spec.E == pytest.approx(-5.864e-4, rel=1e-3)
    assert spec.k == pytest.approx(28.2, rel=1e-12)

    ground = cs.energy_from_nu(1.0, au)
    assert ground.E == pytest.approx(-0.5, rel=1e-14)
    assert ground.a == pytest.approx(1.0, rel=1e-14)


def test_energy_from_nu_round_trip(au, rng):
    for n in (2, 3, 5):
        par = au.with_ndim(n)
        for _ in range(50):
            nu = rng.uniform(0.3, 60.0)
            spec = cs.energy_from_nu(nu, par)
            assert spec.nu == pytest.approx(nu, rel=1e-14)
            back = cs.EnergySpec.from_energy(spec.E, par)
            assert back.k == pytest.approx(spec.k, rel=1e-12, abs=1e-12)


def test_quantization_action(au):
    assert cs.quantization_action(0, au) == pytest.approx(2 * math.pi, rel=1e-15)
    assert cs.quantization_action(0, au.with_ndim(2)) == pytest.approx(math.pi, rel=1e-15)
    assert cs.quantization_action(2, au) == pytest.approx(6 * math.pi, rel=1e-15)


def test_round_trip_action_matches_quantization(au):
    # at eigenvalue energies the closed-orbit action equals h (k + (n-1)/2)
    for n in (2, 3, 4, 5):
        par = au.with_ndim(n)
        for k in range(0, 12):
            spec = cs.EnergySpec.from_energy(cs.energy_eigenvalue(k, par), par)
            w2pi, _ = cs.round_trip(spec, par)
            assert w2pi == pytest.approx(cs.quantization_action(k, par), rel=1e-12)


def test_spec_invariants(au, rng):
    for _ in range(30):
        e = -math.exp(rng.uniform(math.log(1e-5), math.log(5.0)))
        spec = cs.EnergySpec.from_energy(e, au)
        assert spec.a == pytest.approx(au.Kc / (2 * abs(e)), rel=1e-15)
        assert spec.nu == spec.k + 1.0


def test_positive_energy_spec(au):
    spec = cs.EnergySpec.from_energy(0.25, au)
    assert spec.a == pytest.approx(2.0)
    assert math.isnan(spec.k) and math.isnan(spec.nu)


def test_parameter_validation():
    with pytest.raises(ValueError):
        cs.SystemParams(mu=-1.0)
    with pytest.raises(ValueError):
        cs.SystemParams(Kc=0.0)
    with pytest.raises(ValueError):
        cs.SystemParams(ndim=1)
    with pytest.raises(ValueError):
        cs.energy_eigenvalue(-1, cs.AU)
    with pytest.raises(ValueError):
        cs.energy_from_nu(0.0, cs.AU)
    with pytest.raises(ValueError):
        cs.EnergySpec.from_energy(0.0, cs.AU)


@pytest.mark.parametrize("field", ["mu", "Kc", "hbar"])
def test_parameter_must_be_finite(field):
    # NaN passes a "<= 0" test; every bound evaluator would then fail in
    # round() of the pole check instead of here
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            cs.SystemParams(**{field: value})


# each refused field value, with the message its check raises
_BAD_FIELDS = [("mu", -1.0, "mu must be finite and positive"),
               ("mu", math.nan, "mu must be finite and positive"),
               ("Kc", 0.0, "Kc must be finite and positive"),
               ("hbar", math.inf, "hbar must be finite and positive"),
               ("ndim", 1, "ndim must be an integer >= 2"),
               ("ndim", 2.5, "ndim must be an integer >= 2")]


@pytest.mark.parametrize("build", ["keywords", "positional", "_make", "_replace",
                                   "with_ndim"])
def test_every_way_of_building_params_validates(build):
    for field, value, message in _BAD_FIELDS:
        if build == "with_ndim" and field != "ndim":
            continue
        fields = [value if name == field else getattr(cs.AU, name) for name in cs.AU._fields]
        make = {"keywords": lambda: cs.SystemParams(**{field: value}),
                "positional": lambda: cs.SystemParams(*fields),
                "_make": lambda: cs.SystemParams._make(fields),
                "_replace": lambda: cs.AU._replace(**{field: value}),
                "with_ndim": lambda: cs.AU.with_ndim(value)}[build]
        with pytest.raises(ValueError, match=message):
            make()


def test_params_are_an_immutable_value():
    p = cs.SystemParams(mu=2.0, ndim=4)
    assert repr(p) == "SystemParams(mu=2.0, Kc=1.0, hbar=1.0, ndim=4, attractive=True)"
    assert p == cs.SystemParams(2.0, 1.0, 1.0, 4, True) == cs.AU._replace(mu=2.0).with_ndim(4)
    assert hash(p) == hash(cs.SystemParams(2.0, ndim=4))
    assert p != cs.AU.with_ndim(4) and not p == cs.AU.with_ndim(4)
    # a named tuple that equals no plain tuple of its fields
    assert p != (2.0, 1.0, 1.0, 4, True) and not (2.0, 1.0, 1.0, 4, True) == p
    with pytest.raises(AttributeError):
        p.mu = 1.0
    with pytest.raises(AttributeError):
        p.extra = 1.0


# an allowed pair at nu = 9.7 (4a = 376 Bohr), n = 3, and a tunnel pair
# (alpha_+ = 785, alpha_- = 115)
_R, _RP = np.array([80.0, 30.0, 0.0]), np.array([50.0, 0.0, 0.0])
_PAIR = cs.lambert_variables(_R, _RP)
_R_TUNNEL, _RP_TUNNEL = np.array([300.0, 0.0, 0.0]), np.array([0.0, 150.0, 0.0])

BOUND_ONLY = {
    "velocity": lambda sp, par: cs.velocity(100.0, sp, par),
    "reduced_action_bound": lambda sp, par: cs.reduced_action_bound(100.0, sp, par),
    "travel_time_bound": lambda sp, par: cs.travel_time_bound(100.0, sp, par),
    "reduced_action_bound_forbidden":
        lambda sp, par: cs.reduced_action_bound_forbidden(500.0, sp, par),
    "round_trip": cs.round_trip,
    "kepler_transfer_time": lambda sp, par: kepler_transfer_time(1.3, 0.4, 0.5, sp, par),
    "four_paths": lambda sp, par: cs.four_paths(_PAIR, sp, par),
    "basic_actions": lambda sp, par: cs.basic_actions(_PAIR, sp, par),
    "loop_variant":
        lambda sp, par: cs.loop_variant(cs.PathQuantity(1, 1.0, 1.0, 0, 0), 1, sp, par),
    "vvpm_det": lambda sp, par: cs.vvpm_det(1, _PAIR, sp, par),
    "green_sc_bound": lambda sp, par: cs.green_sc_bound(_R, _RP, sp, par),
    "green_sc_tunnel": lambda sp, par: cs.green_sc_tunnel(_R_TUNNEL, _RP_TUNNEL, sp, par),
    "green_sc_bound_sum": lambda sp, par: green_sc_bound_sum(_R, _RP, sp, par, 3, 0.1),
    "green_sc_bound_product":
        lambda sp, par: green_sc_bound_product(_R, _RP, sp, par, None, 0.1),
    "green_uniform": lambda sp, par: cs.green_uniform(_R, _RP, sp, par),
    "uniform_inputs": lambda sp, par: cs.uniform_inputs(_R, _RP, sp, par),
    "green_qm": lambda sp, par: cs.green_qm(_R, _RP, sp, par),
    "qm_field": lambda sp, par: cs.qm_field(_R[None, :], _RP, sp, par),
    "radial_green": lambda sp, par: radial_green(0, 10.0, 20.0, sp.E, par),
}

SCATTERING_ONLY = {
    "scatter_velocity": lambda sp, par: cs.scatter_velocity(100.0, sp, par),
    "reduced_action_scatter_attractive":
        lambda sp, par: cs.reduced_action_scatter_attractive(100.0, sp, par),
    "reduced_action_scatter_repulsive":
        lambda sp, par: cs.reduced_action_scatter_repulsive(500.0, sp, par),
    "reduced_action_repulsive_forbidden":
        lambda sp, par: cs.reduced_action_repulsive_forbidden(100.0, sp, par),
    "green_sc_scatter_attractive":
        lambda sp, par: cs.green_sc_scatter_attractive(_R, _RP, sp, par),
}


@pytest.mark.parametrize("name", BOUND_ONLY)
def test_bound_evaluators_refuse_other_regimes(au, name):
    # each takes the bound inputs; E > 0 and a repulsive E < 0 are refused
    # by the regime rule, not answered with the attractive bound value
    bound = cs.energy_from_nu(9.7, au)
    BOUND_ONLY[name](bound, au)
    repulsive = cs.SystemParams(attractive=False)
    for spec, params in ((cs.EnergySpec.from_energy(-bound.E, au), au), (bound, repulsive)):
        with pytest.raises(ValueError) as info:
            BOUND_ONLY[name](spec, params)
        assert info.type is ValueError, (spec.E, params.attractive)


def test_bound_interaction_rule_has_one_text(au):
    # classify_region and bound_regime refuse E < 0 with a repulsive
    # interaction by one rule, so with one message
    from coulomb_sc.model import bound_regime

    spec = cs.energy_from_nu(9.7, au)
    repulsive = cs.SystemParams(attractive=False)
    with pytest.raises(ValueError) as by_region:
        cs.classify_region(_PAIR, spec, attractive=False)
    with pytest.raises(ValueError) as by_regime:
        bound_regime(spec, repulsive)
    assert str(by_region.value) == str(by_regime.value)


def test_radial_green_refuses_other_dimensions():
    # the 3-D radial equation is no n = 2 channel: next to the 3-D nu = 5
    # pole it returned -6.5e10 instead of a refusal
    plane = cs.SystemParams(ndim=2)
    E = -1.0 / (2.0 * 25.0) * (1.0 + 1e-13)
    with pytest.raises(UnsupportedDimensionError):
        radial_green(0, 10.0, 20.0, E, plane)


@pytest.mark.parametrize("name", SCATTERING_ONLY)
def test_scattering_evaluators_refuse_bound_energies(au, name):
    scattering = cs.EnergySpec.from_energy(1.0 / (2.0 * 9.7**2), au)
    SCATTERING_ONLY[name](scattering, au)
    with pytest.raises(ValueError) as info:
        SCATTERING_ONLY[name](cs.energy_from_nu(9.7, au), au)
    assert info.type is ValueError
