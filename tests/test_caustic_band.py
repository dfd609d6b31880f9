"""One caustic rule for every per-point function.

Each form takes the sides of the caustic alpha = 4a that README "What each
evaluator accepts" lists, with the band |alpha/4a - 1| <= CAUSTIC_TOL of
``_kernels.caustic_region`` counted alike everywhere, and refuses the
others with one exception per region.
"""

import math

import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
from coulomb_sc.errors import ForbiddenRegionError, OnCausticError, RegionError

from oracles import green_sc_bound_product, green_sc_bound_sum

VALUE = "value"
NU = 9.7
SOURCE = np.array([50.0, 0.0, 0.0])
#: alpha/4a - 1 of the probes: allowed, four in the band, beyond it
OFFSETS = (-1e-6, -1e-10, 1e-13, 1e-11, 1e-10, 2e-9)

FINITE_ALLOWED = (VALUE, VALUE, ForbiddenRegionError)
FINITE_FORBIDDEN = (RegionError, VALUE, VALUE)
DIVERGENT = (VALUE, OnCausticError, ForbiddenRegionError)

# outcome on the (allowed side, caustic band, beyond) of alpha_+ = 4a
BOUND_TABLE = {
    "reduced_action_bound": FINITE_ALLOWED,
    "travel_time_bound": FINITE_ALLOWED,
    "basic_actions": FINITE_ALLOWED,
    "four_paths": FINITE_ALLOWED,
    "anomaly_angles": FINITE_ALLOWED,
    "reduced_action_bound_forbidden": FINITE_FORBIDDEN,
    "vvpm_det": DIVERGENT,
    "green_sc_bound": DIVERGENT,
    "green_sc_bound_sum": DIVERGENT,
    "green_sc_bound_product": DIVERGENT,
    "green_sc_tunnel": (RegionError, OnCausticError, VALUE),
}

BOUND_CALLS = {
    "reduced_action_bound": lambda r, pair, sp, par: cs.reduced_action_bound(
        pair.alpha_plus, sp, par),
    "travel_time_bound": lambda r, pair, sp, par: cs.travel_time_bound(
        pair.alpha_plus, sp, par),
    "basic_actions": lambda r, pair, sp, par: cs.basic_actions(pair, sp, par),
    "four_paths": lambda r, pair, sp, par: cs.four_paths(pair, sp, par),
    "anomaly_angles": lambda r, pair, sp, par: cs.anomaly_angles(pair, sp.a),
    "reduced_action_bound_forbidden": lambda r, pair, sp, par:
        cs.reduced_action_bound_forbidden(pair.alpha_plus, sp, par),
    "vvpm_det": lambda r, pair, sp, par: [cs.vvpm_det(i, pair, sp, par) for i in (1, 2, 3, 4)],
    "green_sc_bound": lambda r, pair, sp, par: cs.green_sc_bound(r, SOURCE, sp, par),
    "green_sc_bound_sum": lambda r, pair, sp, par: green_sc_bound_sum(
        r, SOURCE, sp, par, 3, 0.1),
    "green_sc_bound_product": lambda r, pair, sp, par: green_sc_bound_product(
        r, SOURCE, sp, par, None, 0.1),
    "green_sc_tunnel": lambda r, pair, sp, par: cs.green_sc_tunnel(r, SOURCE, sp, par),
}


def side(offset: float) -> int:
    """Column of the table: 0 allowed, 1 band, 2 beyond."""
    if abs(offset) <= K.CAUSTIC_TOL:
        return 1
    return 0 if offset < 0.0 else 2


def outcome(call):
    try:
        call()
    except RegionError as exc:
        return type(exc)
    return VALUE


def band_point(spec, offset: float):
    """A point on the x axis beyond the source: alpha_+ = 2x, alpha_- = 100."""
    return np.array([2.0 * spec.a * (1.0 + offset), 0.0, 0.0])


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("name", BOUND_TABLE)
def test_bound_forms_follow_the_caustic_table(au, name, offset):
    spec = cs.energy_from_nu(NU, au)
    r = band_point(spec, offset)
    pair = cs.lambert_variables(r, SOURCE, au)
    assert cs.classify_region(pair, spec).tag is cs.geometry.REGIONS[side(offset)]
    assert outcome(lambda: BOUND_CALLS[name](r, pair, spec, au)) \
        is BOUND_TABLE[name][side(offset)]


@pytest.mark.parametrize("offset", OFFSETS)
def test_velocity_keeps_its_open_interval(au, offset):
    # exempt from the band: v = 0 at alpha = 4a is refused, and so is
    # every alpha above it
    spec = cs.energy_from_nu(NU, au)
    alpha = 4.0 * spec.a * (1.0 + offset)
    want = VALUE if alpha < 4.0 * spec.a else RegionError
    assert outcome(lambda: cs.velocity(alpha, spec, au)) is want


@pytest.mark.parametrize("offset", OFFSETS)
def test_repulsive_forms_follow_the_table_about_their_turning_point(au, offset):
    # E > 0 repulsive: the allowed side is alpha > 4|a|, so the table's
    # columns run the other way round; both forms take the band
    spec = cs.EnergySpec.from_energy(1.0 / (2.0 * NU ** 2), au)
    four_a = 4.0 * spec.a
    alpha = four_a * (1.0 + offset)
    column = 2 - side(offset)  # 0: allowed (alpha > 4|a|), 2: in the barrier
    scatter = (VALUE, VALUE, ForbiddenRegionError)
    barrier = (RegionError, VALUE, VALUE)
    assert outcome(lambda: cs.reduced_action_scatter_repulsive(alpha, spec, au)) \
        is scatter[column]
    assert outcome(lambda: cs.reduced_action_repulsive_forbidden(alpha, spec, au)) \
        is barrier[column]
    # the same alpha as alpha_- of a pair: classify_region labels it alike
    pair = cs.LambertPair(r=0.75 * alpha, rp=0.75 * alpha, s=0.5 * alpha,
                          alpha_plus=2.0 * alpha, alpha_minus=alpha)
    tag = cs.classify_region(pair, spec, attractive=False).tag
    assert tag is cs.geometry.REGIONS[column]


def test_band_values_are_the_caustic_limits(au):
    # inside the band the finite forms give their value at alpha = 4a
    spec = cs.energy_from_nu(NU, au)
    four_a = 4.0 * spec.a
    w2pi, t2pi = cs.round_trip(spec, au)
    for offset in (-1e-10, 1e-13, 1e-11, 1e-10):
        alpha = four_a * (1.0 + offset)
        assert cs.reduced_action_bound(alpha, spec, au) == \
            pytest.approx(0.5 * w2pi, rel=1e-4)
        assert cs.travel_time_bound(alpha, spec, au) == pytest.approx(0.5 * t2pi, rel=1e-4)
        # Im W_+ is 0 up to 4a and rounding residue of the cancelling
        # terms just above it
        assert cs.reduced_action_bound_forbidden(alpha, spec, au)[0].imag == \
            pytest.approx(0.0, abs=1e-8 * w2pi)
    pair = cs.lambert_variables(band_point(spec, 1e-11), SOURCE, au)
    assert cs.anomaly_angles(pair, spec.a)[0] == math.pi
