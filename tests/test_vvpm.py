"""Closed-form amplitude determinants against the finite-difference
determinant of the full (n+1) x (n+1) second-derivative matrix."""

import math

import mpmath as mp
import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
from coulomb_sc.errors import FocalLineError, OnCausticError, RegionError

from conftest import random_allowed_pair
from oracles import dimensional_factor, vvpm_det_numeric


def path_action(path_id, params):
    """W_i(r, rp, E) as a plain callable for the numeric determinant."""

    def fn(r_vec, rp_vec, E):
        spec = cs.EnergySpec.from_energy(E, params)
        pair = cs.lambert_variables(r_vec, rp_vec)
        wp = cs.reduced_action_bound(pair.alpha_plus, spec, params)
        wm = cs.reduced_action_bound(pair.alpha_minus, spec, params)
        w2pi, _ = cs.round_trip(spec, params)
        return {1: wp - wm, 2: wp + wm, 3: w2pi - (wp - wm), 4: w2pi - (wp + wm)}[path_id]

    return fn


def test_dimensional_factor_values(au):
    assert dimensional_factor(1.0, 1.0, 1.0, "difference", au) == pytest.approx(-1.0)
    assert dimensional_factor(1.0, 1.0, 1.0, "sum", au) == 0.0
    assert dimensional_factor(2.0, 1.0, 2.0, "sum", au) == pytest.approx(-0.25)
    with pytest.raises(RegionError):
        dimensional_factor(1.0, 1.0, 0.0, "sum", au)
    with pytest.raises(ValueError):
        dimensional_factor(1.0, 1.0, 1.0, "product", au)


def test_morse_indices(au):
    assert [cs.morse_index(i, 3) for i in (1, 2, 3, 4)] == [0, 1, 2, 1]
    assert cs.morse_index(3, 3) == 2            # two reflections
    assert cs.morse_index(1, 3, loops=1) == 4   # m_2pi = 2(n-1)
    assert cs.morse_index(4, 5) == 1            # caustic reflection, any n
    assert cs.morse_index(2, 5) == 3            # center pole of order n-2
    for n in (2, 3, 4, 5, 7):
        assert cs.morse_index(2, n) + cs.morse_index(4, n) == n - 1
        assert cs.morse_index(1, n) + cs.morse_index(3, n) == n - 1
    with pytest.raises(ValueError):
        cs.morse_index(5, 3)


def test_sign_identities(au, rng):
    for _ in range(200):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au)
        pair = cs.lambert_variables(r_vec, rp_vec)
        d = [cs.vvpm_det(i, pair, spec, au).D for i in (1, 2, 3, 4)]
        assert d[0] == -d[2] and d[1] == -d[3]  # exact by construction
        assert d[0] * d[2] < 0.0 and d[1] * d[3] < 0.0
        # n = 3: direct-family determinant positive, center-family negative
        assert d[0] > 0.0 and d[1] < 0.0


def test_region_guards(au):
    spec = cs.EnergySpec.from_energy(-0.5, au)
    on = cs.LambertPair(r=1.0, rp=1.0, s=2.0, alpha_plus=4.0, alpha_minus=0.0)
    with pytest.raises(OnCausticError):
        cs.vvpm_det(1, on, spec, au)
    out = cs.LambertPair(r=2.5, rp=2.5, s=1.0, alpha_plus=6.0, alpha_minus=4.0)
    with pytest.raises(RegionError):
        cs.vvpm_det(1, out, spec, au)


def test_focal_line_is_the_region_rule(au):
    # alpha_- <= FOCAL_TOL alpha_+ is the focal line for the determinant as
    # for the Green functions; just outside the band it has a value
    spec = cs.energy_from_nu(9.7, au)
    ap = 110.0
    for am in (0.0, 1e-13 * ap, K.FOCAL_TOL * ap):
        pair = cs.LambertPair(r=0.25 * (ap + am), rp=0.25 * (ap + am), s=0.5 * (ap - am),
                              alpha_plus=ap, alpha_minus=am)
        for path_id in (1, 2, 3, 4):
            with pytest.raises(FocalLineError):
                cs.vvpm_det(path_id, pair, spec, au)
    am = 2.0 * K.FOCAL_TOL * ap
    pair = cs.LambertPair(r=0.25 * (ap + am), rp=0.25 * (ap + am), s=0.5 * (ap - am),
                          alpha_plus=ap, alpha_minus=am)
    assert math.isfinite(cs.vvpm_det(1, pair, spec, au).D)
    # the same pair from vectors: the determinant and the SC refuse alike
    r_vec, rp_vec = [-60.0, 60.0e-7, 0.0], [50.0, 0.0, 0.0]
    pair = cs.lambert_variables(r_vec, rp_vec)
    assert 0.0 < pair.alpha_minus <= K.FOCAL_TOL * pair.alpha_plus
    with pytest.raises(FocalLineError):
        cs.vvpm_det(1, pair, spec, au)
    with pytest.raises(FocalLineError):
        cs.green_sc_bound(r_vec, rp_vec, spec, au)


@pytest.mark.parametrize("ndim", [3, 5])
@pytest.mark.parametrize("s", [1e-6, 1e-10, 1e-14])
def test_paths_2_and_4_keep_their_digits_as_the_endpoints_close_in(ndim, s):
    # -mu (v+ - v-)/2s subtracts two velocities whose alphas differ by 2s;
    # the reference evaluates that closed form at 50 digits
    par = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(9.7, par)
    pad = [0.0] * (ndim - 3)
    pair = cs.lambert_variables([0.0, 0.0, 30.0] + pad, [s, 0.0, 30.0] + pad, par)
    with mp.workdps(50):
        a, ss = mp.mpf(spec.a), mp.mpf(s)
        cv = mp.sqrt(2 * abs(mp.mpf(spec.E)) / par.mu)
        rsum = 30 + mp.sqrt(ss * ss + 900)
        vp, vm = (cv * mp.sqrt((4 * a - al) / al) for al in (rsum + ss, rsum - ss))
        d2 = -(-par.mu * (vp - vm) / (2 * ss)) ** (ndim - 1) / (vp * vm)
        for path_id, ref in ((2, d2), (4, -d2)):
            got = cs.vvpm_det(path_id, pair, spec, par).D
            assert abs(got - ref) <= 1e-12 * abs(ref), (path_id, got, float(ref))


def test_bound_regime_only(au):
    # E > 0 and a repulsive interaction are refused by name, not answered
    # by the bound-state formula or a bare math domain error
    spec = cs.EnergySpec.from_energy(0.3, au)  # 4|a| = 6.67
    near = cs.lambert_variables([0.05, 0.01, 0.0], [0.06, 0.0, 0.0])
    far = cs.lambert_variables([5.0, 0.0, 0.0], [0.0, 4.0, 0.0])
    assert far.alpha_plus > 4.0 * spec.a
    repulsive = cs.SystemParams(attractive=False)
    bound = cs.energy_from_nu(9.7, au)
    allowed = cs.lambert_variables([80.0, 30.0, 0.0], [50.0, 0.0, 0.0])
    for pair, sp, par in ((near, spec, au), (far, spec, au), (near, spec, repulsive),
                          (allowed, bound, repulsive)):
        with pytest.raises(ValueError, match="bound regime"):
            cs.vvpm_det(1, pair, sp, par)


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("path_id", [1, 2])
def test_numeric_determinant_matches_closed_form(au, rng, ndim, path_id):
    par = au.with_ndim(ndim)
    checked = 0
    while checked < 50:
        r_vec, rp_vec, spec = random_allowed_pair(
            rng, par, ndim=ndim, a_range=(1.0, 20.0),
            ap_frac=(0.15, 0.85), am_frac=(0.15, 0.85))
        pair = cs.lambert_variables(r_vec, rp_vec)
        if pair.s < 0.05 * spec.a:  # keep the stencil off the coincidence pole
            continue
        closed = cs.vvpm_det(path_id, pair, spec, par).D
        numeric = vvpm_det_numeric(path_action(path_id, par), r_vec, rp_vec,
                                   spec.E, par)
        assert numeric == pytest.approx(closed, rel=1e-5), (r_vec, rp_vec, spec.E)
        checked += 1


def test_numeric_magnitude_for_reflected_paths(au, rng):
    # Paths 3, 4 negate the action up to the position-independent loop term;
    # the literal (n+1)x(n+1) determinant is then unchanged for odd n
    # (det(-M) = det(M) for even matrix size), so only the magnitude is
    # checked here.  The published sign identities D3 = -D1, D4 = -D2 are a
    # path-table bookkeeping convention: the propagator consumes |D| plus
    # the Morse phases, never sign(D3).
    r_vec, rp_vec, spec = random_allowed_pair(rng, au, a_range=(2.0, 10.0),
                                              ap_frac=(0.3, 0.7), am_frac=(0.3, 0.7))
    pair = cs.lambert_variables(r_vec, rp_vec)
    for path_id in (3, 4):
        closed = cs.vvpm_det(path_id, pair, spec, au).D
        numeric = vvpm_det_numeric(path_action(path_id, au), r_vec, rp_vec,
                                   spec.E, au)
        assert abs(numeric) == pytest.approx(abs(closed), rel=1e-5)


def test_position_block_is_singular(au, rng):
    # the pure position-position sub-determinant vanishes; assert it is
    # tiny against its Hadamard bound
    for _ in range(10):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au, a_range=(2.0, 10.0),
                                                  ap_frac=(0.2, 0.8),
                                                  am_frac=(0.2, 0.8))
        _, m = vvpm_det_numeric(path_action(1, au), r_vec, rp_vec, spec.E, au,
                                return_matrix=True)
        block = m[:3, :3]
        hadamard = np.prod(np.linalg.norm(block, axis=1))
        assert abs(np.linalg.det(block)) < 1e-5 * hadamard


def test_step_underflow_guard(au, rng):
    r_vec, rp_vec, spec = random_allowed_pair(rng, au)
    with pytest.raises(cs.errors.IllConditionedError):
        vvpm_det_numeric(path_action(1, au), r_vec, rp_vec, spec.E, au,
                         rel_step=1e-30)
