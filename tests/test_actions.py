"""Closed-form actions against adaptive-quadrature and finite-difference
oracles.  The quadrature always integrates the defining velocity integrand;
the closed forms must reproduce it to 1e-10 relative."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import coulomb_sc as cs
from coulomb_sc.errors import ForbiddenRegionError, RegionError

from conftest import random_allowed_pair
from oracles import green_sc_bound_sum, kepler_transfer_time


def quad_bound(alpha, a):
    # integrand sqrt(2a q - q^2)/q dq on q in (0, alpha/2], in units sk = 1
    f = lambda q: math.sqrt(2.0 * a * q - q * q) / q
    val, err = quad(f, 0.0, alpha / 2.0, limit=400, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10 * max(val, 1.0)
    return val


def quad_scatter_attr(alpha, a):
    f = lambda q: math.sqrt((2.0 * a + q) / q)
    val, err = quad(f, 0.0, alpha / 2.0, limit=400, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10 * max(val, 1.0)
    return val


def quad_scatter_rep(alpha, a):
    f = lambda q: math.sqrt((q - 2.0 * a) / q)
    val, _ = quad(f, 2.0 * a, alpha / 2.0, limit=400, epsabs=1e-14, epsrel=1e-13)
    return val


def quad_rep_forbidden(alpha, a):
    f = lambda q: math.sqrt((2.0 * a - q) / q)
    val, _ = quad(f, alpha / 2.0, 2.0 * a, limit=400, epsabs=1e-14, epsrel=1e-13)
    return val


def quad_bound_forbidden(alpha, a):
    f = lambda q: math.sqrt((q - 2.0 * a) / q)
    val, _ = quad(f, 2.0 * a, alpha / 2.0, limit=400, epsabs=1e-14, epsrel=1e-13)
    return val


def test_velocity_values(au):
    spec = cs.EnergySpec.from_energy(-0.5, au)  # a = 1, sqrt(2|E|/mu) = 1
    assert cs.velocity(2.0, spec, au) == pytest.approx(1.0, rel=1e-15)
    assert cs.velocity(1.0, spec, au) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert cs.velocity(4.0 - 1e-12, spec, au) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(RegionError):
        cs.velocity(0.0, spec, au)
    with pytest.raises(RegionError):
        cs.velocity(4.0, spec, au)


def test_reduced_action_bound_endpoints(au):
    spec = cs.EnergySpec.from_energy(-0.5, au)
    assert cs.reduced_action_bound(0.0, spec, au) == 0.0
    assert cs.reduced_action_bound(4.0, spec, au) == pytest.approx(math.pi, rel=1e-14)
    with pytest.raises(RegionError):
        cs.reduced_action_bound(-0.1, spec, au)
    with pytest.raises(RegionError):
        cs.reduced_action_bound(4.2, spec, au)


def test_reduced_action_bound_vs_quadrature(au, rng):
    for _ in range(120):
        a = math.exp(rng.uniform(math.log(0.2), math.log(200.0)))
        spec = cs.EnergySpec.from_energy(-au.Kc / (2 * a), au)
        alpha = rng.uniform(1e-3, 0.999) * 4.0 * a
        sk = math.sqrt(2.0 * au.mu * abs(spec.E))
        closed = cs.reduced_action_bound(alpha, spec, au)
        assert closed == pytest.approx(sk * quad_bound(alpha, a), rel=1e-10)


def test_travel_time_endpoints(au):
    spec = cs.EnergySpec.from_energy(-0.5, au)
    assert cs.travel_time_bound(0.0, spec, au) == 0.0
    assert cs.travel_time_bound(4.0, spec, au) == pytest.approx(math.pi, rel=1e-14)


def test_travel_time_is_energy_derivative(au, rng):
    for _ in range(150):
        a = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
        spec = cs.EnergySpec.from_energy(-au.Kc / (2 * a), au)
        alpha = rng.uniform(0.01, 0.99) * 4.0 * a
        t = cs.travel_time_bound(alpha, spec, au)
        h = 1e-6 * abs(spec.E)
        wp = cs.reduced_action_bound(alpha, cs.EnergySpec.from_energy(spec.E + h, au), au)
        wm = cs.reduced_action_bound(alpha, cs.EnergySpec.from_energy(spec.E - h, au), au)
        assert t == pytest.approx((wp - wm) / (2 * h), rel=1e-6)


def test_action_alpha_derivative_is_momentum(au, rng):
    # dW/d(alpha/2) = mu v(alpha)
    for _ in range(100):
        a = math.exp(rng.uniform(math.log(0.5), math.log(50.0)))
        spec = cs.EnergySpec.from_energy(-au.Kc / (2 * a), au)
        alpha = rng.uniform(0.05, 0.95) * 4.0 * a
        h = 1e-6 * a
        fd = (cs.reduced_action_bound(alpha + h, spec, au)
              - cs.reduced_action_bound(alpha - h, spec, au)) / h
        assert fd == pytest.approx(au.mu * cs.velocity(alpha, spec, au), rel=1e-6)


def test_mixed_derivative_is_inverse_velocity(au, rng):
    # d^2 W / d(alpha/2) dE = 1 / v
    for _ in range(60):
        a = math.exp(rng.uniform(math.log(0.5), math.log(50.0)))
        spec = cs.EnergySpec.from_energy(-au.Kc / (2 * a), au)
        alpha = rng.uniform(0.1, 0.9) * 4.0 * a
        ha = 1e-4 * a
        he = 1e-5 * abs(spec.E)
        sp = cs.EnergySpec.from_energy(spec.E + he, au)
        sm = cs.EnergySpec.from_energy(spec.E - he, au)
        mixed = (cs.reduced_action_bound(alpha + ha, sp, au)
                 - cs.reduced_action_bound(alpha - ha, sp, au)
                 - cs.reduced_action_bound(alpha + ha, sm, au)
                 + cs.reduced_action_bound(alpha - ha, sm, au)) / (2 * ha * he)
        assert mixed == pytest.approx(1.0 / cs.velocity(alpha, spec, au), rel=2e-5)


def test_action_monotonicity(au, rng):
    spec = cs.EnergySpec.from_energy(-0.02, au)
    alphas = np.sort(rng.uniform(0.0, 4.0 * spec.a, size=60))
    vals = [cs.reduced_action_bound(al, spec, au) for al in alphas]
    assert np.all(np.diff(vals) >= 0.0)


def test_round_trip_values(au):
    spec = cs.EnergySpec.from_energy(-0.5, au)  # a = 1
    w, t = cs.round_trip(spec, au)
    assert w == pytest.approx(2 * math.pi, rel=1e-15)
    assert t == pytest.approx(2 * math.pi, rel=1e-15)
    spec4 = cs.EnergySpec.from_energy(-0.125, au)  # a = 4
    w4, t4 = cs.round_trip(spec4, au)
    assert w4 == pytest.approx(4 * math.pi, rel=1e-14)
    assert t4 == pytest.approx(16 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        cs.round_trip(cs.EnergySpec.from_energy(0.5, au), au)


def test_four_paths_identities(au, rng):
    for _ in range(100):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au)
        pair = cs.lambert_variables(r_vec, rp_vec)
        w2pi, t2pi = cs.round_trip(spec, au)
        p1, p2, p3, p4 = cs.four_paths(pair, spec, au)
        # actions and times close up pairwise onto the full loop
        assert p3.W + p1.W == pytest.approx(w2pi, rel=1e-12)
        assert p4.W + p2.W == pytest.approx(w2pi, rel=1e-12)
        assert p3.T + p1.T == pytest.approx(t2pi, rel=1e-12)
        assert p4.T + p2.T == pytest.approx(t2pi, rel=1e-12)
        assert (p1.morse, p2.morse, p3.morse, p4.morse) == (0, 1, 2, 1)
        assert all(p.T > 0 or p.path_id == 1 for p in (p1, p2, p3, p4))
        assert p4.T >= 0.0


def test_four_paths_energy_derivative_consistency(au, rng):
    # every path row satisfies T = dW/dE
    for _ in range(40):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au, ap_frac=(0.1, 0.9))
        pair = cs.lambert_variables(r_vec, rp_vec)
        h = 1e-6 * abs(spec.E)
        up = cs.four_paths(pair, cs.EnergySpec.from_energy(spec.E + h, au), au)
        dn = cs.four_paths(pair, cs.EnergySpec.from_energy(spec.E - h, au), au)
        for p, pu, pd in zip(cs.four_paths(pair, spec, au), up, dn):
            fd = (pu.W - pd.W) / (2 * h)
            assert fd == pytest.approx(p.T, rel=1e-6), f"path {p.path_id}"


@pytest.mark.parametrize("ndim", [2, 3, 4])
@pytest.mark.parametrize("ratio", [0.99, 0.9999, 0.999999])
def test_four_paths_direct_path_near_coincident_legs(ndim, ratio):
    # alpha_- -> alpha_+: W1 = W+ - W- and T1 = t+ - t- cancel, the direct
    # path keeps its relative precision (mpmath at 40 digits on the same
    # float inputs), and the central difference in E still gives T
    params = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(11.7, params)
    sk = math.sqrt(2.0 * params.mu * abs(spec.E))
    ts = params.mu * spec.a / sk
    for ap_frac in (0.05, 0.3, 0.8):
        ap = ap_frac * 4.0 * spec.a
        am = ratio * ap
        pair = cs.LambertPair(r=0.25 * (ap + am), rp=0.25 * (ap + am), s=0.5 * (ap - am),
                              alpha_plus=ap, alpha_minus=am)
        with mp.workdps(40):
            g = [2 * mp.asin(mp.sqrt(mp.mpf(al) / (4 * mp.mpf(spec.a)))) for al in (ap, am)]
            w1 = float(mp.mpf(sk) * spec.a * (g[0] + mp.sin(g[0]) - g[1] - mp.sin(g[1])))
            t1 = float(mp.mpf(ts) * (g[0] - mp.sin(g[0]) - g[1] + mp.sin(g[1])))
        paths = cs.four_paths(pair, spec, params)
        assert paths[0].W == pytest.approx(w1, rel=1e-12, abs=0.0)
        assert paths[0].T == pytest.approx(t1, rel=1e-12, abs=0.0)
        if ap_frac < 0.3:
            # near the centre W2 >> |E| T2, and rounding in W2 alone moves
            # its difference quotient by 2e-8 at alpha_+ = 0.2 a
            continue
        h = 1e-6 * abs(spec.E)
        up = cs.four_paths(pair, cs.EnergySpec.from_energy(spec.E + h, params), params)
        dn = cs.four_paths(pair, cs.EnergySpec.from_energy(spec.E - h, params), params)
        for p, pu, pd in zip(paths, up, dn):
            fd = (pu.W - pd.W) / (2 * h)
            assert fd == pytest.approx(p.T, rel=1e-8, abs=0.0), (ap_frac, p.path_id)


def test_focal_touch_degeneracy(au):
    # alpha_minus = 0: paths 1,2 coincide, as do their travel times
    spec = cs.EnergySpec.from_energy(-0.5, au)
    pair = cs.LambertPair(r=0.5, rp=0.5, s=1.0, alpha_plus=2.0, alpha_minus=0.0)
    p1, p2, _, _ = cs.four_paths(pair, spec, au)
    assert p1.W == pytest.approx(p2.W, rel=1e-14)
    assert p1.T == pytest.approx(p2.T, rel=1e-14)


def test_loop_variant(au, rng):
    r_vec, rp_vec, spec = random_allowed_pair(rng, au)
    pair = cs.lambert_variables(r_vec, rp_vec)
    w2pi, t2pi = cs.round_trip(spec, au)
    p1 = cs.four_paths(pair, spec, au)[0]
    v = cs.loop_variant(p1, 3, spec, au)
    assert v.W == pytest.approx(p1.W + 3 * w2pi, rel=1e-14)
    assert v.T == pytest.approx(p1.T + 3 * t2pi, rel=1e-14)
    assert v.morse == p1.morse + 3 * 4  # m_2pi = 2(n-1) = 4 for n = 3
    assert v.loops == 3


R, RP = [80.0, 30.0, 0.0], [50.0, 0.0, 0.0]  # an allowed pair at nu = 9.7


@pytest.mark.parametrize("call, error, match", [
    (lambda au, spec: cs.morse_index(1, 1), ValueError, "ndim must be >= 2"),
    (lambda au, spec: cs.morse_index(1, 3, loops=-1), ValueError, "loops must be nonnegative"),
    (lambda au, spec: cs.vvpm_det(5, cs.lambert_variables(R, RP), spec, au),
     ValueError, "path_id must be in 1..4, got 5"),
    (lambda au, spec: cs.loop_variant(cs.four_paths(cs.lambert_variables(R, RP), spec, au)[0],
                                      -1, spec, au),
     ValueError, "loop count must be nonnegative"),
    (lambda au, spec: cs.scatter_velocity(0.0, cs.EnergySpec.from_energy(0.5, au), au),
     RegionError, "alpha must be positive"),
    (lambda au, spec: cs.reduced_action_scatter_attractive(
        -1.0, cs.EnergySpec.from_energy(0.5, au), au),
     RegionError, "alpha must be nonnegative"),
    (lambda au, spec: green_sc_bound_sum(R, RP, spec, au, 3, eta=-1.0),
     ValueError, "eta must be nonnegative"),
    (lambda au, spec: cs.quantization_action(-1, au),
     ValueError, "k must be a nonnegative integer, got -1"),
], ids=["morse_ndim", "morse_loops", "vvpm_path", "loop_variant", "scatter_velocity",
        "scatter_action", "bound_sum_eta", "quantization_k"])
def test_argument_errors_name_the_argument(au, call, error, match):
    with pytest.raises(error, match=match):
        call(au, cs.energy_from_nu(9.7, au))


def test_scatter_attractive_vs_quadrature(au, rng):
    for _ in range(100):
        a = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        spec = cs.EnergySpec.from_energy(au.Kc / (2 * a), au)
        alpha = math.exp(rng.uniform(math.log(1e-2), math.log(40.0))) * a
        sk = math.sqrt(2.0 * au.mu * spec.E)
        closed = cs.reduced_action_scatter_attractive(alpha, spec, au)
        assert closed == pytest.approx(sk * quad_scatter_attr(alpha, a), rel=1e-10)
    assert cs.reduced_action_scatter_attractive(0.0, spec, au) == 0.0


def test_scatter_attractive_free_asymptotics(au):
    spec = cs.EnergySpec.from_energy(0.5, au)
    p_free = math.sqrt(2.0 * au.mu * spec.E)
    for alpha in (1e4, 1e6):
        w = cs.reduced_action_scatter_attractive(alpha, spec, au)
        assert w == pytest.approx(p_free * alpha / 2.0, rel=2e-2 if alpha < 1e5 else 2e-4)


def test_scatter_repulsive_vs_quadrature(au, rng):
    for _ in range(100):
        a = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        spec = cs.EnergySpec.from_energy(au.Kc / (2 * a), au)
        alpha = 4.0 * a * (1.0 + math.exp(rng.uniform(math.log(1e-2), math.log(10.0))))
        sk = math.sqrt(2.0 * au.mu * spec.E)
        closed = cs.reduced_action_scatter_repulsive(alpha, spec, au)
        assert closed == pytest.approx(sk * quad_scatter_rep(alpha, a), rel=1e-8, abs=1e-12)
    # turning point and monotonicity
    assert cs.reduced_action_scatter_repulsive(4.0 * a, spec, au) == 0.0
    alphas = np.linspace(4.0 * a, 12.0 * a, 40)
    vals = [cs.reduced_action_scatter_repulsive(x, spec, au) for x in alphas]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ForbiddenRegionError):
        cs.reduced_action_scatter_repulsive(3.9 * a, spec, au)


def test_repulsive_forbidden_vs_quadrature(au, rng):
    for _ in range(100):
        a = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        spec = cs.EnergySpec.from_energy(au.Kc / (2 * a), au)
        alpha = rng.uniform(0.01, 0.99) * 4.0 * a
        sk = math.sqrt(2.0 * au.mu * spec.E)
        w_dec, w_gro = cs.reduced_action_repulsive_forbidden(alpha, spec, au)
        assert w_dec.real == 0.0 and w_gro == -w_dec
        assert w_dec.imag == pytest.approx(sk * quad_rep_forbidden(alpha, a), rel=1e-10)
    # limits: continuity at the turning point, pi|a| sk at the center
    assert cs.reduced_action_repulsive_forbidden(4.0 * a, spec, au)[0].imag == \
        pytest.approx(0.0, abs=1e-12)
    assert cs.reduced_action_repulsive_forbidden(0.0, spec, au)[0].imag == \
        pytest.approx(math.pi * a * math.sqrt(2.0 * au.mu * spec.E), rel=1e-14)


def test_bound_forbidden_vs_quadrature(au, rng):
    for _ in range(100):
        a = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        spec = cs.EnergySpec.from_energy(-au.Kc / (2 * a), au)
        alpha = 4.0 * a * (1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(4.0))))
        sk = math.sqrt(2.0 * au.mu * abs(spec.E))
        w_pref, w_conj = cs.reduced_action_bound_forbidden(alpha, spec, au)
        # alpha-independent real part = half-loop action
        assert w_pref.real == pytest.approx(math.pi * a * sk, rel=1e-14)
        assert w_pref.imag > 0.0 and w_conj == w_pref.conjugate()
        assert w_pref.imag == pytest.approx(sk * quad_bound_forbidden(alpha, a), rel=1e-9)
    # continuity with the bound form at the caustic (roundoff-level residue
    # from cancelling the two ~3e-7 terms at this offset)
    spec = cs.EnergySpec.from_energy(-0.5, au)
    w_edge, _ = cs.reduced_action_bound_forbidden(4.0 + 1e-13, spec, au)
    assert w_edge.imag == pytest.approx(0.0, abs=1e-8)
    assert w_edge.real == pytest.approx(cs.reduced_action_bound(4.0, spec, au), rel=1e-12)


def test_turning_point_continuity(au):
    # repulsive allowed and forbidden forms meet at alpha = 4|a| with value 0
    spec = cs.EnergySpec.from_energy(0.35, au)
    a = spec.a
    eps = 1e-9 * a
    allowed = cs.reduced_action_scatter_repulsive(4 * a + eps, spec, au)
    forb = cs.reduced_action_repulsive_forbidden(4 * a - eps, spec, au)[0]
    assert abs(allowed) < 1e-10
    assert abs(forb.imag) < 1e-10


def test_kepler_transfer_time(au, rng):
    spec = cs.EnergySpec.from_energy(-0.5, au)  # a = 1
    assert kepler_transfer_time(1.3, 1.3, 0.5, spec, au) == pytest.approx(0.0, abs=1e-15)
    w2pi, t2pi = cs.round_trip(spec, au)
    assert kepler_transfer_time(2 * math.pi, 0.0, 0.7, spec, au) == \
        pytest.approx(t2pi, rel=1e-14)
    # quadrature oracle: time = sqrt(mu a/Kc) int r dr / sqrt(2 a r - r^2 - a L^2/(mu Kc))
    for _ in range(40):
        a = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        sp = cs.EnergySpec.from_energy(-au.Kc / (2 * a), au)
        eps = rng.uniform(0.05, 0.95)
        xi_p = rng.uniform(0.15, 1.4)
        xi = xi_p + rng.uniform(0.2, math.pi - xi_p - 0.2)
        lam2 = au.mu * au.Kc * a * (1.0 - eps * eps)
        r_of = lambda x: a * (1.0 - eps * math.cos(x))
        f = lambda r: r / math.sqrt(2.0 * a * r - r * r - a * lam2 / (au.mu * au.Kc))
        val, err = quad(f, r_of(xi_p), r_of(xi), limit=400)
        val *= math.sqrt(au.mu * a / au.Kc)
        closed = kepler_transfer_time(xi, xi_p, eps, sp, au)
        assert closed == pytest.approx(val, rel=1e-8)


def test_bound_forbidden_im_full_precision_near_turning_point(au):
    # Im W_+ = sk (sqrt((alpha - 4a) alpha)/2 - 2a acosh(sqrt(alpha/4a))) in
    # mpmath at the float alpha, for u = alpha/4a - 1 from 1e-15 to 10: the
    # two terms cancel as u -> 0, and the kernel keeps every digit
    from coulomb_sc import _kernels as K

    u = np.array([m * 10.0 ** e for e in range(-15, 2) for m in (1.0, 3.0)])
    for nu in (5.3, 9.7, 29.2):
        spec = cs.energy_from_nu(nu, au)
        a = spec.a
        sk = math.sqrt(2.0 * au.mu * abs(spec.E))
        alpha = 4.0 * a * (1.0 + u)
        with mp.workdps(50):
            am, fa = mp.mpf(a), 4 * mp.mpf(a)
            want = np.array([float(sk * (mp.sqrt((mp.mpf(x) - fa) * x) / 2
                                         - 2 * am * mp.acosh(mp.sqrt(x / fa))))
                             for x in alpha])
        got = np.array([K.w_bound_forbidden_im(x, a, sk) for x in alpha.tolist()])
        assert np.max(np.abs(got / want - 1.0)) <= 4e-15
        assert np.max(np.abs(K._half_action_beyond(alpha, a, sk, K._NUMPY) / want - 1.0)) <= 4e-15


@pytest.mark.parametrize("ndim", [2, 3])
def test_focal_pairs_answer_whatever_the_last_bit(ndim):
    # endpoints on opposite sides of the centre on one line: alpha_- =
    # r + r' - s is 0 up to rounding, and a value just below 0 lies in the
    # focal band of the region rule, like one just above
    params = cs.SystemParams(ndim=ndim)
    rng = np.random.default_rng(20261023 + ndim)
    below = 0
    for _ in range(35):
        spec = cs.energy_from_nu(rng.uniform(5.0, 30.0), params)
        u = rng.normal(size=ndim)
        u /= np.linalg.norm(u)
        total = 2.0 * spec.a * rng.uniform(0.05, 0.95)
        rp = total * rng.uniform(0.1, 0.9)
        pair = cs.lambert_variables(-(total - rp) * u, rp * u, params)
        assert abs(pair.alpha_minus) <= 1e-12 * pair.alpha_plus
        below += pair.alpha_minus < 0.0
        paths = cs.four_paths(pair, spec, params)
        b = cs.basic_actions(pair, spec, params)
        # the focal limit: the inner leg's action is 0 to the rounding of alpha_-
        assert 0.0 <= b.w_minus <= 1e-6 * b.w_plus and 0.0 <= b.t_minus <= 1e-6 * b.t_plus
        assert paths[0].W == pytest.approx(paths[1].W, rel=1e-6)
        assert all(math.isfinite(p.W) and math.isfinite(p.T) for p in paths)
    assert below > 0
