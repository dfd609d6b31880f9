import cmath
import math

import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
from coulomb_sc.errors import (
    FocalLineError,
    ForbiddenRegionError,
    OnCausticError,
    PoleError,
    RegionError,
)
from coulomb_sc.semiclassical import sc_constants
from coulomb_sc.uniform import ua_constants

from conftest import random_allowed_pair


def test_loop_factor_special_values(au):
    # argument x = W_2pi/(2 pi hbar) - (n-1)/2; build W_2pi giving x directly
    n = 3
    w = lambda x: 2 * math.pi * (x + (n - 1) / 2)
    assert cs.loop_factor(w(0.5), n, 1.0) == pytest.approx(0.5 + 0.0j)
    assert cs.loop_factor(w(0.25), n, 1.0) == pytest.approx(0.5 + 0.5j)
    with pytest.raises(PoleError) as exc:
        cs.loop_factor(w(3.0), n, 1.0)
    assert exc.value.k == 3
    with pytest.raises(ValueError):
        cs.loop_factor(-1.0, n, 1.0)


def test_loop_factor_poles_are_eigenvalues(au):
    # the poles over E < 0 sit exactly on the bound spectrum
    for n in (2, 3, 4, 5):
        par = au.with_ndim(n)
        for k in range(0, 21):
            e_k = cs.energy_eigenvalue(k, par)
            spec = cs.EnergySpec.from_energy(e_k, par)
            w2pi, _ = cs.round_trip(spec, par)
            with pytest.raises(PoleError) as exc:
                cs.loop_factor(w2pi, n, par.hbar)
            assert exc.value.k == k


def test_bound_value_against_free_limit(au):
    # G -> -mu/(2 pi hbar^2 s) as the endpoints coalesce (n = 3); this pins
    # the global sign and prefactor without any reference data
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    for s, tol in ((0.5, 0.08), (0.1, 0.02), (0.02, 0.004)):
        r = rp + np.array([0.0, s, 0.0])
        g = cs.green_sc_bound(r, rp, spec, au).value
        assert g.real == pytest.approx(-au.mu / (2 * math.pi * s), rel=tol)


def test_bound_real_for_odd_dimensions(au, rng):
    for n in (3, 5):
        par = au.with_ndim(n)
        for _ in range(40):
            r_vec, rp_vec, spec = random_allowed_pair(rng, par, ndim=n)
            g = cs.green_sc_bound(r_vec, rp_vec, spec, par).value
            assert abs(g.imag) <= 1e-10 * abs(g)


def test_bound_complex_for_even_dimensions(au, rng):
    par = au.with_ndim(2)
    r_vec, rp_vec, spec = random_allowed_pair(rng, par, ndim=2)
    g = cs.green_sc_bound(r_vec, rp_vec, spec, par).value
    assert g.imag != 0.0  # principal-branch complex prefactor


def test_reciprocity(au, rng):
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    cases = {
        "allowed": np.array([80.0, 30.0, 0.0]),
        "tunnel": np.array([150.0, 120.0, 0.0]),
    }
    g = cs.green_sc_bound
    for name, r in cases.items():
        fn = g if name == "allowed" else cs.green_sc_tunnel
        ab = fn(r, rp, spec, au).value
        ba = fn(rp, r, spec, au).value
        assert ab == pytest.approx(ba, rel=1e-13), name
    spE = cs.EnergySpec.from_energy(0.3, au)
    ab = cs.green_sc_scatter_attractive(cases["allowed"], rp, spE, au).value
    ba = cs.green_sc_scatter_attractive(rp, cases["allowed"], spE, au).value
    assert ab == pytest.approx(ba, rel=1e-13)


def test_region_dispatch_errors(au):
    spec = cs.energy_from_nu(9.7, au)  # a = 94.09
    rp = np.array([50.0, 0.0, 0.0])
    tunnel_point = np.array([200.0, 150.0, 0.0])
    with pytest.raises(ForbiddenRegionError, match="beyond the caustic"):
        cs.green_sc_bound(tunnel_point, rp, spec, au)
    allowed_point = np.array([80.0, 30.0, 0.0])
    with pytest.raises(RegionError, match="requires a point beyond the caustic"):
        cs.green_sc_tunnel(allowed_point, rp, spec, au)
    with pytest.raises(RegionError, match="coincident"):
        cs.green_sc_tunnel(tunnel_point, tunnel_point, spec, au)
    with pytest.raises(ValueError, match="non-finite"):
        cs.green_sc_tunnel([math.inf, math.nan, 0.0], rp, spec, au)
    # on-caustic: r on the x axis beyond the source at x = 2a gives
    # alpha_plus = 2a + 50 + (2a - 50) = 4a exactly
    a = spec.a
    on = np.array([2.0 * a, 0.0, 0.0])
    pair = cs.lambert_variables(on, rp)
    assert cs.classify_region(pair, spec).tag is cs.Region.ON_CAUSTIC
    with pytest.raises(OnCausticError, match="on the caustic"):
        cs.green_sc_bound(on, rp, spec, au)
    with pytest.raises(RegionError, match="requires a point beyond the caustic"):
        cs.green_sc_tunnel(on, rp, spec, au)
    with pytest.raises(FocalLineError):
        # chord through the force center: alpha_minus = 0
        cs.green_sc_bound(np.array([-60.0, 0.0, 0.0]), rp, spec, au)
    with pytest.raises(PoleError):
        cs.green_sc_bound(allowed_point, rp, cs.energy_from_nu(9.0, au), au)


def test_loop_sum_matches_truncated_product(au, rng):
    # the explicit double sum (every term computed independently) equals the
    # elementary Green function times the closed truncated loop factor
    for _ in range(20):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au, a_range=(5.0, 80.0),
                                                  ap_frac=(0.1, 0.9),
                                                  am_frac=(0.1, 0.9))
        s = cs.green_sc_bound_sum(r_vec, rp_vec, spec, au, j_max=200, eta=1e-3)
        p = cs.green_sc_bound_product(r_vec, rp_vec, spec, au, j_max=200, eta=1e-3)
        assert s == pytest.approx(p, rel=1e-10)


def test_loop_sum_converges_to_closed_form(au, rng):
    # with enough damping and loops the sum reaches the merged closed form
    # analytically continued to k + i eta
    r_vec, rp_vec, spec = random_allowed_pair(rng, au, a_range=(10.0, 40.0))
    eta = 5e-3
    s = cs.green_sc_bound_sum(r_vec, rp_vec, spec, au, j_max=1500, eta=eta)
    p_inf = cs.green_sc_bound_product(r_vec, rp_vec, spec, au, j_max=None, eta=eta)
    assert s == pytest.approx(p_inf, rel=1e-10)
    # j_max = 0 reduces to the bare elementary four-path sum
    s0 = cs.green_sc_bound_sum(r_vec, rp_vec, spec, au, j_max=0, eta=0.0)
    p0 = cs.green_sc_bound_product(r_vec, rp_vec, spec, au, j_max=0, eta=0.0)
    assert s0 == pytest.approx(p0, rel=1e-12)


def test_loop_sum_doubling_self_consistency(au, rng):
    r_vec, rp_vec, spec = random_allowed_pair(rng, au, a_range=(10.0, 40.0))
    eta = 8e-3
    s1 = cs.green_sc_bound_sum(r_vec, rp_vec, spec, au, j_max=400, eta=eta)
    s2 = cs.green_sc_bound_sum(r_vec, rp_vec, spec, au, j_max=800, eta=eta)
    assert abs(s2 - s1) < 1e-8 * abs(s2)


def test_product_at_zero_eta_equals_bound(au, rng):
    for _ in range(10):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au)
        g = cs.green_sc_bound(r_vec, rp_vec, spec, au).value
        p = cs.green_sc_bound_product(r_vec, rp_vec, spec, au, j_max=None, eta=0.0)
        assert g == pytest.approx(p, rel=1e-12)


def test_scatter_attractive_structure(au):
    spec = cs.EnergySpec.from_energy(0.35, au)
    rp = np.array([50.0, 0.0, 0.0])
    r = np.array([80.0, 30.0, 0.0])
    g = cs.green_sc_scatter_attractive(r, rp, spec, au).value
    assert abs(g.imag) > 0.0  # outgoing waves are genuinely complex
    # free source limit
    for s in (0.05, 0.01):
        rr = rp + np.array([0.0, s, 0.0])
        gg = cs.green_sc_scatter_attractive(rr, rp, spec, au).value
        assert abs(gg) * 2 * math.pi * s == pytest.approx(1.0, rel=5e-3)


def test_scatter_attractive_envelope(au):
    # |G| bounded by the two-path amplitude envelope, approached at the
    # stationary-phase extremes; envelope dominated by the direct path
    spec = cs.EnergySpec.from_energy(0.35, au)
    rp = np.array([50.0, 0.0, 0.0])
    pref = 1.0 / (2 * math.pi)  # |prefactor| for n = 3, hbar = 1
    for r in ([120.0, 90.0, 0.0], [400.0, 10.0, 0.0], [31.0, 222.0, 0.0]):
        pair = cs.lambert_variables(np.asarray(r), rp)
        vp = cs.scatter_velocity(pair.alpha_plus, spec, au)
        vm = cs.scatter_velocity(pair.alpha_minus, spec, au)
        sd1 = au.mu * (vp + vm) / (2 * pair.s) / math.sqrt(vp * vm)
        sd2 = au.mu * (vm - vp) / (2 * pair.s) / math.sqrt(vp * vm)
        g = abs(cs.green_sc_scatter_attractive(np.asarray(r), rp, spec, au).value)
        assert g <= pref * (sd1 + sd2) * (1 + 1e-12)
        assert g >= pref * (sd1 - sd2) * (1 - 1e-12)
        assert sd1 > sd2


def test_tunnel_decay_along_confocal_arc(au):
    # constant alpha_minus, increasing alpha_plus: strictly decaying modulus,
    # log-slope approaching -Im W_+ / hbar
    spec = cs.energy_from_nu(29.2, au)
    a = spec.a
    rp_norm = 1232.0
    rp = np.array([rp_norm, 0.0, 0.0])
    am = 2000.0
    vals = []
    ims = []
    for frac in np.linspace(1.02, 1.6, 16):
        ap = 4 * a * frac
        s = (ap - am) / 2
        r = (ap + am) / 2 - rp_norm
        ct = (r * r + rp_norm**2 - s * s) / (2 * r * rp_norm)
        th = math.acos(max(-1.0, min(1.0, ct)))
        rv = np.array([r * math.cos(th), r * math.sin(th), 0.0])
        g = cs.green_sc_tunnel(rv, rp, spec, au).value
        assert np.isfinite(abs(g))
        vals.append(abs(g))
        ims.append(cs.reduced_action_bound_forbidden(ap, spec, au)[0].imag)
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    dlog = np.diff(np.log(vals))
    dim = np.diff(ims)
    # exponential decay dominated by exp(-Im W_+ / hbar) deep inside
    assert dlog[-1] / dim[-1] == pytest.approx(-1.0, abs=0.08)


def test_tunnel_branch_selection(au):
    # flipping to the negative-imaginary branch would grow instead of decay
    spec = cs.energy_from_nu(29.2, au)
    w_pref, w_conj = cs.reduced_action_bound_forbidden(5.0 * spec.a, spec, au)
    assert abs(cmath.exp(1j * w_pref)) < 1.0
    assert abs(cmath.exp(1j * w_conj)) > 1.0


def test_bound_value_against_exact_reference_point(au):
    # the canonical comparison point: source on the x axis at 1232 Bohr,
    # field point straight above it at y = 400, nu = 29.2
    spec = cs.energy_from_nu(29.2, au)
    rp = np.array([1232.0, 0.0, 0.0])
    r = np.array([1232.0, 400.0, 0.0])
    sc = cs.green_sc_bound(r, rp, spec, au).value.real
    qm = cs.green_qm(r, rp, spec, au).value.real
    assert sc == pytest.approx(qm, rel=5e-2)


def test_field_sample_metadata(au):
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    r = np.array([80.0, 30.0, 0.0])
    sample = cs.green_sc_bound(r, rp, spec, au)
    assert sample.method == "SC"
    assert sample.region.tag is cs.Region.ALLOWED
    assert sample.E == spec.E
    # the endpoints come back as tuples of plain floats, whatever came in
    for fn, point in ((cs.green_sc_bound, r), (cs.green_sc_bound, [80, 30, 0]),
                      (cs.green_sc_tunnel, np.array([200.0, 150.0, 0.0])),
                      (cs.green_uniform, r)):
        sample = fn(point, rp, spec, au)
        for vec, given in ((sample.r, point), (sample.rp, rp)):
            assert type(vec) is tuple and all(type(v) is float for v in vec)
            assert vec == tuple(float(v) for v in given)


def test_tunnel_at_inner_turning_point(au):
    # source at 2.5a on the x axis; r - s = 4a - r' puts alpha_minus on 4a,
    # where the inner leg's velocity in the primitive amplitude vanishes
    spec = cs.energy_from_nu(5.3, au)
    four_a = 4.0 * spec.a
    rp = 2.5 * spec.a
    u, v = 3.0 * rp, four_a - rp  # r + s, r - s
    x = (rp * rp + u * v) / (2.0 * rp)
    r_vec = [x, math.sqrt((0.5 * (u + v)) ** 2 - x * x), 0.0]
    pair = cs.lambert_variables(r_vec, [rp, 0.0, 0.0], au)
    assert abs(pair.alpha_minus - four_a) <= 1e-12 * four_a < pair.alpha_plus - four_a
    with pytest.raises(OnCausticError, match="alpha_minus = 4a"):
        cs.green_sc_tunnel(r_vec, [rp, 0.0, 0.0], spec, au)


def seeded_pair(rng, ndim, kind):
    """(r_vec, rp_vec, spec, params) with nu in [5, 30]; kind 'allowed'
    (alpha_+ < 4a) or 'tunnel' (alpha_+ > 4a > alpha_-), randomly turned."""
    params = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(rng.uniform(5.0, 30.0), params)
    four_a = 4.0 * spec.a
    if kind == "allowed":
        ap = four_a * rng.uniform(0.02, 0.999)
        am = ap * rng.uniform(0.01, 1.0)
    else:
        ap = four_a * rng.uniform(1.001, 1.5)
        am = four_a * rng.uniform(0.01, 0.99)
    s = 0.5 * (ap - am)
    d = 0.45 * s * rng.uniform(-1.0, 1.0)
    r, rp = 0.25 * (ap + am) + d, 0.25 * (ap + am) - d
    th = math.acos(min(1.0, max(-1.0, (r * r + rp * rp - s * s) / (2.0 * r * rp))))
    r_vec, rp_vec = np.zeros(ndim), np.zeros(ndim)
    r_vec[:2] = r * math.cos(th), r * math.sin(th)
    rp_vec[0] = rp
    q, rr = np.linalg.qr(rng.normal(size=(ndim, ndim)))
    q *= np.sign(np.diag(rr))
    return q @ r_vec, q @ rp_vec, spec, params


def on_lengths(kernel):
    """The kernel as a function of (r, r', s) instead of (s, alpha_+, alpha_-)."""
    return lambda r, rp, s, *args: kernel(s, r + rp + s, r + rp - s, *args)


def ulp_response(kernel, lengths, args):
    """Sum over the three lengths of the largest change of the kernel
    value when that length moves by one ulp."""
    base = kernel(*lengths, *args)[0]
    total = 0.0
    for j in range(3):
        moved = list(lengths)
        change = 0.0
        for direction in (math.inf, -math.inf):
            moved[j] = math.nextafter(lengths[j], direction)
            change = max(change, abs(kernel(*moved, *args)[0] - base))
        total += change
    return total


def test_per_point_apis_match_kernels_on_numpy_norm_lengths():
    # the per-point APIs take their lengths from math.hypot / math.dist;
    # fed the np.linalg.norm lengths instead, the kernels must give the same
    # value to 1e-13 plus whatever the one-ulp length differences cause
    rng = np.random.default_rng(20261019)
    checked = 0
    for ndim in (2, 3, 4):
        for kind, sc_api in (("allowed", cs.green_sc_bound), ("tunnel", cs.green_sc_tunnel)):
            for _ in range(20):
                r_vec, rp_vec, spec, params = seeded_pair(rng, ndim, kind)
                cases = [(sc_api, on_lengths(K.sc_bound_point), sc_constants(spec, params))]
                if ndim == 3:
                    cases.append((cs.green_uniform, on_lengths(K.ua_point),
                                  ua_constants(spec, params)))
                pair = cs.lambert_variables(r_vec, rp_vec, params)
                lengths = [float(np.linalg.norm(v)) for v in (r_vec, rp_vec, r_vec - rp_vec)]
                for api, kernel, args in cases:
                    got = api(r_vec, rp_vec, spec, params).value
                    assert got == kernel(pair.r, pair.rp, pair.s, *args)[0]
                    want = kernel(*lengths, *args)[0]
                    tol = 1e-13 * abs(want) + ulp_response(kernel, lengths, args)
                    assert abs(got - want) <= tol
                    checked += 1
    assert checked == 160
