"""Exact reference: radial solver, poles, the free limit, and three
independent checks -- a Whittaker-function oracle for single channels, a
partial-wave sum over channels, and Hostler's closed form in mpmath."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

import coulomb_sc as cs
from coulomb_sc.cli import main
from coulomb_sc import qm_oracle
from coulomb_sc.errors import IllConditionedError, MeshTooLargeError, PoleError, RegionError
from coulomb_sc.qm_oracle import MAX_MESH_POINTS, capped_mesh, default_mesh, qm_field, solve_radial

from oracles import eval_irr, eval_reg, radial_green


def legendre_p(l, x):
    """Legendre polynomial P_l(x) by upward three-term recurrence."""
    if l == 0:
        return np.ones_like(x)
    pm, p = np.ones_like(x), x
    for ll in range(2, l + 1):
        pm, p = p, ((2.0 * ll - 1.0) * x * p - (ll - 1.0) * pm) / ll
    return p


def partial_wave_green(pts, rp, spec, params, l_max):
    """Independent reference: the plain partial-wave sum
    sum_l (2l+1)/(4 pi r_< r_>) P_l(cos theta) g_l(r_<, r_>) for l <= l_max,
    with every channel g_l integrated by solve_radial.  Returns (values,
    tail), tail being the largest of the last three terms relative to the
    value.  The sum converges slowly near |r| = |r'|; trust it only where
    the tail has settled."""
    r = np.linalg.norm(pts, axis=1)
    rpn = float(np.linalg.norm(rp))
    cos_th = np.clip(pts @ rp / (r * rpn), -1.0, 1.0)
    r_small, r_large = np.minimum(r, rpn), np.maximum(r, rpn)
    r_max, h = default_mesh(spec, params, float(np.max(r_large)))
    g2mu = 2.0 * params.mu / params.hbar**2
    terms = []
    for l in range(l_max + 1):
        sol = solve_radial(l, spec.E, params, r_max, h,
                           r_service=0.95 * float(np.min(r_large)))
        g = eval_reg(sol, r_small) * eval_irr(sol, r_large)
        terms.append((2 * l + 1) / (4 * math.pi * r_small * r_large)
                     * legendre_p(l, cos_th) * g2mu * g / sol.wronskian)
    terms = np.array(terms)
    vals = terms.sum(axis=0)
    return vals, np.max(np.abs(terms[-3:]), axis=0) / np.abs(vals)


def hostler_green(r, rp, nu):
    """Hostler's closed form in mpmath, atomic units, E = -1/(2 nu^2):
    G = Gamma(1 - nu)/(2 pi s) (d_x - d_y)[W_{nu,1/2}(x) M_{nu,1/2}(y)],
    x, y = (r + r' +- s)/nu."""
    r, rp = np.asarray(r, float), np.asarray(rp, float)
    s = float(np.linalg.norm(r - rp))
    rsum = float(np.linalg.norm(r) + np.linalg.norm(rp))
    with mp.workdps(25):
        x, y = mp.mpf(rsum + s) / nu, mp.mpf(rsum - s) / nu
        W = lambda z: mp.whitw(nu, 0.5, z)
        M = lambda z: mp.whitm(nu, 0.5, z)
        return float(mp.gamma(1 - nu) / (2 * mp.pi * s)
                     * (mp.diff(W, x) * M(y) - W(x) * mp.diff(M, y)))


def test_legendre_values():
    assert legendre_p(2, 0.5) == pytest.approx(-0.125, rel=1e-15)
    for l in (0, 1, 5, 17):
        assert legendre_p(l, 1.0) == pytest.approx(1.0, rel=1e-12)
    for x in np.linspace(-1, 1, 21):
        assert legendre_p(3, x) == pytest.approx((5 * x**3 - 3 * x) / 2, abs=1e-14)


def test_legendre_against_scipy(rng):
    for _ in range(100):
        l = rng.randint(0, 60)
        x = rng.uniform(-1, 1)
        assert legendre_p(l, x) == pytest.approx(float(eval_legendre(l, x)),
                                                 rel=1e-11, abs=1e-12)


def whittaker_radial_green(l, r_small, r_large, E, params):
    """Independent closed-special-function evaluation (test oracle only)."""
    kap = math.sqrt(-2.0 * params.mu * E) / params.hbar
    nu = params.mu * params.Kc / (params.hbar**2 * kap)
    mu_w = l + 0.5
    M = lambda z: mp.whitm(nu, mu_w, z)
    W = lambda z: mp.whitw(nu, mu_w, z)
    z0 = mp.mpf(1.5)
    wron_z = M(z0) * mp.diff(W, z0) - mp.diff(M, z0) * W(z0)
    g = (2.0 * params.mu / params.hbar**2) \
        * M(2 * kap * r_small) * W(2 * kap * r_large) / (2 * kap * wron_z)
    return float(g)


def test_radial_green_vs_whittaker(au):
    E = -0.5 / 1.4**2  # nu = 1.4, arguments of order unity
    for l in (0, 1, 2):
        for (rs, rl) in ((0.8, 1.6), (0.5, 0.9), (2.0, 3.5)):
            mine = radial_green(l, rs, rl, E, au)
            ref = whittaker_radial_green(l, rs, rl, E, au)
            assert mine == pytest.approx(ref, rel=1e-6), (l, rs, rl)
    # l = 170 on a fine mesh out to 120 Bohr: each sweep grows through more
    # than 250 decades, so each passes the 1e250 rescale
    l, rs, rl, r_max, h = 170, 3.0, 3.5, 120.0, 0.001
    sol = solve_radial(l, E, au, r_max, h, r_service=0.95 * rl)
    for u in (sol.u_reg[sol.j0:], sol.u_irr[sol.j_service:]):
        mag = np.abs(u[u != 0.0])
        assert np.log10(mag.max()) - np.log10(mag.min()) > 250.0
    assert radial_green(l, rs, rl, E, au, r_max=r_max, h=h) == pytest.approx(
        whittaker_radial_green(l, rs, rl, E, au), rel=1e-6, abs=0.0)


def test_wronskian_constant_along_mesh(au):
    # 1e-8 constancy needs the mesh to resolve the stiff centrifugal zone,
    # so this check runs at h below the production default
    spec = cs.energy_from_nu(5.3, au)
    r_max, _ = default_mesh(spec, au, 80.0)
    h = 0.01
    for l in (0, 3, 10):
        sol = solve_radial(l, spec.E, au, r_max, h, r_service=5.0)
        n = len(sol.grid) - 1
        idx = np.linspace(sol.j_service + 5, n - 5, 120).astype(int)
        w = sol.wronskian_on_mesh(idx)
        assert np.max(np.abs(w - sol.wronskian)) < 1e-8 * abs(sol.wronskian)


def test_default_mesh_efold_criterion(au):
    # r_max leaves at least 16 e-folds of int kappa dr beyond
    # max(r_turn, r_need), and r_max/1.2 fewer unless r_max is its floor
    def efolds(spec, r1, r2):
        def kappa(r):
            return math.sqrt(max(0.0, 2.0 * au.mu * (abs(spec.E) - au.Kc / r))) / au.hbar
        return quad(kappa, r1, r2, limit=200)[0]

    floors = 0
    for nu in (1.5, 5.3, 29.2, 60.3):
        spec = cs.energy_from_nu(nu, au)
        r_turn = 2.0 * spec.a
        for r_need in (0.1 * r_turn, r_turn, 3.0 * r_turn, 20.0 * r_turn):
            r_max, _ = default_mesh(spec, au, r_need)
            anchor = max(r_turn, r_need)
            assert efolds(spec, anchor, r_max) >= 16.0, (nu, r_need)
            if r_max == max(1.3 * r_turn, 1.2 * r_need):
                floors += 1
            else:
                assert efolds(spec, anchor, r_max / 1.2) < 16.0, (nu, r_need)
    assert 0 < floors < 16


def test_regular_solution_origin_behavior(au):
    # u_reg ~ r^(l+1) near the origin (first series correction is O(r))
    spec = cs.energy_from_nu(2.0, au)
    r_max, h = default_mesh(spec, au, 10.0)
    for l in (0, 1, 2):
        sol = solve_radial(l, spec.E, au, r_max, h)
        r1, r2 = 2 * h, 4 * h
        ratio = eval_reg(sol, r2) / eval_reg(sol, r1)
        assert ratio == pytest.approx((r2 / r1) ** (l + 1), rel=0.08)


def test_irregular_solution_decays(au):
    spec = cs.energy_from_nu(2.0, au)
    r_max, h = default_mesh(spec, au, 10.0)
    sol = solve_radial(0, spec.E, au, r_max, h)
    n = len(sol.grid) - 1
    tail = np.abs(sol.u_irr[int(0.7 * n):n])
    assert tail[-1] < tail[0]


def test_radial_pole_positions(au):
    # 1/g_l has roots exactly at the channel spectrum nu = l + 1, l + 2, ...
    l = 0
    r = 1.3
    for nu_target in (2.0, 3.0):
        lo = -0.5 / (nu_target - 0.15) ** 2
        hi = -0.5 / (nu_target + 0.15) ** 2
        flo = 1.0 / radial_green(l, r, r, lo, au)
        # stop before the bisection walks into the pole guard band
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            fm = 1.0 / radial_green(l, r, r, mid, au)
            if fm * flo > 0:
                lo, flo = mid, fm
            else:
                hi = mid
        e_pole = 0.5 * (lo + hi)
        assert e_pole == pytest.approx(-0.5 / nu_target**2, rel=1e-7)


def test_channel_pole_guard(au):
    with pytest.raises(PoleError):
        radial_green(0, 1.0, 2.0, -0.5 / 4.0, au)  # nu = 2 exactly
    # nu = 2 is not a pole of the l = 2 channel (spectrum starts at l+1)
    val = radial_green(2, 1.0, 2.0, -0.5 / 4.0 * (1 + 1e-30), au)
    assert np.isfinite(val)


def test_green_qm_basic(au):
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    r = np.array([80.0, 30.0, 0.0])
    sample = cs.green_qm(r, rp, spec, au)
    assert sample.method == "QM"
    swapped = cs.green_qm(rp, r, spec, au)
    assert sample.value == pytest.approx(swapped.value, rel=1e-12)


def test_green_qm_near_source_free_limit(au):
    # Hostler's bracket tends to the Wronskian as rho_+ -> rho_-
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    for s, tol in ((0.5, 0.08), (0.1, 0.02)):
        r = rp + np.array([0.0, s, 0.0])
        g = cs.green_qm(r, rp, spec, au).value
        assert g.real == pytest.approx(-au.mu / (2 * math.pi * s), rel=tol)


@pytest.mark.parametrize("r, reason", [([0.0, 0.0, 0.0], "at the force center"),
                                       ([50.0, 0.0, 0.0], "at the source")],
                         ids=["force_centre", "source"])
def test_green_qm_refuses_the_force_centre_and_the_source(au, r, reason):
    spec = cs.energy_from_nu(9.7, au)
    with pytest.raises(RegionError, match=reason):
        cs.green_qm(r, [50.0, 0.0, 0.0], spec, au)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_qm_field_rejects_non_finite_points(au, bad):
    # a component that is not finite, or whose square overflows, is named
    # before any mesh is built, and no RuntimeWarning escapes
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    pts = np.array([[80.0, 30.0, 0.0], [10.0, bad, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"point \[10\.0, .+, 0\.0\]"):
            qm_field(pts, rp, spec, au)
        with pytest.raises(ValueError, match="no finite Lambert lengths"):
            cs.green_qm(pts[1], rp, spec, au)


def test_a_mesh_above_the_cap_is_refused_before_it_is_built(au, monkeypatch):
    # nu = 1000.3 needs about 1e8 points; no sweep may start
    def no_sweep(*args, **kwargs):
        raise AssertionError("solve_radial called")

    monkeypatch.setattr(qm_oracle, "solve_radial", no_sweep)
    spec = cs.energy_from_nu(1000.3, au)
    r_max, h = default_mesh(spec, au, 40.0)
    assert round(r_max / h) + 1 > MAX_MESH_POINTS
    with pytest.raises(MeshTooLargeError, match=r"radial mesh of [\d,]+ points") as info:
        qm_field(np.array([[10.0, 13.0, 0.0]]), np.array([40.0, 0.0, 0.0]), spec, au)
    assert isinstance(info.value, cs.errors.CoulombSCError)
    # below the cap the mesh is default_mesh's
    spec = cs.energy_from_nu(300.3, au)
    r_max, h = capped_mesh(spec, au, 40.0)
    assert (r_max, h) == default_mesh(spec, au, 40.0)
    assert round(r_max / h) + 1 <= MAX_MESH_POINTS


def test_underflowed_points_are_unconverged(au, capsys):
    # one mesh out to 6000 Bohr spans more than float64's range of the l = 0
    # growth at nu = 5.3: the values it lost are NaN with reason
    # unconverged, not -0 with status OK, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["scan", "--nu", "5.3", "--source", "20,0,0", "--grid=x:30:6000:3",
                     "--grid=y:10:11:2", "--method", "qm"])
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert code == 0 and len(rows) == 6
        assert all(row[2] == "nan" and row[6] == "unconverged" for row in rows)
        spec = cs.energy_from_nu(5.3, au)
        rp = np.array([20.0, 0.0, 0.0])
        with pytest.raises(IllConditionedError, match="underflow"):
            cs.green_qm(np.array([6000.0, 10.0, 0.0]), rp, spec, au)
        # the near point alone keeps its value
        near = qm_field(np.array([[30.0, 10.0, 0.0], [600.0, 10.0, 0.0]]), rp, spec, au)
        assert near[0] == pytest.approx(9.48e-3, rel=1e-3) and np.all(np.isfinite(near))


def test_radial_green_below_the_mesh_start(au):
    # l = 40 at nu = 5.3 starts its table at j0 h = 1.475 Bohr; below it the
    # origin series gives u_reg, where interpolation extrapolated to 1e-10
    # against -9.8e-34; the ratio tests the series, the value the mesh
    E = cs.energy_from_nu(5.3, au).E
    ref = {rs: whittaker_radial_green(40, rs, 3.0, E, au) for rs in (0.5, 1.2)}
    mine = {rs: radial_green(40, rs, 3.0, E, au) for rs in (0.5, 1.2)}
    assert mine[0.5] == pytest.approx(ref[0.5], rel=5e-3, abs=0.0)
    assert mine[0.5] / mine[1.2] == pytest.approx(ref[0.5] / ref[1.2], rel=1e-9)


def test_radial_green_below_the_mesh_start_at_high_l(au):
    # l = 170 at nu = 1.4: below r_0 = 1.215 Bohr the r^(l+1) law takes
    # u_reg(r_0) (x/r_0)^(l+1) ~ 8e-243 1e-115 under float64's range, while
    # the true g_l at r_< = 0.26 is about -4e-184; summed in logs, the
    # product keeps it, to the default mesh's error at l = 170, which the
    # table holds just above r_0 too
    E = cs.energy_from_nu(1.4, au).E
    for rs in (0.26, 0.30, 1.22):
        ref = whittaker_radial_green(170, rs, 3.0, E, au)
        assert ref < -1e-200  # normal in float64
        assert radial_green(170, rs, 3.0, E, au) == pytest.approx(ref, rel=2e-2, abs=0.0)


def test_green_qm_pole_guard(au):
    rp = np.array([50.0, 0.0, 0.0])
    r = np.array([80.0, 30.0, 0.0])
    with pytest.raises(PoleError):
        spec = cs.energy_from_nu(9.0 + 1e-12, au)
        cs.green_qm(r, rp, spec, au)


def test_field_convergence_with_l_max(au):
    # away from the sphere |r| = |r'| the partial-wave sum is settled by
    # l_max = 30 at this scale; it agrees with the one-channel closed form
    spec = cs.energy_from_nu(5.3, au)
    rp = np.array([20.0, 0.0, 0.0])
    pts = np.array([[35.0, 12.0, 0.0], [6.0, 8.0, 0.0], [-40.0, 20.0, 0.0],
                    [3.0, -5.0, 0.0]])
    v30, _ = partial_wave_green(pts, rp, spec, au, l_max=30)
    v40, tail = partial_wave_green(pts, rp, spec, au, l_max=40)
    scale = np.max(np.abs(v40))
    assert np.max(tail) < 1e-8
    assert np.max(np.abs(v40 - v30)) < 1e-6 * scale
    assert np.max(np.abs(qm_field(pts, rp, spec, au) - v40)) < 1e-8 * scale


def test_field_l_max_stability_at_comparison_geometry(au, nu53_cut):
    # on the criterion-8 cut the l <= 40 sum settles at most samples; there
    # it matches the exact column the acceptance criteria use
    vals, tail = partial_wave_green(nu53_cut["pts"], nu53_cut["rp"],
                                    nu53_cut["spec"], au, l_max=40)
    settled = tail < 1e-7
    assert settled.sum() >= 120
    qm = nu53_cut["qm"]
    assert np.max(np.abs(vals[settled] - qm[settled])) < 1e-6 * np.max(np.abs(qm))


def test_hostler_closed_form_vs_mpmath(au, nu53_cut):
    # the 17 samples of the criterion-8 cut where an l <= 80 partial-wave
    # sum has not settled, and a point 0.008 Bohr off the focal line
    xs, qm = nu53_cut["xs"], nu53_cut["qm"]
    pick = np.where((xs > 35.8) & (xs < 41.3))[0]
    assert len(pick) == 17
    ref = np.array([hostler_green(p, nu53_cut["rp"], 5.3) for p in nu53_cut["pts"][pick]])
    assert np.max(np.abs(qm[pick] - ref)) < 1e-7 * np.max(np.abs(ref))
    spec = cs.energy_from_nu(5.3, au)
    rp, r = np.array([20.0, 0.0, 0.0]), np.array([-10.0, 0.5, 0.0])
    assert cs.lambert_variables(r, rp, au).alpha_minus < 0.1
    assert cs.green_qm(r, rp, spec, au).value.real == pytest.approx(
        hostler_green(r, rp, 5.3), rel=1e-6)


def test_qm_poles_match_spectrum(au):
    # the full Green function diverges approaching an eigenvalue
    rp = np.array([50.0, 0.0, 0.0])
    r = np.array([80.0, 30.0, 0.0])
    vals = []
    for off in (1e-2, 1e-4):
        spec = cs.energy_from_nu(9.0 + off, au)
        vals.append(abs(cs.green_qm(r, rp, spec, au).value))
    assert vals[1] > 50.0 * vals[0]
