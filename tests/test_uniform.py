"""Airy machinery and the uniform approximation across the caustic."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

import coulomb_sc as cs
from coulomb_sc import uniform as U
from coulomb_sc.errors import RegionError, UnsupportedDimensionError


# --- Airy function of the first kind ---------------------------------------

def maclaurin_airy(x, terms=120):
    """Independent oracle: direct Maclaurin summation with mpmath-grade
    constants, valid for moderate |x|."""
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    # y'' = x y with (y(0), y'(0)) = (1, 0) and (0, 1)
    c = [1.0, 0.0, 0.0]
    f = fp = 0.0
    g = gp = 0.0
    coef_f = {0: 1.0}
    coef_g = {1: 1.0}
    for coefs, attr in ((coef_f, "f"), (coef_g, "g")):
        for n in range(0, terms):
            if n in coefs:
                coefs[n + 3] = coefs[n] / ((n + 3.0) * (n + 2.0))
        val = sum(cn * x**n for n, cn in sorted(coefs.items()))
        der = sum(n * cn * x ** (n - 1) for n, cn in sorted(coefs.items()) if n > 0)
        if attr == "f":
            f, fp = val, der
        else:
            g, gp = val, der
    return ai0 * f + aip0 * g, ai0 * fp + aip0 * gp


def test_airy_at_zero():
    assert U.airy_ai_both(0.0)[0] == pytest.approx(0.3550280538878172, rel=1e-14)
    assert U.airy_ai_both(0.0)[1] == pytest.approx(-0.2588194037928068, rel=1e-14)


def test_airy_against_maclaurin_oracle():
    for x in (-5.5, -2.0, -0.3, 0.7, 2.4, 5.0):
        ai, aip = maclaurin_airy(x)
        assert U.airy_ai_both(x)[0] == pytest.approx(ai, abs=1e-12)
        assert U.airy_ai_both(x)[1] == pytest.approx(aip, abs=1e-12)


def test_airy_against_scipy_everywhere():
    xs = np.linspace(-40.0, 25.0, 1301)
    for x in xs:
        ref_ai, ref_aip, _, _ = special.airy(x)
        assert abs(U.airy_ai_both(float(x))[0] - ref_ai) < 1e-10
        assert abs(U.airy_ai_both(float(x))[1] - ref_aip) < 1e-10


def test_airy_defining_ode():
    # Ai'' = x Ai via central differences; h large enough that the stencil
    # does not amplify the ~1e-12 absolute accuracy of the values
    h = 2e-3
    for x in (-8.0, -3.3, 0.4, 2.2, 5.0):
        second = (U.airy_ai_both(x + h)[0] - 2 * U.airy_ai_both(x)[0]
                  + U.airy_ai_both(x - h)[0]) / h**2
        assert second == pytest.approx(x * U.airy_ai_both(x)[0], rel=1e-3, abs=1e-9)


def loop_maclaurin_airy(x):
    """The Maclaurin branch of ``airy_ai_both`` with its denominators
    computed term by term, as the kernel did before it read them from a
    table: the reference the table must reproduce bit for bit."""
    x2 = x * x
    tf, f, fp = 1.0, 1.0, 0.0
    tg, g, gp = x, x, 1.0
    for k in range(1, 80):
        fp += tf * x2 / (3.0 * k - 1.0)
        tf = tf * x2 * x / ((3.0 * k) * (3.0 * k - 1.0))
        f += tf
        gp += tg * x2 / (3.0 * k)
        tg = tg * x2 * x / ((3.0 * k + 1.0) * (3.0 * k))
        g += tg
        if abs(tf) + abs(tg) < 1e-20 * (1.0 + abs(f) + abs(g)):
            break
    return U._AI0 * f + U._AIP0 * g, U._AI0 * fp + U._AIP0 * gp


def test_airy_maclaurin_is_the_term_by_term_loop_bit_for_bit():
    rng = np.random.default_rng(1964)
    xs = np.concatenate([rng.uniform(-7.0, 7.0, 20000), [-7.0, 7.0, 0.0, -0.0, 1e-300]])
    for x in xs.tolist():
        assert U.airy_ai_both(x) == loop_maclaurin_airy(x), x


# --- uniform approximation ---------------------------------------------------

def test_requires_three_dimensions(au):
    spec = cs.energy_from_nu(9.7, au.with_ndim(2))
    with pytest.raises(UnsupportedDimensionError):
        cs.green_uniform(np.array([3.0, 1.0]), np.array([5.0, 0.0]), spec,
                         au.with_ndim(2))


def test_uniform_inputs_branches(au):
    spec = cs.energy_from_nu(9.7, au)
    rp = np.array([50.0, 0.0, 0.0])
    inside = cs.uniform_inputs(np.array([80.0, 30.0, 0.0]), rp, spec, au)
    assert inside[0].zeta > 0 and inside[1].zeta == inside[0].zeta
    outside = cs.uniform_inputs(np.array([160.0, 120.0, 0.0]), rp, spec, au)
    assert outside[0].zeta < 0
    # the two pairs differ only by the inner-leg action in the phase
    wm = cs.reduced_action_bound(
        cs.lambert_variables([80.0, 30.0, 0.0], rp).alpha_minus, spec, au)
    assert inside[1].xi - inside[0].xi == pytest.approx(2 * wm, rel=1e-12)


def test_finite_on_caustic_while_primitive_diverges(au):
    spec = cs.energy_from_nu(9.7, au)
    a = spec.a
    rp = np.array([50.0, 0.0, 0.0])
    on = np.array([2.0 * a, 0.0, 0.0])  # exactly alpha_plus = 4a
    pair = cs.lambert_variables(on, rp)
    assert cs.classify_region(pair, spec).tag is cs.Region.ON_CAUSTIC
    val = cs.green_uniform(on, rp, spec, au).value
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    # primitive amplitude blows up like 1/sqrt(v_plus) approaching the point
    near = np.array([2.0 * a * (1 - 5e-7), 0.0, 0.0])
    g_near = cs.green_sc_bound(near, rp, spec, au).value
    assert abs(g_near) > 20.0 * abs(val)


def test_continuity_across_caustic(au):
    # value and first finite-difference derivative continuous at alpha_+ = 4a
    spec = cs.energy_from_nu(29.2, au)
    rp = np.array([1232.0, 0.0, 0.0])
    y = 400.0
    # locate the crossing along x at fixed y
    f = lambda x: (math.hypot(x, y) + 1232.0
                   + math.hypot(x - 1232.0, y)) - 4 * spec.a
    lo, hi = 1500.0, 1700.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    xc = 0.5 * (lo + hi)
    # steps large enough that the on-caustic nudge (relative 1e-7 in
    # alpha_plus) is invisible next to the stencil spacing
    d = 0.05
    vals = [cs.green_uniform(np.array([xc + k * d, y, 0.0]), rp, spec, au).value.real
            for k in (-2, -1, 0, 1, 2)]
    jump = abs(vals[2] - 0.5 * (vals[1] + vals[3]))
    assert jump < 1e-5 * abs(vals[2])
    left_slope = (vals[2] - vals[0]) / (2 * d)
    right_slope = (vals[4] - vals[2]) / (2 * d)
    assert left_slope == pytest.approx(right_slope, rel=1e-2)


def test_merges_with_primitive_away_from_caustic(au):
    # deep in the allowed region (zeta >= 5) the uniform and primitive
    # values agree to better than 2 percent pointwise away from nodes
    # (near a node the pointwise ratio is ill-conditioned, so points below
    # 0.3 of the sample envelope are referenced to the envelope instead)
    spec = cs.energy_from_nu(29.2, au)
    rp = np.array([600.0, 0.0, 0.0])
    pairs = []
    for x in np.linspace(-500.0, 900.0, 29):
        for y in (100.0, 300.0, 600.0):
            r = np.array([x, y, 0.0])
            pair = cs.lambert_variables(r, rp)
            if cs.classify_region(pair, spec).tag is not cs.Region.ALLOWED:
                continue
            p14, _ = cs.uniform_inputs(r, rp, spec, au)
            if p14.zeta < 5.0:
                continue
            ua = cs.green_uniform(r, rp, spec, au).value.real
            sc = cs.green_sc_bound(r, rp, spec, au).value.real
            pairs.append((ua, sc))
    assert len(pairs) > 40
    envelope = max(abs(sc) for _, sc in pairs)
    for ua, sc in pairs:
        assert abs(ua - sc) < 2e-2 * max(abs(sc), 0.3 * envelope)


def test_tunnel_side_matches_decay(au):
    # deep in the tunnel the uniform value follows the tunneling
    # continuation within 5 percent, and decays monotonically
    spec = cs.energy_from_nu(29.2, au)
    a = spec.a
    rp_norm = 1232.0
    rp = np.array([rp_norm, 0.0, 0.0])
    am = 2000.0
    prev = None
    for frac in np.linspace(1.12, 1.8, 12):
        ap = 4 * a * frac
        s = (ap - am) / 2
        r = (ap + am) / 2 - rp_norm
        ct = (r * r + rp_norm**2 - s * s) / (2 * r * rp_norm)
        th = math.acos(max(-1.0, min(1.0, ct)))
        rv = np.array([r * math.cos(th), r * math.sin(th), 0.0])
        ua = abs(cs.green_uniform(rv, rp, spec, au).value)
        tn = abs(cs.green_sc_tunnel(rv, rp, spec, au).value)
        p14, _ = cs.uniform_inputs(rv, rp, spec, au)
        if p14.zeta < -3.0:
            assert ua / tn == pytest.approx(1.0, abs=5e-2)
        if prev is not None:
            assert ua < prev
        prev = ua


def test_unsupported_points_name_their_reason(au):
    # the Langer construction leaves out two kinds of pair: the inner leg
    # at or past its turning point (doubly forbidden), and both legs
    # inside the inner turning point z_in (alpha_+ below about 1/4 Bohr)
    spec = cs.energy_from_nu(5.3, au)
    a = spec.a
    r, rp = [3.0 * a, 1.5 * a, 0.0], [3.0 * a, 0.0, 0.0]
    assert cs.lambert_variables(r, rp).alpha_minus > 4.0 * a
    with pytest.raises(RegionError, match="doubly forbidden"):
        cs.green_uniform(r, rp, spec, au)
    with pytest.raises(RegionError, match="both legs lie inside the inner turning point"):
        cs.green_uniform([0.01, 0.02, 0.0], [0.02, 0.0, 0.0], spec, au)
    # an allowed pair whose inner leg lies within 0.1% of z_out is refused
    # too, and for that reason, not as doubly forbidden
    spec = cs.energy_from_nu(7.8406, au)
    four_a = 4.0 * spec.a
    ap, am = 0.99834 * four_a, 0.99815 * four_a
    r = (ap + am) / 4.0
    half = math.asin((ap - am) / (4.0 * r))  # |r - r'| = (ap - am)/2 at |r| = |r'|
    r, rp = [r, 0.0, 0.0], [r * math.cos(2.0 * half), r * math.sin(2.0 * half), 0.0]
    pair = cs.lambert_variables(r, rp)
    assert cs.classify_region(pair, spec).tag is cs.Region.ALLOWED
    with pytest.raises(RegionError, match="within 0.1% of its turning point z_out") as err:
        cs.green_uniform(r, rp, spec, au)
    assert "doubly forbidden" not in str(err.value)


# --- Langer amplitude next to the turning points ---------------------------

def langer_amplitude_mp(z, nu, outer):
    """(f, f') of the closed forms at the float z, in mpmath: the phase
    integral sqrt(R) + nu asin((z - 2 nu)/D) - asin((2 nu z - 1)/(z D))/2
    from the turning point (imaginary beyond it) gives (2/3) |zeta|^(3/2),
    f = (zeta / Q_L)^(1/4) and f' = f/4 (-sigma / (f^2 zeta) - Q_L'/Q_L).
    They cancel about 2 log10(z / t) digits at a distance t from the turning
    point, 32 at the float nearest to it, so 120 working digits keep more
    than 40."""
    with mp.workdps(120):
        z, nu = mp.mpf(z), mp.mpf(nu)
        d = mp.sqrt(4 * nu * nu - 1)
        z_out = 2 * nu + d
        z_in = 1 / z_out
        z_turn, sigma = (z_out, 1) if outer else (z_in, -1)

        def phase(x):
            return (mp.sqrt(mp.mpc((z_out - x) * (x - z_in) / 4))
                    + nu * mp.asin(mp.mpc((x - 2 * nu) / d))
                    - mp.asin(mp.mpc((2 * nu * x - 1) / (x * d))) / 2)

        t = sigma * (z_turn - z)  # positive on the allowed side
        zeta = mp.sign(t) * (mp.mpf(3) / 2 * abs(phase(z) - phase(z_turn))) ** (mp.mpf(2) / 3)
        q = (z_out - z) * (z - z_in) / (4 * z * z)
        qp = (1 - 2 * nu * z) / (2 * z ** 3)
        f = (zeta / q) ** (mp.mpf(1) / 4)
        return float(f), float(f / 4 * (-sigma / (f * f * zeta) - qp / q))


@pytest.mark.parametrize("nu", [5.3, 29.2])
@pytest.mark.parametrize("outer", [True, False], ids=["z_out", "z_in"])
def test_langer_amplitude_next_to_the_turning_points(nu, outer):
    # f and f' to 1e-9 relative on both sides of each turning point, scalar
    # and array: the closed forms evaluated in floats lost about 7 digits
    # of f' there (the bound was fixed before any value was looked at)
    z_out = 2.0 * nu + math.sqrt(4.0 * nu * nu - 1.0)
    z_turn = z_out if outer else 1.0 / z_out
    for delta in (0.0, 2e-5, -2e-5, 1e-4, -1e-4, 1e-3, -1e-3):
        z = z_turn * (1.0 + delta)
        want = langer_amplitude_mp(z, nu, outer)
        scalar = U._amplitude(z, nu, outer)[1:3]
        array = [v[0] for v in U._amplitude_array(np.array([z]), nu, outer)[1:3]]
        for got in (scalar, array):
            for g, w in zip(got, want):
                assert abs(g / w - 1.0) <= 1e-9, (delta, got, want)
