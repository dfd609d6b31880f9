"""The array kernels against the scalar kernels, point by point.

``sc_bound_field`` and ``ua_field`` evaluate the expressions of
``sc_bound_point`` and ``ua_point`` array-wise, one masked set of array
operations per branch.  On every branch -- each status code, both turning
points of the Langer construction, the blend of its regular solution --
they must give the same region and status, the same NaN pattern, and
values equal to rounding in units of the largest value (a pointwise
relative bound cannot hold at the nodes of the field).
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
from coulomb_sc import uniform as U
from coulomb_sc.semiclassical import sc_constants
from coulomb_sc.uniform import ua_constants

NU = 5.3
TOL = 1e-11  # of max|G|
N_CLOUD = 5000 - 300  # with the constructed points, not a multiple of FIELD_BLOCK


def elliptic_points(rp, u, v, z=0.0):
    """Points with r + s = u and r - s = v for the source (rp, 0, 0), so
    that alpha_+ = u + rp and alpha_- = v + rp (rp <= u, |v| <= rp)."""
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    r = 0.5 * (u + v)
    x = (rp * rp + u * v) / (2.0 * rp)
    y = np.sqrt(np.maximum(r * r - x * x, 0.0))
    return np.stack([x, y, np.full_like(x, z)], axis=1)


def cloud(rng, rp, ndim, n=N_CLOUD):
    """Random points in a box around the origin and the source."""
    pts = rng.uniform(-2.5 * rp, 3.0 * rp, size=(n, 3))
    if ndim == 2:
        pts[:, 2] = 0.0
    return pts


def scalar_map(point_kernel, R, rp_vec, *args):
    """The scalar kernel called point by point on the Lambert lengths
    (s, alpha_+, alpha_-) of the rows of R."""
    _, _, s, ap, am = K.lambert_arrays(R, rp_vec)
    out = [point_kernel(*lengths, *args)
           for lengths in zip(s.tolist(), ap.tolist(), am.tolist())]
    vals = np.array([o[0] for o in out], dtype=complex)
    return (vals, np.array([o[1] for o in out], dtype=np.int8),
            np.array([o[2] for o in out], dtype=np.int8))


def assert_same(array_result, scalar_result):
    vals, region, status = array_result
    ref, ref_region, ref_status = scalar_result
    assert vals.dtype == np.complex128 and region.dtype == status.dtype == np.int8
    np.testing.assert_array_equal(region, ref_region)
    np.testing.assert_array_equal(status, ref_status)
    np.testing.assert_array_equal(np.isnan(vals), np.isnan(ref))
    finite = np.isfinite(ref)
    scale = np.max(np.abs(ref[finite]))
    assert np.max(np.abs(vals[finite] - ref[finite])) <= TOL * scale


def sc_points(rng, rp, a, ndim):
    """Constructed points on every SC branch for the source (rp, 0, 0),
    then a random cloud."""
    four_a = 4.0 * a
    k = 12
    parts = [
        np.array([[rp, 0.0, 0.0]]),                              # source
        np.array([[-0.3 * rp, 0.0, 0.0], [-2.0 * rp, 0.0, 0.0]]),  # focal line
        cloud(rng, rp, ndim),
    ]
    if four_a > 2.0 * rp:  # the caustic alpha_+ = 4a crosses this source's plane
        u = four_a - rp
        v = rng.uniform(-0.9 * rp, 0.9 * rp, k)
        parts += [elliptic_points(rp, u, v),                      # on the caustic
                  elliptic_points(rp, u * (1.0 + 2e-9), v),       # just outside the band
                  elliptic_points(rp, rng.uniform(rp, u, k), v)]  # allowed
    parts.append(elliptic_points(rp, rng.uniform(four_a, 3 * four_a, k),
                                 rng.uniform(-rp, rp, k)))      # forbidden
    if 2.0 * rp > four_a:  # alpha_- can pass 4a: doubly forbidden
        parts.append(elliptic_points(rp, rng.uniform(rp, 3 * rp, k),
                                     rng.uniform(four_a - rp, rp, k)))
        parts.append(elliptic_points(rp, rng.uniform(rp, 3 * rp, k),
                                     four_a - rp))                # inner turning point
    return np.concatenate(parts)


@pytest.mark.parametrize("ndim", [2, 3])
def test_sc_field_matches_point_kernel(ndim):
    params = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(NU, params)
    args = sc_constants(spec, params)
    rng = np.random.default_rng(20261018 + ndim)
    reached = set()
    # the first source sees the caustic, the second the doubly forbidden zone
    for rp in (0.35 * spec.a, 2.5 * spec.a):
        rp_vec = np.array([rp, 0.0, 0.0])
        R = sc_points(rng, rp, spec.a, ndim)
        assert R.shape[0] % K.FIELD_BLOCK != 0
        ref = scalar_map(K.sc_bound_point, R, rp_vec, *args)
        assert_same(K.sc_bound_field(R, rp_vec, *args), ref)
        _, _, _, ap, am = K.lambert_arrays(R, rp_vec)
        four_a = 4.0 * spec.a
        for reg, st, a_m in zip(ref[1], ref[2], am):
            doubly = st == K.STATUS_OK and a_m >= four_a
            reached.add(("doubly" if doubly else reg, st))
    assert reached >= {
        (K.REGION_ALLOWED, K.STATUS_SOURCE),
        (K.REGION_ALLOWED, K.STATUS_FOCAL), (K.REGION_FORBIDDEN, K.STATUS_FOCAL),
        (K.REGION_CAUSTIC, K.STATUS_CAUSTIC), (K.REGION_FORBIDDEN, K.STATUS_CAUSTIC),
        (K.REGION_ALLOWED, K.STATUS_OK), (K.REGION_FORBIDDEN, K.STATUS_OK),
        ("doubly", K.STATUS_OK),
    }


@pytest.mark.parametrize("ndim", [2, 3])
def test_sc_inner_turning_point_is_flagged(ndim):
    # r - s = 4a - r': alpha_- = 4a to rounding, beyond the caustic; the
    # inner leg's velocity vanishes there and the primitive form divides by it
    params = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(NU, params)
    args = sc_constants(spec, params)
    four_a = 4.0 * spec.a
    rp = 2.5 * spec.a
    rp_vec = np.array([rp, 0.0, 0.0])
    R = elliptic_points(rp, np.linspace(1.2 * rp, 3.0 * rp, 7), four_a - rp)
    _, _, _, ap, am = K.lambert_arrays(R, rp_vec)
    assert np.all(np.abs(am - four_a) <= 1e-12 * four_a) and np.all(ap > four_a)
    # the scalar kernel on the same points is held to this by the tie test
    with np.errstate(all="raise"):
        vals, region, status = K.sc_bound_field(R, rp_vec, *args)
    assert np.all(np.isnan(vals))
    assert np.all(region == K.REGION_FORBIDDEN) and np.all(status == K.STATUS_CAUSTIC)
    # alpha_- = 4a to the last bit, where a complex division by zero was raised
    r = 0.5 * four_a + 1.0
    assert r + r - 2.0 == four_a
    val, reg, st = K.sc_bound_point(2.0, r + r + 2.0, r + r - 2.0, *args)
    assert math.isnan(val.real) and (reg, st) == (K.REGION_FORBIDDEN, K.STATUS_CAUSTIC)


def two_path_continuation(s, ap, am, spec, params):
    """The SC beyond the caustic as the elementary two-path continuation:
    each leg past 4a takes v -> i w and W -> pi a sk + i Im W, times the
    elementary prefactor and the loop factor, in complex arithmetic on the
    principal branch.  Returns the value and a node-free scale, the sum of
    the two paths' moduli."""
    a, n, mu, hbar = spec.a, params.ndim, params.mu, params.hbar
    sk, cv, _ = cs.model.bound_regime(spec, params)
    p = (n - 1.0) / 2.0

    def leg(alpha):
        if alpha < 4.0 * a:
            return complex(K.w_bound(alpha, a, sk), 0.0), complex(K.v_bound(alpha, a, cv), 0.0)
        return (complex(math.pi * a * sk, K.w_bound_forbidden_im(alpha, a, sk)),
                complex(0.0, cv * math.sqrt((alpha - 4.0 * a) / alpha)))

    (wtp, vpc), (wtm, vmc) = leg(ap), leg(am)
    denc = cmath.sqrt(vpc * vmc)
    t1 = (mu * (vmc + vpc) / (2.0 * s)) ** p / denc * cmath.exp(1j * (wtp - wtm) / hbar)
    t2 = (cmath.exp(-0.5j * math.pi * (n - 2.0)) * (mu * (vmc - vpc) / (2.0 * s)) ** p / denc
          * cmath.exp(1j * (wtp + wtm) / hbar))
    pref = (-1.0 / (1j * hbar * (-2j * math.pi * hbar) ** p)
            * cs.loop_factor(cs.round_trip(spec, params)[0], n, hbar))
    return pref * (t1 + t2), abs(pref) * (abs(t1) + abs(t2))


def tunnel_points(rng, a, ndim, n):
    """(points, source) pairs beyond the caustic with the inner leg allowed,
    for two sources, the inner leg far from and near its turning point, in
    the plane of the first two axes."""
    four_a = 4.0 * a
    out = []
    for rp, m in ((0.35 * a, n // 2), (1.9 * a, n - n // 2)):
        v = rp * rng.uniform(-0.99, 0.99, m)
        R = elliptic_points(rp, rng.uniform(np.maximum(four_a * 1.001 - rp, v), 3.0 * four_a), v)
        pts = np.zeros((m, ndim))
        pts[:, :2] = R[:, :2]
        source = np.zeros(ndim)
        source[0] = rp
        out.append((pts, source))
    return out


@pytest.mark.parametrize("ndim", [3, 5])
def test_odd_n_forbidden_value_is_real(ndim):
    # inner leg allowed (alpha_- < 4a): the tunnelling value of odd n is
    # real; the complex continuation it sums carries rounding noise, which
    # the real form has not
    params = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(NU, params)
    args = sc_constants(spec, params)
    a = spec.a
    four_a = 4.0 * a
    rng = np.random.default_rng(20261020 + ndim)
    rp = 0.35 * a
    rp_vec = np.array([rp, 0.0, 0.0])
    R = elliptic_points(rp, rng.uniform(four_a * 1.001 - rp, 3.0 * four_a, 200),
                        rng.uniform(-0.99 * rp, 0.99 * rp, 200))
    _, _, s, ap, am = K.lambert_arrays(R, rp_vec)
    assert np.all(ap > four_a) and np.all(am < four_a)
    raw, scale = np.array([two_path_continuation(*v, spec, params)
                           for v in zip(s.tolist(), ap.tolist(), am.tolist())]).T
    scale = scale.real
    assert np.max(np.abs(raw.imag) / np.abs(raw)) <= 1e-10
    assert np.any(raw.imag != 0.0)  # the noise the real form does not make
    vals, _, status = K.sc_bound_field(R, rp_vec, *args)
    assert np.all(status == K.STATUS_OK)
    assert np.all(vals.imag == 0.0) and not np.any(np.signbit(vals.imag))
    assert np.max(np.abs(vals.real - raw.real) / scale) <= 1e-13
    for s_, ap_, am_, want, scl, v in zip(s.tolist(), ap.tolist(), am.tolist(), raw, scale, vals):
        val = K.sc_bound_point(s_, ap_, am_, *args)[0]
        assert val.imag == 0.0 and not math.copysign(1.0, val.imag) < 0.0
        assert abs(val.real - want.real) <= 1e-13 * scl
        assert abs(val.real - v.real) <= 1e-13 * scl


@pytest.mark.parametrize("ndim", [2, 3, 4, 5])
def test_forbidden_forms_are_the_two_path_continuation(ndim):
    # beyond the caustic with the inner leg allowed, both kernels give the
    # elementary two-path continuation summed in closed form:
    # pref_merged * B / sin(pi k), B real
    params = cs.SystemParams(ndim=ndim)
    rng = np.random.default_rng(20261021 + ndim)
    worst = 0.0
    for nu in (5.3, 9.7, 29.2):
        spec = cs.energy_from_nu(nu, params)
        four_a = 4.0 * spec.a
        args = sc_constants(spec, params)
        pref = args[7] / args[8]
        for R, rp_vec in tunnel_points(rng, spec.a, ndim, 200):
            vals, _, status = K.sc_bound_field(R, rp_vec, *args)
            assert np.all(status == K.STATUS_OK)
            _, _, s, ap, am = K.lambert_arrays(R, rp_vec)
            assert np.all(ap > four_a) and np.all(am < four_a)
            for v, lengths in zip(vals, zip(s.tolist(), ap.tolist(), am.tolist())):
                want, scale = two_path_continuation(*lengths, spec, params)
                val = K.sc_bound_point(*lengths, *args)[0]
                worst = max(worst, abs(val - want) / scale, abs(v - want) / scale)
                assert (val / pref).imag == 0.0 and (v / pref).imag == 0.0
    assert worst <= 1e-13


def hostler_primitive(s, ap, am, nu):
    """Hostler's n = 3 bracket g0/s (W'(x) M(y) - W(x) M'(y)), x, y =
    alpha_+-/nu, in atomic units with the primitive WKB pair of
    Q = nu/z - 1/4, each function differentiated through its phase or
    exponent only, with w = int_0^z sqrt(Q) and K = int_4nu^z sqrt(-Q):
      - W = pi^(-1/2) Q^(-1/4) sin(pi nu - w(x) + pi/4) inside the caustic,
        W = pi^(-1/2) |Q|^(-1/4) e^(-K(x)) / 2 beyond it;
      - M = Q^(-1/4) sin(w(y) - pi/4) inside, and continued past the turning
        point, M = |Q|^(-1/4) [sin(pi nu) e^(K(y)) - cos(pi nu) e^(-K(y)) / 2].
    Evaluated in mpmath.  Returns the value and a node-free scale, the sum
    of the two products' amplitudes."""
    with mp.workdps(30):
        n = mp.mpf(nu)
        x, y = mp.mpf(ap) / n, mp.mpf(am) / n
        qx, qy = abs(n / x - 0.25), abs(n / y - 0.25)

        def phase(z):
            g = 2 * mp.asin(mp.sqrt(z / (4 * n)))
            return n * (g + mp.sin(g))

        def depth(z):
            return mp.sqrt(z * (z - 4 * n)) / 2 - 2 * n * mp.acosh(mp.sqrt(z / (4 * n)))

        if x < 4 * n:  # W and W' with the amplitudes of each
            ph = mp.pi * n - phase(x) + mp.pi / 4
            aw, adw = qx ** -0.25 / mp.sqrt(mp.pi), qx ** 0.25 / mp.sqrt(mp.pi)
            w, dw = aw * mp.sin(ph), -adw * mp.cos(ph)
        else:
            w = aw = qx ** -0.25 * mp.exp(-depth(x)) / (2 * mp.sqrt(mp.pi))
            dw, adw = -mp.sqrt(qx) * w, mp.sqrt(qx) * w
        if y < 4 * n:  # M and M' with the amplitudes of each
            ph = phase(y) - mp.pi / 4
            am_, adm = qy ** -0.25, qy ** 0.25
            m, dm = am_ * mp.sin(ph), adm * mp.cos(ph)
        else:
            e, sp, cp = mp.exp(depth(y)), mp.sin(mp.pi * n), mp.cos(mp.pi * n)
            m, dm = (sp * e - cp / (2 * e)) * qy ** -0.25, (sp * e + cp / (2 * e)) * qy ** 0.25
            am_ = (abs(sp) * e + abs(cp) / (2 * e)) * qy ** -0.25
            adm = am_ * mp.sqrt(qy)
        c = 1 / (2 * mp.sqrt(mp.pi) * mp.sin(mp.pi * n) * s)
        return float(c * (dw * m - w * dm)), float(abs(c) * (adw * am_ + aw * adm))


@pytest.mark.parametrize("nu", [5.3, 9.7, 29.2, 60.3])
def test_sc_brackets_are_hostlers_bracket(nu):
    # n = 3: each of the three SC branches is Hostler's bracket with the
    # primitive pair: the oscillating W where the point is allowed, the
    # decaying W beyond the caustic, and the continued M where the inner leg
    # is forbidden too.  alpha_+ stays below 2 (4a): the rounding of K_+/hbar
    # (a few ulp of a number of order nu) alone would pass the bound deeper
    params = cs.AU
    spec = cs.energy_from_nu(nu, params)
    args = sc_constants(spec, params)
    a = spec.a
    four_a = 4.0 * a
    rng = np.random.default_rng(20261023)
    branches = set()
    # (source, alpha_+ range, alpha_- from): allowed, tunnelling, doubly forbidden
    for rp, ap_lo, ap_hi, am_lo in ((0.35 * a, 0.7 * a, 0.999 * four_a, 0.0035 * a),
                                    (0.35 * a, 1.001 * four_a, 2.0 * four_a, 0.0035 * a),
                                    (2.5 * a, 5.0 * a, 2.0 * four_a, 1.001 * four_a)):
        rp_vec = np.array([rp, 0.0, 0.0])
        R = elliptic_points(rp, rng.uniform(ap_lo - rp, ap_hi - rp, 100),
                            rng.uniform(am_lo - rp, 0.99 * rp, 100))
        vals, _, status = K.sc_bound_field(R, rp_vec, *args)
        assert np.all(status == K.STATUS_OK)
        _, _, s, ap, am = K.lambert_arrays(R, rp_vec)
        for v, lengths in zip(vals, zip(s.tolist(), ap.tolist(), am.tolist())):
            want, scale = hostler_primitive(*lengths, nu)
            val = K.sc_bound_point(*lengths, *args)[0]
            for got in (val, v):
                assert abs(got.real - want) <= 1e-13 * scale
                assert got.imag == 0.0 and not math.copysign(1.0, got.imag) < 0.0
            branches.add("allowed" if lengths[1] < four_a else
                         "tunnel" if lengths[2] < four_a else "doubly")
    assert branches == {"allowed", "tunnel", "doubly"}


@pytest.mark.parametrize("ndim", [3, 5])
def test_odd_n_values_have_a_positive_zero_imaginary_part(ndim):
    # allowed, tunnelling and doubly forbidden values of odd n are real
    # whatever the signs of sin(pi k) and of the bracket: their imaginary
    # part is +0.0, never -0.0, so a scan writes the same bytes for the same
    # value
    params = cs.SystemParams(ndim=ndim)
    rng = np.random.default_rng(20261024 + ndim)
    for nu in (5.3, 6.3):
        spec = cs.energy_from_nu(nu, params)
        args = sc_constants(spec, params)
        four_a = 4.0 * spec.a
        branches, signs = set(), set()
        # a source inside half the caustic, and one beyond it, whose inner
        # leg passes 4a
        for rp, v_lo in ((0.35 * spec.a, -0.99 * 0.35 * spec.a),
                         (2.5 * spec.a, 1.001 * four_a - 2.5 * spec.a)):
            rp_vec = np.array([rp, 0.0, 0.0])
            R = elliptic_points(rp, rng.uniform(rp, 3.0 * four_a, 400),
                                rng.uniform(v_lo, 0.99 * rp, 400))
            vals, region, status = K.sc_bound_field(R, rp_vec, *args)
            ok = status == K.STATUS_OK
            am = K.lambert_arrays(R, rp_vec)[4][ok]
            branches |= {"doubly" if m > four_a else r
                         for r, m in zip(region[ok].tolist(), am.tolist())}
            signs |= set(np.sign(vals.real[ok]).tolist())
            assert np.all(vals.imag[ok] == 0.0) and not np.any(np.signbit(vals.imag[ok]))
            for v in scalar_map(K.sc_bound_point, R, rp_vec, *args)[0][ok]:
                assert v.imag == 0.0 and not np.signbit(v.imag)
        assert branches == {K.REGION_ALLOWED, K.REGION_FORBIDDEN, "doubly"}
        assert signs >= {-1.0, 1.0}


def test_ua_field_matches_point_kernel():
    params = cs.AU
    spec = cs.energy_from_nu(NU, params)
    args = ua_constants(spec, params)
    _, nu, kappa, _ = args[:4]
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    z_in = 1.0 / z_out
    rng = np.random.default_rng(20261019)
    # relative offsets from each turning point: across the TP_WINDOW = 2e-4
    # window where the amplitude is summed from its Taylor series, and well
    # outside it.  Just outside the window the closed forms of zeta and f'
    # cancel terms of order 1/t and amplify rounding by about (z/t)^2, so
    # one-ulp differences between NumPy's and libm's asinh/exp/pow there
    # exceed the comparison's tolerance in both directions.
    offsets = np.array([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 3e-6, -3e-6, 9e-6, -9e-6,
                        1e-2, -1e-2])
    # farther into the window, with the other leg at a fixed alpha (rp, or
    # 3.5 rp): drawing it from rng would move every later random point, and
    # the cloud's points deep beyond z_out already sit close to TOL, where
    # Ai(-zeta) for -zeta near 7 carries the Maclaurin series' cancellation
    window = np.array([5e-5, -5e-5, 1.5e-4, -1.5e-4])
    ok_x, ok_y = [], []
    reached = set()
    for rp in (20.0, 60.0, 0.05):
        rp_vec = np.array([rp, 0.0, 0.0])
        parts = [np.array([[rp, 0.0, 0.0], [-0.5 * rp, 0.0, 0.0]]),  # source, focal
                 cloud(rng, rp, 3)]
        ap_out = z_out * (1.0 + offsets) / kappa   # x at the outer turning point
        am_in = z_in * (1.0 + offsets) / kappa     # y at the inner turning point
        if ap_out[0] > 2.0 * rp:
            parts.append(elliptic_points(rp, ap_out - rp, rng.uniform(-rp, rp, offsets.size)))
            parts.append(elliptic_points(rp, z_out * (1.0 + window) / kappa - rp, 0.0))
        if am_in[0] < 2.0 * rp:
            parts.append(elliptic_points(rp, rng.uniform(rp, 4.0 * rp, offsets.size),
                                         am_in - rp))
            parts.append(elliptic_points(rp, 2.5 * rp, z_in * (1.0 + window) / kappa - rp))
            am = np.geomspace(am_in[0], min(2.0 * rp, 40.0 * am_in[0]), 60)
            parts.append(elliptic_points(rp, rng.uniform(rp, 4.0 * rp, am.size), am - rp))
        R = np.concatenate(parts)
        assert R.shape[0] % K.FIELD_BLOCK != 0
        ref = scalar_map(U.ua_point, R, rp_vec, *args)
        assert_same(U.ua_field(R, rp_vec, *args), ref)
        _, _, _, ap, am = K.lambert_arrays(R, rp_vec)
        ok = ref[2] == K.STATUS_OK
        ok_x.append(kappa * ap[ok])
        ok_y.append(kappa * am[ok])
        reached |= set(ref[2].tolist())
    assert reached >= {K.STATUS_OK, K.STATUS_SOURCE, K.STATUS_FOCAL, K.STATUS_UNSUPPORTED}
    x, y = np.concatenate(ok_x), np.concatenate(ok_y)
    # the amplitude's Taylor series within TP_WINDOW of each turning point,
    # both sides
    for z, z_turn in ((x, z_out), (y, z_in)):
        near = z[np.abs(z - z_turn) < U.TP_WINDOW * z_turn]
        assert (near < z_turn).sum() >= 3 and (near > z_turn).sum() >= 3
    # the regular solution's blend of its Airy and primitive forms
    xi = np.array([U.langer_phase(v - z_in, v, d, z_out, -1.0) for v in y[y > z_in]])
    assert ((xi > U.XI_A) & (xi < U.XI_B)).sum() >= 10
    assert (xi <= U.XI_A).sum() >= 10 and (xi >= U.XI_B).sum() >= 10


def test_empty_input():
    spec = cs.energy_from_nu(NU, cs.AU)
    R = np.zeros((0, 3))
    rp_vec = np.array([20.0, 0.0, 0.0])
    for result in (K.sc_bound_field(R, rp_vec, *sc_constants(spec, cs.AU)),
                   U.ua_field(R, rp_vec, *ua_constants(spec, cs.AU))):
        assert [v.shape for v in result] == [(0,)] * 3
        assert [v.dtype for v in result] == [np.complex128, np.int8, np.int8]


def test_airy_array_matches_scalar():
    # all three argument ranges, their edges, and NaN; then no argument at all
    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-7.0, 7.0, np.nextafter(7.0, 8.0),
                                                         np.nextafter(-7.0, -8.0), 0.0,
                                                         300.0, np.nan]])
    ai, aip = U.airy_ai_both_array(x)
    ref = np.array([U.airy_ai_both(float(v)) for v in x])
    np.testing.assert_array_equal(np.isnan(ai), np.isnan(ref[:, 0]))
    ok = ~np.isnan(x)
    np.testing.assert_allclose(ai[ok], ref[ok, 0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(aip[ok], ref[ok, 1], rtol=1e-12, atol=1e-14)
    # the Maclaurin series adds the same terms in the same order: equal to the bit
    mid = np.abs(x) <= 7.0
    np.testing.assert_array_equal(ai[mid], ref[mid, 0])
    np.testing.assert_array_equal(aip[mid], ref[mid, 1])
    assert [v.shape for v in U.airy_ai_both_array(np.zeros(0))] == [(0,), (0,)]


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_odd_tail_array_matches_scalar(sign):
    # the series below 0.5, the closed form above it, the edge between, NaN
    x = np.concatenate([np.linspace(0.0, 3.0, 3001),
                        [0.0, 0.5, np.nextafter(0.5, 1.0), 1e-300, np.nan]])
    got = K._odd_tail_array(x, sign)
    ref = np.array([K._odd_tail(float(v), sign) for v in x])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    ok = ~np.isnan(x)
    np.testing.assert_allclose(got[ok], ref[ok], rtol=1e-14, atol=0.0)
    # the series adds the same terms in the same order: equal to the bit
    np.testing.assert_array_equal(got[x <= 0.5], ref[x <= 0.5])
    assert K._odd_tail_array(np.zeros(0), sign).shape == (0,)
