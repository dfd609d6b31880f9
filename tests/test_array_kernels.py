"""The array kernels against the scalar kernels, point by point.

``sc_bound_field`` and ``ua_field`` evaluate the expressions of
``sc_bound_point`` and ``ua_point`` array-wise, one masked set of array
operations per branch.  On every branch -- each status code, both turning
points of the Langer construction, the blend of its regular solution --
they must give the same region and status, the same NaN pattern, and
values equal to rounding in units of the largest value (a pointwise
relative bound cannot hold at the nodes of the field).
"""

import math

import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
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


@pytest.mark.parametrize("ndim", [3, 5])
def test_odd_n_forbidden_value_is_real(ndim):
    # inner leg allowed (alpha_- < 4a): the tunnelling value of odd n is
    # real, and its computed imaginary part is rounding noise
    params = cs.SystemParams(ndim=ndim)
    spec = cs.energy_from_nu(NU, params)
    args = sc_constants(spec, params)
    a, mu, hbar, sk, cv, pref_elem, pglob = (args[0], *args[3:7], *args[8:10])
    four_a = 4.0 * a
    rng = np.random.default_rng(20261020 + ndim)
    rp = 0.35 * a
    rp_vec = np.array([rp, 0.0, 0.0])
    R = elliptic_points(rp, rng.uniform(four_a * 1.001 - rp, 3.0 * four_a, 200),
                        rng.uniform(-0.99 * rp, 0.99 * rp, 200))
    _, _, s, ap, am = K.lambert_arrays(R, rp_vec)
    assert np.all(ap > four_a) and np.all(am < four_a)
    raw = K.sc_forbidden_array(ap, am, s, a, ndim, mu, hbar, sk, cv, pref_elem, pglob)
    assert np.max(np.abs(raw.imag) / np.abs(raw)) <= 1e-10
    raw_point = [K.sc_forbidden_value(*v, a, ndim, mu, hbar, sk, cv, pref_elem, pglob)
                 for v in zip(ap.tolist(), am.tolist(), s.tolist())]
    assert max(abs(v.imag) / abs(v) for v in raw_point) <= 1e-10
    assert any(v.imag != 0.0 for v in raw_point)  # the noise the kernels drop
    vals, _, status = K.sc_bound_field(R, rp_vec, *args)
    assert np.all(status == K.STATUS_OK)
    assert np.all(vals.imag == 0.0) and not np.any(np.signbit(vals.imag))
    np.testing.assert_array_equal(vals.real, raw.real)
    for s_, ap_, am_, want in zip(s.tolist(), ap.tolist(), am.tolist(), raw_point):
        val = K.sc_bound_point(s_, ap_, am_, *args)[0]
        assert val.imag == 0.0 and val.real == want.real


def test_ua_field_matches_point_kernel():
    params = cs.AU
    spec = cs.energy_from_nu(NU, params)
    args = ua_constants(spec, params)
    _, nu, kappa, _ = args[:4]
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    z_in = 1.0 / z_out
    rng = np.random.default_rng(20261019)
    # relative offsets from each turning point: inside the 1e-5 window where
    # the amplitude is interpolated, and well outside it.  In between, the
    # closed forms of zeta and f' cancel terms of order 1/t and amplify
    # rounding by about (z/t)^2 (4e-7 relative in f' at 2e-5 from z_in), so
    # one-ulp differences between NumPy's and libm's asinh/exp/pow there
    # exceed the comparison's tolerance in both directions.
    offsets = np.array([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 3e-6, -3e-6, 9e-6, -9e-6,
                        1e-2, -1e-2])
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
        if am_in[0] < 2.0 * rp:
            parts.append(elliptic_points(rp, rng.uniform(rp, 4.0 * rp, offsets.size),
                                         am_in - rp))
            am = np.geomspace(am_in[0], min(2.0 * rp, 40.0 * am_in[0]), 60)
            parts.append(elliptic_points(rp, rng.uniform(rp, 4.0 * rp, am.size), am - rp))
        R = np.concatenate(parts)
        assert R.shape[0] % K.FIELD_BLOCK != 0
        ref = scalar_map(K.ua_point, R, rp_vec, *args)
        assert_same(K.ua_field(R, rp_vec, *args), ref)
        _, _, _, ap, am = K.lambert_arrays(R, rp_vec)
        ok = ref[2] == K.STATUS_OK
        ok_x.append(kappa * ap[ok])
        ok_y.append(kappa * am[ok])
        reached |= set(ref[2].tolist())
    assert reached >= {K.STATUS_OK, K.STATUS_SOURCE, K.STATUS_FOCAL, K.STATUS_UNSUPPORTED}
    x, y = np.concatenate(ok_x), np.concatenate(ok_y)
    # the interpolated amplitude within 1e-5 of each turning point, both sides
    for z, z_turn in ((x, z_out), (y, z_in)):
        near = z[np.abs(z - z_turn) < 1e-5 * z_turn]
        assert (near < z_turn).sum() >= 3 and (near > z_turn).sum() >= 3
    # the regular solution's blend of its Airy and primitive forms
    xi = np.array([K.langer_phase(v - z_in, v, d, z_out, -1.0) for v in y[y > z_in]])
    assert ((xi > K.XI_A) & (xi < K.XI_B)).sum() >= 10
    assert (xi <= K.XI_A).sum() >= 10 and (xi >= K.XI_B).sum() >= 10


def test_empty_input():
    spec = cs.energy_from_nu(NU, cs.AU)
    R = np.zeros((0, 3))
    rp_vec = np.array([20.0, 0.0, 0.0])
    for result in (K.sc_bound_field(R, rp_vec, *sc_constants(spec, cs.AU)),
                   K.ua_field(R, rp_vec, *ua_constants(spec, cs.AU))):
        assert [v.shape for v in result] == [(0,)] * 3
        assert [v.dtype for v in result] == [np.complex128, np.int8, np.int8]


def test_airy_array_matches_scalar():
    # all three argument ranges, their edges, and NaN
    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-7.0, 7.0, np.nextafter(7.0, 8.0),
                                                         np.nextafter(-7.0, -8.0), 0.0,
                                                         300.0, np.nan]])
    ai, aip = K.airy_ai_both_array(x)
    ref = np.array([K.airy_ai_both(float(v)) for v in x])
    np.testing.assert_array_equal(np.isnan(ai), np.isnan(ref[:, 0]))
    ok = ~np.isnan(x)
    np.testing.assert_allclose(ai[ok], ref[ok, 0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(aip[ok], ref[ok, 1], rtol=1e-12, atol=1e-14)
