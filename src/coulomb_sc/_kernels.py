"""Numerically hot cores shared by the public modules.

Every evaluator sees the endpoints only through their Lambert lengths
(s, alpha_+, alpha_-), alpha_+- = r + r' +- s: the reduction
(``lambert_arrays`` for point sets, ``geometry.lambert_variables`` for
one pair) runs before any kernel.  One rule then labels a point by its
region and status (``region_status``, ``region_status_array``): the
source point s = 0, the focal line alpha_- <= FOCAL_TOL alpha_+, and the
side of the caustic alpha_+ = 4a, with a relative band of CAUSTIC_TOL
labelled on the caustic.  Each method adds only its own statuses.

Each formula has two forms:

* scalar kernels (``sc_bound_point``, ``ua_point`` and the actions, Airy
  and Langer functions they call) take plain floats; the per-point APIs
  call them at a few microseconds per point;
* array kernels (``sc_bound_field``, ``ua_field`` and the ``*_array``
  functions) evaluate the same expressions in the same order with NumPy,
  one masked set of array operations per branch of the scalar code, over
  blocks of ``FIELD_BLOCK`` points; the grid scans use them.  Series stop
  per element where the scalar loop stops, so both forms agree to
  rounding.

Conventions used throughout (plain floats, or float arrays in the array
kernels):

    a    -- orbit scale Kc / (2|E|); semimajor axis for E < 0
    sk   -- momentum scale sqrt(2 mu |E|) = sqrt(Kc mu / a)
    cv   -- velocity scale sqrt(2|E| / mu)
    ts   -- time scale mu a / sk = sqrt(mu a^3 / Kc)
    s, ap, am -- the chord s and the Lambert combinations alpha_+-

The one-dimensional reduced actions below are algebraically identical to
the closed arctan/log forms; they are written through the single anomaly
angle gamma(alpha) = 2 asin(sqrt(alpha/4a)), which is the numerically
stable parametrization near both endpoints.
"""

import cmath
import math

import numpy as np

# --- region / status codes shared with the scan layer ---------------------
REGION_ALLOWED = 0
REGION_CAUSTIC = 1
REGION_FORBIDDEN = 2

STATUS_OK = 0
STATUS_POLE = 1
STATUS_CAUSTIC = 2
STATUS_FOCAL = 3
STATUS_SOURCE = 4
STATUS_UNSUPPORTED = 5
STATUS_UNCONVERGED = 6

#: relative half-width of the band about alpha_+ = 4a labelled on the caustic
CAUSTIC_TOL = 1e-9
#: alpha_- <= FOCAL_TOL alpha_+ is the focal line (endpoints collinear
#: through the force centre)
FOCAL_TOL = 1e-12

_SQRT_PI = math.sqrt(math.pi)


# ==========================================================================
# one-dimensional actions, times, velocities
# ==========================================================================

def gamma_angle(alpha, a):
    """Anomaly angle on the principal branch: sin^2(gamma/2) = alpha/(4a)."""
    x = alpha / (4.0 * a)
    if x >= 1.0:
        return math.pi
    if x <= 0.0:
        return 0.0
    return 2.0 * math.asin(math.sqrt(x))


def w_bound(alpha, a, sk):
    """Half-action W(alpha) for bound motion, 0 <= alpha <= 4a."""
    g = gamma_angle(alpha, a)
    return sk * a * (g + math.sin(g))


def t_bound(alpha, a, ts):
    """Half travel time t(alpha) for bound motion (Kepler equation form)."""
    g = gamma_angle(alpha, a)
    return ts * (g - math.sin(g))


def v_bound(alpha, a, cv):
    """Collinear speed at path coordinate alpha/2 for bound motion."""
    return cv * math.sqrt((4.0 * a - alpha) / alpha)


def w_scatter_attr(alpha, a, sk):
    """Half-action for E > 0, attractive (hyperbolic), anchored at alpha = 0."""
    if alpha <= 0.0:
        return 0.0
    return sk * (0.5 * math.sqrt((4.0 * a + alpha) * alpha)
                 + 2.0 * a * math.asinh(math.sqrt(alpha / (4.0 * a))))


def v_scatter_attr(alpha, a, cv):
    return cv * math.sqrt((4.0 * a + alpha) / alpha)


def w_scatter_rep(alpha, a, sk):
    """Half-action for E > 0, repulsive, allowed side alpha >= 4|a|;
    vanishes at the turning point alpha = 4|a|."""
    if alpha <= 4.0 * a:
        return 0.0
    return sk * (0.5 * math.sqrt((alpha - 4.0 * a) * alpha)
                 - 2.0 * a * math.acosh(math.sqrt(alpha / (4.0 * a))))


def v_scatter_rep(alpha, a, cv):
    return cv * math.sqrt((alpha - 4.0 * a) / alpha)


def w_rep_forbidden_mag(alpha, a, sk):
    """|Im W| for E > 0 repulsive inside the barrier (0 <= alpha <= 4|a|).

    The full action is purely imaginary, +- i * (this value); it vanishes
    at the turning point alpha = 4|a| and reaches pi |a| sk at alpha = 0.
    """
    g = gamma_angle(alpha, a)  # 2 asin(sqrt(alpha/4|a|))
    return sk * a * (math.pi - g) - sk * 0.5 * math.sqrt((4.0 * a - alpha) * alpha)


def w_bound_forbidden_im(alpha, a, sk):
    """Im W_+ for bound motion continued past the caustic (alpha > 4a).

    Re W_+ is the alpha-independent half-loop action pi a sk.
    """
    if alpha <= 4.0 * a:
        return 0.0
    return sk * (0.5 * math.sqrt((alpha - 4.0 * a) * alpha)
                 - 2.0 * a * math.acosh(math.sqrt(alpha / (4.0 * a))))


# ==========================================================================
# Airy function of the first kind (scalar, real argument)
# ==========================================================================

_AI0 = 0.3550280538878172392600631860041831763980  # Ai(0)  = 3^(-2/3)/Gamma(2/3)
_AIP0 = -0.2588194037928067984051835601892039634793  # Ai'(0) = -3^(-1/3)/Gamma(1/3)


def _airy_asymptotic_coeffs(m=26):
    """u_k, v_k of the large-argument expansions, as lists of floats: the
    scalar series read them one at a time, and a NumPy scalar would make
    every term several times dearer."""
    u = [1.0]
    v = [1.0]
    for k in range(1, m):
        u.append(u[k - 1] * (6.0 * k - 5.0) * (6.0 * k - 1.0) / (72.0 * k))
        v.append(u[k] * (6.0 * k + 1.0) / (1.0 - 6.0 * k))
    return u, v


_AIRY_U, _AIRY_V = _airy_asymptotic_coeffs()


def airy_ai_both(x):
    """(Ai(x), Ai'(x)) by Maclaurin series for |x| <= 7 and large-argument
    expansions beyond; absolute error stays below 1e-10 on the real line."""
    if x > 7.0:
        xi = 2.0 / 3.0 * x * math.sqrt(x)
        m = 1.0
        su = 1.0
        sv = 1.0
        prev = 1.0
        for k in range(1, len(_AIRY_U)):
            m = -m / xi
            tu = _AIRY_U[k] * m
            if abs(tu) > prev:
                break
            prev = abs(tu)
            su += tu
            sv += _AIRY_V[k] * m
            if abs(tu) < 1e-18:
                break
        pre = math.exp(-xi) / (2.0 * _SQRT_PI)
        q = x ** 0.25
        return pre * su / q, -pre * sv * q
    if x < -7.0:
        z = -x
        xi = 2.0 / 3.0 * z * math.sqrt(z)
        c = math.cos(xi - 0.25 * math.pi)
        s = math.sin(xi - 0.25 * math.pi)
        inv2 = 1.0 / (xi * xi)
        # even/odd tails of the oscillatory expansion
        me = 1.0
        se_u = 1.0
        se_v = 1.0
        so_u = _AIRY_U[1] / xi
        so_v = _AIRY_V[1] / xi
        mo = 1.0 / xi
        for k in range(1, (len(_AIRY_U) - 1) // 2):
            me = -me * inv2
            mo = -mo * inv2
            se_u += _AIRY_U[2 * k] * me
            se_v += _AIRY_V[2 * k] * me
            so_u += _AIRY_U[2 * k + 1] * mo
            so_v += _AIRY_V[2 * k + 1] * mo
        q = z ** 0.25
        ai = (c * se_u + s * so_u) / (_SQRT_PI * q)
        aip = (s * se_v - c * so_v) * q / _SQRT_PI
        return ai, aip
    # Maclaurin: two independent solutions of y'' = x y and their derivatives
    x2 = x * x
    tf = 1.0
    f = 1.0
    fp = 0.0
    tg = x
    g = x
    gp = 1.0
    for k in range(1, 80):
        fp += tf * x2 / (3.0 * k - 1.0)
        tf = tf * x2 * x / ((3.0 * k) * (3.0 * k - 1.0))
        f += tf
        gp += tg * x2 / (3.0 * k)
        tg = tg * x2 * x / ((3.0 * k + 1.0) * (3.0 * k))
        g += tg
        if abs(tf) + abs(tg) < 1e-20 * (1.0 + abs(f) + abs(g)):
            break
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


# ==========================================================================
# Lambert reduction and the region/status rule
# ==========================================================================

def lambert_arrays(points, source):
    """(r, rp, s, alpha_plus, alpha_minus) for the rows of ``points``
    (N x n) against one ``source`` point (n components): r = |x|,
    rp = |x'| (a float), s = |x - x'|.  The squares are summed column by
    column, in the order of the components."""
    points = np.asarray(points, dtype=float)
    source = np.asarray(source, dtype=float).tolist()
    if points.ndim != 2 or points.shape[1] != len(source):
        raise ValueError(f"points of shape {points.shape} against a source "
                         f"of {len(source)} components")
    r2 = np.zeros(points.shape[0])
    s2 = np.zeros(points.shape[0])
    rp2 = 0.0
    for x, xp in zip(points.T, source):
        d = x - xp
        r2 += x * x
        s2 += d * d
        rp2 += xp * xp
    r = np.sqrt(r2)
    rp = math.sqrt(rp2)
    s = np.sqrt(s2)
    return r, rp, s, r + rp + s, r + rp - s


def region_status(s, ap, am, four_a):
    """(region, status) of one point: the region is the side of the
    caustic alpha_+ = 4a, on it within CAUSTIC_TOL * 4a; the status is
    STATUS_SOURCE at s = 0, STATUS_FOCAL on the focal line and STATUS_OK
    elsewhere."""
    if abs(ap - four_a) <= CAUSTIC_TOL * four_a:
        region = REGION_CAUSTIC
    else:
        region = REGION_ALLOWED if ap < four_a else REGION_FORBIDDEN
    if s <= 0.0:
        return region, STATUS_SOURCE
    return region, STATUS_FOCAL if am <= FOCAL_TOL * ap else STATUS_OK


def region_status_array(s, ap, am, four_a):
    """region_status over arrays: int8 (region, status)."""
    region = np.where(ap < four_a, REGION_ALLOWED, REGION_FORBIDDEN).astype(np.int8)
    region[np.abs(ap - four_a) <= CAUSTIC_TOL * four_a] = REGION_CAUSTIC
    status = np.where(am <= FOCAL_TOL * ap, STATUS_FOCAL, STATUS_OK).astype(np.int8)
    status[s <= 0.0] = STATUS_SOURCE
    return region, status


# ==========================================================================
# semiclassical point evaluators (bound E < 0)
# ==========================================================================

def sc_bound_point(s, ap, am, a, k, ndim, mu, hbar, sk, cv,
                   pref_merged, pref_elem, pglob, sinpk):
    """Semiclassical bound-state Green value at one point.

    Allowed region: merged two-path interference form (real for odd ndim).
    Forbidden region: two-path tunneling continuation with the
    positive-imaginary action branch, times the loop factor (real for odd
    ndim while the inner leg is allowed, alpha_- < 4a).  Besides the
    source and the focal line, the caustic band and the inner leg's
    turning point alpha_- = 4a (within CAUSTIC_TOL * 4a) get NaN, with
    STATUS_CAUSTIC.

    Returns (value, region_code, status_code).
    """
    four_a = 4.0 * a
    region, status = region_status(s, ap, am, four_a)
    if status == STATUS_OK and (region == REGION_CAUSTIC
                                or abs(am - four_a) <= CAUSTIC_TOL * four_a):
        # on the caustic, or the inner leg at its own turning point (v_minus = 0)
        status = STATUS_CAUSTIC
    if status != STATUS_OK:
        return complex(math.nan, math.nan), region, status

    p = (ndim - 1.0) / 2.0
    if ap < four_a:
        # classically allowed: merged interference of the two path families
        vp = v_bound(ap, a, cv)
        vm = v_bound(am, a, cv)
        wp = w_bound(ap, a, sk)
        wm = w_bound(am, a, sk)
        den = math.sqrt(vp * vm)
        sd1 = (mu * (vp + vm) / (2.0 * s)) ** p / den
        sd2 = (mu * (vm - vp) / (2.0 * s)) ** p / den
        w1 = wp - wm
        w2 = wp + wm
        br = (sd1 * math.cos(w1 / hbar - math.pi * ((ndim - 1.0) / 4.0 + k))
              + sd2 * math.sin(math.pi * (3.0 * (ndim - 1.0) / 4.0 + k) - w2 / hbar))
        return pref_merged * br / sinpk, region, STATUS_OK

    val = sc_forbidden_value(ap, am, s, a, ndim, mu, hbar, sk, cv, pref_elem, pglob)
    if am < four_a and ndim % 2 == 1:
        # inner leg allowed, odd n: the value is real; its imaginary part
        # is rounding noise whose sign follows the last bit of the arithmetic
        val = complex(val.real, 0.0)
    return val, region, STATUS_OK


def sc_forbidden_value(ap, am, s, a, ndim, mu, hbar, sk, cv, pref_elem, pglob):
    """Complex two-path tunnelling value beyond the caustic (alpha_+ > 4a),
    before sc_bound_point drops the imaginary rounding noise of odd n."""
    four_a = 4.0 * a
    p = (ndim - 1.0) / 2.0
    # continue v_plus -> i w, W_plus -> pi a sk + i Im
    w_im_p = w_bound_forbidden_im(ap, a, sk)
    wtp = complex(math.pi * a * sk, w_im_p)
    wvel_p = cv * math.sqrt((ap - four_a) / ap)
    if am >= four_a:
        # doubly forbidden: continue the minus leg the same way
        w_im_m = w_bound_forbidden_im(am, a, sk)
        wtm = complex(math.pi * a * sk, w_im_m)
        vmc = complex(0.0, cv * math.sqrt((am - four_a) / am))
    else:
        wtm = complex(w_bound(am, a, sk), 0.0)
        vmc = complex(v_bound(am, a, cv), 0.0)
    vpc = complex(0.0, wvel_p)
    denc = cmath.sqrt(vpc * vmc)
    b1 = mu * (vmc + vpc) / (2.0 * s)
    b2 = mu * (vmc - vpc) / (2.0 * s)
    a1 = b1 ** p / denc
    a2 = cmath.exp(-0.5j * math.pi * (ndim - 2.0)) * b2 ** p / denc
    w1 = wtp - wtm
    w2 = wtp + wtm
    return pref_elem * pglob * (a1 * cmath.exp(1j * w1 / hbar)
                                + a2 * cmath.exp(1j * w2 / hbar))


# ==========================================================================
# Langer-uniform Airy approximation (three dimensions)
# ==========================================================================
#
# For n = 3 the exact Green function is Hostler's closed form
#     G = Gamma(1-nu)/(2 pi s) (d_x - d_y)[W_{nu,1/2}(x) M_{nu,1/2}(y)],
# x, y = kappa alpha_+-, with the Whittaker functions solving
# w'' + Q w = 0, Q = -1/4 + nu/z.  Langer's form replaces Q by
#     Q_L(z) = -1/4 + nu/z - 1/(4 z^2) = (z_out - z)(z - z_in)/(4 z^2),
# with turning points z_out/in = 2 nu +- D, D = sqrt(4 nu^2 - 1), z_in = 1/z_out;
# z_out lies 1/(4 nu) + O(nu^-3) below the caustic value 4 nu.  Then
#     W_L = f Ai(-zeta),  f = (zeta/Q_L)^(1/4),  (2/3) zeta^(3/2) = int_z^z_out sqrt(Q_L),
#     M_L = Q_L^(-1/4) sin(int_z_in^z sqrt(Q_L) + pi/4),
# and since int_z_in^z_out sqrt(Q_L) = pi (nu - 1/2) exactly, their Wronskian
# is -sin(pi nu)/sqrt(pi): the bound-state poles need no gamma function.
# Close to z_in (alpha_- below a few Bohr) M_L is continued through its
# turning point by the same uniform Airy form about z_in.


def _odd_tail(x, sign):
    """x - sin(x) (sign = -1) or sinh(x) - x (sign = +1), x >= 0, without
    cancellation for small x."""
    if x > 0.5:
        return x - math.sin(x) if sign < 0.0 else math.sinh(x) - x
    x2 = x * x
    term = x * x2 / 6.0
    total = term
    k = 1
    while abs(term) > 1e-17 * total:
        term *= sign * x2 / ((2.0 * k + 2.0) * (2.0 * k + 3.0))
        total += term
        k += 1
    return total


def langer_phase(t, z, d, c, sigma):
    """Signed phase integral of sqrt|Q_L| between z and one turning point.

    t is the distance from z to the turning point, positive on its allowed
    side; (c, sigma) = (z_in, +1) for z_out, (z_out, -1) for z_in.  Returns
    +int sqrt(Q_L) on the allowed side and -int sqrt(-Q_L) beyond.  The
    closed form sqrt(R) + nu asin((z-2nu)/D) - asin((2 nu z-1)/(z D))/2,
    R = z^2 Q_L, is regrouped so that the terms linear in the angle cancel
    analytically and the value keeps full relative accuracy as t -> 0.
    """
    if t >= 0.0:
        th = 2.0 * math.asin(min(1.0, math.sqrt(t / (2.0 * d))))
        ps = 2.0 * math.asin(min(1.0, math.sqrt(t * c / (2.0 * z * d))))
        return sigma * 0.5 * d * _odd_tail(th, -1.0) + 0.5 * (c * th - ps)
    et = 2.0 * math.asinh(math.sqrt(-t / (2.0 * d)))
    ch = 2.0 * math.asinh(math.sqrt(-t * c / (2.0 * z * d)))
    return -(sigma * 0.5 * d * _odd_tail(et, 1.0) + 0.5 * (ch - c * et))


def _langer_amplitude(t, z, nu, d, z_out, c, sigma):
    """(zeta, f, f') about one turning point: the Airy variable, the
    amplitude f = (zeta/Q_L)^(1/4) of the uniform form f(z) Ai(-zeta(z)),
    and f'; zeta' = -sigma / f^2."""
    xi = langer_phase(t, z, d, c, sigma)
    zeta = math.copysign((1.5 * abs(xi)) ** (2.0 / 3.0), xi)
    q = t * (z_out - z if sigma < 0.0 else z - 1.0 / z_out) / (4.0 * z * z)
    qp = (1.0 - 2.0 * nu * z) / (2.0 * z * z * z)
    f = (zeta / q) ** 0.25
    fp = 0.25 * f * (-sigma / (f * f * zeta) - qp / q)
    return zeta, f, fp


def langer_airy(z, nu, outer):
    """Langer-uniform Airy solution f Ai(-zeta) and its z-derivative,
    about z_out (outer=True; decays beyond it) or about z_in (times
    sqrt(pi), so that it tends to Q_L^(-1/4) sin(xi + pi/4) inside).

    Within a relative 1e-5 of the turning point the amplitude and its
    derivative (0/0 there) are interpolated linearly between the two
    sides; the Airy factor is always evaluated at the true zeta.
    """
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    if outer:
        z_turn, c, sigma, norm = z_out, 1.0 / z_out, 1.0, 1.0
        t = z_out - z
    else:
        z_turn, c, sigma, norm = 1.0 / z_out, z_out, -1.0, _SQRT_PI
        t = z - z_turn
    ts = 1e-5 * z_turn
    if abs(t) >= ts:
        zeta, f, fp = _langer_amplitude(t, z, nu, d, z_out, c, sigma)
    else:
        zeta = math.copysign((1.5 * abs(langer_phase(t, z, d, c, sigma)))
                             ** (2.0 / 3.0), t)
        _, f1, fp1 = _langer_amplitude(ts, z_turn - sigma * ts, nu, d, z_out,
                                       c, sigma)
        _, f2, fp2 = _langer_amplitude(-ts, z_turn + sigma * ts, nu, d, z_out,
                                       c, sigma)
        w = 0.5 * (t + ts) / ts
        f = f2 + w * (f1 - f2)
        fp = fp2 + w * (fp1 - fp2)
    ai, aip = airy_ai_both(-zeta)
    return norm * f * ai, norm * (fp * ai + sigma * aip / f)


# the regular solution is the primitive Langer form from XI_B radians of
# phase beyond the inner turning point on; below XI_A it is the uniform
# Airy form, and in between the two are blended smoothly
XI_A = 1.0
XI_B = 3.0


def langer_regular(z, nu):
    """M_L(z) = Q_L^(-1/4) sin(int_z_in^z sqrt(Q_L) + pi/4) and its
    derivative, continued uniformly through the inner turning point."""
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    t = z - 1.0 / z_out
    xi = langer_phase(t, z, d, z_out, -1.0) if t > 0.0 else 0.0
    if xi < XI_B:
        ma, mpa = langer_airy(z, nu, False)
        if xi <= XI_A:
            return ma, mpa
    q = t * (z_out - z) / (4.0 * z * z)
    qp = (1.0 - 2.0 * nu * z) / (2.0 * z * z * z)
    q4 = q ** 0.25
    m = math.sin(xi + 0.25 * math.pi) / q4
    mp = q4 * math.cos(xi + 0.25 * math.pi) - 0.25 * qp / q * m
    if xi >= XI_B:
        return m, mp
    # C2 weight (xi' = sqrt(Q_L)), so that G, which holds M_L', stays C1
    u = (xi - XI_A) / (XI_B - XI_A)
    w = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    dw = 30.0 * (u * (1.0 - u)) ** 2 / (XI_B - XI_A) * q4 * q4
    return ma + w * (m - ma), mpa + w * (mp - mpa) + dw * (m - ma)


def ua_point(s, ap, am, four_a, nu, kappa, g0):
    """Langer-uniform approximation at one point, three dimensions only.

    G = g0 / s * (W_L'(x) M_L(y) - W_L(x) M_L'(y)) with x, y = kappa
    alpha_+-, g0 = mu / (2 sqrt(pi) hbar^2 sin(pi nu)); finite and smooth
    across the caustic.  Besides the source and the focal line, doubly
    forbidden points and points with both legs inside the inner turning
    point get NaN with STATUS_UNSUPPORTED.

    Returns (value, region_code, status_code).
    """
    region, status = region_status(s, ap, am, four_a)
    if status != STATUS_OK:
        return complex(math.nan, math.nan), region, status
    x = kappa * ap
    y = kappa * am
    z_out = 2.0 * nu + math.sqrt(4.0 * nu * nu - 1.0)
    if y >= 0.999 * z_out or x <= 1.0 / z_out:
        # doubly forbidden (inner leg at or past its own turning point), or
        # both legs inside the inner turning point: outside this construction
        return complex(math.nan, math.nan), region, STATUS_UNSUPPORTED
    w, wp = langer_airy(x, nu, True)
    m, mp = langer_regular(y, nu)
    return complex(g0 * (wp * m - w * mp) / s, 0.0), region, STATUS_OK


# ==========================================================================
# array kernels: the scalar kernels above over blocks of points
# ==========================================================================
#
# Every branch of a scalar kernel becomes one masked set of array
# operations, written in the scalar operation order; a series loop keeps
# the still-running elements only and stops each where the scalar loop
# stops.

#: points per block of the array drivers (bounds the temporaries)
FIELD_BLOCK = 4096


def _cplx(re, im):
    """complex(re, im) elementwise, without arithmetic on either part."""
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _w_bound_array(alpha, a, sk):
    """w_bound over an array."""
    g = 2.0 * np.arcsin(np.sqrt(np.clip(alpha / (4.0 * a), 0.0, 1.0)))
    return sk * a * (g + np.sin(g))


def _w_bound_forbidden_im_array(alpha, a, sk):
    """w_bound_forbidden_im over an array with alpha >= 4a."""
    return sk * (0.5 * np.sqrt((alpha - 4.0 * a) * alpha)
                 - 2.0 * a * np.arccosh(np.sqrt(alpha / (4.0 * a))))


def _airy_decaying(x):
    """airy_ai_both for x > 7."""
    xi = 2.0 / 3.0 * x * np.sqrt(x)
    su = np.ones_like(x)
    sv = np.ones_like(x)
    idx = np.arange(x.shape[0])
    m = np.ones_like(x)
    prev = np.ones_like(x)
    xr = xi
    for k in range(1, len(_AIRY_U)):
        if idx.size == 0:
            break
        m = -m / xr
        tu = _AIRY_U[k] * m
        go = ~(np.abs(tu) > prev)
        idx, m, tu, xr = idx[go], m[go], tu[go], xr[go]
        prev = np.abs(tu)
        su[idx] += tu
        sv[idx] += _AIRY_V[k] * m
        go = ~(prev < 1e-18)
        idx, m, prev, xr = idx[go], m[go], prev[go], xr[go]
    pre = np.exp(-xi) / (2.0 * _SQRT_PI)
    q = x ** 0.25
    return pre * su / q, -pre * sv * q


def _airy_oscillating(x):
    """airy_ai_both for x < -7 (a fixed number of terms)."""
    z = -x
    xi = 2.0 / 3.0 * z * np.sqrt(z)
    c = np.cos(xi - 0.25 * math.pi)
    s = np.sin(xi - 0.25 * math.pi)
    inv2 = 1.0 / (xi * xi)
    me = 1.0
    se_u = 1.0
    se_v = 1.0
    so_u = _AIRY_U[1] / xi
    so_v = _AIRY_V[1] / xi
    mo = 1.0 / xi
    for k in range(1, (len(_AIRY_U) - 1) // 2):
        me = -me * inv2
        mo = -mo * inv2
        se_u = se_u + _AIRY_U[2 * k] * me
        se_v = se_v + _AIRY_V[2 * k] * me
        so_u = so_u + _AIRY_U[2 * k + 1] * mo
        so_v = so_v + _AIRY_V[2 * k + 1] * mo
    q = z ** 0.25
    ai = (c * se_u + s * so_u) / (_SQRT_PI * q)
    aip = (s * se_v - c * so_v) * q / _SQRT_PI
    return ai, aip


def _airy_maclaurin(x):
    """airy_ai_both for |x| <= 7 (and NaN)."""
    n = x.shape[0]
    out = np.empty((4, n))
    idx = np.arange(n)
    x2 = x * x
    tf = np.ones(n)
    f = np.ones(n)
    fp = np.zeros(n)
    tg = x.copy()
    g = x.copy()
    gp = np.ones(n)
    for k in range(1, 80):
        if idx.size == 0:
            break
        fp = fp + tf * x2 / (3.0 * k - 1.0)
        tf = tf * x2 * x / ((3.0 * k) * (3.0 * k - 1.0))
        f = f + tf
        gp = gp + tg * x2 / (3.0 * k)
        tg = tg * x2 * x / ((3.0 * k + 1.0) * (3.0 * k))
        g = g + tg
        done = np.abs(tf) + np.abs(tg) < 1e-20 * (1.0 + np.abs(f) + np.abs(g))
        if done.any():
            out[:, idx[done]] = f[done], fp[done], g[done], gp[done]
            go = ~done
            idx, x, x2, tf, f, fp, tg, g, gp = (
                v[go] for v in (idx, x, x2, tf, f, fp, tg, g, gp))
    out[:, idx] = f, fp, g, gp
    f, fp, g, gp = out
    return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp


def airy_ai_both_array(x):
    """airy_ai_both over a float array: (Ai(x), Ai'(x))."""
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    big = x > 7.0
    neg = x < -7.0
    mid = ~(big | neg)
    for part, evaluate in ((big, _airy_decaying), (neg, _airy_oscillating),
                           (mid, _airy_maclaurin)):
        ai[part], aip[part] = evaluate(x[part])
    return ai, aip


def _odd_tail_array(x, sign):
    """_odd_tail over an array."""
    out = np.empty_like(x)
    big = x > 0.5
    xb = x[big]
    out[big] = xb - np.sin(xb) if sign < 0.0 else np.sinh(xb) - xb
    idx = np.flatnonzero(~big)
    x2 = x[idx] * x[idx]
    term = x[idx] * x2 / 6.0
    total = term
    k = 1
    while idx.size:
        go = np.abs(term) > 1e-17 * total
        out[idx[~go]] = total[~go]
        idx, x2, term, total = idx[go], x2[go], term[go], total[go]
        term = term * (sign * x2 / ((2.0 * k + 2.0) * (2.0 * k + 3.0)))
        total = total + term
        k += 1
    return out


def langer_phase_array(t, z, d, c, sigma):
    """langer_phase over arrays t, z."""
    out = np.empty_like(t)
    pos = t >= 0.0
    tp, zp = t[pos], z[pos]
    th = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(tp / (2.0 * d))))
    ps = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(tp * c / (2.0 * zp * d))))
    out[pos] = sigma * 0.5 * d * _odd_tail_array(th, -1.0) + 0.5 * (c * th - ps)
    neg = ~pos
    tn, zn = t[neg], z[neg]
    et = 2.0 * np.arcsinh(np.sqrt(-tn / (2.0 * d)))
    ch = 2.0 * np.arcsinh(np.sqrt(-tn * c / (2.0 * zn * d)))
    out[neg] = -(sigma * 0.5 * d * _odd_tail_array(et, 1.0) + 0.5 * (ch - c * et))
    return out


def _langer_amplitude_array(t, z, nu, d, z_out, c, sigma):
    """_langer_amplitude over arrays t, z."""
    xi = langer_phase_array(t, z, d, c, sigma)
    zeta = np.copysign((1.5 * np.abs(xi)) ** (2.0 / 3.0), xi)
    q = t * (z_out - z if sigma < 0.0 else z - 1.0 / z_out) / (4.0 * z * z)
    qp = (1.0 - 2.0 * nu * z) / (2.0 * z * z * z)
    f = (zeta / q) ** 0.25
    fp = 0.25 * f * (-sigma / (f * f * zeta) - qp / q)
    return zeta, f, fp


def langer_airy_array(z, nu, outer):
    """langer_airy over an array z."""
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    if outer:
        z_turn, c, sigma, norm = z_out, 1.0 / z_out, 1.0, 1.0
        t = z_out - z
    else:
        z_turn, c, sigma, norm = 1.0 / z_out, z_out, -1.0, _SQRT_PI
        t = z - z_turn
    ts = 1e-5 * z_turn
    zeta = np.empty_like(z)
    f = np.empty_like(z)
    fp = np.empty_like(z)
    far = np.abs(t) >= ts
    zeta[far], f[far], fp[far] = _langer_amplitude_array(t[far], z[far], nu, d, z_out,
                                                         c, sigma)
    near = ~far
    tn = t[near]
    zeta[near] = np.copysign((1.5 * np.abs(langer_phase_array(tn, z[near], d, c, sigma)))
                             ** (2.0 / 3.0), tn)
    _, f1, fp1 = _langer_amplitude(ts, z_turn - sigma * ts, nu, d, z_out, c, sigma)
    _, f2, fp2 = _langer_amplitude(-ts, z_turn + sigma * ts, nu, d, z_out, c, sigma)
    w = 0.5 * (tn + ts) / ts
    f[near] = f2 + w * (f1 - f2)
    fp[near] = fp2 + w * (fp1 - fp2)
    ai, aip = airy_ai_both_array(-zeta)
    return norm * f * ai, norm * (fp * ai + sigma * aip / f)


def langer_regular_array(z, nu):
    """langer_regular over an array z."""
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    t = z - 1.0 / z_out
    xi = np.zeros_like(z)
    pos = t > 0.0
    xi[pos] = langer_phase_array(t[pos], z[pos], d, z_out, -1.0)
    m = np.empty_like(z)
    mp = np.empty_like(z)
    airy = xi < XI_B
    m[airy], mp[airy] = langer_airy_array(z[airy], nu, False)
    prim = ~(xi <= XI_A)
    blend = airy & prim
    ma, mpa = m[blend], mp[blend]
    tp, zp, xp = t[prim], z[prim], xi[prim]
    q = tp * (z_out - zp) / (4.0 * zp * zp)
    qp = (1.0 - 2.0 * nu * zp) / (2.0 * zp * zp * zp)
    q4 = q ** 0.25
    mq = np.sin(xp + 0.25 * math.pi) / q4
    m[prim] = mq
    mp[prim] = q4 * np.cos(xp + 0.25 * math.pi) - 0.25 * qp / q * mq
    # C2 weight (xi' = sqrt(Q_L)), so that G, which holds M_L', stays C1
    u = (xi[blend] - XI_A) / (XI_B - XI_A)
    w = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    q4 = q4[blend[prim]]
    dw = 30.0 * (u * (1.0 - u)) ** 2 / (XI_B - XI_A) * q4 * q4
    mb, mpb = m[blend], mp[blend]
    m[blend] = ma + w * (mb - ma)
    mp[blend] = mpa + w * (mpb - mpa) + dw * (mb - ma)
    return m, mp


def _map_blocks(block_kernel, points, source, *args):
    """(values, region, status) of block_kernel(s, ap, am, *args) over
    blocks of FIELD_BLOCK rows of points (N x n), each block reduced to
    its Lambert lengths first."""
    n = points.shape[0]
    vals = np.empty(n, dtype=np.complex128)
    region = np.empty(n, dtype=np.int8)
    status = np.empty(n, dtype=np.int8)
    for i in range(0, n, FIELD_BLOCK):
        b = slice(i, i + FIELD_BLOCK)
        _, _, s, ap, am = lambert_arrays(points[b], source)
        vals[b], region[b], status[b] = block_kernel(s, ap, am, *args)
    return vals, region, status


def _sc_bound_block(s, ap, am, a, k, ndim, mu, hbar, sk, cv,
                    pref_merged, pref_elem, pglob, sinpk):
    four_a = 4.0 * a
    region, status = region_status_array(s, ap, am, four_a)
    # on the caustic, or the inner leg at its own turning point (v_minus = 0)
    status[(status == STATUS_OK)
           & ((region == REGION_CAUSTIC)
              | (np.abs(am - four_a) <= CAUSTIC_TOL * four_a))] = STATUS_CAUSTIC
    rest = status == STATUS_OK
    inside = ap < four_a
    vals = np.full(ap.shape, complex(math.nan, math.nan))
    p = (ndim - 1.0) / 2.0

    # classically allowed: merged interference of the two path families
    ok = rest & inside
    s_, ap_, am_ = s[ok], ap[ok], am[ok]
    vp = cv * np.sqrt((four_a - ap_) / ap_)
    vm = cv * np.sqrt((four_a - am_) / am_)
    wp = _w_bound_array(ap_, a, sk)
    wm = _w_bound_array(am_, a, sk)
    den = np.sqrt(vp * vm)
    sd1 = (mu * (vp + vm) / (2.0 * s_)) ** p / den
    sd2 = (mu * (vm - vp) / (2.0 * s_)) ** p / den
    w1 = wp - wm
    w2 = wp + wm
    br = (sd1 * np.cos(w1 / hbar - math.pi * ((ndim - 1.0) / 4.0 + k))
          + sd2 * np.sin(math.pi * (3.0 * (ndim - 1.0) / 4.0 + k) - w2 / hbar))
    vals[ok] = pref_merged * br / sinpk

    ok = rest & ~inside
    am_ = am[ok]
    val = sc_forbidden_array(ap[ok], am_, s[ok], a, ndim, mu, hbar, sk, cv,
                             pref_elem, pglob)
    if ndim % 2 == 1:
        # inner leg allowed, odd n: real up to rounding noise
        val.imag[am_ < four_a] = 0.0
    vals[ok] = val
    return vals, region, status


def sc_forbidden_array(ap, am, s, a, ndim, mu, hbar, sk, cv, pref_elem, pglob):
    """sc_forbidden_value over arrays with alpha_+ > 4a."""
    four_a = 4.0 * a
    p = (ndim - 1.0) / 2.0
    # continue v_plus -> i w, W_plus -> pi a sk + i Im
    wtp = _cplx(math.pi * a * sk, _w_bound_forbidden_im_array(ap, a, sk))
    wvel_p = cv * np.sqrt((ap - four_a) / ap)
    wtm = np.empty(ap.shape, dtype=np.complex128)
    vmc = np.empty(ap.shape, dtype=np.complex128)
    dbl = am >= four_a
    # doubly forbidden: continue the minus leg the same way
    amd = am[dbl]
    wtm[dbl] = _cplx(math.pi * a * sk, _w_bound_forbidden_im_array(amd, a, sk))
    vmc[dbl] = _cplx(0.0, cv * np.sqrt((amd - four_a) / amd))
    amd = am[~dbl]
    wtm[~dbl] = _w_bound_array(amd, a, sk)
    vmc[~dbl] = cv * np.sqrt((four_a - amd) / amd)
    vpc = _cplx(0.0, wvel_p)
    denc = np.sqrt(vpc * vmc)
    b1 = mu * (vmc + vpc) / (2.0 * s)
    b2 = mu * (vmc - vpc) / (2.0 * s)
    a1 = b1 ** p / denc
    a2 = cmath.exp(-0.5j * math.pi * (ndim - 2.0)) * b2 ** p / denc
    w1 = wtp - wtm
    w2 = wtp + wtm
    return pref_elem * pglob * (a1 * np.exp(1j * w1 / hbar)
                                + a2 * np.exp(1j * w2 / hbar))


def sc_bound_field(points, source, a, k, ndim, mu, hbar, sk, cv,
                   pref_merged, pref_elem, pglob, sinpk):
    """sc_bound_point at every row of points (N x n), array-wise."""
    return _map_blocks(_sc_bound_block, points, source, a, k, ndim, mu, hbar, sk, cv,
                       pref_merged, pref_elem, pglob, sinpk)


def _ua_block(s, ap, am, four_a, nu, kappa, g0):
    region, status = region_status_array(s, ap, am, four_a)
    x = kappa * ap
    y = kappa * am
    z_out = 2.0 * nu + math.sqrt(4.0 * nu * nu - 1.0)
    # doubly forbidden, or both legs inside the inner turning point
    status[(status == STATUS_OK) & ((y >= 0.999 * z_out) | (x <= 1.0 / z_out))] = \
        STATUS_UNSUPPORTED
    ok = status == STATUS_OK
    vals = np.full(ap.shape, complex(math.nan, math.nan))
    w, wp = langer_airy_array(x[ok], nu, True)
    m, mp = langer_regular_array(y[ok], nu)
    vals[ok] = g0 * (wp * m - w * mp) / s[ok]
    return vals, region, status


def ua_field(points, source, four_a, nu, kappa, g0):
    """ua_point at every row of points (N x 3), array-wise."""
    return _map_blocks(_ua_block, points, source, four_a, nu, kappa, g0)


# ==========================================================================
# radial Schroedinger solver (quantum-mechanical reference, n = 3)
# ==========================================================================

def radial_rhs(r, l, e2, c1):
    """f(r) in u'' = -f u:  f = 2mu(E + Kc/r)/hbar^2 - l(l+1)/r^2."""
    return e2 + c1 / r - l * (l + 1.0) / (r * r)


def radial_rhs_prime(r, l, e2, c1):
    return -c1 / (r * r) + 2.0 * l * (l + 1.0) / (r * r * r)


def numerov_fill_outward(l, e2, c1, h, n, j0, u0, u1):
    """Fill u[j0..n] by the Numerov recurrence given the two start values.

    Rescales the whole populated slice whenever |u| exceeds 1e250 so that
    late entries never overflow; relative shape is preserved.
    """
    u = np.zeros(n + 1)
    u[j0] = u0
    u[j0 + 1] = u1
    h12 = h * h / 12.0
    fm = radial_rhs(j0 * h, l, e2, c1)
    f0 = radial_rhs((j0 + 1) * h, l, e2, c1)
    for j in range(j0 + 1, n):
        fp = radial_rhs((j + 1) * h, l, e2, c1)
        u[j + 1] = (2.0 * u[j] * (1.0 - 5.0 * h12 * f0)
                    - u[j - 1] * (1.0 + h12 * fm)) / (1.0 + h12 * fp)
        fm = f0
        f0 = fp
        if abs(u[j + 1]) > 1e250:
            for jj in range(j0, j + 2):
                u[jj] *= 1e-250
    return u


def numerov_fill_inward(l, e2, c1, h, n, j_stop, un, unm1):
    """Inward Numerov fill on [j_stop, n].

    The decaying solution grows inward; stopping at j_stop (just below the
    smallest radius the caller needs) keeps the dynamic range of the array
    inside float64 even for very large l, where a full-mesh sweep would
    span more than 616 decades and flush the outer region to zero.
    """
    u = np.zeros(n + 1)
    u[n] = un
    u[n - 1] = unm1
    h12 = h * h / 12.0
    fm = radial_rhs(n * h, l, e2, c1)
    f0 = radial_rhs((n - 1) * h, l, e2, c1)
    for j in range(n - 1, j_stop, -1):
        fp = radial_rhs((j - 1) * h, l, e2, c1)
        u[j - 1] = (2.0 * u[j] * (1.0 - 5.0 * h12 * f0)
                    - u[j + 1] * (1.0 + h12 * fm)) / (1.0 + h12 * fp)
        fm = f0
        f0 = fp
        if abs(u[j - 1]) > 1e250:
            for jj in range(j - 1, n + 1):
                u[jj] *= 1e-250
    return u


def ode_derivative(u, j, h, l, e2, c1):
    """u'(r_j) from neighbors with the leading ODE-aware h^2 correction
    subtracted; accurate to O(h^4) without extra stencil points."""
    r = j * h
    f = radial_rhs(r, l, e2, c1)
    fprime = radial_rhs_prime(r, l, e2, c1)
    num = (u[j + 1] - u[j - 1]) / (2.0 * h) + (h * h / 6.0) * fprime * u[j]
    return num / (1.0 - h * h * f / 6.0)


def wronskian_at(u, v, j, h, l, e2, c1):
    up = ode_derivative(u, j, h, l, e2, c1)
    vp = ode_derivative(v, j, h, l, e2, c1)
    return u[j] * vp - up * v[j]


def best_match_index(u_reg, u_irr, j0, n):
    """Mesh index where both solutions are healthiest (max |u_reg*u_irr|,
    evaluated in logs to dodge overflow)."""
    best = -1.0e308
    jbest = j0 + 1
    for j in range(j0 + 1, n):
        ar = abs(u_reg[j])
        ai = abs(u_irr[j])
        if ar > 0.0 and ai > 0.0:
            m = math.log(ar) + math.log(ai)
            if m > best:
                best = m
                jbest = j
    return jbest


def interp_u(u, r, h, j0, n):
    """Cubic 4-point Lagrange interpolation of u at radius r on the mesh."""
    x = r / h
    j = int(x)
    if j < j0 + 1:
        j = j0 + 1
    if j > n - 2:
        j = n - 2
    t = x - j
    um1 = u[j - 1]
    u0 = u[j]
    u1 = u[j + 1]
    u2 = u[j + 2]
    return (-t * (t - 1.0) * (t - 2.0) / 6.0 * um1
            + (t * t - 1.0) * (t - 2.0) / 2.0 * u0
            - t * (t + 1.0) * (t - 2.0) / 2.0 * u1
            + t * (t * t - 1.0) / 6.0 * u2)


def hostler_bracket(u_reg, du_reg, j_reg, u_irr, du_irr, j_irr, h, n, rho_p, rho_m):
    """u_irr'(rho_+) u_reg(rho_-) - u_irr(rho_+) u_reg'(rho_-) at every point.

    Values and derivatives are interpolated alike, on mesh indices j_reg..n
    for the regular pair and j_irr..n for the decaying pair."""
    npts = rho_p.shape[0]
    out = np.empty(npts)
    for i in range(npts):
        out[i] = (interp_u(du_irr, rho_p[i], h, j_irr, n)
                  * interp_u(u_reg, rho_m[i], h, j_reg, n)
                  - interp_u(u_irr, rho_p[i], h, j_irr, n)
                  * interp_u(du_reg, rho_m[i], h, j_reg, n))
    return out
