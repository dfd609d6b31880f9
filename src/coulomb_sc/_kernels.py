"""The semiclassical (SC) and uniform-approximation (UA) kernels, scalar
and array, with what they share with the other public modules: the Airy
function, the one-dimensional actions, the Lambert reduction and the
region rule.  The exact reference's radial solver lives in ``qm_oracle``,
and a formula with a single caller lives in that caller.

Every evaluator sees the endpoints only through their Lambert lengths
(s, alpha_+, alpha_-), alpha_+- = r + r' +- s: the reduction
(``lambert_arrays`` for point sets, ``geometry.lambert_variables`` for
one pair) runs before any kernel.  One rule then labels a point by its
region and status (``region_status``, ``region_status_array``): the
source point s = 0, the focal line alpha_- <= FOCAL_TOL alpha_+, and the
side of the caustic alpha_+ = 4a, with a relative band of CAUSTIC_TOL
labelled on the caustic: ``caustic_region``, which every per-point
function asks of its alphas.  Each method adds only its own statuses.

Each formula has two forms:

* scalar kernels (``sc_bound_point``, ``ua_point`` and the actions, Airy
  and Langer functions they call) take plain floats; the per-point APIs
  call them at a few microseconds per point;
* array kernels (``sc_bound_field``, ``ua_field`` and the ``*_array``
  functions) evaluate the same expressions in the same order with NumPy,
  one masked set of array operations per branch of the scalar code, over
  blocks of ``FIELD_BLOCK`` points; the grid scans use them.  A series
  runs over the whole block until every element's scalar stopping rule
  has fired, and each element's sums freeze at its own stop, so both
  forms add the same terms and agree to rounding.

The SC value is one prefactor times one bracket, pref_merged * B /
sin(pi k), with B real on both sides of the caustic (``sc_bound_point``)
and complex only where both legs are forbidden (``_sc_doubly``).

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
STATUS_CAUSTIC = 1
STATUS_FOCAL = 2
STATUS_SOURCE = 3
STATUS_UNSUPPORTED = 4
STATUS_UNCONVERGED = 5
#: the reason a scan writes for each status, indexed by its code
REASONS = ("", "on_caustic", "focal_line", "source_point", "unsupported", "unconverged")

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


def v_bound(alpha, a, cv):
    """Collinear speed at path coordinate alpha/2 for bound motion."""
    return cv * math.sqrt((4.0 * a - alpha) / alpha)


def w_bound_forbidden_im(alpha, a, sk):
    """Im W_+ for bound motion continued past the caustic (alpha > 4a).

    Re W_+ is the alpha-independent half-loop action pi a sk.  The same
    function of alpha is the half-action of repulsive scattering (E > 0)
    on its allowed side alpha >= 4|a|, which vanishes at the turning point.
    It is sk (sqrt((alpha - 4a) alpha)/2 - 2a acosh(sqrt(alpha/4a))) =
    sk a (sinh t - t), t = 2 asinh(sqrt(alpha/4a - 1)), without cancellation.
    """
    if alpha <= 4.0 * a:
        return 0.0
    return sk * a * _odd_tail(2.0 * math.asinh(math.sqrt((alpha - 4.0 * a) / (4.0 * a))), 1.0)


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


def caustic_region(alpha, four_a):
    """REGION_* code of one alpha against the caustic alpha = 4a: on it
    within CAUSTIC_TOL * 4a, else allowed below and forbidden above."""
    if abs(alpha - four_a) <= CAUSTIC_TOL * four_a:
        return REGION_CAUSTIC
    return REGION_ALLOWED if alpha < four_a else REGION_FORBIDDEN


def region_status(s, ap, am, four_a):
    """(region, status) of one point: the region is caustic_region of
    alpha_+; the status is STATUS_SOURCE at s = 0, STATUS_FOCAL on the
    focal line and STATUS_OK elsewhere."""
    region = caustic_region(ap, four_a)
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

def sc_bound_point(s, ap, am, a, k, ndim, mu, hbar, sk, cv, pref_merged, sinpk):
    """Semiclassical bound-state Green value at one point,
    pref_merged * B / sin(pi k), p = (n - 1)/2, with a real bracket B on
    each side of the caustic: the merged interference of the two path
    families where the point is allowed (alpha_+ < 4a); beyond it, the
    inner leg allowed, the two-path continuation v_+ -> i w,
    W_+ -> pi a sk + i K times the loop factor 1/2 + (i/2) cot(pi k),
    summed to
        (mu |v_- + i w| / 2s)^p e^(-K/hbar)
        cos(p atan2(w, v_-) + pi (p/2 - 1/4) - W_-/hbar) / sqrt(w v_-),
    at n = 3 Hostler's bracket with the decaying outer solution.  Doubly
    forbidden points take the complex bracket of ``_sc_doubly``; every
    other value is real (odd n) or imaginary (even n), its zero part +0.0.
    Besides the source and the focal line, the caustic band and the inner
    leg's turning point alpha_- = 4a (within CAUSTIC_TOL * 4a) get NaN,
    with STATUS_CAUSTIC.

    Returns (value, region_code, status_code).
    """
    four_a = 4.0 * a
    region, status = region_status(s, ap, am, four_a)
    if status == STATUS_OK and (region == REGION_CAUSTIC
                                or caustic_region(am, four_a) == REGION_CAUSTIC):
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
    elif am < four_a:
        # tunnelling: the real form of the docstring
        vm = v_bound(am, a, cv)
        w = cv * math.sqrt((ap - four_a) / ap)
        br = ((mu * math.hypot(vm, w) / (2.0 * s)) ** p
              * math.exp(-w_bound_forbidden_im(ap, a, sk) / hbar)
              * math.cos(p * math.atan2(w, vm) + math.pi * (0.5 * p - 0.25)
                         - w_bound(am, a, sk) / hbar) / math.sqrt(w * vm))
    else:
        br = _sc_doubly(s, cv * math.sqrt((ap - four_a) / ap),
                        cv * math.sqrt((am - four_a) / am), w_bound_forbidden_im(ap, a, sk),
                        w_bound_forbidden_im(am, a, sk), k, p, mu, hbar, math.exp)
    # adding 0j makes the zero part +0.0, whatever the signs of the factors
    return pref_merged * br / sinpk + 0j, region, STATUS_OK


def _sc_doubly(s, wp, wm, kp, km, k, p, mu, hbar, exp):
    """Complex bracket of the doubly forbidden SC, scalar or array (``exp``
    from math or NumPy): both legs continued, v -> i w, W -> pi a sk + i K,
    times the loop factor; its real part is about half of Hostler's value.
        [-i e^(-i pi k) (mu (w_+ + w_-)/2s)^p e^(-(K_+ - K_-)/hbar)
         + e^(i pi k) (mu (w_+ - w_-)/2s)^p e^(-(K_+ + K_-)/hbar)] / (2 sqrt(w_+ w_-))
    """
    phase = cmath.exp(1j * math.pi * k)
    return (-1j * phase.conjugate() * (mu * (wp + wm) / (2.0 * s)) ** p * exp((km - kp) / hbar)
            + phase * (mu * (wp - wm) / (2.0 * s)) ** p * exp(-(kp + km) / hbar)) \
        / (2.0 * (wp * wm) ** 0.5)


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
# operations, written in the scalar operation order; a series loop runs
# over the whole block until the last element stops, each element's sums
# frozen by a mask from the term where its scalar loop stops.

#: points per block of the array drivers (bounds the temporaries)
FIELD_BLOCK = 4096


def _w_bound_array(alpha, a, sk):
    """w_bound over an array."""
    g = 2.0 * np.arcsin(np.sqrt(np.clip(alpha / (4.0 * a), 0.0, 1.0)))
    return sk * a * (g + np.sin(g))


def _w_bound_forbidden_im_array(alpha, a, sk):
    """w_bound_forbidden_im over an array with alpha >= 4a."""
    return sk * a * _odd_tail_array(2.0 * np.arcsinh(np.sqrt((alpha - 4.0 * a) / (4.0 * a))),
                                    1.0)


def _airy_decaying(x):
    """airy_ai_both for x > 7.  An element freezes where the scalar loop
    breaks, so a divergent term is never added."""
    xi = 2.0 / 3.0 * x * np.sqrt(x)
    su = np.ones_like(x)
    sv = np.ones_like(x)
    m = np.ones_like(x)
    prev = np.ones_like(x)
    run = np.ones(x.shape, dtype=bool)
    for k in range(1, len(_AIRY_U)):
        m = -m / xi
        tu = _AIRY_U[k] * m
        run &= ~(np.abs(tu) > prev)
        prev = np.abs(tu)
        su = np.where(run, su + tu, su)
        sv = np.where(run, sv + _AIRY_V[k] * m, sv)
        run &= ~(prev < 1e-18)
        if not run.any():
            break
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
    """airy_ai_both for |x| <= 7 (and NaN).  A converged element's terms
    are zeroed, which freezes its sums where the scalar loop breaks."""
    x2 = x * x
    tf = np.ones_like(x)
    f = np.ones_like(x)
    fp = np.zeros_like(x)
    tg = x
    g = x
    gp = np.ones_like(x)
    for k in range(1, 80):
        fp = fp + tf * x2 / (3.0 * k - 1.0)
        tf = tf * x2 * x / ((3.0 * k) * (3.0 * k - 1.0))
        f = f + tf
        gp = gp + tg * x2 / (3.0 * k)
        tg = tg * x2 * x / ((3.0 * k + 1.0) * (3.0 * k))
        g = g + tg
        done = np.abs(tf) + np.abs(tg) < 1e-20 * (1.0 + np.abs(f) + np.abs(g))
        if done.all():
            break
        tf[done] = 0.0
        tg[done] = 0.0
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
    """_odd_tail over an array.  An element's sum freezes where the scalar
    loop stops."""
    out = np.empty_like(x)
    big = x > 0.5
    xb = x[big]
    out[big] = xb - np.sin(xb) if sign < 0.0 else np.sinh(xb) - xb
    xs = x[~big]
    x2 = xs * xs
    term = xs * x2 / 6.0
    total = term
    k = 1
    run = np.abs(term) > 1e-17 * total
    while run.any():
        term = term * (sign * x2 / ((2.0 * k + 2.0) * (2.0 * k + 3.0)))
        total = np.where(run, total + term, total)
        run &= np.abs(term) > 1e-17 * total
        k += 1
    out[~big] = total
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


def _sc_bound_block(s, ap, am, a, k, ndim, mu, hbar, sk, cv, pref_merged, sinpk):
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

    # tunnelling: the real form of sc_bound_point
    ok = rest & ~inside & (am < four_a)
    s_, ap_, am_ = s[ok], ap[ok], am[ok]
    vm = cv * np.sqrt((four_a - am_) / am_)
    w = cv * np.sqrt((ap_ - four_a) / ap_)
    br = ((mu * np.hypot(vm, w) / (2.0 * s_)) ** p
          * np.exp(-_w_bound_forbidden_im_array(ap_, a, sk) / hbar)
          * np.cos(p * np.arctan2(w, vm) + math.pi * (0.5 * p - 0.25)
                   - _w_bound_array(am_, a, sk) / hbar) / np.sqrt(w * vm))
    vals[ok] = pref_merged * br / sinpk

    ok = rest & (am >= four_a)
    s_, ap_, am_ = s[ok], ap[ok], am[ok]
    br = _sc_doubly(s_, cv * np.sqrt((ap_ - four_a) / ap_), cv * np.sqrt((am_ - four_a) / am_),
                    _w_bound_forbidden_im_array(ap_, a, sk),
                    _w_bound_forbidden_im_array(am_, a, sk), k, p, mu, hbar, np.exp)
    vals[ok] = pref_merged * br / sinpk
    # adding 0j makes the zero part +0.0, whatever the signs of the factors
    return vals + 0j, region, status


def sc_bound_field(points, source, a, k, ndim, mu, hbar, sk, cv, pref_merged, sinpk):
    """sc_bound_point at every row of points (N x n), array-wise."""
    return _map_blocks(_sc_bound_block, points, source, a, k, ndim, mu, hbar, sk, cv,
                       pref_merged, sinpk)


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

