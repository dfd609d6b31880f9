"""Airy machinery and the Langer-uniform approximation (n = 3).

The exact n = 3 Green function is Hostler's closed form

    G = Gamma(1 - nu)/(2 pi s) (d_x - d_y)[W_{nu,1/2}(x) M_{nu,1/2}(y)],

x, y = kappa alpha_+-, which depends on the endpoints only through the
Lambert variables (L. Hostler, J. Math. Phys. 5, 591 (1964)).  The uniform
approximation keeps this structure and takes the two Whittaker functions
in Langer's form (R. E. Langer, Phys. Rev. 51, 669 (1937)): W as the
uniform Airy function about the outer turning point, a quarter Bohr
(1/(4 kappa nu)) inside the caustic alpha_+ = 4a, and M as the primitive
Langer solution, continued through the inner turning point by the Airy
form about that point.  With the Langer term -1/(4 z^2) the phase integral
between the turning points is exactly pi (nu - 1/2), so the Wronskian is
-sin(pi nu)/sqrt(pi) and the loop poles come out with no gamma function.
All phase integrals are elementary closed forms.  The kernels below, the
Airy function and the Langer solutions, live here with their one user.
As in ``_kernels``, each formula, the Airy series among them, has one
body over a backend ``xp``, called with ``_MATH`` by the scalar kernel
(``ua_point``) and with ``_NUMPY`` by the array kernel (``ua_field``, for
the grid scans); only the branch dispatch (``if`` or masks) has two
forms.  Both kernels share the Lambert reduction, the region rule and
``_map_blocks`` of ``_kernels``.

The result is finite and smooth across the caustic, reduces to the
primitive semiclassical value deep in the allowed region and to the
tunnelling continuation deep in the forbidden one.  The classical Airy
variable of the leading-order two-saddle form, reported by
``uniform_inputs``, serves as the caustic coordinate.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from .errors import RegionError, UnsupportedDimensionError
from .geometry import (bound_class, endpoint_lists, lambert_variables, refuse_overflow,
                       refuse_point)
from .model import EnergySpec, SystemParams, bound_regime, check_pole
from .semiclassical import FieldSample


class UniformInputs(NamedTuple):
    """Classical Airy variables of one coalescing path pair.

    xi   -- common phase (mean action / hbar, real part in the tunnel)
    zeta -- Airy argument of the two-saddle form, (3 (W_2pi - 2 W_+) /
            (4 hbar))^(2/3): positive on the allowed side, negative in the
            tunnel, zero on the caustic
    """

    xi: float
    zeta: float


def uniform_inputs(r_vec, rp_vec, spec: EnergySpec,
                   params: SystemParams) -> tuple[UniformInputs, UniformInputs]:
    """The (pair14, pair23) classical Airy variables at one endpoint pair.

    They locate a point relative to the caustic in units of the Airy
    length.  green_uniform does not use them: its Airy variable belongs to
    the Langer turning point and is shifted from zeta by about 1e-2 at
    nu = 5.3 and 1e-3 at nu = 29.2.
    """
    ua_constants(spec, params)  # the UA's dimension, regime and pole rules
    pair = lambert_variables(r_vec, rp_vec, params)
    refuse_point(K.region_status(pair.s, pair.alpha_plus, pair.alpha_minus, 4.0 * spec.a)[1])
    sk, _, _ = bound_regime(spec, params)
    hbar, a = params.hbar, spec.a
    w2pi = 2.0 * math.pi * sk * a  # actions.round_trip's W_2pi
    ap = pair.alpha_plus
    if ap < 4.0 * a:
        zeta = (3.0 * (w2pi - 2.0 * K.w_bound(ap, a, sk)) / (4.0 * hbar)) ** (2.0 / 3.0)
    else:
        zeta = -((3.0 * K.w_bound_forbidden_im(ap, a, sk) / (2.0 * hbar)) ** (2.0 / 3.0))
    wm = K.w_bound(pair.alpha_minus, a, sk)
    return (UniformInputs(xi=(0.5 * w2pi - wm) / hbar, zeta=zeta),
            UniformInputs(xi=(0.5 * w2pi + wm) / hbar, zeta=zeta))


def ua_constants(spec: EnergySpec, params: SystemParams):
    """(4a, nu, kappa, g0) for the uniform kernels: Whittaker index nu,
    kappa = sqrt(2 mu |E|)/hbar, and g0 = mu / (2 sqrt(pi) hbar^2 sin(pi nu)).
    Refuses n != 3 (UnsupportedDimensionError), what ``bound_regime``
    refuses and pole energies (``check_pole``)."""
    if params.ndim != 3:
        raise UnsupportedDimensionError("uniform approximation implemented for n = 3")
    sk, _, _ = bound_regime(spec, params)
    check_pole(spec)
    nu = spec.k + 1.0
    g0 = params.mu / (2.0 * math.sqrt(math.pi) * params.hbar ** 2
                      * math.sin(math.pi * nu))
    return 4.0 * spec.a, nu, sk / params.hbar, g0


@refuse_overflow("value")
def green_uniform(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Langer-uniform bound-state Green function (n = 3).

    Finite and smooth across the caustic; merges with the primitive
    semiclassical value away from it on either side.  A value that
    overflows (endpoints a tiny distance apart) raises IllConditionedError.
    """
    args = ua_constants(spec, params)
    x, xp, pair = endpoint_lists(r_vec, rp_vec, params)
    val, region, status = ua_point(pair.s, pair.alpha_plus, pair.alpha_minus, *args)
    refuse_point(status)
    if status == K.STATUS_UNSUPPORTED:
        # kappa alpha_- >= 0.999 z_out > 2 nu = 2 kappa a, or kappa alpha_+ <= z_in < 2 nu
        am, a = pair.alpha_minus, spec.a
        raise RegionError("no uniform value: " + (
            "the inner leg is at or past its turning point (doubly forbidden)" if am > 4.0 * a
            else "the inner leg is within 0.1% of its turning point z_out" if am > 2.0 * a
            else "both legs lie inside the inner turning point z_in"))
    return FieldSample(tuple(x), tuple(xp), spec.E, "UA", val,
                       bound_class(region, pair, 4.0 * spec.a))


# ==========================================================================
# Airy function of the first kind (real argument)
# ==========================================================================

_SQRT_PI = math.sqrt(math.pi)
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
#: denominators of Maclaurin term k = 1..79, (3k - 1, 3k (3k - 1), 3k,
#: (3k + 1) 3k): exact integer-valued floats, so reading them from the table
#: gives the bits of computing them in the loop
_MACLAURIN = [(3.0 * k - 1.0, (3.0 * k) * (3.0 * k - 1.0), 3.0 * k, (3.0 * k + 1.0) * (3.0 * k))
              for k in range(1, 80)]


def airy_ai_both(x):
    """(Ai(x), Ai'(x)) by Maclaurin series for |x| <= 7 and large-argument
    expansions beyond; absolute error stays below 1e-10 on the real line."""
    if x > 7.0:
        return _airy_decaying(x, _MATH)
    if x < -7.0:
        return _airy_oscillating(x, _MATH)
    return _airy_maclaurin(x, _MATH)


def _airy_decaying(x, xp):
    """(Ai(x), Ai'(x)) for x > 7: the large-argument expansion, until every
    element's last term is below 1e-18.  Its terms shrink at every k: their
    ratio (6k - 5)(6k - 1)/(72 k xi) is at most 12.003/xi, xi > 12.34."""
    xi = 2.0 / 3.0 * x * xp.sqrt(x)
    m = 1.0
    su = 1.0
    sv = 1.0
    for k in range(1, len(_AIRY_U)):
        m = -m / xi
        tu = _AIRY_U[k] * m
        su = su + tu
        sv = sv + _AIRY_V[k] * m
        if xp.all(abs(tu) < 1e-18):
            break
    pre = xp.exp(-xi) / (2.0 * _SQRT_PI)
    q = x ** 0.25
    return pre * su / q, -pre * sv * q


def _airy_maclaurin(x, xp):
    """(Ai(x), Ai'(x)) for |x| <= 7 (and NaN, which runs every term): two
    independent solutions of y'' = x y and their derivatives, until every
    element's last terms are below 1e-20 of its sums."""
    x2 = x * x
    tf = 1.0
    f = 1.0
    fp = 0.0
    tg = x
    g = x
    gp = 1.0
    for d1, d2, d3, d4 in _MACLAURIN:
        tfx = tf * x2
        tgx = tg * x2
        fp = fp + tfx / d1
        tf = tfx * x / d2
        f = f + tf
        gp = gp + tgx / d3
        tg = tgx * x / d4
        g = g + tg
        if xp.all(abs(tf) + abs(tg) < 1e-20 * (1.0 + abs(f) + abs(g))):
            break
    return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp


def _airy_oscillating(x, xp):
    """(Ai(x), Ai'(x)) for x < -7: the oscillatory expansion (a fixed
    number of terms)."""
    z = -x
    xi = 2.0 / 3.0 * z * xp.sqrt(z)
    c = xp.cos(xi - 0.25 * math.pi)
    s = xp.sin(xi - 0.25 * math.pi)
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
        se_u = se_u + _AIRY_U[2 * k] * me
        se_v = se_v + _AIRY_V[2 * k] * me
        so_u = so_u + _AIRY_U[2 * k + 1] * mo
        so_v = so_v + _AIRY_V[2 * k + 1] * mo
    q = z ** 0.25
    ai = (c * se_u + s * so_u) / (_SQRT_PI * q)
    aip = (s * se_v - c * so_v) * q / _SQRT_PI
    return ai, aip


# ==========================================================================
# Langer-uniform Airy approximation (three dimensions)
# ==========================================================================
#
# The Whittaker functions of Hostler's form solve w'' + Q w = 0,
# Q = -1/4 + nu/z.  Langer's form replaces Q by
#     Q_L(z) = -1/4 + nu/z - 1/(4 z^2) = (z_out - z)(z - z_in)/(4 z^2),
# with turning points z_out/in = 2 nu +- D, D = sqrt(4 nu^2 - 1), z_in = 1/z_out;
# z_out lies 1/(4 nu) + O(nu^-3) below the caustic value 4 nu.  Then
#     W_L = f Ai(-zeta),  f = (zeta/Q_L)^(1/4),  (2/3) zeta^(3/2) = int_z^z_out sqrt(Q_L),
#     M_L = Q_L^(-1/4) sin(int_z_in^z sqrt(Q_L) + pi/4),
# and since int_z_in^z_out sqrt(Q_L) = pi (nu - 1/2) exactly, their Wronskian
# is -sin(pi nu)/sqrt(pi): the bound-state poles need no gamma function.
# Close to z_in (alpha_- below a few Bohr) M_L is continued through its
# turning point by the same uniform Airy form about z_in.


def _phase_allowed(t, z, d, c, sigma, xp):
    """langer_phase on the allowed side, t >= 0."""
    th = 2.0 * xp.asin(xp.minimum(1.0, xp.sqrt(t / (2.0 * d))))
    ps = 2.0 * xp.asin(xp.minimum(1.0, xp.sqrt(t * c / (2.0 * z * d))))
    return sigma * 0.5 * d * xp.odd_tail(th, -1.0) + 0.5 * (c * th - ps)


def _phase_beyond(t, z, d, c, sigma, xp):
    """langer_phase beyond the turning point, t < 0."""
    et = 2.0 * xp.asinh(xp.sqrt(-t / (2.0 * d)))
    ch = 2.0 * xp.asinh(xp.sqrt(-t * c / (2.0 * z * d)))
    return -(sigma * 0.5 * d * xp.odd_tail(et, 1.0) + 0.5 * (ch - c * et))


def langer_phase(t, z, d, c, sigma):
    """Signed phase integral of sqrt|Q_L| between z and one turning point.

    t is the distance from z to the turning point, positive on its allowed
    side; (c, sigma) = (z_in, +1) for z_out, (z_out, -1) for z_in.  Returns
    +int sqrt(Q_L) on the allowed side and -int sqrt(-Q_L) beyond.  The
    closed form sqrt(R) + nu asin((z-2nu)/D) - asin((2 nu z-1)/(z D))/2,
    R = z^2 Q_L, is regrouped so that the terms linear in the angle cancel
    analytically and the value keeps full relative accuracy as t -> 0.
    """
    return (_phase_allowed if t >= 0.0 else _phase_beyond)(t, z, d, c, sigma, _MATH)


def _langer_amplitude(t, z, nu, d, z_out, c, sigma, xp):
    """(zeta, f, f') about one turning point: the Airy variable, the
    amplitude f = (zeta/Q_L)^(1/4) of the uniform form f(z) Ai(-zeta(z)),
    and f'; zeta' = -sigma / f^2."""
    xi = xp.phase(t, z, d, c, sigma)
    zeta = xp.copysign((1.5 * xp.abs(xi)) ** (2.0 / 3.0), xi)
    q = t * (z_out - z if sigma < 0.0 else z - 1.0 / z_out) / (4.0 * z * z)
    qp = (1.0 - 2.0 * nu * z) / (2.0 * z * z * z)
    f = (zeta / q) ** 0.25
    fp = 0.25 * f * (-sigma / (f * f * zeta) - qp / q)
    return zeta, f, fp


def _turning_point(z, nu, outer):
    """(t, d, z_out, z_turn, c, sigma, norm) of the Airy form about z_out
    (outer) or z_in."""
    d = math.sqrt(4.0 * nu * nu - 1.0)
    z_out = 2.0 * nu + d
    if outer:
        z_turn, c, sigma, norm = z_out, 1.0 / z_out, 1.0, 1.0
        t = z_out - z
    else:
        z_turn, c, sigma, norm = 1.0 / z_out, z_out, -1.0, _SQRT_PI
        t = z - z_turn
    return t, d, z_out, z_turn, c, sigma, norm


# Within TP_WINDOW z_turn of a turning point (zeta, f, f') are summed from
# their Taylor series in u = t / z_turn, whose first neglected term there is
# below 1e-19.  The closed forms cancel terms of order 1/t, in the phase and
# again in f', and lose digits like (z_turn / t)^2: up to 1e-8 of f' just
# outside the window, 2e-10 at 1e-3.  The window is kept that narrow so
# that every value outside it keeps the bits of the closed forms.
TP_WINDOW = 2e-4
TP_TERMS = 6


def _series_pow(a, p):
    """The Taylor coefficients of a(u)^p, as many as of a(u), a[0] > 0
    (J. C. P. Miller's recurrence)."""
    y = [a[0] ** p]
    for n in range(1, len(a)):
        y.append(sum(((p + 1.0) * k - n) * a[k] * y[n - k] for k in range(1, n + 1))
                 / (n * a[0]))
    return y


def _near_turning_point(t, z_turn, c, sigma):
    """(zeta, f, f') for |t| < TP_WINDOW z_turn.  With Q_L = t q(u),
    (2/3) zeta^(3/2) = int_0^t sqrt(Q_L) gives zeta = t g(u),
    g = (3/2 sum_k s_k u^k / (k + 3/2))^(2/3) for sqrt(q) = sum_k s_k u^k,
    and f = (zeta / Q_L)^(1/4) = (g / q)^(1/4); g and f are analytic in u,
    and f' = -sigma df/dt."""
    # q(u) = sigma (z - c) / (4 z^2) at z = z_turn (1 - sigma u)
    a, b = sigma * (z_turn - c), 4.0 * z_turn * z_turn
    q = [(a * (k + 1) - sigma * k * z_turn) * sigma ** k / b for k in range(TP_TERMS)]
    g = _series_pow([1.5 * v / (k + 1.5) for k, v in enumerate(_series_pow(q, 0.5))], 2.0 / 3.0)
    f = _series_pow(np.convolve(g, _series_pow(q, -1.0))[:TP_TERMS], 0.25)[::-1]
    u = t / z_turn
    return (t * np.polyval(g[::-1], u), np.polyval(f, u),
            -sigma / z_turn * np.polyval(np.polyder(f), u))


def _airy_form(zeta, f, fp, sigma, norm, xp):
    """norm (f Ai(-zeta), f' Ai(-zeta) + sigma Ai'(-zeta) / f)."""
    ai, aip = xp.airy(-zeta)
    return norm * f * ai, norm * (fp * ai + sigma * aip / f)


def _amplitude(z, nu, outer):
    """(zeta, f, f', sigma, norm) at z for the Airy form about z_out or z_in."""
    t, d, z_out, z_turn, c, sigma, norm = _turning_point(z, nu, outer)
    if abs(t) < TP_WINDOW * z_turn:
        return (*_near_turning_point(t, z_turn, c, sigma), sigma, norm)
    return (*_langer_amplitude(t, z, nu, d, z_out, c, sigma, _MATH), sigma, norm)


def langer_airy(z, nu, outer):
    """Langer-uniform Airy solution f Ai(-zeta) and its z-derivative,
    about z_out (outer=True; decays beyond it) or about z_in (times
    sqrt(pi), so that it tends to Q_L^(-1/4) sin(xi + pi/4) inside).

    Within TP_WINDOW of the turning point, where the closed forms of zeta
    and f' cancel (f' is 0/0 there), all three come from their Taylor
    series in the distance to it.
    """
    return _airy_form(*_amplitude(z, nu, outer), _MATH)


# the regular solution is the primitive Langer form from XI_B radians of
# phase beyond the inner turning point on; below XI_A it is the uniform
# Airy form, and in between the two are blended smoothly
XI_A = 1.0
XI_B = 3.0


def _primitive_regular(xi, t, z, nu, z_out, xp):
    """(M_L, M_L', Q_L^(1/4)) at phase xi beyond z_in, t = z - z_in."""
    q = t * (z_out - z) / (4.0 * z * z)
    qp = (1.0 - 2.0 * nu * z) / (2.0 * z * z * z)
    q4 = q ** 0.25
    m = xp.sin(xi + 0.25 * math.pi) / q4
    return m, q4 * xp.cos(xi + 0.25 * math.pi) - 0.25 * qp / q * m, q4


def _blend(xi, ma, mpa, m, mp, q4):
    """The Airy form (ma, mpa) blended into the primitive (m, mp) for
    XI_A < xi < XI_B, with a C2 weight (xi' = sqrt(Q_L) = q4^2), so that G,
    which holds M_L', stays C1."""
    u = (xi - XI_A) / (XI_B - XI_A)
    w = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    dw = 30.0 * (u * (1.0 - u)) ** 2 / (XI_B - XI_A) * q4 * q4
    return ma + w * (m - ma), mpa + w * (mp - mpa) + dw * (m - ma)


def langer_regular(z, nu):
    """M_L(z) = Q_L^(-1/4) sin(int_z_in^z sqrt(Q_L) + pi/4) and its
    derivative, continued uniformly through the inner turning point."""
    t, d, z_out = _turning_point(z, nu, False)[:3]
    xi = langer_phase(t, z, d, z_out, -1.0) if t > 0.0 else 0.0
    if xi < XI_B:
        ma, mpa = langer_airy(z, nu, False)
        if xi <= XI_A:
            return ma, mpa
    m, mp, q4 = _primitive_regular(xi, t, z, nu, z_out, _MATH)
    if xi >= XI_B:
        return m, mp
    return _blend(xi, ma, mpa, m, mp, q4)


def _unsupported(ap, am, nu, kappa):
    """Where the construction has no value: the inner leg kappa alpha_- at or
    past 0.999 z_out, or both legs inside z_in (kappa alpha_+ <= z_in)."""
    z_out = 2.0 * nu + math.sqrt(4.0 * nu * nu - 1.0)
    return (kappa * am >= 0.999 * z_out) | (kappa * ap <= 1.0 / z_out)


def _hostler(s, ap, am, nu, kappa, g0, xp):
    """G = g0 / s * (W_L'(x) M_L(y) - W_L(x) M_L'(y)), x, y = kappa alpha_+-."""
    w, wp = xp.langer_airy(kappa * ap, nu, True)
    m, mp = xp.langer_regular(kappa * am, nu)
    return g0 * (wp * m - w * mp) / s


def ua_point(s, ap, am, four_a, nu, kappa, g0):
    """Langer-uniform approximation at one point, three dimensions only.

    G = g0 / s * (W_L'(x) M_L(y) - W_L(x) M_L'(y)) with x, y = kappa
    alpha_+-, g0 = mu / (2 sqrt(pi) hbar^2 sin(pi nu)); finite and smooth
    across the caustic.  Besides the source and the focal line, points
    whose inner leg reaches 0.999 z_out (doubly forbidden ones among them)
    and points with both legs inside z_in get NaN with STATUS_UNSUPPORTED.

    Returns (value, region_code, status_code).
    """
    region, status = K.region_status(s, ap, am, four_a)
    if status != K.STATUS_OK:
        return complex(math.nan, math.nan), region, status
    if _unsupported(ap, am, nu, kappa):
        return complex(math.nan, math.nan), region, K.STATUS_UNSUPPORTED
    return complex(_hostler(s, ap, am, nu, kappa, g0, _MATH), 0.0), region, K.STATUS_OK


# ==========================================================================
# array kernels: the masked dispatch over blocks of points, calling the
# bodies above with the NumPy backend
# ==========================================================================

def airy_ai_both_array(x):
    """airy_ai_both over a float array: (Ai(x), Ai'(x))."""
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    big = x > 7.0
    neg = x < -7.0
    mid = ~(big | neg)
    ai[big], aip[big] = _airy_decaying(x[big], _NUMPY)
    ai[neg], aip[neg] = _airy_oscillating(x[neg], _NUMPY)
    ai[mid], aip[mid] = _airy_maclaurin(x[mid], _NUMPY)
    return ai, aip


def langer_phase_array(t, z, d, c, sigma):
    """langer_phase over arrays t, z."""
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = _phase_allowed(t[pos], z[pos], d, c, sigma, _NUMPY)
    neg = ~pos
    out[neg] = _phase_beyond(t[neg], z[neg], d, c, sigma, _NUMPY)
    return out


def _amplitude_array(z, nu, outer):
    """_amplitude over an array z."""
    t, d, z_out, z_turn, c, sigma, norm = _turning_point(z, nu, outer)
    zeta = np.empty_like(z)
    f = np.empty_like(z)
    fp = np.empty_like(z)
    near = np.abs(t) < TP_WINDOW * z_turn
    if near.any():  # the series' coefficients cost about 40 us
        zeta[near], f[near], fp[near] = _near_turning_point(t[near], z_turn, c, sigma)
    far = ~near
    zeta[far], f[far], fp[far] = _langer_amplitude(t[far], z[far], nu, d, z_out, c, sigma,
                                                   _NUMPY)
    return zeta, f, fp, sigma, norm


def langer_airy_array(z, nu, outer):
    """langer_airy over an array z."""
    return _airy_form(*_amplitude_array(z, nu, outer), _NUMPY)


def langer_regular_array(z, nu):
    """langer_regular over an array z."""
    t, d, z_out = _turning_point(z, nu, False)[:3]
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
    m[prim], mp[prim], q4 = _primitive_regular(xi[prim], t[prim], z[prim], nu, z_out, _NUMPY)
    m[blend], mp[blend] = _blend(xi[blend], ma, mpa, m[blend], mp[blend], q4[blend[prim]])
    return m, mp


#: ``_kernels``' backends with this module's scalar or array Airy and Langer forms
_MATH = SimpleNamespace(**vars(K._MATH), airy=airy_ai_both, phase=langer_phase,
                        langer_airy=langer_airy, langer_regular=langer_regular)
_NUMPY = SimpleNamespace(**vars(K._NUMPY), airy=airy_ai_both_array, phase=langer_phase_array,
                         langer_airy=langer_airy_array, langer_regular=langer_regular_array)


def _ua_block(s, ap, am, four_a, nu, kappa, g0):
    region, status = K.region_status_array(s, ap, am, four_a)
    status[(status == K.STATUS_OK) & _unsupported(ap, am, nu, kappa)] = K.STATUS_UNSUPPORTED
    ok = status == K.STATUS_OK
    vals = np.full(ap.shape, complex(math.nan, math.nan))
    vals[ok] = _hostler(s[ok], ap[ok], am[ok], nu, kappa, g0, _NUMPY)
    return vals, region, status


def ua_field(points, source, four_a, nu, kappa, g0):
    """ua_point at every row of points (N x 3), array-wise."""
    return K._map_blocks(_ua_block, points, source, four_a, nu, kappa, g0)
