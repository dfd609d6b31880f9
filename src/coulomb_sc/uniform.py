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
Ai and Ai' come from Taylor steps about tabulated nodes for |x| <= 7 (the
table is written by ``tools/airy_nodes.py`` from mpmath) and from the
large-argument expansions beyond.  As in ``_kernels``, each formula, the
Airy series among them, has one body over a backend ``xp``, called with
``_MATH`` by the scalar kernel (``ua_point``) and with ``_NUMPY`` by the
array kernel (``ua_field``, for the grid scans); only the branch dispatch
(``if`` or masks) and the node lookup have two forms.  Both kernels share
the Lambert reduction, the region rule and ``_map_blocks`` of
``_kernels``.

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
from .geometry import (FieldSample, bound_class, endpoint_lists, lambert_variables,
                       refuse_overflow, refuse_point)
from .model import EnergySpec, SystemParams, bound_regime, check_pole, record


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
    return record(FieldSample, (tuple(x), tuple(xp), spec.E, "UA", val,
                                bound_class(region, pair, 4.0 * spec.a)))


# ==========================================================================
# Airy function of the first kind (real argument)
# ==========================================================================

_SQRT_PI = math.sqrt(math.pi)

# airy-nodes: begin (tools/airy_nodes.py)
_AIRY_NODE_TEXT = """
0x1.79683b0571a28p-3 -0x1.8ac195288a6bdp-1
0x1.467cdc28bcbefp-4 -0x1.c5f7a333d271cp-1
-0x1.117cfaf866d7dp-5 -0x1.d03b837256366p-1
-0x1.24ea2ef1f1854p-3 -0x1.aa38e3edcc271p-1
-0x1.e7773026e4abdp-3 -0x1.59935f836551ap-1
-0x1.3c7da034360e6p-2 -0x1.cfef8bf6c4f15p-2
-0x1.6600b39fd3304p-2 -0x1.87583b9af1c1bp-3
-0x1.6cd85495fbba3p-2 0x1.5886cd0610577p-4
-0x1.510b6eb1815d2p-2 0x1.623ce99198c5bp-2
-0x1.15e0cf3642c46p-2 0x1.2425257151b29p-1
-0x1.82bfa57a7c26cp-3 0x1.7a73ecc8b9b11p-1
-0x1.6e62767ba3f46p-4 0x1.ad8c078a561e2p-1
0x1.2355309057e0ap-6 0x1.ba780ec73ea42p-1
0x1.f9faba17a99b9p-4 0x1.a1c6ac4f4b15cp-1
0x1.c08806801325dp-3 0x1.6733c101c4b90p-1
0x1.2fcb4ba9d25bbp-2 0x1.11115d8e8292bp-1
0x1.672de4d9e1d32p-2 0x1.4f0ba25cb5a72p-2
0x1.82b305261b62cp-2 0x1.9daaaf48c6e4cp-4
0x1.80f453c3d9834p-2 -0x1.044ccc5fedad9p-3
0x1.62cf48d3533acp-2 -0x1.5c3ff1e44d63fp-2
0x1.2b2a1940487e5p-2 -0x1.0bf62c807eea1p-1
0x1.bd2bc84ddb2e6p-3 -0x1.54c8e3b10e78bp-1
0x1.05b30e2b75dfep-3 -0x1.84beb2bf68f2dp-1
0x1.e70f52ac100a7p-6 -0x1.9a0868ba79377p-1
-0x1.1fcec060d9f19p-4 -0x1.94cd44c4fb752p-1
-0x1.53ceef9db8ad2p-3 -0x1.76f3e496825aap-1
-0x1.01a6c2aad1263p-2 -0x1.43d1019aa26d4p-1
-0x1.4a66d34ab26c2p-2 -0x1.ff8bab913842ep-2
-0x1.808bf043b852cp-2 -0x1.5fafa2aad827cp-2
-0x1.a1c5895c03d6ep-2 -0x1.652953faa38bbp-3
-0x1.ad11d0561308fp-2 -0x1.41a17b6ee4670p-9
-0x1.a2abc8185991ep-2 0x1.4e2ea991f03b0p-3
-0x1.83e7e4ea6959ap-2 0x1.42223f628d022p-2
-0x1.5303f4ad2a8cdp-2 0x1.c82b2df04c92cp-2
-0x1.12ef2f87eb4e5p-2 0x1.1a48fbebff8b1p-1
-0x1.8e1e32a7f8722p-3 0x1.424855a09fb3ap-1
-0x1.cc155ec43247dp-4 0x1.5b9295e8ef584p-1
-0x1.a79e7b7d85877p-6 0x1.66715d49a6da3p-1
0x1.f89dc01d9726ap-5 0x1.63d92a0bf2328p-1
0x1.2ce565d5ac292p-3 0x1.554463ed081b7p-1
0x1.d1bafc57f31d0p-3 0x1.3c8c724515c8fp-1
0x1.340cc9c597f3cp-2 0x1.1bc399aed6313p-1
0x1.76413dddfbbe9p-2 0x1.ea23a339f5d7cp-2
0x1.ae44f896dc6f5p-2 0x1.952c53ad8dc8bp-2
0x1.db661389897f8p-2 0x1.3c9b8221ef635p-2
0x1.fd6ba6bc60d02p-2 0x1.c8030d384f066p-3
0x1.0a43669c08ddap-1 0x1.1cd5bf011b8a1p-3
0x1.10a09175548bep-1 0x1.f28c6e0bde37dp-5
0x1.1235093d83da5p-1 -0x1.4cf103bcc6624p-7
0x1.0f820d34d57c7p-1 -0x1.29c33bd5f1467p-4
0x1.09197caa1560cp-1 -0x1.020755035f8bbp-3
0x1.ff2b76a706320p-2 -0x1.5ba6af6acad25p-3
0x1.e72543cd05e5dp-2 -0x1.a1f5921e923f0p-3
0x1.cb4f3d446ca76p-2 -0x1.d5d21253e1c23p-3
0x1.acc625315f862p-2 -0x1.f89ae5465c577p-3
0x1.8c8dcb589e17cp-2 -0x1.0604c8628843ap-2
0x1.6b8c7962715b8p-2 -0x1.0907f42b70f8bp-2
0x1.4a8865aeea263p-2 -0x1.065cefe5793afp-2
0x1.2a26e236cddd1p-2 -0x1.fe1446cddea9cp-3
0x1.0aecf6ef606b4p-2 -0x1.e8189dc54ded9p-3
0x1.da822d7438440p-3 -0x1.cc9de4b290e91p-3
0x1.a2db43a6d812dp-3 -0x1.ad4e09616d464p-3
0x1.6f47df7821461p-3 -0x1.8b9f7189a67bfp-3
0x1.3fff4743b17f3p-3 -0x1.68d205b349913p-3
0x1.151430bbaf656p-3 -0x1.45ef17fce4faep-3
0x1.dcf6edb2e514dp-4 -0x1.23cb8378f00f0p-3
0x1.9824e0cf4ad0ap-4 -0x1.030b6ad9cd6c7p-3
0x1.5b497807c8e99p-4 -0x1.c84e19d419c58p-4
0x1.25e2ccf277dc1p-4 -0x1.8ee0710605791p-4
0x1.eebd77555121fp-5 -0x1.5a2ffcc81d029p-4
0x1.9e44ba0726f86p-5 -0x1.2a68a7e0003bdp-4
0x1.5920403bab2a4p-5 -0x1.ff15b5262f249p-5
0x1.1e1935c04b623p-5 -0x1.b2ea9b1bfccdcp-5
0x1.d808c3948cd77p-6 -0x1.6fdb9333103dap-5
0x1.838ed439d41eep-6 -0x1.35517671bdc20p-5
0x1.3cb8aefe48420p-6 -0x1.029f2a35b101fp-5
0x1.01a74da795df8p-6 -0x1.ae182ce295c41p-6
0x1.a154b925ec79ep-7 -0x1.63b8ec384631ep-6
0x1.5080603dd42b5p-7 -0x1.24af70a194640p-6
0x1.0e28b29fc3657p-7 -0x1.df34c00193b21p-7
0x1.aff4f7fbd1f1bp-8 -0x1.865d4aaccf1e1p-7
0x1.57e4236b91c5cp-8 -0x1.3c7715813a281p-7
0x1.10a8d885744bcp-8 -0x1.feb39bcb22d41p-8
0x1.ae9f9e1569bf3p-9 -0x1.9a2f281b2cc1cp-8
0x1.52b3f78f3be24p-9 -0x1.47f82253f7ef5p-8
0x1.095cf102b4db3p-9 -0x1.0513d92bc25ecp-8
0x1.9e34d16a4bef0p-10 -0x1.9ddc9d341f712p-9
0x1.420a9391998c3p-10 -0x1.46a32d4f476bfp-9
0x1.f2e4bcf7c4970p-11 -0x1.00b915a6c6845p-9
0x1.810185bba7d59p-11 -0x1.91e556a2d209ap-10
0x1.2808ad03b7838p-11 -0x1.3950dbdc09f1ep-10
0x1.c59b7f835ae63p-12 -0x1.e6961e4609e11p-11
0x1.5a4ae56c7e071p-12 -0x1.785e6b71c4ddfp-11
0x1.077046d3bc35dp-12 -0x1.22004156d348ap-11
0x1.8f6d37a3790eap-13 -0x1.bd37bb7204cf5p-12
0x1.2dc4b38f1a88dp-13 -0x1.547bd2fb0271dp-12
0x1.c66df1a2952d5p-14 -0x1.036ea91e217e0p-12
0x1.5503827f9224dp-14 -0x1.89eb5e9ccf601p-13
0x1.fe1cba007c5adp-15 -0x1.29fe777b49f0bp-13
0x1.7c47b4e6f649bp-15 -0x1.c14463ef1fcf4p-14
0x1.1a92a8107b6ebp-15 -0x1.517ce89672d6ap-14
0x1.a29789a1af92bp-16 -0x1.f94c1c501127ap-15
0x1.350ea6647cc50p-16 -0x1.78fd3fcc0d042p-15
0x1.c6ef12c25ab7cp-17 -0x1.1851833eaecbfp-15
0x1.4dca0b3cc0f9dp-17 -0x1.9f7db9ccfd7a0p-16
0x1.e84c01e433764p-18 -0x1.32e9c9102ba56p-16
0x1.641202c0a3caap-18 -0x1.c3f2cdb61ee61p-17
0x1.02dcf2ad07195p-18 -0x1.4bb18429da75fp-17
0x1.7741c92b83c35p-19 -0x1.e553a2f48a090p-18
0x1.0f2f00daac6a8p-19 -0x1.61f1ca9992f1ap-18
0x1.86cab0a601b37p-20 -0x1.015372b187171p-18
0x1.18c0fbab97e57p-20 -0x1.75031b24cb513p-19
0x1.923b08f80599ap-21 -0x1.0d878a129feacp-19
"""
# airy-nodes: end
#: (Ai(x0), Ai'(x0)) at the nodes x0 = -7 + k/8, k = 0..112, as floats for
#: the scalar kernel and as a (2, 113) array for the array kernel
_AIRY_NODES = [tuple(map(float.fromhex, row.split()))
               for row in _AIRY_NODE_TEXT.strip().split("\n")]
_AIRY_NODE_ARRAY = np.array(_AIRY_NODES).T
#: the highest power of x - x0 in the Taylor steps.  At |x - x0| = 1/16 the
#: first neglected terms, a_12 h^12 and 12 a_12 h^11, are below 4e-19 of Ai
#: and 8e-17 of Ai' (relative for x >= 0, absolute for x < 0)
AIRY_ORDER = 11


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
    """(Ai(x), Ai'(x)) by Taylor steps from tabulated nodes for |x| <= 7
    and large-argument expansions beyond; absolute error stays below 1e-10
    on the real line, and below 1e-15 (1e-14 relative for x >= 0) on
    [-7, 7]."""
    if x > 7.0:
        return _airy_decaying(x, _MATH)
    if x < -7.0:
        return _airy_oscillating(x, _MATH)
    return _airy_taylor(x, _MATH)


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


def _airy_node(x):
    """(x0, Ai(x0), Ai'(x0)) at the node nearest x, |x| <= 7 (the first
    node for NaN)."""
    k = int((x + 7.0) * 8.0 + 0.5) if x == x else 0
    return (k * 0.125 - 7.0, *_AIRY_NODES[k])


def _airy_node_array(x):
    """_airy_node over an array (the last node for NaN: fmin takes the
    bound over a NaN, so the cast to an index sees none)."""
    k = np.fmin((x + 7.0) * 8.0 + 0.5, 112.0).astype(np.intp)
    ai, aip = _AIRY_NODE_ARRAY[:, k]
    return k * 0.125 - 7.0, ai, aip


def _airy_taylor(x, xp):
    """(Ai(x), Ai'(x)) for |x| <= 7 (and NaN, which gives NaN): the Taylor
    series about the nearest node x0, |x - x0| <= 1/16 (DLMF 3.7(ii)).
    Ai'' = x Ai gives its coefficients from a_0, a_1 = Ai(x0), Ai'(x0) by
    a_k = (x0 a_(k-2) + a_(k-3)) / (k (k - 1)); Horner's rule sums
    a_0..a_AIRY_ORDER, and the derivative alongside."""
    x0, a0, a1 = xp.airy_node(x)
    a = [a0, a1, x0 * a0 / 2.0]
    for k in range(3, AIRY_ORDER + 1):
        a.append((x0 * a[k - 2] + a[k - 3]) / (k * (k - 1.0)))
    h = x - x0
    ai = a[AIRY_ORDER]
    aip = 0.0
    for k in range(AIRY_ORDER - 1, -1, -1):
        aip = aip * h + ai
        ai = ai * h + a[k]
    return ai, aip


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


# Within TP_WINDOW z_turn of a turning point (zeta, f, f') come from the
# polynomial of _near_turning_point in u = t / z_turn.  Outside it the closed
# forms cancel terms of order 1/t, in the phase and again in f', and lose
# about 5e-16 (z_turn / t)^2 of f': at most 5e-14 at the window's edge.  The
# series converges out to about the other turning point or z = 0, |u| ~ 1;
# at |u| = TP_WINDOW its first neglected term is below 2e-17 of P and of P'
# for nu >= 0.6.
TP_WINDOW = 0.1
TP_TERMS = 20


def _near_turning_point(t, z, d, z_turn, c, sigma):
    """(zeta, f, f') for |t| < TP_WINDOW z_turn.  With u = t / z_turn,
    Q_L = t q, q = sigma (z - c) / (4 z^2) = q0 (1 - alpha u) / (1 - sigma u)^2,
    alpha = z_turn / 2d and q0 = d / (2 z_turn^2), (2/3) zeta^(3/2) =
    int_0^t sqrt(Q_L) gives zeta = t q0^(1/3) P(u)^(2/3) with the series
    P = 3/2 sum_k S_k u^k / (k + 3/2), sqrt(q / q0) = sum_k S_k u^k; then
    f = (zeta / Q_L)^(1/4) and f'/f = -sigma P' / (6 z_turn P) - (1/(z - c)
    - 2/z) / 4.  Only P and P' are summed; q is evaluated as it stands, and
    nothing cancels."""
    alpha = z_turn / (2.0 * d)
    # S_k: the binomial coefficients b_k of (1 - alpha u)^(1/2) times the
    # geometric series of 1 / (1 - sigma u)
    b = s = 1.0
    coef = [1.0]
    for k in range(1, TP_TERMS):
        b *= alpha * (k - 1.5) / k
        s = sigma * s + b
        coef.append(1.5 * s / (k + 1.5))
    u = t / z_turn
    p = coef[-1]
    pp = 0.0
    for k in range(TP_TERMS - 2, -1, -1):
        pp = pp * u + p
        p = p * u + coef[k]
    g = (d / (2.0 * z_turn * z_turn)) ** (1.0 / 3.0) * p ** (2.0 / 3.0)
    f = (g * 4.0 * z * z / (sigma * (z - c))) ** 0.25
    return t * g, f, f * (-sigma * pp / (6.0 * z_turn * p) - 0.25 * (1.0 / (z - c) - 2.0 / z))


def _airy_form(zeta, f, fp, sigma, norm, xp):
    """norm (f Ai(-zeta), f' Ai(-zeta) + sigma Ai'(-zeta) / f)."""
    ai, aip = xp.airy(-zeta)
    return norm * f * ai, norm * (fp * ai + sigma * aip / f)


def _amplitude(z, nu, outer):
    """(zeta, f, f', sigma, norm) at z for the Airy form about z_out or z_in."""
    t, d, z_out, z_turn, c, sigma, norm = _turning_point(z, nu, outer)
    if abs(t) < TP_WINDOW * z_turn:
        return (*_near_turning_point(t, z, d, z_turn, c, sigma), sigma, norm)
    return (*_langer_amplitude(t, z, nu, d, z_out, c, sigma, _MATH), sigma, norm)


def langer_airy(z, nu, outer):
    """Langer-uniform Airy solution f Ai(-zeta) and its z-derivative,
    about z_out (outer=True; decays beyond it) or about z_in (times
    sqrt(pi), so that it tends to Q_L^(-1/4) sin(xi + pi/4) inside).

    Within TP_WINDOW z_turn of the turning point, where the closed forms
    of zeta and f' cancel (f' is 0/0 there), all three come from a series
    in the distance to it (``_near_turning_point``).
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
    ai[mid], aip[mid] = _airy_taylor(x[mid], _NUMPY)
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
    if near.any():
        zeta[near], f[near], fp[near] = _near_turning_point(t[near], z[near], d, z_turn, c, sigma)
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
_MATH = SimpleNamespace(**vars(K._MATH), airy=airy_ai_both, airy_node=_airy_node,
                        phase=langer_phase, langer_airy=langer_airy,
                        langer_regular=langer_regular)
_NUMPY = SimpleNamespace(**vars(K._NUMPY), airy=airy_ai_both_array,
                         airy_node=_airy_node_array, phase=langer_phase_array,
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
