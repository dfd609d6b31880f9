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
All phase integrals are elementary closed forms; see ``_kernels``.

The result is finite and smooth across the caustic, reduces to the
primitive semiclassical value deep in the allowed region and to the
tunnelling continuation deep in the forbidden one.  The classical Airy
variable of the leading-order two-saddle form, reported by
``uniform_inputs``, serves as the caustic coordinate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _kernels as K
from .actions import round_trip
from .errors import IllConditionedError, RegionError, UnsupportedDimensionError
from .geometry import bound_class, endpoint_lists, lambert_variables, refuse_point
from .model import EnergySpec, SystemParams, bound_regime, check_pole
from .semiclassical import FieldSample


def airy_ai(x: float) -> float:
    """Airy function of the first kind (real argument).

    Maclaurin series for |x| <= 7, large-argument expansions beyond;
    absolute error below 1e-10 everywhere on the real line.
    """
    return K.airy_ai_both(float(x))[0]


def airy_ai_prime(x: float) -> float:
    """Derivative of the Airy function of the first kind."""
    return K.airy_ai_both(float(x))[1]


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
    w2pi, _ = round_trip(spec, params)
    hbar, a = params.hbar, spec.a
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


def green_uniform(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Langer-uniform bound-state Green function (n = 3).

    Finite and smooth across the caustic; merges with the primitive
    semiclassical value away from it on either side.  A value that
    overflows (endpoints a tiny distance apart) raises IllConditionedError.
    """
    args = ua_constants(spec, params)
    x, xp, pair = endpoint_lists(r_vec, rp_vec, params)
    val, region, status = K.ua_point(pair.s, pair.alpha_plus, pair.alpha_minus, *args)
    refuse_point(status)
    if status == K.STATUS_UNSUPPORTED:
        # kappa alpha_- >= 0.999 z_out > 2 nu = 2 kappa a, or kappa alpha_+ <= z_in < 2 nu
        raise RegionError("no uniform value: " + (
            "the inner leg is at or past its turning point (doubly forbidden)"
            if pair.alpha_minus > 2.0 * spec.a
            else "both legs lie inside the inner turning point z_in"))
    if not math.isfinite(val.real):
        raise IllConditionedError(f"UA value {val.real} is not finite at s = {pair.s}")
    return FieldSample(tuple(x), tuple(xp), spec.E, "UA", val,
                       bound_class(region, pair, 4.0 * spec.a))
