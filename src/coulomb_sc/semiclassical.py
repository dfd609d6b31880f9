"""Assembly of the semiclassical energy Green function.

Bound regime (E < 0): the four elementary paths plus all loop repetitions
sum, in closed form, to a two-path interference formula times a cotangent
loop factor whose poles are the exact bound-state energies.  Every point
then takes one prefactor and one real closed form,
``pref_merged * B / sin(pi k)`` (``_kernels.sc_bound_point``): the merged
interference bracket where the point is classically allowed; beyond the
caustic the outer action's positive-imaginary continuation, decaying like
e^(-Im W_+/hbar), against the inner leg, itself continued past its turning
point where it is forbidden too.  Scattering (E > 0) is a bare two-path sum.

Global phase convention: fixed so that G -> -mu / (2 pi hbar^2 s) as
s -> 0 in three dimensions (the free source singularity), which also
matches the exact reference.  All evaluators are pure; grid
scans evaluate the same formulas array-wise (``_kernels.sc_bound_field``).
A value that overflows (endpoints a tiny distance apart) raises
IllConditionedError (``geometry.refuse_overflow``).  The scattering form
imports ``actions`` when called, so that an SC scan does not load it.
"""

from __future__ import annotations

import cmath
import functools
import math

from . import _kernels as K
from .errors import OnCausticError, PoleError
from .geometry import (
    ALLOWED_ONLY,
    FORBIDDEN_ONLY,
    FieldSample,  # re-exported: coulomb_sc.semiclassical.FieldSample
    bound_class,
    classify_region,
    endpoint_lists,
    refuse_overflow,
    refuse_point,
    refuse_region,
)
from .model import (POLE_GUARD, EnergySpec, SystemParams, bound_regime, check_pole,
                    record, scattering_regime)


def loop_factor(w_2pi: float, ndim: int, hbar: float) -> complex:
    """Closed form of the infinite loop sum:

    1/2 + (i/2) cot[pi (W_2pi/(2 pi hbar) - m_2pi/4)],  m_2pi = 2(n-1).

    Poles at nonnegative-integer argument are the bound states; arguments
    within ``model.POLE_GUARD`` of an integer raise PoleError carrying it.
    """
    if w_2pi <= 0.0:
        raise ValueError("round-trip action must be positive")
    x = w_2pi / (2.0 * math.pi * hbar) - (ndim - 1) / 2.0
    nearest = round(x)
    if abs(x - nearest) < POLE_GUARD:
        raise PoleError(
            f"loop factor pole: quantization argument {x} is an integer", k=int(nearest)
        )
    return 0.5 + 0.5j / math.tan(math.pi * x)


# the complex powers depend on (ndim, hbar) only; typed, so that ndim = 3
# and 3.0 keep their own values
@functools.lru_cache(maxsize=64, typed=True)
def _merged_prefactor(ndim: int, hbar: float) -> complex:
    """Prefactor of the merged bound two-path form.

    Equals -i^(n-1) / (hbar (2 pi hbar)^((n-1)/2)); real for odd n.  The
    sign is pinned by the free-particle source limit and the exact n = 3
    reference.
    """
    return -(1j ** (ndim - 1)) / (hbar * (2.0 * math.pi * hbar) ** ((ndim - 1) / 2.0))


def sc_constants(spec: EnergySpec, params: SystemParams) -> tuple:
    """(a, k, ndim, mu, hbar, sk, cv, merged prefactor, sin(pi k)): the
    energy-dependent arguments of the bound SC kernels after the three
    Lambert lengths.  Refuses what ``bound_regime`` refuses and pole
    energies (``check_pole``)."""
    sk, cv, _ = bound_regime(spec, params)
    check_pole(spec)
    return (spec.a, spec.k, params.ndim, params.mu, params.hbar, sk, cv,
            _merged_prefactor(params.ndim, params.hbar), math.sin(math.pi * spec.k))


def _green_sc(r_vec, rp_vec, spec: EnergySpec, params: SystemParams,
              accepts: tuple, hint: str) -> FieldSample:
    """Bound SC value at one endpoint pair, which must lie in a caustic
    region the form ``accepts`` (``refuse_region``); region and status
    are the kernel's."""
    x, xp, pair = endpoint_lists(r_vec, rp_vec, params)
    args = sc_constants(spec, params)
    val, region, status = K.sc_bound_point(pair.s, pair.alpha_plus, pair.alpha_minus, *args)
    refuse_point(status)
    refuse_region(region, accepts, hint)
    if status == K.STATUS_CAUSTIC:
        raise OnCausticError("inner leg on its turning point alpha_minus = 4a")
    return record(FieldSample, (tuple(x), tuple(xp), spec.E, "SC", val,
                                bound_class(region, pair, 4.0 * spec.a)))


@refuse_overflow("value")
def green_sc_bound(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Semiclassical bound-state Green function at one endpoint pair
    (classically allowed region).

    Real for odd n; even n carries the principal-branch complex prefactor.
    """
    return _green_sc(r_vec, rp_vec, spec, params, ALLOWED_ONLY,
                     "use green_uniform on the caustic, green_sc_tunnel beyond it")


@refuse_overflow("value")
def green_sc_tunnel(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Continuation of the bound Green function past the caustic.

    The outer action takes the positive-imaginary branch, so the value
    decays exponentially with tunnel depth; an allowed inner leg is
    unchanged, a forbidden one (alpha_minus > 4a) is continued past its
    turning point, and 1/sin(pi k) still carries the bound-state poles.
    Real for odd n.  Raises OnCausticError where the inner leg reaches its
    own turning point, alpha_minus = 4a.
    """
    return _green_sc(r_vec, rp_vec, spec, params, FORBIDDEN_ONLY,
                     "green_sc_tunnel requires a point beyond the caustic")


# --- scattering (E > 0) ------------------------------------------------------

@refuse_overflow("value")
def green_sc_scatter_attractive(r_vec, rp_vec, spec: EnergySpec,
                                params: SystemParams) -> FieldSample:
    """Two-hyperbola scattering Green function for E > 0, attractive case
    (no caustic; every point is classically reachable)."""
    from .actions import reduced_action_scatter_attractive, scatter_velocity
    scattering_regime(spec, params)
    x, xp, pair = endpoint_lists(r_vec, rp_vec, params)
    refuse_point(K.region_status(pair.s, pair.alpha_plus, pair.alpha_minus, 4.0 * spec.a)[1])
    n = params.ndim
    hbar = params.hbar
    wp = reduced_action_scatter_attractive(pair.alpha_plus, spec, params)
    wm = reduced_action_scatter_attractive(pair.alpha_minus, spec, params)
    vp = scatter_velocity(pair.alpha_plus, spec, params)
    vm = scatter_velocity(pair.alpha_minus, spec, params)
    den = math.sqrt(vp * vm)
    sd1 = (params.mu * (vp + vm) / (2.0 * pair.s)) ** ((n - 1) / 2.0) / den
    sd2 = (params.mu * (vm - vp) / (2.0 * pair.s)) ** ((n - 1) / 2.0) / den
    val = -1j / (hbar * (2j * math.pi * hbar) ** ((n - 1) / 2.0)) * (
        sd1 * cmath.exp(1j * (wp - wm) / hbar)
        + sd2 * cmath.exp(1j * (wp + wm) / hbar - 0.5j * math.pi * (n - 2))
    )
    region = classify_region(pair, spec, attractive=True)
    return FieldSample(tuple(x), tuple(xp), spec.E, "SC", val, region)
