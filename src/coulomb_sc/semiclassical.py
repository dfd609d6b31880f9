"""Assembly of the semiclassical energy Green function.

Bound regime (E < 0): the four elementary paths plus all loop repetitions
sum, in closed form, to a two-path interference formula times a cotangent
loop factor whose poles are the exact bound-state energies.  Scattering
(E > 0) is a bare two-path sum.  Classically forbidden points use the
positive-imaginary continuation of the outer action.

Global phase convention: fixed so that G -> -mu / (2 pi hbar^2 s) as
s -> 0 in three dimensions (the free source singularity), which also
matches the exact reference.  All evaluators are pure; grid
scans evaluate the same formulas array-wise (``_kernels.sc_bound_field``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _kernels as K
from .actions import (
    four_paths,
    reduced_action_scatter_attractive,
    round_trip,
    scatter_velocity,
    _scales,
)
from .errors import (
    FocalLineError,
    ForbiddenRegionError,
    OnCausticError,
    PoleError,
    RegionError,
)
from .geometry import (
    LambertPair,
    Region,
    RegionClass,
    classify_region,
    endpoint_lists,
    lambert_variables,
)
from .model import EnergySpec, SystemParams
from .vvpm import vvpm_det

#: guard band around integer k inside which bound evaluators refuse to run
POLE_GUARD = 1e-9


@dataclass(frozen=True)
class FieldSample:
    """One Green-function value tagged with its provenance."""

    r: tuple
    rp: tuple
    E: float
    method: str  # 'SC' | 'UA' | 'QM'
    value: complex
    region: RegionClass


def loop_factor(w_2pi: float, ndim: int, hbar: float,
                pole_tol: float = 1e-12) -> complex:
    """Closed form of the infinite loop sum:

    1/2 + (i/2) cot[pi (W_2pi/(2 pi hbar) - m_2pi/4)],  m_2pi = 2(n-1).

    Poles at nonnegative-integer argument are the bound states; arguments
    within ``pole_tol`` of an integer raise PoleError carrying it.
    """
    if w_2pi <= 0.0:
        raise ValueError("round-trip action must be positive")
    x = w_2pi / (2.0 * math.pi * hbar) - (ndim - 1) / 2.0
    nearest = round(x)
    if abs(x - nearest) < pole_tol:
        raise PoleError(
            f"loop factor pole: quantization argument {x} is an integer", k=int(nearest)
        )
    return 0.5 + 0.5j / math.tan(math.pi * x)


def _check_pole(spec: EnergySpec):
    if abs(spec.k - round(spec.k)) < POLE_GUARD:
        raise PoleError(
            f"energy within the pole guard band of eigenvalue k = {int(round(spec.k))}",
            k=int(round(spec.k)),
            energy=spec.E,
        )


def _merged_prefactor(ndim: int, hbar: float) -> complex:
    """Prefactor of the merged bound two-path form.

    Equals -i^(n-1) / (hbar (2 pi hbar)^((n-1)/2)); real for odd n.  The
    sign is pinned by the free-particle source limit and the exact n = 3
    reference.
    """
    return -(1j ** (ndim - 1)) / (hbar * (2.0 * math.pi * hbar) ** ((ndim - 1) / 2.0))


def _elementary_prefactor(ndim: int, hbar: float) -> complex:
    """(1/i hbar) * (-1) / (-2 pi i hbar)^((n-1)/2), principal branch."""
    return -1.0 / (1j * hbar * (-2j * math.pi * hbar) ** ((ndim - 1) / 2.0))


def sc_constants(spec: EnergySpec, params: SystemParams) -> tuple:
    """(a, k, ndim, mu, hbar, sk, cv, merged prefactor, elementary
    prefactor, loop factor, sin(pi k)): the energy-dependent arguments of
    the bound SC kernels after the three Lambert lengths."""
    sk, cv, _ = _scales(spec, params)
    return (spec.a, spec.k, params.ndim, params.mu, params.hbar, sk, cv,
            _merged_prefactor(params.ndim, params.hbar),
            _elementary_prefactor(params.ndim, params.hbar),
            loop_factor(round_trip(spec, params)[0], params.ndim, params.hbar),
            math.sin(math.pi * spec.k))


def _point_guards(pair: LambertPair, spec: EnergySpec):
    """Refuse the source point and the focal line (``_kernels.region_status``)."""
    _, status = K.region_status(pair.s, pair.alpha_plus, pair.alpha_minus, 4.0 * spec.a)
    if status == K.STATUS_SOURCE:
        raise RegionError("coincident endpoints: Green function source singularity")
    if status == K.STATUS_FOCAL:
        raise FocalLineError(
            "endpoints collinear through the force center (alpha_minus = 0)"
        )


def _bound_guards(pair: LambertPair, spec: EnergySpec, params: SystemParams):
    if spec.E >= 0.0:
        raise ValueError("bound-state evaluator requires E < 0")
    if not params.attractive:
        raise ValueError("bound states require an attractive interaction")
    _check_pole(spec)
    _point_guards(pair, spec)


def _green_sc(r_vec, rp_vec, spec: EnergySpec, params: SystemParams,
              forbidden: bool) -> FieldSample:
    """Bound SC value at one endpoint pair, which must lie beyond the
    caustic if ``forbidden`` and inside it otherwise."""
    x, xp, pair = endpoint_lists(r_vec, rp_vec, params)
    _bound_guards(pair, spec, params)
    region = classify_region(pair, spec, params.attractive)
    if forbidden:
        if region.tag is not Region.FORBIDDEN:
            raise RegionError("green_sc_tunnel requires a point beyond the caustic")
    elif region.tag is Region.ON_CAUSTIC:
        raise OnCausticError("on the caustic: use green_uniform")
    elif region.tag is Region.FORBIDDEN:
        raise ForbiddenRegionError("beyond the caustic: use green_sc_tunnel")

    val, _, status = K.sc_bound_point(pair.s, pair.alpha_plus, pair.alpha_minus,
                                      *sc_constants(spec, params))
    if status == K.STATUS_CAUSTIC:
        raise OnCausticError("inner leg on its turning point alpha_minus = 4a")
    if status != K.STATUS_OK:
        raise RegionError(f"point evaluation failed with status {status}")
    return FieldSample(tuple(x), tuple(xp), spec.E, "SC", val, region)


def green_sc_bound(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Semiclassical bound-state Green function at one endpoint pair
    (classically allowed region).

    Real for odd n; even n carries the principal-branch complex prefactor.
    """
    return _green_sc(r_vec, rp_vec, spec, params, False)


def green_sc_tunnel(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Continuation of the bound Green function past the caustic.

    The outer action takes the positive-imaginary branch, so the value
    decays exponentially with tunnel depth; the inner (allowed) leg is
    unchanged, and the loop factor still carries the bound-state poles.
    Raises OnCausticError where the inner leg reaches its own turning
    point, alpha_minus = 4a.
    """
    return _green_sc(r_vec, rp_vec, spec, params, True)


# --- explicit loop summation (diagnostic / factorization check) -------------

def _four_path_terms(r_vec, rp_vec, spec, params, k_c: complex):
    """Amplitudes, actions (with the complex round trip) and Morse indices
    of the four elementary paths, recomputing the determinant per path."""
    pair = lambert_variables(r_vec, rp_vec, params)
    _bound_guards(pair, spec, params)
    region = classify_region(pair, spec, params.attractive)
    if region.tag is not Region.ALLOWED:
        raise RegionError("explicit loop sum implemented for the allowed region")
    paths = four_paths(pair, spec, params)
    w2pi_c = 2.0 * math.pi * params.hbar * (k_c + (params.ndim - 1) / 2.0)
    w1 = paths[0].W
    w2 = paths[1].W
    ws = (w1, w2, w2pi_c - w1, w2pi_c - w2)
    amps = tuple(math.sqrt(abs(vvpm_det(i, pair, spec, params).D)) for i in PATHS)
    morse = tuple(p.morse for p in paths)
    return amps, ws, morse, w2pi_c


PATHS = (1, 2, 3, 4)


def green_sc_bound_sum(r_vec, rp_vec, spec: EnergySpec, params: SystemParams,
                       j_max: int, eta: float) -> complex:
    """Truncated explicit four-path x loop double sum, evaluated at the
    damped quantum number k + i eta (every term computed independently).

    Converges to the closed product form as j_max grows; the damping makes
    the loop series geometric with ratio |exp(2 pi i (k + i eta))| < 1.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    k_c = spec.k + 1j * eta
    amps, ws, morse, w2pi_c = _four_path_terms(r_vec, rp_vec, spec, params, k_c)
    hbar = params.hbar
    m2pi = 2 * (params.ndim - 1)
    total = 0.0j
    for j in range(j_max + 1):
        for i in range(4):
            w = ws[i] + j * w2pi_c
            m = morse[i] + j * m2pi
            total += amps[i] * cmath.exp(1j * w / hbar - 0.5j * math.pi * m)
    return _elementary_prefactor(params.ndim, hbar) * total


def green_sc_bound_product(r_vec, rp_vec, spec: EnergySpec, params: SystemParams,
                           j_max: int | None, eta: float) -> complex:
    """Factorized form of the same sum: elementary four-path Green function
    times the closed-form loop factor (truncated geometric sum when j_max
    is given, the full cotangent form when j_max is None)."""
    k_c = spec.k + 1j * eta
    amps, ws, morse, _ = _four_path_terms(r_vec, rp_vec, spec, params, k_c)
    hbar = params.hbar
    elem = 0.0j
    for i in range(4):
        elem += amps[i] * cmath.exp(1j * ws[i] / hbar - 0.5j * math.pi * morse[i])
    q = cmath.exp(2j * math.pi * k_c)
    if j_max is None:
        p = 1.0 / (1.0 - q)
    else:
        p = (1.0 - q ** (j_max + 1)) / (1.0 - q)
    return _elementary_prefactor(params.ndim, hbar) * elem * p


# --- scattering (E > 0) ------------------------------------------------------

def _scatter_prefactor(ndim: int, hbar: float) -> complex:
    return -1j / (hbar * (2j * math.pi * hbar) ** ((ndim - 1) / 2.0))


def green_sc_scatter_attractive(r_vec, rp_vec, spec: EnergySpec,
                                params: SystemParams) -> FieldSample:
    """Two-hyperbola scattering Green function for E > 0, attractive case
    (no caustic; every point is classically reachable)."""
    if spec.E <= 0.0:
        raise ValueError("green_sc_scatter_attractive requires E > 0")
    x, xp, pair = endpoint_lists(r_vec, rp_vec, params)
    _point_guards(pair, spec)
    n = params.ndim
    hbar = params.hbar
    wp = reduced_action_scatter_attractive(pair.alpha_plus, spec, params)
    wm = reduced_action_scatter_attractive(pair.alpha_minus, spec, params)
    vp = scatter_velocity(pair.alpha_plus, spec, params)
    vm = scatter_velocity(pair.alpha_minus, spec, params)
    den = math.sqrt(vp * vm)
    sd1 = (params.mu * (vp + vm) / (2.0 * pair.s)) ** ((n - 1) / 2.0) / den
    sd2 = (params.mu * (vm - vp) / (2.0 * pair.s)) ** ((n - 1) / 2.0) / den
    val = _scatter_prefactor(n, hbar) * (
        sd1 * cmath.exp(1j * (wp - wm) / hbar)
        + sd2 * cmath.exp(1j * (wp + wm) / hbar - 0.5j * math.pi * (n - 2))
    )
    region = classify_region(pair, spec, attractive=True)
    return FieldSample(tuple(x), tuple(xp), spec.E, "SC", val, region)
