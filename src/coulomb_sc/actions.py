"""Closed-form reduced actions, travel times and velocities for every
energy regime, plus the four-elementary-path table for bound motion.

Production code never integrates: all values come from the closed forms.
The defining integrals exist only as quadrature oracles in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _kernels as K
from .errors import RegionError
from .geometry import (ALLOWED_SIDE, FORBIDDEN_SIDE, LambertPair, barrier_region,
                       refuse_region)
from .model import EnergySpec, SystemParams, bound_regime, scattering_regime
from .vvpm import _morse_bases


class BasicActions(NamedTuple):
    """The one-dimensional building blocks at a given endpoint pair.

    w_plus/w_minus and t_plus/t_minus are the half actions/times evaluated
    at alpha_plus and alpha_minus; w_2pi/t_2pi belong to the closed orbit.
    All real in the allowed bound regime.
    """

    w_plus: complex
    w_minus: complex
    t_plus: float
    t_minus: float
    w_2pi: float
    t_2pi: float


class PathQuantity(NamedTuple):
    """Reduced action, travel time, Morse index and loop count of one
    elementary path (path_id 1..4)."""

    path_id: int
    W: float
    T: float
    morse: int
    loops: int


def velocity(alpha: float, spec: EnergySpec, params: SystemParams) -> float:
    """Collinear speed at path coordinate alpha/2, bound allowed regime.

    v = sqrt(2|E|/mu) sqrt((4a - alpha)/alpha); diverges at the force
    center (alpha -> 0) and vanishes at the turning point alpha = 4a.
    """
    _, cv, _ = bound_regime(spec, params)
    if alpha <= 0.0:
        raise RegionError("velocity diverges at the force center (alpha = 0)")
    if alpha >= 4.0 * spec.a:
        raise RegionError(
            f"alpha = {alpha} is at/beyond the turning point 4a = {4.0 * spec.a}"
        )
    return K.v_bound(alpha, spec.a, cv)


def reduced_action_bound(alpha: float, spec: EnergySpec, params: SystemParams) -> float:
    """Half-action W(alpha) for bound motion, 0 <= alpha <= 4a (endpoint as limit)."""
    sk, _, _ = bound_regime(spec, params)
    refuse_region(K.caustic_region(alpha, 4.0 * spec.a), ALLOWED_SIDE,
                  "use reduced_action_bound_forbidden", alpha)
    return K.w_bound(alpha, spec.a, sk)


def travel_time_bound(alpha: float, spec: EnergySpec, params: SystemParams) -> float:
    """Half travel time t(alpha) for bound motion; t = dW/dE at fixed alpha."""
    _, _, ts = bound_regime(spec, params)
    refuse_region(K.caustic_region(alpha, 4.0 * spec.a), ALLOWED_SIDE,
                  "the bound travel time ends at the caustic", alpha)
    g = K.gamma_angle(alpha, spec.a)
    return ts * (g - math.sin(g))


def round_trip(spec: EnergySpec, params: SystemParams) -> tuple[float, float]:
    """(W_2pi, T_2pi) = (2 pi sk a, 2 pi ts) = (2 pi sqrt(mu a Kc),
    2 pi sqrt(mu a^3 / Kc)) for E < 0, from ``bound_regime``'s scales."""
    sk, _, ts = bound_regime(spec, params)
    return 2.0 * math.pi * sk * spec.a, 2.0 * math.pi * ts


def _bound_legs(pair: LambertPair, spec: EnergySpec, params: SystemParams):
    """(BasicActions, sk, ts, gamma_plus) of a bound pair on the allowed
    side or in the caustic band: the scales, the round trip and the
    anomaly angles behind basic_actions and four_paths, each computed once.
    An alpha_minus that rounding puts in the focal band below 0,
    [-FOCAL_TOL alpha_plus, 0), is read as 0 (gamma_angle does)."""
    sk, _, ts = bound_regime(spec, params)
    a = spec.a
    refuse_region(K.caustic_region(pair.alpha_plus, 4.0 * a), ALLOWED_SIDE,
                  "use the forbidden-region forms")
    if pair.alpha_minus < -K.FOCAL_TOL * pair.alpha_plus:
        raise RegionError(f"alpha = {pair.alpha_minus} is negative")
    gp = K.gamma_angle(pair.alpha_plus, a)
    gm = K.gamma_angle(pair.alpha_minus, a)
    sin_p, sin_m = math.sin(gp), math.sin(gm)
    b = BasicActions(sk * a * (gp + sin_p), sk * a * (gm + sin_m),
                     ts * (gp - sin_p), ts * (gm - sin_m),
                     2.0 * math.pi * sk * a, 2.0 * math.pi * ts)
    return b, sk, ts, gp


def basic_actions(pair: LambertPair, spec: EnergySpec, params: SystemParams) -> BasicActions:
    """One-dimensional building blocks for a bound allowed endpoint pair."""
    return _bound_legs(pair, spec, params)[0]


def four_paths(pair: LambertPair, spec: EnergySpec, params: SystemParams) -> list[PathQuantity]:
    """The four elementary paths between the projected endpoints.

    1: direct                      W1 = W+ - W-          T1 = t+ - t-
    2: reflected at the center     W2 = W+ + W-          T2 = t+ + t-
    3: reflected at center+caustic W3 = W_2pi - W1       T3 = T_2pi - T1
    4: reflected at the caustic    W4 = W_2pi - W2       T4 = T_2pi - T2

    Every row satisfies T = dW/dE.  Morse indices from _morse_bases; adding
    a loop adds (W_2pi, T_2pi) and 2(n-1) to the index.

    Path 1 is taken from the angle difference d = gamma_+ - gamma_-,

        sin(d/2) = (2s/4a) / (sqrt(x+ (1 - x-)) + sqrt(x- (1 - x+))),

    x+- = alpha_+-/4a, and sin gamma_+ - sin gamma_- = 2 cos(gamma_+ - d/2)
    sin(d/2), so W1 and T1 keep their relative precision as alpha_- ->
    alpha_+, where W+ - W- and t+ - t- would cancel.
    """
    b, sk, ts, gp = _bound_legs(pair, spec, params)
    a = spec.a
    four_a = 4.0 * a
    x_p = min(pair.alpha_plus / four_a, 1.0)
    x_m = min(max(pair.alpha_minus, 0.0) / four_a, 1.0)
    den = math.sqrt(x_p * (1.0 - x_m)) + math.sqrt(x_m * (1.0 - x_p))
    # den = 0 only where both angles are 0 or both pi (then d = 0)
    d = 2.0 * math.asin(min(1.0, 2.0 * pair.s / four_a / den)) if den > 0.0 else 0.0
    sin_diff = 2.0 * math.cos(gp - 0.5 * d) * math.sin(0.5 * d)
    w1, t1 = sk * a * (d + sin_diff), ts * (d - sin_diff)
    w2, t2 = b.w_plus + b.w_minus, b.t_plus + b.t_minus
    m1, m2, m3, m4 = _morse_bases(params.ndim)
    return [
        PathQuantity(1, w1, t1, m1, 0),
        PathQuantity(2, w2, t2, m2, 0),
        PathQuantity(3, b.w_2pi - w1, b.t_2pi - t1, m3, 0),
        PathQuantity(4, b.w_2pi - w2, b.t_2pi - t2, m4, 0),
    ]


def loop_variant(pq: PathQuantity, j: int, spec: EnergySpec,
                 params: SystemParams) -> PathQuantity:
    """The same elementary path with j extra full loops attached."""
    if j < 0:
        raise ValueError("loop count must be nonnegative")
    w2pi, t2pi = round_trip(spec, params)
    return pq._replace(
        W=pq.W + j * w2pi,
        T=pq.T + j * t2pi,
        morse=pq.morse + j * 2 * (params.ndim - 1),
        loops=pq.loops + j,
    )


# --- scattering (E > 0) ----------------------------------------------------

def scatter_velocity(alpha: float, spec: EnergySpec, params: SystemParams) -> float:
    """Collinear speed for attractive unbounded motion (E > 0)."""
    _, cv, _ = scattering_regime(spec, params)
    if alpha <= 0.0:
        raise RegionError("alpha must be positive")
    return cv * math.sqrt((4.0 * spec.a + alpha) / alpha)


def reduced_action_scatter_attractive(alpha: float, spec: EnergySpec,
                                      params: SystemParams) -> float:
    """Half-action for E > 0 attractive motion, anchored at alpha = 0;
    monotone increasing, ~ sqrt(2 mu E) alpha / 2 for large alpha."""
    sk, _, _ = scattering_regime(spec, params)
    if alpha < 0.0:
        raise RegionError("alpha must be nonnegative")
    if alpha == 0.0:
        return 0.0
    a = spec.a
    return sk * (0.5 * math.sqrt((4.0 * a + alpha) * alpha)
                 + 2.0 * a * math.asinh(math.sqrt(alpha / (4.0 * a))))


def reduced_action_scatter_repulsive(alpha: float, spec: EnergySpec,
                                     params: SystemParams) -> float:
    """Half-action for E > 0 repulsive motion on the allowed side
    alpha >= 4|a|, its band included; vanishes at the turning point."""
    sk, _, _ = scattering_regime(spec, params)
    refuse_region(barrier_region(alpha, 4.0 * spec.a), ALLOWED_SIDE,
                  "use reduced_action_repulsive_forbidden in the repulsive barrier", alpha)
    return K.w_bound_forbidden_im(alpha, spec.a, sk)


def reduced_action_repulsive_forbidden(alpha_minus: float, spec: EnergySpec,
                                       params: SystemParams) -> tuple[complex, complex]:
    """Purely imaginary half-action inside the repulsive barrier
    (0 <= alpha_minus <= 4|a|, its band included); its magnitude vanishes
    at the turning point alpha_minus = 4|a| and reaches pi |a| sqrt(2 mu E)
    at alpha_minus = 0.

    Both analytic-continuation branches are returned, the decaying
    (positive-imaginary) one first; the caller selects.
    """
    sk, _, _ = scattering_regime(spec, params)
    a = spec.a
    four_a = 4.0 * a
    refuse_region(barrier_region(alpha_minus, four_a), FORBIDDEN_SIDE,
                  "use reduced_action_scatter_repulsive", alpha_minus)
    alpha = min(alpha_minus, four_a)
    g = K.gamma_angle(alpha, a)  # 2 asin(sqrt(alpha/4|a|))
    mag = sk * a * (math.pi - g) - sk * 0.5 * math.sqrt((four_a - alpha) * alpha)
    return complex(0.0, mag), complex(0.0, -mag)


def reduced_action_bound_forbidden(alpha_plus: float, spec: EnergySpec,
                                   params: SystemParams) -> tuple[complex, complex]:
    """W_+ continued past the caustic (E < 0, alpha_plus > 4a).

    The real part is the alpha-independent half-loop action pi a sqrt(2mu|E|);
    the imaginary part grows with tunnel depth.  Returned as (preferred,
    conjugate) where the preferred branch has positive imaginary part, which
    makes exp(i W/hbar) decay deep in the tunnel.  The tunnelling SC
    (``green_sc_tunnel``) takes the preferred branch; the Langer uniform
    approximation uses neither, since it continues the Whittaker
    functions, not the actions.  The caustic band is taken: up to
    alpha_plus = 4a the imaginary part is 0.
    """
    sk, _, _ = bound_regime(spec, params)
    refuse_region(K.caustic_region(alpha_plus, 4.0 * spec.a), FORBIDDEN_SIDE,
                  "use reduced_action_bound", alpha_plus)
    re = math.pi * spec.a * sk
    im = K.w_bound_forbidden_im(alpha_plus, spec.a, sk)
    return complex(re, im), complex(re, -im)
