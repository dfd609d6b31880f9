"""Reduction of a position-vector pair to the two Lambert combinations.

The entire fixed-energy Kepler/Coulomb problem depends on the endpoints
only through alpha_plus = r + r' + s and alpha_minus = r + r' - s, where s
is the chord length.  This module computes those, classifies the point
against the caustic, and provides the anomaly-angle cross-check form of
the reduced action.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import DimensionMismatchError, ForbiddenRegionError
from .model import EnergySpec, SystemParams


@dataclass(frozen=True)
class LambertPair:
    """Geometric reduction of an endpoint pair (all lengths).

    Invariants: alpha_plus = r + rp + s, alpha_minus = r + rp - s,
    alpha_plus >= alpha_minus >= 0, alpha_plus - alpha_minus = 2 s.
    """

    r: float
    rp: float
    s: float
    alpha_plus: float
    alpha_minus: float


class Region(enum.Enum):
    ALLOWED = "Allowed"
    ON_CAUSTIC = "OnCaustic"
    FORBIDDEN = "Forbidden"


@dataclass(frozen=True)
class RegionClass:
    """Classification against the caustic plus a signed distance.

    For E < 0 attractive, margin = (4a - alpha_plus) / 4a: positive in the
    allowed region, negative in the tunnel.  For E > 0 repulsive the
    analogous (alpha_minus - 4|a|) / 4|a| is reported; E > 0 attractive has
    no caustic and margin = +inf.
    """

    tag: Region
    margin: float


def endpoint_lists(r_vec, rp_vec, params: SystemParams | None = None):
    """(r_vec, rp_vec, pair): the endpoints as lists of floats and their
    Lambert combinations.

    The lengths come from math.hypot / math.dist on the lists; NumPy
    norms cost several microseconds more on vectors of 2 to 4
    components.  A non-finite component raises ValueError.
    """
    r_arr = np.asarray(r_vec, dtype=float)
    rp_arr = np.asarray(rp_vec, dtype=float)
    if r_arr.shape != rp_arr.shape or r_arr.ndim != 1:
        raise DimensionMismatchError(
            f"expected two equal-length vectors, got shapes {r_arr.shape} and {rp_arr.shape}"
        )
    if params is not None and r_arr.shape[0] != params.ndim:
        raise DimensionMismatchError(
            f"vectors have dimension {r_arr.shape[0]}, params.ndim = {params.ndim}"
        )
    x = r_arr.tolist()
    xp = rp_arr.tolist()
    r = math.hypot(*x)
    rp = math.hypot(*xp)
    s = math.dist(x, xp)
    ap = r + rp + s
    # a non-finite component makes r or rp inf or NaN, and with it ap
    if not math.isfinite(ap):
        raise ValueError(f"endpoints {x} and {xp} have a non-finite component or length")
    return x, xp, LambertPair(r, rp, s, ap, r + rp - s)


def lambert_variables(r_vec, rp_vec, params: SystemParams | None = None) -> LambertPair:
    """Lambert combinations for two position vectors (force center at origin)."""
    return endpoint_lists(r_vec, rp_vec, params)[2]


_REGION_TAGS = {K.REGION_ALLOWED: Region.ALLOWED, K.REGION_CAUSTIC: Region.ON_CAUSTIC,
                K.REGION_FORBIDDEN: Region.FORBIDDEN}


def classify_region(pair: LambertPair, spec: EnergySpec,
                    attractive: bool = True) -> RegionClass:
    """Classify an endpoint pair as Allowed / OnCaustic / Forbidden.

    E < 0 attractive: the caustic is alpha_plus = 4a, with the kernels'
    region rule (``_kernels.region_status``).
    E > 0 repulsive:  allowed motion needs alpha_minus > 4|a|.
    E > 0 attractive: every point is reachable.
    Both caustics carry the relative band ``_kernels.CAUSTIC_TOL``.
    """
    four_a = 4.0 * spec.a
    if spec.E < 0.0:
        if not attractive:
            raise ValueError("E < 0 with a repulsive interaction has no "
                             "classically allowed region")
        region, _ = K.region_status(pair.s, pair.alpha_plus, pair.alpha_minus, four_a)
        return RegionClass(_REGION_TAGS[region], (four_a - pair.alpha_plus) / four_a)
    if attractive:
        return RegionClass(Region.ALLOWED, math.inf)
    margin = (pair.alpha_minus - four_a) / four_a
    if abs(pair.alpha_minus - four_a) <= K.CAUSTIC_TOL * four_a:
        return RegionClass(Region.ON_CAUSTIC, margin)
    if pair.alpha_minus > four_a:
        return RegionClass(Region.ALLOWED, margin)
    return RegionClass(Region.FORBIDDEN, margin)


def anomaly_angles(pair: LambertPair, a: float) -> tuple[float, float]:
    """Principal-branch angles with sin^2(gamma/2) = alpha_plus/4a and
    sin^2(delta/2) = alpha_minus/4a, 0 <= delta <= gamma <= pi.

    Only defined up to the caustic; beyond it the analytic continuation of
    the action (actions module) must be used instead.
    """
    four_a = 4.0 * a
    if pair.alpha_plus > four_a * (1.0 + 1e-12):
        raise ForbiddenRegionError(
            f"alpha_plus = {pair.alpha_plus} exceeds 4a = {four_a}: no real anomaly "
            "angles; use the forbidden-region action continuation"
        )
    gamma = 2.0 * math.asin(min(1.0, math.sqrt(pair.alpha_plus / four_a)))
    delta = 2.0 * math.asin(min(1.0, math.sqrt(pair.alpha_minus / four_a)))
    return gamma, delta


def action_via_anomalies(gamma: float, delta: float, a: float,
                         params: SystemParams) -> float:
    """Reduced action of the direct path in anomaly-angle form:

    W = sqrt(mu a Kc) (gamma + sin gamma - delta - sin delta).

    Equals W_+(alpha_plus) - W_-(alpha_minus) on the allowed side; used as
    an independent cross-check of the one-dimensional closed forms.
    """
    return math.sqrt(params.mu * a * params.Kc) * (
        gamma + math.sin(gamma) - delta - math.sin(delta)
    )
