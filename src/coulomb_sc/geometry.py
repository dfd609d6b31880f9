"""Reduction of a position-vector pair to the two Lambert combinations.

The entire fixed-energy Kepler/Coulomb problem depends on the endpoints
only through alpha_plus = r + r' + s and alpha_minus = r + r' - s, where s
is the chord length.  This module computes those, classifies the point
against the caustic, and gives the anomaly angles of an allowed pair; the
record every per-point evaluator returns, ``FieldSample``, lives here too.
Every per-point evaluator refuses through its helpers: ``refuse_point``
(source point, focal line), ``refuse_region`` (a side of the caustic the
form does not take) and ``refuse_overflow`` (a value that overflows).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from .errors import (DimensionMismatchError, FocalLineError, ForbiddenRegionError,
                     IllConditionedError, OnCausticError, RegionError)
from .model import EnergySpec, SystemParams, check_bound_interaction, record


class LambertPair(NamedTuple):
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


#: the Region of each ``_kernels`` REGION_* code: the members are in code order
REGIONS = tuple(Region)


class RegionClass(NamedTuple):
    """Classification against the caustic plus a signed distance.

    For E < 0 attractive, margin = (4a - alpha_plus) / 4a: positive in the
    allowed region, negative in the tunnel.  For E > 0 repulsive the
    analogous (alpha_minus - 4|a|) / 4|a| is reported; E > 0 attractive has
    no caustic and margin = +inf.
    """

    tag: Region
    margin: float


class FieldSample(NamedTuple):
    """One Green-function value tagged with its provenance."""

    r: tuple
    rp: tuple
    E: float
    method: str  # 'SC' | 'UA' | 'QM'
    value: complex
    region: RegionClass


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
    return x, xp, record(LambertPair, (r, rp, s, ap, r + rp - s))


def lambert_variables(r_vec, rp_vec, params: SystemParams | None = None) -> LambertPair:
    """Lambert combinations for two position vectors (force center at origin)."""
    return endpoint_lists(r_vec, rp_vec, params)[2]


def refuse_point(status: int):
    """Raise the per-point exception of the two points no per-point
    evaluator takes, by their ``_kernels.region_status`` status: the
    source point (RegionError) and the focal line (FocalLineError)."""
    if status == K.STATUS_SOURCE:
        raise RegionError("coincident endpoints: Green function source singularity")
    if status == K.STATUS_FOCAL:
        raise FocalLineError("endpoints collinear through the force center (alpha_minus = 0)")


def refuse_overflow(field: str):
    """Decorator of a per-point API whose value, the result's ``field``,
    grows without bound as the endpoints close in (s -> 0).  Where it
    overflows, raising OverflowError or coming out not finite, the call
    raises IllConditionedError instead."""
    def decorate(api):
        @functools.wraps(api)
        def refusing(*args, **kwargs):
            try:
                out = api(*args, **kwargs)
            except OverflowError as exc:
                raise IllConditionedError(f"{api.__name__}: {field} overflows "
                                          "(endpoints a tiny distance apart)") from exc
            value = getattr(out, field)
            if not cmath.isfinite(value):
                raise IllConditionedError(f"{api.__name__}: {field} = {value} is not finite "
                                          "(endpoints a tiny distance apart)")
            return out
        return refusing
    return decorate


#: the REGION_* codes a form takes: finite at the caustic on its allowed
#: or forbidden side (the band included), divergent there, or beyond only
ALLOWED_SIDE = (K.REGION_ALLOWED, K.REGION_CAUSTIC)
FORBIDDEN_SIDE = (K.REGION_CAUSTIC, K.REGION_FORBIDDEN)
ALLOWED_ONLY = (K.REGION_ALLOWED,)
FORBIDDEN_ONLY = (K.REGION_FORBIDDEN,)
#: the exception and the place of each REGION_* code, in code order
_REFUSALS = ((RegionError, "on the allowed side of the caustic"),
             (OnCausticError, "on the caustic"),
             (ForbiddenRegionError, "beyond the caustic"))


def refuse_region(region: int, accepts: tuple, hint: str, alpha: float | None = None):
    """Raise the exception of a ``_kernels.caustic_region`` code a form does
    not take: RegionError on the allowed side, OnCausticError in the band,
    ForbiddenRegionError beyond.  A per-alpha form also passes its alpha,
    which the message names and which must be >= 0 (RegionError)."""
    if region not in accepts:
        exc, where = _REFUSALS[region]
        what = "endpoint pair" if alpha is None else f"alpha = {alpha}"
        raise exc(f"{what} lies {where}; {hint}")
    if alpha is not None and alpha < 0.0:
        raise RegionError(f"alpha = {alpha} is negative")


def barrier_region(alpha: float, four_a: float) -> int:
    """The caustic_region code about the repulsive (E > 0) turning point
    alpha = 4|a|, whose allowed side lies beyond it: REGION_FORBIDDEN - code
    swaps the codes of the two sides and keeps the band's."""
    return K.REGION_FORBIDDEN - K.caustic_region(alpha, four_a)


def bound_class(code: int, pair: LambertPair, four_a: float) -> RegionClass:
    """The RegionClass of a pair for E < 0 attractive from its
    ``_kernels`` REGION_* code; four_a = 4a."""
    return record(RegionClass, (REGIONS[code], (four_a - pair.alpha_plus) / four_a))


def classify_region(pair: LambertPair, spec: EnergySpec,
                    attractive: bool = True) -> RegionClass:
    """Classify an endpoint pair as Allowed / OnCaustic / Forbidden.

    E < 0 attractive: the caustic is alpha_plus = 4a.
    E > 0 repulsive:  allowed motion needs alpha_minus > 4|a|.
    E > 0 attractive: every point is reachable.
    Both caustics carry the band of ``_kernels.caustic_region``.
    """
    four_a = 4.0 * spec.a
    if spec.E < 0.0:
        check_bound_interaction(attractive)
        return bound_class(K.caustic_region(pair.alpha_plus, four_a), pair, four_a)
    if attractive:
        return RegionClass(Region.ALLOWED, math.inf)
    return RegionClass(REGIONS[barrier_region(pair.alpha_minus, four_a)],
                       (pair.alpha_minus - four_a) / four_a)


def anomaly_angles(pair: LambertPair, a: float) -> tuple[float, float]:
    """Principal-branch angles with sin^2(gamma/2) = alpha_plus/4a and
    sin^2(delta/2) = alpha_minus/4a, 0 <= delta <= gamma <= pi.

    Defined up to the caustic, its band included (gamma = pi); beyond it
    the action's continuation (actions module) must be used instead.
    """
    refuse_region(K.caustic_region(pair.alpha_plus, 4.0 * a), ALLOWED_SIDE,
                  "no real anomaly angles: use the forbidden-region action continuation")
    return K.gamma_angle(pair.alpha_plus, a), K.gamma_angle(pair.alpha_minus, a)
