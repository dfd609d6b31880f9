"""Van Vleck-Pauli-Morette amplitude determinants in closed form and
Morse indices.

The determinant of the (n+1) x (n+1) second-derivative matrix of the
reduced action (with the d^2W/dE^2 entry set to zero, legitimate because
the pure position-position sub-determinant vanishes) factorizes for the
collinear-projected problem into

    D(W) = -(d^2W/d(a+/2)dE) (d^2W/d(a-/2)dE) * F^(n-1),

with one transverse factor F per direction orthogonal to the projected
line.  Closed forms for the four elementary paths follow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _kernels as K
from .geometry import (ALLOWED_ONLY, LambertPair, refuse_overflow, refuse_point,
                       refuse_region)
from .model import EnergySpec, SystemParams, bound_regime, record

PATH_IDS = (1, 2, 3, 4)


class VvpmValue(NamedTuple):
    """Signed determinant for one elementary path.

    Units: (time/length)^2 (mass/time)^(n-1) -- i.e. the product of the two
    mixed action-energy derivatives (each 1/velocity) and n-1 transverse
    factors mu*v/(2s).  F is the per-direction transverse factor used.

    Signs for the reflected paths follow the path-table convention
    D3 = -D1, D4 = -D2.  The propagator consumes only |D| together with the
    Morse phases, so this choice is bookkeeping; the literal determinant of
    the path-3/4 matrix equals +D1/+D2 for odd n (negating a matrix of even
    size leaves its determinant unchanged).
    """

    path_id: int
    D: float
    F: float


def morse_index(path_id: int, ndim: int, loops: int = 0) -> int:
    """Morse index of an elementary path in n dimensions.

    Direct path: 0.  Caustic reflection: 1 (n-independent, simple zero of
    the determinant at the turning point).  Center passage: n-2 (order of
    the determinant pole at the force center).  Both reflections: n-1.
    Each full loop adds 2(n-1).
    """
    if ndim < 2:
        raise ValueError("ndim must be >= 2")
    if loops < 0:
        raise ValueError("loops must be nonnegative")
    if path_id not in PATH_IDS:
        raise ValueError(f"path_id must be in 1..4, got {path_id}")
    return _morse_bases(ndim)[PATH_IDS.index(path_id)] + loops * 2 * (ndim - 1)


def _morse_bases(ndim: int) -> tuple[int, int, int, int]:
    """Morse indices of the four elementary paths (no loops), in path order."""
    return 0, ndim - 2, ndim - 1, 1


@refuse_overflow("D")
def vvpm_det(path_id: int, pair: LambertPair, spec: EnergySpec,
             params: SystemParams) -> VvpmValue:
    """Closed-form determinant for one elementary path (bound allowed regime).

    D1 =  (1/v+v-) [-mu(v+ + v-)/2s]^(n-1) = -D3
    D2 = -(1/v+v-) [-mu(v+ - v-)/2s]^(n-1) = -D4

    Paths 2 and 4 take -mu(v+ - v-)/2s = 4a mu cv^2/(alpha+ alpha- (v+ + v-)),
    free of s and of the difference, so it keeps its digits as s -> 0.  A
    determinant that overflows (paths 1 and 3, endpoints a tiny distance
    apart) raises IllConditionedError.
    """
    if path_id not in PATH_IDS:
        raise ValueError(f"path_id must be in 1..4, got {path_id}")
    _, cv, _ = bound_regime(spec, params)
    four_a = 4.0 * spec.a
    ap, am = pair.alpha_plus, pair.alpha_minus
    region, status = K.region_status(pair.s, ap, am, four_a)
    refuse_region(region, ALLOWED_ONLY, "no finite real determinant: use green_uniform")
    refuse_point(status)

    # the velocities (K.v_bound, written out; it checks nothing itself) and
    # the transverse factor F: the refusals above keep 0 < alpha_- <= alpha_+
    # < 4a and s > 0, so both square roots are real
    vp = cv * math.sqrt((four_a - ap) / ap)
    vm = cv * math.sqrt((four_a - am) / am)
    f = (-params.mu * (vp + vm) / (2.0 * pair.s) if path_id % 2
         else four_a * params.mu * cv * cv / (ap * am * (vp + vm)))
    d = f ** (params.ndim - 1) / (vp * vm)
    return record(VvpmValue, (path_id, -d if path_id in (2, 3) else d, f))
