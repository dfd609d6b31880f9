"""Van Vleck-Pauli-Morette amplitude determinants in closed form, Morse
indices, and a finite-difference cross-check of the full derivative matrix.

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
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels as K
from .errors import IllConditionedError, RegionError
from .geometry import ALLOWED_ONLY, LambertPair, refuse_point, refuse_region
from .model import EnergySpec, SystemParams, bound_regime

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


def dimensional_factor(v_plus: float, v_minus: float, s: float, combo: str,
                       params: SystemParams) -> float:
    """Transverse factor F+ +- F- with F+ = -mu v+/(2s), F- = +mu v-/(2s).

    combo='sum' gives -mu (v+ - v-)/(2s) (paths 2, 4); combo='difference'
    gives -mu (v+ + v-)/(2s) (paths 1, 3).  The sum combination vanishes
    when v+ = v-, the origin of the round-trip determinant pole.
    """
    if s <= 0.0:
        raise RegionError("coincident endpoints (s = 0): transverse factor diverges")
    if v_plus < 0.0 or v_minus < 0.0:
        raise ValueError("velocities must be nonnegative")
    if combo == "sum":
        return -params.mu * (v_plus - v_minus) / (2.0 * s)
    if combo == "difference":
        return -params.mu * (v_plus + v_minus) / (2.0 * s)
    raise ValueError(f"combo must be 'sum' or 'difference', got {combo!r}")


def vvpm_det(path_id: int, pair: LambertPair, spec: EnergySpec,
             params: SystemParams) -> VvpmValue:
    """Closed-form determinant for one elementary path (bound allowed regime).

    D1 =  (1/v+v-) [-mu(v+ + v-)/2s]^(n-1) = -D3
    D2 = -(1/v+v-) [-mu(v+ - v-)/2s]^(n-1) = -D4
    """
    if path_id not in PATH_IDS:
        raise ValueError(f"path_id must be in 1..4, got {path_id}")
    _, cv, _ = bound_regime(spec, params)
    four_a = 4.0 * spec.a
    region, status = K.region_status(pair.s, pair.alpha_plus, pair.alpha_minus, four_a)
    refuse_region(region, ALLOWED_ONLY, "no finite real determinant: use green_uniform")
    refuse_point(status)

    # the velocities K.v_bound and the transverse factor of
    # dimensional_factor, written out: the guards above cover theirs
    vp = cv * math.sqrt((four_a - pair.alpha_plus) / pair.alpha_plus)
    vm = cv * math.sqrt((four_a - pair.alpha_minus) / pair.alpha_minus)
    f = -params.mu * ((vp + vm) if path_id % 2 else (vp - vm)) / (2.0 * pair.s)
    d = f ** (params.ndim - 1) / (vp * vm)
    return VvpmValue(path_id, -d if path_id in (2, 3) else d, f)


# --- finite-difference cross-check -----------------------------------------

def _mixed_second(fn: Callable[[np.ndarray, np.ndarray, float], float],
                  r: np.ndarray, rp: np.ndarray, E: float,
                  i: int, j: int, hr: float, hrp: float) -> float:
    """Centered d^2 fn / dr_i drp_j."""
    ei = np.zeros_like(r)
    ej = np.zeros_like(rp)
    ei[i] = hr
    ej[j] = hrp
    return (fn(r + ei, rp + ej, E) - fn(r + ei, rp - ej, E)
            - fn(r - ei, rp + ej, E) + fn(r - ei, rp - ej, E)) / (4.0 * hr * hrp)


def _mixed_energy(fn, r, rp, E, i, hr, hE, wrt_final: bool):
    ei = np.zeros_like(r)
    ei[i] = hr
    if wrt_final:
        return (fn(r + ei, rp, E + hE) - fn(r + ei, rp, E - hE)
                - fn(r - ei, rp, E + hE) + fn(r - ei, rp, E - hE)) / (4.0 * hr * hE)
    return (fn(r, rp + ei, E + hE) - fn(r, rp + ei, E - hE)
            - fn(r, rp - ei, E + hE) + fn(r, rp - ei, E - hE)) / (4.0 * hr * hE)


def _fd_matrix(fn, r, rp, E, rel_step):
    n = r.shape[0]
    scale = max(float(np.max(np.abs(r))), float(np.max(np.abs(rp))), 1.0)
    hr = rel_step * scale
    hE = rel_step * abs(E)
    m = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j in range(n):
            m[i, j] = _mixed_second(fn, r, rp, E, i, j, hr, hr)
    for i in range(n):
        m[i, n] = _mixed_energy(fn, r, rp, E, i, hr, hE, wrt_final=True)
        m[n, i] = _mixed_energy(fn, r, rp, E, i, hr, hE, wrt_final=False)
    m[n, n] = 0.0  # replaced by 0: the position block is singular
    return m


def vvpm_det_numeric(action_fn: Callable[[np.ndarray, np.ndarray, float], float],
                     r_vec, rp_vec, E: float, params: SystemParams,
                     rel_step: float = 1e-4, return_matrix: bool = False):
    """Determinant of the full (n+1) x (n+1) derivative matrix of an action
    by centered finite differences, with the d^2/dE^2 entry replaced by 0.

    ``action_fn(r_vec, rp_vec, E) -> W`` must be smooth near the evaluation
    point; the endpoints may be in any (non-degenerate) arrangement.  The
    determinant is Richardson-extrapolated from steps h and h/2.
    """
    r = np.asarray(r_vec, dtype=float)
    rp = np.asarray(rp_vec, dtype=float)
    if r.shape != rp.shape or r.ndim != 1:
        raise ValueError("r_vec and rp_vec must be equal-length vectors")
    if rel_step <= 0.0 or rel_step * max(np.max(np.abs(r)), 1.0) < 1e-12:
        raise IllConditionedError(f"finite-difference step underflow (rel_step={rel_step})")

    m1 = _fd_matrix(action_fn, r, rp, E, rel_step)
    d1 = float(np.linalg.det(m1))
    m2 = _fd_matrix(action_fn, r, rp, E, rel_step / 2.0)
    d2 = float(np.linalg.det(m2))
    d = (4.0 * d2 - d1) / 3.0
    if not math.isfinite(d):
        raise IllConditionedError("finite-difference determinant is not finite")
    return (d, m2) if return_matrix else d
