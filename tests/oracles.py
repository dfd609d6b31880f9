"""Numerical cross-checks of the package's closed forms, for the tests only.

No evaluator and no command calls these; each is a second, independent
route to a quantity the package computes in closed form:

- ``vvpm_det_numeric``: the VVPM determinant by finite differences of the
  full (n+1) x (n+1) derivative matrix of an action (criterion 4);
- ``dimensional_factor``: the transverse factor that ``vvpm.vvpm_det``
  writes out;
- ``action_via_anomalies`` and ``kepler_transfer_time``: the anomaly-angle
  form of the direct path's action and the Kepler-equation form of the
  time;
- ``radial_green``: one radial channel g_l of the exact reference, which
  the tests sum over l as a partial-wave check of Hostler's one-channel
  form (L. Hostler, J. Math. Phys. 5, 591 (1964));
- ``green_sc_bound_sum`` and ``green_sc_bound_product``: the four
  elementary paths and their loop repetitions summed term by term, and the
  same sum factorized into the elementary four-path Green function times
  the loop factor, from ``four_paths`` and ``vvpm_det``: the paper's
  factorization (criterion 10) behind the closed form the package
  evaluates (``green_sc_bound``).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from coulomb_sc.actions import four_paths
from coulomb_sc.errors import (IllConditionedError, PoleError, RegionError,
                               UnsupportedDimensionError)
from coulomb_sc.geometry import lambert_variables
from coulomb_sc.model import POLE_GUARD, EnergySpec, SystemParams, bound_regime, check_pole
from coulomb_sc.qm_oracle import (RadialSolution, _normal, _ode_terms, _series, default_mesh,
                                  interp_u, solve_radial)
from coulomb_sc.vvpm import vvpm_det


# --- VVPM determinant ------------------------------------------------------

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


# --- anomaly-angle and Kepler-equation forms --------------------------------

def action_via_anomalies(gamma: float, delta: float, a: float,
                         params: SystemParams) -> float:
    """Reduced action of the direct path in anomaly-angle form:

    W = sqrt(mu a Kc) (gamma + sin gamma - delta - sin delta).

    Equals W_+(alpha_plus) - W_-(alpha_minus) on the allowed side.
    """
    return math.sqrt(params.mu * a * params.Kc) * (
        gamma + math.sin(gamma) - delta - math.sin(delta)
    )


def kepler_transfer_time(xi: float, xi_p: float, eps: float, spec: EnergySpec,
                         params: SystemParams) -> float:
    """Transfer time between eccentric anomalies xi' -> xi on an ellipse of
    eccentricity eps: sqrt(mu a^3/Kc) (xi - eps sin xi - xi' + eps sin xi')."""
    bound_regime(spec, params)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eccentricity must satisfy 0 <= eps < 1, got {eps}")
    ts = math.sqrt(params.mu * spec.a**3 / params.Kc)
    return ts * (xi - eps * math.sin(xi) - xi_p + eps * math.sin(xi_p))


# --- one radial channel of the exact reference ------------------------------

def _log_reg_below(sol: RadialSolution, x: float) -> tuple[float, float]:
    """(sign, log|u_reg(x)|) below the mesh start r_0 = j0 h, where the
    table begins: the origin series scaled to u_reg(r_0),
    u_reg(r_0) (x/r_0)^(l+1) S(x)/S(r_0), summed in logs because the
    r^(l+1) law can take u_reg below float64's range at large l.  Both are
    NaN where u_reg(r_0) S(x)/S(r_0) is not a normal float."""
    e2, c1 = _ode_terms(sol.E, sol.params)
    r0 = sol.j0 * sol.h
    u = sol.u_reg[sol.j0] * _series(sol.l, e2, c1, x) / _series(sol.l, e2, c1, r0)
    if not _normal(u):
        return math.nan, math.nan
    return math.copysign(1.0, u), math.log(abs(u)) + (sol.l + 1) * math.log(x / r0)


def eval_reg(sol: RadialSolution, r):
    """u_reg at a radius or an array of radii: interpolated on the mesh,
    from ``_log_reg_below`` below it; NaN where the value is not a normal
    float."""
    r = np.asarray(r, float)
    u = interp_u(sol.u_reg, r, sol.h, sol.j0, len(sol.grid) - 1)
    inner = r < sol.j0 * sol.h
    if np.any(inner):
        series = np.array([sign * math.exp(log_u) for sign, log_u in
                           (_log_reg_below(sol, x) for x in r[inner].tolist())])
        u = np.array(u, float)
        u[inner] = np.where(_normal(series), series, np.nan)
        u = u[()]  # a scalar again for a scalar r
    return u


def eval_irr(sol: RadialSolution, r):
    """u_irr at a radius or an array of radii, all inside its table."""
    r = np.asarray(r, float)
    if np.any(r < (sol.j_service + 2) * sol.h):
        raise ValueError(
            f"u_irr tabulated for r >= {(sol.j_service + 2) * sol.h:.6g} "
            "only; rebuild the solution with a smaller service radius"
        )
    return interp_u(sol.u_irr, r, sol.h, sol.j_service, len(sol.grid) - 1)


def radial_green(l: int, r_small: float, r_large: float, E: float,
                 params: SystemParams, r_max: float | None = None,
                 h: float | None = None) -> float:
    """Radial Green component g_l(r_<, r_>; E) for E < 0, n = 3 only, as in
    qm_field.  The default mesh is sized for l = 0 (relative error 7e-9
    there, 1e-3 at l = 40 and nu = 5.3): high l needs an explicit r_max and h.

    Below the mesh start the product u_reg(r_<) u_irr(r_>)/W is summed in
    logs, so a g_l that is a normal float comes out even where u_reg(r_<)
    alone is not."""
    if params.ndim != 3:
        raise UnsupportedDimensionError("the radial Green function is implemented for n = 3")
    if not 0.0 < r_small <= r_large:
        raise ValueError("need 0 < r_small <= r_large")
    spec = EnergySpec.from_energy(E, params)
    bound_regime(spec, params)
    nu = spec.k + 1.0
    nearest = round(nu)
    if nearest >= l + 1 and abs(nu - nearest) < POLE_GUARD:
        raise PoleError(
            f"E within the guard band of the l = {l} channel eigenvalue nu = {nearest}",
            k=int(nearest - 1), energy=spec.E,
        )
    if r_max is None or h is None:
        auto_rmax, auto_h = default_mesh(spec, params, r_large)
        r_max = auto_rmax if r_max is None else r_max
        h = auto_h if h is None else h
    sol = solve_radial(l, E, params, r_max, h, r_service=0.95 * r_large)
    q = 2.0 * params.mu / params.hbar**2 * eval_irr(sol, r_large) / sol.wronskian
    if r_small < sol.j0 * sol.h:
        sign, log_u = _log_reg_below(sol, r_small)
        g = sign * math.copysign(math.exp(log_u + math.log(abs(q))), q)
    else:
        g = eval_reg(sol, r_small) * q
    if not math.isfinite(g):
        raise IllConditionedError(
            f"g_{l}({r_small}, {r_large}) lost to underflow: the channel's solutions "
            "span more than float64's range")
    return g


# --- explicit four-path x loop sum ------------------------------------------

def _elementary_prefactor(ndim: int, hbar: float) -> complex:
    """(1/i hbar) * (-1) / (-2 pi i hbar)^((n-1)/2), principal branch."""
    return -1.0 / (1j * hbar * (-2j * math.pi * hbar) ** ((ndim - 1) / 2.0))


def _four_path_terms(r_vec, rp_vec, spec, params, k_c: complex):
    """Amplitudes sqrt|D|, actions (the reflected paths with the complex
    round trip 2 pi hbar (k_c + (n-1)/2)) and Morse indices of the four
    elementary paths.  ``four_paths`` and ``vvpm_det`` refuse what the
    closed form refuses: the regime, the caustic and beyond, the source
    point and the focal line; ``check_pole`` the poles."""
    pair = lambert_variables(r_vec, rp_vec, params)
    paths = four_paths(pair, spec, params)
    check_pole(spec)
    amps = tuple(math.sqrt(abs(vvpm_det(p.path_id, pair, spec, params).D)) for p in paths)
    w2pi_c = 2.0 * math.pi * params.hbar * (k_c + (params.ndim - 1) / 2.0)
    w1 = paths[0].W
    w2 = paths[1].W
    ws = (w1, w2, w2pi_c - w1, w2pi_c - w2)
    morse = tuple(p.morse for p in paths)
    return amps, ws, morse, w2pi_c


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
