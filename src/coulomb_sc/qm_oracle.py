"""Exact quantum-mechanical reference Green function for n = 3.

Hostler's closed form (L. Hostler, J. Math. Phys. 5, 591 (1964)) depends
on the endpoints only through Lambert's variables alpha_+- = r + r' +- s:

    G = Gamma(1 - nu)/(2 pi s) (d_x - d_y)[W_{nu,1/2}(x) M_{nu,1/2}(y)],
    x, y = kappa alpha_+-.

M and W are the regular and the decaying solution of the l = 0 radial
equation

    u'' + 2 mu (E + Kc/rho)/hbar^2 u = 0

at rho = alpha/2, and their Wronskian supplies Gamma(1 - nu).  So one
radial channel gives the whole Green function:

    G = -(2 mu/hbar^2)/(4 pi s)
        [u_irr'(rho_+) u_reg(rho_-) - u_irr(rho_+) u_reg'(rho_-)] / W[u_reg, u_irr].

No gamma function is evaluated: the poles at integer nu are the zeros of
the Wronskian, and as rho_+ -> rho_- near the source the bracket tends to
the Wronskian, which leaves the free -(2 mu/hbar^2)/(4 pi s).

Each channel is integrated on a uniform mesh with the Numerov scheme --
outward from a power-series boundary layer at the origin, inward from a
WKB-seeded point far beyond the outermost turning radius.  A numerical ODE
path is used rather than closed-form confluent hypergeometric evaluation
because the arguments of interest (alpha/nu up to about 100) make naive
series evaluation unstable; independent Whittaker-function oracles exist in
the test suite.  ``radial_green`` gives the radial component g_l of any
channel, which the tests sum over l as an independent partial-wave check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import PoleError, RegionError
from .geometry import classify_region, lambert_variables
from .model import EnergySpec, SystemParams
from .semiclassical import FieldSample, _check_pole


def default_mesh(spec: EnergySpec, params: SystemParams, r_need: float) -> tuple[float, float]:
    """(r_max, h) giving ~1e-7 phase accuracy and a deeply decayed
    inward-integration start for every radius up to r_need."""
    a = spec.a
    r_turn = 2.0 * a
    r_max = max(1.3 * r_turn, 1.2 * r_need)

    # extend until the decaying solution accumulates >= 16 e-foldings
    # between every radius of interest and the start of integration
    def kappa(r):
        return math.sqrt(
            max(0.0, 2.0 * params.mu * (abs(spec.E) - params.Kc / r)) / params.hbar**2
        )

    anchor = max(r_turn, r_need)
    for _ in range(60):
        rs = np.linspace(max(anchor, r_turn * (1.0 + 1e-9)), r_max, 200)
        efold = np.trapezoid([kappa(r) for r in rs], rs)
        if efold >= 16.0:
            break
        r_max *= 1.2
    ell0 = params.hbar**2 / (params.mu * params.Kc)  # natural length unit
    h = min(0.025 * ell0, a / 400.0)
    return float(r_max), float(h)


def _series_start(l: int, E: float, params: SystemParams, r1: float, r2: float):
    """Regular-solution values at two startup radii from the origin series
    u = r^(l+1) sum c_k r^k, returned in a common scale with the r^(l+1)
    prefactor normalized at r2 (only the ratio matters downstream)."""
    c1 = 2.0 * params.mu * params.Kc / params.hbar**2
    e2 = 2.0 * params.mu * E / params.hbar**2
    out = []
    for r in (r1, r2):
        ck2, ck1 = 0.0, 1.0
        t = 1.0
        total = 1.0
        rk = 1.0
        for k in range(1, 80):
            ck = -(c1 * ck1 + e2 * ck2) / (k * (2.0 * l + 1.0 + k))
            rk *= r
            t = ck * rk
            total += t
            ck2, ck1 = ck1, ck
            if abs(t) < 1e-18 * abs(total):
                break
        out.append(total)
    return (r1 / r2) ** (l + 1) * out[0], out[1]


@dataclass(frozen=True)
class RadialSolution:
    """Both radial solutions of one (l, E) channel on a uniform mesh.

    u_reg is regular at the origin (~ r^(l+1)); u_irr decays as r -> inf
    for E < 0 and is tabulated on [r_service, r_max] (the inward sweep
    stops where the caller no longer needs values, which keeps its huge
    inward growth inside float64 at large l).  Both are normalized at the
    healthiest overlap index, and the Wronskian u_reg u_irr' - u_reg' u_irr
    is constant on the service window.
    """

    l: int
    E: float
    params: SystemParams
    h: float
    j0: int
    j_service: int
    grid: np.ndarray
    u_reg: np.ndarray
    u_irr: np.ndarray
    wronskian: float

    def eval_reg(self, r: float) -> float:
        return K.interp_u(self.u_reg, r, self.h, self.j0, len(self.grid) - 1)

    def eval_irr(self, r: float) -> float:
        if r < (self.j_service + 2) * self.h:
            raise ValueError(
                f"u_irr tabulated for r >= {(self.j_service + 2) * self.h:.6g} "
                "only; rebuild the solution with a smaller service radius"
            )
        return K.interp_u(self.u_irr, r, self.h, self.j_service, len(self.grid) - 1)

    def _ode_terms(self) -> tuple[float, float]:
        """(e2, c1) of the radial equation u'' = -(e2 + c1/r - l(l+1)/r^2) u."""
        c1 = 2.0 * self.params.mu * self.params.Kc / self.params.hbar**2
        e2 = 2.0 * self.params.mu * self.E / self.params.hbar**2
        return e2, c1

    def derivative(self, u: np.ndarray, lo: int) -> np.ndarray:
        """u' on mesh indices lo .. n-1 (zero elsewhere) for u = u_reg or
        u_irr; lo must leave u[lo - 1] inside the tabulated range."""
        n = len(self.grid) - 1
        du = np.zeros(n + 1)
        du[lo:n] = K.ode_derivative(u, np.arange(lo, n), self.h, self.l,
                                    *self._ode_terms())
        return du

    def wronskian_on_mesh(self, indices) -> np.ndarray:
        """Wronskian recomputed at the given mesh indices (constancy check);
        indices must lie inside the service window."""
        e2, c1 = self._ode_terms()
        return np.array([
            K.wronskian_at(self.u_reg, self.u_irr, int(j), self.h, self.l, e2, c1)
            for j in indices
        ])


def solve_radial(l: int, E: float, params: SystemParams,
                 r_max: float, h: float, r_service: float = 0.0) -> RadialSolution:
    """Integrate one channel and package both solutions.

    ``r_service`` is the smallest radius at which the decaying solution
    must be usable.
    """
    c1 = 2.0 * params.mu * params.Kc / params.hbar**2
    e2 = 2.0 * params.mu * E / params.hbar**2
    n = int(round(r_max / h))
    j0 = max(1, int(math.ceil(1.45 * math.sqrt(l * (l + 1.0)))))
    if j0 > n - 10:
        raise ValueError("mesh too coarse for this angular momentum")
    j_service = max(j0, int(r_service / h) - 6)
    u0, u1 = _series_start(l, E, params, j0 * h, (j0 + 1) * h)
    u_reg = K.numerov_fill_outward(l, e2, c1, h, n, j0, u0, u1)
    kap = math.sqrt(max(1e-300, -K.radial_rhs((n - 0.5) * h, l, e2, c1)))
    u_irr = K.numerov_fill_inward(l, e2, c1, h, n, j_service, 1.0, math.exp(kap * h))
    jm = K.best_match_index(u_reg, u_irr, j_service, n)
    u_reg = u_reg / abs(u_reg[jm])
    u_irr = u_irr / abs(u_irr[jm])
    wron = K.wronskian_at(u_reg, u_irr, jm, h, l, e2, c1)
    return RadialSolution(l=l, E=E, params=params, h=h, j0=j0, j_service=j_service,
                          grid=np.arange(n + 1) * h,
                          u_reg=u_reg, u_irr=u_irr, wronskian=wron)


def _check_channel_pole(l: int, spec: EnergySpec, tol: float = 1e-9):
    nu = spec.k + 1.0
    nearest = round(nu)
    if nearest >= l + 1 and abs(nu - nearest) < tol:
        raise PoleError(
            f"E within the guard band of the l = {l} channel eigenvalue nu = {nearest}",
            k=int(nearest - 1), energy=spec.E,
        )


def radial_green(l: int, r_small: float, r_large: float, E: float,
                 params: SystemParams, r_max: float | None = None,
                 h: float | None = None) -> float:
    """Radial Green component g_l(r_<, r_>; E) for E < 0, n = 3."""
    if not 0.0 < r_small <= r_large:
        raise ValueError("need 0 < r_small <= r_large")
    if E >= 0.0:
        raise ValueError("radial_green requires E < 0")
    spec = EnergySpec.from_energy(E, params)
    _check_channel_pole(l, spec)
    if r_max is None or h is None:
        auto_rmax, auto_h = default_mesh(spec, params, r_large)
        r_max = auto_rmax if r_max is None else r_max
        h = auto_h if h is None else h
    sol = solve_radial(l, E, params, r_max, h, r_service=0.95 * r_large)
    g2mu = 2.0 * params.mu / params.hbar**2
    return g2mu * sol.eval_reg(r_small) * sol.eval_irr(r_large) / sol.wronskian


def qm_field(R, rp_vec, spec: EnergySpec, params: SystemParams) -> np.ndarray:
    """Exact Green values at many points for one source and energy.

    Hostler's form on one l = 0 channel (module docstring), integrated out
    to the largest rho_+ = alpha_+/2 of the points.  Values and derivatives
    are interpolated with the same cubic stencil.
    """
    if params.ndim != 3:
        raise ValueError("the quantum reference is implemented for n = 3")
    if spec.E >= 0.0:
        raise ValueError("qm_field requires E < 0")
    _check_pole(spec)

    r, rp, s, ap, am = K.lambert_arrays(np.atleast_2d(R), rp_vec)
    if rp <= 0.0 or np.any(r <= 0.0):
        raise RegionError("points at the force center are excluded")
    if np.any(s <= 0.0):
        raise RegionError("points at the source are excluded")
    rho_p = 0.5 * ap
    # r + r' - s >= 0 by the triangle inequality; rounding can undershoot
    rho_m = np.maximum(0.5 * am, 0.0)

    r_max, h = default_mesh(spec, params, float(np.max(rho_p)))
    sol = solve_radial(0, spec.E, params, r_max, h,
                       r_service=0.95 * float(np.min(rho_p)))
    # the derivative stencil reaches one index below its own, so the
    # decaying solution is usable one index above its tabulated start;
    # u_reg[0] = 0 is exact for l = 0
    j_irr = sol.j_service + 1
    bracket = K.hostler_bracket(
        sol.u_reg, sol.derivative(sol.u_reg, 1), 1,
        sol.u_irr, sol.derivative(sol.u_irr, j_irr), j_irr,
        h, len(sol.grid) - 2, rho_p, rho_m)
    g2mu = 2.0 * params.mu / params.hbar**2
    return -g2mu * bracket / (4.0 * math.pi * s * sol.wronskian)


def green_qm(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Exact Green function at one endpoint pair, n = 3 (Hostler's form)."""
    vals = qm_field(np.asarray(r_vec, float)[None, :], rp_vec, spec, params)
    pair = lambert_variables(r_vec, rp_vec, params)
    region = classify_region(pair, spec, params.attractive)
    return FieldSample(tuple(np.asarray(r_vec, float)), tuple(np.asarray(rp_vec, float)),
                       spec.E, "QM", complex(vals[0]), region)
