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

Each channel is integrated on a uniform mesh by one Numerov sweep routine
(``numerov_fill``), run twice: outward from a power-series boundary layer
at the origin, inward from a WKB-seeded point at least 16 e-folds of decay
beyond the outermost radius needed; ``default_mesh`` takes that decay
integral in closed form from the forbidden-side action.  Values and
derivatives at all points are interpolated from the mesh in array
operations (``interp_u``), and a radius whose 4-point stencil holds a
value that is not a normal float -- underflowed, infinite or NaN -- comes
out NaN, which the public functions report.  A numerical ODE path is used
rather than closed-form confluent hypergeometric evaluation because the
arguments of interest (alpha/nu up to about 100) make naive series
evaluation unstable; independent Whittaker-function and partial-wave
oracles exist in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import IllConditionedError, RegionError, UnsupportedDimensionError
from .geometry import classify_region, lambert_variables
from .model import EnergySpec, SystemParams, bound_regime, check_pole
from .semiclassical import FieldSample


def default_mesh(spec: EnergySpec, params: SystemParams, r_need: float) -> tuple[float, float]:
    """(r_max, h) giving ~1e-7 phase accuracy in the l = 0 channel that
    qm_field uses (h comes from the l = 0 scales only, so higher channels
    lose accuracy) and a deeply decayed inward-integration start for every
    radius up to r_need.

    r_max starts at max(1.3 r_turn, 1.2 r_need), r_turn = 2a the l = 0
    turning radius, and grows by factors of 1.2 until the decaying
    solution accumulates at least 16 e-folds beyond max(r_turn, r_need).
    The e-fold integral is closed: int kappa dr from r_1 to r_2 is
    [Im W_+(2 r_2) - Im W_+(2 r_1)]/hbar, with Im W_+ the forbidden-side
    half-action ``_kernels.w_bound_forbidden_im``.
    """
    a = spec.a
    sk, _, _ = bound_regime(spec, params)
    r_turn = 2.0 * a
    r_max = max(1.3 * r_turn, 1.2 * r_need)
    w_anchor = K.w_bound_forbidden_im(2.0 * max(r_turn, r_need), a, sk)
    while K.w_bound_forbidden_im(2.0 * r_max, a, sk) - w_anchor < 16.0 * params.hbar:
        r_max *= 1.2
    ell0 = params.hbar**2 / (params.mu * params.Kc)  # natural length unit
    h = min(0.025 * ell0, a / 400.0)
    return float(r_max), float(h)


def _ode_terms(E: float, params: SystemParams) -> tuple[float, float]:
    """(e2, c1) of the radial equation u'' = -(e2 + c1/r - l(l+1)/r^2) u."""
    c1 = 2.0 * params.mu * params.Kc / params.hbar**2
    e2 = 2.0 * params.mu * E / params.hbar**2
    return e2, c1


def _series(l: int, e2: float, c1: float, r: float) -> float:
    """sum c_k r^k of the regular solution's origin series
    u = r^(l+1) sum c_k r^k, c_0 = 1."""
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
    return total


def radial_rhs(r, l, e2, c1):
    """f(r) in u'' = -f u:  f = 2mu(E + Kc/r)/hbar^2 - l(l+1)/r^2."""
    return e2 + c1 / r - l * (l + 1.0) / (r * r)


def numerov_fill(l, e2, c1, h, n, j_from, j_to, u0, u1):
    """u on mesh indices 0..n, zero outside j_from..j_to, by the Numerov
    recurrence from u[j_from] = u0 and its neighbour towards j_to, u1;
    the sign of j_to - j_from gives the direction.

    The solution grows along the sweep: whenever |u| exceeds 1e250 every
    value so far is scaled by 1e-250 (its shape is kept), so late entries
    never overflow.  Stopping an inward sweep just below the smallest
    radius the caller needs keeps its range inside float64 even at large
    l, where a full-mesh sweep spans more than 616 decades.
    """
    step = 1 if j_to > j_from else -1
    lo, hi = min(j_from, j_to), max(j_from, j_to)
    h12 = h * h / 12.0
    f = radial_rhs(np.arange(lo, hi + 1) * h, l, e2, c1)[::step]
    grow = (2.0 * (1.0 - 5.0 * h12 * f)).tolist()
    damp = (1.0 + h12 * f).tolist()
    seq = [u0, u1]
    for dm, g0, dp in zip(damp, grow[1:], damp[2:]):
        seq.append((seq[-1] * g0 - seq[-2] * dm) / dp)
        if abs(seq[-1]) > 1e250:
            seq[:] = [v * 1e-250 for v in seq]
    u = np.zeros(n + 1)
    u[lo:hi + 1] = seq[::step]
    return u


def ode_derivative(u, j, h, l, e2, c1):
    """u'(r_j) at mesh indices j from neighbors with the leading ODE-aware
    h^2 correction subtracted; accurate to O(h^4) without extra stencil
    points."""
    r = j * h
    f = radial_rhs(r, l, e2, c1)
    fprime = -c1 / (r * r) + 2.0 * l * (l + 1.0) / (r * r * r)
    num = (u[j + 1] - u[j - 1]) / (2.0 * h) + (h * h / 6.0) * fprime * u[j]
    return num / (1.0 - h * h * f / 6.0)


def wronskian_at(u, v, j, h, l, e2, c1):
    up = ode_derivative(u, j, h, l, e2, c1)
    vp = ode_derivative(v, j, h, l, e2, c1)
    return u[j] * vp - up * v[j]


def _normal(u):
    """True where u is a normal float.  A mesh value that underflowed
    (subnormal or zero) has lost the solution's digits, and an infinite or
    NaN one has none."""
    a = np.abs(u)
    return (a >= np.finfo(np.float64).tiny) & (a <= np.finfo(np.float64).max)


def interp_u(u, r, h, j0, n):
    """Cubic 4-point Lagrange interpolation of u at the radii r, with the
    stencil kept on mesh indices j0..n; NaN where the stencil holds an
    entry that is not a normal float."""
    x = r / h
    j = np.clip(x.astype(np.intp), j0 + 1, n - 2)
    t = x - j
    w = u[j[..., None] + np.arange(-1, 3)]  # the stencil j - 1 .. j + 2
    val = (-t * (t - 1.0) * (t - 2.0) / 6.0 * w[..., 0]
           + (t * t - 1.0) * (t - 2.0) / 2.0 * w[..., 1]
           - t * (t + 1.0) * (t - 2.0) / 2.0 * w[..., 2]
           + t * (t * t - 1.0) / 6.0 * w[..., 3])
    return np.where(_normal(w).all(axis=-1), val, np.nan)[()]


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

    def derivative(self, u: np.ndarray, lo: int) -> np.ndarray:
        """u' on mesh indices lo .. n-1 (zero elsewhere) for u = u_reg or
        u_irr; lo must leave u[lo - 1] inside the tabulated range."""
        n = len(self.grid) - 1
        du = np.zeros(n + 1)
        du[lo:n] = ode_derivative(u, np.arange(lo, n), self.h, self.l,
                                  *_ode_terms(self.E, self.params))
        return du

    def wronskian_on_mesh(self, indices) -> np.ndarray:
        """Wronskian recomputed at the given mesh indices (constancy check);
        indices must lie inside the service window."""
        return wronskian_at(self.u_reg, self.u_irr, np.asarray(indices, np.intp),
                            self.h, self.l, *_ode_terms(self.E, self.params))


def solve_radial(l: int, E: float, params: SystemParams,
                 r_max: float, h: float, r_service: float = 0.0) -> RadialSolution:
    """Integrate one channel and package both solutions.

    ``r_service`` is the smallest radius at which the decaying solution
    must be usable.  Both solutions are normalized, and the Wronskian
    taken, at the index between j_service and n that maximizes
    |u_reg u_irr|.
    """
    e2, c1 = _ode_terms(E, params)
    n = int(round(r_max / h))
    j0 = max(1, int(math.ceil(1.45 * math.sqrt(l * (l + 1.0)))))
    if j0 > n - 10:
        raise ValueError("mesh too coarse for this angular momentum")
    j_service = max(j0, int(r_service / h) - 6)
    # the origin series at the two startup radii, in a common scale with the
    # r^(l+1) prefactor normalized at r2 (only the ratio matters downstream)
    r1, r2 = j0 * h, (j0 + 1) * h
    u0, u1 = (r1 / r2) ** (l + 1) * _series(l, e2, c1, r1), _series(l, e2, c1, r2)
    u_reg = numerov_fill(l, e2, c1, h, n, j0, n, u0, u1)
    kap = math.sqrt(max(1e-300, -radial_rhs((n - 0.5) * h, l, e2, c1)))
    u_irr = numerov_fill(l, e2, c1, h, n, n, j_service, 1.0, math.exp(kap * h))
    # logs dodge overflow; an underflowed zero scores -inf
    with np.errstate(divide="ignore"):
        health = (np.log(np.abs(u_reg[j_service + 1:n]))
                  + np.log(np.abs(u_irr[j_service + 1:n])))
    jm = j_service + 1 + int(np.argmax(health))
    u_reg = u_reg / abs(u_reg[jm])
    u_irr = u_irr / abs(u_irr[jm])
    wron = wronskian_at(u_reg, u_irr, jm, h, l, e2, c1)
    return RadialSolution(l=l, E=E, params=params, h=h, j0=j0, j_service=j_service,
                          grid=np.arange(n + 1) * h,
                          u_reg=u_reg, u_irr=u_irr, wronskian=wron)


def qm_field(R, rp_vec, spec: EnergySpec, params: SystemParams) -> np.ndarray:
    """Exact Green values at many points for one source and energy.

    Hostler's form on one l = 0 channel (module docstring), integrated out
    to the largest rho_+ = alpha_+/2 of the points.  Values and derivatives
    are interpolated with the same cubic stencil.  A point whose Lambert
    lengths are not finite (a NaN or infinite component, or one whose
    square overflows) raises ValueError.  A point whose stencil holds an
    underflowed (or non-finite) mesh value is NaN: one mesh for rho_+ far
    apart can span more than float64's range of the solutions' growth.
    """
    if params.ndim != 3:
        raise UnsupportedDimensionError("the quantum reference is implemented for n = 3")
    bound_regime(spec, params)
    check_pole(spec)

    pts = np.atleast_2d(R)
    with np.errstate(over="ignore", invalid="ignore"):
        r, rp, s, ap, am = K.lambert_arrays(pts, rp_vec)
    # alpha_+ = r + r' + s is finite exactly when all five lengths are
    bad = ~np.isfinite(ap)
    if np.any(bad):
        raise ValueError(f"point {pts[np.argmax(bad)].tolist()} with source "
                         f"{np.asarray(rp_vec, float).tolist()} has no finite "
                         "Lambert lengths")
    if rp <= 0.0 or np.any(r <= 0.0):
        raise RegionError("points at the force center are excluded")
    if np.any(s <= 0.0):
        raise RegionError("points at the source are excluded")
    rho_p = 0.5 * ap
    # r + r' - s >= 0 by the triangle inequality; rounding can undershoot
    rho_m = np.maximum(0.5 * am, 0.0)

    r_max, h = default_mesh(spec, params, float(np.max(rho_p)))
    # where the points' rho_+ spread over more than float64's range of the
    # growth, the rescaled sweeps underflow (or the normalization
    # overflows); interp_u makes those points NaN, quietly
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol = solve_radial(0, spec.E, params, r_max, h,
                           r_service=0.95 * float(np.min(rho_p)))
        # the derivative stencil reaches one index below its own, so the
        # decaying solution is usable one index above its tabulated start;
        # u_reg[0] = 0 is exact for l = 0.  Values and derivatives are
        # interpolated on indices up to n - 1, where the derivative ends.
        j_irr = sol.j_service + 1
        n = len(sol.grid) - 2
        du_reg = sol.derivative(sol.u_reg, 1)
        du_irr = sol.derivative(sol.u_irr, j_irr)
        bracket = (interp_u(du_irr, rho_p, h, j_irr, n) * interp_u(sol.u_reg, rho_m, h, 1, n)
                   - interp_u(sol.u_irr, rho_p, h, j_irr, n) * interp_u(du_reg, rho_m, h, 1, n))
    g2mu = 2.0 * params.mu / params.hbar**2
    return -g2mu * bracket / (4.0 * math.pi * s * sol.wronskian)


def green_qm(r_vec, rp_vec, spec: EnergySpec, params: SystemParams) -> FieldSample:
    """Exact Green function at one endpoint pair, n = 3 (Hostler's form)."""
    vals = qm_field(np.asarray(r_vec, float)[None, :], rp_vec, spec, params)
    if not np.isfinite(vals[0]):
        raise IllConditionedError(
            f"exact value at {list(r_vec)} with source {list(rp_vec)} lost to underflow: "
            "its radial solutions span more than float64's range")
    pair = lambert_variables(r_vec, rp_vec, params)
    region = classify_region(pair, spec, params.attractive)
    return FieldSample(tuple(np.asarray(r_vec, float)), tuple(np.asarray(rp_vec, float)),
                       spec.E, "QM", complex(vals[0]), region)
