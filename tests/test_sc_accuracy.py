"""The primitive SC against the exact n = 3 value beyond the acceptance
cuts: where both legs are forbidden, and row by row over a half-plane.

Both tests keep criterion 7's rule: a sample is judged only outside the
Airy zone, |zeta| >= zeta_window(0.05), with the bound fixed before any
value is looked at.  Each prints its worst deviation in an
``[acceptance]``-style line.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
from coulomb_sc.qm_oracle import qm_field
from coulomb_sc.scan import eval_sc

from test_acceptance import zeta_window


def zeta_of(alpha, nu):
    """The classical Airy variable (``uniform_inputs``' zeta) of alpha in
    atomic units, a = nu^2, over arrays: (3/4 (2 pi nu - 2 W(alpha)))^(2/3)
    inside the caustic, -(3/2 K(alpha))^(2/3) beyond it, W = nu (g + sin g)
    with sin^2(g/2) = alpha/4a and K = nu (sinh 2t - 2t) with
    cosh^2 t = alpha/4a."""
    x = np.asarray(alpha, float) / (4.0 * nu * nu)
    g = 2.0 * np.arcsin(np.sqrt(np.minimum(x, 1.0)))
    t = np.arccosh(np.sqrt(np.maximum(x, 1.0)))
    return np.where(x < 1.0,
                    (0.75 * (2.0 * math.pi * nu - 2.0 * nu * (g + np.sin(g)))) ** (2.0 / 3.0),
                    -(1.5 * nu * (np.sinh(2.0 * t) - 2.0 * t)) ** (2.0 / 3.0))


def hostler_exact(s, ap, am, nu):
    """(G, S): Hostler's exact n = 3 value in atomic units,
    G = Gamma(1 - nu)/(2 pi s) (W'(x) M(y) - W(x) M'(y)) with the Whittaker
    functions W_{nu,1/2}, M_{nu,1/2} in mpmath, x, y = alpha_+-/nu, and a
    node-free envelope S >= |G| from the local amplitudes of both factors.
    The derivatives come from the contiguous relations (DLMF 13.15.20,
    13.15.23)."""
    with mp.workdps(20):
        k, half = mp.mpf(nu), mp.mpf(0.5)
        x, y = mp.mpf(ap) / nu, mp.mpf(am) / nu
        w, w1 = mp.whitw(k, half, x), mp.whitw(k + 1, half, x)
        m, m1 = mp.whitm(k, half, y), mp.whitm(k + 1, half, y)
        dw = ((x / 2 - k) * w - w1) / x
        dm = ((y / 2 - k) * m + (1 + k) * m1) / y
        c = mp.gamma(1 - k) / (2 * mp.pi * s)
        qx, qy = abs(k / x - 0.25), abs(k / y - 0.25)
        env = (abs(c) * mp.sqrt(w * w + dw * dw / qx) * mp.sqrt(m * m + dm * dm / qy)
               * (mp.sqrt(qx) + mp.sqrt(qy)))
        return float(c * (dw * m - w * dm)), float(env)


@pytest.mark.parametrize("nu", [5.3, 9.7, 19.95, 29.2])
def test_doubly_forbidden_sc_vs_exact(au, nu):
    # the cut y = 0.05 (4a) past the source (0.75 (4a), 0, 0), whose inner
    # leg passes its turning point alpha_- = 4a for x beyond the source.
    # Kept: |zeta| >= zeta0 on both legs, and the inner-leg phase
    # W(min(alpha_-, 4a)) >= 3/(8 bound), where the first correction at the
    # force centre reaches the bound (as perfbench's window)
    bound = 0.05
    zeta0 = zeta_window(bound)
    spec = cs.energy_from_nu(nu, au)
    four_a = 4.0 * spec.a
    rp = np.array([0.75 * four_a, 0.0, 0.0])
    xs = np.linspace(0.5 * four_a, 3.0 * four_a, 101)
    pts = np.stack([xs, np.full_like(xs, 0.05 * four_a), np.zeros_like(xs)], axis=1)
    vals, _, status = eval_sc(pts, rp, spec, au)
    r = np.linalg.norm(pts, axis=1)
    s = np.linalg.norm(pts - rp, axis=1)
    ap, am = r + rp[0] + s, r + rp[0] - s
    doubly = (am > four_a) & (status == K.STATUS_OK)
    keep = (doubly & (np.abs(zeta_of(ap, nu)) >= zeta0) & (np.abs(zeta_of(am, nu)) >= zeta0)
            & (math.pi * nu >= 3.0 / (8.0 * bound)))  # W(4a) = pi nu
    assert keep.sum() >= 50  # half of the 101 samples
    worst, at = 0.0, 0.0
    for i in np.flatnonzero(keep):
        g, env = hostler_exact(s[i], ap[i], am[i], nu)
        point = cs.green_sc_tunnel(pts[i], rp, spec, au).value
        for v in (vals[i], point):
            assert v.imag == 0.0 and not math.copysign(1.0, v.imag) < 0.0
            if abs(v.real - g) / env > worst:
                worst, at = abs(v.real - g) / env, xs[i] / four_a
    ok = worst <= bound
    print(f"[acceptance] doubly forbidden SC, nu={nu}: max|SC-QM|/envelope for |zeta| >= "
          f"{zeta0:.3f} on both legs = {worst:.4f} (bound {bound}) over {int(keep.sum())} "
          f"of {int(doubly.sum())} points, max at x = {at:.2f} (4a): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, worst


@pytest.mark.parametrize("nu, bound", [(5.3, 0.10), (9.7, 0.05), (29.2, 0.05), (60.3, 0.05)])
def test_sc_plane_rows(au, nu, bound):
    # criterion 6's row measure, max|SC-QM|/max|QM| with s > 5 Bohr, on each
    # of 130 rows y = 10 ... 1300 Bohr of a 401-column half-plane around the
    # criterion-6 source (1232, 0, 0), inside criterion 7's zeta-window; at
    # other nu every length, the exclusion radius included, scales by
    # (nu/29.2)^2 as on criterion 8's cut.  The y-mirror is the same rows
    scale = (nu / 29.2) ** 2
    spec = cs.energy_from_nu(nu, au)
    rp = np.array([1232.0 * scale, 0.0, 0.0])
    xs = np.linspace(-500.0 * scale, 2000.0 * scale, 401)
    ys = 10.0 * scale * np.arange(1, 131)
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=1)
    sc = eval_sc(pts, rp, spec, au)[0].real.reshape(X.shape)
    qm = qm_field(pts, rp, spec, au).reshape(X.shape)
    s = np.linalg.norm(pts - rp, axis=1).reshape(X.shape)
    ap = np.linalg.norm(pts, axis=1).reshape(X.shape) + rp[0] + s
    keep = s > 5.0 * scale
    window = keep & (np.abs(zeta_of(ap, nu)) >= zeta_window(0.05)) & np.isfinite(sc)
    mref = np.max(np.where(keep, np.abs(qm), 0.0), axis=1)
    dev = np.max(np.where(window, np.abs(sc - qm), 0.0), axis=1) / mref
    assert window.sum() >= X.size // 100  # a hundredth of the plane
    i = int(np.argmax(dev))
    ok = dev[i] <= bound
    print(f"[acceptance] SC plane, nu={nu}: worst row max|SC-QM|/max|QM| = {dev[i]:.4f} "
          f"(bound {bound}) at y = {ys[i] / scale:.0f} unscaled Bohr, over "
          f"{int(window.sum())} of {X.size} points: {'PASS' if ok else 'FAIL'}")
    assert ok, dev[i]
