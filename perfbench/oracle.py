"""Reference values made apart from the program under test.

Exact n = 3 Coulomb Green function in Hostler's closed form (L. Hostler,
J. Math. Phys. 5, 591 (1964)), atomic units, E = -1/(2 nu^2):

    G = Gamma(1 - nu)/(2 pi s) (d_x - d_y)[W_{nu,1/2}(x) M_{nu,1/2}(y)],

x, y = alpha_+-/nu, alpha_+- = r + r' +- s, evaluated with mpmath.  The
derivatives come from the contiguous relations (DLMF 13.15.20, 13.15.23):

    z M'_{k,m}(z) = (z/2 - k) M_{k,m}(z) + (1/2 + m + k) M_{k+1,m}(z)
    z W'_{k,m}(z) = (z/2 - k) W_{k,m}(z) - W_{k+1,m}(z)

Alongside the value the oracle returns a node-free envelope S >= |G|,
built from the local amplitudes of the two one-dimensional factors; the
checks measure deviations in units of S, the pointwise analogue of the
acceptance criteria's max|G| over a cut.

The classical quantities the checks need (region, Airy variable zeta,
inner-leg phase) are closed forms of the Kepler problem, written out here
rather than taken from the package.
"""

from __future__ import annotations

import math

import mpmath as mp

#: working precision of the Whittaker evaluations (decimal digits)
DPS = 20

#: first coefficient of the Airy asymptotic series
AIRY_U1 = 5.0 / 72.0


def lambert(r, rp):
    """(s, alpha_plus, alpha_minus) for two position vectors."""
    rn = math.sqrt(sum(v * v for v in r))
    rpn = math.sqrt(sum(v * v for v in rp))
    s = math.sqrt(sum((u - v) ** 2 for u, v in zip(r, rp)))
    return s, rn + rpn + s, rn + rpn - s


def hostler(r, rp, nu):
    """(G, S): Hostler's exact n = 3 value and its envelope at one pair."""
    s, ap, am = lambert(r, rp)
    with mp.workdps(DPS):
        k, half = mp.mpf(nu), mp.mpf(0.5)
        x, y = mp.mpf(ap) / nu, mp.mpf(am) / nu
        w, w1 = mp.whitw(k, half, x), mp.whitw(k + 1, half, x)
        m, m1 = mp.whitm(k, half, y), mp.whitm(k + 1, half, y)
        dw = ((x / 2 - k) * w - w1) / x
        dm = ((y / 2 - k) * m + (1 + k) * m1) / y
        c = mp.gamma(1 - k) / (2 * mp.pi * s)
        g = c * (dw * m - w * dm)
        qx, qy = _wavenumber2(float(x), nu), _wavenumber2(float(y), nu)
        amp_w = mp.sqrt(w * w + dw * dw / qx)
        amp_m = mp.sqrt(m * m + dm * dm / qy)
        env = abs(c) * amp_w * amp_m * (math.sqrt(qx) + math.sqrt(qy))
        return float(g), float(env)


def _wavenumber2(z, nu):
    """|Q(z)| of the Whittaker equation f'' + Q f = 0, Q = -1/4 + nu/z,
    floored at the Airy scale (nu/z^2)^(2/3) near the turning point z = 4 nu."""
    return max(abs(nu / z - 0.25), (nu / (z * z)) ** (2.0 / 3.0))


def region(alpha_plus, nu):
    """'Allowed' inside the caustic alpha_+ = 4a = 4 nu^2, else 'Forbidden'."""
    return "Allowed" if alpha_plus < 4.0 * nu * nu else "Forbidden"


def half_action(alpha, nu):
    """Bound half action W(alpha) = nu (g + sin g), sin^2(g/2) = alpha/4a,
    for 0 <= alpha <= 4a (a = nu^2, mu = hbar = Kc = 1)."""
    g = 2.0 * math.asin(min(1.0, math.sqrt(alpha / (4.0 * nu * nu))))
    return nu * (g + math.sin(g))


def airy_zeta(alpha_plus, nu):
    """Classical Airy variable of the coalescing path pair: positive inside
    the caustic, negative in the tunnel, zero on it."""
    four_a = 4.0 * nu * nu
    if alpha_plus < four_a:
        return (3.0 * (2.0 * math.pi * nu - 2.0 * half_action(alpha_plus, nu))
                / 4.0) ** (2.0 / 3.0)
    t = math.acosh(math.sqrt(alpha_plus / four_a))
    return -((1.5 * nu * (math.sinh(2.0 * t) - 2.0 * t)) ** (2.0 / 3.0))


def zeta_window(bound):
    """zeta0 = (3 u1 / (2 bound))^(2/3): where the first neglected term of
    the Airy asymptotic series equals the bound (acceptance criteria 7, 8)."""
    return (1.5 * AIRY_U1 / bound) ** (2.0 / 3.0)
