"""The semiclassical (SC) kernels, scalar and array, with what they share
with the other modules: the one-dimensional actions, the Lambert
reduction, the region rule, the odd series tails and ``_map_blocks``.
A kernel with a single user lives with that user: the uniform
approximation's Airy and Langer kernels in ``uniform``, the exact
reference's radial solver in ``qm_oracle``.

Every evaluator sees the endpoints only through their Lambert lengths
(s, alpha_+, alpha_-), alpha_+- = r + r' +- s: the reduction
(``lambert_arrays`` for point sets, ``geometry.lambert_variables`` for
one pair) runs before any kernel.  One rule then labels a point by its
region and status (``region_status``, ``region_status_array``): the
source point s = 0, the focal line alpha_- <= FOCAL_TOL alpha_+, and the
side of the caustic alpha_+ = 4a, with a relative band of CAUSTIC_TOL
labelled on the caustic: ``caustic_region``, which every per-point
function asks of its alphas.  Each method adds only its own statuses.

Each formula has one body, written once over a backend ``xp``: ``_MATH``
(``math``, ``min``, ``_odd_tail``) for the scalar kernels, which serve the
per-point APIs on plain floats without NumPy (``sc_bound_point``;
``uniform.ua_point``), and ``_NUMPY`` (``np``, ``np.minimum``,
``_odd_tail_array``) for the array kernels, which serve the grid scans
over blocks of ``FIELD_BLOCK`` points (``sc_bound_field``,
``uniform.ua_field``).  Each call site names its form, and only the
branch dispatch differs (``if``, or one mask per branch), so both forms
evaluate the same expressions in the same order.  So do the series
(``_odd_series``; the Airy series in ``uniform``): a series loops until
every element meets the scalar stopping rule (``xp.any``/``xp.all``,
``bool`` on a float), and no element is frozen at its own stop, because
each term added after it is below half an ulp of the element's sums.
The caustic band (``_on_caustic``) takes a float or an array alike.  Two
forms are left only where the control flow depends on the data: the
region rule and the Lambert reduction.

The SC value is one prefactor times one real bracket, pref_merged * B /
sin(pi k), with one bracket per branch (``sc_bound_point``): the point
allowed, beyond the caustic, and both legs forbidden.

Conventions used throughout (plain floats, or float arrays in the array
kernels):

    a    -- orbit scale Kc / (2|E|); semimajor axis for E < 0
    sk   -- momentum scale sqrt(2 mu |E|) = sqrt(Kc mu / a)
    cv   -- velocity scale sqrt(2|E| / mu)
    ts   -- time scale mu a / sk = sqrt(mu a^3 / Kc)
    s, ap, am -- the chord s and the Lambert combinations alpha_+-

The one-dimensional reduced actions below are algebraically identical to
the closed arctan/log forms; they are written through the single anomaly
angle gamma(alpha) = 2 asin(sqrt(alpha/4a)), which is the numerically
stable parametrization near both endpoints.
"""

import math
from types import SimpleNamespace

import numpy as np

# --- region / status codes shared with the scan layer ---------------------
REGION_ALLOWED = 0
REGION_CAUSTIC = 1
REGION_FORBIDDEN = 2

STATUS_OK = 0
STATUS_CAUSTIC = 1
STATUS_FOCAL = 2
STATUS_SOURCE = 3
STATUS_UNSUPPORTED = 4
STATUS_UNCONVERGED = 5
#: the reason a scan writes for each status, indexed by its code
REASONS = ("", "on_caustic", "focal_line", "source_point", "unsupported", "unconverged")

#: relative half-width of the band about alpha_+ = 4a labelled on the caustic
CAUSTIC_TOL = 1e-9
#: alpha_- <= FOCAL_TOL alpha_+ is the focal line (endpoints collinear
#: through the force centre)
FOCAL_TOL = 1e-12


# ==========================================================================
# one-dimensional actions, times, velocities
# ==========================================================================

def gamma_angle(alpha, a):
    """Anomaly angle on the principal branch: sin^2(gamma/2) = alpha/(4a)."""
    x = alpha / (4.0 * a)
    if x >= 1.0:
        return math.pi
    if x <= 0.0:
        return 0.0
    return 2.0 * math.asin(math.sqrt(x))


def _half_action(alpha, a, sk, xp):
    """Half-action W(alpha) for bound motion, 0 < alpha < 4a."""
    g = 2.0 * xp.asin(xp.sqrt(alpha / (4.0 * a)))
    return sk * a * (g + xp.sin(g))


def w_bound(alpha, a, sk):
    """Half-action W(alpha) for bound motion, 0 <= alpha <= 4a; an alpha
    outside is read as the nearer end."""
    if alpha <= 0.0:
        return 0.0
    return _half_action(min(alpha, 4.0 * a), a, sk, _MATH)


def v_bound(alpha, a, cv):
    """Collinear speed at path coordinate alpha/2 for bound motion."""
    return cv * math.sqrt((4.0 * a - alpha) / alpha)


def _half_action_beyond(alpha, a, sk, xp):
    """Im W_+ for alpha > 4a: sk a (sinh t - t), t = 2 asinh(sqrt(alpha/4a - 1))."""
    return sk * a * xp.odd_tail(2.0 * xp.asinh(xp.sqrt((alpha - 4.0 * a) / (4.0 * a))), 1.0)


def w_bound_forbidden_im(alpha, a, sk):
    """Im W_+ for bound motion continued past the caustic (alpha > 4a).

    Re W_+ is the alpha-independent half-loop action pi a sk.  The same
    function of alpha is the half-action of repulsive scattering (E > 0)
    on its allowed side alpha >= 4|a|, which vanishes at the turning point.
    It is sk (sqrt((alpha - 4a) alpha)/2 - 2a acosh(sqrt(alpha/4a))) =
    sk a (sinh t - t), t = 2 asinh(sqrt(alpha/4a - 1)), without cancellation.
    """
    if alpha <= 4.0 * a:
        return 0.0
    return _half_action_beyond(alpha, a, sk, _MATH)


def _odd_series(x, sign, xp):
    """The Maclaurin series of _odd_tail, until every element's last term is
    below 1e-17 of its sum (a NaN element stops at once); a term past an
    element's own stop is below half an ulp of its sum and leaves its bits."""
    x2 = x * x
    term = x * x2 / 6.0
    total = term
    k = 1
    while xp.any(abs(term) > 1e-17 * total):
        term = term * (sign * x2 / ((2.0 * k + 2.0) * (2.0 * k + 3.0)))
        total = total + term
        k += 1
    return total


def _odd_tail(x, sign):
    """x - sin(x) (sign = -1) or sinh(x) - x (sign = +1), x >= 0, without
    cancellation for small x."""
    if x > 0.5:
        return x - math.sin(x) if sign < 0.0 else math.sinh(x) - x
    return _odd_series(x, sign, _MATH)


def _odd_tail_array(x, sign):
    """_odd_tail over an array."""
    out = np.empty_like(x)
    big = x > 0.5
    xb = x[big]
    out[big] = xb - np.sin(xb) if sign < 0.0 else np.sinh(xb) - xb
    out[~big] = _odd_series(x[~big], sign, _NUMPY)
    return out


#: the backends of the shared bodies: _MATH for scalar kernels, _NUMPY for array ones
#: (the series and the caustic band call the builtin abs, which takes arrays too)
_MATH = SimpleNamespace(sqrt=math.sqrt, asin=math.asin, asinh=math.asinh, sin=math.sin,
                        cos=math.cos, exp=math.exp, hypot=math.hypot, atan2=math.atan2,
                        copysign=math.copysign, abs=abs, minimum=min, odd_tail=_odd_tail,
                        any=bool, all=bool)
_NUMPY = SimpleNamespace(sqrt=np.sqrt, asin=np.arcsin, asinh=np.arcsinh, sin=np.sin,
                         cos=np.cos, exp=np.exp, hypot=np.hypot, atan2=np.arctan2,
                         copysign=np.copysign, abs=np.abs, minimum=np.minimum,
                         odd_tail=_odd_tail_array, any=np.any, all=np.all)


# ==========================================================================
# Lambert reduction and the region/status rule
# ==========================================================================

def lambert_arrays(points, source):
    """(r, rp, s, alpha_plus, alpha_minus) for the rows of ``points``
    (N x n) against one ``source`` point (n components): r = |x|,
    rp = |x'| (a float), s = |x - x'|.  The squares are summed column by
    column, in the order of the components."""
    points = np.asarray(points, dtype=float)
    source = np.asarray(source, dtype=float).tolist()
    if points.ndim != 2 or points.shape[1] != len(source):
        raise ValueError(f"points of shape {points.shape} against a source "
                         f"of {len(source)} components")
    r2 = np.zeros(points.shape[0])
    s2 = np.zeros(points.shape[0])
    rp2 = 0.0
    for x, xp in zip(points.T, source):
        d = x - xp
        r2 += x * x
        s2 += d * d
        rp2 += xp * xp
    r = np.sqrt(r2)
    rp = math.sqrt(rp2)
    s = np.sqrt(s2)
    return r, rp, s, r + rp + s, r + rp - s


def _on_caustic(alpha, four_a):
    """alpha within CAUSTIC_TOL * 4a of the caustic alpha = 4a (float or array)."""
    return abs(alpha - four_a) <= CAUSTIC_TOL * four_a


def caustic_region(alpha, four_a):
    """REGION_* code of one alpha against the caustic alpha = 4a: on it
    within CAUSTIC_TOL * 4a, else allowed below and forbidden above."""
    if _on_caustic(alpha, four_a):
        return REGION_CAUSTIC
    return REGION_ALLOWED if alpha < four_a else REGION_FORBIDDEN


def region_status(s, ap, am, four_a):
    """(region, status) of one point: the region is caustic_region of
    alpha_+; the status is STATUS_SOURCE at s = 0, STATUS_FOCAL on the
    focal line and STATUS_OK elsewhere."""
    region = caustic_region(ap, four_a)
    if s <= 0.0:
        return region, STATUS_SOURCE
    return region, STATUS_FOCAL if am <= FOCAL_TOL * ap else STATUS_OK


def region_status_array(s, ap, am, four_a):
    """region_status over arrays: int8 (region, status)."""
    region = np.where(ap < four_a, REGION_ALLOWED, REGION_FORBIDDEN).astype(np.int8)
    region[_on_caustic(ap, four_a)] = REGION_CAUSTIC
    status = np.where(am <= FOCAL_TOL * ap, STATUS_FOCAL, STATUS_OK).astype(np.int8)
    status[s <= 0.0] = STATUS_SOURCE
    return region, status


# ==========================================================================
# semiclassical kernels (bound E < 0)
# ==========================================================================

def _sc_allowed(s, ap, am, a, k, ndim, mu, hbar, sk, cv, xp):
    """Bracket where the point is allowed (alpha_+ < 4a): the merged
    interference of the two path families."""
    p = (ndim - 1.0) / 2.0
    vp = cv * xp.sqrt((4.0 * a - ap) / ap)
    vm = cv * xp.sqrt((4.0 * a - am) / am)
    wp = _half_action(ap, a, sk, xp)
    wm = _half_action(am, a, sk, xp)
    den = xp.sqrt(vp * vm)
    sd1 = (mu * (vp + vm) / (2.0 * s)) ** p / den
    # mu (v_- - v_+)/2s as vvpm_det takes it, without the difference, which
    # cancels as the endpoints close in: v_-^2 - v_+^2 = 8 a s cv^2/(alpha_+ alpha_-)
    sd2 = (4.0 * a * mu * cv * cv / (ap * am * (vp + vm))) ** p / den
    w1 = wp - wm
    w2 = wp + wm
    return (sd1 * xp.cos(w1 / hbar - math.pi * ((ndim - 1.0) / 4.0 + k))
            + sd2 * xp.sin(math.pi * (3.0 * (ndim - 1.0) / 4.0 + k) - w2 / hbar))


def _sc_tunnel(s, ap, am, a, k, ndim, mu, hbar, sk, cv, xp):
    """Real bracket beyond the caustic with the inner leg allowed: the
    two-path continuation v_+ -> i w, W_+ -> pi a sk + i K times the loop
    factor 1/2 + (i/2) cot(pi k), summed to
        (mu |v_- + i w| / 2s)^p e^(-K/hbar)
        cos(p atan2(w, v_-) + pi (p/2 - 1/4) - W_-/hbar) / sqrt(w v_-),
    at n = 3 Hostler's bracket with the decaying outer solution."""
    p = (ndim - 1.0) / 2.0
    vm = cv * xp.sqrt((4.0 * a - am) / am)
    w = cv * xp.sqrt((ap - 4.0 * a) / ap)
    return ((mu * xp.hypot(vm, w) / (2.0 * s)) ** p
            * xp.exp(-_half_action_beyond(ap, a, sk, xp) / hbar)
            * xp.cos(p * xp.atan2(w, vm) + math.pi * (0.5 * p - 0.25)
                     - _half_action(am, a, sk, xp) / hbar) / xp.sqrt(w * vm))


def _sc_doubly(s, ap, am, a, k, ndim, mu, hbar, sk, cv, xp):
    """Real bracket where both legs are forbidden, w = cv sqrt((alpha - 4a)/alpha):
        [-2 sin(pi k) (mu (w_+ + w_-)/2s)^p e^(-(K_+ - K_-)/hbar)
         + cos(pi k) (mu (w_+ - w_-)/2s)^p e^(-(K_+ + K_-)/hbar)] / (2 sqrt(w_+ w_-)),
    at n = 3 Hostler's bracket with the decaying outer solution and the
    inner one continued past its turning point,
    M = |Q|^(-1/4) [sin(pi nu) e^K - cos(pi nu) e^(-K) / 2]."""
    p = (ndim - 1.0) / 2.0
    wp = cv * xp.sqrt((ap - 4.0 * a) / ap)
    wm = cv * xp.sqrt((am - 4.0 * a) / am)
    kp = _half_action_beyond(ap, a, sk, xp)
    km = _half_action_beyond(am, a, sk, xp)
    return (-2.0 * math.sin(math.pi * k) * (mu * (wp + wm) / (2.0 * s)) ** p
            * xp.exp((km - kp) / hbar)
            + math.cos(math.pi * k) * (mu * (wp - wm) / (2.0 * s)) ** p
            * xp.exp(-(kp + km) / hbar)) / (2.0 * xp.sqrt(wp * wm))


def sc_bound_point(s, ap, am, a, k, ndim, mu, hbar, sk, cv, pref_merged, sinpk):
    """Semiclassical bound-state Green value at one point,
    pref_merged * B / sin(pi k), p = (n - 1)/2, with a real bracket B:
    ``_sc_allowed`` where the point is allowed (alpha_+ < 4a),
    ``_sc_tunnel`` beyond it with the inner leg allowed and ``_sc_doubly``
    with both legs forbidden.  The value is real (odd n) or imaginary
    (even n), its zero part +0.0.  Besides the source and the focal line,
    the caustic band and the inner leg's turning point alpha_- = 4a (within
    CAUSTIC_TOL * 4a) get NaN, with STATUS_CAUSTIC.

    Returns (value, region_code, status_code).
    """
    four_a = 4.0 * a
    region, status = region_status(s, ap, am, four_a)
    if status == STATUS_OK and (region == REGION_CAUSTIC
                                or caustic_region(am, four_a) == REGION_CAUSTIC):
        # on the caustic, or the inner leg at its own turning point (v_minus = 0)
        status = STATUS_CAUSTIC
    if status != STATUS_OK:
        return complex(math.nan, math.nan), region, status
    bracket = _sc_allowed if ap < four_a else _sc_tunnel if am < four_a else _sc_doubly
    br = bracket(s, ap, am, a, k, ndim, mu, hbar, sk, cv, _MATH)
    # adding 0j makes the zero part +0.0, whatever the signs of the factors
    return pref_merged * br / sinpk + 0j, region, STATUS_OK


# ==========================================================================
# array drivers: the scalar kernels' dispatch over blocks of points
# ==========================================================================

#: points per block of the array kernels: it bounds the temporaries, and a
#: block of the UA kernel makes several hundred NumPy calls whatever its size
FIELD_BLOCK = 16384


def _map_blocks(block_kernel, points, source, *args):
    """(values, region, status) of block_kernel(s, ap, am, *args) over
    blocks of FIELD_BLOCK rows of points (N x n), each block reduced to
    its Lambert lengths first."""
    n = points.shape[0]
    vals = np.empty(n, dtype=np.complex128)
    region = np.empty(n, dtype=np.int8)
    status = np.empty(n, dtype=np.int8)
    for i in range(0, n, FIELD_BLOCK):
        b = slice(i, i + FIELD_BLOCK)
        _, _, s, ap, am = lambert_arrays(points[b], source)
        vals[b], region[b], status[b] = block_kernel(s, ap, am, *args)
    return vals, region, status


def _sc_bound_block(s, ap, am, a, k, ndim, mu, hbar, sk, cv, pref_merged, sinpk):
    four_a = 4.0 * a
    region, status = region_status_array(s, ap, am, four_a)
    # on the caustic, or the inner leg at its own turning point (v_minus = 0)
    status[(status == STATUS_OK)
           & ((region == REGION_CAUSTIC) | _on_caustic(am, four_a))] = STATUS_CAUSTIC
    rest = status == STATUS_OK
    inside = ap < four_a
    br = np.full(ap.shape, math.nan)
    for bracket, ok in ((_sc_allowed, rest & inside),
                        (_sc_tunnel, rest & ~inside & (am < four_a)),
                        (_sc_doubly, rest & (am >= four_a))):
        br[ok] = bracket(s[ok], ap[ok], am[ok], a, k, ndim, mu, hbar, sk, cv, _NUMPY)
    # adding 0j makes the zero part +0.0, whatever the signs of the factors
    return pref_merged * br / sinpk + 0j, region, status


def sc_bound_field(points, source, a, k, ndim, mu, hbar, sk, cv, pref_merged, sinpk):
    """sc_bound_point at every row of points (N x n), array-wise."""
    return _map_blocks(_sc_bound_block, points, source, a, k, ndim, mu, hbar, sk, cv,
                       pref_merged, sinpk)
