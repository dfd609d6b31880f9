"""Output checks, made apart from the program under test.

Every check returns a ``Tally``: the values it looked at and, per reason,
the values that failed.  A reason listed in ``KNOWN_FAULTS`` is a fault of
the program that fails every time on the same inputs; it is counted as
failed but leaves the output correct (``correct`` speaks of the values
that did not fail).  Any other reason makes the run incorrect.

Reference values come from ``oracle`` (Hostler's closed form with mpmath
and closed-form classical quantities), never from the package itself.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import oracle as O

#: failures that are faults of the program, the same on every run
KNOWN_FAULTS = {
    "cut.G_qm_nan_unconverged":
        "cut writes nan in G_qm (and dev_sc, dev_ua) where eval_qm flags the "
        "partial-wave sum unconverged at l_max = 80; the CSV gives no reason",
    "pairs.green_uniform_raises_doubly_forbidden":
        "green_uniform raises RegionError (status unsupported) on doubly "
        "forbidden pairs",
    "pairs.green_sc_tunnel_doubly_forbidden_off":
        "green_sc_tunnel deviates from Hostler's form by more than the "
        "criterion-7 bound on doubly forbidden pairs (alpha_- > 4a)",
}

#: acceptance-criterion bounds the oracle checks use, in units of the
#: envelope S (oracle.hostler): criterion 6 for the UA and 7 for the SC at
#: nu = 29.2, criterion 8 for both on the nu = 5.3 cut
UA_BOUND = 0.01
SC_BOUND = 0.05
LOW_NU_BOUND = 0.10

#: convergence tolerance of the exact reference (eval_qm tail_tol)
QM_TOL = 1e-5

#: y-mirror symmetry of a scan, relative to max|G| on the grid
MIRROR_TOL = 1e-12

#: relative tolerance of recomputed deviation columns
DEV_TOL = 1e-12

FLOAT = r"(?:-?\d\.\d{16}e[+-]\d{2,3}|nan)"
SCAN_HEADER = "x,y,re,im,method,region,reason"
CUT_HEADER = "x,G_qm,G_sc,G_ua,dev_sc,dev_ua"
REASONS = ("", "pole", "on_caustic", "focal_line", "source_point", "unsupported",
           "unconverged")


@dataclass
class Tally:
    """Values checked and values failed, by reason."""

    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)

    def fail(self, reason: str, count: int = 1):
        if count:
            self.failed[reason] += count

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def correct(self) -> bool:
        return all(reason in KNOWN_FAULTS for reason in self.failed)


def fmt(v: float) -> str:
    """Scientific notation with 17 significant digits, as the CSV promises."""
    return "nan" if math.isnan(v) else f"{v:.16e}"


def grid_points(spec: dict) -> np.ndarray:
    """(N, 3) points of a workload's grid or cut, first axis outermost."""
    axes = [np.linspace(lo, hi, n) for _, lo, hi, n in spec["axes"]]
    base = np.zeros(3)
    for ax, val in spec.get("fix", {}).items():
        base["xyz".index(ax)] = val
    if len(axes) == 1:
        pts = np.tile(base, (len(axes[0]), 1))
        pts[:, "xyz".index(spec["axes"][0][0])] = axes[0]
        return pts
    pts = np.tile(base, (len(axes[0]) * len(axes[1]), 1))
    pts[:, "xyz".index(spec["axes"][0][0])] = np.repeat(axes[0], len(axes[1]))
    pts[:, "xyz".index(spec["axes"][1][0])] = np.tile(axes[1], len(axes[0]))
    return pts


def lambert_arrays(pts: np.ndarray, source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = np.asarray(source, float)
    r = np.linalg.norm(pts, axis=1)
    s = np.linalg.norm(pts - src[None, :], axis=1)
    rs = r + float(np.linalg.norm(src))
    return s, rs + s, rs - s


def region_labels(alpha_plus: np.ndarray, four_a: float) -> np.ndarray:
    """The benchmark's own classification, with the package's documented
    1e-9 relative caustic band."""
    lab = np.where(alpha_plus < four_a, "Allowed", "Forbidden").astype(object)
    lab[np.abs(alpha_plus - four_a) <= 1e-9 * four_a] = "OnCaustic"
    return lab


def in_window(method: str, alpha_plus: float, alpha_minus: float, s: float,
              nu: float, bound: float, exclude: float) -> bool:
    """Whether an oracle comparison at this pair is held to ``bound``.

    Both constructions are leading-order asymptotics.  They are held to the
    bound where the first neglected term is below it, fixed before any
    deviation is looked at:
      - outside the source exclusion radius;
      - off the focal line: the inner-leg phase W(alpha_-) is at least
        3/(8 bound), where the first correction of the Bessel-type solution
        at the force centre, 3/(8 W), equals the bound;
      - outside the Airy zone of the inner leg's turning point
        (alpha_- = 4a), |zeta(alpha_-)| >= zeta0(bound), for both methods,
        since the UA takes M in primitive form there;
      - for the SC, also outside the caustic's Airy zone,
        |zeta(alpha_+)| >= zeta0(bound) (criteria 7, 8).
    """
    four_a = 4.0 * nu * nu
    if s < exclude:
        return False
    if O.half_action(min(alpha_minus, four_a), nu) < 3.0 / (8.0 * bound):
        return False
    zeta0 = O.zeta_window(bound)
    if abs(O.airy_zeta(alpha_minus, nu)) < zeta0:
        return False
    return method != "sc" or abs(O.airy_zeta(alpha_plus, nu)) >= zeta0


# --- scan CSV ----------------------------------------------------------------

def check_scan(text: str, spec: dict, rng: np.random.Generator,
               n_oracle: int = 300) -> Tally:
    """Check one ``scan`` CSV: shape and format, region column, NaN rows,
    y-mirror symmetry, and a seeded sample against Hostler's form."""
    method, nu, src = spec["method"], spec["nu"], spec["source"]
    pts = grid_points(spec)
    n = len(pts)
    t = Tally(attempted=n)
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != SCAN_HEADER or len(lines) != n + 2:
        t.fail("scan.shape", n)
        t.notes.append(f"expected header + {n} rows, got {len(lines) - 2} lines")
        return t
    row = re.compile(rf"({FLOAT}),({FLOAT}),({FLOAT}),({FLOAT}),{method},"
                     r"(Allowed|Forbidden|OnCaustic),(\w*)")
    parsed = [row.fullmatch(line) for line in lines[1:-1]]
    if not all(parsed):
        t.fail("scan.format", sum(1 for m in parsed if m is None))
        return t
    cols = list(zip(*(m.groups() for m in parsed)))
    if list(cols[0]) != [fmt(v) for v in pts[:, 0]] or \
            list(cols[1]) != [fmt(v) for v in pts[:, 1]]:
        t.fail("scan.coordinates", n)
        return t
    re_v = np.array(cols[2], float)
    im_v = np.array(cols[3], float)
    region = np.array(cols[4], object)
    reason = np.array(cols[5], object)
    s, ap, am = lambert_arrays(pts, src)

    bad_reason = ~np.isin(reason, REASONS)
    t.fail("scan.reason_unknown", int(bad_reason.sum()))
    mismatch = region != region_labels(ap, 4.0 * nu * nu)
    t.fail("scan.region", int(mismatch.sum()))

    nan = np.isnan(re_v) | np.isnan(im_v)
    t.fail("scan.reason_without_nan", int(((reason != "") & ~nan).sum()))
    outside = s >= spec["exclude"]
    for why in sorted(set(reason[nan & outside])):
        t.fail(f"scan.nan:{why or 'no_reason'}", int((nan & outside & (reason == why)).sum()))

    # y-mirror symmetry on the symmetric grid: row (i, j) against (i, ny-1-j)
    (_, _, _, nx), (_, ylo, yhi, ny) = spec["axes"]
    if ylo == -yhi:
        g = (re_v + 1j * im_v).reshape(nx, ny)
        scale = np.nanmax(np.abs(g))
        diff = np.abs(g - g[:, ::-1]).ravel()
        broken = diff > MIRROR_TOL * scale
        t.fail("scan.mirror_symmetry", int(broken.sum()))
        t.notes.append(f"mirror: max|G(x,y)-G(x,-y)|/max|G| = "
                       f"{np.nanmax(diff) / scale:.2e} (bound {MIRROR_TOL:g})")

    bound = UA_BOUND if method == "ua" else SC_BOUND
    worst, kept = _oracle_sample(t, f"scan.oracle_{method}", method, bound, pts, re_v,
                                 rng.choice(n, size=min(n_oracle, n), replace=False),
                                 s, ap, am, nu, src, spec["exclude"])
    t.notes.append(f"oracle: {kept} of {min(n_oracle, n)} sampled points in the "
                   f"window, max|{method.upper()}-G|/S = {worst:.4f} (bound {bound})")
    return t


def _oracle_sample(t: Tally, reason: str, method: str, bound: float, pts, vals,
                   idx, s, ap, am, nu, src, exclude) -> tuple[float, int]:
    """Compare ``vals`` at the sampled indices with Hostler's form, in units
    of its envelope, inside the method's window; return (max dev, count)."""
    worst, kept = 0.0, 0
    for i in idx:
        if math.isnan(vals[i]) or not in_window(method, ap[i], am[i], s[i], nu,
                                                 bound, exclude):
            continue
        g, env = O.hostler(pts[i], src, nu)
        dev = abs(vals[i] - g) / env
        kept += 1
        worst = max(worst, dev)
        if dev > bound:
            t.fail(reason)
    return worst, kept


# --- cut CSV -----------------------------------------------------------------

def check_cut(text: str, spec: dict) -> Tally:
    """Check one ``cut`` CSV: shape and format, NaN accounting, the exact
    column at every sample against Hostler's form, SC and UA against the
    criterion-8 bound, and the deviation columns recomputed from the cut's
    own columns."""
    nu, src, exclude = spec["nu"], spec["source"], spec["exclude"]
    pts = grid_points(spec)
    n = len(pts)
    t = Tally(attempted=3 * n)  # G_qm, G_sc, G_ua per sample
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != CUT_HEADER or len(lines) != n + 2:
        t.fail("cut.shape", 3 * n)
        t.notes.append(f"expected header + {n} rows, got {len(lines) - 2} lines")
        return t
    row = re.compile(",".join([f"({FLOAT})"] * 6))
    parsed = [row.fullmatch(line) for line in lines[1:-1]]
    if not all(parsed):
        t.fail("cut.format", 3 * sum(1 for m in parsed if m is None))
        return t
    cols = list(zip(*(m.groups() for m in parsed)))
    axis = "xyz".index(spec["axes"][0][0])
    if list(cols[0]) != [fmt(v) for v in pts[:, axis]]:
        t.fail("cut.coordinates", 3 * n)
        return t
    qm, sc, ua, dev_sc, dev_ua = (np.array(c, float) for c in cols[1:])
    s, ap, am = lambert_arrays(pts, src)
    excluded = s < exclude

    t.fail("cut.G_qm_nan_unconverged", int(np.isnan(qm).sum()))
    t.fail("cut.G_sc_nan", int(np.isnan(sc).sum()))
    t.fail("cut.G_ua_nan", int(np.isnan(ua).sum()))

    worst = {"qm": 0.0, "sc": 0.0, "ua": 0.0}
    kept = Counter()
    for i in range(n):
        g, env = O.hostler(pts[i], src, nu)
        if not math.isnan(qm[i]):
            d = abs(qm[i] - g) / env
            worst["qm"] = max(worst["qm"], d)
            kept["qm"] += 1
            if d > QM_TOL:
                t.fail("cut.oracle_qm")
        for name, vals in (("sc", sc), ("ua", ua)):
            if math.isnan(vals[i]) or not in_window(name, ap[i], am[i], s[i], nu,
                                                      LOW_NU_BOUND, exclude):
                continue
            d = abs(vals[i] - g) / env
            worst[name] = max(worst[name], d)
            kept[name] += 1
            if d > LOW_NU_BOUND:
                t.fail(f"cut.oracle_{name}")
    t.notes.append(f"oracle: max|G_qm-G|/S = {worst['qm']:.2e} over {kept['qm']} "
                   f"samples (bound {QM_TOL:g}); max|G_sc-G|/S = {worst['sc']:.4f} "
                   f"over {kept['sc']}, max|G_ua-G|/S = {worst['ua']:.4f} over "
                   f"{kept['ua']} (bound {LOW_NU_BOUND})")

    ref = np.where(~np.isnan(qm) & ~excluded, qm, np.nan)
    scale = np.nanmax(np.abs(ref))
    for name, vals, dev in (("sc", sc, dev_sc), ("ua", ua, dev_ua)):
        want = (vals - qm) / scale
        want[excluded] = np.nan
        same_nan = np.isnan(want) == np.isnan(dev)
        close = np.abs(want - dev) <= DEV_TOL * np.abs(want) + 1e-300
        bad = ~same_nan | (~np.isnan(want) & ~close)
        t.fail(f"cut.dev_{name}_recompute", int(bad.sum()))
    return t


# --- library pairs -----------------------------------------------------------

#: relative tolerances of the pair properties
RECIPROCITY_TOL = 1e-10
ROTATION_TOL = 1e-8
#: the UA beyond the caustic loses up to ~4e-6 relative under a rotation
#: (rounding of the Lambert variables, amplified in the deep tunnel); held
#: to 1e-3 there, which still catches any dependence on direction
UA_TUNNEL_ROTATION_TOL = 1e-3
FD_TOL = 1e-6
CLOSED_FORM_TOL = 1e-10


def check_pairs(records: list[dict]) -> Tally:
    """Check library outputs: Lambert variables and region against the
    benchmark's own closed forms, reduced actions and determinants against
    the closed forms, T = dW/dE by a central difference in E, reciprocity
    and rotation invariance of every Green value, and the n = 3 values
    against Hostler's form inside each method's window."""
    t = Tally()
    worst = Counter()
    for rec in records:
        n, nu, r, rp = rec["n"], rec["nu"], rec["r"], rec["rp"]
        nu_n = nu - 1.0 + (n - 1) / 2.0  # a = nu_n^2, E = -1/(2 nu_n^2)
        four_a = 4.0 * nu_n * nu_n
        s, ap, am = O.lambert(r, rp)
        t.attempted += 2
        # alpha_- = r + r' - s cancels; hold all three to a share of alpha_+
        if max(abs(g - w) for g, w in zip(rec["lambert"], (s, ap, am))) \
                > CLOSED_FORM_TOL * ap:
            t.fail("pairs.lambert_variables")
        if rec["region"] != O.region(ap, nu_n):
            t.fail("pairs.classify_region")

        if "paths" in rec:
            t.attempted += 5
            wp, wm = O.half_action(ap, nu_n), O.half_action(am, nu_n)
            w_want = [wp - wm, wp + wm, 2 * math.pi * nu_n - (wp - wm),
                      2 * math.pi * nu_n - (wp + wm)]
            w_got = [p[0] for p in rec["paths"]]
            if any(abs(g - w) > CLOSED_FORM_TOL * 2 * math.pi * nu_n
                   for g, w in zip(w_got, w_want)):
                t.fail("pairs.four_paths_action")
            e = -0.5 / nu_n ** 2
            for (w_lo, w_hi), p in zip(rec["paths_fd"], rec["paths"]):
                t_fd = (w_hi - w_lo) / (2.0 * rec["fd_step"] * abs(e))
                if abs(t_fd - p[1]) > FD_TOL * abs(p[1]):
                    t.fail("pairs.four_paths_T_not_dW_dE")
                    break
            cv = math.sqrt(2.0 * abs(e))
            vp = cv * math.sqrt((four_a - ap) / ap)
            vm = cv * math.sqrt((four_a - am) / am)
            d1 = (-(vp + vm) / (2.0 * s)) ** (n - 1) / (vp * vm)
            d2 = -((-(vp - vm) / (2.0 * s)) ** (n - 1)) / (vp * vm)
            for got_d, want_d in zip(rec["dets"], (d1, d2, -d1, -d2)):
                if abs(got_d - want_d) > 1e-9 * abs(want_d):
                    t.fail("pairs.vvpm_det")

        for method in ("sc", "ua"):
            if method not in rec:
                continue
            t.attempted += 1
            out = rec[method]
            if "error" in out:
                if method == "ua" and am > four_a:
                    t.fail("pairs.green_uniform_raises_doubly_forbidden")
                else:
                    t.fail(f"pairs.{method}_raised:{out['error']}")
                continue
            v, v_swap, v_rot = (complex(*out[k]) for k in ("value", "swapped", "rotated"))
            if abs(v_swap - v) > RECIPROCITY_TOL * abs(v):
                t.fail(f"pairs.{method}_reciprocity")
            rot_tol = UA_TUNNEL_ROTATION_TOL if method == "ua" and ap > four_a \
                else ROTATION_TOL
            if abs(v_rot - v) > rot_tol * abs(v):
                t.fail(f"pairs.{method}_rotation")
            bound = UA_BOUND if method == "ua" else SC_BOUND
            if n != 3 or not in_window(method, ap, am, s, nu, bound, 0.0):
                continue
            g, env = O.hostler(r, rp, nu)
            dev = abs(v.real - g) / env
            if am > four_a:
                worst[f"{method}_doubly"] = max(worst[f"{method}_doubly"], dev)
                if dev > bound:
                    t.fail(f"pairs.green_{method}_tunnel_doubly_forbidden_off"
                           if method == "sc" else "pairs.oracle_ua_doubly")
                continue
            worst[method] = max(worst[method], dev)
            worst[method + "_n"] += 1
            if dev > bound:
                t.fail(f"pairs.oracle_{method}")
    t.notes.append(f"oracle (n = 3, in window): max|SC-G|/S = {worst['sc']:.4f} over "
                   f"{worst['sc_n']} pairs (bound {SC_BOUND}), max|UA-G|/S = "
                   f"{worst['ua']:.4f} over {worst['ua_n']} (bound {UA_BOUND}); "
                   f"doubly forbidden SC: {worst['sc_doubly']:.3f}")
    return t
