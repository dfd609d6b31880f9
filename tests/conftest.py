import math

import numpy as np
import pytest

import coulomb_sc as cs


@pytest.fixture(scope="session")
def au():
    return cs.AU


@pytest.fixture()
def rng():
    return np.random.RandomState(20260808)


def random_allowed_pair(rng, params, ndim=3, a_range=(0.5, 50.0),
                        ap_frac=(0.05, 0.95), am_frac=(0.05, 0.95)):
    """Random (r_vec, rp_vec, spec) with the pair safely inside the caustic.

    Draw the orbit scale a, then alpha_plus < 4a and alpha_minus < alpha_plus,
    and realize them geometrically (any alpha_plus >= alpha_minus >= 0 is a
    valid triangle).
    """
    a = math.exp(rng.uniform(math.log(a_range[0]), math.log(a_range[1])))
    spec = cs.EnergySpec.from_energy(-params.Kc / (2.0 * a), params)
    ap = 4.0 * a * rng.uniform(*ap_frac)
    am = ap * rng.uniform(*am_frac)
    s = (ap - am) / 2.0
    rsum = (ap + am) / 2.0
    delta = 0.45 * s * rng.uniform(-1.0, 1.0)
    r = rsum / 2.0 + delta
    rp = rsum / 2.0 - delta
    cos_th = (r * r + rp * rp - s * s) / (2.0 * r * rp)
    cos_th = min(1.0, max(-1.0, cos_th))
    th = math.acos(cos_th)
    r_vec = np.zeros(ndim)
    rp_vec = np.zeros(ndim)
    r_vec[0] = r * math.cos(th)
    r_vec[1] = r * math.sin(th)
    rp_vec[0] = rp
    if ndim > 2:
        # random rotation in the first three axes keeps things generic
        psi = rng.uniform(0.0, 2.0 * math.pi)
        c, s_ = math.cos(psi), math.sin(psi)
        rot = np.eye(ndim)
        rot[0, 0], rot[0, 2], rot[2, 0], rot[2, 2] = c, -s_, s_, c
        r_vec = rot @ r_vec
        rp_vec = rot @ rp_vec
    return r_vec, rp_vec, spec


@pytest.fixture(scope="session")
def fig5_cut(au):
    """The nu = 29.2 comparison cut shared by several acceptance criteria.

    Source at (1232, 0, 0) Bohr, y = 400 Bohr, 251 x-samples covering both
    caustic crossings and the tunnel tails.
    """
    from coulomb_sc.scan import eval_sc, eval_ua
    from coulomb_sc.qm_oracle import qm_field

    spec = cs.energy_from_nu(29.2, au)
    rp = np.array([1232.0, 0.0, 0.0])
    xs = np.linspace(-500.0, 2000.0, 251)
    pts = np.stack([xs, np.full_like(xs, 400.0), np.zeros_like(xs)], axis=1)
    sc_vals, sc_region, sc_status = eval_sc(pts, rp, spec, au)
    ua_vals, _, _ = eval_ua(pts, rp, spec, au)
    qm_vals = qm_field(pts, rp, spec, au)
    return {
        "spec": spec, "rp": rp, "xs": xs, "pts": pts,
        "sc": np.real(sc_vals), "ua": np.real(ua_vals), "qm": qm_vals,
        "sc_region": sc_region,
    }


@pytest.fixture(scope="session")
def nu53_cut(au):
    """Criterion-8 geometry: nu = 5.3 with proportionally scaled lengths."""
    from coulomb_sc.scan import eval_sc, eval_ua
    from coulomb_sc.qm_oracle import qm_field

    scale = (5.3 / 29.2) ** 2
    spec = cs.energy_from_nu(5.3, au)
    rp = np.array([1232.0 * scale, 0.0, 0.0])
    xs = np.linspace(-500.0 * scale, 2000.0 * scale, 251)
    pts = np.stack([xs, np.full_like(xs, 400.0 * scale), np.zeros_like(xs)], axis=1)
    sc_vals, _, _ = eval_sc(pts, rp, spec, au)
    ua_vals, _, _ = eval_ua(pts, rp, spec, au)
    qm_vals = qm_field(pts, rp, spec, au)
    return {
        "spec": spec, "rp": rp, "xs": xs, "pts": pts, "scale": scale,
        "sc": np.real(sc_vals), "ua": np.real(ua_vals), "qm": qm_vals,
    }


def caustic_crossings(xs, pts, rp, spec):
    """x positions where alpha_plus - 4a changes sign along a cut."""
    rn = np.linalg.norm(pts, axis=1)
    sn = np.linalg.norm(pts - rp[None, :], axis=1)
    margin = 4.0 * spec.a - (rn + np.linalg.norm(rp) + sn)
    idx = np.where(np.diff(np.sign(margin)) != 0)[0]
    out = []
    for i in idx:
        x0, x1 = xs[i], xs[i + 1]
        m0, m1 = margin[i], margin[i + 1]
        out.append(x0 - m0 * (x1 - x0) / (m1 - m0))
    return np.array(out)
