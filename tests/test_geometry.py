import math

import numpy as np
import pytest

import coulomb_sc as cs
from coulomb_sc import _kernels as K
from coulomb_sc import uniform as U
from coulomb_sc.errors import DimensionMismatchError, ForbiddenRegionError
from coulomb_sc.scan import eval_qm
from coulomb_sc.semiclassical import sc_constants
from coulomb_sc.uniform import ua_constants

from conftest import random_allowed_pair
from oracles import action_via_anomalies
from test_array_kernels import elliptic_points


def test_three_four_five():
    pair = cs.lambert_variables([0.0, 4.0, 0.0], [3.0, 0.0, 0.0])
    assert (pair.r, pair.rp, pair.s) == (4.0, 3.0, 5.0)
    assert pair.alpha_plus == 12.0
    assert pair.alpha_minus == 2.0


def test_coincident_points():
    pair = cs.lambert_variables([1.0, 2.0, 2.0], [1.0, 2.0, 2.0])
    assert pair.s == 0.0
    assert pair.alpha_plus == pair.alpha_minus == 2.0 * 3.0


def test_comparison_cut_geometry():
    # the geometry used throughout the comparison cut: source on the x axis,
    # field point displaced by 400 Bohr
    pair = cs.lambert_variables([1232.0, 400.0, 0.0], [1232.0, 0.0, 0.0])
    assert pair.s == 400.0
    r = math.hypot(1232.0, 400.0)
    assert pair.alpha_minus == pytest.approx(1232.0 + r - 400.0, rel=1e-15)
    assert pair.alpha_plus == pytest.approx(1232.0 + r + 400.0, rel=1e-15)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cs.lambert_variables([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        cs.lambert_variables([1.0, 2.0], [0.0, 1.0], cs.AU)  # ndim = 3
    with pytest.raises(DimensionMismatchError):
        cs.lambert_variables([[1.0, 2.0, 3.0]], [[0.0, 1.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        cs.lambert_variables(1.0, 2.0)


@pytest.mark.parametrize("ndim", [2, 3, 4])
def test_lengths_against_numpy_norm(ndim):
    # math.hypot / math.dist against np.linalg.norm, over seven decades
    rng = np.random.default_rng(20261018 + ndim)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3.0, 4.0, size=2)
        r_vec = rng.normal(size=ndim) * scale[0]
        rp_vec = rng.normal(size=ndim) * scale[1]
        pair = cs.lambert_variables(r_vec, rp_vec)
        want = (np.linalg.norm(r_vec), np.linalg.norm(rp_vec), np.linalg.norm(r_vec - rp_vec))
        for got, w in zip((pair.r, pair.rp, pair.s), want):
            assert type(got) is float
            assert abs(got - w) <= 4e-16 * w
        assert pair.alpha_plus == pair.r + pair.rp + pair.s
        assert pair.alpha_minus == pair.r + pair.rp - pair.s


def test_input_types():
    want = cs.lambert_variables(np.array([3.0, 4.0, 0.0]), np.array([0.0, 0.0, 12.0]))
    assert (want.r, want.rp, want.s) == (5.0, 12.0, 13.0)
    for r_vec, rp_vec in (([3.0, 4.0, 0.0], [0.0, 0.0, 12.0]),
                          ((3.0, 4.0, 0.0), (0.0, 0.0, 12.0)),
                          ([3, 4, 0], (0, 0, 12))):
        pair = cs.lambert_variables(r_vec, rp_vec, cs.AU)
        assert pair == want
        assert all(type(v) is float for v in (pair.r, pair.rp, pair.s))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_component(bad):
    # math.hypot(inf, nan) is inf: unchecked, such a pair would pass as a
    # point far beyond the caustic
    for r_vec, rp_vec in (([bad, 2.0, 3.0], [1.0, 0.0, 0.0]),
                          ([1.0, 2.0, 3.0], [1.0, bad, 0.0]),
                          ([math.inf, math.nan, 3.0], [1.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            cs.lambert_variables(r_vec, rp_vec)


def test_triangle_inequality_nonnegative_alpha_minus(rng):
    for _ in range(500):
        r_vec = rng.uniform(-10, 10, size=3)
        rp_vec = rng.uniform(-10, 10, size=3)
        pair = cs.lambert_variables(r_vec, rp_vec)
        assert pair.alpha_minus >= -1e-12 * pair.alpha_plus
        assert pair.alpha_plus >= pair.alpha_minus
        assert pair.alpha_plus - pair.alpha_minus == pytest.approx(2 * pair.s, rel=1e-12)


def test_classification_bound(au):
    spec = cs.EnergySpec.from_energy(-0.5, au)  # a = 1
    mk = lambda ap: cs.LambertPair(r=ap / 4, rp=ap / 4, s=ap / 2, alpha_plus=ap,
                                   alpha_minus=0.0)
    assert cs.classify_region(mk(2.0), spec).tag is cs.Region.ALLOWED
    assert cs.classify_region(mk(4.0), spec).tag is cs.Region.ON_CAUSTIC
    assert cs.classify_region(mk(4.1), spec).tag is cs.Region.FORBIDDEN
    assert cs.classify_region(mk(2.0), spec).margin == pytest.approx(0.5)


def test_classification_scattering(au):
    spec = cs.EnergySpec.from_energy(0.5, au)  # |a| = 1
    pair = cs.LambertPair(r=1.0, rp=1.0, s=0.0, alpha_plus=2.0, alpha_minus=2.0)
    # repulsive: allowed only outside alpha_minus = 4|a|
    assert cs.classify_region(pair, spec, attractive=False).tag is cs.Region.FORBIDDEN
    far = cs.LambertPair(r=3.0, rp=3.0, s=1.0, alpha_plus=7.0, alpha_minus=5.0)
    assert cs.classify_region(far, spec, attractive=False).tag is cs.Region.ALLOWED
    # attractive scattering reaches everywhere
    assert cs.classify_region(pair, spec, attractive=True).tag is cs.Region.ALLOWED


def test_classification_rotation_invariant(au, rng):
    spec = cs.EnergySpec.from_energy(-0.005, au)
    for _ in range(50):
        r_vec = rng.uniform(-80, 80, size=3)
        rp_vec = rng.uniform(-80, 80, size=3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = cs.classify_region(cs.lambert_variables(r_vec, rp_vec), spec)
        b = cs.classify_region(cs.lambert_variables(q @ r_vec, q @ rp_vec), spec)
        assert a.tag is b.tag
        assert a.margin == pytest.approx(b.margin, rel=1e-9)


def test_anomaly_angles_limits(au):
    a = 1.0
    on_caustic = cs.LambertPair(r=1.0, rp=1.0, s=2.0, alpha_plus=4.0, alpha_minus=0.0)
    gamma, delta = cs.anomaly_angles(on_caustic, a)
    assert gamma == pytest.approx(math.pi)
    assert delta == 0.0
    half = cs.LambertPair(r=0.5, rp=0.5, s=1.0, alpha_plus=2.0, alpha_minus=0.0)
    gamma, _ = cs.anomaly_angles(half, a)
    assert gamma == pytest.approx(math.pi / 2)
    forb = cs.LambertPair(r=2.0, rp=2.0, s=1.0, alpha_plus=5.0, alpha_minus=3.0)
    with pytest.raises(ForbiddenRegionError):
        cs.anomaly_angles(forb, a)


def test_action_via_anomalies_degenerate(au):
    assert action_via_anomalies(0.7, 0.7, 1.0, au) == 0.0
    assert action_via_anomalies(math.pi, 0.0, 1.0, au) == pytest.approx(math.pi)


def test_anomaly_action_matches_one_dimensional_forms(au, rng):
    # W(gamma, delta) == W_+(alpha_plus) - W_-(alpha_minus) on the allowed side
    for _ in range(200):
        r_vec, rp_vec, spec = random_allowed_pair(rng, au)
        pair = cs.lambert_variables(r_vec, rp_vec)
        gamma, delta = cs.anomaly_angles(pair, spec.a)
        via_angles = action_via_anomalies(gamma, delta, spec.a, au)
        direct = (cs.reduced_action_bound(pair.alpha_plus, spec, au)
                  - cs.reduced_action_bound(pair.alpha_minus, spec, au))
        assert via_angles == pytest.approx(direct, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("ndim", [2, 3, 4, 5])
def test_lambert_arrays_against_numpy_norm(ndim, rng):
    # lengths over seven decades, summed column by column: the same floats
    # as np.linalg.norm row by row
    pts = rng.normal(size=(3000, ndim)) * 10.0 ** rng.uniform(-3.0, 4.0, size=(3000, 1))
    src = rng.normal(size=ndim) * 50.0
    r, rp, s, ap, am = K.lambert_arrays(pts, src)
    np.testing.assert_array_equal(r, np.linalg.norm(pts, axis=1))
    np.testing.assert_array_equal(s, np.linalg.norm(pts - src[None, :], axis=1))
    assert isinstance(rp, float) and rp == pytest.approx(np.linalg.norm(src), rel=4e-16)
    np.testing.assert_array_equal(ap, r + rp + s)
    np.testing.assert_array_equal(am, r + rp - s)
    with pytest.raises(ValueError):
        K.lambert_arrays(pts, src[:-1])


def test_one_region_rule_for_every_method(au):
    # points 1e-8 (relative) outside and inside the caustic, and one inside
    # its 1e-9 band: SC, UA, the exact reference and classify_region give
    # each the same region
    spec = cs.energy_from_nu(5.3, au)
    four_a = 4.0 * spec.a
    rp = 20.0
    rp_vec = np.array([rp, 0.0, 0.0])
    offsets = np.array([1e-8, -1e-8, 1e-10])
    v = np.array([-0.5, 0.3, 0.1]) * rp
    pts = elliptic_points(rp, four_a * (1.0 + offsets) - rp, v)
    _, _, s, ap, am = K.lambert_arrays(pts, rp_vec)
    np.testing.assert_allclose(ap / four_a - 1.0, offsets, rtol=1e-5)
    want = [K.REGION_FORBIDDEN, K.REGION_ALLOWED, K.REGION_CAUSTIC]
    for _, region, _ in (K.sc_bound_field(pts, rp_vec, *sc_constants(spec, au)),
                         U.ua_field(pts, rp_vec, *ua_constants(spec, au)),
                         eval_qm(pts, rp_vec, spec, au)):
        assert region.tolist() == want
    tags = {K.REGION_ALLOWED: cs.Region.ALLOWED, K.REGION_CAUSTIC: cs.Region.ON_CAUSTIC,
            K.REGION_FORBIDDEN: cs.Region.FORBIDDEN}
    for lengths, code in zip(zip(s.tolist(), ap.tolist(), am.tolist()), want):
        pair = cs.LambertPair(math.nan, math.nan, *lengths)
        assert cs.classify_region(pair, spec).tag is tags[code]
