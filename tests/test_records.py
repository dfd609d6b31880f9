"""Every per-point result is a whole record of its own class.

The per-point APIs fill their named tuples positionally through
``model.record``, which checks neither the count nor the order of the
fields; so each returned record must be of its class, hold one value per
field, and equal the record its keyword constructor builds from its own
fields; and a few fields are checked by what they mean, so that one
moved within its record fails here too."""

import pytest

import coulomb_sc as cs

from conftest import random_allowed_pair


def assert_record(rec, cls):
    assert type(rec) is cls, (type(rec), cls)
    assert len(rec) == len(cls._fields), rec
    assert rec == cls(**rec._asdict()), rec


def assert_region(region):
    assert_record(region, cs.RegionClass)
    assert isinstance(region.tag, cs.Region)


def assert_sample(sample, method, r_vec, spec):
    assert_record(sample, cs.FieldSample)
    assert_region(sample.region)
    assert (sample.r, sample.method, sample.E) == (tuple(r_vec), method, spec.E)


@pytest.mark.parametrize("ndim", [2, 3, 4])
def test_every_per_point_api_returns_whole_records(rng, ndim):
    params = cs.SystemParams(ndim=ndim)
    for nu in rng.uniform(5.0, 30.0, 4).tolist():
        spec = cs.energy_from_nu(nu, params)
        assert_record(spec, cs.EnergySpec)
        assert spec.E < 0.0 and spec.nu == spec.k + 1.0 and spec.nu == pytest.approx(nu)
    for _ in range(6):
        # allowed, then beyond the caustic with the inner leg allowed
        r_vec, rp_vec, spec = random_allowed_pair(rng, params, ndim=ndim)
        assert_record(spec, cs.EnergySpec)
        pair = cs.lambert_variables(r_vec, rp_vec, params)
        assert_record(pair, cs.LambertPair)
        assert pair.alpha_plus == pair.r + pair.rp + pair.s
        assert_region(cs.classify_region(pair, spec))
        paths = cs.four_paths(pair, spec, params)
        assert [p.path_id for p in paths] == [1, 2, 3, 4]
        for p in paths:
            assert_record(p, cs.PathQuantity)
        basic = cs.basic_actions(pair, spec, params)
        assert_record(basic, cs.BasicActions)
        assert (basic.w_2pi, basic.t_2pi) == cs.round_trip(spec, params)
        for path_id in (1, 2, 3, 4):
            det = cs.vvpm_det(path_id, pair, spec, params)
            assert_record(det, cs.VvpmValue)
            assert det.path_id == path_id
        assert_sample(cs.green_sc_bound(r_vec, rp_vec, spec, params), "SC", r_vec, spec)
        if ndim == 3:
            assert_sample(cs.green_uniform(r_vec, rp_vec, spec, params), "UA", r_vec, spec)

        r_vec, rp_vec, spec = random_allowed_pair(rng, params, ndim=ndim,
                                                  ap_frac=(1.01, 1.4), am_frac=(0.05, 0.6))
        pair = cs.lambert_variables(r_vec, rp_vec, params)
        assert pair.alpha_minus < 4.0 * spec.a < pair.alpha_plus
        assert_region(cs.classify_region(pair, spec))
        assert_sample(cs.green_sc_tunnel(r_vec, rp_vec, spec, params), "SC", r_vec, spec)
        if ndim == 3:
            assert_sample(cs.green_uniform(r_vec, rp_vec, spec, params), "UA", r_vec, spec)
