"""The block CSV writer against the row-by-row format it replaced.

``run_scan`` and ``run_cut`` build their bytes in blocks of byte matrices,
with the floats from a vectorised ``%.16e``; the text must equal, byte for
byte, the rows built one value at a time with ``scan.fmt`` from the same
arrays, and every float field must equal ``'%.16e' % v``.
"""

from decimal import Decimal

import numpy as np
import pytest

from coulomb_sc import _kernels as K
from coulomb_sc import scan
from coulomb_sc.geometry import REGIONS
from coulomb_sc.scan import ScanConfig, fmt

METHODS = {"sc": lambda pts, cfg, spec, par: scan.eval_sc(pts, cfg.source, spec, par),
           "ua": lambda pts, cfg, spec, par: scan.eval_ua(pts, cfg.source, spec, par),
           "qm": lambda pts, cfg, spec, par: scan.eval_qm(pts, cfg.source, spec, par)}


def reference_scan(cfg):
    par = cfg.params()
    spec = cfg.energy_spec(par)
    points, (c1, c2) = scan.build_points(cfg, par)
    methods = ["sc", "ua", "qm"] if cfg.method == "all" else [cfg.method]
    results = {m: METHODS[m](points, cfg, spec, par) for m in methods}
    lines = ["x,y,re,im,method,region,reason"]
    for i in range(points.shape[0]):
        for m in methods:
            vals, region, status = results[m]
            lines.append(",".join([
                fmt(c1[i]), fmt(c2[i]),
                fmt(float(np.real(vals[i]))), fmt(float(np.imag(vals[i]))),
                m, REGIONS[int(region[i])].value, K.REASONS[int(status[i])],
            ]))
    return "\n".join(lines) + "\n", results


def reference_cut(cfg):
    par = cfg.params()
    spec = cfg.energy_spec(par)
    points, (c1,) = scan.build_points(cfg, par)
    sc = METHODS["sc"](points, cfg, spec, par)[0]
    ua = METHODS["ua"](points, cfg, spec, par)[0]
    qm, _, qm_status = METHODS["qm"](points, cfg, spec, par)
    s = np.linalg.norm(points - np.asarray(cfg.source)[None, :], axis=1)
    excluded = s < cfg.exclude_radius
    scale = np.nanmax(np.abs(np.where((qm_status == K.STATUS_OK) & ~excluded,
                                      qm.real, np.nan)))
    dev_sc = np.where(excluded, np.nan, (sc.real - qm.real) / scale)
    dev_ua = np.where(excluded, np.nan, (ua.real - qm.real) / scale)
    lines = ["x,G_qm,G_sc,G_ua,dev_sc,dev_ua"]
    for i in range(points.shape[0]):
        lines.append(",".join(fmt(float(v)) for v in (c1[i], qm[i].real, sc[i].real,
                                                      ua[i].real, dev_sc[i], dev_ua[i])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [97, scan.CSV_BLOCK])
def test_scan_all_matches_row_by_row(monkeypatch, block):
    monkeypatch.setattr(scan, "CSV_BLOCK", block)
    # the grid passes through the source (20, 0, 0), and y = 0 runs along the
    # focal line behind the force center: NaN rows with reasons
    cfg = ScanConfig(method="all", nu=5.3, source=(20.0, 0.0, 0.0),
                     grids=[("x", -20.0, 40.0, 31), ("y", 0.0, 30.0, 16)])
    text = scan.run_scan(cfg).decode("ascii")
    ref, results = reference_scan(cfg)
    assert text == ref
    statuses = set(np.concatenate([r[2] for r in results.values()]).tolist())
    assert {K.STATUS_OK, K.STATUS_SOURCE, K.STATUS_FOCAL} <= statuses
    assert "nan,nan,sc,Allowed,source_point" in text
    assert ",focal_line\n" in text


def test_scan_bytes_do_not_depend_on_the_field_block(monkeypatch):
    # the array kernels evaluate FIELD_BLOCK points at a time: a tiny scan
    # split into six blocks, the last one partial, writes the bytes of one
    def config():
        return ScanConfig(method="all", nu=5.3, source=(20.0, 0.0, 0.0),
                          grids=[("x", -20.0, 40.0, 31), ("y", 0.0, 30.0, 16)])

    whole = scan.run_scan(config())
    monkeypatch.setattr(K, "FIELD_BLOCK", 97)
    assert scan.run_scan(config()) == whole


def test_cut_matches_row_by_row(monkeypatch):
    monkeypatch.setattr(scan, "CSV_BLOCK", 7)
    cfg = ScanConfig(nu=5.3, source=(20.0, 0.0, 0.0), grids=[("x", -20.0, 40.0, 61)],
                     fixes={"y": 0.0})
    data = scan.run_cut(cfg)
    # bytes, held once; encode() serves callers of the former str return
    assert data.encode("utf-8") == bytes(data)
    text = data.decode("ascii")
    assert text == reference_cut(cfg)
    assert ",nan,nan\n" in text  # the source exclusion


def test_block_formatter_special_values(monkeypatch):
    monkeypatch.setattr(scan, "CSV_BLOCK", 5)
    specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308,
                1.0 / 3.0, -2.5e-17]
    codes = [(r, s) for r in range(len(REGIONS)) for s in range(len(K.REASONS))]
    n = len(codes)
    rng = np.random.default_rng(7)
    x = np.resize(np.array(specials), n)
    y = rng.permutation(x)
    region = np.array([c[0] for c in codes], dtype=np.int8)
    status = np.array([c[1] for c in codes], dtype=np.int8)
    label = scan._LABELS[region, status]
    text = scan.csv_text("a,b,c", "%.16e,%s,%.16e,%s\n",
                         [x, np.array([fmt(v) for v in y], dtype=object), y, label],
                         n).decode("ascii")
    ref = ["a,b,c"] + [",".join([fmt(x[i]), fmt(y[i]), fmt(y[i]),
                                 REGIONS[int(region[i])].value,
                                 K.REASONS[int(status[i])]]) for i in range(n)]
    assert text == "\n".join(ref) + "\n"
    assert "-0.0000000000000000e+00" in text and "-nan" not in text
    assert ",inf," in text and ",-inf," in text


# --- the vectorised %.16e field ---------------------------------------------

def float_lines(values, monkeypatch=None):
    """The writer's float field for each value, one per line (the header
    dropped); with ``monkeypatch``, also the number of ``fmt`` fallbacks."""
    calls = []
    if monkeypatch is not None:
        monkeypatch.setattr(scan, "fmt", lambda v: calls.append(v) or fmt(v))
    text = scan.csv_text("v", "%.16e\n", [values], len(values)).decode("ascii")
    assert text.startswith("v\n")
    return text[2:].splitlines(), len(calls)


def printf(values):
    return ["%.16e" % v for v in np.asarray(values, dtype=float).tolist()]


def test_random_bit_patterns():
    rng = np.random.default_rng(20240607)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    specials = np.array([0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
                         0x7FF8000000000000, 0xFFF8000000000001,  # NaN, signed NaN payload
                         0xFFFFFFFFFFFFFFFF, 0x0000000000000001,  # NaN, smallest subnormal
                         0x800FFFFFFFFFFFFF, 0x0010000000000000,  # largest subnormal, tiny
                         0x8000000000000000, 0x0000000000000000], dtype=np.uint64)
    values = np.concatenate([bits, specials]).view(np.float64)
    exponents = (np.concatenate([bits, specials]) >> np.uint64(52)) & np.uint64(0x7FF)
    assert {0, 0x7FF} <= set(exponents.tolist()) and len(set(exponents.tolist())) == 2048
    assert float_lines(values)[0] == printf(values)


def test_fast_range_takes_no_fallback(monkeypatch):
    rng = np.random.default_rng(11)
    n = 100_000
    values = (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-11, 17, n)
              * rng.choice([-1.0, 1.0], n))
    values[::97] = 0.0
    values[1::97] = -0.0
    values[2::97] = np.nan
    lines, fallbacks = float_lines(values, monkeypatch)
    assert lines == printf(values)
    assert fallbacks == 0


def test_round_half_even_ties():
    # x = n / 2**(k+1) with n odd: x * 10**k = n 5**k / 2 is an exact tie
    rng = np.random.default_rng(3)
    ties = []
    for k in range(1, 28):
        lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        if hi > lo:
            n = rng.integers(lo, hi, size=500) | 1
            ties.append(np.ldexp(n.astype(float), -(k + 1)))
    ties = np.concatenate(ties)
    assert len(ties) > 5000
    values = np.concatenate([ties, -ties])
    assert float_lines(values)[0] == printf(values)


def test_powers_of_ten_and_neighbours():
    p = np.array([float(f"1e{j}") for j in range(-320, 309)])
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    values = np.concatenate([values, -values])
    lines = float_lines(values)[0]
    assert lines == printf(values)
    assert any(s.endswith("e-300") for s in lines) and any(s.endswith("e+300") for s in lines)


def test_fast_range_edges(monkeypatch):
    # k = 16 - floor(log10 |x|): k = 27 is the last fast decade, k = 28 the
    # first one left to fmt; likewise 1e17 is the first value past k = 0
    steps = np.arange(-40, 41)
    values = np.concatenate([x + steps * np.spacing(x)
                             for x in (1e-12, 1e-11, 1e-10, 1e15, 1e16, 1e17)])
    values = np.concatenate([values, -values])
    lines, fallbacks = float_lines(values, monkeypatch)
    assert lines == printf(values)
    # the fast range in exact decimal terms: 10**-11 <= |x| < 10**17
    slow = [not Decimal("1e-11") <= abs(Decimal(v)) < Decimal("1e17") for v in values.tolist()]
    assert 0 < fallbacks == sum(slow) < len(values)


@pytest.mark.parametrize("block", [5, scan.CSV_BLOCK])
def test_strided_and_big_endian_input(monkeypatch, block):
    monkeypatch.setattr(scan, "CSV_BLOCK", block)
    rng = np.random.default_rng(5)
    z = (rng.standard_normal(301) + 1j * rng.standard_normal(301)) * 10.0 ** rng.integers(-20, 20, 301)
    z[::7] = complex(0.0, -0.0)
    for values in (z.real, z.imag, z.real[::3], z.real.astype(">f8"), z.imag.astype(">f8")[::-2]):
        assert float_lines(values)[0] == printf(values)
