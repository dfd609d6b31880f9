"""The block CSV writer against the row-by-row format it replaced.

``run_scan`` and ``run_cut`` format their columns in blocks, one ``%``
operation per block; the text must equal, byte for byte, the rows built
one value at a time with ``scan.fmt`` from the same arrays.
"""

import numpy as np
import pytest

from coulomb_sc import _kernels as K
from coulomb_sc import scan
from coulomb_sc.scan import ScanConfig, fmt

METHODS = {"sc": lambda pts, cfg, spec, par: scan.eval_sc(pts, cfg.source, spec, par,
                                                          cfg.caustic_tol),
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
                m, scan._REGION_NAMES[int(region[i])], scan._REASONS[int(status[i])],
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
    text = scan.run_scan(cfg)
    ref, results = reference_scan(cfg)
    assert text == ref
    statuses = set(np.concatenate([r[2] for r in results.values()]).tolist())
    assert {K.STATUS_OK, K.STATUS_SOURCE, K.STATUS_FOCAL} <= statuses
    assert "nan,nan,sc,Allowed,source_point" in text
    assert ",focal_line\n" in text


def test_cut_matches_row_by_row(monkeypatch):
    monkeypatch.setattr(scan, "CSV_BLOCK", 7)
    cfg = ScanConfig(nu=5.3, source=(20.0, 0.0, 0.0), grids=[("x", -20.0, 40.0, 61)],
                     fixes={"y": 0.0})
    text = scan.run_cut(cfg)
    assert text == reference_cut(cfg)
    assert ",nan,nan\n" in text  # the source exclusion


def test_block_formatter_special_values(monkeypatch):
    monkeypatch.setattr(scan, "CSV_BLOCK", 5)
    specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308,
                1.0 / 3.0, -2.5e-17]
    codes = [(r, s) for r in sorted(scan._REGION_NAMES) for s in sorted(scan._REASONS)]
    n = len(codes)
    rng = np.random.default_rng(7)
    x = np.resize(np.array(specials), n)
    y = rng.permutation(x)
    region = np.array([c[0] for c in codes], dtype=np.int8)
    status = np.array([c[1] for c in codes], dtype=np.int8)
    label = scan._LABELS[region, status]
    text = scan.csv_text("a,b,c", "%.16e,%s,%.16e,%s\n",
                         [x, np.array([fmt(v) for v in y], dtype=object), y, label], n)
    ref = ["a,b,c"] + [",".join([fmt(x[i]), fmt(y[i]), fmt(y[i]),
                                 scan._REGION_NAMES[int(region[i])],
                                 scan._REASONS[int(status[i])]]) for i in range(n)]
    assert text == "\n".join(ref) + "\n"
    assert "-0.0000000000000000e+00" in text and "-nan" not in text
    assert ",inf," in text and ",-inf," in text
