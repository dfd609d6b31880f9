"""Grid scans, comparison cuts and CSV emission.

Grid points are evaluated by the array kernels (``_kernels.sc_bound_field``,
``ua_field``: NumPy over blocks of points, each point its own slot), and
output rows are assembled in deterministic grid order.  Per-point failures
never abort a scan: they become NaN rows with a reason column.

CSV format: header line, comma-separated, UTF-8, LF line endings, floats
in scientific notation with 17 significant digits.  The text is formatted
in blocks of ``CSV_BLOCK`` rows, one ``%`` operation per block, and is
byte-identical to formatting every value with ``fmt``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import _kernels as K
from .errors import ConfigError
from .model import EnergySpec, SystemParams, energy_eigenvalue, energy_from_nu, quantization_action
from .qm_oracle import qm_field
from .uniform import ua_constants
from .semiclassical import POLE_GUARD, sc_constants

AXIS_NAMES = ("x", "y", "z", "x4", "x5", "x6")

_REGION_NAMES = {K.REGION_ALLOWED: "Allowed", K.REGION_CAUSTIC: "OnCaustic",
                 K.REGION_FORBIDDEN: "Forbidden"}
_REASONS = {K.STATUS_OK: "", K.STATUS_POLE: "pole", K.STATUS_CAUSTIC: "on_caustic",
            K.STATUS_FOCAL: "focal_line", K.STATUS_SOURCE: "source_point",
            K.STATUS_UNSUPPORTED: "unsupported", K.STATUS_UNCONVERGED: "unconverged"}


def fmt(x: float) -> str:
    """One float, scientific, 17 significant digits."""
    if math.isnan(x):
        return "nan"
    return f"{x:.16e}"


#: rows per formatted CSV block (bounds the temporary Python objects)
CSV_BLOCK = 4096

# "region,reason" for every (region, status) code pair
_LABELS = np.array([[f"{_REGION_NAMES[r]},{_REASONS[s]}" for s in sorted(_REASONS)]
                    for r in sorted(_REGION_NAMES)], dtype=object)


def _fmt_strings(values) -> np.ndarray:
    """fmt of each value, as an object array."""
    return np.array([fmt(v) for v in values.tolist()], dtype=object)


def csv_text(header: str, row: str, columns, n: int) -> str:
    """The header line, then ``row`` %-formatted with the values of entry i
    of every column in turn, for i = 0..n-1.

    Columns are arrays: object arrays of strings for ``%s`` fields, float
    arrays for ``%.16e`` fields, which print exactly as ``fmt`` does
    ('nan' for a NaN of either sign).  Each block of CSV_BLOCK entries is
    one ``%`` operation over ``.tolist()`` columns.
    """
    parts = [header + "\n"]
    for i in range(0, n, CSV_BLOCK):
        cols = [c[i:i + CSV_BLOCK].tolist() for c in columns]
        parts.append((row * len(cols[0])) % tuple(chain.from_iterable(zip(*cols))))
    return "".join(parts)


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


@dataclass
class ScanConfig:
    """Everything a scan or cut needs; mirrors the CLI flags."""

    method: str = "sc"  # sc | ua | qm | all
    nu: float | None = None
    energy: float | None = None
    ndim: int = 3
    source: tuple = (1.0, 0.0, 0.0)
    grids: list = field(default_factory=list)  # [(axis, lo, hi, count), ...]
    fixes: dict = field(default_factory=dict)  # axis -> value
    out: str | None = None
    exclude_radius: float = 5.0
    caustic_tol: float = 1e-9

    def validate(self, want_grids: int):
        if self.method not in ("sc", "ua", "qm", "all"):
            raise ConfigError(f"unknown method {self.method!r}")
        if (self.nu is None) == (self.energy is None):
            raise ConfigError("exactly one of nu / energy must be given")
        if self.ndim < 2:
            raise ConfigError("ndim must be >= 2")
        if self.method in ("ua", "qm", "all") and self.ndim != 3:
            raise ConfigError(f"method {self.method!r} requires ndim = 3")
        if len(self.grids) != want_grids:
            raise ConfigError(
                f"expected {want_grids} swept axis(es), got {len(self.grids)}"
            )
        swept = [g[0] for g in self.grids]
        if len(set(swept)) != len(swept):
            raise ConfigError(f"an axis is swept twice: {swept}")
        for ax, lo, hi, count in self.grids:
            if count < 2:
                raise ConfigError(f"grid axis {ax!r} needs count >= 2, got {count}")
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
                raise ConfigError(f"grid axis {ax!r}: bad range [{lo}, {hi}]")
            if ax not in AXIS_NAMES[: self.ndim]:
                raise ConfigError(f"axis {ax!r} not valid for ndim = {self.ndim}")
        for ax, val in self.fixes.items():
            if ax in swept:
                raise ConfigError(f"axis {ax!r} is both swept and fixed")
            if ax not in AXIS_NAMES[: self.ndim]:
                raise ConfigError(f"fixed axis {ax!r} not valid for ndim = {self.ndim}")
            if not math.isfinite(val):
                raise ConfigError(f"fixed axis {ax!r}: value {val} is not finite")
        if len(self.source) != self.ndim:
            raise ConfigError(
                f"source has {len(self.source)} components, ndim = {self.ndim}"
            )
        if not all(math.isfinite(v) for v in self.source):
            raise ConfigError(f"source {self.source} has a non-finite component")
        self.energy_spec(self.params())

    def energy_spec(self, params: SystemParams) -> EnergySpec:
        spec = bound_energy_spec(self.nu, self.energy, params)
        if abs(spec.k - round(spec.k)) < POLE_GUARD:
            raise ConfigError(
                f"nu = {spec.nu} sits on a bound-state pole; offset it"
            )
        return spec

    def params(self) -> SystemParams:
        return SystemParams(ndim=self.ndim)


def bound_energy_spec(nu: float | None, energy: float | None,
                      params: SystemParams) -> EnergySpec:
    """EnergySpec from nu or, when nu is None, from the energy.  Scans, cuts
    and tof evaluate the bound regime only: anything but a finite negative
    energy is a ConfigError."""
    try:
        spec = energy_from_nu(nu, params) if nu is not None \
            else EnergySpec.from_energy(energy, params)
    except (ValueError, OverflowError) as exc:  # OverflowError: nu beyond ~1e154
        raise ConfigError(f"no usable energy for nu = {nu}, energy = {energy}: {exc}") \
            from exc
    if spec.E > 0.0:
        raise ConfigError(f"energy {spec.E} > 0: only the bound regime (E < 0) is evaluated")
    return spec


def _axis_index(ax: str, ndim: int) -> int:
    return AXIS_NAMES[:ndim].index(ax)


def build_points(config: ScanConfig, params: SystemParams):
    """(points array, per-axis coordinate columns) in deterministic
    row-major order: first swept axis outermost."""
    axes = []
    for ax, lo, hi, count in config.grids:
        axes.append((ax, np.linspace(lo, hi, int(count))))
    base = np.zeros(params.ndim)
    for ax, val in config.fixes.items():
        base[_axis_index(ax, params.ndim)] = val
    if len(axes) == 1:
        ax, vals = axes[0]
        pts = np.tile(base, (len(vals), 1))
        pts[:, _axis_index(ax, params.ndim)] = vals
        return pts, [vals]
    (ax1, v1), (ax2, v2) = axes
    pts = np.tile(base, (len(v1) * len(v2), 1))
    c1 = np.repeat(v1, len(v2))
    c2 = np.tile(v2, len(v1))
    pts[:, _axis_index(ax1, params.ndim)] = c1
    pts[:, _axis_index(ax2, params.ndim)] = c2
    return pts, [c1, c2]


def _embed3(points: np.ndarray, ndim: int) -> np.ndarray:
    """Kernel drivers work with 3 columns; pad or reject."""
    if ndim == 3:
        return np.ascontiguousarray(points)
    if ndim == 2:
        out = np.zeros((points.shape[0], 3))
        out[:, :2] = points
        return out
    raise ConfigError("grid evaluation drivers support ndim in {2, 3}")


def eval_sc(points, source, spec: EnergySpec, params: SystemParams,
            caustic_tol: float = 1e-9):
    """Bound semiclassical field over points: (values, region, status)."""
    pts3 = _embed3(points, params.ndim)
    src3 = _embed3(np.asarray(source, float)[None, :], params.ndim)[0]
    return K.sc_bound_field(pts3, src3, *sc_constants(spec, params), caustic_tol, 1e-12)


def eval_ua(points, source, spec: EnergySpec, params: SystemParams):
    """Langer-uniform field over points: (values, region, status)."""
    if params.ndim != 3:
        raise ConfigError("the uniform approximation requires ndim = 3")
    pts3 = _embed3(points, params.ndim)
    src3 = np.asarray(source, float)
    return K.ua_field(pts3, src3, *ua_constants(spec, params), 1e-12)


def eval_qm(points, source, spec: EnergySpec, params: SystemParams):
    """Exact field over points; per-point region/status like the others.
    A value that comes out non-finite is NaN with status unconverged."""
    vals = np.full(points.shape[0], np.nan, dtype=complex)
    region = np.zeros(points.shape[0], dtype=np.int8)
    status = np.zeros(points.shape[0], dtype=np.int8)
    src = np.asarray(source, float)
    r_norm = np.linalg.norm(points, axis=1)
    s_norm = np.linalg.norm(points - src[None, :], axis=1)
    ok = (r_norm > 0.0) & (s_norm > 0.0)
    status[~ok] = K.STATUS_SOURCE
    four_a = 4.0 * spec.a
    ap = r_norm + np.linalg.norm(src) + s_norm
    region[ap > four_a] = K.REGION_FORBIDDEN
    region[np.abs(ap - four_a) <= 1e-9 * four_a] = K.REGION_CAUSTIC
    if np.any(ok):
        v = qm_field(points[ok], src, spec, params)
        idx = np.where(ok)[0]
        bad = ~np.isfinite(v)
        vals[idx[~bad]] = v[~bad]
        status[idx[bad]] = K.STATUS_UNCONVERGED
    return vals, region, status


def run_scan(config: ScanConfig) -> str:
    """2-D scan; returns the CSV text (written to config.out when set)."""
    config.validate(want_grids=2)
    params = config.params()
    spec = config.energy_spec(params)
    points, (c1, c2) = build_points(config, params)

    methods = ["sc", "ua", "qm"] if config.method == "all" else [config.method]
    results = {}
    for m in methods:
        if m == "sc":
            results[m] = eval_sc(points, config.source, spec, params, config.caustic_tol)
        elif m == "ua":
            results[m] = eval_ua(points, config.source, spec, params)
        else:
            results[m] = eval_qm(points, config.source, spec, params)

    # each swept value formatted once: c1 = repeat(v1, n2), c2 = tile(v2, n1)
    n2 = int(config.grids[1][3])
    x_str = np.repeat(_fmt_strings(c1[::n2]), n2)
    y_str = np.tile(_fmt_strings(c2[:n2]), len(c1) // n2)
    row, columns = "", []
    for m in methods:
        vals, region, status = results[m]
        row += f"%s,%s,%.16e,%.16e,{m},%s\n"
        columns += [x_str, y_str, vals.real, vals.imag, _LABELS[region, status]]
    text = csv_text("x,y,re,im,method,region,reason", row, columns, points.shape[0])
    _write(text, config.out)
    return text


def run_cut(config: ScanConfig) -> str:
    """1-D comparison cut: QM reference, primitive SC, uniform UA, and the
    deviations of the latter two relative to max|QM| on the cut.

    Deviation columns are NaN inside the source exclusion radius
    (|r - r'| < exclude_radius), where the shared 1/s singularity swamps
    the comparison.
    """
    config.validate(want_grids=1)
    params = config.params()
    spec = config.energy_spec(params)
    points, (c1,) = build_points(config, params)

    sc_vals, sc_region, sc_status = eval_sc(points, config.source, spec, params,
                                            config.caustic_tol)
    ua_vals, _, ua_status = eval_ua(points, config.source, spec, params)
    qm_vals, _, qm_status = eval_qm(points, config.source, spec, params)

    s = np.linalg.norm(points - np.asarray(config.source, float)[None, :], axis=1)
    excluded = s < config.exclude_radius
    qm_ref = np.where((qm_status == K.STATUS_OK) & ~excluded,
                      np.real(qm_vals), np.nan)
    scale = np.nanmax(np.abs(qm_ref))
    if not math.isfinite(scale) or scale == 0.0:
        raise ConfigError("no usable reference values on the cut")

    dev_sc = (np.real(sc_vals) - np.real(qm_vals)) / scale
    dev_ua = (np.real(ua_vals) - np.real(qm_vals)) / scale
    dev_sc[excluded] = np.nan
    dev_ua[excluded] = np.nan

    text = csv_text("x,G_qm,G_sc,G_ua,dev_sc,dev_ua",
                    "%s,%.16e,%.16e,%.16e,%.16e,%.16e\n",
                    [_fmt_strings(c1), qm_vals.real, sc_vals.real, ua_vals.real,
                     dev_sc, dev_ua], points.shape[0])
    _write(text, config.out)
    return text


def eigenvalue_table(kmax: int, params: SystemParams) -> list[tuple[int, float, float]]:
    """(k, E_k, W_2pi) rows for k = 0..kmax."""
    if kmax < 0:
        raise ConfigError("kmax must be >= 0")
    return [(k, energy_eigenvalue(k, params), quantization_action(k, params))
            for k in range(kmax + 1)]


def load_json_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data
