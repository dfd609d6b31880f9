"""Grid scans, comparison cuts and CSV emission.

Grid points are evaluated by the array kernels (``_kernels.sc_bound_field``,
``uniform.ua_field``: NumPy over blocks of points, each point its own
slot), which reduce every block to its Lambert lengths (s, alpha_+,
alpha_-) with ``_kernels.lambert_arrays``; the exact reference takes the
same reduction.  ``uniform`` and ``qm_oracle`` are imported by the first
UA or exact evaluation, so a scan compiles only the methods it runs.
All three methods label a point by the one region/status rule of
``_kernels`` (caustic band ``CAUSTIC_TOL``, focal line ``FOCAL_TOL``).
Output rows are assembled in deterministic grid order.  Per-point failures
never abort a scan: they become NaN rows with a reason column.

CSV format: header line, comma-separated, UTF-8, LF line endings, floats
in scientific notation with 17 significant digits, byte-identical to
formatting every value with ``fmt``.  The writer builds each block of
``CSV_BLOCK`` rows as a NUL-padded uint8 matrix, the fields side by side,
and keeps its non-NUL bytes; so every text field must be NUL-free ASCII.
Float fields come from ``_e16``, an exact ``%.16e`` over arrays: values
with 1e-11 <= |v| < 1e17 (the fast range) get their 17 digits in uint64
integer arithmetic, zeros and NaN are constant rows, and everything else
(subnormals, +-inf, tinier or larger values) falls back to ``fmt``, one
value at a time.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .errors import ConfigError, PoleError
from .geometry import REGIONS
from .model import (EnergySpec, SystemParams, bound_regime, check_pole, energy_eigenvalue,
                    energy_from_nu, quantization_action)
from .semiclassical import sc_constants

AXIS_NAMES = ("x", "y", "z", "x4", "x5", "x6")


def fmt(x: float) -> str:
    """One float, scientific, 17 significant digits."""
    if math.isnan(x):
        return "nan"
    return f"{x:.16e}"


#: rows per CSV block (bounds the temporary byte matrices)
CSV_BLOCK = 4096

# "region,reason" for every (region, status) code pair, as ASCII bytes
_LABELS = np.array([[f"{region.value},{reason}" for reason in K.REASONS]
                    for region in REGIONS], dtype="S")

# --- exact %.16e over arrays ------------------------------------------------
# Only typed uint64 operands: under NumPy 1.x promotion a uint64 array
# combined with a Python int becomes float64 and loses bits.
_ONE, _32, _63 = np.uint64(1), np.uint64(32), np.uint64(63)
_LO32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)  # 5**27 < 2**63
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
# the ASCII digits of 0000..9999 and of 00..99, one table entry each
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
                               + np.uint8(ord("0")))
_QUADS = _DIGITS.view(np.uint32).ravel()
_PAIRS = np.ascontiguousarray(_DIGITS[:100, 2:]).view(np.uint16).ravel()
_WIDTH = 23  # "-d.dddddddddddddddde+dd"
_ZERO = np.frombuffer(b"\0" + b"0.0000000000000000e+00", np.uint8)
_NAN = np.frombuffer(b"nan".ljust(_WIDTH, b"\0"), np.uint8)


def _scaled(m, e, k):
    """(floor, round-half-even) of m * 2**e * 10**k, as uint64, for 53-bit
    integers m and k in [0, 27] where the result is below 2**63: the
    product m * 5**k in two limbs (hi, lo), shifted by e + k (-63..5)."""
    p = _POW5[k]
    m0, m1 = m & _LO32, m >> _32
    p0, p1 = p & _LO32, p >> _32
    ll = m0 * p0
    mid = m0 * p1 + m1 * p0  # < 2**63 + 2**53
    with np.errstate(over="ignore"):
        lo = ll + (mid << _32)  # modulo 2**64; the carry goes to hi
    hi = m1 * p1 + (mid >> _32) + (lo < ll)
    s = -(e + k)
    r = np.maximum(s, 0).astype(np.uint64)  # right shift, 0..63
    # hi << (64 - r) in two steps, so that no shift reaches 64; where
    # s <= 0, hi is 0 and the left shift by -s is exact
    q = ((lo >> r) | ((hi << _ONE) << (_63 - r))) << np.maximum(-s, 0).astype(np.uint64)
    half = (_ONE << r) >> _ONE
    rem = lo & ((_ONE << r) - _ONE)
    up = (rem > half) | ((rem == half) & (half > 0) & ((q & _ONE) == _ONE))
    return q, q + up


def _put(rows, col, table, i):
    """The entries table[i] as raw bytes into rows[:, col:col + itemsize]."""
    rows[:, col:col + table.itemsize].view(table.dtype)[:, 0] = table[i]


def _digit_rows(d, exp, neg) -> np.ndarray:
    """Rows "-d.dddddddddddddddde+dd" for 17-digit integers d, decimal
    exponents |exp| < 100 and signs neg (NUL in place of a plus sign)."""
    rows = np.empty((len(d), _WIDTH), np.uint8)
    d = d.astype(np.int64)
    top = d // 10 ** 8
    low = d - top * 10 ** 8
    lead = top // 10 ** 8
    high = top - lead * 10 ** 8
    rows[:, 0] = np.where(neg, np.uint8(ord("-")), np.uint8(0))
    rows[:, 1] = lead + ord("0")
    rows[:, 2] = ord(".")
    h, lo = high // 10 ** 4, low // 10 ** 4
    for col, quad in ((3, h), (7, high - h * 10 ** 4), (11, lo), (15, low - lo * 10 ** 4)):
        _put(rows, col, _QUADS, quad)
    rows[:, 19] = ord("e")
    rows[:, 20] = np.where(exp < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    _put(rows, 21, _PAIRS, np.abs(exp))
    return rows


def _e16(values) -> np.ndarray:
    """``fmt`` of every value, as the NUL-padded rows of a uint8 matrix.

    Values with 1e-11 <= |v| < 1e17 take k = 16 - floor(log10 |v|) in
    [0, 27] and the 17 digits round-half-even(m 5**k / 2**s) in integer
    arithmetic; where log10 is one off next to a power of ten, k is
    redone one step over.  Zeros and NaN are constant rows; every other
    value (subnormals, +-inf, tiny or huge ones) goes through ``fmt``.
    """
    x = np.asarray(values, dtype=np.float64)  # native byte order, any stride
    ax = np.abs(x)
    out = np.zeros((x.size, _WIDTH), np.uint8)
    fast = (ax >= 1e-11) & (ax < 1e17)
    if fast.any():
        idx = np.flatnonzero(fast)
        mant, e = np.frexp(ax[idx])
        m = (mant * 2.0 ** 53).astype(np.uint64)
        e = e.astype(np.int64) - 53
        k = np.clip(16 - np.floor(np.log10(ax[idx])).astype(np.int64), 0, 27)
        q, d = _scaled(m, e, k)
        off = np.flatnonzero((q < _E16) | (q >= _E17))
        if off.size:
            k[off] = np.clip(k[off] + np.where(q[off] < _E16, 1, -1), 0, 27)
            q[off], d[off] = _scaled(m[off], e[off], k[off])
            bad = (q < _E16) | (q >= _E17)  # k out of [0, 27]: left to fmt
            fast[idx[bad]] = False
            idx, d, k = idx[~bad], d[~bad], k[~bad]
        carry = d == _E17  # rounded up to 10**17: the next exponent
        d[carry] = _E16
        k[carry] -= 1
        out[idx] = _digit_rows(d, 16 - k, x[idx] < 0.0)
    zero = ax == 0.0
    if zero.any():
        out[zero] = _ZERO
        out[zero & np.signbit(x), 0] = ord("-")
    nan = np.isnan(x)
    if nan.any():
        out[nan] = _NAN
    rest = ~(fast | zero | nan)
    if rest.any():
        slow = [fmt(v).encode("ascii") for v in x[rest].tolist()]
        width = max(len(b) for b in slow)
        if width > _WIDTH:
            out = np.pad(out, ((0, 0), (0, width - _WIDTH)))
        for i, b in zip(np.flatnonzero(rest).tolist(), slow):
            out[i, :len(b)] = np.frombuffer(b, np.uint8)
    return out


def _as_text(mat) -> np.ndarray:
    """The rows of a uint8 matrix as a fixed-width bytes array."""
    return np.ascontiguousarray(mat).view(f"S{mat.shape[1]}").ravel()


def _text_rows(col) -> np.ndarray:
    """A column of ASCII strings or bytes as NUL-padded uint8 rows."""
    b = np.asarray(col)
    if b.dtype.kind != "S":
        b = b.astype("S")  # raises on non-ASCII text
    b = np.ascontiguousarray(b)
    return b.view(np.uint8).reshape(b.size, b.dtype.itemsize)


_SLOT = re.compile(r"(%s|%\.16e)")


def _block(pieces, columns, i: int, rows: int) -> np.ndarray:
    """Rows i..i+rows-1 of the CSV body as ASCII bytes (a uint8 array):
    a NUL-padded uint8 matrix with the fields side by side, less its NULs."""
    fields = []
    for j, piece in enumerate(pieces):
        if j % 2 == 0:  # literal text
            lit = np.frombuffer(piece.encode("ascii"), np.uint8)
            fields.append(np.broadcast_to(lit, (rows, lit.size)))
            continue
        col = columns[j // 2]
        block = col[0][col[1][i:i + rows]] if isinstance(col, tuple) else col[i:i + rows]
        fields.append(_e16(block) if piece == "%.16e" else _text_rows(block))
    mat = np.concatenate(fields, axis=1)
    return mat[mat != 0]


class CsvBytes(bytearray):
    """A CSV as the ASCII bytes it is built in, held once.  ``encode``
    returns them as bytes, for callers written for the str that run_scan
    and run_cut returned before."""

    def encode(self, encoding: str = "utf-8", errors: str = "strict") -> bytes:
        return bytes(self)


def csv_text(header: str, row: str, columns, n: int) -> CsvBytes:
    """The header line, then one ``row`` for each i = 0..n-1, filled with
    entry i of every column in turn, as ASCII bytes.

    ``row`` is a layout: literal text with ``%s`` slots (text columns:
    arrays of ASCII str or bytes) and ``%.16e`` slots (float arrays,
    printed exactly as ``fmt`` prints them).  A column may also be a pair
    (table, index), meaning table[index[i]] for entry i.  The text is
    built in blocks of CSV_BLOCK entries.
    """
    pieces = _SLOT.split(row)  # literal, slot, literal, ..., literal
    if len(pieces) // 2 != len(columns):
        raise ValueError(f"{len(pieces) // 2} slots in the row, {len(columns)} columns")
    text = CsvBytes(header.encode("ascii") + b"\n")
    for i in range(0, n, CSV_BLOCK):
        text += _block(pieces, columns, i, min(CSV_BLOCK, n - i)).data
    return text


def _write(text: bytes, path: str | None):
    if path:
        with open(path, "wb") as fh:
            fh.write(text)


@dataclass
class ScanConfig:
    """Everything a scan or cut needs: the options of both commands."""

    method: str = "sc"  # sc | ua | qm | all
    nu: float | None = None
    energy: float | None = None
    ndim: int = 3
    source: tuple | None = None  # default (1, 0, ..., 0)
    grids: list = field(default_factory=list)  # [(axis, lo, hi, count), ...]
    fixes: dict = field(default_factory=dict)  # axis -> value
    out: str | None = None
    exclude_radius: float = 5.0

    def validate(self, want_grids: int):
        if self.method not in ("sc", "ua", "qm", "all"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not isinstance(self.ndim, int) or self.ndim != 3:
            # the SC kernels take any n, but their values are right at n = 3
            # only (at n = 2 they are imaginary where the exact G is real);
            # UA and the exact reference exist for n = 3 alone
            raise ConfigError(f"scans and cuts support ndim = 3 only, got {self.ndim!r}: "
                              "their Green values are validated at n = 3 alone")
        if self.source is None:
            self.source = (1.0,) + (0.0,) * (self.ndim - 1)
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
        # lambert_arrays' sums of squares overflow first at a corner of the
        # grid, and then every point comes out NaN with status OK
        ends = {ax: (lo, hi) for ax, lo, hi, _ in self.grids}
        corners = itertools.product(*(ends.get(ax, (self.fixes.get(ax, 0.0),))
                                      for ax in AXIS_NAMES[: self.ndim]))
        with np.errstate(over="ignore", invalid="ignore"):
            lengths = K.lambert_arrays(np.array(list(corners)), self.source)
        if not all(np.isfinite(v).all() for v in lengths):
            raise ConfigError(f"the grid's corners and the source {self.source} are too far "
                              "out: their squared lengths overflow")
        if not (math.isfinite(self.exclude_radius) and self.exclude_radius >= 0.0):
            raise ConfigError(f"exclude radius must be finite and >= 0, "
                              f"got {self.exclude_radius}")
        self.energy_spec(self.params())

    def energy_spec(self, params: SystemParams) -> EnergySpec:
        spec = bound_energy_spec(self.nu, self.energy, params)
        try:
            check_pole(spec)
        except PoleError as exc:
            raise ConfigError(f"nu = {spec.nu} sits on a bound-state pole; offset it") from exc
        return spec

    def params(self) -> SystemParams:
        return SystemParams(ndim=self.ndim)


def bound_energy_spec(nu: float | None, energy: float | None,
                      params: SystemParams) -> EnergySpec:
    """EnergySpec from nu or from the energy, exactly one of which is not
    None.  Scans, cuts and tof evaluate the bound regime only: what
    ``bound_regime`` refuses, and an energy that is not finite and nonzero,
    is a ConfigError."""
    if (nu is None) == (energy is None):
        raise ConfigError("exactly one of nu / energy must be given")
    try:
        spec = energy_from_nu(nu, params) if nu is not None \
            else EnergySpec.from_energy(energy, params)
        bound_regime(spec, params)
    except (ValueError, OverflowError) as exc:  # OverflowError: nu beyond ~1e154
        raise ConfigError(f"no usable energy for nu = {nu}, energy = {energy}: {exc}") \
            from exc
    return spec


def _axis_index(ax: str, ndim: int) -> int:
    return AXIS_NAMES[:ndim].index(ax)


def build_points(config: ScanConfig, params: SystemParams):
    """(points array, per-axis coordinate columns) in deterministic
    row-major order: first swept axis outermost."""
    base = np.zeros(params.ndim)
    for ax, val in config.fixes.items():
        base[_axis_index(ax, params.ndim)] = val
    axes = [np.linspace(lo, hi, int(count)) for _, lo, hi, count in config.grids]
    cols = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
    pts = np.tile(base, (cols[0].size, 1))
    for (ax, *_), col in zip(config.grids, cols):
        pts[:, _axis_index(ax, params.ndim)] = col
    return pts, cols


def eval_sc(points, source, spec: EnergySpec, params: SystemParams):
    """Bound semiclassical field over points: (values, region, status)."""
    return K.sc_bound_field(points, source, *sc_constants(spec, params))


def eval_ua(points, source, spec: EnergySpec, params: SystemParams):
    """Langer-uniform field over points: (values, region, status)."""
    from .uniform import ua_constants, ua_field
    return ua_field(points, source, *ua_constants(spec, params))


def qm_field(points, source, spec: EnergySpec, params: SystemParams):
    """``qm_oracle.qm_field``, imported on the first call.  ``eval_qm``
    looks it up in this module, where a caller may wrap it (the traced
    runs of ``perfbench`` do)."""
    from .qm_oracle import qm_field
    return qm_field(points, source, spec, params)


def eval_qm(points, source, spec: EnergySpec, params: SystemParams):
    """Exact field over points; per-point region/status like the others.
    The exact value is finite on the focal line; the force centre gets
    status source.  A value that comes out non-finite is NaN with status
    unconverged."""
    r, _, s, ap, am = K.lambert_arrays(points, source)
    region, status = K.region_status_array(s, ap, am, 4.0 * spec.a)
    status[status == K.STATUS_FOCAL] = K.STATUS_OK
    status[r <= 0.0] = K.STATUS_SOURCE
    vals = np.full(points.shape[0], np.nan, dtype=complex)
    ok = status == K.STATUS_OK
    if np.any(ok):
        v = qm_field(points[ok], source, spec, params)
        idx = np.where(ok)[0]
        bad = ~np.isfinite(v)
        vals[idx[~bad]] = v[~bad]
        status[idx[bad]] = K.STATUS_UNCONVERGED
    return vals, region, status


def run_scan(config: ScanConfig) -> CsvBytes:
    """2-D scan; returns the CSV bytes (written to config.out when set)."""
    config.validate(want_grids=2)
    params = config.params()
    spec = config.energy_spec(params)
    points, (c1, c2) = build_points(config, params)

    methods = ["sc", "ua", "qm"] if config.method == "all" else [config.method]
    results = {}
    for m in methods:
        if m == "sc":
            results[m] = eval_sc(points, config.source, spec, params)
        elif m == "ua":
            results[m] = eval_ua(points, config.source, spec, params)
        else:
            results[m] = eval_qm(points, config.source, spec, params)

    # each swept value formatted once and looked up per row (c1 = repeat(v1,
    # n2), c2 = tile(v2, n1)); the grid is freed before the text is built
    n, n2 = points.shape[0], int(config.grids[1][3])
    x_table, y_table = _as_text(_e16(c1[::n2])), _as_text(_e16(c2[:n2]))
    del points, c1, c2
    ix, iy = np.divmod(np.arange(n), n2)
    row, columns = "", []
    for m in methods:
        vals, region, status = results[m]
        row += f"%s,%s,%.16e,%.16e,{m},%s\n"
        labels = (_LABELS.ravel(), region * np.int8(_LABELS.shape[1]) + status)
        columns += [(x_table, ix), (y_table, iy), vals.real, vals.imag, labels]
    text = csv_text("x,y,re,im,method,region,reason", row, columns, n)
    _write(text, config.out)
    return text


def run_cut(config: ScanConfig) -> CsvBytes:
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

    sc_vals, _, _ = eval_sc(points, config.source, spec, params)
    ua_vals, _, _ = eval_ua(points, config.source, spec, params)
    qm_vals, _, qm_status = eval_qm(points, config.source, spec, params)

    excluded = K.lambert_arrays(points, config.source)[2] < config.exclude_radius
    # usable values are finite; with none, the maximum is the initial 0
    usable = (qm_status == K.STATUS_OK) & ~excluded
    scale = np.max(np.abs(np.real(qm_vals[usable])), initial=0.0)
    if scale == 0.0:
        raise ConfigError("no usable reference values on the cut")

    dev_sc = (np.real(sc_vals) - np.real(qm_vals)) / scale
    dev_ua = (np.real(ua_vals) - np.real(qm_vals)) / scale
    dev_sc[excluded] = np.nan
    dev_ua[excluded] = np.nan

    text = csv_text("x,G_qm,G_sc,G_ua,dev_sc,dev_ua",
                    "%.16e,%.16e,%.16e,%.16e,%.16e,%.16e\n",
                    [c1, qm_vals.real, sc_vals.real, ua_vals.real,
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
    import json
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path!r} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data
