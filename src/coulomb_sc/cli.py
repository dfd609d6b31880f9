"""Command-line front end.

Subcommands
-----------
eigenvalues  bound-state table (k, E_k, W_2pi)
scan         2-D field scan -> CSV (x,y,re,im,method,region,reason)
cut          1-D method-comparison cut -> CSV (x,G_qm,G_sc,G_ua,dev_sc,dev_ua)
tof          reduced actions, travel times and Morse indices of the four
             elementary paths for one endpoint pair

scan and cut take --nu | --energy (one of), --ndim, --source x,y[,z],
--fix ax:val (repeatable), --out and --config file.json; scan adds --grid
ax:lo:hi:count (twice) and --method {sc,ua,qm,all}, cut adds --cut
ax:lo:hi:count and --exclude-radius.  Each command's parser declares what
it reads: it refuses any other flag, and the config file may hold only its
options (dashes as underscores); explicit flags override the file.
Defaults: atomic units, ndim=3, method=sc, exclusion radius 5 Bohr.
Without --out, scan and cut write the CSV to stdout.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

if __name__ == "__main__":
    # before the imports below: importing NumPy runs some thirty cyclic
    # collections (4-9 ms), and a command leaves no garbage cycle but its parser
    gc.disable()

from . import __version__
from .errors import ConfigError, CoulombSCError, PoleError
from .geometry import classify_region, lambert_variables
from .model import SystemParams
from .scan import (
    ScanConfig,
    bound_energy_spec,
    csv_text,
    eigenvalue_table,
    load_json_config,
    run_cut,
    run_scan,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_axis_spec(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"expected ax:lo:hi:count, got {text!r}")
    ax, lo, hi, count = parts
    try:
        return ax, float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad axis spec {text!r}: {exc}") from exc


def _parse_fix(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"expected ax:value, got {text!r}")
    try:
        return parts[0], float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad fix spec {text!r}: {exc}") from exc


def _parse_vector(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}: {exc}") from exc


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--nu", type=float, default=None,
                   help="principal label nu = k + 1 (mutually exclusive with --energy)")
    p.add_argument("--energy", type=float, default=None, help="energy in Hartree")
    # no argparse defaults for what the config file can also set: a flag
    # given with its default value must still override the file
    p.add_argument("--ndim", type=int, default=None, help="spatial dimension (default 3)")
    p.add_argument("--source", type=str, default=None,
                   help="source point coordinates, e.g. 1232,0,0 (Bohr)")
    p.add_argument("--fix", action="append", help="fixed coordinate ax:val")
    p.add_argument("--out", type=str, default=None, help="output CSV path")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file holding any of this command's other options "
                        "(dashes as underscores); flags override it")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(v, check) -> bool:
    return isinstance(v, list) and all(check(x) for x in v)


# the JSON type of each --config key (null only where the flag's default is
# None); which keys a command takes is its parser's options
_CONFIG_TYPES = {
    "nu": ("a number or null", lambda v: v is None or _is_number(v)),
    "energy": ("a number or null", lambda v: v is None or _is_number(v)),
    "exclude_radius": ("a number", _is_number),
    "ndim": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "method": ("a string", lambda v: isinstance(v, str)),
    "out": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "source": ("a list of numbers", lambda v: _is_list_of(v, _is_number)),
    "grid": ("a list of strings", lambda v: _is_list_of(v, lambda x: isinstance(x, str))),
    "fix": ("a list of strings", lambda v: _is_list_of(v, lambda x: isinstance(x, str))),
    "cut": ("a string", lambda v: isinstance(v, str)),
}


def _scan_config(args, want_grids: int) -> ScanConfig:
    """The --config file's settings, each replaced by its flag where one is
    given: --nu/--energy replace both energy keys, --grid/--cut the swept
    axes, and --fix entries replace the file's per axis."""
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "config")}
    settings = load_json_config(args.config) if args.config else {}
    unknown = [key for key in settings if key not in options]
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                          f"{args.command} reads {', '.join(options)}")
    for key, value in settings.items():
        what, check = _CONFIG_TYPES[key]
        if not check(value):
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    if "source" in settings:
        settings["source"] = tuple(float(v) for v in settings["source"])
    fixes = settings.pop("fix", [])
    given = {key: value for key, value in options.items() if value is not None}
    if "nu" in given or "energy" in given:
        settings["nu"], settings["energy"] = args.nu, args.energy
    if "source" in given:
        given["source"] = _parse_vector(given["source"])
    fixes += given.pop("fix", [])
    settings.update(given)
    axes = settings.pop("grid", [])
    if "cut" in settings:
        axes = [settings.pop("cut")]
    cfg = ScanConfig(**settings, grids=[_parse_axis_spec(text) for text in axes],
                     fixes=dict(_parse_fix(text) for text in fixes))
    cfg.validate(want_grids)
    return cfg


def _params(ndim: int) -> SystemParams:
    if ndim < 2:
        raise ConfigError(f"ndim must be >= 2, got {ndim}")
    return SystemParams(ndim=ndim)


def cmd_eigenvalues(args) -> int:
    params = _params(args.ndim)
    rows = eigenvalue_table(args.kmax, params)
    print(f"# bound states, ndim = {args.ndim} (atomic units)")
    print(f"{'k':>4} {'E_k':>24} {'W_2pi':>24}")
    for k, e, w in rows:
        print(f"{k:>4} {e:>24.16e} {w:>24.16e}")
    if args.out:
        k, e, w = (list(col) for col in zip(*rows))
        with open(args.out, "wb") as fh:
            fh.write(csv_text("k,E,W_2pi", "%s,%.16e,%.16e\n",
                              [[str(v) for v in k], e, w], len(rows)))
    return EXIT_OK


def _write_stdout(data: bytes):
    """The CSV bytes to stdout as they are, after any text written before.

    Unbuffered (``python -u``), ``sys.stdout.buffer`` is the raw file and
    may take only part of the bytes, e.g. when the reader closes the pipe;
    writing the rest until none is left makes that raise, not pass silently."""
    sys.stdout.flush()
    out, rest = sys.stdout.buffer, memoryview(data)
    while rest:
        rest = rest[out.write(rest):]


def cmd_scan(args) -> int:
    cfg = _scan_config(args, want_grids=2)
    text = run_scan(cfg)
    if cfg.out:
        print(f"scan written to {cfg.out}")
    else:
        _write_stdout(text)
    return EXIT_OK


def cmd_cut(args) -> int:
    cfg = _scan_config(args, want_grids=1)
    print(f"# comparison columns exclude |r - r'| < {cfg.exclude_radius} Bohr "
          "around the source", file=sys.stderr)
    text = run_cut(cfg)
    if cfg.out:
        print(f"cut written to {cfg.out}")
    else:
        _write_stdout(text)
    return EXIT_OK


def cmd_tof(args) -> int:
    from .actions import four_paths, loop_variant
    params = _params(args.ndim)
    if args.loops < 0:
        raise ConfigError(f"--loops must be >= 0, got {args.loops}")
    spec = bound_energy_spec(args.nu, args.energy, params)
    r_vec = _parse_vector(args.r)
    rp_vec = _parse_vector(args.source) if args.source else (1.0,) + (0.0,) * (args.ndim - 1)
    if len(r_vec) != args.ndim or len(rp_vec) != args.ndim:
        raise ConfigError("endpoint vectors must have ndim components")
    if not all(math.isfinite(v) for v in r_vec + rp_vec):
        raise ConfigError(f"endpoints {r_vec} and {rp_vec} have a non-finite component")
    pair = lambert_variables(r_vec, rp_vec, params)
    region = classify_region(pair, spec, params.attractive)
    print(f"# alpha_plus = {pair.alpha_plus:.12g}, alpha_minus = "
          f"{pair.alpha_minus:.12g}, region = {region.tag.value}")
    paths = four_paths(pair, spec, params)
    print(f"{'path':>4} {'loops':>5} {'W':>24} {'T':>24} {'morse':>5}")
    for p in paths:
        for j in range(args.loops + 1):
            q = loop_variant(p, j, spec, params)
            print(f"{q.path_id:>4} {q.loops:>5} {q.W:>24.16e} {q.T:>24.16e} {q.morse:>5}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coulomb-sc",
        description="semiclassical Coulomb/Kepler energy Green functions "
                    "(closed form) with exact reference comparison",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigenvalues", help="bound-state table")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--ndim", type=int, default=3)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("scan", help="2-D field scan to CSV")
    _add_common(p)
    p.add_argument("--grid", action="append",
                   help="swept axis ax:lo:hi:count (give twice)")
    p.add_argument("--method", choices=["sc", "ua", "qm", "all"], default=None,
                   help="default sc")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("cut", help="1-D comparison cut to CSV")
    _add_common(p)
    p.add_argument("--cut", type=str, help="swept axis ax:lo:hi:count")
    p.add_argument("--exclude-radius", type=float, default=None,
                   help="source exclusion radius for comparison columns "
                        "(Bohr, default 5)")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("tof", help="four elementary paths for one endpoint pair")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--ndim", type=int, default=3)
    p.add_argument("--source", type=str, default=None, help="initial point x,y[,z]")
    p.add_argument("--r", type=str, required=True, help="final point x,y[,z]")
    p.add_argument("--loops", type=int, default=0,
                   help="also print variants with up to this many loops")
    p.set_defaults(func=cmd_tof)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors already report themselves
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PoleError, CoulombSCError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run():
    """The process entry of the ``coulomb-sc`` command and of ``python -m
    coulomb_sc.cli``: ``main`` without the cyclic garbage collector, then the
    heap frozen, so the interpreter's final collections walk nothing.

    ``main`` is the entry for library and test callers and leaves the
    collector as it finds it."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
