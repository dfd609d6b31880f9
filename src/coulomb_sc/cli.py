"""Command-line front end.

Subcommands
-----------
eigenvalues  bound-state table (k, E_k, W_2pi)
scan         2-D field scan -> CSV (x,y,re,im,method,region,reason)
cut          1-D method-comparison cut -> CSV (x,G_qm,G_sc,G_ua,dev_sc,dev_ua)
tof          reduced actions, travel times and Morse indices of the four
             elementary paths for one endpoint pair

Common flags: --nu | --energy (one of), --ndim, --source x,y[,z],
--grid ax:lo:hi:count (repeatable), --cut ax:lo:hi:count, --fix ax:val,
--method {sc,ua,qm,all}, --exclude-radius, --out, --config file.json.
Defaults: atomic units, ndim=3, method=sc.  A JSON config file mirrors the
flags; explicit flags override it.  Without --out, scan and cut write the
CSV to stdout.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .errors import ConfigError, CoulombSCError, PoleError
from .geometry import classify_region, lambert_variables
from .model import SystemParams
from .actions import four_paths, loop_variant
from .scan import (
    ScanConfig,
    bound_energy_spec,
    eigenvalue_table,
    fmt,
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
    p.add_argument("--method", choices=["sc", "ua", "qm", "all"], default=None,
                   help="default sc")
    p.add_argument("--exclude-radius", type=float, default=None,
                   help="source exclusion radius for comparison columns "
                        "(Bohr, default 5)")
    p.add_argument("--out", type=str, default=None, help="output CSV path")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file mirroring the flags; flags override it")


def _scan_config(args, want_grids: int) -> ScanConfig:
    cfg = ScanConfig()
    if args.config:
        data = load_json_config(args.config)
        if "lmax" in data:
            raise ConfigError("unknown key 'lmax': the exact reference is Hostler's "
                              "closed form and has no partial-wave truncation")
        for key in ("method", "nu", "energy", "ndim", "exclude_radius", "out"):
            if key in data:
                setattr(cfg, key, data[key])
        if "source" in data:
            cfg.source = tuple(float(v) for v in data["source"])
        for spec_text in data.get("grid", []):
            cfg.grids.append(_parse_axis_spec(spec_text))
        if "cut" in data:
            cfg.grids.append(_parse_axis_spec(data["cut"]))
        for fix_text in data.get("fix", []):
            ax, val = _parse_fix(fix_text)
            cfg.fixes[ax] = val

    if args.nu is not None and args.energy is not None:
        raise ConfigError("--nu and --energy are mutually exclusive")
    if args.nu is not None:
        cfg.nu, cfg.energy = args.nu, None
    if args.energy is not None:
        cfg.energy, cfg.nu = args.energy, None
    for key in ("ndim", "method", "exclude_radius"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if args.source is not None:
        cfg.source = _parse_vector(args.source)
    if args.out is not None:
        cfg.out = args.out
    grid_args = getattr(args, "grid", None) or []
    cut_arg = getattr(args, "cut", None)
    if grid_args:
        cfg.grids = [_parse_axis_spec(g) for g in grid_args]
    if cut_arg:
        cfg.grids = [_parse_axis_spec(cut_arg)]
    for fix_text in getattr(args, "fix", None) or []:
        ax, val = _parse_fix(fix_text)
        cfg.fixes[ax] = val
    cfg.validate(want_grids)
    return cfg


def _params(ndim: int) -> SystemParams:
    if ndim < 2:
        raise ConfigError(f"ndim must be >= 2, got {ndim}")
    return SystemParams(ndim=ndim)


def cmd_eigenvalues(args) -> int:
    params = _params(args.ndim)
    rows = eigenvalue_table(args.kmax, params)
    lines = ["k,E,W_2pi"] if args.out else []
    print(f"# bound states, ndim = {args.ndim} (atomic units)")
    print(f"{'k':>4} {'E_k':>24} {'W_2pi':>24}")
    for k, e, w in rows:
        print(f"{k:>4} {e:>24.16e} {w:>24.16e}")
        if args.out:
            lines.append(f"{k},{fmt(e)},{fmt(w)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _scan_config(args, want_grids=2)
    text = run_scan(cfg)
    if cfg.out:
        print(f"scan written to {cfg.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_cut(args) -> int:
    cfg = _scan_config(args, want_grids=1)
    print(f"# comparison columns exclude |r - r'| < {cfg.exclude_radius} Bohr "
          "around the source", file=sys.stderr)
    text = run_cut(cfg)
    if cfg.out:
        print(f"cut written to {cfg.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_tof(args) -> int:
    params = _params(args.ndim)
    if (args.nu is None) == (args.energy is None):
        raise ConfigError("exactly one of --nu / --energy must be given")
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
    p.add_argument("--fix", action="append", help="fixed coordinate ax:val")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("cut", help="1-D comparison cut to CSV")
    _add_common(p)
    p.add_argument("--cut", type=str, help="swept axis ax:lo:hi:count")
    p.add_argument("--fix", action="append", help="fixed coordinate ax:val")
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


if __name__ == "__main__":
    sys.exit(main())
