"""Library workload: per-point public APIs on seeded random endpoint pairs.

Run as its own process (the benchmark measures its peak memory):

    python perfbench/pairs.py --seed 1 --seconds 10 --trace 0 --out result.json

One call is one batch.  Every batch has the same composition, for each
n in (2, 3, 4):

  - ALLOWED fresh pairs inside the caustic (alpha_+ < 4a),
  - TUNNEL fresh pairs beyond it with the inner leg allowed (alpha_- < 4a),
  - the DOUBLY fixed doubly forbidden pairs (alpha_- > 4a), the same in
    every batch and every run: they do not depend on the seed.

Fresh pairs come from ``numpy.random.default_rng(seed)``: nu uniform in
[5, 30] at least 1e-3 from an integer, alpha_+ and alpha_- uniform in their
region, realized as a triangle and turned by a random rotation of R^n.
Each pair calls lambert_variables and classify_region; allowed pairs also
four_paths and vvpm_det (paths 1-4); then green_sc_bound or
green_sc_tunnel, and for n = 3 green_uniform.

Batch times are scaled to the reference machine speed: a calibration burst
(``timing``) every PERIOD seconds of batches, each batch scaled by the
median of the bursts within SMOOTH periods of it; the raw times are kept
too.  The first CHECKED batches are kept with everything the checks need
(swapped, rotated and energy-shifted evaluations are made after the timed
loop).  The result file holds batch times, counts, the kept records and,
with --trace 1, the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

import coulomb_sc as cs
from coulomb_sc.errors import CoulombSCError

from timing import PERIOD, calibrate, scale
from tracing import Tracer

DIMS = (2, 3, 4)
ALLOWED, TUNNEL, DOUBLY = 4, 4, 2
CHECKED = 4
MAX_TRACED = 300
FD_STEP = 1e-6
FIXED_SEED = 20090101  # the doubly forbidden pairs, independent of --seed
SMOOTH = 5  # bursts on either side that set the speed of a block of batches

LAYERS = {
    "geometry.lambert_variables": cs.lambert_variables,
    "geometry.classify_region": cs.classify_region,
    "actions.four_paths": cs.four_paths,
    "vvpm.vvpm_det": cs.vvpm_det,
    "semiclassical.green_sc_bound": cs.green_sc_bound,
    "semiclassical.green_sc_tunnel": cs.green_sc_tunnel,
    "uniform.green_uniform": cs.green_uniform,
}


def draw_nu(rng) -> float:
    while True:
        nu = rng.uniform(5.0, 30.0)
        if abs(nu - round(nu)) > 1e-3:
            return nu


def realize(rng, n: int, ap: float, am: float):
    """Endpoint vectors with the given Lambert variables, randomly turned."""
    s = 0.5 * (ap - am)
    rsum = 0.5 * (ap + am)
    d = 0.45 * s * rng.uniform(-1.0, 1.0)
    r, rp = 0.5 * rsum + d, 0.5 * rsum - d
    cos_th = min(1.0, max(-1.0, (r * r + rp * rp - s * s) / (2.0 * r * rp)))
    th = math.acos(cos_th)
    rv, rpv = np.zeros(n), np.zeros(n)
    rv[0], rv[1] = r * math.cos(th), r * math.sin(th)
    rpv[0] = rp
    rot = random_rotation(rng, n)
    return rot @ rv, rot @ rpv


def random_rotation(rng, n: int) -> np.ndarray:
    q, rr = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(rr))


def draw_pair(rng, n: int, kind: str):
    nu = draw_nu(rng)
    four_a = 4.0 * (nu - 1.0 + (n - 1) / 2.0) ** 2
    if kind == "allowed":
        ap = four_a * rng.uniform(0.02, 0.999)
        am = ap * rng.uniform(0.0, 1.0)
    elif kind == "tunnel":
        ap = four_a * rng.uniform(1.001, 1.5)
        am = four_a * rng.uniform(0.0, 0.99)
    else:
        ap = four_a * rng.uniform(1.05, 2.0)
        am = four_a * rng.uniform(1.01, ap / four_a)
    r, rp = realize(rng, n, ap, am)
    return {"n": n, "nu": nu, "kind": kind, "r": r, "rp": rp}


def doubly_forbidden_pairs() -> list[dict]:
    rng = np.random.default_rng(FIXED_SEED)
    return [draw_pair(rng, n, "doubly") for n in DIMS for _ in range(DOUBLY)]


def draw_batch(rng, fixed: list[dict]) -> list[dict]:
    fresh = [draw_pair(rng, n, kind) for n in DIMS
             for kind, count in (("allowed", ALLOWED), ("tunnel", TUNNEL))
             for _ in range(count)]
    return fresh + fixed


def setup(pair: dict):
    params = cs.SystemParams(ndim=pair["n"])
    return params, cs.energy_from_nu(pair["nu"], params)


def evaluate(pair: dict, fn: dict, keep: dict | None) -> tuple[int, int]:
    """All calls for one pair; returns (values requested, errors raised)."""
    params, spec = setup(pair)
    r, rp = pair["r"], pair["rp"]
    lam = fn["geometry.lambert_variables"](r, rp, params)
    region = fn["geometry.classify_region"](lam, spec, params.attractive)
    requested, errors = 2, 0
    allowed = region.tag is cs.Region.ALLOWED
    if keep is not None:
        keep.update(lambert=[lam.s, lam.alpha_plus, lam.alpha_minus],
                    region=region.tag.value)
    if allowed:
        paths = fn["actions.four_paths"](lam, spec, params)
        dets = [fn["vvpm.vvpm_det"](i, lam, spec, params).D for i in (1, 2, 3, 4)]
        requested += 5
        if keep is not None:
            keep.update(paths=[[p.W, p.T] for p in paths], dets=dets)
    green = [("sc", "semiclassical.green_sc_bound" if allowed
              else "semiclassical.green_sc_tunnel")]
    if pair["n"] == 3:
        green.append(("ua", "uniform.green_uniform"))
    for name, layer in green:
        requested += 1
        try:
            value = fn[layer](r, rp, spec, params).value
        except CoulombSCError as exc:
            errors += 1
            if keep is not None:
                keep[name] = {"error": type(exc).__name__}
            continue
        if keep is not None:
            keep[name] = {"value": [value.real, value.imag], "layer": layer}
    return requested, errors


def complete(rec: dict, rng):
    """Evaluations the property checks need, made after the timed loop:
    endpoints swapped, both turned by a random rotation, four_paths at
    E -+ FD_STEP |E|."""
    params, spec = setup(rec)
    r, rp = rec["r"], rec["rp"]
    rot = random_rotation(rng, rec["n"])
    for name in ("sc", "ua"):
        out = rec.get(name)
        if out is None or "error" in out:
            continue
        g = LAYERS[out.pop("layer")]
        for key, (a, b) in (("swapped", (rp, r)), ("rotated", (rot @ r, rot @ rp))):
            v = g(a, b, spec, params).value
            out[key] = [v.real, v.imag]
    if "paths" in rec:
        lam = cs.lambert_variables(r, rp, params)
        shifted = [cs.four_paths(lam, cs.EnergySpec.from_energy(spec.E + d * abs(spec.E),
                                                                params), params)
                   for d in (-FD_STEP, FD_STEP)]
        rec["paths_fd"] = [[lo.W, hi.W] for lo, hi in zip(*shifted)]
        rec["fd_step"] = FD_STEP
    rec["r"], rec["rp"] = list(map(float, r)), list(map(float, rp))


def run(seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    fixed = doubly_forbidden_pairs()
    tracer = Tracer()
    traced_fn = {name: tracer.wrap(name, f) for name, f in LAYERS.items()}
    times, traced_times, raw_times, records = [], [], [], []
    requested = errors = n_traced = 0
    # a calibration burst every PERIOD seconds; blocks[b] holds the batches
    # between bursts[b] and bursts[b + 1]
    bursts, blocks = [calibrate()], [[]]
    block_end = time.perf_counter() + PERIOD
    t_end = time.perf_counter() + seconds
    batch = 0
    while batch < CHECKED or time.perf_counter() < t_end:
        pairs = draw_batch(rng, fixed)
        use_trace = trace and batch % 2 == 1 and n_traced < MAX_TRACED
        n_traced += use_trace
        fn = traced_fn if use_trace else LAYERS
        keeps = [dict(p) for p in pairs] if batch < CHECKED else [None] * len(pairs)
        t0 = time.perf_counter()
        if use_trace:
            tracer.begin("batch")
        for pair, keep in zip(pairs, keeps):
            req, err = evaluate(pair, fn, keep)
            requested += req
            errors += err
        if use_trace:
            tracer.end()
        dt = time.perf_counter() - t0
        raw_times.append(dt)
        blocks[-1].append((use_trace, dt))
        if batch < CHECKED:
            records.extend(keeps)
        batch += 1
        if time.perf_counter() >= block_end:
            bursts.append(calibrate())
            blocks.append([])
            block_end = time.perf_counter() + PERIOD
    bursts.append(calibrate())
    for b, block in enumerate(blocks):
        factor = scale(bursts[max(0, b - SMOOTH):b + SMOOTH + 2])
        for traced, dt in block:
            (traced_times if traced else times).append(dt * factor)
    check_rng = np.random.default_rng([seed, 1])
    for rec in records:
        complete(rec, check_rng)
    return {"batches": batch, "checked": CHECKED, "requested": requested, "errors": errors,
            "times": times, "traced_times": traced_times, "raw_times": raw_times,
            "records": records,
            "spans": tracer.spans, "counts": tracer.counts}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    result = run(args.seed, args.seconds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
