"""The numba kernels and the pure-NumPy fallback must agree bit-for-bit on
scalar paths and to rounding on parallel field maps."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

import coulomb_sc as cs

WORKLOAD = textwrap.dedent("""
    import json
    import numpy as np
    import coulomb_sc as cs
    from coulomb_sc.scan import eval_sc, eval_ua
    from coulomb_sc.qm_oracle import qm_field

    par = cs.AU
    spec = cs.energy_from_nu(5.3, par)
    rp = np.array([20.0, 0.0, 0.0])
    xs = np.linspace(-15.0, 60.0, 41)
    pts = np.stack([xs, np.full_like(xs, 10.0), np.zeros_like(xs)], axis=1)
    sc, reg, st = eval_sc(pts, rp, spec, par)
    ua, _, _ = eval_ua(pts, rp, spec, par)
    qm = qm_field(pts, rp, spec, par)
    print(json.dumps({
        "backend": cs.backend_name(),
        "sc": [[v.real, v.imag] for v in sc],
        "ua": [[v.real, v.imag] for v in ua],
        "qm": list(qm),
        "region": [int(x) for x in reg],
        "airy": [cs.airy_ai(-3.7), cs.airy_ai_prime(2.2)],
    }))
""")


def run_workload(disable_numba):
    env = dict(os.environ)
    env["COULOMB_SC_DISABLE_NUMBA"] = "1" if disable_numba else "0"
    proc = subprocess.run([sys.executable, "-c", WORKLOAD], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_backend_flag_selects_implementation():
    fast = run_workload(disable_numba=False)
    slow = run_workload(disable_numba=True)
    assert slow["backend"] == "numpy"
    # (the fast path reports numba when it is importable, numpy otherwise)
    assert fast["backend"] in ("numba", "numpy")


def test_backends_agree():
    fast = run_workload(disable_numba=False)
    slow = run_workload(disable_numba=True)
    for key in ("sc", "ua"):
        a = np.array(fast[key], dtype=float)
        b = np.array(slow[key], dtype=float)
        both = np.isfinite(a[:, 0]) & np.isfinite(b[:, 0])
        assert both.sum() > 30
        np.testing.assert_allclose(a[both], b[both], rtol=1e-12, atol=1e-15)
        assert list(np.isfinite(a[:, 0])) == list(np.isfinite(b[:, 0]))
    qa = np.array(fast["qm"], dtype=float)
    qb = np.array(slow["qm"], dtype=float)
    np.testing.assert_allclose(qa, qb, rtol=1e-9)
    np.testing.assert_allclose(fast["airy"], slow["airy"], rtol=1e-13)
    assert fast["region"] == slow["region"]
