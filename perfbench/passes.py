"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/passes.py WORKLOAD SEED MODE OUT_DIR

MODE is ``plain`` (counters only), ``traced`` (counters and spans) or
``drift`` (rate-sweep twice in this one process, untimed).  The last line of
standard output is one JSON object; ``run.py`` starts these processes and
reads it.  The program's own output is discarded.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Instrument  # noqa: E402

# nominal eps of each workload; other seeds scale it by 1..1.08 (upward only,
# so the structural rows of rate-sweep, taken at eps >= 1e-3, never change)
EPS_SPREAD = 0.08
CERTIFY_LEVELS = 3
LADDER = (32, 64, 128)
SWEEP_EPS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def eps_factor(seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + EPS_SPREAD * random.Random(seed).random()


def bound(name, measured, allowed):
    """An exactness check: passes below ``allowed``; use = measured/allowed."""
    return (name, bool(measured < allowed), float(measured) / allowed)


def solver_checks(sol):
    return [bound("fd/residual_rel", sol.residual_rel, 1e-10),
            bound("fd/div_max", sol.div_max, 1e-10)]


# -- workloads: setup(factor, tmp) returns the pass as a callable ------------


def certify_asym(factor, tmp):
    from neckflow import correctors, named_profile
    profile = named_profile("asym-quadratic", eps=1e-3 * factor)

    def run():
        checks = []
        for alpha in (1, 2, 3):
            h = correctors.build_hierarchy(profile, alpha, CERTIFY_LEVELS)
            for l in range(1, CERTIFY_LEVELS + 1):
                info = correctors.verify_level(h, l, n1=201, n2=33, n_trace=1000)
                checks += [
                    bound("verify/div_sup", info["div_sup"], 1e-8),
                    bound("verify/trace_sup", info["trace_sup"], 1e-10),
                    bound("verify/identity_rel", info["identity_rel"], 1e-8),
                    ("verify/degrees",
                     tuple(info["degrees"]) == tuple(info["expected_degrees"]), None),
                ]
        return checks, {}
    return run


def _sweep_argv(factor, out):
    # the smallest eps stays put: scaling it too can round the span of the
    # list just below the two decades the sweep demands
    eps = ",".join(repr(e * factor) for e in SWEEP_EPS[:-1]) + f",{SWEEP_EPS[-1]!r}"
    return ["sweep", "rates", "--profile", "sym-quadratic", "--alpha", "1,2,3",
            "--m", "1", "--eps", eps, "--envelopes", "--out", out]


def _read_report(out):
    """The CSV report's bytes and rows; empty when none was written."""
    paths = glob.glob(os.path.join(out, "rates-*.csv"))
    if len(paths) != 1:
        return b"", []
    with open(paths[0], "rb") as fh:
        data = fh.read()
    return data, list(csv.DictReader(io.StringIO(data.decode())))


def rate_sweep(factor, tmp):
    from neckflow import cli
    argv = _sweep_argv(factor, tmp)

    def run():
        code = cli.main(argv)
        data, rows = _read_report(tmp)
        checks = [("cli/exit_code", code == 0, None),
                  ("cli/report_written", bool(rows), None)]
        for row in rows:
            ok = row["pass"] == "1"
            if row["check"] in ("structural/divergence", "structural/trace"):
                checks.append((row["check"], ok,
                               float(row["measured"]) / float(row["tolerance"])))
            else:
                checks.append((row["check"], ok, None))
        return checks, {"digest": hashlib.sha256(data).hexdigest(),
                        "sweeps.rows": len(rows)}
    return run


def fd_refine(factor, tmp):
    import numpy as np
    from neckflow import fd, named_profile
    p = named_profile("sym-quadratic", eps=0.05 * factor)

    def run():
        checks = []
        w, _q, f = fd.manufactured_solution(p, 0.6)
        errs, hs = [], []
        for n in LADDER:
            g = fd.NeckGrid(p, r=0.6, n1=n, n2=n)
            sol = fd.solve_fields(g, f, bc_field=w)
            checks += solver_checks(sol)
            ue = w.u1.eval(g.xf, g.x2_of(g.xf[:, None], g.tc[None, :]))
            ve = w.u2.eval(g.xc, g.x2_of(g.xc[:, None], g.tf[None, :]))
            errs.append(max(np.abs(sol.u - ue).max(), np.abs(sol.v - ve).max()))
            hs.append(1.2 / n)
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        checks.append(("fd/manufactured_order", 1.8 <= order <= 2.2, None))

        g0 = fd.NeckGrid(p, r=0.6, n1=64, n2=32)
        z = fd.solve_w(g0, np.zeros((63, 32)), np.zeros((64, 31)))
        checks.append(bound("fd/zero_forcing",
                            max(np.abs(z.u).max(), np.abs(z.v).max(), np.abs(z.p).max()),
                            1e-10))
        checks += solver_checks(z)

        g1 = fd.NeckGrid(p, r=0.6, n1=128, n2=64)
        sol = fd.solve_fields(g1, f)
        checks += solver_checks(sol)
        energy = p.mu * fd.global_energy(sol)
        uc, vc = sol.cell_velocity()
        x2c = g1.x2_of(g1.xc[:, None], g1.tc[None, :])
        work = float(np.sum((f.u1.eval(g1.xc, x2c) * uc + f.u2.eval(g1.xc, x2c) * vc)
                            * p.delta(g1.xc)[:, None] * g1.dx * g1.dt))
        checks.append(("fd/energy_identity", abs(energy - work) / abs(work) < 0.01, None))
        return checks, {}
    return run


def fd_many_rhs(factor, tmp):
    import numpy as np
    from neckflow import correctors, fd, named_profile
    p = named_profile("sym-quadratic", eps=3e-3 * factor)

    def run():
        checks = []
        hs = [correctors.build_symmetric_green(p, 4)]
        hs += [correctors.build_hierarchy(p, alpha, 4) for alpha in (1, 2, 3)]
        g = fd.NeckGrid(p, r=0.75, n1=257, n2=64)
        for h in hs:
            for l in range(1, 5):
                sol = fd.solve_fields(g, h.residual(l))
                checks += solver_checks(sol)
                sup = fd.sup_grad(sol, 0.5)
                energy = fd.global_energy(sol)
                checks.append(("fd/post_finite",
                               bool(np.isfinite(sup) and np.isfinite(energy)
                                    and energy > 0), None))
        return checks, {}
    return run


WORKLOADS = {
    "certify-asym": certify_asym,
    "rate-sweep": rate_sweep,
    "fd-refine": fd_refine,
    "fd-many-rhs": fd_many_rhs,
}


def drift(factor, tmp):
    """Run the rate-sweep config twice in this process; count the report rows
    whose measured value differs between the two runs."""
    from neckflow import cli
    values = []
    for k in range(2):
        out = os.path.join(tmp, str(k))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(_sweep_argv(factor, out))
        _, rows = _read_report(out)
        values.append([row["measured"] for row in rows])
    return {"sweeps.rows_drifted": sum(a != b for a, b in zip(*values))}


def host_probe(splu) -> float:
    """Seconds for a fixed mix of interpreter-bound work (dict lookups and
    small numpy arrays, like a DAG walk) and a sparse LU (like the FD solve).
    It does not touch neckflow; it measures how fast the host runs now."""
    import numpy as np
    import scipy.sparse as sp
    t = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 200)
    memo = {}
    for i in range(40000):
        key = (i % 211, i % 7)
        v = memo.get(key)
        if v is None:
            v = memo[key] = x * (i % 7) + key[0]
        x = 0.5 * (x + v) * 1e-3
    n = 130
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsc()
    splu(a).solve(np.ones(n * n))
    return time.perf_counter() - t


def main(argv):
    workload, seed, mode, out_dir = argv[0], int(argv[1]), argv[2], argv[3]
    import neckflow
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(neckflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"neckflow imported from {neckflow.__file__}, not {src}")
    tmp = tempfile.mkdtemp(prefix="pass-", dir=out_dir)
    try:
        if mode == "drift":
            print(json.dumps(drift(eps_factor(seed), tmp)))
            return
        import scipy.sparse.linalg as spla
        probe_splu = spla.splu  # taken before the counters wrap it
        inst = Instrument(spans=(mode == "traced"))
        inst.install()
        run = WORKLOADS[workload](eps_factor(seed), tmp)
        ready = time.monotonic()

        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            checks, extra = run()
        t1, c1 = time.perf_counter(), time.process_time()
        # read before the probe, whose LU would otherwise set the peak
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = host_probe(probe_splu) + host_probe(probe_splu)

        result = {
            "ready": ready,
            "wall_s": t1 - t0,
            "cpu_s": c1 - c0,
            "probe_s": probe,
            "peak_rss_mb": rss,
            "checks": checks,
            "counts": {**inst.finish(), **extra},
        }
        if inst.spans_on:
            result["self_s"] = inst.self_times(t0, t1)
            result["self_s"]["fd.sample_incl"] = inst.nested_time(
                "fd.sample", ("fields.sample", "coeffs.eval"))
            result["spans"] = len(inst.spans)
            inst.write(os.path.join(out_dir, f"trace-{workload}.jsonl"), t0)
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
