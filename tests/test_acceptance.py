"""Acceptance suite: every criterion prints one PASS/FAIL line and asserts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json

import numpy as np
import pytest

from neckflow import coeffs as ca
from neckflow import verifier as vf
from neckflow.correctors import verify_structure_many
from neckflow.fd import (
    NeckGrid,
    global_energy,
    local_energy,
    manufactured_solution,
    solve_fields,
    solve_w,
    sup_grad,
)
from neckflow.fields import sup_abs
from neckflow.geometry import named_profile
from neckflow.sweeps import RunConfig, emit, run


def _line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_structural_exactness(cache):
    worst = {"div": 0.0, "trace": 0.0}
    degrees_ok = True
    for name in ("sym-quadratic", "asym-quadratic"):
        for alpha in (1, 2, 3):
            h = cache.get(name, alpha, 4)
            for l in range(1, 5):
                # one walk covers both eps; no line reads the identity check
                for info in verify_structure_many(h, l, [1e-2, 1e-3], n1=201, n2=33,
                                                  n_trace=1000):
                    worst["div"] = max(worst["div"], info["div_sup"])
                    worst["trace"] = max(worst["trace"], info["trace_sup"])
                    d, e = info["degrees"], info["expected_degrees"]
                    if d[0] > e[0] or d[1] > e[1]:
                        degrees_ok = False
                    if name == "asym-quadratic" and d != e:
                        degrees_ok = False
    ok = worst["div"] < 1e-8 and worst["trace"] < 1e-10 and degrees_ok
    _line(1, ok, "structural exactness: "
          f"sup|div v|={worst['div']:.2e} (<1e-8), "
          f"trace sup={worst['trace']:.2e} (<1e-10), degrees match={degrees_ok}")


def test_criterion_2_residual_decay(cache):
    rows = []
    for alpha in (1, 2, 3):
        h = cache.get("asym-quadratic", alpha, 4)
        for m in (1, 2, 3):
            # the fits of every s from one walk
            rows += vf.residual_orders(h, range(m + 1), m, eps=1e-4)
    ok = all(r["passed"] for r in rows)
    margin = min(r["fit"].slope - (r["predicted"] - r["tolerance"]) for r in rows)
    _line(2, ok, f"residual decay: {len(rows)} slope fits "
          f"(m in 1..3, s<=m, all modes), min margin {margin:+.3f}")


def test_criterion_3_blowup_rates(cache):
    h = cache.get("sym-quadratic", 1, 1, green=True)
    devs = []
    for m in (0, 1, 2, 3):
        row = vf.corrector_blowup_order(h, vf.DEFAULT_EPS_SWEEP, m)
        devs.append(abs(row["fit"].slope - row["predicted"]))
    ok = all(d <= 0.05 for d in devs)
    _line(3, ok, "corrector blow-up slopes -(m+2)/2 for m in 0..3, "
          f"max deviation {max(devs):.2e} (tol 0.05)")


def test_criterion_4_theorem_envelopes(cache):
    rows = vf.theorem_rate_table(cache=cache)
    ok = all(r["passed"] for r in rows)
    dev = max(abs(r["slope"] - r["predicted"]) for r in rows)
    _line(4, ok, f"theorem envelope slopes: {len(rows)} fits "
          f"(two families, m in 0..2, gap and eps fits), max dev {dev:.3f} (tol 0.1)")


def test_criterion_5_fd_soundness():
    p = named_profile("sym-quadratic", eps=0.05)
    w, q, f = manufactured_solution(p, 0.6)
    errs, hs = [], []
    for n in (32, 64, 128, 256):
        g = NeckGrid(p, r=0.6, n1=n, n2=n)
        sol = solve_fields(g, f, bc_field=w)
        assert sol.backward_err <= 1e-14
        x2u = np.multiply.outer(p.delta(g.xf), g.tc) + \
            ((p.h1(g.xf) - p.h2(g.xf)) / 2)[:, None]
        ue = w.u1.eval(g.xf, x2u)
        x2v = np.multiply.outer(p.delta(g.xc), g.tf) + \
            ((p.h1(g.xc) - p.h2(g.xc)) / 2)[:, None]
        ve = w.u2.eval(g.xc, x2v)
        errs.append(max(np.abs(sol.u - ue).max(), np.abs(sol.v - ve).max()))
        hs.append(1.2 / n)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    g0 = NeckGrid(p, r=0.6, n1=64, n2=32)
    zsol = solve_w(g0, np.zeros((63, 32)), np.zeros((64, 31)))
    assert zsol.backward_err <= 1e-14
    zero_ok = max(np.abs(zsol.u).max(), np.abs(zsol.v).max(),
                  np.abs(zsol.p).max()) < 1e-10

    g1 = NeckGrid(p, r=0.6, n1=128, n2=64)
    sol = solve_fields(g1, f)
    assert sol.backward_err <= 1e-14
    E = p.mu * global_energy(sol)
    uc, vc = sol.cell_velocity()
    x2c = np.multiply.outer(p.delta(g1.xc), g1.tc) + \
        ((p.h1(g1.xc) - p.h2(g1.xc)) / 2)[:, None]
    work = float(np.sum((f.u1.eval(g1.xc, x2c) * uc + f.u2.eval(g1.xc, x2c) * vc)
                        * p.delta(g1.xc)[:, None] * g1.dx * g1.dt))
    energy_dev = abs(E - work) / abs(work)

    ok = 1.8 <= order <= 2.2 and zero_ok and energy_dev < 0.01
    _line(5, ok, f"fd soundness: manufactured order {order:.3f} in [1.8,2.2] "
          f"over three doublings, zero-forcing exact={zero_ok}, "
          f"energy identity dev {energy_dev:.2%} (<1%)")


def test_criterion_6_singularity_capture(cache):
    eps_list = (1e-2, 3e-3, 1e-3)
    sups, energies, v_grads = [], [], []
    for eps in eps_list:
        h = cache.get("sym-quadratic", 1, 2, green=True)
        p = named_profile("sym-quadratic", eps=eps)
        g = NeckGrid(p, r=0.75, n1=257, n2=64)
        sol = solve_fields(g, h.residual(2))
        assert sol.residual_rel < 1e-10
        assert sol.div_max < 1e-10
        assert sol.backward_err <= 1e-14
        sups.append(sup_grad(sol, 0.5))
        energies.append(global_energy(sol))
        v_grads.append(float(np.abs(
            h.level(1).v.u1.partial_x2().eval(np.asarray(0.0), 0.0, eps))))
    sup_ratio = max(sups) / min(sups)
    energy_ratio = max(energies) / min(energies)
    v_slope = float(np.polyfit(np.log(eps_list), np.log(v_grads), 1)[0])

    h = cache.get("sym-quadratic", 1, 2, green=True)
    p = named_profile("sym-quadratic", eps=1e-2)
    g = NeckGrid(p, r=0.75, n1=385, n2=64)
    sol = solve_fields(g, h.residual(2))
    assert sol.backward_err <= 1e-14
    z1 = np.linspace(0.15, 0.45, 9)
    loc = np.array([local_energy(sol, z) for z in z1])
    loc_slope = float(np.polyfit(np.log(p.delta(z1)), np.log(loc), 1)[0])

    ok = (sup_ratio <= 3.0 and abs(v_slope + 1.0) <= 0.1
          and energy_ratio <= 2.0 and loc_slope >= 3.5)
    _line(6, ok, "singularity capture: "
          f"sup|grad w| ratio {sup_ratio:.2f} (<=3), "
          f"corrector grad slope {v_slope:+.3f} (-1 +- 0.1), "
          f"energy ratio {energy_ratio:.2f} (<=2), "
          f"local-energy slope {loc_slope:.2f} (>=3.5)")


def test_criterion_7_cross_construction(cache):
    hg = cache.get("sym-quadratic", 1, 3, green=True)
    ha = cache.get("sym-quadratic", 1, 3)
    xs = np.linspace(-0.5, 0.5, 101)
    exact_equal = np.array_equal(hg.level(1).v.u1.eval(xs, 0.0, 1e-3),
                                 ha.level(1).v.u1.eval(xs, 0.0, 1e-3))
    ratios = []
    for l in (2, 3):
        sg = sup_abs(hg.residual(l), n1=101, n2=17, eps=1e-3)
        sa = sup_abs(ha.residual(l), n1=101, n2=17, eps=1e-3)
        ratios.append(max(sg, sa) / min(sg, sa))
    ok = exact_equal and all(r <= 10.0 for r in ratios)
    _line(7, ok, f"cross-construction: level-1 first components identical="
          f"{exact_equal}, residual sup ratios {ratios[0]:.2f}/{ratios[1]:.2f} (<=10)")


def test_criterion_8_determinism_and_exit_codes(monkeypatch, tmp_path):
    cfg = RunConfig(profile="sym-quadratic", alphas=(1,), m_max=1,
                    eps=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
    rep1, rep2 = run(cfg), run(cfg)
    csv_same = emit(rep1, "csv") == emit(rep2, "csv")
    j1, j2 = json.loads(emit(rep1, "json")), json.loads(emit(rep2, "json"))
    j1.pop("created_at"), j2.pop("created_at")
    json_same = j1 == j2

    from neckflow.cli import main
    code_pass = main(["sweep", "rates", "--profile", "sym-quadratic",
                      "--alpha", "1", "--m", "1", "--out", str(tmp_path)])
    code_cfg = main(["sweep", "rates", "--eps", "1e-2,1e-3",
                     "--out", str(tmp_path)])
    import neckflow.cli as cli_mod
    from neckflow.sweeps import RateReport, RateRow
    failing = RateReport("x", rows=[RateRow("t", "t", "p", None, None, None,
                                            "", 0.0, 1.0, 0.1, False)])
    monkeypatch.setattr(cli_mod.sweeps, "run", lambda _cfg: failing)
    code_fail = main(["sweep", "rates", "--profile", "sym-quadratic",
                      "--alpha", "1", "--m", "1", "--out", str(tmp_path)])
    ok = (csv_same and json_same and code_pass == 0 and code_cfg == 2
          and code_fail == 1)
    _line(8, ok, f"determinism and reporting: csv byte-identical={csv_same}, "
          f"json identical={json_same}, exit codes pass/fail/config = "
          f"{code_pass}/{code_fail}/{code_cfg}")
