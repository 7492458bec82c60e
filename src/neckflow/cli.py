"""Command-line surface: build correctors, verify them, run solves and sweeps.

Exit codes: 0 all checks pass, 1 check failures or integrals that do not
converge, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import fd
from . import sweeps
from .coeffs import QuadratureError
from .correctors import build_hierarchy, build_symmetric_green
from .fields import sup_abs
from .geometry import NAMED_PROFILES
from .sweeps import ConfigError, RateReport, RunConfig


def _parse_alphas(text: str) -> tuple:
    try:
        return tuple(sorted(int(a) for a in text.split(",") if a))
    except ValueError:
        raise ConfigError(f"bad --alpha list {text!r}") from None


def _parse_eps(text: str) -> tuple:
    try:
        return tuple(float(e) for e in text.split(",") if e)
    except ValueError:
        raise ConfigError(f"bad --eps list {text!r}") from None


_FLAGS = {
    "profile": dict(default="sym-quadratic",
                    help=f"named profile {sorted(NAMED_PROFILES)} or JSON path"),
    "eps": dict(default="1e-2,3e-3,1e-3,3e-4,1e-4", help="comma list, strictly decreasing"),
    "out": dict(default=None, help="output directory"),
    "alpha": dict(default="1,2,3", help="comma list within 1,2,3"),
    "m": dict(type=int, default=2, help="highest derivative order"),
    "format": dict(default="csv,json", help="csv, json or both"),
    "envelopes": dict(action="store_true"),
    "fd": dict(action="store_true"),
}
# the RunConfig field that each flag past --profile, --eps and --out sets
_FLAG_FIELDS = {
    "alpha": ("alphas", _parse_alphas),
    "m": ("m_max", int),
    "format": ("formats", lambda text: tuple(f for f in text.split(",") if f)),
    "envelopes": ("envelopes", bool),
    "fd": ("fd_checks", bool),
}


def _add_common(sp, *flags):
    """--profile, --eps, --out and ``flags``: only the flags the command reads."""
    for flag in ("profile", "eps", "out") + flags:
        sp.add_argument(f"--{flag}", **_FLAGS[flag])


_NO_FITS = dict(decay=False, blowup=False)  # the rate-fit families on by default


def _config_from_args(args, **fixed) -> RunConfig:
    """From --config or the flags, with the fields ``fixed`` by the command."""
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError(f"--config {args.config}: {exc}") from None
        cfg = RunConfig.from_json(doc)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
    else:
        given = vars(args)
        cfg = RunConfig(
            profile=args.profile,
            eps=_parse_eps(args.eps),
            out_dir=args.out or ".",
            **{name: parse(given[flag])
               for flag, (name, parse) in _FLAG_FIELDS.items() if flag in given},
        )
    return dataclasses.replace(cfg, **fixed).validate()


def _num(v, spec: str) -> str:
    """A report value for printing; error rows carry None, shown as '-'."""
    return "-" if v is None else format(v, spec)


def _emit_report(report: RateReport, cfg: RunConfig) -> None:
    for fmt in cfg.formats:
        path = os.path.join(cfg.out_dir, f"rates-{report.config_digest}.{fmt}")
        sweeps.emit(report, fmt, path)
        print(f"wrote {path}")


def cmd_corrector_build(args) -> int:
    cfg = _config_from_args(args, **_NO_FITS)
    eps = cfg.eps[0]
    prof = cfg.load_profile(eps)
    if args.dump:
        os.makedirs(cfg.out_dir, exist_ok=True)
    bad = []  # where a printed sup is not finite
    for alpha in cfg.alphas:
        h = build_hierarchy(prof, alpha, cfg.m_max + 1)
        sups = [sup_abs(h.residual(l), n1=101, n2=17) for l in range(1, h.depth + 1)]
        print(f"alpha={alpha} eps={eps:g}: residual sups "
              + " ".join(f"l{l}={s:.3e}" for l, s in enumerate(sups, 1)))
        bad += [f"alpha={alpha} level={l}" for l, s in enumerate(sups, 1) if not math.isfinite(s)]
        if prof.symmetric and alpha == 1:
            hg = build_symmetric_green(prof, cfg.m_max + 1)
            sup = sup_abs(hg.residual(), n1=101, n2=17)
            print(f"  green variant: residual sup l{hg.depth}={sup:.3e}")
            if not math.isfinite(sup):
                bad.append(f"alpha={alpha} green level={hg.depth}")
        if args.dump:
            path = os.path.join(cfg.out_dir, f"hierarchy-a{alpha}.sexp")
            with open(path, "w") as fh:
                fh.write(h.dump_sexp())
            print(f"  wrote {path}")
    for where in bad:
        print(f"FAIL {where}: residual sup is not finite")
    return 1 if bad else 0


def cmd_corrector_verify(args) -> int:
    # the structural checks alone, whatever --config says
    cfg = _config_from_args(args, structural=True, envelopes=False, fd_checks=False,
                            **_NO_FITS)
    os.makedirs(cfg.out_dir, exist_ok=True)  # a bad --out fails before the sweep
    report = sweeps.run(cfg)
    for r in report.rows:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check} a={r.alpha} "
              f"{r.window}: measured={_num(r.measured, '.3e')} "
              f"tol={_num(r.tolerance, 'g')}")
    _emit_report(report, cfg)
    return 0 if report.all_passed else 1


def cmd_stokes_solve(args) -> int:
    cfg = _config_from_args(args, **_NO_FITS)
    if args.csv:
        os.makedirs(cfg.out_dir, exist_ok=True)  # a bad --out fails before the solve
    eps = cfg.eps[0]
    prof = cfg.load_profile(eps)
    try:  # bad grid sizes and levels; n1 too small for the |x1| <= R window
        grid = fd.NeckGrid(prof, r=1.5 * prof.R, n1=args.n1, n2=args.n2)
        grid.sup_window(prof.R)
        h = (build_symmetric_green(prof, args.level)
             if prof.symmetric else build_hierarchy(prof, 1, args.level))
    except ValueError as exc:
        raise ConfigError(f"stokes solve: {exc}") from None
    try:  # at a tiny eps the forcing or the matrix overflows, or the factor is singular
        sol = fd.solve_fields(grid, h.residual(args.level))
    except (ValueError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {str(exc)[:200]}", file=sys.stderr)
        return 1
    lu, (A, *_) = grid.solver()
    print(f"solved {args.n1}x{args.n2}: unknowns={A.shape[0]} "
          f"lu_fill={lu.nnz} residual={sol.residual_rel:.2e} "
          f"correction={sol.correction_rel:.2e} backward={sol.backward_err:.2e} "
          f"div={sol.div_max:.2e} sup|grad w|={fd.sup_grad(sol, prof.R):.4f} "
          f"energy={fd.global_energy(sol):.5e}")
    if args.csv:
        path = os.path.join(cfg.out_dir, args.csv)
        fd.export_csv(sol, path)
        print(f"wrote {path}")
    return 0


def cmd_sweep_rates(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)  # a bad --out fails before the sweep
    report = sweeps.run(cfg)
    n_fail = sum(not r.passed for r in report.rows)
    for r in report.rows:
        if not r.passed:
            print(f"FAIL {r.check} alpha={r.alpha} m={r.m} s={r.s} "
                  f"predicted={r.predicted} measured={r.measured}")
    print(f"{len(report.rows) - n_fail}/{len(report.rows)} checks passed")
    _emit_report(report, cfg)
    return 0 if n_fail == 0 else 1


def cmd_report_emit(args) -> int:
    try:
        with open(args.input) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # unreadable, or not text
        raise ConfigError(f"--input {args.input}: {exc}") from None
    report = sweeps.parse_report(text)
    text = sweeps.emit(report, args.to)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="neckflow",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("corrector", help="build or verify corrector hierarchies")
    csub = c.add_subparsers(dest="sub", required=True)
    b = csub.add_parser("build")
    _add_common(b, "alpha", "m")
    b.add_argument("--dump", action="store_true", help="write s-expression dump")
    b.set_defaults(func=cmd_corrector_build)
    v = csub.add_parser("verify")
    _add_common(v, "alpha", "m", "format")
    v.add_argument("--config", default=None)
    v.set_defaults(func=cmd_corrector_verify)

    s = sub.add_parser("stokes", help="finite-difference solves on the neck")
    ssub = s.add_subparsers(dest="sub", required=True)
    so = ssub.add_parser("solve")
    _add_common(so)
    so.add_argument("--level", type=int, default=2)
    so.add_argument("--n1", type=int, default=257)
    so.add_argument("--n2", type=int, default=64)
    so.add_argument("--csv", default=None, help="point-cloud output file name")
    so.set_defaults(func=cmd_stokes_solve)

    w = sub.add_parser("sweep", help="full verification sweeps")
    wsub = w.add_subparsers(dest="sub", required=True)
    r = wsub.add_parser("rates")
    _add_common(r, "alpha", "m", "format", "envelopes", "fd")
    r.add_argument("--config", default=None, help="RunConfig JSON path")
    r.set_defaults(func=cmd_sweep_rates)

    e = sub.add_parser("report", help="re-emit stored reports")
    esub = e.add_subparsers(dest="sub", required=True)
    em = esub.add_parser("emit")
    em.add_argument("--input", required=True, help="JSON report path")
    em.add_argument("--to", default="csv", choices=("csv", "json"))
    em.add_argument("--output", default=None)
    em.set_defaults(func=cmd_report_emit)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # at a tiny eps the powers of 1/delta overflow; a sample that is not
        # finite reaches the user through the row, error row or FAIL line
        # that reads it, not as numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, OSError) as exc:  # bad values, bad paths
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:  # a valid profile whose integrals do not converge
        print(f"error: QuadratureError: {str(exc)[:200]}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
