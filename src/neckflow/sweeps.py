"""Batch orchestration: hierarchy builds, verification sweeps and reports.

A run is described by a RunConfig, produces a RateReport (one row per check
with a predicted exponent or threshold, the measured value and a PASS flag),
and emits byte-stable CSV/JSON.  Identical configs give identical reports;
the report timestamp is carried in the JSON metadata only and excluded from
stability comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone

import numpy as np

from . import verifier as vf
from .verifier import ConfigError
from .correctors import verify_structure_many
from .geometry import NAMED_PROFILES

__all__ = [
    "ConfigError",
    "RunConfig",
    "RateRow",
    "RateReport",
    "run",
    "emit",
    "parse_report",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
M_CAP = 5

CSV_COLUMNS = ["check", "anchor", "profile", "alpha", "m", "s", "window",
               "predicted", "measured", "tolerance", "pass"]


def _is_a(v, kind) -> bool:
    """``v`` is a number of ``kind`` (numbers.Integral, numbers.Real), not a bool."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass(frozen=True)
class RunConfig:
    profile: str = "sym-quadratic"
    alphas: tuple = (1, 2, 3)
    m_max: int = 2
    eps: tuple = vf.DEFAULT_EPS_SWEEP
    structural: bool = True
    decay: bool = True
    blowup: bool = True
    envelopes: bool = False
    fd_checks: bool = False
    out_dir: str = "."
    formats: tuple = ("csv", "json")

    def validate(self):
        """Check the config's types and values, and the eps span the rate
        fits need (5 values over two decades) when a fit family is on."""
        if not isinstance(self.profile, str):
            raise ConfigError("profile must be a name or a path")
        if self.profile not in NAMED_PROFILES and not os.path.exists(self.profile):
            raise ConfigError(f"unknown profile {self.profile!r}")
        if not self.alphas or any(not _is_a(a, numbers.Integral) or a not in (1, 2, 3)
                                  for a in self.alphas):
            raise ConfigError("alphas must be a nonempty subset of {1,2,3}")
        if len(set(self.alphas)) < len(self.alphas):  # each alpha's rows would repeat
            raise ConfigError(f"alphas must name each alpha once, got {list(self.alphas)}")
        if not _is_a(self.m_max, numbers.Integral):
            raise ConfigError(f"m_max must be an integer, got {self.m_max!r}")
        if self.m_max > M_CAP:
            raise ConfigError(f"m_max={self.m_max} exceeds derivative cap {M_CAP}")
        if self.m_max < 0:
            raise ConfigError("m_max must be >= 0")
        if not all(_is_a(e, numbers.Real) and 0.0 < e < math.inf for e in self.eps):
            raise ConfigError("eps values must be positive finite numbers")
        eps = tuple(float(e) for e in self.eps)
        if not eps:
            raise ConfigError("eps list is empty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps values must be strictly decreasing")
        bad = [f for f in ("structural", "decay", "blowup", "envelopes", "fd_checks")
               if not isinstance(getattr(self, f), bool)]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be true or false")
        fits = self.decay or self.blowup or self.envelopes
        if fits and (len(eps) < 5 or eps[0] / eps[-1] < 10.0**2):
            raise ConfigError(
                f"insufficient eps span: need >= 5 values over >= 2 decades, "
                f"got {len(eps)}")
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a path")
        if not self.formats or any(f not in ("csv", "json") for f in self.formats):
            raise ConfigError("formats must be a nonempty subset of {'csv','json'}")
        self.load_profile(eps[0])  # a profile that does not load is a config error
        return self

    def load_profile(self, eps: float):
        return vf.load_profile(self.profile, eps)

    def canonical(self) -> str:  # the fields that choose the checks, not the output
        doc = asdict(self)
        del doc["out_dir"], doc["formats"]
        return json.dumps(doc, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    @staticmethod
    def from_json(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a run config is a JSON object, got {type(doc).__name__}")
        kwargs = dict(doc)
        try:
            for key in ("alphas", "eps", "formats"):
                if key in kwargs:
                    kwargs[key] = tuple(kwargs[key])
            return RunConfig(**kwargs)
        except TypeError as exc:  # unknown field, or a list field that is not one
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RateRow:
    check: str
    anchor: str
    profile: str
    alpha: int | None
    m: int | None
    s: int | None
    window: str
    predicted: float | None
    measured: float | None
    tolerance: float | None
    passed: bool

    def key(self):
        return (self.check, self.anchor, self.profile,
                -1 if self.alpha is None else self.alpha,
                -1 if self.m is None else self.m,
                -1 if self.s is None else self.s, self.window)


@dataclass
class RateReport:
    config_digest: str
    version: int = SCHEMA_VERSION
    rows: list = field(default_factory=list)
    created_at: str = ""

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def sort(self):
        self.rows.sort(key=RateRow.key)
        return self


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(report: RateReport, fmt: str, path: str | None = None) -> str:
    """Serialize a report; returns the text and optionally writes it."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in report.rows:
            w.writerow([r.check, r.anchor, r.profile, _fmt(r.alpha), _fmt(r.m),
                        _fmt(r.s), r.window, _fmt(r.predicted), _fmt(r.measured),
                        _fmt(r.tolerance), _fmt(r.passed)])
        text = buf.getvalue()
    elif fmt == "json":
        doc = {
            "version": report.version,
            "config_digest": report.config_digest,
            "created_at": report.created_at,
            "rows": [asdict(r) for r in report.rows],
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text


def parse_report(text: str) -> RateReport:
    try:
        doc = json.loads(text)
        return RateReport(doc["config_digest"], doc["version"],
                          [RateRow(**{**r, "passed": bool(r["passed"])})
                           for r in doc["rows"]],
                          doc.get("created_at", ""))
    except (KeyError, TypeError, ValueError) as exc:  # not JSON, not an object
        raise ConfigError(f"not a rate report: {exc!r}") from None


def _structural_rows(config: RunConfig, cache: vf.HierarchyCache) -> list:
    rows = []
    levels = min(config.m_max + 1, 4)
    eps_struct = [e for e in config.eps if e >= 1e-3] or [config.eps[0]]
    for alpha in sorted(config.alphas):
        # one hierarchy serves every eps, and one walk per level covers them
        # all; no row reads the identity check, so it is not walked
        h = cache.get(config.profile, alpha, levels)
        for l in range(1, levels + 1):
            infos = verify_structure_many(h, l, eps_struct, n1=101, n2=17, n_trace=301)
            for eps, info in zip(eps_struct, infos):
                win = f"eps={eps:g},l={l}"
                rows.append(RateRow("structural/divergence", "exactness", config.profile,
                                    alpha, l - 1, None, win, 0.0, info["div_sup"],
                                    1e-8, info["div_sup"] < 1e-8))
                rows.append(RateRow("structural/trace", "exactness", config.profile,
                                    alpha, l - 1, None, win, 0.0, info["trace_sup"],
                                    1e-10, info["trace_sup"] < 1e-10))
                d1, d2 = info["degrees"]
                e1, e2 = info["expected_degrees"]
                rows.append(RateRow("structural/degrees", "exactness", config.profile,
                                    alpha, l - 1, None, win, float(e1 * 100 + e2),
                                    float(d1 * 100 + d2), 0.0,
                                    d1 <= e1 and d2 <= e2))
    return rows


def _decay_rows(config: RunConfig, cache: vf.HierarchyCache) -> list:
    rows = []
    eps_fit = config.eps[-1]
    for alpha in sorted(config.alphas):
        h = cache.get(config.profile, alpha, config.m_max + 1)
        for m in range(1, config.m_max + 1):
            # the fits of every s from one walk
            for res in vf.residual_orders(h, range(m + 1), m, eps=eps_fit):
                rows.append(RateRow(
                    "decay/residual", "order", config.profile, alpha, m, res["s"],
                    f"[2sqrt(eps),R/2]@eps={eps_fit:g}", res["predicted"],
                    res["fit"].slope, res["tolerance"], res["passed"]))
    return rows


def _blowup_rows(config: RunConfig, cache: vf.HierarchyCache) -> list:
    if not cache.shape(config.profile).symmetric or 1 not in config.alphas:
        return []
    h = cache.get(config.profile, 1, 1, green=True)
    rows = []
    for m in range(0, min(config.m_max, 3) + 1):
        res = vf.corrector_blowup_order(h, config.eps, m)
        rows.append(RateRow(
            "rate/blowup", "lower-bound", config.profile, 1, m, None,
            "x1=0.5*sqrt(eps)", res["predicted"], res["fit"].slope,
            res["tolerance"], res["passed"]))
    return rows


def _envelope_rows(config: RunConfig, cache: vf.HierarchyCache) -> list:
    if set(config.alphas) != {1, 2, 3}:
        return []
    rows = []
    for r in vf.theorem_rate_table(config.eps, tuple(range(min(config.m_max, 2) + 1)),
                                   cache=cache):
        rows.append(RateRow(
            f"envelope/{r['fit_kind']}", r["family"], vf.FAMILIES[r["family"]][0],
            None, r["m"], None, r["fit_kind"], r["predicted"], r["slope"],
            r["tolerance"], r["passed"]))
    return rows


def _fd_rows(config: RunConfig, cache: vf.HierarchyCache) -> list:
    from . import fd
    rows = []
    prof = config.load_profile(0.05)
    w, _q, f = fd.manufactured_solution(prof, 1.2 * prof.R)
    errs, hs = [], []
    for n in (32, 64, 128):
        g = fd.NeckGrid(prof, r=1.2 * prof.R, n1=n, n2=max(32, n))
        sol = fd.solve_fields(g, f, bc_field=w)
        ue = w.u1.eval(g.xf, g.x2_of(g.xf[:, None], g.tc[None, :]))
        errs.append(float(np.max(np.abs(sol.u - ue))))
        hs.append(2.0 * 1.2 * prof.R / n)
    order = vf.fit_decay_order(zip(hs, errs), min_samples=3, min_decades=0.5).slope
    rows.append(RateRow("fd/manufactured-order", "solver", config.profile, None,
                        None, None, "32..128", 2.0, order, 0.2,
                        1.8 <= order <= 2.2))
    return rows


def run(config: RunConfig) -> RateReport:
    """Execute a configured verification sweep; never raises on check failure."""
    config.validate()
    cache = vf.HierarchyCache()
    report = RateReport(config.digest())
    parts = []
    if config.structural:
        parts.append(_structural_rows)
    if config.decay:
        parts.append(_decay_rows)
    if config.blowup:
        parts.append(_blowup_rows)
    if config.envelopes:
        parts.append(_envelope_rows)
    if config.fd_checks:
        parts.append(_fd_rows)
    for part in parts:
        try:
            report.rows.extend(part(config, cache))
        except Exception as exc:  # a failing family becomes a failing row
            report.rows.append(RateRow(
                f"error/{part.__name__.strip('_')}", type(exc).__name__,
                config.profile, None, None, None, str(exc)[:80], None, None,
                None, False))
    report.created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return report.sort()
