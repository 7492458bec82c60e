"""Slope and ratio checks for the hierarchy's decay and blow-up predictions.

The estimates being tested are asymptotic with uncomputable constants, so
every check here is a log-log slope comparison against a predicted exponent
with a stated tolerance, never an absolute-constant claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correctors import CorrectorHierarchy, build_hierarchy, build_symmetric_green
from .fields import deriv_fields, eval_fields, fiber_max, fiber_sup, fiber_x2
from .geometry import NAMED_PROFILES, NeckProfile, named_profile, profile_from_json

__all__ = [
    "ConfigError",
    "RateFit",
    "load_profile",
    "fit_decay_order",
    "residual_order",
    "corrector_blowup_order",
    "theorem_rate_table",
    "HierarchyCache",
    "DEFAULT_EPS_SWEEP",
    "WINDOW_CUTOFF",
    "R_EVAL",
]

DEFAULT_EPS_SWEEP = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
WINDOW_CUTOFF = 2.0  # lower window edge at 2*sqrt(eps): quadratic growth dominates
R_EVAL = 0.5         # blow-up rates are sampled at (R_EVAL*sqrt(eps), 0)
RESIDUAL_SLOPE_TOL = 0.25
BLOWUP_SLOPE_TOL = 0.05
ENVELOPE_SLOPE_TOL = 0.1


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    n: int


def fit_decay_order(samples, min_samples: int = 6, min_decades: float = 1.5) -> RateFit:
    """Ordinary least squares on (log x, log y) pairs.

    Rejects short or degenerate inputs: at least ``min_samples`` points, all
    magnitudes positive, abscissas spanning ``min_decades`` decades.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if len(pts) < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("all samples must be positive for a log-log fit")
    span = np.log10(xs.max() / xs.min())
    if span < min_decades:
        raise ValueError(
            f"insufficient span: {span:.2f} decades < {min_decades}")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), r2, len(pts))


def decay_window(profile: NeckProfile, n: int = 20) -> np.ndarray:
    """Geometric x1 samples on [2 sqrt(eps), R/2], outside the flat core."""
    lo = WINDOW_CUTOFF * np.sqrt(profile.eps)
    hi = profile.R / 2.0
    if lo >= hi:
        raise ValueError(f"window [{lo:.3g}, {hi:.3g}] is empty at eps={profile.eps}")
    return np.geomspace(lo, hi, n)


def residual_order(h: CorrectorHierarchy, s: int, m: int | None = None,
                   n_x1: int = 20, n2: int = 17) -> dict:
    """Fitted decay order of sup-fiber |grad^s f^{m+1}| against the gap width.

    Passes when the slope is at least (m - s - 1) - 0.25; faster decay than
    predicted is a pass.
    """
    m = (h.depth - 1) if m is None else m
    if s > m:
        raise ValueError("derivative order s must satisfy s <= m")
    if h.depth < m + 1:
        raise ValueError(f"hierarchy has {h.depth} levels, need {m + 1}")
    profile = h.profile
    x1 = decay_window(profile, n_x1)
    f = h.residual(m + 1)
    sup = fiber_sup(deriv_fields(f, s), x1, n2)
    dlt = profile.delta(x1)
    fit = fit_decay_order(zip(dlt, sup))
    predicted = float(m - s - 1)
    return {
        "fit": fit,
        "predicted": predicted,
        "tolerance": RESIDUAL_SLOPE_TOL,
        "passed": fit.slope >= predicted - RESIDUAL_SLOPE_TOL,
        "m": m,
        "s": s,
        "alpha": h.alpha,
    }


def corrector_blowup_order(hierarchies, m: int, r_eval: float = R_EVAL) -> dict:
    """Growth order in eps of d^m/dx1^m d/dx2 of the first level's first
    velocity component at (r sqrt(eps), 0); the predicted slope is -(m+2)/2.

    ``hierarchies`` holds one hierarchy per eps (same profile family).  Each
    field is an eps-generic DAG, so all are evaluated in one walk at every
    point x1 = r sqrt(eps), each point at its own eps.
    """
    eps_vals = [h.profile.eps for h in hierarchies]
    x_eval = np.array([r_eval * np.sqrt(eps) for eps in eps_vals])
    if any(x > h.profile.R for x, h in zip(x_eval, hierarchies)):
        raise ValueError("evaluation point outside the chart")
    gs = [h.level(1).v.u1.partial_x1(m).partial_x2(1) for h in hierarchies]
    fields = {g.coeffs: g for g in gs}  # eps views of one hierarchy share it
    vals = dict(zip(fields, eval_fields(list(fields.values()), x_eval,
                                        np.zeros_like(x_eval), np.array(eps_vals))))
    mags = [float(np.abs(vals[g.coeffs][i])) for i, g in enumerate(gs)]
    fit = fit_decay_order(zip(eps_vals, mags), min_samples=5, min_decades=2.0)
    predicted = -(m + 2) / 2.0
    return {"fit": fit, "predicted": predicted, "tolerance": BLOWUP_SLOPE_TOL,
            "passed": abs(fit.slope - predicted) <= BLOWUP_SLOPE_TOL, "m": m}


def load_profile(spec: str, eps: float) -> NeckProfile:
    """Resolve a profile given a built-in name or a JSON document path."""
    if spec in NAMED_PROFILES:
        return named_profile(spec, eps=eps)
    import json
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ConfigError(f"profile {spec}: {exc}") from None
    try:
        return profile_from_json({**doc, "eps": eps})
    except (TypeError, ValueError) as exc:  # not an object, or bad fields
        raise ConfigError(f"profile {spec}: {exc}") from None


class HierarchyCache:
    """Build-once store of hierarchies.

    The construction sees eps only through the shape's eps leaf, so one
    hierarchy per (profile, alpha, green) serves every eps: it is built at
    the first eps asked for, extended to the deepest level asked for, and
    read at each eps through ``CorrectorHierarchy.at``.  Each profile name is
    loaded once; other eps are ``NeckProfile.at`` of it.  ``get`` returns the
    eps-bound view, kept per (profile, eps, alpha, green).
    """

    def __init__(self):
        self._shapes: dict = {}
        self._profiles: dict = {}
        self._shared: dict = {}
        self._hier: dict = {}

    def profile(self, name: str, eps: float) -> NeckProfile:
        key = (name, eps)
        prof = self._profiles.get(key)
        if prof is not None:
            return prof
        shape = self._shapes.get(name)
        if shape is None:
            prof = self._shapes[name] = load_profile(name, eps)
        else:
            try:
                prof = shape.at(eps)
            except ValueError as exc:  # as load_profile: files give config errors
                if name in NAMED_PROFILES:
                    raise
                raise ConfigError(f"profile {name}: {exc}") from None
        self._profiles[key] = prof
        return prof

    def get(self, name: str, eps: float, alpha: int, levels: int,
            green: bool = False) -> CorrectorHierarchy:
        key = (name, eps, alpha, green)
        h = self._hier.get(key)
        if h is None or h.depth < levels:
            profile = self.profile(name, eps)
            base = self._shared.get((name, alpha, green))
            if base is None:
                base = (build_symmetric_green(profile, levels) if green
                        else build_hierarchy(profile, alpha, levels))
                self._shared[(name, alpha, green)] = base
            h = self._hier[key] = base.extend_to(levels).at(profile)
        return h


# envelope families: profile, then (alpha, green) per member hierarchy.  The
# symmetric family takes mode 1 from the Green construction and drops the
# rotation (odd data on identical walls).
FAMILIES = {
    "general": ("asym-quadratic", ((1, False), (2, False), (3, False))),
    "symmetric": ("sym-quadratic", ((1, True), (2, False))),
}


def _envelope_sups(h: CorrectorHierarchy, m: int, x1: np.ndarray, eps: np.ndarray,
                   n2: int, z1: float) -> np.ndarray:
    """Per-fiber sup of |grad^{m+1} v^{m+1}| + the pressure part at order m,
    at x1[i] and gap eps[i], velocity and pressure from one walk."""
    vel = deriv_fields(h.cumulative_v(m + 1), m + 1)
    p = h.cumulative_pressure(m + 1)
    n = len(x1)
    if m == 0:
        # the pressure in the gauge p(z1, 0) = 0: each point's gauge value is
        # one more fiber, at x1 = z1, whose samples all sit at x2 = 0
        pts, eps = np.concatenate([x1, np.full(n, z1)]), np.concatenate([eps, eps])
        x2 = fiber_x2(h.profile, pts, n2, eps)
        x2[n:] = 0.0
        vals = eval_fields(vel + [p], pts, x2, eps)
        pv = vals.pop()
        return fiber_max(vals)[:n] + np.max(np.abs(pv[:n] - pv[n:, :1]), axis=-1)
    vals = eval_fields(vel + deriv_fields(p, m), x1, fiber_x2(h.profile, x1, n2, eps), eps)
    return fiber_max(vals[:len(vel)]) + fiber_max(vals[len(vel):])


def _envelope(cache: HierarchyCache, family: str, eps, m: int,
              x1: np.ndarray, n2: int = 17) -> np.ndarray:
    """Mode-weighted derivative envelope over the family's members at x1[i]
    and gap eps[i]: sqrt(eps) on the translation modes, eps^{3/2} on the
    vertical mode.  One walk per member covers every point."""
    name, members = FAMILIES[family]
    eps = [float(e) for e in eps]
    z1 = cache.profile(name, eps[0]).R / 2.0
    e = np.zeros_like(x1)
    for alpha, green in members:
        # the cache validates and serves each eps; the views share one DAG,
        # which is evaluated once at each point's eps
        views = [cache.get(name, ep, alpha, m + 1, green=green) for ep in dict.fromkeys(eps)]
        scale = np.array([ep**1.5 if alpha == 2 else np.sqrt(ep) for ep in eps])
        e = e + scale * _envelope_sups(views[0], m, x1, np.array(eps), n2, z1)
    return e


def _envelope_exponent(family: str, m: int) -> float:
    if family == "symmetric":
        return -(m + 2) / 2.0
    return -1.5 if m == 0 else -(m + 3) / 2.0


# family-specific windows for the fixed-eps fit.  The vertical-translation
# mode is weighted eps^{3/2} and only fades like (eps/delta) relative to the
# translation mode; both families need a small eps for span, and the
# symmetric family additionally a higher cutoff before its slope is visible.
_DELTA_FIT = {"general": (1e-5, 3.0), "symmetric": (1e-5, 6.0)}


def theorem_rate_table(eps_sweep=DEFAULT_EPS_SWEEP, m_values=(0, 1, 2),
                       cache: HierarchyCache | None = None,
                       n_x1: int = 16, n2: int = 17) -> list[dict]:
    """Measured envelope slopes, in the gap width at fixed eps and in eps at
    the moving point x1 = 0.5 sqrt(eps), against the predicted exponents."""
    cache = cache or HierarchyCache()
    eps_sweep = sorted(eps_sweep, reverse=True)
    x_sweep = [R_EVAL * np.sqrt(eps) for eps in eps_sweep]
    rows = []
    for family, (name, _) in FAMILIES.items():
        eps_d, cutoff = _DELTA_FIT[family]
        for m in m_values:
            pred_d = _envelope_exponent(family, m)
            prof = cache.profile(name, eps_d)
            x1 = np.geomspace(cutoff * np.sqrt(eps_d), prof.R / 2.0, n_x1)
            # the delta window at eps_d and the moving point of each sweep
            # eps, in one envelope
            env = _envelope(cache, family, [eps_d] * n_x1 + eps_sweep, m,
                            np.concatenate([x1, x_sweep]), n2)
            fit_d = fit_decay_order(zip(prof.delta(x1), env[:n_x1]))
            pred_e = 0.5 + pred_d
            fit_e = fit_decay_order(zip(eps_sweep, env[n_x1:]), min_samples=5,
                                    min_decades=1.5)
            for kind, fit, pred in (("delta", fit_d, pred_d), ("eps", fit_e, pred_e)):
                rows.append({
                    "family": family, "m": m, "fit_kind": kind,
                    "slope": fit.slope, "predicted": pred,
                    "tolerance": ENVELOPE_SLOPE_TOL, "r2": fit.r2,
                    "passed": abs(fit.slope - pred) <= ENVELOPE_SLOPE_TOL,
                })
    return rows
