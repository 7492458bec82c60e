"""Slope and ratio checks for the hierarchy's decay and blow-up predictions.

The estimates being tested are asymptotic with uncomputable constants, so
every check here is a log-log slope comparison against a predicted exponent
with a stated tolerance, never an absolute-constant claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correctors import CorrectorHierarchy, build_hierarchy, build_symmetric_green
from .fields import deriv_fields, eval_fields, fiber_max, fiber_x2
from .geometry import NAMED_PROFILES, NeckProfile, check_eps, named_profile, profile_from_json

__all__ = [
    "ConfigError",
    "RateFit",
    "load_profile",
    "fit_decay_order",
    "residual_order",
    "residual_orders",
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
FIBER_N2 = 17        # samples across the gap on each fiber
DELTA_N_X1 = 16      # fibers in theorem_rate_table's window at fixed eps


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
    # a NaN sample makes ss_tot NaN, and r2 with it
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(slope), float(intercept), r2, len(pts))


def decay_window(profile: NeckProfile, n: int = 20, eps=None) -> np.ndarray:
    """Geometric x1 samples on [2 sqrt(eps), R/2], outside the flat core, at
    ``eps`` or the profile's own."""
    eps = profile.eps_or(eps)
    lo = WINDOW_CUTOFF * np.sqrt(eps)
    hi = profile.R / 2.0
    if lo >= hi:
        raise ValueError(f"window [{lo:.3g}, {hi:.3g}] is empty at eps={eps}")
    return np.geomspace(lo, hi, n)


def residual_order(h: CorrectorHierarchy, s: int, m: int, eps=None) -> dict:
    """Fitted decay order of sup-fiber |grad^s f^{m+1}| against the gap width,
    at ``eps`` or the hierarchy's profile's own (``residual_orders`` at one s).

    Passes when the slope is at least (m - s - 1) - 0.25; faster decay than
    predicted is a pass.
    """
    return residual_orders(h, (s,), m, eps)[0]


def residual_orders(h: CorrectorHierarchy, s_values, m: int, eps=None) -> list[dict]:
    """``residual_order``'s dict at each s of ``s_values``, from one walk over
    the derivative fields of every s.  The fields are made in the order of
    ``s_values`` before the walk, as one ``residual_order`` call per s makes
    them, and a fiber's values do not depend on which other fields share
    its walk, so each dict is that call's bit for bit."""
    if any(s > m for s in s_values):
        raise ValueError("derivative order s must satisfy s <= m")
    if h.depth < m + 1:
        raise ValueError(f"hierarchy has {h.depth} levels, need {m + 1}")
    eps = h.profile.eps_or(eps)
    x1 = decay_window(h.profile, eps=eps)
    f = h.residual(m + 1)
    fields = [deriv_fields(f, s) for s in s_values]
    vals = iter(eval_fields(fields, x1, fiber_x2(h.profile, x1, FIBER_N2, eps), eps))
    dlt = h.profile.delta(x1, eps)
    rows = []
    for s, group in zip(s_values, fields):
        fit = fit_decay_order(zip(dlt, fiber_max([next(vals) for _ in group])))
        predicted = float(m - s - 1)
        rows.append({
            "fit": fit,
            "predicted": predicted,
            "tolerance": RESIDUAL_SLOPE_TOL,
            "passed": fit.slope >= predicted - RESIDUAL_SLOPE_TOL,
            "m": m,
            "s": s,
            "alpha": h.alpha,
        })
    return rows


def corrector_blowup_order(h: CorrectorHierarchy, eps, m: int,
                           r_eval: float = R_EVAL) -> dict:
    """Growth order in eps of d^m/dx1^m d/dx2 of the first level's first
    velocity component at (r sqrt(eps), 0); the predicted slope is -(m+2)/2.

    The field is evaluated in one walk at every point x1 = r sqrt(eps) of
    the list ``eps``, each point at its own eps.
    """
    eps = check_eps(np.array(eps, dtype=float))
    x_eval = r_eval * np.sqrt(eps)
    if np.any(x_eval > h.profile.R):
        raise ValueError("evaluation point outside the chart")
    g = h.level(1).v.u1.partial_x1(m).partial_x2(1)
    vals = eval_fields(g, x_eval, np.zeros_like(x_eval), eps)[0]
    fit = fit_decay_order(zip(eps, np.abs(vals).tolist()), min_samples=5, min_decades=2.0)
    predicted = -(m + 2) / 2.0
    return {"fit": fit, "predicted": predicted, "tolerance": BLOWUP_SLOPE_TOL,
            "passed": abs(fit.slope - predicted) <= BLOWUP_SLOPE_TOL, "m": m}


def load_profile(spec: str, eps: float | None) -> NeckProfile:
    """Resolve a profile given a built-in name or a JSON document path; an
    ``eps`` of None gives its wall shape."""
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
    """Build-once store of hierarchies, keyed by wall shape.

    The construction never reads eps, so one hierarchy per (profile, alpha,
    green) serves every eps: ``get`` builds it on the profile's wall shape
    (``shape``, loaded once with ``eps=None``), extends it to the deepest
    level asked for and returns it.  Every read of a hierarchy, and of its
    shape's geometry (``delta``, walls, windows), names its eps.
    """

    def __init__(self):
        self._shapes: dict = {}
        self._hier: dict = {}

    def shape(self, name: str) -> NeckProfile:
        shape = self._shapes.get(name)
        if shape is None:
            shape = self._shapes[name] = load_profile(name, None)
        return shape

    def get(self, name: str, alpha: int, levels: int,
            green: bool = False) -> CorrectorHierarchy:
        key = (name, alpha, green)
        h = self._hier.get(key)
        if h is None:
            shape = self.shape(name)
            h = self._hier[key] = (build_symmetric_green(shape, levels) if green
                                   else build_hierarchy(shape, alpha, levels))
        return h.extend_to(levels)


# envelope families: profile, then (alpha, green) per member hierarchy.  The
# symmetric family takes mode 1 from the Green construction and drops the
# rotation (odd data on identical walls).
FAMILIES = {
    "general": ("asym-quadratic", ((1, False), (2, False), (3, False))),
    "symmetric": ("sym-quadratic", ((1, True), (2, False))),
}


def _envelopes(cache: HierarchyCache, family: str, eps, m_values,
               x1: np.ndarray) -> list[np.ndarray]:
    """Mode-weighted derivative envelope over the family's members at each m
    of ``m_values``, at x1[i] and gap eps[i]: sqrt(eps) on the translation
    modes, eps^{3/2} on the vertical mode times the per-fiber sup of
    |grad^{m+1} v^{m+1}| + the pressure part at order m.  One walk per
    member covers every m and every point.  The fields are made first, m
    outer and member inner, in the order one call per m makes them, since
    the order of interning sets the order of terms in sums."""
    name, members = FAMILIES[family]
    eps = [float(e) for e in eps]
    fields = [[] for _ in members]  # per member: (velocity, pressure) fields per m
    for m in m_values:
        for per_m, (alpha, green) in zip(fields, members):
            h = cache.get(name, alpha, m + 1, green=green)
            vel = deriv_fields(h.cumulative_v(m + 1), m + 1)
            p = h.cumulative_pressure(m + 1)
            per_m.append((vel, [p] if m == 0 else deriv_fields(p, m)))
    shape, n = cache.shape(name), len(x1)
    pts, at = x1, np.array(eps)
    if 0 in m_values:
        # the pressure in the gauge p(R/2, 0) = 0: each point's gauge value
        # is one more fiber, at x1 = R/2, whose samples all sit at x2 = 0
        pts, at = np.concatenate([x1, np.full(n, shape.R / 2)]), np.concatenate([at, at])
    x2 = fiber_x2(shape, pts, FIBER_N2, at)
    x2[n:] = 0.0  # the gauge fibers, if any
    envs = [np.zeros_like(x1) for _ in m_values]
    for per_m, (alpha, _) in zip(fields, members):
        vals = iter(eval_fields([vel + pf for vel, pf in per_m], pts, x2, at))
        scale = np.array([ep**1.5 if alpha == 2 else np.sqrt(ep) for ep in eps])
        for i, (m, (vel, pf)) in enumerate(zip(m_values, per_m)):
            v, pv = [next(vals) for _ in vel], [next(vals) for _ in pf]
            if m == 0:
                sups = fiber_max(v)[:n] + np.max(np.abs(pv[0][:n] - pv[0][n:, :1]), axis=-1)
            else:
                sups = fiber_max(v)[:n] + fiber_max(pv)[:n]
            envs[i] = envs[i] + scale * sups
    return envs


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
                       cache: HierarchyCache | None = None) -> list[dict]:
    """Measured envelope slopes, in the gap width at fixed eps and in eps at
    the moving point x1 = 0.5 sqrt(eps), against the predicted exponents.
    Each member hierarchy is walked once per family, for every m of
    ``m_values`` and every point of both fits (``_envelopes``)."""
    cache = cache or HierarchyCache()
    eps_sweep = sorted(eps_sweep, reverse=True)
    x_sweep = [R_EVAL * np.sqrt(eps) for eps in eps_sweep]
    rows = []
    for family, (name, _) in FAMILIES.items():
        eps_d, cutoff = _DELTA_FIT[family]
        shape = cache.shape(name)
        x1 = np.geomspace(cutoff * np.sqrt(eps_d), shape.R / 2.0, DELTA_N_X1)
        # the delta window at eps_d and the moving point of each sweep eps,
        # in one envelope per m
        envs = _envelopes(cache, family, [eps_d] * DELTA_N_X1 + eps_sweep, m_values,
                          np.concatenate([x1, x_sweep]))
        for m, env in zip(m_values, envs):
            pred_d = _envelope_exponent(family, m)
            fit_d = fit_decay_order(zip(shape.delta(x1, eps_d), env[:DELTA_N_X1]))
            pred_e = 0.5 + pred_d
            fit_e = fit_decay_order(zip(eps_sweep, env[DELTA_N_X1:]), min_samples=5,
                                    min_decades=1.5)
            for kind, fit, pred in (("delta", fit_d, pred_d), ("eps", fit_e, pred_e)):
                rows.append({
                    "family": family, "m": m, "fit_kind": kind,
                    "slope": fit.slope, "predicted": pred,
                    "tolerance": ENVELOPE_SLOPE_TOL, "r2": fit.r2,
                    "passed": abs(fit.slope - pred) <= ENVELOPE_SLOPE_TOL,
                })
    return rows
