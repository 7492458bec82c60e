"""Divergence-free corrector hierarchies for the three rigid boundary modes.

For each boundary mode psi_1=(1,0), psi_2=(0,1), psi_3=(x2,-x1) the hierarchy
is a sequence of velocity/pressure pairs (v^l, p_l), l = 1..m+1, with

  * v^1 matching psi_alpha on the top wall and 0 on the bottom wall,
  * v^l vanishing on both walls for l >= 2,
  * div v^l = 0 exactly,
  * the cumulative residual f^l = mu*Lap(sum v) - grad(sum p) gaining one
    power of the gap width per level.

Each pressure p_l is one `PolyField` in x2, like the velocity: the pure
function of x1 that the construction integrates (the pure pressure) is its
x2^0 coefficient.  Each level stores its residual in the reduced form
produced by the construction (degrees are structural); `verify_level`
certifies numerically that the reduced form equals
mu*Lap(v^l) - grad(p_l) + f^{l-1}.

Past the first level, every level of the general construction is made by
one closure step (`_close`), in four stages: a row F1 in x2 whose velocity
F1 (k^2 - 1/4) cancels the leading residual; a row F2 that leaves the
divergence a pure function R of x1; the closers F1t, F2t that remove R, so
the divergence is exactly zero; and the pure pressure 2 mu int F1t/delta^2
that cancels the leading term F1t adds.  One generic step builds every level
>= 2 of modes 1 and 3, mode 3's second included.  Mode 2 uses `_close` on the
first component less its pressure's x1-derivative at every level >= 2, and at
its first level to correct its transport part.

A level's `split` holds the strong parts of its residual, which the next level
cancels, and the mild parts, which it carries: (s, g) of the second component
for mode 2, (s, g, st, gt) of both components for mode 3's first level.

For identical walls a Green-kernel variant builds the same objects by
resolving d^2/dx2^2 directly on each gap fiber; it gains half an order of
decay per derivative over the general construction.

Construction (`build_hierarchy`, `build_symmetric_green`, `extend`) runs
with the cyclic garbage collector paused, and leaves it as it found it.  A
build allocates nodes by the thousand and frees few, so the collector would
start a pass every few hundred allocations, some over the whole DAG.  Pausing
it is safe: the coefficient DAG is acyclic, with children made before
parents, and its nodes live as long as their profile's intern table, so such
a pass could free nothing; reference counting frees every temporary.  A
build also computes each product's rule terms once, for every ``diff`` that
reaches the product, and drops them when its outermost call returns.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field

import numpy as np

from . import coeffs as ca
from .coeffs import Coeff
from .fields import (
    PolyField,
    VectorField2,
    cheb_nodes,
    eval_fields,
    fiber_max,
    fiber_x2,
    horner_x2,
    keller_field,
    keller_plus_half,
    keller_x1_deriv,
    ksq_minus_quarter,
    trace,
    wall_curve,
    x2_field,
)
from .geometry import NeckProfile

__all__ = [
    "LEVEL_CAP",
    "ConstructionError",
    "CorrectorLevel",
    "CorrectorHierarchy",
    "build_first_level",
    "extend",
    "build_hierarchy",
    "build_symmetric_green",
    "verify_level",
    "verify_structure_many",
    "psi_top_traces",
]

LEVEL_CAP = 6

# residual x2-degrees of the constructions: (first component, second component)
RESIDUAL_DEGREES = {
    1: lambda l: (2 * l, 2 * l + 1),
    2: lambda l: (2 * l + 2, 2 * l + 3),
    3: lambda l: (4, 5) if l == 1 else (2 * l, 2 * l + 1),
}


class ConstructionError(RuntimeError):
    """A hierarchy level violated its structural degree contract."""


@dataclass
class CorrectorLevel:
    alpha: int
    level: int
    v: VectorField2
    pressure: PolyField
    residual: VectorField2  # cumulative: mu*Lap(sum v) - grad(sum p) through this level
    split: tuple = field(default=None, repr=False)  # mode-specific recursion state


@dataclass
class CorrectorHierarchy:
    profile: NeckProfile
    alpha: int
    levels: list
    green: bool = False

    @property
    def depth(self) -> int:
        return len(self.levels)

    def _checked_level(self, l: int | None) -> int:
        """``l``, or the depth for None; a level outside 1..depth is an error."""
        if l is None:
            return self.depth
        if not 1 <= l <= self.depth:
            raise ValueError(f"level {l} is outside 1..{self.depth}, the hierarchy's depth")
        return l

    def level(self, l: int) -> CorrectorLevel:
        return self.levels[self._checked_level(l) - 1]

    def residual(self, l: int | None = None) -> VectorField2:
        return self.levels[self._checked_level(l) - 1].residual

    def cumulative_v(self, upto: int | None = None) -> VectorField2:
        return self._cumulative("v", upto)

    def cumulative_pressure(self, upto: int | None = None) -> PolyField:
        return self._cumulative("pressure", upto)

    def _cumulative(self, part: str, upto: int | None):
        """Levels 1..upto (all by default) of one part, summed in level order."""
        first, *rest = [getattr(lev, part) for lev in self.levels[:self._checked_level(upto)]]
        return sum(rest, first)

    def extend_to(self, depth: int) -> "CorrectorHierarchy":
        while self.depth < depth:
            extend(self)
        return self

    def dump_sexp(self) -> str:
        """Shared-node dump: each level's new nodes as ``#id`` lines, children
        first and referenced by id, then the level's rows naming their ids."""
        lines = [f"(hierarchy alpha={self.alpha} green={int(self.green)} profile={self.profile.name})"]
        seen: dict = {}
        for lev in self.levels:
            rows = [(f"{tag} {j}", c)
                    for tag, f in (("v1", lev.v.u1), ("v2", lev.v.u2),
                                   ("f1", lev.residual.u1), ("f2", lev.residual.u2),
                                   ("p", lev.pressure))
                    for j, c in enumerate(f.coeffs)]
            lines += ca.dump_rows([c for _, c in rows], seen)
            lines.append(f"(level {lev.level}")
            lines += [f"  ({tag} #{c._id})" for tag, c in rows]
            lines.append(")")
        return "\n".join(lines)


# -- shared building blocks ---------------------------------------------------


def _context(profile: NeckProfile):
    d = ca.delta_coeff(profile)
    dh = ca.lin([(ca.profile_deriv(profile, 1, 0), 1.0),
                 (ca.profile_deriv(profile, 2, 0), -1.0)])
    q4 = ca.q4_coeff(profile)
    return d, dh, q4


def _close(profile: NeckProfile, target: PolyField, top: int):
    """One closure step: (v, p_pure) with v = (F1 + F1t, F2 + F2t)(k^2 - 1/4).

    F1^i, i=0..top, solves mu d2/dx2^2 [(sum_i F1^i x2^i)(k^2 - 1/4)] = -target;
    F2^i, i=0..top+1, makes the divergence a pure function R of x1; the
    closers F1t = 6 int_0^{x1} delta R / delta and F2t = -2 delta R k
    - delta dk/dx1 F1t remove R; p_pure = 2 mu int_0^{x1} F1t / delta^2."""
    if target.degree > top:
        raise ConstructionError(
            f"cancellation target has degree {target.degree} > {top}")
    d, dh, q4 = _context(profile)
    mu = profile.mu
    zero = ca.const(0.0)
    # both rows carry two structural zeros past their top entry
    F1 = [zero] * (top + 3)
    for i in range(top, -1, -1):
        F1[i] = ca.lin([
            (ca.mul_pow([(d, 2), (target.coeff(i), 1)]), -1.0 / (mu * (i + 1) * (i + 2))),
            (dh * F1[i + 1], 1.0),
            (q4 * F1[i + 2], 1.0),
        ])

    inv_d2 = ca.mul_pow([(d, -2)])
    F2 = [zero] * (top + 4)
    for i in range(top + 1, -1, -1):
        inner = ca.lin([(F1[i - 1] if i else zero, 1.0), (dh * F1[i], -1.0),
                        (q4 * F1[i + 1], -1.0)])
        F2[i] = ca.lin([
            (dh * F2[i + 1], 1.0),
            (q4 * F2[i + 2], 1.0),
            (ca.mul_pow([(d, 2), (ca.coeff_diff(inner * inv_d2), 1)]), -1.0 / (i + 2)),
        ])
    R = ca.lin([
        (ca.coeff_diff(ca.mul_pow([(q4, 1), (F1[0], 1), (d, -2)])), -1.0),
        (ca.mul_pow([(q4, 1), (F2[1], 1), (d, -2)]), -1.0),
        (ca.mul_pow([(dh, 1), (F2[0], 1), (d, -2)]), -1.0),
    ])

    F1t = ca.quotient(ca.lin([(ca.antideriv(0.0, d * R), 6.0)]), d)
    k = keller_field(profile)
    dk = keller_x1_deriv(profile)
    F2t = k.scale(ca.mul_pow([(d, 1), (R, 1)], -2.0)) + dk.scale(ca.lin([(d * F1t, -1.0)]))

    kq = ksq_minus_quarter(profile)
    v = VectorField2((PolyField(profile, F1) + PolyField(profile, [F1t])) * kq,
                     (PolyField(profile, F2) + F2t) * kq)
    p_pure = ca.lin([(ca.antideriv(0.0, ca.mul_pow([(F1t, 1), (d, -2)])), 2.0 * mu)])
    return v, p_pure


def _checked(lev: CorrectorLevel) -> CorrectorLevel:
    """``lev``, once its residual meets its mode's degree contract."""
    d1, d2 = RESIDUAL_DEGREES[lev.alpha](lev.level)
    u1, u2 = lev.residual.u1.degree, lev.residual.u2.degree
    if u1 > d1 or u2 > d2:
        raise ConstructionError(
            f"alpha={lev.alpha} level {lev.level}: residual degrees "
            f"({u1},{u2}) exceed ({d1},{d2})")
    return lev


# -- first levels -------------------------------------------------------------


def _first_level_mode1(profile: NeckProfile) -> CorrectorLevel:
    mu = profile.mu
    d, dh, _ = _context(profile)
    dh1 = ca.profile_deriv(profile, 1, 1)
    dh2 = ca.profile_deriv(profile, 2, 1)
    k = keller_field(profile)
    kq = ksq_minus_quarter(profile)
    dk = keller_x1_deriv(profile)

    F = ca.quotient(ca.lin([(dh, -3.0)]), d)
    G = (k.scale(ca.lin([(dh1, 1.0), (dh2, -1.0)]))
         + PolyField(profile, [ca.lin([(dh1, 0.5), (dh2, 0.5)])])
         + dk.scale(ca.lin([(dh, 3.0)])))
    v = VectorField2(keller_plus_half(profile) + kq.scale(F), G * kq)

    # pure part: 6 mu int_{x1}^{R} (h1-h2)/delta^3 = -6 mu int_R^{x1} ...
    integrand = ca.mul_pow([(dh, 1), (d, -3)])
    pure = ca.lin([(ca.antideriv(profile.R, integrand), -6.0 * mu)])
    pressure = v.u2.partial_x2().scale(mu) + PolyField(profile, [pure])

    f1 = (v.u1.partial_x1() - v.u2.partial_x2()).partial_x1().scale(mu)
    f2 = v.u2.partial_x1(2).scale(mu)
    return CorrectorLevel(1, 1, v, pressure, VectorField2(f1, f2))


def _first_level_mode2(profile: NeckProfile) -> CorrectorLevel:
    mu = profile.mu
    d, _, _ = _context(profile)
    k = keller_field(profile)
    kq = ksq_minus_quarter(profile)
    dk = keller_x1_deriv(profile)

    F = ca.quotient(ca.lin([(ca.X1, 6.0)]), d)
    G = k.scale(-2.0) + dk.scale(ca.lin([(ca.X1, -6.0)]))
    v_t = VectorField2(kq.scale(F), keller_plus_half(profile) + G * kq)

    # pure part: -12 mu int_{x1}^{R} y/delta^3 = +12 mu int_R^{x1} ...
    integrand = ca.mul_pow([(ca.X1, 1), (d, -3)])
    pure_t = ca.lin([(ca.antideriv(profile.R, integrand), 12.0 * mu)])
    poly_t = v_t.u2.partial_x2().scale(mu)

    g1 = (v_t.u1.partial_x1() - v_t.u2.partial_x2()).partial_x1().scale(mu)
    v_h, pure_h = _close(profile, g1, 2)
    v = v_t + v_h
    pressure = poly_t + PolyField(profile, [pure_t + pure_h])

    s_part = v_t.u2.partial_x1(2).scale(mu) + v_h.u2.partial_x2(2).scale(mu)
    g_part = v_h.u2.partial_x1(2).scale(mu)
    f1 = v_h.u1.partial_x1(2).scale(mu)
    return CorrectorLevel(2, 1, v, pressure, VectorField2(f1, s_part + g_part),
                          split=(s_part, g_part))


def _first_level_mode3(profile: NeckProfile) -> CorrectorLevel:
    mu = profile.mu
    d, dh, _ = _context(profile)
    sh = ca.lin([(ca.profile_deriv(profile, 1, 0), 1.0),
                 (ca.profile_deriv(profile, 2, 0), 1.0)])
    dsh = ca.coeff_diff(d)
    k = keller_field(profile)
    kp = keller_plus_half(profile)
    kq = ksq_minus_quarter(profile)
    dk = keller_x1_deriv(profile)
    x2f = x2_field(profile)

    # F = Fa - 3(h1-h2) x2 / (2 delta) - 5 k x2 with Fa = 1 - (h1+h2+3x1^2)/delta
    x1sq = ca.mul_pow([(ca.X1, 2)])
    Fa = ca.lin([(ca.mul_pow([(ca.lin([(sh, 1.0), (x1sq, 3.0)]), 1), (d, -1)]), -1.0)], 1.0)
    F_rest = x2f.scale(ca.mul_pow([(dh, 1), (d, -1)], -1.5)) + (k * x2f).scale(-5.0)
    F = PolyField(profile, [Fa]) + F_rest

    # G = Gc + Grest; Gc = 2 x1 k - (delta - (h1+h2) - 3 x1^2) dk
    Gc = k.scale(ca.lin([(ca.X1, 2.0)])) + dk.scale(ca.lin([(x1sq, 3.0), (d, -1.0), (sh, 1.0)]))
    Grest = (k * dk * x2f).scale(ca.lin([(d, 3.0)])) + (dk * x2f).scale(ca.lin([(dh, 1.5)]))
    G = Gc + Grest

    v = VectorField2(x2f * kp + F * kq, kp.scale(ca.lin([(ca.X1, -1.0)])) + G * kq)

    r_field = (Gc * kq).partial_x2().scale(mu)
    # pure part: 2 mu x1/delta^2 - 2 mu int_{x1}^{R} (2y(h1+h2)' - (h1+h2) - 3y^2)/delta^3
    integrand = ca.mul_pow([
        (ca.lin([(ca.X1 * dsh, 2.0), (sh, -1.0), (x1sq, -3.0)]), 1), (d, -3)])
    pure = ca.lin([
        (ca.mul_pow([(ca.X1, 1), (d, -2)]), 2.0 * mu),
        (ca.antideriv(profile.R, integrand), 2.0 * mu),
    ])
    pressure = r_field + PolyField(profile, [pure])

    # Residual split by magnitude family: per-degree-j coefficients one power
    # of the gap worse than O(delta^-j) go into the part the next level
    # cancels.  Terms carrying an explicit x2 factor before the second
    # x1-derivative stay mild; the Fa block and the wall-normal second
    # derivatives do not.
    s_part = (PolyField(profile, [ca.mul_pow([(d, -1)], 2.0 * mu)])
              + (F_rest * kq).partial_x2(2).scale(mu)
              - r_field.partial_x1()
              + (kq.scale(Fa)).partial_x1(2).scale(mu))
    g_part = (x2f * kp + F_rest * kq).partial_x1(2).scale(mu)
    st_part = ((Grest * kq).partial_x2(2).scale(mu)
               + (kp.scale(ca.lin([(ca.X1, -1.0)])) + Gc * kq).partial_x1(2).scale(mu))
    gt_part = (Grest * kq).partial_x1(2).scale(mu)
    return CorrectorLevel(3, 1, v, pressure, VectorField2(s_part + g_part, st_part + gt_part),
                          split=(s_part, g_part, st_part, gt_part))


def build_first_level(profile: NeckProfile, alpha: int) -> CorrectorLevel:
    """First corrector pair carrying the mode's boundary data into the gap."""
    if alpha == 1:
        lev = _first_level_mode1(profile)
    elif alpha == 2:
        lev = _first_level_mode2(profile)
    elif alpha == 3:
        lev = _first_level_mode3(profile)
    else:
        raise ValueError("alpha must be 1, 2 or 3")
    return _checked(lev)


# -- induction steps ----------------------------------------------------------


def _extend_generic(h: CorrectorHierarchy) -> CorrectorLevel:
    """One level of the default induction: cancel the strong first component,
    close the divergence, then integrate away the strong second component."""
    mu = h.profile.mu
    l = h.depth + 1
    prev = h.levels[-1]
    s, g, st, gt = prev.split or (prev.residual.u1, None, prev.residual.u2, None)
    v, p_pure = _close(h.profile, s, 2 * l - 2)
    p_poly = (st + v.u2.partial_x2(2).scale(mu)).antideriv_x2()
    f1 = v.u1.partial_x1(2).scale(mu)
    f1 = (f1 if g is None else g + f1) - p_poly.partial_x1()
    f2 = v.u2.partial_x1(2).scale(mu)
    f2 = f2 if gt is None else gt + f2
    return CorrectorLevel(h.alpha, l, v, p_poly + PolyField(h.profile, [p_pure]),
                          VectorField2(f1, f2))


def _extend_mode2(h: CorrectorHierarchy) -> CorrectorLevel:
    profile = h.profile
    mu = profile.mu
    l = h.depth + 1
    prev = h.levels[-1]
    s_prev, g_prev = prev.split

    p_poly = s_prev.antideriv_x2()
    v, p_pure = _close(profile, prev.residual.u1 - p_poly.partial_x1(), 2 * l)
    s_new = g_prev + v.u2.partial_x2(2).scale(mu)
    g_new = v.u2.partial_x1(2).scale(mu)
    f1 = v.u1.partial_x1(2).scale(mu)
    return CorrectorLevel(2, l, v, p_poly + PolyField(profile, [p_pure]),
                          VectorField2(f1, s_new + g_new), split=(s_new, g_new))


def _extend_green(h: CorrectorHierarchy) -> CorrectorLevel:
    profile = h.profile
    mu = profile.mu
    l = h.depth + 1
    d, _, _ = _context(profile)
    half = ca.mul_pow([(d, 1)], 0.5)
    x2f = x2_field(profile)
    xm = x2f + PolyField(profile, [ca.lin([(half, -1.0)])])
    xp = x2f + PolyField(profile, [half])

    f_prev = h.residual()
    A = f_prev.u1.antideriv_x2()
    C = (xm * f_prev.u1).antideriv_x2()
    c_hi = C.subs_x2(half)
    c_lo = C.subs_x2(ca.lin([(half, -1.0)]))
    a_lo = A.subs_x2(ca.lin([(half, -1.0)]))

    # resolve mu d^2/dx2^2 v1 = -f_prev.u1 with zero trace on both walls
    t_bd = (xm.scale(ca.quotient(ca.lin([(c_lo, -1.0), (d * a_lo, -1.0)]), d))
            + xp.scale(ca.quotient(c_hi, d)))
    v1 = (C.scale(-1.0) + xm * A + t_bd).scale(-1.0 / mu)

    Dfld = v1.partial_x1().antideriv_x2()
    d_lo = Dfld.subs_x2(ca.lin([(half, -1.0)]))
    v2 = Dfld.scale(-1.0) + PolyField(profile, [d_lo])
    v = VectorField2(v1, v2)

    p = (f_prev.u2 + v2.partial_x2(2).scale(mu)).antideriv_x2()
    f1 = v1.partial_x1(2).scale(mu) - p.partial_x1()
    f2 = v2.partial_x1(2).scale(mu)
    return CorrectorLevel(1, l, v, p, VectorField2(f1, f2))


def _construction(build):
    """``build`` with the cyclic garbage collector paused, and left as it was
    found on the way out, raise or not, and with each product's rule terms
    computed once (``coeffs.rule_terms_kept``; see the module docstring).
    The allocations made while paused still count: the caller's next
    allocation starts one young-generation pass over them."""
    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            with ca.rule_terms_kept():
                return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_construction
def extend(h: CorrectorHierarchy) -> CorrectorLevel:
    """Append the next level; levels are capped at LEVEL_CAP."""
    if h.depth >= LEVEL_CAP:
        raise ConstructionError(f"level cap {LEVEL_CAP} reached")
    if h.green:
        lev = _extend_green(h)
    elif h.alpha == 2:
        lev = _extend_mode2(h)
    else:
        lev = _extend_generic(h)
    h.levels.append(_checked(lev))
    return lev


@_construction
def build_hierarchy(profile: NeckProfile, alpha: int, levels: int) -> CorrectorHierarchy:
    if not 1 <= levels <= LEVEL_CAP:
        raise ValueError(f"levels must be in 1..{LEVEL_CAP}")
    h = CorrectorHierarchy(profile, alpha, [build_first_level(profile, alpha)])
    return h.extend_to(levels)


@_construction
def build_symmetric_green(profile: NeckProfile, levels: int) -> CorrectorHierarchy:
    """Green-kernel hierarchy for identical walls (first boundary mode)."""
    if not profile.symmetric:
        raise ValueError("the Green-kernel construction needs h1 == h2")
    if not 1 <= levels <= LEVEL_CAP:
        raise ValueError(f"levels must be in 1..{LEVEL_CAP}")
    mu = profile.mu
    d, _, _ = _context(profile)
    dd = ca.coeff_diff(d)
    inv_d = ca.mul_pow([(d, -1)])
    v1 = PolyField(profile, [ca.const(0.5), inv_d])
    v2 = PolyField(profile, [
        ca.lin([(dd, -0.125)]),
        ca.const(0.0),
        ca.mul_pow([(dd, 1), (d, -2)], 0.5),
    ])
    p = PolyField(profile, [ca.const(0.0), ca.mul_pow([(dd, 1), (d, -2)], mu)])
    f1 = v1.partial_x1(2).scale(mu) - p.partial_x1()
    f2 = v2.partial_x1(2).scale(mu)
    lev = _checked(CorrectorLevel(1, 1, VectorField2(v1, v2), p, VectorField2(f1, f2)))
    h = CorrectorHierarchy(profile, 1, [lev], green=True)
    return h.extend_to(levels)


# -- numerical certification ---------------------------------------------------


def psi_top_traces(profile: NeckProfile, alpha: int) -> tuple[Coeff, Coeff]:
    """The mode's boundary data on the top wall as coefficient functions."""
    if alpha == 1:
        return ca.const(1.0), ca.const(0.0)
    if alpha == 2:
        return ca.const(0.0), ca.const(1.0)
    return wall_curve(profile, "top"), ca.lin([(ca.X1, -1.0)])


def verify_level(h: CorrectorHierarchy, l: int, n1: int = 201, n2: int = 33,
                 n_trace: int = 1000, eps=None) -> dict:
    """Certify one level at ``eps`` or its profile's own: divergence, wall
    traces and degrees (``verify_structure_many`` at one eps), then the
    identity residual_l == residual_{l-1} + mu*Lap(v_l) - grad(p_l), which a
    second walk samples on a coarse grid."""
    profile = h.profile
    eps = profile.eps_or(eps)
    out = verify_structure_many(h, l, [eps], n1, n2, n_trace)[0]
    lev = h.level(l)

    # reduced residual vs direct evaluation; its fields are interned after
    # the divergence and the traces
    x1 = cheb_nodes(41, -profile.R, profile.R)
    direct = lev.v.laplacian().scale(profile.mu)
    grad_p = VectorField2(lev.pressure.partial_x1(), lev.pressure.partial_x2())
    prev = [h.level(l - 1).residual] if l > 1 else []
    vals = eval_fields([lev.residual, direct, grad_p] + prev, x1,
                       fiber_x2(profile, x1, 9, eps), eps)
    err, scale = 0.0, 1e-300
    for comp in (0, 1):
        red, lap, gp = vals[comp], vals[2 + comp], vals[4 + comp]
        before = vals[6 + comp] if prev else 0.0
        err = max(err, float(np.max(np.abs(red - (before + lap - gp)))))
        scale = max(scale, float(np.max(np.abs(lap))), float(np.max(np.abs(gp))))
    return {**out, "identity_abs": err, "identity_rel": err / scale}


def verify_structure_many(h: CorrectorHierarchy, l: int, eps, n1: int = 201, n2: int = 33,
                          n_trace: int = 1000) -> list[dict]:
    """``verify_level``'s dict at each eps of ``eps``, the hierarchy read at
    that eps, without the identity: divergence, wall traces and degrees.  One
    walk covers every eps, each point carrying its own eps: it evaluates the
    four wall-trace errors and the divergence's x2 coefficients over the
    divergence's x1 points and the trace points together."""
    k = len(eps)
    if not k:
        raise ValueError("verify: the eps list is empty")
    if n1 < 2 or n2 < 1 or n_trace < 1:
        raise ValueError(f"verify: needs n1 >= 2, n2 >= 1 and n_trace >= 1, "
                         f"got n1={n1}, n2={n2}, n_trace={n_trace}")
    profile = h.profile
    lev = h.level(l)
    r = profile.R

    # the divergence, then the traces: nodes are interned in this order,
    # which sets the order of terms in their sums
    div = lev.v.divergence()
    if l == 1:
        t1, t2 = psi_top_traces(profile, h.alpha)
        top_err = [trace(lev.v.u1, "top") - t1, trace(lev.v.u2, "top") - t2]
    else:
        top_err = [trace(lev.v.u1, "top"), trace(lev.v.u2, "top")]
    bot_err = [trace(lev.v.u1, "bottom"), trace(lev.v.u2, "bottom")]
    # each point set once per eps, each point with its eps
    x1, at = np.tile(cheb_nodes(n1, -r, r), k), np.repeat(eps, n1)
    xs, at_s = np.tile(np.linspace(-r, r, n_trace), k), np.repeat(eps, n_trace)
    # the root order sets the walk's live set: with the trace roots first a
    # warm asym-quadratic alpha=2 level-3 verify peaks 7.4 MB above its start
    # (tracemalloc), against 11.0 MB with the divergence's first
    vals = ca.eval_many(top_err + bot_err + list(div.coeffs),
                        np.concatenate([x1, xs]), np.concatenate([at, at_s]))
    n = len(x1)
    traces = [v[n:].reshape(k, -1) for v in vals[:4]]
    cols = [v[:n] for v in vals[4:]]
    div_sups = fiber_max([horner_x2(cols, x1, fiber_x2(profile, x1, n2, at))]).reshape(k, -1)
    return [{"alpha": h.alpha, "level": l, "div_sup": float(np.max(div_sups[i])),
             "trace_sup": max(float(np.max(np.abs(v[i]))) for v in traces),
             "degrees": (lev.residual.u1.degree, lev.residual.u2.degree),
             "expected_degrees": RESIDUAL_DEGREES[h.alpha](l)} for i in range(k)]

