"""Fields on the neck that are polynomials in x2 with coefficient-algebra entries.

The whole corrector machinery lives in this representation: velocities,
pressures and residuals are polynomials in ``x2`` whose coefficients are exact
functions of ``x1``.  Differential operators are exact (``x2`` lowers the
degree, ``x1`` maps coefficients through the algebra's derivative) and
boundary traces substitute the wall curves for ``x2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coeffs as ca
from .coeffs import Coeff
from .geometry import NeckProfile

__all__ = [
    "PolyField",
    "VectorField2",
    "trace",
    "wall_curve",
    "keller_field",
    "keller_plus_half",
    "ksq_minus_quarter",
    "keller_x1_deriv",
    "x2_field",
    "cheb_nodes",
    "fiber_x2",
    "sup_abs",
    "fiber_sup",
    "fiber_max",
    "deriv_fields",
    "horner_x2",
]


class PolyField:
    """sum_j coeffs[j] * x2**j with trailing structural zeros trimmed."""

    __slots__ = ("profile", "coeffs")

    def __init__(self, profile: NeckProfile, coeffs):
        cs = [c if isinstance(c, Coeff) else ca.const(float(c)) for c in coeffs]
        while cs and ca.is_zero(cs[-1]):
            cs.pop()
        self.profile = profile
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Exact degree; -1 for the zero field."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> Coeff:
        return self.coeffs[j] if j < len(self.coeffs) else ca.const(0.0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "PolyField") -> "PolyField":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyField(
            self.profile,
            [self.coeff(j) + other.coeff(j) for j in range(n)],
        )

    def __sub__(self, other: "PolyField") -> "PolyField":
        return self + other.scale(-1.0)

    def __mul__(self, other: "PolyField") -> "PolyField":
        if self.is_zero() or other.is_zero():
            return PolyField(self.profile, [])
        out = [ca.const(0.0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if ca.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return PolyField(self.profile, out)

    def scale(self, s) -> "PolyField":
        s = s if isinstance(s, Coeff) else ca.const(float(s))
        return PolyField(self.profile, [c * s for c in self.coeffs])

    def __neg__(self) -> "PolyField":
        return self.scale(-1.0)

    # -- calculus ------------------------------------------------------------

    def partial_x2(self, k: int = 1) -> "PolyField":
        out = self
        for _ in range(k):
            out = PolyField(
                out.profile,
                [ca.lin([(c, float(j))]) for j, c in enumerate(out.coeffs) if j >= 1],
            )
        return out

    def partial_x1(self, k: int = 1) -> "PolyField":
        out = self
        for _ in range(k):
            out = PolyField(out.profile, [ca.coeff_diff(c) for c in out.coeffs])
        return out

    def antideriv_x2(self) -> "PolyField":
        """x2-antiderivative with zero constant term."""
        out = [ca.const(0.0)]
        for j, c in enumerate(self.coeffs):
            out.append(ca.lin([(c, 1.0 / (j + 1))]))
        return PolyField(self.profile, out)

    def subs_x2(self, g: Coeff) -> Coeff:
        """Substitute a coefficient-valued curve x2 = g(x1); returns a Coeff."""
        out = ca.const(0.0)
        for c in reversed(self.coeffs):
            out = out * g + c
        return out

    # -- evaluation ------------------------------------------------------------

    def eval(self, x1, x2, eps=None):
        """Evaluate at ``x1`` and broadcastable ``x2`` (see ``eval_fields``)."""
        return eval_fields(self, x1, x2, eps)[0]


def x2_field(profile: NeckProfile) -> PolyField:
    return PolyField(profile, [0.0, 1.0])


def keller_field(profile: NeckProfile) -> PolyField:
    """k(x) = (x2 - (h1-h2)/2)/delta as a degree-1 field."""
    d = ca.delta_coeff(profile)
    c = ca.lin(
        [(ca.profile_deriv(profile, 1, 0), 0.5), (ca.profile_deriv(profile, 2, 0), -0.5)]
    )
    return PolyField(profile, [ca.quotient(ca.lin([(c, -1.0)]), d), ca.quotient(1.0, d)])


def keller_plus_half(profile: NeckProfile) -> PolyField:
    k = keller_field(profile)
    return PolyField(profile, [k.coeff(0) + 0.5, k.coeff(1)])


def ksq_minus_quarter(profile: NeckProfile) -> PolyField:
    """k^2 - 1/4 = (x2^2 - (h1-h2) x2 - q4) / delta^2, q4 from ``ca.q4_coeff``."""
    d2 = ca.mul_pow([(ca.delta_coeff(profile), -2)])
    dh = ca.lin(
        [(ca.profile_deriv(profile, 1, 0), 1.0), (ca.profile_deriv(profile, 2, 0), -1.0)]
    )
    return PolyField(
        profile,
        [-ca.q4_coeff(profile) * d2, -dh * d2, d2],
    )


def keller_x1_deriv(profile: NeckProfile) -> PolyField:
    """d k/d x1 as a degree-1 field: -(h1'-h2')/(2 delta) - (h1'+h2') k/delta."""
    d = ca.delta_coeff(profile)
    dh1 = ca.profile_deriv(profile, 1, 1)
    dh2 = ca.profile_deriv(profile, 2, 1)
    diff_h = ca.lin([(dh1, 0.5), (dh2, -0.5)])
    sum_h = ca.lin([(dh1, 1.0), (dh2, 1.0)])
    k = keller_field(profile)
    lead = ca.quotient(ca.lin([(diff_h, -1.0)]), d)
    slope = ca.quotient(ca.lin([(sum_h, -1.0)]), d)
    return PolyField(
        profile,
        [lead + slope * k.coeff(0), slope * k.coeff(1)],
    )


@dataclass(frozen=True)
class VectorField2:
    """Two-component field; both components share one profile context."""

    u1: PolyField
    u2: PolyField

    def __post_init__(self):
        if self.u1.profile is not self.u2.profile:
            raise ValueError("components must share a NeckProfile")

    @property
    def profile(self) -> NeckProfile:
        return self.u1.profile

    def __add__(self, other: "VectorField2") -> "VectorField2":
        return VectorField2(self.u1 + other.u1, self.u2 + other.u2)

    def scale(self, s) -> "VectorField2":
        return VectorField2(self.u1.scale(s), self.u2.scale(s))

    def divergence(self) -> PolyField:
        return self.u1.partial_x1() + self.u2.partial_x2()

    def laplacian(self) -> "VectorField2":
        return VectorField2(
            self.u1.partial_x1(2) + self.u1.partial_x2(2),
            self.u2.partial_x1(2) + self.u2.partial_x2(2),
        )

    def eval(self, x1, x2, eps=None):
        return tuple(eval_fields(self, x1, x2, eps))


def wall_curve(profile: NeckProfile, side: str) -> Coeff:
    """The wall x2 = (h1 - h2 + delta)/2 (top) or (h1 - h2 - delta)/2 (bottom)."""
    if side not in ("top", "bottom"):
        raise ValueError("side must be 'top' or 'bottom'")
    return ca.lin([(ca.delta_coeff(profile), 0.5 if side == "top" else -0.5),
                   (ca.profile_deriv(profile, 1, 0), 0.5),
                   (ca.profile_deriv(profile, 2, 0), -0.5)])


def trace(field: PolyField, side: str) -> Coeff:
    """Boundary trace: substitute the top/bottom wall curve for x2."""
    return field.subs_x2(wall_curve(field.profile, side))


# -- sampling -----------------------------------------------------------------


def cheb_nodes(n: int, a: float, b: float) -> np.ndarray:
    """Chebyshev-spaced nodes on [a, b], endpoints included, ascending."""
    if n < 2:
        raise ValueError(f"Chebyshev nodes with both endpoints need n >= 2, got {n}")
    j = np.arange(n)
    x = np.cos(np.pi * j / (n - 1))[::-1]
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def fiber_x2(profile: NeckProfile, x1: np.ndarray, n2: int = 33, eps=None) -> np.ndarray:
    """(len(x1), n2) vertical sample points spanning each gap fiber.  The
    walls sit at -eps/2 - h2 and eps/2 + h1, with ``eps`` a float or one eps
    per x1 entry, by default the profile's (``NeckProfile.eps_or``)."""
    if n2 < 1:
        raise ValueError(f"a gap fiber needs n2 >= 1 samples, got n2={n2}")
    eps = np.asarray(profile.eps_or(eps), dtype=float)
    lo, hi = profile.bottom(x1, eps), profile.top(x1, eps)
    s = np.linspace(0.0, 1.0, n2)
    return lo[:, None] + (hi - lo)[:, None] * s[None, :]


def _flatten(field_or_fields) -> list[PolyField]:
    if isinstance(field_or_fields, PolyField):
        return [field_or_fields]
    if isinstance(field_or_fields, VectorField2):
        return [field_or_fields.u1, field_or_fields.u2]
    out = []
    for f in field_or_fields:
        out.extend(_flatten(f))
    return out


def eval_fields(fields, x1, x2, eps=None) -> list[np.ndarray]:
    """Evaluate several fields over one grid with a single shared DAG pass.

    ``x2`` with one more trailing axis than ``x1`` is interpreted as
    per-fiber samples: coefficients are evaluated once per x1 entry.  The
    coefficients are evaluated at ``eps``, a float or one eps per x1 entry,
    by default the eps of the profile they were built on (see
    ``coeffs.eval_many``).
    """
    fields = _flatten(fields)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    all_coeffs: list[Coeff] = []
    spans = []
    for f in fields:
        spans.append((len(all_coeffs), len(f.coeffs)))
        all_coeffs.extend(f.coeffs)
    vals = ca.eval_many(all_coeffs, x1, eps)
    return [horner_x2(vals[start:start + n], x1, x2) for start, n in spans]


def horner_x2(cols, x1, x2) -> np.ndarray:
    """sum_j cols[j] * x2**j by Horner's rule from zero, ``cols`` being the
    coefficient values at ``x1``; ``x2`` with one more trailing axis than
    ``x1`` holds one fiber per x1 entry."""
    x1, x2 = np.asarray(x1), np.asarray(x2)
    expand = x2.ndim > x1.ndim
    acc = np.zeros(np.broadcast_shapes(np.shape(x1[..., None] if expand else x1), x2.shape))
    for c in reversed(cols):
        acc = acc * x2 + (np.asarray(c)[..., None] if expand else c)
    return acc


def sup_abs(field, r: float | None = None, n1: int = 201, n2: int = 33,
            eps=None) -> float:
    """Sup norm over the sampled neck chart (Chebyshev in x1, linear fibers),
    at ``eps`` or the profile's own."""
    r = _flatten(field)[0].profile.R if r is None else r
    return float(np.max(fiber_sup(field, cheb_nodes(n1, -r, r), n2, eps)))


def fiber_sup(field, x1: np.ndarray, n2: int = 33, eps=None) -> np.ndarray:
    """Per-fiber sup of |field| at each x1 sample (max over components), at
    ``eps`` (a float or one eps per x1 sample) or the profile's own."""
    fields = _flatten(field)
    x1 = np.asarray(x1, dtype=float)
    x2 = fiber_x2(fields[0].profile, x1, n2, eps)
    return fiber_max(eval_fields(fields, x1, x2, eps))


def fiber_max(vals) -> np.ndarray:
    """Per-fiber max of |v| over fiber-sampled values (max over fields)."""
    return np.max([np.max(np.abs(v), axis=-1) for v in vals], axis=0)


def deriv_fields(field, order: int) -> list[PolyField]:
    """All mixed partials of total order ``order`` (components flattened)."""
    if isinstance(field, VectorField2):
        return deriv_fields(field.u1, order) + deriv_fields(field.u2, order)
    return [
        field.partial_x1(k1).partial_x2(order - k1) for k1 in range(order + 1)
    ]
