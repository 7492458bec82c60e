"""Neck geometry: wall profiles and the gap width.

The thin region between two nearly touching rigid bodies is charted by
``|x1| <= 2R`` with walls ``x2 = eps/2 + h1(x1)`` (top) and
``x2 = -eps/2 - h2(x1)`` (bottom).  The gap width is
``delta(x1) = eps + h1(x1) + h2(x1)`` and the normalized vertical coordinate

    k(x) = (x2 - (h1 - h2)(x1)/2) / delta(x1)

equals +1/2 on the top wall and -1/2 on the bottom wall (the constructions
build it as a field, ``fields.keller_field``).  Profiles are
polynomials in ``x1``, so derivatives of every order are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "ProfileFn",
    "NeckProfile",
    "named_profile",
    "profile_from_json",
    "NAMED_PROFILES",
]

CHECK_TOL = 1e-12


class ProfileFn:
    """Polynomial wall profile ``h(x1) = sum_j c_j x1**j``.

    Derivatives of any order are exact; orders above the degree are zero.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[float]):
        coeffs = [float(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def deriv(self, order: int = 1) -> "ProfileFn":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        coeffs = list(self.coefficients)
        for _ in range(order):
            coeffs = [j * c for j, c in enumerate(coeffs)][1:]
            if not coeffs:
                break
        return ProfileFn(coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(self.coefficients):
            out = out * x + c
        return out if out.ndim else float(out)

    def __eq__(self, other):
        return isinstance(other, ProfileFn) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"ProfileFn({list(self.coefficients)})"


def check_eps(eps):
    """``eps`` once each value is finite and positive; a list or array as floats."""
    e = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(e) & (e > 0.0)):
        raise ValueError("eps must be finite and positive")
    return e if e.ndim else eps


@dataclass(eq=False)
class NeckProfile:
    """Geometry and material data for one neck configuration.

    Each profile owns a coefficient intern table.  With ``eps=None`` it is a
    wall shape: the construction never reads eps, so hierarchies built on a
    shape serve every eps, and each read of them names its eps (``eps_or``),
    as do the geometry reads ``delta``, ``top`` and ``bottom``.  Every finite
    eps > 0 is a valid gap of every valid shape: h1 + h2 is nonnegative and
    uniformly convex.  eps (when given), R, mu and the wall coefficients must
    be finite.
    """

    eps: float | None
    h1: ProfileFn
    h2: ProfileFn
    R: float = 0.5
    mu: float = 1.0
    kappa: float | None = None
    name: str = "custom"

    symmetric: bool = field(init=False)
    _intern: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not ((self.eps is None or 0 < self.eps < math.inf)
                and 0 < self.R < math.inf and 0 < self.mu < math.inf):
            raise ValueError("eps, R, mu must be positive and finite")
        if not all(map(math.isfinite, self.h1.coefficients + self.h2.coefficients)):
            raise ValueError("wall coefficients must be finite")
        if self.kappa is not None and not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        self.symmetric = self.h1 == self.h2
        if self.symmetric:
            self.h2 = self.h1  # share the object so both walls alias one profile
        self._validate()

    def _validate(self):
        for i, h in ((1, self.h1), (2, self.h2)):
            if abs(h(0.0)) > CHECK_TOL or abs(h.deriv()(0.0)) > CHECK_TOL:
                raise ValueError(f"h{i} must vanish to second order at x1=0")
        x = np.linspace(-2 * self.R, 2 * self.R, 801)
        if np.any(self.h1(x) + self.h2(x) < 0):  # delta = eps + h1 + h2 > 0 at every eps
            raise ValueError("h1 + h2 must be nonnegative on [-2R, 2R]")
        xs = x[np.abs(x) > 1e-9]
        ratio = (self.h1(xs) + self.h2(xs)) / xs**2
        kappa_obs = float(ratio.min())
        if kappa_obs <= 0:
            raise ValueError("h1 + h2 is not uniformly convex near 0")
        if self.kappa is None:
            self.kappa = kappa_obs
        elif kappa_obs < self.kappa - CHECK_TOL:
            raise ValueError(
                f"h1 + h2 >= kappa*x1^2 fails: observed {kappa_obs:.6g} < {self.kappa:.6g}"
            )

    def eps_or(self, eps=None):
        """``eps`` if given (``check_eps``), else this profile's own.  A wall
        shape has none, so a read of it must name its eps."""
        if eps is not None:
            return check_eps(eps)
        if self.eps is None:
            raise ValueError(f"profile {self.name!r} is a wall shape with no eps; "
                             "pass the eps to read at")
        return self.eps

    # -- wall data ------------------------------------------------------

    def h(self, wall: int) -> ProfileFn:
        if wall == 1:
            return self.h1
        if wall == 2:
            return self.h2
        raise ValueError("wall must be 1 or 2")

    def delta(self, x1, eps=None):
        return self.eps_or(eps) + self.h1(x1) + self.h2(x1)

    def top(self, x1, eps=None):
        return self.eps_or(eps) / 2 + self.h1(x1)

    def bottom(self, x1, eps=None):
        return -self.eps_or(eps) / 2 - self.h2(x1)


# -- built-in profiles ----------------------------------------------------

NAMED_PROFILES = {
    "sym-quadratic": (ProfileFn([0, 0, 0.5]), ProfileFn([0, 0, 0.5])),
    "asym-quadratic": (ProfileFn([0, 0, 1.0]), ProfileFn([0, 0, 0.5])),
    "sym-quartic": (ProfileFn([0, 0, 0.5, 0, 1.0]), ProfileFn([0, 0, 0.5, 0, 1.0])),
    "asym-quartic": (ProfileFn([0, 0, 0.5, 0, 1.0]), ProfileFn([0, 0, 0.5])),
}


def named_profile(name: str, eps: float | None, R: float = 0.5, mu: float = 1.0) -> NeckProfile:
    """A built-in profile at gap ``eps``, or its wall shape for ``eps=None``."""
    try:
        h1, h2 = NAMED_PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; choices: {sorted(NAMED_PROFILES)}") from None
    return NeckProfile(eps=eps, h1=h1, h2=h2, R=R, mu=mu, name=name)


def _only_fields(doc: dict, known: set, what: str):
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")


def profile_from_json(doc: dict) -> NeckProfile:
    """Build a profile from ``{"eps":..,"R":..,"mu":..,"h1":{"poly":[...]},"h2":...}``;
    an ``eps`` of None gives the wall shape.  ``kappa`` and ``name`` are
    optional too; any other field, in the document or in a wall, is an error."""
    _only_fields(doc, {"eps", "R", "mu", "kappa", "name", "h1", "h2"}, "profile document")
    try:
        for wall in ("h1", "h2"):
            if not isinstance(doc[wall], dict):
                raise ValueError(f'wall {wall!r} must be an object {{"poly": [...]}}')
            _only_fields(doc[wall], {"poly"}, f"wall {wall!r}")
        h1 = ProfileFn(doc["h1"]["poly"])
        h2 = ProfileFn(doc["h2"]["poly"])
        eps = doc["eps"]
        return NeckProfile(
            eps=None if eps is None else float(eps),
            h1=h1,
            h2=h2,
            R=float(doc.get("R", 0.5)),
            mu=float(doc.get("mu", 1.0)),
            kappa=doc.get("kappa"),
            name=str(doc.get("name", "custom")),
        )
    except KeyError as exc:
        raise ValueError(f"profile document is missing field {exc}") from None
