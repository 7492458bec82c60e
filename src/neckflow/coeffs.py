"""Closed algebra of x1-dependent coefficient functions.

Every scalar coefficient produced by the corrector constructions lives in this
algebra: constants, ``x1``, wall-profile derivatives, linear combinations,
power products and definite integrals ``int_a^{x1} g``.  Differentiation is
exact (integrals map to their integrands, profile derivatives bump their
order) and evaluation is numeric, with adaptive Gauss-Kronrod quadrature on
every integral node.

Nodes are immutable and hash-consed, so structurally equal expressions share
one node.  Linear combinations collect identical subtrees, which is what makes
the large algebraic cancellations of the constructions collapse exactly.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from .geometry import NeckProfile

__all__ = [
    "Coeff",
    "CapabilityError",
    "QuadratureError",
    "const",
    "X1",
    "profile_deriv",
    "lin",
    "mul_pow",
    "quotient",
    "antideriv",
    "delta_coeff",
    "q4_coeff",
    "coeff_eval",
    "coeff_diff",
    "to_sexp",
    "QUAD_TOL",
]

QUAD_TOL = 1e-10
_MAX_PANELS = 4096

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

_LOCK = threading.RLock()
_GLOBAL_INTERN: dict = {}
_NEXT_ID = [1]


class CapabilityError(RuntimeError):
    """A wall-profile derivative beyond the profile's declared order cap."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on an integral node."""


def _table_for(profile: NeckProfile | None) -> dict:
    if profile is None:
        return _GLOBAL_INTERN
    return profile._intern


def _merge_profile(*nodes) -> NeckProfile | None:
    prof = None
    for n in nodes:
        p = n.profile
        if p is None:
            continue
        if prof is None:
            prof = p
        elif prof is not p:
            raise ValueError("cannot mix coefficients from different profiles")
    return prof


class Coeff:
    """Base node.  Use the module constructors, not subclass __init__ directly."""

    __slots__ = ("_id", "profile", "_diff", "__weakref__")

    def _register(self, profile):
        self.profile = profile
        self._diff = None
        with _LOCK:
            self._id = _NEXT_ID[0]
            _NEXT_ID[0] += 1

    # -- arithmetic sugar -------------------------------------------------

    def __add__(self, other):
        return lin([(self, 1.0), (_coerce(other), 1.0)])

    __radd__ = __add__

    def __sub__(self, other):
        return lin([(self, 1.0), (_coerce(other), -1.0)])

    def __rsub__(self, other):
        return lin([(_coerce(other), 1.0), (self, -1.0)])

    def __mul__(self, other):
        return mul_pow([(self, 1), (_coerce(other), 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return quotient(self, _coerce(other))

    def __rtruediv__(self, other):
        return quotient(_coerce(other), self)

    def __pow__(self, n: int):
        return mul_pow([(self, int(n))])

    def __neg__(self):
        return lin([(self, -1.0)])

    # -- calculus ----------------------------------------------------------

    def diff(self) -> "Coeff":
        d = self._diff
        if d is None:
            d = self._diff_impl()
            self._diff = d
        return d

    def eval(self, x1, tol: float = QUAD_TOL):
        arr = np.asarray(x1, dtype=float)
        out = self._eval({}, arr, tol)
        out = np.broadcast_to(np.asarray(out, dtype=float), arr.shape)
        if arr.ndim == 0:
            return float(out)
        return np.array(out)

    def _eval(self, memo, x, tol):
        v = memo.get(self._id)
        if v is None:
            v = self._eval_impl(memo, x, tol)
            memo[self._id] = v
        return v

    def sexp(self) -> str:
        return self._sexp(sys.maxsize)

    def _sexp(self, room) -> str:
        """sexp() cut short once past ``room`` characters: the full text, or
        one whose first room+1 characters are those of the full text.  A
        node prints no further child once its text is past ``room``, so the
        cost follows the length printed."""
        raise NotImplementedError

    def __repr__(self):
        s = self._sexp(80)
        return s if len(s) <= 80 else s[:77] + "..."


def _coerce(v) -> Coeff:
    if isinstance(v, Coeff):
        return v
    if isinstance(v, (int, float, np.floating, np.integer)):
        return const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Coeff")


class _Const(Coeff):
    __slots__ = ("value",)

    def _diff_impl(self):
        return const(0.0)

    def _eval_impl(self, memo, x, tol):
        return self.value

    def _sexp(self, room):
        return repr(self.value)


class _X1(Coeff):
    __slots__ = ()

    def _diff_impl(self):
        return const(1.0)

    def _eval_impl(self, memo, x, tol):
        return x

    def _sexp(self, room):
        return "x1"


class _ProfileDeriv(Coeff):
    __slots__ = ("wall", "order", "_fn")

    def _diff_impl(self):
        return profile_deriv(self.profile, self.wall, self.order + 1)

    def _eval_impl(self, memo, x, tol):
        if self.order > self.profile.M:
            raise CapabilityError(
                f"wall derivative order {self.order} exceeds the profile cap M={self.profile.M}"
            )
        fn = self._fn
        if fn is None:
            fn = self.profile.h(self.wall).deriv(self.order)
            self._fn = fn
        return fn(x)

    def _sexp(self, room):
        return f"(d{self.order} h{self.wall})"


class _Sum(Coeff):
    """c0 + sum of coeff * term, terms keyed by node identity."""

    __slots__ = ("c0", "terms")

    def _diff_impl(self):
        return lin([(t.diff(), c) for t, c in self.terms])

    def _eval_impl(self, memo, x, tol):
        out = np.full(x.shape, self.c0)
        for t, c in self.terms:
            out = out + c * t._eval(memo, x, tol)
        return out

    def _sexp(self, room):
        parts = [f"(+ {self.c0!r}" if self.c0 else "(+"]
        used = len(parts[0])
        for t, c in self.terms:
            if used > room:
                break
            if c == 1.0:
                s = t._sexp(room - used - 1)
            else:
                pre = f"(* {c!r} "
                s = f"{pre}{t._sexp(room - used - 1 - len(pre))})"
            parts.append(s)
            used += 1 + len(s)
        return " ".join(parts) + ")"


class _Prod(Coeff):
    """c * product of base**exp; negative exponents need positive bases."""

    __slots__ = ("c", "factors")

    def _diff_impl(self):
        terms = []
        for i, (t, e) in enumerate(self.factors):
            rest = [(b, x) for j, (b, x) in enumerate(self.factors) if j != i]
            rest.append((t, e - 1))
            rest.append((t.diff(), 1))
            terms.append((mul_pow(rest, self.c), float(e)))
        return lin(terms)

    def _eval_impl(self, memo, x, tol):
        out = np.full(x.shape, self.c)
        for t, e in self.factors:
            out = out * t._eval(memo, x, tol) ** e
        return out

    def _sexp(self, room):
        parts = ["(*" if self.c == 1.0 else f"(* {self.c!r}"]
        used = len(parts[0])
        for t, e in self.factors:
            if used > room:
                break
            s = t._sexp(room - used - 1) if e == 1 else f"(^ {t._sexp(room - used - 4)} {e})"
            parts.append(s)
            used += 1 + len(s)
        return " ".join(parts) + ")"


class _Antideriv(Coeff):
    """int_lower^{x1} integrand(y) dy, evaluated by panelized quadrature."""

    __slots__ = ("lower", "integrand", "_table")

    def _diff_impl(self):
        return self.integrand

    def _eval_impl(self, memo, x, tol):
        table = self._table
        if table is None or table.tol > max(tol, _PanelTable.TOL_FLOOR):
            table = _PanelTable(self, tol)
            self._table = table
        return table.value_at(x)

    def _sexp(self, room):
        head = f"(int {self.lower!r} "
        return f"{head}{self.integrand._sexp(room - len(head))})"


# -- smart constructors ----------------------------------------------------


def _intern(profile, key, builder):
    table = _table_for(profile)
    with _LOCK:
        node = table.get(key)
        if node is None:
            node = builder()
            node._register(profile)
            table[key] = node
        return node


def const(v: float) -> Coeff:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    def build():
        n = _Const.__new__(_Const)
        n.value = v
        return n
    return _intern(None, ("c", v), build)


def _x1_singleton() -> Coeff:
    def build():
        return _X1.__new__(_X1)
    return _intern(None, ("x",), build)


X1 = _x1_singleton()


def profile_deriv(profile: NeckProfile, wall: int, order: int) -> Coeff:
    if wall == 2 and profile.symmetric:
        wall = 1  # identical walls share nodes so h1 - h2 cancels structurally
    if order <= profile.M and order > profile.h(wall).degree:
        return const(0.0)
    def build():
        n = _ProfileDeriv.__new__(_ProfileDeriv)
        n.wall = wall
        n.order = order
        n._fn = None
        return n
    return _intern(profile, ("pd", wall, order), build)


def lin(terms, c0: float = 0.0) -> Coeff:
    """Linear combination sum(c * node) + c0 with collection of equal nodes."""
    acc: dict[int, list] = {}
    c0 = float(c0)

    def push(node, co):
        nonlocal c0
        if co == 0.0:
            return
        if isinstance(node, _Const):
            c0 += co * node.value
            return
        if isinstance(node, _Sum):
            c0 += co * node.c0
            for t, c in node.terms:
                push(t, co * c)
            return
        if isinstance(node, _Prod) and node.c != 1.0:
            co = co * node.c
            node = mul_pow(list(node.factors), 1.0)
            if not isinstance(node, (_Prod, _Const)):
                push(node, co)
                return
            if isinstance(node, _Const):
                c0 += co * node.value
                return
        slot = acc.get(node._id)
        if slot is None:
            acc[node._id] = [node, co]
        else:
            slot[1] += co

    for node, co in terms:
        push(node, float(co))

    kept = [(n, c) for n, c in acc.values() if c != 0.0]
    if not kept:
        return const(c0)
    kept.sort(key=_term_order)
    if c0 == 0.0 and len(kept) == 1:
        n, c = kept[0]
        if c == 1.0:
            return n
        return mul_pow([(n, 1)], c)
    profile = _merge_profile(*(n for n, _ in kept))
    key = ("s", c0, tuple((n._id, c) for n, c in kept))

    def build():
        node = _Sum.__new__(_Sum)
        node.c0 = c0
        node.terms = tuple((n, c) for n, c in kept)
        return node

    return _intern(profile, key, build)


def _term_order(pair):
    # profile-free nodes (x1, its powers) live in the global table and may
    # predate every node of the current profile; ordering them first keeps
    # float sums in one order however old the process is
    node = pair[0]
    return node.profile is not None, node._id


def mul_pow(factors, c: float = 1.0) -> Coeff:
    """Power product c * prod(base**exp) with exponent collection."""
    acc: dict[int, list] = {}
    c = float(c)

    def push(node, e):
        nonlocal c
        if e == 0:
            return
        if isinstance(node, _Const):
            c *= node.value**e
            return
        if isinstance(node, _Prod):
            c *= node.c**e
            for t, x in node.factors:
                push(t, x * e)
            return
        slot = acc.get(node._id)
        if slot is None:
            acc[node._id] = [node, e]
        else:
            slot[1] += e

    for node, e in factors:
        push(node, int(e))

    if c == 0.0:
        return const(0.0)
    kept = [(n, e) for n, e in acc.values() if e != 0]
    if not kept:
        return const(c)
    for n, e in kept:
        if e < 0 and not _is_positive(n):
            raise ValueError(
                f"denominator is not provably positive on the chart: {n!r}"
            )
    kept.sort(key=_term_order)
    if c == 1.0 and len(kept) == 1 and kept[0][1] == 1:
        return kept[0][0]
    profile = _merge_profile(*(n for n, _ in kept))
    key = ("p", c, tuple((n._id, e) for n, e in kept))

    def build():
        node = _Prod.__new__(_Prod)
        node.c = c
        node.factors = tuple((n, e) for n, e in kept)
        return node

    return _intern(profile, key, build)


def quotient(num, den) -> Coeff:
    num, den = _coerce(num), _coerce(den)
    return mul_pow([(num, 1), (den, -1)])


def antideriv(lower: float, integrand) -> Coeff:
    integrand = _coerce(integrand)
    lower = float(lower)
    if isinstance(integrand, _Const):
        # exact: int_a^x c dy = c*(x - a)
        return lin([(X1, integrand.value)], -integrand.value * lower)

    def build():
        node = _Antideriv.__new__(_Antideriv)
        node.lower = lower
        node.integrand = integrand
        node._table = None
        return node

    return _intern(integrand.profile, ("a", lower, integrand._id), build)


def _is_positive(node) -> bool:
    if isinstance(node, _Const):
        return node.value > 0.0
    prof = node.profile
    if prof is not None and node._id in prof._positive_ids:
        return True
    if isinstance(node, _Prod):
        return node.c > 0.0 and all(_is_positive(t) for t, _ in node.factors)
    if isinstance(node, _Sum):
        return node.c0 >= 0.0 and all(c > 0.0 and _is_positive(t) for t, c in node.terms)
    return False


def register_positive(node: Coeff):
    if node.profile is None:
        raise ValueError("only profile-bound nodes can be registered positive")
    node.profile._positive_ids.add(node._id)


def delta_coeff(profile: NeckProfile) -> Coeff:
    """The gap width eps + h1 + h2 as a node, certified positive."""
    d = lin(
        [(profile_deriv(profile, 1, 0), 1.0), (profile_deriv(profile, 2, 0), 1.0)],
        profile.eps,
    )
    if isinstance(d, _Sum):
        register_positive(d)
    return d


def q4_coeff(profile: NeckProfile) -> Coeff:
    """(eps + 2 h1)(eps + 2 h2) / 4 = delta^2/4 - ((h1-h2)/2)^2."""
    a = lin([(profile_deriv(profile, 1, 0), 2.0)], profile.eps)
    b = lin([(profile_deriv(profile, 2, 0), 2.0)], profile.eps)
    return mul_pow([(a, 1), (b, 1)], 0.25)


# -- public operation wrappers ----------------------------------------------


def coeff_eval(c: Coeff, x1, tol: float = QUAD_TOL):
    """Evaluate at x1 (scalar or array) with quadrature error <= tol per node."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return c.eval(x1, tol)


def eval_many(nodes, x1, tol: float = QUAD_TOL) -> list:
    """Evaluate several nodes over one x1 array with a shared subtree memo."""
    arr = np.asarray(x1, dtype=float)
    memo: dict = {}
    out = []
    for n in nodes:
        v = np.broadcast_to(np.asarray(n._eval(memo, arr, tol), dtype=float), arr.shape)
        out.append(np.array(v) if arr.ndim else float(v))
    return out


def coeff_diff(c: Coeff) -> Coeff:
    """Exact derivative node (integrals collapse by the fundamental theorem)."""
    return c.diff()


def to_sexp(c: Coeff) -> str:
    return c.sexp()


def is_zero(c: Coeff) -> bool:
    """True only for the literal zero node (structural, not numeric)."""
    return isinstance(c, _Const) and c.value == 0.0


def const_value(c: Coeff) -> float | None:
    return c.value if isinstance(c, _Const) else None


# -- adaptive Gauss-Kronrod panels -------------------------------------------

# 15-point Kronrod nodes with embedded 7-point Gauss weights.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GK_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


# inverse Vandermonde at the Kronrod nodes: maps samples to the coefficients
# of the degree-14 interpolating polynomial in the panel variable z in [-1,1]
_GK_VINV = np.linalg.inv(np.vander(_GK_NODES, increasing=True))


class _PanelTable:
    """Panelized cumulative integral of one node over its chart interval.

    Panels are refined in batches where the Gauss/Kronrod error estimate is
    largest until the summed estimate meets the tolerance.  Each panel then
    stores the exact antiderivative of its degree-14 interpolant, so queries
    are a prefix sum plus one local polynomial evaluation: after the build,
    no integrand evaluations happen at all.
    """

    # requests below the double-precision noise floor cannot be certified by
    # the Gauss/Kronrod difference and would refine forever
    TOL_FLOOR = 1e-13

    def __init__(self, node: _Antideriv, tol: float):
        self.tol = max(tol, self.TOL_FLOOR)
        self.node = node
        integrand = node.integrand
        prof = integrand.profile
        if prof is not None:
            a, b = -2.0 * prof.R, 2.0 * prof.R
        else:
            a, b = min(-1.0, node.lower), max(1.0, node.lower)
        self.inner_tol = tol / 10.0  # nested integrals are evaluated tighter
        self._build(integrand, a, b, node.lower)

    def _quad_batch(self, f, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        half = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES[None, :]
        ys = np.asarray(f.eval(xs.ravel(), self.inner_tol), dtype=float)
        ys = ys.reshape(xs.shape)
        ik = half * (ys @ _GK_WK)
        ig = half * (ys @ _GK_WG)
        err = (200.0 * np.abs(ik - ig)) ** 1.5
        return ik, err, ys

    def _build(self, f, a, b, lower):
        # the lower limit is forced to be a panel edge: the prefix is then
        # anchored there, so values near the limit sum only nearby panels and
        # never cancel the far mass of the chart
        edges = np.unique(np.concatenate([np.linspace(a, b, 9), [lower]]))
        lo, hi = edges[:-1], edges[1:]
        val, err, ys = self._quad_batch(f, lo, hi)
        while True:
            # scale by the prefix function's magnitude, not the signed total:
            # odd integrands cancel globally but their cumulative is large
            scale = float(np.sum(np.abs(val)))
            target = max(1e-300, self.tol * max(1.0, scale))
            if float(np.sum(err)) <= target:
                break
            if len(lo) >= _MAX_PANELS:
                raise QuadratureError(
                    f"quadrature did not converge after {_MAX_PANELS} panels "
                    f"(err~{float(np.sum(err)):.2e}) on node {self.node._sexp(120)[:120]}"
                )
            split = err > target / (2.0 * len(lo))
            if not np.any(split):
                split = err >= np.max(err)
            mid = 0.5 * (lo[split] + hi[split])
            nv, ne, nys = self._quad_batch(f, np.concatenate([lo[split], mid]),
                                           np.concatenate([mid, hi[split]]))
            lo = np.concatenate([lo[~split], lo[split], mid])
            hi = np.concatenate([hi[~split], mid, hi[split]])
            val = np.concatenate([val[~split], nv])
            err = np.concatenate([err[~split], ne])
            ys = np.concatenate([ys[~split], nys])
        order = np.argsort(lo)
        lo, hi, ys = lo[order], hi[order], ys[order]
        half = 0.5 * (hi - lo)
        # antiderivative of the interpolant, measured from each panel's left edge
        c = ys @ _GK_VINV.T                      # (npanels, 15) poly coeffs in z
        k = np.arange(15)
        ac = half[:, None] * c / (k[None, :] + 1)  # coeffs of z^{k+1}
        at_left = ac @ ((-1.0) ** (k + 1))
        self.acoeffs = ac
        self.aconst = -at_left
        panel_totals = ac.sum(axis=1) - at_left
        self.edges = np.concatenate([lo, [hi[-1]]])
        i0 = int(np.searchsorted(self.edges, lower))
        right = np.concatenate([[0.0], np.cumsum(panel_totals[i0:])])
        left = -np.cumsum(panel_totals[:i0][::-1])[::-1]
        self.prefix = np.concatenate([left, right])  # integral from `lower`

    def value_at(self, x):
        """Integral from the node's lower limit to x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        shape = x.shape
        x = x.ravel()
        lo_edge, hi_edge = self.edges[0], self.edges[-1]
        if np.any(x < lo_edge - 1e-12) or np.any(x > hi_edge + 1e-12):
            raise QuadratureError("integral query outside the tabulated chart")
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.edges) - 2)
        lo = self.edges[idx]
        hi = self.edges[idx + 1]
        z = np.clip(2.0 * (x - lo) / (hi - lo) - 1.0, -1.0, 1.0)
        ac = self.acoeffs[idx]
        part = ac[:, -1]
        for k in range(13, -1, -1):
            part = part * z + ac[:, k]
        part = part * z + self.aconst[idx]
        out = self.prefix[idx] + part
        out = out.reshape(shape)
        return out if shape != (1,) else float(out[0])
