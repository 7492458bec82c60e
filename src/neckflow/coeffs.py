"""Closed algebra of x1-dependent coefficient functions.

Every scalar coefficient produced by the corrector constructions lives in this
algebra: constants, ``x1``, wall-profile derivatives, linear combinations,
power products and definite integrals ``int_a^{x1} g``.  Differentiation is
exact (integrals map to their integrands, profile derivatives bump their
order and are the literal zero above the wall's degree) and evaluation is
numeric, with adaptive Gauss-Kronrod quadrature on every integral node.

Nodes are immutable and hash-consed, so structurally equal expressions share
one node.  Linear combinations collect identical subtrees, which is what makes
the large algebraic cancellations of the constructions collapse exactly.
Construction is single-threaded: interning and id allocation take no lock.
The gap width delta = eps + h1 + h2 is the only denominator: every
coefficient the constructions build is rational in delta, so ``mul_pow``
gives a negative exponent only to its profile's delta node, found by
identity (``delta_coeff`` files it in the profile's intern table).

The gap parameter eps is a leaf too, one per profile (``_Eps``, made by
``delta_coeff`` as a summand of delta = eps + h1 + h2), and construction never
reads its value.  A DAG built once therefore serves every eps: eps is bound
when the DAG is evaluated, and each integral keeps one panel table per eps it
has been evaluated at.  A DAG built on a wall shape (a profile with
``eps=None``) has no eps of its own, so each evaluation of it names one; a
DAG built on a profile at an eps defaults to that eps.  eps is a
coordinate of the evaluation point, like x1: below ``eval_many``, which
takes one float or one eps per point, eps has one form, an array of x1's
shape, so a single walk covers points of several eps.  The eps leaf is that
array, and an integral queries each distinct eps's table at the points of
that eps.  The tables it lacks are refined in lockstep, in one loop
(``_tabulate``): each round evaluates the new panels of every such eps in
one walk of the integrand, with one eps per point, and each table then
appends them after its kept panels and decides its own splits, so it is bit
for bit the table built at its eps alone.

Storage: a sum ``c0 + sum(w * n)`` keeps its children and their weights in
two parallel tuples, ``nodes`` and ``weights``; a product ``c * prod(n**e)``
keeps ``nodes`` and ``exps``.  Both are sorted by node rank, with no
constant, no nested product and no zero exponent among a product's factors.
The tuples of floats and ints hold no object the cyclic GC has to track, so
it tracks one tuple per node, the one of its children.  Both are interned
under one key rule (``_compound``): an int, the hash of the class, the
constant and the two tuples, or the next int up while that slot holds
another node.  A slot matches when its node has the class and equal
constant and tuples, so lookups find the nodes a key of the structure itself
would; the int copies none of the node's tuples, and the GC never tracks it.

Differentiation (``Coeff.diff``) is one loop over ``_post_order``, the
children-first listing the evaluation walk uses, with integrals as leaves
(an integral's derivative is its integrand) and stopping at nodes already
differentiated: each listed node's ``_diff`` is set from its children's
(``_diff_impl``), so a DAG of any depth needs no deep recursion, and a
node's derivative is interned after all of its children's.  A product's
derivative is built from its stored factors (``_rule_terms``): term i lowers
factor i's exponent by one and merges in that factor's derivative, without
re-flattening or re-sorting the rest, and goes to ``lin`` as a unit product
(constant 1) with its weight, so no scaled copy is interned only to be
rescaled.  The derivative's factors (none for a constant, itself for a
single node, its stored factors for a product) are merged into copies of
the stored tuples at the positions ``bisect`` finds in the rank list,
highest rank first, zero exponents dropped, and the unit product is looked
up by its intern key, so a hit builds nothing; it is the node that sorting
the factors by rank (``_make_prod``) would give, and ``lin`` takes it
straight into its accumulator.  A
sum takes its product children's rule terms into its own ``lin``, each
weight times its own, so only a product that ``diff`` is called on interns
its derivative: a child's derivative sum would be flattened away at once.
The unit products are interned in the same order either way, and w * (e*k)
is the weight that flattening would form.  A product's rule terms are
computed once per ``diff`` call that reaches it, and once per build inside
``rule_terms_kept``, which the corrector constructions enter: there they
are kept from the first ``diff`` that reaches the product to the build's end.

Evaluation is one iterative walk (``_walk``) over a list of roots at 1-D x1
and eps, so each value but a constant's is a 1-D array (``eval_many``
reshapes): the nodes not yet evaluated are listed children first, in the
order a recursive walk would finish them (``_post_order``), and then
computed in that order into one memo, so a DAG of any depth needs no deep
Python recursion.  A sum stacks its terms ``c*v`` as rows, in stored order,
adds c0 to the first row and then the rows one after the other down the slow
axis, in blocks of at most ``_SUM_BLOCK`` values: so it rounds as ``c0 +
c*v`` term by term does, with a few numpy calls per block, not two per term.
A product is ``c * v1**e1 * v2**e2 ...`` factor by factor in stored order,
with only exact identities skipped (no ``*1.0`` and no ``**1``).  Each
distinct power ``v**e`` (e != 1) is computed once per walk and kept in a
power table per node.  The walk frees as it goes: the listing pass counts
how often each node is reached, and a value leaves the memo, with its
powers, once its last parent has read it; the roots stay.  The results are bit for bit those of
the node-by-node recursion they replace.  An integral is a leaf of the walk:
its panel tables evaluate the integrand in walks of their own, one per
refinement round over all the eps being tabulated.  Each (integral, eps)
gets one table, built once to the one tolerance ``QUAD_TOL`` whatever asked
for it first, so a value never depends on what was evaluated before.
Evaluation takes an optional eps, checked finite and positive
(``eval_many``).

Printing (``Coeff._sexp``) pops one stack of tokens: each node lists its
text as strings with its children between them (``_tokens``), and a child is
opened only when the stack reaches it, so a cut-short text such as ``repr``
opens only the nodes it prints, however deep the DAG.
"""

from __future__ import annotations

import contextlib
import sys
from bisect import bisect_left
from itertools import compress
from operator import attrgetter

import numpy as np

from .geometry import NeckProfile, check_eps

__all__ = [
    "Coeff",
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

_GLOBAL_INTERN: dict = {}
_NEXT_ID = [1]
_FREE_RANK = 1 << 62
# readers of a node slot, for map() over a tuple of nodes
_RANK, _PROFILE = attrgetter("_rank"), attrgetter("profile")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on an integral node."""


def _merge_profile(nodes) -> NeckProfile | None:
    profiles = set(map(_PROFILE, nodes))
    profiles.discard(None)
    if len(profiles) > 1:
        raise ValueError("cannot mix coefficients from different profiles")
    return profiles.pop() if profiles else None


class Coeff:
    """Base node.  Use the module constructors, not subclass __init__ directly."""

    __slots__ = ("_id", "_rank", "profile", "_diff")

    def _register(self, profile):
        self.profile = profile
        self._diff = None
        self._id = _NEXT_ID[0]
        _NEXT_ID[0] += 1
        # the order of terms and factors: profile-free nodes (x1, its powers)
        # live in the global table and may predate every node of the current
        # profile; ordering them first keeps float sums in one order however
        # old the process is (a profile node's rank is its id object itself)
        self._rank = self._id if profile is not None else self._id - _FREE_RANK

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
        # children first: each listed node's derivative reads its children's,
        # set earlier in the same loop or by an earlier diff.  A listed product
        # but the root has only sums for parents here (products do not nest,
        # integrals are leaves): its rule terms go to them, its _diff stays
        # unset.  Inside a build the rule terms are kept for the next diff
        # that reaches the product (``rule_terms_kept``)
        if self._diff is None:
            rules = _KEPT_RULES[0] if _KEPT_RULES else {}
            for node in _post_order([self], {}, diffs=True):
                cls = node.__class__
                if cls is _Prod:
                    terms = rules.get(node)
                    if terms is None:
                        terms = rules[node] = node._rule_terms()
                    if node is self:
                        node._diff = lin(terms)
                elif cls is _Sum:
                    node._diff = node._diff_impl(rules)
                else:
                    node._diff = node._diff_impl()
        return self._diff

    def eval(self, x1, eps=None):
        return eval_many([self], x1, eps)[0]

    def sexp(self) -> str:
        return self._sexp(sys.maxsize)

    def _sexp(self, room, by_id: bool = False) -> str:
        """sexp() cut short once past ``room`` characters: the full text, or
        one whose first room+1 characters are those of the full text.  One
        stack of strings and nodes: a node is opened into its ``_tokens()``,
        its strings with its children between them, only when the stack
        reaches it.  With ``by_id`` each child prints as ``#id``."""
        out, used = [], 0
        stack = self._tokens()
        stack.reverse()
        while stack and used <= room:
            tok = stack.pop()
            if tok.__class__ is not str:
                if not by_id:
                    stack.extend(reversed(tok._tokens()))
                    continue
                tok = f"#{tok._id}"
            out.append(tok)
            used += len(tok)
        return "".join(out)

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

    def _eval_impl(self, x, eps):
        return self.value

    def _tokens(self):
        return [repr(self.value)]


class _X1(Coeff):
    __slots__ = ()

    def _diff_impl(self):
        return const(1.0)

    def _eval_impl(self, x, eps):
        return x

    def _tokens(self):
        return ["x1"]


class _Eps(Coeff):
    """The gap parameter eps of a wall shape: one leaf per shape, valued at
    each evaluation by the eps that evaluation binds, one eps per point."""

    __slots__ = ()

    def _diff_impl(self):
        return const(0.0)

    def _eval_impl(self, x, eps):
        return eps

    def _tokens(self):
        return ["eps"]


class _ProfileDeriv(Coeff):
    __slots__ = ("wall", "order", "_fn")

    def _diff_impl(self):
        return profile_deriv(self.profile, self.wall, self.order + 1)

    def _eval_impl(self, x, eps):
        fn = self._fn
        if fn is None:
            fn = self.profile.h(self.wall).deriv(self.order)
            self._fn = fn
        return fn(x)

    def _tokens(self):
        return [f"(d{self.order} h{self.wall})"]


class _Sum(Coeff):
    """c0 + sum of coeff * term, terms keyed by node identity."""

    __slots__ = ("c0", "nodes", "weights")

    def _diff_impl(self, rules):
        # a product child without a _diff hands over its rule terms (u, e*k)
        terms = []
        for t, w in zip(self.nodes, self.weights):
            d = t._diff
            if d is None:
                terms += [(u, w * ek) for u, ek in rules[t]]
            else:
                terms.append((d, w))
        return lin(terms)

    def _tokens(self):
        out = [f"(+ {self.c0!r}" if self.c0 else "(+"]
        for t, c in zip(self.nodes, self.weights):
            out += (" ", t) if c == 1.0 else (f" (* {c!r} ", t, ")")
        out.append(")")
        return out


class _Prod(Coeff):
    """c * product of base**exp; a negative exponent sits on delta only."""

    __slots__ = ("c", "nodes", "exps")

    def _rule_terms(self) -> list:
        # product rule from the stored factors: term i is this product with
        # factor i's exponent lowered by one, times that factor's derivative
        # d = k * (its factors): k times a unit product, listed with weight
        # e*k, so no scaled product is interned only to be rescaled; a term
        # with k == 0 adds nothing and is dropped.  d's factors (none for a
        # constant, d itself for a single node) are merged into copies of
        # the stored tuples at the bisect_left position of their rank in the
        # stored ranks, which is that of the factor they already are, if
        # any: highest rank first, so each insertion leaves the positions
        # below it as found.  Zero exponents are dropped and the unit product
        # is looked up by its intern key: it is the one _make_prod gives,
        # interned in factor order.  No denominator check: a negative
        # exponent here is one of this product's or of d's, so it sits on
        # delta already
        c, nodes, exps = self.c, self.nodes, self.exps
        ranks = list(map(_RANK, nodes))
        terms = []
        for i, (t, e) in enumerate(zip(nodes, exps)):
            d = t._diff
            cls = d.__class__
            if cls is _Const:
                k, merge = c * d.value, ()
            elif cls is _Prod:
                k, merge = c * d.c, zip(reversed(d.nodes), reversed(d.exps))
            else:
                k, merge = c, ((d, 1),)
            if not k:
                continue
            ns, xs = nodes, list(exps)
            xs[i] = e - 1
            for n, x in merge:
                at = bisect_left(ranks, n._rank)
                if at < len(ranks) and ranks[at] == n._rank:
                    xs[at] += x
                else:
                    ns = ns[:at] + (n,) + ns[at:]
                    xs.insert(at, x)
            if 0 in xs:
                ns, xs = tuple(compress(ns, xs)), list(filter(None, xs))
            if not ns:
                unit = const(1.0)
            elif len(ns) == 1 and xs[0] == 1:
                unit = ns[0]
            else:
                # profile-free nodes rank first, so the last node has the
                # product's profile if any node has one
                unit = _compound(_Prod, 1.0, ns, tuple(xs), ns[-1].profile)
            terms.append((unit, e * k))
        return terms

    def _tokens(self):
        out = ["(*" if self.c == 1.0 else f"(* {self.c!r}"]
        for t, e in zip(self.nodes, self.exps):
            out += (" ", t) if e == 1 else (" (^ ", t, f" {e})")
        out.append(")")
        return out


# a compound node's (constant, nodes, coefs), in the order _compound keys them
_SLOTS = {cls: attrgetter(*cls.__slots__) for cls in (_Sum, _Prod)}


class _Antideriv(Coeff):
    """int_lower^{x1} integrand(y) dy, evaluated by panelized quadrature:
    one panel table per eps, kept in ``_tables``; an evaluation queries each
    distinct eps's table at the points of that eps, and builds the tables it
    lacks, once and together (``_tabulate``)."""

    __slots__ = ("lower", "integrand", "_tables")

    def _diff_impl(self):
        return self.integrand

    def _eval_impl(self, x, eps):
        vals, inv = np.unique(eps, return_inverse=True)
        vals, tables = vals.tolist(), self._tables
        missing = [e for e in vals if e not in tables]
        if missing:
            tables.update(zip(missing, _tabulate(self, missing)))
        out = np.empty(x.shape)
        for i, e in enumerate(vals):
            at = inv == i
            out[at] = tables[e].value_at(x[at])
        return out

    def _tokens(self):
        return [f"(int {self.lower!r} ", self.integrand, ")"]


_KEPT_RULES: list = []  # the rule-term memo of the outermost rule_terms_kept


@contextlib.contextmanager
def rule_terms_kept():
    """Within the outermost ``with``, a product's rule terms are computed by
    the first ``diff`` that reaches the product and kept for every later one;
    they are dropped on the way out.  ``lin`` gets the same lists, so every
    derivative is the one a fresh computation gives."""
    if _KEPT_RULES:
        yield
        return
    _KEPT_RULES.append({})
    try:
        yield
    finally:
        _KEPT_RULES.clear()


# -- smart constructors ----------------------------------------------------


def _intern(profile, key, cls, *values):
    """The node of ``key``; on a miss a new ``cls`` whose first slots take
    ``values`` in order, so a hit builds nothing."""
    table = _GLOBAL_INTERN if profile is None else profile._intern
    node = table.get(key)
    return _new(table, key, cls, profile, values) if node is None else node


def _new(table, key, cls, profile, values):
    """A new ``cls`` whose first slots take ``values`` in order, registered
    on ``profile`` and filed under ``key`` in ``table``."""
    node = cls.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(node, name, value)
    node._register(profile)
    table[key] = node
    return node


def const(v: float) -> Coeff:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return _intern(None, ("c", v), _Const, v)


X1 = _intern(None, ("x",), _X1)


def profile_deriv(profile: NeckProfile, wall: int, order: int) -> Coeff:
    if wall == 2 and profile.symmetric:
        wall = 1  # identical walls share nodes so h1 - h2 cancels structurally
    if order > profile.h(wall).degree:
        return const(0.0)
    return _intern(profile, ("pd", wall, order), _ProfileDeriv, wall, order, None)


def lin(terms, c0: float = 0.0) -> Coeff:
    """Linear combination sum(c * node) + c0 with collection of equal nodes.

    Sums are flattened depth first, each term in stored order."""
    acc: dict[int, list] = {}
    c0 = float(c0)
    # term by term, as pushes may intern nodes (unit products below): node ids
    # then follow the same order however ``terms`` is produced
    for node, co in terms:
        co = float(co)
        if node.__class__ is _Prod and node.c == 1.0:  # a unit product goes straight in
            if co != 0.0:
                slot = acc.get(node._rank)
                if slot is None:
                    acc[node._rank] = [node, co]
                else:
                    slot[1] += co
            continue
        todo = [(node, co)]
        while todo:
            node, co = todo.pop()
            if co == 0.0:
                continue
            cls = node.__class__
            if cls is _Const:
                c0 += co * node.value
                continue
            if cls is _Sum:
                c0 += co * node.c0
                todo.extend([(t, co * c) for t, c in
                             zip(reversed(node.nodes), reversed(node.weights))])
                continue
            if cls is _Prod and node.c != 1.0:  # co * p = (co * c) * (p with c = 1)
                co = co * node.c
                if len(node.nodes) == 1 and node.exps[0] == 1:
                    todo.append((node.nodes[0], co))
                    continue
                node = _compound(_Prod, 1.0, node.nodes, node.exps, node.profile)
            slot = acc.get(node._rank)
            if slot is None:
                acc[node._rank] = [node, co]
            else:
                slot[1] += co

    kept = [(n, c) for n, c in map(acc.__getitem__, sorted(acc)) if c != 0.0]
    if not kept:
        return const(c0)
    if c0 == 0.0 and len(kept) == 1:
        n, c = kept[0]
        if c == 1.0:
            return n
        return mul_pow([(n, 1)], c)
    nodes, weights = zip(*kept)
    return _compound(_Sum, c0, nodes, weights, _merge_profile(nodes))


def mul_pow(factors, c: float = 1.0) -> Coeff:
    """Power product c * prod(base**exp) with exponent collection.

    Products are flattened depth first, each factor in stored order."""
    acc: dict[int, list] = {}
    c = float(c)
    todo = [(node, int(e)) for node, e in factors]
    todo.reverse()
    while todo:
        node, e = todo.pop()
        if e == 0:
            continue
        cls = node.__class__
        if cls is _Const:
            c *= node.value**e
        elif cls is _Prod:
            c *= node.c**e
            todo.extend([(t, x * e) for t, x in
                         zip(reversed(node.nodes), reversed(node.exps))])
        else:
            slot = acc.get(node._rank)
            if slot is None:
                acc[node._rank] = [node, e]
            else:
                slot[1] += e

    if c == 0.0:
        return const(0.0)
    for n, e in acc.values():
        if e < 0 and not (n.profile is not None and n is n.profile._intern.get("delta")):
            raise ValueError(f"denominator is not the gap width delta: {n!r}")
    return _make_prod(c, acc)


def _make_prod(c: float, acc: dict) -> Coeff:
    """The product c * prod(n**e) over ``acc``, a map rank -> (node, e) of
    canonical factors (no constant, no product) whose negative exponents are
    already known to sit on delta."""
    if c == 0.0:
        return const(0.0)
    kept = [(n, e) for n, e in map(acc.__getitem__, sorted(acc)) if e != 0]
    if not kept:
        return const(c)
    if c == 1.0 and len(kept) == 1 and kept[0][1] == 1:
        return kept[0][0]
    nodes, exps = zip(*kept)
    return _compound(_Prod, c, nodes, exps, _merge_profile(nodes))


def _compound(cls, c: float, nodes: tuple, coefs: tuple, profile) -> Coeff:
    """The sum or product ``cls`` (slots: constant, nodes, coefs), filed under
    an int: ``hash((cls, c, nodes, coefs))``, or the next int up while that
    slot holds another node.  A slot matches a ``cls`` whose slots equal
    (c, nodes, coefs), identity first and then ``==``, as a tuple key would;
    the int copies neither tuple and the cyclic GC never tracks it.  Tables
    only grow, so no probe meets a freed slot, and every other key is a
    tuple or a string, which never equals an int."""
    table = _GLOBAL_INTERN if profile is None else profile._intern
    key = hash((cls, c, nodes, coefs))
    node = table.get(key)
    while node is not None:
        if node.__class__ is cls and _SLOTS[cls](node) == (c, nodes, coefs):
            return node
        key += 1
        node = table.get(key)
    return _new(table, key, cls, profile, (c, nodes, coefs))


def quotient(num, den) -> Coeff:
    num, den = _coerce(num), _coerce(den)
    return mul_pow([(num, 1), (den, -1)])


def antideriv(lower: float, integrand) -> Coeff:
    integrand = _coerce(integrand)
    lower = float(lower)
    if isinstance(integrand, _Const):
        # exact: int_a^x c dy = c*(x - a)
        return lin([(X1, integrand.value)], -integrand.value * lower)
    return _intern(integrand.profile, ("a", lower, integrand._id), _Antideriv,
                   lower, integrand, {})


def delta_coeff(profile: NeckProfile) -> Coeff:
    """The gap width eps + h1 + h2 (h1 + h2 >= 0, as ``NeckProfile`` checks),
    the one node that takes a negative exponent: built once and filed under
    ``"delta"`` in the profile's intern table, where ``mul_pow`` finds it.
    eps is the shape's one eps leaf, valued at evaluation, so the node is the
    same at every eps; every other eps dependence is built from it."""
    d = profile._intern.get("delta")
    if d is None:
        eps = _intern(profile, ("eps",), _Eps)
        d = profile._intern["delta"] = lin([
            (eps, 1.0), (profile_deriv(profile, 1, 0), 1.0), (profile_deriv(profile, 2, 0), 1.0)])
    return d


def q4_coeff(profile: NeckProfile) -> Coeff:
    """(delta + h1 - h2)(delta - h1 + h2) / 4 = delta^2/4 - ((h1-h2)/2)^2."""
    d = delta_coeff(profile)
    h1, h2 = profile_deriv(profile, 1, 0), profile_deriv(profile, 2, 0)
    a = lin([(d, 1.0), (h1, 1.0), (h2, -1.0)])
    b = lin([(d, 1.0), (h1, -1.0), (h2, 1.0)])
    return mul_pow([(a, 1), (b, 1)], 0.25)


# -- the evaluation walk -------------------------------------------------------

_DONE = object()
_SUM_BLOCK = 32768  # values of the term rows a sum stacks at once


def _post_order(roots, seen: dict, integrands: bool = False, diffs: bool = False) -> list:
    """The nodes reachable from ``roots`` and not in ``seen``, each once,
    children before parents: the order in which a recursive walk visiting
    children in stored order would finish them.  ``seen`` maps each node
    reached to the number of times it was reached: once per parent, plus
    once per appearance among ``roots``.  An integral's integrand counts as
    its child only with ``integrands``.  With ``diffs`` a node whose
    derivative is already set is neither listed nor gone below."""
    order = []
    # a node sits below _DONE once its children are pushed above it
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is _DONE:
            order.append(stack.pop())
            continue
        n = seen.get(node)
        if n is not None:
            seen[node] = n + 1
            continue
        seen[node] = 1
        if diffs and node._diff is not None:
            continue
        cls = node.__class__
        if cls is _Prod or cls is _Sum:
            kids = node.nodes
        elif cls is _Antideriv and integrands:
            kids = (node.integrand,)
        else:
            order.append(node)
            continue
        stack.append(node)
        stack.append(_DONE)
        stack.extend(reversed(kids))
    return order


def _walk(roots, x: np.ndarray, eps: np.ndarray) -> list:
    """Values of ``roots`` at the 1-D ``x`` and gap ``eps`` (one eps per
    point) from one post-order walk with one memo.  Every value is a 1-D
    array, but that of a constant root, a float.  A value, and its powers,
    leave the memo once its last parent has read them; a root stays, as its
    appearance among the roots is a use no parent makes."""
    roots = list(roots)
    memo: dict = {}
    powers: dict = {}  # node -> {exponent: value}
    uses: dict = {}
    step = max(1, _SUM_BLOCK // max(1, x.size))  # term rows per block
    # np.add.reduce sums a single column pairwise, not row after row
    add = np.add.reduce if x.size > 1 else lambda rows: np.add.accumulate(rows)[-1]
    for node in _post_order(roots, uses):
        cls = node.__class__
        if cls is _Prod:
            out = None if node.c == 1.0 else node.c
            for t, e in zip(node.nodes, node.exps):
                v = memo[t]
                if e != 1:
                    table = powers.get(t)
                    if table is None:
                        table = powers[t] = {}
                    p = table.get(e)
                    if p is None:
                        p = table[e] = v**e
                    v = p
                out = v if out is None else out * v
        elif cls is _Sum:
            # rows w1*v1, w2*v2, ..., with c0 (then the sum so far) added to
            # the first, summed down the slow axis one row after the other, a
            # block of rows at a time; c0 is added even when 0.0, which turns
            # -0.0 into +0.0
            nodes, weights = node.nodes, node.weights
            out = node.c0
            for lo in range(0, len(nodes), step):
                rows = np.array([memo[t] for t in nodes[lo:lo + step]])
                rows *= np.array(weights[lo:lo + step])[:, None]
                rows[0] += out
                out = add(rows)
        else:
            memo[node] = node._eval_impl(x, eps)
            continue
        memo[node] = out
        for t in node.nodes:  # this parent's use of each child is spent
            left = uses[t] - 1
            if left:
                uses[t] = left
            else:
                del memo[t]
                powers.pop(t, None)
    return [memo[r] for r in roots]


# -- public operation wrappers ----------------------------------------------


def coeff_eval(c: Coeff, x1, eps=None):
    """Evaluate at x1 (scalar or array) and gap eps with quadrature error
    <= QUAD_TOL per node; see ``eval_many`` for eps."""
    return c.eval(x1, eps)


def _profile_eps(nodes) -> float:
    """The eps an evaluation without one binds: that of the profile the
    nodes were built on, which a wall shape does not have.  Profile-free
    nodes read no eps; 0.0 stands in (their integrals keep one table)."""
    for n in nodes:
        if n.profile is not None:
            return n.profile.eps_or()
    return 0.0


def eval_many(nodes, x1, eps=None) -> list:
    """Evaluate several nodes over one x1 array in one walk with one memo, at
    gap ``eps``: a float, or an array of x1's shape giving each point its own
    eps, each finite and positive.  Without ``eps``, the eps of the profile
    the nodes were built on, which must not be a wall shape.  The walk gets
    x1 and eps as 1-D arrays, and each value takes x1's shape back."""
    nodes = list(nodes)
    arr = np.asarray(x1, dtype=float)
    if eps is None:
        eps = _profile_eps(nodes)
    else:
        eps = check_eps(np.asarray(eps, dtype=float))
        if eps.ndim and eps.shape != arr.shape:
            raise ValueError(f"eps of shape {eps.shape} does not match x1 of shape {arr.shape}")
    flat = arr.reshape(-1)
    vals = _walk(nodes, flat, np.broadcast_to(eps, arr.shape).reshape(-1))
    vals = [np.broadcast_to(v, flat.shape).reshape(arr.shape) for v in vals]
    return [np.array(v) if arr.ndim else float(v) for v in vals]


def dump_rows(roots, seen: dict) -> list[str]:
    """One line ``#id text`` per node reachable from ``roots`` (integrands
    included) and not in ``seen``, children first and printed by id, so the
    output grows with the DAG, not with its expanded tree."""
    return [f"#{n._id} {n._sexp(sys.maxsize, by_id=True)}"
            for n in _post_order(roots, seen, integrands=True)]


def coeff_diff(c: Coeff) -> Coeff:
    """Exact derivative node (integrals collapse by the fundamental theorem)."""
    return c.diff()


def to_sexp(c: Coeff) -> str:
    return c.sexp()


def is_zero(c: Coeff) -> bool:
    """True only for the literal zero node (structural, not numeric)."""
    return isinstance(c, _Const) and c.value == 0.0


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


def _tabulate(node: _Antideriv, eps: list) -> list:
    """The tables of ``node`` at each eps of ``eps``, refined in lockstep.
    Each table keeps its panels from earlier rounds, as (left edges, right
    edges, Kronrod integrals, error estimates, integrand values), and the
    edges of the panels still to evaluate.  Each round evaluates the new
    panels of every table still refining in one walk of the integrand, with
    one eps per point (an integral in it reads its own tables).  Each table
    then appends its new panels after the kept ones and either meets
    ``QUAD_TOL`` or splits the panels whose Gauss/Kronrod error estimate is
    largest, as it would alone."""
    prof = node.integrand.profile
    if prof is not None:
        a, b = -2.0 * prof.R, 2.0 * prof.R
    else:
        a, b = min(-1.0, node.lower), max(1.0, node.lower)
    # the lower limit is forced to be a panel edge: the prefix is then
    # anchored there, so values near the limit sum only nearby panels and
    # never cancel the far mass of the chart.  Repeats are dropped by hand:
    # np.unique loads numpy.ma, which no corrector run needs otherwise
    edges = np.sort(np.concatenate([np.linspace(a, b, 9), [node.lower]]), kind="stable")
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    empty = np.empty(0)
    kept = [(empty, empty, empty, empty, np.empty((0, 15)))] * len(eps)
    todo = dict.fromkeys(range(len(eps)), (edges[:-1], edges[1:]))
    panels = [None] * len(eps)
    while todo:
        lo, hi = (np.concatenate(edge) for edge in zip(*todo.values()))
        half = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES[None, :]
        at = np.repeat([eps[i] for i in todo], [15 * len(new_lo) for new_lo, _ in todo.values()])
        ys = _walk([node.integrand], xs.reshape(-1), at)[0].reshape(xs.shape)
        start = 0
        for i, (new_lo, new_hi) in list(todo.items()):
            # the 15-point rule on this table's own block of rows
            stop = start + len(new_lo)
            block, h = ys[start:stop], half[start:stop]
            start = stop
            ik, ig = h * (block @ _GK_WK), h * (block @ _GK_WG)
            new = (new_lo, new_hi, ik, (200.0 * np.abs(ik - ig)) ** 1.5, block)
            t_lo, t_hi, val, err, t_ys = [np.concatenate(both) for both in zip(kept[i], new)]
            # scale by the prefix function's magnitude, not the signed total:
            # odd integrands cancel globally but their cumulative is large
            scale = float(np.sum(np.abs(val)))
            target = max(1e-300, QUAD_TOL * max(1.0, scale))
            total = float(np.sum(err))
            if total <= target:
                del todo[i]
                order = np.argsort(t_lo)
                panels[i] = t_lo[order], t_hi[order], t_ys[order]
                continue
            split = err > target / (2.0 * len(t_lo))
            if not np.any(split):
                split = err >= np.max(err)
            # a NaN estimate passes no split test: stop as at the panel cap,
            # which no split may pass
            if not np.isfinite(total) or len(t_lo) + np.count_nonzero(split) > _MAX_PANELS:
                raise QuadratureError(
                    f"quadrature did not converge after {len(t_lo)} panels "
                    f"(err~{total:.2e}) on node {node._sexp(120)[:120]}")
            kept[i] = [part[~split] for part in (t_lo, t_hi, val, err, t_ys)]
            mid = 0.5 * (t_lo[split] + t_hi[split])
            todo[i] = np.concatenate([t_lo[split], mid]), np.concatenate([mid, t_hi[split]])
    tables = []
    for e, ps in zip(eps, panels):
        table = _PanelTable.__new__(_PanelTable)
        table.eps, table.panels = e, ps
        table.__init__(node, QUAD_TOL)
        tables.append(table)
    return tables


class _PanelTable:
    """Panelized cumulative integral of one node over its chart interval, at
    one eps.

    Panels are refined where the Gauss/Kronrod error estimate is largest
    until the summed estimate meets ``QUAD_TOL``; a split that would pass
    ``_MAX_PANELS`` panels is a ``QuadratureError``.  The tables of one node
    at several eps are refined in lockstep (``_tabulate``).
    Each table meets ``QUAD_TOL`` for the integrand values it is given, so
    a nested integral's error adds up level by level.  Each panel then
    stores the exact antiderivative of its degree-14 interpolant, so queries
    are a prefix sum plus one local polynomial evaluation: after the build,
    no integrand evaluations happen at all.
    """

    def __init__(self, node: _Antideriv, tol: float):
        """The table from the panels ``_tabulate`` refined to ``tol``, always
        ``QUAD_TOL``: it sets ``eps`` and ``panels`` (left edges, right edges,
        integrand values) before this runs, so the signature stays (node, tol)."""
        lo, hi, ys = self.panels
        del self.panels
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
        i0 = int(np.searchsorted(self.edges, node.lower))
        right = np.concatenate([[0.0], np.cumsum(panel_totals[i0:])])
        left = -np.cumsum(panel_totals[:i0][::-1])[::-1]
        self.prefix = np.concatenate([left, right])  # integral from `lower`

    def value_at(self, x: np.ndarray) -> np.ndarray:
        """Integral from the node's lower limit to each point of the 1-D ``x``."""
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
        return self.prefix[idx] + part
