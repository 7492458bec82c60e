"""Property tests of the coefficient algebra's construction rules, drawn from
a small pool of nodes on one asymmetric wall shape, and of the FD solver's
elimination order on random grid shapes."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckflow import coeffs as ca
from neckflow import fd
from neckflow.geometry import named_profile

# a failing property makes hypothesis's pytest plugin import libcst, where
# installed, to suggest a patch; libcst's import warns of a deprecation in
# mypy_extensions, and under warnings-as-errors that warning, raised while
# the failure is reported, would end the whole pytest run instead of failing
# the test
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _fresh_pool():
    """(delta, nodes): x1, the eps leaf, delta, delta + 1, h1, h2, h1' and
    the integrals of 1/delta, x1/delta^2 and 3 h1'/delta, on a new wall shape
    with its own intern table, so no node but x1 has been differentiated
    yet.  The integrals' derivatives are products of one factor, of two and
    of two scaled by 3."""
    p = named_profile("asym-quadratic", None)
    d = ca.delta_coeff(p)
    eps = next(n for n in d.nodes if isinstance(n, ca._Eps))
    h1p = ca.profile_deriv(p, 1, 1)
    nodes = (ca.X1, eps, d, d + 1.0, ca.profile_deriv(p, 1, 0), ca.profile_deriv(p, 2, 0),
             h1p, ca.antideriv(0.0, ca.mul_pow([(d, -1)])),
             ca.antideriv(0.0, ca.mul_pow([(ca.X1, 1), (d, -2)])),
             ca.antideriv(0.0, ca.mul_pow([(h1p, 1), (d, -1)], 3.0)))
    return d, nodes


# built once, outside any drawn example
_pool = functools.cache(_fresh_pool)
# the index of a pool node, drawn over the whole pool
_INDEX = st.deferred(lambda: st.integers(0, len(_pool()[1]) - 1))


@PROPERTIES
@given(_INDEX, st.integers(-4, -1))
def test_only_delta_takes_a_negative_exponent(i, e):
    d, nodes = _pool()
    n = nodes[i]
    if n is d:
        assert ca.mul_pow([(n, e)]).exps == (e,)
    else:
        with pytest.raises(ValueError, match="not the gap width delta"):
            ca.mul_pow([(n, e)])


@PROPERTIES
@given(st.data())
def test_sums_and_products_of_distinct_nodes_ignore_term_order(data):
    """lin and mul_pow over distinct pool nodes give the one interned node
    whatever the order of their terms.  delta and delta + 1 are sums, which
    lin flattens into eps, h1 and h2, so their weights merge with those of
    the pool's own eps, h1 and h2: the weights are quarters of small
    integers, whose sums are exact.  With repeated nodes and arbitrary float
    weights the property is false, as float addition is not associative."""
    d, nodes = _pool()
    picked = data.draw(st.lists(_INDEX, min_size=1, max_size=8, unique=True))
    weights = data.draw(st.lists(st.integers(-16, 16).map(lambda k: k / 4.0),
                                 min_size=len(picked), max_size=len(picked)))
    exps = data.draw(st.lists(st.integers(1, 3), min_size=len(picked), max_size=len(picked)))
    terms = [(nodes[i], w) for i, w in zip(picked, weights)]
    # only delta takes a negative exponent
    factors = [(nodes[i], -e if nodes[i] is d else e) for i, e in zip(picked, exps)]
    order = data.draw(st.permutations(range(len(picked))))
    assert ca.lin([terms[k] for k in order], 0.5) is ca.lin(terms, 0.5)
    assert ca.mul_pow([factors[k] for k in order], 2.0) is ca.mul_pow(factors, 2.0)


@PROPERTIES
@given(st.data())
def test_diff_is_linear_and_obeys_the_product_rule_as_node_identity(data):
    """A sum of distinct pool products differentiates to lin of its terms'
    derivatives, and each product to lin of its product-rule terms.  The
    pool is fresh and the sum is differentiated first, so it takes its
    products' rule terms without their derivatives being interned.  The
    weights are quarters of small integers and every rule term's e*k is a
    small integer, so the float arithmetic of either path is exact."""
    d, nodes = _fresh_pool()
    prods = []
    for _ in range(data.draw(st.integers(1, 4))):
        picked = data.draw(st.lists(_INDEX, min_size=1, max_size=3, unique=True))
        # a single factor needs an exponent above 1 to make a product
        exps = data.draw(st.lists(st.integers(2 if len(picked) == 1 else 1, 3),
                                  min_size=len(picked), max_size=len(picked)))
        p = ca.mul_pow([(nodes[i], -e if nodes[i] is d else e) for i, e in zip(picked, exps)])
        if all(p is not q for q in prods):
            prods.append(p)
    weights = data.draw(st.lists(st.sampled_from([k / 4.0 for k in range(-16, 17) if k]),
                                 min_size=len(prods), max_size=len(prods)))
    s = ca.lin(list(zip(prods, weights)))
    ds = s.diff()
    assert ca.lin([(p.diff(), w) for p, w in zip(prods, weights)]) is ds
    assert all(p.diff() is ca.lin(p._rule_terms()) for p in prods)


def _reference_rule_terms(p):
    """The product rule as it was first written, and the oracle of the
    stored-tuple merge: each term's factors go into a rank map that
    ``_make_prod`` sorts and strips of zero exponents."""
    c, nodes, exps = p.c, p.nodes, p.exps
    base = {n._rank: (n, e) for n, e in zip(nodes, exps)}
    terms = []
    for t, e in zip(nodes, exps):
        d = t._diff
        acc = base.copy()
        acc[t._rank] = (t, e - 1)
        cls = d.__class__
        if cls is ca._Const:
            k = c * d.value
        elif cls is ca._Prod:
            k = c * d.c
            for n, x in zip(d.nodes, d.exps):
                slot = acc.get(n._rank)
                acc[n._rank] = (n, x if slot is None else slot[1] + x)
        else:
            k = c
            slot = acc.get(d._rank)
            acc[d._rank] = (d, 1 if slot is None else slot[1] + 1)
        if k:
            terms.append((ca._make_prod(1.0, acc), e * k))
    return terms


@PROPERTIES
@given(st.data())
def test_product_rule_terms_are_the_rank_map_reference(data):
    """_rule_terms gives the reference's unit products, node for node, with
    its weights.  The pool's factors have constant derivatives (x1, eps),
    product derivatives of one factor, of two and of two scaled by 3 (the
    integrals), whose factors may be factors of the same product (x1, h1'
    and delta), single-node derivatives that may be factors of the same
    product (h1 and h1'), and delta takes exponents -1 to -3; a factor of
    exponent 1 falls to exponent 0."""
    d, nodes = _pool()
    for n in nodes:
        n.diff()
    for _ in range(data.draw(st.integers(1, 4))):
        picked = data.draw(st.lists(_INDEX, min_size=1, max_size=5, unique=True))
        exps = data.draw(st.lists(st.integers(1, 3), min_size=len(picked), max_size=len(picked)))
        c = data.draw(st.sampled_from([1.0, -0.5, 3.0]))
        p = ca.mul_pow([(nodes[i], -e if nodes[i] is d else e) for i, e in zip(picked, exps)], c)
        if not isinstance(p, ca._Prod):
            continue
        got, want = p._rule_terms(), _reference_rule_terms(p)
        assert len(got) == len(want)
        assert all(u is v and w == x for (u, w), (v, x) in zip(got, want))


_EPS_PAIR = (1e-2, 1e-3)


def _drawn_sum(data, d, nodes):
    """lin of one to six pool products, with weights and constants whose
    sums round, delta at exponents -1 to -3 and the pool's integrals among
    the factors."""
    terms = []
    for _ in range(data.draw(st.integers(1, 6))):
        picked = data.draw(st.lists(_INDEX, min_size=1, max_size=3, unique=True))
        exps = data.draw(st.lists(st.integers(1, 3), min_size=len(picked), max_size=len(picked)))
        c = data.draw(st.sampled_from([1.0, -0.7, 2.3]))
        p = ca.mul_pow([(nodes[i], -e if nodes[i] is d else e) for i, e in zip(picked, exps)], c)
        terms.append((p, data.draw(st.sampled_from([1.0, 0.1, -1.0 / 3.0, 2.7]))))
    return ca.lin(terms, data.draw(st.sampled_from([0.0, 0.3])))


_FD_EPS, _FD_STEP, _FD_TOL = 1e-2, 1e-5, 1e-6


@PROPERTIES
@given(st.data())
def test_diff_agrees_with_a_central_difference_in_x1(data):
    """The exact derivative of a drawn sum of pool products, the pool's
    integrals among their factors, is the central difference (f(x + h) - f(x -
    h)) / 2h at eps = 1e-2 and h = 1e-5, to 1e-6 of the scale max(|f'|,
    |f| / sqrt(eps)) over the drawn points and 41 points across the chart;
    sqrt(eps) = 0.1 is the gap's length scale.  The difference's truncation
    error is about (h / 0.1)^2 of that scale, and with the integrals' panel
    tables its whole error reads at most 7.5e-9 of it over these examples.
    A dropped product-rule term is off by a whole term."""
    d, nodes = _pool()
    f = _drawn_sum(data, d, nodes)
    r = d.profile.R
    x = np.array(data.draw(st.lists(st.floats(-r + _FD_STEP, r - _FD_STEP),
                                    min_size=1, max_size=5)))
    exact, at = ca.eval_many([f.diff(), f], np.concatenate([x, np.linspace(-r, r, 41)]),
                             _FD_EPS)
    hi, lo = (ca.eval_many([f], x + step, _FD_EPS)[0] for step in (_FD_STEP, -_FD_STEP))
    central = (hi - lo) / (2 * _FD_STEP)
    scale = max(np.max(np.abs(exact)), np.max(np.abs(at)) / np.sqrt(_FD_EPS))
    assert np.max(np.abs(exact[:len(x)] - central)) <= _FD_TOL * scale


@pytest.mark.parametrize("block", [None, 8])
@PROPERTIES
@given(st.data())
def test_a_walk_over_concatenated_point_sets_equals_the_separate_walks(block, data):
    """A node's value at a point does not depend on which other points share
    its walk: one walk over sets of 1, 2 and 41 points concatenated, each
    point with its own eps, gives each set's values bit for bit.  A sum over
    one point takes another path than a sum over several, and with
    ``_SUM_BLOCK`` at 8 the sums also cross block boundaries at a different
    row in each walk."""
    d, nodes = _pool()
    roots = [_drawn_sum(data, d, nodes) for _ in range(data.draw(st.integers(1, 3)))]
    roots.append(nodes[data.draw(_INDEX)])  # a bare pool node
    r = d.profile.R
    sets = []
    for n in data.draw(st.permutations([1, 2, 41])):
        x = data.draw(st.lists(st.floats(-r, r), min_size=n, max_size=n))
        eps = data.draw(st.lists(st.sampled_from(_EPS_PAIR), min_size=n, max_size=n))
        sets.append((np.array(x), np.array(eps)))
    with mock.patch.object(ca, "_SUM_BLOCK", block or ca._SUM_BLOCK):
        whole = ca._walk(roots, *(np.concatenate(a) for a in zip(*sets)))
        parts = [ca._walk(roots, x, eps) for x, eps in sets]
    ends = np.cumsum([0] + [len(x) for x, _ in sets])
    for i, v in enumerate(whole):
        v = np.broadcast_to(v, (ends[-1],))
        for (x, _), part, lo, hi in zip(sets, parts, ends, ends[1:]):
            assert v[lo:hi].tobytes() == np.broadcast_to(part[i], x.shape).tobytes()


@PROPERTIES
@given(st.sampled_from([("asym-quadratic", 1e-4), ("sym-quadratic", 3e-3)]),
       st.integers(1, 40), st.integers(32, 40), st.integers(0, 2**32 - 1))
def test_the_cell_block_order_keeps_diagonal_pivots_on_any_shape(profile, n1, n2, seed):
    """On any grid shape the unknowns' positions are a permutation, the
    diagonal-pivot factorization swaps no row, and a random forcing is
    solved to a backward error of at most 1e-12 (about 3e-13 at 257 x 64
    on asym-quadratic eps=1e-4).  A vertical separator whose pressures all
    join their east neighbours' blocks leaves the right half's pressure
    constant free, and fails this."""
    g = fd.NeckGrid(named_profile(*profile), r=0.6, n1=n1, n2=n2)
    pos = g.unknown_positions()
    n = (n1 + 1) * (n2 + 2) + (n1 + 2) * (n2 + 1) + n1 * n2
    assert np.array_equal(np.sort(pos), np.arange(n))
    rng = np.random.default_rng(seed)
    sol = fd.solve_w(g, rng.standard_normal((n1 - 1, n2)), rng.standard_normal((n1, n2 - 1)))
    lu, _ = g.solver()
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert sol.backward_err <= 1e-12
