"""Property tests of the coefficient algebra's construction rules, drawn from
a small pool of nodes on one asymmetric wall shape."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckflow import coeffs as ca
from neckflow.geometry import named_profile

# a failing property makes hypothesis's pytest plugin import libcst, where
# installed, to suggest a patch; libcst's import warns of a deprecation in
# mypy_extensions, and under warnings-as-errors that warning, raised while
# the failure is reported, would end the whole pytest run instead of failing
# the test
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@functools.cache
def _pool():
    """(delta, nodes): x1, the eps leaf, delta, delta + 1, h1, h2, h1' and
    the integral of 1/delta, built once, outside any drawn example."""
    p = named_profile("asym-quadratic", None)
    d = ca.delta_coeff(p)
    eps = next(n for n in d.nodes if isinstance(n, ca._Eps))
    nodes = (ca.X1, eps, d, d + 1.0, ca.profile_deriv(p, 1, 0), ca.profile_deriv(p, 2, 0),
             ca.profile_deriv(p, 1, 1), ca.antideriv(0.0, ca.mul_pow([(d, -1)])))
    return d, nodes


@PROPERTIES
@given(st.integers(0, 7), st.integers(-4, -1))
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
    picked = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    weights = data.draw(st.lists(st.integers(-16, 16).map(lambda k: k / 4.0),
                                 min_size=len(picked), max_size=len(picked)))
    exps = data.draw(st.lists(st.integers(1, 3), min_size=len(picked), max_size=len(picked)))
    terms = [(nodes[i], w) for i, w in zip(picked, weights)]
    # only delta takes a negative exponent
    factors = [(nodes[i], -e if nodes[i] is d else e) for i, e in zip(picked, exps)]
    order = data.draw(st.permutations(range(len(picked))))
    assert ca.lin([terms[k] for k in order], 0.5) is ca.lin(terms, 0.5)
    assert ca.mul_pow([factors[k] for k in order], 2.0) is ca.mul_pow(factors, 2.0)
