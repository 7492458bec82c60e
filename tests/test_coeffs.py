import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from neckflow import coeffs as ca
from neckflow.fields import cheb_nodes, trace
from neckflow.geometry import NeckProfile, ProfileFn, named_profile


def asym(eps=0.01):
    return named_profile("asym-quadratic", eps=eps)


def test_const_and_linear_integral():
    assert ca.coeff_eval(ca.const(3.5), 0.77) == 3.5
    ad = ca.antideriv(0.0, ca.const(2.0))
    assert ca.coeff_eval(ad, 0.3) == pytest.approx(0.6, abs=1e-14)


def test_profile_deriv_integral():
    p = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 1.0]), h2=ProfileFn([]))
    ad = ca.antideriv(0.0, ca.profile_deriv(p, 1, 1))  # int 2y dy
    assert ca.coeff_eval(ad, 0.2) == pytest.approx(0.04, rel=1e-10)


def test_diff_of_square():
    d = ca.coeff_diff(ca.X1 * ca.X1)
    assert ca.coeff_eval(d, 0.3) == pytest.approx(0.6)


def test_ftc_diff_of_integral_is_integrand(rng):
    p = asym()
    g = ca.quotient(ca.profile_deriv(p, 1, 0) - ca.profile_deriv(p, 2, 0),
                    ca.delta_coeff(p) ** 3)
    ad = ca.antideriv(0.0, g)
    assert ca.coeff_diff(ad) is g
    xs = rng.uniform(-0.9, 0.9, 100)
    got = ca.coeff_eval(ca.coeff_diff(ad), xs)
    want = ca.coeff_eval(g, xs)
    assert np.max(np.abs(got - want) / np.maximum(1e-30, np.abs(want))) < 1e-8


def test_quotient_diff_matches_finite_difference(rng):
    p = asym()
    g = ca.quotient(ca.profile_deriv(p, 1, 0), ca.delta_coeff(p))
    dg = ca.coeff_diff(g)
    xs = rng.uniform(-0.9, 0.9, 100)
    h = 1e-6
    fd = (ca.coeff_eval(g, xs + h) - ca.coeff_eval(g, xs - h)) / (2 * h)
    got = ca.coeff_eval(dg, xs)
    assert np.max(np.abs(got - fd) / np.maximum(1e-12, np.abs(fd))) < 1e-6


def test_corrector_coefficients_diff_property(cache, rng):
    # every coefficient of a built level differentiates consistently with a
    # central difference scaled by the local gap
    h = cache.get("asym-quadratic", 1, 2)
    p = named_profile("asym-quadratic", eps=1e-2)
    xs = rng.uniform(-p.R, p.R, 100)
    step = 1e-6 * p.delta(xs)
    coeffs = list(h.residual(2).u1.coeffs) + list(h.level(2).v.u2.coeffs)
    for c in coeffs:
        dc = ca.coeff_diff(c)
        fd = (ca.coeff_eval(c, xs + step, p.eps) - ca.coeff_eval(c, xs - step, p.eps)) / (2 * step)
        got = ca.coeff_eval(dc, xs, p.eps)
        scale = np.maximum(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(got - fd)) / scale < 1e-5


def test_eval_deterministic():
    p = asym()
    g = ca.antideriv(0.0, ca.quotient(ca.profile_deriv(p, 1, 0), ca.delta_coeff(p) ** 3))
    xs = np.linspace(-0.9, 0.9, 17)
    a = ca.coeff_eval(g, xs)
    b = ca.coeff_eval(g, xs)
    assert np.array_equal(a, b)


def test_structural_cancellation_of_identical_walls():
    p = named_profile("sym-quadratic", eps=0.01)
    dh = ca.profile_deriv(p, 1, 0) - ca.profile_deriv(p, 2, 0)
    assert ca.is_zero(dh)


def test_nested_integral():
    p = asym()
    inner = ca.antideriv(0.0, ca.delta_coeff(p))
    outer = ca.antideriv(0.0, inner * ca.const(2.0))
    # delta = 0.01 + 1.5 y^2: inner = 0.01 x + 0.5 x^3; outer = 2*(0.005 x^2 + 0.125 x^4)
    want = 2 * (0.005 * 0.3**2 + 0.125 * 0.3**4)
    assert ca.coeff_eval(outer, 0.3) == pytest.approx(want, rel=1e-9)


def test_positive_denominator_enforced():
    p = asym()
    with pytest.raises(ValueError):
        ca.quotient(ca.const(1.0), ca.X1)
    with pytest.raises(ValueError):
        ca.quotient(ca.const(1.0), ca.profile_deriv(p, 1, 0))
    # positive, but not delta: delta is the only denominator
    with pytest.raises(ValueError, match="not the gap width delta"):
        ca.quotient(ca.const(1.0), ca.delta_coeff(p) + 1.0)
    ca.quotient(ca.const(1.0), ca.delta_coeff(p) ** 2)  # fine


def test_wall_derivatives_above_the_degree_are_zero():
    # every order above a wall's degree is the literal zero; a declared
    # order cap made one above it a node whose evaluation raised
    p = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 0.5]), h2=ProfileFn([0, 0, 0.5]))
    assert ca.is_zero(ca.profile_deriv(p, 1, 3))
    assert ca.profile_deriv(p, 1, 100) is ca.const(0.0)


def test_quadrature_failure_is_diagnosed(monkeypatch):
    monkeypatch.setattr(ca, "_MAX_PANELS", 4)
    p = asym(eps=1e-6)
    g = ca.antideriv(0.0, ca.quotient(ca.profile_deriv(p, 1, 0), ca.delta_coeff(p) ** 3))
    with pytest.raises(ca.QuadratureError) as err:
        ca.coeff_eval(g, 0.3)
    assert "int" in str(err.value)  # the offending node path is reported


@pytest.mark.parametrize("cap", [16, 40])
def test_the_panel_cap_is_never_passed(monkeypatch, cap):
    # the cap was checked only before a round's split, so the last split
    # could nearly double the panels: 18 reported at a cap of 16, and at a
    # cap of 40 a table of 42 panels returned
    monkeypatch.setattr(ca, "_MAX_PANELS", cap)
    p = asym(eps=1e-6)
    g = ca.antideriv(0.0, ca.quotient(ca.profile_deriv(p, 1, 0), ca.delta_coeff(p) ** 3))
    with pytest.raises(ca.QuadratureError) as err:
        ca.coeff_eval(g, 0.3)
    panels = int(re.search(r"after (\d+) panels", str(err.value)).group(1))
    assert panels <= cap


def _reference_eval(node, x, eps, memo):
    """The node-by-node recursion the evaluation walk replaced; leaves (the
    eps leaf and integrals included) are evaluated at gap ``eps``, an array
    of x's shape."""
    v = memo.get(node._id)
    if v is None:
        if isinstance(node, ca._Sum):
            v = np.full(x.shape, node.c0)
            for t, c in zip(node.nodes, node.weights):
                v = v + c * _reference_eval(t, x, eps, memo)
        elif isinstance(node, ca._Prod):
            v = np.full(x.shape, node.c)
            for t, e in zip(node.nodes, node.exps):
                v = v * _reference_eval(t, x, eps, memo) ** e
        else:
            v = node._eval_impl(x, eps)
        memo[node._id] = v
    return np.array(np.broadcast_to(np.asarray(v, dtype=float), x.shape))


def test_walk_matches_recursive_reference_bitwise(cache):
    h = cache.get("asym-quadratic", 2, 2)
    r, eps = h.profile.R, 1e-3
    nodes = []
    for l in (1, 2):
        lev = h.level(l)
        for f in (lev.residual.u1, lev.residual.u2, lev.v.u1, lev.v.u2):
            nodes += f.coeffs
        nodes += [trace(f, side) for f in (lev.v.u1, lev.v.u2) for side in ("top", "bottom")]
    # a sum of 79 terms of spread magnitudes: at 1000 points its rows span
    # three blocks, and at one point a pairwise sum would move its last bits
    d = ca.delta_coeff(h.profile)
    wide = ca.lin([(ca.mul_pow([(ca.X1, k), (d, -1)]), (-3.0) ** k / k) for k in range(1, 80)])
    assert len(wide.nodes) * 1000 > ca._SUM_BLOCK
    nodes.append(wide)
    # exact zeros of x1 (signed-zero products) and 0-d and one-point grids
    # (scalar leaf values) included
    grids = (cheb_nodes(41, -r, r), np.linspace(-r, r, 1000),
             np.array([-0.5 * r, 0.0, 0.5 * r]), np.array([0.3 * r]), np.asarray(0.0))
    for xs in grids:
        memo: dict = {}
        want = [_reference_eval(n, xs, np.full(xs.shape, eps), memo)
                for n in nodes]
        got = [np.asarray(v) for v in ca.eval_many(nodes, xs, eps)]
        one = [np.asarray(n.eval(xs, eps)) for n in nodes]
        for w, g, o in zip(want, got, one):
            assert np.array_equal(w, g) and np.array_equal(w, o)
            assert w.tobytes() == g.tobytes() == o.tobytes()  # signed zeros too


def test_x1_of_any_shape_is_walked_as_one_1d_array(cache):
    # the walk takes 1-D x1 and eps only: a 2-D grid and a 0-d point give
    # bit for bit the values of their points passed as one 1-D array
    h = cache.get("asym-quadratic", 2, 2)
    lev = h.level(2)
    nodes = [c for f in (lev.residual.u1, lev.v.u1, lev.v.u2) for c in f.coeffs]
    nodes.append(ca.const(2.5))
    r = h.profile.R
    xs = np.linspace(-r, r, 12)
    eps = np.repeat([1e-3, 3e-3], 6)
    flat = ca.eval_many(nodes, xs, eps)
    grid = ca.eval_many(nodes, xs.reshape(3, 4), eps.reshape(3, 4))
    point = ca.eval_many(nodes, np.asarray(xs[7]), eps[7])
    for f, g, p in zip(flat, grid, point):
        assert g.shape == (3, 4) and g.tobytes() == f.tobytes()
        assert type(p) is float and np.float64(p).tobytes() == f[7:8].tobytes()


def test_delta_is_the_only_denominator_of_every_hierarchy_node(cache):
    roots = []
    for alpha in (1, 2, 3):
        h = cache.get("asym-quadratic", alpha, 3)
        for lev in h.levels:
            for f in (lev.v.u1, lev.v.u2, lev.residual.u1, lev.residual.u2, lev.pressure):
                roots += f.coeffs
                roots += [ca.coeff_diff(c) for c in f.coeffs]
    delta = ca.delta_coeff(h.profile)
    bases = [t for n in ca._post_order(roots, {}, integrands=True)
             if isinstance(n, ca._Prod) for t, e in zip(n.nodes, n.exps) if e < 0]
    assert len(bases) > 1000 and all(t is delta for t in bases)


def test_evaluation_needs_no_deep_recursion(src_env):
    # a 6000-deep chain: the recursive evaluation, diff and printer these
    # replaced overflowed the interpreter's default recursion limit; the
    # derivative x_n' = 0.5 (x_{n-1}' x1 + x_{n-1}) is 0.125 at 0, and the
    # full print of the chain is 72,005 characters long
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from neckflow import coeffs as ca\n"
        "sys.setrecursionlimit(1000)\n"
        "x = ca.X1\n"
        "for _ in range(3000):\n"
        "    x = 0.5 * x * ca.X1 + 0.25\n"
        "xs = np.linspace(-1.0, 1.0, 5)\n"
        "a = ca.coeff_eval(x, xs)\n"
        "b = ca.eval_many([x, x * x], xs)[0]\n"
        "d = ca.coeff_diff(x)\n"
        "print(a.tolist() == b.tolist(), float(a[2]), ca.coeff_eval(d, 0.0))\n"
        "s = ca.to_sexp(x)\n"
        "rows = ca.dump_rows([x], {})\n"
        "print(len(s), s.startswith(repr(x)[:77]), len(rows))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=src_env)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["True", "0.25", "0.125", "72005", "True", "6001"]


def test_sexp_dump():
    p = asym()
    g = ca.quotient(ca.lin([(ca.profile_deriv(p, 1, 0), 1.0)], 0.0), ca.delta_coeff(p))
    s = ca.to_sexp(g)
    assert "(d0 h1)" in s and "^" in s
    assert ca.to_sexp(ca.antideriv(0.5, g)).startswith("(int 0.5")


def test_a_cut_text_begins_with_the_full_text_at_every_room():
    # a sum with c0 != 0 and weights != 1, a product with c != 1 and an
    # exponent != 1, and an integral nested in an integral
    p = asym()
    d, h1 = ca.delta_coeff(p), ca.profile_deriv(p, 1, 0)
    prod = ca.mul_pow([(d, -2), (h1, 1)], 3.0)
    outer = ca.antideriv(-0.25, ca.mul_pow([(ca.antideriv(0.0, prod), 2), (ca.X1, 1)], -1.5))
    top = ca.lin([(outer, 2.5), (d, 1.0), (prod, 1.0)], 0.75)
    assert top.sexp() == (
        "(+ 0.75 eps (d0 h1) (d0 h2) (* 2.5 (int -0.25 (* -1.5 x1 (^ (int 0.0 "
        "(* 3.0 (d0 h1) (^ (+ eps (d0 h1) (d0 h2)) -2))) 2)))) "
        "(* 3.0 (* (d0 h1) (^ (+ eps (d0 h1) (d0 h2)) -2))))")
    for node in (top, prod, outer):
        for by_id in (False, True):
            full = node._sexp(sys.maxsize, by_id=by_id)
            for room in range(len(full) + 1):
                cut = node._sexp(room, by_id=by_id)
                assert cut == full or (len(cut) > room and cut[:room + 1] == full[:room + 1])
    # the rows printed by id expand, children first, to the full text
    texts = {}
    for row in ca.dump_rows([top], {}):
        ref, text = row.split(" ", 1)
        texts[ref] = re.sub(r"#\d+", lambda m: texts[m.group()], text)
    assert texts[f"#{top._id}"] == top.sexp()


def test_repr_of_deep_node_is_bounded(src_env):
    # the fully expanded tree of this coefficient has ~1e10 nodes; repr must
    # stop printing at its length limit instead of expanding it first
    code = (
        "from neckflow import build_hierarchy, named_profile\n"
        "h = build_hierarchy(named_profile('asym-quadratic', eps=1e-3), 2, 2)\n"
        "print(repr(h.residual(2).u1.coeffs[0]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=30, env=src_env, check=True)
    text = out.stdout.strip()
    assert len(text) == 80 and text.startswith("(+ ") and text.endswith("...")


def test_hash_consing_shares_nodes():
    p = asym()
    a = ca.delta_coeff(p) * ca.X1
    b = ca.X1 * ca.delta_coeff(p)
    assert a is b


def _unit_and_weight(node):
    """``node`` as (unit product, constant): the product with its constant
    c taken out, and c."""
    if isinstance(node, ca._Const):
        return ca.const(1.0), node.value
    if isinstance(node, ca._Prod):
        return ca.mul_pow(list(zip(node.nodes, node.exps))), node.c
    return node, 1.0


def test_product_rule_terms_are_the_rebuilt_products(cache, monkeypatch):
    # the product rule builds term i from the stored factors; it must hand
    # lin the unit product of the rebuild mul_pow(rest + [(t, e-1), (t', 1)], c)
    # with weight e times the rebuild's constant, and no term that is zero
    h = cache.get("asym-quadratic", 2, 2)
    roots = [c for l in (1, 2) for f in (h.residual(l).u1, h.residual(l).u2)
             for c in f.coeffs]
    prods = [n for n in ca._post_order(roots, {}, integrands=True)
             if isinstance(n, ca._Prod)]
    assert len(prods) > 1000
    real_lin = ca.lin
    for p in prods:
        for t in p.nodes:
            t.diff()
        factors = list(zip(p.nodes, p.exps))
        want = [(ca.mul_pow(factors[:i] + factors[i + 1:] + [(t, e - 1), (t.diff(), 1)],
                            p.c), float(e)) for i, (t, e) in enumerate(factors)]
        units = [(u, e * c) for u, c, e in
                 [(*_unit_and_weight(r), e) for r, e in want] if c != 0.0]
        got = []
        monkeypatch.setattr(ca, "lin", lambda terms, c0=0.0: got.append(terms)
                            or real_lin(terms, c0))
        result = ca.lin(p._rule_terms())
        monkeypatch.setattr(ca, "lin", real_lin)
        assert len(got) == 1 and len(got[0]) == len(units)
        assert all(g is u and gc == uc for (g, gc), (u, uc) in zip(got[0], units))
        assert result is p.diff() is real_lin(want)


def test_nodes_store_children_in_one_tracked_tuple(src_env):
    # parallel tuples: a node's weights or exponents are a tuple of floats or
    # ints, which the cyclic GC stops tracking; tuples of (node, weight)
    # pairs left 7.05 tracked objects per node
    code = (
        "import gc\n"
        "from neckflow import coeffs as ca\n"
        "from neckflow.correctors import build_hierarchy\n"
        "from neckflow.geometry import named_profile\n"
        "p = named_profile('asym-quadratic', eps=1e-3)\n"
        "gc.collect()\n"
        "n0, i0 = len(gc.get_objects()), ca._NEXT_ID[0]\n"
        "h = build_hierarchy(p, 2, 3)\n"
        "gc.collect()\n"
        "print(ca._NEXT_ID[0] - i0, len(gc.get_objects()) - n0)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=src_env, check=True)
    nodes, tracked = map(int, out.stdout.split())
    assert nodes > 10_000
    assert tracked / nodes <= 2.5


def test_interned_nodes_take_at_most_600_live_bytes_each(src_env):
    # a sum or product key of (id, weight) pair tuples held 798 bytes per
    # node after these builds; one of child ids and the node's own weights
    # or exponents tuple holds about 540.  The builds intern about 21,000
    # nodes; 32,605 when each product child of a differentiated sum interned
    # its own derivative sum, which the sum's lin flattened away at once
    code = (
        "import gc, tracemalloc\n"
        "from neckflow import coeffs as ca\n"
        "from neckflow.correctors import build_hierarchy\n"
        "from neckflow.geometry import named_profile\n"
        "p = named_profile('asym-quadratic', eps=1e-3)\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "i0 = ca._NEXT_ID[0]\n"
        "hs = [build_hierarchy(p, a, 3) for a in (1, 2, 3)]\n"
        "gc.collect()\n"
        "print(ca._NEXT_ID[0] - i0, tracemalloc.get_traced_memory()[0])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, env=src_env, check=True)
    nodes, live = map(int, out.stdout.split())
    assert 15_000 < nodes <= 25_000
    assert live / nodes <= 600


def test_a_sums_product_children_intern_no_derivative():
    # a sum takes its product children's product-rule terms into its own lin;
    # only a product that diff() is called on interns its derivative
    p = asym()
    d, h1 = ca.delta_coeff(p), ca.profile_deriv(p, 1, 0)
    a, b = ca.mul_pow([(ca.X1, 2), (h1, 1)]), ca.mul_pow([(d, -1), (h1, 1)])
    s = ca.lin([(a, 1.0), (b, -0.5)])
    ds = s.diff()
    assert a._diff is None and b._diff is None
    assert ds is ca.lin([(a.diff(), 1.0), (b.diff(), -0.5)])


def test_positivity_check_is_linear_in_the_dag(src_env):
    # s_{k+1} = 1 + s_k*delta + s_k*delta^2 reaches s_0 along 2^k paths; the
    # recursive check visited every path (3.4 s at 20 levels, x2 per level).
    # s is no denominator, and its refusal prints a repr cut short
    code = (
        "import time\n"
        "from neckflow import coeffs as ca\n"
        "from neckflow.geometry import named_profile\n"
        "d = ca.delta_coeff(named_profile('asym-quadratic', eps=1e-3))\n"
        "s = d\n"
        "for _ in range(40):\n"
        "    s = ca.lin([(ca.mul_pow([(s, 1), (d, 1)]), 1.0),\n"
        "                (ca.mul_pow([(s, 1), (d, 2)]), 1.0)], 1.0)\n"
        "t = time.perf_counter()\n"
        "try:\n"
        "    ca.mul_pow([(s, -1)])\n"
        "except ValueError as exc:\n"
        "    print(time.perf_counter() - t, len(str(exc)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=30, env=src_env, check=True)
    seconds, length = out.stdout.split()
    assert float(seconds) < 5.0 and int(length) < 200


def test_eps_leaf_is_bound_at_evaluation():
    p = asym(0.01)
    d = ca.delta_coeff(p)
    assert "eps" in ca.to_sexp(d)
    assert ca.coeff_diff(d) is ca.coeff_diff(ca.profile_deriv(p, 1, 0) + ca.profile_deriv(p, 2, 0))
    g = ca.antideriv(0.0, ca.mul_pow([(d, -1)]))
    # without an eps, the profile's own; with one, that eps
    assert ca.coeff_eval(d, 0.2) == pytest.approx(0.01 + 1.5 * 0.04)
    assert ca.coeff_eval(d, 0.2, 1e-3) == pytest.approx(1e-3 + 1.5 * 0.04)
    want = ca.coeff_eval(g, 0.2)
    assert ca.coeff_eval(g, 0.2, 0.01) == want
    assert ca.coeff_eval(g, 0.2, 1e-3) > want  # a narrower gap
    # a wall shape has no eps of its own: an evaluation must name one
    shape = named_profile("asym-quadratic", eps=None)
    ds = ca.delta_coeff(shape)
    gs = ca.antideriv(0.0, ca.mul_pow([(ds, -1)]))
    for call in (lambda: ca.coeff_eval(gs, 0.2), lambda: ds.eval(0.2),
                 lambda: ca.eval_many([ca.X1, ds], 0.2)):
        with pytest.raises(ValueError, match="pass the eps"):
            call()
    assert ca.coeff_eval(gs, 0.2, 0.01) == want
    assert ca.coeff_eval(ca.X1 * 2.0, 0.2) == 0.4  # profile-free nodes need none


def test_per_point_eps_matches_the_scalar_calls_bitwise(monkeypatch):
    # one walk with an eps per point equals one-point walks at each eps; each
    # integral builds one panel table per distinct eps (inner's are built
    # once, whether outer's table or the top-level walk asks first)
    p = named_profile("asym-quadratic", eps=1e-2)
    d = ca.delta_coeff(p)
    inner = ca.antideriv(0.0, ca.mul_pow([(d, -1)]))
    outer = ca.antideriv(0.0, inner * ca.profile_deriv(p, 1, 1) * d)
    g = ca.antideriv(0.0, ca.quotient(ca.profile_deriv(p, 1, 0), d ** 3))
    nodes = [d, inner, outer, g, g * d + ca.X1, (g * inner) ** 2]
    built = []
    real = ca._PanelTable.__init__
    monkeypatch.setattr(ca._PanelTable, "__init__", lambda table, node, tol:
                        built.append((node, table.eps, tol)) or real(table, node, tol))
    xs = np.array([-0.4, -0.1, 0.0, 0.05, 0.2, 0.3, 0.45])
    eps = np.array([1e-2, 1e-3, 1e-2, 3e-4, 1e-3, 1e-2, 3e-4])
    got = ca.eval_many(nodes, xs, eps)
    assert len(built) == len(set(built)) == 3 * 3  # (inner, outer, g) x 3 eps
    for n in (inner, outer, g):
        assert sorted(n._tables) == [3e-4, 1e-3, 1e-2]
    for i in range(len(xs)):
        one = ca.eval_many(nodes, xs[i:i + 1], float(eps[i]))
        for v, w in zip(got, one):
            assert v[i:i + 1].tobytes() == w.tobytes()
    assert len(built) == 3 * 3  # the one-point calls reuse every table
    # all points at one eps: the walk at that eps, bit for bit
    same = ca.eval_many(nodes, xs, np.full(xs.shape, 1e-3))
    for v, w in zip(same, ca.eval_many(nodes, xs, 1e-3)):
        assert v.tobytes() == w.tobytes()


def test_an_integral_reads_one_value_whatever_was_evaluated_before():
    # inner = int_0^x 1/delta at x=0.45, eps=3e-4: it read ...043 from its own
    # table and ...046 once outer's build had re-tabulated it ten times
    # tighter and replaced that table, in either order of first use.  Every
    # read is the first one bitwise; the first is checked against the closed
    # form, since its last bits follow the host's BLAS kernel
    def integrals():
        p = named_profile("asym-quadratic", eps=None)  # a fresh shape each time
        d = ca.delta_coeff(p)
        inner = ca.antideriv(0.0, ca.mul_pow([(d, -1)]))
        return inner, ca.antideriv(0.0, inner * ca.profile_deriv(p, 1, 1) * d)

    inner, outer = integrals()
    want = ca.coeff_eval(inner, 0.45, 3e-4)
    # delta = eps + 1.5 x1^2, so inner = atan(x sqrt(1.5/eps)) / sqrt(1.5 eps)
    exact = math.atan(0.45 * math.sqrt(1.5 / 3e-4)) / math.sqrt(1.5 * 3e-4)
    assert abs(want - exact) <= 1e-12 * exact
    ca.coeff_eval(outer, 0.45, 3e-4)
    assert ca.coeff_eval(inner, 0.45, 3e-4) == want
    inner, outer = integrals()
    ca.coeff_eval(outer, 0.45, 3e-4)
    assert ca.coeff_eval(inner, 0.45, 3e-4) == want
    assert len(inner._tables) == len(outer._tables) == 1


def test_a_non_finite_quadrature_estimate_is_diagnosed(src_env):
    # h1^2 = 1e400 x1^4 overflows to inf, so the Gauss/Kronrod difference is
    # NaN: no panel passed a split test and the refinement looped forever
    code = (
        "from neckflow import coeffs as ca\n"
        "from neckflow.geometry import NeckProfile, ProfileFn\n"
        "p = NeckProfile(eps=1e-3, h1=ProfileFn([0, 0, 1e200]), h2=ProfileFn([0, 0, 0.5]))\n"
        "h1 = ca.profile_deriv(p, 1, 0)\n"
        "try:\n"
        "    ca.coeff_eval(ca.antideriv(0.0, ca.mul_pow([(h1, 2)])), 0.3)\n"
        "except ca.QuadratureError as exc:\n"
        "    print(exc)\n"
    )
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=30, env=src_env)
    except subprocess.TimeoutExpired:
        pytest.fail("the refinement did not stop on a NaN error estimate")
    assert out.returncode == 0, out.stderr[-2000:]
    assert "did not converge after 8 panels (err~nan)" in out.stdout
    assert "(int 0.0" in out.stdout  # the offending node is named


def test_lockstep_tables_equal_the_one_eps_builds_bitwise(monkeypatch):
    # a peaked integral (several rounds, more at smaller eps) and a nested
    # one, at three eps: built together in one walk per round, each table is
    # bytewise the one built alone, and the rounds are those of the slowest
    eps = [1e-2, 3e-3, 1e-3]

    def integrals():
        p = named_profile("asym-quadratic", eps=1e-2)  # a fresh shape each time
        d = ca.delta_coeff(p)
        inner = ca.antideriv(0.0, ca.mul_pow([(d, -1)]))
        return [ca.antideriv(0.0, ca.mul_pow([(d, -3)])),
                ca.antideriv(0.0, inner * ca.profile_deriv(p, 1, 1) * d)]

    walked = []
    real = ca._walk
    monkeypatch.setattr(ca, "_walk", lambda roots, *rest:
                        walked.append(roots[0]) or real(roots, *rest))
    xs = np.array([-0.3, 0.1, 0.4])
    alone, rounds = integrals(), {}
    for node in alone:
        for x, e in zip(xs, eps):
            del walked[:]
            ca.eval_many([node], np.array([x]), e)
            rounds[node, e] = walked.count(node.integrand)
    for node, ref in zip(integrals(), alone):
        del walked[:]
        got = ca.eval_many([node], xs, np.array(eps))[0]
        per_eps = [rounds[ref, e] for e in eps]
        assert walked.count(node.integrand) == max(per_eps) < sum(per_eps)
        for i, e in enumerate(eps):
            assert got[i:i + 1].tobytes() == ca.eval_many([ref], xs[i:i + 1], e)[0].tobytes()
            mine, theirs = node._tables[e], ref._tables[e]
            for name in ("edges", "acoeffs", "aconst", "prefix"):
                assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes()
    assert len(set(rounds.values())) > 1  # the eps do need different rounds


def test_an_explicit_eps_is_validated():
    d = ca.delta_coeff(asym(0.01))
    for bad in (-0.5, 0.0, np.nan, np.inf, [0.01, -1e-3], [np.nan, 0.01]):
        with pytest.raises(ValueError, match="finite and positive"):
            ca.eval_many([d], [0.0, 0.1], eps=bad)
    for bad in ([0.01], [0.01, 0.01, 0.01], [[0.01, 0.01]]):
        with pytest.raises(ValueError, match="shape"):
            ca.eval_many([d], [0.0, 0.1], eps=bad)
    with pytest.raises(ValueError, match="finite and positive"):
        ca.coeff_eval(d, 0.1, -0.5)
    assert ca.eval_many([d], [0.0], eps=np.asarray(1e-3))[0][0] == 1e-3


def test_walk_frees_each_value_after_its_last_parent():
    # a 2000-node chain at 2000 points: kept to the end, its values take
    # 32 MB; freed after their last parent, a handful are alive at a time
    x = ca.X1
    for _ in range(1000):
        x = 0.5 * x * ca.X1 + 0.25
    xs = np.linspace(-1.0, 1.0, 2000)
    want = ca.eval_many([x, x * x], xs[:5])
    tracemalloc.start()
    try:
        got = ca.eval_many([x, x * x], xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert [v[:5].tobytes() for v in got] == [v.tobytes() for v in want]
