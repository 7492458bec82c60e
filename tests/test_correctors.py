import gc
import re
import time

import numpy as np
import pytest

from neckflow import coeffs as ca
from neckflow.correctors import (
    ConstructionError,
    LEVEL_CAP,
    RESIDUAL_DEGREES,
    _close,
    build_first_level,
    build_hierarchy,
    build_symmetric_green,
    extend,
    psi_top_traces,
    verify_level,
    verify_structure_many,
)
from neckflow.fields import (PolyField, cheb_nodes, eval_fields, fiber_sup, fiber_x2,
                             sup_abs, trace)
from neckflow.geometry import named_profile


def test_first_level_mode1_coefficients():
    # symmetric walls: F vanishes and G reduces to the mean wall slope
    p = named_profile("sym-quadratic", eps=0.01)
    lev = build_first_level(p, 1)
    # v1 = (k + 1/2 + F (k^2-1/4), G (k^2-1/4)): with F = 0 the first
    # component is exactly degree 1
    assert lev.v.u1.degree == 1
    g_of_x = lev.v.u2.coeffs[0]  # G*(k^2-1/4) x2^0 term = -G*q4/delta^2...
    # check G = x1 via the defining value G = sup of u2 structure at x1=0.1:
    # u2 = x1 (k^2 - 1/4); at x2 = 0 (sym): u2 = -x1/4
    assert float(lev.v.u2.eval(np.asarray(0.1), 0.0)) == pytest.approx(-0.1 / 4)

    from neckflow.geometry import NeckProfile, ProfileFn
    pa = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 1.0]), h2=ProfileFn([]))
    leva = build_first_level(pa, 1)
    # F = -3 (h1-h2)/delta = -3 * 0.01/0.02 = -1.5 at x1 = 0.1;
    # extract F from the x2^2 coefficient of u1, which carries F/delta^2
    f_val = float(ca.coeff_eval(leva.v.u1.coeffs[2], 0.1)) * pa.delta(0.1) ** 2
    assert f_val == pytest.approx(-1.5)


def test_first_level_traces_match_modes():
    for name in ("sym-quadratic", "asym-quadratic"):
        p = named_profile(name, eps=0.01)
        xs = np.linspace(-2 * p.R, 2 * p.R, 400)
        for alpha in (1, 2, 3):
            lev = build_first_level(p, alpha)
            info_psi = {
                1: (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
                2: (lambda x: np.zeros_like(x), lambda x: np.ones_like(x)),
                3: (lambda x: p.top(x), lambda x: -x),
            }[alpha]
            t1 = ca.coeff_eval(trace(lev.v.u1, "top"), xs)
            t2 = ca.coeff_eval(trace(lev.v.u2, "top"), xs)
            assert np.max(np.abs(t1 - info_psi[0](xs))) < 1e-10
            assert np.max(np.abs(t2 - info_psi[1](xs))) < 1e-10
            b1 = ca.coeff_eval(trace(lev.v.u1, "bottom"), xs)
            b2 = ca.coeff_eval(trace(lev.v.u2, "bottom"), xs)
            assert max(np.max(np.abs(b1)), np.max(np.abs(b2))) < 1e-10


def test_mode2_first_level_f_value():
    p = named_profile("sym-quadratic", eps=0.01)
    lev = build_first_level(p, 2)
    # tilde-part has F = 6 x1/delta: x2^2 coefficient of u1 carries F/delta^2
    # plus the hat-row contribution; test F via the full component instead:
    # u1(x1, x2) at the midline where k = 0: u1 = -(F + F11-row(0))/4 ...
    # use the defining value directly: 6*0.1/0.02 = 30
    d = p.delta(0.1)
    assert 6 * 0.1 / d == pytest.approx(30.0)
    # and the component itself vanishes on both walls (checked in traces test)
    assert lev.v.u1.degree == 4


def test_mode3_special_solution_at_origin():
    p = named_profile("sym-quadratic", eps=0.01)
    lev = build_first_level(p, 3)
    # F(0, x2) = 1 - 5 x2^2/eps at x1 = 0; at x2 = 0 the u1 x2^0..2 data give
    # u1(0, 0) = (k+1/2)x2 + F (k^2 - 1/4) = 0 + 1 * (-1/4)
    assert float(lev.v.u1.eval(np.asarray(0.0), 0.0)) == pytest.approx(-0.25)


def test_mode3_golden_pressure(cache):
    # on sym-quadratic the pure integral term vanishes identically
    # (its integrand is 4y^2 - 4y^2), leaving
    # p(x1, 0) = 2 mu x1/delta^2 - mu x1 (eps - x1^2)/delta^2
    h = cache.get("sym-quadratic", 3, 1)
    p = named_profile("sym-quadratic", eps=1e-2)
    pr = h.level(1).pressure
    for x1 in (0.1, 0.2):
        d = p.delta(x1)
        want = 2 * x1 / d**2 - x1 * (p.eps - x1**2) / d**2
        assert float(pr.eval(np.asarray(x1), 0.0, p.eps)) == pytest.approx(want, rel=1e-11)


def test_first_level_cancellation_identity(cache):
    # mu d2/dx2^2 (v1)^(2) - d/dx2 pbar1 == 0 by construction
    h = cache.get("asym-quadratic", 1, 1)
    lev = h.level(1)
    lhs = lev.v.u2.partial_x2(2).scale(h.profile.mu) - lev.pressure.partial_x2()
    assert sup_abs(lhs, n1=51, n2=9, eps=1e-2) < 1e-8


GOLDEN_LEVEL2 = {
    # sym-quadratic, eps = 0.01, first mode, level 2, hand-derived rows:
    # F12_1 = (2/3)(delta - 4 x1^2)/delta, F22_2 = 2 x1 (delta - 2 x1^2)/delta^2,
    # F22_0 = -x1 delta/6 - x1^3/3, everything else vanishing.
    0.1: {"F12_1": -2.0 / 3.0, "F22_2": 0.0, "F22_0": -0.1 * 0.02 / 6 - 0.001 / 3},
    0.2: {"F12_1": -22.0 / 15.0, "F22_2": -4.8, "F22_0": -0.2 * 0.05 / 6 - 0.008 / 3},
}


def test_level2_golden_coefficients(cache):
    h = cache.get("sym-quadratic", 1, 2)
    p = named_profile("sym-quadratic", eps=1e-2)
    v2 = h.level(2).v
    # u1 = F12_1 x2 (k^2-1/4): x2^3 coefficient is F12_1/delta^2
    # u2 = (F22_2 x2^2 + F22_0)(k^2-1/4): x2^4 coeff F22_2/delta^2, x2^0 = -F22_0/4
    assert v2.u1.degree == 3 and v2.u2.degree == 4
    for x1, want in GOLDEN_LEVEL2.items():
        d2 = p.delta(x1) ** 2
        f12_1 = float(ca.coeff_eval(v2.u1.coeffs[3], x1, p.eps)) * d2
        f22_2 = float(ca.coeff_eval(v2.u2.coeffs[4], x1, p.eps)) * d2
        f22_0 = -4.0 * float(ca.coeff_eval(v2.u2.coeffs[0], x1, p.eps))
        assert f12_1 == pytest.approx(want["F12_1"], rel=1e-12, abs=1e-13)
        assert f22_2 == pytest.approx(want["F22_2"], rel=1e-12, abs=1e-13)
        assert f22_0 == pytest.approx(want["F22_0"], rel=1e-12, abs=1e-13)


def test_mode2_golden_rows(cache):
    # hand-derived on sym-quadratic, eps = 0.01: the cancellation row gives
    # F11^2 = (18 x1 delta - 48 x1^3)/delta^3, F11^1 = 0, F11^0 = -4.5 x1;
    # the divergence closer integrates to F~11 = (3.6 eps x1 + 6 x1^3)/delta.
    h = cache.get("sym-quadratic", 2, 1)
    p = named_profile("sym-quadratic", eps=1e-2)
    u1 = h.level(1).v.u1
    for x1 in (0.1, 0.2):
        d = p.delta(x1)
        f11_2 = float(ca.coeff_eval(u1.coeffs[4], x1, p.eps)) * d * d
        assert f11_2 == pytest.approx((18 * x1 * d - 48 * x1**3) / d**3, rel=1e-12)
        # at the midline k = 0: u1 = -(F + F11^0 + F~11)/4
        u1_mid = float(u1.eval(np.asarray(x1), 0.0, p.eps))
        want = -(6 * x1 / d - 4.5 * x1 + (3.6 * p.eps * x1 + 6 * x1**3) / d) / 4
        assert u1_mid == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", ["sym-quadratic", "asym-quadratic"])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_level2_structure(cache, name, alpha):
    h = cache.get(name, alpha, 2)
    for l in (1, 2):
        info = verify_level(h, l, n1=101, n2=17, n_trace=301, eps=1e-2)
        assert info["div_sup"] < 1e-8
        assert info["trace_sup"] < 1e-10
        assert info["identity_rel"] < 1e-8
        d, e = info["degrees"], info["expected_degrees"]
        assert d[0] <= e[0] and d[1] <= e[1]
        if name == "asym-quadratic":
            assert d == e


@pytest.mark.parametrize("name", ["sym-quartic", "asym-quartic"])
def test_quartic_profiles_build_cleanly(cache, name):
    # quartic walls exercise wall-derivative orders the quadratics never reach
    for alpha in (1, 2, 3):
        h = cache.get(name, alpha, 3)
        for l in (2, 3):
            info = verify_level(h, l, n1=101, n2=17, n_trace=301, eps=1e-2)
            assert info["div_sup"] < 1e-8
            assert info["trace_sup"] < 1e-10
            assert info["identity_rel"] < 1e-8


def test_green_first_level(cache):
    h = cache.get("sym-quadratic", 1, 2, green=True)
    p = named_profile("sym-quadratic", eps=1e-2)
    # (v1)^(1)(0, eps/2) = 1 on the top wall
    assert float(h.level(1).v.u1.eval(np.asarray(0.0), p.eps / 2, p.eps)) == pytest.approx(1.0)
    # level 2 resolves the previous residual: mu d2/dx2^2 (v2)^(1) = -(f1)^(1)
    lhs = h.level(2).v.u1.partial_x2(2).scale(p.mu) + h.level(1).residual.u1
    assert sup_abs(lhs, n1=101, n2=17, eps=p.eps) < 1e-8


def test_green_rejects_asymmetric():
    p = named_profile("asym-quadratic", eps=0.01)
    with pytest.raises(ValueError):
        build_symmetric_green(p, 2)


def test_symmetric_consistency_of_constructions(cache):
    hg = cache.get("sym-quadratic", 1, 3, green=True)
    ha = cache.get("sym-quadratic", 1, 3)
    xs = np.linspace(-0.5, 0.5, 64)
    a = hg.level(1).v.u1.eval(xs, 0.0, 1e-3)
    b = ha.level(1).v.u1.eval(xs, 0.0, 1e-3)
    assert np.array_equal(a, b)  # both reduce to x2/delta + 1/2 exactly
    for l in (2, 3):
        sg = sup_abs(hg.residual(l), n1=101, n2=17, eps=1e-3)
        sa = sup_abs(ha.residual(l), n1=101, n2=17, eps=1e-3)
        ratio = max(sg, sa) / min(sg, sa)
        assert ratio < 10.0


def test_cumulative_sums_associative(cache):
    h = cache.get("asym-quadratic", 1, 2)
    v = h.cumulative_v(2)
    direct = h.level(1).v + h.level(2).v
    xs = np.linspace(-0.4, 0.4, 9)
    assert np.allclose(v.u1.eval(xs, 0.001, 1e-2), direct.u1.eval(xs, 0.001, 1e-2),
                       rtol=0, atol=0)


def test_level_cap_enforced():
    p = named_profile("sym-quadratic", eps=0.05)
    h = build_symmetric_green(p, LEVEL_CAP)
    with pytest.raises(ConstructionError):
        extend(h)
    with pytest.raises(ValueError):
        build_hierarchy(p, 1, LEVEL_CAP + 1)


def test_each_level_is_held_to_its_degree_contract_where_it_joins(monkeypatch):
    # the contract was checked inside each builder but Green's first level
    p = named_profile("sym-quadratic", eps=0.05)
    h = build_symmetric_green(p, 1)
    monkeypatch.setitem(RESIDUAL_DEGREES, 1, lambda l: (0, 0))
    with pytest.raises(ConstructionError, match="alpha=1 level 1"):
        build_symmetric_green(p, 1)
    with pytest.raises(ConstructionError, match="alpha=1 level 2"):
        extend(h)
    assert h.depth == 1


def test_closure_rejects_a_target_above_its_top_degree():
    p = named_profile("sym-quadratic", eps=0.05)
    with pytest.raises(ConstructionError, match="degree 3 > 2"):
        _close(p, PolyField(p, [0.0, 0.0, 0.0, 1.0]), 2)


def test_level_five_degrees():
    p = named_profile("asym-quadratic", eps=1e-3)
    h = build_hierarchy(p, 1, 5)
    assert (h.residual(5).u1.degree, h.residual(5).u2.degree) == (10, 11)


def test_sexp_dump_contains_structure(cache):
    h = cache.get("sym-quadratic", 1, 2)
    s = h.dump_sexp()
    assert "(level 1" in s and "(level 2" in s and "  (p 0 #" in s


def test_dump_lists_each_node_once():
    # the expanded tree of this hierarchy has far more than 1e10 nodes; the
    # dump prints the DAG: one line per reachable node plus its row lines
    h = build_hierarchy(named_profile("asym-quadratic", eps=1e-3), 1, 3)
    roots, rows = [], 1
    for lev in h.levels:
        coeffs = [c for f in (lev.v.u1, lev.v.u2, lev.residual.u1, lev.residual.u2,
                              lev.pressure) for c in f.coeffs]
        roots += coeffs
        rows += len(coeffs) + 2  # "(level", the coefficient rows, ")"
    reachable, stack = set(), list(roots)
    while stack:
        n = stack.pop()
        if n not in reachable:
            reachable.add(n)
            stack += getattr(n, "nodes", ())
            stack += [n.integrand] if hasattr(n, "integrand") else []
    t0 = time.perf_counter()
    lines = h.dump_sexp().split("\n")
    assert time.perf_counter() - t0 < 10.0
    assert len(lines) <= len(reachable) + rows
    assert lines.count("(level 3") == 1 and sum(l.startswith("  (p 0 #") for l in lines) == 3
    defined = set()
    for line in lines:  # every id is defined once, before any line naming it
        ids = re.findall(r"#(\d+)", line)
        if line.startswith("#"):
            assert ids[0] not in defined and set(ids[1:]) <= defined
            defined.add(ids[0])
        else:
            assert set(ids) <= defined
    assert len(defined) == len(reachable)


def test_a_hierarchy_read_at_another_eps_is_the_build_at_that_eps():
    # the construction sees eps only through the eps leaf, so levels built
    # at eps=1e-2 and read at 1e-3 are bytewise an eps=1e-3 build, and levels
    # built on the wall shape read so too
    def sample(hierarchies, x1, x2, eps=None):
        out = []
        for h in hierarchies:
            for lev in h.levels:
                out += [a.tobytes() for a in eval_fields(
                    [lev.v, lev.residual, lev.pressure], x1, x2, eps)]
        return out

    target = named_profile("asym-quadratic", eps=1e-3)
    x1 = np.linspace(-0.4, 0.4, 21)
    x2 = fiber_x2(target, x1, 5)
    expected = sample([build_hierarchy(target, alpha, 2) for alpha in (1, 2, 3)], x1, x2)
    for eps in (1e-2, None):
        profile = named_profile("asym-quadratic", eps=eps)
        built = [build_hierarchy(profile, alpha, 2) for alpha in (1, 2, 3)]
        assert sample(built, x1, x2, 1e-3) == expected
    with pytest.raises(ValueError, match="pass the eps"):
        sample(built, x1, x2)


@pytest.mark.xfail(strict=True, reason="sum terms are ordered by interning id, so "
                   "what a wall shape built before reorders them (ROADMAP item 2)")
def test_a_level_does_not_depend_on_what_the_shape_built_before():
    # alpha=3 built after alpha=1 on one fresh shape, and alone on another:
    # a value should follow from its DAG and its point only
    x1 = np.linspace(-0.4, 0.4, 41)

    def sample(first):
        profile = named_profile("asym-quadratic", eps=None)
        for alpha in first:
            build_hierarchy(profile, alpha, 2)
        h = build_hierarchy(profile, 3, 2)
        coeffs = [c for lev in h.levels for f in (lev.v, lev.residual)
                  for c in f.u1.coeffs + f.u2.coeffs]
        return [v.tobytes() for v in ca.eval_many(coeffs, x1, 1e-3)]

    after, alone = sample([1]), sample([])
    assert len(after) == len(alone)
    assert after == alone


_STRUCTURE = ("alpha", "level", "div_sup", "trace_sup", "degrees", "expected_degrees")


def test_multi_eps_verify_equals_the_one_eps_calls_bitwise():
    # one walk over three eps gives the structural part of verify_level's
    # dict at each eps; two fresh shapes built alike, so neither side reads
    # the other's tables
    eps = [1e-2, 3e-3, 1e-3]
    sizes = dict(n1=101, n2=17, n_trace=301)
    got, want = [], []
    for out in (got, want):
        profile = named_profile("sym-quadratic", eps=None)
        for h in [build_hierarchy(profile, alpha, 2) for alpha in (1, 2, 3)]:
            if out is got:
                for l in (1, 2):
                    out += verify_structure_many(h, l, eps, **sizes)
            else:
                out += [{k: verify_level(h, l, **sizes, eps=e)[k] for k in _STRUCTURE}
                        for l in (1, 2) for e in eps]
    assert got == want
    assert [(d["alpha"], d["level"]) for d in got] == [
        (alpha, l) for alpha in (1, 2, 3) for l in (1, 2) for _ in eps]
    with pytest.raises(ValueError, match="pass the eps"):
        verify_level(h, 1, **sizes)


def _separate_div_and_trace_sups(h, l, eps, n1, n2, n_trace):
    """(div_sup, trace_sup) at each eps as two walks find them: the
    divergence through ``fiber_sup``, the four trace errors in one
    ``eval_many`` of their own."""
    lev, r, k = h.level(l), h.profile.R, len(eps)
    x1 = np.tile(cheb_nodes(n1, -r, r), k)
    div = fiber_sup(lev.v.divergence(), x1, n2, np.repeat(eps, n1)).reshape(k, -1)
    top = [trace(lev.v.u1, "top"), trace(lev.v.u2, "top")]
    if l == 1:
        top = [t - w for t, w in zip(top, psi_top_traces(h.profile, h.alpha))]
    bottom = [trace(lev.v.u1, "bottom"), trace(lev.v.u2, "bottom")]
    xs = np.tile(np.linspace(-r, r, n_trace), k)
    traces = [v.reshape(k, -1)
              for v in ca.eval_many(top + bottom, xs, np.repeat(eps, n_trace))]
    return [(float(np.max(div[i])), max(float(np.max(np.abs(v[i]))) for v in traces))
            for i in range(k)]


@pytest.mark.parametrize("eps", [[1e-3], [1e-2, 3e-3, 1e-3]])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_one_walk_for_divergence_and_traces_equals_the_separate_walks_bitwise(cache, alpha, eps):
    h = cache.get("asym-quadratic", alpha, 2)
    sizes = dict(n1=101, n2=17, n_trace=301)
    for l in (1, 2):
        got = [(d["div_sup"], d["trace_sup"])
               for d in verify_structure_many(h, l, eps, **sizes)]
        assert got == _separate_div_and_trace_sups(h, l, eps, **sizes)


def test_a_level_outside_the_depth_is_an_error():
    # 0 and -1 once read the deepest levels by list indexing, and 3 raised
    # a bare IndexError; a shared cache's hierarchy may be deeper
    h = build_hierarchy(named_profile("sym-quadratic", eps=None), 1, 2)
    for l in (0, -1, 3):
        for read in (h.level, h.residual, h.cumulative_v, h.cumulative_pressure,
                     lambda l: verify_level(h, l, eps=1e-2)):
            with pytest.raises(ValueError, match=r"outside 1\.\.2, the hierarchy's depth"):
                read(l)
    assert h.residual() is h.level(2).residual
    assert h.cumulative_v().u1.coeffs == (h.level(1).v + h.level(2).v).u1.coeffs


def _no_walk(*args):
    raise AssertionError("walked")


def test_verify_over_an_empty_eps_list_is_an_error_before_any_walk(cache, monkeypatch):
    h = cache.get("sym-quadratic", 1, 2)
    monkeypatch.setattr(ca, "_walk", _no_walk)
    for eps in ([], np.array([])):
        with pytest.raises(ValueError, match="the eps list is empty"):
            verify_structure_many(h, 1, eps)


@pytest.mark.parametrize("sizes", [{"n1": 1}, {"n_trace": 0}, {"n2": 0}],
                         ids=["one-chebyshev-node", "no-trace-point", "no-fiber-point"])
def test_verify_at_too_few_points_is_an_error_before_any_walk(cache, monkeypatch, sizes):
    # n1=1 divided by zero in cheb_nodes and read div_sup nan; n_trace=0
    # and n2=0 walked, then ended in numpy's zero-size-reduction error
    h = cache.get("sym-quadratic", 1, 2)
    monkeypatch.setattr(ca, "_walk", _no_walk)
    with pytest.raises(ValueError, match="verify: needs n1 >= 2"):
        verify_level(h, 1, eps=1e-2, **sizes)


def _collections_during(build, *args):
    """The cyclic collections that start while ``build(*args)`` runs, with
    the collector enabled and its generations emptied first, and the objects
    a collection then finds unreachable: the garbage the pause kept."""
    runs = []

    def count(phase, info):
        runs.append(phase == "start")

    gc.collect()
    gc.callbacks.append(count)
    try:
        build(*args)
    finally:
        gc.callbacks.remove(count)
    return sum(runs), gc.collect()


def test_construction_runs_no_cyclic_collection_and_restores_the_collector():
    # the DAG is acyclic and lives as long as its profile, so a collection
    # pass over it frees nothing, and a build leaves no cyclic garbage; the
    # builds pause the collector and leave it as they found it, also when a
    # build raises inside the pause
    asym, sym = named_profile("asym-quadratic", eps=1e-3), named_profile("sym-quadratic", eps=1e-3)
    was = gc.isenabled()
    try:
        gc.enable()
        assert _collections_during(build_hierarchy, asym, 2, 3) == (0, 0)
        assert _collections_during(build_symmetric_green, sym, 3) == (0, 0)
        assert gc.isenabled()
        gc.disable()
        build_hierarchy(named_profile("asym-quadratic", eps=1e-3), 1, 2)
        assert not gc.isenabled()
        gc.enable()
        with pytest.raises(ValueError, match="alpha must be 1, 2 or 3"):
            build_hierarchy(asym, 4, 2)
        assert gc.isenabled()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_structural_rows_walk_once_per_level_and_skip_the_identity(eval_calls):
    # the sweep's structural rows read the divergence, the traces and the
    # degrees, so one walk per (alpha, level) serves them, where the identity
    # check's walk doubled it; their values are verify_level's at each eps
    from neckflow import sweeps
    from neckflow.verifier import HierarchyCache
    config = sweeps.RunConfig(alphas=(1, 2), m_max=1)
    rows = sweeps._structural_rows(config, HierarchyCache())
    assert len(eval_calls) == 2 * 2
    cache, want = HierarchyCache(), []
    for alpha in (1, 2):
        h = cache.get(config.profile, alpha, 2)
        for l in (1, 2):
            for eps in (1e-2, 3e-3, 1e-3):
                info = verify_level(h, l, n1=101, n2=17, n_trace=301, eps=eps)
                d1, d2 = info["degrees"]
                want += [info["div_sup"], info["trace_sup"], float(d1 * 100 + d2)]
    assert [r.measured for r in rows] == want


def test_a_build_computes_each_products_rule_terms_once(monkeypatch):
    # a product reached by the diff() calls of several sums computed its rule
    # terms in each; inside one build they are computed once and kept, and
    # dropped when the outermost call returns, raise or not
    counts = {}
    real = ca._Prod._rule_terms

    def counted(p):
        counts[p] = counts.get(p, 0) + 1
        return real(p)

    monkeypatch.setattr(ca._Prod, "_rule_terms", counted)
    profile = named_profile("sym-quadratic", eps=3e-3)
    computed = []
    for build, args in ((build_symmetric_green, (4,)), (build_hierarchy, (1, 4)),
                        (build_hierarchy, (2, 4)), (build_hierarchy, (3, 4))):
        counts.clear()
        build(profile, *args)
        assert max(counts.values()) == 1
        assert not ca._KEPT_RULES
        computed.append(len(counts))
    assert sum(computed) > 4000
    with pytest.raises(ConstructionError):
        extend(build_hierarchy(profile, 1, LEVEL_CAP))
    assert not ca._KEPT_RULES
