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
    verify_level,
    verify_level_many,
)
from neckflow.fields import PolyField, eval_fields, fiber_x2, sup_abs, trace
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


def test_multi_eps_verify_equals_the_one_eps_calls_bitwise():
    # one walk per check over three eps gives verify_level's dict at each eps;
    # two fresh shapes built alike, so neither side reads the other's tables
    eps = [1e-2, 3e-3, 1e-3]
    sizes = dict(n1=101, n2=17, n_trace=301)
    got, want = [], []
    for out in (got, want):
        profile = named_profile("sym-quadratic", eps=None)
        for h in [build_hierarchy(profile, alpha, 2) for alpha in (1, 2, 3)]:
            if out is got:
                for l in (1, 2):
                    out += verify_level_many(h, l, eps, **sizes)
            else:
                out += [verify_level(h, l, **sizes, eps=e) for l in (1, 2) for e in eps]
    assert got == want
    assert [(d["alpha"], d["level"]) for d in got] == [
        (alpha, l) for alpha in (1, 2, 3) for l in (1, 2) for _ in eps]
    with pytest.raises(ValueError, match="pass the eps"):
        verify_level(h, 1, **sizes)
