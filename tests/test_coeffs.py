import subprocess
import sys

import numpy as np
import pytest

from neckflow import coeffs as ca
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
    h = cache.get("asym-quadratic", 1e-2, 1, 2)
    p = h.profile
    xs = rng.uniform(-p.R, p.R, 100)
    step = 1e-6 * p.delta(xs)
    coeffs = list(h.residual(2).u1.coeffs) + list(h.level(2).v.u2.coeffs)
    for c in coeffs:
        dc = ca.coeff_diff(c)
        fd = (ca.coeff_eval(c, xs + step) - ca.coeff_eval(c, xs - step)) / (2 * step)
        got = ca.coeff_eval(dc, xs)
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
    ca.quotient(ca.const(1.0), ca.delta_coeff(p) ** 2)  # fine


def test_capability_error_beyond_order_cap():
    p = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 0.5]), h2=ProfileFn([0, 0, 0.5]), M=2)
    node = ca.profile_deriv(p, 1, 3)
    with pytest.raises(ca.CapabilityError):
        ca.coeff_eval(node, 0.1)
    # below the cap the same order is exactly zero for a quadratic wall
    p2 = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 0.5]), h2=ProfileFn([0, 0, 0.5]), M=8)
    assert ca.is_zero(ca.profile_deriv(p2, 1, 3))


def test_quadrature_failure_is_diagnosed(monkeypatch):
    monkeypatch.setattr(ca, "_MAX_PANELS", 4)
    p = asym(eps=1e-6)
    g = ca.antideriv(0.0, ca.quotient(ca.profile_deriv(p, 1, 0), ca.delta_coeff(p) ** 3))
    with pytest.raises(ca.QuadratureError) as err:
        ca.coeff_eval(g, 0.3)
    assert "int" in str(err.value)  # the offending node path is reported


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        ca.coeff_eval(ca.const(1.0), 0.0, tol=0.0)


def test_sexp_dump():
    p = asym()
    g = ca.quotient(ca.lin([(ca.profile_deriv(p, 1, 0), 1.0)], 0.0), ca.delta_coeff(p))
    s = ca.to_sexp(g)
    assert "(d0 h1)" in s and "^" in s
    assert ca.to_sexp(ca.antideriv(0.5, g)).startswith("(int 0.5")


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
