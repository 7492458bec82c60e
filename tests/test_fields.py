import numpy as np
import pytest

from neckflow import coeffs as ca
from neckflow.fields import (
    PolyField,
    VectorField2,
    deriv_fields,
    fiber_x2,
    keller_field,
    keller_plus_half,
    keller_x1_deriv,
    ksq_minus_quarter,
    sup_abs,
    trace,
    x2_field,
)
from neckflow.geometry import keller_grad, named_profile


def sym(eps=0.01):
    return named_profile("sym-quadratic", eps=eps)


def asym(eps=0.01):
    return named_profile("asym-quadratic", eps=eps)


def test_partial_x2_basics():
    p = sym()
    f = PolyField(p, [0.0, 0.0, 1.0])  # x2^2
    df = f.partial_x2()
    assert df.degree == 1
    assert df.eval(0.0, 0.25) == pytest.approx(0.5)
    assert f.partial_x2(3).is_zero()


def test_partial_x1_of_keller_matches_gradient(rng):
    p = asym()
    k = keller_field(p)
    dk = k.partial_x1()
    dk2 = keller_x1_deriv(p)
    x1 = rng.uniform(-0.9, 0.9, 100)
    s = rng.uniform(0.05, 0.95, 100)
    x2 = p.bottom(x1) + s * (p.top(x1) - p.bottom(x1))
    want = keller_grad(p, x1, x2)[0]
    for g in (dk, dk2):
        got = np.array([float(g.eval(np.asarray(a), b)) for a, b in zip(x1, x2)])
        assert np.max(np.abs(got - want) / np.abs(want).max()) < 1e-8


def test_divergence_trivial_fields():
    p = sym()
    assert VectorField2(x2_field(p), PolyField(p, [])).divergence().is_zero()
    v = VectorField2(PolyField(p, [ca.X1]), PolyField(p, [0.0, -1.0]))
    assert v.divergence().is_zero()


def test_laplacian_and_pure_gradient():
    p = sym()
    v = VectorField2(PolyField(p, [0.0, 0.0, 1.0]), PolyField(p, []))
    lap = v.laplacian()
    assert lap.u1.degree == 0
    assert lap.u1.eval(0.3, 0.0) == pytest.approx(2.0)
    # a pressure's pure x1 part is its x2^0 coefficient: d/dx2 drops it and
    # d/dx1 collapses its integral back to the integrand
    g = ca.delta_coeff(p)
    pr = PolyField(p, [ca.antideriv(0.0, g)])
    assert pr.partial_x2().is_zero()
    assert pr.partial_x1().coeffs == (g,)
    assert pr.partial_x1().eval(0.2, 0.0) == pytest.approx(float(ca.coeff_eval(g, 0.2)))


def test_laplacian_matches_five_point_stencil(cache, rng):
    h = cache.get("asym-quadratic", 1e-2, 1, 1)
    p = cache.profile("asym-quadratic", 1e-2)
    v = h.level(1).v
    lap = v.laplacian()
    x1 = rng.uniform(-0.3, 0.3, 100)
    s = rng.uniform(0.3, 0.7, 100)
    x2 = p.bottom(x1) + s * (p.top(x1) - p.bottom(x1))
    step = p.delta(x1) / 100.0
    for comp, lcomp in ((v.u1, lap.u1), (v.u2, lap.u2)):
        def ev(a, b):
            return np.array([float(comp.eval(np.asarray(x), y, p.eps)) for x, y in zip(a, b)])
        fd = ((ev(x1 + step, x2) + ev(x1 - step, x2) + ev(x1, x2 + step)
               + ev(x1, x2 - step) - 4 * ev(x1, x2)) / step**2)
        got = np.array([float(lcomp.eval(np.asarray(x), y, p.eps)) for x, y in zip(x1, x2)])
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got - fd)) / scale < 1e-4


def test_traces():
    p = asym()
    xs = np.linspace(-1, 1, 1000)
    kp = keller_plus_half(p)
    tr = trace(kp, "top")
    assert np.max(np.abs(ca.coeff_eval(tr, xs) - 1.0)) < 1e-12
    kq = ksq_minus_quarter(p)
    for side in ("top", "bottom"):
        assert np.max(np.abs(ca.coeff_eval(trace(kq, side), xs))) < 1e-12


def test_mixed_partials_commute(cache, rng):
    h = cache.get("asym-quadratic", 1e-2, 1, 1)
    f = h.level(1).v.u2
    a = f.partial_x1().partial_x2()
    b = f.partial_x2().partial_x1()
    x1 = rng.uniform(-0.4, 0.4, 50)
    va = a.eval(x1, 0.0, 1e-2)
    vb = b.eval(x1, 0.0, 1e-2)
    assert np.max(np.abs(va - vb)) / max(1e-30, np.max(np.abs(va))) < 1e-8


def test_evaluation_linear_in_coefficients(rng):
    p = sym()
    c1, c2 = ca.delta_coeff(p), ca.X1
    f1 = PolyField(p, [c1, c2])
    f2 = PolyField(p, [c2, c1])
    both = f1 + f2
    xs = rng.uniform(-0.5, 0.5, 20)
    assert np.allclose(both.eval(xs, 0.003),
                       f1.eval(xs, 0.003) + f2.eval(xs, 0.003), rtol=1e-13)


def test_degree_trimming_and_zero_field():
    p = sym()
    f = PolyField(p, [1.0, 0.0, 0.0])
    assert f.degree == 0
    z = PolyField(p, [0.0])
    assert z.is_zero() and z.degree == -1
    assert z.eval(np.array([0.1, 0.2]), 0.0).shape == (2,)


def test_fiber_sampling_shapes():
    p = sym()
    x1 = np.linspace(-0.4, 0.4, 7)
    x2 = fiber_x2(p, x1, 11)
    assert x2.shape == (7, 11)
    assert np.all(x2[:, 0] == p.bottom(x1))
    assert np.all(x2[:, -1] == p.top(x1))
    assert sup_abs(keller_plus_half(p), r=0.4, n1=21, n2=11) == pytest.approx(1.0, abs=1e-12)


def test_deriv_fields_count():
    p = sym()
    v = VectorField2(x2_field(p), x2_field(p))
    assert len(deriv_fields(v, 2)) == 6  # 3 multi-indices x 2 components
