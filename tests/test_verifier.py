import numpy as np
import pytest

from neckflow import coeffs as ca
from neckflow import verifier as vf
from neckflow.correctors import build_hierarchy
from neckflow.fields import PolyField, deriv_fields
from neckflow.geometry import named_profile


def test_fit_exact_power_law():
    x = np.geomspace(1e-3, 1.0, 8)
    fit = vf.fit_decay_order(zip(x, x**2))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_samples():
    x = np.geomspace(1e-3, 1.0, 8)
    fit = vf.fit_decay_order(zip(x, np.full(8, 3.7)))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_of_a_nan_sample_is_no_perfect_fit():
    # a NaN sample made ss_tot NaN, and r2 read 1.0
    x = np.geomspace(1e-3, 1.0, 8)
    y = x**2
    y[3] = np.nan
    assert np.isnan(vf.fit_decay_order(zip(x, y)).r2)


def test_fit_noisy_power_law(rng):
    x = np.geomspace(1e-4, 1e-1, 24)
    y = 3.0 * x**-1.5 * (1.0 + 0.01 * rng.standard_normal(24))
    fit = vf.fit_decay_order(zip(x, y))
    assert fit.slope == pytest.approx(-1.5, abs=0.05)


def test_fit_preconditions():
    x = np.geomspace(1e-3, 1.0, 8)
    with pytest.raises(ValueError):
        vf.fit_decay_order(list(zip(x, x))[:4])
    with pytest.raises(ValueError):
        vf.fit_decay_order(zip(np.linspace(1.0, 2.0, 8), np.ones(8)))  # short span
    with pytest.raises(ValueError):
        vf.fit_decay_order(zip(x, np.concatenate([[-1.0], np.ones(7)])))


def test_residual_order_passes(cache):
    h = cache.get("asym-quadratic", 1, 2)
    row = vf.residual_order(h, s=0, m=1, eps=1e-4)
    assert row["passed"]
    assert row["fit"].slope >= row["predicted"] - row["tolerance"]
    row1 = vf.residual_order(h, s=1, m=1, eps=1e-4)
    assert row1["passed"]
    with pytest.raises(ValueError):
        vf.residual_order(h, s=2, m=1, eps=1e-4)


def test_residual_order_symmetric_profile(cache):
    # identical walls give the same guaranteed orders (and usually better)
    h = cache.get("sym-quadratic", 1, 2)
    assert vf.residual_order(h, s=0, m=1, eps=1e-4)["passed"]
    h2 = cache.get("asym-quadratic", 2, 2)
    assert vf.residual_order(h2, s=0, m=1, eps=1e-4)["passed"]


def test_residual_window_requires_room():
    h = vf.HierarchyCache().get("sym-quadratic", 1, 2, green=True)
    with pytest.raises(ValueError, match="window"):
        vf.residual_order(h, s=0, m=1, eps=0.05)  # 2 sqrt(0.05) > R/2


def test_blowup_orders_exact(cache):
    h = cache.get("sym-quadratic", 1, 1, green=True)
    for m in (0, 1, 2, 3):
        row = vf.corrector_blowup_order(h, vf.DEFAULT_EPS_SWEEP, m)
        assert row["predicted"] == pytest.approx(-(m + 2) / 2)
        assert abs(row["fit"].slope - row["predicted"]) < 0.05


def test_blowup_point_inside_chart(cache):
    h = cache.get("sym-quadratic", 1, 1, green=True)
    with pytest.raises(ValueError):
        vf.corrector_blowup_order(h, [1e-2], 0, r_eval=20.0)


def test_blowup_eps_list_is_checked_before_the_square_root(cache):
    # a negative eps reached np.sqrt and raised numpy's invalid-value warning
    h = cache.get("sym-quadratic", 1, 1, green=True)
    for bad in ([1e-2, -1e-3, 1e-3, 1e-4, 1e-5], [1e-2, np.nan, 1e-3, 1e-4, 1e-5],
                [np.inf, 1e-2, 1e-3, 1e-4, 1e-5]):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            vf.corrector_blowup_order(h, bad, 1)


def test_geometry_reads_check_an_explicit_eps(cache):
    # numpy's invalid-value warning from the square root, numpy's "cannot
    # include zero" from the window's geomspace, and a negative gap width
    h = cache.get("asym-quadratic", 1, 2)
    shape = named_profile("sym-quadratic", None)
    for read in (lambda: vf.residual_order(h, 0, 1, eps=-1e-3),
                 lambda: vf.decay_window(shape, 20, 0.0),
                 lambda: shape.delta(0.1, -1.0),
                 lambda: shape.top(np.array([0.1, 0.2]), np.array([1e-3, np.nan]))):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            read()
    assert shape.delta(0.1, 1e-3) == pytest.approx(1e-3 + 0.01)


def test_pressure_deriv_fields(cache):
    # the pressure is one field, so deriv_fields gives its mixed partials
    h = cache.get("asym-quadratic", 1, 2)
    p = h.cumulative_pressure(2)
    assert deriv_fields(p, 0) == [p]
    fields2 = deriv_fields(p, 2)
    assert len(fields2) == 3
    # the pure x1 part is the x2^0 coefficient: d/dx2 drops it, so the
    # (k1=0, k2=2) entry is the same with that coefficient zeroed, and the
    # (k1=2, k2=0) entry differentiates it twice in x1
    no_pure = PolyField(p.profile, [0.0, *p.coeffs[1:]])
    assert fields2[0].coeffs == no_pure.partial_x2(2).coeffs
    assert fields2[2].coeffs[0] is ca.coeff_diff(ca.coeff_diff(p.coeffs[0]))


def test_cache_builds_each_hierarchy_once_for_every_eps(monkeypatch):
    built = []
    for name in ("build_hierarchy", "build_symmetric_green"):
        real = getattr(vf, name)
        monkeypatch.setattr(vf, name, lambda profile, *a, real=real, name=name:
                            built.append((name, *a)) or real(profile, *a))
    cache = vf.HierarchyCache()
    for alpha, green in ((1, False), (2, False), (1, True)):
        h = cache.get("sym-quadratic", alpha, 1, green=green)
        assert cache.get("sym-quadratic", alpha, 1, green=green) is h  # one object
        assert h.profile is cache.shape("sym-quadratic")  # on the eps-free shape
        assert h.profile.eps is None and h.alpha == alpha and h.green == green
    # (alpha, levels) of each build_hierarchy call, (levels,) of the Green one
    assert sorted(built) == [("build_hierarchy", 1, 1), ("build_hierarchy", 2, 1),
                             ("build_symmetric_green", 1)]
    # deeper levels extend the one shared hierarchy
    h = cache.get("sym-quadratic", 1, 2)
    assert h.depth == 2 and len(built) == 3
    assert cache.get("sym-quadratic", 1, 1) is h
    # the shape's geometry is read at a named eps, as its hierarchies are
    assert cache.shape("sym-quadratic").delta(0.0, 1e-4) == 1e-4


def test_a_shared_coefficient_needs_its_eps_whatever_eps_was_served():
    # a cache hierarchy's coefficients once read at the first eps served
    # when none was named (1/delta(0.01) = 99.0099...), and raised once a
    # second eps had been served; now they raise whatever eps they were read
    # at before, and a named eps reads the build at that eps
    cache = vf.HierarchyCache()
    lev = cache.get("sym-quadratic", 1, 1).level(1)
    coeffs = [c for f in (lev.v.u1, lev.v.u2, lev.residual.u1, lev.residual.u2,
                          lev.pressure) for c in f.coeffs]
    for served in (1e-2, 1e-3):
        ca.eval_many(coeffs, [0.01, 0.2], served)
        with pytest.raises(ValueError, match="pass the eps"):
            coeffs[1].eval(0.01)
        with pytest.raises(ValueError, match="pass the eps"):
            ca.eval_many(coeffs, [0.01, 0.2])
    xs = np.linspace(-0.4, 0.4, 9)
    for eps in (1e-2, 1e-3):
        own = build_hierarchy(named_profile("sym-quadratic", eps=eps), 1, 1).level(1)
        want = [c for f in (own.v.u1, own.v.u2, own.residual.u1, own.residual.u2,
                            own.pressure) for c in f.coeffs]
        assert [v.tobytes() for v in ca.eval_many(coeffs, xs, eps)] == \
            [v.tobytes() for v in ca.eval_many(want, xs)]


@pytest.mark.parametrize("family", ["general", "symmetric"])
def test_batched_envelope_equals_the_one_point_calls(cache, family):
    # one walk per member over points of several eps is, point by point, the
    # envelope evaluated at that point alone
    eps = [1e-2, 1e-3, 1e-3, 1e-4, 1e-5]
    x1 = np.array([0.05, 0.5 * np.sqrt(1e-3), 0.2, 0.5 * np.sqrt(1e-4), 0.1])
    for m in (0, 1):
        env = vf._envelopes(cache, family, eps, (m,), x1)[0]
        for i in range(len(x1)):
            one = vf._envelopes(cache, family, eps[i:i + 1], (m,), x1[i:i + 1])[0]
            assert env[i:i + 1].tobytes() == one.tobytes()


def test_the_rate_table_walks_each_member_once_for_every_m(monkeypatch, eval_calls):
    # one walk per member and family serves m = 0, 1, 2 (the m = 0 gauge
    # fibers at R/2 included), where one walk per member and m did; the rows
    # are, float for float, those of one _envelopes call per m on a second
    # fresh cache, which makes the fields in the same order
    m_values = (0, 1, 2)
    rows = vf.theorem_rate_table(m_values=m_values, cache=vf.HierarchyCache())
    assert len(eval_calls) == sum(len(members) for _, members in vf.FAMILIES.values())
    one_m = vf._envelopes
    monkeypatch.setattr(vf, "_envelopes", lambda cache, family, eps, ms, x1: [
        one_m(cache, family, eps, (m,), x1)[0] for m in ms])
    eval_calls.clear()
    want = vf.theorem_rate_table(m_values=m_values, cache=vf.HierarchyCache())
    assert len(eval_calls) == len(m_values) * 5
    assert rows == want
    assert [(r["family"], r["m"]) for r in rows[::2]] == [
        (family, m) for family in ("general", "symmetric") for m in m_values]


def test_decay_rows_take_every_s_from_one_walk(eval_calls):
    from neckflow import sweeps
    config = sweeps.RunConfig(alphas=(1, 2, 3), m_max=2)
    rows = sweeps._decay_rows(config, vf.HierarchyCache())
    assert len(eval_calls) == 3 * 2  # one per (alpha, m)
    cache, want = vf.HierarchyCache(), []
    for alpha in (1, 2, 3):
        h = cache.get(config.profile, alpha, 3)
        for m in (1, 2):
            for s in range(m + 1):
                res = vf.residual_order(h, s, m, eps=config.eps[-1])
                want.append((alpha, m, s, res["predicted"], res["fit"].slope,
                             res["tolerance"], res["passed"]))
    assert [(r.alpha, r.m, r.s, r.predicted, r.measured, r.tolerance, r.passed)
            for r in rows] == want
    with pytest.raises(ValueError, match="s <= m"):
        vf.residual_orders(h, (0, 3), 2, eps=1e-4)
