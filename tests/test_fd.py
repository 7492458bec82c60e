import numpy as np
import pytest

from neckflow import coeffs as ca
from neckflow.correctors import build_symmetric_green
from neckflow.fd import (
    DiscreteSolution,
    NeckGrid,
    export_csv,
    global_energy,
    local_energy,
    manufactured_solution,
    solve_fields,
    solve_w,
    sup_grad,
    sup_high_deriv,
)
from neckflow.fields import PolyField, VectorField2
from neckflow.geometry import named_profile


@pytest.fixture(scope="module")
def mild_profile():
    return named_profile("sym-quadratic", eps=0.05)


@pytest.fixture(scope="module")
def manufactured(mild_profile):
    return manufactured_solution(mild_profile, 0.6)


def _exact_at_nodes(grid, w):
    p = grid.profile
    x2u = np.multiply.outer(p.delta(grid.xf), grid.tc) + \
        ((p.h1(grid.xf) - p.h2(grid.xf)) / 2)[:, None]
    ue = w.u1.eval(grid.xf, x2u)
    x2v = np.multiply.outer(p.delta(grid.xc), grid.tf) + \
        ((p.h1(grid.xc) - p.h2(grid.xc)) / 2)[:, None]
    ve = w.u2.eval(grid.xc, x2v)
    return ue, ve


def test_grid_validation(mild_profile):
    with pytest.raises(ValueError):
        NeckGrid(mild_profile, r=0.6, n1=64, n2=16)  # gap under-resolved
    with pytest.raises(ValueError):
        NeckGrid(mild_profile, r=1.5, n1=64, n2=32)  # beyond the chart
    with pytest.raises(ValueError):
        NeckGrid(mild_profile, r=0.6, n1=0, n2=32)  # no cell across the gap


@pytest.mark.parametrize("n1, n2", [(33, 32), (257, 64)])
def test_unknown_order_puts_each_pressure_after_its_faces(mild_profile, n1, n2):
    # the pressure block of the saddle system is zero; a pressure eliminated
    # after its cell's west u and south v faces has a filled-in pivot, which
    # is why the factorization may keep every diagonal pivot
    order = NeckGrid(mild_profile, r=0.6, n1=n1, n2=n2).unknown_order()
    n_u, n_v, n_p = (n1 + 1) * (n2 + 2), (n1 + 2) * (n2 + 1), n1 * n2
    assert np.array_equal(np.sort(order), np.arange(n_u + n_v + n_p))
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    ci, cj = np.indices((n1, n2))
    p_pos = pos[n_u + n_v + ci * n2 + cj]
    assert np.all(p_pos > pos[ci * (n2 + 2) + cj + 1])                  # west u
    assert np.all(p_pos > pos[n_u + (ci + 1) * (n2 + 1) + cj])          # south v


def test_lu_fill_and_diagonal_pivots(mild_profile):
    g = NeckGrid(mild_profile, r=0.6, n1=64, n2=64)
    lu, _ = g.solver()
    assert lu.L.nnz + lu.U.nnz <= 2_000_000
    grids = [g] + [NeckGrid(named_profile(name, eps=eps), r=0.6, n1=n1, n2=n2)
                   for name, eps, n1, n2 in [("asym-quadratic", 1e-4, 64, 64),
                                             ("asym-quadratic", 1e-4, 33, 32),
                                             ("sym-quadratic", 3e-3, 4, 32)]]
    for grid in grids:
        n1, n2 = grid.n1, grid.n2
        case = (grid.profile.name, grid.profile.eps, n1, n2)
        sol = solve_w(grid, np.ones((n1 - 1, n2)), np.ones((n1, n2 - 1)))
        assert sol.residual_rel < 1e-10, case
        assert sol.div_max < 1e-10, case
        lu, _ = grid.solver()
        assert np.array_equal(lu.perm_r, lu.perm_c), case  # no row swaps


def test_zero_forcing_gives_zero(mild_profile):
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    sol = solve_w(g, np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1)))
    assert np.max(np.abs(sol.u)) < 1e-10
    assert np.max(np.abs(sol.v)) < 1e-10
    assert np.max(np.abs(sol.p)) < 1e-10


def test_nonfinite_forcing_rejected(mild_profile):
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    f1 = np.zeros((g.n1 - 1, g.n2))
    f1[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_w(g, f1, np.zeros((g.n1, g.n2 - 1)))


def test_full_node_forcing_shapes_rejected(mild_profile):
    # forcing is sampled at the interior u/v nodes only; arrays that also
    # carry the boundary nodes are refused, not silently cut down
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    f1, f2 = np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1))
    with pytest.raises(ValueError, match="f1"):
        solve_w(g, np.zeros((g.n1 + 1, g.n2)), f2)
    with pytest.raises(ValueError, match="f2"):
        solve_w(g, f1, np.zeros((g.n1, g.n2 + 1)))


def test_boundary_data_on_asymmetric_walls():
    # the bump flow has zero boundary data; these exact Stokes flows (q = 0,
    # f = 0) do not, so a permuted or mis-weighted boundary row shows here
    p = named_profile("asym-quadratic", eps=0.05)
    minus_x1 = ca.lin([(ca.X1, -1.0)])
    one, none = PolyField(p, [1.0]), PolyField(p, [])
    rotation = VectorField2(PolyField(p, [0.0, 1.0]), PolyField(p, [minus_x1]))
    # w2 differs between the walls only for the strain; it pushes fluid
    # through the walls and converges at first order only (measured 1.4, 1.0)
    strain = VectorField2(PolyField(p, [ca.X1]), PolyField(p, [0.0, -1.0]))

    def error(g, data):
        sol = solve_w(g, np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1)),
                      bc=data.eval)
        ue, ve = _exact_at_nodes(g, data)
        return max(np.abs(sol.u - ue).max(), np.abs(sol.v - ve).max())

    errs = {"rotation": [], "strain": []}
    for n in (32, 64, 128):
        g = NeckGrid(p, r=0.6, n1=n, n2=n)
        assert error(g, VectorField2(one, none)) <= 1e-12
        assert error(g, VectorField2(none, one)) <= 1e-12
        errs["rotation"].append(error(g, rotation))
        errs["strain"].append(error(g, strain))
    orders = {k: np.log2(np.array(e[:-1]) / np.array(e[1:])) for k, e in errs.items()}
    assert np.all((orders["rotation"] >= 1.8) & (orders["rotation"] <= 2.2)), errs
    assert np.all(orders["strain"] >= 0.9), errs


def test_manufactured_convergence_two_doublings(mild_profile, manufactured):
    w, q, f = manufactured
    errs = []
    for n in (32, 64, 128):
        g = NeckGrid(mild_profile, r=0.6, n1=n, n2=max(32, n))
        sol = solve_fields(g, f, bc_field=w)
        assert sol.residual_rel < 1e-10
        assert sol.div_max < 1e-10
        ue, ve = _exact_at_nodes(g, w)
        errs.append(max(np.abs(sol.u - ue).max(), np.abs(sol.v - ve).max()))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_manufactured_sup_grad_within_two_percent(mild_profile, manufactured):
    w, q, f = manufactured
    g = NeckGrid(mild_profile, r=0.6, n1=128, n2=64)
    sol = solve_fields(g, f)
    # analytic max shear of the bump flow on this chart
    assert sup_grad(sol, 0.58) == pytest.approx(50.0, rel=0.02)


def test_energy_identity_within_one_percent(mild_profile, manufactured):
    w, q, f = manufactured
    p = mild_profile
    g = NeckGrid(p, r=0.6, n1=128, n2=64)
    sol = solve_fields(g, f)
    E = p.mu * global_energy(sol)
    uc, vc = sol.cell_velocity()
    x2c = np.multiply.outer(p.delta(g.xc), g.tc) + \
        ((p.h1(g.xc) - p.h2(g.xc)) / 2)[:, None]
    work = np.sum((f.u1.eval(g.xc, x2c) * uc + f.u2.eval(g.xc, x2c) * vc)
                  * p.delta(g.xc)[:, None] * g.dx * g.dt)
    assert E == pytest.approx(work, rel=0.01)


def test_closed_form_shear_energy(mild_profile):
    # w = (t, 0) in mapped coordinates: |d w1/d x2|^2 = 1/delta^2, so the
    # energy reduces to the integral of 1/delta over the window
    p = mild_profile
    g = NeckGrid(p, r=0.6, n1=192, n2=64)
    up = np.zeros((g.n1 + 1, g.n2 + 2))
    tp = np.concatenate([[g.tc[0] - g.dt], g.tc, [g.tc[-1] + g.dt]])
    up[:] = tp[None, :]
    sol = DiscreteSolution(g, up, np.zeros((g.n1 + 2, g.n2 + 1)),
                           np.zeros((g.n1, g.n2)), 0.0, 0.0)
    from scipy.integrate import quad
    want = quad(lambda x: 1.0 / p.delta(x), -0.5, 0.5, epsabs=1e-12)[0]
    got = global_energy(sol, r=0.5)
    assert got == pytest.approx(want, rel=0.02)


def test_linear_field_gradient_exact(mild_profile):
    # w = (x1, -x2): the constant gradient survives every mapped difference
    # and average without error
    p = mild_profile
    g = NeckGrid(p, r=0.6, n1=64, n2=32)
    up = np.zeros((g.n1 + 1, g.n2 + 2))
    up[:] = g.xf[:, None]
    tp = g.tf
    xcp = np.concatenate([[g.xc[0] - g.dx], g.xc, [g.xc[-1] + g.dx]])
    vp = -(np.multiply.outer(p.delta(xcp), tp)
           + ((p.h1(xcp) - p.h2(xcp)) / 2)[:, None])
    sol = DiscreteSolution(g, up, vp, np.zeros((g.n1, g.n2)), 0.0, 0.0)
    assert sup_grad(sol, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_local_energy_window_checks(mild_profile):
    g = NeckGrid(mild_profile, r=0.6, n1=64, n2=32)
    sol = solve_w(g, np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1)))
    assert local_energy(sol, 0.2) == 0.0
    with pytest.raises(ValueError):
        local_energy(sol, 0.58)


def test_synthetic_local_energy_slope(mild_profile):
    # w1 = (t^2 - 1/4) * delta(x): |grad w| ~ O(1), window volume ~ delta^2
    p = mild_profile
    g = NeckGrid(p, r=0.6, n1=256, n2=64)
    tp = np.concatenate([[g.tc[0] - g.dt], g.tc, [g.tc[-1] + g.dt]])
    up = (tp**2 - 0.25)[None, :] * p.delta(g.xf)[:, None]
    sol = DiscreteSolution(g, up, np.zeros((g.n1 + 2, g.n2 + 1)),
                           np.zeros((g.n1, g.n2)), 0.0, 0.0)
    z1 = np.linspace(0.05, 0.3, 11)
    e = np.array([local_energy(sol, z) for z in z1])
    slope = np.polyfit(np.log(p.delta(z1)), np.log(e), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_sup_high_deriv_resolution_guard(mild_profile):
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    sol = solve_w(g, np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1)))
    with pytest.raises(ValueError):
        sup_high_deriv(sol, 20, 0.4)
    assert sup_high_deriv(sol, 2, 0.4) == 0.0


def test_windowed_second_derivative_slope(cache):
    # remainder flow for the level-2 residual: windowed |grad^2 w| decays no
    # worse than delta^{l+1-m} = delta^0 with l = m-1 = 0 (tolerance 0.5)
    h = cache.get("sym-quadratic", 1e-2, 1, 2, green=True)
    p = cache.profile("sym-quadratic", 1e-2)
    g = NeckGrid(p, r=0.75, n1=385, n2=64)
    sol = solve_fields(g, h.residual(2))
    z1 = np.linspace(0.15, 0.45, 9)
    sups = []
    for z in z1:
        w = p.delta(z) / 2
        sups.append(sup_high_deriv(sol, 2, span=(z - w, z + w)))
    slope = np.polyfit(np.log(p.delta(z1)), np.log(sups), 1)[0]
    assert slope >= 0.0 - 0.5


def test_export_csv(tmp_path, mild_profile, manufactured):
    w, q, f = manufactured
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    sol = solve_fields(g, f)
    path = tmp_path / "cloud.csv"
    export_csv(sol, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "x1,x2,w1,w2,q"
    assert len(text) == 1 + g.n1 * g.n2


def test_solve_fields_samples_at_the_grid_eps():
    # fields built at eps=1e-2 and solved on an eps=1e-3 grid are the
    # eps=1e-3 build there; sampled at their own profile's eps instead, the
    # forcing moved u by 4.3e-4 (max |u| 2.7e-3)
    p = named_profile("sym-quadratic", eps=1e-3)
    g = NeckGrid(p, r=0.75, n1=65, n2=32)
    sols = []
    for h in (build_symmetric_green(named_profile("sym-quadratic", eps=1e-2), 2),
              build_symmetric_green(p, 2)):
        sols += [solve_fields(g, h.residual(2)), solve_fields(g, h.residual(2), h.level(1).v)]
    for a, b in ((sols[0], sols[2]), (sols[1], sols[3])):
        for name in ("u_pad", "v_pad", "p"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
