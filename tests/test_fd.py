import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from neckflow import coeffs as ca
from neckflow import fd
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


def _reference_matrix(g):
    """The saddle-point matrix built as the solver once built it, from sparse
    kron, diagonal and selection products, then one COO assembly."""
    def diff(n, h):
        return sp.diags([-np.ones(n - 1) / h, np.ones(n - 1) / h], [0, 1], shape=(n - 1, n))

    def avg(n):
        return sp.diags([0.5 * np.ones(n - 1)] * 2, [0, 1], shape=(n - 1, n))

    def sel(n, rows):
        return sp.eye(n, format="csr")[rows]

    def dia(arr, shape=None):
        return sp.diags(np.broadcast_to(arr, shape or np.shape(arr)).ravel())

    I, kron = sp.eye, sp.kron
    n1, n2, dx, dt, mu = g.n1, g.n2, g.dx, g.dt, g.profile.mu
    gx_u, gt_u = kron(diff(n1 + 1, dx), I(n2 + 2)), kron(I(n1 + 1), diff(n2 + 2, dt))
    gx_v, gt_v = kron(diff(n1 + 2, dx), I(n2 + 1)), kron(I(n1 + 2), diff(n2 + 1, dt))
    K11c, K12c, K22c = g.K(g.xc, g.tc)
    K11k, K12k, K22k = g.K(g.xf, g.tf)
    d_f, d_c = g.profile.delta(g.xf)[:, None], g.profile.delta(g.xc)[:, None]
    fx_u = (dia(K11c) @ kron(I(n1), sel(n2 + 2, range(1, n2 + 1))) @ gx_u
            + dia(K12c) @ kron(avg(n1 + 1), avg(n2 + 1)) @ gt_u)
    ft_u = (dia(K22k[1:-1]) @ kron(sel(n1 + 1, range(1, n1)), I(n2 + 1)) @ gt_u
            + dia(K12k[1:-1]) @ kron(avg(n1), avg(n2 + 2)) @ gx_u)
    lap_u = dia(1.0 / d_f[1:-1], (n1 - 1, n2)) @ (
        kron(diff(n1, dx), I(n2)) @ fx_u + kron(I(n1 - 1), diff(n2 + 1, dt)) @ ft_u)
    ft_v = (dia(K22c) @ kron(sel(n1 + 2, range(1, n1 + 1)), I(n2)) @ gt_v
            + dia(K12c) @ kron(avg(n1 + 1), avg(n2 + 1)) @ gx_v)
    fx_v = (dia(K11k[:, 1:-1]) @ kron(I(n1 + 1), sel(n2 + 1, range(1, n2))) @ gx_v
            + dia(K12k[:, 1:-1]) @ kron(avg(n1 + 2), avg(n2)) @ gt_v)
    lap_v = dia(1.0 / d_c, (n1, n2 - 1)) @ (
        kron(diff(n1 + 1, dx), I(n2 - 1)) @ fx_v + kron(I(n1), diff(n2, dt)) @ ft_v)
    avg_t = avg(n2 + 2).tolil()
    avg_t[0], avg_t[-1] = 0.0, 0.0
    dtv = kron(I(n1), diff(n2 + 1, dt))
    div_u = (kron(diff(n1 + 1, dx), I(n2)) @ dia(d_f, (n1 + 1, n2))
             @ kron(I(n1 + 1), sel(n2 + 2, range(1, n2 + 1)))
             + dtv @ (dia(d_c * g.a_of(g.xc, g.tf)) @ kron(avg(n1 + 1), avg_t.tocsr())))
    div_v = dtv @ kron(sel(n1 + 2, range(1, n1 + 1)), I(n2 + 1))
    D = dia(1.0 / d_c, (n1, n2)) @ sp.hstack([div_u, div_v])
    w = dx * dt
    vol = np.concatenate([np.broadcast_to(d_f * w, (n1 + 1, n2 + 2)).ravel(),
                          np.pad(np.broadcast_to(d_c * w, (n1, n2 + 1)),
                                 ((1, 1), (0, 0)), mode="edge").ravel()])
    G = (-dia(1.0 / vol) @ D.T @ dia(d_c * w, (n1, n2))).tocsr()

    n_u, n_v = (n1 + 1) * (n2 + 2), (n1 + 2) * (n2 + 1)
    iu = np.arange(n_u).reshape(n1 + 1, n2 + 2)
    iv = n_u + np.arange(n_v).reshape(n1 + 2, n2 + 1)
    int_u, int_v = iu[1:-1, 1:-1].ravel(), iv[1:-1, 1:-1].ravel()
    pin = (n1 // 2) * n2 + n2 // 2
    keep = np.arange(n1 * n2) != pin
    bnd = np.concatenate([iu[[0, -1], 1:-1].ravel(), iu[:, [0, -1]].ravel(),
                          iv[1:-1, [0, -1]].ravel(), iv[[0, -1]].ravel()])
    ghost = np.concatenate([iu[:, [0, -1]].ravel(), iv[[0, -1]].T.ravel()])
    first = np.concatenate([iu[:, [1, -2]].ravel(), iv[[1, -2]].T.ravel()])
    pieces = [(int_u, -mu * lap_u, 0), (int_u, G[int_u], n_u + n_v),
              (int_v, -mu * lap_v, n_u), (int_v, G[int_v], n_u + n_v),
              (n_u + n_v + np.flatnonzero(keep), D.tocsr()[keep], 0)]
    rows = [r[m.tocoo().row] for r, m, _ in pieces] + [bnd, ghost, [n_u + n_v + pin]]
    cols = [m.tocoo().col + off for _, m, off in pieces] + [bnd, first, [n_u + n_v + pin]]
    vals = [m.tocoo().data for _, m, _ in pieces] + [np.ones(bnd.size), np.ones(ghost.size), [1.0]]
    pos = g.unknown_positions()
    return sp.csc_matrix((np.concatenate(vals), (pos[np.concatenate(rows)],
                                                 pos[np.concatenate(cols)])),
                         shape=(pos.size, pos.size))


def test_grid_validation(mild_profile):
    with pytest.raises(ValueError):
        NeckGrid(mild_profile, r=0.6, n1=64, n2=16)  # gap under-resolved
    with pytest.raises(ValueError):
        NeckGrid(mild_profile, r=1.5, n1=64, n2=32)  # beyond the chart
    with pytest.raises(ValueError):
        NeckGrid(mild_profile, r=0.6, n1=0, n2=32)  # no cell across the gap
    # a negative r solved on a mirrored grid, r=0 divided by zero, a NaN r
    # reached a singular factorization, and n1=2.5 failed inside numpy
    for bad in ({"r": -0.3}, {"r": 0.0}, {"r": np.nan}, {"r": np.inf},
                {"n1": 2.5}, {"n2": 32.0}):
        with pytest.raises(ValueError):
            NeckGrid(mild_profile, **{"r": 0.6, "n1": 32, "n2": 32, **bad})


@pytest.mark.parametrize("eps, n1, match", [(None, 32, "wall shape"), (1e-2, True, "integers")],
                         ids=["wall-shape", "bool-n1"])
def test_a_grid_needs_an_eps_and_integer_sizes(eps, n1, match):
    # a wall shape failed only at the first solve, inside assembly, asking
    # for an eps a grid cannot pass; n1=True made a one-cell grid
    with pytest.raises(ValueError, match=match):
        NeckGrid(named_profile("sym-quadratic", eps), r=0.3, n1=n1, n2=32)


@pytest.mark.parametrize("name, eps, n1, n2", [("sym-quadratic", 0.05, 48, 32),
                                               ("asym-quadratic", 1e-4, 33, 32),
                                               ("sym-quadratic", 0.05, 65, 32)])
def test_assembly_matches_the_kron_reference(name, eps, n1, n2):
    # the stencil-array assembly stores exactly the reference's entries, with
    # values within 4 ulp of their row's largest entry
    g = NeckGrid(named_profile(name, eps=eps), r=0.6, n1=n1, n2=n2)
    want = _reference_matrix(g).tocsr()
    got = g.solver()[1][0].tocsr()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    row_max = np.maximum.reduceat(np.abs(want.data), want.indptr[:-1])
    ulp = np.repeat(np.spacing(row_max), np.diff(want.indptr))
    assert np.all(np.abs(got.data - want.data) <= 4 * ulp)


def _vertical_separators(n1, n2):
    """(column, rows) of every vertical separator of the cell dissection:
    a block of b1 x b2 cells is cut through its middle cell line, across x
    when 3 b1 >= 2 b2 and b1 >= 3, else across t when b2 >= 3, until
    neither side has 3 cells."""
    out = []

    def visit(i0, i1, j0, j1):
        b1, b2 = i1 - i0, j1 - j0
        if b1 >= 3 and 3 * b1 >= 2 * b2:
            m = i0 + b1 // 2
            visit(i0, m, j0, j1)
            visit(m + 1, i1, j0, j1)
            out.append((m, np.arange(j0, j1)))
        elif b2 >= 3:
            m = j0 + b2 // 2
            visit(i0, i1, j0, m)
            visit(i0, i1, m + 1, j1)

    visit(0, n1, 0, n2)
    return out


_ORDER_GRIDS = [(33, 32), (257, 64), (5, 32), (17, 32), (100, 37), (64, 128)]


@pytest.mark.parametrize("n1, n2", _ORDER_GRIDS)
def test_unknown_order_puts_each_pressure_after_a_u_face(mild_profile, n1, n2):
    # the pressure block of the saddle system is zero; a pressure eliminated
    # after one of its cell's u faces has a filled-in pivot, which is why the
    # factorization may keep every diagonal pivot.  A vertical separator
    # keeps one pressure, its bottom cell's (the anchor); each other one
    # comes right after its east neighbour's pressure, past that cell's west
    # u face, and every pressure off a vertical separator follows its own
    # cell's west u and south v faces.  5x32 and 100x37 have right halves
    # two cells wide.
    pos = NeckGrid(mild_profile, r=0.6, n1=n1, n2=n2).unknown_positions()
    n_u, n_v, n_p = (n1 + 1) * (n2 + 2), (n1 + 2) * (n2 + 1), n1 * n2
    assert np.array_equal(np.sort(pos), np.arange(n_u + n_v + n_p))
    ci, cj = np.indices((n1, n2))
    p_pos = pos[n_u + n_v + ci * n2 + cj]
    west = pos[ci * (n2 + 2) + cj + 1]
    east = pos[(ci + 1) * (n2 + 2) + cj + 1]
    south = pos[n_u + (ci + 1) * (n2 + 1) + cj]
    assert np.all((p_pos > west) | (p_pos > east))
    moved = np.zeros((n1, n2), dtype=bool)
    seps = _vertical_separators(n1, n2)
    assert seps
    for m, rows in seps:
        kept = p_pos[m, rows] > west[m, rows]
        assert np.array_equal(np.flatnonzero(kept), [0]), (m, rows[0])
        moved[m, rows[1:]] = True
        assert np.array_equal(p_pos[m, rows[1:]], p_pos[m + 1, rows[1:]] + 1)
    assert np.all(p_pos[~moved] > west[~moved])
    assert np.all(p_pos[~moved] > south[~moved])


def test_lu_fill_and_diagonal_pivots(mild_profile):
    # dissected down to 2 x 2 blocks across the cheaper separator, about 1.30
    # million (1.40 with 16-cell leaves cut across the longer side, 1.68
    # with full vertical separators too)
    g = NeckGrid(mild_profile, r=0.6, n1=64, n2=64)
    lu, _ = g.solver()
    assert lu.L.nnz + lu.U.nnz <= 1_350_000
    grids = [g] + [NeckGrid(named_profile(name, eps=eps), r=0.6, n1=n1, n2=n2)
                   for name, eps, n1, n2 in [("asym-quadratic", 1e-4, 64, 64),
                                             ("asym-quadratic", 1e-4, 33, 32),
                                             ("sym-quadratic", 3e-3, 4, 32),
                                             ("sym-quadratic", 0.05, 5, 32),
                                             ("asym-quadratic", 1e-4, 17, 32),
                                             ("asym-quadratic", 1e-4, 100, 37),
                                             ("sym-quadratic", 3e-3, 64, 128)]]
    for grid in grids:
        n1, n2 = grid.n1, grid.n2
        case = (grid.profile.name, grid.profile.eps, n1, n2)
        sol = solve_w(grid, np.ones((n1 - 1, n2)), np.ones((n1, n2 - 1)))
        assert sol.residual_rel < 1e-10, case
        assert sol.div_max < 1e-10, case
        lu, _ = grid.solver()
        assert np.array_equal(lu.perm_r, lu.perm_c), case  # no row swaps


def test_small_shapes_keep_their_order_and_diagonal_pivots():
    # every narrow grid, where the dissection reaches its 2 x 2 blocks and
    # its one- and two-cell halves soonest
    p = named_profile("asym-quadratic", eps=1e-4)
    for n1 in range(1, 26):
        for n2 in (32, 33, 35, 37):
            g = NeckGrid(p, r=0.6, n1=n1, n2=n2)
            n = (n1 + 1) * (n2 + 2) + (n1 + 2) * (n2 + 1) + n1 * n2
            assert np.array_equal(np.sort(g.unknown_positions()), np.arange(n)), (n1, n2)
            sol = solve_w(g, np.ones((n1 - 1, n2)), np.ones((n1, n2 - 1)))
            assert sol.residual_rel < 1e-10, (n1, n2)
            assert sol.div_max < 1e-10, (n1, n2)
            lu, _ = g.solver()
            assert np.array_equal(lu.perm_r, lu.perm_c), (n1, n2)


def test_the_refinement_pass_corrects_little_and_converges():
    """The growth guard on the diagonal-pivot order: with no numeric
    pivoting, the first solve's accuracy depends on the elimination order
    alone, and solve_w's one refinement pass carries the rest.  This is the
    bound a later ordering change must meet: the pass corrects at most a
    tenth of the solution (about 1.4e-2 with the thin-separator order), and
    what solve_w returns is within 1e-5 of four passes (about 1.6e-6).  Its
    normwise backward error ||r||_inf / (||A||_inf ||s||_inf + ||b||_inf) is
    at round-off (about 9.7e-16), although ||A||_inf is 4.1e11 here."""
    g = NeckGrid(named_profile("asym-quadratic", eps=1e-4), r=0.6, n1=129, n2=32)
    n1, n2 = g.n1, g.n2
    sol = solve_w(g, np.zeros((n1 - 1, n2)), np.zeros((n1, n2 - 1)),
                  bc=lambda x, x2: (np.zeros_like(x), np.ones_like(x)))
    # solve_w's right-hand side for data (0, 1) and no forcing
    lu, (A, iu, iv, ip, _, (rows, _, _, comp, weight), vol_c, _) = g.solver()
    b = np.zeros(A.shape[0])
    b[rows] = weight * (comp == 1)
    first = lu.solve(b)
    step = lu.solve(b - A @ first)
    s = first + step
    assert sol.correction_rel == np.abs(step).max() / np.abs(s).max()
    assert sol.correction_rel <= 1e-1
    a_inf = np.abs(A).sum(axis=1).max()
    want = np.abs(A @ s - b).max() / (a_inf * np.abs(s).max() + np.abs(b).max())
    assert sol.backward_err == pytest.approx(want, rel=1e-12)
    assert sol.backward_err <= 1e-14
    ref = s.copy()
    for _ in range(3):
        ref += lu.solve(b - A @ ref)
    p = ref[ip] - np.sum(ref[ip] * vol_c) / np.sum(vol_c)
    want = np.concatenate([ref[iu].ravel(), ref[iv].ravel(), p.ravel()])
    got = np.concatenate([sol.u_pad.ravel(), sol.v_pad.ravel(), sol.p.ravel()])
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


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


def test_a_matrix_with_entries_that_are_not_finite_is_rejected():
    # at eps=1e-200 the metric terms overflow; the matrix went to SuperLU
    # with infinite entries, which stopped only as it called it singular
    g = NeckGrid(named_profile("sym-quadratic", eps=1e-200), r=0.6, n1=33, n2=32)
    with pytest.raises(ValueError, match="entries must be finite"):
        g.solver()


def test_nonfinite_boundary_data_rejected(mild_profile):
    # a NaN boundary datum used to come back as a solution with 995 NaN
    # entries and residual_rel = nan
    g = NeckGrid(mild_profile, r=0.6, n1=32, n2=32)

    def bc(x1, x2):
        w1 = np.zeros_like(x1)
        w1[0] = np.nan  # u at the west side
        return w1, np.zeros_like(x1)

    with pytest.raises(ValueError, match="boundary data must be finite"):
        solve_w(g, np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1)), bc=bc)


def test_full_node_forcing_shapes_rejected(mild_profile):
    # forcing is sampled at the interior u/v nodes only; arrays that also
    # carry the boundary nodes are refused, not silently cut down
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    f1, f2 = np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1))
    with pytest.raises(ValueError, match="f1"):
        solve_w(g, np.zeros((g.n1 + 1, g.n2)), f2)
    with pytest.raises(ValueError, match="f2"):
        solve_w(g, f1, np.zeros((g.n1, g.n2 + 1)))


def test_a_rejected_forcing_is_not_factored_first(mild_profile):
    # the forcing's shape and finiteness are checked before the grid is
    # assembled and factored: a rejected forcing used to pay for both first
    # (0.38 s at 257x64)
    g = NeckGrid(mild_profile, r=0.6, n1=48, n2=32)
    f1, f2 = np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1))
    with pytest.raises(ValueError, match="f1"):
        solve_w(g, np.zeros((g.n1 + 1, g.n2)), f2)
    f1[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_w(g, f1, f2)
    assert g._lu is None


def _forcing(g, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((g.n1 - 1, g.n2)), rng.standard_normal((g.n1, g.n2 - 1))


def _bytes(*values):
    return b"".join(np.asarray(x).tobytes() for x in values)


def _solution_bytes(sol):
    return _bytes(sol.u_pad, sol.v_pad, sol.p, sol.residual_rel, sol.div_max,
                  sol.correction_rel, sol.backward_err)


@pytest.fixture()
def splu_calls(monkeypatch):
    """The matrices factored from here on, by every grid."""
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, *a, **k: calls.append(A) or splu(A, *a, **k))
    return calls


def test_only_the_last_grid_factored_keeps_its_factors(mild_profile, manufactured):
    # a grid kept its LU as long as it, or a solution on it, was referenced,
    # so a caller holding earlier grids paid for every factorization at once
    w, _q, f = manufactured
    g1 = NeckGrid(mild_profile, r=0.6, n1=32, n2=32)
    sol = solve_fields(g1, f, bc_field=w)

    def post():
        return _bytes(sup_grad(sol, 0.3), global_energy(sol), *sol.cell_velocity())

    before = post()
    g2 = NeckGrid(mild_profile, r=0.6, n1=33, n2=32)
    g2.solver()
    assert g1._lu is None and g1._parts is None
    assert g2._lu is not None and g2._parts is not None
    assert post() == before  # a solution reads only its grid's geometry


def test_a_grid_solved_again_is_factored_again_bit_for_bit(mild_profile, splu_calls):
    g1 = NeckGrid(mild_profile, r=0.6, n1=40, n2=32)
    f1, f2 = _forcing(g1)
    first = _solution_bytes(solve_w(g1, f1, f2))
    nnz = g1._lu.nnz
    NeckGrid(mild_profile, r=0.6, n1=41, n2=32).solver()
    assert _solution_bytes(solve_w(g1, f1, f2)) == first
    assert len(splu_calls) == 3  # g1, the other grid, then g1 once more
    assert g1._lu.nnz == nnz


def test_repeated_solves_on_one_grid_factor_it_once(mild_profile, splu_calls):
    g = NeckGrid(mild_profile, r=0.6, n1=40, n2=32)
    for seed in range(3):
        solve_w(g, *_forcing(g, seed))
    assert len(splu_calls) == 1


def test_a_forcing_rejected_on_another_grid_drops_no_factors(mild_profile):
    g1 = NeckGrid(mild_profile, r=0.6, n1=40, n2=32)
    g1.solver()
    lu = g1._lu
    g2 = NeckGrid(mild_profile, r=0.6, n1=41, n2=32)
    f1, f2 = _forcing(g2)
    with pytest.raises(ValueError, match="f1"):
        solve_w(g2, np.zeros((g2.n1, g2.n2)), f2)
    f1[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_w(g2, f1, f2)
    assert g1._lu is lu
    assert g2._lu is None


def test_a_failed_factorization_leaves_later_solves_working(mild_profile):
    g1 = NeckGrid(mild_profile, r=0.6, n1=40, n2=32)
    f1, f2 = _forcing(g1)
    first = _solution_bytes(solve_w(g1, f1, f2))
    bad = NeckGrid(named_profile("sym-quadratic", eps=1e-200), r=0.6, n1=33, n2=32)
    with pytest.raises(ValueError, match="entries must be finite"):
        bad.solver()
    assert bad._lu is None and bad._parts is None
    assert _solution_bytes(solve_w(g1, f1, f2)) == first
    g3 = NeckGrid(mild_profile, r=0.6, n1=33, n2=32)
    sol = solve_w(g3, *_forcing(g3))
    assert sol.residual_rel < 1e-10
    assert g1._lu is None


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
                           np.zeros((g.n1, g.n2)), 0.0, 0.0, 0.0, 0.0)
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
    sol = DiscreteSolution(g, up, vp, np.zeros((g.n1, g.n2)), 0.0, 0.0, 0.0, 0.0)
    assert sup_grad(sol, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_local_energy_window_checks(mild_profile):
    g = NeckGrid(mild_profile, r=0.6, n1=64, n2=32)
    sol = solve_w(g, np.zeros((g.n1 - 1, g.n2)), np.zeros((g.n1, g.n2 - 1)))
    assert local_energy(sol, 0.2) == 0.0
    with pytest.raises(ValueError):
        local_energy(sol, 0.58)


def test_energy_of_a_window_without_cells_is_an_error():
    # at eps=1e-4 the slab |x1| < delta(0) = 1e-4 holds no cell center of a
    # 64-cell row over [-0.6, 0.6]; local_energy used to read 0.0 there for a
    # flow whose global energy is 3.2e-9
    p = named_profile("sym-quadratic", eps=1e-4)
    g = NeckGrid(p, r=0.6, n1=64, n2=32)
    sol = solve_w(g, np.ones((g.n1 - 1, g.n2)), np.ones((g.n1, g.n2 - 1)))
    assert global_energy(sol) > 0.0
    with pytest.raises(ValueError, match=r"\|x1 - 0\| < 0.0001"):
        local_energy(sol, 0.0)
    with pytest.raises(ValueError, match=r"\|x1\| <= 0.001"):
        global_energy(sol, r=1e-3)


def test_synthetic_local_energy_slope(mild_profile):
    # w1 = (t^2 - 1/4) * delta(x): |grad w| ~ O(1), window volume ~ delta^2
    p = mild_profile
    g = NeckGrid(p, r=0.6, n1=256, n2=64)
    tp = np.concatenate([[g.tc[0] - g.dt], g.tc, [g.tc[-1] + g.dt]])
    up = (tp**2 - 0.25)[None, :] * p.delta(g.xf)[:, None]
    sol = DiscreteSolution(g, up, np.zeros((g.n1 + 2, g.n2 + 1)),
                           np.zeros((g.n1, g.n2)), 0.0, 0.0, 0.0, 0.0)
    z1 = np.linspace(0.05, 0.3, 11)
    e = np.array([local_energy(sol, z) for z in z1])
    slope = np.polyfit(np.log(p.delta(z1)), np.log(e), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


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


def test_solve_fields_samples_both_components_in_one_walk(monkeypatch):
    # the forcing's two components share one coefficient walk, and their
    # samples are bit for bit those of two separate evaluations
    p = named_profile("sym-quadratic", eps=3e-3)
    g = NeckGrid(p, r=0.75, n1=65, n2=32)
    f = build_symmetric_green(p, 2).residual(2)
    walks, solved = [], []
    eval_many = ca.eval_many
    monkeypatch.setattr(ca, "eval_many", lambda *a: walks.append(a) or eval_many(*a))
    monkeypatch.setattr(fd, "solve_w", lambda grid, f1, f2, bc: solved.append((f1, f2)))
    solve_fields(g, f)
    monkeypatch.undo()
    assert len(walks) == 1
    xf = g.xf[1:-1]
    want = (f.u1.eval(xf, g.x2_of(xf[:, None], g.tc[None, :]), p.eps),
            f.u2.eval(g.xc, g.x2_of(g.xc[:, None], g.tf[None, 1:-1]), p.eps))
    for got, w in zip(solved[0], want):
        assert got.shape == w.shape and got.tobytes() == w.tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs per-thread CPU times")
def test_solves_wake_no_other_thread(src_env):
    # np.linalg.norm's BLAS dot product on the ~25k unknowns woke OpenBLAS's
    # worker threads, which then spun: 0.08-0.23 s of their CPU over these
    # 8 solves on a 2-core host.  Summed over every thread but the main one.
    code = (
        "import glob, os\n"
        "import numpy as np\n"
        "from neckflow.fd import NeckGrid, solve_w\n"
        "from neckflow.geometry import named_profile\n"
        "def others():\n"
        "    ticks = 0\n"
        "    for path in glob.glob('/proc/self/task/*/stat'):\n"
        "        if path.split('/')[-2] != str(os.getpid()):\n"
        "            with open(path) as fh:\n"
        "                fields = fh.read().rsplit(')', 1)[1].split()\n"
        "            ticks += int(fields[11]) + int(fields[12])  # utime + stime\n"
        "    return ticks / os.sysconf('SC_CLK_TCK')\n"
        "g = NeckGrid(named_profile('asym-quadratic', eps=0.05), r=0.6, n1=128, n2=64)\n"
        "g.solver()\n"
        "rng = np.random.default_rng(0)\n"
        "before = others()\n"
        "for _ in range(8):\n"
        "    solve_w(g, rng.standard_normal((127, 64)), rng.standard_normal((128, 63)))\n"
        "print(others() - before)\n"
    )
    env = dict(src_env, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env, check=True)
    assert float(out.stdout) <= 0.02
