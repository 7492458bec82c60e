"""Reference staggered-grid Stokes solver on the mapped neck rectangle.

The neck is charted by (x, t) with t the normalized vertical coordinate, so
the physical gap becomes the rectangle [-r, r] x [-1/2, 1/2] and the walls are
exact grid lines.  Velocities stay in physical components; the metric enters
through the map's Jacobian delta(x) and the slope a(x,t) = dk/dx1:

    d/dx1 = d/dx + a d/dt,   d/dx2 = (1/delta) d/dt,
    delta * Lap = d/dx(K11 d/dx + K12 d/dt) + d/dt(K12 d/dx + K22 d/dt),
    K11 = delta, K12 = delta*a, K22 = delta*a^2 + 1/delta.

Layout is MAC: u at x-faces, v at t-faces, p at cell centers.  Walls carry v
exactly and reach u through linear ghost extrapolation; side boundaries
mirror this.  The discrete pressure gradient is the negative volume-weighted
adjoint of the discrete divergence, which pins the saddle structure down to
one gauge cell, fixed by a single pressure pin.  One sparse LU per grid
serves any number of right-hand sides.

The LU eliminates the unknowns in cell blocks (a cell's west u face, its
south v face, then its pressure) with the cells in nested-dissection order
(A. George, SIAM J. Numer. Anal. 10, 1973), which about halves the fill of a
fill-reducing column order with partial pivoting.  The pressure block is
zero, but each pressure is reached after its own faces have filled in its
pivot, and no eliminated region is left with a free pressure constant, so
the factorization keeps the diagonal pivots of this order and does no
numeric pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import coeffs as ca
from .fields import PolyField, VectorField2, eval_fields, keller_plus_half
from .geometry import NeckProfile

__all__ = [
    "NeckGrid",
    "DiscreteSolution",
    "solve_w",
    "solve_fields",
    "global_energy",
    "local_energy",
    "sup_grad",
    "sup_high_deriv",
    "manufactured_solution",
    "export_csv",
]


def _diff(n: int) -> sp.csr_matrix:
    return sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n)).tocsr()


def _avg2(n: int) -> sp.csr_matrix:
    return sp.diags([0.5 * np.ones(n - 1), 0.5 * np.ones(n - 1)], [0, 1],
                    shape=(n - 1, n)).tocsr()


def _sel(n: int, rows) -> sp.csr_matrix:
    return sp.eye(n, format="csr")[rows]


def _dia(arr) -> sp.dia_matrix:
    return sp.diags(np.asarray(arr).ravel())


_LEAF_CELLS = 16


def _cell_ranks(n1: int, n2: int) -> np.ndarray:
    """Elimination rank of each cell of the n1 x n2 cell rectangle.

    Nested dissection: a rectangle is cut across its longer side by one cell
    line, the separator, ranked after both halves; rectangles of at most
    _LEAF_CELLS cells are ranked row by row.  Every stencil reaches one cell
    in each direction, so the halves never couple directly.  The corner cell
    (0, 0) goes last: it is the one cell whose west and south faces are both
    boundary faces, so any eliminated region holding it would couple to no
    pressure outside, leaving its pressure constant free and a zero pivot.
    """
    ids = np.arange(n1 * n2).reshape(n1, n2)
    order = []

    def visit(block):
        if block.size <= _LEAF_CELLS:
            order.append(block.ravel())
        elif block.shape[0] >= block.shape[1]:
            m = block.shape[0] // 2
            visit(block[:m])
            visit(block[m + 1:])
            order.append(block[m])
        else:
            m = block.shape[1] // 2
            visit(block[:, :m])
            visit(block[:, m + 1:])
            order.append(block[:, m])

    visit(ids)
    cells = np.concatenate(order)
    rank = np.empty(n1 * n2, dtype=np.intp)
    rank[cells[cells != 0]] = np.arange(n1 * n2 - 1)
    rank[0] = n1 * n2 - 1
    return rank.reshape(n1, n2)


@dataclass
class NeckGrid:
    """Mapped MAC grid with metric coefficients from the exact profile."""

    profile: NeckProfile
    r: float
    n1: int = 257
    n2: int = 64

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError("n1 must be at least 1")
        if self.n2 < 32:
            raise ValueError("n2 must be at least 32 to resolve the gap")
        if self.r > 2 * self.profile.R:
            raise ValueError("grid exceeds the neck chart")
        p = self.profile
        self.dx = 2 * self.r / self.n1
        self.dt = 1.0 / self.n2
        self.xf = np.linspace(-self.r, self.r, self.n1 + 1)
        self.xc = 0.5 * (self.xf[:-1] + self.xf[1:])
        self.tf = np.linspace(-0.5, 0.5, self.n2 + 1)
        self.tc = 0.5 * (self.tf[:-1] + self.tf[1:])
        dh1, dh2 = p.h1.deriv(), p.h2.deriv()
        self._delta = p.delta
        self._c = lambda x: 0.5 * (p.h1(x) - p.h2(x))
        self._ddelta = lambda x: dh1(x) + dh2(x)
        self._dc = lambda x: 0.5 * (dh1(x) - dh2(x))
        self._lu = None

    def x2_of(self, x, t):
        """Physical height of the mapped point (x, t)."""
        return t * self._delta(x) + self._c(x)

    def a_of(self, x, t):
        """dk/dx1 on the mapped grid: -(c'(x) + delta'(x) t)/delta(x)."""
        x = np.asarray(x, dtype=float)[:, None]
        t = np.asarray(t, dtype=float)[None, :]
        return -(self._dc(x) + self._ddelta(x) * t) / self._delta(x)

    def K(self, x, t):
        """Metric diffusion tensor entries (K11, K12, K22) on x (cols t)."""
        x = np.asarray(x, dtype=float)
        d = self._delta(x)[:, None]
        a = self.a_of(x, t)
        return np.broadcast_to(d, a.shape), d * a, d * a * a + 1.0 / d

    def unknown_order(self) -> np.ndarray:
        """Elimination order of the unknowns (u_pad, v_pad, p, raveled).

        Each unknown joins one cell block: the cell's west u face, its south
        v face, then its pressure; ghosts and last faces join the nearest
        edge cell.  The blocks follow _cell_ranks.
        """
        n1, n2 = self.n1, self.n2
        rank = _cell_ranks(n1, n2)
        i, j = np.indices((n1 + 1, n2 + 2))
        key_u = 3 * rank[np.minimum(i, n1 - 1), np.clip(j - 1, 0, n2 - 1)]
        i, j = np.indices((n1 + 2, n2 + 1))
        key_v = 3 * rank[np.clip(i - 1, 0, n1 - 1), np.minimum(j, n2 - 1)] + 1
        key = np.concatenate([key_u.ravel(), key_v.ravel(), 3 * rank.ravel() + 2])
        return np.argsort(key, kind="stable")

    # -- operator assembly ------------------------------------------------

    def _operators(self):
        n1, n2 = self.n1, self.n2
        dx, dt = self.dx, self.dt
        I = sp.eye

        # u lives on padded (n1+1, n2+2); v on padded (n1+2, n2+1)
        gx_u = sp.kron(_diff(n1 + 1) / dx, I(n2 + 2))          # -> (n1, n2+2)
        gt_u = sp.kron(I(n1 + 1), _diff(n2 + 2) / dt)          # -> (n1+1, n2+1)
        gx_v = sp.kron(_diff(n1 + 2) / dx, I(n2 + 1))          # -> (n1+1, n2+1)
        gt_v = sp.kron(I(n1 + 2), _diff(n2 + 1) / dt)          # -> (n1+2, n2)

        K11c, K12c, K22c = self.K(self.xc, self.tc)
        K11k, K12k, K22k = self.K(self.xf, self.tf)

        # viscous operator for u at interior nodes (i=1..n1-1, all j)
        sel_tc = sp.kron(I(n1), _sel(n2 + 2, range(1, n2 + 1)))
        fx_u = (_dia(K11c) @ sel_tc @ gx_u
                + _dia(K12c) @ sp.kron(_avg2(n1 + 1), _avg2(n2 + 1)) @ gt_u)
        ft_u = (_dia(K22k[1:-1]) @ sp.kron(_sel(n1 + 1, range(1, n1)), I(n2 + 1)) @ gt_u
                + _dia(K12k[1:-1]) @ sp.kron(_avg2(n1), _avg2(n2 + 2)) @ gx_u)
        div_x = sp.kron(_diff(n1) / dx, I(n2))                 # cells -> interior u
        div_t = sp.kron(I(n1 - 1), _diff(n2 + 1) / dt)         # corners -> interior u
        lap_u = _dia(1.0 / np.broadcast_to(self._delta(self.xf[1:-1])[:, None],
                                           (n1 - 1, n2))) @ (div_x @ fx_u + div_t @ ft_u)

        # viscous operator for v at interior nodes (all i, j=1..n2-1)
        sel_xc = sp.kron(_sel(n1 + 2, range(1, n1 + 1)), I(n2))
        ft_v = (_dia(K22c) @ sel_xc @ gt_v
                + _dia(K12c) @ sp.kron(_avg2(n1 + 1), _avg2(n2 + 1)) @ gx_v)
        fx_v = (_dia(K11k[:, 1:-1]) @ sp.kron(I(n1 + 1), _sel(n2 + 1, range(1, n2))) @ gx_v
                + _dia(K12k[:, 1:-1]) @ sp.kron(_avg2(n1 + 2), _avg2(n2)) @ gt_v)
        div_x_v = sp.kron(_diff(n1 + 1) / dx, I(n2 - 1))       # corners -> interior v
        div_t_v = sp.kron(I(n1), _diff(n2) / dt)               # cells -> interior v
        lap_v = _dia(1.0 / np.broadcast_to(self._delta(self.xc)[:, None],
                                           (n1, n2 - 1))) @ (div_x_v @ fx_v + div_t_v @ ft_v)

        # divergence at cells: (1/delta)[d/dx(delta u) + d/dt(delta a ubar + v)].
        # The metric flux through the walls uses the wall data itself (moved to
        # the right-hand side), never ghost-averaged unknowns: this keeps the
        # transposed pressure gradient consistent up to the walls.
        sel_u = sp.kron(I(n1 + 1), _sel(n2 + 2, range(1, n2 + 1)))
        dxu = sp.kron(_diff(n1 + 1) / dx, I(n2)) @ _dia(
            np.broadcast_to(self._delta(self.xf)[:, None], (n1 + 1, n2))) @ sel_u
        da_v = self._delta(self.xc)[:, None] * self.a_of(self.xc, self.tf)
        avg_t = _avg2(n2 + 2).tolil()
        avg_t[0] = 0.0
        avg_t[-1] = 0.0
        phi_u = _dia(da_v) @ sp.kron(_avg2(n1 + 1), avg_t.tocsr())
        sel_v = sp.kron(_sel(n1 + 2, range(1, n1 + 1)), I(n2 + 1))
        dtv = sp.kron(I(n1), _diff(n2 + 1) / dt)
        inv_dc = _dia(1.0 / np.broadcast_to(self._delta(self.xc)[:, None], (n1, n2)))
        div_u = inv_dc @ (dxu + dtv @ phi_u)
        div_v = inv_dc @ (dtv @ sel_v)
        return lap_u, lap_v, div_u, div_v

    def _volumes(self):
        n1, n2 = self.n1, self.n2
        w = self.dx * self.dt
        vol_u = np.zeros((n1 + 1, n2 + 2))
        vol_u[:, 1:-1] = self._delta(self.xf)[:, None] * w
        vol_u[:, 0] = vol_u[:, 1]
        vol_u[:, -1] = vol_u[:, -2]
        vol_v = np.zeros((n1 + 2, n2 + 1))
        vol_v[1:-1] = self._delta(self.xc)[:, None] * w
        vol_v[0] = vol_v[1]
        vol_v[-1] = vol_v[-2]
        vol_c = self._delta(self.xc)[:, None] * np.ones((n1, n2)) * w
        return vol_u, vol_v, vol_c

    def _assemble(self):
        n1, n2 = self.n1, self.n2
        mu = self.profile.mu
        lap_u, lap_v, div_u, div_v = self._operators()
        vol_u, vol_v, vol_c = self._volumes()
        n_u = (n1 + 1) * (n2 + 2)
        n_v = (n1 + 2) * (n2 + 1)
        n_p = n1 * n2
        D = sp.hstack([div_u, div_v]).tocsr()
        G = (-_dia(1.0 / np.concatenate([vol_u.ravel(), vol_v.ravel()]))
             @ D.T @ _dia(vol_c)).tocsr()
        G_u, G_v = G[:n_u], G[n_u:]

        rows_a, cols_a, vals_a = [], [], []

        def add_block(row_ids, mat, col_off):
            mat = mat.tocoo()
            rows_a.append(row_ids[mat.row])
            cols_a.append(mat.col + col_off)
            vals_a.append(mat.data)

        # momentum u at interior nodes
        iu = np.arange(n_u).reshape(n1 + 1, n2 + 2)
        int_u = iu[1:-1, 1:-1].ravel()
        add_block(int_u, -mu * lap_u, 0)
        add_block(int_u, G_u.tocsr()[int_u], n_u + n_v)

        # momentum v at interior nodes
        iv = n_u + np.arange(n_v).reshape(n1 + 2, n2 + 1)
        int_v = iv[1:-1, 1:-1].ravel()
        add_block(int_v, -mu * lap_v, n_u)
        add_block(int_v, G_v.tocsr()[int_v - n_u], n_u + n_v)

        # boundary rows as one table: row, mapped sample point (x, t), data
        # component and weight.  Dirichlet rows (weight 1) take the data;
        # ghost rows pair with their first interior node, ghost + first =
        # 2 * wall value (weight 2); the first and last cell rows take the
        # wall metric flux delta*a*w1 / (delta*dt) of the tangential data
        # (the pin is interior, as n2 >= 32).
        ends_x, ends_t = self.xf[[0, -1]], self.tf[[0, -1]]
        flux = self.a_of(self.xc, ends_t) * np.array([1.0, -1.0]) / self.dt
        ghost_u, ghost_v = iu[:, [0, -1]], iv[[0, -1]].T
        wall_cells = n_u + n_v + np.arange(n_p).reshape(n1, n2)[:, [0, -1]]
        table = (
            (iu[[0, -1], 1:-1], ends_x[:, None], self.tc, 0, 1.0),     # u at the sides
            (ghost_u, self.xf[:, None], ends_t, 0, 2.0),               # u ghosts, walls
            (iv[1:-1, [0, -1]], self.xc[:, None], ends_t, 1, 1.0),     # v at the walls
            (ghost_v, ends_x, self.tf[:, None], 1, 2.0),               # v ghosts, sides
            (wall_cells, self.xc[:, None], ends_t, 0, flux),           # wall fluxes
        )
        self._bc_rows = tuple(
            np.concatenate([np.broadcast_to(g[k], g[0].shape).ravel() for g in table])
            for k in range(5))
        bnd = np.concatenate([g[0].ravel() for g in table[:4]])
        ghost = np.concatenate([ghost_u.ravel(), ghost_v.ravel()])
        first = np.concatenate([iu[:, [1, -2]].ravel(), iv[[1, -2]].T.ravel()])
        rows_a += [bnd, ghost]
        cols_a += [bnd, first]
        vals_a += [np.ones(bnd.size), np.ones(ghost.size)]

        # continuity at cells, one interior cell pinned for the pressure gauge
        pin = (n1 // 2) * n2 + n2 // 2
        p_rows = np.arange(n_p) + n_u + n_v
        Dk = D.tocoo()
        keep = Dk.row != pin
        rows_a.append(p_rows[Dk.row[keep]])
        cols_a.append(Dk.col[keep])
        vals_a.append(Dk.data[keep])
        rows_a.append(np.array([n_u + n_v + pin]))
        cols_a.append(np.array([n_u + n_v + pin]))
        vals_a.append(np.array([1.0]))
        self._pin = pin

        # every pressure follows its own cell's velocity faces, so its pivot
        # has filled in when it is reached: diagonal pivots keep the order
        order = self.unknown_order()
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        A = sp.csc_matrix(
            (np.concatenate(vals_a),
             (pos[np.concatenate(rows_a)], pos[np.concatenate(cols_a)])),
            shape=(order.size, order.size),
        )
        self._parts = (A, order, int_u, int_v, D, vol_c)
        self._lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def solver(self):
        if self._lu is None:
            self._assemble()
        return self._lu, self._parts


@dataclass
class DiscreteSolution:
    grid: NeckGrid
    u_pad: np.ndarray        # (n1+1, n2+2): ghost rows encode the wall data
    v_pad: np.ndarray        # (n1+2, n2+1): ghost columns encode the side data
    p: np.ndarray            # (n1, n2) zero-mean
    residual_rel: float
    div_max: float

    @property
    def u(self):
        return self.u_pad[:, 1:-1]

    @property
    def v(self):
        return self.v_pad[1:-1]

    def cell_velocity(self):
        uc = 0.5 * (self.u[:-1] + self.u[1:])
        vc = 0.5 * (self.v[:, :-1] + self.v[:, 1:])
        return uc, vc


def solve_w(grid: NeckGrid, f1, f2, bc=None) -> DiscreteSolution:
    """Solve -mu Lap w + grad q = f, div w = 0 on the mapped neck.

    ``f1``/``f2`` are finite arrays sampled at the interior u/v nodes, of
    shapes (n1-1, n2) and (n1, n2-1) exactly; any other shape is a
    ValueError.  ``bc`` maps (x1, x2) -> (w1, w2) for the boundary data;
    omitted means homogeneous (the w-problem).  It is called once, with 1-D
    arrays holding every boundary and wall-flux point, and returns the two
    arrays of data values there.
    """
    lu, (A, order, int_u, int_v, D, vol_c) = grid.solver()
    n1, n2 = grid.n1, grid.n2
    n_u = (n1 + 1) * (n2 + 2)
    n_v = (n1 + 2) * (n2 + 1)
    b = np.zeros(A.shape[0])

    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != (n1 - 1, n2):
        raise ValueError(f"f1 must be (n1-1, n2), got {f1.shape}")
    if f2.shape != (n1, n2 - 1):
        raise ValueError(f"f2 must be (n1, n2-1), got {f2.shape}")
    if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
        raise ValueError("forcing samples must be finite")
    b[int_u] = f1.ravel()
    b[int_v] = f2.ravel()

    if bc is not None:
        rows, x, t, comp, weight = grid._bc_rows
        w1, w2 = bc(x, grid.x2_of(x, t))
        b[rows] = weight * np.where(comp == 0, w1, w2)

    bo = b[order]
    so = lu.solve(bo)
    so += lu.solve(bo - A @ so)  # one refinement pass tightens the residual
    scale = float(np.linalg.norm(b)) or 1.0
    residual_rel = float(np.linalg.norm(A @ so - bo)) / scale
    sol = np.empty_like(so)
    sol[order] = so

    u_pad = sol[:n_u].reshape(n1 + 1, n2 + 2)
    v_pad = sol[n_u:n_u + n_v].reshape(n1 + 2, n2 + 1)
    p = sol[n_u + n_v:].reshape(n1, n2)
    p = p - float(np.sum(p * vol_c) / np.sum(vol_c))
    div = D @ sol[:n_u + n_v] - b[n_u + n_v:]
    div[grid._pin] = 0.0  # gauge cell carries no continuity equation
    return DiscreteSolution(grid, u_pad, v_pad, p,
                            residual_rel, float(np.max(np.abs(div))))


def solve_fields(grid: NeckGrid, f: VectorField2,
                 bc_field: VectorField2 | None = None) -> DiscreteSolution:
    """Sample an exact forcing field (and optional boundary field) at the
    grid's eps and solve."""
    eps = grid.profile.eps
    xf_i = grid.xf[1:-1]
    f1 = f.u1.eval(xf_i, grid.x2_of(xf_i[:, None], grid.tc[None, :]), eps)
    f2 = f.u2.eval(grid.xc, grid.x2_of(grid.xc[:, None], grid.tf[None, 1:-1]), eps)
    bc = None
    if bc_field is not None:
        def bc(x, x2):
            return eval_fields(bc_field, x, x2, eps)
    return solve_w(grid, f1, f2, bc)


# -- derived quantities -------------------------------------------------------


def _cell_grad(sol: DiscreteSolution):
    """Physical-gradient components of (w1, w2) at cell centers.

    All mapped derivatives are natural staggered differences (centered,
    second order); the ghost rows supply the one-sided wall derivatives.
    """
    g = sol.grid
    a_c = g.a_of(g.xc, g.tc)
    d_c = g._delta(g.xc)[:, None]
    u, v = sol.u, sol.v
    u_xh = (u[1:] - u[:-1]) / g.dx                          # cells
    u_th = (sol.u_pad[:, 1:] - sol.u_pad[:, :-1]) / g.dt    # corners
    u_th = 0.25 * (u_th[:-1, :-1] + u_th[1:, :-1] + u_th[:-1, 1:] + u_th[1:, 1:])
    v_th = (v[:, 1:] - v[:, :-1]) / g.dt                    # cells
    v_xh = (sol.v_pad[1:] - sol.v_pad[:-1]) / g.dx          # corners
    v_xh = 0.25 * (v_xh[:-1, :-1] + v_xh[1:, :-1] + v_xh[:-1, 1:] + v_xh[1:, 1:])
    return (u_xh + a_c * u_th, u_th / d_c,
            v_xh + a_c * v_th, v_th / d_c)


def _energy(sol: DiscreteSolution, mask: np.ndarray) -> float:
    """Quadrature of |grad w|^2 with the mapped area element delta dx dt over
    the cell columns selected by ``mask``."""
    g = sol.grid
    e = sum(c**2 for c in _cell_grad(sol))
    vol = g._delta(g.xc)[:, None] * g.dx * g.dt
    return float(np.sum((e * vol)[mask]))


def global_energy(sol: DiscreteSolution, r: float | None = None) -> float:
    """Energy over |x1| <= r (the whole grid by default)."""
    g = sol.grid
    return _energy(sol, np.abs(g.xc) <= (r if r is not None else g.r))


def local_energy(sol: DiscreteSolution, z1: float) -> float:
    """Energy restricted to the vertical slab |x1 - z1| < delta(z1)."""
    g = sol.grid
    width = g.profile.delta(z1)
    if abs(z1) + width > g.r:
        raise ValueError("local window reaches outside the grid")
    return _energy(sol, np.abs(g.xc - z1) < width)


def sup_grad(sol: DiscreteSolution, r: float) -> float:
    """Max of |d w_i / d x_j| over the region |x1| <= r (side margin 2 cells).

    The wall shear d w_1/d x_2 peaks on the walls themselves, where the
    ghost-based difference is only first order; those rows use a one-sided
    three-point formula through the wall value instead.
    """
    g = sol.grid
    comps = _cell_grad(sol)
    mask = np.abs(g.xc) <= r
    mask[:2] = mask[-2:] = False
    if not np.any(mask):
        raise ValueError(f"no cell within |x1| <= {r:g} beyond the side margin")
    best = max(float(np.max(np.abs(c[mask]))) for c in comps)

    # centered shear at interior corner rows (smooth solution error cancels),
    # extrapolated linearly onto the walls where the shear peaks
    u = sol.u
    u_t = (u[:, 1:] - u[:, :-1]) / g.dt          # corner rows 1..n2-1
    dt_b = 2.0 * u_t[:, 0] - u_t[:, 1]
    dt_t = 2.0 * u_t[:, -1] - u_t[:, -2]
    d_f = g._delta(g.xf)
    maskf = np.abs(g.xf) <= r
    maskf[:2] = maskf[-2:] = False
    for wall in (dt_b, dt_t):
        best = max(best, float(np.max(np.abs(wall[maskf] / d_f[maskf]))))
    return best


def sup_high_deriv(sol: DiscreteSolution, order: int, r: float | None = None,
                   span: tuple | None = None) -> float:
    """Max magnitude over mixed physical derivatives of the given order.

    The region is |x1| <= r or an explicit (lo, hi) span; two cells per
    derivative are trimmed from every edge of the differencing stencils.
    """
    g = sol.grid
    if order < 1:
        raise ValueError("order must be >= 1")
    margin = 2 * order
    if margin * 2 >= min(g.n1, g.n2):
        raise ValueError("order too high for this resolution")
    a_c = g.a_of(g.xc, g.tc)
    d_c = g._delta(g.xc)[:, None]

    def dx1(F):
        return np.gradient(F, g.dx, axis=0) + a_c * np.gradient(F, g.dt, axis=1)

    def dx2(F):
        return np.gradient(F, g.dt, axis=1) / d_c

    uc, vc = sol.cell_velocity()
    best = 0.0
    if span is None:
        mask = np.abs(g.xc) <= (g.r if r is None else r)
    else:
        mask = (g.xc >= span[0]) & (g.xc <= span[1])
    mask[:margin] = mask[-margin:] = False
    if not np.any(mask):
        raise ValueError("empty differencing region")
    tsl = slice(margin, -margin) if margin else slice(None)
    for base in (uc, vc):
        for k1 in range(order + 1):
            F = base
            for _ in range(k1):
                F = dx1(F)
            for _ in range(order - k1):
                F = dx2(F)
            best = max(best, float(np.max(np.abs(F[mask][:, tsl]))))
    return best


# -- manufactured solution -----------------------------------------------------


def manufactured_solution(profile: NeckProfile, r: float):
    """Solenoidal bump flow with exact polynomial forcing.

    The stream bump psi = (xn(1-xn))^2 (tn(1-tn))^2 vanishes to second order
    on the whole rectangle boundary, so w = curl psi has homogeneous data;
    q is a smooth polynomial pressure.  Returns (w, q, f) as exact fields
    with f = -mu Lap w + grad q.
    """
    xn = ca.lin([(ca.X1, 1.0 / (2 * r))], 0.5)
    px = (xn * (1.0 - xn)) ** 2
    tn = keller_plus_half(profile)
    pt = tn * (PolyField(profile, [1.0]) - tn)
    psi = (pt * pt).scale(px)
    w = VectorField2(psi.partial_x2(), psi.partial_x1().scale(-1.0))
    q = (tn * tn).scale(xn)
    f = w.laplacian().scale(-profile.mu) + VectorField2(q.partial_x1(), q.partial_x2())
    return w, q, f


def export_csv(sol: DiscreteSolution, path: str):
    """Point cloud (x1, x2, w1, w2, q) at cell centers."""
    g = sol.grid
    uc, vc = sol.cell_velocity()
    x2 = g.x2_of(g.xc[:, None], g.tc[None, :])
    x1 = np.broadcast_to(g.xc[:, None], x2.shape)
    rows = np.column_stack([x1.ravel(), x2.ravel(), uc.ravel(), vc.ravel(),
                            sol.p.ravel()])
    header = "x1,x2,w1,w2,q"
    np.savetxt(path, rows, delimiter=",", header=header, comments="")
