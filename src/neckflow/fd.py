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
one gauge cell, fixed by a single pressure pin.  The last grid factored
keeps its sparse LU for any number of right-hand sides; an earlier grid is
factored again, bit for bit the same, if it is solved again, and a
``DiscreteSolution`` reads only its grid's geometry.

The matrix is assembled from stencil arrays, with no sparse product: each
flux term is a coefficient array times a shifted slice of the unknown
numbers, terms on one slice are summed in numpy, and the pressure gradient
is the divergence's (row, column, value) arrays swapped and volume-scaled.
Each unknown is numbered by its place in the elimination order from the
start, so the triplets go into one CSC compression per grid as they are.

The LU eliminates the unknowns in cell blocks (a cell's west u face, its
south v face, then its pressure) with the cells in nested-dissection order
(A. George, SIAM J. Numer. Anal. 10, 1973), which about halves the fill of a
fill-reducing column order with partial pivoting.  Vertical separators are
thin: they keep their cells' u and v faces but one pressure, the bottom
cell's (the anchor); each other pressure is eliminated in the block of its
east neighbour.  A vertical separator thus holds about 2 unknowns a cell and
a horizontal one 3, and each block is cut across the side whose separator
is cheaper (3 n1 >= 2 n2 cuts vertically), down to blocks of at most 2 x 2
cells.  Fill: 6.52 million at 128 x 128 and 5.93 million at 257 x 64, against
6.96 and 6.42 million with 16-cell leaves cut across the longer side and
8.58 and 7.95 million with full cell-line separators as well.  The pressure
block is zero, but each pressure is reached after a u face of its own cell
has filled in its pivot, and no eliminated region is left with a free
pressure constant, so the factorization keeps the diagonal pivots of this
order and does no numeric pivoting.

Outside SuperLU the solve calls no BLAS: its norms are numpy reductions
(``_norm``).  ``np.linalg.norm`` of a long vector is a BLAS dot product, which
OpenBLAS splits over its worker threads, and those threads keep spinning after
it returns, through the next solve and whatever the caller does next.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import coeffs as ca
from .fields import PolyField, VectorField2, eval_fields, horner_x2, keller_plus_half
from .geometry import NeckProfile

__all__ = [
    "NeckGrid",
    "DiscreteSolution",
    "solve_w",
    "solve_fields",
    "global_energy",
    "local_energy",
    "sup_grad",
    "manufactured_solution",
    "export_csv",
]


def _flux(idx, axis, k_n, h_n, k_s, h_s):
    """Stencil of the flux k_n dw/dn + k_s dw/ds through the faces between
    neighbours of ``idx`` along ``axis`` (n), away from both ends of the other
    axis (s): (coefficient, column) pairs on the face grid.

    dw/ds is the mean of the four s differences around a face; their middle
    terms cancel.
    """
    idx = np.moveaxis(idx, axis, 0)
    lo, hi = idx[:-1], idx[1:]
    c_n = np.moveaxis(k_n, axis, 0) * (1.0 / h_n)
    c_s = np.moveaxis(k_s, axis, 0) * (0.25 / h_s)
    terms = [(c_n, hi[:, 1:-1]), (-c_n, lo[:, 1:-1]),
             (c_s, lo[:, 2:]), (-c_s, lo[:, :-2]), (c_s, hi[:, 2:]), (-c_s, hi[:, :-2])]
    return [(np.moveaxis(c, 0, axis), np.moveaxis(i, 0, axis)) for c, i in terms]


def _div(flux, axis, h):
    """(F[k+1] - F[k]) / h along ``axis`` for the flux terms F, like terms
    summed by _stencil."""
    hi = (slice(None),) * axis + (slice(1, None),)
    lo = (slice(None),) * axis + (slice(None, -1),)
    out = []
    for c, i in flux:
        c = np.broadcast_to(c, i.shape)
        out += [(c[hi] * (1.0 / h), i[hi]), (c[lo] * (-1.0 / h), i[lo])]
    return _stencil(out)


def _stencil(terms):
    """The stencil terms with those on one column slice (the same first
    column) summed, so that no column repeats in a row."""
    merged = {}
    for c, i in terms:
        k = i.flat[0] if i.size else None
        merged[k] = (merged[k][0] + c, i) if k in merged else (c, i)
    return list(merged.values())


def _flat(pieces):
    """One 1-D array per component: each piece broadcast, the pieces concatenated in order."""
    pieces = [np.broadcast_arrays(*piece) for piece in pieces]
    return tuple(np.concatenate(comp, axis=None) for comp in zip(*pieces))


def _cell_ranks(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Elimination rank of each cell of the n1 x n2 cell rectangle, and the
    cell whose block holds each cell's pressure (raveled).

    Nested dissection down to the smallest blocks: a rectangle is cut by one
    middle cell line, the separator, ranked after both halves, until neither
    side has 3 cells; those blocks of at most 2 x 2 cells are ranked row by
    row.  Every stencil reaches one cell in each direction, so the halves
    never couple directly.  The cut goes across the side whose separator
    holds fewer unknowns: a vertical separator (a cell column) is thin, about
    2 unknowns a cell, and a horizontal one (a cell row) whole, 3, so an
    n1 x n2 block is cut vertically when 3 n1 >= 2 n2 and n1 >= 3.  In a
    vertical separator only the bottom cell, the anchor, keeps its pressure;
    every other pressure of the column joins the block of its east
    neighbour, which lies in the right half, reaches no cell left of the
    column, and has filled that pressure's pivot with its own west u face.
    The anchor keeps the right half from a free pressure constant.  A
    horizontal separator stays whole: the metric term delta*a*ubar ties a
    cell's pressure to the u faces of the row below.  The corner cell (0, 0)
    goes last: it is the one cell whose west and south faces are both
    boundary faces, so any eliminated region holding it would couple to no
    pressure outside, leaving its pressure constant free and a zero pivot.
    """
    ids = np.arange(n1 * n2).reshape(n1, n2)
    host = ids.ravel().copy()
    order = []

    def visit(block):
        b1, b2 = block.shape
        if b1 >= 3 and 3 * b1 >= 2 * b2:
            m = b1 // 2
            visit(block[:m])
            visit(block[m + 1:])
            order.append(block[m])
            host[block[m, 1:]] = block[m + 1, 1:]
        elif b2 >= 3:
            m = b2 // 2
            visit(block[:, :m])
            visit(block[:, m + 1:])
            order.append(block[:, m])
        else:
            order.append(block.ravel())

    visit(ids)
    cells = np.concatenate(order)
    rank = np.empty(n1 * n2, dtype=np.intp)
    rank[cells[cells != 0]] = np.arange(n1 * n2 - 1)
    rank[0] = n1 * n2 - 1
    return rank.reshape(n1, n2), host


# a weak reference to the one grid whose factors are held (NeckGrid.solver)
_factored = None


@dataclass
class NeckGrid:
    """Mapped MAC grid with metric coefficients from the exact profile."""

    profile: NeckProfile
    r: float
    n1: int = 257
    n2: int = 64

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in (self.n1, self.n2)):
            raise ValueError("n1 and n2 must be integers")
        if self.profile.eps is None:
            raise ValueError(f"profile {self.profile.name!r} is a wall shape with no eps; "
                             "a grid needs a profile at an eps")
        if not (np.isfinite(self.r) and self.r > 0):
            raise ValueError("r must be finite and positive")
        if self.n1 < 1:
            raise ValueError("n1 must be at least 1")
        if self.n2 < 32:
            raise ValueError("n2 must be at least 32 to resolve the gap")
        if self.r > 2 * self.profile.R:
            raise ValueError("grid exceeds the neck chart")
        if 3.0 * (self.n1 + 1.0) * (self.n2 + 1.0) + 1 > 2**31:  # unknowns, in floats
            raise ValueError(f"a {self.n1} x {self.n2} grid has too many unknowns for int32 indices")
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
        self._lu = self._parts = None

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

    def unknown_positions(self) -> np.ndarray:
        """Matrix index of each unknown (u_pad, v_pad, p, raveled): its place
        in the elimination order, int32 as scipy.sparse stores indices.

        Each unknown joins one cell block: the cell's west u face, its south
        v face, its pressure, then the pressure of its west neighbour when
        that neighbour lies on a thin vertical separator (_cell_ranks);
        ghosts and last faces join the nearest edge cell.  The blocks follow
        _cell_ranks.
        """
        n1, n2 = self.n1, self.n2
        rank, host = _cell_ranks(n1, n2)
        i, j = np.indices((n1 + 1, n2 + 2))
        key_u = 4 * rank[np.minimum(i, n1 - 1), np.clip(j - 1, 0, n2 - 1)]
        i, j = np.indices((n1 + 2, n2 + 1))
        key_v = 4 * rank[np.clip(i - 1, 0, n1 - 1), np.minimum(j, n2 - 1)] + 1
        key_p = 4 * rank.ravel()[host] + np.where(host == np.arange(n1 * n2), 2, 3)
        key = np.concatenate([key_u.ravel(), key_v.ravel(), key_p])
        pos = np.empty(key.size, dtype=np.int32)
        pos[np.argsort(key, kind="stable")] = np.arange(key.size, dtype=np.int32)
        return pos

    # -- operator assembly ------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def _assemble(self):
        """The saddle-point matrix, each unknown numbered by its place in the
        elimination order, and what a solve reads: the matrix indices of
        u_pad, v_pad and p, the gauge cell, the boundary table (rows, x, t,
        component, weight), the cell volumes and ||A||_inf.  At a gap so
        narrow that a metric term overflows, a ValueError."""
        import scipy.sparse as sp  # here, so that corrector runs load numpy alone
        n1, n2, dx, dt = self.n1, self.n2, self.dx, self.dt
        n_u, n_v = (n1 + 1) * (n2 + 2), (n1 + 2) * (n2 + 1)
        ids = self.unknown_positions()
        iu = ids[:n_u].reshape(n1 + 1, n2 + 2)             # u on padded x-faces
        iv = ids[n_u:n_u + n_v].reshape(n1 + 2, n2 + 1)    # v on padded t-faces
        ip = ids[n_u + n_v:].reshape(n1, n2)
        int_u, int_v = iu[1:-1, 1:-1], iv[1:-1, 1:-1]
        d_f = self._delta(self.xf)[:, None]
        d_c = self._delta(self.xc)[:, None]
        K11c, K12c, K22c = self.K(self.xc, self.tc)
        K11k, K12k, K22k = self.K(self.xf, self.tf)

        # momentum at interior nodes: -mu/delta times the divergence of the
        # metric fluxes, u's through cells and interior corners, v's through
        # interior corners and cells.  The rounding order is part of the
        # result: each direction's two flux differences are summed, then the
        # two directions, then the sum is scaled.  SuperLU drops fill that
        # cancels exactly, so the LU's fill reads A's last bits.
        mu = self.profile.mu
        lap_u = [(-mu * (1.0 / d_f[1:-1] * c), i) for c, i in _stencil(
            _div(_flux(iu, 0, K11c, dx, K12c, dt), 0, dx)
            + _div(_flux(iu, 1, K22k[1:-1], dt, K12k[1:-1], dx), 1, dt))]
        lap_v = [(-mu * (1.0 / d_c * c), i) for c, i in _stencil(
            _div(_flux(iv, 0, K11k[:, 1:-1], dx, K12k[:, 1:-1], dt), 0, dx)
            + _div(_flux(iv, 1, K22c, dt, K12c, dx), 1, dt))]

        # divergence at cells: (1/delta)[d/dx(delta u) + d/dt(delta a ubar + v)].
        # The metric flux through the walls uses the wall data itself (moved to
        # the right-hand side), never ghost-averaged unknowns: this keeps the
        # pressure gradient consistent up to the walls.  Each cell's terms are
        # one fixed-width row of div, zeros included.
        da = 0.25 * d_c * self.a_of(self.xc, self.tf)
        da[:, [0, -1]] = 0.0
        ubar = [(da, i) for i in (iu[:-1, :-1], iu[:-1, 1:], iu[1:, :-1], iu[1:, 1:])]
        terms = _stencil(_div([(d_f, iu[:, 1:-1])], 0, dx)
                         + _div(ubar + [(1.0, iv[1:-1])], 1, dt))
        div = 1.0 / d_c[..., None] * np.stack([c for c, _ in terms], axis=-1)
        cols_d = np.stack([i for _, i in terms], axis=-1)

        # pressure gradient at interior nodes: the negative volume-weighted
        # adjoint of the divergence, -V^-1 div^T V_c; boundary unknowns take an
        # infinite volume, so their rows get zeros, dropped below
        w = dx * dt
        vol = np.full(ids.size, np.inf)
        vol[int_u] = d_f[1:-1] * w
        vol[int_v] = d_c * w
        vol_c = d_c * w * np.ones((n1, n2))
        grad = -1.0 / vol[cols_d] * div * vol_c[..., None]

        # boundary rows as one table: row, mapped sample point (x, t), data
        # component and weight.  Dirichlet rows (weight 1) take the data;
        # ghost rows pair with their first interior node, ghost + first =
        # 2 * wall value (weight 2); the first and last cell rows take the
        # wall metric flux delta*a*w1 / (delta*dt) of the tangential data
        # (the pin is interior, as n2 >= 32).
        ends_x, ends_t = self.xf[[0, -1]], self.tf[[0, -1]]
        flux = self.a_of(self.xc, ends_t) * np.array([1.0, -1.0]) / self.dt
        ghost_u, ghost_v = iu[:, [0, -1]], iv[[0, -1]].T
        table = (
            (iu[[0, -1], 1:-1], ends_x[:, None], self.tc, 0, 1.0),     # u at the sides
            (ghost_u, self.xf[:, None], ends_t, 0, 2.0),               # u ghosts, walls
            (iv[1:-1, [0, -1]], self.xc[:, None], ends_t, 1, 1.0),     # v at the walls
            (ghost_v, ends_x, self.tf[:, None], 1, 2.0),               # v ghosts, sides
            (ip[:, [0, -1]], self.xc[:, None], ends_t, 0, flux),       # wall fluxes
        )
        bc_rows = _flat(table)

        # continuity at cells, one interior cell pinned for the pressure gauge
        pin = (n1 // 2, n2 // 2)
        cont = div.copy()
        cont[pin] = 0.0

        rows, cols, vals = _flat(
            [(int_u, i, c) for c, i in lap_u] + [(int_v, i, c) for c, i in lap_v]
            + [(cols_d, ip[..., None], grad), (ip[..., None], cols_d, cont),
               (ip[pin], ip[pin], 1.0)] + [(g[0], g[0], 1.0) for g in table[:4]]
            + [(ghost_u, iu[:, [1, -2]], 1.0), (ghost_v, iv[[1, -2]].T, 1.0)])
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite: the gap is too narrow to assemble")
        A = sp.csc_matrix((vals, (rows, cols)), shape=(ids.size, ids.size))
        A.eliminate_zeros()
        a_inf = float(np.bincount(rows, np.abs(vals)).max())
        return A, iu, iv, ip, pin, bc_rows, vol_c, a_inf

    def solver(self):
        """(LU, assembly parts) of this grid, factored on first use.

        One grid per process holds its factors, the last one factored: an
        earlier grid's are dropped before this one is assembled, so they add
        nothing to its peak, and it is factored again if it is solved again.
        The slot is a weak reference, so a grid nobody references frees its
        factors at once."""
        global _factored
        if self._lu is None:
            held = _factored() if _factored is not None else None
            if held is not None and held is not self:
                held._lu = held._parts = None
            import scipy.sparse.linalg as spla
            # the assembly's arrays are freed before the factorization; every
            # pressure follows a u face of its own cell, so its pivot has
            # filled in when it is reached: diagonal pivots keep the order
            parts = self._assemble()
            self._lu = spla.splu(parts[0], permc_spec="NATURAL", diag_pivot_thresh=0.0)
            self._parts = parts
            _factored = weakref.ref(self)
        return self._lu, self._parts

    def sup_window(self, r: float):
        """Masks of the cell centers and of the x faces with |x1| <= r,
        beyond a side margin of 2 cells; a window holding no cell is a
        ValueError."""
        masks = []
        for x in (self.xc, self.xf):
            mask = np.abs(x) <= r
            mask[:2] = mask[-2:] = False
            masks.append(mask)
        if not np.any(masks[0]):
            raise ValueError(f"no cell within |x1| <= {r:g} beyond the side margin")
        return masks


@dataclass
class DiscreteSolution:
    grid: NeckGrid
    u_pad: np.ndarray        # (n1+1, n2+2): ghost rows encode the wall data
    v_pad: np.ndarray        # (n1+2, n2+1): ghost columns encode the side data
    p: np.ndarray            # (n1, n2) volume-weighted zero mean
    residual_rel: float
    div_max: float
    correction_rel: float
    backward_err: float

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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D array without BLAS (see the module docstring);
    it overflows exactly where ``np.linalg.norm``'s ``x.dot(x)`` does."""
    return float(np.sqrt(np.sum(x * x)))


def solve_w(grid: NeckGrid, f1, f2, bc=None) -> DiscreteSolution:
    """Solve -mu Lap w + grad q = f, div w = 0 on the mapped neck.

    ``f1``/``f2`` are finite arrays sampled at the interior u/v nodes, of
    shapes (n1-1, n2) and (n1, n2-1) exactly; any other shape is a
    ValueError.  ``bc`` maps (x1, x2) -> (w1, w2) for the boundary data;
    omitted means homogeneous (the w-problem).  It is called once, with 1-D
    arrays holding every boundary and wall-flux point, and returns the two
    arrays of data values there; a value that is not finite is a ValueError.

    ``residual_rel`` is ||r|| / ||b|| for the one residual r = A s - b of the
    refined solution, both norms numpy reductions, so the solve wakes no BLAS
    worker thread; ``div_max`` is max |r| on the continuity rows, and
    ``backward_err`` ||r||_inf / (||A||_inf ||s||_inf + ||b||_inf), which does
    not grow with the rows' scale (Higham 2002, sec. 7.1).  ``correction_rel``
    is the refinement pass's max |step| over max |s| (or 1.0 where s is
    zero): how far off the first solve was.
    """
    n1, n2 = grid.n1, grid.n2
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != (n1 - 1, n2):
        raise ValueError(f"f1 must be (n1-1, n2), got {f1.shape}")
    if f2.shape != (n1, n2 - 1):
        raise ValueError(f"f2 must be (n1, n2-1), got {f2.shape}")
    if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
        raise ValueError("forcing samples must be finite")
    # checked first: a rejected forcing costs no assembly and no factor
    lu, (A, iu, iv, ip, pin, bc_rows, vol_c, a_inf) = grid.solver()
    b = np.zeros(A.shape[0])
    b[iu[1:-1, 1:-1]] = f1
    b[iv[1:-1, 1:-1]] = f2

    if bc is not None:
        rows, x, t, comp, weight = bc_rows
        w1, w2 = bc(x, grid.x2_of(x, t))
        data = np.where(comp == 0, w1, w2)
        if not np.all(np.isfinite(data)):
            raise ValueError("boundary data must be finite")
        b[rows] = weight * data

    s = lu.solve(b)
    step = lu.solve(b - A @ s)  # one refinement pass tightens the residual
    s += step
    r = A @ s - b
    div = r[ip]
    div[pin] = 0.0  # gauge cell carries no continuity equation
    p = s[ip]
    p = p - float(np.sum(p * vol_c) / np.sum(vol_c))
    s_max = float(np.max(np.abs(s)))
    scale = a_inf * s_max + float(np.max(np.abs(b)))
    return DiscreteSolution(grid, s[iu], s[iv], p, _norm(r) / (_norm(b) or 1.0),
                            float(np.max(np.abs(div))),
                            float(np.max(np.abs(step))) / (s_max or 1.0),
                            float(np.max(np.abs(r))) / (scale or 1.0))


def solve_fields(grid: NeckGrid, f: VectorField2,
                 bc_field: VectorField2 | None = None) -> DiscreteSolution:
    """Sample an exact forcing field (and optional boundary field) at the
    grid's eps and solve.  The coefficients of both components are read in
    one walk, at the u nodes' x then the v nodes'; each component's Horner
    loop in x2 reads its own slice, as ``PolyField.eval`` would.  Samples
    that overflow are not warned of here: ``solve_w`` rejects them."""
    eps = grid.profile.eps
    xf_i = grid.xf[1:-1]
    nu, c1, c2 = xf_i.size, f.u1.coeffs, f.u2.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        vals = ca.eval_many(c1 + c2, np.concatenate([xf_i, grid.xc]), eps)
        f1 = horner_x2([v[:nu] for v in vals[:len(c1)]], xf_i,
                       grid.x2_of(xf_i[:, None], grid.tc[None, :]))
        f2 = horner_x2([v[nu:] for v in vals[len(c1):]], grid.xc,
                       grid.x2_of(grid.xc[:, None], grid.tf[None, 1:-1]))
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


def _energy(sol: DiscreteSolution, mask: np.ndarray, window: str) -> float:
    """Quadrature of |grad w|^2 with the mapped area element delta dx dt over
    the cell columns selected by ``mask``; a window holding no cell center
    (named by ``window``) is a ValueError, not an energy of zero."""
    g = sol.grid
    if not np.any(mask):
        raise ValueError(f"no cell center within {window}")
    e = sum(c**2 for c in _cell_grad(sol))
    vol = g._delta(g.xc)[:, None] * g.dx * g.dt
    return float(np.sum((e * vol)[mask]))


def global_energy(sol: DiscreteSolution, r: float | None = None) -> float:
    """Energy over |x1| <= r (the whole grid by default)."""
    g = sol.grid
    r = g.r if r is None else r
    return _energy(sol, np.abs(g.xc) <= r, f"|x1| <= {r:g}")


def local_energy(sol: DiscreteSolution, z1: float) -> float:
    """Energy restricted to the vertical slab |x1 - z1| < delta(z1)."""
    g = sol.grid
    width = g.profile.delta(z1)
    if abs(z1) + width > g.r:
        raise ValueError("local window reaches outside the grid")
    return _energy(sol, np.abs(g.xc - z1) < width, f"|x1 - {z1:g}| < {width:g}")


def sup_grad(sol: DiscreteSolution, r: float) -> float:
    """Max of |d w_i / d x_j| over the region |x1| <= r (side margin 2 cells).

    The wall shear d w_1/d x_2 peaks on the walls themselves, where the
    ghost-based difference is only first order; those rows use a one-sided
    three-point formula through the wall value instead.
    """
    g = sol.grid
    mask, maskf = g.sup_window(r)
    comps = _cell_grad(sol)
    best = max(float(np.max(np.abs(c[mask]))) for c in comps)

    # centered shear at interior corner rows (smooth solution error cancels),
    # extrapolated linearly onto the walls where the shear peaks
    u = sol.u
    u_t = (u[:, 1:] - u[:, :-1]) / g.dt          # corner rows 1..n2-1
    dt_b = 2.0 * u_t[:, 0] - u_t[:, 1]
    dt_t = 2.0 * u_t[:, -1] - u_t[:, -2]
    d_f = g._delta(g.xf)
    for wall in (dt_b, dt_t):
        best = max(best, float(np.max(np.abs(wall[maskf] / d_f[maskf]))))
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
