"""Inter-resolution variational flow on signed distance fields.

Minimizing the quadratic energy

    E(u) = sum_c (g_c . u_c - delta_c)^2
         + beta_S * sum_axes |D_axis u|^2  +  beta_T |u|^2  +  u^T D u

over per-cell 3-vector displacements u yields the linear system A u = b with

    A = grad(phi_dst)^T grad(phi_dst) + beta_S * sum_j L_j + beta_T I + D
    b = grad(phi_dst)^T (phi_src - phi_dst)

assembled over the whole space-time stack (time is a fourth lattice axis of
the smoothness term). The solved field maps the source surface onto the
destination: displacing source geometry by +u reproduces the destination.
The diagonal penalty D concentrates the solve on topologically complex cells
near matched surface feature points: each complex cell's nearest feature
point in space-time, (x, y, z, t * dt), comes from
`particles.nearest_points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import CGNotConverged, GridMismatch, NoSurface, check_positive
from .grids import DeformationField, ScalarGrid, pcg, sample_trilinear
from .particles import ParticleSet, nearest_points


@dataclass
class FlowParams:
    """Weights and solver controls for the flow energy."""

    beta_s: float = 0.5           # smoothness weight, >= 0
    beta_t: float = 1e-3          # Tikhonov weight, > 0 (keeps A positive definite)
    alpha_feat: float = 1.0       # feature-point threshold coefficient
    cg_tol: float = 1e-8          # relative residual target
    cg_max_iter: int = 5000

    def __post_init__(self):
        if not (np.isfinite(self.beta_s) and self.beta_s >= 0.0):
            raise ValueError(f"beta_s must be non-negative and finite, got {self.beta_s}")
        check_positive("beta_t", self.beta_t)
        if not np.isfinite(self.alpha_feat):
            raise ValueError(f"alpha_feat must be finite, got {self.alpha_feat}")
        check_positive("cg_tol", self.cg_tol)
        if self.cg_max_iter < 1:
            raise ValueError(f"cg_max_iter must be >= 1, got {self.cg_max_iter}")


@dataclass
class SpaceTimeSDF:
    """Ordered SDF frames on one shared grid."""

    frames: list[ScalarGrid]
    dt: float = 1.0

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a space-time SDF needs at least one frame")
        desc = self.frames[0].desc
        for f in self.frames[1:]:
            if f.desc != desc:
                raise GridMismatch("space-time SDF frames must share one grid descriptor")

    @property
    def desc(self):
        return self.frames[0].desc

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def stacked(self) -> np.ndarray:
        return np.stack([f.values for f in self.frames])


@dataclass
class AlignmentPenalty:
    """Per space-time-cell diagonal penalty d >= 0; nonzero only on complex cells."""

    d: np.ndarray  # shape (T, nx, ny, nz)

    def __post_init__(self):
        self.d = np.ascontiguousarray(self.d, dtype=np.float64)
        if np.any(self.d < 0.0):
            raise ValueError("alignment penalties must be non-negative")


@dataclass
class FlowSolveInfo:
    converged: bool
    iterations: int
    residual: float

    def require_converged(self, what: str) -> None:
        """Raise CGNotConverged, naming the solve by `what`, when CG ran out
        of iterations."""
        if not self.converged:
            raise CGNotConverged(
                f"{what}: flow CG stalled at relative residual {self.residual:.3e} "
                f"after {self.iterations} iterations")


# -- complex-cell topology test -----------------------------------------------

def _connected(corners: np.ndarray) -> np.ndarray:
    """Whether each 8-bit corner set (bit 4 dx + 2 dy + dz) is edge-connected:
    grown from its lowest corner along z, y and x three times, it must cover
    the whole set."""
    reach = corners & -corners
    for _ in range(3):
        for shift, mask in ((1, 0x55), (2, 0x33), (4, 0x0F)):
            reach |= ((reach & mask) << shift | (reach >> shift) & mask) & corners
    return reach == corners


# a cell is complex when its inside corners, or its outside corners, are not
# edge-connected; an ambiguous face implies that already, so no face test
_COMPLEX_TABLE = ~(_connected(np.arange(256)) & _connected(255 - np.arange(256)))


def complex_cells(phi: ScalarGrid) -> np.ndarray:
    """Flag cells whose 8-corner sign pattern is too tangled for a single
    piecewise-linear surface sheet: the inside or the outside corners fall
    into more than one edge-connected component. Corners are the cell-center
    samples of the 2x2x2 block anchored at each cell; the trailing slab in
    each axis is never flagged.
    """
    inside = phi.values <= 0.0
    nx, ny, nz = phi.desc.dims
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.int32)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                bit = dx * 4 + dy * 2 + dz
                case |= inside[dx:nx - 1 + dx, dy:ny - 1 + dy, dz:nz - 1 + dz] << bit
    out = np.zeros(phi.desc.dims, dtype=bool)
    out[:-1, :-1, :-1] = _COMPLEX_TABLE[case]
    return out


# -- feature points and alignment ---------------------------------------------

def _laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """7-point Laplacian with replicated (Neumann) boundary values."""
    p = np.pad(values, 1, mode="edge")
    lap = -6.0 * values
    lap += p[2:, 1:-1, 1:-1] + p[:-2, 1:-1, 1:-1]
    lap += p[1:-1, 2:, 1:-1] + p[1:-1, :-2, 1:-1]
    lap += p[1:-1, 1:-1, 2:] + p[1:-1, 1:-1, :-2]
    return lap / (h * h)


def feature_points(st: SpaceTimeSDF, alpha_feat: float) -> np.ndarray:
    """Surface-band cells whose |curvature| sticks out of the band distribution.

    Curvature is approximated by the SDF Laplacian on the |phi| <= 2h band of
    the whole stack; cells above mean + alpha_feat * stddev of the band's
    |curvature| are returned as 4D points (x, y, z, t * dt), frame by frame
    in cell order. A constant distribution (stddev ~ 0) yields no feature
    points.

    Raises NoSurface when no frame has a zero crossing.
    """
    h = st.desc.cell_size
    phi = st.stacked()
    if not ((phi <= 0.0).any(axis=(1, 2, 3)) & (phi > 0.0).any(axis=(1, 2, 3))).any():
        raise NoSurface("signed distance stack has no zero crossing")
    band = np.abs(phi) <= 2.0 * h
    curv = np.abs(np.stack([_laplacian(v, h) for v in phi]))
    band_curv = curv[band]
    if band_curv.size == 0:
        return np.zeros((0, 4))
    mu = float(band_curv.mean())
    rho = float(band_curv.std())
    if rho <= 1e-12 * max(1.0, abs(mu)):
        return np.zeros((0, 4))
    t, i, j, k = np.nonzero(band & (curv > mu + alpha_feat * rho))
    return np.column_stack([st.desc.cell_centers()[i, j, k], t * st.dt])


def alignment_penalty(lo: SpaceTimeSDF, hi: SpaceTimeSDF,
                      params: FlowParams) -> AlignmentPenalty:
    """Inverse-distance penalty on the source's complex cells.

    Each complex cell of `lo` gets d = 1 / max(dist, eps) where dist is the
    4D distance sqrt(sum((f - q)**2)) from its point q = (x, y, z, t * dt)
    to the nearest feature point f of `hi`; eps is one cell size. One
    nearest search serves the whole stack. Everything else is zero.
    """
    if lo.desc != hi.desc or lo.num_frames != hi.num_frames:
        raise GridMismatch("aligned stacks must share grid and frame count")
    d = np.zeros((lo.num_frames,) + lo.desc.dims)
    feats = feature_points(hi, params.alpha_feat)
    if len(feats) == 0:
        return AlignmentPenalty(d)
    cc = np.stack([complex_cells(f) for f in lo.frames])
    t, i, j, k = np.nonzero(cc)
    q = np.column_stack([lo.desc.cell_centers()[i, j, k], t * lo.dt])
    dist = np.sqrt(np.sum((feats[nearest_points(feats, q)] - q) ** 2, axis=1))
    d[cc] = 1.0 / np.maximum(dist, lo.desc.cell_size)
    return AlignmentPenalty(d)


# -- system assembly and solve -------------------------------------------------

@lru_cache(maxsize=8)
def _system_pattern(t_frames: int, dims: tuple, smooth: bool):
    """The CSR sparsity pattern of `build_system`'s A for one stack shape:
    (indptr, indices, block, pairs, off). `block` (m, 9) holds the data
    slot of entry (3c + a, 3c + b) of cell c at column 3a + b; `pairs`
    lists the neighbour cells (ca, cb) of each lattice axis, and `off` the
    slots of their entries (3 ca + a, 3 cb + a) and transposes. The arrays
    are read-only: every call with this shape shares them."""
    shape4 = (t_frames,) + tuple(dims)
    m = int(np.prod(shape4))
    n = 3 * m
    cell = np.arange(m, dtype=np.int64)
    first = np.repeat(3 * cell, 9)
    rows = [first + np.tile(np.repeat(np.arange(3), 3), m)]
    cols = [first + np.tile(np.arange(3), 3 * m)]
    pairs = []
    if smooth:
        lattice = cell.reshape(shape4)
        for axis in range(4):
            if shape4[axis] < 2:
                continue
            ca = lattice[tuple(slice(0, -1) if a == axis else slice(None)
                               for a in range(4))].reshape(-1)
            cb = lattice[tuple(slice(1, None) if a == axis else slice(None)
                               for a in range(4))].reshape(-1)
            pairs.append((ca, cb))
            for a in range(3):
                rows += [3 * ca + a, 3 * cb + a]
                cols += [3 * cb + a, 3 * ca + a]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # each (row, col) occurs once; CSR keeps every row's columns ascending
    order = np.lexsort((cols, rows))
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = np.arange(len(order))
    # scipy's own index dtype, so that csr_matrix keeps these arrays uncopied
    idx_dtype = np.int32 if max(len(rows), n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[order].astype(idx_dtype)
    block, off = slot[:9 * m].reshape(m, 9), slot[9 * m:]
    for a in (indptr, indices, block, off, *(c for pair in pairs for c in pair)):
        a.flags.writeable = False
    return indptr, indices, block, tuple(pairs), off


def build_system(hi: SpaceTimeSDF, lo: SpaceTimeSDF,
                 penalty: AlignmentPenalty | None,
                 params: FlowParams):
    """Assemble (A, b) of the flow system over the space-time stack.

    A is symmetric positive definite for beta_t > 0. Unknowns are ordered
    cell-major (time, x, y, z) with the 3 vector components interleaved.
    Returns (A: csr_matrix, b: ndarray).

    Which entries A stores depends on the stack's shape and on whether
    beta_s > 0 alone, never on the SDF values (a zero gradient product is
    stored as 0.0), so the CSR pattern is built once per shape
    (`_system_pattern`) and each call only fills in the values. Only a
    diagonal entry sums two terms, the data term's and the smoothness,
    time and penalty weight's, and that sum does not depend on order.
    """
    if hi.desc != lo.desc or hi.num_frames != lo.num_frames:
        raise GridMismatch("flow solve needs matching grids and frame counts")
    desc = hi.desc
    h = desc.cell_size
    t_frames = hi.num_frames
    m = t_frames * desc.num_cells
    n = 3 * m
    indptr, indices, block, pairs, off = _system_pattern(t_frames, tuple(desc.dims),
                                                         params.beta_s > 0.0)

    # central differences (one-sided at borders) over the three spatial axes
    phi_dst = hi.stacked()
    grad = np.stack(np.gradient(phi_dst, h, axis=(1, 2, 3)), axis=-1).reshape(m, 3)
    delta = (lo.stacked() - phi_dst).reshape(-1)

    # smoothness: graph Laplacian over the 4D lattice, one copy per component;
    # the diagonal gathers beta_t, the penalty and each axis's pair weights
    diag = np.full(m, params.beta_t)
    if penalty is not None:
        pen = penalty.d.reshape(-1)
        if len(pen) != m:
            raise GridMismatch("penalty shape does not match the space-time stack")
        diag = diag + pen
    w = params.beta_s
    for ca, cb in pairs:
        diag[ca] += w                  # an axis pairs a cell at most once a side
        diag[cb] += w
    data = np.empty(len(indices))
    data[off] = -w

    # data term: per-cell 3x3 outer product of the destination gradient
    outer = (grad[:, :, None] * grad[:, None, :]).reshape(m, 9)
    outer[:, ::4] += diag[:, None]
    data[block] = outer

    a_mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    b = (grad * delta[:, None]).reshape(-1)
    return a_mat, b


def solve_flow(a_mat: sp.csr_matrix, b: np.ndarray, params: FlowParams):
    """Jacobi-preconditioned CG solve of the assembled SPD system.

    Returns (u, FlowSolveInfo); u is the flat solution vector (3 components
    per cell). A zero right-hand side returns the zero field immediately.
    When the iteration cap is hit, the best iterate is returned with
    `converged=False` rather than raising.
    """
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), FlowSolveInfo(True, 0, 0.0)
    u, converged, iterations, residual = pcg(
        a_mat, b, params.cg_tol, params.cg_max_iter,
        lambda r: float(np.linalg.norm(r)) / b_norm)
    return u, FlowSolveInfo(converged, iterations, residual)


def solution_fields(u_flat: np.ndarray, st_like: SpaceTimeSDF) -> list[DeformationField]:
    """Reshape a flat flow solution into one DeformationField per frame."""
    desc = st_like.desc
    t_frames = st_like.num_frames
    u = u_flat.reshape((t_frames,) + desc.dims + (3,))
    return [DeformationField(desc, u[t]) for t in range(t_frames)]


def apply_deformation(phi: ScalarGrid, u: DeformationField, alpha: float) -> ScalarGrid:
    """Warp an SDF through the deformation: phi'(x) = phi(x - alpha * u(x)).

    alpha = 0 returns an exact copy of the input.
    """
    if phi.desc != u.desc:
        raise GridMismatch("deformation and SDF grids differ")
    if alpha == 0.0:
        return phi.copy()
    centers = phi.desc.cell_centers().reshape(-1, 3)
    back = centers - alpha * u.vectors.reshape(-1, 3)
    vals = sample_trilinear(phi, back)
    return ScalarGrid(phi.desc, vals.reshape(phi.desc.dims))


def displace_particles(x: ParticleSet, u: DeformationField, alpha: float) -> ParticleSet:
    """Move particles by alpha times the field sampled at their positions;
    velocities are copied. alpha = 0 or an empty set returns an exact copy."""
    if alpha == 0.0 or x.count == 0:
        return x.copy()
    disp = sample_trilinear(u, x.positions)
    return ParticleSet(x.positions + alpha * disp, x.velocities.copy())


def stack_flow(src: SpaceTimeSDF, dst: SpaceTimeSDF, params: FlowParams,
               align: bool = True):
    """Solve the flow carrying the `src` stack onto `dst`: alignment penalty
    (unless `align` is False), assembly, CG, and the per-frame split.

    Returns (one DeformationField per frame, FlowSolveInfo). An unconverged
    solve returns its best iterate; callers that must not use it call
    `info.require_converged`.
    """
    penalty = alignment_penalty(src, dst, params) if align else None
    a_mat, b = build_system(dst, src, penalty, params)
    u, info = solve_flow(a_mat, b, params)
    return solution_fields(u, src), info


def blend_weight(alpha) -> float:
    """`alpha` as a float, checked to lie in [0, 1]: a weight past either end
    extrapolates beyond the source or the destination. Raises ValueError."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"blend weight alpha must lie in [0, 1], got {alpha}")
    return alpha
