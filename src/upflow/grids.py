"""Uniform-grid field types and the sampling/advection primitives built on them.

Conventions used throughout the package:

- Scalar, vector, and penalty fields are sampled at cell centers:
  ``origin + (i + 0.5) * cell_size``.
- MAC velocity grids are face-staggered: the u component lives on x-faces
  (shape ``(nx+1, ny, nz)``), v on y-faces, w on z-faces.
- All interpolation is trilinear, through one stencil: sampling gathers
  with it and the particle-to-MAC scatter is its transpose. Positions
  outside the grid clamp to the boundary cell, which keeps narrow domains
  NaN-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch

# MAC layout: sample i of the u, v or w component sits at
# origin + (i + FACE_OFFSETS[component]) * cell_size
FACE_OFFSETS = ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))
D_MAC = 2       # cells `extrapolate_mac` extends face velocities beyond the liquid


def face_shape(dims, axis: int) -> tuple[int, int, int]:
    """Shape of the MAC component normal to `axis` on a grid of `dims` cells:
    one more face than cells along `axis`."""
    shape = [int(d) for d in dims]
    shape[axis] += 1
    return tuple(shape)


@dataclass(frozen=True)
class GridDesc:
    """Geometry of a uniform grid: origin corner, cell size, cell counts."""

    origin: tuple[float, float, float]
    cell_size: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        if self.cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if any(int(d) < 2 for d in self.dims):
            raise ValueError(f"every grid dimension must be >= 2, got {self.dims}")
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def num_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def extent(self) -> np.ndarray:
        """Physical size of the domain along each axis."""
        return np.asarray(self.dims, dtype=np.float64) * self.cell_size

    @property
    def upper(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=np.float64) + self.extent

    def cell_centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) array of cell-center positions."""
        nx, ny, nz = self.dims
        ax = [np.asarray(self.origin)[a] + (np.arange(n) + 0.5) * self.cell_size
              for a, n in enumerate((nx, ny, nz))]
        gx, gy, gz = np.meshgrid(*ax, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Integer cell containing each position (clamped to the grid)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        idx = np.floor((x - np.asarray(self.origin)) / self.cell_size).astype(np.int64)
        return np.clip(idx, 0, np.asarray(self.dims) - 1)


def _require_same_desc(a: GridDesc, b: GridDesc):
    if a != b:
        raise GridMismatch(f"grid descriptors differ: {a} vs {b}")


@dataclass
class ScalarGrid:
    """Cell-centered scalar field (SDF values, weights, ...)."""

    desc: GridDesc
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != self.desc.dims:
            raise ValueError(f"values shape {self.values.shape} != dims {self.desc.dims}")

    @classmethod
    def full(cls, desc: GridDesc, fill: float = 0.0) -> "ScalarGrid":
        return cls(desc, np.full(desc.dims, fill, dtype=np.float64))

    def copy(self) -> "ScalarGrid":
        return ScalarGrid(self.desc, self.values.copy())


@dataclass
class DeformationField:
    """Cell-centered 3-vector field."""

    desc: GridDesc
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.shape != self.desc.dims + (3,):
            raise ValueError(
                f"vectors shape {self.vectors.shape} != dims {self.desc.dims} + (3,)")

    @classmethod
    def zeros(cls, desc: GridDesc) -> "DeformationField":
        return cls(desc, np.zeros(desc.dims + (3,), dtype=np.float64))

    def copy(self) -> "DeformationField":
        return DeformationField(self.desc, self.vectors.copy())


@dataclass
class MACGrid:
    """Face-staggered velocity field."""

    desc: GridDesc
    u: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)
    w: np.ndarray = field(default=None)

    def __post_init__(self):
        for axis, name in enumerate("uvw"):
            shape = face_shape(self.desc.dims, axis)
            arr = getattr(self, name)
            arr = np.zeros(shape) if arr is None else np.ascontiguousarray(arr, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            setattr(self, name, arr)

    @classmethod
    def zeros(cls, desc: GridDesc) -> "MACGrid":
        return cls(desc)

    @classmethod
    def constant(cls, desc: GridDesc, vel) -> "MACGrid":
        g = cls(desc)
        g.u[...], g.v[...], g.w[...] = vel[0], vel[1], vel[2]
        return g

    def copy(self) -> "MACGrid":
        return MACGrid(self.desc, self.u.copy(), self.v.copy(), self.w.copy())

    def components(self):
        return (self.u, self.v, self.w)


def _trilinear_stencil(shape, t: np.ndarray):
    """The eight (corner index, weight) pairs of trilinear interpolation at
    fractional lattice indices `t` (n, 3) on a lattice of `shape`, in
    (dx, dy, dz) order. Indices are clamped to the lattice, matching the
    boundary-clamp sampling rule."""
    shape = np.asarray(shape[:3])
    t = np.clip(t, 0.0, shape - 1.0)
    i0 = np.maximum(np.minimum(np.floor(t).astype(np.int64), shape - 2), 0)
    f = t - i0
    idx, wts = (i0, i0 + 1), (1.0 - f, f)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                yield ((idx[dx][:, 0], idx[dy][:, 1], idx[dz][:, 2]),
                       wts[dx][:, 0] * wts[dy][:, 1] * wts[dz][:, 2])


def _trilinear_gather(values: np.ndarray, t: np.ndarray):
    """Trilinear interpolation of `values` at fractional indices `t` (n, 3)."""
    out = None
    for corner, w in _trilinear_stencil(values.shape, t):
        vals = values[corner]
        if vals.ndim > 1:
            w = w[:, None]
        contrib = w * vals
        out = contrib if out is None else out + contrib
    return out


def sample_trilinear(grid, x: np.ndarray):
    """Trilinearly sample a ScalarGrid, DeformationField, or MACGrid at `x`.

    `x` may be a single position (3,) or a batch (n, 3). Returns scalars for
    ScalarGrid and 3-vectors for the vector-valued grids. Out-of-bounds
    positions clamp to the boundary.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    desc = grid.desc
    origin = np.asarray(desc.origin)
    h = desc.cell_size

    if isinstance(grid, ScalarGrid):
        t = (pts - origin) / h - 0.5
        out = _trilinear_gather(grid.values, t)
    elif isinstance(grid, DeformationField):
        t = (pts - origin) / h - 0.5
        out = _trilinear_gather(grid.vectors, t)
    elif isinstance(grid, MACGrid):
        base = (pts - origin) / h
        out = np.empty((len(pts), 3))
        for c, (comp, off) in enumerate(zip(grid.components(), FACE_OFFSETS)):
            out[:, c] = _trilinear_gather(comp, base - np.asarray(off))
    else:
        raise TypeError(f"cannot sample object of type {type(grid)!r}")
    return out[0] if single else out


def scatter_trilinear(desc: GridDesc, x: np.ndarray, vectors: np.ndarray) -> MACGrid:
    """The transpose of `sample_trilinear` on the MAC layout of `desc`: each
    position of `x` (n, 3) spreads component c of its row of `vectors` onto
    the c-faces with its trilinear weights. A face holds the weighted mean
    of what reaches it, or zero when nothing does.

    Each sum of a component (weighted values, weights) is one `np.bincount`
    over the eight corners' rows in stencil order, which adds each face's
    terms in the order eight `np.add.at` passes would."""
    g = MACGrid.zeros(desc)
    base = (x - np.asarray(desc.origin)) / desc.cell_size
    flat, w = np.empty((8, len(x)), dtype=np.int64), np.empty((8, len(x)))
    for c, (comp, off) in enumerate(zip(g.components(), FACE_OFFSETS)):
        for j, (corner, wj) in enumerate(_trilinear_stencil(comp.shape, base - np.asarray(off))):
            flat[j] = np.ravel_multi_index(corner, comp.shape)
            w[j] = wj
        acc = np.bincount(flat.reshape(-1), (w * vectors[:, c]).reshape(-1), comp.size)
        wsum = np.bincount(flat.reshape(-1), w.reshape(-1), comp.size)
        comp.reshape(-1)[:] = np.where(wsum > 0.0, acc / np.maximum(wsum, 1e-300), 0.0)
    return g


def face_mask(flagged: np.ndarray, axis: int, border: bool) -> np.ndarray:
    """The faces normal to `axis` that touch a flagged cell. A face on the
    grid border touches one cell only; `border` stands in for the other."""
    pad = [(0, 0)] * 3
    pad[axis] = (1, 1)
    padded = np.pad(flagged, pad, constant_values=border)
    lo = padded[tuple(slice(0, -1) if a == axis else slice(None) for a in range(3))]
    hi = padded[tuple(slice(1, None) if a == axis else slice(None) for a in range(3))]
    return lo | hi


def _propagate_layer(vals: np.ndarray, known: np.ndarray):
    """One breadth-first layer: unknown faces adjacent to known ones take the
    mean of their known 6-neighbors. Returns the updated (vals, known)."""
    acc = np.zeros_like(vals)
    cnt = np.zeros(vals.shape, dtype=np.int64)
    for axis in range(3):
        for shift in (1, -1):
            sk = np.roll(known, shift, axis=axis)
            sv = np.roll(vals, shift, axis=axis)
            edge = [slice(None)] * 3
            edge[axis] = slice(0, 1) if shift == 1 else slice(-1, None)
            sk[tuple(edge)] = False
            acc += np.where(sk, sv, 0.0)
            cnt += sk
    frontier = (~known) & (cnt > 0)
    vals = np.where(frontier, acc / np.maximum(cnt, 1), vals)
    return vals, known | frontier


def extrapolate_mac(vel: MACGrid, phi: ScalarGrid) -> MACGrid:
    """Extend face velocities `D_MAC` cells beyond the liquid (phi <= 0).

    Faces adjacent to a liquid cell are treated as known and never modified;
    each breadth-first layer averages the already-known neighbors.
    """
    _require_same_desc(vel.desc, phi.desc)
    out = vel.copy()
    comps = [out.u, out.v, out.w]
    for axis in range(3):
        vals = comps[axis]
        known = face_mask(phi.values <= 0.0, axis, False)
        for _ in range(D_MAC):
            vals, known = _propagate_layer(vals, known)
        comps[axis][...] = vals
    return out


def advect_positions(positions: np.ndarray, vel: MACGrid, dt: float) -> np.ndarray:
    """Midpoint (RK2) advection of positions through a MAC velocity field."""
    v1 = sample_trilinear(vel, positions)
    mid = positions + 0.5 * dt * v1
    vm = sample_trilinear(vel, mid)
    return positions + dt * vm


def pcg(a_mat, b: np.ndarray, tol: float, max_iter: int, norm):
    """Jacobi-preconditioned conjugate gradients on the SPD system a_mat x = b.

    Stops as soon as norm(r) <= tol for the residual r = b - a_mat x,
    checking the zero start first. Returns (x, converged, iterations,
    residual); when `max_iter` iterations do not converge, x is the iterate
    of smallest norm(r) seen and `residual` that norm.
    """
    x = np.zeros_like(b)
    r = b.copy()
    res = norm(r)
    if res <= tol:
        return x, True, 0, res
    inv_diag = 1.0 / a_mat.diagonal()
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    best_x, best_res = x.copy(), res
    for it in range(1, max_iter + 1):
        ad = a_mat @ d
        alpha = rz / float(d @ ad)
        x += alpha * d
        r -= alpha * ad
        res = norm(r)
        if res <= tol:
            return x, True, it, res
        if res < best_res:
            best_res, best_x = res, x.copy()
        z = inv_diag * r
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return best_x, False, max_iter, best_res
