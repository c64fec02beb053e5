"""Signed distance construction from particle clouds.

The surface is the blended union of particle spheres: each cell center inside
the kernel support gets phi = |x - x_bar| - r, where x_bar is the
kernel-weighted average of nearby particle positions. Cells whose blended
value straddles the interface are trusted as-is; everything else is
redistanced by iterating the eikonal update |grad phi| = 1 to its fixed point
(a Jacobi-style form of the fast-sweeping quadratic update, chosen so the
whole grid updates as vectorized array passes).
"""

from __future__ import annotations

import numpy as np

from .grids import GridDesc, ScalarGrid
from .kernels import kernel_scatter
from .particles import ParticleSet

_FAR = 1e30


def _blended_sphere_field(p: ParticleSet, desc: GridDesc, radius: float, support: float):
    """Zhu-Bridson blend on cells within the particle footprint.

    Returns (phi, covered) where covered marks cells with nonzero kernel mass;
    outside the footprint the liquid cannot reach, so phi is a positive far
    field there.
    """
    wsum, xsum = kernel_scatter(p.positions, p.positions, desc.origin, desc.cell_size,
                                desc.dims, support)
    covered = wsum > 0.0
    phi = np.full(desc.dims, _FAR)
    if covered.any():
        xbar = xsum[covered] / wsum[covered][:, None]
        centers = desc.cell_centers()[covered]
        phi[covered] = np.linalg.norm(centers - xbar, axis=1) - radius
    return phi, covered


def _interface_cells(phi: np.ndarray) -> np.ndarray:
    """Cells whose 6-neighborhood straddles the zero level set."""
    sign = phi <= 0.0
    iface = np.zeros(phi.shape, dtype=bool)
    for axis in range(3):
        lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(3))
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        flip = sign[lo] != sign[hi]
        iface[lo] |= flip
        iface[hi] |= flip
    return iface


def _axis_min_neighbor(u: np.ndarray, axis: int) -> np.ndarray:
    """Per-cell minimum of the two neighbors along `axis` (edge cells use the
    single interior neighbor)."""
    fwd = np.full_like(u, _FAR)
    bwd = np.full_like(u, _FAR)
    src_lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(3))
    dst_hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
    bwd[dst_hi] = u[src_lo]
    fwd[src_lo] = u[dst_hi]
    return np.minimum(fwd, bwd)


def _eikonal_update(u: np.ndarray, h: float) -> np.ndarray:
    """One Jacobi pass of the |grad u| = 1 quadratic update from neighbor minima."""
    a = np.stack([_axis_min_neighbor(u, ax) for ax in range(3)])
    a.sort(axis=0)
    a1, a2, a3 = a[0], a[1], a[2]
    x = a1 + h
    # widen to two then three axes where the one-axis solution overshoots
    need2 = x > a2
    if need2.any():
        disc = 2.0 * h * h - (a1 - a2) ** 2
        x2 = 0.5 * (a1 + a2 + np.sqrt(np.maximum(disc, 0.0)))
        x = np.where(need2, x2, x)
        need3 = need2 & (x > a3)
        if need3.any():
            s = a1 + a2 + a3
            disc = s * s - 3.0 * (a1 * a1 + a2 * a2 + a3 * a3 - h * h)
            x3 = (s + np.sqrt(np.maximum(disc, 0.0))) / 3.0
            x = np.where(need3, x3, x)
    return np.minimum(u, x)


def redistance(phi: np.ndarray, frozen: np.ndarray, h: float) -> np.ndarray:
    """Rebuild |phi| as a distance from the frozen interface band, keeping signs.

    `frozen` cells keep their values exactly; all other magnitudes are solved
    from the eikonal equation, in at most twice the sum of the grid's
    dimensions Jacobi passes.
    """
    sign = np.where(phi <= 0.0, -1.0, 1.0)
    u = np.where(frozen, np.abs(phi), _FAR)
    for _ in range(2 * int(sum(phi.shape))):
        nxt = _eikonal_update(u, h)
        nxt = np.where(frozen, u, nxt)
        if np.max(np.abs(nxt - u)) < 1e-12 * h:
            u = nxt
            break
        u = nxt
    return sign * u


def surface_radius(desc: GridDesc) -> float:
    """Particle sphere radius of the liquid surface on `desc`: three quarters
    of a cell."""
    return 0.75 * desc.cell_size


def sdf_from_particles(p: ParticleSet, desc: GridDesc,
                       radius: float | None = None) -> ScalarGrid:
    """Signed distance field of the particle liquid on `desc`.

    Negative inside, positive outside; values near the zero level set come
    from the blended-sphere construction, values farther out from
    redistancing. Spheres have `radius` (default `surface_radius(desc)`),
    and the blend reaches twice the radius from each particle.

    Requires at least one particle.
    """
    if radius is None:
        radius = surface_radius(desc)
    if p.count == 0:
        raise ValueError("cannot build an SDF from an empty particle set")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    phi, covered = _blended_sphere_field(p, desc, radius, 2.0 * radius)
    frozen = _interface_cells(phi) & covered
    if not frozen.any():
        # surface finer than the grid: trust every covered cell instead
        frozen = covered
    values = redistance(phi, frozen, desc.cell_size)
    return ScalarGrid(desc, values)
