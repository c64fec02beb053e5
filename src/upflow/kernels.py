"""Smooth blending kernel, normalized neighborhood weights, and the kernel
scatter of particle values to cell centers.

The kernel k(s) = max(0, (1 - s^2)^3) is evaluated on distances expressed in
units of the support radius R, so a particle at distance R contributes zero.
Normalized weights drop the common 1/R factor, which cancels in the ratio.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyNeighborhood


def kernel_k(s):
    """Blending kernel max(0, (1 - s^2)^3); accepts scalars or arrays."""
    s = np.asarray(s, dtype=np.float64)
    out = np.maximum(0.0, (1.0 - s * s)) ** 3
    if out.ndim == 0:
        return float(out)
    return out


def neighborhood_weights(center: np.ndarray, neighbors: np.ndarray, radius: float) -> np.ndarray:
    """Normalized kernel weights of `neighbors` (n, 3) around `center` (3,).

    Weights sum to 1; particles at distance >= radius get weight 0.
    Raises EmptyNeighborhood when no particle lies strictly inside the radius.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    neighbors = np.asarray(neighbors, dtype=np.float64).reshape(-1, 3)
    d = np.linalg.norm(neighbors - np.asarray(center, dtype=np.float64), axis=1)
    w = kernel_k(d / radius)
    total = w.sum()
    if total <= 0.0:
        raise EmptyNeighborhood(f"no particle within radius {radius} of {center}")
    return w / total


def kernel_scatter(positions: np.ndarray, values: np.ndarray, origin, h: float,
                   dims: tuple[int, int, int], support: float):
    """Kernel-weighted scatter of per-particle values to cell centers.

    Every particle adds kernel_k(|c - x| / support) to the weight of each
    cell center c, and that weight times its value row to the cell's
    accumulator. Returns (wsum, acc) of shapes `dims` and
    `dims + (values.shape[1],)`. Raises ValueError unless `support` and `h`
    are positive.

    Offsets o from a particle's base cell (the nearest cell center at or
    below it on every axis) are visited in lexicographic order within
    ceil(support / h) + 1 cells; an offset is skipped when its nearest
    approach, sum(max(0, o - 1, -o)**2) in cells squared, lies beyond the
    support (with a 1e-9 relative margin against rounding). Only weightless
    cells are skipped, so the sums are those of the full window in the same
    order.
    """
    if not (support > 0.0 and h > 0.0):
        raise ValueError(f"support and cell size must be positive, got {support} and {h}")
    nx, ny, nz = dims
    origin = np.asarray(origin)
    wsum = np.zeros(dims)
    acc = np.zeros(dims + (values.shape[1],))
    pidx = np.floor((positions - origin) / h - 0.5).astype(np.int64)
    reach = int(np.ceil(support / h)) + 1
    window = range(-reach, reach + 1)
    approach = {o: max(0, o - 1, -o) ** 2 for o in window}
    limit = (support / h) ** 2 * (1.0 + 1e-9)
    for dx in window:
        for dy in window:
            for dz in window:
                if approach[dx] + approach[dy] + approach[dz] > limit:
                    continue
                cell = pidx + np.array([dx, dy, dz])
                ok = np.all((cell >= 0) & (cell < np.array([nx, ny, nz])), axis=1)
                if not ok.any():
                    continue
                cell = cell[ok]
                centers = origin + (cell + 0.5) * h
                d = np.linalg.norm(centers - positions[ok], axis=1)
                w = kernel_k(d / support)
                m = w > 0.0
                if not m.any():
                    continue
                flat = (cell[m, 0] * ny + cell[m, 1]) * nz + cell[m, 2]
                np.add.at(wsum.reshape(-1), flat, w[m])
                np.add.at(acc.reshape(-1, acc.shape[-1]), flat, w[m][:, None] * values[ok][m])
    return wsum, acc
