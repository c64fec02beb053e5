"""Smooth blending kernel and the kernel scatter of particle values to cell
centers.

The kernel k(s) = max(0, (1 - s^2)^3) is evaluated on distances expressed in
units of the support radius R, so a particle at distance R contributes zero.
"""

from __future__ import annotations

import numpy as np


def kernel_k(s):
    """Blending kernel max(0, (1 - s^2)^3); accepts scalars or arrays."""
    s = np.asarray(s, dtype=np.float64)
    out = np.maximum(0.0, (1.0 - s * s)) ** 3
    if out.ndim == 0:
        return float(out)
    return out


def _scatter_terms(positions: np.ndarray, origin: np.ndarray, h: float,
                   dims: tuple[int, int, int], support: float):
    """Yield (flat cell, weight, particle) of every nonzero term of one
    window offset, offset by offset in lexicographic order, each in particle
    order."""
    reach = int(np.ceil(support / h)) + 1
    limit = (support / h) ** 2 * (1.0 + 1e-9)
    approach = {o: max(0, o - 1, -o) ** 2 for o in range(-reach, reach + 1)}
    window = [o for o, a in approach.items() if a <= limit]
    # per axis and offset: each particle's term of the flat cell index and its
    # squared distance to the cell center, inf outside the grid (weight 0);
    # base cells are clipped to one cell beyond the window, which keeps every
    # outside cell outside and the indices within int32
    pidx = np.floor((positions - origin) / h - 0.5)
    strides = (dims[1] * dims[2], dims[2], 1)
    flat, sq = [], []
    for a in range(3):
        base = np.clip(pidx[:, a], -reach - 1, dims[a] + reach).astype(np.int32)
        fa, sa = {}, {}
        for o in window:
            c = base + np.int32(o)
            dlt = (origin[a] + (c + 0.5) * h) - positions[:, a]
            dlt *= dlt
            dlt[(c < 0) | (c >= dims[a])] = np.inf
            fa[o], sa[o] = c * np.int32(strides[a]), dlt
        flat.append(fa)
        sq.append(sa)
    near = (support * support) * (1.0 + 1e-9)       # d2 bound of every nonzero weight
    for dx in window:
        for dy in window:
            if approach[dx] + approach[dy] > limit:
                continue
            sxy = sq[0][dx] + sq[1][dy]
            fxy = flat[0][dx] + flat[1][dy]
            for dz in window:
                if approach[dx] + approach[dy] + approach[dz] > limit:
                    continue
                d2 = sxy + sq[2][dz]
                i = np.flatnonzero(d2 <= near).astype(np.int32)
                w = kernel_k(np.sqrt(d2[i]) / support)
                hit = w > 0.0
                i = i[hit]
                yield fxy[i] + flat[2][dz][i], w[hit], i


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
    cells are skipped, so the sums are those of the full window.

    Order rule: each cell's sums start at 0.0 and add their terms offset by
    offset, and within an offset by particle index, through one
    `np.bincount` per output channel. |c - x| is
    sqrt((dx*dx + dy*dy) + dz*dz), the bits `np.linalg.norm` gives.
    """
    if not (support > 0.0 and h > 0.0):
        raise ValueError(f"support and cell size must be positive, got {support} and {h}")
    origin = np.asarray(origin, dtype=np.float64)
    cells, w, rows = map(np.concatenate, zip(*_scatter_terms(positions, origin, h,
                                                             dims, support)))
    n = dims[0] * dims[1] * dims[2]
    wsum = np.bincount(cells, weights=w, minlength=n).reshape(dims)
    acc = np.zeros(dims + (values.shape[1],))
    for ch in range(values.shape[1]):
        acc[..., ch] = np.bincount(cells, weights=w * values[rows, ch],
                                   minlength=n).reshape(dims)
    return wsum, acc
