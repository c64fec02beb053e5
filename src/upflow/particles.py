"""Particle state, neighbour queries, and particle advection.

This module holds the package's one neighbour search: every radius or
nearest-point query, in any dimension, goes through `radius_pairs` or
`nearest_points`, and no other module builds a cKDTree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .grids import MACGrid, advect_positions, sample_trilinear


@dataclass
class ParticleSet:
    """Unordered particle liquid: positions and velocities in world units."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64).reshape(-1, 3)
        if len(self.positions) != len(self.velocities):
            raise ValueError(
                f"positions ({len(self.positions)}) and velocities "
                f"({len(self.velocities)}) differ in length")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ValueError("particle state contains non-finite components")

    @property
    def count(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls) -> "ParticleSet":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)))

    def copy(self) -> "ParticleSet":
        return ParticleSet(self.positions.copy(), self.velocities.copy())


def radius_pairs(points: np.ndarray, queries: np.ndarray, radius: float):
    """Every (query, point) pair with d2 = sum((p - q)**2) <= radius**2, as
    arrays (rows, cols, d2) in no particular order. The cKDTree search runs
    on a radius 1e-9 larger, relatively, so its own distance rounding loses
    no pair; d2 alone decides membership."""
    pairs = cKDTree(queries).sparse_distance_matrix(
        cKDTree(points), radius * (1.0 + 1e-9), output_type="ndarray")
    rows, cols = pairs["i"], pairs["j"]
    d2 = np.sum((points[cols] - queries[rows]) ** 2, axis=1)
    keep = d2 <= radius * radius
    return rows[keep], cols[keep], d2[keep]


def nearest_points(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest point for every query: the lowest index among the
    points of least d2 = sum((p - q)**2), as a brute-force argmin over d2
    picks it. The cKDTree's nearest wins outright when its second nearest is
    farther by a relative 1e-6, far beyond its distance rounding; for every
    other query, all points within the nearest distance (plus 1e-9,
    relatively) are re-checked by d2. They come from k-nearest queries,
    with k doubled until the k-th nearest lies beyond that distance."""
    tree = cKDTree(points)
    dist, idx = tree.query(queries, k=2)
    out = idx[:, 0].copy()
    unsure = np.flatnonzero(dist[:, 1] <= dist[:, 0] * (1.0 + 1e-6))
    bound = dist[unsure, 0] * (1.0 + 1e-9)
    k = 4
    while len(unsure):
        k = min(2 * k, len(points))
        dist, cols = tree.query(queries[unsure], k=k)
        done = (dist[:, -1] > bound) | (k == len(points))
        rows, cols = unsure[done], cols[done]
        d2 = np.sum((points[cols] - queries[rows, None]) ** 2, axis=2)
        least = d2 == d2.min(axis=1, keepdims=True)
        out[rows] = np.where(least, cols, len(points)).min(axis=1)
        unsure, bound = unsure[~done], bound[~done]
    return out


def advect_particles(p: ParticleSet, vel: MACGrid, dt: float) -> ParticleSet:
    """Advance particles by RK2 through the grid; velocities re-sampled at the
    new positions. Count is preserved."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    new_pos = advect_positions(p.positions, vel, dt)
    new_vel = sample_trilinear(vel, new_pos) if p.count else p.velocities.copy()
    return ParticleSet(new_pos, np.atleast_2d(new_vel))


def hash_uniform(*streams: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-uniforms in [0, 1) from integer id streams.

    SplitMix64-style mixing of the combined ids; used for reproducible
    jittered seeding keyed by (seed, frame, cell, slot) independent of how
    many other cells are being seeded.
    """
    acc = np.zeros_like(np.broadcast_arrays(*streams)[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for s in streams:
            acc = acc * np.uint64(0x9E3779B97F4A7C15) + np.asarray(s, dtype=np.uint64)
        z = acc + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)
