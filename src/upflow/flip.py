"""Minimal FLIP/PIC liquid solver used to generate paired training scenes.

One deliberately small solver: trilinear particle/grid transfers (the
stencil of `grids.sample_trilinear` and its transpose
`grids.scatter_trilinear`), solid faces masked once per solver, a pressure
projection solved with Jacobi-preconditioned CG, RK2 particle advection,
and narrow-band resampling. Scenes are described by an obstacle
shape, an emitter, a container, and optionally an initial liquid volume so
that parameter sweeps can enumerate simulation pairs.

One solid model decides where liquid may be: the open box from
``origin + h`` to ``min(origin + container_dims, upper - h)`` minus the
inside of the obstacle SDF. A cell is solid when its center lies outside
that region, so the one-cell border of the grid is always solid; seeding,
emission and the push-out of advected particles test the same region.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .errors import SolverDiverged, check_positive
from .grids import (GridDesc, MACGrid, ScalarGrid, extrapolate_mac, face_mask, pcg,
                    sample_trilinear, scatter_trilinear)
from .particles import ParticleSet, advect_particles, hash_uniform, nearest_points

SHAPES = ("sphere", "cube", "cylinder", "torus", "wedge", "frame")
_PUSH_RETRIES = 4          # push-out steps after the first, for particles still inside
_MAX_SUBSTEPS = 8          # CFL substeps per frame; a frame needing more is warned about


@dataclass
class SimParams:
    """Resolution and integration parameters of one simulation track.

    Each cell is seeded with ``particles_per_cell`` = n^3 jittered particles,
    n per axis, as in Zhu and Bridson's FLIP. The solver controls (`cfl`,
    `pressure_tol`, `pressure_max_iter`, `max_particles`) are class constants.
    """

    domain: GridDesc
    gravity: tuple[float, float, float] = (0.0, -9.81, 0.0)
    flip_ratio: float = 0.95
    dt: float = 1.0 / 30.0
    particles_per_cell: int = 8

    cfl: ClassVar[float] = 2.0
    pressure_tol: ClassVar[float] = 1e-6        # max residual divergence after projection
    pressure_max_iter: ClassVar[int] = 4000
    max_particles: ClassVar[int] = 200_000

    def __post_init__(self):
        check_positive("dt", self.dt)
        if not 0.0 <= self.flip_ratio <= 1.0:
            raise ValueError(f"flip_ratio must lie in [0, 1], got {self.flip_ratio}")
        n = self.particles_per_cell
        if n < 1 or self.seeds_per_axis ** 3 != n:
            raise ValueError(f"particles_per_cell must be a cube n**3 >= 1, got {n}")

    @property
    def seeds_per_axis(self) -> int:
        """Jittered seeds along each cell axis: the cube root of `particles_per_cell`."""
        return round(self.particles_per_cell ** (1.0 / 3.0))

    @property
    def particle_spacing(self) -> float:
        """Seeded particle spacing: the cell size over the seeds per axis."""
        return self.domain.cell_size / self.seeds_per_axis

    @classmethod
    def for_domain(cls, ps: float, gs: float, origin, extent, **kw) -> "SimParams":
        """Build params with the cell size tied to the particle separation `ps`
        and the grid scale `gs` (cell = 2 * ps * gs), rounding dims to cover
        `extent`. At 8 particles per cell the seeded spacing is ps * gs."""
        check_positive("particle_separation", ps)
        if gs < 1.0:
            raise ValueError("grid_scale must be >= 1")
        h = 2.0 * ps * gs
        dims = tuple(max(2, int(round(e / h))) for e in extent)
        return cls(GridDesc(tuple(origin), h, dims), **kw)


@dataclass
class SceneSpec:
    """Initial conditions of one scenario: obstacle, emitter, container, liquid."""

    obstacle_shape: str = "none"
    obstacle_position: tuple[float, float, float] = (0.5, 0.35, 0.5)
    emitter_position: tuple[float, float, float] = (0.5, 0.85, 0.5)
    container_dims: tuple[float, float, float] = (1.0, 1.0, 1.0)
    obstacle_size: float = 0.12
    emit_rate: int = 0                  # particles per frame, 0 disables the emitter
    emit_speed: float = 1.5
    emit_radius: float = 0.06
    pool_depth: float = 0.0             # initial pool height, fraction of container
    liquid_shape: str | None = None     # initial liquid volume (falls under gravity)
    liquid_position: tuple[float, float, float] = (0.5, 0.65, 0.5)
    liquid_size: float = 0.15

    def __post_init__(self):
        if self.obstacle_shape not in SHAPES + ("none",):
            raise ValueError(f"unknown obstacle shape {self.obstacle_shape!r}")
        if self.liquid_shape is not None and self.liquid_shape not in SHAPES:
            raise ValueError(f"unknown liquid shape {self.liquid_shape!r}")

    def emit_direction(self) -> np.ndarray:
        """Unit vector from the emitter toward the obstacle (or the container
        centroid when there is no obstacle)."""
        target = np.asarray(self.obstacle_position if self.obstacle_shape != "none"
                            else self.container_dims) * (1.0 if self.obstacle_shape != "none" else 0.5)
        d = target - np.asarray(self.emitter_position)
        n = np.linalg.norm(d)
        return d / n if n > 0 else np.array([0.0, -1.0, 0.0])


@dataclass
class SimFrame:
    """One output frame: the particle state and the projected MAC velocities."""

    particles: ParticleSet
    velocity: MACGrid


def shape_sdf(shape: str, pos, size: float, x: np.ndarray) -> np.ndarray:
    """Approximate signed distance of the named shape at points x (n, 3)."""
    p = np.atleast_2d(x) - np.asarray(pos, dtype=np.float64)
    if shape == "sphere":
        return np.linalg.norm(p, axis=1) - size
    if shape == "cube":
        q = np.abs(p) - size
        return (np.linalg.norm(np.maximum(q, 0.0), axis=1)
                + np.minimum(np.max(q, axis=1), 0.0))
    if shape == "cylinder":
        r = np.hypot(p[:, 0], p[:, 2]) - size
        hy = np.abs(p[:, 1]) - size
        q = np.stack([r, hy], axis=1)
        return (np.linalg.norm(np.maximum(q, 0.0), axis=1)
                + np.minimum(np.max(q, axis=1), 0.0))
    if shape == "torus":
        ring = np.hypot(np.hypot(p[:, 0], p[:, 2]) - size, p[:, 1])
        return ring - size / 3.0
    if shape == "wedge":
        cube = shape_sdf("cube", (0, 0, 0), size, p)
        slant = (p[:, 0] + p[:, 1]) / np.sqrt(2.0)
        return np.maximum(cube, slant)
    if shape == "frame":
        outer = shape_sdf("cube", (0, 0, 0), size, p)
        inner = shape_sdf("cube", (0, 0, 0), 0.7 * size, p)
        return np.maximum(outer, -inner)
    raise ValueError(f"unknown shape {shape!r}")


class FlipSolver:
    """Steppable FLIP solver for a single scene/resolution combination."""

    def __init__(self, scene: SceneSpec, params: SimParams, seed: int = 0):
        self.scene = scene
        self.params = params
        self.seed = int(seed)
        self.frame = 0
        self.desc = params.domain
        self._check_geometry()
        lo, h = np.asarray(self.desc.origin), self.desc.cell_size
        self.box = (lo + h, np.minimum(lo + np.asarray(scene.container_dims), self.desc.upper - h))
        # the box leaves every border cell's center outside, so the one-cell
        # border is solid and each fluid cell has all six neighbours on the grid
        centers = self.desc.cell_centers().reshape(-1, 3)
        self.solid = self._in_solid(centers).reshape(self.desc.dims)
        self.solid_faces = [face_mask(self.solid, axis, True) for axis in range(3)]
        self.particles = self._seed_initial()
        self.last_fluid = np.zeros(self.desc.dims, dtype=bool)

    # -- setup -----------------------------------------------------------

    def _check_geometry(self):
        """Reject an obstacle or an emitter outside the domain, and an emitter
        outside the container (it would emit into the solid: nothing). A
        scene without an obstacle or with the emitter off does not use that
        position, so it is not checked."""
        s = self.scene
        lo = np.asarray(self.desc.origin)
        hi = self.desc.upper
        used = [("obstacle", s.obstacle_position)] if s.obstacle_shape != "none" else []
        if s.emit_rate > 0:
            used.append(("emitter", s.emitter_position))
        for name, pos in used:
            p = np.asarray(pos)
            if np.any(p < lo) or np.any(p > hi):
                raise ValueError(f"{name} position {pos} lies outside the domain")
        top = lo + np.asarray(s.container_dims)
        emitter = np.asarray(s.emitter_position)
        if s.emit_rate > 0 and (np.any(emitter < lo) or np.any(emitter > top)):
            raise ValueError(f"emitter position {s.emitter_position} lies outside "
                             f"the container {s.container_dims}")

    def _stratified_fill(self, cells: np.ndarray, tag: int) -> np.ndarray:
        """Jittered per-cell seeding of `particles_per_cell` positions."""
        n_axis = self.params.seeds_per_axis
        h = self.desc.cell_size
        origin = np.asarray(self.desc.origin)
        cell_ids = np.ravel_multi_index(cells.T, self.desc.dims)
        slots = np.arange(n_axis ** 3)
        sid, cid = np.meshgrid(slots, cell_ids, indexing="ij")
        sub = np.stack([sid // (n_axis * n_axis), (sid // n_axis) % n_axis, sid % n_axis], axis=-1)
        jit = np.stack([hash_uniform(np.full(cid.shape, self.seed), cid, sid, np.full(cid.shape, tag + a))
                        for a in range(3)], axis=-1)
        base = origin + cells[None, :, :] * h
        pos = base + (sub + jit) * (h / n_axis)
        return pos.reshape(-1, 3)

    def _seed_initial(self) -> ParticleSet:
        nx, ny, nz = self.desc.dims
        centers = self.desc.cell_centers()
        fill = np.zeros(self.desc.dims, dtype=bool)
        if self.scene.pool_depth > 0.0:
            top = self.desc.origin[1] + self.scene.pool_depth * self.scene.container_dims[1]
            fill |= centers[..., 1] < top
        if self.scene.liquid_shape is not None:
            phi = shape_sdf(self.scene.liquid_shape, self.scene.liquid_position,
                            self.scene.liquid_size, centers.reshape(-1, 3))
            fill |= (phi < 0.0).reshape(self.desc.dims)
        fill &= ~self.solid
        cells = np.argwhere(fill)
        if len(cells) == 0:
            return ParticleSet.empty()
        pos = self._stratified_fill(cells, tag=101)
        keep = ~self._in_solid(pos)
        pos = pos[keep]
        return ParticleSet(pos, np.zeros_like(pos))

    # -- helpers ---------------------------------------------------------

    def _obstacle_phi(self, x: np.ndarray) -> np.ndarray:
        """Signed distance to the obstacle at points x (n, 3); +inf without one."""
        s = self.scene
        if s.obstacle_shape == "none":
            return np.full(len(x), np.inf)
        return shape_sdf(s.obstacle_shape, s.obstacle_position, s.obstacle_size, x)

    def _in_solid(self, pos: np.ndarray) -> np.ndarray:
        lo, hi = self.box
        return (np.any(pos < lo, axis=1) | np.any(pos > hi, axis=1)
                | (self._obstacle_phi(pos) < 0.0))

    def _emit(self):
        n = self.scene.emit_rate
        if n <= 0 or self.particles.count + n > self.params.max_particles:
            return
        slots = np.arange(n)
        rnd = np.stack([hash_uniform(np.full(n, self.seed), np.full(n, self.frame),
                                     slots, np.full(n, 7 + a)) for a in range(3)], axis=-1)
        offs = (rnd - 0.5) * 2.0 * self.scene.emit_radius
        pos = np.asarray(self.scene.emitter_position) + offs
        vel = np.tile(self.scene.emit_direction() * self.scene.emit_speed, (n, 1))
        keep = ~self._in_solid(pos)
        self.particles = ParticleSet(
            np.concatenate([self.particles.positions, pos[keep]]),
            np.concatenate([self.particles.velocities, vel[keep]]))

    def _classify(self) -> np.ndarray:
        fluid = np.zeros(self.desc.dims, dtype=bool)
        if self.particles.count:
            idx = self.desc.cell_index(self.particles.positions)
            fluid[idx[:, 0], idx[:, 1], idx[:, 2]] = True
        return fluid & ~self.solid

    def _apply_boundary(self, g: MACGrid):
        for comp, mask in zip(g.components(), self.solid_faces):
            comp[mask] = 0.0

    def _divergence(self, g: MACGrid) -> np.ndarray:
        h = self.desc.cell_size
        return ((g.u[1:, :, :] - g.u[:-1, :, :])
                + (g.v[:, 1:, :] - g.v[:, :-1, :])
                + (g.w[:, :, 1:] - g.w[:, :, :-1])) / h

    def _project(self, g: MACGrid, dt: float):
        fluid = self._classify()
        self.last_fluid = fluid
        n_fluid = int(fluid.sum())
        if n_fluid == 0:
            return
        h = self.desc.cell_size
        idx = -np.ones(self.desc.dims, dtype=np.int64)
        idx[fluid] = np.arange(n_fluid)
        # the assembled stencil is the negative Laplacian (SPD), so the
        # pressure equation reads  (-Lap) p = -div/dt
        div = -self._divergence(g)[fluid] / dt

        # fluid cells lie inside the solid border, so every neighbour comes
        # from a shifted mask; solid neighbours drop out of the stencil entirely
        is_open = ~self.solid
        diag = np.zeros(self.desc.dims)
        rows, cols = [np.arange(n_fluid)], [np.arange(n_fluid)]
        for axis in range(3):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            diag[lo] += is_open[hi]
            diag[hi] += is_open[lo]
            pair = fluid[lo] & fluid[hi]
            rows += [idx[lo][pair], idx[hi][pair]]
            cols += [idx[hi][pair], idx[lo][pair]]
        vals = np.full(sum(map(len, rows)), -1.0)
        vals[:n_fluid] = np.maximum(diag[fluid], 1e-12)
        a_mat = sp.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n_fluid, n_fluid)) / (h * h)

        # post-projection divergence equals dt * residual, so target tol/dt
        p, ok, _, _ = pcg(a_mat, div, self.params.pressure_tol / dt,
                          self.params.pressure_max_iter,
                          lambda r: float(np.max(np.abs(r))))
        if not ok:
            raise SolverDiverged(
                f"pressure CG exceeded {self.params.pressure_max_iter} iterations")

        pr = np.zeros(self.desc.dims)
        pr[fluid] = p
        for axis, (comp, solid) in enumerate(zip(g.components(), self.solid_faces)):
            grad = np.zeros_like(comp)
            grad[(slice(None),) * axis + (slice(1, -1),)] = np.diff(pr, axis=axis) / h
            comp -= np.where(face_mask(fluid, axis, False) & ~solid, grad, 0.0) * dt

    def _grid_to_particles(self, new: MACGrid, old: MACGrid):
        if not self.particles.count:
            return
        pos = self.particles.positions
        v_new = sample_trilinear(new, pos)
        v_old = sample_trilinear(old, pos)
        r = self.params.flip_ratio
        self.particles.velocities[...] = (
            r * (self.particles.velocities + v_new - v_old) + (1.0 - r) * v_new)

    def _push_out_of_solids(self, pos: np.ndarray) -> np.ndarray:
        """Clamp positions into the open box, then step every particle inside
        the obstacle to a quarter cell outside its surface, along the SDF's
        central-difference gradient. Near a thin wall or an edge that step can
        land inside again, so the particles still inside are pushed again, up
        to `_PUSH_RETRIES` more times; any left inside after that are counted
        in a warning."""
        h = self.desc.cell_size
        eps = 1e-4 * h
        pos = np.clip(pos, self.box[0] + eps, self.box[1] - eps)
        phi = self._obstacle_phi(pos)
        inside = np.flatnonzero(phi < 0.0)
        phi = phi[inside]
        step = 0.5 * h
        for _ in range(1 + _PUSH_RETRIES):
            if not len(inside):
                return pos
            q = pos[inside]
            grad = np.zeros((len(inside), 3))
            for a in range(3):
                d = np.zeros(3)
                d[a] = step
                grad[:, a] = (self._obstacle_phi(q + d) - self._obstacle_phi(q - d)) / (2 * step)
            norm = np.linalg.norm(grad, axis=1, keepdims=True)
            grad = np.where(norm > 0, grad / np.maximum(norm, 1e-12), 0.0)
            pos[inside] = q - grad * (phi[:, None] - 0.25 * h)
            phi = self._obstacle_phi(pos[inside])
            still = phi < 0.0
            inside, phi = inside[still], phi[still]
        warnings.warn(f"{len(inside)} particles remain inside the {self.scene.obstacle_shape} "
                      f"obstacle after {1 + _PUSH_RETRIES} push-out steps", RuntimeWarning)
        return pos

    # -- stepping --------------------------------------------------------

    def step(self) -> SimFrame:
        """Advance one frame in CFL substeps, at most `_MAX_SUBSTEPS` of them;
        a frame that needs more warns, naming both counts."""
        self._emit()
        dt = self.params.dt
        h = self.desc.cell_size
        vmax = float(np.abs(self.particles.velocities).max()) if self.particles.count else 0.0
        vmax = max(vmax, np.linalg.norm(self.params.gravity) * dt)
        needed = max(1.0, float(np.ceil(vmax * dt / (self.params.cfl * h))))
        if needed > _MAX_SUBSTEPS:
            warnings.warn(f"frame {self.frame} needs {needed:.0f} CFL substeps; taking "
                          f"{_MAX_SUBSTEPS}", RuntimeWarning)
        n_sub = int(min(needed, _MAX_SUBSTEPS))
        grid = MACGrid.zeros(self.desc)
        for _ in range(n_sub):
            grid = self._substep(dt / n_sub)
        self.frame += 1
        return SimFrame(self.particles.copy(), grid)

    def _substep(self, dt: float) -> MACGrid:
        grid = scatter_trilinear(self.desc, self.particles.positions,
                                 self.particles.velocities)
        self._apply_boundary(grid)
        old = grid.copy()
        g = np.asarray(self.params.gravity)
        if np.any(g != 0.0):
            for comp, g_axis in zip(grid.components(), g):
                comp += g_axis * dt
            self._apply_boundary(grid)
        self._project(grid, dt)
        self._apply_boundary(grid)
        # positions integrate through the time-centered field (average of the
        # pre-force transfer and the projected result): exact for free fall,
        # driftless for a balanced hydrostatic column
        mid = MACGrid(self.desc, 0.5 * (grid.u + old.u), 0.5 * (grid.v + old.v),
                      0.5 * (grid.w + old.w))
        fluid_phi = ScalarGrid(self.desc, np.where(self.last_fluid, -1.0, 1.0))
        advect_grid = extrapolate_mac(mid, fluid_phi)
        self._grid_to_particles(grid, old)
        if self.particles.count:
            moved = advect_particles(self.particles, advect_grid, dt)
            pos = self._push_out_of_solids(moved.positions)
            self.particles = ParticleSet(pos, self.particles.velocities)
        return grid

    def divergence(self, g: MACGrid) -> np.ndarray:
        """Divergence restricted to the fluid cells of the latest projection."""
        return np.where(self.last_fluid, self._divergence(g), 0.0)


def simulate(scene: SceneSpec, params: SimParams, frames: int, seed: int = 0) -> list[SimFrame]:
    """Run `frames` steps of the scene; deterministic for a fixed seed."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    solver = FlipSolver(scene, params, seed=seed)
    return [solver.step() for _ in range(frames)]


def resample_narrow_band(p: ParticleSet, phi: ScalarGrid, d_b: int,
                         target_per_cell: int = 8, seed: int = 0,
                         frame: int = 0) -> ParticleSet:
    """Rebuild the particle set so it populates only the liquid-side surface band.

    Particles outside the liquid or deeper than ``d_b`` cells are dropped;
    underfull band cells are refilled with jittered seeds (deterministic in
    (seed, frame, cell, slot)); overfull cells are thinned to the target.
    The survivors come first, with their own velocities, then the seeds.
    Each seed copies the velocity of its nearest survivor (the lowest index
    among equally near ones), so every velocity in the band is one the
    input carried; seeds get zero velocity when no particle survives.
    Raises ValueError for ``d_b`` or ``target_per_cell`` below 1.
    """
    if d_b < 1:
        raise ValueError(f"d_b must be >= 1, got {d_b}")
    if target_per_cell < 1:
        raise ValueError(f"target_per_cell must be >= 1, got {target_per_cell}")
    desc = phi.desc
    h = desc.cell_size
    depth = d_b * h

    phi_p = sample_trilinear(phi, p.positions) if p.count else np.zeros(0)
    keep = (phi_p <= 0.0) & (phi_p >= -depth)
    pos = p.positions[keep]
    vel = p.velocities[keep]

    ci = desc.cell_index(pos)
    flat = np.ravel_multi_index(ci.T, desc.dims)
    counts = np.bincount(flat, minlength=desc.num_cells).reshape(desc.dims)

    band = (phi.values <= 0.0) & (phi.values >= -depth)
    need_cells = np.argwhere(band & (counts < target_per_cell))

    added = np.zeros((0, 3))
    if len(need_cells):
        have = counts[need_cells[:, 0], need_cells[:, 1], need_cells[:, 2]]
        cell_ids = np.ravel_multi_index(need_cells.T, desc.dims)
        # 4 x target candidates for every underfull cell at once: (cells, slots, 3)
        slots = np.arange(4 * target_per_cell)
        jit = np.stack([hash_uniform(np.int64(seed), np.int64(frame), cell_ids[:, None],
                                     slots * 3 + a) for a in range(3)], axis=-1)
        cand = np.asarray(desc.origin) + (need_cells[:, None, :] + jit) * h
        phi_c = sample_trilinear(phi, cand.reshape(-1, 3)).reshape(len(need_cells), -1)
        ok = (phi_c <= 0.0) & (phi_c >= -depth)
        # each cell takes its valid candidates ranked [have, target), in cell
        # then slot order: skipping the first `have` keeps a re-run of the
        # resample on its own output from duplicating earlier seeds
        rank = np.cumsum(ok, axis=1) - 1
        added = cand[ok & (have[:, None] <= rank) & (rank < target_per_cell)]

    # thin overfull cells, keeping the lexicographically smallest positions
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], flat))
    flat_sorted = flat[order]
    rank = np.empty(len(pos), dtype=np.int64)
    rank[order] = np.arange(len(pos)) - np.searchsorted(flat_sorted, flat_sorted)
    keep2 = rank < target_per_cell
    pos, vel = pos[keep2], vel[keep2]
    if len(added):
        seed_vel = vel[nearest_points(pos, added)] if len(pos) else np.zeros_like(added)
        pos = np.concatenate([pos, added])
        vel = np.concatenate([vel, seed_vel])
    return ParticleSet(pos, vel)
