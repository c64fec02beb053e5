import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from upflow import (FlipSolver, GridDesc, ParticleSet, ScalarGrid, SceneSpec,
                    SimParams, resample_narrow_band, sample_trilinear, simulate)
from upflow import flip as uflip
from upflow import grids as ugrids
from upflow.errors import SolverDiverged
from upflow.flip import shape_sdf
from upflow.grids import FACE_OFFSETS, pcg, scatter_trilinear
from upflow.particles import hash_uniform


def still_pool_scene():
    return SceneSpec(obstacle_shape="none", pool_depth=0.4,
                     emit_rate=0, container_dims=(1.0, 1.0, 1.0))


def small_params(**kw):
    kw.setdefault("gravity", (0.0, -9.81, 0.0))
    return SimParams.for_domain(0.025, 2.0, (0, 0, 0), (1, 1, 1), **kw)


def test_cell_size_follows_spacing_times_scale():
    p = small_params()
    assert p.domain.cell_size == pytest.approx(2 * 0.025 * 2.0)


def test_zero_gravity_still_pool_is_static():
    params = small_params(gravity=(0.0, 0.0, 0.0))
    frames = simulate(still_pool_scene(), params, 3, seed=1)
    solver = FlipSolver(still_pool_scene(), params, seed=1)
    start = solver.particles.positions.copy()
    for f in frames:
        assert np.abs(f.particles.positions - start).max() < 1e-6
        assert np.abs(f.particles.velocities).max() < 1e-9


def test_single_particle_free_fall_matches_ballistic():
    params = small_params(dt=1.0 / 60.0)
    scene = SceneSpec(obstacle_shape="none", pool_depth=0.0, emit_rate=0)
    solver = FlipSolver(scene, params, seed=0)
    start = np.array([[0.5, 0.8, 0.5]])
    solver.particles = ParticleSet(start, np.zeros((1, 3)))
    g = -9.81
    t = 0.0
    for _ in range(6):
        frame = solver.step()
        t += params.dt
    expect_y = start[0, 1] + 0.5 * g * t * t
    got_y = frame.particles.positions[0, 1]
    # midpoint integration of constant acceleration: O(dt^2) per frame
    assert abs(got_y - expect_y) < 20 * params.dt ** 2


def test_divergence_free_after_projection():
    params = small_params()
    scene = still_pool_scene()
    solver = FlipSolver(scene, params, seed=3)
    frame = solver.step()
    div = solver.divergence(frame.velocity)
    assert np.abs(div).max() <= params.pressure_tol


def test_deterministic_rerun():
    params = small_params()
    scene = SceneSpec(obstacle_shape="sphere", obstacle_position=(0.5, 0.3, 0.5),
                      pool_depth=0.2, emit_rate=20,
                      emitter_position=(0.5, 0.8, 0.5))
    a = simulate(scene, params, 3, seed=11)
    b = simulate(scene, params, 3, seed=11)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.particles.positions, fb.particles.positions)
        assert np.array_equal(fa.particles.velocities, fb.particles.velocities)
        assert np.array_equal(fa.velocity.u, fb.velocity.u)


def test_particle_count_conserved_without_emission():
    params = small_params()
    scene = SceneSpec(obstacle_shape="none", pool_depth=0.0,
                      liquid_shape="cube", liquid_position=(0.35, 0.6, 0.5),
                      liquid_size=0.15, emit_rate=0)
    frames = simulate(scene, params, 4, seed=5)
    counts = {f.particles.count for f in frames}
    assert len(counts) == 1
    # same scene at a finer resolution also conserves its own count
    fine = SimParams.for_domain(0.0125, 2.0, (0, 0, 0), (1, 1, 1))
    frames_hi = simulate(scene, fine, 2, seed=5)
    assert frames_hi[0].particles.count == frames_hi[1].particles.count
    assert frames_hi[0].particles.count > frames[0].particles.count


def test_momentum_roughly_conserved_without_gravity():
    params = small_params(gravity=(0.0, 0.0, 0.0))
    scene = SceneSpec(obstacle_shape="none", pool_depth=0.0,
                      liquid_shape="sphere", liquid_position=(0.4, 0.5, 0.5),
                      liquid_size=0.14, emit_rate=0)
    solver = FlipSolver(scene, params, seed=2)
    solver.particles.velocities[...] = np.array([0.3, 0.05, -0.1])
    p0 = solver.particles.velocities.sum(axis=0)
    for _ in range(10):
        frame = solver.step()
    p1 = frame.particles.velocities.sum(axis=0)
    assert np.linalg.norm(p1 - p0) <= 0.01 * np.linalg.norm(p0)


def test_particles_stay_out_of_solids():
    params = small_params()
    scene = SceneSpec(obstacle_shape="sphere", obstacle_position=(0.5, 0.35, 0.5),
                      obstacle_size=0.15, pool_depth=0.0,
                      liquid_shape="cube", liquid_position=(0.5, 0.75, 0.5),
                      liquid_size=0.12, emit_rate=0)
    frames = simulate(scene, params, 6, seed=4)
    for f in frames:
        phi = shape_sdf("sphere", scene.obstacle_position, scene.obstacle_size,
                        f.particles.positions)
        assert phi.min() > -0.3 * params.domain.cell_size
        lo = np.asarray(params.domain.origin)
        hi = params.domain.upper
        assert np.all(f.particles.positions > lo)
        assert np.all(f.particles.positions < hi)


def test_particles_keep_the_last_open_cell_of_a_narrow_container():
    # a 0.3-wide container in a 0.5 domain (h = 0.05) leaves the cell at
    # x in [0.25, 0.3] open; the push-out must clamp at the container wall,
    # not one cell short of it
    params = SimParams.for_domain(0.0125, 2.0, (0, 0, 0), (0.5, 0.5, 0.5))
    h = params.domain.cell_size
    scene = SceneSpec(obstacle_shape="none", container_dims=(0.3, 0.5, 0.5),
                      pool_depth=0.3, emitter_position=(0.15, 0.4, 0.25))
    solver = FlipSolver(scene, params, seed=0)
    last = solver.particles.positions[:, 0] > 0.25
    assert solver.particles.count == 640 and last.sum() == 128
    plane = 0.25 - 1e-4 * h
    for _ in range(3):
        x = solver.step().particles.positions[:, 0]
        assert np.all(x[last] > 0.25)
        assert not np.any(x == plane)
        assert np.all(x < 0.3)


def parent_project(self, g, dt):
    """FlipSolver._project before its per-axis rewrite, kept verbatim as the
    reference the shifted-mask assembly must equal bit for bit."""
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

    rows, cols, vals = [], [], []
    diag = np.zeros(n_fluid)
    cells = np.argwhere(fluid)
    for axis in range(3):
        for step in (-1, 1):
            nb = cells.copy()
            nb[:, axis] += step
            inb = np.all((nb >= 0) & (nb < np.asarray(self.desc.dims)), axis=1)
            nbc = np.clip(nb, 0, np.asarray(self.desc.dims) - 1)
            is_solid = ~inb | self.solid[nbc[:, 0], nbc[:, 1], nbc[:, 2]]
            # solid neighbors drop out of the stencil entirely
            diag += np.where(is_solid, 0.0, 1.0)
            nb_fluid = inb & fluid[nbc[:, 0], nbc[:, 1], nbc[:, 2]] & ~is_solid
            r = idx[cells[nb_fluid, 0], cells[nb_fluid, 1], cells[nb_fluid, 2]]
            c = idx[nbc[nb_fluid, 0], nbc[nb_fluid, 1], nbc[nb_fluid, 2]]
            rows.append(r)
            cols.append(c)
            vals.append(np.full(len(r), -1.0))
    rows.append(np.arange(n_fluid))
    cols.append(np.arange(n_fluid))
    vals.append(np.maximum(diag, 1e-12))
    a_mat = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
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
    solid_u, solid_v, solid_w = self.solid_faces
    active = fluid
    gu = np.zeros_like(g.u)
    gu[1:-1, :, :] = (pr[1:, :, :] - pr[:-1, :, :]) / h
    touch_u = np.zeros(g.u.shape, dtype=bool)
    touch_u[1:, :, :] |= active
    touch_u[:-1, :, :] |= active
    g.u -= np.where(touch_u & ~solid_u, gu, 0.0) * dt
    gv = np.zeros_like(g.v)
    gv[:, 1:-1, :] = (pr[:, 1:, :] - pr[:, :-1, :]) / h
    touch_v = np.zeros(g.v.shape, dtype=bool)
    touch_v[:, 1:, :] |= active
    touch_v[:, :-1, :] |= active
    g.v -= np.where(touch_v & ~solid_v, gv, 0.0) * dt
    gw = np.zeros_like(g.w)
    gw[:, :, 1:-1] = (pr[:, :, 1:] - pr[:, :, :-1]) / h
    touch_w = np.zeros(g.w.shape, dtype=bool)
    touch_w[:, :, 1:] |= active
    touch_w[:, :, :-1] |= active
    g.w -= np.where(touch_w & ~solid_w, gw, 0.0) * dt


def test_project_equals_the_parent_projection(monkeypatch):
    # liquid falls onto a torus and pools against the container walls, so
    # the stencil meets obstacle, wall and free-surface neighbours
    scene = SceneSpec(obstacle_shape="torus", obstacle_position=(0.5, 0.3, 0.5),
                      obstacle_size=0.18, pool_depth=0.15, emit_rate=30,
                      emitter_position=(0.5, 0.8, 0.5), liquid_shape="sphere",
                      liquid_position=(0.45, 0.6, 0.5), liquid_size=0.15)
    solver = FlipSolver(scene, small_params(), seed=3)
    systems = []

    def recording(a_mat, b, *args):
        systems.append((a_mat, b))
        return ugrids.pcg(a_mat, b, *args)

    monkeypatch.setattr(uflip, "pcg", recording)
    monkeypatch.setitem(globals(), "pcg", recording)
    project = solver._project
    checked = []

    def both(g, dt):
        want = g.copy()
        parent_project(solver, want, dt)
        project(g, dt)
        (a_want, b_want), (a_got, b_got) = systems[-2:]
        for name in ("data", "indices", "indptr"):
            assert getattr(a_got, name).tobytes() == getattr(a_want, name).tobytes(), name
        assert b_got.tobytes() == b_want.tobytes()
        for got, ref in zip(g.components(), want.components()):
            assert got.tobytes() == ref.tobytes()
        checked.append(len(b_got))

    monkeypatch.setattr(solver, "_project", both)
    for _ in range(3):
        solver.step()
    assert len(checked) >= 3 and min(checked) > 0
    assert solver.solid[1:-1, 1:-1, 1:-1].any()


# -- narrow band resampling ----------------------------------------------------

def _band_fixture():
    desc = GridDesc((0, 0, 0), 0.1, (10, 10, 10))
    # a half-space liquid: phi = y - 0.55 (liquid below y=0.55)
    centers = desc.cell_centers()
    phi = ScalarGrid(desc, centers[..., 1] - 0.55)
    return desc, phi


def test_resample_drops_deep_and_outside():
    desc, phi = _band_fixture()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(500, 3))
    p = ParticleSet(pts, np.zeros_like(pts))
    out = resample_narrow_band(p, phi, d_b=2, target_per_cell=4)
    vals = sample_trilinear(phi, out.positions)
    assert np.all(vals <= 0.0)
    assert np.all(vals >= -2 * desc.cell_size)


def test_resample_fills_band_density():
    desc, phi = _band_fixture()
    p = ParticleSet(np.array([[0.5, 0.5, 0.5]]), np.zeros((1, 3)))
    target = 8
    out = resample_narrow_band(p, phi, d_b=2, target_per_cell=target)
    counts = np.zeros(desc.dims, dtype=int)
    ci = desc.cell_index(out.positions)
    np.add.at(counts, (ci[:, 0], ci[:, 1], ci[:, 2]), 1)
    band = (phi.values <= 0.0) & (phi.values >= -2 * desc.cell_size)
    got = counts[band]
    assert got.min() >= target - 2
    assert got.max() <= target + 2


def test_resample_noop_when_already_at_target():
    desc, phi = _band_fixture()
    base = resample_narrow_band(ParticleSet(np.array([[0.5, 0.5, 0.5]]),
                                            np.zeros((1, 3))),
                                phi, d_b=2, target_per_cell=4)
    again = resample_narrow_band(base, phi, d_b=2, target_per_cell=4)
    # already at target: nothing is reseeded and nothing dropped
    assert again.count == base.count


def test_resample_inherits_nearby_velocity():
    desc, phi = _band_fixture()
    pts = np.array([[0.5, 0.5, 0.5]])
    vel = np.array([[2.0, 0.0, 0.0]])
    out = resample_narrow_band(ParticleSet(pts, vel), phi, d_b=1, target_per_cell=4)
    # seeds in the same cell pick up the survivor's velocity
    ci = desc.cell_index(out.positions)
    same_cell = np.all(ci == desc.cell_index(pts)[0], axis=1)
    assert np.allclose(out.velocities[same_cell][:, 0], 2.0)


def loop_nearest_survivor_velocity(pos, vel, added):
    """Each seed's velocity as the brute-force argmin of d2 over the
    survivors picks it (the lowest index among equally near ones); zero
    when there is no survivor."""
    avel = np.zeros_like(added)
    for i, x in enumerate(added):
        if len(pos):
            avel[i] = vel[np.argmin(np.sum((pos - x) ** 2, axis=1))]
    return avel


def test_resample_seed_velocities_equal_the_loop():
    # the whole grid is band and no cell is overfull, so the survivors come
    # back first and unchanged, followed by the seeds
    desc = GridDesc((0, 0, 0), 0.1, (5, 5, 5))
    phi = ScalarGrid(desc, np.full(desc.dims, -0.01))
    rng = np.random.default_rng(12)
    for _ in range(10):
        pts = rng.uniform(0.0, 0.5, size=(int(rng.integers(1, 60)), 3))
        pts[:5] = np.round(pts[:5], 1)                  # on cell faces
        pts = np.concatenate([pts, pts[:3]])             # coincident survivors
        vel = rng.normal(size=pts.shape)
        out = resample_narrow_band(ParticleSet(pts, vel), phi, d_b=1, target_per_cell=12,
                                   seed=int(rng.integers(100)))
        n = len(pts)
        assert np.array_equal(out.positions[:n], pts)
        assert np.array_equal(out.velocities[:n], vel)
        want = loop_nearest_survivor_velocity(pts, vel, out.positions[n:])
        assert np.array_equal(out.velocities[n:], want)


def test_resample_seeds_tied_between_survivors_take_the_lowest_index():
    # two survivors at every lattice site, each with its own velocity, so
    # every seed is equally near to at least two of them
    desc = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    phi = ScalarGrid(desc, np.full(desc.dims, -0.01))
    site = np.stack(np.meshgrid(*[np.arange(0.0, 0.45, 0.2)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    pts = np.concatenate([site[::-1], site])
    vel = np.arange(pts.size, dtype=np.float64).reshape(-1, 3)
    out = resample_narrow_band(ParticleSet(pts, vel), phi, d_b=1, target_per_cell=3)
    n = len(pts)
    assert np.array_equal(out.velocities[:n], vel)
    want = loop_nearest_survivor_velocity(pts, vel, out.positions[n:])
    assert np.array_equal(out.velocities[n:], want)
    d2 = np.sum((out.positions[n:, None] - pts[None]) ** 2, axis=2)
    assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).all()


def test_resample_makes_one_nearest_search_and_no_radius_search(monkeypatch):
    import upflow.particles as uparticles

    calls = []

    def no_radius_search(*args, **kwargs):
        raise AssertionError("resample_narrow_band ran a radius search")

    def counting(points, queries):
        calls.append(len(queries))
        return real(points, queries)

    real = uflip.nearest_points
    monkeypatch.setattr(uparticles, "radius_pairs", no_radius_search)
    monkeypatch.setattr(uflip, "radius_pairs", no_radius_search, raising=False)
    monkeypatch.setattr(uflip, "nearest_points", counting)
    desc, phi = _band_fixture()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, size=(300, 3))
    out = resample_narrow_band(ParticleSet(pts, rng.normal(size=pts.shape)), phi, d_b=2,
                               target_per_cell=4)
    # one search, with the new seeds as its queries
    assert len(calls) == 1 and 0 < calls[0] < out.count


def loop_resample_narrow_band(p, phi, d_b, target_per_cell=8, seed=0, frame=0):
    """resample_narrow_band with one loop per underfull cell and one per
    new seed: the reference the whole-array passes must equal."""
    if d_b < 1:
        raise ValueError(f"d_b must be >= 1, got {d_b}")
    desc = phi.desc
    h = desc.cell_size
    depth = d_b * h

    phi_p = sample_trilinear(phi, p.positions) if p.count else np.zeros(0)
    keep = (phi_p <= 0.0) & (phi_p >= -depth)
    pos = p.positions[keep]
    vel = p.velocities[keep]

    ci = desc.cell_index(pos)
    counts = np.zeros(desc.dims, dtype=np.int64)
    np.add.at(counts, (ci[:, 0], ci[:, 1], ci[:, 2]), 1)

    band = (phi.values <= 0.0) & (phi.values >= -depth)
    need_cells = np.argwhere(band & (counts < target_per_cell))

    new_pos = []
    if len(need_cells):
        have = counts[need_cells[:, 0], need_cells[:, 1], need_cells[:, 2]]
        cell_ids = ((need_cells[:, 0] * desc.dims[1] + need_cells[:, 1]) * desc.dims[2]
                    + need_cells[:, 2])
        n_try = 4 * target_per_cell
        for cell, cid, cnt in zip(need_cells, cell_ids, have):
            slots = np.arange(n_try)
            jit = np.stack([hash_uniform(np.full(n_try, seed), np.full(n_try, frame),
                                         np.full(n_try, cid), slots * 3 + a)
                            for a in range(3)], axis=-1)
            cand = np.asarray(desc.origin) + (cell + jit) * h
            phi_c = sample_trilinear(phi, cand)
            ok = (phi_c <= 0.0) & (phi_c >= -depth)
            # skip the first `cnt` valid candidates: re-running the resample on
            # its own output must not duplicate earlier seeds
            new_pos.append(cand[ok][cnt:target_per_cell])

    # thin overfull cells, keeping the lexicographically smallest positions
    flat = (ci[:, 0] * desc.dims[1] + ci[:, 1]) * desc.dims[2] + ci[:, 2]
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], flat))
    flat_sorted = flat[order]
    rank = np.empty(len(pos), dtype=np.int64)
    rank[order] = np.arange(len(pos)) - np.searchsorted(flat_sorted, flat_sorted)
    keep2 = rank < target_per_cell
    pos, vel = pos[keep2], vel[keep2]

    added = np.concatenate([np.zeros((0, 3))] + new_pos)
    if len(added):
        avel = loop_nearest_survivor_velocity(pos, vel, added)
        pos = np.concatenate([pos, added])
        vel = np.concatenate([vel, avel])
    return ParticleSet(pos, vel)


def _assert_resample_equals_the_loop(p, phi, d_b, target, seed=0, frame=0):
    got = resample_narrow_band(p, phi, d_b, target, seed=seed, frame=frame)
    want = loop_resample_narrow_band(p, phi, d_b, target, seed=seed, frame=frame)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.velocities, want.velocities)
    return got


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(2, 6)] * 3), level=st.floats(0.05, 0.6),
       noise=st.sampled_from([0.0, 0.05, 0.3]), n=st.integers(0, 120),
       crowd=st.integers(0, 40), d_b=st.integers(1, 3), target=st.integers(1, 10),
       seed=st.integers(-2 ** 31, 2 ** 31), frame=st.integers(0, 5),
       data_seed=st.integers(0, 2 ** 16))
def test_resample_equals_the_loop(dims, level, noise, n, crowd, d_b, target, seed,
                                  frame, data_seed):
    # a noisy surface at y = level gives band cells whose candidates all miss
    # the band; `crowd` particles in one cell overfill it; sparse survivors
    # leave seeds with no neighbour within 2h
    rng = np.random.default_rng(data_seed)
    desc = GridDesc((0, 0, 0), 0.1, dims)
    phi = ScalarGrid(desc, desc.cell_centers()[..., 1] - level
                     + noise * rng.normal(size=dims))
    extent = 0.1 * np.asarray(dims)
    pts = np.concatenate([rng.uniform(0, extent, size=(n, 3)),
                          0.05 + 0.02 * rng.uniform(size=(crowd, 3))])
    pts = np.concatenate([pts, pts[:3]])              # coincident particles
    p = ParticleSet(pts, rng.normal(size=pts.shape))
    once = _assert_resample_equals_the_loop(p, phi, d_b, target, seed, frame)
    _assert_resample_equals_the_loop(once, phi, d_b, target, seed, frame + 1)


def test_resample_equals_the_loop_on_an_empty_set():
    desc = GridDesc((0, 0, 0), 0.1, (5, 5, 5))
    phi = ScalarGrid(desc, desc.cell_centers()[..., 1] - 0.35)
    for seed, frame in ((0, 0), (3, 1), (-7, 4)):
        out = _assert_resample_equals_the_loop(ParticleSet.empty(), phi, 2, 4, seed, frame)
        assert out.count > 0 and not out.velocities.any()


def test_resample_equals_the_loop_on_full_and_candidate_free_cells():
    desc = GridDesc((0, 0, 0), 0.1, (5, 5, 5))
    values = np.full(desc.dims, -0.05)
    # cell (1, 1, 1) sits on the band's floor in a much deeper neighbourhood,
    # so every jittered candidate in it samples below the band
    values[0:3, 0:3, 0:3] = -10.0
    values[1, 1, 1] = -0.2
    phi = ScalarGrid(desc, values)
    crowd = 0.31 + 0.008 * np.arange(9)[:, None] * np.ones(3)     # 9 in cell (3, 3, 3)
    far = np.array([[0.45, 0.05, 0.45]])
    pts = np.concatenate([crowd, far])
    p = ParticleSet(pts, np.arange(pts.size, dtype=np.float64).reshape(-1, 3))
    out = _assert_resample_equals_the_loop(p, phi, 2, 4, seed=5, frame=2)
    ci = desc.cell_index(out.positions)
    assert not np.all(ci == (1, 1, 1), axis=1).any()
    assert np.all(ci == (3, 3, 3), axis=1).sum() == 4
    # seeds far from every survivor still copy the nearest one's velocity
    survivors = out.positions[:5]
    seeds = out.positions[5:]
    d = np.linalg.norm(seeds[:, None] - survivors[None], axis=2).min(axis=1)
    lonely = d > 2 * desc.cell_size
    copied = (out.velocities[5:, None] == out.velocities[None, :5]).all(axis=2)
    assert lonely.any() and copied.sum(axis=1).tolist() == [1] * len(seeds)


def test_resample_draws_candidates_once_per_band(monkeypatch):
    import upflow.flip as flip

    calls = {"hash_uniform": 0, "sample_trilinear": 0}

    def counting(name):
        fn = getattr(flip, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(flip, name, counting(name))
    desc = GridDesc((0, 0, 0), 0.1, (6, 6, 6))
    phi = ScalarGrid(desc, np.full(desc.dims, -0.05))
    pts = np.array([[0.35, 0.35, 0.35]])
    out = flip.resample_narrow_band(ParticleSet(pts, np.ones((1, 3))), phi, d_b=1,
                                    target_per_cell=3)
    assert out.count == 6 ** 3 * 3                      # 216 underfull cells filled
    assert calls["hash_uniform"] <= 3 and calls["sample_trilinear"] <= 2


@pytest.mark.parametrize("target", [0, -3])
def test_resample_rejects_non_positive_target(target):
    desc, phi = _band_fixture()
    p = ParticleSet(np.array([[0.5, 0.5, 0.5]]), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="target_per_cell"):
        resample_narrow_band(p, phi, d_b=2, target_per_cell=target)


def _scatter_component(pos, val, origin, h, shape, offset):
    """The solver's own trilinear scatter of one velocity component onto its
    face lattice, kept verbatim as the reference of `scatter_trilinear`."""
    acc = np.zeros(shape)
    wsum = np.zeros(shape)
    t = (pos - origin) / h - np.asarray(offset)
    t = np.clip(t, 0.0, np.asarray(shape) - 1.0)
    i0 = np.minimum(np.floor(t).astype(np.int64), np.asarray(shape) - 2)
    i0 = np.maximum(i0, 0)
    f = t - i0
    flat_acc = acc.reshape(-1)
    flat_w = wsum.reshape(-1)
    s1, s2 = shape[1], shape[2]
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = f[:, 1] if dy else 1.0 - f[:, 1]
            for dz in (0, 1):
                wz = f[:, 2] if dz else 1.0 - f[:, 2]
                w = wx * wy * wz
                flat = ((i0[:, 0] + dx) * s1 + (i0[:, 1] + dy)) * s2 + (i0[:, 2] + dz)
                np.add.at(flat_acc, flat, w * val)
                np.add.at(flat_w, flat, w)
    out = np.where(wsum > 0.0, acc / np.maximum(wsum, 1e-300), 0.0)
    return out, wsum > 0.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["random", "lattice", "outside"])
def test_scatter_trilinear_equals_the_solver_scatter(kind, seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
    desc = GridDesc(tuple(rng.uniform(-1, 1, size=3)), float(rng.uniform(0.05, 0.3)), dims)
    origin, h = np.asarray(desc.origin), desc.cell_size
    n = int(rng.integers(1, 300)) if seed else 0
    if kind == "random":
        x = origin + rng.uniform(size=(n, 3)) * desc.extent
    elif kind == "lattice":
        # faces, cell centres and corners, many particles on the same spot
        x = origin + rng.integers(0, 2 * np.asarray(dims) + 1, size=(n, 3)) * (0.5 * h)
    else:
        x = origin + rng.uniform(-1.0, 2.0, size=(n, 3)) * desc.extent
    vel = rng.normal(size=(n, 3))
    g = scatter_trilinear(desc, x, vel)
    for c, (comp, off) in enumerate(zip(g.components(), FACE_OFFSETS)):
        want, _ = _scatter_component(x, vel[:, c], origin, h, comp.shape, off)
        assert comp.tobytes() == want.tobytes()


@pytest.mark.parametrize("emitter, rate, raises", [
    ((0.5, 0.8, 0.5), 50, True),       # past the container's x = 0.3 wall
    ((0.5, 0.8, 0.5), 0, False),       # an emitter that is off may lie anywhere
    ((0.15, 0.8, 0.5), 50, False),
])
def test_emitter_must_lie_in_the_container(emitter, rate, raises):
    # outside the container the emitter's particles all land in the solid:
    # three frames used to keep 0, 0, 0 particles without a word
    scene = SceneSpec(obstacle_shape="none", pool_depth=0.0, emit_rate=rate,
                      emitter_position=emitter, emit_radius=0.05,
                      container_dims=(0.3, 1.0, 1.0))
    if raises:
        with pytest.raises(ValueError, match="emitter .* outside the container"):
            FlipSolver(scene, small_params(), seed=0)
    else:
        solver = FlipSolver(scene, small_params(), seed=0)
        assert (solver.step().particles.count > 0) == (rate > 0)


def test_a_small_domain_needs_no_position_for_an_absent_obstacle_or_emitter():
    # the default obstacle (0.5, 0.35, 0.5) and emitter (0.5, 0.85, 0.5)
    # positions lie outside a 0.5 domain; a scene that uses neither is valid
    params = SimParams.for_domain(0.0125, 2.0, (0, 0, 0), (0.5, 0.5, 0.5))
    scene = SceneSpec(obstacle_shape="none", emit_rate=0, pool_depth=0.5,
                      container_dims=(0.5, 0.5, 0.5))
    assert FlipSolver(scene, params, seed=0).step().particles.count > 0
    with pytest.raises(ValueError, match="obstacle position"):
        FlipSolver(SceneSpec(obstacle_shape="cube", obstacle_position=(0.2, 0.6, 0.2),
                             container_dims=(0.5, 0.5, 0.5)), params)
    with pytest.raises(ValueError, match="emitter position"):
        FlipSolver(SceneSpec(emit_rate=5, container_dims=(0.5, 0.5, 0.5)), params)


def _points_inside(solver, depth, n, seed=0):
    """n points at most `depth` inside the solver's obstacle."""
    rng = np.random.default_rng(seed)
    center = np.asarray(solver.scene.obstacle_position)
    pts = np.zeros((0, 3))
    while len(pts) < n:
        c = center + rng.uniform(-1.5, 1.5, size=(20000, 3)) * solver.scene.obstacle_size
        phi = solver._obstacle_phi(c)
        pts = np.concatenate([pts, c[(phi < 0.0) & (phi >= -depth)]])
    return pts[:n]


@pytest.mark.parametrize("shape", uflip.SHAPES)
def test_push_out_leaves_no_particle_inside_thin_or_sharp_obstacles(shape):
    # one gradient step used to leave 426 (frame), 281 (wedge), 148 (cube),
    # 55 (cylinder) and 19 (torus) of these points inside
    scene = SceneSpec(obstacle_shape=shape, obstacle_position=(0.5, 0.35, 0.5),
                      obstacle_size=0.15)
    solver = FlipSolver(scene, small_params(), seed=0)
    pts = _points_inside(solver, solver.desc.cell_size, 5000)
    out = solver._push_out_of_solids(pts.copy())
    assert not (solver._obstacle_phi(out) < 0.0).any()
    assert not solver._in_solid(out).any()


def test_push_out_warns_with_the_count_left_inside(monkeypatch):
    scene = SceneSpec(obstacle_shape="frame", obstacle_position=(0.5, 0.35, 0.5),
                      obstacle_size=0.15)
    solver = FlipSolver(scene, small_params(), seed=0)
    pts = _points_inside(solver, solver.desc.cell_size, 5000)
    monkeypatch.setattr(uflip, "_PUSH_RETRIES", 0)
    with pytest.warns(RuntimeWarning, match=r"^\d+ particles remain inside the frame"):
        out = solver._push_out_of_solids(pts.copy())
    left = int((solver._obstacle_phi(out) < 0.0).sum())
    assert left > 0


def test_a_frame_past_the_substep_cap_warns_with_both_counts(monkeypatch):
    # g * dt = 4.9 at dt 0.5 crosses 15.3 cells of 0.08 in one frame, at
    # most 2 per substep: 16 substeps are needed and 8 are taken
    params = SimParams.for_domain(0.02, 2.0, (0, 0, 0), (0.4, 0.4, 0.4), dt=0.5)
    scene = SceneSpec(container_dims=(0.4, 0.4, 0.4), liquid_shape="sphere",
                      liquid_position=(0.2, 0.3, 0.2), liquid_size=0.08)
    solver = FlipSolver(scene, params, seed=0)
    taken = []
    real = solver._substep
    monkeypatch.setattr(solver, "_substep", lambda dt: taken.append(dt) or real(dt))
    with pytest.warns(RuntimeWarning, match=r"^frame 0 needs 16 CFL substeps; taking 8$"):
        solver.step()
    assert taken == [0.5 / 8] * 8


def test_a_frame_within_the_substep_cap_does_not_warn():
    solver = FlipSolver(still_pool_scene(), small_params(), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver.step()


def test_solid_face_masks_are_built_once_per_solver(monkeypatch):
    axes = []
    real = uflip.face_mask

    def counting(flagged, axis, border):
        if border:
            axes.append(axis)
        return real(flagged, axis, border)

    monkeypatch.setattr(uflip, "face_mask", counting)
    solver = FlipSolver(still_pool_scene(), small_params(), seed=0)
    for _ in range(2):
        solver.step()
    assert axes == [0, 1, 2]


@pytest.mark.parametrize("field, value", [
    ("flip_ratio", 3.0), ("flip_ratio", -0.1), ("flip_ratio", float("nan")),
    ("particles_per_cell", 0), ("particles_per_cell", 10), ("particles_per_cell", 20),
    ("dt", float("nan")),
])
def test_sim_params_reject_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        small_params(**{field: value})


def test_sim_params_hold_what_the_solver_reads():
    assert [f.name for f in dataclasses.fields(SimParams)] == [
        "domain", "gravity", "flip_ratio", "dt", "particles_per_cell"]
    assert (SimParams.cfl, SimParams.pressure_tol, SimParams.pressure_max_iter,
            SimParams.max_particles) == (2.0, 1e-6, 4000, 200_000)


@pytest.mark.parametrize("per_cell, per_axis", [(1, 1), (8, 2), (27, 3)])
def test_seeding_fills_each_pool_cell_with_particles_per_cell(per_cell, per_axis):
    params = small_params(particles_per_cell=per_cell)
    assert params.seeds_per_axis == per_axis
    assert params.particle_spacing == pytest.approx(params.domain.cell_size / per_axis)
    solver = FlipSolver(still_pool_scene(), params, seed=0)
    desc = params.domain
    cells = np.floor((solver.particles.positions - np.asarray(desc.origin))
                     / desc.cell_size).astype(int)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    assert set(counts.tolist()) == {per_cell}
