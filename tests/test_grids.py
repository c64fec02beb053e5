import numpy as np
import pytest

import scipy.sparse as sp

from upflow import (DeformationField, GridDesc, GridMismatch, MACGrid,
                    ParticleSet, ScalarGrid, advect_particles, extrapolate_mac,
                    sample_trilinear)
from upflow.grids import D_MAC, face_mask, pcg


@pytest.fixture
def desc():
    return GridDesc((0.0, 0.0, 0.0), 0.1, (8, 8, 8))


def linear_scalar(desc, a, c=0.0):
    centers = desc.cell_centers()
    return ScalarGrid(desc, centers @ np.asarray(a) + c)


def test_desc_validation():
    with pytest.raises(ValueError):
        GridDesc((0, 0, 0), -1.0, (4, 4, 4))
    with pytest.raises(ValueError):
        GridDesc((0, 0, 0), 0.1, (4, 1, 4))


def test_sample_constant(desc):
    g = ScalarGrid.full(desc, 3.25)
    assert sample_trilinear(g, [0.35, 0.41, 0.2]) == pytest.approx(3.25)


def test_sample_midpoint_between_cells(desc):
    vals = np.zeros(desc.dims)
    vals[1, 0, 0] = 1.0
    g = ScalarGrid(desc, vals)
    # midpoint between the centers of cells (0,0,0) and (1,0,0)
    assert sample_trilinear(g, [0.1, 0.05, 0.05]) == pytest.approx(0.5)


def test_sample_linear_field_is_exact(desc):
    a = np.array([1.5, -2.0, 0.7])
    g = linear_scalar(desc, a, c=0.3)
    rng = np.random.default_rng(0)
    # stay half a cell inside so no clamping happens
    pts = rng.uniform(0.06, 0.74, size=(50, 3))
    got = sample_trilinear(g, pts)
    assert np.allclose(got, pts @ a + 0.3, atol=1e-12)


def test_sample_clamps_outside(desc):
    a = np.array([1.0, 0.0, 0.0])
    g = linear_scalar(desc, a)
    inside = sample_trilinear(g, [0.75, 0.4, 0.4])
    beyond = sample_trilinear(g, [5.0, 0.4, 0.4])
    assert beyond == pytest.approx(inside)
    assert np.isfinite(beyond)


def test_sample_vector_field(desc):
    vecs = np.zeros(desc.dims + (3,))
    vecs[..., 0] = 1.0
    vecs[..., 2] = -2.0
    f = DeformationField(desc, vecs)
    v = sample_trilinear(f, [0.33, 0.44, 0.55])
    assert np.allclose(v, [1.0, 0.0, -2.0])


def test_sample_mac_linear_per_component(desc):
    g = MACGrid.zeros(desc)
    # u(x) = x on x-faces
    xs = np.asarray(desc.origin)[0] + np.arange(desc.dims[0] + 1) * desc.cell_size
    g.u[...] = xs[:, None, None]
    pts = np.random.default_rng(1).uniform(0.1, 0.7, size=(20, 3))
    v = sample_trilinear(g, pts)
    assert np.allclose(v[:, 0], pts[:, 0], atol=1e-12)
    assert np.allclose(v[:, 1:], 0.0)


def test_mac_constant_helper(desc):
    g = MACGrid.constant(desc, (1.0, 2.0, 3.0))
    assert np.allclose(sample_trilinear(g, [0.4, 0.4, 0.4]), [1, 2, 3])


# -- extrapolation ----------------------------------------------------------

def test_extrapolate_fully_liquid_is_identity(desc):
    phi = ScalarGrid.full(desc, -1.0)
    g = MACGrid.zeros(desc)
    g.u[...] = np.random.default_rng(2).normal(size=g.u.shape)
    out = extrapolate_mac(g, phi)
    assert np.array_equal(out.u, g.u)
    assert np.array_equal(out.v, g.v)
    assert np.array_equal(out.w, g.w)


def test_extrapolate_never_touches_known_faces(desc):
    vals = np.ones(desc.dims)
    vals[2:5, 2:5, 2:5] = -1.0
    phi = ScalarGrid(desc, vals)
    g = MACGrid.zeros(desc)
    rng = np.random.default_rng(3)
    g.u[...] = rng.normal(size=g.u.shape)
    g.v[...] = rng.normal(size=g.v.shape)
    g.w[...] = rng.normal(size=g.w.shape)
    liquid = phi.values <= 0.0
    known_u = np.zeros(g.u.shape, dtype=bool)
    known_u[:-1][liquid] = True
    known_u[1:][liquid] = True
    out = extrapolate_mac(g, phi)
    assert np.array_equal(out.u[known_u], g.u[known_u])


def _bfs_oracle(vals, known, layers):
    """Layered average of known 6-neighbors, reference implementation."""
    vals = vals.copy()
    known = known.copy()
    for _ in range(layers):
        new_vals = vals.copy()
        new_known = known.copy()
        it = np.ndindex(vals.shape)
        for idx in it:
            if known[idx]:
                continue
            acc, cnt = 0.0, 0
            for ax in range(3):
                for step in (-1, 1):
                    n = list(idx)
                    n[ax] += step
                    if 0 <= n[ax] < vals.shape[ax]:
                        n = tuple(n)
                        if known[n]:
                            acc += vals[n]
                            cnt += 1
            if cnt:
                new_vals[idx] = acc / cnt
                new_known[idx] = True
        vals, known = new_vals, new_known
    return vals, known


def test_extrapolate_matches_bfs_oracle():
    desc = GridDesc((0, 0, 0), 0.25, (6, 5, 4))
    vals = np.ones(desc.dims)
    vals[1:3, 1:4, 1:3] = -1.0
    phi = ScalarGrid(desc, vals)
    g = MACGrid.zeros(desc)
    rng = np.random.default_rng(4)
    g.u[...] = rng.normal(size=g.u.shape)
    liquid = phi.values <= 0.0
    known = np.zeros(g.u.shape, dtype=bool)
    known[:-1][liquid] = True
    known[1:][liquid] = True
    base = np.where(known, g.u, 0.0)
    oracle, _ = _bfs_oracle(base, known, D_MAC)
    out = extrapolate_mac(MACGrid(desc, base, g.v * 0, g.w * 0), phi)
    assert np.allclose(out.u, oracle, atol=1e-12)


def test_extrapolate_constant_half_space():
    desc = GridDesc((0, 0, 0), 0.1, (10, 6, 6))
    vals = np.where(np.arange(10)[:, None, None] < 5, -1.0, 1.0)
    phi = ScalarGrid(desc, np.broadcast_to(vals, desc.dims).copy())
    g = MACGrid.constant(desc, (2.5, 0, 0))
    liquid = phi.values <= 0.0
    known = np.zeros(g.u.shape, dtype=bool)
    known[:-1][liquid] = True
    known[1:][liquid] = True
    start = MACGrid(desc, np.where(known, 2.5, 0.0), g.v * 0, g.w * 0)
    out = extrapolate_mac(start, phi)
    # two extra face layers carry the constant
    assert np.allclose(out.u[:8], 2.5)


# -- particle advection -------------------------------------------------------

def test_advect_zero_field_is_identity(desc):
    p = ParticleSet(np.array([[0.4, 0.4, 0.4]]), np.array([[1.0, 0, 0]]))
    out = advect_particles(p, MACGrid.zeros(desc), 0.1)
    assert np.array_equal(out.positions, p.positions)


def test_advect_constant_field(desc):
    c = np.array([0.5, -0.25, 0.1])
    g = MACGrid.constant(desc, c)
    p = ParticleSet(np.array([[0.4, 0.45, 0.4]]), np.zeros((1, 3)))
    out = advect_particles(p, g, 0.2)
    assert np.allclose(out.positions[0], p.positions[0] + 0.2 * c, atol=1e-12)
    assert np.allclose(out.velocities[0], c)


def _rotation_grid(desc, omega):
    """Rigid rotation about the domain center in the xy-plane."""
    g = MACGrid.zeros(desc)
    c = np.asarray(desc.origin) + desc.extent / 2
    h = desc.cell_size
    o = np.asarray(desc.origin)
    nx, ny, nz = desc.dims
    xu = o[0] + np.arange(nx + 1) * h
    yu = o[1] + (np.arange(ny) + 0.5) * h
    g.u[...] = (-omega * (yu - c[1]))[None, :, None]
    xv = o[0] + (np.arange(nx) + 0.5) * h
    yv = o[1] + np.arange(ny + 1) * h
    g.v[...] = (omega * (xv - c[0]))[:, None, None]
    return g


def test_advect_rotation_matches_analytic():
    desc = GridDesc((0, 0, 0), 0.05, (20, 20, 4))
    omega = 1.2
    g = _rotation_grid(desc, omega)
    c = np.asarray(desc.origin) + desc.extent / 2
    start = np.array([[0.65, 0.5, 0.1]])
    p = ParticleSet(start, np.zeros((1, 3)))
    dt = 1e-3
    steps = 20
    for _ in range(steps):
        p = advect_particles(p, g, dt)
    ang = omega * dt * steps
    r = start[0] - c
    expect = c + np.array([r[0] * np.cos(ang) - r[1] * np.sin(ang),
                           r[0] * np.sin(ang) + r[1] * np.cos(ang), r[2]])
    # RK2 is O(dt^3) per step; allow interpolation error on top
    assert np.linalg.norm(p.positions[0] - expect) < 5e-5


def test_advect_reversibility_on_smooth_field():
    desc = GridDesc((0, 0, 0), 0.05, (20, 20, 4))
    g = _rotation_grid(desc, 0.8)
    neg = MACGrid(desc, -g.u, -g.v, -g.w)
    start = np.array([[0.6, 0.45, 0.1]])
    p = ParticleSet(start, np.zeros((1, 3)))
    dt = 0.01
    fwd = advect_particles(p, g, dt)
    back = advect_particles(fwd, neg, dt)
    assert np.linalg.norm(back.positions[0] - start[0]) < 2.0 * dt ** 2


def test_grid_mismatch_on_extrapolate():
    a = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    b = GridDesc((0, 0, 0), 0.2, (4, 4, 4))
    with pytest.raises(GridMismatch):
        extrapolate_mac(MACGrid.zeros(a), ScalarGrid.full(b, -1.0))


# -- preconditioned CG -------------------------------------------------------------

def test_pcg_cap_returns_best_iterate():
    # CG's residual 2-norm is not monotone: on this SPD system (condition
    # number 1e4) the last of 8 iterates is not the best one, and the best
    # one must come back
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    a = q @ np.diag(np.logspace(0.0, 4.0, 30)) @ q.T
    a_mat, b = sp.csr_matrix(0.5 * (a + a.T)), rng.normal(size=30)
    seen = []

    def norm(r):
        seen.append(float(np.linalg.norm(r)))
        return seen[-1]
    x, converged, iterations, residual = pcg(a_mat, b, 1e-30, 8, norm)
    assert not converged
    assert iterations == 8
    assert len(seen) == 9                   # the zero start plus 8 iterates
    assert residual == min(seen) < seen[-1]
    assert np.isclose(np.linalg.norm(b - a_mat @ x), residual, rtol=1e-9)


@pytest.mark.parametrize("border", [False, True])
def test_face_mask_matches_a_face_loop(border):
    rng = np.random.default_rng(5)
    flagged = rng.uniform(size=(4, 5, 3)) < 0.3
    for axis in range(3):
        shape = list(flagged.shape)
        shape[axis] += 1
        want = np.zeros(shape, dtype=bool)
        for face in np.ndindex(*shape):
            # face i along `axis` lies between cells i - 1 and i
            for i in (face[axis] - 1, face[axis]):
                cell = list(face)
                cell[axis] = i
                inside = 0 <= i < flagged.shape[axis]
                want[face] |= flagged[tuple(cell)] if inside else border
        assert np.array_equal(face_mask(flagged, axis, border), want)
