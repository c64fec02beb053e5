import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from upflow import (AlignmentPenalty, DeformationField, FlowParams, GridDesc,
                    GridMismatch, NoSurface, ParticleSet, ScalarGrid,
                    SpaceTimeSDF, alignment_penalty, apply_deformation,
                    build_system, complex_cells, feature_points,
                    solution_fields, solve_flow, stack_flow)
from upflow.optflow import _laplacian, displace_particles


def sphere_sdf(desc, center, radius):
    c = desc.cell_centers()
    return ScalarGrid(desc, np.linalg.norm(c - np.asarray(center), axis=-1) - radius)


def _gradient(values, h):
    """Central differences (one-sided at borders), shape values.shape + (3,)."""
    return np.stack(np.gradient(values, h), axis=-1)


def cube_sdf(desc, center, half):
    c = desc.cell_centers() - np.asarray(center)
    q = np.abs(c) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(np.max(q, axis=-1), 0.0)
    return ScalarGrid(desc, outside + inside)


# -- complex cells ---------------------------------------------------------------

def _oracle_case_complex(case: int) -> bool:
    """Independent re-derivation: same-sign corner connectivity via adjacency
    matrix powers, plus brute-force ambiguous-face detection."""
    corners = list(itertools.product((0, 1), repeat=3))
    inside = [bool(case >> (dx * 4 + dy * 2 + dz) & 1) for dx, dy, dz in corners]

    def n_components(cls):
        nodes = [i for i in range(8) if inside[i] == cls]
        if not nodes:
            return 0
        adj = np.zeros((8, 8), dtype=bool)
        for i, a in enumerate(corners):
            for j, b in enumerate(corners):
                if sum(x != y for x, y in zip(a, b)) == 1 \
                        and inside[i] == cls and inside[j] == cls:
                    adj[i, j] = True
        reach = np.eye(8, dtype=bool) | adj
        for _ in range(8):
            reach = reach | (reach @ adj)
        comps = set()
        for i in nodes:
            comps.add(tuple(sorted(j for j in nodes if reach[i, j])))
        return len(comps)

    if n_components(True) > 1 or n_components(False) > 1:
        return True
    for axis in range(3):
        for side in (0, 1):
            face = [i for i, c in enumerate(corners) if c[axis] == side]
            rest = [a for a in range(3) if a != axis]
            grid = {}
            for i in face:
                grid[(corners[i][rest[0]], corners[i][rest[1]])] = inside[i]
            if grid[(0, 0)] == grid[(1, 1)] and grid[(0, 1)] == grid[(1, 0)] \
                    and grid[(0, 0)] != grid[(0, 1)]:
                return True
    return False


def test_complex_table_against_oracle():
    from upflow.optflow import _COMPLEX_TABLE
    for case in range(256):
        assert _COMPLEX_TABLE[case] == _oracle_case_complex(case), case


def test_uniform_sign_not_complex():
    desc = GridDesc((0, 0, 0), 1.0, (4, 4, 4))
    assert not complex_cells(ScalarGrid.full(desc, -1.0)).any()
    assert not complex_cells(ScalarGrid.full(desc, 1.0)).any()


def test_single_corner_not_complex():
    desc = GridDesc((0, 0, 0), 1.0, (3, 3, 3))
    vals = np.ones(desc.dims)
    vals[0, 0, 0] = -1.0
    assert not complex_cells(ScalarGrid(desc, vals))[0, 0, 0]


def test_checkerboard_is_complex():
    desc = GridDesc((0, 0, 0), 1.0, (3, 3, 3))
    i, j, k = np.meshgrid(*[np.arange(3)] * 3, indexing="ij")
    vals = np.where((i + j + k) % 2 == 0, -1.0, 1.0)
    assert complex_cells(ScalarGrid(desc, vals))[0, 0, 0]


# -- feature points ---------------------------------------------------------------

def test_plane_has_no_features():
    desc = GridDesc((0, 0, 0), 0.1, (10, 10, 10))
    centers = desc.cell_centers()
    st = SpaceTimeSDF([ScalarGrid(desc, centers[..., 1] - 0.5)])
    assert len(feature_points(st, alpha_feat=1.0)) == 0


def test_sphere_features_empty_or_uniform():
    desc = GridDesc((0, 0, 0), 0.05, (20, 20, 20))
    center = np.array([0.5, 0.5, 0.5])
    st = SpaceTimeSDF([sphere_sdf(desc, center, 0.3)])
    pts = feature_points(st, alpha_feat=1.0)
    if len(pts):
        # no spatially localized features: whatever survives the threshold is
        # spread uniformly over the sphere (all octants populated evenly)
        rel = pts[:, :3] - center
        octant = (rel[:, 0] > 0) * 4 + (rel[:, 1] > 0) * 2 + (rel[:, 2] > 0)
        counts = np.bincount(octant, minlength=8)
        assert counts.min() > 0
        assert counts.max() <= 2 * counts.min()
        # and all at (nearly) one radius
        r = np.linalg.norm(rel, axis=1)
        assert r.std() < 2 * desc.cell_size


def test_cube_features_concentrate_on_edges():
    desc = GridDesc((0, 0, 0), 0.05, (20, 20, 20))
    center = np.array([0.5, 0.5, 0.5])
    half = 0.25
    st = SpaceTimeSDF([cube_sdf(desc, center, half)])
    pts = feature_points(st, alpha_feat=1.0)
    assert len(pts) > 0
    # distance to the nearest cube edge (high-curvature locus): for points on
    # the surface, at least two |coordinate| components should be near `half`
    rel = np.abs(pts[:, :3] - center)
    near_edge = (np.sort(rel, axis=1)[:, 1:] > half - 2.5 * desc.cell_size).all(axis=1)
    assert near_edge.mean() > 0.9


def test_no_surface_raises():
    desc = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    st = SpaceTimeSDF([ScalarGrid.full(desc, 1.0)])
    with pytest.raises(NoSurface):
        feature_points(st, alpha_feat=1.0)


def _ref_feature_points(st, alpha_feat):
    """Feature points frame by frame: one band, Laplacian and selection per
    frame, thresholded by the statistics of all frames' bands together."""
    h = st.desc.cell_size
    bands = [np.abs(f.values) <= 2.0 * h for f in st.frames]
    curvs = [np.abs(_laplacian(f.values, h)) for f in st.frames]
    band_curv = np.concatenate([c[b] for c, b in zip(curvs, bands)])
    thresh = band_curv.mean() + alpha_feat * band_curv.std()
    pts = []
    for t, (band, curv) in enumerate(zip(bands, curvs)):
        sel = band & (curv > thresh)
        pts.append(np.concatenate([st.desc.cell_centers()[sel],
                                   np.full((sel.sum(), 1), t * st.dt)], axis=1))
    return np.concatenate(pts)


@pytest.mark.parametrize("alpha_feat", [0.0, 1.0])
def test_feature_points_over_frames_equal_a_per_frame_reference(alpha_feat):
    desc = GridDesc((0.1, -0.2, 0.3), 0.1, (7, 6, 5))
    rng = np.random.default_rng(11)
    st = SpaceTimeSDF([ScalarGrid(desc, rng.normal(scale=0.1, size=desc.dims))
                       for _ in range(3)], dt=0.25)
    got = feature_points(st, alpha_feat)
    want = _ref_feature_points(st, alpha_feat)
    assert len(np.unique(want[:, 3])) == 3
    assert got.tobytes() == want.tobytes()


def test_one_frame_with_a_surface_is_enough():
    desc = GridDesc((0, 0, 0), 0.05, (20, 20, 20))
    cube = cube_sdf(desc, (0.5, 0.5, 0.5), 0.25)
    outside, inside = ScalarGrid.full(desc, 1.0), ScalarGrid.full(desc, -1.0)
    pts = feature_points(SpaceTimeSDF([outside, cube, inside], dt=0.5), alpha_feat=1.0)
    assert len(pts) > 0 and np.all(pts[:, 3] == 0.5)
    with pytest.raises(NoSurface):
        feature_points(SpaceTimeSDF([outside, inside, outside]), alpha_feat=1.0)


# -- parameters --------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("beta_s", -0.1), ("beta_s", float("nan")), ("beta_s", float("inf")),
    ("beta_t", 0.0), ("beta_t", float("nan")), ("beta_t", float("inf")),
    ("cg_tol", -1.0), ("cg_tol", float("nan")), ("cg_tol", float("inf")),
    ("cg_max_iter", 0), ("alpha_feat", float("nan")), ("alpha_feat", float("inf")),
])
def test_flow_params_reject_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        FlowParams(**{field: value})


# -- alignment penalty -------------------------------------------------------------

def _flat_surface_stack(desc, y0=0.5):
    centers = desc.cell_centers()
    return SpaceTimeSDF([ScalarGrid(desc, centers[..., 1] - y0)])


def test_alignment_zero_without_complex_cells():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    lo = _flat_surface_stack(desc)
    hi = SpaceTimeSDF([cube_sdf(desc, (0.4, 0.4, 0.4), 0.2)])
    pen = alignment_penalty(lo, hi, FlowParams())
    assert not pen.d.any()


def test_alignment_inverse_distance_values(monkeypatch):
    from upflow import optflow as of

    desc = GridDesc((0, 0, 0), 1.0, (5, 5, 5))
    # a checkerboard makes every cell of the leading 4x4x4 block complex
    i, j, k = np.meshgrid(*[np.arange(5)] * 3, indexing="ij")
    vals = np.where((i + j + k) % 2 == 0, -1.0, 1.0)
    lo = SpaceTimeSDF([ScalarGrid(desc, vals)])
    cc = of.complex_cells(lo.frames[0])
    assert cc.sum() == 4 ** 3

    # one feature point on the center of cell (1, 2, 0), at t = 0
    feat = np.array([[1.5, 2.5, 0.5, 0.0]])
    monkeypatch.setattr(of, "feature_points", lambda st, alpha_feat: feat)
    pen = alignment_penalty(lo, lo, FlowParams())

    centers = desc.cell_centers()[cc]
    dist = np.linalg.norm(np.concatenate([centers, np.zeros((len(centers), 1))], axis=1)
                          - feat[0], axis=1)
    expect = 1.0 / np.maximum(dist, desc.cell_size)
    assert np.allclose(pen.d[0][cc], expect, rtol=1e-12, atol=0.0)
    assert not pen.d[0][~cc].any()
    # the cell on the feature point takes the floor: 1 / h
    assert pen.d[0][1, 2, 0] == 1.0 / desc.cell_size


def test_alignment_floor_and_inverse_distance_end_to_end():
    # low stack: a small cube creating complex cells; high stack: a cube whose
    # sharp corners provide feature points at known positions
    desc = GridDesc((0, 0, 0), 0.05, (20, 20, 20))
    lo = SpaceTimeSDF([cube_sdf(desc, (0.5, 0.5, 0.5), 0.18)])
    hi = SpaceTimeSDF([cube_sdf(desc, (0.5, 0.5, 0.5), 0.22)])
    pen = alignment_penalty(lo, hi, FlowParams(alpha_feat=1.0))
    cc = complex_cells(lo.frames[0])
    assert np.all(pen.d[0][~cc] == 0.0)
    if cc.any():
        feats = feature_points(hi, 1.0)
        centers = desc.cell_centers()[cc]
        dist = np.linalg.norm(centers[:, None, :] - feats[None, :, :3],
                              axis=2).min(axis=1)
        expect = 1.0 / np.maximum(dist, desc.cell_size)
        assert np.allclose(pen.d[0][cc], expect, rtol=1e-12)
        assert np.all(pen.d[0][cc] <= 1.0 / desc.cell_size + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_alignment_penalty_equals_brute_force_4d_on_lattice_ties(seed):
    # feature points and complex cells are both cell centres, and dt equals
    # the cell size, so many cells lie equally far from several features
    rng = np.random.default_rng(seed)
    desc = GridDesc((0, 0, 0), 0.1, (7, 6, 7))
    frames = lambda: [ScalarGrid(desc, rng.normal(scale=0.1, size=desc.dims))
                      for _ in range(3)]
    lo, hi = SpaceTimeSDF(frames(), dt=0.1), SpaceTimeSDF(frames(), dt=0.1)
    params = FlowParams()
    feats = feature_points(hi, params.alpha_feat)
    assert len(feats) > 1
    want = np.zeros((lo.num_frames,) + desc.dims)
    for t, frame in enumerate(lo.frames):
        cc = complex_cells(frame)
        q = np.concatenate([desc.cell_centers()[cc], np.full((cc.sum(), 1), t * 0.1)], axis=1)
        d = np.sqrt(np.sum((feats[None, :, :] - q[:, None, :]) ** 2, axis=2)).min(axis=1)
        want[t][cc] = 1.0 / np.maximum(d, desc.cell_size)
    assert want.any()
    assert alignment_penalty(lo, hi, params).d.tobytes() == want.tobytes()


def test_alignment_grid_mismatch():
    a = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    b = GridDesc((0, 0, 0), 0.2, (8, 8, 8))
    with pytest.raises(GridMismatch):
        alignment_penalty(_flat_surface_stack(a), _flat_surface_stack(b), FlowParams())


# -- system assembly ---------------------------------------------------------------

def test_identical_inputs_give_zero_rhs_and_zero_solution():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    st = SpaceTimeSDF([sphere_sdf(desc, (0.4, 0.4, 0.4), 0.2)])
    a_mat, b = build_system(st, st, None, FlowParams())
    assert np.all(b == 0.0)
    u, info = solve_flow(a_mat, b, FlowParams())
    assert info.converged
    assert np.all(u == 0.0)


def test_single_cell_closed_form_when_no_smoothness():
    desc = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    rng = np.random.default_rng(0)
    hi = ScalarGrid(desc, rng.normal(size=desc.dims))
    lo = ScalarGrid(desc, rng.normal(size=desc.dims))
    params = FlowParams(beta_s=0.0, beta_t=0.37, cg_tol=1e-13)
    a_mat, b = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]), None, params)
    u, info = solve_flow(a_mat, b, params)
    assert info.converged
    # with beta_s = 0 every cell decouples: u = g * delta / (|g|^2 + beta_t)
    g = _gradient(hi.values, desc.cell_size).reshape(-1, 3)
    delta = (lo.values - hi.values).reshape(-1)
    expect = g * (delta / (np.sum(g * g, axis=1) + params.beta_t))[:, None]
    assert np.allclose(u.reshape(-1, 3), expect, atol=1e-8)


def test_huge_penalty_pins_solution_to_zero():
    desc = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    rng = np.random.default_rng(1)
    hi = ScalarGrid(desc, rng.normal(size=desc.dims))
    lo = ScalarGrid(desc, rng.normal(size=desc.dims))
    params = FlowParams(beta_s=0.1, beta_t=0.01)
    d = np.zeros((1,) + desc.dims)
    d[0, 2, 2, 2] = 1e12
    a_mat, b = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]),
                               AlignmentPenalty(d), params)
    u, info = solve_flow(a_mat, b, params)
    assert info.converged
    cell = np.ravel_multi_index((2, 2, 2), desc.dims)
    assert np.abs(u.reshape(-1, 3)[cell]).max() < 1e-9
    free = np.abs(u.reshape(-1, 3)).max()
    assert free > 1e-3  # other cells still move


def test_matrix_symmetric_and_positive_definite():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    rng = np.random.default_rng(2)
    hi = ScalarGrid(desc, rng.normal(size=desc.dims))
    lo = ScalarGrid(desc, rng.normal(size=desc.dims))
    d = np.abs(rng.normal(size=(1,) + desc.dims))
    a_mat, _ = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]),
                               AlignmentPenalty(d), FlowParams(beta_s=0.7))
    asym = (a_mat - a_mat.T).tocoo()
    assert asym.nnz == 0 or np.abs(asym.data).max() == 0.0
    n = a_mat.shape[0]
    for _ in range(100):
        x = rng.normal(size=n)
        assert x @ (a_mat @ x) > 0.0


def test_penalty_only_increases_diagonal():
    desc = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    rng = np.random.default_rng(3)
    hi = ScalarGrid(desc, rng.normal(size=desc.dims))
    lo = ScalarGrid(desc, rng.normal(size=desc.dims))
    params = FlowParams(beta_s=0.4)
    a0, _ = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]), None, params)
    d = np.abs(rng.normal(size=(1,) + desc.dims))
    a1, _ = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]),
                            AlignmentPenalty(d), params)
    diff = (a1 - a0).tocoo()
    assert np.all(diff.row == diff.col)
    assert np.all(diff.data >= -1e-15)


def test_grid_mismatch_in_build():
    a = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    b = GridDesc((0, 0, 0), 0.2, (4, 4, 4))
    with pytest.raises(GridMismatch):
        build_system(_flat_surface_stack(a), _flat_surface_stack(b), None, FlowParams())


def coo_build_system(hi, lo, penalty, params):
    """`build_system` as it was, through COO triplets and `sum_duplicates`,
    kept verbatim as the reference of the fixed-pattern assembly."""
    if hi.desc != lo.desc or hi.num_frames != lo.num_frames:
        raise GridMismatch("flow solve needs matching grids and frame counts")
    desc = hi.desc
    h = desc.cell_size
    t_frames = hi.num_frames
    m = t_frames * desc.num_cells
    n = 3 * m

    grad = np.concatenate([_gradient(f.values, h).reshape(-1, 3)
                           for f in hi.frames])
    delta = (lo.stacked() - hi.stacked()).reshape(-1)

    rows, cols, vals = [], [], []
    cell_idx = np.arange(m, dtype=np.int64)

    # data term: per-cell 3x3 outer product of the destination gradient
    for a in range(3):
        for b_ in range(3):
            rows.append(3 * cell_idx + a)
            cols.append(3 * cell_idx + b_)
            vals.append(grad[:, a] * grad[:, b_])

    # smoothness: graph Laplacian over the 4D lattice, one copy per component
    diag = np.full(m, params.beta_t)
    if penalty is not None:
        pen = penalty.d.reshape(-1)
        if len(pen) != m:
            raise GridMismatch("penalty shape does not match the space-time stack")
        diag = diag + pen
    if params.beta_s > 0.0:
        shape4 = (t_frames,) + desc.dims
        lattice = cell_idx.reshape(shape4)
        for axis in range(4):
            if shape4[axis] < 2:
                continue
            sl_lo = tuple(slice(0, -1) if a == axis else slice(None) for a in range(4))
            sl_hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(4))
            ca = lattice[sl_lo].reshape(-1)
            cb = lattice[sl_hi].reshape(-1)
            w = params.beta_s
            np.add.at(diag, ca, w)
            np.add.at(diag, cb, w)
            for a in range(3):
                rows.append(3 * ca + a)
                cols.append(3 * cb + a)
                vals.append(np.full(len(ca), -w))
                rows.append(3 * cb + a)
                cols.append(3 * ca + a)
                vals.append(np.full(len(ca), -w))

    for a in range(3):
        rows.append(3 * cell_idx + a)
        cols.append(3 * cell_idx + a)
        vals.append(diag)

    a_mat = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n))
    a_mat.sum_duplicates()
    b = (grad * delta[:, None]).reshape(-1)
    return a_mat, b


def _system_bytes(system):
    a_mat, b = system
    return [(x.dtype, x.tobytes()) for x in (a_mat.data, a_mat.indices, a_mat.indptr, b)]


@pytest.mark.parametrize("frames", [1, 2, 3])
@pytest.mark.parametrize("dims", [(4, 4, 4), (5, 3, 6), (2, 4, 2)])
@pytest.mark.parametrize("beta_s", [0.0, 0.5])
@pytest.mark.parametrize("with_penalty", [False, True])
def test_build_system_equals_the_coo_assembly(frames, dims, beta_s, with_penalty):
    rng = np.random.default_rng([frames, *dims])
    desc = GridDesc((0.1, -0.2, 0.3), 0.1, dims)
    y = desc.cell_centers()[..., 1]
    params = FlowParams(beta_s=beta_s)
    for _ in range(2):                  # the second stack reuses the pattern
        # planes falling along y give gradient products of -0.0, flat
        # frames exact zeros, the noisy frames every sign
        hi = SpaceTimeSDF([ScalarGrid(desc, v) for v in
                           (0.3 - y, np.zeros(dims), rng.normal(size=dims))[:frames]])
        lo = SpaceTimeSDF([ScalarGrid(desc, rng.normal(size=dims)) for _ in range(frames)])
        penalty = None
        if with_penalty:
            d = np.where(rng.uniform(size=(frames,) + dims) < 0.3,
                         rng.uniform(0.0, 10.0, size=(frames,) + dims), 0.0)
            penalty = AlignmentPenalty(d)
        got = build_system(hi, lo, penalty, params)
        assert _system_bytes(got) == _system_bytes(coo_build_system(hi, lo, penalty, params))
        assert got[0].has_canonical_format


# -- solving ----------------------------------------------------------------------

def test_identity_system_returns_rhs():
    n = 30
    a_mat = sp.identity(n, format="csr")
    b = np.random.default_rng(4).normal(size=n)
    u, info = solve_flow(a_mat, b, FlowParams())
    assert info.converged
    assert np.allclose(u, b, atol=1e-8)


def test_translated_sphere_recovers_translation():
    desc = GridDesc((0, 0, 0), 1.0 / 32.0, (32, 32, 32))
    h = desc.cell_size
    t = np.array([1.5 * h, 0.0, 0.0])
    src = sphere_sdf(desc, (0.45, 0.5, 0.5), 0.22)
    dst = sphere_sdf(desc, np.array([0.45, 0.5, 0.5]) + t, 0.22)
    params = FlowParams(beta_s=3.0, beta_t=1e-3)
    a_mat, b = build_system(SpaceTimeSDF([dst]), SpaceTimeSDF([src]), None, params)
    u, info = solve_flow(a_mat, b, params)
    assert info.converged
    field = solution_fields(u, SpaceTimeSDF([src]))[0]
    band = np.abs(src.values) <= 2 * h
    mean_u = field.vectors[band].mean(axis=0)
    assert np.linalg.norm(mean_u - t) <= 0.1 * np.linalg.norm(t)


def _ref_energy(a_mat, b, u, hi, lo):
    """Discrete flow energy E(u) = u.Au - 2 b.u + delta.delta of the system
    `build_system(hi, lo, ...)`, with delta the difference of the two stacks'
    SDFs, so that E(0) = delta.delta."""
    delta = (lo.stacked() - hi.stacked()).reshape(-1)
    return float(u @ (a_mat @ u) - 2.0 * (b @ u) + delta @ delta)


def test_energy_decreases():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    src = sphere_sdf(desc, (0.35, 0.4, 0.4), 0.18)
    dst = sphere_sdf(desc, (0.45, 0.4, 0.4), 0.18)
    params = FlowParams(beta_s=1.0)
    st_dst, st_src = SpaceTimeSDF([dst]), SpaceTimeSDF([src])
    a_mat, b = build_system(st_dst, st_src, None, params)
    u, info = solve_flow(a_mat, b, params)
    assert info.converged
    e0 = _ref_energy(a_mat, b, np.zeros_like(u), st_dst, st_src)
    assert _ref_energy(a_mat, b, u, st_dst, st_src) <= e0


def test_solver_residual_contract():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    rng = np.random.default_rng(5)
    hi = ScalarGrid(desc, rng.normal(size=desc.dims))
    lo = ScalarGrid(desc, rng.normal(size=desc.dims))
    params = FlowParams(beta_s=0.5, cg_tol=1e-8)
    a_mat, b = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]), None, params)
    u, info = solve_flow(a_mat, b, params)
    assert info.converged
    assert np.linalg.norm(a_mat @ u - b) / np.linalg.norm(b) <= 1e-8


def test_unconverged_returns_best_iterate_flagged():
    desc = GridDesc((0, 0, 0), 0.1, (6, 6, 6))
    rng = np.random.default_rng(6)
    hi = ScalarGrid(desc, rng.normal(size=desc.dims))
    lo = ScalarGrid(desc, rng.normal(size=desc.dims))
    params = FlowParams(beta_s=0.5, cg_max_iter=2)
    a_mat, b = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]), None, params)
    u, info = solve_flow(a_mat, b, params)
    assert not info.converged
    assert info.iterations == 2
    assert np.isfinite(u).all()


# -- applying deformations -----------------------------------------------------------

def test_apply_deformation_alpha_zero_bit_identical():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    phi = sphere_sdf(desc, (0.4, 0.4, 0.4), 0.2)
    out = apply_deformation(phi, DeformationField.zeros(desc), 0.0)
    assert np.array_equal(out.values, phi.values)
    rng = np.random.default_rng(7)
    u = DeformationField(desc, rng.normal(size=desc.dims + (3,)))
    out2 = apply_deformation(phi, u, 0.0)
    assert np.array_equal(out2.values, phi.values)


def test_apply_deformation_identity_for_zero_field_any_alpha():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    phi = sphere_sdf(desc, (0.4, 0.4, 0.4), 0.2)
    for alpha in (0.25, 0.5, 1.0):
        out = apply_deformation(phi, DeformationField.zeros(desc), alpha)
        assert np.allclose(out.values, phi.values, atol=1e-14)


def _zero_centroid(phi):
    w = np.maximum(0.0, -phi.values)
    centers = phi.desc.cell_centers()
    return (centers * w[..., None]).sum(axis=(0, 1, 2)) / w.sum()


def test_apply_deformation_constant_translation():
    desc = GridDesc((0, 0, 0), 1.0 / 24, (24, 24, 24))
    h = desc.cell_size
    phi = sphere_sdf(desc, (0.4, 0.5, 0.5), 0.2)
    t = np.array([3 * h, 0, 0])
    u = DeformationField(desc, np.broadcast_to(t, desc.dims + (3,)).copy())
    moved = apply_deformation(phi, u, 1.0)
    c0 = _zero_centroid(phi)
    c1 = _zero_centroid(moved)
    assert np.linalg.norm(c1 - (c0 + t)) < h
    half = apply_deformation(phi, u, 0.5)
    ch = _zero_centroid(half)
    assert np.linalg.norm(ch - (c0 + 0.5 * t)) < h


def test_apply_deformation_mismatch():
    a = GridDesc((0, 0, 0), 0.1, (4, 4, 4))
    b = GridDesc((0, 0, 0), 0.2, (4, 4, 4))
    with pytest.raises(GridMismatch):
        apply_deformation(ScalarGrid.full(a, 1.0), DeformationField.zeros(b), 0.5)


# -- whole-pair interpolation ----------------------------------------------------------

def _blob_particles(center, n, rng):
    pts = center + 0.08 * rng.normal(size=(n, 3))
    return ParticleSet(pts, np.zeros_like(pts))


def test_displace_particles_alpha_zero_or_empty_is_exact_copy():
    desc = GridDesc((0, 0, 0), 0.05, (16, 16, 16))
    x = _blob_particles(np.array([0.4, 0.4, 0.4]), 60, np.random.default_rng(8))
    field = DeformationField(desc, np.full(desc.dims + (3,), 0.1))
    for src, alpha in ((x, 0.0), (ParticleSet.empty(), 1.0)):
        out = displace_particles(src, field, alpha)
        assert not np.shares_memory(out.positions, src.positions)
        assert np.array_equal(out.positions, src.positions)
        assert np.array_equal(out.velocities, src.velocities)


def test_stack_flow_identical_surfaces_leave_particles_unchanged():
    desc = GridDesc((0, 0, 0), 0.05, (16, 16, 16))
    rng = np.random.default_rng(9)
    x = _blob_particles(np.array([0.4, 0.4, 0.4]), 60, rng)
    st = SpaceTimeSDF([sphere_sdf(desc, (0.4, 0.4, 0.4), 0.15)])
    fields, info = stack_flow(st, st, FlowParams(beta_s=1.0))
    assert info.converged
    out = displace_particles(x, fields[0], 1.0)
    assert np.array_equal(out.positions, x.positions)
    assert np.all(fields[0].vectors == 0.0)


def test_stack_flow_moves_a_translated_blob_centroid():
    desc = GridDesc((0, 0, 0), 1.0 / 32, (32, 32, 32))
    h = desc.cell_size
    t = np.array([4 * h, 0, 0])
    c0 = np.array([0.4, 0.5, 0.5])
    src = SpaceTimeSDF([sphere_sdf(desc, c0, 0.18)])
    dst = SpaceTimeSDF([sphere_sdf(desc, c0 + t, 0.18)])
    rng = np.random.default_rng(10)
    pts = c0 + 0.15 * rng.uniform(-1, 1, size=(200, 3))
    keep = np.linalg.norm(pts - c0, axis=1) < 0.17
    x = ParticleSet(pts[keep], np.zeros((keep.sum(), 3)))
    fields, info = stack_flow(src, dst, FlowParams(beta_s=20.0, beta_t=1e-4))
    assert info.converged
    out = displace_particles(x, fields[0], 1.0)
    moved = out.positions.mean(axis=0) - x.positions.mean(axis=0)
    assert np.linalg.norm(moved - t) <= 0.1 * np.linalg.norm(t)
