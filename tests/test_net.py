import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upflow import (CenterMismatch, LengthMismatch, NonFiniteLoss, ParticleSet,
                    TrainingSample, loss_up)
from upflow import io as uio
from upflow.autodiff import Tensor, _unbroadcast, as_tensor, custom, parameter
from upflow import net as unet
from upflow.net import (_BN_EPS, _LR_DECAY, AdamState, DisplacementNet, FeatureSet,
                        Grouping, LevelConfig, NetworkConfig, _init_mlp, _layers,
                        _mlp_backward, _scatter_rows, _set_conv, _up,
                        ball_gather, downsample_conv, farthest_point_indices,
                        flow_embedding, lexical_order, loss_gradients,
                        nearest_indices, neighborhood_assignment, sample_loss,
                        train, up_geometry, upsample_conv)


def cloud(n, seed=0, scale=0.2, center=(0.5, 0.5, 0.5)):
    rng = np.random.default_rng(seed)
    pts = np.asarray(center) + scale * rng.uniform(-1, 1, size=(n, 3))
    vel = 0.1 * rng.normal(size=(n, 3))
    return ParticleSet(pts, vel)


def tiny_config(seed=0):
    return NetworkConfig(
        levels=(LevelConfig(8, 0.25, (6,)), LevelConfig(4, 0.5, (8,)),
                LevelConfig(2, 0.9, (10,))),
        embedding_widths=(12,),
        embedding_radius=0.9,
        smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)),
        seed=seed,
    )


# -- config validation -----------------------------------------------------------

def test_config_requires_halving_counts():
    with pytest.raises(ValueError):
        NetworkConfig(levels=(LevelConfig(8, 0.2, (4,)), LevelConfig(5, 0.4, (4,))),
                      upconv_widths=((4,), (4,)))


_GOOD_LEVELS = (LevelConfig(8, 0.25, (6,)), LevelConfig(4, 0.5, (8,)),
                LevelConfig(2, 0.9, (10,)))


def _with_level(i, **change):
    levels = list(_GOOD_LEVELS)
    fields = {"count": levels[i].count, "radius": levels[i].radius,
              "widths": levels[i].widths, "max_neighbors": levels[i].max_neighbors}
    levels[i] = LevelConfig(**{**fields, **change})
    return {"levels": tuple(levels)}


@pytest.mark.parametrize("change, field", [
    (_with_level(0, widths=()), "levels[0].widths"),
    (_with_level(1, widths=(4, 0)), "levels[1].widths"),
    (_with_level(2, count=0), "levels[2].count"),
    (_with_level(0, max_neighbors=0), "levels[0].max_neighbors"),
    (_with_level(1, radius=-0.5), "levels[1].radius"),
    (_with_level(2, radius=0.0), "levels[2].radius"),
    (_with_level(0, radius=float("nan")), "levels[0].radius"),
    ({"embedding_widths": ()}, "embedding_widths"),
    ({"embedding_widths": (0,)}, "embedding_widths"),
    ({"embedding_radius": 0.0}, "embedding_radius"),
    ({"embedding_radius": float("inf")}, "embedding_radius"),
    ({"smoothing_convs": -2}, "smoothing_convs"),
    ({"upconv_widths": ((0,), (8,), (6,))}, "upconv_widths[0]"),
    ({"upconv_widths": ((10,), (8,), ())}, "upconv_widths[2]"),
    ({"upconv_widths": ((), (), ())}, "upconv_widths[0]"),
])
def test_config_rejects_degenerate_layouts(change, field):
    fields = {"levels": _GOOD_LEVELS, "embedding_widths": (12,), "embedding_radius": 0.9,
              "smoothing_convs": 1, "upconv_widths": ((10,), (8,), (6,)), **change}
    with pytest.raises(ValueError, match=re.escape(field)):
        NetworkConfig(**fields)


def test_net_config_file_names_the_degenerate_field(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("[net]\ncounts = 12,6,3\nradii = 0.06,0.12,0.24\nwidths = 6;8;10\n"
                   "upconv_widths = 10;8;6\nembedding_radius = 0.24\n"
                   "embedding_widths = 0\n")
    with pytest.raises(ValueError, match=r"net\.cfg: \[net\] embedding_widths"):
        uio.parse_net_config(str(cfg))


def test_checkpoint_with_a_degenerate_config_names_the_file(tmp_path):
    class Edited:
        def to_json(self):
            return tiny_config().to_json().replace('"smoothing_convs": 1',
                                                   '"smoothing_convs": -2')
    path = tmp_path / "bad.ffn"
    path.write_bytes(_checkpoint_bytes(Edited(), {}))
    with pytest.raises(ValueError, match=r"bad\.ffn: smoothing_convs"):
        DisplacementNet.load(str(path))


def test_default_config_shapes():
    cfg = NetworkConfig.default(256, 0.02)
    assert [lv.count for lv in cfg.levels] == [64, 16, 4]
    assert [lv.radius for lv in cfg.levels] == [0.04, 0.08, 0.16]
    assert [lv.widths for lv in cfg.levels] == [(32,), (64,), (128,)]


# -- canonical geometry ------------------------------------------------------------

def test_fps_is_permutation_stable():
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(40, 3))
    sel = pts[farthest_point_indices(pts, 10)]
    for _ in range(5):
        perm = rng.permutation(40)
        sel_p = pts[perm][farthest_point_indices(pts[perm], 10)]
        assert np.array_equal(sel, sel_p)


def _loop_farthest_point_indices(points, n):
    """Farthest-point sampling as it was written before it ran over
    coordinate columns."""
    m = len(points)
    n = min(n, m)
    first = lexical_order(points)[0]
    chosen = [int(first)]
    d = np.linalg.norm(points - points[first], axis=1)
    for _ in range(1, n):
        top = d.max()
        cand = np.flatnonzero(d == top)
        if len(cand) > 1:
            sub = points[cand]
            cand = cand[lexical_order(sub)]
        nxt = int(cand[0])
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(points - points[nxt], axis=1))
    return np.asarray(chosen, dtype=np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_fps_equals_the_row_loop_on_ties_and_duplicates(seed):
    # lattices tie distances at every step; repeated points tie at zero
    rng = np.random.default_rng(seed)
    lattice = rng.integers(-3, 4, size=(150, 3)) * 0.25
    jittered = rng.uniform(size=(90, 3))
    for pts in (lattice, np.concatenate([jittered, jittered[:40]]),
                np.concatenate([lattice[:60], lattice[:60] + 1e-9])):
        for n in (1, 7, 64, len(pts) + 5):
            assert _same_bytes([farthest_point_indices(pts, n)],
                               [_loop_farthest_point_indices(pts, n)])


def test_fps_deterministic_and_spread():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(100, 3))
    a = farthest_point_indices(pts, 10)
    b = farthest_point_indices(pts, 10)
    assert np.array_equal(a, b)
    # sampled points are pairwise farther apart than average random pairs
    sub = pts[a]
    d = np.linalg.norm(sub[:, None] - sub[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0.15


def test_ball_gather_membership_and_order():
    pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.3, 0, 0], [2.0, 0, 0]])
    idx, valid = ball_gather(pts, np.array([[0.0, 0.0, 0.0]]), 0.35, 8)
    got = set(idx[0][valid[0]].tolist())
    assert got == {0, 1, 2}
    # canonical order: by lexicographic position
    inside = idx[0][valid[0]]
    assert np.array_equal(inside, inside[lexical_order(pts[inside])])


def loop_ball_gather(points, queries, radius, max_neighbors):
    """The per-query loop ball_gather replaced, with a brute-force candidate
    search in index order (the order the spatial hash it used returned
    coincident points in)."""
    idx = np.zeros((len(queries), max_neighbors), dtype=np.int64)
    valid = np.zeros((len(queries), max_neighbors), dtype=bool)
    for j, q in enumerate(queries):
        cand = np.flatnonzero(np.sum((points - q) ** 2, axis=1) <= radius * radius)
        if len(cand) == 0:
            continue
        sub = points[cand]
        d = np.linalg.norm(sub - q, axis=1)
        sel = np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0], d))[:max_neighbors]
        cand = cand[sel]
        cand = cand[lexical_order(points[cand])]
        idx[j, :len(cand)] = cand
        valid[j, :len(cand)] = True
    return idx, valid


_lattice = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(pts=_lattice, dup=st.lists(st.integers(0, 39), max_size=10),
       qs=st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=1, max_size=12),
       half=st.booleans(), spacing=st.sampled_from([0.1, 0.3, 1.0]),
       reach=st.sampled_from([0.0, 1.0, 2 ** 0.5, 3 ** 0.5, 2.0, 2.5]),
       k=st.integers(1, 8))
def test_ball_gather_equals_the_loop(pts, dup, qs, half, spacing, reach, k):
    # lattices give distance ties, `dup` coincident points, a radius of 1,
    # sqrt(2) or sqrt(3) spacings queries at exactly the radius, and queries
    # far outside the lattice empty rows
    points = np.array(pts + [pts[i % len(pts)] for i in dup], dtype=np.float64) * spacing
    queries = np.array(qs, dtype=np.float64) * spacing
    if half:
        queries = queries + 0.5 * spacing
    radius = reach * spacing
    got = ball_gather(points, queries, radius, k)
    want = loop_ball_gather(points, queries, radius, k)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_ball_gather_equals_the_loop_on_random_clouds():
    rng = np.random.default_rng(8)
    for _ in range(20):
        points = rng.uniform(size=(int(rng.integers(1, 300)), 3))
        queries = rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 80)), 3))
        radius, k = float(rng.uniform(0.0, 0.4)), int(rng.integers(1, 40))
        got = ball_gather(points, queries, radius, k)
        want = loop_ball_gather(points, queries, radius, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def tie_scan_farthest_point_indices(points, n):
    """`farthest_point_indices` as it was before it ran over presorted
    coordinates: each step scans for every maximum and sorts the ties."""
    m = len(points)
    n = min(n, m)
    x, y, z = np.ascontiguousarray(points.T)
    first = int(lexical_order(points)[0])
    chosen = [first]
    d, near, sq = np.empty(m), np.empty(m), np.empty(m)

    def dist_to(i, out):
        np.subtract(x, x[i], out=out)
        np.multiply(out, out, out=out)
        for c in (y, z):
            np.subtract(c, c[i], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(out, sq, out=out)
        np.sqrt(out, out=out)

    dist_to(first, d)
    for _ in range(1, n):
        top = d.max()
        cand = np.flatnonzero(d == top)
        if len(cand) > 1:
            cand = cand[lexical_order(points[cand])]
        nxt = int(cand[0])
        chosen.append(nxt)
        dist_to(nxt, near)
        np.minimum(d, near, out=d)
    return np.asarray(chosen, dtype=np.int64)


def two_sort_ball_gather(points, queries, radius, max_neighbors):
    """`ball_gather` as it was with two many-key lexsorts of every pair."""
    idx = np.zeros((len(queries), max_neighbors), dtype=np.int64)
    valid = np.zeros((len(queries), max_neighbors), dtype=bool)
    rows, cols, d2 = unet.radius_pairs(points, queries, radius)
    for keys in ((np.sqrt(d2),), ()):      # the K nearest, then canonical order
        p = points[cols]
        order = np.lexsort((cols, p[:, 2], p[:, 1], p[:, 0], *keys, rows))
        rows, cols, d2 = rows[order], cols[order], d2[order]
        slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
        keep = slot < max_neighbors
        rows, cols, d2, slot = rows[keep], cols[keep], d2[keep], slot[keep]
    idx[rows, slot] = cols
    valid[rows, slot] = True
    return idx, valid


def padded_down_geometry(points, centers, level):
    """`down_geometry` as it was, with distances and kernels over all K slots."""
    idx, valid = two_sort_ball_gather(points, centers, level.radius, level.max_neighbors)
    npos = points[idx]                                      # (n, K, 3)
    dist = np.linalg.norm(npos - centers[:, None, :], axis=2)
    w = unet.kernel_k(dist / level.radius) * valid
    wsum = w.sum(axis=1)
    has = wsum > 0.0
    wn = np.where(has[:, None], w / np.maximum(wsum, 1e-300)[:, None], 0.0)
    xbar = np.einsum("nk,nkc->nc", wn, npos)
    xbar = np.where(has[:, None], xbar, centers)
    scale = np.linalg.norm(centers - xbar, axis=1)          # per-neighborhood |x - xbar|
    return Grouping(idx, valid, npos - centers[:, None, :], centers, xbar, scale)


def padded_up_geometry(coarse, fine, radius, max_neighbors):
    """`up_geometry` as it was, with distances and kernels over all K slots."""
    idx, valid = two_sort_ball_gather(coarse, fine, radius, max_neighbors)
    dist = np.linalg.norm(coarse[idx] - fine[:, None, :], axis=2)
    w = unet.kernel_k(dist / radius) * valid
    wsum = w.sum(axis=1)
    dead = wsum <= 0.0
    if dead.any():
        idx[dead, 0] = nearest_indices(coarse, fine[dead])
        w[dead] = 0.0
        w[dead, 0] = 1.0
        wsum = w.sum(axis=1)
    return idx, w / wsum[:, None], lexical_order(fine)


def _same_bytes(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want)) and len(got) == len(want)


_geometry_case = dict(
    pts=_lattice, dup=st.lists(st.integers(0, 39), max_size=20),
    qs=st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=1, max_size=12),
    half=st.booleans(), spacing=st.sampled_from([0.1, 0.3, 1.0]),
    reach=st.sampled_from([0.5, 1.0, 2 ** 0.5, 3 ** 0.5, 2.0, 3.5]),
    k=st.integers(1, 8), jitter=st.sampled_from([0.0, 1e-9, 0.2]),
    data_seed=st.integers(0, 2 ** 16))


def _geometry_inputs(pts, dup, qs, half, spacing, jitter, data_seed):
    # lattices tie distances, `dup` repeats points, queries far outside the
    # lattice get empty rows, a small k truncates crowded rows, and jitter
    # splits some of the ties
    rng = np.random.default_rng(data_seed)
    points = np.array(pts + [pts[i % len(pts)] for i in dup], dtype=np.float64)
    points = (points + jitter * rng.uniform(-1, 1, size=points.shape)) * spacing
    queries = np.array(qs, dtype=np.float64) * spacing
    if half:
        queries = queries + 0.5 * spacing
    return points, queries


@settings(max_examples=150, deadline=None)
@given(**_geometry_case)
def test_ball_gather_and_fps_equal_their_two_sort_forms(pts, dup, qs, half, spacing, reach,
                                                        k, jitter, data_seed):
    points, queries = _geometry_inputs(pts, dup, qs, half, spacing, jitter, data_seed)
    radius = reach * spacing
    assert _same_bytes(ball_gather(points, queries, radius, k),
                       two_sort_ball_gather(points, queries, radius, k))
    for n in (1, k, len(points) // 2 + 1, len(points) + 3):
        assert _same_bytes([farthest_point_indices(points, n)],
                           [tie_scan_farthest_point_indices(points, n)])


@settings(max_examples=150, deadline=None)
@given(**_geometry_case)
def test_geometry_equals_its_padded_form(pts, dup, qs, half, spacing, reach, k, jitter,
                                         data_seed):
    points, queries = _geometry_inputs(pts, dup, qs, half, spacing, jitter, data_seed)
    radius = reach * spacing
    level = LevelConfig(len(queries), radius, (4,), k)
    got, want = unet.down_geometry(points, queries, level), padded_down_geometry(points,
                                                                                 queries, level)
    fields = ("idx", "valid", "offsets", "centers", "xbar", "scale")
    assert _same_bytes([getattr(got, f) for f in fields], [getattr(want, f) for f in fields])
    # fine points far from every coarse one fall back to the nearest
    assert _same_bytes(up_geometry(queries, points, radius, k),
                       padded_up_geometry(queries, points, radius, k))
    assert _same_bytes(up_geometry(points, queries, radius, k),
                       padded_up_geometry(points, queries, radius, k))


def test_geometry_equals_its_padded_form_on_random_clouds():
    rng = np.random.default_rng(18)
    for _ in range(20):
        points = rng.uniform(size=(int(rng.integers(1, 300)), 3))
        queries = rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 80)), 3))
        radius, k = float(rng.uniform(0.01, 0.4)), int(rng.integers(1, 40))
        level = LevelConfig(len(queries), radius, (4,), k)
        got, want = unet.down_geometry(points, queries, level), \
            padded_down_geometry(points, queries, level)
        assert _same_bytes([got.idx, got.valid, got.offsets, got.xbar, got.scale],
                           [want.idx, want.valid, want.offsets, want.xbar, want.scale])
        assert _same_bytes(up_geometry(queries, points, radius, k),
                           padded_up_geometry(queries, points, radius, k))
        assert _same_bytes([farthest_point_indices(points, len(queries))],
                           [tie_scan_farthest_point_indices(points, len(queries))])


@pytest.mark.parametrize("spacing", [0.1, 0.37])
def test_nearest_indices_is_the_brute_force_argmin(spacing):
    rng = np.random.default_rng(9)
    lattice = rng.integers(-4, 5, size=(60, 3)).astype(np.float64) * spacing
    points = np.concatenate([lattice, lattice[:10]])     # coincident points tie
    queries = np.concatenate([rng.integers(-5, 6, size=(40, 3)) * spacing,
                              rng.integers(-10, 11, size=(40, 3)) * 0.5 * spacing,
                              rng.uniform(-1, 1, size=(40, 3))])
    d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    assert np.array_equal(nearest_indices(points, queries), np.argmin(d2, axis=1))


def test_neighborhood_assignment_memory_stays_small():
    # a dense queries x centers x 3 float64 distance array would take ~96 MB
    rng = np.random.default_rng(10)
    positions = rng.uniform(size=(4000, 3))
    centers = positions[farthest_point_indices(positions, 1000)]
    tracemalloc.start()
    try:
        assign = neighborhood_assignment(positions, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    d2 = np.sum((positions[:200, None, :] - centers[None, :, :]) ** 2, axis=2)
    assert np.array_equal(assign[:200], np.argmin(d2, axis=1))


# -- spec'd layer behaviors ----------------------------------------------------------

def _layer_params(cfg):
    return DisplacementNet.create(cfg).params


def test_downsample_single_particle_center_is_particle():
    cfg = tiny_config()
    params = _layer_params(cfg)
    pts = np.array([[0.4, 0.5, 0.6]])
    feats = as_tensor(np.array([[0.1, 0.2, 0.3]]))
    lv = LevelConfig(1, 0.3, (6,))
    out = downsample_conv(pts, feats, lv, params, "down0")
    assert np.allclose(out.points[0], pts[0])


def test_downsample_coincident_pair_max_idempotent():
    cfg = tiny_config()
    params = _layer_params(cfg)
    lv = LevelConfig(1, 0.3, (6,))
    one = downsample_conv(np.array([[0.5, 0.5, 0.5]]),
                          as_tensor(np.array([[0.3, -0.2, 0.1]])),
                          lv, params, "down0")
    two = downsample_conv(np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]),
                          as_tensor(np.array([[0.3, -0.2, 0.1]] * 2)),
                          lv, params, "down0")
    assert np.allclose(one.points, two.points)
    assert np.allclose(one.features.value, two.features.value)


def test_downsample_empty_neighborhood_zero_feature():
    cfg = tiny_config()
    params = _layer_params(cfg)
    lv = LevelConfig(1, 0.05, (6,))
    pts = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
    feats = as_tensor(np.ones((2, 3)))
    out = downsample_conv(pts, feats, lv, params, "down0",
                          query_centers=np.array([[0.5, 0.5, 0.5]]))
    assert np.array_equal(out.features.value, np.zeros((1, 6)))


def test_embedding_requires_shared_centers():
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    a = FeatureSet(np.zeros((2, 3)), as_tensor(np.zeros((2, 4))),
                   centers=np.zeros((2, 3)))
    b = FeatureSet(np.zeros((2, 3)), as_tensor(np.zeros((2, 4))),
                   centers=np.ones((2, 3)))
    with pytest.raises(CenterMismatch):
        flow_embedding(a, b, 0.5, 8, model.params, "embed", 0)


def test_embedding_constant_shift_offsets():
    # identical downsampled clouds shifted by t: the low-minus-high offsets at
    # matching centers all equal -t and the embedding is center-independent
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    rng = np.random.default_rng(3)
    base = rng.uniform(0.3, 0.7, size=(6, 3))
    t = np.array([0.015, 0.0, 0.0])
    f = as_tensor(rng.normal(size=(6, 10)))
    low = FeatureSet(base, f, centers=base)
    high = FeatureSet(base + t, f, centers=base)
    idx, valid = ball_gather(high.points, low.points, 0.012 + np.linalg.norm(t), 4)
    offs = low.points[:, None, :] - high.points[idx]
    # with a radius below the inter-point spacing each low center pairs only
    # with its own shifted twin
    assert valid.sum() == 6
    assert np.allclose(offs[valid], -t)


def test_upsample_single_coarse_point_broadcasts():
    from upflow.net import _init_mlp

    params = {}
    rng = np.random.default_rng(0)
    _init_mlp(rng, params, "up_test", 6 + 3, (6,))
    coarse = FeatureSet(np.array([[0.5, 0.5, 0.5]]),
                        as_tensor(np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])))
    fine_pts = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9], [0.5, 0.5, 0.52]])
    skip = FeatureSet(fine_pts, as_tensor(np.zeros((3, 3))))
    # far fine points have empty balls; the layer falls back to the nearest
    out = upsample_conv(coarse, fine_pts, skip, 0.3, params, "up_test")
    assert out.features.value.shape == (3, 6)
    # every fine point receives the single coarse feature (weight 1) pre-MLP;
    # identical interpolated+skip rows give identical outputs
    assert np.allclose(out.features.value[0], out.features.value[1])
    assert np.allclose(out.features.value[0], out.features.value[2])


def test_upsample_equidistant_average():
    cfg = tiny_config()
    params = _layer_params(cfg)
    coarse_pts = np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]])
    a = np.array([1.0, 0.0, 2.0, 0.0, 1.0, 0.0])
    b = np.array([3.0, 4.0, 0.0, 2.0, 1.0, 2.0])
    coarse = FeatureSet(coarse_pts, as_tensor(np.stack([a, b])))
    fine = np.array([[0.5, 0.5, 0.5]])
    idx, valid = ball_gather(coarse_pts, fine, 0.3, 4)
    from upflow.kernels import kernel_k
    d = np.linalg.norm(coarse_pts[idx[0]] - fine[0], axis=1)
    w = kernel_k(d / 0.3) * valid[0]
    w = w / w.sum()
    interp = w @ np.stack([a, b])[idx[0]]
    assert np.allclose(interp, 0.5 * (a + b))


# -- forward -----------------------------------------------------------------------

def test_forward_shape_and_determinism():
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    xl, xh = cloud(32, seed=4), cloud(40, seed=5)
    a = model.predict(xl, xh)
    b = model.predict(xl, xh)
    assert a.shape == (32, 3)
    assert np.array_equal(a, b)


def _default_pair(seed):
    rng = np.random.default_rng(seed)
    g = np.arange(0.0, 0.2, 0.02)
    lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    xl = lattice + rng.uniform(-0.006, 0.006, size=lattice.shape)
    xh = xl + 0.01 + rng.uniform(-0.003, 0.003, size=xl.shape)
    return (ParticleSet(xl, rng.normal(size=xl.shape)),
            ParticleSet(xh, rng.normal(size=xh.shape)))


@pytest.mark.parametrize("make", ["tiny", "default"])
def test_predict_is_forward_without_a_tape(make, monkeypatch):
    # predict gives the bits of forward's values, builds no tape node and so
    # keeps no layer state for a backward pass
    if make == "tiny":
        model, (xl, xh) = DisplacementNet.create(tiny_config(seed=3)), (cloud(40, 12), cloud(52, 13))
    else:
        xl, xh = _default_pair(14)
        model = DisplacementNet.create(NetworkConfig.default(xl.count, 0.02, seed=4))
    nodes = []
    real_custom = unet.custom
    monkeypatch.setattr(unet, "custom", lambda *a: nodes.append(1) or real_custom(*a))
    tracemalloc.start()
    want = model.forward(xl, xh).value
    forward_peak = tracemalloc.get_traced_memory()[1]
    forward_nodes = len(nodes)
    tracemalloc.reset_peak()
    got = model.predict(xl, xh)
    predict_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert forward_nodes > 0 and len(nodes) == forward_nodes
    assert predict_peak < forward_peak
    assert all(t.requires_grad and t.grad is None for t in model.params.values())


def test_forward_zero_params_outputs_bias():
    cfg = tiny_config()
    model = DisplacementNet.zeros(cfg)
    model.params["reg.b"].value[...] = np.array([0.5, -1.0, 2.0])
    xl, xh = cloud(20, seed=6), cloud(24, seed=7)
    out = model.predict(xl, xh)
    # the head's unit is half the first level's radius
    unit = 0.5 * cfg.levels[0].radius
    assert np.allclose(out, np.array([0.5, -1.0, 2.0]) * unit)


def test_forward_permutation_equivariance_bit_exact():
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    xl, xh = cloud(30, seed=8), cloud(36, seed=9)
    base = model.predict(xl, xh)
    rng = np.random.default_rng(10)
    for _ in range(10):
        perm = rng.permutation(xl.count)
        xp = ParticleSet(xl.positions[perm], xl.velocities[perm])
        out = model.predict(xp, xh)
        assert np.array_equal(out, base[perm])


def test_forward_translated_pair_changes_output():
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    xl = cloud(24, seed=11)
    xh = ParticleSet(xl.positions + 0.05, xl.velocities)
    same = model.predict(xl, xl)
    shifted = model.predict(xl, xh)
    assert not np.allclose(same, shifted)


# -- loss ---------------------------------------------------------------------------

def test_loss_zero_on_perfect_prediction():
    w = np.array([[1.0, 0, 0], [0, 1, 0]])
    out = loss_up(w, w, w, np.array([1.0]), np.zeros(2, dtype=int))
    assert float(out.value) == 0.0


def test_loss_reduces_to_l1_with_zero_lambda():
    w = np.array([[1.0, 2, 3], [0, 0, 0]])
    ws = np.zeros((2, 3))
    out = loss_up(w, ws, np.zeros((2, 3)), np.array([0.0]), np.zeros(2, dtype=int))
    assert float(out.value) == pytest.approx((6.0 + 0.0) / 2)


def test_loss_hand_example():
    w = np.array([[1.0, 0, 0], [0, 0, 0]])
    ws = np.zeros((2, 3))
    out = loss_up(w, ws, w, np.array([1.0]), np.zeros(2, dtype=int))
    # per particle: |w - 0| + 1 * |w - w| -> (1 + 0) / 2
    assert float(out.value) == pytest.approx(0.5)


def test_loss_lambda_scales_cycle_term_linearly():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(5, 3))
    ws = rng.normal(size=(5, 3))
    wb = rng.normal(size=(5, 3))
    lam = np.abs(rng.normal(size=(2,)))
    assign = np.array([0, 1, 0, 1, 0])
    base = float(loss_up(w, ws, wb, 0.0 * lam, assign).value)
    l1 = float(loss_up(w, ws, wb, lam, assign).value)
    l3 = float(loss_up(w, ws, wb, 3.0 * lam, assign).value)
    assert l3 - base == pytest.approx(3.0 * (l1 - base), rel=1e-12)


def test_loss_length_mismatch():
    with pytest.raises(LengthMismatch):
        loss_up(np.zeros((3, 3)), np.zeros((2, 3)), np.zeros((3, 3)),
                np.array([1.0]), np.zeros(3, dtype=int))


def test_loss_negative_lambda_rejected():
    with pytest.raises(ValueError):
        loss_up(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)),
                np.array([-1.0]), np.zeros(2, dtype=int))


# -- gradients ------------------------------------------------------------------------

def _sample(n=16, seed=13, t=(0.02, 0.0, 0.0)):
    xl = cloud(n, seed=seed, scale=0.1)
    xh = ParticleSet(xl.positions + np.asarray(t), xl.velocities)
    gt = np.tile(np.asarray(t), (n, 1))
    lam = np.full(n, 0.5)
    return TrainingSample(xl, xh, gt, lam)


def test_full_loss_gradient_matches_fd():
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    sample = _sample(16)

    val0, grads = loss_gradients(model, sample)
    rng = np.random.default_rng(14)
    eps = 1e-6
    checked = 0
    for name in sorted(model.params):
        p = model.params[name]
        flat = p.value.reshape(-1)
        for _ in range(min(3, flat.size)):
            i = int(rng.integers(flat.size))
            keep = flat[i]
            flat[i] = keep + eps
            up, _ = sample_loss(model, sample)
            flat[i] = keep - eps
            dn, _ = sample_loss(model, sample)
            flat[i] = keep
            numeric = (float(up.value) - float(dn.value)) / (2 * eps)
            analytic = grads[name].reshape(-1)[i]
            if abs(analytic) < 1e-7 and abs(numeric) < 1e-7:
                checked += 1  # both at the FD noise floor: a true zero
                continue
            denom = abs(analytic) + abs(numeric)
            assert abs(analytic - numeric) / denom < 1e-4, (name, i)
            checked += 1
    assert checked >= 20


def test_loss_gradients_deterministic():
    cfg = tiny_config()
    model = DisplacementNet.create(cfg)
    sample = _sample(12)
    v1, g1 = loss_gradients(model, sample)
    v2, g2 = loss_gradients(model, sample)
    assert v1 == v2
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


# -- training ----------------------------------------------------------------------

def test_train_identical_pair_drives_loss_down():
    xl = cloud(24, seed=15, scale=0.08)
    sample = TrainingSample(xl, xl.copy(), np.zeros((24, 3)), np.zeros(24))
    cfg = tiny_config(seed=1)
    model, history = train([sample], cfg, epochs=80, lr=1e-2)
    assert history["train"][-1] < history["train"][0]
    assert history["train"][-1] < 0.05 * history["train"][0] + 1e-6


def test_train_deterministic_rerun():
    samples = [_sample(15, seed=s) for s in (16, 17, 18)]
    cfg = tiny_config(seed=2)
    _, h1 = train(samples, cfg, epochs=3)
    _, h2 = train(samples, cfg, epochs=3)
    assert h1["train"] == h2["train"]


def test_train_equals_a_loop_that_rebuilds_geometry_every_step():
    # train builds each sample's geometry once; the public loss_gradients
    # rebuilds it on every call
    samples = [_sample(14, seed=s) for s in (31, 32, 33)]
    val = [_sample(12, seed=34)]
    cfg = tiny_config(seed=6)
    epochs, lr = 4, 5e-3
    model, history = train(samples, cfg, epochs, val=val, lr=lr)

    ref = DisplacementNet.create(cfg)
    opt = AdamState(ref, lr=lr)
    rng = np.random.default_rng(cfg.seed)
    want = {"train": [], "val": []}
    for epoch in range(epochs):
        frac = epoch / (epochs - 1)
        opt.lr = lr * (_LR_DECAY + (1 - _LR_DECAY) * 0.5 * (1 + np.cos(np.pi * frac)))
        losses = []
        for si in rng.permutation(len(samples)):
            loss, grads = loss_gradients(ref, samples[si])
            opt.step(ref, grads)
            losses.append(loss)
        want["train"].append(float(np.mean(losses)))
        want["val"].append(float(np.mean([float(sample_loss(ref, s)[0].value)
                                           for s in val])))
    assert history == want
    for k in ref.params:
        assert np.array_equal(model.params[k].value, ref.params[k].value)


def test_train_reports_validation():
    samples = [_sample(12, seed=s) for s in (19, 20)]
    cfg = tiny_config(seed=3)
    _, hist = train(samples[:1], cfg, epochs=2, val=samples[1:])
    assert len(hist["val"]) == 2


@pytest.mark.parametrize("epochs, lr, field", [
    (0, 1e-3, "epochs"), (-3, 1e-3, "epochs"),
    (2, 0.0, "lr"), (2, -1e-3, "lr"), (2, float("nan"), "lr"), (2, float("inf"), "lr"),
])
def test_train_rejects_no_epochs_and_bad_learning_rates(epochs, lr, field):
    with pytest.raises(ValueError, match=field):
        train([_sample()], tiny_config(), epochs=epochs, lr=lr)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nonfinite():
    xl = cloud(12, seed=21, scale=0.1)
    # adaptive weights large enough to overflow the cycle term
    sample = TrainingSample(xl, xl.copy(), np.zeros((12, 3)), np.full(12, 1e308))
    cfg = tiny_config(seed=4)
    with pytest.raises(NonFiniteLoss):
        train([sample], cfg, epochs=2)


# -- checkpointing -------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config(seed=5)
    model = DisplacementNet.create(cfg)
    xl, xh = cloud(16, seed=22), cloud(20, seed=23)
    before = model.predict(xl, xh)
    path = tmp_path / "net.ffn"
    model.save(str(path))
    loaded = DisplacementNet.load(str(path))
    assert loaded.config == cfg
    # weights survive at float32 precision
    after = loaded.predict(xl, xh)
    assert np.allclose(before, after, atol=1e-5)
    # a second save is byte-identical
    path2 = tmp_path / "net2.ffn"
    loaded.save(str(path2))
    assert path.read_bytes()[:4] == b"FFN1"
    loaded2 = DisplacementNet.load(str(path2))
    assert np.array_equal(loaded.predict(xl, xh), loaded2.predict(xl, xh))
    # the file is the version-2 layout: one tensor block, nothing after it
    params = {k: t.value for k, t in model.params.items()}
    assert path.read_bytes() == _checkpoint_bytes(cfg, params)


def _checkpoint_bytes(config, params):
    """A version-2 checkpoint written field by field: magic, version, the
    config JSON, then the {name: array} block as float32 entries."""
    out = [b"FFN1", struct.pack("<I", 2)]
    cfg = config.to_json().encode("utf-8")
    out += [struct.pack("<I", len(cfg)), cfg, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        out += [struct.pack("<H", len(name)), name.encode("utf-8"),
                struct.pack("<B", arr.ndim), struct.pack(f"<{arr.ndim}I", *arr.shape),
                arr.tobytes()]
    return b"".join(out)


@pytest.mark.parametrize("edit, name", [
    (lambda p: p.pop("down1.l0.gamma"), "down1.l0.gamma"),
    (lambda p: p.update({"up0.l0.W": np.ones((3, 10))}), "up0.l0.W"),
    (lambda p: p.update({"reg.b": np.ones(4)}), "reg.b"),
    (lambda p: p.update({"down0.l0.gamma": np.ones(7)}), "down0.l0.gamma"),
    (lambda p: p.update({"head.W": np.ones((6, 3))}), "head.W"),
])
def test_checkpoint_must_fit_its_config(tmp_path, edit, name):
    # a missing, mis-shaped or unknown entry fails at load, naming the file
    # and the parameter, instead of in a later forward pass
    cfg = tiny_config(seed=8)
    params = {k: t.value for k, t in DisplacementNet.create(cfg).params.items()}
    edit(params)
    path = tmp_path / "bad.ffn"
    path.write_bytes(_checkpoint_bytes(cfg, params))
    with pytest.raises(ValueError, match=rf"bad\.ffn: parameter {re.escape(name)} "):
        DisplacementNet.load(str(path))


def test_truncated_checkpoint_raises(tmp_path):
    cfg = NetworkConfig(levels=(LevelConfig(2, 0.5, (2,)),), embedding_widths=(2,),
                        smoothing_convs=0, upconv_widths=((2,),))
    path = tmp_path / "cut.ffn"
    DisplacementNet.create(cfg).save(str(path))
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError) as err:
            DisplacementNet.load(str(path))
        assert str(path) in str(err.value), n



def test_checkpoint_unsupported_version_names_the_file(tmp_path):
    path = tmp_path / "v3.ffn"
    DisplacementNet.create(tiny_config()).save(str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
    with pytest.raises(ValueError, match="version 3") as err:
        DisplacementNet.load(str(path))
    assert str(path) in str(err.value)


def test_checkpoint_refuses_version_1(tmp_path):
    # version 1 heads predicted in world units; read in the head's unit they
    # would move particles by the wrong amount, so the file is refused
    path = tmp_path / "v1.ffn"
    DisplacementNet.create(tiny_config()).save(str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:] + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="version 1.*retrain") as err:
        DisplacementNet.load(str(path))
    assert str(path) in str(err.value)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ffn"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        DisplacementNet.load(str(path))


def test_neighborhood_assignment_covers_all():
    cfg = tiny_config()
    xl = cloud(30, seed=24)
    centers = xl.positions[farthest_point_indices(xl.positions, cfg.levels[0].count)]
    assign = neighborhood_assignment(xl.positions, centers)
    assert assign.shape == (30,)
    assert assign.min() >= 0
    assert assign.max() < len(centers)


def test_sample_plan_samples_each_point_set_once(monkeypatch):
    cfg = tiny_config()
    sample = _sample(n=30, seed=24)
    sampled = []
    real = unet.farthest_point_indices

    def counting(points, n):
        sampled.append(points.copy())
        return real(points, n)

    monkeypatch.setattr(unet, "farthest_point_indices", counting)
    _, _, assign, _ = unet.sample_plan(sample, cfg)
    # one sampling per level of the forward and of the cycle pass
    assert len(sampled) == 2 * len(cfg.levels)
    for i, a in enumerate(sampled):
        assert not any(a.shape == b.shape and np.array_equal(a, b) for b in sampled[:i])
    x_l = sample.x_l.positions
    centers = x_l[real(x_l, cfg.levels[0].count)]
    assert np.array_equal(assign, nearest_indices(centers, x_l))


def test_loss_nonnegative_random_inputs():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 4))
        val = float(loss_up(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)),
                            rng.normal(size=(n, 3)), np.abs(rng.normal(size=k)),
                            rng.integers(0, k, size=n)).value)
        assert val >= 0.0


# -- fused layers against the tape-built layers they replaced ------------------------
#
# `_set_conv` and `_up` are single tape nodes with a hand-derived backward.
# The reference below is the tape-built version they replaced: one node per
# concat, gather, matmul, batch-norm step, ReLU and max. Forward values must
# be bit-equal; gradients agree to rounding, on one scale for all of them.

def _ref_concat(tensors, axis=-1):
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    bounds = np.cumsum([0] + [t.value.shape[axis] for t in tensors])

    def bw(g):
        for t, a, b in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accumulate(g[tuple(sl)])
    return Tensor(out_val, tuple(tensors), bw)


def _ref_weighted_sum(x, weights):
    def bw(g):
        x._accumulate(weights[:, :, None] * g[:, None, :])
    return Tensor(np.einsum("ik,ikc->ic", weights, x.value), (x,), bw)


def _ref_reshape(x, *shape):
    def bw(g):
        x._accumulate(g.reshape(x.shape))
    return Tensor(x.value.reshape(*shape), (x,), bw)


def _ref_gather(x, index):
    """Row gather x[index]; backward scatter-adds into the source rows."""
    def bw(g):
        acc = np.zeros_like(x.value)
        np.add.at(acc, index, g)
        x._accumulate(acc)
    return Tensor(x.value[index], (x,), bw)


def _ref_sum(x, axes, keepdims=False):
    """Sum over the tuple `axes`; backward broadcasts the gradient back."""
    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.shape).astype(np.float64))
    return Tensor(x.value.sum(axis=axes, keepdims=keepdims), (x,), bw)


def _ref_mean(x, axis):
    return _ref_sum(x, (axis,)) * (1.0 / x.shape[axis])


def _ref_relu(x):
    mask = x.value > 0.0

    def bw(g):
        x._accumulate(np.where(mask, g, 0.0))
    return Tensor(np.where(mask, x.value, 0.0), (x,), bw)


def _ref_sqrt(x):
    out_val = np.sqrt(x.value)

    def bw(g):
        x._accumulate(g * 0.5 / out_val)
    return Tensor(out_val, (x,), bw)


def _ref_div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.value, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.value / b.value ** 2, b.shape))
    return Tensor(a.value / b.value, (a, b), bw)


def _ref_masked_max(x, valid):
    """Max over axis 1 of (n, K, C), ignoring slots where `valid` (n, K) is
    False; rows with no valid slot give zeros. The gradient goes to the
    argmax slot (lowest index on ties)."""
    n, _, c = x.value.shape
    neg = np.where(valid[:, :, None], x.value, -np.inf)
    arg = np.argmax(neg, axis=1)
    any_valid = valid.any(axis=1)
    rows, chans = np.arange(n)[:, None], np.arange(c)[None, :]

    def bw(g):
        acc = np.zeros_like(x.value)
        np.add.at(acc, (rows, arg, chans), np.where(any_valid[:, None], g, 0.0))
        x._accumulate(acc)
    return Tensor(np.where(any_valid[:, None], neg[rows, arg, chans], 0.0), (x,), bw)


def _ref_batchnorm(x, gamma, beta, valid=None, stat_order=None):
    """Batch norm with statistics over the valid slots of a 3D input, or over
    the rows of a 2D input taken in `stat_order`; a 3D input with no valid
    slot is normalized with mean 0 and variance 1."""
    if valid is not None:
        mask = valid[:, :, None].astype(np.float64)
        count = float(valid.sum())
        if count == 0.0:
            mean = as_tensor(np.zeros(x.shape[-1]))
            var = as_tensor(np.ones(x.shape[-1]))
        else:
            mean = _ref_sum(x * mask, (0, 1)) * (1.0 / count)
            cen = x - mean
            var = _ref_sum(cen * cen * mask, (0, 1)) * (1.0 / count)
    else:
        xs = _ref_gather(x, stat_order)
        mean = _ref_mean(xs, 0)
        cen = xs - mean
        var = _ref_mean(cen * cen, 0)
    return _ref_div(x - mean, _ref_sqrt(var + _BN_EPS)) * gamma + beta


def _ref_mlp(x, params, prefix, valid=None, stat_order=None):
    """(Linear -> batch norm -> ReLU) per layer; a layer's Linear adds the
    bias `{prefix}.l{n}.b` when `params` holds one."""
    ell = 0
    while f"{prefix}.l{ell}.W" in params:
        w = params[f"{prefix}.l{ell}.W"]
        if x.value.ndim == 3:
            n, k, c = x.value.shape
            h = _ref_reshape(_ref_reshape(x, n * k, c) @ w, n, k, w.value.shape[1])
        else:
            h = x @ w
        if f"{prefix}.l{ell}.b" in params:
            h = h + params[f"{prefix}.l{ell}.b"]
        h = _ref_batchnorm(h, params[f"{prefix}.l{ell}.gamma"],
                           params[f"{prefix}.l{ell}.beta"], valid, stat_order)
        x = _ref_relu(h)
        ell += 1
    return x


def _ref_set_conv(parts, group, params, prefix):
    inp = _ref_concat([*parts, as_tensor(group.offsets)], axis=-1)
    h = _ref_mlp(inp, params, prefix, valid=group.valid)
    return _ref_masked_max(h, group.valid)


def _ref_up(blend, coarse, skip, params, prefix):
    idx, weights, order = blend
    inp = _ref_concat([_ref_weighted_sum(_ref_gather(coarse, idx), weights), skip], axis=-1)
    return _ref_mlp(inp, params, prefix, stat_order=order)


def _leaf(value, grad):
    return parameter(value) if grad else as_tensor(value)


def _fused_against_tape(fused, ref, leaves, rng):
    """Run both layers, back-propagate one random projection of their
    outputs, and return the worst value error over the largest reference
    value (0 when bit-equal) and the worst gradient error over the largest
    reference gradient."""
    out, want = fused(), ref()
    proj = rng.normal(size=want.shape)
    for run in (fused, ref):
        for t in leaves:
            t.grad = None
        (run() * proj).sum().backward()
        grads = [t.grad for t in leaves]
        if run is fused:
            got = grads
    scale = max(float(np.abs(g).max()) for g in grads if g is not None)
    err = 0.0
    for g_fused, g_ref in zip(got, grads):
        assert (g_fused is None) == (g_ref is None)
        if g_ref is not None:
            err = max(err, float(np.abs(g_fused - g_ref).max()))
    value_err = float(np.abs(out.value - want.value).max(initial=0.0))
    return (value_err / max(float(np.abs(want.value).max(initial=0.0)), 1e-300),
            err / max(scale, 1e-300))


_widths = st.lists(st.integers(1, 5), min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), widths=_widths, n=st.integers(1, 7),
       k=st.integers(1, 6), fill=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       layout=st.sampled_from(["down", "down-no-grad", "embed", "smooth"]))
def test_fused_set_conv_matches_the_tape(seed, widths, n, k, fill, layout):
    # fill 0 is a grouping with no valid slot (batch norm's count == 0
    # branch); other fills leave random rows with no valid neighbour
    rng = np.random.default_rng(seed)
    n_src = int(rng.integers(1, 9))
    c = int(rng.integers(1, 4))
    valid = rng.uniform(size=(n, k)) < fill
    offsets = rng.normal(size=(n, k, 3))
    group = Grouping(rng.integers(0, n_src, size=(n, k)), valid, offsets)
    src = _leaf(rng.normal(size=(n_src, c)), layout != "down-no-grad")
    if layout.startswith("down"):
        scale = rng.uniform(0.0, 2.0, size=n)
        parts = [(src, group.idx, scale)]
        ref_parts = lambda: [_ref_gather(src, group.idx) * scale[:, None, None]]  # noqa: E731
        leaves = [src]
    elif layout == "embed":
        # the low source is read through the repeated self index
        low = parameter(rng.normal(size=(n, c)))
        self_idx = np.repeat(np.arange(n)[:, None], k, axis=1)
        parts = [(low, self_idx, None), (src, group.idx, None)]
        ref_parts = lambda: [_ref_gather(low, self_idx), _ref_gather(src, group.idx)]  # noqa: E731
        leaves = [low, src]
    else:
        parts = [(src, group.idx, None)]
        ref_parts = lambda: [_ref_gather(src, group.idx)]  # noqa: E731
        leaves = [src]
    params = {}
    _init_mlp(rng, params, "sc", sum(p[0].value.shape[1] for p in parts) + 3, widths)
    for t in params.values():          # batch-norm affine parameters off 1 and 0
        t.value += 0.3 * rng.normal(size=t.value.shape)
    diff, err = _fused_against_tape(lambda: _set_conv(parts, group, params, "sc"),
                                    lambda: _ref_set_conv(ref_parts(), group, params, "sc"),
                                    leaves + list(params.values()), rng)
    assert diff == 0.0
    assert err <= 1e-10


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), widths=_widths, n_coarse=st.integers(1, 6),
       n_fine=st.integers(1, 12), radius=st.sampled_from([0.05, 0.2, 0.5, 2.0]),
       skip_grad=st.booleans())
def test_fused_up_matches_the_tape(seed, widths, n_coarse, n_fine, radius, skip_grad):
    # small radii leave fine points with no coarse point in reach: their
    # rows fall back to the nearest coarse point with weight 1
    rng = np.random.default_rng(seed)
    cc, cs = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    blend = up_geometry(rng.uniform(size=(n_coarse, 3)), rng.uniform(size=(n_fine, 3)),
                        radius, int(rng.integers(1, 5)))
    coarse = parameter(rng.normal(size=(n_coarse, cc)))
    skip = _leaf(rng.normal(size=(n_fine, cs)), skip_grad)
    params = {}
    _init_mlp(rng, params, "up", cc + cs, widths)
    for t in params.values():
        t.value += 0.3 * rng.normal(size=t.value.shape)
    diff, err = _fused_against_tape(lambda: _up(blend, coarse, skip, params, "up"),
                                    lambda: _ref_up(blend, coarse, skip, params, "up"),
                                    [coarse, skip] + list(params.values()), rng)
    assert diff == 0.0
    assert err <= 1e-10


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), widths=_widths, n=st.integers(1, 9),
       k=st.integers(1, 6), fill=st.sampled_from([0.0, 0.3, 1.0]))
def test_record_free_layers_give_the_tape_bits(seed, widths, n, k, fill):
    # with no input requiring gradients the fused layers build no tape node,
    # and their values are the reference's to the bit: the ReLU's product
    # form leaves no -0.0 where np.where gives 0.0
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 4))
    params = {}
    _init_mlp(rng, params, "sc", c + 3, widths)
    _init_mlp(rng, params, "up", c + 2, widths)
    const = {key: as_tensor(t.value + 0.3 * rng.normal(size=t.value.shape))
             for key, t in params.items()}
    src = as_tensor(rng.normal(size=(n, c)))
    group = Grouping(rng.integers(0, n, size=(n, k)), rng.uniform(size=(n, k)) < fill,
                     rng.normal(size=(n, k, 3)))
    blend = up_geometry(rng.uniform(size=(n, 3)), rng.uniform(size=(n + 2, 3)), 0.4,
                        int(rng.integers(1, 5)))
    skip = as_tensor(rng.normal(size=(n + 2, 2)))
    for got, want in ((_set_conv([(src, group.idx, None)], group, const, "sc"),
                       _ref_set_conv([_ref_gather(src, group.idx)], group, const, "sc")),
                      (_up(blend, src, skip, const, "up"),
                       _ref_up(blend, src, skip, const, "up"))):
        assert not got.requires_grad and got._parents == ()
        assert got.value.tobytes() == want.value.tobytes()

def test_fused_layers_cover_the_fallback_and_empty_branches():
    # the hypothesis draws above reach these cases; pin one of each here
    rng = np.random.default_rng(40)
    blend = up_geometry(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                        np.array([[0.05, 0.0, 0.0], [0.5, 0.5, 0.5], [0.9, 1.0, 1.0]]),
                        0.2, 2)
    assert np.count_nonzero(blend[1] == 1.0) >= 1     # a nearest-point row
    coarse = parameter(rng.normal(size=(2, 3)))
    params = {}
    _init_mlp(rng, params, "up", 3 + 2, (4, 3))
    skip = as_tensor(rng.normal(size=(3, 2)))
    diff, err = _fused_against_tape(lambda: _up(blend, coarse, skip, params, "up"),
                                    lambda: _ref_up(blend, coarse, skip, params, "up"),
                                    [coarse] + list(params.values()), rng)
    assert diff == 0.0 and err <= 1e-10

    empty = Grouping(np.zeros((3, 4), dtype=np.int64), np.zeros((3, 4), dtype=bool),
                     rng.normal(size=(3, 4, 3)))
    src = parameter(rng.normal(size=(2, 3)))
    params = {}
    _init_mlp(rng, params, "sc", 6, (4, 2))
    out = _set_conv([(src, empty.idx, None)], empty, params, "sc")
    assert np.array_equal(out.value, np.zeros((3, 2)))
    out.sum().backward()
    assert np.array_equal(src.grad, np.zeros((2, 3)))
    assert all(np.array_equal(t.grad, np.zeros_like(t.value)) for t in params.values())


@pytest.mark.parametrize("fill", [0.0, 0.3, 0.7, 1.0])
def test_pre_batch_norm_bias_cancels_in_set_conv(fill):
    # the reference adds a Linear bias before each batch norm; the fused
    # layer has none. Fill 0 takes batch norm's count == 0 branch.
    rng = np.random.default_rng(int(fill * 10) + 50)
    n, k, c = 6, 5, 3
    valid = rng.uniform(size=(n, k)) < fill
    valid[-1] = False
    group = Grouping(rng.integers(0, 7, size=(n, k)), valid, rng.normal(size=(n, k, 3)))
    src = parameter(rng.normal(size=(7, c)))
    params = {}
    _init_mlp(rng, params, "sc", c + 3, (4, 3))
    for t in params.values():
        t.value += 0.3 * rng.normal(size=t.value.shape)
    biased = {**params, "sc.l0.b": as_tensor(0.3 * rng.normal(size=4)),
              "sc.l1.b": as_tensor(0.3 * rng.normal(size=3))}
    diff, err = _fused_against_tape(
        lambda: _set_conv([(src, group.idx, None)], group, params, "sc"),
        lambda: _ref_set_conv([_ref_gather(src, group.idx)], group, biased, "sc"),
        [src] + list(params.values()), rng)
    assert diff <= 1e-12 and err <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_pre_batch_norm_bias_cancels_in_up(seed):
    # a small radius leaves fine points with no coarse point in reach, so
    # their rows take the nearest-point fallback
    rng = np.random.default_rng(seed + 60)
    coarse_pts, fine_pts = rng.uniform(size=(5, 3)), rng.uniform(size=(11, 3))
    gap = np.linalg.norm(fine_pts[:, None] - coarse_pts[None], axis=2).min(axis=1)
    assert np.any(gap > 0.3)
    blend = up_geometry(coarse_pts, fine_pts, 0.3, 3)
    coarse = parameter(rng.normal(size=(5, 4)))
    skip = parameter(rng.normal(size=(11, 2)))
    params = {}
    _init_mlp(rng, params, "up", 6, (5, 3))
    for t in params.values():
        t.value += 0.3 * rng.normal(size=t.value.shape)
    biased = {**params, "up.l0.b": as_tensor(0.3 * rng.normal(size=5)),
              "up.l1.b": as_tensor(0.3 * rng.normal(size=3))}
    diff, err = _fused_against_tape(lambda: _up(blend, coarse, skip, params, "up"),
                                    lambda: _ref_up(blend, coarse, skip, biased, "up"),
                                    [coarse, skip] + list(params.values()), rng)
    assert diff <= 1e-12 and err <= 1e-10


def _tape_nodes(loss):
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_loss_tape_stays_small():
    # criterion 06's layout: the tape-built layers made 639 nodes per loss
    # (one per concat, matmul, batch-norm step, ReLU and max); one node per
    # set convolution and upsampling MLP makes 69, of which 26 are parameters
    cfg = NetworkConfig(levels=_GOOD_LEVELS, embedding_widths=(12,), embedding_radius=0.9,
                        smoothing_convs=1, upconv_widths=((10,), (8,), (6,)), seed=12)
    rng = np.random.default_rng(3)
    pts = np.array([0.5, 0.5, 0.5]) + 0.15 * rng.uniform(-1, 1, size=(30, 3))
    vel = 0.1 * rng.normal(size=(30, 3))
    sample = TrainingSample(ParticleSet(pts, vel), ParticleSet(pts + 0.02, vel),
                            np.full((30, 3), 0.02), np.full(30, 0.5))
    loss, _ = sample_loss(DisplacementNet.create(cfg), sample)
    assert _tape_nodes(loss) <= 100


# -- occupied-slot layers against the padded ones ------------------------------------
#
# The references below are the padded layers, self-contained: their MLP is
# the padded (n, K, C) forward with masked batch statistics that the
# compact-row layers replaced, so a change to the library's MLP cannot
# change the reference along with it.

def padded_mlp_forward(x: np.ndarray, layers, valid: np.ndarray | None,
                       stat_order: np.ndarray | None, record: bool = True):
    """Shared nonlinear map h on plain arrays: (Linear -> BatchNorm -> ReLU)
    per layer. The Linear has no bias, as the batch norm's mean subtraction
    would cancel it.

    Batch-norm statistics come from the current input set: its valid slots
    (3D input) or its rows in the canonical `stat_order` (2D input), so they
    never depend on input permutation. The "batch" is the processed particle
    cloud itself, at inference too: running averages taken across training
    clouds diverged from the per-cloud normalization the network learns.

    With `record`, keeps for `_mlp_backward` only the rows that reach the
    output (the valid slots of a 3D input, every row of a 2D one): each
    layer's input, centred values and ReLU mask there, and the per-channel
    std; without it, keeps nothing and returns `saved` as None.

    The ReLU is pre * (pre > 0) + 0.0, where the + 0.0 turns -0.0 into 0.0:
    on finite inputs these are the bits of np.where(pre > 0, pre, 0.0).
    Inputs must be finite (`ParticleSet` admits no other positions or
    velocities, and `train` stops at a non-finite loss); an inf or NaN
    pre-activation would give NaN where np.where gives 0.0."""
    if valid is None:
        def keep(a):
            return a
    else:
        mask = valid[:, :, None].astype(np.float64)
        count = float(valid.sum())
        kept = np.flatnonzero(valid)

        def keep(a):
            return a.reshape(-1, a.shape[-1])[kept]
    saved = [] if record else None
    for w, gamma, beta in layers:
        if x.ndim == 3:
            n, k, c = x.shape
            h = (x.reshape(n * k, c) @ w.value).reshape(n, k, w.value.shape[1])
        else:
            h = x @ w.value
        if valid is None:
            hs = h[stat_order]
            mean = hs.sum(axis=0) * (1.0 / len(hs))
            hs -= mean
            var = (hs * hs).sum(axis=0) * (1.0 / len(hs))
            cen = h - mean
        elif count == 0.0:
            # no populated neighborhood: normalize trivially
            cen, var = h, np.ones(h.shape[-1])
        else:
            sq = h * mask
            mean = sq.sum(axis=(0, 1)) * (1.0 / count)
            cen = h - mean
            np.multiply(cen, cen, out=sq)
            sq *= mask
            var = sq.sum(axis=(0, 1)) * (1.0 / count)
        std = np.sqrt(var + _BN_EPS)
        pre = cen / std
        pre *= gamma.value
        pre += beta.value
        relu = pre > 0.0
        if record:
            saved.append((keep(x), keep(cen), keep(relu), std))
        np.multiply(pre, relu, out=pre)
        pre += 0.0
        x = pre
    return x, saved


def padded_set_conv(parts, group: Grouping, params: dict, prefix: str) -> Tensor:
    """Masked max over each row's neighbors of h(parts..., offset), as one
    tape node. Each part is (source tensor, idx, row scale or None) and
    contributes source[idx] (times scale per row)."""
    layers = _layers(params, prefix)
    parents = [src for src, _, _ in parts] + [t for layer in layers for t in layer]
    record = any(t.requires_grad for t in parents)
    valid = group.valid
    cols = []
    for src, idx, scale in parts:
        v = src.value[idx]
        cols.append(v if scale is None else v * scale[:, None, None])
    out, saved = padded_mlp_forward(np.concatenate(cols + [group.offsets], axis=-1),
                                    layers, valid, None, record)
    c = out.shape[2]
    neg = np.where(valid[:, :, None], out, -np.inf)
    any_valid = valid.any(axis=1)
    value = np.where(any_valid[:, None], neg.max(axis=1), 0.0)
    if not record:
        return Tensor(value)
    arg = np.argmax(neg, axis=1)                      # (n, C); first max wins
    # position of every valid slot among the kept rows; the max reads one
    # slot per (row, channel), so its gradient is a plain assignment
    slot = np.cumsum(valid.ravel()).reshape(valid.shape) - 1
    hit_rows, hit_chans = np.nonzero(np.broadcast_to(any_valid[:, None], arg.shape))
    hit_slots = slot[hit_rows, arg[hit_rows, hit_chans]]
    valid_rows = np.nonzero(valid)[0]

    def backward(g):
        dy = np.zeros((len(valid_rows), c))
        dy[hit_slots, hit_chans] = g[hit_rows, hit_chans]
        dx, grads = _mlp_backward(dy, layers, saved)
        out, a = [], 0
        for src, idx, scale in parts:
            b = a + src.value.shape[1]
            d = dx[:, a:b] if scale is None else dx[:, a:b] * scale[valid_rows, None]
            out.append(_scatter_rows(idx[valid], d, len(src.value))
                       if src.requires_grad else None)
            a = b
        return out + grads
    return custom(value, parents, backward)


def padded_up(blend, coarse: Tensor, skip: Tensor, params: dict, prefix: str) -> Tensor:
    """Blend of the coarse neighbors' features, concatenated with the skip
    feature and passed through the MLP, as one tape node."""
    idx, weights, order = blend
    layers = _layers(params, prefix)
    parents = [coarse, skip] + [t for layer in layers for t in layer]
    record = any(t.requires_grad for t in parents)
    cc = coarse.value.shape[1]
    inp = np.concatenate([np.einsum("ik,ikc->ic", weights, coarse.value[idx]),
                          skip.value], axis=-1)
    value, saved = padded_mlp_forward(inp, layers, None, order, record)
    if not record:
        return Tensor(value)
    hit = weights != 0.0
    hit_rows = np.nonzero(hit)[0]

    def backward(g):
        dx, grads = _mlp_backward(g, layers, saved)
        dc = None
        if coarse.requires_grad:
            dc = _scatter_rows(idx[hit], weights[hit][:, None] * dx[hit_rows, :cc],
                               len(coarse.value))
        return [dc, dx[:, cc:]] + grads
    return custom(value, parents, backward)


def _bits_and_grads(layer, leaves, proj):
    """The output bytes of `layer()` and, when it records, the gradient
    bytes of every leaf after back-propagating `proj`."""
    for t in leaves:
        t.grad = None
    out = layer()
    got = [out.value.tobytes()]
    if out.requires_grad:
        (out * proj).sum().backward()
        got += [None if t.grad is None else t.grad.tobytes() for t in leaves]
    return got


def _packed_cloud(rng, k):
    """Points with a dense clump (its query row fills all k slots and more),
    scattered points (partly filled rows) and queries far from every point
    (empty rows)."""
    clump = 0.5 + 0.01 * rng.uniform(-1, 1, size=(k + 5, 3))
    loose = rng.uniform(0.2, 0.8, size=(40, 3))
    points = np.concatenate([clump, loose])
    queries = np.concatenate([[[0.5, 0.5, 0.5]], rng.uniform(0.2, 0.8, size=(12, 3)),
                              [[3.0, 3.0, 3.0], [-2.0, 0.5, 0.5]]])
    return points, queries


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("layout", ["down", "embed", "random-mask", "empty"])
@pytest.mark.parametrize("widths", [(6, 5), (4, 1), (1, 3)])
def test_set_conv_on_occupied_slots_equals_the_padded_layer(widths, layout, seed, record):
    # a one-channel layer's product rounds by each row's position (BLAS's
    # matrix-vector path) and its batch-norm sums are pairwise over every
    # slot, padding included: the layer must run in the padded layout then.
    # (1, 3) on "embed" (9 input channels) fails when only the sums do
    rng = np.random.default_rng(seed)
    k = 8 if seed % 2 else 32
    points, queries = _packed_cloud(rng, k)
    if layout in ("random-mask", "empty"):
        # any mask, not only ball_gather's prefixes; some columns stay empty,
        # and "empty" has no valid slot at all
        valid = rng.uniform(size=(len(queries), k)) < 0.3
        valid[:, k // 2:] = False
        valid[-2:] = False
        valid &= layout != "empty"
        idx = rng.integers(0, len(points), size=valid.shape)
    else:
        idx, valid = ball_gather(points, queries, 0.15, k)
        assert valid[0].all() and not valid[-2:].any()
    group = Grouping(idx, valid, rng.normal(size=idx.shape + (3,)))
    leaf = parameter if record else as_tensor
    c = 3
    src = leaf(rng.normal(size=(len(points), c)))
    if layout == "embed":
        low = leaf(rng.normal(size=(len(queries), c)))
        self_idx = np.repeat(np.arange(len(queries))[:, None], k, axis=1)
        parts, leaves = [(low, self_idx, None), (src, idx, None)], [low, src]
    else:
        parts, leaves = [(src, idx, rng.uniform(0.0, 2.0, size=len(queries)))], [src]
    params = {}
    _init_mlp(rng, params, "sc", sum(p[0].value.shape[1] for p in parts) + 3, widths)
    for t in params.values():
        t.value += 0.3 * rng.normal(size=t.value.shape)
        t.requires_grad = record
    leaves += list(params.values())
    proj = rng.normal(size=(len(queries), widths[-1]))
    want = _bits_and_grads(lambda: padded_set_conv(parts, group, params, "sc"), leaves, proj)
    got = _bits_and_grads(lambda: _set_conv(parts, group, params, "sc"), leaves, proj)
    assert len(got) == (1 + len(leaves) if record else 1)
    assert got == want


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("channels", [4, 1])
def test_up_on_occupied_slots_equals_the_padded_layer(channels, seed, record):
    # one coarse channel: the blend's einsum sums the slots pairwise
    rng = np.random.default_rng(seed)
    k = 8 if seed % 2 else 32
    clump = np.array([0.9, 0.9, 0.9])
    coarse_pts = np.concatenate([rng.uniform(0.1, 0.6, size=(20, 3)),
                                 clump + 0.01 * rng.uniform(-1, 1, size=(k + 3, 3))])
    # scattered fine points see a few coarse points or none (dead rows, which
    # fall back to the nearest); the last-but-one fills all k slots
    fine_pts = np.concatenate([rng.uniform(0.1, 0.6, size=(30, 3)), [clump, [5.0, 5.0, 5.0]]])
    leaf = parameter if record else as_tensor
    coarse = leaf(rng.normal(size=(len(coarse_pts), channels)))
    params = {}
    _init_mlp(rng, params, "up", channels + 2, (5, 3))
    for t in params.values():
        t.value += 0.3 * rng.normal(size=t.value.shape)
        t.requires_grad = record
    widths = []
    for fine in (fine_pts, fine_pts[:30]):
        blend = up_geometry(coarse_pts, fine, 0.13, k)
        widths.append(int(np.flatnonzero((blend[1] != 0.0).any(axis=0))[-1]) + 1)
        skip = leaf(rng.normal(size=(len(fine), 2)))
        leaves = [coarse, skip] + list(params.values())
        proj = rng.normal(size=(len(fine), 3))
        want = _bits_and_grads(lambda: padded_up(blend, coarse, skip, params, "up"),
                               leaves, proj)
        got = _bits_and_grads(lambda: _up(blend, coarse, skip, params, "up"), leaves, proj)
        assert got == want
    assert widths[0] == k and widths[1] < k
    assert np.array_equal(up_geometry(coarse_pts, fine_pts, 0.13, k)[1][-1], np.eye(k)[0])


def test_predict_keeps_its_memory_peak_small():
    # the padded layers gathered (N, 32, C) arrays for rows holding a few
    # neighbours: 28.6 MB on this band
    rng = np.random.default_rng(7)
    x = np.array([0.25, 0.25, 0.25]) + 0.1 * rng.uniform(-1, 1, size=(1600, 3))
    low = ParticleSet(x, 0.1 * rng.normal(size=x.shape))
    high = ParticleSet(x + 0.002 * rng.normal(size=x.shape), low.velocities)
    model = DisplacementNet.create(NetworkConfig.default(600, 0.0125))
    tracemalloc.start()
    try:
        model.predict(low, high)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
