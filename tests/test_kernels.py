import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upflow import GridDesc, kernel_k
from upflow.kernels import kernel_scatter


def test_kernel_anchor_values():
    assert kernel_k(0.0) == 1.0
    assert kernel_k(1.0) == 0.0
    assert kernel_k(0.5) == pytest.approx(0.421875, abs=0.0)


def test_kernel_clamps_beyond_support():
    assert kernel_k(1.5) == 0.0
    assert kernel_k(100.0) == 0.0


def test_kernel_monotone_and_smooth_at_support():
    s = np.linspace(0.0, 1.0, 200)
    v = kernel_k(s)
    assert np.all(np.diff(v) <= 1e-15)
    # C1 at s=1: both the value and the finite-difference slope vanish
    eps = 1e-6
    assert kernel_k(1.0) == 0.0
    slope = (kernel_k(1.0 + eps) - kernel_k(1.0 - eps)) / (2 * eps)
    assert abs(slope) < 1e-11


def center_weights(offsets, radius):
    """Normalized kernel weights of particles at `offsets` from one cell
    center, as `kernel_scatter`'s acc / wsum gives them (the ratio
    `transfer_to_grid` forms)."""
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1, 3)
    wsum, acc = kernel_scatter(offsets, np.eye(len(offsets)), (-0.5, -0.5, -0.5), 1.0,
                               (1, 1, 1), radius)
    return acc[0, 0, 0] / wsum[0, 0, 0]


def test_weights_single_neighbor_at_center():
    w = center_weights([[0.0, 0.0, 0.0]], 1.0)
    assert w.tolist() == [1.0]


def test_weights_symmetric_pair():
    w = center_weights([[0.3, 0, 0], [-0.3, 0, 0]], 1.0)
    assert w[0] == pytest.approx(0.5)
    assert w[1] == pytest.approx(0.5)


def test_weights_derived_ratio():
    # neighbors at s = 0 and s = 0.5 in units of R
    w = center_weights([[0, 0, 0], [0.5, 0, 0]], 1.0)
    k = 0.421875
    assert w[0] == pytest.approx(1.0 / (1.0 + k), rel=1e-12)
    assert w[1] == pytest.approx(k / (1.0 + k), rel=1e-12)


def test_weights_beyond_radius_are_zero():
    w = center_weights([[0.1, 0, 0], [5.0, 0, 0]], 1.0)
    assert w[1] == 0.0
    assert w[0] == 1.0


@given(st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
                          st.floats(-0.9, 0.9)), min_size=1, max_size=20))
def test_weights_always_sum_to_one(pts):
    # every point lies inside the radius by construction
    w = center_weights(pts, 2.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)


def test_scatter_matches_dense_sum():
    # every cell center within the support gets sum_p k(|c - x_p| / R) and the
    # matching weighted sum of values; particles straddle the grid boundary
    desc = GridDesc((0.0, 0.0, 0.0), 0.1, (6, 5, 4))
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.05, 0.55, size=(25, 3))
    vals = rng.normal(size=(25, 2))
    support = 0.17
    wsum, acc = kernel_scatter(x, vals, desc.origin, desc.cell_size, desc.dims, support)
    w = kernel_k(np.linalg.norm(desc.cell_centers()[..., None, :] - x, axis=-1) / support)
    assert np.allclose(wsum, w.sum(axis=-1), rtol=1e-12, atol=0.0)
    assert np.allclose(acc, w @ vals, rtol=1e-12, atol=1e-15)



def _scatter_full_window(positions, values, origin, h, dims, support, reach):
    """The scatter before offset pruning: every offset within `reach` cells."""
    nx, ny, nz = dims
    origin = np.asarray(origin)
    wsum = np.zeros(dims)
    acc = np.zeros(dims + (values.shape[1],))
    pidx = np.floor((positions - origin) / h - 0.5).astype(np.int64)
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            for dz in range(-reach, reach + 1):
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


# half-cell lattice indices: even ones are cell faces, odd ones cell centers;
# the range runs two cells past a 4-cell grid on either side
_half_cells = st.tuples(*[st.integers(-4, 12)] * 3)
_jitter = st.sampled_from([0.0, 1e-12, -1e-12, 0.25, 0.49, -0.49])


@settings(max_examples=150, deadline=None)
@given(lattice=st.lists(st.tuples(_half_cells, _jitter), max_size=12),
       free=st.lists(st.tuples(*[st.floats(-2.5, 6.5)] * 3), max_size=12),
       h=st.sampled_from([0.1, 0.25, 1.0, 0.3]),
       origin=st.sampled_from([(0.0, 0.0, 0.0), (-0.35, 0.1, 0.7)]),
       dims=st.tuples(*[st.integers(1, 4)] * 3),
       support_cells=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                               st.floats(0.2, 3.5)))
def test_pruned_scatter_equals_full_window(lattice, free, h, origin, dims, support_cells):
    # skipping offsets that cannot reach must leave every sum bit-identical,
    # also for particles on faces or centers, exactly on the support, or
    # outside the grid; a window one cell wider than needed adds nothing
    rel = [np.array(i) * 0.5 + j for i, j in lattice] + [np.array(f) for f in free]
    if not rel:
        return
    x = np.asarray(origin) + np.array(rel) * h
    vals = np.stack([np.arange(len(x), dtype=np.float64) + 1.0,
                     np.cos(np.arange(len(x)))], axis=1)
    support = support_cells * h
    wsum, acc = kernel_scatter(x, vals, origin, h, dims, support)
    reach = int(np.ceil(support / h)) + 1
    for wider in (0, 1):
        ref_w, ref_a = _scatter_full_window(x, vals, origin, h, dims, support, reach + wider)
        assert np.array_equal(wsum, ref_w)
        assert np.array_equal(acc, ref_a)



def _scatter_offset_loop(positions, values, origin, h, dims, support):
    """The pruned scatter as it was written before its one-bincount form:
    one `np.add.at` pass per reachable offset."""
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


@settings(max_examples=150, deadline=None)
@given(lattice=st.lists(st.tuples(_half_cells, _jitter), max_size=24),
       free=st.lists(st.tuples(*[st.floats(-2.5, 6.5)] * 3), max_size=24),
       h=st.sampled_from([0.1, 0.25, 1.0, 0.3]),
       origin=st.sampled_from([(0.0, 0.0, 0.0), (-0.35, 0.1, 0.7)]),
       dims=st.tuples(*[st.integers(1, 4)] * 3),
       channels=st.sampled_from([1, 3, 5]),
       support_cells=st.one_of(st.sampled_from([1.0, 1.5, 3.0]), st.floats(0.2, 3.5)))
def test_scatter_equals_the_offset_loop(lattice, free, h, origin, dims, channels,
                                        support_cells):
    # one bincount over all terms adds each cell's terms in the order the
    # per-offset passes did, so every sum keeps its bits; points on faces,
    # on centers and outside the grid, and many points per cell
    rel = [np.array(i) * 0.5 + j for i, j in lattice] + [np.array(f) for f in free]
    if not rel:
        return
    rel = np.array(rel)
    rel = np.concatenate([rel, rel[: len(rel) // 2]])        # repeated points too
    x = np.asarray(origin) + rel * h
    vals = np.cos(np.arange(len(x) * channels, dtype=np.float64)).reshape(len(x), channels)
    vals[::3] *= -1e3
    support = support_cells * h
    got = kernel_scatter(x, vals, origin, h, dims, support)
    want = _scatter_offset_loop(x, vals, origin, h, dims, support)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scatter_memory_at_100k_particles():
    # the terms are gathered one offset at a time, in int32 indices: the
    # transient stays a few times the particle arrays at the transfer support
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, size=(100_000, 3))
    vals = rng.normal(size=(100_000, 3))
    tracemalloc.start()
    kernel_scatter(x, vals, (0.0, 0.0, 0.0), 1.0 / 48, (48, 48, 48), 1.5 / 48)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 100e6

@pytest.mark.parametrize("support, h", [(0.0, 0.1), (-0.1, 0.1), (0.15, 0.0),
                                        (0.15, -0.1), (float("nan"), 0.1)])
def test_scatter_rejects_non_positive_support_or_cell(support, h):
    x = np.array([[0.2, 0.2, 0.2]])
    with pytest.raises(ValueError, match="positive"):
        kernel_scatter(x, x, (0.0, 0.0, 0.0), h, (4, 4, 4), support)
