import numpy as np
import pytest
from hypothesis import given, strategies as st

from upflow import EmptyNeighborhood, GridDesc, kernel_k, neighborhood_weights
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


def test_weights_single_neighbor_at_center():
    w = neighborhood_weights([0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]], 1.0)
    assert w.tolist() == [1.0]


def test_weights_symmetric_pair():
    w = neighborhood_weights([0, 0, 0], [[0.3, 0, 0], [-0.3, 0, 0]], 1.0)
    assert w[0] == pytest.approx(0.5)
    assert w[1] == pytest.approx(0.5)


def test_weights_derived_ratio():
    # neighbors at s = 0 and s = 0.5 in units of R
    w = neighborhood_weights([0, 0, 0], [[0, 0, 0], [0.5, 0, 0]], 1.0)
    k = 0.421875
    assert w[0] == pytest.approx(1.0 / (1.0 + k), rel=1e-12)
    assert w[1] == pytest.approx(k / (1.0 + k), rel=1e-12)


def test_weights_beyond_radius_are_zero():
    w = neighborhood_weights([0, 0, 0], [[0.1, 0, 0], [5.0, 0, 0]], 1.0)
    assert w[1] == 0.0
    assert w[0] == 1.0


def test_empty_neighborhood_raises():
    with pytest.raises(EmptyNeighborhood):
        neighborhood_weights([0, 0, 0], [[2.0, 0, 0]], 1.0)


@given(st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
                          st.floats(-0.9, 0.9)), min_size=1, max_size=20))
def test_weights_always_sum_to_one(pts):
    pts = np.array(pts)
    if not len(pts):
        return
    # at least the first point is inside the unit radius by construction
    w = neighborhood_weights([0.0, 0.0, 0.0], pts, 2.0)
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
    wsum, acc = kernel_scatter(x, vals, desc.origin, desc.cell_size, desc.dims,
                               support, reach=3)
    w = kernel_k(np.linalg.norm(desc.cell_centers()[..., None, :] - x, axis=-1) / support)
    assert np.allclose(wsum, w.sum(axis=-1), rtol=1e-12, atol=0.0)
    assert np.allclose(acc, w @ vals, rtol=1e-12, atol=1e-15)

