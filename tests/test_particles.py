import itertools

import numpy as np
import pytest

from upflow.particles import nearest_points, radius_pairs


def _brute_pairs(points, queries, radius):
    d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    rows, cols = np.nonzero(d2 <= radius * radius)
    return rows, cols, d2[rows, cols]


def _sorted(rows, cols, d2):
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], d2[order]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("radius", [0.375, 0.25, 0.3, 0.0])
def test_radius_pairs_is_the_brute_force_pair_set(seed, radius):
    # on a lattice of spacing 1/8, d2 == radius**2 holds exactly for many
    # pairs at radius 3/8 and 1/4; those pairs are in, and d2 is the brute
    # force's to the bit
    rng = np.random.default_rng(seed)
    lattice = rng.integers(-4, 5, size=(120, 3)) * 0.125
    points = np.concatenate([lattice, lattice[:15], rng.uniform(-0.5, 0.5, size=(40, 3))])
    queries = np.concatenate([rng.integers(-5, 6, size=(70, 3)) * 0.125,
                              rng.uniform(-0.6, 0.6, size=(30, 3))])
    got = _sorted(*radius_pairs(points, queries, radius))
    want = _brute_pairs(points, queries, radius)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    if radius in (0.375, 0.25):
        assert np.any(got[2] == radius * radius)


def test_radius_pairs_of_empty_sets():
    pts = np.zeros((4, 3))
    for p, q in ((pts, np.zeros((0, 3))), (np.zeros((0, 3)), pts)):
        rows, cols, d2 = radius_pairs(p, q, 1.0)
        assert len(rows) == len(cols) == len(d2) == 0


def test_nearest_points_settles_near_ties_by_d2():
    # second nearest points a relative 1e-12 to 1e-7 farther than the
    # nearest, listed first, and exact copies: the least d2 wins, then the
    # lowest index
    q = np.zeros((1, 3))
    for gap in (1e-12, 1e-9, 1e-7):
        points = np.array([[1.0 + gap, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0],
                           [0.0, 0.0, 3.0]])
        d2 = np.sum((points - q) ** 2, axis=1)
        assert nearest_points(points, q)[0] == np.argmin(d2)
    rng = np.random.default_rng(5)
    base = rng.uniform(size=(50, 3))
    points = np.concatenate([base, base[::-1]])
    queries = np.concatenate([base, rng.uniform(size=(50, 3))])
    d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    assert np.array_equal(nearest_points(points, queries), np.argmin(d2, axis=1))


def test_nearest_points_settles_many_way_ties():
    # 30 points exactly 3 from the origin, (+-3, 0, 0) and (+-2, +-2, +-1)
    # up to axis order: more ties than the first k-nearest queries hold, so
    # k doubles until the ties fit, or until it covers every point
    ring = np.array([p for p in itertools.product(range(-3, 4), repeat=3)
                     if sum(c * c for c in p) == 9], dtype=float)
    assert len(ring) == 30
    rng = np.random.default_rng(3)
    far = rng.uniform(4.0, 6.0, size=(40, 3)) * rng.choice([-1.0, 1.0], size=(40, 3))
    queries = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9], [5.0, 5.0, 5.0]])
    for seed in range(4):
        for points in (np.concatenate([ring, far]), ring):
            points = points[np.random.default_rng(seed).permutation(len(points))]
            d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
            assert np.array_equal(nearest_points(points, queries), np.argmin(d2, axis=1))
