import numpy as np
import pytest

from upflow import LengthMismatch, epe, flow_accuracy, match_nearest


def brute_force_epe(pred_pos, pred_disp, ref_pos, ref_disp):
    d2 = np.sum((ref_pos[:, None, :] - pred_pos[None, :, :]) ** 2, axis=2)
    m = np.argmin(d2, axis=1)
    return float(np.mean(np.linalg.norm(pred_disp[m] - ref_disp, axis=1)))


def brute_force_accuracy(pred_pos, pred_disp, ref_pos, ref_disp, thr, eps):
    d2 = np.sum((ref_pos[:, None, :] - pred_pos[None, :, :]) ** 2, axis=2)
    m = np.argmin(d2, axis=1)
    err = np.linalg.norm(pred_disp[m] - ref_disp, axis=1)
    return float(np.mean(err <= thr + eps))


def random_instance(seed, n_pred=100, n_ref=100):
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=(n_pred, 3)), 0.2 * rng.normal(size=(n_pred, 3)),
            rng.uniform(size=(n_ref, 3)), 0.2 * rng.normal(size=(n_ref, 3)))


def test_epe_identical_sets_zero():
    pp, pd, _, _ = random_instance(0)
    assert epe(pp, pd, pp, pd) == 0.0


def test_epe_uniform_offset():
    pp, pd, _, _ = random_instance(1)
    e = np.array([0.3, -0.4, 0.0])
    assert epe(pp, pd + e, pp, pd) == pytest.approx(0.5)


def test_epe_matches_brute_force_exactly():
    for seed in range(5):
        pp, pd, rp, rd = random_instance(seed + 2)
        assert epe(pp, pd, rp, rd) == brute_force_epe(pp, pd, rp, rd)


def test_epe_static_exclusion():
    pp = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    pd = np.array([[0.5, 0, 0], [0.5, 0, 0]])
    rp = pp.copy()
    rd = np.array([[0.0, 0, 0], [0.5, 0, 0]])  # first reference is static
    assert epe(pp, pd, rp, rd) == pytest.approx(0.25)


def test_accuracy_perfect_and_hopeless():
    pp, pd, _, _ = random_instance(10)
    assert flow_accuracy(pp, pd, pp, pd) == 1.0
    off = np.zeros_like(pd)
    off[:, 0] = 0.5
    assert flow_accuracy(pp, pd + off, pp, pd) == 0.0


def test_accuracy_hand_count():
    pp = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    rd = np.zeros((2, 3))
    pd = np.array([[0.05, 0, 0], [0.5, 0, 0]])
    assert flow_accuracy(pp, pd, pp, rd, threshold=0.1, eps=0.001) == 0.5


def test_accuracy_matches_brute_force_exactly():
    for seed in range(5):
        pp, pd, rp, rd = random_instance(seed + 20)
        got = flow_accuracy(pp, pd, rp, rd, threshold=0.1, eps=0.001)
        want = brute_force_accuracy(pp, pd, rp, rd, 0.1, 0.001)
        assert got == want


def test_accuracy_monotone_in_threshold():
    pp, pd, rp, rd = random_instance(30)
    values = [flow_accuracy(pp, pd, rp, rd, threshold=t) for t in (0.05, 0.1, 0.5, 2.0)]
    assert values == sorted(values)
    assert 0.0 <= values[0] and values[-1] <= 1.0


@pytest.mark.parametrize("name, value", [("threshold", float("nan")), ("threshold", -1.0),
                                         ("threshold", float("inf")), ("eps", float("nan")),
                                         ("eps", -0.001)])
def test_accuracy_rejects_a_negative_or_non_finite_threshold(name, value):
    # a NaN or negative threshold used to score every match as wrong: 0.0
    pp, pd, rp, rd = random_instance(31)
    with pytest.raises(ValueError, match=rf"finite and >= 0, got .*{value}"):
        flow_accuracy(pp, pd, rp, rd, **{name: value})
    assert flow_accuracy(pp, pd, pp, pd, threshold=0.0, eps=0.0) == 1.0


def test_match_nearest_agrees_with_brute_force():
    for seed in range(3):
        pp, _, rp, _ = random_instance(seed + 40, n_pred=77, n_ref=53)
        m = match_nearest(pp, rp)
        d2 = np.sum((rp[:, None, :] - pp[None, :, :]) ** 2, axis=2)
        assert np.array_equal(m, np.argmin(d2, axis=1))


def test_match_nearest_takes_the_lowest_index_on_ties():
    rng = np.random.default_rng(41)
    lattice = rng.integers(-3, 4, size=(50, 3)) * 0.1
    pp = np.concatenate([lattice, lattice[:8]])          # coincident points tie
    rp = np.concatenate([rng.integers(-6, 7, size=(60, 3)) * 0.05,
                         rng.uniform(-0.4, 0.4, size=(20, 3))])
    d2 = np.sum((rp[:, None, :] - pp[None, :, :]) ** 2, axis=2)
    assert np.array_equal(match_nearest(pp, rp), np.argmin(d2, axis=1))


def test_empty_reference_raises():
    # a mean over no reference particle has no value; no NaN comes back
    pp, pd, _, _ = random_instance(40, n_pred=5)
    empty = np.zeros((0, 3))
    for metric in (epe, flow_accuracy):
        with pytest.raises(ValueError, match="empty reference"):
            metric(pp, pd, empty, empty)


@pytest.mark.parametrize("metric", [epe, flow_accuracy])
def test_reference_positions_and_displacements_must_pair_up(metric):
    # one reference position against four displacements used to broadcast
    # into a score
    pp, pd, _, _ = random_instance(42, n_pred=5)
    with pytest.raises(LengthMismatch, match="reference"):
        metric(pp, pd, pp[:1], np.ones((4, 3)))
    # extra predicted rows were ignored (a perfect score), too few indexed
    # out of bounds
    for rows in (9, 2):
        with pytest.raises(LengthMismatch, match="predicted"):
            metric(pp, np.zeros((rows, 3)), pp, np.zeros((5, 3)))
