import numpy as np
import pytest

from upflow import (CGNotConverged, DatasetManifest, FlowParams, ParamMatrix,
                    ParticleSet, SceneSpec, SimParams, augment, gen_dataset,
                    make_training_samples)
from upflow import dataset
from upflow.dataset import PairRecord
from upflow.flip import SimFrame
from upflow.grids import MACGrid, sample_trilinear
from upflow.optflow import stack_flow
from upflow.sdf import sdf_from_particles


def tiny_theta(n_shapes=1):
    return ParamMatrix(
        shapes=["sphere", "cube"][:n_shapes],
        obstacle_positions=[(0.25, 0.2, 0.25)],
        emitter_positions=[(0.25, 0.42, 0.25)],
        container_dims=[(0.5, 0.5, 0.5)],
    )


def tiny_sims():
    low = SimParams.for_domain(0.02, 1.5, (0, 0, 0), (0.5, 0.5, 0.5),
                               dt=1.0 / 40.0)
    high = SimParams.for_domain(0.012, 1.2, (0, 0, 0), (0.5, 0.5, 0.5),
                                dt=1.0 / 40.0)
    return low, high


def scene_defaults():
    return SceneSpec(pool_depth=0.3, emit_rate=0, obstacle_size=0.06)


def test_param_matrix_cross_product():
    theta = ParamMatrix(shapes=["sphere", "cube"],
                        obstacle_positions=[(0.3, 0.3, 0.3), (0.4, 0.3, 0.3)],
                        emitter_positions=[(0.5, 0.8, 0.5)],
                        container_dims=[(1, 1, 1)])
    assert len(theta) == 4
    assert len(theta.scenes()) == 4


def test_gen_dataset_single_pair():
    low, high = tiny_sims()
    m = gen_dataset(tiny_theta(1), low, high, frames=2, seed=3,
                    scene_defaults=scene_defaults())
    assert len(m.pairs) == 1
    pair = m.pairs[0]
    assert len(pair.low_frames) == 2
    assert len(pair.high_frames) == 2
    assert pair.high_frames[0].particles.count > pair.low_frames[0].particles.count
    assert not pair.augmented


def test_gen_dataset_cross_product_and_determinism():
    low, high = tiny_sims()
    m1 = gen_dataset(tiny_theta(2), low, high, frames=1, seed=5,
                     scene_defaults=scene_defaults())
    m2 = gen_dataset(tiny_theta(2), low, high, frames=1, seed=5,
                     scene_defaults=scene_defaults())
    assert len(m1.pairs) == 2
    for a, b in zip(m1.pairs, m2.pairs):
        assert np.array_equal(a.low_frames[0].particles.positions,
                              b.low_frames[0].particles.positions)


def _synthetic_manifest(n_pairs=2, frames=2, n_particles=40, shift=0.04):
    """Cheap manifest without running the solver: blobs at different spots."""
    low, high = tiny_sims()
    m = DatasetManifest(name="Synthetic", sim_low=low, sim_high=high)
    rng = np.random.default_rng(0)
    for i in range(n_pairs):
        center = np.array([0.22 + 0.08 * i, 0.25, 0.25])
        lows, highs = [], []
        for f in range(frames):
            c = center + np.array([shift * f, 0.0, 0.0])
            pts = c + 0.05 * rng.uniform(-1, 1, size=(n_particles, 3))
            lows.append(SimFrame(ParticleSet(pts, np.zeros_like(pts)),
                                 MACGrid.zeros(low.domain)))
            pts_h = c + 0.05 * rng.uniform(-1, 1, size=(3 * n_particles, 3))
            highs.append(SimFrame(ParticleSet(pts_h, np.zeros_like(pts_h)),
                                  MACGrid.zeros(high.domain)))
        m.pairs.append(PairRecord(scene_defaults(), lows, highs, seed=i))
    return m


def test_augment_factor_doubles_with_single_alpha():
    m = _synthetic_manifest()
    out = augment(m, [0.5], seed=1, flow_params=FlowParams(beta_s=0.5, cg_tol=1e-6))
    assert len(out.pairs) == 2 * len(m.pairs)
    added = out.pairs[len(m.pairs):]
    assert all(p.augmented for p in added)
    assert all(len(p.source_pair_ids) == 2 for p in added)
    for p in added:
        i, j = p.source_pair_ids
        assert i != j


def test_augment_empty_alpha_list_is_identity():
    m = _synthetic_manifest()
    out = augment(m, [], seed=1)
    assert len(out.pairs) == len(m.pairs)


def test_augment_three_alphas_quadruples():
    m = _synthetic_manifest()
    out = augment(m, [0.25, 0.5, 0.75], seed=2,
                  flow_params=FlowParams(beta_s=0.5, cg_tol=1e-6))
    assert len(out.pairs) == 4 * len(m.pairs)


def test_augment_deterministic_partner_choice():
    m = _synthetic_manifest(n_pairs=3)
    p = FlowParams(beta_s=0.5, cg_tol=1e-6)
    a = augment(m, [0.5], seed=9, flow_params=p)
    b = augment(m, [0.5], seed=9, flow_params=p)
    for pa, pb in zip(a.pairs, b.pairs):
        assert pa.source_pair_ids == pb.source_pair_ids
        assert np.array_equal(pa.low_frames[0].particles.positions,
                              pb.low_frames[0].particles.positions)


def _augment_building_every_stack(manifest, alphas, seed, flow_params):
    """augment as it was before stacks were shared: every pair surfaces its
    own tracks and then its partner's, so partners are surfaced again."""
    rng = np.random.default_rng(seed)
    out = list(manifest.pairs)
    n = len(manifest.pairs)
    for i, pair in enumerate(manifest.pairs):
        j = int(rng.integers(0, n - 1))
        if j >= i:
            j += 1
        partner = manifest.pairs[j]
        morphed = {}
        for track, params in (("low", manifest.sim_low), ("high", manifest.sim_high)):
            src_frames = getattr(pair, f"{track}_frames")
            src = dataset._track_stack(src_frames, params.domain, params.dt)
            dst = dataset._track_stack(getattr(partner, f"{track}_frames"),
                                       params.domain, params.dt)
            fields, _ = stack_flow(src, dst, flow_params)
            morphed[track] = (src_frames, fields)
        for alpha in alphas:
            tracks = {}
            for track, (frames, fields) in morphed.items():
                tracks[track] = [f.particles.positions
                                 + alpha * sample_trilinear(fld, f.particles.positions)
                                 for f, fld in zip(frames, fields)]
            out.append(((i, j), tracks))
    return out[n:]


@pytest.mark.parametrize("n_pairs", [2, 3])
def test_augment_surfaces_each_track_once(monkeypatch, n_pairs):
    m = _synthetic_manifest(n_pairs=n_pairs, frames=2)
    p = FlowParams(beta_s=0.5, cg_tol=1e-6)
    ref = _augment_building_every_stack(m, [0.25, 0.5], 3, p)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sdf_from_particles(*args, **kwargs)

    monkeypatch.setattr(dataset, "sdf_from_particles", counting)
    out = augment(m, [0.25, 0.5], seed=3, flow_params=p)
    # pairs x 2 tracks x 2 frames: with 2 pairs 8 calls, where building
    # both stacks for every pair made 16
    assert len(calls) == n_pairs * 2 * 2
    added = out.pairs[len(m.pairs):]
    assert len(added) == len(ref)
    for pair, ((i, j), tracks) in zip(added, ref):
        assert pair.source_pair_ids == (i, j)
        for track in ("low", "high"):
            got = [f.particles.positions for f in getattr(pair, f"{track}_frames")]
            assert len(got) == len(tracks[track])
            for a, b in zip(got, tracks[track]):
                assert np.array_equal(a, b)


def test_augment_needs_two_pairs():
    m = _synthetic_manifest(n_pairs=2)
    m.pairs = m.pairs[:1]
    with pytest.raises(ValueError):
        augment(m, [0.5])


def test_training_samples_identical_pair_zero_target():
    low, high = tiny_sims()
    m = DatasetManifest(name="Synthetic", sim_low=low, sim_high=high)
    rng = np.random.default_rng(1)
    pts = np.array([0.25, 0.25, 0.25]) + 0.06 * rng.uniform(-1, 1, size=(60, 3))
    frame = SimFrame(ParticleSet(pts, np.zeros_like(pts)), MACGrid.zeros(low.domain))
    m.pairs.append(PairRecord(scene_defaults(), [frame], [frame], seed=0))
    samples = make_training_samples(m, FlowParams(beta_s=0.5, cg_tol=1e-6))
    assert len(samples) == 1
    s = samples[0]
    assert np.abs(s.gt_displacement).max() < 1e-10
    assert np.all(s.lambda_weights == 0.0)


def test_training_samples_translated_pair_recovers_shift():
    low, high = tiny_sims()
    m = DatasetManifest(name="Synthetic", sim_low=low, sim_high=high)
    rng = np.random.default_rng(2)
    h = low.domain.cell_size
    t = np.array([2.0 * h, 0.0, 0.0])
    c = np.array([0.2, 0.25, 0.25])
    pts = c + 0.06 * rng.uniform(-1, 1, size=(80, 3))
    keep = np.linalg.norm(pts - c, axis=1) < 0.07
    pts = pts[keep]
    lo = SimFrame(ParticleSet(pts, np.zeros_like(pts)), MACGrid.zeros(low.domain))
    hi_pts = pts + t
    hi = SimFrame(ParticleSet(hi_pts, np.zeros_like(hi_pts)), MACGrid.zeros(high.domain))
    m.pairs.append(PairRecord(scene_defaults(), [lo], [hi], seed=0))
    samples = make_training_samples(m, FlowParams(beta_s=20.0, beta_t=1e-4))
    s = samples[0]
    mean_gt = s.gt_displacement.mean(axis=0)
    assert np.linalg.norm(mean_gt - t) < 0.25 * np.linalg.norm(t)
    assert s.lambda_weights.max() <= 1.0
    assert s.lambda_weights.min() >= 0.0
    assert s.lambda_weights.max() == 1.0


def _blob_manifest(centers):
    """One single-frame pair per center: a ball of liquid, the high track
    moved by one low cell along x."""
    low, high = tiny_sims()
    m = DatasetManifest(name="Synthetic", sim_low=low, sim_high=high)
    rng = np.random.default_rng(4)
    t = np.array([low.domain.cell_size, 0.0, 0.0])
    for c in centers:
        pts = np.asarray(c) + 0.06 * rng.uniform(-1, 1, size=(60, 3))
        lo = SimFrame(ParticleSet(pts, np.zeros_like(pts)), MACGrid.zeros(low.domain))
        hi = SimFrame(ParticleSet(pts + t, np.zeros_like(pts)), MACGrid.zeros(high.domain))
        m.pairs.append(PairRecord(scene_defaults(), [lo], [hi], seed=0))
    return m


def test_training_samples_unconverged_flow_raises():
    m = _blob_manifest([(0.2, 0.25, 0.25), (0.3, 0.25, 0.25)])
    with pytest.raises(CGNotConverged, match="pair 0, low -> high"):
        make_training_samples(m, FlowParams(cg_max_iter=1))


def test_augment_unconverged_flow_raises():
    m = _blob_manifest([(0.2, 0.25, 0.25), (0.3, 0.25, 0.25)])
    with pytest.raises(CGNotConverged, match="pair 0 -> pair 1, low track"):
        augment(m, [0.5], flow_params=FlowParams(cg_max_iter=1))


def _fail_on_surfacing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("surfaced a track before checking its inputs")
    monkeypatch.setattr(dataset, "sdf_from_particles", refuse)


@pytest.mark.parametrize("alphas", [[1.5], [0.5, -0.5], [float("nan")]])
def test_augment_rejects_weights_outside_unit_interval(monkeypatch, alphas):
    # a weight past 1 extrapolates past the partner; the check runs before
    # any track is surfaced or solved
    m = _blob_manifest([(0.2, 0.25, 0.25), (0.3, 0.25, 0.25)])
    _fail_on_surfacing(monkeypatch)
    bad = next(a for a in alphas if not 0.0 <= a <= 1.0)
    with pytest.raises(ValueError, match=rf"\[0, 1\], got {bad}"):
        augment(m, alphas)


def _with_empty_frame(m, pair, track, frame):
    frames = getattr(m.pairs[pair], f"{track}_frames")
    frames[frame] = SimFrame(ParticleSet.empty(), frames[frame].velocity)
    return m


@pytest.mark.parametrize("track", ["low", "high"])
def test_augment_names_an_empty_frame(monkeypatch, track):
    m = _with_empty_frame(_synthetic_manifest(n_pairs=2), 1, track, 1)
    _fail_on_surfacing(monkeypatch)
    with pytest.raises(ValueError, match=f"pair 1, {track} track, frame 1 has no particles"):
        augment(m, [0.5])


@pytest.mark.parametrize("track", ["low", "high"])
def test_training_samples_name_an_empty_frame(monkeypatch, track):
    m = _with_empty_frame(_synthetic_manifest(n_pairs=2), 1, track, 1)
    _fail_on_surfacing(monkeypatch)
    with pytest.raises(ValueError, match=f"pair 1, {track} track, frame 1 has no particles"):
        make_training_samples(m)
