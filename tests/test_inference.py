import numpy as np
import pytest

from upflow import (DeformationField, GridDesc, GridMismatch, InferenceConfig,
                    MACGrid, ParticleSet, infer_frame, resample_narrow_band,
                    resample_of_to_mac, sdf_from_particles, transfer_to_grid)
from upflow import inference as uinf
from upflow.inference import average_fields, pass_noise_curve
from upflow.net import DisplacementNet, NetworkConfig, LevelConfig


@pytest.fixture
def desc():
    return GridDesc((0.0, 0.0, 0.0), 0.1, (10, 10, 10))


def blob(center, n, seed, radius=0.15):
    rng = np.random.default_rng(seed)
    pts = np.asarray(center) + radius * rng.uniform(-1, 1, size=(n, 3))
    keep = np.linalg.norm(pts - center, axis=1) <= radius
    pts = pts[keep]
    return ParticleSet(pts, np.zeros_like(pts))


def tiny_model(seed=0, zero=False):
    cfg = NetworkConfig(
        levels=(LevelConfig(16, 0.12, (6,)), LevelConfig(8, 0.24, (8,)),
                LevelConfig(4, 0.45, (10,))),
        embedding_widths=(12,), embedding_radius=0.45, smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)), seed=seed)
    return DisplacementNet.zeros(cfg) if zero else DisplacementNet.create(cfg)


# -- transfer ------------------------------------------------------------------

def reached(desc, positions):
    """Cells whose center lies within a particle's 1.5-cell reach."""
    centers = desc.cell_centers()[..., None, :]
    d = np.linalg.norm(centers - np.asarray(positions), axis=-1).min(axis=-1)
    return d < 1.5 * desc.cell_size


def test_transfer_uniform_displacement(desc):
    p = blob((0.5, 0.5, 0.5), 200, 0)
    t = np.array([0.3, -0.2, 0.1])
    field = transfer_to_grid(p, np.tile(t, (p.count, 1)), desc)
    covered = reached(desc, p.positions)
    assert covered.any()
    assert np.allclose(field.vectors[covered], t, atol=1e-12)
    assert np.all(field.vectors[~covered] == 0.0)


def test_transfer_single_particle_support(desc):
    p = ParticleSet(np.array([[0.55, 0.55, 0.55]]), np.zeros((1, 3)))
    field = transfer_to_grid(p, np.array([[1.0, 0, 0]]), desc)
    covered = reached(desc, p.positions)
    assert np.all(field.vectors[covered][:, 0] > 0.0)
    assert np.all(field.vectors[~covered] == 0.0)


def test_transfer_symmetric_pair_cancels(desc):
    h = desc.cell_size
    center = np.asarray(desc.origin) + (np.array([5, 5, 5]) + 0.5) * h
    off = np.array([0.03, 0.0, 0.0])
    p = ParticleSet(np.stack([center - off, center + off]), np.zeros((2, 3)))
    omega = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]])
    field = transfer_to_grid(p, omega, desc)
    ci = tuple(np.array([5, 5, 5]))
    assert np.allclose(field.vectors[ci], 0.0, atol=1e-12)


# -- MAC resampling --------------------------------------------------------------

def test_resample_constant_field(desc):
    t = np.array([0.2, 0.4, -0.6])
    u = DeformationField(desc, np.broadcast_to(t, desc.dims + (3,)).copy())
    mac = resample_of_to_mac(u, MACGrid.zeros(desc))
    assert np.allclose(mac.u, 0.2)
    assert np.allclose(mac.v, 0.4)
    assert np.allclose(mac.w, -0.6)


def test_resample_zero_field(desc):
    mac = resample_of_to_mac(DeformationField.zeros(desc), MACGrid.zeros(desc))
    assert all(np.all(c == 0.0) for c in mac.components())


def test_resample_linear_field_exact_at_interior_faces(desc):
    centers = desc.cell_centers()
    vecs = np.zeros(desc.dims + (3,))
    vecs[..., 0] = 2.0 * centers[..., 0] - 1.0
    u = DeformationField(desc, vecs)
    mac = resample_of_to_mac(u, MACGrid.zeros(desc))
    h = desc.cell_size
    xs = np.asarray(desc.origin)[0] + np.arange(desc.dims[0] + 1) * h
    expect = 2.0 * xs - 1.0
    # interior faces interpolate linearly hence exactly; boundary faces clamp
    assert np.allclose(mac.u[1:-1], expect[1:-1, None, None], atol=1e-12)


def test_resample_disjoint_domains_raise(desc):
    far = GridDesc((100.0, 100.0, 100.0), 0.1, (4, 4, 4))
    with pytest.raises(GridMismatch):
        resample_of_to_mac(DeformationField.zeros(far), MACGrid.zeros(desc))


# -- full frame --------------------------------------------------------------------

@pytest.mark.parametrize("knobs", [dict(band_target_per_cell=0), dict(band_target_per_cell=-3),
                                   dict(d_b=0), dict(band_target_per_cell=0, d_b=0)])
def test_config_rejects_an_empty_band(knobs):
    # either knob below 1 used to carve no band and up-res every frame to nothing
    with pytest.raises(ValueError, match="d_b|band_target_per_cell"):
        InferenceConfig(**knobs)


def test_infer_identity_with_zero_net_and_zero_velocity(desc):
    x = blob((0.5, 0.5, 0.5), 300, 1)
    model = tiny_model(zero=True)
    cfg = InferenceConfig(passes=2, band_target_per_cell=8)
    out = infer_frame(x, MACGrid.zeros(desc), model, cfg, dt=0.05)
    from upflow import resample_narrow_band, sdf_from_particles
    phi = sdf_from_particles(x, desc, 0.75 * desc.cell_size)
    expected = resample_narrow_band(x, phi, cfg.d_b, cfg.band_target_per_cell,
                                    seed=cfg.seed, frame=0)
    assert np.array_equal(out.positions, expected.positions)


def test_infer_pure_advection_with_zero_net(desc):
    x = blob((0.45, 0.5, 0.5), 300, 2)
    model = tiny_model(zero=True)
    cfg = InferenceConfig(passes=2, band_target_per_cell=8)
    c = np.array([0.35, 0.0, 0.0])
    dt = 0.05
    out = infer_frame(x, MACGrid.constant(desc, c), model, cfg, dt=dt)
    from upflow import resample_narrow_band, sdf_from_particles
    phi = sdf_from_particles(x, desc, 0.75 * desc.cell_size)
    expected = resample_narrow_band(x, phi, cfg.d_b, cfg.band_target_per_cell,
                                    seed=cfg.seed, frame=0)
    # constant field: RK2 advection is exactly x + c * dt
    assert out.count == expected.count
    assert np.allclose(out.positions, expected.positions + c * dt, atol=1e-12)


def test_infer_counts_input_motion_once(desc):
    # criterion 09's ball under a zero network whose head bias predicts one
    # displacement along the input velocity: the band moves by one frame of
    # input motion plus that displacement, u*dt + b*unit, and no farther
    rng = np.random.default_rng(5)
    c = np.array([0.5, 0.5, 0.5])
    pts = c + 0.16 * rng.uniform(-1, 1, size=(400, 3))
    pts = pts[np.linalg.norm(pts - c, axis=1) <= 0.16]
    x = ParticleSet(pts, np.zeros_like(pts))
    model = tiny_model(seed=13, zero=True)
    b = 0.25
    model.params["reg.b"].value[...] = (b, 0.0, 0.0)
    unit = 0.5 * model.config.levels[0].radius
    cfg = InferenceConfig(passes=2, band_target_per_cell=8)
    dt = 0.05
    out = infer_frame(x, MACGrid.constant(desc, (0.3, 0.0, 0.0)), model, cfg, dt=dt)
    phi = sdf_from_particles(x, desc, 0.75 * desc.cell_size)
    band = resample_narrow_band(x, phi, cfg.d_b, cfg.band_target_per_cell,
                                seed=cfg.seed, frame=0)
    moved = out.positions - band.positions
    due = 0.3 * dt + b * unit
    # band-edge particles sample partly covered cells and move less
    assert moved[:, 0].max() == pytest.approx(due, abs=1e-12)
    assert np.median(moved[:, 0]) == pytest.approx(due, abs=1e-12)
    assert np.linalg.norm(moved, axis=1).max() <= due + 1e-12
    assert np.abs(moved[:, 1:]).max() <= 1e-12


def test_infer_particle_count_matches_band(desc):
    x = blob((0.5, 0.5, 0.5), 400, 3)
    model = tiny_model(seed=7)
    cfg = InferenceConfig(passes=3, band_target_per_cell=8)
    out = infer_frame(x, MACGrid.constant(desc, (0.1, 0, 0)), model, cfg, dt=0.05)
    from upflow import resample_narrow_band, sdf_from_particles
    phi = sdf_from_particles(x, desc, 0.75 * desc.cell_size)
    expected = resample_narrow_band(x, phi, cfg.d_b, cfg.band_target_per_cell,
                                    seed=cfg.seed, frame=0)
    assert out.count == expected.count


def test_average_fields_order_independent(desc):
    rng = np.random.default_rng(4)
    fields = [DeformationField(desc, rng.normal(size=desc.dims + (3,)))
              for _ in range(5)]
    a = average_fields(fields)
    b = average_fields(fields[::-1])
    assert np.allclose(a.vectors, b.vectors, atol=1e-14)


def test_noise_curve_shapes(desc):
    x = blob((0.5, 0.5, 0.5), 300, 5)
    model = tiny_model(seed=9)
    cfg = InferenceConfig(passes=3, band_target_per_cell=8)
    curve = pass_noise_curve(x, MACGrid.constant(desc, (0.2, 0, 0)), model,
                             cfg, dt=0.05, max_passes=8)
    assert len(curve["deviation"]) == 8
    assert len(curve["avg_norm"]) == 8
    assert curve["deviation"][-1] == 0.0


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_infer_frame_rejects_a_bad_dt_before_any_work(desc, dt, monkeypatch):
    def no_work(*args):
        raise AssertionError("inference_fields ran")
    monkeypatch.setattr(uinf, "inference_fields", no_work)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        infer_frame(blob((0.5, 0.5, 0.5), 100, 1), MACGrid.constant(desc, (0.2, 0, 0)),
                    tiny_model(zero=True), InferenceConfig(passes=2), dt)


@pytest.mark.parametrize("max_passes", [0, -1])
def test_noise_curve_rejects_fewer_than_one_pass(desc, max_passes, monkeypatch):
    def no_work(*args):
        raise AssertionError("inference_fields ran")
    monkeypatch.setattr(uinf, "inference_fields", no_work)
    with pytest.raises(ValueError, match=f"max_passes must be >= 1, got {max_passes}"):
        pass_noise_curve(blob((0.5, 0.5, 0.5), 100, 1), MACGrid.constant(desc, (0.2, 0, 0)),
                         tiny_model(), InferenceConfig(passes=2), 0.05, max_passes)
