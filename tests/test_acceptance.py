"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here and nowhere else; the helper constructions
(translated spheres, the matched-pinch pair, the constant-translation toy
dataset, the frozen multi-pass scene) are the reference scenes the criteria
are measured on.
"""

import time

import numpy as np
import pytest

from upflow import (AlignmentPenalty, DeformationField, FlipSolver, FlowParams,
                    GridDesc, InferenceConfig, MACGrid, ParticleSet, ScalarGrid,
                    SceneSpec, SimParams, SpaceTimeSDF, TrainingSample,
                    alignment_penalty, apply_deformation, augment, build_system,
                    epe, flow_accuracy, gen_dataset, infer_frame, loss_up,
                    resample_narrow_band, sdf_from_particles,
                    simulate, solution_fields, solve_flow)
from upflow import io as uio
from upflow.dataset import ParamMatrix
from upflow.inference import pass_noise_curve, surface_roughness
from upflow.net import (DisplacementNet, Grouping, LevelConfig, NetworkConfig,
                        downsample_conv, flow_embedding, loss_gradients,
                        sample_loss, train, upsample_conv, _init_mlp,
                        _set_conv, _up)
from upflow.autodiff import as_tensor, parameter


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def _sphere_sdf(desc, center, radius):
    c = desc.cell_centers()
    return ScalarGrid(desc, np.linalg.norm(c - np.asarray(center), axis=-1) - radius)


# ---------------------------------------------------------------------------
# 1. flow-solver oracle: translated sphere pair on a 32^3 grid
# ---------------------------------------------------------------------------

def test_criterion_01_flow_solver_translation_oracle():
    desc = GridDesc((0, 0, 0), 1.0 / 32.0, (32, 32, 32))
    h = desc.cell_size
    t = np.array([1.5 * h, 0.0, 0.0])
    src = _sphere_sdf(desc, (0.45, 0.5, 0.5), 0.22)
    dst = _sphere_sdf(desc, np.array([0.45, 0.5, 0.5]) + t, 0.22)
    params = FlowParams(beta_s=3.0, beta_t=1e-3)
    start = time.perf_counter()
    a_mat, b = build_system(SpaceTimeSDF([dst]), SpaceTimeSDF([src]), None, params)
    u, info = solve_flow(a_mat, b, params)
    elapsed = time.perf_counter() - start
    field = solution_fields(u, SpaceTimeSDF([src]))[0]
    band = np.abs(src.values) <= 2 * h
    mean_u = field.vectors[band].mean(axis=0)
    err = np.linalg.norm(mean_u - t) / np.linalg.norm(t)
    _report(1, "translated-sphere solve recovers t within 10%, under 10 s",
            info.converged and err <= 0.10 and elapsed < 10.0,
            f"rel err {err:.3f}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. SPD assembly and CG residual contract on 8^3 systems
# ---------------------------------------------------------------------------

def test_criterion_02_spd_and_residual():
    desc = GridDesc((0, 0, 0), 0.1, (8, 8, 8))
    rng = np.random.default_rng(0)
    ok_sym, ok_pd, ok_res = True, True, True
    for trial in range(3):
        hi = ScalarGrid(desc, rng.normal(size=desc.dims))
        lo = ScalarGrid(desc, rng.normal(size=desc.dims))
        d = np.abs(rng.normal(size=(1,) + desc.dims)) if trial else None
        pen = AlignmentPenalty(d) if d is not None else None
        params = FlowParams(beta_s=0.6, beta_t=1e-3, cg_tol=1e-8)
        a_mat, b = build_system(SpaceTimeSDF([hi]), SpaceTimeSDF([lo]), pen, params)
        asym = (a_mat - a_mat.T).tocoo()
        ok_sym &= asym.nnz == 0 or np.abs(asym.data).max() == 0.0
        n = a_mat.shape[0]
        for _ in range(100):
            x = rng.normal(size=n)
            ok_pd &= float(x @ (a_mat @ x)) > 0.0
        u, info = solve_flow(a_mat, b, params)
        res = float(np.linalg.norm(a_mat @ u - b) / np.linalg.norm(b))
        ok_res &= info.converged and res <= 1e-8
    _report(2, "A symmetric (exact), PD on 100 probes, CG residual <= 1e-8",
            ok_sym and ok_pd and ok_res)


# ---------------------------------------------------------------------------
# 3. alignment benefit on a matched topological event
# ---------------------------------------------------------------------------

def test_criterion_03_alignment_benefit():
    desc = GridDesc((0, 0, 0), 1.0 / 32, (32, 32, 32))
    h = desc.cell_size
    centers = desc.cell_centers()

    def sph(c, r):
        return np.linalg.norm(centers - np.asarray(c), axis=-1) - r

    # matched event: a sub-cell pinch between two spheres, identical in both
    # inputs; a third blob moves between the inputs
    r_a = 0.10
    ax = 0.30
    bx = ax + 2 * r_a + 0.4 * h
    pinch = np.minimum(sph((ax, 0.5, 0.5), r_a), sph((bx, 0.5, 0.5), r_a))
    src = ScalarGrid(desc, np.minimum(pinch, sph((0.62, 0.42, 0.5), 0.09)))
    dst = ScalarGrid(desc, np.minimum(pinch, sph((0.62, 0.42 + 2.5 * h, 0.5), 0.09)))
    st_src, st_dst = SpaceTimeSDF([src]), SpaceTimeSDF([dst])
    params = FlowParams(beta_s=3.0, beta_t=1e-3)

    def mismatch(aligned: bool) -> float:
        pen = alignment_penalty(st_src, st_dst, params) if aligned else None
        a_mat, b = build_system(st_dst, st_src, pen, params)
        u, info = solve_flow(a_mat, b, params)
        assert info.converged
        warped = apply_deformation(src, solution_fields(u, st_src)[0], 1.0)
        band = np.abs(src.values) <= 2 * h
        return float(np.abs(warped.values - dst.values)[band].sum())

    m_aligned = mismatch(True)
    m_plain = mismatch(False)
    _report(3, "aligned band L1 mismatch <= unaligned", m_aligned <= m_plain,
            f"{m_aligned:.4f} vs {m_plain:.4f}")


# ---------------------------------------------------------------------------
# 4. interpolation endpoints
# ---------------------------------------------------------------------------

def test_criterion_04_interpolation_endpoints():
    desc = GridDesc((0, 0, 0), 1.0 / 24, (24, 24, 24))
    h = desc.cell_size
    phi = _sphere_sdf(desc, (0.4, 0.5, 0.5), 0.2)
    rng = np.random.default_rng(1)
    u_rand = DeformationField(desc, rng.normal(size=desc.dims + (3,)))
    identical = np.array_equal(apply_deformation(phi, u_rand, 0.0).values, phi.values)

    t = np.array([3 * h, 0, 0])
    u_t = DeformationField(desc, np.broadcast_to(t, desc.dims + (3,)).copy())
    moved = apply_deformation(phi, u_t, 1.0)

    def centroid(g):
        w = np.maximum(0.0, -g.values)
        return (desc.cell_centers() * w[..., None]).sum(axis=(0, 1, 2)) / w.sum()

    shift_err = np.linalg.norm(centroid(moved) - (centroid(phi) + t))
    _report(4, "alpha=0 bit-identical; alpha=1 moves the zero set by t within one cell",
            identical and shift_err < h, f"centroid err {shift_err:.5f} vs cell {h:.5f}")


# ---------------------------------------------------------------------------
# 5. gradient checks, layer by layer plus end-to-end
# ---------------------------------------------------------------------------

_FD_ATOL = 1e-8  # central differences resolve no finer on an O(1) loss


def _fd_error(analytic: float, numeric: float) -> float:
    """Relative disagreement; gradients below the finite-difference
    resolution are only required to agree within the absolute noise floor."""
    denom = abs(analytic) + abs(numeric)
    if denom < 1e-5:
        return 0.0 if abs(analytic - numeric) <= _FD_ATOL else 1.0
    return abs(analytic - numeric) / denom


def _fd_match(make_loss, leaf, rng, n_entries=2, eps=1e-6):
    leaf.grad = None
    loss = make_loss()
    loss.backward()
    analytic_full = leaf.grad.copy()
    flat = leaf.value.reshape(-1)
    worst = 0.0
    for _ in range(n_entries):
        i = int(rng.integers(flat.size))
        keep = flat[i]
        flat[i] = keep + eps
        up = float(make_loss().value)
        flat[i] = keep - eps
        dn = float(make_loss().value)
        flat[i] = keep
        numeric = (up - dn) / (2 * eps)
        worst = max(worst, _fd_error(analytic_full.reshape(-1)[i], numeric))
    return worst


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(2)
    worst = {}

    # linear (also the regression head: a linear map without activation)
    w_lin = 0.0
    for _ in range(20):
        p = parameter(rng.normal(size=(5, 4)))
        x = rng.normal(size=(7, 5))
        w_lin = max(w_lin, _fd_match(lambda: (as_tensor(x) @ p).abs().sum(), p, rng))
    worst["linear/regression"] = w_lin

    # The batch norm, ReLU and masked max run inside the fused layers: a set
    # convolution (masked batch norm, ReLU, max over the valid slots) and an
    # upsampling MLP (batch norm in canonical row order, ReLU).
    def random_blend(n_coarse, n_fine, k):
        weights = rng.uniform(0.1, 1.0, size=(n_fine, k))
        return (rng.integers(0, n_coarse, size=(n_fine, k)),
                weights / weights.sum(axis=1, keepdims=True), rng.permutation(n_fine))

    def random_grouping(n, k, n_src, keep):
        valid = rng.uniform(size=(n, k)) > 1.0 - keep
        valid[0, 0] = True
        valid[-1] = False                 # a row with no valid slot
        return Grouping(rng.integers(0, n_src, size=(n, k)), valid,
                        rng.normal(size=(n, k, 3)))

    # relu
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "up", 4 + 2, (5,))
        blend = random_blend(4, 12, 3)
        coarse = as_tensor(rng.normal(size=(4, 4)))
        skip = parameter(rng.normal(size=(12, 2)))
        scale = float(rng.normal())
        w = max(w, _fd_match(lambda: (_up(blend, coarse, skip, params, "up") * scale).sum(),
                             skip, rng))
    worst["relu"] = w

    # batch norm over masked 3D rows (training statistics)
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "bn", 3 + 3, (3,))
        group = random_grouping(4, 5, 6, 0.7)
        src = parameter(rng.normal(size=(6, 3)))
        for leaf in (params["bn.l0.gamma"], src):
            w = max(w, _fd_match(
                lambda: _set_conv([(src, group.idx, None)], group, params, "bn").abs().sum(),
                leaf, rng))
    worst["batchnorm-masked"] = w

    # batch norm with canonical row order (2D), scale/shift parameters
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "bn", 3 + 2, (3,))
        blend = random_blend(4, 9, 3)
        coarse = parameter(rng.normal(size=(4, 3)))
        skip = as_tensor(rng.normal(size=(9, 2)))
        for leaf in (params["bn.l0.gamma"], params["bn.l0.beta"]):
            w = max(w, _fd_match(
                lambda: _up(blend, coarse, skip, params, "bn").abs().sum(), leaf, rng))
    worst["batchnorm-ordered"] = w

    # masked max pooling
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "mp", 4 + 3, (4,))
        group = random_grouping(3, 6, 5, 0.75)
        src = parameter(rng.normal(size=(5, 4)))
        w = max(w, _fd_match(
            lambda: _set_conv([(src, group.idx, None)], group, params, "mp").abs().sum(),
            src, rng))
    worst["masked-max"] = w

    # downsampling set convolution (whole layer, through its MLP weights)
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "dc", 3 + 3, (5,))
        pts = rng.uniform(size=(10, 3))
        feats = parameter(rng.normal(size=(10, 3)))
        lv = LevelConfig(4, 0.6, (5,))

        def run():
            out = downsample_conv(pts, feats, lv, params, "dc")
            return out.features.abs().sum()
        w = max(w, _fd_match(run, params["dc.l0.W"], rng))
        w = max(w, _fd_match(run, feats, rng))
    worst["downsample-conv"] = w

    # flow embedding
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "emb", 2 * 4 + 3, (5,))
        pts = rng.uniform(size=(5, 3))
        centers = rng.uniform(size=(5, 3))
        fl = parameter(rng.normal(size=(5, 4)))
        fh = parameter(rng.normal(size=(5, 4)))
        from upflow.net import FeatureSet

        def run():
            low = FeatureSet(pts, fl, centers=centers)
            high = FeatureSet(pts + 0.02, fh, centers=centers)
            out = flow_embedding(low, high, 0.8, 4, params, "emb", smoothing_convs=0)
            return out.features.abs().sum()
        w = max(w, _fd_match(run, params["emb.l0.W"], rng))
        w = max(w, _fd_match(run, fl, rng))
    worst["flow-embedding"] = w

    # upsampling convolution
    w = 0.0
    for _ in range(20):
        params = {}
        _init_mlp(rng, params, "up", 4 + 2, (5,))
        coarse_pts = rng.uniform(size=(4, 3))
        fine_pts = rng.uniform(size=(7, 3))
        cf = parameter(rng.normal(size=(4, 4)))
        sk = parameter(rng.normal(size=(7, 2)))
        from upflow.net import FeatureSet

        def run():
            out = upsample_conv(FeatureSet(coarse_pts, cf), fine_pts,
                                FeatureSet(fine_pts, sk), 0.7, params, "up")
            return out.features.abs().sum()
        w = max(w, _fd_match(run, params["up.l0.W"], rng))
        w = max(w, _fd_match(run, cf, rng))
    worst["upsample-conv"] = w

    # end-to-end loss gradient on a 32-particle sample
    cfg = NetworkConfig(
        levels=(LevelConfig(8, 0.25, (6,)), LevelConfig(4, 0.5, (8,)),
                LevelConfig(2, 0.9, (10,))),
        embedding_widths=(12,), embedding_radius=0.9, smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)), seed=11)
    model = DisplacementNet.create(cfg)
    pts = np.array([0.5, 0.5, 0.5]) + 0.12 * rng.uniform(-1, 1, size=(32, 3))
    t = np.array([0.02, 0.0, 0.01])
    sample = TrainingSample(ParticleSet(pts, np.tile(t, (32, 1))),
                            ParticleSet(pts + t, np.tile(t, (32, 1))),
                            np.tile(t, (32, 1)), np.full(32, 0.5))
    _, grads = loss_gradients(model, sample)
    eps = 1e-6
    w = 0.0
    names = sorted(model.params)
    for name in rng.permutation(names)[:12]:
        p = model.params[name]
        flat = p.value.reshape(-1)
        i = int(rng.integers(flat.size))
        keep = flat[i]
        flat[i] = keep + eps
        up, _ = sample_loss(model, sample)
        flat[i] = keep - eps
        dn, _ = sample_loss(model, sample)
        flat[i] = keep
        numeric = (float(up.value) - float(dn.value)) / (2 * eps)
        w = max(w, _fd_error(grads[name].reshape(-1)[i], numeric))
    worst["end-to-end-loss"] = w

    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(5, "analytic gradients match central differences (rel err < 1e-4)",
            not bad, detail)


# ---------------------------------------------------------------------------
# 6. permutation equivariance, bit exact
# ---------------------------------------------------------------------------

def test_criterion_06_permutation_equivariance():
    cfg = NetworkConfig(
        levels=(LevelConfig(8, 0.25, (6,)), LevelConfig(4, 0.5, (8,)),
                LevelConfig(2, 0.9, (10,))),
        embedding_widths=(12,), embedding_radius=0.9, smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)), seed=12)
    model = DisplacementNet.create(cfg)
    rng = np.random.default_rng(3)
    pts = np.array([0.5, 0.5, 0.5]) + 0.15 * rng.uniform(-1, 1, size=(30, 3))
    vel = 0.1 * rng.normal(size=(30, 3))
    xl = ParticleSet(pts, vel)
    xh = ParticleSet(pts + 0.02, vel)
    base = model.predict(xl, xh)
    ok = True
    for _ in range(10):
        perm = rng.permutation(30)
        out = model.predict(ParticleSet(pts[perm], vel[perm]), xh)
        ok &= np.array_equal(out, base[perm])
    _report(6, "forward under 10 random permutations is the permuted output, bit exact", ok)


# ---------------------------------------------------------------------------
# 7. toy training convergence and held-out EPE
# ---------------------------------------------------------------------------

def test_criterion_07_toy_training():
    t = np.array([0.05, 0.0, 0.0])
    ps = 0.02
    n = 192

    def make_pair(seed):
        rng = np.random.default_rng(seed)
        pts = np.array([0.5, 0.5, 0.5]) + 0.12 * rng.uniform(-1, 1, size=(n, 3))
        vel = np.tile(t / 0.1, (n, 1))
        return TrainingSample(ParticleSet(pts, vel), ParticleSet(pts + t, vel),
                              np.tile(t, (n, 1)), np.ones(n))

    samples = [make_pair(s) for s in range(10)]
    held = make_pair(99)
    cfg = NetworkConfig(
        levels=(LevelConfig(96, 2 * ps, (16,)), LevelConfig(24, 4 * ps, (32,)),
                LevelConfig(8, 8 * ps, (64,))),
        embedding_widths=(64,), embedding_radius=16 * ps, smoothing_convs=2,
        upconv_widths=((64,), (32,), (16,)), seed=0)
    start = time.perf_counter()
    model, hist = train(samples, cfg, epochs=50, lr=4e-3)
    elapsed = time.perf_counter() - start

    loss_ratio = hist["train"][-1] / hist["train"][0]
    pred = model.predict(held.x_l, held.x_h)
    e_trained = epe(held.x_l.positions, pred, held.x_l.positions, held.gt_displacement)
    zero = DisplacementNet.zeros(cfg)
    e_zero = epe(held.x_l.positions, zero.predict(held.x_l, held.x_h),
                 held.x_l.positions, held.gt_displacement)
    ok = loss_ratio <= 0.5 and elapsed < 300.0 and e_trained < 0.5 * e_zero
    _report(7, "loss halves within 50 epochs, run < 5 min, held-out EPE < 0.5x baseline",
            ok, f"loss x{loss_ratio:.3f}, {elapsed:.0f} s, EPE {e_trained:.4f} vs {e_zero:.4f}")


# ---------------------------------------------------------------------------
# 8. loss sanity
# ---------------------------------------------------------------------------

def test_criterion_08_loss_sanity():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(6, 3))
    perfect = float(loss_up(w, w, w, np.array([1.0, 2.0]),
                            np.array([0, 1, 0, 1, 0, 1])).value)
    ws = rng.normal(size=(6, 3))
    wb = rng.normal(size=(6, 3))
    lam = np.abs(rng.normal(size=2))
    assign = np.array([0, 1, 0, 1, 0, 1])
    base = float(loss_up(w, ws, wb, 0.0 * lam, assign).value)
    l1 = float(loss_up(w, ws, wb, lam, assign).value)
    l5 = float(loss_up(w, ws, wb, 5.0 * lam, assign).value)
    linear = (l5 - base) == pytest.approx(5.0 * (l1 - base), rel=1e-12)
    _report(8, "loss is 0 on perfect prediction; lambda term scales linearly",
            perfect == 0.0 and linear)


# ---------------------------------------------------------------------------
# 9. inference pipeline identity and passive advection
# ---------------------------------------------------------------------------

def test_criterion_09_inference_identity_and_advection():
    desc = GridDesc((0, 0, 0), 0.1, (10, 10, 10))
    rng = np.random.default_rng(5)
    c = np.array([0.5, 0.5, 0.5])
    pts = c + 0.16 * rng.uniform(-1, 1, size=(400, 3))
    keep = np.linalg.norm(pts - c, axis=1) <= 0.16
    x = ParticleSet(pts[keep], np.zeros((keep.sum(), 3)))
    cfg = NetworkConfig(
        levels=(LevelConfig(16, 0.12, (6,)), LevelConfig(8, 0.24, (8,)),
                LevelConfig(4, 0.45, (10,))),
        embedding_widths=(12,), embedding_radius=0.45, smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)), seed=13)
    zero_net = DisplacementNet.zeros(cfg)
    icfg = InferenceConfig(passes=2, band_target_per_cell=8)
    phi = sdf_from_particles(x, desc, 0.75 * desc.cell_size)
    band = resample_narrow_band(x, phi, icfg.d_b, icfg.band_target_per_cell,
                                seed=icfg.seed, frame=0)

    out0 = infer_frame(x, MACGrid.zeros(desc), zero_net, icfg, dt=0.05)
    identity = np.array_equal(out0.positions, band.positions)

    cvel = np.array([0.3, 0.0, 0.0])
    dt = 0.05
    out1 = infer_frame(x, MACGrid.constant(desc, cvel), zero_net, icfg, dt=dt)
    # constant-field RK2 is exact, comfortably inside the O(dt^2) bound
    adv_err = np.abs(out1.positions - (band.positions + cvel * dt)).max()
    _report(9, "zero net: identity at zero velocity; passive advection at constant velocity",
            identity and adv_err <= dt ** 2, f"advection err {adv_err:.2e}")


# ---------------------------------------------------------------------------
# 10. multi-pass noise trend
# ---------------------------------------------------------------------------

def test_criterion_10_multipass_trend():
    desc = GridDesc((0, 0, 0), 0.1, (10, 10, 10))
    rng = np.random.default_rng(1)
    c = np.array([0.5, 0.5, 0.5])
    pts = c + 0.18 * rng.uniform(-1, 1, size=(500, 3))
    keep = np.linalg.norm(pts - c, axis=1) <= 0.18
    x = ParticleSet(pts[keep], np.zeros((keep.sum(), 3)))
    cfg_net = NetworkConfig(
        levels=(LevelConfig(16, 0.12, (6,)), LevelConfig(8, 0.24, (8,)),
                LevelConfig(4, 0.45, (10,))),
        embedding_widths=(12,), embedding_radius=0.45, smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)), seed=3)
    model = DisplacementNet.create(cfg_net)
    icfg = InferenceConfig(passes=6, band_target_per_cell=8, seed=0)
    curve = pass_noise_curve(x, MACGrid.constant(desc, (0.15, 0, 0)), model,
                             icfg, dt=0.05, max_passes=12)
    dev = np.array(curve["deviation"])
    norm = np.array(curve["avg_norm"])
    noise_ok = bool(np.all(np.diff(dev[:6]) <= 1e-15))
    # the depth schedule (`inference._DEPTHS`) repeats every 3 passes, so the dilution
    # of the averaged field is measured at whole sweep counts 6 -> 9 -> 12
    cycle = norm[[5, 8, 11]]
    dilution_ok = bool(np.all(np.diff(cycle) <= 1e-15))
    rough = surface_roughness(x, desc)
    _report(10, "pass noise non-increasing over 1..6; averaged norm non-increasing beyond 6",
            noise_ok and dilution_ok,
            f"dev {dev[0]:.2e}->{dev[5]:.2e}, norm@6/9/12 {cycle.round(6)}, "
            f"band roughness {rough:.2f}")


# ---------------------------------------------------------------------------
# 11. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(3):
        pp = rng.uniform(size=(100, 3))
        pd = 0.2 * rng.normal(size=(100, 3))
        rp = rng.uniform(size=(100, 3))
        rd = 0.2 * rng.normal(size=(100, 3))
        d2 = np.sum((rp[:, None, :] - pp[None, :, :]) ** 2, axis=2)
        m = np.argmin(d2, axis=1)
        err = np.linalg.norm(pd[m] - rd, axis=1)
        ok &= epe(pp, pd, rp, rd) == float(err.mean())
        ok &= flow_accuracy(pp, pd, rp, rd, threshold=0.1, eps=0.001) \
            == float(np.mean(err <= 0.101))
    _report(11, "epe and flow_accuracy equal the O(n^2) oracles exactly "
               "(threshold 0.1, eps 0.001)", ok)


# ---------------------------------------------------------------------------
# 12. augmentation factor and manifest round trip
# ---------------------------------------------------------------------------

def test_criterion_12_augmentation_and_roundtrip(tmp_path):
    theta = ParamMatrix(shapes=["sphere", "cube"],
                        obstacle_positions=[(0.25, 0.15, 0.25)],
                        emitter_positions=[(0.25, 0.4, 0.25)],
                        container_dims=[(0.5, 0.5, 0.5)])
    low = SimParams.for_domain(0.02, 1.5, (0, 0, 0), (0.5, 0.5, 0.5), dt=0.025)
    high = SimParams.for_domain(0.012, 1.2, (0, 0, 0), (0.5, 0.5, 0.5), dt=0.025)
    manifest = gen_dataset(theta, low, high, frames=2, seed=0,
                           scene_defaults=SceneSpec(pool_depth=0.25, emit_rate=0,
                                                    obstacle_size=0.05))
    grown = augment(manifest, [0.5], seed=1,
                    flow_params=FlowParams(beta_s=0.5, cg_tol=1e-6))
    doubled = len(grown.pairs) == 2 * len(manifest.pairs)

    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    uio.write_manifest(grown, str(d1))
    reread = uio.read_manifest(str(d1))
    uio.write_manifest(reread, str(d2))
    import os
    same = (d1 / "manifest.cfg").read_bytes() == (d2 / "manifest.cfg").read_bytes()
    for root, _, files in os.walk(d1):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), d1)
            same &= (d2 / rel).read_bytes() == (d1 / rel).read_bytes()
    _report(12, "alpha={0.5} doubles the manifest; round trip is bit-exact",
            doubled and same, f"{len(manifest.pairs)} -> {len(grown.pairs)} pairs")


# ---------------------------------------------------------------------------
# 13. FLIP baseline: projection tolerance and determinism
# ---------------------------------------------------------------------------

def test_criterion_13_flip_baseline():
    params = SimParams.for_domain(0.025, 2.0, (0, 0, 0), (1, 1, 1))
    scene = SceneSpec(obstacle_shape="sphere", obstacle_position=(0.5, 0.3, 0.5),
                      obstacle_size=0.1, pool_depth=0.3, emit_rate=0)
    solver = FlipSolver(scene, params, seed=7)
    div_ok = True
    for _ in range(3):
        frame = solver.step()
        div = solver.divergence(frame.velocity)
        div_ok &= float(np.abs(div).max()) <= params.pressure_tol
    a = simulate(scene, params, 3, seed=11)
    b = simulate(scene, params, 3, seed=11)
    det = all(np.array_equal(fa.particles.positions, fb.particles.positions)
              and np.array_equal(fa.velocity.u, fb.velocity.u)
              for fa, fb in zip(a, b))
    _report(13, "post-projection divergence <= tolerance; fixed-seed rerun identical",
            div_ok and det)
