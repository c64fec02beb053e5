# Inference on a coarse liquid: band upsampling, multi-pass prediction, and
# semi-Lagrangian advection along the extrapolated input motion plus the
# predicted displacement over one frame (u_ext + û).
#
# Uses a seeded (untrained) network to show the mechanics: the zero network
# reduces the pipeline to passive transport; a nonzero one adds displacement
# detail on top; and averaging more passes damps the per-pass noise.

import numpy as np

from upflow import (GridDesc, InferenceConfig, MACGrid, ParticleSet, infer_frame)
from upflow.inference import pass_noise_curve
from upflow.net import DisplacementNet, LevelConfig, NetworkConfig

desc = GridDesc((0, 0, 0), 0.1, (10, 10, 10))
rng = np.random.default_rng(1)
c = np.array([0.5, 0.5, 0.5])
pts = c + 0.18 * rng.uniform(-1, 1, size=(600, 3))
pts = pts[np.linalg.norm(pts - c, axis=1) <= 0.18]
coarse = ParticleSet(pts, np.zeros_like(pts))
print(f"coarse input: {coarse.count} particles on a {desc.dims} grid")

cfg_net = NetworkConfig(
    levels=(LevelConfig(16, 0.12, (6,)), LevelConfig(8, 0.24, (8,)),
            LevelConfig(4, 0.45, (10,))),
    embedding_widths=(12,), embedding_radius=0.45, smoothing_convs=1,
    upconv_widths=((10,), (8,), (6,)), seed=3)
icfg = InferenceConfig(passes=3, band_target_per_cell=16)
u_mac = MACGrid.constant(desc, (0.2, 0.0, 0.0))
dt = 0.05

# ## Zero network: the pipeline is passive transport of the upsampled band
zero = DisplacementNet.zeros(cfg_net)
out0 = infer_frame(coarse, u_mac, zero, icfg, dt)
drift = (out0.positions.mean(axis=0) - coarse.positions.mean(axis=0))
print(f"\nzero network: {out0.count} band particles, centroid drift "
      f"{np.round(drift, 4)} (expect ~{np.round([0.2 * dt, 0, 0], 4)})")

# ## Seeded network: extra displacement detail appears
model = DisplacementNet.create(cfg_net)
out1 = infer_frame(coarse, u_mac, model, icfg, dt)
detail = out1.positions - out0.positions[:len(out1.positions)] \
    if out1.count == out0.count else None
print(f"seeded network: {out1.count} particles")
if detail is not None:
    print(f"  added displacement detail: mean |d| = "
          f"{np.linalg.norm(detail, axis=1).mean():.4f}")

# ## Pass averaging: the running average converges and detail dilutes
curve = pass_noise_curve(coarse, u_mac, model, icfg, dt, max_passes=12)
print("\npasses  deviation-from-converged   averaged-field norm")
for k in (1, 2, 3, 6, 9, 12):
    print(f"{k:6d}  {curve['deviation'][k - 1]:22.6f}   {curve['avg_norm'][k - 1]:.6f}")
