"""Inference-time up-resing: band upsampling, multi-pass prediction,
grid transfer, and semi-Lagrangian advection.

Each pass reseeds the surface band (pass index drives the jitter), predicts
displacements on the particles within that pass's band depth, and scatters
them to a cell-centered field. The per-pass fields are averaged in fixed
order and resampled onto the MAC layout as velocities (displacement over one
frame), û. The upsampled particles are advected by u_ext + û, where u_ext is
the extrapolated input velocity: one frame of input motion plus one predicted
displacement. With a zero network the pipeline degenerates to passive
transport by the input velocity field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, check_positive
from .flip import resample_narrow_band
from .grids import (FACE_OFFSETS, DeformationField, GridDesc, MACGrid, ScalarGrid,
                    extrapolate_mac, sample_trilinear)
from .kernels import kernel_scatter
from .net import DisplacementNet
from .particles import ParticleSet, advect_particles
from .sdf import sdf_from_particles

_DEPTHS = (0.25, 0.5, 0.75)   # band-depth fractions, one per pass, repeating


@dataclass
class InferenceConfig:
    """Knobs of the up-resing pass (defaults follow the desk-scale setup).

    Every pass carves its band on the input frame's SDF on the velocity
    grid and predicts within 0.25, 0.5 or 0.75 of its width, in turn.
    """

    d_b: int = 2                       # narrow-band width in cells
    passes: int = 3
    band_target_per_cell: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.d_b < 1:
            raise ValueError(f"d_b must be >= 1, got {self.d_b}")
        if self.band_target_per_cell < 1:
            raise ValueError("band_target_per_cell must be >= 1, got "
                             f"{self.band_target_per_cell}")


def transfer_to_grid(x: ParticleSet, omega: np.ndarray, desc: GridDesc):
    """Kernel-weighted scatter of per-particle displacements to cell centers.

    Each particle reaches 1.5 cells; cells no particle reaches hold zero.
    """
    omega = np.asarray(omega, dtype=np.float64).reshape(-1, 3)
    if len(omega) != x.count:
        raise ValueError("one displacement per particle is required")
    h = desc.cell_size
    wsum, acc = kernel_scatter(x.positions, omega, desc.origin, h, desc.dims, 1.5 * h)
    # a cell no particle reaches has acc = wsum = 0, so its vector is 0 / 1e-300
    return DeformationField(desc, acc / np.maximum(wsum, 1e-300)[..., None])


def resample_of_to_mac(u: DeformationField, like: MACGrid) -> MACGrid:
    """Sample a cell-centered vector field at the staggered face positions of
    `like`'s layout."""
    a_lo, a_hi = np.asarray(u.desc.origin), u.desc.upper
    b_lo, b_hi = np.asarray(like.desc.origin), like.desc.upper
    if np.any(a_hi <= b_lo) or np.any(b_hi <= a_lo):
        raise GridMismatch("deformation and MAC domains do not overlap")
    out = MACGrid.zeros(like.desc)
    h = like.desc.cell_size
    origin = np.asarray(like.desc.origin)
    for c, (comp, off) in enumerate(zip(out.components(), FACE_OFFSETS)):
        shape = comp.shape
        idx = np.stack(np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"),
                       axis=-1).reshape(-1, 3)
        pos = origin + (idx + np.asarray(off)) * h
        comp.reshape(-1)[:] = sample_trilinear(u, pos)[:, c]
    return out


def band_particles(x: ParticleSet, phi: ScalarGrid, depth: float) -> np.ndarray:
    """Mask of particles within `depth` (world units) of the surface, liquid side."""
    vals = sample_trilinear(phi, x.positions)
    return (vals <= 0.0) & (vals >= -depth)


def _pass_field(x_band: ParticleSet, model: DisplacementNet, u_mac: MACGrid, dt: float):
    """Predict displacements for one band subset and scatter them to the grid."""
    if x_band.count == 0:
        return DeformationField.zeros(u_mac.desc)
    omega = model.predict(x_band, advect_particles(x_band, u_mac, dt))
    return transfer_to_grid(x_band, omega, u_mac.desc)


def inference_fields(x: ParticleSet, u_mac: MACGrid, model: DisplacementNet,
                     cfg: InferenceConfig, dt: float, n_passes: int):
    """The per-pass displacement fields, the upsampled positions (those of
    ``resample_narrow_band(x, phi, d_b, ..., frame=0)``) and the SDF ``phi``
    of `x` on the velocity grid, which carves every band.

    Pass p reseeds the narrow band with jitter keyed on p and predicts on the
    particles within depth ``_DEPTHS[p % 3] * d_b * cell``.
    """
    desc = u_mac.desc
    phi = sdf_from_particles(x, desc)
    # the output band: the advection re-samples every velocity, so only its
    # positions are kept
    upsampled = resample_narrow_band(x, phi, cfg.d_b, cfg.band_target_per_cell,
                                     cfg.seed, 0).positions
    band_width = cfg.d_b * desc.cell_size
    fields = []
    for p in range(n_passes):
        xs = resample_narrow_band(x, phi, cfg.d_b,
                                  target_per_cell=cfg.band_target_per_cell,
                                  seed=cfg.seed, frame=p + 1)
        depth = _DEPTHS[p % len(_DEPTHS)] * band_width
        mask = band_particles(xs, phi, depth)
        subset = ParticleSet(xs.positions[mask], xs.velocities[mask])
        fields.append(_pass_field(subset, model, u_mac, dt))
    return fields, upsampled, phi


def average_fields(fields: list[DeformationField]) -> DeformationField:
    """Fixed-order mean of per-pass fields."""
    acc = np.zeros_like(fields[0].vectors)
    for f in fields:
        acc += f.vectors
    return DeformationField(fields[0].desc, acc / len(fields))


def infer_frame(x: ParticleSet, u_mac: MACGrid, model: DisplacementNet,
                cfg: InferenceConfig, dt: float) -> ParticleSet:
    """Up-res one frame: upsample the band, average multi-pass predictions,
    add them to the extrapolated input motion, and advect.

    The advection field is u_ext + û: the input velocity extrapolated
    ``grids.D_MAC`` cells beyond the liquid, plus the averaged predicted
    displacement over one frame. Each counts once, so a zero network with zero
    input velocity is the identity on the upsampled positions and a zero
    network with nonzero input velocity reduces to passive transport.
    """
    check_positive("dt", dt)
    fields, upsampled, phi = inference_fields(x, u_mac, model, cfg, dt, cfg.passes)
    avg = average_fields(fields)
    # displacements act as velocities over one frame when added to u_ext
    vel_field = DeformationField(avg.desc, avg.vectors / dt)
    u_hat = resample_of_to_mac(vel_field, u_mac)
    u_ext = extrapolate_mac(u_mac, phi)
    advect_field = MACGrid(u_mac.desc, u_ext.u + u_hat.u, u_ext.v + u_hat.v,
                           u_ext.w + u_hat.w)
    if len(upsampled) == 0:
        return ParticleSet.empty()
    return advect_particles(ParticleSet(upsampled, np.zeros_like(upsampled)),
                            advect_field, dt)


def surface_roughness(x: ParticleSet, desc: GridDesc) -> float:
    """Mean |Laplacian| of the particle SDF (at the default radius) over the
    surface band; a rough, noisy surface scores higher than a smooth one."""
    from .optflow import _laplacian

    phi = sdf_from_particles(x, desc)
    band = np.abs(phi.values) <= 2.0 * desc.cell_size
    if not band.any():
        return 0.0
    lap = np.abs(_laplacian(phi.values, desc.cell_size))
    return float(lap[band].mean())


def pass_noise_curve(x: ParticleSet, u_mac: MACGrid, model: DisplacementNet,
                     cfg: InferenceConfig, dt: float, max_passes: int = 12):
    """Noise diagnostics of the multi-pass averaging.

    Returns a dict with, for every running pass count k = 1..max_passes:
      - ``deviation``: RMS distance of the k-pass averaged field from the
        fully averaged (max_passes) field;
      - ``avg_norm``: RMS magnitude of the k-pass averaged field.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    fields, _, _ = inference_fields(x, u_mac, model, cfg, dt, max_passes)
    stack = np.stack([f.vectors for f in fields])
    converged = stack.mean(axis=0)
    deviation = []
    avg_norm = []
    acc = np.zeros_like(converged)
    for k in range(1, max_passes + 1):
        acc += stack[k - 1]
        avg = acc / k
        deviation.append(float(np.sqrt(np.mean((avg - converged) ** 2))))
        avg_norm.append(float(np.sqrt(np.mean(avg ** 2))))
    return {"deviation": deviation, "avg_norm": avg_norm}
