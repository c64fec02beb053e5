# Core field primitives: grids, the blending kernel, particle SDFs, advection.
#
# Builds a particle-sampled sphere, turns it into a signed distance field,
# probes the field, and advects the particles through a rotating velocity
# grid. Everything prints numbers; no plotting required.

import numpy as np

from upflow import (GridDesc, MACGrid, ParticleSet, advect_particles, kernel_k,
                    sample_trilinear, sdf_from_particles)

# ## The blending kernel
# k(s) = max(0, (1 - s^2)^3 drops smoothly to zero at the support boundary.
for s in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"k({s:4.2f}) = {kernel_k(s):.6f}")

# ## A particle-sampled sphere and its SDF
rng = np.random.default_rng(0)
center, radius = np.array([0.5, 0.5, 0.5]), 0.3
pts = center + rng.uniform(-radius, radius, size=(4000, 3))
pts = pts[np.linalg.norm(pts - center, axis=1) <= radius]
liquid = ParticleSet(pts, np.zeros_like(pts))
print(f"\nsphere cloud: {liquid.count} particles")

desc = GridDesc((0, 0, 0), 1.0 / 24, (24, 24, 24))
# the sphere radius must cover the sampling gaps (cloud spacing ~0.03 here)
phi = sdf_from_particles(liquid, desc, radius=0.03)

probes = np.array([center,                        # deep inside
                   center + [radius, 0, 0],       # on the surface
                   center + [1.5 * radius, 0, 0]])  # outside, still in-grid
vals = sample_trilinear(phi, probes)
exact = np.linalg.norm(probes - center, axis=1) - radius
for p, v, e in zip(probes, vals, exact):
    pos = tuple(round(float(x), 2) for x in p)
    print(f"phi{pos} = {v: .4f}   (analytic {e: .4f})")

# ## Advecting through a rigid rotation
omega = 1.0
g = MACGrid.zeros(desc)
ys = desc.origin[1] + (np.arange(desc.dims[1]) + 0.5) * desc.cell_size
xs = desc.origin[0] + (np.arange(desc.dims[0]) + 0.5) * desc.cell_size
g.u[...] = (-omega * (ys - 0.5))[None, :, None]
g.v[...] = (omega * (xs - 0.5))[:, None, None]

p = ParticleSet(np.array([[0.7, 0.5, 0.5]]), np.zeros((1, 3)))
dt, steps = 0.02, 50
for _ in range(steps):
    p = advect_particles(p, g, dt)
ang = omega * dt * steps
expect = np.array([0.5 + 0.2 * np.cos(ang), 0.5 + 0.2 * np.sin(ang), 0.5])
print(f"\nafter {steps} RK2 steps around the center:")
print("  advected:", np.round(p.positions[0], 4))
print("  analytic:", np.round(expect, 4))
print("  error   :", np.linalg.norm(p.positions[0] - expect))
