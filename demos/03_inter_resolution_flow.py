# The variational flow solve between two surfaces, with and without the
# key-event alignment term.
#
# A pair of pinched spheres (a topological event present in both inputs) sits
# next to a blob that moves between the inputs. The alignment penalty detects
# the complex cells at the pinch, anchors them to the nearest surface feature
# points, and keeps the matched event still while the blob's motion is
# recovered.

import numpy as np

from upflow import (FlowParams, GridDesc, ScalarGrid, SpaceTimeSDF,
                    apply_deformation, complex_cells, feature_points, stack_flow)

desc = GridDesc((0, 0, 0), 1.0 / 32, (32, 32, 32))
h = desc.cell_size
centers = desc.cell_centers()


def sphere(c, r):
    return np.linalg.norm(centers - np.asarray(c), axis=-1) - r


# two spheres almost touching: the sub-cell gap produces "complex" cells
pinch = np.minimum(sphere((0.30, 0.5, 0.5), 0.10), sphere((0.5125, 0.5, 0.5), 0.10))
src = ScalarGrid(desc, np.minimum(pinch, sphere((0.62, 0.42, 0.5), 0.09)))
dst = ScalarGrid(desc, np.minimum(pinch, sphere((0.62, 0.50, 0.5), 0.09)))

cc = complex_cells(src)
print(f"complex cells in the source surface: {int(cc.sum())}")
feats = feature_points(SpaceTimeSDF([dst]), alpha_feat=1.0)
print(f"feature points on the destination surface: {len(feats)}")

params = FlowParams(beta_s=3.0, beta_t=1e-3)
st_src, st_dst = SpaceTimeSDF([src]), SpaceTimeSDF([dst])

for label, align in (("unaligned", False), ("aligned  ", True)):
    fields, info = stack_flow(st_src, st_dst, params, align=align)
    warped = apply_deformation(src, fields[0], 1.0)
    band = np.abs(src.values) <= 2 * h
    l1 = float(np.abs(warped.values - dst.values)[band].sum())
    print(f"{label}: {info.iterations:4d} CG iterations, residual {info.residual:.1e}, "
          f"band L1 mismatch {l1:.4f}")

# deformation magnitude at the pinch versus at the moving blob (aligned solve)
mag = np.linalg.norm(fields[0].vectors, axis=-1)
print(f"\n|u| at the matched pinch cells: {mag[cc].mean():.5f}")
blob = np.linalg.norm(centers - np.array([0.62, 0.46, 0.5]), axis=-1) < 0.1
print(f"|u| around the moving blob:     {mag[blob].mean():.5f}")
