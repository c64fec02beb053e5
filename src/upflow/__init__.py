"""Particle-liquid up-resing toolkit.

Set UPFLOW_THREADS to cap the BLAS/OpenMP thread pools used by the numeric
kernels. The package copies it into OMP_NUM_THREADS and friends on import,
which takes effect only if numpy has not been imported yet: import upflow
first (the `upflow` command does), or set those variables directly.
"""

import os as _os

_threads = _os.environ.get("UPFLOW_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import (CenterMismatch, CGNotConverged, EmptyNeighborhood,  # noqa: E402
                     GridMismatch, LengthMismatch, NonFiniteLoss, NoSurface,
                     SolverDiverged, UpflowError)
from .grids import (DeformationField, GridDesc, MACGrid, ScalarGrid,  # noqa: E402
                    extrapolate_mac, sample_trilinear)
from .kernels import kernel_k, neighborhood_weights  # noqa: E402
from .particles import ParticleSet, advect_particles  # noqa: E402
from .sdf import sdf_from_particles  # noqa: E402
from .flip import (SceneSpec, SimFrame, SimParams, FlipSolver,  # noqa: E402
                   resample_narrow_band, simulate)
from .optflow import (AlignmentPenalty, FlowParams, SpaceTimeSDF,  # noqa: E402
                      alignment_penalty, apply_deformation, build_system,
                      complex_cells, feature_points, flow_interpolate,
                      solution_fields, solve_flow, stack_flow)
from .net import (DisplacementNet, FeatureSet, LevelConfig, NetworkConfig,  # noqa: E402
                  TrainingSample, loss_up, loss_gradients, train)
from .inference import (InferenceConfig, infer_frame, inject_motion,  # noqa: E402
                        pass_noise_curve, resample_of_to_mac, surface_roughness,
                        transfer_to_grid)
from .dataset import (DatasetManifest, PairRecord, ParamMatrix, augment,  # noqa: E402
                      gen_dataset, make_training_samples)
from .metrics import epe, flow_accuracy, match_nearest  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "AlignmentPenalty", "CGNotConverged", "CenterMismatch", "DatasetManifest",
    "DeformationField", "DisplacementNet", "EmptyNeighborhood", "FeatureSet",
    "FlipSolver", "FlowParams", "GridDesc", "GridMismatch", "InferenceConfig",
    "LengthMismatch", "LevelConfig", "MACGrid",
    "NetworkConfig", "NoSurface", "NonFiniteLoss", "PairRecord", "ParamMatrix",
    "ParticleSet", "ScalarGrid", "SceneSpec", "SimFrame", "SimParams",
    "SolverDiverged", "SpaceTimeSDF", "TrainingSample", "UpflowError",
    "advect_particles", "alignment_penalty", "apply_deformation", "augment",
    "build_system", "complex_cells", "epe", "extrapolate_mac", "feature_points",
    "flow_accuracy", "flow_interpolate", "gen_dataset", "infer_frame",
    "inject_motion", "kernel_k", "loss_gradients", "loss_up",
    "make_training_samples", "match_nearest", "neighborhood_weights",
    "pass_noise_curve", "resample_narrow_band", "resample_of_to_mac",
    "sample_trilinear", "sdf_from_particles", "simulate", "solution_fields",
    "solve_flow", "stack_flow", "surface_roughness", "train", "transfer_to_grid",
]
