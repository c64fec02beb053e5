"""Particle-liquid up-resing toolkit."""

from .errors import (CenterMismatch, CGNotConverged, GridMismatch, LengthMismatch,
                     NonFiniteLoss, NoSurface, SolverDiverged, UpflowError)
from .grids import (DeformationField, GridDesc, MACGrid, ScalarGrid,
                    extrapolate_mac, sample_trilinear)
from .kernels import kernel_k
from .particles import ParticleSet, advect_particles
from .sdf import sdf_from_particles
from .flip import (SceneSpec, SimFrame, SimParams, FlipSolver,
                   resample_narrow_band, simulate)
from .optflow import (AlignmentPenalty, FlowParams, SpaceTimeSDF, alignment_penalty,
                      apply_deformation, build_system, complex_cells, feature_points,
                      solution_fields, solve_flow, stack_flow)
from .net import (DisplacementNet, FeatureSet, LevelConfig, NetworkConfig,
                  TrainingSample, loss_up, loss_gradients, train)
from .inference import (InferenceConfig, infer_frame, pass_noise_curve,
                        resample_of_to_mac, surface_roughness, transfer_to_grid)
from .dataset import (DatasetManifest, PairRecord, ParamMatrix, augment,
                      gen_dataset, make_training_samples)
from .metrics import epe, flow_accuracy, match_nearest

__version__ = "0.1.0"

__all__ = [
    "AlignmentPenalty", "CGNotConverged", "CenterMismatch", "DatasetManifest",
    "DeformationField", "DisplacementNet", "FeatureSet", "FlipSolver",
    "FlowParams", "GridDesc", "GridMismatch", "InferenceConfig",
    "LengthMismatch", "LevelConfig", "MACGrid", "NetworkConfig", "NoSurface",
    "NonFiniteLoss", "PairRecord", "ParamMatrix", "ParticleSet", "ScalarGrid",
    "SceneSpec", "SimFrame", "SimParams", "SolverDiverged", "SpaceTimeSDF",
    "TrainingSample", "UpflowError", "advect_particles", "alignment_penalty",
    "apply_deformation", "augment", "build_system", "complex_cells", "epe",
    "extrapolate_mac", "feature_points", "flow_accuracy", "gen_dataset",
    "infer_frame", "kernel_k", "loss_gradients", "loss_up",
    "make_training_samples", "match_nearest", "pass_noise_curve",
    "resample_narrow_band", "resample_of_to_mac", "sample_trilinear",
    "sdf_from_particles", "simulate", "solution_fields", "solve_flow",
    "stack_flow", "surface_roughness", "train", "transfer_to_grid",
]
