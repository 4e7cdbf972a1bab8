"""Encoder-based nonlinear state-space system identification.

Estimates neural state-space models (state transition, output map, and a
state encoder that replaces per-section initial-state estimation) by
minimizing a truncated prediction loss over overlapping subsections of the
record, with output-error and innovation noise structures.
"""

from .analysis import KStepProfile, g_of_d, kstep_nrms, nrms, overlap_variance_mc
from .autodiff import GraphError, NumericError, Tape, grad_check
from .data import IoDataset, SimSystemConfig, generate_sim_system, load_csv, benchmark_splits, save_csv, slice_splits
from .loss import IndexSet, batch_iter, encoder_loss, full_prediction_loss, valid_starts
from .model import (
    NoiseStructure,
    Normalization,
    SimResult,
    SubnetModel,
    build_model,
    load_model,
    save_model,
)
from .nets import MlpParams, MlpSpec, init_xavier, mlp_forward
from .optim import AdamState, TrainConfig, TrainReport, adam_step, fit_normalization, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "GraphError", "IndexSet", "IoDataset", "KStepProfile",
    "MlpParams", "MlpSpec", "NoiseStructure", "Normalization", "NumericError",
    "SimResult", "SimSystemConfig", "SubnetModel", "Tape", "TrainConfig",
    "TrainReport", "adam_step", "batch_iter", "build_model",
    "encoder_loss", "fit_normalization", "full_prediction_loss",
    "g_of_d", "generate_sim_system", "grad_check", "init_xavier",
    "kstep_nrms", "load_csv", "load_model", "mlp_forward", "nrms",
    "overlap_variance_mc", "benchmark_splits", "save_csv", "save_model",
    "slice_splits", "train", "valid_starts",
]
