"""Numerical laboratory for two-encoder contrastive training: exact
negative-sampling expectations, closed-form gradients certified against
independent oracles, and quantitative probes of the geometry that makes
gradient descent work at large hidden width."""

__version__ = "0.1.0"

from .config import ExperimentConfig, parse_config
from .contrastive import (
    EncodedBatch,
    GradResult,
    HyperParams,
    LossVectors,
    encode_batch,
    grad_params,
    loss_and_vectors,
    total_loss_exact,
    total_loss_mc,
)
from .data import Dataset, generate_separated
from .encoder import (
    Params,
    Shape,
    backprop_matrix,
    forward_batch,
    forward_trace,
    init_params,
)
from .rng import RngState
from .trainer import TrainTrace, theoretical_step_size, train

__all__ = [
    "__version__",
    "ExperimentConfig", "parse_config",
    "EncodedBatch", "GradResult", "HyperParams", "LossVectors",
    "encode_batch", "grad_params", "loss_and_vectors",
    "total_loss_exact", "total_loss_mc",
    "Dataset", "generate_separated",
    "Params", "Shape", "backprop_matrix", "forward_batch", "forward_trace",
    "init_params",
    "RngState",
    "TrainTrace", "theoretical_step_size", "train",
]
