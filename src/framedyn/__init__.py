"""framedyn: learn dynamics models that are group-invariant by construction.

States are canonicalized with a moving frame (the unique group element
carrying a state onto a fixed cross-section), a regressor is trained on the
resulting lower-dimensional canonical coordinates, and full-state predictions
are reconstructed with the inverse frame, so the learned one-step model
commutes with the group action exactly, for any regressor parameters.
"""

__version__ = "0.1.0"

from .builtin import (
    ConstantTranslationGroup,
    ProductGroup,
    ReacherGroup,
    SE2CarGroup,
    get_group,
    make_parking_group,
)
from .dataset import DatasetFormatError, TransitionDataset, read_jsonl, write_jsonl
from .groups import (
    FrameSingularityError,
    GroupElement,
    TransformationGroup,
    wrap_angle,
)
from .mlp import Adam, Mlp, MlpSpec
from .models import BaselineModel, SymmetryReducedModel
from .rng import Rng, derive_seed, mix64
from .sim import ENVS, car_step, generate_dataset, get_env, parking_step, reacher_step
from .training import (
    MetricRecord,
    ModelFormatError,
    TrainConfig,
    TrainingDivergedError,
    build_baseline_model,
    build_symmetry_model,
    load_model,
    observation_mse,
    read_metrics_csv,
    save_model,
    train,
    train_test_split,
    write_metrics_csv,
)
from .verify import SuiteResult, format_results, run_suites

__all__ = [
    "__version__",
    # groups
    "TransformationGroup",
    "GroupElement",
    "FrameSingularityError",
    "wrap_angle",
    "SE2CarGroup",
    "ConstantTranslationGroup",
    "ReacherGroup",
    "ProductGroup",
    "get_group",
    "make_parking_group",
    # models
    "SymmetryReducedModel",
    "BaselineModel",
    # learner
    "Mlp",
    "MlpSpec",
    "Adam",
    "TrainConfig",
    "MetricRecord",
    "TrainingDivergedError",
    "ModelFormatError",
    "train",
    "train_test_split",
    "observation_mse",
    "build_symmetry_model",
    "build_baseline_model",
    "save_model",
    "load_model",
    "write_metrics_csv",
    "read_metrics_csv",
    # data and simulation
    "TransitionDataset",
    "DatasetFormatError",
    "read_jsonl",
    "write_jsonl",
    "generate_dataset",
    "get_env",
    "ENVS",
    "car_step",
    "parking_step",
    "reacher_step",
    # rng
    "Rng",
    "derive_seed",
    "mix64",
    # verification
    "run_suites",
    "format_results",
    "SuiteResult",
]
