"""Desk-scale domain adaptation lab.

Synthetic covariate/label-shift domains, a small MLP stack with exact
analytic gradients, UDA/SFDA/MSFDA trainers, proxy-based source-model
weight estimation, and a reproducible benchmark harness.
"""

from .adapt import (
    AdaptationConfig,
    TrainerOutput,
    pseudo_labels,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from .datagen import (
    Dataset,
    gen_gaussian_blobs,
    gen_two_moons,
    load_dataset,
    make_adversarial_source,
    save_dataset,
    split,
)
from .errors import (
    ExclusionError,
    FormatError,
    NumericError,
    ParameterError,
    ShiftLabError,
)
from .mea import (
    WeightEstimate,
    combine_weights,
    confidence_weights,
    estimate,
    proxy_accuracy,
    proxy_weights,
)
from .nn import (
    Gradient,
    OptimizerState,
    SourceModel,
    backward,
    forward,
    init_model,
    init_optimizer,
    load_model,
    save_model,
    sgd_step,
)
from .objectives import (
    cross_entropy,
    diversity_loss,
    entropy_loss,
    im_loss,
    mmd_rbf,
)
from .records import ExperimentRecord, TrajectoryRow

__version__ = "0.1.0"
