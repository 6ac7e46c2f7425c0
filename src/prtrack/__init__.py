"""Probabilistic center/box regression on grids, with a synthetic tracking benchmark.

The package models a target state as a conditional density obtained by
exponentiating and normalizing a learned score grid.  Training minimizes
divergence-style objectives (or squared-error baselines) and the online
solver takes closed-form steepest-descent steps.  A two-stage tracker and
a CLI harness exercise everything end to end on synthetic sequences.
"""

from .bbox import (
    BoxParam,
    QuadraticScorer,
    RefConfig,
    SGDConfig,
    box_encode,
    refine_box,
    train_box_scorer,
)
from .center_optimizer import (
    OptimizerConfig,
    OptStep,
    SupportSample,
    TargetModel,
    init_weights,
    objective,
    optimize,
    write_trace_csv,
)
from .density import GridDensity, argmax_state, expected_state, normalize
from .errors import (
    DimensionError,
    DomainError,
    NumericError,
    PrtrackError,
    UsageError,
)
from .gridmath import (
    FeatureMap,
    Grid2D,
    Kernel2D,
    conv_adjoint,
    conv_apply,
    dump_grid,
    load_grid,
    log_sum_exp,
    softmax,
)
from .labels import (
    GaussianLabel,
    MixtureProposal,
    gaussian_density,
    iou_xywh,
    label_grid,
    proposal_density,
    proposal_sample,
)
from .losses import (
    LossValueGrad,
    kl_grid_loss,
    kl_mc_loss,
    l2_loss,
    nll_loss,
    robust_l2_loss,
)
from .tracker import (
    Frame,
    Scenario,
    SyntheticSequence,
    TrackerConfig,
    TrackingMetrics,
    TrackRun,
    TrackState,
    evaluate,
    generate_sequence,
    init_scorers,
    run_sequence,
    search_region,
    track_init,
    track_step,
    write_track_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PrtrackError", "DimensionError", "DomainError", "NumericError", "UsageError",
    # grids
    "Grid2D", "Kernel2D", "FeatureMap", "conv_apply", "conv_adjoint",
    "log_sum_exp", "softmax", "dump_grid", "load_grid",
    # densities
    "GridDensity", "normalize", "argmax_state", "expected_state",
    # labels
    "GaussianLabel", "MixtureProposal", "gaussian_density", "proposal_density",
    "proposal_sample", "label_grid", "iou_xywh",
    # losses
    "LossValueGrad", "l2_loss", "robust_l2_loss", "nll_loss",
    "kl_grid_loss", "kl_mc_loss",
    # center optimizer
    "SupportSample", "OptimizerConfig", "TargetModel", "OptStep",
    "init_weights", "objective", "optimize", "write_trace_csv",
    # boxes
    "BoxParam", "box_encode", "QuadraticScorer", "SGDConfig",
    "train_box_scorer", "RefConfig", "refine_box",
    # tracking
    "Scenario", "Frame", "SyntheticSequence", "generate_sequence",
    "TrackerConfig", "TrackState", "search_region", "init_scorers", "track_init",
    "track_step", "run_sequence",
    "TrackRun", "TrackingMetrics", "evaluate", "write_track_csv",
]
