"""ddpm1d: a desk-scale 1D denoising-diffusion lab for probing how far the
DDPM training/sampling recipe tolerates non-Gaussian noise."""

__version__ = "0.1.0"

from .diffusion import (
    DIVERGENCE_LIMIT,
    SamplerOptions,
    gaussian_options,
    generate_block,
    mlp_predictor,
    noiseless_reverse_chain,
    oracle_predictor,
    q_sample_block,
    reverse_mean,
    sigma_sq,
)
from .errors import ConfigError, DivergenceError
from .experiment import (
    DistributionRun,
    ExperimentConfig,
    SummaryRow,
    TrialResult,
    evaluate_trial,
    run_experiment,
    run_suite,
    run_trial,
    run_trials,
    summarize,
    table1_distributions,
    table2_distributions,
    train_trial,
)
from .mlp import (
    AdamState,
    MlpParams,
    TrainBatch,
    adam_step,
    finite_diff_check,
    forward_batch,
    init_params,
    sgd_step,
)
from .noise import MomentReport, NoiseSpec, analytic_variance, moment_report, sample_block
from .prng import RngStream, seed_stream
from .schedule import Schedule, build_linear, retention

__all__ = [
    "AdamState",
    "ConfigError",
    "DIVERGENCE_LIMIT",
    "DistributionRun",
    "DivergenceError",
    "ExperimentConfig",
    "MlpParams",
    "MomentReport",
    "NoiseSpec",
    "RngStream",
    "SamplerOptions",
    "Schedule",
    "SummaryRow",
    "TrainBatch",
    "TrialResult",
    "adam_step",
    "analytic_variance",
    "build_linear",
    "evaluate_trial",
    "finite_diff_check",
    "forward_batch",
    "gaussian_options",
    "generate_block",
    "init_params",
    "mlp_predictor",
    "moment_report",
    "noiseless_reverse_chain",
    "oracle_predictor",
    "q_sample_block",
    "retention",
    "reverse_mean",
    "run_experiment",
    "run_suite",
    "run_trial",
    "run_trials",
    "sample_block",
    "seed_stream",
    "sgd_step",
    "sigma_sq",
    "summarize",
    "table1_distributions",
    "table2_distributions",
    "train_trial",
]
