"""Trial orchestration: train a denoiser per trial, generate, aggregate errors.

Per-trial randomness: trial ``i`` draws weight init from stream ``2i``,
training noise from stream ``2i + 1``, and evaluation noise from stream
``2i`` after skipping the INIT_DRAWS uniforms the init consumed.
Every trial is therefore a pure function of (config, trial index), which makes
results independent of worker count and scheduling order.

Per epoch the training stream is consumed in a fixed layout: first
``samples_per_epoch`` uniforms for the timesteps, then one noise block of the
same length. Batches are consecutive slices of that block; the short remainder
batch (samples_per_epoch mod batch_size) is trained on, not dropped.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import diffusion, kernel, mlp, schema
from . import noise as noise_mod
from .diffusion import SamplerOptions
from .errors import ConfigError
from .noise import NoiseSpec
from .prng import RngStream, seed_stream
from .schedule import Schedule, build_linear, check_linear

ERROR_METRICS = ("mean_abs", "abs_mean")
REVERSE_NOISE_POLICIES = ("same", "gaussian")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; defaults are the reference setup
    (target 7, linear schedule 1e-4..0.02 over 500 steps, 3000 epochs of 1000
    samples in batches of 64 at learning rate 1e-3). With ``normalize_mixture``
    a mixture ``noise`` is stored with ``normalize`` set."""

    x0: float = 7.0
    beta_start: float = 1e-4
    beta_end: float = 0.02
    steps: int = field(default=500, metadata={">=": 1})
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    epochs: int = field(default=3000, metadata={">=": 0})
    samples_per_epoch: int = field(default=1000, metadata={">=": 1})
    batch_size: int = field(default=64, metadata={">=": 1})
    learning_rate: float = field(default=1e-3, metadata={">": 0.0})
    trials: int = field(default=100, metadata={">=": 1})
    gens_per_trial: int = field(default=100, metadata={">=": 1})
    error_metric: str = field(default="mean_abs", metadata={"choices": ERROR_METRICS})
    base_seed: int = field(default=0, metadata={">=": 0})
    sigma_mode: str = field(default="beta", metadata={"choices": diffusion.SIGMA_MODES})
    final_step_noiseless: bool = True
    reverse_noise: str = field(default="same", metadata={"choices": REVERSE_NOISE_POLICIES})
    normalize_mixture: bool = False
    # fixed, and kept so that configs and manifests that name them still parse
    activation: str = field(default="relu", metadata={"choices": ("relu",)})
    optimizer: str = field(default="adam", metadata={"choices": ("adam",)})

    def __post_init__(self):
        schema.check(self)
        if self.normalize_mixture and self.noise.family == "mixture":
            object.__setattr__(self, "noise", replace(self.noise, normalize=True))
        check_linear(self.beta_start, self.beta_end, self.steps)
        if self.batch_size > self.samples_per_epoch:
            raise ConfigError(
                f"batch_size ({self.batch_size}) cannot exceed "
                f"samples_per_epoch ({self.samples_per_epoch})"
            )

    def schedule(self) -> Schedule:
        """The linear schedule, built once per (beta_start, beta_end, steps) in a
        process and shared, which it can be because a Schedule is immutable."""
        return _schedule(self.beta_start, self.beta_end, self.steps)

    def sampler_options(self) -> SamplerOptions:
        noise = self.noise if self.reverse_noise == "same" else NoiseSpec("gaussian")
        return SamplerOptions(noise, self.sigma_mode, self.final_step_noiseless)

    def to_dict(self) -> dict:
        return schema.to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return schema.from_json(cls, d)


@lru_cache(maxsize=8)
def _schedule(beta_start: float, beta_end: float, steps: int) -> Schedule:
    return build_linear(beta_start, beta_end, steps)


@dataclass(frozen=True)
class TrialResult:
    """One trial's record. ``distribution`` is its noise spec's ``label()``, the
    name that trials.csv, summary.csv and the progress line print for it."""

    distribution: str
    trial_index: int
    seed_used: int
    final_epoch_loss: float
    gen_error: float
    divergence: str | None  # where the trial diverged, as "training epoch 2, minibatch 0"
    # the trained θ, None if training diverged; == and hash leave it out
    params: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def diverged(self) -> bool:
        return self.divergence is not None


@dataclass(frozen=True)
class SummaryRow:
    label: str
    mean_error: float
    std_error: float
    n_trials: int
    n_diverged: int


def init_stream(cfg: ExperimentConfig, trial: int) -> RngStream:
    return seed_stream(cfg.base_seed, 2 * trial)


def train_stream(cfg: ExperimentConfig, trial: int) -> RngStream:
    return seed_stream(cfg.base_seed, 2 * trial + 1)


def eval_stream(cfg: ExperimentConfig, trial: int) -> RngStream:
    g = seed_stream(cfg.base_seed, 2 * trial)
    g.uniforms(mlp.INIT_DRAWS)
    return g


def train_trial(cfg: ExperimentConfig, trial: int) -> tuple[np.ndarray | None, float, str | None]:
    """Train one denoiser; returns (params, mean loss of the last epoch, divergence).

    With epochs = 0 the freshly initialized parameters come back untouched and
    the loss is nan. A non-finite minibatch loss ends training with ``(None, nan,
    "training epoch {1-based epoch}, minibatch {0-based index}")``.
    """
    s = cfg.schedule()
    params = mlp.init_params(init_stream(cfg, trial))
    g = train_stream(cfg, trial)
    state = mlp.AdamState.zeros()
    n = cfg.samples_per_epoch
    final_loss = math.nan
    for epoch in range(1, cfg.epochs + 1):
        u = g.uniforms(n)  # the timesteps t = floor(u * T) + 1, uniform on {1..T}
        eps = noise_mod.sample_block(cfg.noise, n, g)
        sq_err, bad = mlp.train_epoch(params, state, u, eps, cfg.x0, s, cfg.batch_size,
                                      cfg.learning_rate)
        if bad is not None:
            return None, math.nan, f"training epoch {epoch}, minibatch {bad}"
        final_loss = sq_err / n
    return params, final_loss, None


def evaluate_trial(params: np.ndarray, cfg: ExperimentConfig,
                   trial: int) -> tuple[float, str | None]:
    """``(generation error, divergence)`` of trained weights on this trial's evaluation stream.

    mean_abs averages |x0_hat - x0| over the generated samples; abs_mean is
    |mean(x0_hat) - x0|. Diverged generations are excluded; if every one
    diverges, the error is nan and the divergence names the chains.
    """
    pred = diffusion.mlp_predictor(params, cfg.steps)
    g = eval_stream(cfg, trial)
    x0_hats, diverged = diffusion.generate_block(
        pred, cfg.gens_per_trial, cfg.schedule(), cfg.sampler_options(), g
    )
    good = x0_hats[~diverged]
    if good.size == 0:
        return math.nan, f"evaluation, all {cfg.gens_per_trial} chains"
    if cfg.error_metric == "mean_abs":
        return float(np.mean(np.abs(good - cfg.x0))), None
    return float(abs(np.mean(good) - cfg.x0)), None


def run_trial(cfg: ExperimentConfig, trial: int) -> tuple[TrialResult, np.ndarray | None]:
    """One full train-then-generate trial. A divergence in either phase is named on
    the record, which keeps θ if training finished. Returns ``(record,
    record.params)``, the pair ``perfbench/`` unpacks until ROADMAP item 18."""
    params, final_loss, divergence = train_trial(cfg, trial)
    gen_error, divergence = ((math.nan, divergence) if divergence
                             else evaluate_trial(params, cfg, trial))
    r = TrialResult(cfg.noise.label(), trial, cfg.base_seed, final_loss, gen_error, divergence,
                    params)
    return r, r.params


def run_trials(
    tasks: list[tuple[ExperimentConfig, int]],
    workers: int = 1,
    on_result: Callable[[TrialResult], None] | None = None,
) -> list[TrialResult]:
    """The records of ``(config, trial)`` tasks, run over one process pool of at most
    ``min(workers, len(tasks))`` workers when that is above 1, sent in chunks of
    1/(4n) of the tasks. The output and the ``on_result(record)`` calls follow
    task order. On Linux the pool forks: a forkserver or spawned worker would
    start a fresh interpreter, about 0.3 s a pool. The kernel is loaded first,
    so that the workers inherit it and none builds it again."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    kernel.default()
    n = min(workers, len(tasks))
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    pool = ProcessPoolExecutor(max_workers=n, mp_context=context) if n > 1 else None
    with pool or nullcontext():
        pairs = (pool.map(run_trial, *zip(*tasks), chunksize=max(1, len(tasks) // (4 * n)))
                 if pool else itertools.starmap(run_trial, tasks))
        out = []
        for result, _ in pairs:
            out.append(result)
            if on_result is not None:
                on_result(result)
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[TrialResult]:
    return run_trials([(cfg, i) for i in range(cfg.trials)], workers)


def summarize(results: list[TrialResult], label: str) -> SummaryRow:
    """Mean and sample std of gen_error over non-diverged trials."""
    if not results:
        raise ValueError("no trial results to summarize")
    n_diverged = sum(r.diverged for r in results)
    errors = np.array([r.gen_error for r in results if not r.diverged])
    if errors.size == 0:
        return SummaryRow(label, math.nan, math.nan, len(results), n_diverged)
    std = float(errors.std(ddof=1)) if errors.size > 1 else 0.0
    return SummaryRow(label, float(errors.mean()), std, len(results), n_diverged)


def table1_distributions() -> list[tuple[str, NoiseSpec]]:
    """The three unit-variance families, in reporting order."""
    return [
        ("gaussian", NoiseSpec("gaussian")),
        ("uniform", NoiseSpec("uniform")),
        ("arcsine", NoiseSpec("arcsine")),
    ]


def table2_distributions(normalize: bool = False) -> list[tuple[str, NoiseSpec]]:
    """Gaussian plus the two scale mixtures, in reporting order."""
    return [
        ("gaussian", NoiseSpec("gaussian")),
        ("mix0.9", NoiseSpec("mixture", mix_prob=0.9, big_variance=100.0, normalize=normalize)),
        ("mix0.5", NoiseSpec("mixture", mix_prob=0.5, big_variance=100.0, normalize=normalize)),
    ]


@dataclass
class DistributionRun:
    label: str
    results: list[TrialResult]
    summary: SummaryRow


def run_suite(
    cfg: ExperimentConfig,
    distributions: list[tuple[str, NoiseSpec]],
    workers: int = 1,
    on_result: Callable[[TrialResult], None] | None = None,
) -> list[DistributionRun]:
    """Run the same config across several noise distributions (matched seeds),
    all ``(distribution, trial)`` tasks in one pool, ``on_result`` seeing each
    record in task order. Only the spec of each ``(label, spec)`` pair is read:
    each run is named by its records' ``distribution``, the spec's ``label()``."""
    configs = [replace(cfg, noise=spec) for _, spec in distributions]
    results = run_trials([(c, i) for c in configs for i in range(cfg.trials)], workers, on_result)
    chunks = (results[j : j + cfg.trials] for j in range(0, len(results), cfg.trials))
    return [DistributionRun(c[0].distribution, c, summarize(c, c[0].distribution)) for c in chunks]
