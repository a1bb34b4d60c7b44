"""Forward corruption, the DDPM ancestral reverse sampler with step variance
sigma_t^2 = beta_t, and the exact noise-prediction oracle that exists because
the data distribution is a point mass.

A predictor is any callable ``pred(x_t, t) -> eps_hat`` where ``x_t`` is a
float64 ndarray of chain states, ``eps_hat`` an ndarray of the same shape, and
``t`` the 1-based step. The oracle predictor inverts the forward map exactly;
``mlp_predictor`` wraps trained weights with the normalized-time input
convention t_norm = t / T.

Stream layout of ``generate_block``: one ``noise`` block of ``n`` draws for
x_T, then one ``noise`` block of ``n`` per noisy step, from t = T down; the
final step draws nothing when ``final_step_noiseless`` is set. Each block
follows the family layout of the noise module.

A state is diverged when it is non-finite or beyond DIVERGENCE_LIMIT.
``generate_block`` returns that as a per-chain mask; ``noiseless_reverse_chain``
raises ``DivergenceError`` and names the step in its message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import noise as noise_mod
from . import schema
from .errors import DivergenceError
from .mlp import forward_batch
from .noise import NoiseSpec
from .prng import RngStream
from .schedule import Schedule

Predictor = Callable[[np.ndarray, int], np.ndarray]

SIGMA_MODES = ("beta",)

# a state is diverged when |x_t| <= DIVERGENCE_LIMIT fails: beyond it, or NaN
DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class SamplerOptions:
    """The reverse chain's noise (x_T and every noisy step); sigma_mode is only "beta"."""

    noise: NoiseSpec
    sigma_mode: str = field(default="beta", metadata={"choices": SIGMA_MODES})
    final_step_noiseless: bool = True

    def __post_init__(self):
        schema.check(self)


def gaussian_options(sigma_mode: str = "beta") -> SamplerOptions:
    return SamplerOptions(NoiseSpec("gaussian"), sigma_mode)


def oracle_predictor(x0: float, s: Schedule) -> Predictor:
    """Exact inverse of the forward map for point-mass data at x0.

    eps(x_t, t) = (x_t - sqrt(ab_t) * x0) / sqrt(1 - ab_t); exact because every
    clean sample equals x0.
    """
    return lambda x_t, t: (x_t - s.sqrt_alpha_bar[t - 1] * x0) / s.sqrt_one_minus_alpha_bar[t - 1]


def mlp_predictor(params: np.ndarray, T: int) -> Predictor:
    """Wrap trained weights as a predictor with t_norm = t / T."""
    X = np.empty((0, 2))  # the network's input rows, reused while n stays the same

    def predict(x_t: np.ndarray, t: int) -> np.ndarray:
        nonlocal X
        if len(X) != len(x_t):
            X = np.empty((len(x_t), 2))
        X[:, 0] = x_t
        X[:, 1] = t / T
        return forward_batch(params, X)

    return predict


def reverse_mean(pred: Predictor, x_t, t: int, s: Schedule):
    """Deterministic part of the ancestral step; broadcasts over array x_t."""
    i = s.index(t)
    eps_hat = pred(x_t, t)
    coef = s.beta[i] / s.sqrt_one_minus_alpha_bar[i]
    return (x_t - coef * eps_hat) / s.sqrt_alpha[i]


def generate_block(
    pred: Predictor, n: int, s: Schedule, opts: SamplerOptions, g: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` reverse chains advanced in lockstep.

    Draws follow the stream layout in the module docstring. Chains that
    diverge at any step are flagged in the returned mask and carried along
    without affecting the others.

    Returns ``(x0_hats, diverged_mask)``.
    """
    x = noise_mod.sample_block(opts.noise, n, g)
    alive = np.abs(x) <= DIVERGENCE_LIMIT
    with np.errstate(all="ignore"):
        for t in range(s.T, 0, -1):
            x = reverse_mean(pred, x, t, s)  # a fresh array, so the noise goes in in place
            if not (t == 1 and opts.final_step_noiseless):
                x += s.sqrt_beta[t - 1] * noise_mod.sample_block(opts.noise, n, g)
            alive &= np.abs(x) <= DIVERGENCE_LIMIT
    return x, ~alive


def noiseless_reverse_chain(pred: Predictor, x_start: float, s: Schedule) -> float:
    """Deterministic reverse chain (sigma forced to 0) from a given terminal state.

    With the oracle predictor this contracts to the target from any start; it
    validates the sampler independently of any training.
    """
    x = np.array([x_start], dtype=np.float64)  # a one-chain state, as predictors take
    for t in range(s.T, 0, -1):
        x = reverse_mean(pred, x, t, s)
        if not abs(x[0]) <= DIVERGENCE_LIMIT:
            raise DivergenceError(f"state {x[0]} leaving step t={t} diverged")
    return float(x[0])
