"""Hand-rolled noise-prediction network: 2 inputs, 32 hidden units, 1 output.

The hidden layer is ReLU and the optimizer is Adam, with beta1, beta2 and eps
fixed in ``_kernel.c``: the C that holds the exact analytic gradients and the
Adam step, built on first use by the ``kernel`` module; there is no autodiff.
The parameters are one flat (129,) float64 vector theta in [W1 rows, b1, W2,
b2] order, the weight-dump order. Nothing wraps it: init_params and adam_step
return a fresh one, and train_epoch, one call per epoch, builds the epoch's
rows from its timestep uniforms, then updates it and the AdamState in place.
Every array handed to these functions goes to the kernel as it is, so it must
already be a C-contiguous float64 array; the kernel refuses one that is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .prng import RngStream
from .schedule import Schedule

N_IN = 2
HIDDEN = 32
N_PARAMS = HIDDEN * N_IN + HIDDEN + HIDDEN + 1  # 129

_W1 = slice(0, HIDDEN * N_IN)
_W2 = slice(HIDDEN * N_IN + HIDDEN, HIDDEN * N_IN + 2 * HIDDEN)

# draws consumed by init_params; the evaluation stream skips exactly this many
INIT_DRAWS = HIDDEN * N_IN + HIDDEN  # 96


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls) -> "AdamState":
        return cls(np.zeros(N_PARAMS), np.zeros(N_PARAMS))


@dataclass
class TrainBatch:
    inputs: np.ndarray  # (n, 2), columns [x_t, t_norm]
    targets: np.ndarray  # (n,)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.ascontiguousarray(self.inputs, dtype=np.float64))
        self.targets = np.asarray(self.targets, dtype=np.float64).ravel()
        if self.inputs.shape != (len(self.targets), N_IN) or len(self.targets) == 0:
            raise ValueError("batch needs matching, nonempty inputs (n, 2) and targets (n,)")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("batch contains non-finite values")


def init_params(g: RngStream) -> np.ndarray:
    """Glorot-uniform weights, zero biases.

    Draw order is fixed: 64 uniforms for W1 (row-major), then 32 for W2,
    INIT_DRAWS in total. Weights are uniform on +-sqrt(6 / (fan_in + fan_out)).
    """
    lim1 = np.sqrt(6.0 / (N_IN + HIDDEN))
    lim2 = np.sqrt(6.0 / (HIDDEN + 1))
    theta = np.zeros(N_PARAMS)
    theta[_W1] = (2.0 * g.uniforms(HIDDEN * N_IN) - 1.0) * lim1
    theta[_W2] = (2.0 * g.uniforms(HIDDEN) - 1.0) * lim2
    return theta


def forward_batch(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predicted noise for a (n, 2) input block."""
    out = np.empty(len(X))
    kernel.default().forward(theta, X, out)
    return out


def loss_and_grad_arrays(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error and its exact gradient in flat parameter layout; the
    ReLU subgradient at 0 is 0."""
    grad = np.empty(N_PARAMS)
    return kernel.default().loss_and_grad(theta, X, y, grad), grad


def adam_step(
    theta: np.ndarray, s: AdamState, grads: np.ndarray, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; pure: the kernel steps copies of theta and ``s``.

    It is numpy's elementwise Adam, except that a first moment below the smallest
    normal float in magnitude is stored as +0 where numpy's would be subnormal.
    v keeps numpy's bits, and so does theta wherever it is 2**-900 or more in
    magnitude, since the update skipped is below 2**-1000."""
    theta, m, v = theta.copy(), s.m.copy(), s.v.copy()
    t = s.step_count + 1
    kernel.default().adam(theta, m, v, grads, lr, t)
    return theta, AdamState(m, v, t)


_FUSED = (loss_and_grad_arrays, adam_step)  # what train_epoch runs in one kernel call


def train_epoch(theta: np.ndarray, s: AdamState, u: np.ndarray, eps: np.ndarray, x0: float,
                sched: Schedule, batch_size: int, lr: float) -> tuple[float, int | None]:
    """One epoch of minibatch Adam steps, in place on theta and ``s``.

    Row i, with target eps[i], is (sqrt(ab) * x0 + sqrt(1 - ab) * eps[i], t / T), where
    t = floor(u[i] * T) + 1, ab = sched.alpha_bar[t - 1] and T = sched.T; a u outside [0, 1)
    raises ValueError. The kernel builds the rows from the roots that ``sched`` holds;
    then each run of ``batch_size`` rows, the last possibly short, is a loss_and_grad_arrays
    and an adam_step, bit for bit, all in one more kernel call; a rebound name (a profiler's
    timer, say) is called per minibatch instead. Returns the losses times their row counts,
    summed in order, and None; or, at the first non-finite loss, the sum before it and its
    minibatch index, its step not taken. theta, ``s.m`` and ``s.v`` must be writable.
    """
    X = np.empty((len(u), N_IN))
    kernel.default().rows(u, eps, x0, sched.sqrt_alpha_bar, sched.sqrt_one_minus_alpha_bar, X)
    if (loss_and_grad_arrays, adam_step) == _FUSED:
        sq_err, s.step_count, bad = kernel.default().train_epoch(
            theta, s.m, s.v, s.step_count, X, eps, batch_size, lr)
        return sq_err, bad
    sq_err = 0.0
    for k, lo in enumerate(range(0, len(u), batch_size)):
        y = eps[lo : lo + batch_size]
        loss, grad = loss_and_grad_arrays(theta, X[lo : lo + batch_size], y)
        if not np.isfinite(loss):
            return sq_err, k
        sq_err += loss * len(y)
        theta[:], new = adam_step(theta, s, grad, lr)
        s.m, s.v, s.step_count = new.m, new.v, new.step_count
    return sq_err, None


def finite_diff_check(theta: np.ndarray, batch: TrainBatch, h: float = 1e-6) -> float:
    """Worst relative error of the analytic gradient vs central differences of
    the loss ``loss_and_grad_arrays`` returns with it. Denominators are floored
    at 1e-8 so zero-gradient components compare cleanly.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be > 0, got {h}")
    X, y = batch.inputs, batch.targets
    _, grad = loss_and_grad_arrays(theta, X, y)
    q = theta.copy()
    worst = 0.0
    for i in range(N_PARAMS):
        orig = q[i]
        q[i] = orig + h
        lp, _ = loss_and_grad_arrays(q, X, y)
        q[i] = orig - h
        lm, _ = loss_and_grad_arrays(q, X, y)
        q[i] = orig
        num = (lp - lm) / (2.0 * h)
        denom = max(abs(grad[i]), abs(num), 1e-8)
        worst = max(worst, abs(grad[i] - num) / denom)
    return worst
