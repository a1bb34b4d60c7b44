"""Linear beta schedule: beta and the four square roots that the program reads.

Arrays are 0-based: ``beta[i]`` is the rate at step ``t = i + 1``; ``Schedule.index(t)``
maps a checked 1-based step to its index. All arithmetic is 64-bit. ``build_linear``
computes alpha = 1 - beta and alpha_bar = cumprod(alpha) (not trustworthy in float32 over
500 terms), takes sqrt(beta), sqrt(alpha), sqrt(alpha_bar) and sqrt(1 - alpha_bar) once
with the correctly rounded ``np.sqrt`` and keeps only beta and those roots, read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Schedule:
    T: int
    beta: np.ndarray
    sqrt_beta: np.ndarray
    sqrt_alpha: np.ndarray
    sqrt_alpha_bar: np.ndarray
    sqrt_one_minus_alpha_bar: np.ndarray

    def index(self, t: int) -> int:
        """Array index of the 1-based step t; IndexError outside 1..T."""
        if not 1 <= t <= self.T:
            raise IndexError(f"step t={t} outside 1..{self.T}")
        return t - 1


def check_linear(beta1: float, betaT: float, T: int) -> None:
    """Raise ConfigError unless (beta1, betaT, T) is a valid linear schedule;
    allocates nothing, so any T is cheap to check."""
    if T < 1:
        raise ConfigError(f"steps must be >= 1, got {T}")
    if not (0.0 < beta1 <= betaT < 1.0):
        raise ConfigError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta1}, {betaT})"
        )
    if T == 1 and beta1 != betaT:  # linspace over one step keeps only beta_start
        raise ConfigError(f"steps = 1 needs beta_start == beta_end, got ({beta1}, {betaT})")


def build_linear(beta1: float, betaT: float, T: int) -> Schedule:
    """Linear schedule from beta1 to betaT over T steps (endpoints exact)."""
    check_linear(beta1, betaT, T)
    try:
        beta = np.linspace(beta1, betaT, T)
    except (MemoryError, ValueError) as exc:  # T beyond memory or numpy's size limit
        raise ConfigError(f"steps={T} is too many to allocate: {exc}") from exc
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    roots = (np.sqrt(beta), np.sqrt(alpha), np.sqrt(alpha_bar), np.sqrt(1.0 - alpha_bar))
    for a in (beta, *roots):
        a.setflags(write=False)
    return Schedule(T, beta, *roots)


def retention(s: Schedule, t: int) -> float:
    """sqrt(alpha_bar[t]): the fraction of the signal surviving t forward steps."""
    return float(s.sqrt_alpha_bar[s.index(t)])
