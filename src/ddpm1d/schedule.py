"""Linear beta schedule, the derived alpha / alpha-bar sequences and their square roots.

Arrays are stored 0-based: ``beta[i]`` is the rate at diffusion step ``t = i + 1``;
``Schedule.index(t)`` maps a checked 1-based step to its array index. All arithmetic is
64-bit; the 500-term cumulative product is not trustworthy in float32. ``build_linear``
takes each root once, with the correctly rounded ``np.sqrt`` (so with the bits of a root
taken where it is read), and makes all seven arrays read-only: a Schedule is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Schedule:
    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
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
    for a in (beta, alpha, alpha_bar, *roots):
        a.setflags(write=False)
    return Schedule(T, beta, alpha, alpha_bar, *roots)


def retention(s: Schedule, t: int) -> float:
    """sqrt(alpha_bar[t]): the fraction of the signal surviving t forward steps."""
    return float(s.sqrt_alpha_bar[s.index(t)])
