"""Shared exception types."""


class ConfigError(ValueError):
    """An invalid configuration value or malformed config input."""


class DivergenceError(RuntimeError):
    """A diffusion chain or training run hit a non-finite or exploding value.

    ``step`` is the 1-based reverse step where the blow-up was detected, when
    known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
