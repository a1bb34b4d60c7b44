"""Shared exception types."""


class ConfigError(ValueError):
    """An invalid configuration value or malformed config input."""


class DivergenceError(RuntimeError):
    """A state left the finite range where no record can carry it: raised by
    ``noiseless_reverse_chain`` (its message names the step ``t``) and by the
    ``--dump-weights`` check when trial 0 has no trained weights."""
