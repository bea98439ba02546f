"""Exception types shared across the package."""

import numpy as np


class ConfigError(ValueError):
    """A configuration or scenario file is invalid."""


def require_finite(field, value):
    """ConfigError naming ``field`` unless every entry of ``value`` is finite.

    A NaN slips through every ordered comparison, so range checks alone do
    not catch it.
    """
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{field} must be finite, got {value}")


class SolverError(RuntimeError):
    """An offline matrix-equation solver failed (non-Hurwitz input, no convergence)."""


class DivergenceError(RuntimeError):
    """A simulated state left the finite / bounded region.

    Carries the time and the index of the offending component so the
    caller can report where the run blew up.
    """

    def __init__(self, message, t=None, component=None):
        super().__init__(message)
        self.t = t
        self.component = component


class LearnerError(RuntimeError):
    """A weight update produced non-finite values or was applied out of phase."""
