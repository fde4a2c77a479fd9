"""Shared exception types."""


class GuardError(RuntimeError):
    """An operation would exceed a declared resource guard (size, paths, dims)."""


class InsufficientCohortError(RuntimeError):
    """A calibration target cannot be met at the given cohort size."""
