"""Shared exception types, and the default pair-space size past which the audit raises ScaleLimitError."""


#: largest n whose pair space the cancellation audit enumerates unless told otherwise
DEFAULT_PAIR_SPACE_LIMIT = 4


class ScaleLimitError(RuntimeError):
    """Requested size exceeds the configured exhaustive-search limit."""


class PivotAbsentError(ValueError):
    """The free-point toggle was applied to a pair with no free points.

    Both involutions of the pair are fixed-point-free, so the toggle map is
    undefined there; such pairs are exactly its fixed set.
    """


class ClosureViolationError(RuntimeError):
    """A bounded toggle produced a pair outside the bounded pair space.

    For odd bounds this must never happen; raising instead of returning keeps
    a silent invariant breach from contaminating downstream counts.
    """


class CacheMismatchError(RuntimeError):
    """A persisted count disagrees with its recomputed value."""
