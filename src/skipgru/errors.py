"""Exception types shared across the package.

Every failure mode callers are expected to handle gets its own class so the
CLI can map families to exit codes (data/format -> 3, numeric -> 4).
"""


class SkipGruError(Exception):
    """Root of all package-specific errors."""


class ShapeError(SkipGruError, ValueError):
    """Matrix dimensions do not admit the requested operation."""


class NumericError(SkipGruError, ArithmeticError):
    """A computation produced NaN/Inf or otherwise left the finite domain."""


class StateError(SkipGruError, RuntimeError):
    """An object was used out of order (unfitted pipeline, repeated backward)."""


class DataError(SkipGruError, ValueError):
    """Problem with input data content (unknown track ids, bad references)."""


class ParseError(DataError):
    """A file could not be parsed; message carries the offending line number."""


class ValidationError(DataError):
    """Parsed data violates a documented invariant (lengths, modes, ranges)."""


class ConfigError(SkipGruError, ValueError):
    """Invalid configuration value or unknown configuration key."""


class EmptyBatchError(SkipGruError, ValueError):
    """A batch-level operation received no sessions."""


class DegenerateBatchError(SkipGruError, ValueError):
    """A batch is too small or too masked for the requested operation."""


class TrainingError(SkipGruError, RuntimeError):
    """Training aborted; message names the parameter or batch at fault."""


class CheckpointError(SkipGruError, RuntimeError):
    """Base class for checkpoint persistence failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint schema version is not supported."""


class CheckpointIntegrityError(CheckpointError):
    """Checkpoint file is truncated, corrupted, or fails its content hash."""


class AlignmentError(SkipGruError, ValueError):
    """Submission and truth rows do not pair up; names rows by 1-based number."""


class EnsembleError(SkipGruError, ValueError):
    """No members, or ``ensemble_probs`` member k has other sessions or lengths."""
