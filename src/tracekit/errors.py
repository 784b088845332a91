"""Exception hierarchy shared by all tracekit modules."""

from __future__ import annotations


class TracekitError(Exception):
    """Base class for every error raised by this package."""


class EmptyTrainingSet(TracekitError):
    """No events were available to build a dictionary or train a model."""


class IndexOutOfRange(TracekitError):
    """An encoded index does not fall inside the dictionary vocabulary."""


class MalformedLine(TracekitError):
    """A trace file line does not match the `<timestamp> <id>` grammar."""

    def __init__(self, line_no: int, line: str, reason: str = ""):
        self.line_no = line_no
        self.line = line
        detail = f": {reason}" if reason else ""
        super().__init__(f"malformed line {line_no}{detail}: {line!r}")


class NonMonotonicTimestamp(TracekitError):
    """A timestamp decreased relative to the previous event."""

    def __init__(self, line_no: int):
        self.line_no = line_no
        super().__init__(f"timestamp decreased at line {line_no}")


class InsufficientTraces(TracekitError):
    """Fewer traces are available than an operation requires."""


class InvalidSpec(TracekitError):
    """A generator spec is internally inconsistent."""


class UntrainedModel(TracekitError):
    """Prediction was requested from a model that has not been trained."""


class EmptyWindow(TracekitError):
    """A forward pass was requested on an empty input window."""


class VersionMismatch(TracekitError):
    """A serialized artifact declares an unsupported format version."""


class CorruptModel(TracekitError):
    """A serialized model or dictionary failed checksum or structural validation."""


class InvalidFraction(TracekitError):
    """A loss fraction is outside [0, 1)."""


class LengthMismatch(TracekitError):
    """Prediction and truth sequences cannot be aligned step for step."""


class DegenerateInput(TracekitError):
    """A sequence is too short for the operation: alignment, loss injection or rendering."""


class EmptyOriginal(TracekitError):
    """A mining report to compare against has no instances."""


class ConfigError(TracekitError):
    """A run configuration file is invalid (unknown key, bad value)."""
