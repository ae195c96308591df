"""Exception types shared across the package."""


class CgnnError(Exception):
    """Base class for all errors raised by this package."""


class BadMagic(CgnnError):
    """File does not start with a recognized magic value."""


class UnsupportedLinkType(CgnnError):
    """Capture link type is not Ethernet."""


class VersionMismatch(CgnnError):
    """Serialized file was written by an incompatible format version."""


class CorruptLength(CgnnError):
    """Serialized file ends before its declared payload."""


class ShapeMismatch(CgnnError):
    """Matrix operands have incompatible shapes."""


class EmptySegment(CgnnError):
    """Pooling segment contains no rows."""


class NonFiniteInput(CgnnError):
    """Classifier input contains NaN or infinity."""


class LabelOutOfRange(CgnnError):
    """Class label is outside [0, num_classes)."""


class EmptyDataset(CgnnError):
    """Operation requires at least one graph."""


class DimsMismatch(CgnnError):
    """Model dimensions do not match the data or checkpoint."""


class NoLabels(CgnnError):
    """Dataset root contains no label directories."""


class NoSessions(CgnnError):
    """No sessions survived preprocessing."""


class EmptySplit(CgnnError):
    """Requested evaluation split contains no graphs."""


class EmptyMatrix(CgnnError):
    """Confusion matrix holds no observations to score."""


class ConfigError(CgnnError):
    """Run configuration failed validation."""
