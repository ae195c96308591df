"""Exception types shared across the package, one per kind of failure."""


class CgnnError(Exception):
    """Base class for all errors raised by this package."""


class CorruptFile(CgnnError):
    """A capture, dataset or checkpoint file's bytes are not a valid file
    of its format: bad magic, other version or link type, a length that
    overruns or a value out of range."""


class EmptyDataset(CgnnError):
    """An operation got no graphs, sessions, labels or rows to work on."""


class DimsMismatch(CgnnError):
    """Operand shapes, label ranges or model dimensions disagree."""


class NonFiniteInput(CgnnError):
    """Classifier input contains NaN or infinity."""


class ConfigError(CgnnError):
    """Run configuration failed validation."""
