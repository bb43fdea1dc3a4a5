"""Exception types shared across the package."""


class HyperxError(Exception):
    """Base class for all package errors."""


class DimensionError(HyperxError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class RankError(HyperxError, ValueError):
    """Operand has the wrong number of axes, or a loss is not scalar."""


class ConfigError(HyperxError, ValueError):
    """Invalid layer/model/schedule configuration (divisibility, ranges)."""


class LabelError(HyperxError, ValueError):
    """Class label outside the supported range."""


class DegenerateBatchError(HyperxError, ValueError):
    """Batch statistics requested on a batch too small to define them."""


class InputValidationError(HyperxError, ValueError):
    """Model input contains non-finite or non-real values."""


class TooShortError(HyperxError, ValueError):
    """Signal shorter than a filter's warm-up requirement."""


class FormatError(HyperxError, ValueError):
    """A stored dataset or checkpoint does not match its documented schema."""


class IntegrityError(HyperxError, ValueError):
    """Stored payload bytes disagree with the manifest."""


class StratificationError(HyperxError, ValueError):
    """A class has too few items to stratify."""


class GradientError(HyperxError, RuntimeError):
    """Non-finite loss or gradient encountered during optimization."""
