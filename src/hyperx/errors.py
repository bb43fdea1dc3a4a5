"""Exception types shared across the package: one per kind of fault.

Each type has one ``hyperx`` exit code:

| type              | the fault                                                  | exit |
|-------------------|------------------------------------------------------------|------|
| ``ConfigError``   | a setting                                                  | 1    |
| ``InputError``    | an array or dataset handed to an op, layer, model or split | 1    |
| ``FormatError``   | a stored file                                              | 2    |
| ``GradientError`` | training diverged                                          | 1    |
"""


class HyperxError(Exception):
    """Base class for all package errors."""


class ConfigError(HyperxError, ValueError):
    """A setting is out of range: a config field, a layer's sizes or an op's scalar argument."""


class InputError(HyperxError, ValueError):
    """An array or dataset handed to an op, layer, model or split has the wrong
    shape, rank, labels or values, or is too short or too small."""


class FormatError(HyperxError, ValueError):
    """A stored dataset, segment archive, checkpoint or config file is malformed
    or disagrees with its own manifest."""


class GradientError(HyperxError, RuntimeError):
    """A loss, gradient or eval logit is not finite."""
