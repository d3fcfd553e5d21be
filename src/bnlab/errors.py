"""Error types shared across the package.

Everything derives from BnlabError, and from ValueError or RuntimeError so
callers that do not care about the fine-grained class can catch the builtin.
"""


class BnlabError(Exception):
    """Base of every error the package raises on purpose."""


class DimensionError(BnlabError, ValueError):
    """Shapes or ranks do not line up."""


class SizeError(BnlabError, ValueError):
    """A count or length is too small (or otherwise out of range)."""


class DomainError(BnlabError, ValueError):
    """A scalar argument lies outside the mathematical domain of the map."""


class DegenerateBatchError(BnlabError, ValueError):
    """A normalization region contains fewer than two elements."""


class UninitializedStatsError(BnlabError, RuntimeError):
    """Evaluation-mode normalization requested before any statistics exist."""


class CacheMismatchError(BnlabError, RuntimeError):
    """A backward pass was handed a cache from a different forward pass."""


class GroupingError(BnlabError, ValueError):
    """Channel count is not divisible into the requested groups."""


class LabelError(BnlabError, ValueError):
    """A class label is outside [0, class_count)."""


class ConfigError(BnlabError, ValueError):
    """An experiment config file failed to parse or validate."""


class FormatError(BnlabError, ValueError):
    """A binary data file does not match the expected layout."""
