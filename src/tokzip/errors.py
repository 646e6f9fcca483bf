"""Exception types raised across the package, the repr their messages give a value, and
check_field, which applies a table of field rules."""

import numbers
import reprlib

# A value in an error message shows one level of its containers, a few items
# and short scalars: YAML aliases can make a tiny file's value print as many
# kilobytes, and an error is one short line.
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxdict = 1, 3
_SHORT.maxlist = _SHORT.maxtuple = _SHORT.maxset = _SHORT.maxfrozenset = 4
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 30
short_repr = _SHORT.repr


class TokzipError(Exception):
    """Base class of the errors this package raises for bad input.

    Arguments out of range, and config fields of the wrong type, raise ValueError (the
    config classes, SyntheticSpec, local_sample_count, local_select, quantile,
    corpus_stats, baseline_select, write_pgm) or IndexError (CosineKeys.nearest).
    """


def is_number(value, kind=numbers.Real):
    """Whether value is of kind (numbers.Real or numbers.Integral), numpy's too, and no bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_field(rules, name, value, where="", error=TokzipError):
    """value, a list as a tuple, if it passes rules[name], a (test, what it asks for) pair."""
    test, wanted = rules[name]
    if not test(value):
        raise error(f"{where}{name} must be {wanted}, got {short_repr(value)}")
    return tuple(value) if isinstance(value, list) else value


class ZeroRowError(TokzipError):
    """A key matrix row has (near-)zero norm and cannot be normalized."""

    def __init__(self, index, name="key"):
        self.index = index
        super().__init__(f"{name} row {index} has zero norm")


class DimensionMismatchError(TokzipError):
    """Tensor shapes disagree with each other or with the expected layout."""


class EmptyInputError(TokzipError):
    """An operation received an empty sequence where at least one value is required."""


class InsufficientSupportError(TokzipError):
    """Fewer strictly positive attention entries than requested samples."""

    def __init__(self, requested, available):
        self.requested = requested
        self.available = available
        super().__init__(
            f"cannot sample {requested} tokens from {available} positive-probability entries"
        )


class EmptyRetentionError(TokzipError):
    """Aggregation was asked to produce output for an empty retained set."""


class NeighborCountExceedsTokensError(TokzipError):
    """knn_k is too large for the number of tokens available as neighbors."""


class MultipleGlobalImagesError(TokzipError):
    """A document may contain at most one global-image bundle."""


class EmptyCorpusError(TokzipError):
    """Statistics were requested over an empty result list."""


class ParseError(TokzipError):
    """A tensor file or manifest could not be parsed."""

    def __init__(self, message, path=None):
        self.path = path
        where = f"{path}: " if path else ""
        super().__init__(f"{where}{message}")


class UsageError(TokzipError):
    """Command-line arguments are missing, out of range or inconsistent."""


class NonFiniteValueError(DimensionMismatchError):
    """A tensor contains NaN or infinity, or a key row's norm overflows."""


class GridMismatchError(TokzipError):
    """A grid_shape's rows x cols is not the token count."""


class InfeasibleSpecError(TokzipError):
    """A synthetic data spec cannot be realized (e.g. embedding dim too small)."""
