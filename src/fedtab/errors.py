"""Exception hierarchy shared across the package.

Grouping matters for the command line tool: configuration problems map to
exit code 1, data problems to exit code 2, and anything else raised from
inside the library to exit code 3.
"""


class FedtabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FedtabError):
    """A configuration value or file is invalid."""


class InvalidConfigError(ConfigError):
    """A structured configuration object violates its constraints."""


class DataError(FedtabError):
    """A data file or raw table cannot be used as requested."""


class HeaderMismatchError(DataError):
    """The file header does not match the expected column set."""


class RaggedRowError(DataError):
    """A data row has a different cell count than the header."""


class UnreadableFileError(DataError):
    """A data file is not UTF-8 text or cannot be parsed as delimited text."""


class EmptyTableError(DataError):
    """A table has no data rows."""


class NonIntegerGradeError(DataError):
    """A grade cell could not be parsed as an integer."""


class NonNumericCellError(DataError):
    """A cell in a continuous column could not be parsed as a finite number."""


class UnknownTargetClassError(DataError):
    """A target cell holds a value outside the declared class list."""


class EmptyFitSetError(DataError):
    """Encoding statistics were requested over zero rows."""


class InvalidFractionError(ConfigError):
    """A fraction parameter lies outside its permitted range."""


class StratificationImpossibleError(DataError):
    """A stratified split cannot satisfy its size constraints."""


class TooManyClientsError(ConfigError):
    """More clients were requested than there are rows to distribute."""


class SingleClassError(FedtabError):
    """An operation requiring at least two classes got a single class."""


class ShapeMismatchError(FedtabError):
    """Array or model shapes are inconsistent."""


class EmptyInputError(FedtabError):
    """An aggregate or metric was invoked on empty input."""


class LengthMismatchError(FedtabError):
    """Two parallel sequences differ in length."""


class NoPositivePairsError(FedtabError):
    """ROC AUC is undefined: no class has both positive and negative examples."""
