"""Exception types shared across the package."""


class StructureError(ValueError):
    """A kernel AST (or a serialized form of one) is malformed."""


class NumericError(ArithmeticError):
    """A linear-algebra operation failed beyond recovery.

    Raised after the jitter ladder is exhausted while factorizing a
    covariance matrix, or when a non-finite quantity reaches a numeric
    kernel routine.
    """


class UnsupportedMoveError(RuntimeError):
    """An inference move was requested on a tree that cannot support it."""


class ConfigError(ValueError):
    """A run configuration is invalid or cannot be parsed."""


class DataError(ValueError):
    """An input dataset is missing, malformed, or degenerate."""
