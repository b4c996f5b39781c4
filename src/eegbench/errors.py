"""Exception types shared across the package."""


class EegBenchError(Exception):
    """Base class for all package errors."""


class ConfigError(EegBenchError):
    """Invalid or malformed run configuration."""


class DataError(EegBenchError):
    """Corpus files missing, malformed, or inconsistent."""


class CellError(EegBenchError):
    """A benchmark cell failed; carries enough context to locate it."""

    def __init__(self, message, *, scheme=None, extractor=None, model=None, replication=None):
        super().__init__(message)
        self.scheme = scheme
        self.extractor = extractor
        self.model = model
        self.replication = replication
        self.completed = {}     # results of the cells finished before this one


class ConvergenceError(EegBenchError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message, iterations=None, achieved=None):
        super().__init__(message)
        self.iterations = iterations
        self.achieved = achieved
