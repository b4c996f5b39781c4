"""Exception types shared across the package."""


class EegBenchError(Exception):
    """Base class for all package errors."""


class ConfigError(EegBenchError):
    """Invalid or malformed run configuration."""


class DataError(EegBenchError):
    """Corpus files missing, malformed, or inconsistent."""


class CellError(EegBenchError):
    """A benchmark cell failed; carries enough context to locate it."""

    def __init__(self, scheme, extractor, model, replication, cause):
        # the args rebuild it when a pool worker's error is unpickled
        super().__init__(scheme, extractor, model, replication, str(cause))
        self.scheme, self.extractor, self.model, self.replication = self.args[:4]

    def __str__(self):
        return "cell failed: scheme={} extractor={} model={} replication={}: {}".format(*self.args)


class ConvergenceError(EegBenchError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message, iterations=None, achieved=None):
        super().__init__(message)
        self.iterations = iterations
        self.achieved = achieved
