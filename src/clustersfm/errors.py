"""Exception hierarchy shared across the pipeline stages."""


class ConfigurationError(ValueError):
    """Invalid configuration value or unsatisfiable stage parameters."""


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class DuplicateEdgeError(DataError):
    """The same unordered camera pair appears twice in a match list."""


class NumericalError(RuntimeError):
    """A solver reached a degenerate or unrecoverable numerical state."""
