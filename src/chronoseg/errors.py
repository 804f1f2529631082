"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4, except that an OSError naming a path that cannot be
opened or created is a configuration error (2).
"""


class ChronosegError(Exception):
    """Base class for all package errors."""


class ConfigError(ChronosegError):
    """Bad configuration: missing columns, unknown presets, invalid params."""


class DataError(ChronosegError):
    """Bad input data: malformed rows, duplicate minutes, empty corpora."""
