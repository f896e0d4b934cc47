"""Failure taxonomy: the exit codes and the four error classes that carry them.

Every failure the package raises on purpose is an :class:`InvariantError`
(or a ``FileNotFoundError``, exit 3).  Each class states its exit ``code``
and its ``kind``, which ``cli.main`` prints in the JSON error record, so
which failure gets which code is decided here and nowhere else.
"""

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_NUMERIC = 4
EXIT_INVARIANT = 5


class InvariantError(Exception):
    """An internal invariant does not hold; the base of the taxonomy."""

    code = EXIT_INVARIANT
    kind = "invariant"


class ConfigError(InvariantError):
    """The run config or the synthon library is malformed or inconsistent."""

    code = EXIT_CONFIG
    kind = "invalid-config"


class NumericalError(InvariantError):
    """NaN/Inf encountered; the message names the offending tensor or step."""

    code = EXIT_NUMERIC
    kind = "numeric"


class ArtifactError(InvariantError):
    """An artifact file exists but cannot be read: truncated, corrupt or malformed."""

    code = EXIT_INVARIANT
    kind = "invalid-artifact"
