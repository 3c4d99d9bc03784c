"""Exception taxonomy for the toolkit.

Analysis failures that a caller can act on get their own class; everything
derives from DocksimError so CLI code can catch one base.
"""


class DocksimError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(DocksimError):
    """A domain object violates its invariants."""


class JamError(DocksimError):
    """Mechanism is not movable (movability margin <= 0)."""


class StallError(DocksimError):
    """Required rod force exceeds the configured rod capacity."""


class DegenerateProfileError(DocksimError):
    """Face profile cannot mate even at zero misalignment."""


class CalibrationError(DocksimError):
    """Profile calibration could not reach the targets.

    Carries the best residual found so the caller can report how close
    the search got.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class ProtocolError(DocksimError):
    """Coupling event applied in a phase that does not accept it."""


class NotConnectedError(DocksimError):
    """Bus or channel used while the owning interface is not Locked."""


class FramingError(DocksimError):
    """Data frame violates its channel's payload limit."""


class UnreachableError(DocksimError):
    """No path of Locked interfaces between the given modules."""


class PortInUseError(DocksimError):
    """Dock attempted on a port that already has an edge."""


class UnsupportedError(DocksimError):
    """Loaded module has no path to a grounded module."""


class IndeterminateError(DocksimError):
    """Locked subgraph contains a cycle; statics are indeterminate."""


class NonFiniteError(DocksimError):
    """An artifact would hold inf or nan, which strict JSON and CSV readers refuse.

    artifact names the file and field the JSON key path or the CSV column;
    row counts the JSONL line or the CSV row after the header.
    """

    def __init__(self, artifact: str, field: str, row: int | None = None):
        where = field if row is None else f"{field} of row {row}"
        super().__init__(f"{artifact}: {where} is not a finite number")
        self.artifact = artifact
        self.field = field
        self.row = row


class ScenarioError(DocksimError):
    """Scenario JSON violates the schema.

    `path` is the dotted field path of the offending entry.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message
