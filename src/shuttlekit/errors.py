"""Exception types shared across the package."""


class ShuttleError(Exception):
    """Base class for every error raised by this package."""


class TrapError(ShuttleError):
    """Malformed trap description, in a file or a constructed graph."""


class CircuitError(ShuttleError):
    """Malformed circuit text or gate list, or a gate id the circuit lacks."""


class OrderViolationError(ShuttleError):
    """Gate executed while a predecessor on one of its qubits is pending."""


class PlacementError(ShuttleError):
    """Initial placement cannot fit the circuit onto the trap."""


class IllegalOperationError(ShuttleError):
    """Operation applied in a state where its precondition fails."""


class ScheduleError(ShuttleError):
    """Malformed schedule file."""


class ScheduleValidationError(ShuttleError):
    """Schedule parsed but failed replay validation."""

    def __init__(self, report):
        super().__init__(report.reason or "schedule invalid")
        self.report = report


class CompileError(ShuttleError):
    """Router could not produce a legal operation sequence; no proof that none exists.

    The message says why, among the failures the baseline module docstring
    lists: placement, a stuck router, a spent search cap, or a router defect.
    """


class OracleLimitError(ShuttleError):
    """Instance exceeds the exhaustive-search size guards."""


class NoRouteError(ShuttleError):
    """Exhaustive search proved no operation sequence executes a gate."""


class RenderError(ShuttleError):
    """Instruction rendering asked for an inconsistent state/circuit pair."""


class OutputParseError(ShuttleError):
    """Model output contains no usable operation block."""


class TransportError(ShuttleError):
    """Completion endpoint unreachable or its response malformed."""


class PermanentTransportError(TransportError):
    """A request that fails the same way however often it is sent, so a retry cannot help."""


class ReplayMismatchError(PermanentTransportError):
    """A scripted client or recorded exchange file, fixed in advance, cannot answer the request."""
