"""Exception hierarchy shared by all flowrelay modules."""
from __future__ import annotations


class FlowRelayError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FlowRelayError):
    """Expression text violates the grammar.

    Carries the character offset of the offending token and, when known,
    a description of what was expected there.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        if expected:
            message = f"{message}; expected {expected}"
        super().__init__(f"{message} (at position {position})")


class UnknownVariableError(ParseError):
    """Variable index lies outside 1..n for the declared dimension n."""


class EvalError(FlowRelayError):
    """Expression evaluation hit an undefined operation or a non-finite value."""


class IntegrationError(FlowRelayError):
    """The ODE solver failed (step underflow, non-finite state, or time cap)."""


class OutOfSpan(FlowRelayError):
    """Dense evaluation requested outside the integrated time span."""


class BoundaryNotFound(FlowRelayError):
    """No boundary points of the requested level set inside the bounding box."""


class DegenerateCrossing(FlowRelayError):
    """A boundary crossing is tangential or unresolvably close to another.

    Callers are expected to perturb the level offsets and retry.
    """

    def __init__(self, message: str, stage: int | None = None, time: float | None = None):
        self.stage = stage
        self.time = time
        if stage is not None:
            message = f"{message} (stage {stage})"
        super().__init__(message)


class StartOnBoundary(FlowRelayError, ValueError):
    """A crossing search started on the boundary it watches."""


class NoCrossingWithinHorizon(FlowRelayError):
    """The watched boundary was never reached within the search cap."""


class NoConvergence(FlowRelayError):
    """Every seed of the periodic-orbit solver was exhausted without a root."""


class DegenerateJacobian(FlowRelayError):
    """No seed converged and some seed met a numerically singular shooting
    Jacobian (condition number above 1e12, periodic._COND_LIMIT)."""


class ContinuationStalled(FlowRelayError):
    """Predictor-corrector hit the minimum step before reaching the target."""

    def __init__(self, message: str, path=None):
        self.path = path
        super().__init__(message)


class ReplayMismatch(FlowRelayError):
    """Re-simulating an orbit picked a different crossing than recorded."""


class NotInWindow(FlowRelayError):
    """A switching duration lies outside its admissible open window."""


class ConfigError(FlowRelayError):
    """A system config file is malformed; carries the offending key path."""

    def __init__(self, keypath: str, reason: str):
        self.keypath = keypath
        self.reason = reason
        super().__init__(f"{keypath}: {reason}")
