"""Exception types shared across the package."""

from __future__ import annotations


class AbducerError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AbducerError):
    """Malformed input document: bad line syntax or an unexpected token."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        self.line = line
        self.token = token
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidArgumentError(AbducerError, ValueError):
    """An empty query, k < 1 or a count out of range; also a ValueError."""


class UnknownEventError(AbducerError):
    """A referenced event id is not declared in the network."""


class DuplicateDeclarationError(ParseError):
    """An event or a link over the same ordered pair is declared twice."""


class ProbabilityOutOfRangeError(ParseError):
    """A prior or conditional probability lies outside (0, 1]."""


class IsaCycleError(AbducerError):
    """The isa relation contains a cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("isa cycle: " + " -> ".join(cycle + cycle[:1]))


class UnionCycleError(AbducerError):
    """The union of causal and isa edges contains a directed cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("causal/isa cycle: " + " -> ".join(cycle + cycle[:1]))


class MissingDisorderPriorError(ParseError):
    """An event was marked as a disorder without declaring a prior."""


class ReservedNameError(AbducerError):
    """The reserved root event name is already taken."""


class UnknownLinkError(AbducerError):
    """A scenario references a causation that is not a network link."""


class InvalidScenarioError(AbducerError):
    """A probability was requested for a scenario that is not valid."""


class MissingPriorError(AbducerError):
    """The culprit of a scenario has no declared prior."""


class NetworkTooLargeError(AbducerError):
    """The exhaustive oracle refused a network above its size guard."""


class TooManyTerminalsError(AbducerError):
    """More terminals were requested than the bitmask solver supports."""


class InconsistentConstraintsError(AbducerError):
    """Forced/forbidden edge sets contradict each other or the graph."""


class UnknownConceptError(AbducerError):
    """A referenced concept id is not declared in the recognition KB."""


class CountExceedsParentError(ParseError):
    """An instance count is larger than the count it must be bounded by."""


class AmbiguousReferenceClassError(AbducerError):
    """Two incomparable ancestors both carry a spec for the same property."""


class NoRelevantConceptError(AbducerError):
    """No ancestor carries a spec for a requested property-value pair."""


class UnknownPropertyValueError(AbducerError):
    """A queried property-value pair appears nowhere in the KB."""
