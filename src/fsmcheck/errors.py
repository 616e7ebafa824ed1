"""Exception types shared across the package."""


class FsmCheckError(Exception):
    """Base class for all errors raised by fsmcheck."""


class UnknownInputError(FsmCheckError):
    """An input label outside the component's input alphabet was supplied.

    Deliberately distinct from an empty result set: an empty set means
    "the input is declared but has no continuation here", this error means
    "the input is not part of the alphabet at all".
    """

    def __init__(self, label, component_name=""):
        self.label = label
        self.component_name = component_name
        where = f" of component '{component_name}'" if component_name else ""
        super().__init__(f"input '{label}' is not in the input alphabet{where}")


class SignatureMismatchError(FsmCheckError):
    """Two components that must share (inputs, outputs) do not."""


class ComposabilityError(FsmCheckError):
    """Synchronous composition was requested for a pair that cannot synchronize.

    Carries the path of the offending node inside a composition tree
    ("" for the root, otherwise e.g. "left.right").
    """

    def __init__(self, message, path=""):
        self.path = path
        if path:
            message = f"{message} (at node {path})"
        super().__init__(message)


class UnknownTargetError(FsmCheckError):
    """A projection target is not a leaf of the system expression."""


class NotATraceError(FsmCheckError):
    """A trace was replayed on a component that cannot execute it."""


class TraceLimitError(FsmCheckError):
    """A bounded enumeration exceeded its configured cardinality guard."""

    def __init__(self, limit, detail=""):
        self.limit = limit
        extra = f": {detail}" if detail else ""
        super().__init__(f"enumeration exceeded the cardinality guard of {limit}{extra}")


class ShapeMismatchError(FsmCheckError):
    """Two system expressions do not have matching leaf sets."""


class InvalidComponentError(FsmCheckError):
    """A component's initial state or a transition is outside its declared
    states or alphabets, so it cannot be checked or composed."""


class ParseError(FsmCheckError):
    """A component file or system expression could not be parsed."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
