"""Exception types shared across the package."""


class LoneAxisError(Exception):
    """Base class for all package errors."""


class InvalidGraphError(LoneAxisError):
    """A marked graph violates a structural invariant."""


class InvalidMapError(LoneAxisError):
    """A graph map violates a structural invariant."""


class PreconditionError(LoneAxisError):
    """An operation was called on input that fails its stated precondition."""


class NielsenPathPresentError(LoneAxisError):
    """The representative carries a Nielsen path, so the requested
    invariant (ideal Whitehead graph, index) is not defined from it;
    the message is the reason of `nielsen.np_verdict`.  The search also
    raises it when the paths are too many to list, and `np_verdict`
    reads that as a False verdict."""


class DecompositionError(LoneAxisError):
    """A fold decomposition failed to terminate in a homeomorphism."""


class NotLoneAxisError(LoneAxisError):
    """Axis signature requested for a map that does not have a lone axis."""


class InternalCheckError(LoneAxisError):
    """Two independent computations of the same quantity disagreed."""


class ParseError(LoneAxisError):
    """Input text could not be parsed.  Carries a 1-based line number and,
    when given, the path of the document."""

    def __init__(self, line, message, path=None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.message = message
