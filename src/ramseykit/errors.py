"""Exception types shared across the package."""


class RamseyKitError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(RamseyKitError):
    """Input data (graph6 string, color matrix, ...) violates its format."""


class ParseError(RamseyKitError):
    """A problem string does not match the accepted grammar."""


class InputError(RamseyKitError):
    """Inputs are well-formed but mutually inconsistent (e.g. wrong color count)."""


class CapabilityError(RamseyKitError):
    """The request exceeds a supported size or budget bound."""


class BudgetExceededError(CapabilityError):
    """A search budget ran out; ``partial`` holds the results gathered so far."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class WitnessNotFoundError(RamseyKitError):
    """An exhaustive search finished without finding the promised witness."""


class VerificationError(RamseyKitError):
    """The package's own re-verification rejected something it built: a
    witness, or an incrementally kept score or hash.  This is a bug, never
    a property of the input, and unlike an ``assert`` it survives
    ``python -O``."""


class WorkerLost(RamseyKitError):
    """A worker process ended without reporting: killed, or out of memory."""

    def __init__(self, index: int, exitcode: int | None):
        super().__init__(f"worker {index} lost (exit code {exitcode})")
        self.exitcode = exitcode
