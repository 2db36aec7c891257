"""Error types shared across the library.

Every exception carries a stable ``code`` string; the CLI maps codes to
diagnostics and exit statuses, so codes are part of the public contract.
"""

# Codes the CLI reports for failures that are not library errors: a
# malformed invocation or payload, and any other exception a command raises.
E_INPUT = "E_INPUT"
E_INTERNAL = "E_INTERNAL"


class AzumayaError(Exception):
    """Base class; ``code`` identifies the failure category."""

    code = "E_INVALID_INPUT"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class ModeMismatchError(AzumayaError):
    code = "E_MODE_MISMATCH"


class ShapeError(AzumayaError):
    code = "E_SHAPE"


class ZeroElementError(AzumayaError):
    code = "E_ZERO"


class DegenerateError(AzumayaError):
    code = "E_DEGENERATE"


class ZeroLambdaError(AzumayaError):
    code = "E_ZERO_LAMBDA"


class PreconditionError(AzumayaError):
    code = "E_PRECONDITION"


class NonConstantError(AzumayaError):
    code = "E_NONCONST"


class NotSplitError(AzumayaError):
    code = "E_NOT_SPLIT"


class NotAdmissibleError(AzumayaError):
    code = "E_NOT_ADMISSIBLE"


class CoverMismatchError(AzumayaError):
    code = "E_COVER_MISMATCH"


class UndecidableGroupError(AzumayaError):
    code = "E_UNDECIDABLE_GROUP"


class InvalidInputError(AzumayaError):
    code = "E_INVALID_INPUT"
