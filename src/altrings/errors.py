"""Exception hierarchy.

Two tiers matter to callers (and map to CLI exit codes): input problems and
violated mathematical preconditions.  A failed self-check is a verdict on a
result, not an exception.
"""


class AltRingsError(Exception):
    """Base class for all library errors."""


class InputError(AltRingsError):
    """Malformed input: bad file, bad recipe, bad serialized value."""


class PreconditionError(AltRingsError):
    """A documented mathematical precondition does not hold."""


class AlgebraMismatchError(PreconditionError):
    """Operands belong to different algebras or have mismatched dimensions."""


class UnitValidationError(PreconditionError):
    """The claimed multiplicative identity fails unit laws."""


class NotAlternativeError(PreconditionError):
    """Operation requires an alternative algebra."""


class NotIdempotentError(PreconditionError):
    """Supplied element is not idempotent."""


class TrivialIdempotentError(PreconditionError):
    """Supplied idempotent is 0 or the unit; a nontrivial one is required."""


class PreconditionFailedError(PreconditionError):
    """Required Peirce conditions do not hold for this context."""


class LieLawViolatedError(PreconditionError):
    """Map does not satisfy the Lie product rule."""


class HypothesisFailedError(PreconditionError):
    """A diagonal-corner hypothesis (a or b) fails for the supplied map."""


class NotDerivationError(PreconditionError):
    """Matrix fails the Leibniz rule on some basis pair."""


class NotCentralError(PreconditionError):
    """Element claimed central is not in the center."""


class NormalizationFailedError(PreconditionError):
    """Idempotent normalization did not land in the center."""


class NoSplitError(PreconditionError):
    """No central element matches the required diagonal corner."""


class NonUniqueSplitError(PreconditionError):
    """Diagonal split is not unique (corner conditions are violated)."""
