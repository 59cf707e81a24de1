"""Exception taxonomy for the tropideal package.

The CLI maps these onto exit codes: input-style errors exit 2, the
enumeration guard exits 3.
"""


class TropidealError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TropidealError):
    """Invalid user-supplied data (bad shapes, non-prime p, all-infinity point, ...)."""


class DimensionError(InputError):
    """Vector/polynomial length mismatch."""


class DegenerateInputError(InputError):
    """An operation that needs a nonempty polynomial received the infinity polynomial."""


class InvalidMatroidError(InputError):
    """A claimed valuated matroid has no finite basis or an inconsistent shape."""


class PreconditionError(InputError):
    """A documented precondition was violated (e.g. B is not a basis)."""


class OutOfRangeError(InputError):
    """Degree argument beyond the truncation bound."""


class InvariantViolationError(TropidealError):
    """A runtime invariant that theory guarantees failed; indicates bad input or a bug."""


class ParseError(InputError):
    """Malformed JSON input; message carries location information where possible."""


class SizeGuardError(TropidealError):
    """An enumeration exceeded the configured subset cap."""
