"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation.

    Examples: inverting a non-unit, a specialization hitting a zero
    denominator, requesting a check beyond the trusted truncation window.
    """


class IncompatibleOperands(ValueError):
    """Two exact objects live over different universes/variable tuples."""


class TruncationError(RuntimeError):
    """A result would not be exact on the requested truncation window."""


class InvariantError(RuntimeError):
    """A result broke an identity the mathematics guarantees, such as the
    integrality of a Witt product of integral vectors: a library defect,
    not bad input.  Raised rather than asserted, so it holds under -O."""
