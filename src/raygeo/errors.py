"""Exception hierarchy for domain precondition violations.

Every operation that refuses an input raises a subclass of
:class:`RayGeoError`, so callers (and the CLI) can separate domain
errors from programming errors.
"""


class RayGeoError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(RayGeoError):
    """Operands live in ambient spaces of different dimensions."""


class ZeroVectorError(RayGeoError):
    """A (near-)zero vector was given where a direction is required."""


class OrthogonalPairError(RayGeoError):
    """Two of the rays entering a triple phase are orthogonal.

    ``pair`` names the offending pair, e.g. ``("x", "y")``.
    """

    def __init__(self, pair, message=None):
        self.pair = tuple(pair)
        super().__init__(
            message or f"rays {self.pair[0]} and {self.pair[1]} are orthogonal"
        )


class OrthogonalComponentsError(RayGeoError):
    """Superposition requested for orthogonal component states."""


class InvalidWeightError(RayGeoError):
    """Superposition weight outside [0, 1] (or not finite)."""


class DegenerateTripleError(RayGeoError):
    """A triple violates distinctness/coplanarity/non-orthogonality
    preconditions, or a closed-form denominator vanished."""


class NotOrthogonalError(RayGeoError):
    """An operation requiring orthogonal subspaces received a
    non-orthogonal pair."""


class NotCommutingError(RayGeoError):
    """An operation requiring commuting propositions received a
    non-commuting pair."""


class NotIsometryError(RayGeoError):
    """An operation requiring an isometry received a map that is not one."""


class PreconditionUnmetError(RayGeoError):
    """A stated precondition failed; ``condition`` says which one."""

    def __init__(self, condition, message=None):
        self.condition = condition
        super().__init__(message or f"precondition not met: {condition}")


class UnknownLawError(RayGeoError):
    """A law id that is not present in the registry."""
