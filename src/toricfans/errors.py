"""Exception hierarchy for fan validation and fan operations."""


class FanError(Exception):
    """Base class for all errors raised by this package."""


class FanValidationError(FanError):
    """Raw input does not define a valid simplicial fan."""


class NonPrimitiveRayError(FanValidationError):
    """A ray generator is zero or its coordinates are not coprime."""


class DuplicateRayError(FanValidationError):
    """Two listed rays are the same lattice vector."""


class ConeSizeError(FanValidationError):
    """A maximal cone does not have exactly `dim` distinct ray indices."""


class DependentConeError(FanValidationError):
    """The generators of a cone are linearly dependent (non-simplicial)."""


class DuplicateConeError(FanValidationError):
    """The same maximal cone is listed twice."""


class UnusedRayError(FanValidationError):
    """A listed ray appears in no maximal cone."""


class OverlapError(FanValidationError):
    """Two maximal cones intersect in more than their common face."""

    def __init__(self, cone_a, cone_b):
        self.cone_a = tuple(cone_a)
        self.cone_b = tuple(cone_b)
        super().__init__(
            f"cones {self.cone_a} and {self.cone_b} violate the fan property"
        )


class NotCompleteError(FanError):
    """The operation needs a complete fan (support covering all of R^dim)."""


class NotSmoothError(FanError):
    """The operation needs a smooth (unimodular) fan."""


class UnmatchedWallError(FanError):
    """Some codimension-one face is not shared by exactly two maximal cones."""

    def __init__(self, faces):
        self.faces = tuple(faces)
        super().__init__(f"unmatched walls: {self.faces}")


class RayExistsError(FanError):
    """The subdivision ray is already a ray of the fan."""


class NotInSupportError(FanError):
    """The subdivision ray lies in the relative interior of no cone."""


class UnsupportedStarPatternError(FanError):
    """The star of the ray is not one of the two contractible shapes."""


class NotModifiableWallError(FanError):
    """The wall admits no flip/flop/anti-flip exchange."""


class UnknownFamilyError(FanError):
    """Unknown catalog family id."""


class ArityMismatchError(FanError):
    """Wrong number of parameters for a catalog family."""


class DegenerateRaysError(FanError):
    """The input rays do not span the ambient space."""
