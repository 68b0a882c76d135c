"""Exception types shared across the package, each with its command-line
exit code: 2 invalid input, 3 infeasible design, 4 numerical failure."""


class MotKitError(Exception):
    """Base class for all motkit errors."""

    exit_code = 4


class InvalidInput(MotKitError):
    """An argument breaks its rule: a number is an int or float, never a bool,
    and finite, and positive if a length, step, window, area or factor; a
    count is an int; a point is a list or tuple of three such numbers, or an
    int or float numpy array of shape (3,) with finite entries; many points
    are a list or tuple of points or an (N, 3) array."""

    exit_code = 2


class InvalidGeometry(MotKitError):
    """A geometry description cannot be realised (bar collision, open circuit)."""

    exit_code = 2


class ClearanceError(MotKitError):
    """Conductors intrude into the laser beam volume."""

    exit_code = 3


class SingularPoint(MotKitError):
    """Field requested too close to a filament for the analytic formula to be trusted."""


class EmptySample(MotKitError):
    """Every requested sample point was singular."""


class ZeroNotBracketed(MotKitError):
    """No zero of B found in the search region: the |B| minimum sits on its
    boundary, or |B| there is not zero."""


class DegenerateFit(MotKitError):
    """Least-squares fit has no usable degrees of freedom."""


class ObjectiveEvaluationError(MotKitError):
    """A design the search discards (conductors in the beams, a failed build
    or a failed field analysis); the search scores it +inf."""


class InfeasibleStart(MotKitError):
    """Optimization started from a point violating a hard constraint."""

    exit_code = 3
