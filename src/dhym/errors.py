"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` so the command line driver can map
failures onto its documented exit statuses:

* 2 -- invalid configuration / input,
* 3 -- topological obstruction (the problem is refused, not failed),
* 4 -- the solver did not converge,
* 5 -- an internal invariant was violated.
"""


class DhymError(Exception):
    """Base class for all package errors."""

    exit_code = 5


class InvalidConfig(DhymError):
    exit_code = 2


class DimensionMismatch(DhymError):
    exit_code = 2


class NonPositiveMetric(DhymError):
    """The metric matrix (or matrix field) is not positive definite."""

    exit_code = 2


class DegeneratePhase(DhymError):
    """The phase is not a unit complex number: ``Phase`` raises it for a
    (cos, sin) off the unit circle."""

    exit_code = 3


class PhasePreconditionViolated(DhymError):
    """The sign conditions on the phase required by a bound verifier fail."""

    exit_code = 2


class NotConvex(DhymError):
    """An input potential lies outside the admissibility cone: 1 + phi'' > 0
    in one dimension, I + Hess phi positive definite in two.  The solver
    keeps its own iterates inside."""

    exit_code = 2


class NotMonotone(DhymError):
    exit_code = 2


class SmallRadiusObstruction(DhymError):
    """Small-radius problems with coupling need det(F0) > 0."""

    exit_code = 3


class NotConverged(DhymError):
    """The solver stopped above its effective tolerance; carries the best
    residual sup-norm, the roundoff floor c eps S' and the scale S'."""

    exit_code = 4

    def __init__(self, message: str, residual: float, floor: float, scale: float):
        super().__init__(message)
        self.residual, self.floor, self.scale = residual, floor, scale


class SingularLinearization(DhymError):
    exit_code = 5


class DegenerateTopPower(DhymError):
    """The top self-intersection of the curvature class vanishes, so the
    small-radius expansion is undefined."""

    exit_code = 3


class SingularElliptic(DhymError):
    exit_code = 5
