"""Package exception hierarchy."""


class HjbSparseError(Exception):
    """Base class for all package errors."""


class GridSpecError(HjbSparseError):
    """Invalid grid parameters (e.g. depth smaller than dimension)."""


class OutOfDomainError(HjbSparseError):
    """A query point lies outside the domain box (or reference cube)."""


class SingularityError(HjbSparseError):
    """Kinematics evaluated at or too close to the gimbal-lock pitch."""


class InfeasibleTargetError(HjbSparseError):
    """The reachable-attitude constraint admits no solution."""


class FitError(HjbSparseError):
    """Surplus fitting cannot proceed (missing or coarse-level failed samples)."""


class SweepError(HjbSparseError):
    """Too many grid points failed to solve during a sweep."""


class ValidationError(HjbSparseError):
    """Too many oracle solves failed; validation report would be meaningless."""


class TargetSolveError(HjbSparseError):
    """The optimal reachable attitude is not unique (H parallel to the conserved direction)."""
