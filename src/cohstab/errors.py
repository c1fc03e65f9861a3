"""Exception types shared across the package."""


class CohstabError(Exception):
    """Base class for all library errors."""


class MismatchedGenerators(CohstabError):
    """Operands belong to different generator sets."""


class NotInvertible(CohstabError):
    """Element has a zero or non-finite body, so no inverse exists."""


class UnknownPair(CohstabError):
    """Generator pair index out of range."""


class NonTerminatingSeries(CohstabError):
    """Operator exponential series cannot be certified to terminate."""


class NotALadder(CohstabError):
    """Operator fails the one-mode ladder algebra check."""


class NotOddLinear(CohstabError):
    """Element is not purely odd of monomial degree one."""


class VacuumAmplitudeZero(CohstabError):
    """State has no invertible vacuum amplitude; eigenvalue extraction undefined."""


class TruncationTooSmall(CohstabError):
    """Requested Fock-space cutoff leaves too much tail mass."""


class SeriesStalled(CohstabError):
    """Displacement power series failed to converge."""


class StepTooLarge(CohstabError):
    """Halving the integration step moved the endpoint beyond tolerance."""


class NotHermitian(CohstabError):
    """Hamiltonian is not self-adjoint at some grid time."""


class TruncationBreach(CohstabError):
    """Evolved boson state leaked into the truncation boundary."""


class GridTooCoarse(CohstabError):
    """Finite-difference order check failed on the calibration case."""


class GeneratorCollision(CohstabError):
    """Forcing generator also appears in the initial eigenvalue."""


class NotDegreeOne(CohstabError):
    """Path components must live in the odd degree-one subspace."""


class MissingEigenvalues(CohstabError):
    """Trajectory carries no eigenvalue records to verify."""


class ParseError(CohstabError):
    """Malformed expression or scenario text."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"offset {offset}: {message}"
        super().__init__(message)
        self.offset = offset


class ValidationError(CohstabError):
    """Structurally valid input with inconsistent content."""


# Failures of the numerics (as opposed to bad input); the CLI maps these to exit 3.
NUMERIC_ERRORS = (
    StepTooLarge,
    TruncationBreach,
    TruncationTooSmall,
    SeriesStalled,
    GridTooCoarse,
    NonTerminatingSeries,
    NotALadder,
)
