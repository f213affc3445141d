"""Exception hierarchy.

Exit codes used by the command line front end:
2 = validation / parse error, 3 = unsupported type, 4 = precondition violation.
"""


class SymquivError(Exception):
    exit_code = 2


class ValidationError(SymquivError):
    exit_code = 2


class UnsupportedError(SymquivError):
    exit_code = 3


class PreconditionError(SymquivError):
    exit_code = 4


# exact_linalg
class NotSkewSymmetric(PreconditionError):
    pass


class OddDimension(PreconditionError):
    pass


class NotSquare(PreconditionError):
    pass


# quiver_core
class CyclicQuiver(ValidationError):
    pass


class DomainMismatch(ValidationError):
    pass


class NotEuclidean(PreconditionError):
    pass


# symmetric_quiver
class NotInvolutive(ValidationError):
    pass


class NotContravariant(ValidationError):
    pass


class PartitionViolation(ValidationError):
    pass


class AsymmetricDimension(PreconditionError):
    pass


class OddSymplecticDimension(PreconditionError):
    pass


class UnsupportedSymmetricType(UnsupportedError):
    pass


# reflection
class NotSinkOrSource(PreconditionError):
    pass


class NotAdmissible(PreconditionError):
    pass


class NonzeroOnFixedVertex(PreconditionError):
    pass


# representation
class QuiverMismatch(ValidationError):
    pass


class BadInterval(PreconditionError):
    pass


class IndexOutOfOrbit(PreconditionError):
    pass


class ShapeMismatch(ValidationError):
    pass


# schur_oracle
class UnsupportedQuiver(UnsupportedError):
    pass


# tame_decomposition
class NotRegular(PreconditionError):
    pass


class ParityViolation(PreconditionError):
    pass


# semiinvariant
class NonOrthogonalDimensions(PreconditionError):
    pass


class NotFiniteType(UnsupportedError):
    pass


class NotTame(UnsupportedError):
    pass


class PatternNotFound(PreconditionError):
    pass


class ParseError(ValidationError):
    pass
