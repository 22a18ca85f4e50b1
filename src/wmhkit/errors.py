"""Exception taxonomy shared across the toolkit.

Four families, matching the CLI exit-code contract:

* ``InputError``      -- argument values out of range (a threshold outside
  (0, 1), too few histogram bins, a non-finite alpha, an unknown cohort
  field); a ``ValueError``
* ``FormatError``     -- malformed bytes on disk (NIfTI, weight containers, CSV)
* ``ContractError``   -- in-memory inputs that violate an operation's contract
  (shape/orientation mismatches, non-binary masks, bad tile geometry)
* ``DegenerateError`` -- inputs that are structurally fine but make the
  computation undefined (zero variance, empty cohorts, rank deficiency)
"""


class InputError(ValueError):
    """An argument value lies outside what the operation accepts."""


class FormatError(Exception):
    """A file or byte stream does not conform to its declared format."""


class BadMagic(FormatError):
    pass


class BadGzip(FormatError):
    pass


class UnsupportedDim(FormatError):
    pass


class UnsupportedDatatype(FormatError):
    pass


class TruncatedData(FormatError):
    pass


class BadHeader(FormatError):
    """Header fields are readable but geometrically or numerically nonsense."""


class BadVersion(FormatError):
    pass


class BadManifest(FormatError):
    pass


class TruncatedTensor(FormatError):
    pass


class ShapeCheckFailed(FormatError):
    """A loaded network description fails static shape validation."""


class MissingHeader(FormatError):
    pass


class UnknownDiagnosis(FormatError):
    pass


class DuplicateId(FormatError):
    pass


class ContractError(Exception):
    """In-memory arguments violate an operation's preconditions."""


class ShapeMismatch(ContractError):
    pass


class OrientationMismatch(ContractError):
    pass


class NonBinaryInput(ContractError):
    pass


class LengthMismatch(ContractError):
    pass


class UnknownConcatSource(ContractError):
    pass


class TileTooSmall(ContractError):
    pass


class NonFiniteInput(ContractError):
    pass


class DegenerateError(Exception):
    """The computation is undefined for this input."""


class DegenerateMask(DegenerateError):
    pass


class TooFewPairs(DegenerateError):
    pass


class ZeroMeanReference(DegenerateError):
    pass


class ZeroReference(DegenerateError):
    pass


class NoPositives(DegenerateError):
    pass


class RankDeficient(DegenerateError):
    pass


class TooFewRows(DegenerateError):
    pass


class NoCompleteRows(DegenerateError):
    pass


class EmptyCohort(DegenerateError):
    pass
