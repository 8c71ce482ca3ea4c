"""Typed exceptions raised across the package.

Two families matter to callers: ValidationError for inputs that violate a
contract (bad shapes, non-finite values, malformed config) and NumericalError
for computations that cannot be completed (singular systems, divergence).
The CLI maps the families to exit codes 2 and 3 respectively.
"""


class DataFuseError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1

    @property
    def kind(self) -> str:
        return type(self).__name__


class ValidationError(DataFuseError):
    exit_code = 2


class NumericalError(DataFuseError):
    exit_code = 3


# ---------------------------------------------------------------------------
# input contract violations


class RaggedColumns(ValidationError):
    """Dataset columns do not share a common length."""


class NonFiniteValue(ValidationError):
    """A NaN or infinity appeared where a finite number is required."""


class NonBinaryTreatment(ValidationError):
    """Treatment column contains values other than 0 and 1."""


class AsymmetricCovariance(ValidationError):
    """Covariance matrix is not symmetric within tolerance."""


class NotPSD(ValidationError):
    """Covariance matrix has an eigenvalue below _linalg.PSD_TOL."""


class DimensionMismatch(ValidationError):
    """Shapes of related inputs do not agree."""


class MissingColumn(ValidationError):
    """A named column is absent from the dataset."""


class MalformedInput(ValidationError):
    """Input file or descriptor does not parse to the documented schema."""


class EmptyArm(ValidationError):
    """A treatment arm or subset required by a fit has no observations."""


class FoldTooSmall(ValidationError):
    """A cross-validation fold cannot support the requested fits."""


class ExcessiveFailures(ValidationError):
    """Per-replication failure rate crossed the abort threshold."""


# ---------------------------------------------------------------------------
# numerical failures


class RankDeficientDesign(NumericalError):
    """Design matrix does not have full column rank."""


class DegenerateRegressor(NumericalError):
    """Regressor has (numerically) zero second moment."""


class Separation(NumericalError):
    """Logistic likelihood has no finite maximizer."""


class PropensityDegenerate(NumericalError):
    """Propensity model collapsed; weights are unusable."""


class SingularCalibration(NumericalError):
    """Calibration matrix sigma_ext + gram could not be inverted."""


class SingularGram(NumericalError):
    """Influence second-moment matrix could not be inverted."""


class NotPositiveDefinite(NumericalError):
    """Matrix required to be positive definite is not."""


class ZeroStandardError(NumericalError):
    """Standard error of zero makes the requested test undefined."""


class NoConvergence(NumericalError):
    """Iterative solver exhausted its iteration budget (lasso path knots)."""


class IoError(DataFuseError):
    """Filesystem operation failed while reading or writing results."""

    exit_code = 2
