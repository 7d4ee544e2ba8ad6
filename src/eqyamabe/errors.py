"""Exception hierarchy shared by all modules.

Three broad families matter for the CLI exit-code mapping: usage errors
(bad arguments, malformed model files), numerical failures (quadrature or
solver did not reach its tolerance), and regime mismatches (an operation
was asked for on a model whose topology puts it in a different regime).
"""

from __future__ import annotations


class EqYamabeError(Exception):
    """Base class for all library errors."""


# --- usage / input errors (CLI exit code 2) ---------------------------------

class UsageError(EqYamabeError):
    """Invalid arguments or unparseable input."""


class NotCoprime(UsageError):
    """Weight pair (m1, m2) must be coprime positive integers."""


class ModelParseError(UsageError):
    """Model file failed validation; message carries the offending field path."""


class InvalidBracket(UsageError):
    """Scalar minimization bracket has lo >= hi."""


# --- numerical failures (CLI exit code 3) -----------------------------------

class NumericalError(EqYamabeError):
    """A numerical routine failed to meet its contract."""


class NonFinite(NumericalError):
    """Integrand returned NaN or infinity inside the evaluation region."""


class NoConvergence(NumericalError):
    """Refinement budget exhausted without meeting the tolerance."""


class LimitNotConverged(NumericalError):
    """One-sided limit extrapolation disagrees across scales."""


class DomainError(NumericalError):
    """Evaluation point is outside the function's domain (e.g. at a cone pole)."""


class NotMeanZero(NumericalError):
    """Poisson problem data has nonzero mean, so no solution exists."""


class InconsistentRoutes(NumericalError):
    """Two independent evaluation routes disagree beyond tolerance."""


class DegenerateData(NumericalError):
    """Not enough usable rows to fit (fewer than 4, or no spread)."""


class NonPositiveFactor(NumericalError):
    """Conformal factor must be strictly positive."""


# --- regime mismatches (CLI exit code 4) -------------------------------------

class CaseMismatchError(EqYamabeError):
    """Operation requested on a model in the wrong topological regime."""


class NonpositiveChi(CaseMismatchError):
    """Orbifold Euler characteristic is <= 0 where > 0 is required."""


class PositiveChi(CaseMismatchError):
    """Orbifold Euler characteristic is > 0 where <= 0 is required."""


class UnboundedInEll(CaseMismatchError):
    """Flat bundle over a positive-chi base: no finite fiber-length optimum."""


class InvalidCase(CaseMismatchError):
    """Inputs do not match any supported regime."""
