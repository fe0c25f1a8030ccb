"""Exception hierarchy shared by all cfsgauge modules."""


class CfsGaugeError(Exception):
    """Base class for all errors raised by cfsgauge."""


class SingularGram(CfsGaugeError):
    """Gram matrix of an indefinite inner product space is not invertible."""


class OutOfConvergenceRadius(CfsGaugeError):
    """Operator is too far from the identity for the square-root series."""


class NotSymmetric(CfsGaugeError):
    """Operator is not symmetric with respect to the indefinite inner product."""


class NotRegular(CfsGaugeError):
    """Correlation operator does not have the expected rank and signature."""


class SignatureLost(CfsGaugeError):
    """Chart coordinates leave the domain where the signature is preserved."""


class TooFarFromBase(CfsGaugeError):
    """Operator is too far from the chart base point to invert the chart."""


class InvalidSignature(CfsGaugeError):
    """Requested signature is inconsistent with the ambient dimension."""


class NotInvertible(CfsGaugeError):
    """A matrix that must be inverted is singular to working tolerance."""


class OutOfChartDomain(CfsGaugeError):
    """Point lies outside the common domain of the wave charts."""


class EmptyCutoff(CfsGaugeError):
    """No momentum mode satisfies the energy cutoff."""


class TooFewModes(CfsGaugeError):
    """The mode ensemble is too small to produce regular points."""


class TooManyModes(CfsGaugeError):
    """The energy cutoff admits more sea modes than the configured bound."""


class DegenerateChain(CfsGaugeError):
    """Closed chain has coinciding eigenvalues; projectors are undefined."""


class BranchCut(CfsGaugeError):
    """Eigenvalue lies on the branch cut of the principal square root."""


class ConfigError(CfsGaugeError):
    """Experiment configuration is invalid."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message if not field else f"{field}: {message}")
        self.field = field


class TaskError(CfsGaugeError):
    """A single experiment task failed; other tasks may still run."""
