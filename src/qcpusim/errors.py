"""Exception and warning types shared across the package."""


class QcpuSimError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QcpuSimError):
    """Operands live on registers of different dimension."""


class NonSquareInput(QcpuSimError):
    """A square matrix was required."""


class IndexOutOfRange(QcpuSimError):
    """A basis index lies outside the register."""


class NonHermitianInput(QcpuSimError):
    """A Hermitian matrix was required."""


class ZeroVector(QcpuSimError):
    """A nonzero vector was required."""


class DegenerateGrid(QcpuSimError):
    """Grid too small for the requested finite-difference stencil."""


class NonPositiveMass(QcpuSimError):
    """Masses must be strictly positive."""


class NonPositiveFrequency(QcpuSimError):
    """Oscillator frequency must be strictly positive."""


class NonFiniteValue(QcpuSimError):
    """A sampled function, or an operator's scale or energies, produced NaN or Inf."""


class GridMismatch(QcpuSimError):
    """Per-point data (a table potential) does not match the grid size."""


class InvalidSpec(QcpuSimError):
    """A system or packet description is out of its valid range."""


class ResidualTimeError(QcpuSimError):
    """total_time is not an integer multiple of dt (no fractional steps)."""


class ConfigError(QcpuSimError):
    """A run configuration failed validation.

    `field` carries the dotted path of the offending entry so CLI
    diagnostics can point at it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class NumericalFailure(QcpuSimError):
    """NaN or Inf appeared in an evolving state."""


class PacketWidthWarning(UserWarning):
    """Gaussian packet too wide to fit comfortably inside the periodic box."""


class StabilityWarning(UserWarning):
    """Euler steps run at dt * ||H|| bound >= 1, where the norm may blow up."""
