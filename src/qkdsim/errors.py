"""Exception types shared by all qkdsim modules."""


class QkdError(Exception):
    """Base class for every error raised by this package."""


class ZeroVector(QkdError):
    """A state vector was constructed from (numerically) all-zero amplitudes."""


class DimensionMismatch(QkdError):
    """Operands live in different spaces (2- vs 4-dimensional)."""


class NotUnitary(QkdError):
    """A matrix or interaction fails the unitarity check."""


class NotHermitian(QkdError):
    """A matrix offered as an observable is not self-adjoint."""


class BadBasis(QkdError):
    """A measurement basis pair is not orthonormal."""


class ThetaOutOfRange(QkdError):
    """A code-state angle lies outside the open interval (0, pi/4)."""


class StateNotInAlphabet(QkdError):
    """An interaction defined only on code states received some other state."""


class EmptySiftedKey(QkdError):
    """Sifting left no usable slots."""


class RestartRequired(QkdError):
    """Error estimation exceeded the abort threshold; carries the measured rate."""

    def __init__(self, rate):
        super().__init__(f"estimated error rate {rate:.6f} exceeds the configured maximum")
        self.rate = rate


class KeyExhausted(QkdError):
    """Privacy amplification would produce an empty key (n - k - s < 1)."""


class LengthMismatch(QkdError):
    """Two bit sequences that must be equally long are not."""
