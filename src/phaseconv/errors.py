"""Exception types shared across the package."""


class PhaseconvError(Exception):
    """Base class for all package-specific errors."""


class PrecisionLossError(PhaseconvError):
    """FFT round-off pushed total probability mass outside the accepted budget."""


class GappedSpectrumError(PhaseconvError, ValueError):
    """Number spectrum has an interior zero, so it is not gapless."""


class NegativeOffsetError(PhaseconvError, ValueError):
    """Number spectrum extends below zero."""


class ZeroVarianceError(PhaseconvError, ValueError):
    """Operation needs a strictly positive spectral variance."""


class CombinatorialBlowupError(PhaseconvError):
    """Type-class enumeration would exceed the configured class cap."""


class ResourceCapError(PhaseconvError):
    """A size estimate (FFT length, embedding dimension, ...) exceeds its cap."""


class ConfigValidationError(PhaseconvError, ValueError):
    """Sweep configuration failed validation.

    Carries the full list of problems, not just the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
