"""Exception types shared across the package."""


class PhaseconvError(Exception):
    """Base class for all package-specific errors."""


class PrecisionLossError(PhaseconvError):
    """FFT round-off pushed total probability mass outside the accepted budget."""


class ResourceCapError(PhaseconvError):
    """A size estimate exceeds its cap: a convolution power's support or a type-class count."""


class ConfigValidationError(PhaseconvError, ValueError):
    """Sweep configuration failed validation.

    Carries the full list of problems, not just the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
