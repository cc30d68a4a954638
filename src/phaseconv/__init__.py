"""Phase-asymmetry interconversion numerics: U(1) and Z_d estimation pipelines.

Library layout:

- `distributions`: integer-supported probability vectors, convolution powers,
  characteristic functions.
- `u1`: misalignment posterior, pure-target fidelities, figures of merit,
  yield-schedule analysis.
- `mixed`: typical-type-class decomposition, certified mixed-target bounds,
  Uhlmann-fidelity oracles.
- `zd`: exact cyclic-group protocol with geometric convergence.
- `cli`: the `phaseconv` sweep runner.
"""

__version__ = "0.1.0"

from .distributions import (
    GaussianModel,
    IntDistribution,
    amp_char_fn,
    amp_char_grid,
    char_fn,
    convolve,
    gaussian_pmf,
    l1_distance,
    moments,
    power_convolve,
    power_support_bound,
)
from .errors import (
    CombinatorialBlowupError,
    ConfigValidationError,
    GappedSpectrumError,
    NegativeOffsetError,
    PhaseconvError,
    PrecisionLossError,
    ResourceCapError,
    SupportTooNarrowError,
    ZeroVarianceError,
)
from .mixed import (
    DensityMatrix,
    MixedTarget,
    TypeClass,
    TypicalDecomposition,
    epsilon_schedule,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    figure_of_merit_mixed_bound,
    typeclass_gaussian,
    typical_decomposition,
    uhlmann_fidelity,
)
from .u1 import (
    NumberState,
    PosteriorSpec,
    RateReport,
    RateSchedule,
    ensure_fft_cap,
    fidelity_pure_exact,
    fidelity_pure_gauss,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    figure_of_merit_quadrature,
    posterior_density_exact,
    posterior_density_gauss,
    posterior_density_grid,
    posterior_gauss_distance,
    rate_analysis,
    sample_gamma,
    standardize,
    wrap_angle,
)
from .zd import (
    CyclicCoeffs,
    CyclicState,
    brute_force_coeffs,
    canonical_coeffs,
    contraction_rate,
    deviation_distribution,
    measure_eta_basis,
    outcome_distribution,
    phase_shifted,
    representative_state,
    success_probability,
    success_slope_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
