"""Phase-asymmetry interconversion numerics: U(1) and Z_d estimation pipelines.

Library layout:

- `distributions`: integer-supported probability vectors, convolution powers,
  characteristic functions and the ln|phi|^2 kernel `log_char_sq`.
- `u1`: misalignment posterior, pure-target fidelities, figures of merit,
  yield schedules M(N) and their convergence verdict.
- `mixed`: typical-type-class decomposition, mixed-target lower bounds, and
  the labelled mixture's closed-form fidelity, a lower bound on the true one.
- `zd`: exact cyclic-group protocol: the N-copy deviation law `deviation_laws`
  and the geometric convergence rate.
- `cli`: the `phaseconv` sweep runner.

The slow independent oracles that check these (direct convolution, dense
phase sums, Uhlmann fidelity, brute-force enumeration, and the Z_d state
model with its eta-basis measurement) live with the tests.
"""

__version__ = "0.1.0"

from .distributions import (
    IntDistribution,
    amp_char_fn,
    amp_char_grid,
    char_fn,
    moments,
    power_convolve,
    power_support_bound,
)
from .errors import (
    ConfigValidationError,
    PhaseconvError,
    PrecisionLossError,
    ResourceCapError,
)
from .mixed import (
    MixedTarget,
    TypicalDecomposition,
    epsilon_schedule,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    figure_of_merit_mixed_bound,
    typical_decomposition,
)
from .u1 import (
    NumberState,
    PosteriorSpec,
    RateSchedule,
    fidelity_pure_exact,
    fidelity_pure_gauss,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    posterior_density_gauss,
    posterior_density_grid,
    posterior_gauss_distance,
    rate_verdict,
    sample_gamma,
)
from .zd import (
    CyclicCoeffs,
    contraction_rate,
    deviation_laws,
    success_probability,
    success_slope_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
