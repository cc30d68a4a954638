"""Phase-misalignment estimation and pure-state preparation over U(1).

The pipeline: a source state described by its number spectrum is consumed in
N copies by a covariant phase measurement, producing a posterior over the
misalignment angle gamma; the estimate is then used to prepare M copies of a
target state, and the quality of the conversion is the posterior-averaged
fidelity between prepared and true targets (the interconversion figure of
merit).

Everything here is exact up to floating point: posteriors and fidelities are
finite trigonometric polynomials, so the figure of merit is an inner product
of autocorrelation sequences.  The closed-form large-N/large-M expression is kept as a
prediction to compare against, never as the computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (
    IntDistribution,
    amp_char_grid,
    log_char_sq,
    moments,
    power_convolve,
)

TWO_PI = 2.0 * math.pi

# A rate schedule "converges" when the exact figure of merit increases along
# the grid and ends above this (artifact choice, configurable per call).
CONVERGENCE_THRESHOLD = 0.95


@dataclass(frozen=True)
class NumberState:
    """Standard-form pure state: nonnegative amplitudes sqrt(p_n) over numbers n.

    The spectrum must sit at nonnegative numbers and be gapless (no interior
    zeros).
    """

    spectrum: IntDistribution

    def __post_init__(self):
        if self.spectrum.offset < 0:
            raise ValueError(
                f"number spectrum must start at n >= 0, got offset {self.spectrum.offset}"
            )
        if np.any(self.spectrum.probs == 0):
            raise ValueError("number spectrum has interior zeros")

    @cached_property  # computed on first read; the frozen fields never change it
    def mean(self) -> float:
        return moments(self.spectrum)[0]

    @cached_property
    def variance(self) -> float:
        return moments(self.spectrum)[1]

    @property
    def asymmetry_free(self) -> bool:
        """True when the spectrum is a point mass, i.e. carries no phase information."""
        return len(self.spectrum) == 1


@dataclass(frozen=True)
class PosteriorSpec:
    """The estimation stage's output: the misalignment posterior of an N-copy source.

    ``ncopy_spectrum`` is the exact N-copy number distribution and
    ``variance`` its variance N sigma^2, 0 for an asymmetry-free source.
    """

    ncopy_spectrum: IntDistribution
    variance: float

    @classmethod
    def for_copies(cls, source: NumberState, n_copies: int) -> "PosteriorSpec":
        return cls(power_convolve(source.spectrum, n_copies), n_copies * source.variance)


def posterior_density_grid(spec: PosteriorSpec, grid_points: int, *, midpoint: bool) -> np.ndarray:
    """Exact misalignment posterior density (per radian) on the grid -pi + 2 pi (j + s) / G.

    The density is the Born probability of the covariant measurement seeded
    by the uniform-amplitude vector, |Sum_n sqrt(P_n) e^{i n gamma}|^2 / (2 pi),
    and integrates to exactly 1 over (-pi, pi].  ``s`` is 1/2 with ``midpoint``
    and 0 without, j = 0 .. G-1; one FFT of the folded amplitudes
    (`amp_char_grid`) evaluates it at every grid point.
    """
    amp = amp_char_grid(spec.ncopy_spectrum, grid_points, midpoint=midpoint)
    return (amp.real**2 + amp.imag**2) / TWO_PI


def posterior_density_gauss(spec: PosteriorSpec, gamma):
    """Gaussian-model posterior density sqrt(2 V / pi) exp(-2 V gamma^2), V = N sigma^2."""
    if not spec.variance > 0:
        raise ValueError("asymmetry-free source: Gaussian posterior model undefined")
    v = spec.variance
    gamma = np.asarray(gamma, dtype=np.float64)
    out = math.sqrt(2.0 * v / math.pi) * np.exp(-2.0 * v * gamma * gamma)
    return float(out) if out.ndim == 0 else out


def sampling_points(support: int) -> int:
    """Points of `sample_gamma`'s CDF grid for an N-copy spectrum of ``support`` points."""
    return max(4096, 4 * support)


def sample_gamma(spec: PosteriorSpec, rng_seed, size: int | None = None):
    """Draw misalignment angles from the exact posterior; deterministic per seed.

    Inverts the exact posterior CDF on a uniform grid of max(4096, 4 * support
    length) points.  ``rng_seed`` may be an integer seed or a numpy Generator.
    Returns a scalar when ``size`` is None, else an array of that length.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    count = 1 if size is None else int(size)
    points = sampling_points(len(spec.ncopy_spectrum))
    edges = np.linspace(-math.pi, math.pi, points + 1)
    # the density is 2 pi-periodic: the edge at +pi repeats the one at -pi
    density = posterior_density_grid(spec, points, midpoint=False)
    density = np.append(density, density[0])
    # trapezoid CDF on the edge grid; the density is smooth and periodic
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) * 0.5 * np.diff(edges))))
    draws = np.interp(rng.random(count), cdf / cdf[-1], edges)
    return float(draws[0]) if size is None else draws


def fidelity_pure_exact(target: NumberState, m_copies: int, gamma):
    """Exact M-copy overlap fidelity |Sum_n Q_n e^{i n gamma}|^2 at misalignment gamma.

    The M-copy characteristic function is the single-copy one to the M-th power,
    so the fidelity is exp(M ln|phi_Q|^2) (`log_char_sq`); no convolution power is built.
    """
    if m_copies < 1:
        raise ValueError(f"m_copies must be >= 1, got {m_copies}")
    out = np.exp(m_copies * log_char_sq([target.spectrum], gamma)[0])
    return float(out) if out.ndim == 0 else out


def fidelity_pure_gauss(sigma_sq: float, m_copies: int, gamma):
    """Gaussian-model fidelity exp(-M sigma^2 gamma^2)."""
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    gamma = np.asarray(gamma, dtype=np.float64)
    out = np.exp(-m_copies * sigma_sq * gamma * gamma)
    return float(out) if out.ndim == 0 else out


def autocorrelation_size(length: int, lags: int) -> int:
    """Cyclic FFT length for a ``length``-point sequence that wraps no pair into ``lags`` lags."""
    return 1 << (length + lags - 2).bit_length()


def _autocorrelation(x: np.ndarray, lags: int) -> np.ndarray:
    """a[k] = Sum_n x_n x_{n+k} for k < lags, by a cyclic FFT of `autocorrelation_size`."""
    size = autocorrelation_size(x.size, lags)
    spectrum = np.fft.rfft(x, size)
    return np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[:lags]


def figure_of_merit_exact(posterior: PosteriorSpec, target: NumberState, m_copies: int) -> float:
    """Posterior-averaged exact fidelity of M target copies prepared from the estimate.

    Both factors of the integrand are trigonometric polynomials, so the
    average over gamma collapses to Sum_k A_k B_k with A the autocorrelation
    of the N-copy amplitude sequence and B the autocorrelation of the M-copy
    probability sequence.  No quadrature is involved.
    """
    ncopy_src = posterior.ncopy_spectrum
    ncopy_tgt = power_convolve(target.spectrum, m_copies)
    lags = min(len(ncopy_src), len(ncopy_tgt))
    a = _autocorrelation(np.sqrt(ncopy_src.probs), lags)
    b = _autocorrelation(ncopy_tgt.probs, lags)
    return float(a[0] * b[0] + 2.0 * (a[1:] @ b[1:]))


def figure_of_merit_closed(
    sigma_phi_sq: float, n_copies: int, sigma_psi_sq: float, m_copies: int
) -> float:
    """Closed-form large-N/large-M figure of merit 1/sqrt(1 + M s_psi^2 / (2 N s_phi^2))."""
    if sigma_phi_sq <= 0:
        raise ValueError(f"source variance must be positive, got {sigma_phi_sq}")
    return 1.0 / math.sqrt(1.0 + (m_copies * sigma_psi_sq) / (2.0 * n_copies * sigma_phi_sq))


def figure_of_merit_mc(
    posterior: PosteriorSpec, target: NumberState, m_copies: int, draws: int, rng_seed
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the figure of merit.

    Samples misalignments from the posterior and averages the exact fidelity;
    cross-validates the autocorrelation route.  Deterministic given the seed.
    """
    if draws < 100:
        raise ValueError(f"draws must be >= 100, got {draws}")
    gamma = sample_gamma(posterior, rng_seed, size=draws)
    values = fidelity_pure_exact(target, m_copies, gamma)
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(draws))
    return estimate, stderr


def posterior_gauss_distance(spec: PosteriorSpec, grid_points: int = 8192) -> float:
    """Total-variation distance between the exact posterior and its Gaussian model.

    Computed as 0.5 * integral of |exact - gauss| over (-pi, pi] on a uniform
    grid.  The Gaussian model is the unwrapped density; its mass outside the
    principal interval is negligible at the N where the model is meaningful.
    """
    gamma = -math.pi + TWO_PI * (np.arange(grid_points) + 0.5) / grid_points
    exact = posterior_density_grid(spec, grid_points, midpoint=True)
    diff = np.abs(exact - posterior_density_gauss(spec, gamma))
    return float(0.5 * diff.sum() * TWO_PI / grid_points)


@dataclass(frozen=True)
class RateSchedule:
    """Yield schedule M(N): either M = ceil(N^a) ("power") or M = ceil(c N) ("linear")."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("power", "linear"):
            raise ValueError(f"kind must be 'power' or 'linear', got {self.kind!r}")
        if self.kind == "power" and not (0 < self.value <= 1):
            raise ValueError(f"power exponent must lie in (0, 1], got {self.value}")
        if self.kind == "linear" and self.value <= 0:
            raise ValueError(f"linear slope must be positive, got {self.value}")

    def m_for(self, n: int) -> int:
        raw = n**self.value if self.kind == "power" else self.value * n
        # float pow round-off can land just above an integer (e.g. 400**0.5);
        # snap before taking the ceiling
        nearest = round(raw)
        if abs(raw - nearest) <= 1e-9 * max(1.0, abs(nearest)):
            return max(1, int(nearest))
        return max(1, math.ceil(raw))

    @property
    def label(self) -> str:
        if self.kind == "power":
            return f"M=ceil(N^{self.value:g})"
        return f"M=ceil({self.value:g}*N)"


def rate_verdict(f_exact, threshold: float = CONVERGENCE_THRESHOLD) -> str:
    """Convergence verdict on exact figures of merit along a yield schedule.

    "converges" when they increase strictly and the last one exceeds
    ``threshold``, "plateaus" otherwise.
    """
    increasing = all(b > a for a, b in zip(f_exact, f_exact[1:]))
    return "converges" if increasing and f_exact[-1] > threshold else "plateaus"

