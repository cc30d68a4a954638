"""Arithmetic on probability distributions with contiguous integer support.

These distributions carry the number spectra of the whole package: single-copy
spectra, their N-copy convolution powers, discretized Gaussian references, and
the cyclic coefficient vectors all live in the same representation, a mass
vector plus an absolute integer offset.  Storing the offset keeps convolutions
of shifted spectra exact.

All operations are pure; `IntDistribution` values are immutable after
construction and safe to share between worker processes.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionLossError, SupportTooNarrowError

# Leading/trailing masses strictly below this are dropped to keep FFT sizes
# small; every trimming entry point takes it as an argument.
TRIM_THRESHOLD = 1e-15

# Total-mass drift budgets for FFT convolution powers: below WARN the mass is
# renormalized silently, between WARN and FAIL a warning is emitted, above
# FAIL the computation is rejected.
MASS_WARN = 1e-10
MASS_FAIL = 1e-6

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class IntDistribution:
    """PMF on a contiguous integer range starting at ``offset``.

    ``probs[i]`` is the mass at integer ``offset + i``.  The mass vector must
    be nonnegative, sum to 1 within 1e-12, and have nonzero first and last
    entries (interior zeros are allowed; gaplessness is a property of number
    states, not of raw distributions).
    """

    offset: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if np.any(probs < 0):
            raise ValueError("probs must be nonnegative")
        if probs[0] == 0 or probs[-1] == 0:
            raise ValueError("support must be trimmed: first/last mass is zero")
        total = probs.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass {total!r} deviates from 1 by more than {_MASS_TOL}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "offset", int(self.offset))

    @classmethod
    def delta(cls, n: int) -> "IntDistribution":
        """Point mass at integer ``n``."""
        return cls(n, np.array([1.0]))

    @classmethod
    def from_raw(cls, offset: int, values, trim_threshold: float = TRIM_THRESHOLD) -> "IntDistribution":
        """Trim edge masses below ``trim_threshold`` and renormalize to 1."""
        offset, values = _trim(offset, np.asarray(values, dtype=np.float64), trim_threshold)
        return cls(offset, values / values.sum())

    def __len__(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        """Absolute integer positions carrying the mass vector."""
        return np.arange(self.offset, self.offset + self.probs.size)

    @property
    def span(self) -> int:
        """Width of the support: largest minus smallest support point."""
        return self.probs.size - 1


@dataclass(frozen=True)
class GaussianModel:
    """Mean/variance pair for a Gaussian reference distribution."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance}")


def _trim(offset: int, values: np.ndarray, threshold: float):
    keep = np.flatnonzero(values > threshold)
    if keep.size == 0:
        raise ValueError("all masses at or below the trim threshold")
    lo, hi = keep[0], keep[-1]
    return offset + int(lo), values[lo : hi + 1]


def convolve(a: IntDistribution, b: IntDistribution) -> IntDistribution:
    """Distribution of the sum of independent draws from ``a`` and ``b``.

    Direct (non-FFT) convolution; this is the reference the FFT-based
    convolution powers are checked against.
    """
    return IntDistribution.from_raw(a.offset + b.offset, np.convolve(a.probs, b.probs), 0.0)


def _fft_length(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out_len = a.size + b.size - 1
    size = _fft_length(out_len)
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:out_len]
    return np.clip(out, 0.0, None)


def power_convolve(
    p: IntDistribution,
    n_copies: int,
    *,
    trim_threshold: float = TRIM_THRESHOLD,
    mass_warn: float = MASS_WARN,
    mass_fail: float = MASS_FAIL,
) -> IntDistribution:
    """N-fold convolution power of ``p`` (sum of ``n_copies`` independent draws).

    Uses FFT convolution inside exponentiation by squaring; intermediate
    results are clamped at zero and trimmed at ``trim_threshold``.  The final
    mass drift is renormalized silently below ``mass_warn``, renormalized with
    a warning up to ``mass_fail``, and rejected beyond that.
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    if n_copies == 1 or p.probs.size == 1:
        if p.probs.size == 1:
            return IntDistribution.delta(p.offset * n_copies)
        return p

    acc = None
    acc_off = 0
    base = p.probs
    base_off = p.offset
    remaining = n_copies
    while remaining:
        if remaining & 1:
            if acc is None:
                acc, acc_off = base, base_off
            else:
                acc_off += base_off
                acc_off_delta, acc = _trim(0, _fft_convolve(acc, base), trim_threshold)
                acc_off += acc_off_delta
        remaining >>= 1
        if remaining:
            base_off_delta, base = _trim(0, _fft_convolve(base, base), trim_threshold)
            base_off = 2 * base_off + base_off_delta

    total = acc.sum()
    drift = abs(total - 1.0)
    if drift > mass_fail:
        raise PrecisionLossError(
            f"mass drift {drift:.3e} exceeds budget {mass_fail:.1e} for N={n_copies}"
        )
    if drift > mass_warn:
        warnings.warn(
            f"power_convolve mass drift {drift:.3e} above {mass_warn:.1e} for N={n_copies}; "
            "renormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    return IntDistribution(acc_off, acc / total)


def power_support_bound(p: IntDistribution, n_copies: int) -> int:
    """Upper bound on ``len(power_convolve(p, n_copies))`` at the default trim threshold.

    Hoeffding's inequality puts mass at most 2 exp(-2 t^2 / (N span^2)) at
    distance t or more from the mean, so every point whose mass exceeds
    `TRIM_THRESHOLD` lies within span * sqrt(N ln(2 / TRIM_THRESHOLD) / 2) of
    it.  Never larger than the untrimmed support N * span + 1.
    """
    width = p.span * math.sqrt(2.0 * n_copies * math.log(2.0 / TRIM_THRESHOLD))
    return min(n_copies * p.span, math.floor(width)) + 1


def moments(p: IntDistribution) -> tuple[float, float]:
    """Mean and central second moment of the PMF."""
    n = p.support
    mean = float(n @ p.probs)
    variance = float(((n - mean) ** 2) @ p.probs)
    return mean, variance


def gaussian_pmf(
    model: GaussianModel,
    support: tuple[int, int] | None = None,
    *,
    tail_tol: float = 1e-9,
    trim_threshold: float = TRIM_THRESHOLD,
) -> IntDistribution:
    """Gaussian density sampled on integer points and renormalized to mass 1.

    ``support`` is an inclusive integer range ``(lo, hi)``; it must cover
    mean +/- 8 standard deviations.  When omitted, a range covering 8.5
    standard deviations is used.  Raises `SupportTooNarrowError` when the
    Gaussian mass outside ``[lo - 0.5, hi + 0.5]`` exceeds ``tail_tol``.
    """
    sigma = math.sqrt(model.variance)
    if support is None:
        lo = math.floor(model.mean - 8.5 * sigma)
        hi = math.ceil(model.mean + 8.5 * sigma)
    else:
        lo, hi = int(support[0]), int(support[1])
        if lo > hi:
            raise ValueError(f"empty support ({lo}, {hi})")

    root2 = math.sqrt(2.0)
    tail = 0.5 * math.erfc((model.mean - (lo - 0.5)) / (sigma * root2))
    tail += 0.5 * math.erfc(((hi + 0.5) - model.mean) / (sigma * root2))
    if tail > tail_tol:
        raise SupportTooNarrowError(
            f"support ({lo}, {hi}) truncates mass {tail:.3e} > {tail_tol:.1e} "
            f"for mean={model.mean}, variance={model.variance}"
        )

    n = np.arange(lo, hi + 1, dtype=np.float64)
    values = np.exp(-((n - model.mean) ** 2) / (2.0 * model.variance))
    values /= math.sqrt(2.0 * math.pi * model.variance)
    return IntDistribution.from_raw(lo, values, trim_threshold)


def l1_distance(a: IntDistribution, b: IntDistribution) -> float:
    """Sum of |a_n - b_n| over the union of supports, aligned by absolute position."""
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a), b.offset + len(b))
    grid = np.zeros(hi - lo)
    grid[a.offset - lo : a.offset - lo + len(a)] = a.probs
    grid[b.offset - lo : b.offset - lo + len(b)] -= b.probs
    return float(np.abs(grid).sum())


def _phase_sum(weights: np.ndarray, offset: int, gamma):
    """Sum_j w_j exp(i (offset + j) gamma) for scalar or array gamma, chunked over gamma.

    The sum runs over the local positions j and the offset enters as one
    unit-modulus factor, so moduli keep their digits at large offsets.
    """
    positions = np.arange(weights.size)
    gamma_arr = np.asarray(gamma, dtype=np.float64)
    if gamma_arr.ndim == 0:
        g = float(gamma_arr)
        return complex(np.exp(1j * g * positions) @ weights) * cmath.exp(1j * offset * g)
    flat = gamma_arr.reshape(-1)
    out = np.empty(flat.size, dtype=np.complex128)
    chunk = max(1, 4_000_000 // positions.size)
    for start in range(0, flat.size, chunk):
        block = flat[start : start + chunk]
        out[start : start + block.size] = np.exp(1j * np.outer(block, positions)) @ weights
    return (out * np.exp(1j * offset * flat)).reshape(gamma_arr.shape)


def char_fn(p: IntDistribution, gamma):
    """Characteristic function Sum_n p_n exp(i n gamma) at absolute positions n.

    2*pi-periodic in gamma; equals 1 at gamma = 0 and has modulus <= 1.
    Accepts a scalar or an array of angles.
    """
    return _phase_sum(p.probs, p.offset, gamma)


def amp_char_fn(p: IntDistribution, gamma):
    """Amplitude-weighted phase sum Sum_n sqrt(p_n) exp(i n gamma)."""
    return _phase_sum(np.sqrt(p.probs), p.offset, gamma)


def amp_char_grid(p: IntDistribution, grid_points: int, *, midpoint: bool) -> np.ndarray:
    """`amp_char_fn` on the uniform grid gamma_j = -pi + 2 pi (j + s) / G, j = 0 .. G-1.

    ``s`` is 1/2 with ``midpoint`` (cell midpoints) and 0 without (cell
    edges).  Writing exp(i n gamma_j) = exp(i n theta0) exp(2 pi i n j / G)
    with theta0 = pi (2 s - G) / G, folding the phased amplitudes onto n mod G
    and taking one inverse FFT evaluates the trigonometric polynomial exactly
    at every grid point, for any G, including G below the support length.
    The phases n * theta0 are reduced as integers modulo 2 pi (n mod 2G), so
    they stay exact at large n.
    """
    g = int(grid_points)
    if g < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    n = p.support
    residue = (n % (2 * g)) * ((int(midpoint) - g) % (2 * g)) % (2 * g)
    phased = np.sqrt(p.probs) * np.exp(1j * (math.pi / g) * residue)
    fold = n % g
    folded = np.bincount(fold, phased.real, g) + 1j * np.bincount(fold, phased.imag, g)
    return np.fft.ifft(folded, norm="forward")
