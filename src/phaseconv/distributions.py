"""Arithmetic on probability distributions with contiguous integer support.

These distributions carry the number spectra of the whole package: single-copy
spectra and their N-copy convolution powers share one representation, a mass
vector plus an absolute integer offset.  Storing the offset keeps convolutions
of shifted spectra exact.

An `IntDistribution` is a value: its offset and mass vector never change
after construction, and every operation returns the same bits for the same
inputs.  `power_convolve` takes one inverse real FFT of phi^N on a window
inside the true support that a Bernstein tail bound sizes, trims once, at
the end, and at the default trim threshold transforms no more than twice
`power_support_bound` points, rounded up to a power of two.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionLossError

# Leading/trailing masses strictly below this are dropped to keep FFT sizes
# small; every trimming entry point takes it as an argument.
TRIM_THRESHOLD = 1e-15

# Total-mass drift budgets for FFT convolution powers: below WARN the mass is
# renormalized silently, between WARN and FAIL a warning is emitted, above
# FAIL the computation is rejected.
MASS_WARN = 1e-10
MASS_FAIL = 1e-6

_MASS_TOL = 1e-12

# Below this |phi|^2 `log_char_sq` takes the dense phase sum.  The log1p form's
# error is absolute, about eps, so at |phi|^2 = t its relative error in
# F = |phi|^(2M) is about M eps / t: 1e-11 at M <= 4 needs t >= about 2^-13.
# Lower is faster (fewer dense angles): 3.5-3.6 ms at 2^-7 against 3.3-3.4 ms
# for the benchmark's exact-rank2 sweep (2-CPU Xeon VM, median of 40 runs).
_DENSE_BELOW = 2.0**-13


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


def _fft_length(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


def _log_centred(probs: np.ndarray, scaled: int, theta: np.ndarray) -> np.ndarray:
    """log of Sum_k p_k exp(-i (k - c) theta) with c = scaled / 2^20, chunked over theta.

    k - c is exact; 1 + Re + i Im with Re = -2 Sum_k p_k sin^2(u_k / 2) and
    Im = Sum_k p_k (u_k - sin u_k) - (mean - c) theta, u_k = (k - c) theta,
    cancels no term, so the logarithm keeps its relative precision as theta -> 0.
    """
    ratios = [q.as_integer_ratio() for q in probs.tolist()]
    den = max(d for _, d in ratios)  # a power of two; the int division rounds once
    excess = sum(a * (den // d) * (i * 2**20 - scaled) for i, (a, d) in enumerate(ratios)) / (den << 20)
    positions = np.arange(probs.size) - scaled / 2**20
    out = np.empty(theta.size, dtype=np.complex128)
    chunk = max(1, 4_000_000 // probs.size)
    for lo in range(0, theta.size, chunk):
        t = theta[lo : lo + chunk]
        u = np.outer(t, positions)
        u2 = u * u
        series = 1.0  # (u - sin u) / (u^3 / 6), Taylor to u^19
        for d in (342, 272, 210, 156, 110, 72, 42, 20):
            series = 1.0 - u2 / d * series
        re = -2.0 * (np.sin(0.5 * u) ** 2 @ probs)
        im = np.where(np.abs(u) < 1.0, u * u2 / 6.0 * series, u - np.sin(u)) @ probs - excess * t
        out[lo : lo + t.size] = 0.5 * np.log1p(re * (2.0 + re) + im * im) + 1j * np.arctan2(im, 1.0 + re)
    return out


def power_convolve(
    p: IntDistribution,
    n_copies: int,
    *,
    trim_threshold: float = TRIM_THRESHOLD,
    mass_warn: float = MASS_WARN,
    mass_fail: float = MASS_FAIL,
) -> IntDistribution:
    """N-fold convolution power of ``p`` (sum of ``n_copies`` independent draws).

    One inverse real FFT of phi^N, the N-th power of the characteristic
    function, gives the masses on a window of L positions inside the true
    support (or covering it).  Bernstein's inequality sizes the window so that
    the mass outside it, which the transform folds in, is at most
    ``trim_threshold`` * 1e-15 on each side; frequencies where |phi|^N is below
    that stay zero.  L is a power of two, at the default threshold no longer
    than ``2 * power_support_bound`` rounded up likewise.  phi^N is exp(N log
    phi), the logarithm centred next to the mean so that its error does not
    grow with N.  The result is clamped at zero and trimmed once; its mass
    drift is renormalized silently below ``mass_warn``, renormalized with a
    warning up to ``mass_fail``, and rejected beyond that.
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    if n_copies == 1 or p.probs.size == 1:
        return p if n_copies == 1 else IntDistribution.delta(p.offset * n_copies)

    n = operator.index(n_copies)
    # on a sublattice |phi| returns to 1 away from 0: work on the lattice's own steps
    step = int(np.gcd.reduce(np.flatnonzero(p.probs)))
    probs = p.probs[::step]
    span, k = probs.size - 1, np.arange(probs.size)
    mean = float(k @ probs)
    full = n * span + 1
    tail = trim_threshold * 1e-15
    size, start = _fft_length(full), 0
    if tail > 0:
        # Bernstein: mass beyond n * mean +/- t is at most exp(-ell) on each side
        ell = -math.log(tail)
        b = max(mean, span - mean) * ell / 3.0
        t = b + math.sqrt(b * b + 2.0 * ell * n * float((k - mean) ** 2 @ probs))
        size = min(size, _fft_length(2 * math.ceil(t) + 4))
        start = min(max(round(n * mean) - size // 2, 0), max(full - size, 0))
    j = np.flatnonzero(np.abs(np.fft.rfft(probs, size)) > tail ** (1.0 / n))
    # phi^n = exp(-i theta n c) (Sum_k p_k exp(-i (k - c) theta))^n; n c = whole + frac exactly
    scaled = round(mean * 2**20)
    whole, frac = divmod(n * scaled, 2**20)
    theta = (2.0 * math.pi / size) * j
    shift = theta * (frac / 2**20) + (2.0 * math.pi / size) * ((whole - start) % size * j % size)
    spectrum = np.zeros(size // 2 + 1, dtype=np.complex128)
    spectrum[j] = np.exp(n * _log_centred(probs, scaled, theta) - 1j * shift)
    lo, acc = _trim(start, np.clip(np.fft.irfft(spectrum, size), 0.0, None), trim_threshold)

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
    spread = np.zeros(step * (acc.size - 1) + 1)
    spread[::step] = acc / total
    return IntDistribution(p.offset * n + step * lo, spread)


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


def _phase_sum(weights: np.ndarray, offset: int, gamma):
    """Sum_j w_j exp(i (offset + j) gamma) for scalar or array gamma, chunked over gamma.

    The sum runs over the local positions j and the offset enters as one
    unit-modulus factor, so moduli keep their digits at large offsets.
    """
    positions = np.arange(weights.size)
    gamma_arr = np.asarray(gamma, dtype=np.float64)
    flat = gamma_arr.reshape(-1)
    out = np.empty(flat.size, dtype=np.complex128)
    chunk = max(1, 4_000_000 // positions.size)
    for start in range(0, flat.size, chunk):
        block = flat[start : start + chunk]
        out[start : start + block.size] = np.exp(1j * np.outer(block, positions)) @ weights
    out = (out * np.exp(1j * offset * flat)).reshape(gamma_arr.shape)
    return complex(out) if out.ndim == 0 else out


def char_fn(p: IntDistribution, gamma):
    """Characteristic function Sum_n p_n exp(i n gamma) at absolute positions n.

    2*pi-periodic in gamma; equals 1 at gamma = 0 and has modulus <= 1.
    Accepts a scalar or an array of angles.
    """
    return _phase_sum(p.probs, p.offset, gamma)


def amp_char_fn(p: IntDistribution, gamma):
    """Amplitude-weighted phase sum Sum_n sqrt(p_n) exp(i n gamma)."""
    return _phase_sum(np.sqrt(p.probs), p.offset, gamma)


def log_char_sq(spectra, gamma) -> np.ndarray:
    """ln|phi_j(gamma)|^2 for each spectrum p_j, shape ``(len(spectra),) + np.shape(gamma)``.

    log1p((S - 1)(S + 1) - 4 sum_d c_d sin^2(d gamma / 2)), with S - 1 = fsum(p) - 1
    rounded once and c_d = sum_n p_n p_{n+d}: relative precision as gamma -> 0.
    Where that puts |phi|^2 in (0, `_DENSE_BELOW`) the dense phase sum replaces
    it, and where at or below 0 the result is -inf.  Offsets do not enter.
    """
    flat = np.asarray(gamma, dtype=np.float64).reshape(-1)
    width = max(len(p) for p in spectra)
    lags, excess = np.zeros((len(spectra), width - 1)), np.empty((len(spectra), 1))
    for j, p in enumerate(spectra):
        lags[j, : len(p) - 1] = -4.0 * np.correlate(p.probs, p.probs, "full")[len(p) :]
        excess[j] = math.fsum(p.probs.tolist() + [-1.0])
    dev = np.empty((len(spectra), flat.size))
    chunk = max(1, (1 << 18) // width)  # temporaries near 2 MB
    for lo in range(0, flat.size, chunk):
        # einsum's own loops, no BLAS
        sines = np.sin(np.multiply.outer(0.5 * np.arange(1.0, width), flat[lo : lo + chunk])) ** 2
        dev[:, lo : lo + chunk] = excess * (2.0 + excess) + np.einsum("jd,dg->jg", lags, sines)
    positive = dev > -1.0
    logs = np.log1p(dev, out=np.full(dev.shape, -np.inf), where=positive)
    low = positive & (dev < _DENSE_BELOW - 1.0)
    for j in np.flatnonzero(low.any(axis=1)):
        near = np.flatnonzero(low[j])
        amp = _phase_sum(spectra[j].probs, 0, flat[near])
        with np.errstate(divide="ignore"):
            logs[j, near] = np.log(amp.real**2 + amp.imag**2)
    return logs.reshape((len(spectra),) + np.shape(gamma))


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
