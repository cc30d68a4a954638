"""Exact interconversion over the cyclic group Z_d.

For a finite phase group the whole pipeline collapses to length-d vectors:
N-copy coefficients are cyclic convolution powers (diagonalized by the DFT),
the covariant measurement is the Fourier (eta) basis, and the success
probability of recovering the group element converges to 1 geometrically with
per-copy rate given by the subdominant DFT magnitude of the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SUM_TOL = 1e-12
# entries (rows x d) per `deviation_laws` call over a grid; a call holds ~5 such arrays
_LAW_BLOCK = 1 << 20


@dataclass(frozen=True)
class CyclicCoeffs:
    """Probability vector over Z_d (d = len(probs) >= 2)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64).copy()
        if p.ndim != 1 or p.size < 2:
            raise ValueError(f"need a 1-D vector over Z_d with d >= 2, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def d(self) -> int:
        return self.probs.size


def contraction_rate(source: CyclicCoeffs) -> float:
    """Per-copy rate epsilon = max over k != 0 of |DFT(p)_k|, in [0, 1].

    Strictly below 1 exactly when the support of p is not contained in a coset
    of a proper subgroup; epsilon = 1 (no convergence, e.g. a point mass) is
    returned rather than rejected, since the geometric-convergence hypothesis
    fails there.
    """
    mags = np.abs(np.fft.fft(source.probs))
    return float(min(mags[1:].max(), 1.0))


def deviation_laws(source: CyclicCoeffs, n_grid) -> np.ndarray:
    """Pr(deviation r = (true - guess) mod d) of the N-copy protocol, one row per N.

    With e the inverse DFT of phi^N with its DC mode zeroed (e = c - 1/d) and
    g = sqrt(c) - 1/sqrt(d) = e / (sqrt(1/d + e) + 1/sqrt(d)), entry r != 0 is
    |DFT(g)_r|^2 / d and entry 0, the success probability, is
    (1 + sum(g) / sqrt(d))^2.  No entry subtracts from 1, so the wrong
    outcomes keep their digits long after c is uniform to round-off.
    """
    for n in n_grid:
        if n < 1:
            raise ValueError(f"n_copies must be >= 1, got {n}")
    phi = np.fft.fft(source.probs)
    phi[0] = 0.0  # before the power: a DC entry that rounds above 1 overflows at large N
    # float exponents: an N beyond int64 would make an object array
    d, e = source.d, np.fft.ifft(phi ** np.array([float(n) for n in n_grid])[:, None]).real
    g = e / (np.sqrt(np.maximum(1.0 / d + e, 0.0)) + 1.0 / math.sqrt(d))
    amps = np.fft.fft(g)
    laws = (amps.real**2 + amps.imag**2) / d
    laws[:, 0] = (1.0 + g.sum(axis=1) / math.sqrt(d)) ** 2
    return laws


def block_rows(source: CyclicCoeffs) -> int:
    """Grid points per `deviation_laws` call, so that memory does not grow with the grid."""
    return max(1, _LAW_BLOCK // source.d)


def success_probability(source: CyclicCoeffs, n_copies: int) -> float:
    """Pr(m|m) for the N-copy protocol: (sum_n sqrt(c_n))^2 / d, independent of m."""
    return float(deviation_laws(source, [n_copies])[0, 0])


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of ln Pr(wrong) against N, with the predicted slope 2 ln epsilon."""

    slope: float
    intercept: float
    slope_theory: float
    n_grid: tuple[int, ...]


def success_slope_fit(source: CyclicCoeffs, n_grid) -> SlopeFit:
    """Fit the geometric convergence rate of the failure probability.

    The wrong-guess mass is the sum of the nonzero deviations of
    `deviation_laws`, which keeps its digits below round-off.  The intercept
    is the measured prefactor the asymptotic bound leaves unstated.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2:
        raise ValueError("need at least two N values to fit a slope")
    rows = block_rows(source)
    laws = (deviation_laws(source, n_grid[i: i + rows]) for i in range(0, len(n_grid), rows))
    wrong = np.concatenate([law[:, 1:].sum(axis=1) for law in laws])
    return slope_fit(n_grid, wrong, contraction_rate(source))


def slope_fit(n_grid, wrong, epsilon: float) -> SlopeFit:
    """Least-squares line through (N, ln wrong) for the wrong-outcome masses of ``n_grid``."""
    if np.min(wrong) <= 0.0:
        raise ValueError("wrong-outcome mass vanished on the grid; nothing to fit")
    slope, intercept = np.polyfit(np.array(n_grid, dtype=np.float64), np.log(wrong), 1)
    theory = 2.0 * math.log(epsilon) if epsilon > 0 else -math.inf
    return SlopeFit(float(slope), float(intercept), theory, tuple(n_grid))
