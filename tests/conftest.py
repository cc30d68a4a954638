"""Shared helpers: random instances, slow independent oracles and a CPU-count fixture.

The library computes each quantity on one fast path; the oracles here compute
the same quantities the slow, direct way and exist only to check those paths.
"""
import itertools
import math
import os
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from phaseconv import (
    CyclicCoeffs,
    IntDistribution,
    MixedTarget,
    NumberState,
    PosteriorSpec,
    fidelity_pure_exact,
)
from phaseconv.distributions import TRIM_THRESHOLD, amp_char_fn, power_convolve
from phaseconv.u1 import TWO_PI
from phaseconv.zd import deviation_laws


@pytest.fixture
def two_cpus(monkeypatch):
    """`os.cpu_count` reads 2, so a sweep run with ``--jobs`` 2 or more can pool on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def random_spectrum(rng, max_len: int = 6, max_offset: int = 3) -> IntDistribution:
    """Gapless spectrum with no near-zero entries (keeps log-weights finite)."""
    size = int(rng.integers(2, max_len + 1))
    probs = rng.uniform(0.05, 1.0, size)
    probs /= probs.sum()
    return IntDistribution(int(rng.integers(0, max_offset + 1)), probs)


def random_state(rng, max_len: int = 6, max_offset: int = 3) -> NumberState:
    return NumberState(random_spectrum(rng, max_len, max_offset))


def random_mixture(rng, max_rank: int = 3, max_len: int = 3, max_offset: int = 1) -> MixedTarget:
    rank = int(rng.integers(1, max_rank + 1))
    comps, seen = [], set()
    while len(comps) < rank:
        state = random_state(rng, max_len=max_len, max_offset=max_offset)
        key = (state.spectrum.offset, len(state.spectrum))
        if key in seen:
            continue
        seen.add(key)
        comps.append(state)
    weights = rng.dirichlet(np.full(rank, 5.0))
    return MixedTarget(tuple(comps), tuple(weights / weights.sum()))


def random_density(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def wrap_angle(gamma):
    """Reduce angles to the principal interval (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(gamma, dtype=np.float64), TWO_PI)


def convolve(a: IntDistribution, b: IntDistribution) -> IntDistribution:
    """Oracle: distribution of the sum of independent draws from ``a`` and ``b``, by direct convolution."""
    return IntDistribution.from_raw(a.offset + b.offset, np.convolve(a.probs, b.probs), 0.0)


def l1_distance(a: IntDistribution, b: IntDistribution) -> float:
    """Sum of |a_n - b_n| over the union of supports, aligned by absolute position."""
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a), b.offset + len(b))
    grid = np.zeros(hi - lo)
    grid[a.offset - lo : a.offset - lo + len(a)] = a.probs
    grid[b.offset - lo : b.offset - lo + len(b)] -= b.probs
    return float(np.abs(grid).sum())


def gaussian_pmf(
    mean: float,
    variance: float,
    support: tuple[int, int] | None = None,
    *,
    tail_tol: float = 1e-9,
    trim_threshold: float = TRIM_THRESHOLD,
) -> IntDistribution:
    """Oracle: Gaussian density sampled on integer points and renormalized to mass 1.

    ``support`` is an inclusive integer range ``(lo, hi)``; when omitted, a
    range covering 8.5 standard deviations is used.  Raises ValueError when
    ``variance`` is not positive, or when the Gaussian mass outside
    ``[lo - 0.5, hi + 0.5]`` exceeds ``tail_tol``.
    """
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    sigma = math.sqrt(variance)
    if support is None:
        lo = math.floor(mean - 8.5 * sigma)
        hi = math.ceil(mean + 8.5 * sigma)
    else:
        lo, hi = int(support[0]), int(support[1])
        if lo > hi:
            raise ValueError(f"empty support ({lo}, {hi})")
    root2 = math.sqrt(2.0)
    tail = 0.5 * math.erfc((mean - (lo - 0.5)) / (sigma * root2))
    tail += 0.5 * math.erfc(((hi + 0.5) - mean) / (sigma * root2))
    if tail > tail_tol:
        raise ValueError(f"support ({lo}, {hi}) truncates mass {tail:.3e} > {tail_tol:.1e}")
    n = np.arange(lo, hi + 1, dtype=np.float64)
    values = np.exp(-((n - mean) ** 2) / (2.0 * variance))
    values /= math.sqrt(2.0 * math.pi * variance)
    return IntDistribution.from_raw(lo, values, trim_threshold)


def posterior_density_exact(spec: PosteriorSpec, gamma):
    """Oracle: the misalignment posterior |Sum_n sqrt(P_n) e^{i n gamma}|^2 / (2 pi) by a dense phase sum.

    Any angles; the library evaluates it only on uniform grids, by one FFT
    (`posterior_density_grid`).
    """
    amp = amp_char_fn(spec.ncopy_spectrum, gamma)
    return (amp.real**2 + amp.imag**2) / TWO_PI if isinstance(amp, np.ndarray) else abs(amp) ** 2 / TWO_PI


def figure_of_merit_quadrature(
    source: NumberState, n_copies: int, target: NumberState, m_copies: int, grid_points: int | None = None
) -> float:
    """Oracle: the figure of merit by midpoint quadrature of posterior times fidelity over (-pi, pi].

    With more grid points than twice the N-copy source span plus M times the
    target span, the rule is exact for the integrand, a trigonometric
    polynomial: a check of the library's autocorrelation route.
    """
    spec = PosteriorSpec.for_copies(source, n_copies)
    points = grid_points or (2 * (spec.ncopy_spectrum.span + m_copies * target.spectrum.span) + 3)
    gamma = -math.pi + TWO_PI * (np.arange(points) + 0.5) / points
    density = posterior_density_exact(spec, gamma)
    return float(density @ fidelity_pure_exact(target, m_copies, gamma)) * TWO_PI / points


def brute_force_coeffs(source: CyclicCoeffs, n_copies: int) -> CyclicCoeffs:
    """Oracle: the N-fold cyclic convolution power by direct O(N d^2) summation."""
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    d = source.d
    cur = np.zeros(d)
    cur[0] = 1.0
    for _ in range(n_copies):
        nxt = np.zeros(d)
        for i in range(d):
            if cur[i] > 0:
                nxt += cur[i] * np.roll(source.probs, i)
        cur = nxt
    return CyclicCoeffs(cur / cur.sum())


def canonical_coeffs(source: CyclicCoeffs, n_copies: int) -> CyclicCoeffs:
    """Oracle: the N-fold cyclic convolution power, flat through the DFT.

    Round-off can leave tiny negatives or drift the total; both are repaired
    (clamp, renormalize).  The library never forms c: `deviation_laws` works
    from phi^N with its DC mode zeroed.
    """
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    c = np.fft.ifft(np.fft.fft(source.probs) ** n_copies).real
    np.clip(c, 0.0, None, out=c)
    return CyclicCoeffs(c / c.sum())


class CyclicState:
    """Oracle state model: an l2-normalized amplitude vector over Z_d; group element m acts as omega^(n m)."""

    def __init__(self, amplitudes):
        a = np.array(amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size < 2:
            raise ValueError(f"need a 1-D amplitude vector with d >= 2, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes have norm {norm!r}, expected 1")
        self.amplitudes = a

    @property
    def d(self) -> int:
        return self.amplitudes.size

    @classmethod
    def eta(cls, d: int, m: int) -> "CyclicState":
        """Fourier-basis state eta_m = d^(-1/2) sum_n omega^(n m) |n>."""
        n = np.arange(d)
        return cls(np.exp(2j * math.pi * n * (m % d) / d) / math.sqrt(d))


def representative_state(coeffs: CyclicCoeffs) -> CyclicState:
    """Canonical-form state with amplitudes sqrt(c_n)."""
    return CyclicState(np.sqrt(coeffs.probs))


def phase_shifted(state: CyclicState, m: int) -> CyclicState:
    """Apply the group element m: amplitude at n picks up omega^(n m)."""
    n = np.arange(state.d)
    return CyclicState(state.amplitudes * np.exp(2j * math.pi * n * m / state.d))


def measure_eta_basis(state: CyclicState) -> np.ndarray:
    """Outcome distribution of the eta-basis measurement: |<eta_m|psi>|^2 = |DFT(a)_m|^2 / d."""
    amps = np.fft.fft(state.amplitudes)
    return (amps.real**2 + amps.imag**2) / state.d


def outcome_distribution(source: CyclicCoeffs, n_copies: int, m_true: int = 0) -> np.ndarray:
    """Pr(guess m1 | true shift m_true) of the N-copy protocol: the library's law, rolled.

    Covariance makes it depend on m_true and m1 only through the deviation
    (m_true - m1) mod d, the column of a `deviation_laws` row.
    """
    law = deviation_laws(source, [n_copies])[0]
    return law[(m_true - np.arange(source.d)) % source.d]


def asymmetry_free(state: NumberState) -> bool:
    """True when the spectrum is a point mass, i.e. carries no phase information."""
    return len(state.spectrum) == 1


def pure_target(state: NumberState) -> MixedTarget:
    """The rank-1 mixture of one pure state."""
    return MixedTarget((state,), (1.0,))


def uhlmann_fidelity(rho, sigma) -> float:
    """Oracle: Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of dense arrays.

    Square-root convention (equals overlap |<a|b>|^2 on pure states).
    """
    a = np.asarray(rho, dtype=np.complex128)
    b = np.asarray(sigma, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, u = np.linalg.eigh(a)
    # rank-deficient inputs put +-eps noise in the null space; sqrt would blow
    # each such mode up to ~1e-8, so zero everything below a relative floor
    w = np.where(w < max(float(w.max()), 0.0) * 1e-12, 0.0, w)
    sqrt_a = (u * np.sqrt(w)) @ u.conj().T
    inner = sqrt_a @ b @ sqrt_a
    eigs = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    eigs = np.where(eigs < max(float(eigs.max()), 0.0) * 1e-12, 0.0, eigs)
    return float(np.sqrt(eigs).sum() ** 2)


def embedded_density(target: MixedTarget, gamma: float = 0.0, labelled: bool = True) -> np.ndarray:
    """Oracle: dense single-copy density matrix of the (phase-shifted) mixture.

    With ``labelled``, each component carries a label register: component k
    lives on flat indices n * R + k, making distinct components orthogonal by
    construction while the phase action stays diagonal with angle n * gamma.
    That is sum_k t_k |psi_k><psi_k| (x) |k><k|, whose fidelity is what
    `exact_mixed_fidelity_small` computes: the mixture's own where the
    components' supports are disjoint, and below it otherwise.  Without
    ``labelled`` it is the mixture itself on the number basis.  The matrix
    has (n_max + 1) * R rows labelled, n_max + 1 without.
    """
    r = target.rank if labelled else 1
    dim = (max(c.spectrum.offset + c.spectrum.span for c in target.components) + 1) * r
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for k, (comp, w) in enumerate(zip(target.components, target.weights)):
        spec = comp.spectrum
        numbers = spec.offset + np.arange(len(spec))
        shifted = np.zeros(dim, dtype=np.complex128)
        shifted[numbers * r + (k if labelled else 0)] = np.sqrt(spec.probs) * np.exp(1j * numbers * gamma)
        rho += w * np.outer(shifted, shifted.conj())
    return rho


def direct_power(p: IntDistribution, n: int) -> IntDistribution:
    # repeated direct convolution, independent of the fft path
    out = p
    for _ in range(n - 1):
        out = convolve(out, p)
    return out


def binomial_pmf(trials: int, q: float, lo: int, hi: int) -> np.ndarray:
    """Oracle: Binomial(trials, q) at lo .. hi - 1, by log-ratio recurrence from the mode.

    log P(x+1)/P(x) = log1p(((trials+1) q - (x+1)) / ((x+1)(1-q))), with
    (trials+1) q split exactly into two floats so that the numerator keeps
    its digits; the log-masses accumulate outward from the mode and the range
    is normalized by its own sum, so it must hold all but a negligible mass.
    """
    lo, hi = max(lo, 0), min(hi, trials + 1)
    mode = min(max(int((trials + 1) * q), lo), hi - 1)
    top = Fraction(q) * (trials + 1)
    top_hi = float(top)
    top_lo = float(top - Fraction(top_hi))

    def log_ratio(x):
        return np.log1p(((top_hi - (x + 1)) + top_lo) / ((x + 1) * (1.0 - q)))

    up = np.cumsum(log_ratio(np.arange(mode, hi - 1, dtype=np.float64)))
    down = np.cumsum(-log_ratio(np.arange(mode - 1, lo - 1, -1, dtype=np.float64)))
    values = np.exp(np.concatenate((down[::-1], [0.0], up)))
    return values / values.sum()


def exact_power(p: IntDistribution, n: int) -> list[Fraction]:
    """Oracle: the N-fold convolution power of the floats' exact rational values.

    Each mass is an integer over a common power of two, so the power is
    integer polynomial arithmetic over that denominator to the N-th.
    """
    ratios = [q.as_integer_ratio() for q in p.probs.tolist()]
    den = max(d for _, d in ratios)
    base = [a * (den // d) for a, d in ratios]
    out = [1]
    for _ in range(n):
        grown = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                grown[i + j] += a * b
        out = grown
    return [Fraction(a, den**n) for a in out]


def class_number_distribution(target: MixedTarget, counts) -> IntDistribution:
    """Oracle: number distribution of a type class, as a convolution of k_j-fold powers.

    The library gets class fidelities from products of single-copy
    characteristic functions instead; this builds the distribution itself.
    """
    parts = [
        power_convolve(comp.spectrum, int(k))
        for comp, k in zip(target.components, counts)
        if k > 0
    ]
    return reduce(convolve, parts)


def kron_mixed_fidelity(target: MixedTarget, m: int, gamma: float, labelled: bool = True) -> float:
    """Oracle: M-copy fidelity from Kronecker powers of `embedded_density`.

    Labelled, it checks the library's closed form (sum_k t_k |phi_k(gamma)|)^(2M),
    the fidelity of the labelled mixture; without ``labelled`` it is the true
    F(tau^(x M), tau_gamma^(x M)).  It builds both M-copy operators, of
    dimension (single-copy dim)^M, and takes their Uhlmann fidelity, so it
    only suits M = 2, 3 on small targets.
    """
    rho = reduce(np.kron, [embedded_density(target, 0.0, labelled)] * m)
    shifted = reduce(np.kron, [embedded_density(target, gamma, labelled)] * m)
    return uhlmann_fidelity(rho, shifted)


def typical_classes_brute(target: MixedTarget, m: int, eps: float):
    """Oracle: the epsilon-typical classes of target^(x M) with no pruning.

    Every composition k of M, in lexicographic order, filtered by the L1 ball
    ||k - M t||_1 <= eps M (plus the library's 1e-9 slack); weights are the
    exact integer multinomial times prod t_j^k_j.  Returns (counts, weights).
    """
    t = np.array(target.weights)
    kept, weights = [], []
    for head in itertools.product(range(m + 1), repeat=t.size - 1):
        counts = (*head, m - sum(head))
        if counts[-1] < 0 or np.abs(np.array(counts) - m * t).sum() > eps * m + 1e-9:
            continue
        coeff = math.factorial(m)
        for k in counts:
            coeff //= math.factorial(k)
        kept.append(counts)
        weights.append(coeff * math.prod(tj**k for tj, k in zip(target.weights, counts)))
    return np.array(kept, dtype=np.int64).reshape(-1, t.size), np.array(weights)


def ks_uniform(draws: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic against Uniform(-pi, pi]."""
    draws = np.sort(np.asarray(draws))
    u = (draws + np.pi) / (2 * np.pi)
    ecdf_hi = np.arange(1, draws.size + 1) / draws.size
    return float(max(np.abs(ecdf_hi - u).max(), np.abs(ecdf_hi - 1 / draws.size - u).max()))
