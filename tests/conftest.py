"""Shared helpers: random instances and slow independent oracles."""
import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np

from phaseconv import IntDistribution, MixedTarget, NumberState, standardize
from phaseconv.distributions import convolve, power_convolve
from phaseconv.mixed import embedded_density, uhlmann_fidelity


def random_spectrum(rng, max_len: int = 6, max_offset: int = 3) -> IntDistribution:
    """Gapless spectrum with no near-zero entries (keeps log-weights finite)."""
    size = int(rng.integers(2, max_len + 1))
    probs = rng.uniform(0.05, 1.0, size)
    probs /= probs.sum()
    return IntDistribution(int(rng.integers(0, max_offset + 1)), probs)


def random_state(rng, max_len: int = 6, max_offset: int = 3) -> NumberState:
    return standardize(random_spectrum(rng, max_len, max_offset))


def random_mixture(rng, max_rank: int = 3) -> MixedTarget:
    rank = int(rng.integers(1, max_rank + 1))
    comps, seen = [], set()
    while len(comps) < rank:
        state = random_state(rng, max_len=3, max_offset=1)
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


def kron_mixed_fidelity(target: MixedTarget, m: int, gamma: float) -> float:
    """Oracle: F(tau^(x M), tau_gamma^(x M)) from Kronecker powers of the dense embedding.

    The library uses the closed form (sum_k t_k |phi_k(gamma)|)^(2M); this
    builds both M-copy operators, of dimension (single-copy dim)^M, and takes
    their Uhlmann fidelity, so it only suits M = 2, 3 on small targets.
    """
    rho = reduce(np.kron, [embedded_density(target, 0.0)] * m)
    shifted = reduce(np.kron, [embedded_density(target, gamma)] * m)
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
