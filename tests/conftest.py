"""Shared helpers: random instances and slow independent oracles."""
from functools import reduce

import numpy as np

from phaseconv import IntDistribution, MixedTarget, NumberState, standardize
from phaseconv.distributions import convolve, power_convolve


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


def ks_uniform(draws: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic against Uniform(-pi, pi]."""
    draws = np.sort(np.asarray(draws))
    u = (draws + np.pi) / (2 * np.pi)
    ecdf_hi = np.arange(1, draws.size + 1) / draws.size
    return float(max(np.abs(ecdf_hi - u).max(), np.abs(ecdf_hi - 1 / draws.size - u).max()))
