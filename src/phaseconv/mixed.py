"""Mixed-target conversion: certified fidelity lower bounds via typical type classes.

A mixed target is a convex mixture of standard-form pure states.  Its M-copy
power splits over type classes (compositions of M across the mixture
components); keeping only classes whose empirical frequency stays within
epsilon of the mixing weights leaves a small residual mass delta and a
per-class fidelity that is again a pure-state quantity.  Joint concavity of
the fidelity then certifies

    F(prepared, true) >= (1 - delta) * min over kept classes of F_class.

The kept set is enumerated one integer interval per count, so ``class_cap``
sees its exact size, and the exact floor reads only the intervals' ends.
The exact mixed fidelity the bound is checked against is a closed form in the
component fidelities; the Uhlmann fidelity of a dense embedding is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialBlowupError
from .u1 import (
    TWO_PI,
    NumberState,
    PosteriorSpec,
    fidelity_pure_exact,
    fidelity_pure_gauss,
    posterior_density_grid,
)

DEFAULT_CLASS_CAP = 10**6


@dataclass(frozen=True)
class MixedTarget:
    """Convex mixture sum_k t_k |psi_k><psi_k| of standard-form pure states."""

    components: tuple[NumberState, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        if len(self.components) != len(self.weights):
            raise ValueError(
                f"{len(self.components)} components but {len(self.weights)} weights"
            )
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be strictly positive")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    @classmethod
    def pure(cls, state: NumberState) -> "MixedTarget":
        return cls((state,), (1.0,))

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def component_variances(self) -> np.ndarray:
        return np.array([c.variance for c in self.components])


def epsilon_schedule(m_copies: int) -> float:
    """Typicality width ((ln M)/M)^(1/4).

    Decays to zero while eps^2 * M / ln M diverges, which is exactly what the
    residual-mass estimate needs.  Undefined below M=2.
    """
    if m_copies < 2:
        raise ValueError(f"epsilon schedule needs m_copies >= 2, got {m_copies}")
    return (math.log(m_copies) / m_copies) ** 0.25


@dataclass(frozen=True)
class TypicalDecomposition:
    """Kept classes: one composition of M per row of ``counts``, and their ``weights``."""

    counts: np.ndarray
    weights: np.ndarray
    residual_mass: float
    epsilon_used: float
    m_copies: int

    @property
    def n_classes(self) -> int:
        return len(self.counts)


def typical_decomposition(
    target: MixedTarget,
    m_copies: int,
    epsilon: float | None = None,
    *,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> TypicalDecomposition:
    """Enumerate the epsilon-typical type classes of target^(x M), ||k - M t||_1 <= eps M.

    Counts are fixed one coordinate at a time, in lexicographic order.  Given
    the counts before it, with accrued L1 distance a and L copies left, count j
    keeps the integers k in [0, L] with a + |k - M t_j| + |L - k - M s_j| <= eps M,
    s_j = t_{j+1} + ... + t_r: one interval, as the left side is convex in k.
    Each stage's row count, at the last stage the exact class count, is compared
    with ``class_cap`` before the rows are allocated.  Classes that share all
    but their last two counts (a slice) are consecutive rows.

    Class weights are multinomial(M; k) * prod t_k^k, evaluated in log space
    (the exact integers overflow and the direct product underflows long
    before M reaches interesting sizes).  ``residual_mass`` is one minus the
    kept coverage, clamped at zero.
    """
    eps = epsilon_schedule(m_copies) if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    r = target.rank
    t = np.array(target.weights)
    scaled = t * m_copies  # work in copy units to avoid repeated division
    suffix_mass = np.cumsum(scaled[::-1])[::-1]
    budget = eps * m_copies + 1e-9
    counts = np.zeros((1, 0), dtype=np.int64)
    accrued = np.zeros(1)
    left = np.array([m_copies])
    for j in range(r - 1):
        # |k - x| + |rest - k| = max(|rest - x|, |2k - x - rest|) with x = M t_j
        slack = budget - accrued
        rest = left - suffix_mass[j + 1]
        lo = np.maximum(np.ceil((scaled[j] + rest - slack) / 2), 0).astype(np.int64)
        hi = np.minimum(np.floor((scaled[j] + rest + slack) / 2), left).astype(np.int64)
        sizes = np.where(np.abs(rest - scaled[j]) <= slack, np.maximum(hi - lo + 1, 0), 0)
        rows = int(sizes.sum())
        if rows > class_cap:
            raise CombinatorialBlowupError(
                f"about {rows} type classes at M={m_copies}, rank {r}; cap is {class_cap}"
            )
        parent = np.repeat(np.arange(len(counts)), sizes)
        k = np.arange(rows) + (lo - np.cumsum(sizes) + sizes)[parent]
        counts = np.concatenate((counts[parent], k[:, None]), axis=1)
        accrued = accrued[parent] + np.abs(k - scaled[j])
        left = left[parent] - k
    counts = np.concatenate((counts, left[:, None]), axis=1)
    if not len(counts):
        raise ValueError(
            f"no type class within epsilon={eps} at M={m_copies}; widen epsilon"
        )
    # log k! per value of each column, all within eps M of M t_j: no sort, no 0..M table
    log_counts = 0.0
    for column, least in zip(counts.T, counts.min(axis=0).tolist()):
        log_factorial = np.array([math.lgamma(k + 1) for k in range(least, column.max() + 1)])
        log_counts = log_counts + log_factorial[column - least]
    weights = np.exp(math.lgamma(m_copies + 1) - log_counts + counts @ np.log(t))
    counts.setflags(write=False)
    weights.setflags(write=False)
    residual = max(0.0, 1.0 - math.fsum(weights))
    return TypicalDecomposition(counts, weights, residual, eps, m_copies)


def fidelity_mixed_lower_bound(
    target: MixedTarget,
    m_copies: int,
    gamma,
    *,
    epsilon: float | None = None,
    method: str = "gauss",
    decomposition: TypicalDecomposition | None = None,
    class_cap: int = DEFAULT_CLASS_CAP,
):
    """Certified lower bound (1 - delta) * min over classes of F_class(gamma).

    ``method`` picks the per-class fidelity: "gauss" for the analytic model
    exp(-M sigma_k^2 gamma^2) (certified for spectra it dominates, and the
    regime the closed forms live in), "exact" for prod_j |phi_j(gamma)|^(2 k_j),
    the fidelity of the class number distribution with no convolution built.
    Pass a precomputed ``decomposition`` to amortize enumeration across many
    gamma batches; it must be a `typical_decomposition` result, because the
    exact floor reads only the two end classes of each of its slices.
    """
    if method not in ("gauss", "exact"):
        raise ValueError(f"method must be 'gauss' or 'exact', got {method!r}")
    dec = decomposition or typical_decomposition(
        target, m_copies, epsilon, class_cap=class_cap
    )
    if method == "gauss":
        # exp(-M s^2 gamma^2) decreases as s^2 grows: the widest class is the minimum
        widest = ((dec.counts / dec.m_copies) @ target.component_variances).max()
        floor = fidelity_pure_gauss(widest, m_copies, gamma)
    else:
        # log F_k = sum_j k_j ln|phi_j|^2 is linear in k, and along a slice only
        # the last two counts move, in opposite steps: each slice's least
        # fidelity is at one of its two ends
        head = dec.counts[:, :-2]
        step = (head[1:] != head[:-1]).any(axis=1)  # row i + 1 starts a slice
        ends = np.ones(dec.n_classes, dtype=bool)
        ends[1:-1] = step[1:] | step[:-1]
        component_fids = [fidelity_pure_exact(c, 1, gamma) for c in target.components]
        floor = None
        for counts in dec.counts[ends].tolist():
            fid = math.prod(f**k for f, k in zip(component_fids, counts) if k > 0)
            floor = fid if floor is None else np.minimum(floor, fid)
    out = (1.0 - dec.residual_mass) * np.asarray(floor, dtype=np.float64)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MixedBoundResult:
    """Posterior-averaged certified bound plus the decomposition that produced it."""

    f_bound: float
    decomposition: TypicalDecomposition


def figure_of_merit_mixed_bound(
    source: NumberState,
    n_copies: int,
    target: MixedTarget,
    m_copies: int,
    *,
    epsilon: float | None = None,
    method: str = "gauss",
    grid_points: int | None = None,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> MixedBoundResult:
    """Average the certified bound over the exact N-copy misalignment posterior.

    The integrand's bound factor is a min over class fidelities, hence only
    piecewise smooth; the midpoint rule on a dense uniform grid is used
    (default covers the posterior's bandwidth with margin).
    """
    dec = typical_decomposition(target, m_copies, epsilon, class_cap=class_cap)
    spec = PosteriorSpec.for_copies(source, n_copies)
    points = grid_points or max(4097, 2 * spec.ncopy_spectrum.span + 3)
    gamma = -math.pi + TWO_PI * (np.arange(points) + 0.5) / points
    bound = fidelity_mixed_lower_bound(
        target, m_copies, gamma, method=method, decomposition=dec
    )
    density = posterior_density_grid(spec, points, midpoint=True)
    value = float(density @ bound) * TWO_PI / points
    return MixedBoundResult(value, dec)


def uhlmann_fidelity(rho, sigma) -> float:
    """Oracle: Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of dense arrays.

    Square-root convention (equals overlap |<a|b>|^2 on pure states).  On
    `embedded_density` it is the independent check of the identity in
    `exact_mixed_fidelity_small`; no library path calls it.
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


def embedded_density(target: MixedTarget, gamma: float = 0.0) -> np.ndarray:
    """Oracle: dense single-copy density matrix of the (phase-shifted) mixture.

    Components may share number support, so each carries a multiplicity
    register: component k lives on flat indices n * R + k, making distinct
    components orthogonal by construction while the phase action stays
    diagonal with angle n * gamma.  The matrix has (n_max + 1) * R rows; only
    the oracle checks of `exact_mixed_fidelity_small` build it.
    """
    r = target.rank
    dim = (max(c.spectrum.offset + c.spectrum.span for c in target.components) + 1) * r
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for k, (comp, w) in enumerate(zip(target.components, target.weights)):
        spec = comp.spectrum
        numbers = spec.offset + np.arange(len(spec))
        shifted = np.zeros(dim, dtype=np.complex128)
        shifted[numbers * r + k] = np.sqrt(spec.probs) * np.exp(1j * numbers * gamma)
        rho += w * np.outer(shifted, shifted.conj())
    return rho


def exact_mixed_fidelity_small(target: MixedTarget, m_copies: int, gamma: float) -> float:
    """Exact F(tau^(x M), tau_gamma^(x M)) of the mixture tau and its phase-shifted copy.

    In the embedding of `embedded_density` both operators are block diagonal
    over the components' registers, with rank-one blocks t_k |psi_k><psi_k|.
    Root fidelity adds over such blocks and multiplies over copies, so

        F = (sum_k t_k |phi_k(gamma)|)^(2M),

    with |phi_k|^2 the single-copy `fidelity_pure_exact`.  No matrix is built;
    `uhlmann_fidelity` on the embedding is the oracle of this identity.
    """
    if m_copies < 1:
        raise ValueError(f"m_copies must be >= 1, got {m_copies}")
    root = math.fsum(
        w * math.sqrt(fidelity_pure_exact(c, 1, gamma))
        for c, w in zip(target.components, target.weights)
    )
    # the weights may sum to 1 +- 1e-12
    return min(root, 1.0) ** (2 * m_copies)
