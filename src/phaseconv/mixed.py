"""Mixed-target conversion: certified fidelity lower bounds via typical type classes.

A mixed target is a convex mixture of standard-form pure states.  Its M-copy
power splits over type classes (compositions of M across the mixture
components); keeping only classes whose empirical frequency stays within
epsilon of the mixing weights leaves a small residual mass delta and a
per-class fidelity that is again a pure-state quantity.  Joint concavity of
the fidelity then certifies

    F(prepared, true) >= (1 - delta) * min over kept classes of F_class.

The kept set holds about (2 eps M)^(rank-1) classes, guarded by ``class_cap``.
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


def type_class_estimate(rank: int, m_copies: int, epsilon: float) -> int:
    """Size estimate of the epsilon-typical set, made before enumerating anything.

    The smaller of the count of all compositions of M into ``rank`` parts
    and a box of 2 floor(eps M) + 1 values in each free coordinate.
    """
    per_coord = 2 * math.floor(epsilon * m_copies) + 1
    return min(math.comb(m_copies + rank - 1, rank - 1), per_coord ** max(rank - 1, 1))


def typical_decomposition(
    target: MixedTarget,
    m_copies: int,
    epsilon: float | None = None,
    *,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> TypicalDecomposition:
    """Enumerate the epsilon-typical type classes of target^(x M).

    Counts are fixed one coordinate at a time, in lexicographic order; a prefix
    goes once its accrued L1 plus the least the undecided counts add exceeds eps M.

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
    estimate = type_class_estimate(r, m_copies, eps)
    if estimate > class_cap:
        raise CombinatorialBlowupError(
            f"about {estimate} type classes at M={m_copies}, rank {r}; cap is {class_cap}"
        )
    scaled = t * m_copies  # work in copy units to avoid repeated division
    suffix_mass = np.concatenate((np.cumsum(scaled[::-1])[::-1], [0.0]))
    budget = eps * m_copies + 1e-9
    counts = np.zeros((1, 0), dtype=np.int64)
    accrued = np.zeros(1)
    for j in range(r - 1):
        # one extra value at each end absorbs round-off in the box limits
        lo = max(0, math.ceil(scaled[j] - budget) - 1)
        box = np.arange(lo, min(m_copies, math.floor(scaled[j] + budget) + 1) + 1)
        parent = np.repeat(np.arange(len(counts)), box.size)
        counts = np.column_stack((counts[parent], np.tile(box, len(counts))))
        accrued = accrued[parent] + np.abs(counts[:, -1] - scaled[j])
        left = m_copies - counts.sum(axis=1)
        keep = (left >= 0) & (accrued + np.abs(left - suffix_mass[j + 1]) <= budget)
        counts, accrued = counts[keep], accrued[keep]
    counts = np.column_stack((counts, m_copies - counts.sum(axis=1)))
    counts = counts[accrued + np.abs(counts[:, -1] - scaled[-1]) <= budget]
    if not len(counts):
        raise ValueError(
            f"no type class within epsilon={eps} at M={m_copies}; widen epsilon"
        )
    # log k! once per distinct count, not for all of 0..M: the counts lie in rank boxes
    distinct, where = np.unique(counts, return_inverse=True)
    log_factorial = np.array([math.lgamma(k + 1) for k in distinct.tolist()])
    log_counts = log_factorial[where.reshape(counts.shape)].sum(axis=1)
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
    gamma batches.
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
        component_fids = [fidelity_pure_exact(c, 1, gamma) for c in target.components]
        floor = None
        for counts in dec.counts.tolist():
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
