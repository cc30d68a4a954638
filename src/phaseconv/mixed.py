"""Mixed-target conversion: certified fidelity lower bounds via typical type classes.

A mixed target is a convex mixture of standard-form pure states.  Its M-copy
power splits over type classes (compositions of M across the mixture
components); keeping only classes whose empirical frequency stays within
epsilon of the mixing weights leaves a small residual mass delta and a
per-class fidelity that is again a pure-state quantity.  Joint concavity of
the fidelity then certifies

    F(prepared, true) >= (1 - delta) * min over kept classes of F_class.

The kept set holds about (2 eps M)^(rank-1) classes, guarded by ``class_cap``;
an exact Uhlmann-fidelity oracle on a dense embedding validates the bound at
small copy numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CombinatorialBlowupError, ResourceCapError
from .u1 import (
    TWO_PI,
    NumberState,
    PosteriorSpec,
    fidelity_pure_exact,
    fidelity_pure_gauss,
    posterior_density_grid,
)

DEFAULT_CLASS_CAP = 10**6
DEFAULT_DIM_CAP = 4096


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


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
            raise ValueError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        trace = float(m.trace().real)
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace is {trace!r}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=np.complex128)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Square-root convention (equals overlap |<a|b>|^2 on pure states).  Both
    arguments may be `DensityMatrix` or plain arrays.
    """
    a = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    b = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=np.complex128)
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


def _embedding_dim(target: MixedTarget) -> int:
    """Single-copy dimension (n_max + 1) * R of the embedding below."""
    n_max = max(c.spectrum.offset + c.spectrum.span for c in target.components)
    return (n_max + 1) * target.rank


def _embedded_components(target: MixedTarget):
    """Orthonormal dense embedding of the mixture components.

    Components may share number support, so each carries a multiplicity
    register: component k lives on flat indices n * R + k, making distinct
    components orthogonal by construction while the phase action stays
    diagonal with angle n * gamma (n = index // R).
    """
    r = target.rank
    dim = _embedding_dim(target)
    vectors = np.zeros((r, dim))
    for k, comp in enumerate(target.components):
        spec = comp.spectrum
        idx = (spec.offset + np.arange(len(spec))) * r + k
        vectors[k, idx] = np.sqrt(spec.probs)
    numbers = np.arange(dim) // r
    return vectors, numbers


def embedded_density(target: MixedTarget, gamma: float = 0.0) -> np.ndarray:
    """Single-copy density matrix of the (phase-shifted) mixture in the embedding."""
    vectors, numbers = _embedded_components(target)
    phases = np.exp(1j * numbers * gamma)
    rho = np.zeros((vectors.shape[1], vectors.shape[1]), dtype=np.complex128)
    for w, v in zip(target.weights, vectors):
        shifted = phases * v
        rho += w * np.outer(shifted, shifted.conj())
    return rho


def exact_mixed_fidelity_small(
    target: MixedTarget,
    m_copies: int,
    gamma: float,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> float:
    """Exact F(tau^(x M), tau_gamma^(x M)) by brute-force tensor embedding.

    The M-copy operators are built as Kronecker powers, so the dimension is
    (single-copy dim)^M; M is capped at 3 and anything beyond ``dim_cap`` is
    refused.  Multiplicativity pins the answer to F(tau, tau_gamma)^M, and
    that identity is checked on every call as an integrity guard on the
    eigendecomposition: this is the independent oracle the typical-set bound
    is validated against, so it polices itself.
    """
    if not 1 <= m_copies <= 3:
        raise ValueError(f"dense oracle supports 1 <= M <= 3, got {m_copies}")
    dim = _embedding_dim(target)
    total = dim**m_copies
    if total > dim_cap:
        raise ResourceCapError(
            f"embedding dimension {dim}^{m_copies} = {total} exceeds dim_cap {dim_cap}"
        )
    rho0 = embedded_density(target, 0.0)
    rho1 = embedded_density(target, gamma)
    single = uhlmann_fidelity(rho0, rho1)
    if m_copies == 1:
        return single
    big0 = reduce(np.kron, [rho0] * m_copies)
    big1 = reduce(np.kron, [rho1] * m_copies)
    fid = uhlmann_fidelity(big0, big1)
    if abs(fid - single**m_copies) > 1e-8:
        raise RuntimeError(
            f"multiplicativity violated: F_M={fid!r} vs F_1^M={single ** m_copies!r}"
        )
    return fid
