"""Mixed-target conversion: fidelity lower bounds via typical type classes.

A mixed target is a convex mixture of standard-form pure states.  Its M-copy
power splits over type classes (compositions of M across the mixture
components); keeping only classes whose empirical frequency stays within
epsilon of the mixing weights leaves a small residual mass delta and a
per-class fidelity that is again a pure-state quantity.  The bound

    F(prepared, true) >= (1 - delta) * min over kept classes of F_class

is not yet certified: its factor cites joint concavity of the squared
fidelity, which is false, and the gauss floor can exceed the exact fidelity.

The kept set is enumerated one integer interval per count, so ``class_cap``
sees its exact size.  The exact floor's log fidelity is linear in the counts,
so it reads only the intervals' ends, in one pass over them in log space.
The exact mixed fidelity the bound is checked against is a closed form in the
component fidelities; the tests check it against the Uhlmann fidelity of a
dense embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import log_char_sq
from .errors import ResourceCapError
from .u1 import (
    TWO_PI,
    NumberState,
    PosteriorSpec,
    fidelity_pure_gauss,
    posterior_density_grid,
)

DEFAULT_CLASS_CAP = 10**6

# math.fsum is the faster sum below this many values (2-3x at 256, level at
# 1,024, 3x slower at 4,096)
_FSUM_DIRECT = 1024
# values per block of the binned sum, whose temporaries then stay near 150 kB (one
# block over the benchmark's 21,675 weights raised its peak resident set 0.8 MB)
_SUM_BLOCK = 4096
# entries per block of the exact floor: 2^18 to 2^20 timed alike, 2^16 1.5x slower
_FLOOR_BLOCK = 1 << 18


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
    """Kept classes of ``target``^(x M): one composition of M per row of ``counts``, and their ``weights``."""

    target: MixedTarget
    counts: np.ndarray
    weights: np.ndarray
    residual_mass: float
    epsilon_used: float
    m_copies: int

    @property
    def n_classes(self) -> int:
        return len(self.counts)


def _log_factorial(values: np.ndarray) -> np.ndarray:
    """ln(k!) for each k in ``values``, from one lgamma table over their least to largest."""
    least = values.min()
    table = np.array([math.lgamma(k + 1) for k in range(least, values.max() + 1)])
    return table[values - least]


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values) for fewer than 2^26 finite floats, from exact sums per binary exponent.

    Each m 2^e (frexp) is (top + low 2^-26) 2^(e - 27) with integers top < 2^27
    and low < 2^26, so their float sums per e stay below 2^53 and are exact.
    """
    if values.size < _FSUM_DIRECT:
        return math.fsum(values.tolist())
    high, low = np.zeros(2098), np.zeros(2098)  # frexp's exponents run from -1073 to 1024
    for lo in range(0, values.size, _SUM_BLOCK):
        mantissa, exponent = np.frexp(values[lo : lo + _SUM_BLOCK])
        exponent += 1073
        mantissa *= 2.0**27
        top = np.floor(mantissa)
        high += np.bincount(exponent, top, high.size)
        low += np.bincount(exponent, (mantissa - top) * 2.0**26, low.size)
    used = np.flatnonzero(high)  # a nonzero value has a nonzero top
    return math.fsum(np.ldexp(high[used], used - 1100).tolist() + np.ldexp(low[used], used - 1126).tolist())


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
    kept coverage, a correctly rounded sum (math.fsum's value), clamped at zero.
    """
    eps = epsilon_schedule(m_copies) if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    r = target.rank
    t = np.array(target.weights)
    scaled = t * m_copies  # work in copy units to avoid repeated division
    suffix_mass = np.cumsum(scaled[::-1])[::-1]
    budget = eps * m_copies + 1e-9
    columns, log_counts = [], np.zeros(1)
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
            raise ResourceCapError(
                f"about {rows} type classes at M={m_copies}, rank {r}; cap is {class_cap}"
            )
        if not rows:
            raise ValueError(
                f"no type class within epsilon={eps} at M={m_copies}; widen epsilon"
            )
        parent = np.repeat(np.arange(len(left)), sizes)
        k = np.arange(rows) + (lo - np.cumsum(sizes) + sizes)[parent]
        columns = [column[parent] for column in columns] + [k]
        log_counts = log_counts[parent] + _log_factorial(k)
        left = left[parent] - k
        if j < r - 2:  # unread after the last stage; skipping it lowers the peak memory
            accrued = accrued[parent] + np.abs(k - scaled[j])
    counts = np.empty((len(left), r), dtype=np.int64)
    for j, column in enumerate(columns + [left]):
        counts[:, j] = column
    del columns  # held by the stacked counts now
    log_counts += _log_factorial(left)
    weights = np.exp(math.lgamma(m_copies + 1) - log_counts + counts @ np.log(t))
    counts.setflags(write=False)
    weights.setflags(write=False)
    residual = max(0.0, 1.0 - _exact_sum(weights))
    return TypicalDecomposition(target, counts, weights, residual, eps, m_copies)


def fidelity_mixed_lower_bound(decomposition: TypicalDecomposition, gamma, *, method: str):
    """Lower bound (1 - delta) * min over classes of F_class(gamma), not yet certified.

    The classes, delta, the target and M are ``decomposition``'s.  The
    (1 - delta) factor cites joint concavity of the squared fidelity, which
    is false, and the gauss floor can exceed the exact fidelity.  ``method``
    picks the per-class fidelity: "gauss" for the model exp(-M sigma_k^2 gamma^2),
    "exact" for prod_j |phi_j(gamma)|^(2 k_j), the class number distribution's
    fidelity: exp of the least sum_j k_j ln|phi_j|^2 (`log_char_sq`) over the two
    end classes of each slice.
    """
    if method not in ("gauss", "exact"):
        raise ValueError(f"method must be 'gauss' or 'exact', got {method!r}")
    dec, target = decomposition, decomposition.target
    if method == "gauss":
        # exp(-M s^2 gamma^2) decreases as s^2 grows: the widest class is the minimum
        widest = ((dec.counts / dec.m_copies) @ target.component_variances).max()
        floor = fidelity_pure_gauss(widest, dec.m_copies, gamma)
    else:
        # log F_k is linear in k, and along a slice only the last two counts
        # move, in opposite steps: each slice's least fidelity is at an end
        head = dec.counts[:, :-2]
        edge = np.concatenate(([True], (head[1:] != head[:-1]).any(axis=1), [True]))
        counts = dec.counts[edge[:-1] | edge[1:]].astype(np.float64)  # edge[i]: row i starts a slice
        logs = log_char_sq([c.spectrum for c in target.components], gamma).reshape(target.rank, -1)
        # clamped, a vanishing |phi_j| adds 0 at k_j = 0 (not nan) and -inf at k_j > 0
        np.maximum(logs, -np.finfo(float).max, out=logs)
        block = max(1, _FLOOR_BLOCK // len(counts))
        least = np.empty(logs.shape[1])
        for lo in range(0, least.size, block):
            # einsum's own loops, no BLAS: sum_j k_j ln|phi_j|^2 per class and angle
            least[lo : lo + block] = np.einsum("ej,jg->eg", counts, logs[:, lo : lo + block]).min(axis=0)
        floor = np.exp(least).reshape(np.shape(gamma))
    out = (1.0 - dec.residual_mass) * np.asarray(floor, dtype=np.float64)
    return float(out) if np.ndim(out) == 0 else out


def default_grid_points(span: int) -> int:
    """Posterior grid points for an N-copy spectrum ``span`` wide: its bandwidth with margin."""
    return max(4097, 2 * span + 3)


def figure_of_merit_mixed_bound(
    posterior: PosteriorSpec,
    decomposition: TypicalDecomposition,
    *,
    method: str,
    grid_points: int | None = None,
) -> float:
    """Average `fidelity_mixed_lower_bound` over the exact N-copy misalignment posterior.

    The integrand's bound factor is a min over class fidelities, hence only
    piecewise smooth: the midpoint rule on `default_grid_points` by default.
    """
    points = grid_points or default_grid_points(posterior.ncopy_spectrum.span)
    gamma = -math.pi + TWO_PI * (np.arange(points) + 0.5) / points
    bound = fidelity_mixed_lower_bound(decomposition, gamma, method=method)
    density = posterior_density_grid(posterior, points, midpoint=True)
    return float(density @ bound) * TWO_PI / points


def exact_mixed_fidelity_small(target: MixedTarget, m_copies: int, gamma: float) -> float:
    """Exact F(tau^(x M), tau_gamma^(x M)) of the mixture tau and its phase-shifted copy.

    Each component carries a multiplicity register: component k lives on the
    basis states |n, k>, so distinct components are orthogonal while the phase
    action stays diagonal with angle n * gamma.  Both operators are then block
    diagonal over the registers, with rank-one blocks t_k |psi_k><psi_k|.  Root
    fidelity adds over such blocks and multiplies over copies, so

        F = (sum_k t_k |phi_k(gamma)|)^(2M),

    with every component's ln|phi_k|^2 from one `log_char_sq` call.  No matrix
    is built; the tests check this identity against the Uhlmann fidelity of the
    dense embedding.
    """
    if m_copies < 1:
        raise ValueError(f"m_copies must be >= 1, got {m_copies}")
    roots = np.sqrt(np.exp(log_char_sq([c.spectrum for c in target.components], gamma)))
    root = math.fsum(w * r for w, r in zip(target.weights, roots.tolist()))
    # the weights may sum to 1 +- 1e-12
    return min(root, 1.0) ** (2 * m_copies)
