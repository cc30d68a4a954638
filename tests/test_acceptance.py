"""Acceptance gate: numbered criteria, one printed verdict line each.

Each criterion prints ``[C<k>] PASS/FAIL: <measured values>`` before asserting,
so the verdict and the numbers behind it land in the test log either way.
Numeric anchors were computed by independent oracle scripts (direct
convolution, dense quadrature, full enumeration) before being frozen here.
"""
import csv
import json
import math
import time
import warnings

import numpy as np
import pytest

from conftest import (
    binomial_pmf,
    brute_force_coeffs,
    direct_power,
    exact_power,
    figure_of_merit_quadrature,
    measure_eta_basis,
    phase_shifted,
    posterior_density_exact,
    pure_target,
    random_density,
    random_mixture,
    random_state,
    representative_state,
    uhlmann_fidelity,
)
from phaseconv import (
    CyclicCoeffs,
    IntDistribution,
    MixedTarget,
    NumberState,
    PosteriorSpec,
    RateSchedule,
    deviation_laws,
    epsilon_schedule,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    fidelity_pure_exact,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    figure_of_merit_mixed_bound,
    posterior_gauss_distance,
    success_slope_fit,
    typical_decomposition,
)
from phaseconv.cli import main
from phaseconv.distributions import TRIM_THRESHOLD, amp_char_fn, power_convolve

FAIR = NumberState(IntDistribution(0, np.array([0.5, 0.5])))
FAIR1 = NumberState(IntDistribution(1, np.array([0.5, 0.5])))


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c1_closed_form_convergence():
    start = time.perf_counter()
    grid = [(400, 20), (1600, 40), (6400, 80)]
    exact = [figure_of_merit_exact(PosteriorSpec.for_copies(FAIR, n), FAIR, m) for n, m in grid]
    closed = [figure_of_merit_closed(0.25, n, 0.25, m) for n, m in grid]
    gaps = [abs(e - c) for e, c in zip(exact, closed)]
    elapsed = time.perf_counter() - start

    decreasing = gaps[0] > gaps[1] > gaps[2]
    terminal_in_range = 0.97 <= exact[-1] <= 1.0
    closed_formula = abs(closed[-1] - 1 / math.sqrt(1 + 80 / (2 * 6400))) <= 1e-12
    closed_value = abs(closed[-1] - 0.99689) <= 5e-6
    fast = elapsed < 60.0
    ok = decreasing and terminal_in_range and closed_formula and closed_value and fast
    assert report(
        "C1",
        ok,
        f"gaps {gaps[0]:.3g} > {gaps[1]:.3g} > {gaps[2]:.3g}; "
        f"f_exact(6400,80) = {exact[-1]:.9f}; f_closed = {closed[-1]:.9f}; {elapsed:.2f}s",
    )


def test_c2_sublinear_schedule_converges():
    start = time.perf_counter()
    sched = RateSchedule("power", 0.8)
    grid = [10**3, 10**4, 10**5]
    ms = [sched.m_for(n) for n in grid]
    vals = [figure_of_merit_exact(PosteriorSpec.for_copies(FAIR, n), FAIR, m) for n, m in zip(grid, ms)]
    elapsed = time.perf_counter() - start

    ok = (
        ms == [252, 1585, 10000]
        and vals[0] < vals[1] < vals[2]
        and vals[-1] >= 0.95
        and elapsed < 300.0
    )
    assert report(
        "C2",
        ok,
        f"M rows {ms}; f_exact {vals[0]:.6f} < {vals[1]:.6f} < {vals[2]:.6f}; {elapsed:.1f}s",
    )


def test_c3_linear_schedule_plateaus():
    plateau = 1 / math.sqrt(1.5)
    vals = [figure_of_merit_exact(PosteriorSpec.for_copies(FAIR, n), FAIR, n) for n in (2000, 4000, 8000)]
    devs = [abs(v - plateau) for v in vals]
    ok = all(dev <= 0.01 for dev in devs)
    assert report(
        "C3", ok, f"f_exact(M=N) = {[f'{v:.6f}' for v in vals]} vs 1/sqrt(1.5) = {plateau:.6f}"
    )


def test_c4_posterior_gaussian_model_quality():
    tvs = [posterior_gauss_distance(PosteriorSpec.for_copies(FAIR, n)) for n in (64, 256, 1024)]
    ratios = [a / b for a, b in zip(tvs, tvs[1:])]
    decreasing = tvs[0] > tvs[1] > tvs[2]
    in_window = all(1.4 <= r <= 3.0 for r in ratios)
    ok = decreasing and in_window
    assert report(
        "C4",
        ok,
        f"tv = {[f'{t:.6g}' for t in tvs]}, decreasing = {decreasing}; "
        f"ratios = {[f'{r:.3f}' for r in ratios]}, required window [1.4, 3.0] "
        "(the 1/sqrt(N) term cancels for every source, symmetric or not, so the "
        "distance falls as 1/N and the ratio sits near 4; C10 pins that rate)",
    )


def test_c5_zd_geometric_rate():
    start = time.perf_counter()
    fit = success_slope_fit(CyclicCoeffs(np.array([0.9, 0.1])), range(4, 25))
    rel_dev = abs(fit.slope - fit.slope_theory) / abs(fit.slope_theory)
    # a uniform source is the eta seed: its N-copy coefficients stay uniform, so every
    # N recovers the phase with certainty and leaves no wrong-outcome mass
    laws = [deviation_laws(CyclicCoeffs(np.full(d, 1 / d)), [1, 2, 7]) for d in (2, 3, 5)]
    certainty = [dev for law in laws for dev in (*abs(law[:, 0] - 1.0), *law[:, 1:].sum(axis=1))]
    elapsed = time.perf_counter() - start

    ok = rel_dev <= 0.05 and max(certainty) <= 1e-12 and elapsed < 1.0
    assert report(
        "C5",
        ok,
        f"slope {fit.slope:.6f} vs 2*ln(0.8) = {fit.slope_theory:.6f} ({rel_dev:.2%}); "
        f"eta seed certainty dev {max(certainty):.2e}; {elapsed:.3f}s",
    )


def test_c6_canonical_matches_enumeration():
    # the library's deviation law against the eta-basis measurement of the
    # canonical state, built from the enumerated coefficients and shifted by each true m
    rng = np.random.default_rng(2718)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for n in range(1, 9):
            for _ in range(50):
                p = rng.uniform(0.02, 1.0, d)
                coeffs = CyclicCoeffs(p / p.sum())
                law = deviation_laws(coeffs, [n])[0]
                state = representative_state(brute_force_coeffs(coeffs, n))
                for m in range(d):
                    guesses = measure_eta_basis(phase_shifted(state, m))
                    worst = max(worst, np.abs(guesses - law[(m - np.arange(d)) % d]).max())
    ok = worst <= 1e-12
    assert report(
        "C6", ok, f"max |deviation law - enumerated state model| = {worst:.3e} over 4x8x50 instances"
    )


def test_c7_typical_set_residuals():
    half = MixedTarget((FAIR, FAIR1), (0.5, 0.5))
    delta4 = typical_decomposition(half, 4, epsilon=0.5).residual_mass
    exact_match = abs(delta4 - 0.125) <= 1e-12
    deltas = [typical_decomposition(half, m).residual_mass for m in (16, 64, 256, 1024)]
    decreasing = all(a > b or b == 0.0 for a, b in zip(deltas, deltas[1:]))
    ok = exact_match and decreasing
    assert report(
        "C7",
        ok,
        f"delta(M=4, eps=0.5) = {delta4!r}; schedule residuals {[f'{d:.3g}' for d in deltas]}",
    )


def test_c8_mixed_fidelity_oracles():
    rng = np.random.default_rng(52)
    worst_mult = 0.0
    for _ in range(100):
        d1 = int(rng.integers(2, 4))
        d2 = 3 if d1 == 2 and rng.random() < 0.5 else 2
        a1, b1 = random_density(rng, d1), random_density(rng, d1)
        a2, b2 = random_density(rng, d2), random_density(rng, d2)
        lhs = uhlmann_fidelity(np.kron(a1, a2), np.kron(b1, b2))
        rhs = uhlmann_fidelity(a1, b1) * uhlmann_fidelity(a2, b2)
        worst_mult = max(worst_mult, abs(lhs - rhs))

    # joint concavity holds for sqrt(F), not for F
    def root(a, b):
        return math.sqrt(uhlmann_fidelity(a, b))

    worst_concavity = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        a1, a2 = random_density(rng, dim), random_density(rng, dim)
        b1, b2 = random_density(rng, dim), random_density(rng, dim)
        lam = float(rng.uniform(0.05, 0.95))
        mixed = root(lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2)
        split = lam * root(a1, b1) + (1 - lam) * root(a2, b2)
        worst_concavity = min(worst_concavity, mixed - split)
    # pinned: basis states e0, e1 against e0, e2 at lam = 1/2, where F = 1/4 falls
    # below its average 1/2 and sqrt(F) = 1/2 meets its own
    e0, e1, e2 = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])
    pinned_f = uhlmann_fidelity((e0 + e1) / 2, (e0 + e2) / 2)
    pinned_split = (root(e0, e0) + root(e1, e2)) / 2
    worst_concavity = min(worst_concavity, math.sqrt(pinned_f) - pinned_split)

    worst_excess = -1.0
    for _ in range(25):
        target = random_mixture(rng, max_rank=2)
        for m in (1, 2, 3):
            dec = typical_decomposition(target, m, 2.0)
            for gamma in (0.1, 0.6, 1.5):
                exact = exact_mixed_fidelity_small(target, m, gamma)
                bound = fidelity_mixed_lower_bound(dec, gamma, method="exact")
                worst_excess = max(worst_excess, bound - exact)

    ok = (
        worst_mult <= 1e-10
        and worst_concavity >= -1e-10
        and abs(pinned_f - 0.25) <= 1e-12
        and worst_excess <= 1e-10
    )
    assert report(
        "C8",
        ok,
        f"multiplicativity dev {worst_mult:.2e}; sqrt(F) concavity slack {worst_concavity:.2e} "
        f"(pinned basis case: F = {pinned_f:.3g} against an average of 0.5); "
        f"bound - exact max {worst_excess:.2e}",
    )


def test_c9_cross_method_consistency():
    rng = np.random.default_rng(2024)
    worst_z = 0.0
    worst_quad = 0.0
    for i in range(20):
        src, tgt = random_state(rng), random_state(rng)
        n = int(rng.integers(64, 513))
        m = int(rng.integers(4, 65))
        spec = PosteriorSpec.for_copies(src, n)
        exact = figure_of_merit_exact(spec, tgt, m)
        quad = figure_of_merit_quadrature(src, n, tgt, m)
        est, err = figure_of_merit_mc(
            spec, tgt, m, 4000, np.random.default_rng(np.random.SeedSequence([2024, i]))
        )
        if err > 0:
            worst_z = max(worst_z, abs(est - exact) / err)
        worst_quad = max(worst_quad, abs(quad - exact))
    ok = worst_z <= 3.0 and worst_quad <= 1e-8
    assert report(
        "C9", ok, f"max |mc - exact|/stderr = {worst_z:.3f}; max quadrature dev = {worst_quad:.2e}"
    )


def test_c10_posterior_distance_one_over_n():
    # The skew correction to the amplitudes sqrt(P_n) is odd about the mean, so
    # its Fourier transform is in quadrature with the leading Gaussian term and
    # drops out of |amplitude|^2: the distance falls as 1/N for skewed sources too.
    sources = {"fair": [0.5, 0.5], "[0.9, 0.1]": [0.9, 0.1], "[0.2, 0.5, 0.3]": [0.2, 0.5, 0.3]}
    grid_points = 8192
    gamma = -math.pi + 2 * math.pi * (np.arange(grid_points) + 0.5) / grid_points
    ratios, worst_same, worst_direct = {}, 0.0, 0.0
    for label, probs in sources.items():
        state = NumberState(IntDistribution(0, np.array(probs)))
        specs = [PosteriorSpec.for_copies(state, n) for n in (256, 1024, 4096)]
        tvs = [posterior_gauss_distance(spec, grid_points) for spec in specs]
        ratios[label] = [a / b for a, b in zip(tvs, tvs[1:])]

        # dense-phase-sum oracle at N=256, on the same spectrum and on an
        # untrimmed direct-convolution spectrum
        variance = 256 * state.variance
        gauss = math.sqrt(2 * variance / math.pi) * np.exp(-2 * variance * gamma**2)
        dense = posterior_density_exact(specs[0], gamma)
        amp = amp_char_fn(direct_power(state.spectrum, 256), gamma)
        direct = (amp.real**2 + amp.imag**2) / (2 * math.pi)
        tv_dense, tv_direct = (
            0.5 * np.abs(d - gauss).sum() * 2 * math.pi / grid_points for d in (dense, direct)
        )
        worst_same = max(worst_same, abs(tvs[0] - tv_dense) / tv_dense)
        worst_direct = max(worst_direct, abs(tvs[0] - tv_direct))

    in_window = all(3.6 <= r <= 4.4 for rs in ratios.values() for r in rs)
    # trimming N-copy masses below 1e-15 moves the distance by about 2e-9 at N=256
    ok = in_window and worst_same <= 1e-12 and worst_direct <= 1e-8
    shown = {label: [f"{r:.3f}" for r in rs] for label, rs in ratios.items()}
    assert report(
        "C10",
        ok,
        f"tv ratios over N = 256 -> 1024 -> 4096: {shown}, required window [3.6, 4.4]; "
        f"N=256 vs dense phase sum: rel {worst_same:.2e}, vs direct convolution: abs {worst_direct:.2e}",
    )


# C11 is reserved for the mixed-target certificate.


def test_c12_rank1_mixed_bound_ties_exact_figure_of_merit():
    # a rank-1 target keeps its one class with no residual, so the exact bound is
    # the posterior average of |phi|^(2M) on a grid wider than span_N + M span_target;
    # the oracle is the autocorrelation route, which builds no grid and no class
    start = time.perf_counter()
    tri = NumberState(IntDistribution(2, np.array([0.2, 0.5, 0.3])))
    states = {"fair": FAIR, "[0.2, 0.5, 0.3]@2": tri}
    worst, where = 0.0, None
    for source_name, source in states.items():
        for target_name, target in states.items():
            for n, m in ((100, 16), (1000, 64), (4000, 300)):
                spec = PosteriorSpec.for_copies(source, n)
                dec = typical_decomposition(pure_target(target), m)
                bound = figure_of_merit_mixed_bound(spec, dec, method="exact")
                exact = figure_of_merit_exact(spec, target, m)
                rel = abs(bound - exact) / exact
                if rel >= worst:
                    worst, where = rel, (source_name, target_name, n, m)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    assert report(
        "C12",
        ok,
        f"rank-1 exact mixed bound vs figure_of_merit_exact over 12 (source, target, N, M): "
        f"largest relative gap {worst:.2e} at {where}, required <= 1e-12; {elapsed:.2f}s",
    )


def _longdouble_floor(target, counts, gamma):
    """Oracle: exp(min over rows of sum_j k_j ln|phi_j|^2), all in np.longdouble.

    |phi_j|^2 comes from direct cosine and sine sums; a count of 0 adds 0.
    """
    angles = np.asarray(gamma, dtype=np.longdouble)
    logs = []
    for comp in target.components:
        probs = comp.spectrum.probs.astype(np.longdouble)
        phases = np.multiply.outer(angles, np.arange(probs.size, dtype=np.longdouble))
        re, im = np.cos(phases) @ probs, np.sin(phases) @ probs
        with np.errstate(divide="ignore"):
            logs.append(np.log(re * re + im * im))
    k = counts.astype(np.longdouble)
    with np.errstate(invalid="ignore"):
        total = sum(np.where(k[:, [j]] == 0, 0, k[:, [j]] * logs[j]) for j in range(len(logs)))
    return np.exp(total.min(axis=0))


def _slice_ends(counts):
    """Rows of a rank-3 decomposition that start or end a run of equal first counts.

    A decomposition of rank 1 or 2 is one slice, whose ends are its first and last rows.
    """
    if counts.shape[1] < 3:
        return counts[[0, -1]]
    first = counts[:, 0]
    starts = np.flatnonzero(np.diff(first, prepend=-1))
    return counts[np.union1d(starts, np.append(starts[1:] - 1, len(first) - 1))]


def _relative(got, ref):
    return float((np.abs(got - ref) / ref).max())


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="np.longdouble is float64 here")
def test_c14_exact_floor_at_large_m_against_extended_precision():
    # ROADMAP item 2's rank-3 target; the floor is exp of a sum of M-scaled logs,
    # so a relative error of ln|phi|^2 grows M-fold in it
    start = time.perf_counter()
    tri = NumberState(IntDistribution(2, np.array([0.2, 0.5, 0.3])))
    skewed = NumberState(IntDistribution(0, np.array([0.1, 0.9])))
    target = MixedTarget((FAIR, tri, skewed), (0.2, 0.3, 0.5))
    midpoints = -math.pi + 2 * math.pi * (np.arange(257) + 0.5) / 257
    edges = np.linspace(-math.pi, math.pi, 257)  # the fair bit (and tri) vanish at +-pi
    worst, lines = 0.0, []
    for m in (64, 1024, 4096):
        dec = typical_decomposition(target, m)
        got = fidelity_mixed_lower_bound(dec, midpoints, method="exact")
        ref = _longdouble_floor(target, _slice_ends(dec.counts), midpoints) * (1 - np.longdouble(dec.residual_mass))
        kept = ref > 1e-10
        rel = float((np.abs(got[kept] - ref[kept]) / ref[kept]).max())
        worst = max(worst, rel)
        lines.append(f"M={m}: {rel:.1e} over {int(kept.sum())} angles")
    # near a zero of |phi_j|^2 the log form keeps absolute precision; at M = 1,
    # epsilon 1.0 keeps (0, 0, 1) only and 2.0 all three classes, and at M = 64
    # the ends hold fair counts of 0 and above
    worst_abs, zeros_ok = 0.0, True
    for m, eps in ((1, 1.0), (1, 2.0), (64, None)):
        dec = typical_decomposition(target, m, eps)
        got = fidelity_mixed_lower_bound(dec, edges, method="exact")
        ref = _longdouble_floor(target, _slice_ends(dec.counts), edges) * (1 - np.longdouble(dec.residual_mass))
        worst_abs = max(worst_abs, float(np.abs(got - ref).max()))
        vanishing = bool(dec.counts[:, :2].any())  # a class holds a copy of the fair bit or of tri
        zeros_ok = zeros_ok and bool(np.isfinite(got).all()) and bool(((got[[0, -1]] == 0.0) == vanishing).all())
    # spectra whose floats do not sum to 1: at M = 2^20 a rounded sum(p) - 1 moves the
    # fidelity by about 5e-11 relative, a dense phase sum's eps in |phi|^2 by about 5e-10
    uniform = NumberState(IntDistribution(3, np.ones(50) / 50))
    raw = np.random.default_rng(16).random(7)
    random7 = NumberState(IntDistribution(0, raw / raw.sum()))
    unsummed = all(math.fsum(s.spectrum.probs.tolist() + [-1.0]) != 0.0 for s in (uniform, random7))
    pair = MixedTarget((uniform, random7), (0.4, 0.6))
    bulk, bulk_points = 0.0, 0
    for m in (4096, 2**20):
        angles = np.concatenate([midpoints, midpoints / math.sqrt(m)])  # the second set spans the peak
        for state in (uniform, random7):
            ref = _longdouble_floor(pure_target(state), np.array([[m]]), angles)
            kept = ref > 1e-10
            bulk = max(bulk, _relative(fidelity_pure_exact(state, m, angles)[kept], ref[kept]))
            bulk_points += int(kept.sum())
        dec = typical_decomposition(pair, m)
        got = fidelity_mixed_lower_bound(dec, angles, method="exact")
        ref = _longdouble_floor(pair, _slice_ends(dec.counts), angles) * (1 - np.longdouble(dec.residual_mass))
        kept = ref > 1e-10
        bulk = max(bulk, _relative(got[kept], ref[kept]))
        bulk_points += int(kept.sum())
    # relative precision next to the zeros of the fair bit and tri at +-pi, where
    # |phi_j|^2 falls to 6e-7; the ends themselves are the exact-zero leg above
    inside = np.linspace(-math.pi, math.pi, 4001)[1:-1]
    near = 0.0
    for m in (1, 2, 3, 4):
        dec = typical_decomposition(target, m, 2.0)  # every class
        got = fidelity_mixed_lower_bound(dec, inside, method="exact")
        ref = _longdouble_floor(target, _slice_ends(dec.counts), inside) * (1 - np.longdouble(dec.residual_mass))
        near = max(near, _relative(got, ref))
        for state in target.components:
            ref = _longdouble_floor(pure_target(state), np.array([[m]]), inside)
            near = max(near, _relative(fidelity_pure_exact(state, m, inside), ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and worst_abs <= 1e-14 and zeros_ok and elapsed < 60.0
    ok = ok and unsummed and bulk <= 1e-12 and near <= 1e-11
    assert report(
        "C14",
        ok,
        f"exact floor vs long double oracle on 257 midpoints where it exceeds 1e-10, relative: "
        f"{'; '.join(lines)}, required <= 1e-12; on 257 angles from -pi to pi: absolute "
        f"{worst_abs:.1e}, required <= 1e-14, and 0 at +-pi exactly where a class holds a copy "
        f"of a component that vanishes there: {zeros_ok}; fidelity_pure_exact and the floor at "
        f"M = 4096 and 2^20 on spectra whose floats do not sum to 1 ({unsummed}), relative "
        f"{bulk:.1e} over {bulk_points} values above 1e-10, required <= 1e-12; both at M = 1-4 on "
        f"the 3,999 angles inside a 4,001-point grid over [-pi, pi], relative {near:.1e}, "
        f"required <= 1e-11; {elapsed:.2f}s",
    )


def _peak_error_and_support(got, exact, lo):
    """Largest |got - exact| over the kept support, relative to the peak, with the
    exact masses renormalized over that support as the library renormalizes; and
    whether the support is exactly the points whose exact mass exceeds the trim."""
    exact = np.asarray(exact, dtype=np.float64)
    start = got.offset - lo
    kept = exact[start : start + len(got)]
    dropped = np.concatenate((exact[:start], exact[start + len(got) :]))
    support = kept[[0, -1]].min() > TRIM_THRESHOLD * (1 - 1e-6) and (
        dropped.size == 0 or dropped.max() < TRIM_THRESHOLD * (1 + 1e-6)
    )
    kept = kept / kept.sum()
    return float(np.abs(got.probs - kept).max() / kept.max()), bool(support)


def test_c13_convolution_powers_against_exact_oracles(tmp_path):
    start = time.perf_counter()
    worst_binomial, worst_exact, supports = 0.0, 0.0, True
    for trials, q in ((1, 0.5), (16, 0.4)):
        probs = [math.comb(trials, k) * q**k * (1 - q) ** (trials - k) for k in range(trials + 1)]
        p = IntDistribution(0, np.array(probs) / math.fsum(probs))
        for n in (10**3, 10**4, 10**5, 10**6, 10**7):
            got = power_convolve(p, n)
            m = trials * n
            sd = math.sqrt(m * q * (1 - q))
            lo = max(0, math.floor(m * q - 12 * sd))
            err, same = _peak_error_and_support(got, binomial_pmf(m, q, lo, math.ceil(m * q + 12 * sd)), lo)
            worst_binomial, supports = max(worst_binomial, err), supports and same

    tri = IntDistribution(3, np.array([0.2, 0.5, 0.3]))
    cases = [(tri, n) for n in (2, 5, 17, 64, 100)] + [(IntDistribution(0, np.array([0.79, 0.21])), 10)]
    for p, n in cases:
        exact = exact_power(p, n)
        err, same = _peak_error_and_support(power_convolve(p, n), exact, p.offset * n)
        worst_exact, supports = max(worst_exact, err), supports and same
    # all eleven masses of [0.79, 0.21]^(*10) exceed the trim, the least being 0.21^10 = 1.7e-7
    tail = power_convolve(IntDistribution(0, np.array([0.79, 0.21])), 10)
    tail_ok = tail.offset == 0 and len(tail) == 11

    # a fair-bit u1-fom row at N = 5e10 and the N = 1e7 power, with no mass-drift warning
    config = tmp_path / "fom.json"
    config.write_text(json.dumps({
        "source": {"probs": [0.5, 0.5]}, "target": {"probs": [0.5, 0.5]},
        "n_grid": [10**7, 5 * 10**10], "m_schedule": {"a": 0.5}, "methods": ["exact", "closed"],
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["u1-fom", "--config", str(config), "--out", str(tmp_path / "fom.csv"), "--jobs", "1"])
    rows = list(csv.DictReader((tmp_path / "fom.csv").read_text().splitlines()))
    drift_warnings = [str(w.message) for w in caught if "mass drift" in str(w.message)]
    gaps = [abs(float(row["gap"])) if row["gap"] else math.inf for row in rows]
    big_row_ok = code == 0 and not any(row["error"] for row in rows) and max(gaps) <= 1e-11
    elapsed = time.perf_counter() - start

    ok = (
        worst_binomial <= 5e-13
        and worst_exact <= 5e-13
        and supports
        and tail_ok
        and big_row_ok
        and not drift_warnings
        and elapsed < 60.0
    )
    assert report(
        "C13",
        ok,
        f"vs Binomial (fair bit, Binomial(16, 0.4); N = 1e3 .. 1e7): {worst_binomial:.2e} of the peak; "
        f"vs exact rational powers (N <= 100): {worst_exact:.2e}; supports match = {supports}; "
        f"[0.79, 0.21]^10 at offset {tail.offset} with {len(tail)} points; u1-fom N = 1e7, 5e10: "
        f"exit {code}, |f_exact - f_closed| = {[f'{g:.2e}' for g in gaps]}; "
        f"drift warnings {drift_warnings}; {elapsed:.2f}s",
    )
