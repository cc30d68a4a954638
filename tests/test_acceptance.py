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
    direct_power,
    exact_power,
    random_density,
    random_mixture,
    random_state,
)
from phaseconv import (
    CyclicCoeffs,
    CyclicState,
    IntDistribution,
    MixedTarget,
    PosteriorSpec,
    RateSchedule,
    brute_force_coeffs,
    canonical_coeffs,
    epsilon_schedule,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    figure_of_merit_mixed_bound,
    figure_of_merit_quadrature,
    measure_eta_basis,
    posterior_density_exact,
    posterior_gauss_distance,
    standardize,
    success_slope_fit,
    typical_decomposition,
    uhlmann_fidelity,
)
from phaseconv.cli import main
from phaseconv.distributions import TRIM_THRESHOLD, amp_char_fn, power_convolve

FAIR = standardize(IntDistribution(0, np.array([0.5, 0.5])))
FAIR1 = standardize(IntDistribution(1, np.array([0.5, 0.5])))


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c1_closed_form_convergence():
    start = time.perf_counter()
    grid = [(400, 20), (1600, 40), (6400, 80)]
    exact = [figure_of_merit_exact(FAIR, n, FAIR, m) for n, m in grid]
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
    vals = [figure_of_merit_exact(FAIR, n, FAIR, m) for n, m in zip(grid, ms)]
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
    vals = [figure_of_merit_exact(FAIR, n, FAIR, n) for n in (2000, 4000, 8000)]
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
    certainty = [
        abs(measure_eta_basis(CyclicState.eta(d, m))[m] - 1.0) for d in (2, 3, 5) for m in range(d)
    ]
    elapsed = time.perf_counter() - start

    ok = rel_dev <= 0.05 and max(certainty) <= 1e-12 and elapsed < 1.0
    assert report(
        "C5",
        ok,
        f"slope {fit.slope:.6f} vs 2*ln(0.8) = {fit.slope_theory:.6f} ({rel_dev:.2%}); "
        f"eta seed certainty dev {max(certainty):.2e}; {elapsed:.3f}s",
    )


def test_c6_canonical_matches_enumeration():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for n in range(1, 9):
            for _ in range(50):
                p = rng.uniform(0.02, 1.0, d)
                coeffs = CyclicCoeffs(p / p.sum())
                diff = np.abs(
                    canonical_coeffs(coeffs, n).probs - brute_force_coeffs(coeffs, n).probs
                ).max()
                worst = max(worst, diff)
    ok = worst <= 1e-12
    assert report("C6", ok, f"max |canonical - brute force| = {worst:.3e} over 4x8x50 instances")


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

    worst_concavity = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        a1, a2 = random_density(rng, dim), random_density(rng, dim)
        b1, b2 = random_density(rng, dim), random_density(rng, dim)
        lam = float(rng.uniform(0.05, 0.95))
        mixed = uhlmann_fidelity(lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2)
        split = lam * uhlmann_fidelity(a1, b1) + (1 - lam) * uhlmann_fidelity(a2, b2)
        worst_concavity = min(worst_concavity, mixed - split)

    worst_excess = -1.0
    for _ in range(25):
        target = random_mixture(rng, max_rank=2)
        for m in (1, 2, 3):
            for gamma in (0.1, 0.6, 1.5):
                exact = exact_mixed_fidelity_small(target, m, gamma)
                bound = fidelity_mixed_lower_bound(target, m, gamma, epsilon=2.0, method="exact")
                worst_excess = max(worst_excess, bound - exact)

    ok = worst_mult <= 1e-10 and worst_concavity >= -1e-10 and worst_excess <= 1e-10
    assert report(
        "C8",
        ok,
        f"multiplicativity dev {worst_mult:.2e}; concavity slack {worst_concavity:.2e}; "
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
        exact = figure_of_merit_exact(src, n, tgt, m)
        quad = figure_of_merit_quadrature(src, n, tgt, m)
        est, err = figure_of_merit_mc(
            src, n, tgt, m, 4000, np.random.default_rng(np.random.SeedSequence([2024, i]))
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
        state = standardize(IntDistribution(0, np.array(probs)))
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
    tri = standardize(IntDistribution(2, np.array([0.2, 0.5, 0.3])))
    states = {"fair": FAIR, "[0.2, 0.5, 0.3]@2": tri}
    worst, where = 0.0, None
    for source_name, source in states.items():
        for target_name, target in states.items():
            for n, m in ((100, 16), (1000, 64), (4000, 300)):
                bound = figure_of_merit_mixed_bound(
                    source, n, MixedTarget.pure(target), m, method="exact"
                ).f_bound
                exact = figure_of_merit_exact(source, n, target, m)
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
    rows = list(csv.DictReader((tmp_path / "fom.csv").open()))
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
