import json
import math

import numpy as np
import pytest

from conftest import (
    asymmetry_free,
    figure_of_merit_quadrature,
    ks_uniform,
    posterior_density_exact,
    random_state,
    wrap_angle,
)
from phaseconv import (
    IntDistribution,
    NumberState,
    PosteriorSpec,
    RateSchedule,
    fidelity_pure_exact,
    fidelity_pure_gauss,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    posterior_density_gauss,
    posterior_density_grid,
    posterior_gauss_distance,
    rate_verdict,
    sample_gamma,
)
from phaseconv.cli import exit_code_for, parse_config, run_sweep
from phaseconv.distributions import char_fn, moments, power_convolve
from phaseconv.errors import ConfigValidationError

TWO_PI = 2 * math.pi
FAIR = NumberState(IntDistribution(0, np.array([0.5, 0.5])))
VACUUM = NumberState(IntDistribution.delta(0))


class TestStandardize:
    def test_fair_bit_moments(self):
        assert FAIR.mean == pytest.approx(0.5)
        assert FAIR.variance == pytest.approx(0.25)
        assert not asymmetry_free(FAIR)

    def test_point_mass_is_asymmetry_free(self):
        assert asymmetry_free(VACUUM)
        assert VACUUM.variance == 0.0

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="^number spectrum has interior zeros$"):
            NumberState(IntDistribution(0, np.array([0.5, 0.0, 0.5])))

    def test_negative_offset_rejected(self):
        message = "^number spectrum must start at n >= 0, got offset -1$"
        with pytest.raises(ValueError, match=message):
            NumberState(IntDistribution(-1, np.array([0.5, 0.5])))


class TestPosteriorExact:
    def test_single_fair_bit_density(self):
        spec = PosteriorSpec.for_copies(FAIR, 1)
        grid = np.linspace(-math.pi, math.pi, 33)
        np.testing.assert_allclose(
            posterior_density_exact(spec, grid), (1 + np.cos(grid)) / TWO_PI, atol=1e-12
        )

    def test_asymmetry_free_source_is_uniform(self):
        spec = PosteriorSpec.for_copies(VACUUM, 7)
        grid = np.linspace(-math.pi, math.pi, 17)
        np.testing.assert_allclose(posterior_density_exact(spec, grid), 1 / TWO_PI, atol=1e-14)

    def test_peak_at_zero_and_even(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(-math.pi, math.pi, 201)
        for _ in range(5):
            spec = PosteriorSpec.for_copies(random_state(rng), int(rng.integers(1, 30)))
            dens = posterior_density_exact(spec, grid)
            assert dens.max() == pytest.approx(posterior_density_exact(spec, 0.0), abs=1e-12)
            np.testing.assert_allclose(dens, dens[::-1], atol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(1, 50))
            spec = PosteriorSpec.for_copies(random_state(rng), n)
            # midpoint rule is exact for trig polynomials once the grid
            # resolves every harmonic
            points = 2 * len(spec.ncopy_spectrum) + 3
            grid = -math.pi + TWO_PI * (np.arange(points) + 0.5) / points
            mass = posterior_density_exact(spec, grid).mean() * TWO_PI
            assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("offset", [10**6, 10**8])
    def test_large_offsets_keep_their_digits(self, offset):
        # the phase sum runs over local positions; the offset is one unit-modulus factor
        spec = PosteriorSpec.for_copies(NumberState(IntDistribution(offset, np.array([0.5, 0.5]))), 1)
        grid = np.linspace(-math.pi, math.pi, 101)
        peak = 1 / math.pi
        err = np.abs(posterior_density_exact(spec, grid) - (1 + np.cos(grid)) / TWO_PI).max()
        assert err <= 1e-14 * peak

    def test_depends_only_on_misalignment(self):
        # density in (theta0, theta) enters only through gamma = theta - theta0
        spec = PosteriorSpec.for_copies(FAIR, 3)
        for theta0, theta in [(0.3, 1.0), (-2.0, -1.3), (2.9, 3.6)]:
            gamma = wrap_angle(theta - theta0)
            assert posterior_density_exact(spec, gamma) == pytest.approx(
                posterior_density_exact(spec, 0.7), abs=1e-12
            )


class TestPosteriorGrid:
    def test_matches_dense_oracle(self):
        # random spectra; odd and even grids, grids shorter than the support,
        # cell edges and cell midpoints
        rng = np.random.default_rng(404)
        for _ in range(12):
            spec = PosteriorSpec.for_copies(random_state(rng), int(rng.integers(1, 120)))
            size = len(spec.ncopy_spectrum)
            for points in (size // 3 + 1, size - 1, 2 * size + 1, 64, 257, 1024):
                for midpoint in (False, True):
                    shift = 0.5 if midpoint else 0.0
                    grid = -math.pi + TWO_PI * (np.arange(points) + shift) / points
                    dense = posterior_density_exact(spec, grid)
                    fast = posterior_density_grid(spec, points, midpoint=midpoint)
                    assert np.abs(fast - dense).max() <= 1e-10 * dense.max()

    def test_far_offset_source(self):
        # positions near 10^6: phases come from integer residues, not n * gamma
        spec = PosteriorSpec.for_copies(NumberState(IntDistribution(10**6, np.array([0.5, 0.5]))), 1)
        grid = -math.pi + TWO_PI * (np.arange(33) + 0.5) / 33
        np.testing.assert_allclose(
            posterior_density_grid(spec, 33, midpoint=True), (1 + np.cos(grid)) / TWO_PI, atol=1e-14
        )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            posterior_density_grid(PosteriorSpec.for_copies(FAIR, 2), 0, midpoint=False)


class TestPosteriorGauss:
    def test_peak_height(self):
        spec = PosteriorSpec.for_copies(FAIR, 100)
        expected = math.sqrt(2 * 100 * 0.25 / math.pi)
        assert posterior_density_gauss(spec, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_even(self):
        spec = PosteriorSpec.for_copies(FAIR, 64)
        grid = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            posterior_density_gauss(spec, grid), posterior_density_gauss(spec, -grid), atol=0
        )

    def test_variance_is_n_times_the_source_variance(self):
        assert PosteriorSpec.for_copies(FAIR, 100).variance == 25.0
        assert PosteriorSpec.for_copies(VACUUM, 4).variance == 0.0
        skewed = NumberState(IntDistribution(2, np.array([0.2, 0.5, 0.3])))
        spec = PosteriorSpec.for_copies(skewed, 300)
        assert spec.variance == pytest.approx(moments(spec.ncopy_spectrum)[1], rel=1e-9)

    def test_zero_variance_rejected(self):
        spec = PosteriorSpec.for_copies(VACUUM, 4)
        with pytest.raises(
            ValueError, match="^asymmetry-free source: Gaussian posterior model undefined$"
        ):
            posterior_density_gauss(spec, 0.0)

    def test_tv_distance_shrinks(self):
        tvs = [
            posterior_gauss_distance(PosteriorSpec.for_copies(FAIR, n)) for n in (64, 256, 1024)
        ]
        assert tvs[0] > tvs[1] > tvs[2] > 0
        # the 1/sqrt(N) skew term drops out of |amplitude|^2 for any source,
        # leaving 1/N scaling
        for a, b in zip(tvs, tvs[1:]):
            assert a / b == pytest.approx(4.0, rel=0.1)


class TestSampling:
    def test_deterministic_per_seed(self):
        spec = PosteriorSpec.for_copies(FAIR, 16)
        a = sample_gamma(spec, 7, size=100)
        b = sample_gamma(spec, 7, size=100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample_gamma(spec, 8, size=100))

    def test_scalar_draw(self):
        spec = PosteriorSpec.for_copies(FAIR, 4)
        val = sample_gamma(spec, 0)
        assert isinstance(val, float) and -math.pi < val <= math.pi

    def test_asymmetry_free_draws_are_uniform(self):
        spec = PosteriorSpec.for_copies(VACUUM, 5)
        draws = sample_gamma(spec, 11, size=10**4)
        assert ks_uniform(draws) < 0.05

    def test_concentration_variance(self):
        spec = PosteriorSpec.for_copies(FAIR, 1024)
        draws = sample_gamma(spec, 3, size=10**4)
        # posterior ~ N(0, 1/(4 N sigma^2)) = N(0, 1/1024) at this depth
        assert draws.var() == pytest.approx(1.0 / 1024.0, rel=0.1)


class TestPureFidelity:
    def test_aligned_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            tgt = random_state(rng)
            assert fidelity_pure_exact(tgt, int(rng.integers(1, 20)), 0.0) == pytest.approx(1.0)

    def test_single_fair_bit(self):
        grid = np.linspace(-math.pi, math.pi, 41)
        np.testing.assert_allclose(
            fidelity_pure_exact(FAIR, 1, grid), np.cos(grid / 2) ** 2, atol=1e-12
        )

    def test_gaussian_limit(self):
        # M sigma^2 gamma^2 = 100 * 0.25 * 0.01 = 0.25
        val = fidelity_pure_exact(FAIR, 100, 0.1)
        assert val == pytest.approx(math.exp(-0.25), abs=0.02)
        assert fidelity_pure_gauss(0.25, 100, 0.1) == pytest.approx(math.exp(-0.25), rel=1e-12)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(-math.pi, math.pi, 4096)
        tgt = random_state(rng)
        vals = fidelity_pure_exact(tgt, 6, grid)
        assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12
        np.testing.assert_allclose(vals, fidelity_pure_exact(tgt, 6, -grid), atol=1e-12)

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(808)
        grid = np.linspace(-math.pi, math.pi, 257)
        for _ in range(10):
            tgt, m = random_state(rng), int(rng.integers(1, 300))
            ch = char_fn(power_convolve(tgt.spectrum, m), grid)
            np.testing.assert_allclose(
                fidelity_pure_exact(tgt, m, grid), ch.real**2 + ch.imag**2, rtol=0, atol=1e-12
            )
            assert fidelity_pure_exact(tgt, m, 0.4) == pytest.approx(
                abs(char_fn(power_convolve(tgt.spectrum, m), 0.4)) ** 2, abs=1e-12
            )
        with pytest.raises(ValueError):
            fidelity_pure_exact(FAIR, 0, 0.1)

    @pytest.mark.parametrize("offset", [10**6, 10**8])
    def test_large_offsets_keep_their_digits(self, offset):
        target = NumberState(IntDistribution(offset, np.array([0.5, 0.5])))
        grid = np.linspace(-math.pi, math.pi, 101)
        for m in (1, 3):
            err = np.abs(fidelity_pure_exact(target, m, grid) - np.cos(grid / 2) ** (2 * m)).max()
            assert err <= 1e-14  # the peak is 1 at gamma = 0

    def test_gauss_validation(self):
        assert fidelity_pure_gauss(0.0, 10, 1.0) == 1.0
        with pytest.raises(ValueError):
            fidelity_pure_gauss(-0.5, 10, 1.0)


class TestFigureOfMerit:
    def test_asymmetry_free_target_is_perfect(self):
        spec = PosteriorSpec.for_copies(FAIR, 32)
        assert figure_of_merit_exact(spec, VACUUM, 5) == pytest.approx(1.0, abs=1e-12)

    def test_uninformative_source_single_bit_target(self):
        # uniform posterior against fidelity cos^2(gamma/2) averages to 1/2
        spec = PosteriorSpec.for_copies(VACUUM, 10)
        assert figure_of_merit_exact(spec, FAIR, 1) == pytest.approx(0.5, abs=1e-12)

    def test_fair_bit_example(self):
        val = figure_of_merit_exact(PosteriorSpec.for_copies(FAIR, 800), FAIR, 100)
        assert val == pytest.approx(0.97014, abs=0.05)
        assert val == pytest.approx(figure_of_merit_closed(0.25, 800, 0.25, 100), abs=1e-4)

    def test_closed_form_values(self):
        assert figure_of_merit_closed(0.25, 800, 0.25, 100) == pytest.approx(
            1 / math.sqrt(1 + 100 / (2 * 800)), rel=1e-12
        )
        # M = N collapses to 1/sqrt(1.5) for any shared variance
        for var in (0.1, 0.25, 2.0):
            assert figure_of_merit_closed(var, 500, var, 500) == pytest.approx(
                1 / math.sqrt(1.5), rel=1e-12
            )
        assert figure_of_merit_closed(0.25, 10, 0.0, 10) == 1.0

    def test_closed_form_zero_source_variance(self):
        with pytest.raises(ValueError, match=r"^source variance must be positive, got 0\.0$"):
            figure_of_merit_closed(0.0, 10, 0.25, 10)

    def test_closed_form_monotonicity(self):
        up_n = [figure_of_merit_closed(0.25, n, 0.25, 64) for n in (100, 200, 400)]
        assert up_n[0] < up_n[1] < up_n[2]
        down_m = [figure_of_merit_closed(0.25, 400, 0.25, m) for m in (16, 32, 64)]
        assert down_m[0] > down_m[1] > down_m[2]

    def test_exact_tracks_closed_at_depth(self):
        up_n = [
            figure_of_merit_exact(PosteriorSpec.for_copies(FAIR, n), FAIR, 32) for n in (400, 800, 1600)
        ]
        assert up_n[0] < up_n[1] < up_n[2]
        deep = PosteriorSpec.for_copies(FAIR, 1600)
        down_m = [figure_of_merit_exact(deep, FAIR, m) for m in (16, 32, 64)]
        assert down_m[0] > down_m[1] > down_m[2]
        assert up_n[-1] == pytest.approx(figure_of_merit_closed(0.25, 1600, 0.25, 32), abs=1e-5)

    def test_quadrature_matches_fourier(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            src, tgt = random_state(rng), random_state(rng)
            n, m = int(rng.integers(1, 200)), int(rng.integers(1, 40))
            exact = figure_of_merit_exact(PosteriorSpec.for_copies(src, n), tgt, m)
            quad = figure_of_merit_quadrature(src, n, tgt, m)
            assert quad == pytest.approx(exact, abs=1e-8)

    def test_mc_deterministic_and_consistent(self):
        spec = PosteriorSpec.for_copies(FAIR, 100)
        est1, err1 = figure_of_merit_mc(spec, FAIR, 10, 2000, 5)
        est2, err2 = figure_of_merit_mc(spec, FAIR, 10, 2000, 5)
        assert (est1, err1) == (est2, err2)
        exact = figure_of_merit_exact(spec, FAIR, 10)
        assert abs(est1 - exact) < 3 * err1

    def test_mc_asymmetry_free_target(self):
        est, err = figure_of_merit_mc(PosteriorSpec.for_copies(FAIR, 50), VACUUM, 4, 500, 0)
        assert est == 1.0 and err == 0.0


class TestRateSchedules:
    def test_power_rule_values(self):
        sched = RateSchedule("power", 0.5)
        assert [sched.m_for(n) for n in (400, 1600, 6400)] == [20, 40, 80]

    def test_power_rule_snaps_float_noise(self):
        # 10^5 ** 0.8 = 10^4 exactly; ceil must not bump it to 10001
        sched = RateSchedule("power", 0.8)
        assert [sched.m_for(n) for n in (1000, 10000, 100000)] == [252, 1585, 10000]

    def test_linear_rule(self):
        sched = RateSchedule("linear", 0.5)
        assert [sched.m_for(n) for n in (10, 11)] == [5, 6]

    def test_labels(self):
        assert "0.5" in RateSchedule("power", 0.5).label
        assert "0.25" in RateSchedule("linear", 0.25).label

    def test_validation(self):
        for kind, value in [("power", 0.0), ("power", 1.5), ("linear", 0.0), ("cubic", 0.5)]:
            with pytest.raises(ValueError):
                RateSchedule(kind, value)

    def test_unit_exponent_equals_unit_slope(self):
        grid = (100, 200, 12345)
        a = [RateSchedule("power", 1.0).m_for(n) for n in grid]
        c = [RateSchedule("linear", 1.0).m_for(n) for n in grid]
        assert a == c == list(grid)


def rates_sweep(n_grid, m_schedule, **keys):
    """The rates table: a `u1-rates` sweep of the fair bit into itself."""
    fair = {"probs": [0.5, 0.5]}
    payload = {"source": fair, "target": fair, "n_grid": n_grid, "m_schedule": m_schedule, **keys}
    return run_sweep(parse_config(json.dumps(payload), "u1-rates"))


class TestRateAnalysis:
    def test_sublinear_converges(self):
        result = rates_sweep([400, 1600, 6400], {"a": 0.5})
        assert [row["M"] for row in result.rows] == [20, 40, 80]
        vals = [row["f_exact"] for row in result.rows]
        assert vals[0] < vals[1] < vals[2]
        assert result.metadata["verdict"] == "converges"
        gaps = [abs(row["gap"]) for row in result.rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_linear_plateaus(self):
        result = rates_sweep([500, 1000, 2000], {"c": 1.0})
        assert result.metadata["verdict"] == "plateaus"
        assert result.rows[-1]["f_exact"] == pytest.approx(1 / math.sqrt(1.5), abs=0.01)

    def test_fft_cap(self):
        result = rates_sweep([400, 1600], {"a": 0.5}, fft_cap=256)
        fits, capped = result.rows
        assert fits["error"] is None
        assert capped["error"] == "autocorrelation transform 512 exceeds fft_cap 256 at N=1600, M=40"
        assert exit_code_for(result.rows) == 3
        assert result.metadata["verdict"] == "indeterminate"

    def test_verdict_rule(self):
        assert rate_verdict([0.5, 0.9, 0.96]) == "converges"
        assert rate_verdict([0.5, 0.9, 0.96], threshold=0.97) == "plateaus"
        assert rate_verdict([0.5, 0.96, 0.96]) == "plateaus"  # strictly increasing only
        assert rate_verdict([0.97, 0.96]) == "plateaus"
        assert rate_verdict([0.99]) == "converges"

    def test_grid_validation(self):
        for n_grid in ([], [400, 400]):
            with pytest.raises(ConfigValidationError) as info:
                rates_sweep(n_grid, {"a": 0.5})
            assert any(p.startswith("n_grid:") for p in info.value.problems)


class TestWrapAngle:
    def test_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # half-open on the left
        assert wrap_angle(2.5 * math.pi) == pytest.approx(0.5 * math.pi)

    def test_array(self):
        out = wrap_angle(np.array([7.0, -7.0]))
        assert np.all(out > -math.pi) and np.all(out <= math.pi)
