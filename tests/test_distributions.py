import math
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import convolve, direct_power, gaussian_pmf, l1_distance, random_spectrum
from phaseconv import PrecisionLossError
from phaseconv import distributions
from phaseconv.distributions import (
    IntDistribution,
    amp_char_fn,
    char_fn,
    log_char_sq,
    moments,
    power_convolve,
    power_support_bound,
)

FAIR = IntDistribution(0, np.array([0.5, 0.5]))


class TestIntDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntDistribution(0, np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            IntDistribution(0, np.array([0.5, 0.4]))  # sums to 0.9
        with pytest.raises(ValueError):
            IntDistribution(0, np.array([0.0, 1.0]))  # untrimmed edge
        with pytest.raises(ValueError):
            IntDistribution(0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            IntDistribution(0, np.array([]))

    def test_probs_read_only(self):
        with pytest.raises(ValueError):
            FAIR.probs[0] = 0.9

    def test_from_raw_trims_and_renormalizes(self):
        p = IntDistribution.from_raw(2, [1e-15, 0.5, 0.5, 1e-15])
        assert p.offset == 3
        assert len(p) == 2
        np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-12)

    def test_delta_and_support(self):
        d = IntDistribution.delta(4)
        assert d.offset == 4 and d.probs.tolist() == [1.0]
        assert FAIR.support.tolist() == [0, 1]
        assert FAIR.span == 1

    def test_interior_zero_allowed(self):
        # gap checks live at the state level, not here
        p = IntDistribution(0, np.array([0.5, 0.0, 0.5]))
        assert p.span == 2


class TestConvolve:
    def test_fair_bit_square(self):
        out = convolve(FAIR, FAIR)
        assert out.offset == 0
        np.testing.assert_allclose(out.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_delta_identity(self):
        p = IntDistribution(1, np.array([0.3, 0.7]))
        out = convolve(p, IntDistribution.delta(0))
        assert out.offset == 1
        np.testing.assert_allclose(out.probs, p.probs, atol=1e-15)

    def test_biased_bit(self):
        p = IntDistribution(0, np.array([0.9, 0.1]))
        out = convolve(p, p)
        np.testing.assert_allclose(out.probs, [0.81, 0.18, 0.01], atol=1e-12)

    def test_offsets_add(self):
        a = IntDistribution(2, np.array([0.5, 0.5]))
        b = IntDistribution(3, np.array([0.4, 0.6]))
        assert convolve(a, b).offset == 5


class TestPowerConvolve:
    def test_binomial_fourth_power(self):
        out = power_convolve(FAIR, 4)
        np.testing.assert_allclose(out.probs, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-12)

    def test_single_copy_unchanged(self):
        out = power_convolve(FAIR, 1)
        assert out.offset == 0
        np.testing.assert_allclose(out.probs, FAIR.probs, atol=0)

    def test_point_mass_power(self):
        out = power_convolve(IntDistribution.delta(3), 17)
        assert out.offset == 51 and out.probs.tolist() == [1.0]

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_spectrum(rng, max_len=8)
            n = int(rng.integers(2, 33))
            assert l1_distance(power_convolve(p, n), direct_power(p, n)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64])
    def test_moment_scaling(self, n):
        p = IntDistribution(1, np.array([0.2, 0.5, 0.3]))
        mu, var = moments(p)
        mu_n, var_n = moments(power_convolve(p, n))
        assert mu_n == pytest.approx(n * mu, rel=1e-9)
        assert var_n == pytest.approx(n * var, rel=1e-9)

    def test_result_normalized(self):
        p = IntDistribution(0, np.array([0.3, 0.7]))
        assert power_convolve(p, 50).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_budget_warn_and_fail(self, monkeypatch):
        p = IntDistribution(0, np.array([0.3, 0.7]))
        # a coarse trim drops 0.3^9 = 2.0e-5 of mass, so the drift is nonzero by
        # construction, and zero tolerance turns it into a reportable drift
        monkeypatch.setattr(distributions, "TRIM_THRESHOLD", 1e-4)
        monkeypatch.setattr(distributions, "MASS_WARN", 0.0)
        monkeypatch.setattr(distributions, "MASS_FAIL", 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            power_convolve(p, 9)
        assert any("mass" in str(w.message) for w in caught)
        monkeypatch.setattr(distributions, "MASS_FAIL", 0.0)
        with pytest.raises(PrecisionLossError):
            power_convolve(p, 9)

    def test_invalid_copy_count(self):
        with pytest.raises(ValueError):
            power_convolve(FAIR, 0)

    def test_transforms_no_longer_than_twice_the_support_bound(self, monkeypatch):
        # fft_cap bounds power_support_bound, so it bounds the allocation too
        lengths = []

        def recording(real):
            return lambda a, n=None, *args, **kw: lengths.append(n) or real(a, n, *args, **kw)

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        binom20 = [math.comb(20, k) * 0.3**k * 0.7 ** (20 - k) for k in range(21)]
        for probs in ([0.5, 0.5], [0.9, 0.1], [0.5, 0.001, 0.499], binom20, [0.4] + [0.2 / 15] * 15 + [0.4]):
            p = IntDistribution(0, np.array(probs) / math.fsum(probs))
            for n in (2, 10, 71, 150, 340, 1000, 12345, 10**5, 10**6):
                lengths.clear()
                power_convolve(p, n)
                assert max(lengths) <= 2 ** (2 * power_support_bound(p, n) - 1).bit_length(), (probs, n)

    def test_sublattice_power_is_the_spread_power(self):
        # |phi| returns to 1 at theta = pi on even support; the power must not
        # pick up round-off there, at small N or large
        gapped = IntDistribution(2, np.array([0.3, 0.0, 0.7]))
        for n in (2, 7, 30):
            assert l1_distance(power_convolve(gapped, n), direct_power(gapped, n)) <= 1e-13
        for n in (1000, 10**6):
            got = power_convolve(gapped, n)
            want = power_convolve(IntDistribution(1, np.array([0.3, 0.7])), n)
            assert got.offset == 2 * want.offset and len(got) == 2 * len(want) - 1
            assert np.array_equal(got.probs[::2], want.probs) and not got.probs[1::2].any()


    @pytest.mark.filterwarnings("ignore:power_convolve mass drift")
    def test_trimmed_length_within_support_bound(self):
        binom20 = [math.comb(20, k) * 0.3**k * 0.7 ** (20 - k) for k in range(21)]
        for probs in ([0.5, 0.5], [0.9, 0.1], binom20):
            p = IntDistribution(0, np.array(probs) / math.fsum(probs))
            for n in (1, 2, 3, 7, 100, 1000, 12345, 10**5, 10**6, 10**7):
                assert len(power_convolve(p, n)) <= power_support_bound(p, n)
        # a fair bit at N=10^7: 22,889 trimmed points against 10^7 + 1 untrimmed
        assert power_support_bound(FAIR, 10**7) == 26546
        assert power_support_bound(IntDistribution.delta(3), 10**7) == 1

# Copy numbers from 2 to about 5*10^5, for a fair bit and for an offset spectrum
# trimmed at 1e-12.  The cases below check that a power has the same bits whatever
# the call order or thread, and that power_convolve leaves the value of the
# distribution it reads unchanged.
POWER_NS = (2, 3, 5, 8, 100, 1023, 1024, 4097, 65_535, 99_999, 123_457, 262_144, 500_001)
POWER_CASES = [
    (FAIR, distributions.TRIM_THRESHOLD),
    (IntDistribution(7, np.array([0.2, 0.5, 0.3])), 1e-12),
]


def _fresh_power(p, n):
    """The power of an equal distribution that no earlier call has read."""
    return power_convolve(IntDistribution(p.offset, p.probs.copy()), n)


@pytest.mark.filterwarnings("ignore:power_convolve mass drift")
class TestSameBits:
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    @pytest.mark.parametrize("case", range(len(POWER_CASES)), ids=["fair", "offset-trim"])
    def test_same_bits_in_any_call_order(self, monkeypatch, order, case):
        p, trim = POWER_CASES[case]
        monkeypatch.setattr(distributions, "TRIM_THRESHOLD", trim)
        ns = list(POWER_NS)
        if order == "decreasing":
            ns.reverse()
        elif order == "shuffled":
            np.random.default_rng(11).shuffle(ns)
        shared = IntDistribution(p.offset, p.probs.copy())
        for n in ns:
            got = power_convolve(shared, n)
            want = _fresh_power(p, n)
            assert got.offset == want.offset, n
            assert np.array_equal(got.probs, want.probs), n

    def test_threads_sharing_a_distribution_get_the_serial_bits(self):
        p = IntDistribution(1, np.array([0.1, 0.6, 0.3]))
        # more threads than cores, all reading one distribution
        ns = (99_999, 500_001, 262_145, 123_457)
        want = [_fresh_power(p, n) for n in ns]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = IntDistribution(p.offset, p.probs.copy())
                barrier = threading.Barrier(len(ns), timeout=60)
                got = [None] * len(ns)

                def run(i):
                    barrier.wait()
                    got[i] = power_convolve(shared, ns[i])

                threads = [threading.Thread(target=run, args=(i,)) for i in range(len(ns))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for g, w in zip(got, want):
                    assert g.offset == w.offset and np.array_equal(g.probs, w.probs)
        finally:
            sys.setswitchinterval(interval)

    def test_input_distribution_unchanged(self):
        p = IntDistribution(3, np.array([0.25, 0.5, 0.25]))
        pickled, text = pickle.dumps(p), repr(p)
        power_convolve(p, 1000)
        assert pickle.dumps(p) == pickled
        assert repr(p) == text
        clone = pickle.loads(pickle.dumps(p))
        assert np.array_equal(power_convolve(clone, 777).probs, power_convolve(p, 777).probs)


class TestMoments:
    def test_examples(self):
        assert moments(FAIR) == (pytest.approx(0.5), pytest.approx(0.25))
        assert moments(IntDistribution.delta(3)) == (pytest.approx(3.0), pytest.approx(0.0, abs=1e-15))
        mu, var = moments(IntDistribution(0, np.array([0.9, 0.1])))
        assert mu == pytest.approx(0.1) and var == pytest.approx(0.09)


class TestGaussianPmf:
    def test_standard_normal_mass_at_zero(self):
        out = gaussian_pmf(0.0, 1.0, (-8, 8))
        idx = 0 - out.offset
        assert out.probs[idx] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)

    def test_moments_recovered(self):
        out = gaussian_pmf(50.0, 25.0, (0, 100))
        mu, var = moments(out)
        assert mu == pytest.approx(50.0, abs=1e-9)
        assert var == pytest.approx(25.0, rel=1e-3)

    def test_narrow_support_rejected(self):
        with pytest.raises(ValueError, match="truncates mass"):
            gaussian_pmf(0.0, 100.0, (-5, 5))

    def test_invalid_variance(self):
        for variance in (-1.0, 0.0):
            with pytest.raises(ValueError, match="variance must be positive"):
                gaussian_pmf(0.0, variance)

    def test_auto_support(self):
        out = gaussian_pmf(10.0, 4.0)
        mu, var = moments(out)
        assert mu == pytest.approx(10.0, abs=1e-9)
        assert var == pytest.approx(4.0, rel=1e-3)


class TestL1Distance:
    def test_trivial_cases(self):
        assert l1_distance(FAIR, FAIR) == 0.0
        disjoint = l1_distance(IntDistribution.delta(0), IntDistribution.delta(9))
        assert disjoint == pytest.approx(2.0)

    def test_binomial_vs_gaussian_improves_with_n(self):
        def gap(n):
            b = power_convolve(FAIR, n)
            g = gaussian_pmf(n * 0.5, n * 0.25, (b.offset, b.offset + len(b) - 1))
            return l1_distance(b, g)

        gaps = [gap(n) for n in (64, 256, 1024)]
        assert gaps[0] > gaps[1] > gaps[2] > 0
        # successive 4x copy increases shrink the gap at least sqrt(4)-fold;
        # for a symmetric source the skew correction cancels and the measured
        # ratio sits near 4 (the 1/N term dominates)
        for a, b in zip(gaps, gaps[1:]):
            assert a / b >= 1.4
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


class TestCharacteristicFunctions:
    def test_char_fn_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = random_spectrum(rng)
            assert char_fn(p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_char_fn_fair_bit(self):
        g = 0.7
        expected = 0.5 + 0.5 * np.exp(1j * g)
        assert char_fn(FAIR, g) == pytest.approx(expected, abs=1e-12)

    def test_char_fn_point_mass_modulus(self):
        gammas = np.linspace(-np.pi, np.pi, 64)
        vals = char_fn(IntDistribution.delta(5), gammas)
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)
        np.testing.assert_allclose(vals, np.exp(1j * 5 * gammas), atol=1e-12)

    def test_char_fn_bounded_on_grid(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
        for _ in range(8):
            vals = np.abs(char_fn(random_spectrum(rng), grid))
            assert vals.max() <= 1.0 + 1e-12

    def test_amp_char_fn_examples(self):
        grid = np.linspace(-np.pi, np.pi, 7)
        np.testing.assert_allclose(amp_char_fn(IntDistribution.delta(0), grid), 1.0, atol=1e-15)
        assert amp_char_fn(FAIR, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(amp_char_fn(FAIR, math.pi)) < 1e-12

    def test_amp_char_fn_array_matches_scalar(self):
        rng = np.random.default_rng(8)
        p = random_spectrum(rng)
        gammas = rng.uniform(-np.pi, np.pi, 2000)
        batch = amp_char_fn(p, gammas)
        single = np.array([amp_char_fn(p, g) for g in gammas[:25]])
        np.testing.assert_allclose(batch[:25], single, atol=1e-14)


class TestLogCharSq:
    def test_offsets_do_not_enter(self):
        rng = np.random.default_rng(41)
        spectra = [random_spectrum(rng), IntDistribution(0, np.array([0.25, 0.5, 0.25]))]
        grid = np.linspace(-np.pi, np.pi, 1001)
        near = log_char_sq(spectra, grid)
        assert (np.exp(near[1]) < distributions._DENSE_BELOW).any()  # the dense sum runs too
        far = log_char_sq([IntDistribution(p.offset + 10**8, p.probs) for p in spectra], grid)
        assert np.array_equal(near, far)

    def test_shape(self):
        spectra = [FAIR, IntDistribution(2, np.array([0.2, 0.5, 0.3]))]
        assert log_char_sq(spectra, 0.3).shape == (2,)
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = log_char_sq(spectra, grid)
        assert out.shape == (2, 3, 4)
        np.testing.assert_array_equal(out[1], log_char_sq(spectra[1:], grid.reshape(-1))[0].reshape(3, 4))

    def test_fair_bit_vanishes_at_pi(self):
        out = log_char_sq([FAIR], np.array([-np.pi, 0.0, np.pi]))
        assert out[0, 0] == -np.inf and out[0, 2] == -np.inf and out[0, 1] == 0.0

    def test_matches_char_fn(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(-np.pi, np.pi, 4096)
        spectra = [random_spectrum(rng, max_len=12) for _ in range(8)]
        logs = log_char_sq(spectra, grid)
        for p, row in zip(spectra, logs):
            ch = char_fn(p, grid)
            np.testing.assert_allclose(np.exp(row), ch.real**2 + ch.imag**2, rtol=0, atol=1e-15)

    def test_at_zero_is_twice_the_log_of_the_float_sum(self):
        p = IntDistribution(0, np.ones(50) / 50)
        excess = math.fsum(p.probs.tolist() + [-1.0])  # the floats sum to 1 + 2.1e-17
        assert excess != 0.0
        assert log_char_sq([p], 0.0)[0] == pytest.approx(2.0 * math.log1p(excess), rel=1e-15)
