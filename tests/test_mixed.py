import math

import numpy as np
import pytest

from conftest import (
    class_number_distribution,
    direct_power,
    random_density,
    random_mixture,
    random_state,
)
from phaseconv import (
    CombinatorialBlowupError,
    DensityMatrix,
    IntDistribution,
    MixedTarget,
    ResourceCapError,
    epsilon_schedule,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    fidelity_pure_gauss,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mixed_bound,
    standardize,
    typeclass_gaussian,
    typical_decomposition,
    uhlmann_fidelity,
)
from phaseconv.distributions import char_fn, convolve, moments
from phaseconv.mixed import class_fidelity_exact, class_fidelity_gauss, embedded_density

FAIR0 = standardize(IntDistribution(0, np.array([0.5, 0.5])))
FAIR1 = standardize(IntDistribution(1, np.array([0.5, 0.5])))
HALF_HALF = MixedTarget((FAIR0, FAIR1), (0.5, 0.5))


class TestMixedTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixedTarget((FAIR0, FAIR1), (0.6, 0.6))
        with pytest.raises(ValueError):
            MixedTarget((FAIR0, FAIR1), (1.1, -0.1))
        with pytest.raises(ValueError):
            MixedTarget((FAIR0,), (0.5, 0.5))
        with pytest.raises(ValueError):
            MixedTarget((), ())

    def test_pure_wrapper(self):
        t = MixedTarget.pure(FAIR0)
        assert t.rank == 1 and t.weights == (1.0,)

    def test_component_variances(self):
        np.testing.assert_allclose(HALF_HALF.component_variances, [0.25, 0.25])


class TestEpsilonSchedule:
    def test_frozen_value(self):
        # ((ln 16)/16)^(1/4)
        assert epsilon_schedule(16) == pytest.approx(0.6451955560749383, abs=1e-12)

    def test_decreasing(self):
        vals = [epsilon_schedule(m) for m in range(3, 60)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_wide_relative_to_clt(self):
        # epsilon shrinks slower than 1/sqrt(M), so the typical ball keeps
        # swallowing more standard deviations as M grows
        ratio = [epsilon_schedule(m) * math.sqrt(m / math.log(m)) for m in (10**2, 10**4, 10**6)]
        assert ratio[0] < ratio[1] < ratio[2]

    def test_needs_two_copies(self):
        with pytest.raises(ValueError):
            epsilon_schedule(1)


class TestTypicalDecomposition:
    def test_pure_target_single_class(self):
        dec = typical_decomposition(MixedTarget.pure(FAIR0), 12)
        assert dec.n_classes == 1
        assert dec.classes[0].counts == (12,)
        assert dec.classes[0].weight == pytest.approx(1.0, abs=1e-12)
        assert dec.residual_mass == pytest.approx(0.0, abs=1e-12)

    def test_fair_mixture_four_copies(self):
        dec = typical_decomposition(HALF_HALF, 4, epsilon=0.5)
        assert sorted(c.counts for c in dec.classes) == [(1, 3), (2, 2), (3, 1)]
        assert dec.residual_mass == pytest.approx(0.125, abs=1e-12)

    def test_full_ball_has_no_residual(self):
        dec = typical_decomposition(HALF_HALF, 6, epsilon=2.0)
        assert dec.n_classes == 7
        assert dec.residual_mass == pytest.approx(0.0, abs=1e-12)

    def test_mass_accounting(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            target = random_mixture(rng)
            m = int(rng.integers(2, 40))
            dec = typical_decomposition(target, m)
            total = sum(c.weight for c in dec.classes) + dec.residual_mass
            assert total == pytest.approx(1.0, abs=1e-12)
            assert dec.residual_mass >= 0.0

    def test_classes_respect_the_ball(self):
        rng = np.random.default_rng(4)
        target = random_mixture(rng, max_rank=3)
        m = 20
        dec = typical_decomposition(target, m)
        t = np.asarray(target.weights)
        for cls_ in dec.classes:
            dist = np.abs(np.asarray(cls_.counts) / m - t).sum()
            assert dist <= dec.epsilon_used + 1e-9

    def test_weights_match_exact_multinomial(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            target = random_mixture(rng)
            m = int(rng.integers(2, 13))
            dec = typical_decomposition(target, m, epsilon=2.0)
            for cls_ in dec.classes:
                coeff = math.factorial(m)
                for k in cls_.counts:
                    coeff //= math.factorial(k)
                exact = float(coeff)
                for k, t in zip(cls_.counts, target.weights):
                    exact *= t**k
                assert cls_.weight == pytest.approx(exact, rel=1e-12)

    def test_residual_shrinks_along_schedule(self):
        deltas = [typical_decomposition(HALF_HALF, m).residual_mass for m in (16, 64, 256, 1024)]
        assert all(a > b or b == 0.0 for a, b in zip(deltas, deltas[1:]))
        assert deltas[0] < 0.01

    def test_class_cap(self):
        rng = np.random.default_rng(1)
        target = random_mixture(rng, max_rank=3)
        while target.rank < 3:
            target = random_mixture(rng, max_rank=3)
        with pytest.raises(CombinatorialBlowupError):
            typical_decomposition(target, 4000, epsilon=2.0, class_cap=100)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            typical_decomposition(HALF_HALF, 4, epsilon=0.0)


class TestTypeclassGaussian:
    def test_single_component(self):
        mu, sigma = typeclass_gaussian(MixedTarget.pure(FAIR1), (8,), 8)
        assert mu == pytest.approx(FAIR1.mean)
        assert sigma == pytest.approx(math.sqrt(FAIR1.variance))

    def test_even_split(self):
        mu, sigma = typeclass_gaussian(HALF_HALF, (2, 2), 4)
        assert mu == pytest.approx(1.0)
        assert sigma == pytest.approx(0.5)

    def test_variance_matches_convolution_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            target = random_mixture(rng, max_rank=2)
            m = int(rng.integers(2, 10))
            counts = rng.multinomial(m, target.weights)
            if np.any(counts == 0):
                continue
            mu, sigma = typeclass_gaussian(target, tuple(counts), m)
            # independent-sum oracle: convolve the per-copy laws directly
            law = None
            for k, comp in zip(counts, target.components):
                part = direct_power(comp.spectrum, int(k))
                law = part if law is None else convolve(law, part)
            mu_o, var_o = moments(law)
            assert m * mu == pytest.approx(mu_o, rel=1e-9)
            assert m * sigma**2 == pytest.approx(var_o, rel=1e-9)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            typeclass_gaussian(HALF_HALF, (3, 2), 4)
        with pytest.raises(ValueError):
            typeclass_gaussian(HALF_HALF, (4,), 4)


class TestClassNumberDistribution:
    def test_moments(self):
        dec = typical_decomposition(HALF_HALF, 8, epsilon=2.0)
        for cls_ in dec.classes:
            law = class_number_distribution(HALF_HALF, cls_.counts)
            mu, var = moments(law)
            assert mu == pytest.approx(8 * cls_.mu, rel=1e-9)
            assert var == pytest.approx(8 * cls_.sigma_sq, rel=1e-9, abs=1e-12)


class TestClassFidelityExact:
    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(515)
        grid = np.linspace(-math.pi, math.pi, 129)
        for _ in range(6):
            target = random_mixture(rng)
            m = int(rng.integers(2, 40))
            for cls_ in typical_decomposition(target, m).classes:
                ch = char_fn(class_number_distribution(target, cls_.counts), grid)
                np.testing.assert_allclose(
                    class_fidelity_exact(target, cls_, grid), ch.real**2 + ch.imag**2,
                    rtol=0, atol=1e-12,
                )


class TestMixedLowerBound:
    def test_floor_is_min_over_every_class(self):
        rng = np.random.default_rng(616)
        grid = np.linspace(-math.pi, math.pi, 65)
        for _ in range(6):
            target = random_mixture(rng)
            m = int(rng.integers(2, 40))
            dec = typical_decomposition(target, m)
            for method, fid in (
                ("gauss", lambda c: class_fidelity_gauss(c, m, grid)),
                ("exact", lambda c: class_fidelity_exact(target, c, grid)),
            ):
                stacked = np.min([fid(c) for c in dec.classes], axis=0)
                bound = fidelity_mixed_lower_bound(target, m, grid, method=method, decomposition=dec)
                np.testing.assert_array_equal(bound, (1.0 - dec.residual_mass) * stacked)

    def test_aligned_gives_one_minus_delta(self):
        dec = typical_decomposition(HALF_HALF, 16)
        bound = fidelity_mixed_lower_bound(HALF_HALF, 16, 0.0)
        assert bound == pytest.approx(1.0 - dec.residual_mass, abs=1e-12)

    def test_pure_target_matches_gauss_fidelity(self):
        grid = np.linspace(-0.5, 0.5, 9)
        bound = fidelity_mixed_lower_bound(MixedTarget.pure(FAIR0), 32, grid)
        np.testing.assert_allclose(bound, fidelity_pure_gauss(0.25, 32, grid), atol=1e-12)

    def test_worked_example(self):
        # M=4, eps=0.5 keeps 0.875 of the mass; every kept class has
        # sigma^2 = 0.25, so F_min = exp(-4 * 0.25 * 0.01)
        bound = fidelity_mixed_lower_bound(HALF_HALF, 4, 0.1, epsilon=0.5)
        assert bound == pytest.approx(0.875 * math.exp(-4 * 0.25 * 0.01), rel=1e-12)
        assert bound == pytest.approx(0.8662936045305215, abs=1e-12)

    def test_never_exceeds_exact_small_m(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            target = random_mixture(rng, max_rank=2)
            for m in (1, 2, 3):
                for gamma in (0.1, 0.7, 2.0):
                    exact = exact_mixed_fidelity_small(target, m, gamma)
                    bound = fidelity_mixed_lower_bound(target, m, gamma, epsilon=2.0, method="exact")
                    assert bound <= exact + 1e-10

    def test_method_validation(self):
        with pytest.raises(ValueError):
            fidelity_mixed_lower_bound(HALF_HALF, 4, 0.0, method="pade")


class TestMixedFigureOfMerit:
    def test_pure_target_tracks_exact(self):
        res = figure_of_merit_mixed_bound(FAIR0, 1600, MixedTarget.pure(FAIR0), 40)
        exact = figure_of_merit_exact(FAIR0, 1600, FAIR0, 40)
        assert res.f_bound == pytest.approx(exact, abs=0.02)

    def test_deep_sweep_value(self):
        res = figure_of_merit_mixed_bound(FAIR0, 6400, HALF_HALF, 64)
        assert res.f_bound == pytest.approx(0.9974850312146089, rel=1e-9)
        dec = res.decomposition
        floor = 0.9 * (1 - dec.residual_mass) * figure_of_merit_closed(0.25, 6400, 0.25, 64)
        assert res.f_bound >= floor

    def test_bounded_by_one(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            res = figure_of_merit_mixed_bound(
                random_state(rng), int(rng.integers(10, 200)), random_mixture(rng), 8
            )
            assert -1e-12 <= res.f_bound <= 1 + 1e-9


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2

    def test_from_pure_normalizes(self):
        dm = DensityMatrix.from_pure(np.array([2.0, 0.0]))
        np.testing.assert_allclose(dm.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


class TestUhlmannFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(18)
        for dim in (2, 3, 5):
            rho = random_density(rng, dim)
            assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_pure_states_overlap(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            phi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            f = uhlmann_fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            assert f == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-10)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a, b = random_density(rng, 3), random_density(rng, 3)
            f = uhlmann_fidelity(a, b)
            assert f == pytest.approx(uhlmann_fidelity(b, a), abs=1e-10)
            assert -1e-12 <= f <= 1 + 1e-12

    def test_multiplicative_under_tensor(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            if d1 * d2 > 6:
                d2 = 2
            a1, b1 = random_density(rng, d1), random_density(rng, d1)
            a2, b2 = random_density(rng, d2), random_density(rng, d2)
            lhs = uhlmann_fidelity(np.kron(a1, a2), np.kron(b1, b2))
            rhs = uhlmann_fidelity(a1, b1) * uhlmann_fidelity(a2, b2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_jointly_concave_in_mixing(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            a1, a2 = random_density(rng, dim), random_density(rng, dim)
            b1, b2 = random_density(rng, dim), random_density(rng, dim)
            lam = float(rng.uniform(0.05, 0.95))
            mixed = uhlmann_fidelity(lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2)
            split = lam * uhlmann_fidelity(a1, b1) + (1 - lam) * uhlmann_fidelity(a2, b2)
            assert mixed >= split - 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            uhlmann_fidelity(np.eye(2) / 2, np.eye(3) / 3)


class TestExactEmbedding:
    def test_embedded_density_is_a_state(self):
        rng = np.random.default_rng(70)
        target = random_mixture(rng)
        rho = embedded_density(target, 0.3)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_aligned_fidelity_is_one(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            target = random_mixture(rng)
            assert exact_mixed_fidelity_small(target, 2, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_two_copies_square_single_copy(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            target = random_mixture(rng)
            gamma = float(rng.uniform(-2, 2))
            f1 = exact_mixed_fidelity_small(target, 1, gamma)
            f2 = exact_mixed_fidelity_small(target, 2, gamma)
            assert f2 == pytest.approx(f1**2, abs=1e-10)

    def test_copy_limit(self):
        with pytest.raises(ValueError):
            exact_mixed_fidelity_small(HALF_HALF, 4, 0.1)

    def test_dim_cap(self):
        with pytest.raises(ResourceCapError):
            exact_mixed_fidelity_small(HALF_HALF, 3, 0.1, dim_cap=16)
