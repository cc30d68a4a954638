import math

import numpy as np
import pytest

from conftest import (
    class_number_distribution,
    convolve,
    direct_power,
    embedded_density,
    kron_mixed_fidelity,
    pure_target,
    random_density,
    random_mixture,
    random_state,
    typical_classes_brute,
    uhlmann_fidelity,
)
from phaseconv import (
    IntDistribution,
    MixedTarget,
    NumberState,
    PosteriorSpec,
    ResourceCapError,
    TypicalDecomposition,
    epsilon_schedule,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    fidelity_pure_gauss,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mixed_bound,
    fidelity_pure_exact,
    typical_decomposition,
)
from phaseconv.distributions import char_fn, moments
from phaseconv import mixed
from phaseconv.mixed import DEFAULT_CLASS_CAP

FAIR0 = NumberState(IntDistribution(0, np.array([0.5, 0.5])))
FAIR1 = NumberState(IntDistribution(1, np.array([0.5, 0.5])))
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
        t = pure_target(FAIR0)
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
        dec = typical_decomposition(pure_target(FAIR0), 12)
        assert dec.n_classes == 1
        assert dec.counts.tolist() == [[12]]
        assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert dec.residual_mass == pytest.approx(0.0, abs=1e-12)

    def test_fair_mixture_four_copies(self):
        dec = typical_decomposition(HALF_HALF, 4, epsilon=0.5)
        assert dec.target is HALF_HALF and dec.m_copies == 4
        assert dec.counts.tolist() == [[1, 3], [2, 2], [3, 1]]
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
            total = math.fsum(dec.weights) + dec.residual_mass
            assert total == pytest.approx(1.0, abs=1e-12)
            assert dec.residual_mass >= 0.0

    def test_classes_respect_the_ball(self):
        rng = np.random.default_rng(4)
        target = random_mixture(rng, max_rank=3)
        m = 20
        dec = typical_decomposition(target, m)
        t = np.asarray(target.weights)
        for counts in dec.counts:
            dist = np.abs(counts / m - t).sum()
            assert dist <= dec.epsilon_used + 1e-9

    def test_weights_match_exact_multinomial(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            target = random_mixture(rng)
            m = int(rng.integers(2, 13))
            dec = typical_decomposition(target, m, epsilon=2.0)
            for counts, weight in zip(dec.counts.tolist(), dec.weights):
                coeff = math.factorial(m)
                for k in counts:
                    coeff //= math.factorial(k)
                exact = float(coeff)
                for k, t in zip(counts, target.weights):
                    exact *= t**k
                assert weight == pytest.approx(exact, rel=1e-12)

    def test_residual_shrinks_along_schedule(self):
        deltas = [typical_decomposition(HALF_HALF, m).residual_mass for m in (16, 64, 256, 1024)]
        assert all(a > b or b == 0.0 for a, b in zip(deltas, deltas[1:]))
        assert deltas[0] < 0.01

    def test_class_cap(self):
        rng = np.random.default_rng(1)
        target = random_mixture(rng, max_rank=3)
        while target.rank < 3:
            target = random_mixture(rng, max_rank=3)
        with pytest.raises(ResourceCapError):
            typical_decomposition(target, 4000, epsilon=2.0, class_cap=100)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_class_cap_sees_the_exact_count(self, rank):
        rng = np.random.default_rng(40 + rank)
        target = random_mixture(rng, max_rank=rank)
        while target.rank < rank:
            target = random_mixture(rng, max_rank=rank)
        m, eps = 60, 0.4
        exact = len(typical_classes_brute(target, m, eps)[0])
        assert typical_decomposition(target, m, eps, class_cap=exact).n_classes == exact
        message = f"about {exact} type classes at M={m}, rank {rank}; cap is {exact - 1}"
        with pytest.raises(ResourceCapError, match=f"^{message}$"):
            typical_decomposition(target, m, eps, class_cap=exact - 1)

    def test_rank3_at_m4096_within_the_default_cap(self):
        # a fair bit, [0.2, 0.5, 0.3] and [0.1, 0.9] with weights 0.2 / 0.3 / 0.5
        tri = NumberState(IntDistribution(2, np.array([0.2, 0.5, 0.3])))
        skewed = NumberState(IntDistribution(0, np.array([0.1, 0.9])))
        target = MixedTarget((FAIR0, tri, skewed), (0.2, 0.3, 0.5))
        m = 4096
        dec = typical_decomposition(target, m)
        # independent count: each first count, with the second vectorized, by the
        # float expression of `typical_classes_brute`
        scaled = m * np.asarray(target.weights)
        budget = dec.epsilon_used * m + 1e-9
        count = 0
        for first in range(m + 1):
            second = np.arange(m - first + 1)
            counts = np.column_stack((np.full_like(second, first), second, m - first - second))
            count += int((np.abs(counts - scaled).sum(axis=1) <= budget).sum())
        assert count == dec.n_classes == 566_371

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            typical_decomposition(HALF_HALF, 4, epsilon=0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_brute_force_oracle(self, rank):
        rng = np.random.default_rng(900 + rank)
        for m in (1, 2, 5, 12, 30):
            target = random_mixture(rng, max_rank=rank)
            while target.rank < rank:
                target = random_mixture(rng, max_rank=rank)
            for eps in (2.0, epsilon_schedule(max(m, 2)), 0.3, 1e-12):
                counts, weights = typical_classes_brute(target, m, eps)
                if rank > 1 and eps == 1e-12:
                    assert len(counts) == 0
                if len(counts) == 0:
                    with pytest.raises(ValueError, match="no type class"):
                        typical_decomposition(target, m, eps)
                    continue
                dec = typical_decomposition(target, m, eps)
                assert dec.counts.dtype == np.int64
                np.testing.assert_array_equal(dec.counts, counts)
                np.testing.assert_allclose(dec.weights, weights, rtol=1e-12, atol=0)
                assert dec.residual_mass == pytest.approx(
                    max(0.0, 1.0 - math.fsum(weights)), abs=1e-12
                )

    def test_arrays_are_read_only(self):
        dec = typical_decomposition(HALF_HALF, 8)
        for arr in (dec.counts, dec.weights):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestExactSum:
    """`mixed._exact_sum` against math.fsum, compared with ==."""

    def test_random_arrays(self, monkeypatch):
        monkeypatch.setattr(mixed, "_FSUM_DIRECT", 0)  # the binned sum at every size
        rng = np.random.default_rng(2015)
        for i in range(2000):
            n = int(10 ** rng.uniform(0, 5))
            if i % 4 == 0:
                values = rng.uniform(size=n)
            elif i % 4 == 1:
                values = np.exp(rng.uniform(-745, 0, n))  # down to subnormals
            elif i % 4 == 2:
                values = np.where(rng.uniform(size=n) < 0.3, 0.0, np.exp(rng.uniform(-745, 0, n)))
            else:
                values = np.full(n, rng.uniform())
            assert mixed._exact_sum(values) == math.fsum(values.tolist())

    def test_class_cap_and_benchmark_weights(self):
        weights = np.random.default_rng(2016).dirichlet(np.ones(DEFAULT_CLASS_CAP))
        assert mixed._exact_sum(weights) == math.fsum(weights.tolist())
        # the mixed-bound benchmark's seed-1 gauss target at M = 512
        tri = [0.2296179878403697, 0.4981872153368776, 0.2721947968227527]
        bit = [0.31695796964586986, 0.6830420303541301]
        comps = [NumberState(IntDistribution(0, np.array(p))) for p in ([0.5, 0.5], tri, bit)]
        mix = (0.31749470470987584, 0.3474222074563664, 0.33508308783375773)
        target = MixedTarget(tuple(comps), mix)
        dec = typical_decomposition(target, 512)
        assert dec.n_classes == 21_675
        assert mixed._exact_sum(dec.weights) == math.fsum(dec.weights.tolist())
        assert dec.residual_mass == max(0.0, 1.0 - math.fsum(dec.weights.tolist()))

    def test_residual_is_the_fsum_complement(self):
        rng = np.random.default_rng(2017)
        binned = 0
        for _ in range(60):
            target = random_mixture(rng, max_rank=4)
            m = int(rng.integers(2, 700 if target.rank < 4 else 80))
            dec = typical_decomposition(target, m, rng.choice([None, 0.5, 2.0]))
            binned += dec.n_classes >= mixed._FSUM_DIRECT
            assert dec.residual_mass == max(0.0, 1.0 - math.fsum(dec.weights.tolist()))
        assert binned >= 10


def one_class(target: MixedTarget, counts, m: int) -> TypicalDecomposition:
    """A decomposition of ``target``^(x m) holding the single class ``counts`` and no residual mass."""
    return TypicalDecomposition(target, np.array([counts], dtype=np.int64), np.ones(1), 0.0, 1.0, m)


class TestTypeclassGaussian:
    def test_variance_matches_convolution_oracle(self):
        # the gauss bound of one class is exp(-Var gamma^2) with Var from the class counts
        rng = np.random.default_rng(6)
        for _ in range(5):
            target = random_mixture(rng, max_rank=2)
            m = int(rng.integers(2, 10))
            counts = rng.multinomial(m, target.weights)
            if np.any(counts == 0):
                continue
            # independent-sum oracle: convolve the per-copy laws directly
            law = None
            for k, comp in zip(counts, target.components):
                part = direct_power(comp.spectrum, int(k))
                law = part if law is None else convolve(law, part)
            bound = fidelity_mixed_lower_bound(one_class(target, counts, m), 1.0, method="gauss")
            assert -math.log(bound) == pytest.approx(moments(law)[1], rel=1e-9)


class TestClassNumberDistribution:
    def test_moments(self):
        dec = typical_decomposition(HALF_HALF, 8, epsilon=2.0)
        means = np.array([c.mean for c in HALF_HALF.components])
        for counts in dec.counts:
            mu, var = moments(class_number_distribution(HALF_HALF, counts))
            assert mu == pytest.approx(counts @ means, rel=1e-9)
            assert var == pytest.approx(
                counts @ HALF_HALF.component_variances, rel=1e-9, abs=1e-12
            )


class TestClassFidelityExact:
    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(515)
        grid = np.linspace(-math.pi, math.pi, 129)
        for _ in range(6):
            target = random_mixture(rng)
            m = int(rng.integers(2, 40))
            for counts in typical_decomposition(target, m).counts:
                ch = char_fn(class_number_distribution(target, counts), grid)
                bound = fidelity_mixed_lower_bound(one_class(target, counts, m), grid, method="exact")
                np.testing.assert_allclose(
                    bound, ch.real**2 + ch.imag**2, rtol=0, atol=1e-12
                )


class TestMixedLowerBound:
    def test_floor_is_min_over_every_class(self):
        # each class's number distribution built by convolution: the gauss
        # fidelity is exp(-Var gamma^2) and the exact one |char_fn|^2
        rng = np.random.default_rng(616)
        grid = np.linspace(-math.pi, math.pi, 65)
        # rank 4 at epsilon 0.3: slices (classes sharing all but their last two
        # counts) are shorter than the ball
        for rank, epsilon in [(None, None)] * 6 + [(4, 0.3)] * 3:
            target = random_mixture(rng, max_rank=rank or 3)
            while rank and target.rank < rank:
                target = random_mixture(rng, max_rank=rank)
            m = int(rng.integers(2, 40))
            dec = typical_decomposition(target, m, epsilon)
            gauss, exact = [], []
            for counts in dec.counts:
                law = class_number_distribution(target, counts)
                gauss.append(np.exp(-moments(law)[1] * grid**2))
                ch = char_fn(law, grid)
                exact.append(ch.real**2 + ch.imag**2)
            for method, fids in (("gauss", gauss), ("exact", exact)):
                bound = fidelity_mixed_lower_bound(dec, grid, method=method)
                np.testing.assert_allclose(
                    bound, (1.0 - dec.residual_mass) * np.min(fids, axis=0), rtol=0, atol=1e-12
                )

    def test_aligned_gives_one_minus_delta(self):
        dec = typical_decomposition(HALF_HALF, 16)
        bound = fidelity_mixed_lower_bound(dec, 0.0, method="gauss")
        assert bound == pytest.approx(1.0 - dec.residual_mass, abs=1e-12)

    def test_pure_target_matches_gauss_fidelity(self):
        grid = np.linspace(-0.5, 0.5, 9)
        dec = typical_decomposition(pure_target(FAIR0), 32)
        bound = fidelity_mixed_lower_bound(dec, grid, method="gauss")
        np.testing.assert_allclose(bound, fidelity_pure_gauss(0.25, 32, grid), atol=1e-12)

    def test_worked_example(self):
        # M=4, eps=0.5 keeps 0.875 of the mass; every kept class has
        # sigma^2 = 0.25, so F_min = exp(-4 * 0.25 * 0.01)
        bound = fidelity_mixed_lower_bound(typical_decomposition(HALF_HALF, 4, 0.5), 0.1, method="gauss")
        assert bound == pytest.approx(0.875 * math.exp(-4 * 0.25 * 0.01), rel=1e-12)
        assert bound == pytest.approx(0.8662936045305215, abs=1e-12)

    def test_never_exceeds_exact_small_m(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            target = random_mixture(rng, max_rank=2)
            for m in (1, 2, 3):
                dec = typical_decomposition(target, m, 2.0)
                for gamma in (0.1, 0.7, 2.0):
                    exact = exact_mixed_fidelity_small(target, m, gamma)
                    bound = fidelity_mixed_lower_bound(dec, gamma, method="exact")
                    assert bound <= exact + 1e-10

    def test_method_validation(self):
        with pytest.raises(ValueError):
            fidelity_mixed_lower_bound(typical_decomposition(HALF_HALF, 4), 0.0, method="pade")


class TestMixedFigureOfMerit:
    def test_pure_target_tracks_exact(self):
        spec = PosteriorSpec.for_copies(FAIR0, 1600)
        dec = typical_decomposition(pure_target(FAIR0), 40)
        bound = figure_of_merit_mixed_bound(spec, dec, method="gauss")
        assert bound == pytest.approx(figure_of_merit_exact(spec, FAIR0, 40), abs=0.02)

    def test_deep_sweep_value(self):
        dec = typical_decomposition(HALF_HALF, 64)
        bound = figure_of_merit_mixed_bound(PosteriorSpec.for_copies(FAIR0, 6400), dec, method="gauss")
        assert bound == pytest.approx(0.9974850312146089, rel=1e-9)
        floor = 0.9 * (1 - dec.residual_mass) * figure_of_merit_closed(0.25, 6400, 0.25, 64)
        assert bound >= floor

    def test_bounded_by_one(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            spec = PosteriorSpec.for_copies(random_state(rng), int(rng.integers(10, 200)))
            dec = typical_decomposition(random_mixture(rng), 8)
            assert -1e-12 <= figure_of_merit_mixed_bound(spec, dec, method="gauss") <= 1 + 1e-9


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
        # sqrt(F) is jointly concave; F itself is not
        def root(a, b):
            return math.sqrt(uhlmann_fidelity(a, b))

        rng = np.random.default_rng(63)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            a1, a2 = random_density(rng, dim), random_density(rng, dim)
            b1, b2 = random_density(rng, dim), random_density(rng, dim)
            lam = float(rng.uniform(0.05, 0.95))
            mixed = root(lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2)
            split = lam * root(a1, b1) + (1 - lam) * root(a2, b2)
            assert mixed >= split - 1e-10
        # basis states e0, e1 against e0, e2 at lam = 1/2: the mixtures have F = 1/4,
        # below the average (1 + 0) / 2 of F, while sqrt(F) = 1/2 meets its average
        e0, e1, e2 = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])
        rho, sigma = (e0 + e1) / 2, (e0 + e2) / 2
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(0.25, abs=1e-12)
        assert root(rho, sigma) >= (root(e0, e0) + root(e1, e2)) / 2 - 1e-10

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

    def test_closed_form_matches_dense_oracles(self):
        # M=1 against the Uhlmann fidelity of the embedding itself, M=2, 3
        # against Kronecker powers of it; offsets 0 and 1 make supports overlap
        rng = np.random.default_rng(404)
        worst = 0.0
        for rank in (1, 2, 3):
            for _ in range(4):
                comps = [random_state(rng, max_len=3, max_offset=1) for _ in range(rank)]
                target = MixedTarget(tuple(comps), tuple(rng.dirichlet(np.ones(rank))))
                gamma = float(rng.uniform(-math.pi, math.pi))
                rho, shifted = embedded_density(target), embedded_density(target, gamma)
                oracles = [uhlmann_fidelity(rho, shifted)]
                # rank 3 at M=3 would be a dense matrix of up to 1728 rows
                copies = (2, 3) if rank < 3 else (2,)
                oracles += [kron_mixed_fidelity(target, m, gamma) for m in copies]
                for m, oracle in enumerate(oracles, start=1):
                    worst = max(worst, abs(exact_mixed_fidelity_small(target, m, gamma) - oracle))
        assert worst <= 1e-10

    def test_rank_one_is_the_pure_fidelity(self):
        # oracle: fidelity_pure_exact's |phi|^(2M) on the single component
        rng = np.random.default_rng(405)
        for _ in range(5):
            state = random_state(rng, max_offset=50)
            for m in (1, 2, 64, 4096):
                for gamma in (0.001, 0.05, 0.7, 3.0):
                    exact = exact_mixed_fidelity_small(pure_target(state), m, gamma)
                    assert exact == pytest.approx(
                        fidelity_pure_exact(state, m, gamma), rel=1e-11, abs=1e-300
                    )

    def test_far_offset_builds_no_embedding(self):
        # a dense embedding would have about 6,000 rows here; the closed form builds none
        far = NumberState(IntDistribution(3000, np.array([0.5, 0.5])))
        target = MixedTarget((FAIR0, far), (0.5, 0.5))
        # oracle: both components are fair bits, each with |phi(gamma)| = cos(gamma/2)
        for m in (1, 4096):
            assert exact_mixed_fidelity_small(target, m, 0.1) == pytest.approx(
                math.cos(0.05) ** (2 * m), rel=1e-11
            )

    def test_needs_one_copy(self):
        with pytest.raises(ValueError):
            exact_mixed_fidelity_small(HALF_HALF, 0, 0.1)
