import json
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CyclicState,
    brute_force_coeffs,
    canonical_coeffs,
    measure_eta_basis,
    outcome_distribution,
    phase_shifted,
    representative_state,
)
from phaseconv import cli, zd
from phaseconv.cli import main
from phaseconv.zd import CyclicCoeffs, contraction_rate, success_probability, success_slope_fit

BIASED = CyclicCoeffs(np.array([0.9, 0.1]))


def random_coeffs(rng, d):
    p = rng.uniform(0.05, 1.0, d)
    return CyclicCoeffs(p / p.sum())


class TestCyclicCoeffs:
    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicCoeffs(np.array([0.7, 0.2]))  # mass 0.9
        with pytest.raises(ValueError):
            CyclicCoeffs(np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            CyclicCoeffs(np.array([1.0]))  # d >= 2

    def test_degenerate_flag(self):
        # rate 1 exactly when the support lies in a coset of a proper subgroup
        for probs in ([0.0, 1.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.3, 0.0, 0.7]):
            assert contraction_rate(CyclicCoeffs(np.array(probs))) == pytest.approx(1.0, abs=1e-12)
        for probs in ([0.5, 0.5], [0.6, 0.4, 0.0, 0.0], [0.0, 0.5, 0.5]):
            assert contraction_rate(CyclicCoeffs(np.array(probs))) < 1.0 - 1e-6

    def test_dimension(self):
        assert BIASED.d == 2


class TestCyclicState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CyclicState(np.array([1.0, 1.0]))

    def test_eta_states_orthonormal(self):
        d = 5
        etas = [CyclicState.eta(d, m).amplitudes for m in range(d)]
        gram = np.array([[np.vdot(a, b) for b in etas] for a in etas])
        np.testing.assert_allclose(gram, np.eye(d), atol=1e-12)

    def test_phase_shift_cycles_eta(self):
        state = CyclicState.eta(4, 1)
        shifted = phase_shifted(state, 2)
        np.testing.assert_allclose(shifted.amplitudes, CyclicState.eta(4, 3).amplitudes, atol=1e-12)

    def test_representative_amplitudes(self):
        state = representative_state(BIASED)
        np.testing.assert_allclose(state.amplitudes, np.sqrt([0.9, 0.1]), atol=1e-15)


class TestContractionRate:
    def test_biased_bit(self):
        assert contraction_rate(BIASED) == pytest.approx(0.8, abs=1e-12)

    def test_uniform_contracts_instantly(self):
        assert contraction_rate(CyclicCoeffs(np.full(4, 0.25))) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_never_contracts(self):
        rate = contraction_rate(CyclicCoeffs(np.array([1.0, 0.0])))
        assert rate == pytest.approx(1.0, abs=1e-12)


class TestCanonicalCoeffs:
    def test_two_copy_example(self):
        out = canonical_coeffs(BIASED, 2)
        np.testing.assert_allclose(out.probs, [0.82, 0.18], atol=1e-12)

    def test_uniform_fixed_point(self):
        u = CyclicCoeffs(np.full(3, 1 / 3))
        out = canonical_coeffs(u, 7)
        np.testing.assert_allclose(out.probs, 1 / 3, atol=1e-12)

    def test_point_mass_stays_point_mass(self):
        p = CyclicCoeffs(np.array([1.0, 0.0, 0.0]))
        out = canonical_coeffs(p, 5)
        np.testing.assert_allclose(out.probs, [1.0, 0.0, 0.0], atol=1e-12)
        assert contraction_rate(out) == pytest.approx(1.0, abs=1e-12)

    def test_single_copy_identity(self):
        out = canonical_coeffs(BIASED, 1)
        np.testing.assert_allclose(out.probs, BIASED.probs, atol=1e-15)

    def test_copy_count_validation(self):
        with pytest.raises(ValueError):
            canonical_coeffs(BIASED, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2718)
        for d in (2, 3, 4, 5):
            for n in range(1, 9):
                for _ in range(5):
                    p = random_coeffs(rng, d)
                    fast = canonical_coeffs(p, n).probs
                    slow = brute_force_coeffs(p, n).probs
                    assert np.abs(fast - slow).max() <= 1e-12

    def test_geometric_flattening(self):
        # |c_j - 1/d| <= eps^N, up to an absolute float-noise floor once
        # eps^N underflows past machine precision
        rng = np.random.default_rng(55)
        for d in (2, 3, 5):
            p = random_coeffs(rng, d)
            eps = contraction_rate(p)
            for n in (1, 2, 4, 8, 16, 32, 64):
                c = canonical_coeffs(p, n).probs
                assert np.abs(c - 1 / d).max() <= eps**n + 1e-14


class TestBruteForce:
    def test_single_copy(self):
        np.testing.assert_allclose(brute_force_coeffs(BIASED, 1).probs, BIASED.probs, atol=1e-15)

    def test_parity_of_three_fair_bits(self):
        fair = CyclicCoeffs(np.array([0.5, 0.5]))
        np.testing.assert_allclose(brute_force_coeffs(fair, 3).probs, [0.5, 0.5], atol=1e-15)


class TestMeasurement:
    def test_eta_state_is_certain(self):
        for d in (2, 3, 7):
            probs = measure_eta_basis(CyclicState.eta(d, 0))
            assert probs[0] == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(probs[1:], 0.0, atol=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        probs = measure_eta_basis(CyclicState(amps))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs.min() >= -1e-15

    def test_deviation_symmetric(self):
        p = CyclicCoeffs(np.array([0.4, 0.3, 0.2, 0.1]))
        dev = measure_eta_basis(representative_state(canonical_coeffs(p, 3)))
        assert dev.sum() == pytest.approx(1.0, abs=1e-12)
        # guessing m+r and m-r are equally likely
        np.testing.assert_allclose(dev[1:], dev[1:][::-1], atol=1e-12)
        out = outcome_distribution(p, 3)
        np.testing.assert_allclose(out[1:], out[1:][::-1], atol=1e-12)


class TestOutcomeDistribution:
    def test_normalized_and_covariant(self):
        rng = np.random.default_rng(19)
        p = random_coeffs(rng, 4)
        base = outcome_distribution(p, 3, m_true=0)
        assert base.sum() == pytest.approx(1.0, abs=1e-12)
        for m in range(1, 4):
            shifted = outcome_distribution(p, 3, m_true=m)
            np.testing.assert_allclose(shifted, np.roll(base, m), atol=1e-12)

    def test_biased_two_copy_values(self):
        out = outcome_distribution(BIASED, 2, m_true=0)
        assert out[0] == pytest.approx(0.8841874542459711, abs=1e-12)
        assert out[1] == pytest.approx(1 - 0.8841874542459711, abs=1e-12)

    def test_point_mass_source_is_uninformative(self):
        p = CyclicCoeffs(np.array([1.0, 0.0, 0.0]))
        out = outcome_distribution(p, 4, m_true=0)
        np.testing.assert_allclose(out, 1 / 3, atol=1e-12)

    def test_matches_the_state_model(self):
        # the eta-basis measurement of the canonical state built from the
        # brute-force coefficients, read at deviation r = (m_true - guess) mod d
        rng = np.random.default_rng(4242)
        for d in range(2, 7):
            for n in range(1, 13):
                p = random_coeffs(rng, d)
                dev = measure_eta_basis(representative_state(brute_force_coeffs(p, n)))
                for m in range(d):
                    want = dev[(m - np.arange(d)) % d]
                    assert np.abs(outcome_distribution(p, n, m) - want).max() <= 1e-12, (d, n, m)
                assert abs(success_probability(p, n) - dev[0]) <= 1e-12, (d, n)

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [0.7, 0.2, 0.1]])
    def test_wrong_mass_below_round_off(self, probs):
        # at these N the wrong mass (down to about 1e-52) is far below what
        # 1 - Pr(success) or the coefficients themselves resolve
        source = CyclicCoeffs(np.array(probs))
        for n in (25, 100, 150):
            want = float(wrong_mass_oracle(probs, n))
            got = outcome_distribution(source, n)[1:].sum()
            assert abs(got - want) <= 1e-11 * want, (n, got, want)

    def test_dc_entry_above_one_does_not_overflow(self):
        # fft(p)[0] rounds to 1 + 6.7e-16 here, which overflows if raised to N = 10^20
        probs = np.random.default_rng(1).dirichlet(np.ones(257))
        assert np.fft.fft(probs)[0].real > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = zd.deviation_laws(CyclicCoeffs(probs), [10**20])[0]
        assert law[0] == 1.0 and not law[1:].any()

    @pytest.mark.parametrize("law", [outcome_distribution, success_probability])
    def test_copy_count_validation(self, law):
        with pytest.raises(ValueError, match="^n_copies must be >= 1, got 0$"):
            law(BIASED, 0)


class TestSuccessProbability:
    def test_uniform_coeffs_are_perfect(self):
        # the N-copy state is exactly eta_m once the coefficients flatten
        u = CyclicCoeffs(np.full(5, 0.2))
        assert success_probability(u, 1) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_two_outcomes(self):
        assert success_probability(CyclicCoeffs(np.array([1.0, 0.0])), 3) == pytest.approx(0.5)

    def test_matches_outcome_distribution(self):
        rng = np.random.default_rng(29)
        for d in (2, 3, 4):
            p = random_coeffs(rng, d)
            n = int(rng.integers(1, 12))
            assert success_probability(p, n) == pytest.approx(
                outcome_distribution(p, n, m_true=2 % d)[2 % d], abs=1e-12
            )

    def test_monotone_in_copies(self):
        rng = np.random.default_rng(37)
        for d in (2, 3, 5):
            p = random_coeffs(rng, d)
            vals = [success_probability(p, n) for n in range(1, 33)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRootsOfUnity:
    @pytest.mark.parametrize("d", list(range(2, 13)))
    def test_nontrivial_sums_vanish(self, d):
        omega = np.exp(2j * math.pi / d)
        for r in range(1, d):
            total = sum(omega ** (r * j) for j in range(d))
            assert abs(total) < 1e-9


class TestSlopeFit:
    def test_matches_contraction_theory(self):
        fit = success_slope_fit(BIASED, range(4, 25))
        assert fit.slope_theory == pytest.approx(2 * math.log(0.8), rel=1e-12)
        assert fit.slope == pytest.approx(-0.44759003, abs=1e-6)
        assert abs(fit.slope - fit.slope_theory) / abs(fit.slope_theory) < 0.05
        # measured prefactor exp(intercept) should sit near the analytic 1/4
        assert math.exp(fit.intercept) == pytest.approx(0.25, rel=0.05)

    def test_uniform_source_rejected(self):
        # wrong-guess mass is identically zero, nothing to fit
        with pytest.raises(ValueError):
            success_slope_fit(CyclicCoeffs(np.full(3, 1 / 3)), range(2, 8))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            success_slope_fit(BIASED, [5])

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [0.7, 0.2, 0.1]])
    def test_wrong_mass_matches_exact_powers(self, probs):
        # a two-point fit passes through ln Pr(wrong) at both of its copy numbers
        source = CyclicCoeffs(np.array(probs))
        for n in (1, 3, 25, 100, 150, 200):
            fit = success_slope_fit(source, [n, 2 * n])
            for m in (n, 2 * n):
                want = float(wrong_mass_oracle(probs, m).ln())
                assert abs(fit.intercept + fit.slope * m - want) <= 1e-11, (n, m)

    @pytest.mark.parametrize("d", [3, 64])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_laws_in_blocks_give_the_one_call_fit(self, monkeypatch, d, rows):
        source = random_coeffs(np.random.default_rng(d), d)
        n_grid = list(range(1, 41))
        whole = success_slope_fit(source, n_grid)
        calls = []
        laws = zd.deviation_laws

        def recording(source, n_grid):
            calls.append(len(n_grid) * source.d)
            return laws(source, n_grid)

        monkeypatch.setattr(zd, "deviation_laws", recording)
        monkeypatch.setattr(zd, "_LAW_BLOCK", rows * d + d - 1)
        assert success_slope_fit(source, n_grid) == whole
        assert len(calls) == -(-len(n_grid) // rows)
        assert max(calls) <= zd._LAW_BLOCK

    def test_cli_fit_where_the_wrong_mass_is_below_round_off(self, tmp_path, capsys):
        # at N = 150 and 175 the wrong mass (about 4e-30 and 6e-35) is far below
        # what 1 - c or the coefficients themselves resolve
        config = tmp_path / "zd.json"
        config.write_text(json.dumps({"probs": [0.9, 0.1], "n_grid": [50, 100, 150, 175]}))
        assert main(["zd", "--config", str(config), "--format", "json", "--jobs", "1"]) == 0
        fit = json.loads(capsys.readouterr().out)["metadata"]["slope_fit"]
        assert fit["slope"] == pytest.approx(2 * math.log(0.8), rel=1e-9)
        assert fit["intercept"] == pytest.approx(math.log(0.25), rel=1e-9)


def wrong_mass_oracle(probs, n: int) -> Decimal:
    """Oracle: Pr(wrong) = 1 - (Sum_j sqrt(c_j))^2 / d for the exact N-fold cyclic power.

    c is the N-fold cyclic convolution power of the floats' exact rational
    values, normalized; Parseval gives the wrong-guess mass without
    trigonometry, and the working precision covers the cancellation, leaving
    60 significant digits.
    """
    d = len(probs)
    base = [Fraction(q) for q in probs]

    def times(a, b):
        return [sum(a[i] * b[(j - i) % d] for i in range(d)) for j in range(d)]

    power = [Fraction(1)] + [Fraction(0)] * (d - 1)
    for bit in bin(n)[2:]:
        power = times(power, power)
        if bit == "1":
            power = times(power, base)
    total = sum(power)
    with localcontext() as ctx:
        ctx.prec = 60 + n
        roots = sum((Decimal(c.numerator) / Decimal(c.denominator)).sqrt() for c in power)
        return 1 - roots * roots / (d * Decimal(total.numerator) / Decimal(total.denominator))


def test_cli_rows_at_copy_numbers_beyond_int64(tmp_path, capsys, monkeypatch):
    # N = 10^20 is a float exponent; 10^400 fails its row, not the sweep
    config = tmp_path / "zd.json"
    config.write_text(json.dumps({"probs": [0.7, 0.2, 0.1], "n_grid": [2, 10**20]}))
    assert main(["zd", "--config", str(config), "--jobs", "1"]) == 0
    assert capsys.readouterr().out == (
        "d,N,success_prob,epsilon,error\n"
        "3,2,0.952925342056,0.556776436283,\n"
        "3,100000000000000000000,1,0.556776436283,\n"
    )
    config.write_text(json.dumps({"probs": [0.7, 0.2, 0.1], "n_grid": [10**400]}))
    assert main(["zd", "--config", str(config), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == f"3,{10**400},,,int too large to convert to float"
    assert captured.err == "row error: int too large to convert to float\n"
    # the failing row shares its batch with two rows that pass: the pre-flight refuses
    # it alone, and the two others take one law call
    calls, laws = [], cli.deviation_laws
    monkeypatch.setattr(cli, "deviation_laws", lambda source, n_grid: calls.append(n_grid) or laws(source, n_grid))
    config.write_text(json.dumps({"probs": [0.7, 0.2, 0.1], "n_grid": [2, 5, 10**400]}))
    assert main(["zd", "--config", str(config), "--jobs", "1"]) == 2
    assert calls == [[2, 5]]
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        "3,2,0.952925342056,0.556776436283,",
        f"3,5,{success_probability(CyclicCoeffs(np.array([0.7, 0.2, 0.1])), 5):.12g},0.556776436283,",
        f"3,{10**400},,,int too large to convert to float",
    ]
    assert captured.err == "row error: int too large to convert to float\n"


def test_cli_refuses_a_sum_off_by_more_than_1e12(tmp_path, capsys):
    # within the 1e-9 list check but outside CyclicCoeffs' 1e-12: a config error, not a traceback
    config = tmp_path / "zd.json"
    config.write_text(json.dumps({"probs": [0.5, 0.5000000005], "n_grid": [2, 4]}))
    assert main(["zd", "--config", str(config), "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: probs: probabilities sum to 1.0000000005, expected 1\n"
