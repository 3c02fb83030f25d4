"""Spectrum, bath, thermal state, and generator structure."""

import math

import numpy as np
import pytest

from conftest import RATE_RANGE, exactly, random_nlevel_model
from thermoqfi import (
    Bath,
    DomainError,
    ModelIntegrityError,
    NoStationaryStateError,
    Spectrum,
    rate_matrix,
    spectral_report,
    stationary_distribution,
    thermal_distribution,
    thermal_ratio,
    transition_matrix,
)
from thermoqfi.spectrum import NULL_EIGENVALUE_RTOL

class TestSpectrum:
    def test_qubit_constructor(self):
        sp = Spectrum.qubit(2.5)
        assert sp.energies == (0.0, 2.5)
        assert sp.gap(1, 2) == 2.5

    def test_gap_is_one_based_and_signed(self):
        sp = Spectrum(energies=(0.0, 1.0, 3.0))
        assert sp.gap(1, 3) == 3.0
        assert sp.gap(3, 1) == -3.0
        assert sp.gap(2, 3) == 2.0

    def test_rejects_single_level(self):
        with pytest.raises(DomainError):
            Spectrum(energies=(1.0,))

    def test_rejects_nonincreasing(self):
        with pytest.raises(DomainError):
            Spectrum(energies=(0.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            Spectrum(energies=(0.0, 2.0, 1.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Spectrum(energies=(0.0, math.inf))


class TestBath:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            Bath(beta=0.0, gamma=1.0)
        with pytest.raises(DomainError):
            Bath(beta=1.0, gamma=-0.5)
        with pytest.raises(DomainError):
            Bath(beta=math.nan, gamma=1.0)


class TestThermalRatio:
    def test_unit_occupation_at_log2(self):
        assert thermal_ratio(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_large_gap_underflows_to_zero(self):
        assert thermal_ratio(1.0, 800.0) == 0.0

    def test_small_gap_diverges_like_temperature(self):
        n = thermal_ratio(1e-9, 1.0)
        assert n == pytest.approx(1e9, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_ratio(-1.0, 1.0)
        with pytest.raises(DomainError):
            thermal_ratio(1.0, 0.0)


class TestThermalDistribution:
    def test_reference_qubit_populations(self):
        pi = thermal_distribution(Spectrum.qubit(1.0), math.log(3.0))
        assert pi[0] == pytest.approx(0.75, abs=1e-15)
        assert pi[1] == pytest.approx(0.25, abs=1e-15)

    def test_three_level_boltzmann_ratios(self):
        pi = thermal_distribution(Spectrum(energies=(0.0, 1.0, 2.0)), 1.0)
        assert pi[1] / pi[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert pi[2] / pi[1] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert math.fsum(pi) == pytest.approx(1.0, abs=1e-15)

    def test_energy_shift_leaves_populations_invariant(self):
        base = thermal_distribution(Spectrum(energies=(0.0, 0.7, 1.9)), 1.3)
        shifted = thermal_distribution(Spectrum(energies=(100.0, 100.7, 101.9)), 1.3)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-15)

    def test_underflow_names_the_supported_range(self):
        # Accepted up to where exp(-beta*omega) underflows (near 745.13).
        assert thermal_distribution(Spectrum.qubit(1.0), 745.0)[1] > 0.0
        with pytest.raises(DomainError, match=r"beta\*omega = 800.*beta\*omega <= 745"):
            thermal_distribution(Spectrum.qubit(1.0), 800.0)
        with pytest.raises(DomainError, match=r"beta\*omega = 900"):
            thermal_distribution(Spectrum(energies=(0.0, 1.0, 3.0)), 300.0)

    def test_populations_nonincreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spectrum, bath = random_nlevel_model(rng)
            pi = thermal_distribution(spectrum, bath.beta)
            assert np.all(np.diff(pi) <= 0)

    def test_populations_are_readonly(self):
        pi = thermal_distribution(Spectrum.qubit(1.0), 1.0)
        with pytest.raises(ValueError):
            pi[0] = 0.0


class TestRates:
    def test_downward_dominates_upward(self):
        rates = rate_matrix(Spectrum.qubit(1.0), Bath(beta=math.log(3.0), gamma=1.0))
        down = rates[0, 1]  # 2 -> 1
        up = rates[1, 0]    # 1 -> 2
        assert down > up
        # gamma (n+1) and gamma n with n = 1/(e^{beta omega} - 1) = 1/2
        assert down == pytest.approx(1.5, rel=1e-15)
        assert up == pytest.approx(0.5, rel=1e-15)

    def test_rate_detailed_balance_factor(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spectrum, bath = random_nlevel_model(rng)
            rates = rate_matrix(spectrum, bath)
            n = spectrum.n_levels
            for i in range(n):
                for j in range(i + 1, n):
                    boltzmann = math.exp(-bath.beta * (spectrum.energies[j] - spectrum.energies[i]))
                    assert rates[j, i] / rates[i, j] == pytest.approx(boltzmann, rel=1e-12)

    def test_rates_are_readonly_with_zero_diagonal(self):
        rates = rate_matrix(Spectrum(energies=(0.0, 1.0, 2.5)), Bath(beta=1.0, gamma=1.0))
        np.testing.assert_array_equal(np.diag(rates), 0.0)
        with pytest.raises(ValueError):
            rates[0, 1] = 0.0

    @pytest.mark.parametrize(
        "spectrum, bath, message",
        [
            # n = 1e10 times gamma = 1e300 overflows
            (Spectrum.qubit(1.0), Bath(beta=1e-10, gamma=1e300),
             "rates must be finite and nonnegative"),
            # n = 1e300, so n + 1 rounds to n
            pytest.param(Spectrum.qubit(1.0), Bath(beta=1e-300, gamma=1.0),
                         exactly(
                             "detailed-balance ordering violated: the decay rate gamma (n+1) "
                             "rounds to the excitation rate gamma n of pair (1,2) at "
                             f"beta*omega = 1e-300; {RATE_RANGE}"
                         ), id="beta_omega=1e-300"),
            # the gap (2,3) is one ulp of 1: n = 1.8e16 there, and n + 1 rounds to n
            pytest.param(Spectrum(energies=(0.0, 1.0, math.nextafter(1.0, 2.0))),
                         Bath(beta=0.25, gamma=1.0), exactly(
                             "detailed-balance ordering violated: the decay rate gamma (n+1) "
                             "rounds to the excitation rate gamma n of pair (2,3) at "
                             f"beta*omega = 5.55112e-17; {RATE_RANGE}"
                         ),
                         id="one_ulp_gap"),
        ],
    )
    def test_rejects_rates_past_double_precision(self, spectrum, bath, message):
        with pytest.raises(DomainError, match=message):
            rate_matrix(spectrum, bath)
        with pytest.raises(DomainError, match=message):
            transition_matrix(spectrum, bath)


class TestTransitionMatrix:
    def test_reference_generator(self):
        a = transition_matrix(Spectrum.qubit(1.0), Bath(beta=math.log(3.0), gamma=1.0))
        np.testing.assert_allclose(a, [[-0.5, 1.5], [0.5, -1.5]], rtol=0, atol=1e-15)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(spectrum, bath)
            for j in range(a.shape[1]):
                assert abs(math.fsum(a[:, j])) <= 1e-13 * (1.0 + np.max(np.abs(a)))

    def test_rejects_nonpositive_off_diagonal(self):
        # at beta*omega = 800 the occupation n, and with it the excitation rate, is 0
        spectrum, bath = Spectrum.qubit(1.0), Bath(beta=800.0, gamma=1.0)
        assert rate_matrix(spectrum, bath)[1, 0] == 0.0
        message = (
            "off-diagonal entries must be strictly positive: the excitation rate gamma n "
            f"is 0 for pair (1,2) at beta*omega = 800; {RATE_RANGE}"
        )
        with pytest.raises(DomainError, match=exactly(message)):
            transition_matrix(spectrum, bath)

    def test_names_gamma_where_the_excitation_rate_underflows(self):
        # pair (1,3) has n = 1/(e^{650} - 1) = 5e-283, and gamma n underflows to 0
        spectrum, bath = Spectrum(energies=(0.0, 0.5, 650.0)), Bath(beta=1.0, gamma=1e-50)
        assert rate_matrix(spectrum, bath)[2, 0] == 0.0
        message = (
            "off-diagonal entries must be strictly positive: the excitation rate gamma n "
            "underflows to 0 at gamma = 1e-50 for pair (1,3) at beta*omega = 650; "
            "gamma n must be at least 4.94066e-324"
        )
        with pytest.raises(DomainError, match=exactly(message)):
            transition_matrix(spectrum, bath)

    def test_matrix_is_readonly(self):
        a = transition_matrix(Spectrum.qubit(1.0), Bath(beta=1.0, gamma=1.0))
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


class TestStationaryDistribution:
    def test_matches_gibbs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(spectrum, bath)
            pi_num = stationary_distribution(a)
            pi_ref = thermal_distribution(spectrum, bath.beta)
            np.testing.assert_allclose(pi_num, pi_ref, rtol=0, atol=1e-12)

    def test_detailed_balance_of_generator(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(spectrum, bath)
            pi = thermal_distribution(spectrum, bath.beta)
            n = a.shape[0]
            for i in range(n):
                for j in range(i + 1, n):
                    flow, back = a[i, j] * pi[j], a[j, i] * pi[i]
                    assert abs(flow - back) <= 1e-12 * max(flow, back)

    def test_no_null_eigenvalue_raises(self):
        with pytest.raises(NoStationaryStateError):
            stationary_distribution(np.array([[-1.0, 0.5], [0.3, -2.0]]))

    def test_single_level_generator_raises(self):
        with pytest.raises(DomainError, match="^the generator must be a square array of size >= 2$"):
            stationary_distribution(np.array([[0.0]]))

    def test_distribution_is_readonly(self):
        pi = stationary_distribution(
            transition_matrix(Spectrum.qubit(1.0), Bath(beta=1.0, gamma=1.0))
        )
        with pytest.raises(ValueError):
            pi[0] = 0.0


class TestGeneratorCheck:
    # the two public functions that take a caller's generator check it where it enters
    @pytest.mark.parametrize("function", [stationary_distribution, spectral_report])
    @pytest.mark.parametrize(
        "a,message",
        [
            (np.zeros((2, 3)), "the generator must be a square array of size >= 2"),
            (np.zeros(4), "the generator must be a square array of size >= 2"),
            (np.array([[0.0]]), "the generator must be a square array of size >= 2"),
            (np.array([[-1.0, math.nan], [1.0, -1.0]]), "the generator must be finite"),
            (np.array([[-1.0, 1.0], [math.inf, -1.0]]), "the generator must be finite"),
            (np.array([[-1.0, 1.0], [1.0, -1.0]], dtype=complex), "the generator must be real"),
            ([["-1", "1"], ["1", "-1"]], "the generator must be real"),
        ],
    )
    def test_rejects_a_malformed_generator(self, function, a, message):
        with pytest.raises(DomainError, match=exactly(message)):
            function(a)

    def test_accepts_an_array_like(self):
        a = [[-0.5, 1.5], [0.5, -1.5]]
        np.testing.assert_allclose(stationary_distribution(a), [0.75, 0.25], rtol=0, atol=1e-15)
        assert spectral_report(a).null_count == 1


class TestSpectralReport:
    def test_reference_eigenvalues(self):
        a = transition_matrix(Spectrum.qubit(1.0), Bath(beta=math.log(3.0), gamma=1.0))
        report = spectral_report(a)
        np.testing.assert_allclose(report.eigenvalues, [0.0, -2.0], rtol=0, atol=1e-14)
        assert report.null_count == 1
        assert report.negative_count == 1

    def test_counts_on_random_models(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(spectrum, bath)
            report = spectral_report(a)
            assert report.null_count == 1
            assert report.negative_count == spectrum.n_levels - 1
            tolerance = NULL_EIGENVALUE_RTOL * np.linalg.norm(a, 2)
            assert report.eigenvalues[0] == pytest.approx(0.0, abs=tolerance)

    def test_gershgorin_discs_cover_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(spectrum, bath)
            report = spectral_report(a)
            slack = 1e-9 * (1.0 + np.linalg.norm(a, np.inf))
            for lam in report.eigenvalues:
                inside = np.abs(lam - report.gershgorin_centers) <= report.gershgorin_radii + slack
                assert inside.any()

    def test_corrupted_generator_is_rejected(self):
        a = transition_matrix(Spectrum.qubit(1.0), Bath(beta=math.log(3.0), gamma=1.0)).copy()
        a[0, 0] += 0.1
        with pytest.raises(ModelIntegrityError, match="null-eigenvalue-count"):
            spectral_report(a)
