"""State preparation, propagation, and the generalized amplitude-damping channel."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_mixed_state, random_nlevel_model, random_scenario, random_time
from thermoqfi import (
    Bath,
    DensityMatrix,
    DomainError,
    QubitInit,
    Spectrum,
    beta_from_thermal_ratio,
    coherence_decay_rate,
    evolve_state,
    evolve_state_derivative,
    gad_apply,
    gad_fixed_point,
    gad_kraus_operators,
    gad_master_comparison,
    gad_params,
    gad_stationary_diagnostic,
    gamma_from_tau_tilde,
    propagate_coherence,
    propagate_populations,
    qubit_relaxation_rate,
    qubit_state,
    rate_matrix,
    thermal_distribution,
    thermal_population_derivative,
    thermal_ratio,
    transition_matrix,
)


def _reference_parts():
    spectrum = Spectrum.qubit(1.0)
    bath = Bath(beta=math.log(3.0), gamma=1.0)
    return spectrum, bath


def _low_temperature_models(count: int):
    """N = 2..6 with beta*(E_N - E_1) log-uniform in [20, 270], far outside the
    conditioned box of random_nlevel_model; yields (spectrum, bath, p0, t)."""
    rng = np.random.default_rng(41)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 2.0, size=n - 1))])
        spread = math.exp(rng.uniform(math.log(20.0), math.log(270.0)))
        spectrum = Spectrum(energies=tuple(energies))
        bath = Bath(beta=spread / energies[-1], gamma=float(rng.uniform(0.2, 3.0)))
        p0 = rng.uniform(0.1, 1.0, size=n)
        p0 /= p0.sum()
        yield spectrum, bath, p0, float(rng.uniform(0.0, 3.0))


def _mp_populations(spectrum: Spectrum, beta, gamma, p0, t):
    """expm(A t) p0 at the working mpmath precision, with A built from the Bose rates."""
    eps = [mpmath.mpf(e) for e in spectrum.energies]
    n = len(eps)
    a = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            occupation = 1 / mpmath.expm1(beta * (eps[j] - eps[i]))
            a[i, j] = gamma * (occupation + 1)
            a[j, i] = gamma * occupation
    for j in range(n):
        a[j, j] = -mpmath.fsum(a[i, j] for i in range(n) if i != j)
    return mpmath.expm(a * t) * mpmath.matrix([mpmath.mpf(x) for x in p0])


class TestQubitInit:
    def test_theta_round_trip(self):
        init = QubitInit.from_theta(2.0 * math.pi / 3.0, r=0.5)
        assert init.a == pytest.approx(0.75, rel=1e-15)
        assert init.theta == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)

    def test_coherence_amplitude(self):
        init = QubitInit(a=0.1, r=1.0, phi=0.25)
        assert abs(init.rho12_0) == pytest.approx(0.3, rel=1e-15)
        assert cmath.phase(init.rho12_0) == pytest.approx(0.25, rel=1e-12)

    def test_r_is_normalized_on_population_extremes(self):
        assert QubitInit(a=0.0, r=1.0).r == 0.0
        assert QubitInit(a=1.0, r=0.7).r == 0.0
        assert QubitInit(a=0.0, r=1.0).rho12_0 == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            QubitInit(a=1.2)
        with pytest.raises(DomainError):
            QubitInit(a=0.5, r=-0.1)
        with pytest.raises(DomainError):
            QubitInit(a=0.5, phi=7.0)
        with pytest.raises(DomainError):
            QubitInit.from_theta(-0.1)


class TestDensityMatrix:
    def test_from_qubit_init(self):
        rho = DensityMatrix.from_qubit_init(QubitInit(a=0.25, r=1.0))
        assert rho.rho22 == pytest.approx(0.25)
        assert rho.rho12 == pytest.approx(math.sqrt(0.75 * 0.25))

    def test_rejects_invalid_states(self):
        with pytest.raises(DomainError):
            DensityMatrix(elements=np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(DomainError):
            DensityMatrix(elements=np.array([[0.6, 0.0], [0.0, 0.6]]))  # trace
        with pytest.raises(DomainError):
            DensityMatrix(elements=np.array([[1.2, 0.0], [0.0, -0.2]]))  # not PSD
        with pytest.raises(DomainError):
            DensityMatrix(elements=np.array([[0.5, 0.6], [0.6, 0.5]]))  # not PSD

    def test_diagonal_and_hollow_split(self):
        rho = DensityMatrix.from_qubit_init(QubitInit(a=0.25, r=0.8, phi=1.0))
        np.testing.assert_allclose(
            rho.diagonal_part + rho.hollow_part, rho.elements, atol=1e-16
        )
        assert np.all(np.diag(rho.hollow_part) == 0)


class TestPropagatePopulations:
    def test_matches_qubit_closed_form(self):
        spectrum, bath = _reference_parts()
        a = transition_matrix(rate_matrix(spectrum, bath))
        for a0 in (0.0, 0.3, 0.9):
            for t in (0.0, 0.4, 2.0):
                p = propagate_populations(a, np.array([1.0 - a0, a0]), t)
                expected = 0.25 - math.exp(-2.0 * t) * (0.25 - a0)
                assert p[1] == pytest.approx(expected, abs=1e-14)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(rate_matrix(spectrum, bath))
            n = spectrum.n_levels
            p0 = rng.uniform(0.1, 1.0, size=n)
            p0 /= p0.sum()
            t = float(rng.uniform(0.0, 3.0))
            expected = expm(a.a * t) @ p0
            np.testing.assert_allclose(
                propagate_populations(a, p0, t), expected, rtol=0, atol=1e-12
            )

    # at t = 1e300 the rounding of eig's null eigenvalue, times t, would
    # overflow e^{lam t} or make the steady state vanish
    @pytest.mark.parametrize("t", [80.0, 1e300])
    def test_conserves_probability_and_reaches_gibbs(self, t):
        rng = np.random.default_rng(31)
        spectrum, bath = random_nlevel_model(rng, n_max=6)
        a = transition_matrix(rate_matrix(spectrum, bath))
        n = spectrum.n_levels
        p0 = np.zeros(n)
        p0[-1] = 1.0
        p = propagate_populations(a, p0, t)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            p, thermal_distribution(spectrum, bath.beta).pi, rtol=0, atol=1e-10
        )

    def test_defective_cascade_is_rejected(self):
        # The equal-rate decay chain 3 -> 2 -> 1 is the textbook defective
        # generator: its secular t*exp(-t) term has no eigendecomposition, so
        # the propagator must refuse it rather than return a wrong vector.
        a = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        with pytest.raises(DomainError, match="defective or too ill-conditioned"):
            propagate_populations(a, np.array([0.0, 0.0, 1.0]), 2.0)

    def test_low_temperature_models_match_matrix_exponential(self):
        for spectrum, bath, p0, t in _low_temperature_models(60):
            a = transition_matrix(rate_matrix(spectrum, bath))
            np.testing.assert_allclose(
                propagate_populations(a, p0, t), expm(a.a * t) @ p0, rtol=0, atol=1e-12
            )

    def test_domain(self):
        spectrum, bath = _reference_parts()
        a = transition_matrix(rate_matrix(spectrum, bath))
        with pytest.raises(DomainError):
            propagate_populations(a, np.array([0.6, 0.6]), 1.0)  # not normalized
        with pytest.raises(DomainError):
            propagate_populations(a, np.array([1.1, -0.1]), 1.0)  # negative
        with pytest.raises(DomainError):
            propagate_populations(a, np.array([0.5, 0.5]), -1.0)  # negative time


class TestCoherence:
    def test_reference_decay_rate(self):
        spectrum, bath = _reference_parts()
        rates = rate_matrix(spectrum, bath)
        # c_12 = (Gamma_12 + Gamma_21)/2 = (1.5 + 0.5)/2 = -lambda/2
        assert coherence_decay_rate(rates, 1, 2) == pytest.approx(1.0, rel=1e-15)

    def test_three_level_pair_rates(self):
        rng = np.random.default_rng(37)
        spectrum, bath = random_nlevel_model(rng, n_max=5)
        rates = rate_matrix(spectrum, bath)
        g = rates.gamma_rates
        n = spectrum.n_levels
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                expected = 0.5 * (
                    math.fsum(g[:, i - 1]) + math.fsum(g[:, j - 1])
                )
                assert coherence_decay_rate(rates, i, j) == pytest.approx(
                    expected, rel=1e-13
                )

    def test_pair_validation(self):
        spectrum, bath = _reference_parts()
        rates = rate_matrix(spectrum, bath)
        with pytest.raises(DomainError):
            coherence_decay_rate(rates, 1, 1)
        with pytest.raises(DomainError):
            coherence_decay_rate(rates, 0, 2)
        with pytest.raises(DomainError):
            coherence_decay_rate(rates, 1, 3)

    def test_propagate_coherence_decay_and_rotation(self):
        z = propagate_coherence(0.5, 2.0, 0.3 + 0.0j, 1.5)
        assert abs(z) == pytest.approx(0.3 * math.exp(-0.75), rel=1e-14)
        assert cmath.phase(z) == pytest.approx(
            math.remainder(3.0, 2.0 * math.pi), rel=1e-12
        )


class TestQubitState:
    def test_relaxation_rate(self):
        spectrum, bath = _reference_parts()
        assert qubit_relaxation_rate(spectrum, bath) == pytest.approx(-2.0, rel=1e-15)

    def test_relaxation_rate_at_high_temperature(self):
        # 2*pi2 - 1 cancels as beta*omega -> 0; lambda = -gamma/tanh(beta*omega/2)
        # must keep full precision down to the smallest accepted beta*omega.
        for x in np.geomspace(1e-3, 2e-15, 60).tolist():
            for omega, gamma in ((1.0, 0.7), (2.5, 1e-3), (0.4, 1e4)):
                beta = x / omega
                lam = qubit_relaxation_rate(Spectrum.qubit(omega), Bath(beta=beta, gamma=gamma))
                with mpmath.workdps(40):
                    exact = -mpmath.mpf(gamma) / mpmath.tanh(mpmath.mpf(beta) * omega / 2)
                    assert abs((lam - exact) / exact) <= 3e-16, x

    def test_reference_population_trajectory(self):
        spectrum, bath = _reference_parts()
        ground = QubitInit(a=0.0)
        assert qubit_state(ground, spectrum, bath, 1.0).rho22 == pytest.approx(
            0.25 * (1.0 - math.exp(-2.0)), rel=1e-14
        )
        assert qubit_state(ground, spectrum, bath, 0.5).rho22 == pytest.approx(
            0.25 * (1.0 - math.exp(-1.0)), rel=1e-14
        )

    def test_coherence_half_rate_and_phase(self):
        spectrum, bath = _reference_parts()
        init = QubitInit(a=0.25, r=1.0, phi=0.4)
        t = 1.3
        rho = qubit_state(init, spectrum, bath, t)
        expected = init.rho12_0 * math.exp(-t) * cmath.exp(1j * t)
        assert rho.rho12 == pytest.approx(expected, rel=1e-13)

    def test_agrees_with_general_evolution(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            s = random_scenario(rng)
            t = random_time(rng, s)
            direct = qubit_state(s.init, s.spectrum, s.bath, t)
            general = evolve_state(
                DensityMatrix.from_qubit_init(s.init), s.spectrum, s.bath, t
            )
            np.testing.assert_allclose(
                direct.elements, general.elements, rtol=0, atol=1e-12
            )

    def test_three_level_evolution_preserves_state_structure(self):
        rng = np.random.default_rng(43)
        spectrum = Spectrum(energies=(0.0, 0.8, 2.1))
        bath = Bath(beta=0.9, gamma=0.7)
        p = np.array([0.5, 0.3, 0.2])
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        mat = 0.8 * np.diag(p).astype(complex) + 0.2 * np.outer(psi, psi.conj())
        rho0 = DensityMatrix(elements=(mat + mat.conj().T) / 2.0)
        rho_t = evolve_state(rho0, spectrum, bath, 1.7)
        assert abs(np.trace(rho_t.elements) - 1.0) <= 1e-12
        # populations follow the generator irrespective of coherences
        a = transition_matrix(rate_matrix(spectrum, bath))
        np.testing.assert_allclose(
            rho_t.populations,
            propagate_populations(a, rho0.populations, 1.7),
            rtol=0,
            atol=1e-12,
        )
        # far future: Gibbs diagonal, coherences gone
        rho_inf = evolve_state(rho0, spectrum, bath, 200.0)
        np.testing.assert_allclose(
            rho_inf.populations,
            thermal_distribution(spectrum, bath.beta).pi,
            rtol=0,
            atol=1e-10,
        )
        assert np.max(np.abs(rho_inf.hollow_part)) <= 1e-12


class TestEvolveStateDerivative:
    def test_low_temperature_populations_match_mpmath(self):
        # Detailed-balance generators stay well conditioned far from the test
        # box: a 60-digit central difference of expm(A t) p0 is exact to far
        # below the tolerance (truncation h^2 ~ 1e-50, rounding 1e-60/h).
        worst = 0.0
        with mpmath.workdps(60):
            h = mpmath.mpf("1e-25")
            for spectrum, bath, p0, t in _low_temperature_models(40):
                beta, gamma = mpmath.mpf(bath.beta), mpmath.mpf(bath.gamma)
                up = _mp_populations(spectrum, beta + h, gamma, p0, t)
                dn = _mp_populations(spectrum, beta - h, gamma, p0, t)
                _, drho = evolve_state_derivative(
                    DensityMatrix.from_populations(p0), spectrum, bath, t
                )
                for k in range(spectrum.n_levels):
                    expected = float((up[k] - dn[k]) / (2 * h))
                    worst = max(worst, abs(drho[k, k].real - expected))
        assert worst <= 1e-12

    @pytest.mark.parametrize("t", [1e3, 1e6, 1e12, 1e300])
    def test_late_populations_reach_the_gibbs_derivative(self, t):
        # p(t) -> pi(beta) whatever p0 is, so d p/d beta -> d pi/d beta
        rng = np.random.default_rng(47)
        for _ in range(20):
            spectrum, bath = random_nlevel_model(rng)
            rho, drho = evolve_state_derivative(
                random_mixed_state(rng, spectrum.n_levels), spectrum, bath, t
            )
            np.testing.assert_allclose(
                np.diag(drho).real,
                thermal_population_derivative(spectrum, bath.beta),
                rtol=0,
                atol=1e-13,
            )
            np.testing.assert_allclose(
                rho.populations, thermal_distribution(spectrum, bath.beta).pi, rtol=0, atol=1e-13
            )

    def test_state_is_evolve_state_bit_for_bit(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            spectrum, bath = random_nlevel_model(rng)
            rho0 = random_mixed_state(rng, spectrum.n_levels)
            t = float(rng.uniform(0.0, 5.0))
            rho, drho = evolve_state_derivative(rho0, spectrum, bath, t)
            assert np.array_equal(rho.elements, evolve_state(rho0, spectrum, bath, t).elements)
            assert np.array_equal(drho, drho.conj().T)


class TestConversions:
    def test_beta_from_occupation_round_trip(self):
        for n12 in (0.1, 1.0, 5.5, 9.5, 80.0):
            for omega in (0.5, 1.0, 5.0):
                beta = beta_from_thermal_ratio(n12, omega)
                assert thermal_ratio(beta, omega) == pytest.approx(n12, rel=1e-12)

    def test_reference_betas(self):
        assert beta_from_thermal_ratio(5.5, 5.0) == pytest.approx(0.0334108, abs=1e-7)
        assert beta_from_thermal_ratio(9.5, 5.0) == pytest.approx(0.0200167, abs=1e-7)

    def test_gamma_from_collision_time(self):
        assert gamma_from_tau_tilde(0.05, 5.0) == pytest.approx(0.125, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_from_thermal_ratio(0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_from_tau_tilde(-0.1, 1.0)


class TestGadChannel:
    def test_reference_parameters(self):
        ch = gad_params(5.5, 0.05)
        assert ch.p1 == pytest.approx(5.5 / 10.0, rel=1e-15)
        assert ch.p2 == pytest.approx(1.0 - math.exp(-6.5 * 0.05), rel=1e-14)

    def test_kraus_completeness(self):
        for n12 in (1.0, 5.5, 9.5):
            for tau in (0.01, 0.05, 0.5):
                ops = gad_kraus_operators(gad_params(n12, tau))
                total = sum(k.conj().T @ k for k in ops)
                np.testing.assert_allclose(total, np.eye(2), rtol=0, atol=1e-14)

    def test_fixed_point_is_invariant(self):
        for n12 in (5.5, 9.5):
            ch = gad_params(n12, 0.05)
            fixed = gad_fixed_point(ch)
            mapped = gad_apply(ch, fixed)
            np.testing.assert_allclose(mapped.elements, fixed, rtol=0, atol=1e-14)

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(47)
        ch = gad_params(5.5, 0.3)
        for _ in range(10):
            a0 = float(rng.uniform(0.0, 1.0))
            r = float(rng.uniform(0.0, 1.0))
            rho = DensityMatrix.from_qubit_init(QubitInit(a=a0, r=r))
            out = gad_apply(ch, rho)  # DensityMatrix validation checks both
            assert abs(np.trace(out.elements) - 1.0) <= 1e-12

    def test_requires_inverted_ground_weight(self):
        # p1 = n/(2n - 1) lies in (0, 1] only for n >= 1
        with pytest.raises(DomainError):
            gad_params(0.9, 0.05)
        with pytest.raises(DomainError):
            gad_params(0.4, 0.05)

    def test_ground_start_comparison_rows(self):
        row = gad_master_comparison(5.5, 0.05, omega12=5.0)
        assert row["gamma"] == pytest.approx(0.125, rel=1e-15)
        assert row["rel_diff"] == pytest.approx(1.0 / 55.0, rel=1e-10)
        row = gad_master_comparison(9.5, 0.02, omega12=5.0)
        assert row["rel_diff"] == pytest.approx(1.0 / 171.0, rel=1e-10)

    def test_comparison_gap_is_collision_time_independent(self):
        gaps = [
            gad_master_comparison(5.5, tau, omega12=5.0)["rel_diff"]
            for tau in (0.005, 0.01, 0.05)
        ]
        assert max(gaps) - min(gaps) <= 1e-12

    def test_stationary_diagnostic(self):
        diag = gad_stationary_diagnostic(5.5)
        assert diag["ground_fixed_point"] == pytest.approx(0.55, rel=1e-15)
        assert diag["ground_thermal"] == pytest.approx(6.5 / 12.0, rel=1e-15)
        assert diag["excited_rel_gap"] == pytest.approx(1.0 / 55.0, rel=1e-10)
