"""State preparation, propagation, and the generalized amplitude-damping channel."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    RATE_RANGE,
    closed_form_state,
    exactly,
    random_mixed_state,
    random_nlevel_model,
    qubit,
    random_qubit,
    random_time,
)
from thermoqfi import (
    Bath,
    DomainError,
    QubitInit,
    Spectrum,
    beta_derivative_qubit,
    beta_from_thermal_ratio,
    evolve_state_derivative,
    gad_master_comparison,
    gad_params,
    gad_stationary_diagnostic,
    gamma_from_tau_tilde,
    qfi_decomposition,
    qubit_relaxation_rate,
    rate_matrix,
    sld_general,
    spectral_report,
    thermal_distribution,
    thermal_population_derivative,
    thermal_ratio,
    transition_matrix,
)
from thermoqfi.dynamics import (
    TANH_BETA_OMEGA,
    _default_t_max,
    _gad_excited,
    _qubit_model,
    _state,
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


def _mp_generator(spectrum: Spectrum, beta, gamma):
    """A at the working mpmath precision, built from the Bose rates."""
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
    return a


def _mp_populations(spectrum: Spectrum, beta, gamma, p0, t):
    """expm(A t) p0 at the working mpmath precision."""
    a = _mp_generator(spectrum, beta, gamma)
    return mpmath.expm(a * t) * mpmath.matrix([mpmath.mpf(x) for x in p0])


# (energies, beta, t) at gamma = 1, where a propagator that sums eigenmodes
# of mixed sign loses the small populations
_COLD_BAND_MODELS = [
    ((0.0, 1.0, 2.2, 2.7), 30.0, 10.0),
    ((0.0, 1.0, 2.2, 2.7), 100.0, 40.0),
    ((0.0, 0.5, 1.1), 200.0, 60.0),
]


def _propagated(spectrum: Spectrum, bath: Bath, p0, t: float) -> np.ndarray:
    """exp(A t) p0 as the library propagates it: the populations of the evolved state."""
    rho, _ = evolve_state_derivative(np.diag(p0), spectrum, bath, t)
    return np.diag(rho).real


# The public functions that take a caller's state, each applied to one
_ENTRY_POINTS = {
    "evolve_state_derivative": lambda rho: evolve_state_derivative(
        rho, Spectrum.qubit(1.0), Bath(beta=math.log(3.0), gamma=1.0), 1.0
    ),
    "sld_general": lambda rho: sld_general(rho, np.diag([0.1, -0.1])),
    "qfi_decomposition": lambda rho: qfi_decomposition(rho, np.diag([0.1, -0.1])),
}


class TestQubitInit:
    def test_theta_round_trip(self):
        init = QubitInit.from_theta(2.0 * math.pi / 3.0, r=0.5)
        assert init.a == pytest.approx(0.75, rel=1e-15)
        assert 2.0 * math.asin(math.sqrt(init.a)) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)

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

    def test_initial_state(self):
        rho = QubitInit(a=0.25, r=1.0).rho0
        assert rho[1, 1] == pytest.approx(0.25)
        assert rho[0, 1] == pytest.approx(math.sqrt(0.75 * 0.25))
        assert rho.dtype == complex and not rho.flags.writeable


class TestStateCheck:
    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize(
        "elements,message",
        [
            ([[0.5, 0.5], [0.1, 0.5]], "state must be Hermitian within 1e-12"),
            ([[0.6, 0.0], [0.0, 0.6]], "state must have unit trace within 1e-12"),
            ([[1.2, 0.0], [0.0, -0.2]], "state must be positive semidefinite within 1e-12"),
            ([[0.5, 0.6], [0.6, 0.5]], "state must be positive semidefinite within 1e-12"),
            ([0.5, 0.5], "state must be a nonempty square matrix"),
            (np.zeros((0, 0)), "state must be a nonempty square matrix"),
        ],
    )
    def test_rejects_invalid_states(self, entry, elements, message):
        with pytest.raises(DomainError, match=exactly(message)):
            _ENTRY_POINTS[entry](np.array(elements))

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize(
        "elements",
        [
            [[0.5, math.nan], [math.nan, 0.5]],
            [[0.5, math.inf], [math.inf, 0.5]],
            [[math.nan, 0.0], [0.0, math.nan]],
        ],
    )
    def test_rejects_non_finite_entries(self, entry, elements):
        with pytest.raises(DomainError, match="^state must be finite$"):
            _ENTRY_POINTS[entry](np.array(elements))

    def test_accepts_array_likes(self):
        for entry in _ENTRY_POINTS.values():
            entry([[0.75, 0.0], [0.0, 0.25]])

    def test_library_built_states_pass_the_check(self):
        # The states the library builds are returned without a second check;
        # this is the check they would meet, over the edges of each builder.
        rng = np.random.default_rng(61)
        built = []
        for n in range(2, 9):
            gaps = rng.uniform(0.3, 2.0, size=n - 1)
            spectrum = Spectrum(energies=tuple(np.concatenate([[0.0], np.cumsum(gaps)])))
            bath = Bath(beta=float(rng.uniform(0.2, 1.5)), gamma=float(rng.uniform(0.2, 3.0)))
            slowest = abs(spectral_report(transition_matrix(spectrum, bath)).eigenvalues[1].real)
            p = rng.uniform(0.0, 1.0, size=n)
            for rho0 in (random_mixed_state(rng, n), np.diag(p / p.sum()), np.diag(np.eye(n)[-1])):
                for turns in (0.0, 0.1, 1.0, 5.0, 50.0):
                    built.append(evolve_state_derivative(rho0, spectrum, bath, turns / slowest)[0])
        for t in (1e-12, 1e-6, 1.0):
            for _ in range(10):
                omega = float(rng.uniform(0.3, 3.0))
                pure = qubit(
                    omega12=omega,
                    beta=float(rng.uniform(0.2, 3.0)) / omega,
                    gamma=float(rng.uniform(0.2, 3.0)),
                    a=float(rng.uniform(0.0, 1.0)),
                    r=1.0,
                    phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                )
                built.append(beta_derivative_qubit(*pure, t)[0])
        for rho in built:
            assert not rho.flags.writeable
            np.testing.assert_array_equal(_state(rho), rho)


class TestPropagatePopulations:
    def test_matches_qubit_closed_form(self):
        spectrum, bath = _reference_parts()
        for a0 in (0.0, 0.3, 0.9):
            for t in (0.0, 0.4, 2.0):
                p = _propagated(spectrum, bath, [1.0 - a0, a0], t)
                expected = 0.25 - math.exp(-2.0 * t) * (0.25 - a0)
                assert p[1] == pytest.approx(expected, abs=1e-14)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            spectrum, bath = random_nlevel_model(rng)
            a = transition_matrix(spectrum, bath)
            n = spectrum.n_levels
            p0 = rng.uniform(0.1, 1.0, size=n)
            p0 /= p0.sum()
            t = float(rng.uniform(0.0, 3.0))
            expected = expm(a * t) @ p0
            np.testing.assert_allclose(
                _propagated(spectrum, bath, p0, t), expected, rtol=0, atol=1e-12
            )

    # at t = 1e300 the propagator squares about a thousand times; a rounding
    # of the column sums left in place would double at each squaring
    @pytest.mark.parametrize("t", [80.0, 1e300])
    def test_conserves_probability_and_reaches_gibbs(self, t):
        rng = np.random.default_rng(31)
        spectrum, bath = random_nlevel_model(rng, n_max=6)
        n = spectrum.n_levels
        p0 = np.zeros(n)
        p0[-1] = 1.0
        p = _propagated(spectrum, bath, p0, t)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            p, thermal_distribution(spectrum, bath.beta), rtol=0, atol=1e-10
        )

    def test_domain(self):
        spectrum, bath = _reference_parts()
        with pytest.raises(DomainError, match="unit trace"):
            _propagated(spectrum, bath, [0.6, 0.6], 1.0)  # not normalized
        with pytest.raises(DomainError, match="positive semidefinite"):
            _propagated(spectrum, bath, [1.1, -0.1], 1.0)  # negative
        with pytest.raises(DomainError, match="nonnegative"):
            _propagated(spectrum, bath, [0.5, 0.5], -1.0)  # negative time
        with pytest.raises(DomainError, match="must match the spectrum"):
            _propagated(spectrum, bath, [0.5, 0.3, 0.2], 1.0)  # three levels, two-level model

    def test_low_temperature_models_match_matrix_exponential(self):
        for spectrum, bath, p0, t in _low_temperature_models(60):
            a = transition_matrix(spectrum, bath)
            np.testing.assert_allclose(
                _propagated(spectrum, bath, p0, t), expm(a * t) @ p0, rtol=0, atol=1e-12
            )


class TestCoherence:
    def test_reference_decay_and_rotation(self):
        # c_12 = (Gamma_12 + Gamma_21)/2 = (1.5 + 0.5)/2 = -lambda/2 = 1, omega = 1
        spectrum, bath = _reference_parts()
        rho0 = QubitInit(a=0.25, r=0.8, phi=0.4).rho0
        c0 = rho0[0, 1]
        for t in (0.0, 0.3, 1.5, 4.0):
            rho, _ = evolve_state_derivative(rho0, spectrum, bath, t)
            c = rho[0, 1]
            assert abs(c) == pytest.approx(abs(c0) * math.exp(-t), rel=1e-14)
            assert cmath.phase(c / c0) == pytest.approx(math.remainder(t, 2.0 * math.pi), abs=1e-14)

    def test_nlevel_pair_rates(self):
        # each pair decays at (sum_k Gamma_ki + sum_k Gamma_kj)/2 and rotates at E_j - E_i
        rng = np.random.default_rng(37)
        for _ in range(10):
            spectrum, bath = random_nlevel_model(rng)
            g = rate_matrix(spectrum, bath)
            rho0 = random_mixed_state(rng, spectrum.n_levels)
            t = float(rng.uniform(0.0, 3.0))
            rho, _ = evolve_state_derivative(rho0, spectrum, bath, t)
            n = spectrum.n_levels
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    c = 0.5 * (math.fsum(g[:, i]) + math.fsum(g[:, j]))
                    c0, ct = rho0[i, j], rho[i, j]
                    assert abs(ct) == pytest.approx(abs(c0) * math.exp(-c * t), rel=1e-13)
                    omega = spectrum.energies[j] - spectrum.energies[i]
                    assert cmath.phase(ct / c0) == pytest.approx(
                        math.remainder(omega * t, 2.0 * math.pi), abs=1e-12
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

    def test_scalar_and_array_beta_take_one_path(self):
        # pi2, lam_hat and dpi2 are formed on one path for scalar and array
        # beta. A scalar call must give the floats of the two-branch scalar
        # form below, and an array call the same bits elementwise, over the
        # whole range, at its ends and on both sides of the tanh switch.
        def two_branch(omega, beta):
            x = beta * omega
            w = np.exp(-x)
            pi2 = w / (1.0 + w)
            gap = -np.tanh(x / 2.0) if x < TANH_BETA_OMEGA else 2.0 * pi2 - 1.0
            return float(pi2), float(1.0 / gap), float(-(1.0 - pi2) * pi2 * omega)

        rng = np.random.default_rng(30)
        xs = np.exp(rng.uniform(math.log(2.5e-15), math.log(630.0), 20000)).tolist()
        switch = TANH_BETA_OMEGA
        xs += [2e-15, math.nextafter(switch, 0.0), switch, math.nextafter(switch, 1.0)]
        xs += [0.2, 3.0, 745.0]
        for omega in (1.0, 2.5, 1e-3):
            betas = [x / omega for x in xs]
            expected = [tuple(v.hex() for v in two_branch(omega, beta)) for beta in betas]
            scalar = [_qubit_model(omega, beta)[1:] for beta in betas]
            assert all(type(v) is float for model in scalar for v in model)
            assert [tuple(v.hex() for v in model) for model in scalar] == expected
            batch = np.column_stack(_qubit_model(omega, np.array(betas))[1:])
            assert [tuple(v.hex() for v in row) for row in batch.tolist()] == expected

    @pytest.mark.parametrize("shape", [float, lambda beta: np.array([1.0, beta])])
    def test_range_errors_name_the_offending_beta_omega(self, shape):
        with pytest.raises(DomainError, match=exactly(
            "beta*omega = 1e-16 is too small: both thermal populations round to 1/2 and the "
            "relaxation rate gamma/(pi2 - pi1) is undefined; the supported range is "
            "2e-15 <= beta*omega <= 745"
        )):
            _qubit_model(1.0, shape(1e-16))
        with pytest.raises(DomainError, match=exactly(
            "Gibbs weights underflow to zero at beta*omega = 800; "
            "the supported range is beta*omega <= 745"
        )):
            _qubit_model(1.0, shape(800.0))

    def test_reference_population_trajectory(self):
        spectrum, bath = _reference_parts()
        ground = QubitInit(a=0.0)
        assert closed_form_state(ground, spectrum, bath, 1.0)[1, 1].real == pytest.approx(
            0.25 * (1.0 - math.exp(-2.0)), rel=1e-14
        )
        assert closed_form_state(ground, spectrum, bath, 0.5)[1, 1].real == pytest.approx(
            0.25 * (1.0 - math.exp(-1.0)), rel=1e-14
        )

    def test_coherence_half_rate_and_phase(self):
        spectrum, bath = _reference_parts()
        init = QubitInit(a=0.25, r=1.0, phi=0.4)
        t = 1.3
        rho = closed_form_state(init, spectrum, bath, t)
        expected = init.rho12_0 * math.exp(-t) * cmath.exp(1j * t)
        assert rho[0, 1] == pytest.approx(expected, rel=1e-13)

    def test_agrees_with_general_evolution(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            init, spectrum, bath = random_qubit(rng)
            t = random_time(rng, spectrum, bath)
            direct = closed_form_state(init, spectrum, bath, t)
            general, _ = evolve_state_derivative(init.rho0, spectrum, bath, t)
            np.testing.assert_allclose(direct, general, rtol=0, atol=1e-12)

    def test_three_level_evolution_preserves_state_structure(self):
        rng = np.random.default_rng(43)
        spectrum = Spectrum(energies=(0.0, 0.8, 2.1))
        bath = Bath(beta=0.9, gamma=0.7)
        p = np.array([0.5, 0.3, 0.2])
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        mat = 0.8 * np.diag(p).astype(complex) + 0.2 * np.outer(psi, psi.conj())
        rho0 = (mat + mat.conj().T) / 2.0
        rho_t, _ = evolve_state_derivative(rho0, spectrum, bath, 1.7)
        assert abs(np.trace(rho_t) - 1.0) <= 1e-12
        # populations follow the generator irrespective of coherences
        np.testing.assert_allclose(
            np.diag(rho_t).real,
            _propagated(spectrum, bath, np.diag(rho0).real, 1.7),
            rtol=0,
            atol=1e-12,
        )
        # far future: Gibbs diagonal, coherences gone
        rho_inf, _ = evolve_state_derivative(rho0, spectrum, bath, 200.0)
        np.testing.assert_allclose(
            np.diag(rho_inf).real,
            thermal_distribution(spectrum, bath.beta),
            rtol=0,
            atol=1e-10,
        )
        assert np.max(np.abs(rho_inf - np.diag(np.diag(rho_inf)))) <= 1e-12


class TestDefaultWindow:
    @pytest.mark.parametrize("beta_omega", [0.01, 1.0, 6.0, 6.5, 15.0, 30.0, 300.0])
    def test_twenty_relaxation_times_or_fourteen_past_beta_omega(self, beta_omega):
        # Twenty relaxation times up to beta*omega = 6; colder, the window
        # ends where e^{lambda t} = e^{-14 - beta*omega}, about e^{-14} pi2.
        spectrum, bath = Spectrum.qubit(2.0), Bath(beta=beta_omega / 2.0, gamma=0.7)
        lam = qubit_relaxation_rate(spectrum, bath)
        t_max = _default_t_max(spectrum, bath)
        if beta_omega <= 6.0:
            assert t_max == 20.0 / abs(lam)
        else:
            assert t_max == (14.0 + beta_omega) / abs(lam)
            assert math.exp(lam * t_max) == pytest.approx(math.exp(-14.0 - beta_omega), rel=1e-12)


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
                _, drho = evolve_state_derivative(np.diag(p0), spectrum, bath, t)
                for k in range(spectrum.n_levels):
                    expected = float((up[k] - dn[k]) / (2 * h))
                    worst = max(worst, abs(drho[k, k].real - expected))
        assert worst <= 1e-12

    def test_low_temperature_coherences_match_mpmath(self):
        # rho_ij(t) = rho0_ij e^{-(L_i + L_j) t/2} e^{i (E_j - E_i) t} with L_j = -A_jj;
        # its beta-derivative as a 60-digit central difference of the decay factor.
        # The derivatives reach about 3e-4 here and agree to about 2e-19.
        rng = np.random.default_rng(59)
        worst = 0.0
        with mpmath.workdps(60):
            h = mpmath.mpf("1e-25")
            for spectrum, bath, _, t in _low_temperature_models(40):
                n = spectrum.n_levels
                if n < 3:
                    continue
                beta, gamma = mpmath.mpf(bath.beta), mpmath.mpf(bath.gamma)
                up = _mp_generator(spectrum, beta + h, gamma)
                dn = _mp_generator(spectrum, beta - h, gamma)
                rho0 = random_mixed_state(rng, n)
                _, drho = evolve_state_derivative(rho0, spectrum, bath, t)
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        decay_up = mpmath.exp((up[i, i] + up[j, j]) * t / 2)
                        decay_dn = mpmath.exp((dn[i, i] + dn[j, j]) * t / 2)
                        omega = spectrum.energies[j] - spectrum.energies[i]
                        expected = (
                            complex(rho0[i, j])
                            * cmath.exp(1j * omega * t)
                            * float((decay_up - decay_dn) / (2 * h))
                        )
                        worst = max(worst, abs(drho[i, j] - expected))
        assert worst <= 1e-15

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
                np.diag(rho).real, thermal_distribution(spectrum, bath.beta), rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("energies,beta,t", _COLD_BAND_MODELS)
    @pytest.mark.parametrize("start", ["ground", "uniform"])
    def test_cold_band_matches_a_250_digit_expm(self, energies, beta, t, start):
        # Populations down to 1e-118 keep their relative accuracy. The
        # reference derivative is a central difference with h = 1e-100
        # (truncation h^2, rounding 1e-250/h). The largest population's
        # derivative is minus the sum of the others, so the derivatives are
        # held to the scale of the vector, not elementwise.
        spectrum, bath = Spectrum(energies=energies), Bath(beta=beta, gamma=1.0)
        n = spectrum.n_levels
        p0 = np.eye(n)[0] if start == "ground" else np.full(n, 1.0 / n)
        rho, drho = evolve_state_derivative(np.diag(p0), spectrum, bath, t)
        with mpmath.workdps(250):
            h, beta_mp = mpmath.mpf("1e-100"), mpmath.mpf(beta)
            exact = _mp_populations(spectrum, beta_mp, 1, p0, t)
            up = _mp_populations(spectrum, beta_mp + h, 1, p0, t)
            dn = _mp_populations(spectrum, beta_mp - h, 1, p0, t)
            exact_p = np.array([float(x) for x in exact])
            exact_dp = np.array([float((u - d) / (2 * h)) for u, d in zip(up, dn)])
        np.testing.assert_allclose(np.diag(rho).real, exact_p, rtol=1e-12, atol=0)
        assert np.max(np.abs(np.diag(drho).real - exact_dp)) <= 1e-11 * np.max(np.abs(exact_dp))

    def test_zero_time_returns_the_initial_state_exactly(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            spectrum, bath = random_nlevel_model(rng)
            rho0 = random_mixed_state(rng, spectrum.n_levels)
            rho, drho = evolve_state_derivative(rho0, spectrum, bath, 0.0)
            assert rho.tobytes() == rho0.astype(complex).tobytes()
            assert not np.any(drho)

    def test_rates_times_time_past_the_double_range_reach_gibbs(self):
        # Lambda t is about 1e350, past the double range: the populations
        # still reach the Gibbs state and its derivative, and the coherences,
        # whose decay exponents overflow too, decay to 0 without a NaN.
        spectrum, bath = Spectrum(energies=(0.0, 0.5, 1.1)), Bath(beta=1.0, gamma=1e150)
        rho0 = random_mixed_state(np.random.default_rng(71), 3)
        rho, drho = evolve_state_derivative(rho0, spectrum, bath, 1e200)
        np.testing.assert_allclose(
            np.diag(rho).real, thermal_distribution(spectrum, bath.beta), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            np.diag(drho).real,
            thermal_population_derivative(spectrum, bath.beta),
            rtol=0,
            atol=1e-13,
        )
        off = ~np.eye(3, dtype=bool)
        assert not np.any(rho[off]) and not np.any(drho[off])

    def test_decayed_coherence_ignores_an_overflowing_angle(self):
        # The angle 1e10 * 1e300 is past the double range, but the decay has
        # taken the coherence to exactly 0, so it is 0 with no NaN or warning.
        rho, drho = evolve_state_derivative(
            [[0.5, 0.5], [0.5, 0.5]], Spectrum(energies=(0.0, 1e10)), Bath(beta=1e-10, gamma=1.0),
            1e300,
        )
        assert rho[0, 1] == 0 and rho[1, 0] == 0
        assert drho[0, 1] == 0 and drho[1, 0] == 0

    def test_surviving_coherence_with_an_overflowing_angle_is_rejected(self):
        # At gamma = 1e-300 the coherence keeps e^{-1.08} of itself, but its
        # phase angle of 1e310 rad is not a double.
        with pytest.raises(DomainError, match=r"overflows .* at gap 1e\+10 and t = 1e\+300"):
            evolve_state_derivative(
                [[0.5, 0.5], [0.5, 0.5]],
                Spectrum(energies=(0.0, 1e10)),
                Bath(beta=1e-10, gamma=1e-300),
                1e300,
            )

    def test_derivative_is_hermitian(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            spectrum, bath = random_nlevel_model(rng)
            rho0 = random_mixed_state(rng, spectrum.n_levels)
            t = float(rng.uniform(0.0, 5.0))
            _, drho = evolve_state_derivative(rho0, spectrum, bath, t)
            assert np.array_equal(drho, drho.conj().T)

    @pytest.mark.parametrize(
        "t,message",
        [
            (math.nan, "^t must be finite$"),
            (math.inf, "^t must be finite$"),
            (-math.inf, "^t must be finite$"),
            (-1.0, "^t must be nonnegative$"),
        ],
    )
    def test_rejects_bad_time(self, t, message):
        spectrum, bath = _reference_parts()
        rho0 = np.diag([0.5, 0.5])
        with pytest.raises(DomainError, match=message):
            evolve_state_derivative(rho0, spectrum, bath, t)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "beta,gamma,message",
        [
            (1e-10, 1e300, "^rates must be finite and nonnegative$"),
            pytest.param(1e-300, 1.0, exactly(
                "detailed-balance ordering violated: the decay rate gamma (n+1) rounds to the "
                f"excitation rate gamma n of pair (1,2) at beta*omega = 1e-300; {RATE_RANGE}"
            ), id="beta_omega=1e-300"),
            pytest.param(800.0, 1.0, exactly(
                "off-diagonal entries must be strictly positive: the excitation rate gamma n "
                f"is 0 for pair (1,2) at beta*omega = 800; {RATE_RANGE}"
            ), id="beta_omega=800"),
            # 1/(e^{beta omega} - 1) is a positive double up to beta*omega = 745 or so,
            # but thermal_ratio returns 0 past 709, where expm1 overflows
            pytest.param(720.0, 1.0, exactly(
                "off-diagonal entries must be strictly positive: the excitation rate gamma n "
                f"is 0 for pair (1,2) at beta*omega = 720; {RATE_RANGE}"
            ), id="beta_omega=720"),
            pytest.param(745.0, 1.0, exactly(
                "off-diagonal entries must be strictly positive: the excitation rate gamma n "
                f"is 0 for pair (1,2) at beta*omega = 745; {RATE_RANGE}"
            ), id="beta_omega=745"),
            # n = 9.9e-305 is a double, gamma n = 9.9e-325 is not
            pytest.param(700.0, 1e-20, exactly(
                "off-diagonal entries must be strictly positive: the excitation rate gamma n "
                "underflows to 0 at gamma = 1e-20 for pair (1,2) at beta*omega = 700; "
                "gamma n must be at least 4.94066e-324"
            ), id="gamma_n_underflow"),
            # rates near 1e303 are finite, but the product g_12 g_21 in dA/d beta is not
            (1e-3, 1e300, r"^gamma = 1e\+300 is too large"),
        ],
    )
    def test_rejects_models_past_double_precision(self, beta, gamma, message):
        rho0 = np.diag([0.5, 0.5])
        with pytest.raises(DomainError, match=message):
            evolve_state_derivative(rho0, Spectrum.qubit(1.0), Bath(beta=beta, gamma=gamma), 1.0)


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


def _kraus_excited(p1: float, p2: float, q: float) -> float:
    """Reference: the excited population after the four-operator Kraus sum on diag(1-q, q)."""
    s1, s1c, s2, s2c = (math.sqrt(x) for x in (p1, 1.0 - p1, p2, 1.0 - p2))
    kraus = [
        s1 * np.array([[1.0, 0.0], [0.0, s2c]], dtype=complex),
        s1 * np.array([[0.0, s2], [0.0, 0.0]], dtype=complex),
        s1c * np.array([[s2c, 0.0], [0.0, 1.0]], dtype=complex),
        s1c * np.array([[0.0, 0.0], [s2, 0.0]], dtype=complex),
    ]
    np.testing.assert_allclose(sum(k.conj().T @ k for k in kraus), np.eye(2), rtol=0, atol=1e-14)
    rho = np.diag([1.0 - q, q]).astype(complex)
    return float(sum(k @ rho @ k.conj().T for k in kraus)[1, 1].real)


# Inputs the channel's [0, 1] check on (p1, p2) used to reject, and an n12
# whose double overflows (p1 = n12/(2*n12 - 1) would read 0, and the thermal
# excited population n12/(2*n12 + 1) 0), each one call.
_GAD_NON_FINITE = {
    "params-n12-inf": lambda: gad_params(math.inf, 0.05),
    "params-2n12-inf": lambda: gad_params(1e308, 0.05),
    "diagnostic-2n12-inf": lambda: gad_stationary_diagnostic(1e308),
    "params-tau-nan": lambda: gad_params(5.5, math.nan),
    "comparison-n12-inf": lambda: gad_master_comparison(math.inf, 0.05, omega12=5.0),
    "comparison-tau-nan": lambda: gad_master_comparison(5.5, math.nan, omega12=5.0),
    "diagnostic-n12-inf": lambda: gad_stationary_diagnostic(math.inf),
}


class TestGadChannel:
    def test_reference_parameters(self):
        p1, p2 = gad_params(5.5, 0.05)
        assert p1 == pytest.approx(5.5 / 10.0, rel=1e-15)
        assert p2 == pytest.approx(1.0 - math.exp(-6.5 * 0.05), rel=1e-14)

    @pytest.mark.parametrize("n12", [1.0, 5.5, 9.5])
    def test_map_matches_the_kraus_sum(self, n12):
        # within 1e-15 relative, so exactly where the sum is 0 (n12 = 1, q = 0)
        for tau in (0.01, 0.05, 0.5, 5.0):
            p1, p2 = gad_params(n12, tau)
            for q in (0.0, 0.3, 1.0 - p1, 1.0):
                expected = _kraus_excited(p1, p2, q)
                got = _gad_excited(p1, p2, q)
                assert abs(got - expected) <= 1e-15 * expected, (tau, q)
            expected = _kraus_excited(p1, p2, 0.0)
            got = gad_master_comparison(n12, tau, omega12=5.0)["p2_gad"]
            assert abs(got - expected) <= 1e-15 * expected, tau

    @pytest.mark.parametrize("call", _GAD_NON_FINITE)
    def test_rejects_non_finite_inputs(self, call):
        with pytest.raises(DomainError):
            _GAD_NON_FINITE[call]()

    def test_accepts_the_largest_n12_whose_double_is_finite(self):
        n12 = sys.float_info.max / 2.0
        assert gad_params(n12, 0.05) == (0.5, 1.0)
        diag = gad_stationary_diagnostic(n12)
        assert diag["excited_fixed_point"] == 0.5 and diag["excited_thermal"] == 0.5

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

    def test_comparison_rejects_a_zero_collision_time(self):
        # gamma = tau_tilde omega12/2 vanishes, so no master-equation time matches
        with pytest.raises(DomainError, match="^tau_tilde must be positive$"):
            gad_master_comparison(5.5, 0.0, omega12=5.0)

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
