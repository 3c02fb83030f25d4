"""SLD and QFI machinery: closed forms, the Lyapunov solver, decomposition."""

import math

import numpy as np
import pytest

from thermoqfi import (
    Bath,
    DensityMatrix,
    DerivativeBundle,
    DomainError,
    ModelIntegrityError,
    QfiResult,
    QubitInit,
    SldMatrix,
    Spectrum,
    beta_derivative_qubit,
    diagonal_qfi,
    evolve_state_derivative,
    qfi_decomposition,
    qfi_values,
    qubit_qfi,
    qubit_sld,
    qubit_state,
    sld_general,
    thermal_population_derivative,
    thermal_qfi,
)
from thermoqfi.qfi import EPS_GUARD, trace_blocks

from conftest import random_mixed_state, random_scenario, random_time

SPECTRUM = Spectrum.qubit(1.0)
BATH = Bath(beta=math.log(3.0), gamma=1.0)


class TestDerivativeBundle:
    def test_rejects_nonzero_sum(self):
        with pytest.raises(DomainError, match="sum to zero"):
            DerivativeBundle(
                d_populations=np.array([0.1, 0.2]),
                d_coherence=0j,
                alpha=0.0,
                delta=0.0,
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError, match="finite"):
            DerivativeBundle(
                d_populations=np.array([math.nan, 0.0]),
                d_coherence=0j,
                alpha=0.0,
                delta=0.0,
            )

    def test_ground_start_reference_values(self):
        # pi2 = 1/4, lam = -2: delta(1) = 1 - e^{-2} + 2 e^{-2} and
        # d p2 = -(1 - pi2) pi2 omega * delta.
        b = beta_derivative_qubit(QubitInit(a=0.0), SPECTRUM, BATH, 1.0)
        assert b.delta == pytest.approx(1.1353352832366128, rel=1e-15)
        assert float(b.d_populations[1]) == pytest.approx(
            -0.2128753656068649, rel=1e-15
        )
        assert b.alpha == pytest.approx(0.75, rel=1e-15)
        assert b.d_coherence == 0j
        assert math.fsum(b.d_populations) == 0.0

    def test_coherent_reference_values(self):
        b = beta_derivative_qubit(QubitInit(a=0.1, r=1.0, phi=0.0), SPECTRUM, BATH, 1.0)
        assert b.delta == pytest.approx(1.0270670566473226, rel=1e-15)
        assert float(b.d_populations[1]) == pytest.approx(
            -0.19257507312137298, rel=1e-15
        )
        assert b.d_coherence == pytest.approx(
            0.044722374827942925 + 0.06965097202195025j, rel=1e-14
        )

    def test_delta_depends_on_gamma_t_product_only(self):
        ref = beta_derivative_qubit(QubitInit(a=0.0), SPECTRUM, BATH, 1.0).delta
        for gamma in (0.5, 2.0, 7.0):
            b = beta_derivative_qubit(
                QubitInit(a=0.0), SPECTRUM, Bath(beta=BATH.beta, gamma=gamma), 1.0 / gamma
            )
            assert b.delta == pytest.approx(ref, rel=1e-13)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            beta_derivative_qubit(QubitInit(a=0.0), SPECTRUM, BATH, -0.1)

    def test_rejects_multilevel_spectrum(self):
        with pytest.raises(DomainError):
            beta_derivative_qubit(
                QubitInit(a=0.0), Spectrum(energies=(0.0, 1.0, 2.0)), BATH, 1.0
            )


class TestGeneralDerivative:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(40):
            s = random_scenario(rng)
            t = random_time(rng, s)
            closed = beta_derivative_qubit(s.init, s.spectrum, s.bath, t)
            rho, drho = evolve_state_derivative(
                DensityMatrix.from_qubit_init(s.init), s.spectrum, s.bath, t
            )
            dpi2 = thermal_population_derivative(s.spectrum, s.bath.beta)[1]
            gaps = (
                np.abs(closed.d_populations - np.diag(drho).real),
                abs(closed.d_coherence - drho[0, 1]),
                abs(closed.alpha * rho.rho12 - drho[0, 1]),
                abs(closed.delta * dpi2 - drho[1, 1].real),
            )
            scale = 1.0 + max(float(np.max(np.abs(closed.d_populations))), abs(closed.d_coherence))
            worst = max(worst, max(float(np.max(gap)) for gap in gaps) / scale)
        assert worst <= 1e-12

    def test_partial_derivative_at_thermal_init(self):
        # Starting at a = pi2 the initial state does not track beta, so only
        # the relaxation term survives: d p = (1 - e^{lam t}) d pi.
        dpi2 = -0.1875  # -(1 - pi2) pi2 omega at pi2 = 1/4, omega = 1
        rho0 = DensityMatrix.from_populations([0.75, 0.25])
        for t in (0.3, 1.0, 2.5):
            _, drho = evolve_state_derivative(rho0, SPECTRUM, BATH, t)
            expected = -math.expm1(-2.0 * t) * dpi2
            assert float(drho[1, 1].real) == pytest.approx(expected, rel=1e-13)


class TestThermalQuantities:
    def test_qubit_thermal_qfi(self):
        # omega^2 pi2 (1 - pi2) = 3/16 at pi2 = 1/4
        assert thermal_qfi(SPECTRUM, BATH.beta) == pytest.approx(0.1875, rel=1e-15)

    def test_three_level_matches_energy_variance(self):
        spectrum = Spectrum(energies=(0.0, 0.7, 1.9))
        beta = 0.8
        pi = np.exp(-beta * np.asarray(spectrum.energies))
        pi /= pi.sum()
        mean = float(np.sum(pi * spectrum.energies))
        var = float(np.sum(pi * (np.asarray(spectrum.energies) - mean) ** 2))
        assert thermal_qfi(spectrum, beta) == pytest.approx(var, rel=1e-14)
        assert thermal_qfi(spectrum, beta) == pytest.approx(
            0.3899541873972254, rel=1e-15
        )

    def test_population_derivative_qubit(self):
        d = thermal_population_derivative(SPECTRUM, BATH.beta)
        np.testing.assert_allclose(d, [0.1875, -0.1875], rtol=0, atol=1e-16)

    def test_population_derivative_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            energies = tuple(np.cumsum(np.concatenate([[0.0], rng.uniform(0.3, 2.0, n - 1)])))
            d = thermal_population_derivative(Spectrum(energies=energies), float(rng.uniform(0.2, 2.0)))
            assert abs(math.fsum(d)) <= 1e-15 * (1.0 + float(np.max(np.abs(d))))


class TestDiagonalQfi:
    def test_thermal_case(self):
        f = diagonal_qfi([0.75, 0.25], [0.1875, -0.1875])
        assert f == pytest.approx(0.1875, rel=1e-15)

    def test_divergence_flag_off_support(self):
        assert diagonal_qfi([1.0, 0.0], [0.5, -0.5]) == math.inf

    def test_guard_skips_negligible_component(self):
        f = diagonal_qfi([1.0, 0.0], [1e-13, -1e-13])
        assert f == pytest.approx(1e-26, rel=1e-12)

    def test_validation_errors(self):
        with pytest.raises(DomainError, match="equal length"):
            diagonal_qfi([0.5, 0.5], [0.1, -0.05, -0.05])
        with pytest.raises(DomainError, match="nonnegative"):
            diagonal_qfi([1.2, -0.2], [0.1, -0.1])
        with pytest.raises(DomainError, match="sum to one"):
            diagonal_qfi([0.6, 0.6], [0.1, -0.1])
        with pytest.raises(DomainError, match="sum to zero"):
            diagonal_qfi([0.5, 0.5], [0.1, 0.1])


class TestSldGeneral:
    def test_thermal_state_oracle(self):
        # For rho = diag(pi), drho = diag(dpi) the SLD is diag(<H> - eps)
        # and the QFI is the energy variance.
        spectrum = Spectrum(energies=(0.0, 0.7, 1.9))
        beta = 0.8
        pi = np.exp(-beta * np.asarray(spectrum.energies))
        pi /= pi.sum()
        dpi = thermal_population_derivative(spectrum, beta)
        sld = sld_general(np.diag(pi).astype(complex), np.diag(dpi).astype(complex))
        mean = float(np.sum(pi * spectrum.energies))
        np.testing.assert_allclose(
            np.diag(sld.elements).real,
            mean - np.asarray(spectrum.energies),
            rtol=0,
            atol=1e-13,
        )
        f = float(np.trace(np.diag(dpi) @ sld.elements).real)
        assert f == pytest.approx(thermal_qfi(spectrum, beta), rel=1e-13)
        assert sld.residual <= 1e-15

    def test_support_guard_zeroes_dead_pair(self):
        # Rank-one state: the (2,2) pair sum is zero, so that entry of L is
        # set to zero while the off-diagonal Lyapunov equation still holds.
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
        sld = sld_general(rho, drho)
        assert sld.elements[1, 1] == 0.0
        assert sld.elements[0, 1] == pytest.approx(0.2, rel=1e-14)
        assert sld.residual <= 1e-14

    def test_off_support_derivative_raises(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.diag([0.5, -0.5]).astype(complex)
        with pytest.raises(ModelIntegrityError, match="residual"):
            sld_general(rho, drho)

    def test_validation_errors(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        with pytest.raises(DomainError, match="Hermitian"):
            sld_general(rho, np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))
        with pytest.raises(DomainError, match="traceless"):
            sld_general(rho, np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(DomainError, match="dimension"):
            sld_general(rho, np.zeros((3, 3), dtype=complex))


class TestQubitSld:
    def test_reference_values(self):
        sld = qubit_sld(QubitInit(a=0.1, r=1.0, phi=0.0), SPECTRUM, BATH, 1.0)
        assert sld.l11 == pytest.approx(0.21453682587084863, rel=1e-13)
        assert sld.l22 == pytest.approx(-0.9573036418064816, rel=1e-13)
        assert sld.l12 == pytest.approx(
            0.1337358109252606 + 0.20828118499798828j, rel=1e-13
        )

    def test_matches_general_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = random_scenario(rng)
            t = random_time(rng, s, lo=0.05)
            closed = qubit_sld(s.init, s.spectrum, s.bath, t)
            bundle = beta_derivative_qubit(s.init, s.spectrum, s.bath, t)
            drho = np.array(
                [
                    [bundle.d_populations[0], bundle.d_coherence],
                    [np.conj(bundle.d_coherence), bundle.d_populations[1]],
                ]
            )
            general = sld_general(qubit_state(s.init, s.spectrum, s.bath, t), drho)
            assert float(np.max(np.abs(closed.elements - general.elements))) <= 1e-10

    def test_matches_paper_closed_form(self):
        # The paper's closed-form SLD, with g = d rho22/d beta, m = |rho12|^2
        # and D = (1 - rho22) rho22 - m:
        #   l11 = (2 g m - 2 alpha rho22 m - rho22 g)/D
        #   l22 = (-2 g m - 2 alpha (1 - rho22) m + (1 - rho22) g)/D
        #   l12 = (2 alpha (1 - rho22) rho22 - (1 - 2 rho22) g)/D * rho12
        rng = np.random.default_rng(41)
        for _ in range(200):
            s = random_scenario(rng)
            t = random_time(rng, s, lo=0.05)
            state = qubit_state(s.init, s.spectrum, s.bath, t)
            bundle = beta_derivative_qubit(s.init, s.spectrum, s.bath, t)
            p2, rho12 = state.rho22, state.rho12
            g, alpha, m = bundle.d_populations[1], bundle.alpha, abs(rho12) ** 2
            d = (1.0 - p2) * p2 - m
            l11 = (2.0 * g * m - 2.0 * alpha * p2 * m - p2 * g) / d
            l22 = (-2.0 * g * m - 2.0 * alpha * (1.0 - p2) * m + (1.0 - p2) * g) / d
            l12 = (2.0 * alpha * (1.0 - p2) * p2 - (1.0 - 2.0 * p2) * g) / d * rho12
            closed = np.array([[l11, l12], [np.conj(l12), l22]])
            sld = qubit_sld(s.init, s.spectrum, s.bath, t)
            scale = float(np.max(np.abs(closed)))
            assert float(np.max(np.abs(sld.elements - closed))) <= 1e-12 * scale

    def test_residual_check_passes_at_the_edges(self):
        # Low temperature (beta*omega up to 27), nearly pure starts (r -> 1)
        # and early times (t -> 0): the solver's own residual check holds.
        rng = np.random.default_rng(43)
        for _ in range(300):
            omega = float(rng.uniform(0.3, 3.0))
            beta = float(rng.uniform(0.2, 27.0)) / omega
            bath = Bath(beta=beta, gamma=float(rng.uniform(0.2, 3.0)))
            init = QubitInit(
                a=float(rng.uniform(0.0, 1.0)),
                r=1.0 - 10.0 ** float(rng.uniform(-14.0, -1.0)),
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            t = 10.0 ** float(rng.uniform(-14.0, 0.0)) / bath.gamma
            spectrum = Spectrum.qubit(omega)
            sld = qubit_sld(init, spectrum, bath, t)  # raises ModelIntegrityError if not
            bundle = beta_derivative_qubit(init, spectrum, bath, t)
            drho_norm = math.hypot(*bundle.d_populations, *2 * [abs(bundle.d_coherence)])
            assert sld.residual <= 1e-9 * (1.0 + drho_norm)

    def test_fallback_on_pure_state(self):
        # At t = 0 nothing depends on beta yet: d rho/d beta = 0, so L = 0.
        sld = qubit_sld(QubitInit(a=0.1, r=1.0, phi=0.3), SPECTRUM, BATH, 0.0)
        assert not np.any(sld.elements)
        assert sld.residual == 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            qubit_sld(QubitInit(a=0.1), SPECTRUM, BATH, -1.0)


class TestQubitQfi:
    def test_reference_value(self):
        res = qubit_qfi(QubitInit(a=0.1, r=1.0, phi=0.0), SPECTRUM, BATH, 1.0)
        assert res.total == pytest.approx(0.2666432038557697, rel=1e-14)
        assert res.diagonal_part == pytest.approx(0.20959438216656165, rel=1e-14)
        assert res.coherence_gain == pytest.approx(0.057048821689208024, rel=1e-13)
        assert not res.pure_state

    def test_population_only_state_has_zero_gain(self):
        res = qubit_qfi(QubitInit(a=0.1, r=0.0), SPECTRUM, BATH, 1.0)
        assert res.coherence_gain == 0.0
        assert res.total == res.diagonal_part

    def test_pure_state_limit_flagged(self):
        res = qubit_qfi(QubitInit(a=0.1, r=1.0), SPECTRUM, BATH, 0.0)
        assert res.pure_state
        assert res.total == 0.0

    def test_phase_invariance(self):
        ref = qubit_qfi(QubitInit(a=0.3, r=0.8, phi=0.0), SPECTRUM, BATH, 0.7).total
        for phi in (math.pi / 4, math.pi / 2, math.pi, 5.0):
            res = qubit_qfi(QubitInit(a=0.3, r=0.8, phi=phi), SPECTRUM, BATH, 0.7)
            assert res.total == pytest.approx(ref, rel=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            qubit_qfi(QubitInit(a=0.1), SPECTRUM, BATH, -0.5)


class TestQfiValues:
    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            s = random_scenario(rng)
            times = np.linspace(0.0, 8.0 / abs(s.relaxation_rate), 50)
            grid = qfi_values(s.init, s.spectrum, s.bath, times)
            for t, v in zip(times, grid):
                assert v == pytest.approx(
                    qubit_qfi(s.init, s.spectrum, s.bath, float(t)).total, abs=1e-12
                )

    def test_zero_at_pure_start(self):
        v = qfi_values(QubitInit(a=0.1, r=1.0), SPECTRUM, BATH, [0.0])
        assert v[0] == 0.0

    def test_rejects_negative_times(self):
        with pytest.raises(DomainError):
            qfi_values(QubitInit(a=0.1), SPECTRUM, BATH, [-1.0, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(DomainError, match="finite"):
            qfi_values(QubitInit(a=0.1), SPECTRUM, BATH, [0.5, bad])


class TestScaledTime:
    @pytest.mark.parametrize("gamma", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_qfi_depends_on_gamma_t_alone(self, gamma):
        # F(gamma, t) = F(1, gamma t): lam^2/gamma neither underflows (small
        # gamma) nor overflows (large gamma) on the way.
        rng = np.random.default_rng(47)
        for _ in range(20):
            s = random_scenario(rng)
            unit = Bath(beta=s.bath.beta, gamma=1.0)
            scaled = np.linspace(0.0, 10.0 / abs(s.relaxation_rate / s.bath.gamma), 33)
            expected = qfi_values(s.init, s.spectrum, unit, scaled)
            actual = qfi_values(s.init, s.spectrum, Bath(beta=s.bath.beta, gamma=gamma),
                                scaled / gamma)
            np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=0)


class TestTraceBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 64, 100, 101])
    def test_blocks_carry_the_whole_grid_bits(self, rows):
        rng = np.random.default_rng(23)
        s = random_scenario(rng)
        times = np.linspace(0.0, 8.0 / abs(s.relaxation_rate), 101)
        [whole] = trace_blocks(s.init, s.spectrum, s.bath, times, len(times))
        blocks = list(trace_blocks(s.init, s.spectrum, s.bath, times, rows))
        assert [len(b["t"]) for b in blocks] == [len(c) for c in np.array_split(
            times, range(rows, len(times), rows))]
        for name, column in whole.items():
            joined = np.concatenate([b[name] for b in blocks])
            assert joined.tobytes() == column.tobytes(), name

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(0.0, 1e308, 10),  # the first block overflows
            np.append(np.linspace(0.0, 1.0, 9), 1e308),  # only the last block does
        ],
    )
    def test_overflow_anywhere_raises_before_any_block(self, times):
        # the call itself raises, and names the largest time of the whole grid
        with pytest.raises(DomainError, match="on times up to 1e[+]308;"):
            trace_blocks(QubitInit(a=0.1), SPECTRUM, BATH, times, 3)


class TestDecomposition:
    def test_matches_closed_form_qubit(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_scenario(rng)
            t = random_time(rng, s, lo=0.05)
            closed = qubit_qfi(s.init, s.spectrum, s.bath, t)
            bundle = beta_derivative_qubit(s.init, s.spectrum, s.bath, t)
            drho = np.array(
                [
                    [bundle.d_populations[0], bundle.d_coherence],
                    [np.conj(bundle.d_coherence), bundle.d_populations[1]],
                ]
            )
            res = qfi_decomposition(qubit_state(s.init, s.spectrum, s.bath, t), drho)
            scale = max(closed.total, 1e-12)
            assert abs(res.total - closed.total) <= 1e-12 * scale
            assert abs(res.coherence_gain - closed.coherence_gain) <= 1e-11 * scale
            assert res.coherence_gain >= -1e-12

    def test_three_level_exact_derivative(self):
        rng = np.random.default_rng(23)
        spectrum = Spectrum(energies=(0.0, 0.9, 2.1))
        bath = Bath(beta=0.6, gamma=0.8)
        for _ in range(5):
            rho0 = random_mixed_state(rng, 3)
            t = float(rng.uniform(0.1, 3.0))
            res = qfi_decomposition(*evolve_state_derivative(rho0, spectrum, bath, t))
            assert res.coherence_gain >= -1e-12
            assert res.total == pytest.approx(
                res.diagonal_part + res.coherence_gain, rel=1e-9
            )

    def test_sld_difference_is_not_a_scalar_shift(self):
        # The gain operator Ltilde = L - L_d differs from alpha * identity;
        # the coherence advantage is not a trivial reparameterization.
        init = QubitInit(a=0.1, r=1.0, phi=0.0)
        state = qubit_state(init, SPECTRUM, BATH, 1.0)
        bundle = beta_derivative_qubit(init, SPECTRUM, BATH, 1.0)
        drho = np.array(
            [
                [bundle.d_populations[0], bundle.d_coherence],
                [np.conj(bundle.d_coherence), bundle.d_populations[1]],
            ]
        )
        res = qfi_decomposition(state, drho)
        assert res.coherence_gain > 0.01
        l_d = np.diag(np.diag(drho).real / state.populations)
        l_tilde = res.sld.elements - l_d
        assert float(np.linalg.norm(l_tilde - bundle.alpha * np.eye(2))) > 0.1
        gain = float(np.trace(state.elements @ l_tilde @ l_tilde).real)
        assert gain == pytest.approx(res.coherence_gain, rel=1e-12)


class TestResultValidation:
    def test_rejects_negative_part(self):
        sld = SldMatrix(elements=np.zeros((2, 2), dtype=complex), residual=0.0)
        with pytest.raises(ModelIntegrityError, match="nonnegative"):
            QfiResult(total=1.0, diagonal_part=-0.5, coherence_gain=1.5, sld=sld)

    def test_rejects_broken_identity(self):
        sld = SldMatrix(elements=np.zeros((2, 2), dtype=complex), residual=0.0)
        with pytest.raises(ModelIntegrityError, match="sum to the total"):
            QfiResult(total=1.0, diagonal_part=0.2, coherence_gain=0.2, sld=sld)

    def test_sld_must_be_hermitian(self):
        with pytest.raises(DomainError, match="Hermitian"):
            SldMatrix(
                elements=np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex),
                residual=0.0,
            )

    def test_support_guard_value(self):
        assert EPS_GUARD == 1e-12
