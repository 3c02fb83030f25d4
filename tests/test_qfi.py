"""SLD and QFI machinery: closed forms, the Lyapunov solver, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoqfi import (
    Bath,
    DomainError,
    ModelIntegrityError,
    QubitInit,
    Spectrum,
    beta_derivative_qubit,
    diagonal_qfi,
    evolve_state_derivative,
    qfi_decomposition,
    qfi_values,
    qubit_relaxation_rate,
    sld_general,
    thermal_population_derivative,
    thermal_qfi,
)
from thermoqfi.dynamics import _qubit_model
from thermoqfi.qfi import EPS_GUARD, _qfi_slope, _qfi_terms, _qubit_point, trace_blocks

from conftest import mp_qfi, random_mixed_state, random_qubit, random_time

SPECTRUM = Spectrum.qubit(1.0)
BATH = Bath(beta=math.log(3.0), gamma=1.0)


def _lyapunov_residual(rho: np.ndarray, drho: np.ndarray, sld: np.ndarray) -> float:
    """||drho - (L rho + rho L)/2||_F: the residual that sld_general bounds."""
    return float(np.linalg.norm(drho - (sld @ rho + rho @ sld) / 2.0))


class TestBetaDerivativeQubit:
    def test_ground_start_reference_values(self):
        # pi2 = 1/4, lam = -2: delta(1) = 1 - e^{-2} + 2 e^{-2} and
        # d p2 = -(1 - pi2) pi2 omega * delta.
        m, terms, _ = _qubit_point(QubitInit(a=0.0), SPECTRUM, BATH, 1.0)
        _, drho = beta_derivative_qubit(QubitInit(a=0.0), SPECTRUM, BATH, 1.0)
        assert terms.delta == pytest.approx(1.1353352832366128, rel=1e-15)
        assert float(drho[1, 1].real) == pytest.approx(-0.2128753656068649, rel=1e-15)
        assert terms.alpha_hat * m.dpi2 == pytest.approx(0.75, rel=1e-15)
        assert drho[0, 1] == 0j
        assert math.fsum(np.diag(drho).real) == 0.0

    def test_coherent_reference_values(self):
        init = QubitInit(a=0.1, r=1.0, phi=0.0)
        _, terms, _ = _qubit_point(init, SPECTRUM, BATH, 1.0)
        _, drho = beta_derivative_qubit(init, SPECTRUM, BATH, 1.0)
        assert terms.delta == pytest.approx(1.0270670566473226, rel=1e-15)
        assert float(drho[1, 1].real) == pytest.approx(-0.19257507312137298, rel=1e-15)
        assert drho[0, 1] == pytest.approx(
            0.044722374827942925 + 0.06965097202195025j, rel=1e-14
        )

    def test_delta_depends_on_gamma_t_product_only(self):
        ref = _qubit_point(QubitInit(a=0.0), SPECTRUM, BATH, 1.0)[1].delta
        for gamma in (0.5, 2.0, 7.0):
            _, terms, _ = _qubit_point(
                QubitInit(a=0.0), SPECTRUM, Bath(beta=BATH.beta, gamma=gamma), 1.0 / gamma
            )
            assert terms.delta == pytest.approx(ref, rel=1e-13)

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
            init, spectrum, bath = random_qubit(rng)
            t = random_time(rng, spectrum, bath)
            m, terms, _ = _qubit_point(init, spectrum, bath, t)
            _, closed = beta_derivative_qubit(init, spectrum, bath, t)
            rho, drho = evolve_state_derivative(init.rho0, spectrum, bath, t)
            dpi2 = thermal_population_derivative(spectrum, bath.beta)[1]
            gaps = (
                np.abs(closed - drho),
                abs(terms.alpha_hat * m.dpi2 * rho[0, 1] - drho[0, 1]),
                abs(terms.delta * dpi2 - drho[1, 1].real),
            )
            scale = 1.0 + float(np.max(np.abs(closed)))
            worst = max(worst, max(float(np.max(gap)) for gap in gaps) / scale)
        assert worst <= 1e-12

    def test_partial_derivative_at_thermal_init(self):
        # Starting at a = pi2 the initial state does not track beta, so only
        # the relaxation term survives: d p = (1 - e^{lam t}) d pi.
        dpi2 = -0.1875  # -(1 - pi2) pi2 omega at pi2 = 1/4, omega = 1
        rho0 = np.diag([0.75, 0.25])
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

    @pytest.mark.parametrize(
        "p,dp",
        [
            ([math.nan, 0.5], [0.1, -0.1]),  # was inf: the nan slot looked unsupported
            ([0.5, 0.5], [math.nan, 0.1]),  # was nan
            ([0.5, 0.5], [math.inf, -math.inf]),
        ],
    )
    def test_rejects_non_finite_inputs(self, p, dp):
        with pytest.raises(DomainError, match="^p and dp must be finite$"):
            diagonal_qfi(p, dp)


class TestSldGeneral:
    def test_thermal_state_oracle(self):
        # For rho = diag(pi), drho = diag(dpi) the SLD is diag(<H> - eps)
        # and the QFI is the energy variance.
        spectrum = Spectrum(energies=(0.0, 0.7, 1.9))
        beta = 0.8
        pi = np.exp(-beta * np.asarray(spectrum.energies))
        pi /= pi.sum()
        dpi = thermal_population_derivative(spectrum, beta)
        rho, drho = np.diag(pi).astype(complex), np.diag(dpi).astype(complex)
        sld = sld_general(rho, drho)
        mean = float(np.sum(pi * spectrum.energies))
        np.testing.assert_allclose(
            np.diag(sld).real,
            mean - np.asarray(spectrum.energies),
            rtol=0,
            atol=1e-13,
        )
        f = float(np.trace(np.diag(dpi) @ sld).real)
        assert f == pytest.approx(thermal_qfi(spectrum, beta), rel=1e-13)
        assert _lyapunov_residual(rho, drho, sld) <= 1e-15

    def test_support_guard_zeroes_dead_pair(self):
        # Rank-one state: the (2,2) pair sum is zero, so that entry of L is
        # set to zero while the off-diagonal Lyapunov equation still holds.
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
        sld = sld_general(rho, drho)
        assert sld[1, 1] == 0.0
        assert sld[0, 1] == pytest.approx(0.2, rel=1e-14)
        assert _lyapunov_residual(rho, drho, sld) <= 1e-14

    def test_off_support_derivative_raises(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.diag([0.5, -0.5]).astype(complex)
        with pytest.raises(ModelIntegrityError, match="residual"):
            sld_general(rho, drho)

    def test_huge_off_support_derivative_raises(self):
        # Above about 1e154 the Frobenius norms of the residual and of drho both
        # square to inf; the check must still see that drho is off the support.
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.diag([1e200, -1e200]).astype(complex)
        with pytest.raises(ModelIntegrityError, match="residual"):
            sld_general(rho, drho)

    @pytest.mark.parametrize(
        "drho", [[[math.nan, 0.0], [0.0, math.nan]], [[0.0, math.inf], [math.inf, 0.0]]]
    )
    def test_rejects_non_finite_derivative(self, drho):
        rho = np.diag([0.75, 0.25]).astype(complex)
        with pytest.raises(DomainError, match="^drho must be finite$"):
            sld_general(rho, np.array(drho, dtype=complex))

    def test_overflowing_solution_fails_the_residual_check(self):
        # L = 2 drho/(p_m + p_n) overflows, so the residual is nan; nan must
        # not pass the check as a small residual, and no numpy warning may
        # come before the error.
        rho = np.diag([0.75, 0.25]).astype(complex)
        with pytest.raises(ModelIntegrityError, match="residual nan"):
            sld_general(rho, np.diag([-1e308, 1e308]).astype(complex))

    def test_validation_errors(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        with pytest.raises(DomainError, match="Hermitian"):
            sld_general(rho, np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))
        with pytest.raises(DomainError, match="traceless"):
            sld_general(rho, np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(DomainError, match="dimension"):
            sld_general(rho, np.zeros((3, 3), dtype=complex))
        with pytest.raises(DomainError, match="^drho must be a nonempty square matrix$"):
            sld_general(rho, np.zeros((0, 0)))


class TestQubitSld:
    def test_reference_values(self):
        init = QubitInit(a=0.1, r=1.0, phi=0.0)
        sld = sld_general(*beta_derivative_qubit(init, SPECTRUM, BATH, 1.0))
        assert sld[0, 0] == pytest.approx(0.21453682587084863, rel=1e-13)
        assert sld[1, 1] == pytest.approx(-0.9573036418064816, rel=1e-13)
        assert sld[0, 1] == pytest.approx(
            0.1337358109252606 + 0.20828118499798828j, rel=1e-13
        )

    def test_matches_general_solver(self):
        # The SLD of the closed-form pair against that of the general-N pair,
        # which does not use the qubit closed forms.
        rng = np.random.default_rng(5)
        for _ in range(30):
            init, spectrum, bath = random_qubit(rng)
            t = random_time(rng, spectrum, bath, lo=0.05)
            closed = sld_general(*beta_derivative_qubit(init, spectrum, bath, t))
            general = sld_general(*evolve_state_derivative(init.rho0, spectrum, bath, t))
            assert float(np.max(np.abs(closed - general))) <= 1e-10

    def test_matches_paper_closed_form(self):
        # The paper's closed-form SLD, with g = d rho22/d beta, m = |rho12|^2
        # and D = (1 - rho22) rho22 - m:
        #   l11 = (2 g m - 2 alpha rho22 m - rho22 g)/D
        #   l22 = (-2 g m - 2 alpha (1 - rho22) m + (1 - rho22) g)/D
        #   l12 = (2 alpha (1 - rho22) rho22 - (1 - 2 rho22) g)/D * rho12
        rng = np.random.default_rng(41)
        for _ in range(200):
            init, spectrum, bath = random_qubit(rng)
            t = random_time(rng, spectrum, bath, lo=0.05)
            state, drho = beta_derivative_qubit(init, spectrum, bath, t)
            m, terms, _ = _qubit_point(init, spectrum, bath, t)
            alpha = terms.alpha_hat * m.dpi2
            p2, rho12 = float(state[1, 1].real), complex(state[0, 1])
            g, m = float(drho[1, 1].real), abs(rho12) ** 2
            d = (1.0 - p2) * p2 - m
            l11 = (2.0 * g * m - 2.0 * alpha * p2 * m - p2 * g) / d
            l22 = (-2.0 * g * m - 2.0 * alpha * (1.0 - p2) * m + (1.0 - p2) * g) / d
            l12 = (2.0 * alpha * (1.0 - p2) * p2 - (1.0 - 2.0 * p2) * g) / d * rho12
            closed = np.array([[l11, l12], [np.conj(l12), l22]])
            sld = sld_general(state, drho)
            scale = float(np.max(np.abs(closed)))
            assert float(np.max(np.abs(sld - closed))) <= 1e-12 * scale

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
            state, drho = beta_derivative_qubit(init, spectrum, bath, t)
            sld = sld_general(state, drho)  # raises ModelIntegrityError if not
            residual = _lyapunov_residual(state, drho, sld)
            assert residual <= 1e-9 * (1.0 + float(np.linalg.norm(drho)))

    def test_fallback_on_pure_state(self):
        # At t = 0 nothing depends on beta yet: d rho/d beta = 0, so L = 0.
        init = QubitInit(a=0.1, r=1.0, phi=0.3)
        state, drho = beta_derivative_qubit(init, SPECTRUM, BATH, 0.0)
        sld = sld_general(state, drho)
        assert not np.any(sld)
        assert _lyapunov_residual(state, drho, sld) == 0.0


class TestQubitQfi:
    # Totals come from the kernel (qfi_values); the split into F_d and the
    # coherence gain from the general solver on the closed-form pair.
    def test_reference_value(self):
        init = QubitInit(a=0.1, r=1.0, phi=0.0)
        total = float(qfi_values(init, SPECTRUM, BATH, 1.0))
        res = qfi_decomposition(*beta_derivative_qubit(init, SPECTRUM, BATH, 1.0))
        assert total == pytest.approx(0.2666432038557697, rel=1e-14)
        assert res.total == pytest.approx(0.2666432038557697, rel=1e-13)
        assert res.diagonal_part == pytest.approx(0.20959438216656165, rel=1e-13)
        assert res.coherence_gain == pytest.approx(0.057048821689208024, rel=1e-12)

    def test_population_only_state_has_zero_gain(self):
        init = QubitInit(a=0.1, r=0.0)
        total = float(qfi_values(init, SPECTRUM, BATH, 1.0))
        res = qfi_decomposition(*beta_derivative_qubit(init, SPECTRUM, BATH, 1.0))
        assert 0.0 <= res.coherence_gain <= 1e-15 * total
        assert res.diagonal_part == pytest.approx(total, rel=1e-14)

    def test_pure_state_limit_is_zero(self):
        init = QubitInit(a=0.1, r=1.0)
        assert float(qfi_values(init, SPECTRUM, BATH, 0.0)) == 0.0
        res = qfi_decomposition(*beta_derivative_qubit(init, SPECTRUM, BATH, 0.0))
        assert res.total == res.diagonal_part == res.coherence_gain == 0.0

    def test_phase_invariance(self):
        ref = float(qfi_values(QubitInit(a=0.3, r=0.8, phi=0.0), SPECTRUM, BATH, 0.7))
        for phi in (math.pi / 4, math.pi / 2, math.pi, 5.0):
            total = float(qfi_values(QubitInit(a=0.3, r=0.8, phi=phi), SPECTRUM, BATH, 0.7))
            assert total == pytest.approx(ref, rel=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            qfi_values(QubitInit(a=0.1), SPECTRUM, BATH, -0.5)


# (omega, beta, gamma, a, r, t): cold and near-pure points, where D is far below
# 1e-12, and (1 - p2) p2 - |rho12|^2 is a difference of nearly equal numbers.
_ORACLE_CASES = [
    (1.0, 30.0, 1.0, 0.0, 0.0, 6.67),
    (1.0, 100.0, 1.0, 0.0, 0.0, 1.0),
    (1.0, 100.0, 1.0, 1.0, 0.0, 40.0),
    (1.0, 1.0, 1.0, 0.3, 1.0, 1e-10),
    (1.0, 1.0, 1.0, 0.3, 1.0, 1e-12),
    (1.0, 1.0, 1.0, 0.3, 1.0, 1e-14),
    (1.0, 30.0, 1.0, 0.3, 0.7, 30.0),
    # cold: F = F_th f with F_th = 1.9e-174 and 9.9e-305, where dpi2^2 underflows
    (1.0, 400.0, 1.0, 0.0, 0.0, 15.0),
    (1.0, 400.0, 1.0, 0.3, 0.7, 400.0),
    (1.0, 700.0, 1.0, 0.0, 0.0, 15.0),
    (1.0, 700.0, 1.0, 0.3, 0.7, 700.0),
]


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("case", _ORACLE_CASES, ids=lambda c: "-".join(map(repr, c)))
    def test_kernel_matches_oracle(self, case):
        omega, beta, gamma, a, r, t = case
        value = float(qfi_values(QubitInit(a=a, r=r), Spectrum.qubit(omega),
                                 Bath(beta=beta, gamma=gamma), t))
        exact = mp_qfi(*case)
        assert exact > 0.0
        assert abs(value - exact) <= 1e-14 * exact

    def test_well_conditioned_box(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            init, spectrum, bath = random_qubit(rng)
            t = random_time(rng, spectrum, bath, lo=0.05)
            value = float(qfi_values(init, spectrum, bath, t))
            exact = mp_qfi(spectrum.gap(1, 2), bath.beta, bath.gamma, init.a, init.r, t)
            assert abs(value - exact) <= 1e-13 * exact


class TestQfiSlope:
    @pytest.mark.parametrize(
        "omega,beta,a,r,s,h",
        [
            (1.0, 30.0, 0.0, 0.0, 6.67, 1e-4),
            (1.0, 1.0, 0.3, 1.0, 1e-10, 1e-14),
            (1.0, 1.0, 0.3, 1.0, 1e-12, 1e-16),
        ],
        ids=["cold", "near-pure", "nearer-pure"],
    )
    def test_matches_central_difference(self, omega, beta, a, r, s, h):
        m = _qubit_model(omega, beta)
        values = _qfi_terms(m, a, r, np.array([s - h, s + h])).f
        difference = float(values[1] - values[0]) / (2.0 * h)
        slope = float(_qfi_slope(m, a, r, s))
        assert difference > 0.0
        assert slope == pytest.approx(difference, rel=1e-7)

    def test_zero_at_pure_start(self):
        m = _qubit_model(1.0, 1.0)
        assert float(_qfi_slope(m, 0.3, 1.0, 0.0)) == 0.0


class TestQfiTerms:
    def test_population_equals_the_model_population_bit_for_bit(self):
        # The kernel forms p2 from its own e^{lam_hat s}; it must carry the
        # bits of _QubitModel.p2, which evaluates the exponential itself.
        s = np.concatenate([[0.0], np.geomspace(1e-12, 60.0, 400)])
        a = np.linspace(0.0, 1.0, 11)[:, None]
        for omega, beta in ((1.0, math.log(3.0)), (2.0, 1e-3), (1.0, 30.0)):
            m = _qubit_model(omega, beta)
            p2 = _qfi_terms(m, a, 0.5, s).p2
            assert np.array_equal(p2, m.p2(a, s))


class TestQfiValues:
    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            init, spectrum, bath = random_qubit(rng)
            times = np.linspace(0.0, 8.0 / abs(qubit_relaxation_rate(spectrum, bath)), 50)
            grid = qfi_values(init, spectrum, bath, times)
            for t, v in zip(times, grid):
                assert v == pytest.approx(
                    float(qfi_values(init, spectrum, bath, float(t))), abs=1e-12
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
    @pytest.mark.parametrize(
        "gamma", [1e-307, 1e-305, 1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300, 1e307, 5e307]
    )
    def test_qfi_depends_on_gamma_t_alone(self, gamma):
        # F(gamma, t) = F(1, gamma t) for every gamma whose default window is
        # finite: the kernel runs in s = gamma t, so nothing of order gamma
        # underflows or overflows on the way.
        rng = np.random.default_rng(47)
        for _ in range(20):
            init, spectrum, bath = random_qubit(rng)
            unit = Bath(beta=bath.beta, gamma=1.0)
            lam_hat = qubit_relaxation_rate(spectrum, bath) / bath.gamma
            scaled = np.linspace(0.0, 10.0 / abs(lam_hat), 33)
            expected = qfi_values(init, spectrum, unit, scaled)
            actual = qfi_values(init, spectrum, Bath(beta=bath.beta, gamma=gamma),
                                scaled / gamma)
            np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=0)


class TestThermalUnits:
    @settings(max_examples=60, deadline=None)
    @given(
        omega=st.floats(min_value=0.1, max_value=10.0),
        log10_beta_omega=st.floats(min_value=-3.0, max_value=math.log10(700.0)),
        log10_gamma=st.floats(min_value=-3.0, max_value=3.0),
        a=st.floats(min_value=0.0, max_value=1.0),
        r=st.floats(min_value=0.0, max_value=1.0),
        turns=st.floats(min_value=0.0, max_value=1.5),
    )
    @example(omega=1.0, log10_beta_omega=math.log10(700.0), log10_gamma=0.0, a=0.0, r=0.0,
             turns=1.0)
    def test_qfi_is_omega_squared_times_the_unit_model(
        self, omega, log10_beta_omega, log10_gamma, a, r, turns
    ):
        # F(omega, beta, gamma, t) = omega^2 F(1, beta omega, 1, gamma t): the kernel's
        # f depends on (beta omega, a, r, gamma t) alone, and omega enters only as
        # F_th = omega^2 pi2 (1 - pi2). The unit model is given the products as
        # the kernel forms them, so only the roundings of F_th and the products
        # differ; a subnormal F keeps only an absolute accuracy.
        beta = 10.0**log10_beta_omega / omega
        gamma = 10.0**log10_gamma
        t = turns * (14.0 + beta * omega) / gamma
        init = QubitInit(a=a, r=r)
        value = float(qfi_values(init, Spectrum.qubit(omega), Bath(beta=beta, gamma=gamma), t))
        unit = float(qfi_values(init, SPECTRUM, Bath(beta=beta * omega, gamma=1.0), gamma * t))
        assert value == pytest.approx(omega**2 * unit, rel=1e-14, abs=1e-320)


class TestTraceBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 64, 100, 101])
    def test_blocks_carry_the_whole_grid_bits(self, rows):
        rng = np.random.default_rng(23)
        init, spectrum, bath = random_qubit(rng)
        times = np.linspace(0.0, 8.0 / abs(qubit_relaxation_rate(spectrum, bath)), 101)
        [whole] = trace_blocks(init, spectrum, bath, times, len(times))
        blocks = list(trace_blocks(init, spectrum, bath, times, rows))
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
            init, spectrum, bath = random_qubit(rng)
            t = random_time(rng, spectrum, bath, lo=0.05)
            total = float(qfi_values(init, spectrum, bath, t))
            m, terms, _ = _qubit_point(init, spectrum, bath, t)
            gain = total - (m.dpi2 * terms.delta) ** 2 / ((1.0 - terms.p2) * terms.p2)
            res = qfi_decomposition(*beta_derivative_qubit(init, spectrum, bath, t))
            scale = max(total, 1e-12)
            assert abs(res.total - total) <= 1e-12 * scale
            assert abs(res.coherence_gain - gain) <= 1e-11 * scale
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
        state, drho = beta_derivative_qubit(init, SPECTRUM, BATH, 1.0)
        m, terms, _ = _qubit_point(init, SPECTRUM, BATH, 1.0)
        alpha = terms.alpha_hat * m.dpi2
        res = qfi_decomposition(state, drho)
        assert res.coherence_gain > 0.01
        l_d = np.diag(np.diag(drho).real / np.diag(state).real)
        l_tilde = sld_general(state, drho) - l_d
        assert float(np.linalg.norm(l_tilde - alpha * np.eye(2))) > 0.1
        gain = float(np.trace(state @ l_tilde @ l_tilde).real)
        assert gain == pytest.approx(res.coherence_gain, rel=1e-12)


    @pytest.mark.parametrize(
        "rho", [[[0.5, math.nan], [math.nan, 0.5]], [[math.nan, 0.0], [0.0, math.nan]]]
    )
    def test_rejects_non_finite_state(self, rho):
        with pytest.raises(DomainError, match="^state must be finite$"):
            qfi_decomposition(np.array(rho), np.diag([0.1, -0.1]))


class TestResultValidation:
    def test_support_guard_value(self):
        assert EPS_GUARD == 1e-12
