"""Acceptance protocol: twelve numbered criteria, one reported line each.

Run with -s to see the per-criterion PASS lines and their runtimes. Every
criterion pins its tolerance explicitly; the runtime caps guard against
accidental quadratic blowups, not micro-performance.
"""

import math
import time

import numpy as np
import pytest

from thermoqfi import (
    Bath,
    DensityMatrix,
    QubitInit,
    Scenario,
    Spectrum,
    beta_derivative_qubit,
    beta_from_thermal_ratio,
    cramer_rao_report,
    diagonal_qfi,
    evolve_state_derivative,
    gad_apply,
    gad_fixed_point,
    gad_master_comparison,
    gad_params,
    gamma_from_tau_tilde,
    maximize_qfi_over_time,
    qfi_decomposition,
    qfi_values,
    spectral_report,
    stationary_distribution,
    transition_matrix,
)
from thermoqfi.metrology import _bisect
from thermoqfi.qfi import _qfi_slope

from conftest import (
    random_mixed_state,
    random_nlevel_model,
    random_scenario,
    random_time,
    reference_scenario,
)


class _Criterion:
    """Times a criterion body and prints one PASS/FAIL line."""

    def __init__(self, number: int, limit_s: float, title: str):
        self.number = number
        self.limit_s = limit_s
        self.title = title
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        tag = f"[criterion {self.number:2d}]"
        if exc_type is not None:
            print(f"{tag} FAIL {self.title}")
            return False
        assert elapsed < self.limit_s, (
            f"criterion {self.number} took {elapsed:.2f}s (limit {self.limit_s:g}s)"
        )
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"{tag} PASS {self.title}{suffix} [{elapsed:.2f}s < {self.limit_s:g}s]")
        return False


def test_criterion_01_thermal_asymptote():
    with _Criterion(1, 1.0, "QFI converges to the thermal variance") as c:
        s = reference_scenario()
        asymptote = 0.1875
        assert s.asymptote == pytest.approx(asymptote, rel=1e-15)
        t_end = 20.0 / abs(s.relaxation_rate)
        worst = 0.0
        for a in (0.0, 0.1, 0.25, 0.35, 0.5, 0.8, 1.0):
            for r in (0.0, 1.0):
                init = QubitInit(a=a, r=r)
                f_end = float(qfi_values(init, s.spectrum, s.bath, [t_end])[0])
                worst = max(worst, abs(f_end - asymptote) / asymptote)
        assert worst <= 1e-6
        c.detail = f"worst relative deviation {worst:.3e} <= 1e-6 at t = 20/|lambda|"


def test_criterion_02_zero_time_null_information():
    with _Criterion(2, 1.0, "F(0) vanishes for every initial state") as c:
        rng = np.random.default_rng(20260801)
        worst = 0.0
        for _ in range(100):
            s = random_scenario(rng)
            worst = max(worst, abs(float(qfi_values(s.init, s.spectrum, s.bath, 0.0))))
            worst = max(
                worst,
                abs(float(qfi_values(s.init, s.spectrum, s.bath, [0.0])[0])),
            )
        assert worst <= 1e-14
        c.detail = f"worst |F(0)| = {worst:.3e} <= 1e-14 over 100 scenarios"


def test_criterion_03_decomposition_theorem():
    with _Criterion(3, 5.0, "F = F_d + Tr[rho Ltilde^2] with nonnegative gain") as c:
        rng = np.random.default_rng(20260803)
        min_gain = math.inf
        worst_rel = 0.0
        for _ in range(100):
            s = random_scenario(rng)
            t = random_time(rng, s, lo=0.05)
            res = qfi_decomposition(*beta_derivative_qubit(s.init, s.spectrum, s.bath, t))
            min_gain = min(min_gain, res.coherence_gain)
            worst_rel = max(
                worst_rel,
                abs(res.total - (res.diagonal_part + res.coherence_gain))
                / max(abs(res.total), 1e-12),
            )
        for _ in range(20):
            n = int(rng.integers(3, 9))
            gaps = rng.uniform(0.3, 2.0, size=n - 1)
            spectrum = Spectrum(energies=tuple(np.concatenate([[0.0], np.cumsum(gaps)])))
            bath = Bath(beta=float(rng.uniform(0.3, 1.2)), gamma=float(rng.uniform(0.3, 2.0)))
            rho0 = random_mixed_state(rng, n)
            t = float(rng.uniform(0.1, 3.0))
            res = qfi_decomposition(*evolve_state_derivative(rho0, spectrum, bath, t))
            min_gain = min(min_gain, res.coherence_gain)
            worst_rel = max(
                worst_rel,
                abs(res.total - (res.diagonal_part + res.coherence_gain))
                / max(abs(res.total), 1e-12),
            )
        assert min_gain >= -1e-12
        assert worst_rel <= 1e-9
        c.detail = (
            f"min gain {min_gain:.3e} >= -1e-12, worst identity error "
            f"{worst_rel:.3e} <= 1e-9 over 100 qubit + 20 N-level (N = 3..8) scenarios"
        )


def test_criterion_04_derivative_oracle():
    with _Criterion(4, 5.0, "closed-form state derivative matches the general-N one") as c:
        rng = np.random.default_rng(20260804)
        worst = 0.0
        for _ in range(100):
            s = random_scenario(rng)
            t = random_time(rng, s)
            _, closed = beta_derivative_qubit(s.init, s.spectrum, s.bath, t)
            _, drho = evolve_state_derivative(
                DensityMatrix.from_qubit_init(s.init), s.spectrum, s.bath, t
            )
            worst = max(
                worst, float(np.max(np.abs(closed - drho))) / (1.0 + float(np.max(np.abs(closed))))
            )
        assert worst <= 1e-12
        c.detail = f"worst elementwise gap {worst:.3e} <= 1e-12 of scale over 100 scenarios"


def test_criterion_05_spectral_guarantees():
    with _Criterion(5, 5.0, "generator spectrum, stationarity, detailed balance") as c:
        rng = np.random.default_rng(20260805)
        worst_null = 0.0
        worst_balance = 0.0
        for _ in range(100):
            spectrum, bath = random_nlevel_model(rng, n_max=8)
            n = spectrum.n_levels
            rates = transition_matrix(spectrum, bath)
            report = spectral_report(rates)
            assert report.null_count == 1
            assert report.negative_count == n - 1
            pi = stationary_distribution(rates)
            worst_null = max(worst_null, float(np.max(np.abs(rates @ pi))))
            for i in range(n):
                for j in range(i + 1, n):
                    flow_ij = rates[i, j] * pi[j]
                    flow_ji = rates[j, i] * pi[i]
                    scale = max(abs(flow_ij), abs(flow_ji), 1e-300)
                    worst_balance = max(worst_balance, abs(flow_ij - flow_ji) / scale)
        assert worst_null <= 1e-12
        assert worst_balance <= 1e-12
        c.detail = (
            f"100 spectra with N <= 8: |A pi| <= {worst_null:.3e} (tol 1e-12), "
            f"detailed balance residual {worst_balance:.3e} rel (tol 1e-12)"
        )


def test_criterion_06_region_phenotypes():
    with _Criterion(6, 2.0, "population-only traces: three qualitative regimes") as c:
        asymptote = 0.1875
        times = np.linspace(0.0, 10.0, 2048)

        cold = reference_scenario(a=0.1)
        values = qfi_values(cold.init, cold.spectrum, cold.bath, times)
        i = int(np.argmax(values))
        assert 0 < i < times.size - 1
        best = maximize_qfi_over_time(cold)
        assert not best.asymptotic
        assert best.f_star / asymptote > 1.0
        assert best.f_star / asymptote == pytest.approx(1.1241011132034258, rel=1e-6)

        hot = reference_scenario(a=0.35)
        values = qfi_values(hot.init, hot.spectrum, hot.bath, times)
        assert np.all(np.diff(values) >= -1e-12 * asymptote)
        assert float(values.max()) / asymptote <= 1.0 + 1e-10

        inverted = reference_scenario(a=0.8)
        values = qfi_values(inverted.init, inverted.spectrum, inverted.bath, times)
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        local_maxima = np.nonzero(interior)[0] + 1
        assert local_maxima.size > 0
        peak = int(local_maxima[0])
        assert values[peak] < 0.5 * asymptote  # an early bump, not the plateau
        j = peak + int(np.argmin(values[peak:]))
        assert j < times.size - 1

        model, gamma = inverted._model, inverted.bath.gamma
        t_dip = float(
            _bisect(
                lambda t: _qfi_slope(model, 0.8, 0.0, gamma * t) < 0, times[j - 1], times[j + 1]
            )
        )
        f_dip = float(qfi_values(inverted.init, inverted.spectrum, inverted.bath, [t_dip])[0])
        assert f_dip <= 1e-8 * asymptote
        tail = float(values[-1])
        assert tail > values[j]
        assert tail == pytest.approx(asymptote, rel=1e-6)
        c.detail = (
            "a=0.1 interior peak at 1.124 F_inf; a=0.35 nondecreasing below F_inf; "
            f"a=0.8 local peak, dip {f_dip:.1e} at t={t_dip:.4f}, tail -> F_inf"
        )


def test_criterion_07_coherence_advantage():
    with _Criterion(7, 2.0, "coherence never hurts and strictly helps off the poles") as c:
        s = reference_scenario()
        times = np.linspace(0.0, 10.0, 2048)
        for a in (0.1, 0.35, 0.8):
            f0 = qfi_values(QubitInit(a=a, r=0.0), s.spectrum, s.bath, times)
            f1 = qfi_values(QubitInit(a=a, r=1.0), s.spectrum, s.bath, times)
            diff = f1 - f0
            assert float(diff.min()) >= -1e-12
            assert float(diff.max()) > 1e-3
        f0 = qfi_values(QubitInit(a=0.0, r=0.0), s.spectrum, s.bath, times)
        f1 = qfi_values(QubitInit(a=0.0, r=1.0), s.spectrum, s.bath, times)
        assert float(np.max(np.abs(f1 - f0))) <= 1e-12
        c.detail = (
            "F_{r=1} >= F_{r=0} - 1e-12 on 2048-point grids for a in {0.1, 0.35, 0.8}, "
            "strict gain > 1e-3; no effect at a = 0"
        )


def test_criterion_08_experiment_mapping():
    with _Criterion(8, 2.0, "collision-model mapping and best preparation angle") as c:
        omega12 = 5.0
        beta_cold = beta_from_thermal_ratio(5.5, omega12)
        beta_hot = beta_from_thermal_ratio(9.5, omega12)
        assert beta_cold == pytest.approx(0.03340, abs=1e-4)
        assert beta_hot == pytest.approx(0.02003, abs=1e-4)
        gamma = gamma_from_tau_tilde(0.05, omega12)
        assert gamma == pytest.approx(0.125, rel=1e-15)
        spectrum = Spectrum.qubit(omega12)
        presets = {
            "cold": (beta_cold, (0.0, math.pi / 3.0, 12.0 * math.pi / 25.0, 5.0 * math.pi / 6.0)),
            "hot": (beta_hot, (0.0, math.pi / 3.0, 12.0 * math.pi / 25.0, math.pi)),
        }
        for label, (beta, thetas) in presets.items():
            bath = Bath(beta=beta, gamma=gamma)
            peaks = []
            for theta in thetas:
                scenario = Scenario(
                    spectrum=spectrum, bath=bath, init=QubitInit.from_theta(theta, r=1.0)
                )
                peaks.append(maximize_qfi_over_time(scenario).f_star)
            assert peaks[0] == max(peaks), f"theta=0 must win for the {label} bath"
        c.detail = (
            f"beta_cold={beta_cold:.5f} (0.03340 +- 1e-4), "
            f"beta_hot={beta_hot:.5f} (0.02003 +- 1e-4), gamma=0.125; "
            "theta=0 has the largest peak QFI for both baths"
        )


def test_criterion_09_gad_consistency():
    with _Criterion(9, 1.0, "damping-channel fixed point and short-time agreement") as c:
        worst_fixed = 0.0
        worst_rel = 0.0
        for n12 in (5.5, 9.5):
            for tau in (0.01, 0.025, 0.05):
                channel = gad_params(n12, tau)
                fixed = gad_fixed_point(channel)
                mapped = gad_apply(channel, fixed)
                worst_fixed = max(
                    worst_fixed, float(np.max(np.abs(mapped.elements - fixed)))
                )
                row = gad_master_comparison(n12, tau, omega12=5.0)
                worst_rel = max(
                    worst_rel,
                    abs(row["p2_gad"] - row["p2_master"]) / abs(row["p2_master"]),
                )
        assert worst_fixed <= 1e-12
        assert worst_rel <= 0.05
        c.detail = (
            f"fixed-point residual {worst_fixed:.3e} <= 1e-12; "
            f"population gap vs master model {worst_rel:.3%} <= 5% "
            "(n12 in {5.5, 9.5}, tau <= 0.05)"
        )


def test_criterion_10_cramer_rao_saturation():
    with _Criterion(10, 30.0, "binomial MLE saturates the Cramer-Rao bound") as c:
        s = reference_scenario()
        report = cramer_rao_report(
            s, m_experiments=10000, n_replicas=1000, seed=0
        )
        assert not report.no_information
        assert 0.9 <= report.ratio <= 1.3
        assert report.f_classical == report.f_quantum
        # the population measurement's Fisher information, sum_k dp_k^2/p_k
        state, drho = beta_derivative_qubit(s.init, s.spectrum, s.bath, report.measurement_time)
        fc = diagonal_qfi(state.populations, np.diag(drho).real)
        assert fc == pytest.approx(report.f_classical, rel=1e-12)
        again = cramer_rao_report(s, m_experiments=10000, n_replicas=1000, seed=0)
        assert again.ratio == report.ratio
        c.detail = (
            f"Var(beta_hat) M F = {report.ratio:.4f} in [0.9, 1.3] "
            f"(M=1e4, 1000 replicas, seed 0); F_cl = F_q at r = 0; deterministic"
        )


def test_criterion_11_phase_invariance():
    with _Criterion(11, 1.0, "QFI ignores the coherence phase") as c:
        rng = np.random.default_rng(20260811)
        worst = 0.0
        for _ in range(25):
            s = random_scenario(rng)
            t = random_time(rng, s, lo=0.05)
            ref = float(qfi_values(
                QubitInit(a=s.init.a, r=s.init.r, phi=0.0), s.spectrum, s.bath, t
            ))
            for phi in (math.pi / 4.0, math.pi / 2.0, math.pi):
                val = float(qfi_values(
                    QubitInit(a=s.init.a, r=s.init.r, phi=phi), s.spectrum, s.bath, t
                ))
                worst = max(worst, abs(val - ref) / (1.0 + abs(ref)))
        assert worst <= 1e-12
        c.detail = f"worst spread {worst:.3e} <= 1e-12 across phi in {{0, pi/4, pi/2, pi}}"


def test_criterion_12_partial_vs_total_derivative():
    with _Criterion(12, 1.0, "thermal start isolates the relaxation factor") as c:
        s = reference_scenario(a=0.25)
        dpi2 = -0.1875  # total derivative of the thermal population
        worst = 0.0
        for t in (0.3, 1.0, 2.7):
            factor = -math.expm1(s.relaxation_rate * t)  # 1 - e^{lam t}
            closed = beta_derivative_qubit(s.init, s.spectrum, s.bath, t)[1][1, 1].real
            _, drho = evolve_state_derivative(
                DensityMatrix.from_qubit_init(s.init), s.spectrum, s.bath, t
            )
            for dp2 in (float(closed), float(drho[1, 1].real)):
                worst = max(worst, abs(dp2 - factor * dpi2))
                assert dp2 / dpi2 == pytest.approx(factor, abs=1e-9)
            assert 0.0 < factor < 1.0
        assert worst <= 1e-10
        c.detail = (
            f"partial derivative = (1 - e^(lam t)) d pi within {worst:.3e} <= 1e-10; "
            "the factor < 1 separates it from the total derivative"
        )
