"""Protocol layer: traces, optimal times, state ranking, MLE, Cramer-Rao."""

import math

import numpy as np
import pytest

from thermoqfi import (
    Bath,
    DomainError,
    EstimationRun,
    EstimatorUndefinedError,
    QfiTrace,
    QubitInit,
    Scenario,
    Spectrum,
    classical_fisher_information,
    classify_region,
    cramer_rao_report,
    maximize_qfi_over_time,
    mle_beta,
    optimize_initial_state,
    qfi_trace,
    qfi_values,
    qubit_qfi,
    simulate_measurements,
)
from thermoqfi.metrology import OptimalTime, golden_section_maximize, golden_section_minimize

from conftest import reference_scenario


def _p2_closed_form(beta, omega, gamma, a, t):
    pi2 = 1.0 / (1.0 + math.exp(beta * omega))
    lam = gamma / (2.0 * pi2 - 1.0)
    return pi2 - math.exp(lam * t) * (pi2 - a)


class TestScenario:
    def test_reference_quantities(self):
        s = reference_scenario()
        assert s.pi2 == pytest.approx(0.25, rel=1e-15)
        assert s.relaxation_rate == pytest.approx(-2.0, rel=1e-15)
        assert s.asymptote == pytest.approx(0.1875, rel=1e-15)
        assert s.default_t_max == pytest.approx(10.0, rel=1e-12)

    def test_requires_two_levels(self):
        with pytest.raises(DomainError, match="two-level"):
            Scenario(
                spectrum=Spectrum(energies=(0.0, 1.0, 2.0)),
                bath=Bath(beta=1.0, gamma=1.0),
                init=QubitInit(a=0.0),
            )


class TestQfiTrace:
    def test_shapes_and_normalization(self):
        s = reference_scenario(a=0.1, r=1.0)
        trace = qfi_trace(s, n_points=128)
        assert trace.times.shape == (128,)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(s.default_t_max)
        np.testing.assert_allclose(
            trace.normalized, trace.values / s.asymptote, rtol=0, atol=0
        )

    def test_validation(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            QfiTrace(times=np.array([0.0, 1.0, 1.0]), values=np.zeros(3), asymptote=1.0)
        with pytest.raises(DomainError, match="matching"):
            QfiTrace(times=np.array([0.0, 1.0]), values=np.zeros(3), asymptote=1.0)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            QfiTrace(
                times=np.array([0.0, 1.0]), values=np.array([0.0, -1.0]), asymptote=1.0
            )
        with pytest.raises(DomainError, match="t=0 must vanish"):
            QfiTrace(
                times=np.array([0.0, 1.0]), values=np.array([0.5, 1.0]), asymptote=1.0
            )
        with pytest.raises(DomainError, match="asymptote"):
            QfiTrace(
                times=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]), asymptote=0.0
            )

    def test_rejects_bad_window(self):
        s = reference_scenario()
        with pytest.raises(DomainError):
            qfi_trace(s, t_max=-1.0)
        with pytest.raises(DomainError):
            qfi_trace(s, n_points=1)


class TestRegionClassification:
    def test_regions(self):
        pi2 = 0.25
        assert classify_region(0.0, pi2).region == "C"
        assert classify_region(0.1, pi2).region == "C"
        assert classify_region(0.35, pi2).region == "H"
        assert classify_region(0.5, pi2).region == "H"
        assert classify_region(0.51, pi2).region == "I"
        assert classify_region(1.0, pi2).region == "I"

    def test_boundaries_bin_into_h_with_flags(self):
        label = classify_region(0.25, 0.25)
        assert label.region == "H" and label.thermal_boundary
        assert not label.inversion_boundary
        label = classify_region(0.5, 0.25)
        assert label.region == "H" and label.inversion_boundary
        label = classify_region(0.25 + 1e-13, 0.25)
        assert label.thermal_boundary

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_region(1.2, 0.25)
        with pytest.raises(DomainError):
            classify_region(0.3, 0.7)
        with pytest.raises(DomainError):
            classify_region(0.3, 0.0)


class TestGoldenSection:
    def test_locates_parabola_vertex(self):
        x, fx = golden_section_maximize(lambda x: -((x - 1.3) ** 2), 0.0, 2.0, 1e-10)
        assert x == pytest.approx(1.3, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-18)

    def test_minimize_wrapper(self):
        # The +2 offset caps the locatable precision at sqrt(eps * 2) ~ 2e-8:
        # closer to the vertex the quadratic term falls below the value's ulp.
        x, fx = golden_section_minimize(lambda x: (x - 0.4) ** 2 + 2.0, 0.0, 1.0, 1e-10)
        assert x == pytest.approx(0.4, abs=1e-6)
        assert fx == pytest.approx(2.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            golden_section_maximize(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(DomainError):
            golden_section_maximize(lambda x: x, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            golden_section_maximize(lambda x: x, np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1e-8)

    def test_elementwise_matches_scalar_searches(self):
        # Brackets of different widths stop after different numbers of steps;
        # each element must still end on the bits of its own scalar search.
        centers = np.array([0.3, 1.7, -2.2, 0.05])
        lo = centers - np.array([0.5, 2.0, 0.01, 0.3])
        hi = centers + np.array([1.0, 0.4, 0.02, 0.3])
        x, fx = golden_section_maximize(lambda t: np.cos(t - centers), lo, hi, 1e-9)
        for k, c in enumerate(centers):
            xs, fs = golden_section_maximize(
                lambda t: float(np.cos(np.array([t - c]))[0]), float(lo[k]), float(hi[k]), 1e-9
            )
            assert isinstance(xs, float)
            assert (x[k], fx[k]) == (xs, fs)


class TestMaximizeQfi:
    def test_ground_start_interior_peak(self):
        best = maximize_qfi_over_time(reference_scenario())
        assert not best.asymptotic
        assert best.t_star == pytest.approx(0.7242273401034078, abs=1e-7)
        assert best.f_star == pytest.approx(0.27769162815121534, rel=1e-10)

    def test_cold_region_peak_beats_asymptote(self):
        s = reference_scenario(a=0.1)
        best = maximize_qfi_over_time(s)
        assert not best.asymptotic
        assert best.t_star == pytest.approx(1.1417526544472771, abs=1e-6)
        assert best.f_star / s.asymptote == pytest.approx(1.1241011132034258, rel=1e-9)

    def test_hot_region_is_asymptotic(self):
        s = reference_scenario(a=0.35)
        best = maximize_qfi_over_time(s)
        assert best.asymptotic
        assert best.t_star == s.default_t_max
        assert best.f_star == pytest.approx(s.asymptote, rel=1e-6)

    def test_inverted_region_supremum_is_asymptote(self):
        s = reference_scenario(a=0.8)
        best = maximize_qfi_over_time(s)
        assert best.asymptotic
        assert best.f_star == pytest.approx(s.asymptote, rel=1e-6)

    def test_rejects_short_window(self):
        with pytest.raises(DomainError, match="twenty relaxation times"):
            maximize_qfi_over_time(reference_scenario(), t_max=2.0)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_rejects_non_finite_window(self, t_max):
        with pytest.raises(DomainError, match="finite"):
            maximize_qfi_over_time(reference_scenario(), t_max=t_max)

    @pytest.mark.parametrize("a,r", [(0.0, 0.0), (0.1, 0.0), (0.1, 1.0), (0.35, 0.5), (0.8, 0.0)])
    def test_matches_scalar_grid_and_golden_section(self, a, r):
        # Reference: one qfi_values call on the grid, then a scalar golden
        # section over one-point qfi_values calls.
        s = reference_scenario(a=a, r=r)
        t_max = s.default_t_max
        times = np.linspace(0.0, t_max, 2048)
        values = qfi_values(s.init, s.spectrum, s.bath, times)
        i = int(np.argmax(values))
        best = maximize_qfi_over_time(s)
        if values[i] - values[-1] <= 1e-6 * s.asymptote:
            assert best == OptimalTime(t_star=t_max, f_star=float(values[-1]), asymptotic=True)
            return

        def f(t):
            return float(qfi_values(s.init, s.spectrum, s.bath, np.array([t]))[0])

        t_star, f_star = golden_section_maximize(
            f, float(times[i - 1]), float(times[i + 1]), 1e-8 * t_max
        )
        assert best == OptimalTime(t_star=t_star, f_star=f_star, asymptotic=False)


class TestOptimizeInitialState:
    def test_ranking_order_and_ties(self):
        s = reference_scenario()
        rows = optimize_initial_state(s.spectrum, s.bath, a_steps=5, r_steps=2)
        assert len(rows) == 10
        f_stars = [row.f_star for row in rows]
        assert f_stars == sorted(f_stars, reverse=True)
        # a = 0 kills the coherence regardless of r, so the two ground-start
        # rows tie and the tie breaks toward smaller r.
        assert (rows[0].a, rows[0].r) == (0.0, 0.0)
        assert (rows[1].a, rows[1].r) == (0.0, 1.0)
        assert rows[0].f_star == rows[1].f_star
        assert rows[0].f_star == pytest.approx(0.27769162815121534, rel=1e-10)
        assert rows[0].region.region == "C"

    def test_thermal_boundary_row_flagged(self):
        s = reference_scenario()
        rows = optimize_initial_state(s.spectrum, s.bath, a_steps=5, r_steps=2)
        boundary = [row for row in rows if row.a == 0.25]
        assert boundary and all(row.region.thermal_boundary for row in boundary)
        assert all(row.region.region == "H" for row in boundary)

    def test_deterministic(self):
        s = reference_scenario()
        rows1 = optimize_initial_state(s.spectrum, s.bath, a_steps=4, r_steps=1)
        rows2 = optimize_initial_state(s.spectrum, s.bath, a_steps=4, r_steps=1)
        assert rows1 == rows2

    @pytest.mark.parametrize("t_max", [None, 17.5])
    def test_rows_equal_per_state_maximization(self, t_max):
        # 13 x 3 = 39 states is not a multiple of the scan block, and the grid
        # holds r = 1 and the boundary rows a = pi2 = 1/4 and a = 1/2.
        s = reference_scenario()
        rows = optimize_initial_state(s.spectrum, s.bath, t_max=t_max, a_steps=13, r_steps=3)
        assert len(rows) == 39
        assert any(row.region.thermal_boundary for row in rows)
        assert any(row.region.inversion_boundary for row in rows)
        assert {row.r for row in rows} == {0.0, 0.5, 1.0}
        assert any(not row.asymptotic for row in rows) and any(row.asymptotic for row in rows)
        for row in rows:
            scenario = Scenario(spectrum=s.spectrum, bath=s.bath, init=QubitInit(a=row.a, r=row.r))
            best = maximize_qfi_over_time(scenario, t_max=t_max)
            assert row.t_star == best.t_star
            assert row.f_star == best.f_star
            assert row.asymptotic == best.asymptotic

    def test_validation(self):
        s = reference_scenario()
        with pytest.raises(DomainError):
            optimize_initial_state(s.spectrum, s.bath, a_steps=1)
        with pytest.raises(DomainError):
            optimize_initial_state(s.spectrum, s.bath, r_steps=0)


class TestClassicalFisher:
    def test_equals_qfi_for_population_states(self):
        s = reference_scenario()
        for t in (0.3, 0.7242273401034078, 2.0):
            fc = classical_fisher_information(s, t)
            fq = qubit_qfi(s.init, s.spectrum, s.bath, t).total
            assert fc == pytest.approx(fq, rel=1e-12)

    def test_below_qfi_with_coherence(self):
        s = reference_scenario(a=0.1, r=1.0)
        fc = classical_fisher_information(s, 1.0)
        fq = qubit_qfi(s.init, s.spectrum, s.bath, 1.0).total
        assert fc < fq


class TestSimulateMeasurements:
    def test_deterministic_and_bounded(self):
        s = reference_scenario()
        k1 = simulate_measurements(s, 1.0, 5000, 42)
        k2 = simulate_measurements(s, 1.0, 5000, 42)
        assert k1 == k2 == 1092
        assert 0 <= k1 <= 5000
        assert simulate_measurements(s, 1.0, 5000, 43) == 1133

    def test_validation(self):
        s = reference_scenario()
        with pytest.raises(DomainError):
            simulate_measurements(s, 1.0, 0, 1)
        with pytest.raises(DomainError):
            simulate_measurements(s, -1.0, 10, 1)


class TestMleBeta:
    BRACKET = (math.log(3.0) / 4.0, math.log(3.0) * 4.0)

    def test_inverts_population_map(self):
        s = reference_scenario()
        m = 10**6
        k = 216166
        res = mle_beta(k, m, s.spectrum, 1.0, s.init, 1.0, self.BRACKET)
        assert not res.clamped
        assert _p2_closed_form(res.beta_hat, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
            k / m, abs=1e-9
        )

    def test_recovers_true_beta_from_exact_population(self):
        # Feed the estimator a count whose frequency matches p2(beta_true) to
        # within 1/(2m); the inversion error is then dominated by rounding.
        s = reference_scenario()
        m = 10**7
        p2 = _p2_closed_form(s.bath.beta, 1.0, 1.0, 0.0, 1.0)
        res = mle_beta(round(p2 * m), m, s.spectrum, 1.0, s.init, 1.0, self.BRACKET)
        assert res.beta_hat == pytest.approx(s.bath.beta, abs=1e-6)

    def test_clamps_at_bracket_edges(self):
        s = reference_scenario()
        res0 = mle_beta(0, 100, s.spectrum, 1.0, s.init, 1.0, (0.3, 4.0))
        assert res0.clamped and res0.beta_hat == 4.0
        res1 = mle_beta(100, 100, s.spectrum, 1.0, s.init, 1.0, (0.3, 4.0))
        assert res1.clamped and res1.beta_hat == 0.3

    def test_undefined_at_zero_time(self):
        s = reference_scenario()
        with pytest.raises(EstimatorUndefinedError, match="no beta dependence"):
            mle_beta(5, 10, s.spectrum, 1.0, s.init, 0.0, self.BRACKET)

    def test_undefined_when_population_not_monotone(self):
        # Inverted-region initial state at its derivative zero crossing: p2 is
        # not injective in beta there, so identifiability fails.
        s = reference_scenario()
        with pytest.raises(EstimatorUndefinedError, match="not strictly monotone"):
            mle_beta(
                50,
                100,
                s.spectrum,
                1.0,
                QubitInit(a=0.8),
                0.7066,
                (math.log(3.0) / 2.0, 2.0 * math.log(3.0)),
            )

    def test_validation(self):
        s = reference_scenario()
        with pytest.raises(DomainError):
            mle_beta(11, 10, s.spectrum, 1.0, s.init, 1.0, self.BRACKET)
        with pytest.raises(DomainError):
            mle_beta(5, 10, s.spectrum, 1.0, s.init, 1.0, (1.0, 0.5))
        with pytest.raises(DomainError):
            mle_beta(5, 10, s.spectrum, 1.0, s.init, 1.0, (0.0, 1.0))


class TestEstimationRun:
    def test_validation(self):
        with pytest.raises(DomainError, match="two replicas"):
            EstimationRun(
                m_experiments=10,
                measurement_time=1.0,
                seed=0,
                beta_hats=np.array([1.0]),
                variance=0.0,
            )
        with pytest.raises(DomainError, match="finite"):
            EstimationRun(
                m_experiments=10,
                measurement_time=1.0,
                seed=0,
                beta_hats=np.array([1.0, math.inf]),
                variance=0.0,
            )
        with pytest.raises(DomainError, match="variance"):
            EstimationRun(
                m_experiments=10,
                measurement_time=1.0,
                seed=0,
                beta_hats=np.array([1.0, 1.1]),
                variance=-1.0,
            )


class TestCramerRao:
    def test_requires_population_state(self):
        with pytest.raises(DomainError, match="r = 0"):
            cramer_rao_report(reference_scenario(a=0.1, r=1.0))

    def test_small_run_saturates(self):
        report = cramer_rao_report(
            reference_scenario(), m_experiments=2000, n_replicas=200, seed=3
        )
        assert not report.no_information
        assert report.clamped_count == 0
        assert report.f_classical == pytest.approx(report.f_quantum, rel=1e-12)
        assert report.bound == pytest.approx(
            1.0 / (2000 * report.f_classical), rel=1e-15
        )
        assert report.ratio == pytest.approx(1.0848184418774214, rel=1e-12)
        assert 0.8 <= report.ratio <= 1.3

    def test_deterministic(self):
        r1 = cramer_rao_report(
            reference_scenario(), m_experiments=500, n_replicas=50, seed=9
        )
        r2 = cramer_rao_report(
            reference_scenario(), m_experiments=500, n_replicas=50, seed=9
        )
        assert r1.ratio == r2.ratio
        assert np.array_equal(r1.run.beta_hats, r2.run.beta_hats)

    def test_no_information_at_zero_time(self):
        report = cramer_rao_report(
            reference_scenario(), t=0.0, m_experiments=100, n_replicas=10, seed=1
        )
        assert report.no_information
        assert report.run is None
        assert report.bound is None and report.ratio is None
        assert report.f_classical == 0.0

    def test_defaults_to_optimal_time(self):
        report = cramer_rao_report(
            reference_scenario(), m_experiments=200, n_replicas=20, seed=5
        )
        assert report.run.measurement_time == pytest.approx(
            0.7242273401034078, abs=1e-6
        )

    def test_validation(self):
        with pytest.raises(DomainError, match="n_replicas"):
            cramer_rao_report(reference_scenario(), n_replicas=1)

    def test_estimates_equal_per_replica_mle(self):
        # A bracket this narrow clamps many replicas at either edge, so the
        # count memo serves clamped and bisected estimates alike.
        s = reference_scenario()
        t, m, n, seed = 1.0, 200, 150, 4
        bracket = (1.05, 1.15)
        report = cramer_rao_report(
            s, t=t, m_experiments=m, n_replicas=n, seed=seed, bracket=bracket
        )
        expected = [
            mle_beta(
                simulate_measurements(s, t, m, [seed, i]),
                m, s.spectrum, s.bath.gamma, s.init, t, bracket,
            )
            for i in range(n)
        ]
        assert report.run.beta_hats.tolist() == [e.beta_hat for e in expected]
        assert report.clamped_count == sum(e.clamped for e in expected)
        assert 0 < report.clamped_count < n

    def test_mle_inverts_the_population_counts_are_drawn_from(self, monkeypatch):
        # At the true beta the MLE's p2 must be the very population the
        # binomial counts are drawn from. With m = 2**80 experiments a count
        # fraction equals that population exactly, and brackets ending at the
        # true beta on either side both clamp to it only if the MLE reaches
        # that population there bit for bit.
        rng = np.random.default_rng(2405)
        cases = []
        for _ in range(200):
            omega = float(rng.uniform(0.3, 3.0))
            beta = float(rng.uniform(0.2, 3.0)) / omega
            gamma = float(rng.uniform(0.2, 3.0))
            # region C over the whole bracket keeps p2 monotone in beta
            a = float(rng.uniform(0.1, 0.95)) * Scenario.qubit(omega, 2 * beta, gamma, 0.0).pi2
            s = Scenario.qubit(omega, beta, gamma, a)
            cases.append((s, float(rng.uniform(0.05, 5.0)) / abs(s.relaxation_rate)))

        drawn = []
        real_rng = np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def binomial(self, n, p):
                drawn.append(p)
                return self._rng.binomial(n, p)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        m = 2**80
        for s, t in cases:
            beta = s.bath.beta
            drawn.clear()
            cramer_rao_report(
                s, t=t, m_experiments=10, n_replicas=2, bracket=(beta / 2.0, 2.0 * beta)
            )
            counts = int(drawn[0] * m)
            assert counts / m == drawn[0]
            for bracket in ((beta / 2.0, beta), (beta, 2.0 * beta)):
                res = mle_beta(counts, m, s.spectrum, s.bath.gamma, s.init, t, bracket)
                assert res.clamped and res.beta_hat == beta

    def test_bracket_beyond_exp_range_is_a_domain_error(self):
        s = Scenario.qubit(omega12=1.0, beta=200.0, gamma=1.0, a=0.0)
        with pytest.raises(DomainError, match="709"):
            cramer_rao_report(s, t=1.0, m_experiments=100, n_replicas=10)
        with pytest.raises(DomainError, match="709"):
            mle_beta(5, 10, s.spectrum, 1.0, s.init, 1.0, (100.0, 710.0))
