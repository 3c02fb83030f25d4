"""Protocol layer: traces, optimal times, state ranking, MLE, Cramer-Rao."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from thermoqfi import (
    Bath,
    DomainError,
    EstimatorUndefinedError,
    QubitInit,
    RegionLabel,
    Spectrum,
    classify_region,
    cramer_rao_report,
    maximize_qfi_over_time,
    optimize_initial_state,
    qfi_values,
    qubit_relaxation_rate,
    thermal_qfi,
)
from thermoqfi import metrology
from thermoqfi.dynamics import _default_t_max, _qubit_model, _qubit_model_of
from thermoqfi.metrology import _bisect, _mle_inverse, _peak_times, _replica_counts

from conftest import qubit, reference_qubit


def _scalar_mle(target, omega, gamma, a, t, lo, hi):
    """Reference bisection: one scalar model per halving, as in a plain loop."""
    y_lo = _qubit_model(omega, lo).p2(a, gamma * t)
    y_hi = _qubit_model(omega, hi).p2(a, gamma * t)
    decreasing = y_lo > y_hi
    if target <= min(y_lo, y_hi):
        return (hi if decreasing else lo), True
    if target >= max(y_lo, y_hi):
        return (lo if decreasing else hi), True
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if (_qubit_model(omega, mid).p2(a, gamma * t) > target) == decreasing:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0, False


def _p2_closed_form(beta, omega, gamma, a, t):
    pi2 = 1.0 / (1.0 + math.exp(beta * omega))
    lam = gamma / (2.0 * pi2 - 1.0)
    return pi2 - math.exp(lam * t) * (pi2 - a)


class TestQubitThermometer:
    def test_reference_quantities(self):
        _, spectrum, bath = reference_qubit()
        assert _qubit_model_of(spectrum, bath).pi2 == pytest.approx(0.25, rel=1e-15)
        assert qubit_relaxation_rate(spectrum, bath) == pytest.approx(-2.0, rel=1e-15)
        assert thermal_qfi(spectrum, bath.beta) == pytest.approx(0.1875, rel=1e-15)
        assert _default_t_max(spectrum, bath) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("entry", [maximize_qfi_over_time, cramer_rao_report])
    def test_requires_two_levels(self, entry):
        three_levels = Spectrum(energies=(0.0, 1.0, 2.0))
        with pytest.raises(DomainError, match="two-level"):
            entry(QubitInit(a=0.0), three_levels, Bath(beta=1.0, gamma=1.0))


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

    def test_boundaries_are_relative(self):
        # At beta*omega = 30, pi2 = 9.4e-14 lies below an absolute 1e-12:
        # the ground state is still region C, not the thermal boundary.
        pi2 = 1.0 / (1.0 + math.exp(30.0))
        assert classify_region(0.0, pi2) == RegionLabel(region="C")
        assert classify_region(pi2 * (1.0 + 1e-13), pi2).thermal_boundary
        assert classify_region(0.5 - 4e-13, 0.25).inversion_boundary
        assert not classify_region(0.5 - 1e-12, 0.25).inversion_boundary


class TestBisect:
    def test_elementwise_matches_scalar_calls(self):
        # Brackets of unequal width stop after different numbers of halvings;
        # each element must still end on the bits of its own scalar bisection.
        roots = np.array([0.3, 1.7, -2.2, 0.05, 1e-3])
        lo = roots - np.array([0.5, 2.0, 0.01, 0.3, 1e-3])
        hi = roots + np.array([1.0, 0.4, 0.02, 0.3, 2.0])
        for tol in (0.0, 1e-9):
            x = _bisect(lambda m: np.sin(m - roots) < 0, lo, hi, tol)
            for k, root in enumerate(roots.tolist()):
                xs = _bisect(lambda m: np.sin(m - root) < 0, lo[k], hi[k], tol)
                assert xs.shape == ()
                assert x[k] == xs
                assert abs(xs - root) <= max(tol, 4 * np.spacing(abs(root)))

    def test_tolerance_stop(self):
        x = _bisect(lambda m: m < 1.3, 0.0, 2.0, 1e-6)
        assert abs(x - 1.3) <= 1e-6
        assert abs(x - 1.3) > 1e-12

    def test_stops_on_adjacent_floats(self):
        # Near 2**40 adjacent floats are 2.4e-4 apart, far wider than tol, so
        # only the split rule can end the search: it stops with the bracket
        # two adjacent floats and the midpoint rounded onto one of them.
        target = 2.0**40 + 0.3
        calls = []

        def below_target(m):
            calls.append(m)
            assert len(calls) < 200, "the bisection does not end"
            return m < target

        x = _bisect(below_target, 2.0**39, 2.0**41, 1e-10)
        assert x in (np.nextafter(target, -math.inf), target)
        evaluated = []

        def above(m):
            evaluated.append(m.copy())
            return np.zeros(m.shape, dtype=bool)

        lo = np.array([1.0, 5.0])
        x = _bisect(above, lo, np.nextafter(lo, np.inf))
        assert x.tolist() == lo.tolist() and evaluated == []

    def test_never_probes_a_bracket_end(self):
        probes = []

        def above(m):
            probes.append(float(m))
            return m < 0.25

        _bisect(above, 0.0, 1.0)
        assert probes and 0.0 < min(probes) and max(probes) < 1.0

    def test_domain(self):
        above = lambda m: m < 0.5  # noqa: E731
        with pytest.raises(DomainError):
            _bisect(above, 1.0, 0.0)
        with pytest.raises(DomainError):
            _bisect(above, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            _bisect(above, 0.0, math.inf)
        with pytest.raises(DomainError):
            _bisect(above, math.nan, 1.0)
        with pytest.raises(DomainError):
            _bisect(above, 0.0, 1.0, -1e-8)
        with pytest.raises(DomainError):
            _bisect(above, 0.0, 1.0, math.nan)


def _mp_peak_time(init: QubitInit, spectrum: Spectrum, bath: Bath, t0: float) -> float:
    """The mpmath root of dF/dt within 1e-3 relative of t0, F in Bloch-vector form.

    F = |d_beta r|^2 + (r . d_beta r)^2/(1 - |r|^2) for the Bloch vector
    r = (2|rho12|, 0, 1 - 2 p2) of the relaxing qubit at fixed initial state;
    both derivatives are taken numerically at 40 digits.
    """
    omega, beta, gamma = spectrum.gap(1, 2), bath.beta, bath.gamma
    a, r = init.a, init.r
    with mpmath.workdps(40):
        omega, beta, gamma, a, r = map(mpmath.mpf, (omega, beta, gamma, a, r))

        def bloch(b, t):
            w = mpmath.exp(-b * omega)
            pi2 = w / (1 + w)
            lam = -gamma / mpmath.tanh(b * omega / 2)
            p2 = pi2 - mpmath.exp(lam * t) * (pi2 - a)
            return 2 * r * mpmath.sqrt(a * (1 - a)) * mpmath.exp(lam * t / 2), 1 - 2 * p2

        def qfi(t):
            x, z = bloch(beta, t)
            dx = mpmath.diff(lambda b: bloch(b, t)[0], beta)
            dz = mpmath.diff(lambda b: bloch(b, t)[1], beta)
            return dx**2 + dz**2 + (x * dx + z * dz) ** 2 / (1 - x**2 - z**2)

        bracket = (mpmath.mpf(t0) * (1 - 1e-3), mpmath.mpf(t0) * (1 + 1e-3))
        return float(mpmath.findroot(lambda t: mpmath.diff(qfi, t), bracket, solver="anderson"))


INTERIOR_PEAKS = [
    (1.0, math.log(3.0), 1.0, 0.0, 0.0),
    (1.0, math.log(3.0), 1.0, 0.1, 0.0),
    (1.0, math.log(3.0), 1.0, 0.1, 1.0),
    (1.0, math.log(3.0), 1.0, 0.2, 0.5),
    (2.3, 0.9, 0.4, 0.05, 0.7),
    (0.5, 4.0, 2.5, 0.0, 0.0),
    (1.7, 0.15, 30.0, 0.3, 0.9),
]


class TestMaximizeQfi:
    def test_ground_start_interior_peak(self):
        best = maximize_qfi_over_time(*reference_qubit())
        assert not best.asymptotic
        assert best.t_star == pytest.approx(0.72422736049842, rel=1e-14)
        assert best.f_star == pytest.approx(0.27769162815121534, rel=1e-10)

    def test_cold_region_peak_beats_asymptote(self):
        init, spectrum, bath = reference_qubit(a=0.1)
        best = maximize_qfi_over_time(init, spectrum, bath)
        assert not best.asymptotic
        assert best.t_star == pytest.approx(1.1417526467733779, rel=1e-14)
        ratio = best.f_star / thermal_qfi(spectrum, bath.beta)
        assert ratio == pytest.approx(1.1241011132034258, rel=1e-9)

    def test_hot_region_is_asymptotic(self):
        init, spectrum, bath = reference_qubit(a=0.35)
        best = maximize_qfi_over_time(init, spectrum, bath)
        assert best.asymptotic
        assert best.t_star == _default_t_max(spectrum, bath)
        assert best.f_star == pytest.approx(thermal_qfi(spectrum, bath.beta), rel=1e-6)

    def test_inverted_region_supremum_is_asymptote(self):
        init, spectrum, bath = reference_qubit(a=0.8)
        best = maximize_qfi_over_time(init, spectrum, bath)
        assert best.asymptotic
        assert best.f_star == pytest.approx(thermal_qfi(spectrum, bath.beta), rel=1e-6)

    # A window is set through optimize --t-max, which reaches _peak_times.
    def test_rejects_short_window(self):
        init, spectrum, bath = reference_qubit()
        with pytest.raises(DomainError, match="at least the default window max"):
            _peak_times([init], spectrum, bath, 2.0)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_rejects_non_finite_window(self, t_max):
        init, spectrum, bath = reference_qubit()
        with pytest.raises(DomainError, match="finite"):
            _peak_times([init], spectrum, bath, t_max)

    @pytest.mark.parametrize("omega,beta,gamma,a,r", INTERIOR_PEAKS)
    def test_peak_time_is_the_root_of_the_slope(self, omega, beta, gamma, a, r):
        s = qubit(omega, beta, gamma, a, r=r)
        best = maximize_qfi_over_time(*s)
        assert not best.asymptotic
        assert best.t_star == pytest.approx(_mp_peak_time(*s, best.t_star), rel=1e-14)
        assert best.f_star == float(qfi_values(*s, [best.t_star])[0])

    @pytest.mark.parametrize("omega,beta,gamma,a,r", INTERIOR_PEAKS)
    def test_peak_time_ignores_the_grid(self, monkeypatch, omega, beta, gamma, a, r):
        init, spectrum, bath = qubit(omega, beta, gamma, a, r=r)
        best = maximize_qfi_over_time(init, spectrum, bath)
        wider = np.nextafter(_default_t_max(spectrum, bath), math.inf)
        moved = [_peak_times([init], spectrum, bath, wider)[0]]
        monkeypatch.setattr(metrology, "_SCAN_POINTS", 4096)  # a finer grid
        moved.append(maximize_qfi_over_time(init, spectrum, bath))
        for peak in moved:
            assert not peak.asymptotic
            assert peak.t_star == pytest.approx(best.t_star, rel=1e-14)


class TestOptimizeInitialState:
    def test_ranking_order_and_ties(self):
        _, spectrum, bath = reference_qubit()
        rows = optimize_initial_state(spectrum, bath, a_steps=5, r_steps=2)
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

    @pytest.mark.parametrize(
        "gamma", [1e-307, 1e-305, 1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300, 1e307, 5e307]
    )
    def test_peaks_depend_on_gamma_t_alone(self, gamma):
        _, spectrum, bath = reference_qubit()
        unit = {(row.a, row.r): row for row in optimize_initial_state(
            spectrum, bath, a_steps=11, r_steps=3)}
        rows = optimize_initial_state(
            spectrum, Bath(beta=bath.beta, gamma=gamma), a_steps=11, r_steps=3
        )
        assert any(not row.asymptotic for row in rows)
        for row in rows:
            ref = unit[(row.a, row.r)]
            assert row.asymptotic == ref.asymptotic
            # the kernel runs in s = gamma t, so its slope is of order one at
            # any gamma and gamma t_star moves by rounding alone
            assert row.t_star * gamma == pytest.approx(ref.t_star, rel=1e-15, abs=0)
            assert row.f_star == pytest.approx(ref.f_star, rel=1e-13)

    def test_thermal_boundary_row_flagged(self):
        _, spectrum, bath = reference_qubit()
        rows = optimize_initial_state(spectrum, bath, a_steps=5, r_steps=2)
        boundary = [row for row in rows if row.a == 0.25]
        assert boundary and all(row.region.thermal_boundary for row in boundary)
        assert all(row.region.region == "H" for row in boundary)

    def test_deterministic(self):
        _, spectrum, bath = reference_qubit()
        rows1 = optimize_initial_state(spectrum, bath, a_steps=4, r_steps=1)
        rows2 = optimize_initial_state(spectrum, bath, a_steps=4, r_steps=1)
        assert rows1 == rows2

    @pytest.mark.parametrize("t_max", [None, 17.5])
    def test_rows_equal_per_state_maximization(self, t_max):
        # 13 x 3 = 39 states is not a multiple of the scan block, and the grid
        # holds r = 1 and the boundary rows a = pi2 = 1/4 and a = 1/2.
        _, spectrum, bath = reference_qubit()
        rows = optimize_initial_state(spectrum, bath, t_max=t_max, a_steps=13, r_steps=3)
        assert len(rows) == 39
        assert any(row.region.thermal_boundary for row in rows)
        assert any(row.region.inversion_boundary for row in rows)
        assert {row.r for row in rows} == {0.0, 0.5, 1.0}
        assert any(not row.asymptotic for row in rows) and any(row.asymptotic for row in rows)
        for row in rows:
            init = QubitInit(a=row.a, r=row.r)
            if t_max is None:
                best = maximize_qfi_over_time(init, spectrum, bath)
            else:
                best = _peak_times([init], spectrum, bath, t_max)[0]
            assert row.t_star == best.t_star
            assert row.f_star == best.f_star
            assert row.asymptotic == best.asymptotic

    @pytest.mark.parametrize("beta", [15.0, 20.0, 30.0])
    def test_cold_default_window_reaches_the_asymptote(self, beta):
        # Above beta*omega = 6 the default window grows as (14 + beta*omega)/|lambda|:
        # the tail of a = 1/2 and a = 1 must reach F_th, which 20/|lambda| does not.
        spectrum = Spectrum.qubit(1.0)
        rows = optimize_initial_state(spectrum, Bath(beta=beta, gamma=1.0), a_steps=3, r_steps=1)
        asymptote = thermal_qfi(spectrum, beta)
        late = [row for row in rows if row.a in (0.5, 1.0)]
        assert len(late) == 2
        for row in late:
            assert row.f_star / asymptote >= 1.0 - 1e-6

    def test_validation(self):
        _, spectrum, bath = reference_qubit()
        with pytest.raises(DomainError):
            optimize_initial_state(spectrum, bath, a_steps=1)
        with pytest.raises(DomainError):
            optimize_initial_state(spectrum, bath, r_steps=0)


class TestClassicalFisher:
    def test_equals_qfi_for_population_states(self):
        # At r = 0 the kernel's total is the population measurement's Fisher
        # information, so the report carries one value for both.
        s = reference_qubit()
        for t in (0.3, 0.7242273401034078, 2.0):
            report = cramer_rao_report(*s, t=t, m_experiments=500, n_replicas=10)
            assert report.f_classical == report.f_quantum
            assert report.f_quantum == float(qfi_values(*s, t))


_LARGE_BETA_MLE = """
from thermoqfi import QubitInit, Spectrum
from thermoqfi.dynamics import _qubit_model
from thermoqfi.metrology import _mle_inverse
m = 10**6
counts = round(m * float(_qubit_model(1e-6, 2e6).p2(0.0, 1.0)))
invert = _mle_inverse(Spectrum.qubit(1e-6), 1.0, QubitInit(a=0.0), 1.0, (5e5, 8e6))
[beta_hat], [clamped] = invert([counts / m])
print(beta_hat, clamped)
"""


def _mle(counts, m, spectrum, gamma, init, t, bracket):
    """The estimate and clamped flag of one count, as cramer_rao_report forms them."""
    [beta_hat], [clamped] = _mle_inverse(spectrum, gamma, init, t, bracket)([counts / m])
    return float(beta_hat), bool(clamped)


class TestMleBeta:
    BRACKET = (math.log(3.0) / 4.0, math.log(3.0) * 4.0)

    def test_bracket_beyond_2_19_ends(self):
        # Above beta = 2**19 adjacent floats lie further apart than the 1e-10
        # stop, so the bisection must end on them. It runs in a child process
        # so that a search that never ends fails on the timeout.
        proc = subprocess.run(
            [sys.executable, "-c", _LARGE_BETA_MLE],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        beta_hat, clamped = proc.stdout.split()
        assert float(beta_hat) == pytest.approx(2e6, rel=1e-3)
        assert clamped == "False"

    def test_inverts_population_map(self):
        init, spectrum, _ = reference_qubit()
        m = 10**6
        k = 216166
        beta_hat, clamped = _mle(k, m, spectrum, 1.0, init, 1.0, self.BRACKET)
        assert not clamped
        assert _p2_closed_form(beta_hat, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
            k / m, abs=1e-9
        )

    def test_recovers_true_beta_from_exact_population(self):
        # Feed the estimator a count whose frequency matches p2(beta_true) to
        # within 1/(2m); the inversion error is then dominated by rounding.
        init, spectrum, bath = reference_qubit()
        m = 10**7
        p2 = _p2_closed_form(bath.beta, 1.0, 1.0, 0.0, 1.0)
        beta_hat, _ = _mle(round(p2 * m), m, spectrum, 1.0, init, 1.0, self.BRACKET)
        assert beta_hat == pytest.approx(bath.beta, abs=1e-6)

    def test_clamps_at_bracket_edges(self):
        init, spectrum, _ = reference_qubit()
        assert _mle(0, 100, spectrum, 1.0, init, 1.0, (0.3, 4.0)) == (4.0, True)
        assert _mle(100, 100, spectrum, 1.0, init, 1.0, (0.3, 4.0)) == (0.3, True)

    def test_undefined_at_zero_time(self):
        # At t = 0 the population is the initial one for every beta: a count
        # carries no information and the estimate is not identifiable.
        init, spectrum, _ = reference_qubit()
        with pytest.raises(EstimatorUndefinedError, match="not strictly monotone"):
            _mle_inverse(spectrum, 1.0, init, 0.0, self.BRACKET)

    def test_undefined_when_population_not_monotone(self):
        # Inverted-region initial state at its derivative zero crossing: p2 is
        # not injective in beta there, so identifiability fails.
        with pytest.raises(EstimatorUndefinedError, match="not strictly monotone"):
            _mle_inverse(
                Spectrum.qubit(1.0),
                1.0,
                QubitInit(a=0.8),
                0.7066,
                (math.log(3.0) / 2.0, 2.0 * math.log(3.0)),
            )

    def test_validation(self):
        # a bracket that reaches beta = 0 leaves the model's beta*omega range
        init, spectrum, _ = reference_qubit()
        with pytest.raises(DomainError, match=r"beta\*omega = 0 is too small"):
            _mle_inverse(spectrum, 1.0, init, 1.0, (0.0, 1.0))

    @pytest.mark.parametrize("k", [18, 20, 24])
    def test_each_target_stops_where_the_scalar_loop_does(self, k):
        # After k halvings of a bracket 2**k * 1e-10 wide, each target's
        # width sits within rounding of the 1e-10 stop, so some targets halve
        # once more than others; the array bisection must stop each on its own.
        omega, gamma, a, t = 1.0, 1.0, 0.05, 0.7
        lo, hi = 1.0, 1.0 + 2.0**k * 1e-10
        y_lo = _qubit_model(omega, lo).p2(a, gamma * t)
        y_hi = _qubit_model(omega, hi).p2(a, gamma * t)
        targets = np.linspace(y_hi, y_lo, 2001)[1:-1]
        invert = _mle_inverse(Spectrum.qubit(omega), gamma, QubitInit(a=a), t, (lo, hi))
        estimates, clamped = invert(targets)
        expected = [_scalar_mle(y, omega, gamma, a, t, lo, hi) for y in targets.tolist()]
        assert estimates.tolist() == [e[0] for e in expected]
        assert not clamped.any()


class TestCramerRao:
    @pytest.mark.parametrize("t", [None, 0.0, 1.0, 3.7])
    def test_coherent_state_reports_the_quantum_bound_only(self, monkeypatch, t):
        # r != 0: the population measurement no longer attains F_Q, so the
        # report carries 1/(M F_Q) alone and draws nothing.
        monkeypatch.setattr(metrology, "_replica_counts", _must_not_draw)
        s = reference_qubit(a=0.1, r=0.6, phi=0.4)
        report = cramer_rao_report(*s, t=t, m_experiments=500, n_replicas=10)
        t_used = maximize_qfi_over_time(*s).t_star if t is None else t
        f_quantum = float(qfi_values(*s, t_used))
        assert report.bound_only
        assert report.variance is None and report.f_classical is None
        assert report.ratio is None and report.clamped_count is None
        assert report.measurement_time == t_used
        assert report.f_quantum == f_quantum  # bit for bit
        if t == 0.0:
            assert report.no_information and report.bound is None
        else:
            assert not report.no_information
            assert report.bound == 1.0 / (500 * f_quantum)

    def test_coherent_state_checks_the_run_first(self, monkeypatch):
        monkeypatch.setattr(metrology, "maximize_qfi_over_time", _must_not_draw)
        s = reference_qubit(a=0.1, r=1.0)
        with pytest.raises(DomainError, match="m_experiments must be a positive integer"):
            cramer_rao_report(*s, m_experiments=0)
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            cramer_rao_report(*s, seed=-1)
        with pytest.raises(DomainError, match="^t must be nonnegative$"):
            cramer_rao_report(*s, t=-1.0)

    def test_population_state_is_not_bound_only(self):
        report = cramer_rao_report(
            *reference_qubit(), t=1.0, m_experiments=100, n_replicas=10, seed=2
        )
        assert not report.bound_only
        assert report.variance is not None
        assert report.measurement_time == 1.0

    def test_small_run_saturates(self):
        # 2000 replicas put the sample variance's spread sqrt(2/(R-1)) at 0.032,
        # so [0.8, 1.3] holds for any seed, not only for a lucky one.
        report = cramer_rao_report(
            *reference_qubit(), m_experiments=2000, n_replicas=2000, seed=3
        )
        assert not report.no_information
        assert report.clamped_count == 0
        assert report.f_classical == pytest.approx(report.f_quantum, rel=1e-12)
        assert report.bound == pytest.approx(
            1.0 / (2000 * report.f_classical), rel=1e-15
        )
        assert report.ratio == pytest.approx(1.0285510772244635, rel=1e-12)
        assert 0.8 <= report.ratio <= 1.3

    def test_deterministic(self):
        r1 = cramer_rao_report(
            *reference_qubit(), m_experiments=500, n_replicas=50, seed=9
        )
        r2 = cramer_rao_report(
            *reference_qubit(), m_experiments=500, n_replicas=50, seed=9
        )
        assert r1.ratio == r2.ratio
        assert r1.variance == r2.variance

    def test_no_information_at_zero_time(self):
        report = cramer_rao_report(
            *reference_qubit(), t=0.0, m_experiments=100, n_replicas=10, seed=1
        )
        assert report.no_information
        assert report.variance is None
        assert report.bound is None and report.ratio is None
        assert report.f_classical == 0.0

    def test_defaults_to_optimal_time(self):
        report = cramer_rao_report(
            *reference_qubit(), m_experiments=200, n_replicas=20, seed=5
        )
        assert report.measurement_time == pytest.approx(0.72422736049842, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError, match="n_replicas"):
            cramer_rao_report(*reference_qubit(), n_replicas=1)

    def test_estimates_equal_per_replica_mle(self):
        # With M = 10 a count of 0 lies below p2(4 beta) and one of 5 or more
        # above p2(beta/4), so replicas clamp at both edges of the report's
        # bracket and the count memo serves clamped and bisected estimates alike.
        init, spectrum, bath = reference_qubit()
        t, m, n, seed = 1.0, 10, 150, 4
        bracket = (bath.beta / 4.0, bath.beta * 4.0)
        report = cramer_rao_report(
            init, spectrum, bath, t=t, m_experiments=m, n_replicas=n, seed=seed
        )
        p2 = min(1.0, max(0.0, float(_qubit_model_of(spectrum, bath).p2(init.a, bath.gamma * t))))
        expected = [
            _mle(c, m, spectrum, bath.gamma, init, t, bracket)
            for c in _reference_counts(seed, n, m, p2)
        ]
        invert = _mle_inverse(spectrum, bath.gamma, init, t, bracket)
        estimates, _ = invert(_replica_counts(seed, n, m, p2) / m)
        assert estimates.tolist() == [e[0] for e in expected]
        assert report.variance == float(np.var(estimates, ddof=1))
        assert report.clamped_count == sum(e[1] for e in expected)
        assert 0 < report.clamped_count < n
        assert set(bracket) <= set(estimates.tolist())

    def test_estimates_equal_scalar_bisection(self):
        # The distinct counts are bisected as one array; every estimate must
        # equal the scalar loop's bit for bit, including models whose bracket
        # straddles the tanh switch of the relaxation rate (beta*omega = 1e-2)
        # and narrow brackets that clamp replicas at either edge. On the
        # report's own bracket (beta/4, 4 beta) the report must match too.
        rng = np.random.default_rng(2411)
        clamped = 0
        for k in range(40):
            omega = float(rng.uniform(0.3, 3.0))
            x = 0.01 * float(rng.uniform(0.5, 2.0)) if k % 4 == 0 else float(rng.uniform(0.2, 3.0))
            beta, gamma = x / omega, float(rng.uniform(0.2, 3.0))
            a = float(rng.uniform(0.1, 0.95)) * _qubit_model(omega, 4 * beta).pi2
            init, spectrum, bath = qubit(omega, beta, gamma, a)
            t = float(rng.uniform(0.05, 3.0)) / abs(qubit_relaxation_rate(spectrum, bath))
            lo, hi = (beta / 4.0, 4.0 * beta) if k % 3 else (0.97 * beta, 1.03 * beta)
            m, n, seed = int(rng.integers(100, 10**6)), 300, int(rng.integers(2**32))
            p2 = min(1.0, max(0.0, float(_qubit_model(omega, beta).p2(a, gamma * t))))
            by_count = {}
            expected = []
            for c in _reference_counts(seed, n, m, p2):
                if c not in by_count:
                    by_count[c] = _scalar_mle(c / m, omega, gamma, a, t, lo, hi)
                expected.append(by_count[c])
            invert = _mle_inverse(spectrum, gamma, init, t, (lo, hi))
            estimates, flags = invert(_replica_counts(seed, n, m, p2) / m)
            assert estimates.tolist() == [e[0] for e in expected]
            assert flags.tolist() == [e[1] for e in expected]
            if k % 3:
                report = cramer_rao_report(
                    init, spectrum, bath, t=t, m_experiments=m, n_replicas=n, seed=seed
                )
                assert report.variance == float(np.var(estimates, ddof=1))
                assert report.clamped_count == int(flags.sum())
            clamped += int(flags.sum())
        assert clamped > 0

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
            a = float(rng.uniform(0.1, 0.95)) * _qubit_model(omega, 4 * beta).pi2
            init, spectrum, bath = qubit(omega, beta, gamma, a)
            t = float(rng.uniform(0.05, 5.0)) / abs(qubit_relaxation_rate(spectrum, bath))
            cases.append((init, spectrum, bath, t))

        drawn = []
        real_counts = metrology._replica_counts

        def recording_counts(seed, n_replicas, m_experiments, p):
            drawn.append(p)
            return real_counts(seed, n_replicas, m_experiments, p)

        monkeypatch.setattr(metrology, "_replica_counts", recording_counts)
        m = 2**80
        for init, spectrum, bath, t in cases:
            beta = bath.beta
            drawn.clear()
            cramer_rao_report(init, spectrum, bath, t=t, m_experiments=10, n_replicas=2)
            counts = int(drawn[0] * m)
            assert counts / m == drawn[0]
            for bracket in ((beta / 2.0, beta), (beta, 2.0 * beta)):
                assert _mle(counts, m, spectrum, bath.gamma, init, t, bracket) == (beta, True)

    def test_bracket_beyond_exp_range_is_a_domain_error(self, monkeypatch):
        # cramer_rao_report checks the bracket before it draws any replica
        monkeypatch.setattr(metrology, "_replica_counts", _must_not_draw)
        init, spectrum, bath = qubit(omega12=1.0, beta=200.0, gamma=1.0, a=0.0)
        with pytest.raises(DomainError, match="709"):
            cramer_rao_report(init, spectrum, bath, t=1.0, m_experiments=100, n_replicas=10)
        with pytest.raises(DomainError, match="709"):
            _mle_inverse(spectrum, 1.0, init, 1.0, (100.0, 710.0))

    @pytest.mark.parametrize("m", [100, 10000])
    def test_a_longer_run_extends_a_shorter_one(self, monkeypatch, m):
        # One stream from default_rng(seed): the first k counts of an
        # n-replica run are the k-replica run's counts, under both of numpy's
        # binomial algorithms (inversion for m p <= 30, BTPE above).
        init, spectrum, bath = reference_qubit()
        p2 = float(_qubit_model_of(spectrum, bath).p2(init.a, bath.gamma * 1.0))
        assert (m * p2 <= 30.0) == (m == 100)
        drawn = []
        real_counts = metrology._replica_counts

        def recording_counts(*args):
            drawn.append(real_counts(*args))
            return drawn[-1]

        monkeypatch.setattr(metrology, "_replica_counts", recording_counts)
        for n in (5000, 1234):
            cramer_rao_report(init, spectrum, bath, t=1.0, m_experiments=m, n_replicas=n, seed=11)
        long_run, short_run = drawn
        assert long_run[:1234].tolist() == short_run.tolist()

    @pytest.mark.parametrize("seed", [-1, -(2**64), 1.5, [1, 2]])
    def test_seed_must_be_a_nonnegative_integer(self, monkeypatch, seed):
        monkeypatch.setattr(metrology, "_replica_counts", _must_not_draw)
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            cramer_rao_report(*reference_qubit(), t=1.0, n_replicas=10, seed=seed)

    def test_replicas_past_one_entropy_word_reach_the_draw(self, monkeypatch):
        # n_replicas has no fixed cap: 2**32 + 1 passes the run checks and is
        # handed to the draw unchanged, which memory alone bounds.
        requested = []

        def refuse_to_draw(seed, n_replicas, m_experiments, p):
            requested.append(n_replicas)
            raise MemoryError

        monkeypatch.setattr(metrology, "_replica_counts", refuse_to_draw)
        with pytest.raises(MemoryError):
            cramer_rao_report(*reference_qubit(), t=1.0, n_replicas=2**32 + 1)
        assert requested == [2**32 + 1]


def _must_not_draw(*args, **kwargs):
    raise AssertionError("called after invalid input")


def _reference_counts(seed, n, m, p):
    return np.random.default_rng(seed).binomial(m, p, n).tolist()


# m p <= 30 and m q <= 30 use inversion, larger ones BTPE; p = 0 and 1 draw nothing.
_BINOMIAL_CASES = [
    (10, 0.5),  # m p <= 30: inversion
    (10**6, 1e-9),  # inversion at a tiny p
    (10**6, 0.5),  # BTPE
    (10**6, 0.97),  # BTPE on q = 1 - p
    (40, 0.9),  # inversion on q = 1 - p
    (1000, 0.0),
    (1000, 1.0),
]


class TestReplicaStreams:
    @pytest.mark.parametrize("m,p", _BINOMIAL_CASES)
    @pytest.mark.parametrize("seed", [0, 7, 2**128 + 5])
    def test_counts_equal_default_rng_draws(self, m, p, seed):
        n = 1000
        counts = _replica_counts(seed, n, m, p)
        assert counts.dtype == np.int64 and counts.shape == (n,)
        assert counts.tolist() == _reference_counts(seed, n, m, p)
        assert counts.min() >= 0 and counts.max() <= m

    @pytest.mark.parametrize("m,p", _BINOMIAL_CASES)
    def test_first_counts_do_not_depend_on_the_replica_count(self, m, p):
        # The draws come in order from one stream, so a run of k replicas is
        # the first k of a longer run at the same seed.
        seed = 2**64 + 3
        long_run = _replica_counts(seed, 3001, m, p)
        for k in (2, 1000, 3000):
            assert _replica_counts(seed, k, m, p).tolist() == long_run[:k].tolist()
