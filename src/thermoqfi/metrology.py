"""Estimation-protocol layer: traces, optimal probing times, and saturation runs.

Everything here treats the evolved qubit as a thermometer for the inverse
bath temperature: QFI traces over time, golden-section refinement of the
optimal measurement time, ranking of initial states, region classification
of the initial excited-state population, and a binomial Monte-Carlo check
that the maximum-likelihood estimator saturates the Cramer-Rao bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    QubitInit,
    _qubit_model,
    _qubit_model_of,
    _QubitModel,
    qubit_relaxation_rate,
)
from .errors import DomainError, EstimatorUndefinedError
from .qfi import (
    _qfi_kernel,
    beta_derivative_qubit,
    diagonal_qfi,
    qfi_values,
    qubit_qfi,
    thermal_qfi,
)
from .spectrum import MAX_EXP_BETA_OMEGA, Bath, Spectrum, _readonly

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Peaks closer to the tail value than this fraction of the asymptote are
# treated as asymptotic plateaus rather than interior maxima.
ASYMPTOTIC_MARGIN = 1e-6

BOUNDARY_ATOL = 1e-12

# States per block when a scan evaluates its time grid: the block's
# temporaries (about ten arrays of _SCAN_BLOCK x n_grid doubles) stay near the
# size of one trace, so peak memory does not grow with the number of states.
_SCAN_BLOCK = 8


def _default_t_max(spectrum: Spectrum, bath: Bath) -> float:
    return 20.0 / abs(qubit_relaxation_rate(spectrum, bath))


@dataclass(frozen=True)
class Scenario:
    """A two-level thermometer: spectrum, bath parameters, initial state."""

    spectrum: Spectrum
    bath: Bath
    init: QubitInit

    def __post_init__(self) -> None:
        if self.spectrum.n_levels != 2:
            raise DomainError("scenario requires a two-level spectrum")

    @classmethod
    def qubit(
        cls,
        omega12: float,
        beta: float,
        gamma: float,
        a: float,
        r: float = 0.0,
        phi: float = 0.0,
    ) -> "Scenario":
        return cls(
            spectrum=Spectrum.qubit(omega12),
            bath=Bath(beta=beta, gamma=gamma),
            init=QubitInit(a=a, r=r, phi=phi),
        )

    @property
    def _model(self) -> _QubitModel:
        return _qubit_model_of(self.spectrum, self.bath)

    @property
    def pi2(self) -> float:
        return self._model.pi2

    @property
    def relaxation_rate(self) -> float:
        return qubit_relaxation_rate(self.spectrum, self.bath)

    @property
    def asymptote(self) -> float:
        return thermal_qfi(self.spectrum, self.bath.beta)

    @property
    def default_t_max(self) -> float:
        return _default_t_max(self.spectrum, self.bath)


@dataclass(frozen=True)
class QfiTrace:
    """QFI sampled on a strictly increasing time grid, with its asymptote."""

    times: np.ndarray
    values: np.ndarray
    asymptote: float
    normalized: np.ndarray = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise DomainError("trace needs matching 1-d time and value arrays")
        if t[0] < 0 or np.any(np.diff(t) <= 0):
            raise DomainError("times must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < -1e-12):
            raise DomainError("QFI values must be finite and nonnegative")
        if t[0] == 0.0 and abs(v[0]) > 1e-14:
            raise DomainError("QFI at t=0 must vanish")
        if not (self.asymptote > 0 and math.isfinite(self.asymptote)):
            raise DomainError("asymptote must be a positive finite number")
        object.__setattr__(self, "times", _readonly(t))
        object.__setattr__(self, "values", _readonly(v))
        if self.normalized is None:
            object.__setattr__(self, "normalized", _readonly(v / self.asymptote))
        else:
            object.__setattr__(
                self, "normalized", _readonly(np.asarray(self.normalized, dtype=float))
            )


def qfi_trace(scenario: Scenario, t_max: float | None = None, n_points: int = 2048) -> QfiTrace:
    if t_max is None:
        t_max = scenario.default_t_max
    if not (t_max > 0 and math.isfinite(t_max)):
        raise DomainError("t_max must be positive and finite")
    if n_points < 2:
        raise DomainError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    values = qfi_values(scenario.init, scenario.spectrum, scenario.bath, times)
    return QfiTrace(times=times, values=values, asymptote=scenario.asymptote)


@dataclass(frozen=True)
class RegionLabel:
    """Initial-population region relative to (pi2, 1/2], with boundary flags."""

    region: str
    thermal_boundary: bool = False
    inversion_boundary: bool = False


def classify_region(a: float, pi2: float) -> RegionLabel:
    """Classify a against C = [0, pi2), H = (pi2, 1/2], I = (1/2, 1].

    Boundary values are binned into H and flagged: a = pi2 starts the probe in
    the thermal population (no population signal develops), a = 1/2 sits on
    the inversion point where the relaxation eigenvalue diverges.
    """
    if not (0.0 <= a <= 1.0):
        raise DomainError("a must lie in [0, 1]")
    if not (0.0 < pi2 <= 0.5):
        raise DomainError("pi2 must lie in (0, 1/2]")
    thermal = abs(a - pi2) <= BOUNDARY_ATOL
    inversion = abs(a - 0.5) <= BOUNDARY_ATOL
    if thermal or inversion:
        region = "H"
    elif a < pi2:
        region = "C"
    elif a < 0.5:
        region = "H"
    else:
        region = "I"
    return RegionLabel(region=region, thermal_boundary=thermal, inversion_boundary=inversion)


def golden_section_maximize(f, lo, hi, tol: float):
    """Golden-section search for a maximum of a unimodal f on [lo, hi].

    With scalar lo and hi, f takes and returns floats and (x, f(x)) are
    returned as floats. With arrays, every element is its own search: f maps
    an array of points to an array of values, element for element, and each
    element makes the same comparisons and updates as the scalar search, so
    it ends on the same bits. An element stops moving once its bracket is
    within tol; f is still evaluated there until every element has stopped.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if not (np.all(hi > lo) and tol > 0):
        raise DomainError("need hi > lo and tol > 0")
    fv = (lambda x: np.array([f(float(x[0]))])) if scalar else f
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fv(x1), fv(x2)
    active = hi - lo > tol
    while np.any(active):
        rise = f1 < f2
        up, down = active & rise, active & ~rise
        lo = np.where(up, x1, lo)
        hi = np.where(down, x2, hi)
        x1, x2 = np.where(up, x2, x1), np.where(down, x1, x2)
        f1, f2 = np.where(up, f2, f1), np.where(down, f1, f2)
        probe = np.where(up, lo + _INV_PHI * (hi - lo), hi - _INV_PHI * (hi - lo))
        f_probe = fv(probe)
        x2, f2 = np.where(up, probe, x2), np.where(up, f_probe, f2)
        x1, f1 = np.where(down, probe, x1), np.where(down, f_probe, f1)
        active = hi - lo > tol
    x = (lo + hi) / 2.0
    if scalar:
        x = float(x[0])
    return x, f(x)


def golden_section_minimize(f, lo: float, hi: float, tol: float):
    x, fneg = golden_section_maximize(lambda t: -f(t), lo, hi, tol)
    return x, -fneg


@dataclass(frozen=True)
class OptimalTime:
    """Location and value of the best measurement time on [0, t_max]."""

    t_star: float
    f_star: float
    asymptotic: bool


def _peak_times(
    spectrum: Spectrum,
    bath: Bath,
    inits: list[QubitInit],
    t_max: float | None = None,
    n_grid: int = 2048,
) -> list[OptimalTime]:
    """Optimal measurement time of every initial state in one batched scan.

    The model, the window and the asymptote are built once. The time grid is
    evaluated in blocks of _SCAN_BLOCK states through the shared QFI kernel,
    and all interior peaks are then refined together by one elementwise
    golden section. Every element takes the same steps as a one-state scan.
    """
    default = _default_t_max(spectrum, bath)
    if t_max is None:
        t_max = default
    t_max = float(t_max)
    if not math.isfinite(t_max):
        raise DomainError("t_max must be finite")
    if t_max < default * (1.0 - 1e-12):
        raise DomainError("t_max must cover at least twenty relaxation times")
    n_grid = max(512, int(n_grid))
    times = np.linspace(0.0, t_max, n_grid)
    model = _qubit_model_of(spectrum, bath)
    margin = ASYMPTOTIC_MARGIN * thermal_qfi(spectrum, bath.beta)
    a = np.array([init.a for init in inits], dtype=float)
    mod2_0 = np.array([abs(init.rho12_0) ** 2 for init in inits], dtype=float)
    peak = np.empty(a.size, dtype=np.intp)
    f_peak = np.empty(a.size)
    tail = np.empty(a.size)
    for start in range(0, a.size, _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        values = _qfi_kernel(model, a[block, None], mod2_0[block, None], times).total
        i = np.argmax(values, axis=1)
        peak[block] = i
        f_peak[block] = values[np.arange(i.size), i]
        tail[block] = values[:, -1]
    results = [OptimalTime(t_star=t_max, f_star=float(f), asymptotic=True) for f in tail]
    interior = np.flatnonzero(~(f_peak - tail <= margin))
    if interior.size:
        i = peak[interior]
        a_in, mod2_in = a[interior], mod2_0[interior]
        t_star, f_star = golden_section_maximize(
            lambda t: _qfi_kernel(model, a_in, mod2_in, t).total,
            times[i - 1],
            times[i + 1],
            1e-8 * t_max,
        )
        for k, t, f in zip(interior, t_star.tolist(), f_star.tolist()):
            results[k] = OptimalTime(t_star=t, f_star=f, asymptotic=False)
    return results


def maximize_qfi_over_time(
    scenario: Scenario, t_max: float | None = None, n_grid: int = 2048
) -> OptimalTime:
    """Grid scan plus golden-section refinement of the QFI over time.

    The window must cover at least 20/|lambda| so the tail is a faithful
    stand-in for the asymptote. When no interior point beats the tail by more
    than ASYMPTOTIC_MARGIN * asymptote, the supremum is reported at t_max with
    the asymptotic flag (monotone hot-region traces; inverted traces whose
    local peak stays below the asymptote). This is the one-state call of the
    batched scan behind optimize_initial_state, so both agree bit for bit.
    """
    return _peak_times(scenario.spectrum, scenario.bath, [scenario.init], t_max, n_grid)[0]


@dataclass(frozen=True)
class StateRanking:
    """One row of the initial-state scan, ranked by peak QFI."""

    a: float
    r: float
    t_star: float
    f_star: float
    asymptotic: bool
    region: RegionLabel


def optimize_initial_state(
    spectrum: Spectrum,
    bath: Bath,
    t_max: float | None = None,
    a_steps: int = 21,
    r_steps: int = 2,
) -> list[StateRanking]:
    """Scan (a, r) on a uniform grid and rank by peak QFI.

    All states go through one batched scan: the time grid is evaluated a
    fixed block of states at a time, so peak memory does not grow with the
    number of states, and the interior peaks are refined together. Each row
    equals maximize_qfi_over_time on that state. Sorted by f_star descending;
    ties break toward smaller a, then smaller r, so the ranking is
    deterministic.
    """
    if a_steps < 2 or r_steps < 1:
        raise DomainError("need a_steps >= 2 and r_steps >= 1")
    pi2 = _qubit_model_of(spectrum, bath).pi2
    a_grid = np.linspace(0.0, 1.0, a_steps).tolist()
    r_grid = np.linspace(0.0, 1.0, r_steps).tolist() if r_steps > 1 else [0.0]
    states = [(a, r) for r in r_grid for a in a_grid]
    peaks = _peak_times(spectrum, bath, [QubitInit(a=a, r=r) for a, r in states], t_max)
    rows = [
        StateRanking(
            a=a,
            r=r,
            t_star=best.t_star,
            f_star=best.f_star,
            asymptotic=best.asymptotic,
            region=classify_region(a, pi2),
        )
        for (a, r), best in zip(states, peaks)
    ]
    rows.sort(key=lambda row: (-row.f_star, row.a, row.r))
    return rows


def classical_fisher_information(scenario: Scenario, t: float) -> float:
    """Fisher information of the two-outcome population measurement at time t."""
    bundle = beta_derivative_qubit(scenario.init, scenario.spectrum, scenario.bath, t)
    model_p2 = float(scenario._model.p2(scenario.init.a, t))
    return diagonal_qfi([1.0 - model_p2, model_p2], bundle.d_populations)


def simulate_measurements(scenario: Scenario, t: float, m_experiments: int, seed) -> int:
    """Draw the excited-outcome count of m population measurements at time t."""
    if m_experiments < 1:
        raise DomainError("m_experiments must be a positive integer")
    if t < 0:
        raise DomainError("t must be nonnegative")
    p2 = min(1.0, max(0.0, float(scenario._model.p2(scenario.init.a, t))))
    rng = np.random.default_rng(seed)
    return int(rng.binomial(m_experiments, p2))


@dataclass(frozen=True)
class MleResult:
    beta_hat: float
    clamped: bool


def _check_monotone(omega, gamma, a, t, lo, hi, n_samples=65):
    if hi * omega > MAX_EXP_BETA_OMEGA:
        raise DomainError(
            f"the beta bracket reaches beta*omega = {hi * omega:g}; the MLE supports "
            f"beta*omega <= {MAX_EXP_BETA_OMEGA:g}"
        )
    betas = np.linspace(lo, hi, n_samples)
    ys = [float(_qubit_model(omega, b, gamma).p2(a, t)) for b in betas.tolist()]
    diffs = np.diff(ys)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise EstimatorUndefinedError(
            f"p2 is not strictly monotone in beta on [{lo:g}, {hi:g}] at t={t!r}; "
            "the binomial MLE is not identifiable at this measurement time"
        )
    return ys[0], ys[-1]


def _bisect_beta(target, omega, gamma, a, t, lo, hi, y_lo, y_hi) -> MleResult:
    decreasing = y_lo > y_hi
    y_min, y_max = (y_hi, y_lo) if decreasing else (y_lo, y_hi)
    if target <= y_min:
        return MleResult(beta_hat=hi if decreasing else lo, clamped=True)
    if target >= y_max:
        return MleResult(beta_hat=lo if decreasing else hi, clamped=True)
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        y = _qubit_model(omega, mid, gamma).p2(a, t)
        if (y > target) == decreasing:
            lo = mid
        else:
            hi = mid
    return MleResult(beta_hat=(lo + hi) / 2.0, clamped=False)


def mle_beta(
    counts: int,
    m_experiments: int,
    spectrum: Spectrum,
    gamma: float,
    init: QubitInit,
    t: float,
    bracket: tuple[float, float],
) -> MleResult:
    """Binomial maximum-likelihood estimate of beta from an excited-state count.

    Inverts p2(t; beta) = counts/m by bisection to within 1e-10 in beta. The
    map must be strictly monotone on the bracket (checked on a 65-point
    sample); a target outside the attainable range clamps to the nearer
    bracket edge and sets the clamped flag.
    """
    if not (0 <= counts <= m_experiments):
        raise DomainError("counts must lie in [0, m_experiments]")
    if m_experiments < 1:
        raise DomainError("m_experiments must be a positive integer")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise DomainError("bracket must satisfy 0 < lo < hi")
    if t <= 0:
        raise EstimatorUndefinedError(
            f"p2 carries no beta dependence at t={t!r}; the MLE is undefined"
        )
    omega = spectrum.gap(1, 2)
    y_lo, y_hi = _check_monotone(omega, gamma, init.a, t, lo, hi)
    return _bisect_beta(
        counts / m_experiments, omega, gamma, init.a, t, lo, hi, y_lo, y_hi
    )


@dataclass(frozen=True)
class EstimationRun:
    """Replicated Monte-Carlo estimation at one measurement time."""

    m_experiments: int
    measurement_time: float
    seed: int
    beta_hats: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.beta_hats, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise DomainError("need at least two replicas")
        if not np.all(np.isfinite(samples)):
            raise DomainError("estimates must be finite")
        if not (self.variance >= 0):
            raise DomainError("variance must be nonnegative")
        object.__setattr__(self, "beta_hats", _readonly(samples))


@dataclass(frozen=True)
class CramerRaoReport:
    """Monte-Carlo saturation check of the classical Cramer-Rao bound."""

    run: EstimationRun | None
    f_classical: float
    f_quantum: float
    bound: float | None
    ratio: float | None
    clamped_count: int
    no_information: bool


def cramer_rao_report(
    scenario: Scenario,
    t: float | None = None,
    m_experiments: int = 10000,
    n_replicas: int = 1000,
    seed: int = 0,
    bracket: tuple[float, float] | None = None,
) -> CramerRaoReport:
    """Variance of the binomial MLE against 1/(M F) over seeded replicas.

    Only diagonal initial states qualify: for r = 0 the population measurement
    is the optimal one (classical Fisher information equals the QFI), so the
    saturation claim is meaningful. Replica i draws its count from an
    independent generator seeded with [seed, i]; the report is deterministic
    for a fixed seed. The estimate depends on the count alone, so each
    distinct count is bisected once and shared by every replica that drew
    it (a few hundred counts cover tens of thousands of replicas).
    """
    if scenario.init.r != 0.0:
        raise DomainError(
            "saturation analysis requires r = 0; for coherent states report "
            "the bound only"
        )
    if n_replicas < 2:
        raise DomainError("n_replicas must be at least 2")
    if m_experiments < 1:
        raise DomainError("m_experiments must be a positive integer")
    if t is None:
        best = maximize_qfi_over_time(scenario)
        t = best.t_star
    f_classical = classical_fisher_information(scenario, t)
    f_quantum = qubit_qfi(scenario.init, scenario.spectrum, scenario.bath, t).total
    if not (f_classical > 0.0) or not math.isfinite(f_classical):
        return CramerRaoReport(
            run=None,
            f_classical=f_classical,
            f_quantum=f_quantum,
            bound=None,
            ratio=None,
            clamped_count=0,
            no_information=True,
        )
    beta_true = scenario.bath.beta
    if bracket is None:
        bracket = (beta_true / 4.0, beta_true * 4.0)
    lo, hi = float(bracket[0]), float(bracket[1])
    omega = scenario.spectrum.gap(1, 2)
    gamma = scenario.bath.gamma
    a = scenario.init.a
    y_lo, y_hi = _check_monotone(omega, gamma, a, t, lo, hi)
    p2_true = min(1.0, max(0.0, float(scenario._model.p2(a, t))))
    estimates = np.empty(n_replicas)
    clamped = 0
    by_count: dict[int, MleResult] = {}
    for i in range(n_replicas):
        rng = np.random.default_rng([seed, i])
        k = int(rng.binomial(m_experiments, p2_true))
        result = by_count.get(k)
        if result is None:
            result = by_count[k] = _bisect_beta(
                k / m_experiments, omega, gamma, a, t, lo, hi, y_lo, y_hi
            )
        estimates[i] = result.beta_hat
        clamped += int(result.clamped)
    variance = float(np.var(estimates, ddof=1))
    run = EstimationRun(
        m_experiments=m_experiments,
        measurement_time=float(t),
        seed=seed,
        beta_hats=estimates,
        variance=variance,
    )
    bound = 1.0 / (m_experiments * f_classical)
    return CramerRaoReport(
        run=run,
        f_classical=f_classical,
        f_quantum=f_quantum,
        bound=bound,
        ratio=variance * m_experiments * f_classical,
        clamped_count=clamped,
        no_information=False,
    )
