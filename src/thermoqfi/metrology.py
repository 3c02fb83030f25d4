"""Estimation-protocol layer: optimal probing times, state ranking, Cramer-Rao reports.

Everything here treats the evolved qubit as a thermometer for the inverse
bath temperature: the optimal measurement time as a root of dF/dt, ranking
of initial states, region classification of the initial excited-state
population, and the Cramer-Rao report of every initial state (for a diagonal
start, a binomial Monte-Carlo check that the maximum-likelihood estimator
saturates the bound, its replicas drawn from one seeded generator). One
bisection, _bisect, serves both the peak times and the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    QubitInit,
    _default_t_max,
    _qubit_model,
    _qubit_model_of,
)
from .errors import DomainError, EstimatorUndefinedError, _addressable
from .qfi import _qfi_kernel, _qfi_slope, _thermal_scale, qfi_values, thermal_qfi
from .spectrum import MAX_EXP_BETA_OMEGA, Bath, Spectrum

# Peaks closer to the tail value than this fraction of the asymptote are
# treated as asymptotic plateaus rather than interior maxima.
ASYMPTOTIC_MARGIN = 1e-6

# A region boundary holds a within this fraction of its own value (pi2 or
# 1/2), so the thermal boundary keeps its width at low temperature.
BOUNDARY_RTOL = 1e-12

# Points of the time grid that a peak-time scan evaluates before it refines
# an interior maximum by bisection.
_SCAN_POINTS = 2048

# States per block when a scan evaluates its time grid: the block's
# temporaries (about ten arrays of _SCAN_BLOCK x _SCAN_POINTS doubles) stay
# near the size of one trace, so peak memory does not grow with the number of
# states.
_SCAN_BLOCK = 8


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
    thermal = abs(a - pi2) <= BOUNDARY_RTOL * pi2
    inversion = abs(a - 0.5) <= BOUNDARY_RTOL * 0.5
    if thermal or inversion:
        region = "H"
    elif a < pi2:
        region = "C"
    elif a < 0.5:
        region = "H"
    else:
        region = "I"
    return RegionLabel(region=region, thermal_boundary=thermal, inversion_boundary=inversion)


def _bisect(above, lo, hi, tol: float = 0.0) -> np.ndarray:
    """Elementwise bisection of the brackets [lo, hi] for the points above marks.

    above maps an array of midpoints to booleans, True where the sought point
    lies above the midpoint. It is evaluated at midpoints only, so the ends
    of a bracket are never probed while it can still be split. Every element
    halves its own bracket, so it takes the steps a scalar bisection of that
    bracket takes, and stops once its width is at most tol or once its
    midpoint is no longer strictly inside (the bracket is then two adjacent
    floats). Returns the final midpoints, shaped like lo.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if not (np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)) and tol >= 0):
        raise DomainError("need finite brackets with hi > lo and tol >= 0")
    mid = (lo + hi) / 2.0
    active = (hi - lo > tol) & (lo < mid) & (mid < hi)
    while np.any(active):
        up = above(mid)
        lo = np.where(active & up, mid, lo)
        hi = np.where(active & ~up, mid, hi)
        mid = (lo + hi) / 2.0
        active = (hi - lo > tol) & (lo < mid) & (mid < hi)
    return mid


@dataclass(frozen=True)
class OptimalTime:
    """Location and value of the best measurement time on [0, t_max]."""

    t_star: float
    f_star: float
    asymptotic: bool


def _peak_times(
    inits: list[QubitInit], spectrum: Spectrum, bath: Bath, t_max: float | None = None
) -> list[OptimalTime]:
    """Optimal measurement time of every initial state in one batched scan.

    The states come first, then the spectrum and bath they share, in the
    (init, spectrum, bath) order of every qubit entry. The model, the window
    and the asymptote F_th are built once. The _SCAN_POINTS time grid is
    evaluated in blocks of _SCAN_BLOCK states through the shared QFI kernel,
    in units of F_th (f_star is F_th f), so the margin is ASYMPTOTIC_MARGIN.
    The closed-form df/ds changes sign between the grid neighbours of each
    interior grid maximum; all peaks are bisected together on that sign down
    to adjacent floats. Every element takes the same steps as a one-state scan,
    so its peak is bit-identical to maximize_qfi_over_time on that state.
    """
    default = _default_t_max(spectrum, bath)
    if t_max is None:
        t_max = default
    t_max = float(t_max)
    if not math.isfinite(t_max):
        raise DomainError("t_max must be finite")
    if t_max < default * (1.0 - 1e-12):
        raise DomainError(
            "t_max must cover at least the default window max(20, 14 + beta*omega)/|lambda|"
        )
    times = np.linspace(0.0, t_max, _SCAN_POINTS)
    model, gamma = _qubit_model_of(spectrum, bath), bath.gamma
    asymptote = thermal_qfi(spectrum, bath.beta)
    a = np.array([init.a for init in inits], dtype=float)
    r = np.array([init.r for init in inits], dtype=float)
    peak = np.empty(a.size, dtype=np.intp)
    f_peak = np.empty(a.size)
    tail = np.empty(a.size)
    for start in range(0, a.size, _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        values = _qfi_kernel(model, gamma, a[block, None], r[block, None], times).f
        i = np.argmax(values, axis=1)
        peak[block] = i
        f_peak[block] = values[np.arange(i.size), i]
        tail[block] = values[:, -1]
    tail_qfi = _thermal_scale(asymptote, tail).tolist()
    results = [OptimalTime(t_star=t_max, f_star=f, asymptotic=True) for f in tail_qfi]
    interior = np.flatnonzero(~(f_peak - tail <= ASYMPTOTIC_MARGIN))
    if interior.size:
        i = peak[interior]
        a_in, r_in = a[interior], r[interior]
        t_star = _bisect(
            lambda t: _qfi_slope(model, a_in, r_in, gamma * t) > 0, times[i - 1], times[i + 1]
        )
        f_star = _thermal_scale(asymptote, _qfi_kernel(model, gamma, a_in, r_in, t_star).f)
        for k, t, f in zip(interior, t_star.tolist(), f_star.tolist()):
            results[k] = OptimalTime(t_star=t, f_star=f, asymptotic=False)
    return results


def maximize_qfi_over_time(init: QubitInit, spectrum: Spectrum, bath: Bath) -> OptimalTime:
    """Grid scan of the QFI over time, an interior peak refined as a root of dF/dt.

    The window is the default max(20, 14 + beta omega)/|lambda|, long enough
    for the tail to stand in for the asymptote. When no interior
    point beats the tail by more than ASYMPTOTIC_MARGIN * asymptote, the
    supremum is reported at the window's end with the asymptotic flag
    (monotone hot-region traces; inverted traces whose local peak stays below
    the asymptote). Otherwise t_star is found to a few ulps, where a search on F
    itself could only resolve about sqrt(eps). This is the one-state call of
    the batched scan behind optimize_initial_state, so both agree bit for bit.
    """
    return _peak_times([init], spectrum, bath)[0]


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
    a_steps, r_steps = _addressable(a_steps, "a_steps"), _addressable(r_steps, "r_steps")
    a_grid = np.linspace(0.0, 1.0, a_steps).tolist()
    r_grid = np.linspace(0.0, 1.0, r_steps).tolist() if r_steps > 1 else [0.0]
    states = [(a, r) for r in r_grid for a in a_grid]
    peaks = _peak_times([QubitInit(a=a, r=r) for a, r in states], spectrum, bath, t_max)
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


def _replica_counts(seed: int, n_replicas: int, m_experiments: int, p: float) -> np.ndarray:
    """n_replicas iid Binomial(m_experiments, p) counts, drawn in order from default_rng(seed)."""
    n_replicas = _addressable(n_replicas, "n_replicas")  # the draw holds one int64 per replica
    return np.random.default_rng(seed).binomial(m_experiments, p, n_replicas)


def _mle_inverse(spectrum, gamma, init, t, bracket):
    """The inverse of p2(t; beta) on the bracket, for arrays of targets.

    The bracket must satisfy 0 < lo < hi, which cramer_rao_report's
    (beta/4, 4 beta) does once the model has accepted beta*omega >= 2e-15.
    p2 must be strictly monotone in beta on it; that is checked here (on 65
    samples), with the bracket's reach in beta*omega, before any target is
    drawn. The returned function bisects each target on its own
    copy of the bracket until it is no wider than 1e-10 in beta or is two
    adjacent floats (wider than 1e-10 above beta = 2**19); targets outside
    the attainable range clamp to the nearer bracket edge. It returns the
    estimates and the clamped flags.
    """
    omega, a, s, (lo, hi) = spectrum.gap(1, 2), init.a, gamma * t, map(float, bracket)
    if hi * omega > MAX_EXP_BETA_OMEGA:
        raise DomainError(
            f"the beta bracket reaches beta*omega = {hi * omega:g}; the MLE supports "
            f"beta*omega <= {MAX_EXP_BETA_OMEGA:g}"
        )
    ys = _qubit_model(omega, np.linspace(lo, hi, 65)).p2(a, s)
    diffs = np.diff(ys)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise EstimatorUndefinedError(
            f"p2 is not strictly monotone in beta on [{lo:g}, {hi:g}] at t={t!r}; "
            "the binomial MLE is not identifiable at this measurement time"
        )
    decreasing = bool(diffs[0] < 0)

    def invert(targets):
        targets = np.asarray(targets, dtype=float)
        estimates = _bisect(
            lambda beta: (_qubit_model(omega, beta).p2(a, s) > targets) == decreasing,
            np.full_like(targets, lo), np.full_like(targets, hi), 1e-10
        )
        below, above = targets <= ys.min(), targets >= ys.max()
        estimates[below] = hi if decreasing else lo
        estimates[above] = lo if decreasing else hi
        return estimates, below | above

    return invert


def _check_run(m_experiments: int, n_replicas: int, seed) -> None:
    """Reject replica-run settings before anything is searched or drawn."""
    if n_replicas < 2:
        raise DomainError("n_replicas must be at least 2")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    if m_experiments < 1:
        raise DomainError("m_experiments must be a positive integer")


@dataclass(frozen=True)
class CramerRaoReport:
    """The Cramer-Rao chain Var(beta_hat) >= 1/(M F_C) >= 1/(M F_Q) at one time.

    For a diagonal start the report carries the variance of the binomial MLE
    over iid Monte-Carlo replicas from one seeded stream, to be set against
    1/(M F_C). For a coherent start (bound_only) the population measurement
    no longer attains F_Q, so only the quantum bound 1/(M F_Q) is reported and
    variance, f_classical, ratio and clamped_count are None.
    """

    measurement_time: float
    variance: float | None
    f_classical: float | None
    f_quantum: float
    bound: float | None
    ratio: float | None
    clamped_count: int | None
    no_information: bool
    bound_only: bool


def cramer_rao_report(
    init: QubitInit,
    spectrum: Spectrum,
    bath: Bath,
    t: float | None = None,
    m_experiments: int = 10000,
    n_replicas: int = 1000,
    seed: int = 0,
) -> CramerRaoReport:
    """The Cramer-Rao report of any initial state; t defaults to the QFI peak.

    The run settings are checked first, for every state. For r = 0 the
    population measurement is the optimal one (classical Fisher information
    equals the QFI), so the variance of the binomial MLE over seeded replicas
    is compared with 1/(M F). For r != 0 the report is bound-only: the bound
    is 1/(M F_Q), or None where F_Q is not positive, and nothing is drawn.

    The replica counts are n_replicas iid binomial draws from one
    np.random.default_rng(seed) stream, so the report is deterministic for a
    fixed seed, which must be an integer >= 0. The MLE searches the bracket
    (beta/4, 4 beta). The estimate depends on the count alone, so the
    distinct counts (a few hundred cover tens of thousands of replicas) are
    bisected together, once each, and shared by every replica that drew them.
    """
    _check_run(m_experiments, n_replicas, seed)
    if t is None:
        t = maximize_qfi_over_time(init, spectrum, bath).t_star
    if t < 0:
        raise DomainError("t must be nonnegative")
    # At r = 0 the kernel's F is g^2/((1 - p2) p2), the Fisher information
    # of the two-outcome population measurement: F_C = F_Q by construction.
    f_quantum = float(qfi_values(init, spectrum, bath, t))
    informative, bound_only = f_quantum > 0.0, init.r != 0.0
    variance = ratio = None
    clamped = None if bound_only else 0
    if informative and not bound_only:
        beta = bath.beta
        invert = _mle_inverse(spectrum, bath.gamma, init, t, (beta / 4.0, beta * 4.0))
        s = bath.gamma * t
        p2_true = min(1.0, max(0.0, float(_qubit_model_of(spectrum, bath).p2(init.a, s))))
        counts = _replica_counts(int(seed), n_replicas, m_experiments, p2_true)
        distinct, replica_of = np.unique(counts, return_inverse=True)
        by_count, clamped_by_count = invert([k / m_experiments for k in distinct.tolist()])
        estimates = by_count[replica_of]
        clamped = int(np.count_nonzero(clamped_by_count[replica_of]))
        variance = float(np.var(estimates, ddof=1))
        ratio = variance * m_experiments * f_quantum
    return CramerRaoReport(
        measurement_time=float(t),
        variance=variance,
        f_classical=None if bound_only else f_quantum,
        f_quantum=f_quantum,
        bound=1.0 / (m_experiments * f_quantum) if informative else None,
        ratio=ratio,
        clamped_count=clamped,
        no_information=not informative,
        bound_only=bound_only,
    )
