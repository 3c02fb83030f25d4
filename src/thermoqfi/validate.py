"""Named self-checks over the model invariants, with fault injection.

Each check exercises one structural property of the generator, the thermal
state, the derivatives, or the QFI machinery on seeded random instances and
reports a named pass/fail row. Fault injection corrupts the inputs of a
single check to demonstrate that the table actually detects violations.
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
    evolve_state_derivative,
    gad_apply,
    gad_fixed_point,
    gad_master_comparison,
    gad_params,
    qubit_relaxation_rate,
)
from .errors import DomainError, ModelIntegrityError
from .metrology import _bisect, maximize_qfi_over_time
from .qfi import (
    _qfi_slope,
    beta_derivative_qubit,
    qfi_decomposition,
    qfi_values,
    thermal_population_derivative,
    thermal_qfi,
)
from .spectrum import (
    Bath,
    Spectrum,
    spectral_report,
    stationary_distribution,
    thermal_distribution,
    transition_matrix,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_spectrum(rng, n_levels: int) -> Spectrum:
    gaps = rng.uniform(0.3, 2.0, size=n_levels - 1)
    return Spectrum(energies=tuple(np.concatenate([[0.0], np.cumsum(gaps)])))


def _random_model(rng, n_max: int = 8):
    n = int(rng.integers(2, n_max + 1))
    spectrum = _random_spectrum(rng, n)
    bath = Bath(beta=float(rng.uniform(0.2, 1.5)), gamma=float(rng.uniform(0.2, 3.0)))
    return spectrum, bath


def _random_qubit(rng) -> tuple[QubitInit, Spectrum, Bath]:
    """A random qubit thermometer (init, spectrum, bath) with beta*omega in [0.2, 3].

    The draws keep the order omega, beta, gamma, a, r, phi, which the seeded rows depend on.
    """
    omega = float(rng.uniform(0.3, 3.0))
    beta = float(rng.uniform(0.2, 3.0)) / omega
    bath = Bath(beta=beta, gamma=float(rng.uniform(0.2, 3.0)))
    init = QubitInit(
        a=float(rng.uniform(0.0, 1.0)),
        r=float(rng.uniform(0.0, 1.0)),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    return init, Spectrum.qubit(omega), bath


def _check_column_sums(rng, inject: bool):
    worst = 0.0
    for _ in range(30):
        spectrum, bath = _random_model(rng)
        a = transition_matrix(spectrum, bath)
        if inject:
            a = a.copy()
            a[0, 0] += 1e-6
            inject = False
        scale = 1.0 + float(np.max(np.abs(a)))
        for j in range(a.shape[1]):
            worst = max(worst, abs(math.fsum(a[:, j])) / scale)
    passed = worst <= 1e-12
    return passed, f"worst column-sum residual {worst:.3e} of scale (tol 1e-12)"


def _check_detailed_balance(rng, inject: bool):
    worst = 0.0
    for _ in range(30):
        spectrum, bath = _random_model(rng)
        a = transition_matrix(spectrum, bath)
        pi = thermal_distribution(spectrum, bath.beta)
        if inject:
            a = a.copy()
            a[0, 1] *= 1.0 + 1e-6
            inject = False
        n = a.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                flow = a[i, j] * pi[j]
                back = a[j, i] * pi[i]
                worst = max(worst, abs(flow - back) / max(flow, back))
    passed = worst <= 1e-12
    return passed, f"worst detailed-balance violation {worst:.3e} relative (tol 1e-12)"


def _check_null_eigenvector(rng, inject: bool):
    worst = 0.0
    for _ in range(30):
        spectrum, bath = _random_model(rng)
        a = transition_matrix(spectrum, bath)
        pi = thermal_distribution(spectrum, bath.beta)
        scale = max(1.0, float(np.linalg.norm(a, np.inf)))
        worst = max(worst, float(np.max(np.abs(a @ pi))) / scale)
    passed = worst <= 1e-12
    return passed, f"worst ||A pi||_inf / ||A|| = {worst:.3e} (tol 1e-12)"


def _check_null_eigenvalue_count(rng, inject: bool):
    null_counts = []
    negative_ok = True
    for _ in range(30):
        spectrum, bath = _random_model(rng)
        a = transition_matrix(spectrum, bath)
        if inject:
            a = a.copy()
            a[0, 0] += 0.1
            inject = False
        report = spectral_report(a)
        null_counts.append(report.null_count)
        negative_ok = negative_ok and report.negative_count == a.shape[0] - 1
    passed = all(c == 1 for c in null_counts) and negative_ok
    return passed, (
        f"{len(null_counts)} spectra: one null eigenvalue each, "
        "all remaining eigenvalues negative"
    )


def _check_gershgorin(rng, inject: bool):
    worst = -math.inf
    for _ in range(30):
        spectrum, bath = _random_model(rng)
        a = transition_matrix(spectrum, bath)
        report = spectral_report(a)
        centers, radii = report.gershgorin_centers, report.gershgorin_radii
        slack = 1e-9 * (1.0 + float(np.linalg.norm(a, np.inf)))
        for lam in report.eigenvalues:
            excess = float(np.min(np.abs(lam - centers) - radii))
            worst = max(worst, excess - slack)
    passed = worst <= 0.0
    return passed, f"worst disc excess {worst:.3e} (<= 0 means contained)"


def _check_stationary_gibbs(rng, inject: bool):
    worst = 0.0
    for _ in range(20):
        spectrum, bath = _random_model(rng)
        a = transition_matrix(spectrum, bath)
        pi_num = stationary_distribution(a)
        pi_ref = thermal_distribution(spectrum, bath.beta)
        worst = max(worst, float(np.max(np.abs(pi_num - pi_ref))))
    passed = worst <= 1e-10
    return passed, f"worst |stationary - Gibbs| = {worst:.3e} (tol 1e-10)"


def _check_derivative_oracle(rng, inject: bool):
    worst = 0.0
    for _ in range(25):
        init, spectrum, bath = _random_qubit(rng)
        t = float(rng.uniform(0.0, 10.0 / abs(qubit_relaxation_rate(spectrum, bath))))
        _, closed = beta_derivative_qubit(init, spectrum, bath, t)
        _, drho = evolve_state_derivative(init.rho0, spectrum, bath, t)
        gap = float(np.max(np.abs(closed - drho)))
        worst = max(worst, gap / (1.0 + float(np.max(np.abs(closed)))))
    passed = worst <= 1e-12
    return passed, f"worst |closed-form - general-N| = {worst:.3e} of scale (tol 1e-12)"


def _mixed_state(rng, n: int) -> np.ndarray:
    p = rng.uniform(0.2, 1.0, size=n)
    p /= p.sum()
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    mat = 0.7 * np.diag(p).astype(complex) + 0.3 * np.outer(psi, psi.conj())
    return (mat + mat.conj().T) / 2.0


def _check_decomposition(rng, inject: bool):
    if inject:  # raises: the derivative lives off the support
        qfi_decomposition(np.diag([1.0, 0.0]), np.diag([0.5, -0.5]))
        return False, "injected off-support derivative was not detected"
    worst_gain = math.inf
    worst_mismatch = worst_pop = 0.0
    for _ in range(20):
        init, spectrum, bath = _random_qubit(rng)
        t = float(rng.uniform(0.05, 10.0 / abs(qubit_relaxation_rate(spectrum, bath))))
        result = qfi_decomposition(*evolve_state_derivative(init.rho0, spectrum, bath, t))
        closed = float(qfi_values(init, spectrum, bath, t))
        # the populations do not depend on r, so F_d is the closed form of the start at r = 0
        pop = float(qfi_values(QubitInit(a=init.a), spectrum, bath, t))
        worst_gain = min(worst_gain, result.coherence_gain)
        worst_mismatch = max(worst_mismatch, abs(result.total - closed) / max(abs(closed), 1e-12))
        worst_pop = max(worst_pop, abs(result.diagonal_part - pop) / max(abs(pop), 1e-12))
    for n in range(3, 9):  # the N-level claim: coherence never lowers the QFI
        spectrum = _random_spectrum(rng, n)
        bath = Bath(beta=float(rng.uniform(0.3, 1.2)), gamma=float(rng.uniform(0.3, 2.0)))
        rho0 = _mixed_state(rng, n)
        t = float(rng.uniform(0.1, 3.0))
        result = qfi_decomposition(*evolve_state_derivative(rho0, spectrum, bath, t))
        worst_gain = min(worst_gain, result.coherence_gain)
    passed = worst_gain >= -1e-12 and worst_mismatch <= 1e-9 and worst_pop <= 1e-9
    detail = (
        f"min gain {worst_gain:.3e} (>= -1e-12), "
        f"worst closed-form mismatch {worst_mismatch:.3e} rel (tol 1e-9)"
    )
    if worst_pop > 1e-9:  # the F_d gap is named only where it fails the row
        detail += f", worst F_d mismatch {worst_pop:.3e} rel (tol 1e-9)"
    return passed, detail


def _check_zero_time_qfi(rng, inject: bool):
    worst = 0.0
    for _ in range(50):
        worst = max(worst, abs(float(qfi_values(*_random_qubit(rng), 0.0))))
    passed = worst <= 1e-14
    return passed, f"worst |F(0)| = {worst:.3e} (tol 1e-14)"


def _check_phase_invariance(rng, inject: bool):
    worst = 0.0
    for _ in range(10):
        omega = float(rng.uniform(0.3, 3.0))
        beta = float(rng.uniform(0.2, 3.0)) / omega
        gamma = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.2, 1.0))
        t = float(rng.uniform(0.1, 5.0))
        spectrum, bath = Spectrum.qubit(omega), Bath(beta=beta, gamma=gamma)
        totals = []
        for phi in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi):
            totals.append(float(qfi_values(QubitInit(a=a, r=r, phi=phi), spectrum, bath, t)))
        spread = max(totals) - min(totals)
        worst = max(worst, spread / max(abs(max(totals)), 1e-12))
    passed = worst <= 1e-12
    return passed, f"worst relative spread over phases {worst:.3e} (tol 1e-12)"


def _region_model() -> tuple[Spectrum, Bath]:
    """The region rows' spectrum and bath: omega12 = 1, pi2 = 1/4 (beta = ln 3), gamma = 1."""
    return Spectrum.qubit(1.0), Bath(beta=math.log(3.0), gamma=1.0)


def _check_region_phenotypes(rng, inject: bool):
    notes = []
    ok = True
    spectrum, bath = _region_model()
    asymptote = thermal_qfi(spectrum, bath.beta)
    # 2048 points of the default window, which the three starts share
    times = np.linspace(0.0, _default_t_max(spectrum, bath), 2048)

    best = maximize_qfi_over_time(QubitInit(a=0.1), spectrum, bath)
    cold_ok = (not best.asymptotic) and best.f_star > asymptote
    ok = ok and cold_ok
    notes.append(f"C: peak/asymptote {best.f_star / asymptote:.4f} at t={best.t_star:.3f}")

    v = qfi_values(QubitInit(a=0.35), spectrum, bath, times)
    diffs = np.diff(v)
    sup = float(np.max(v / asymptote))
    hot_ok = bool(np.all(diffs >= -1e-10 * asymptote) and sup <= 1.0 + 1e-10)
    ok = ok and hot_ok
    notes.append(f"H: min step {float(np.min(diffs)):.2e}, sup {sup:.6f}")

    inv = QubitInit(a=0.8)
    v = qfi_values(inv, spectrum, bath, times)
    local_max = None
    for i in range(1, v.size - 1):
        if v[i] >= v[i - 1] and v[i] >= v[i + 1]:
            local_max = i
            break
    inv_ok = local_max is not None and v[local_max] < asymptote
    if inv_ok:
        j = local_max + int(np.argmin(v[local_max:]))
        model, a, r = _qubit_model_of(spectrum, bath), inv.a, inv.r
        gamma, bracket = bath.gamma, (times[j - 1], times[j + 1])
        t_dip = float(_bisect(lambda t: _qfi_slope(model, a, r, gamma * t) < 0, *bracket))
        f_dip = float(qfi_values(inv, spectrum, bath, np.array([t_dip]))[0])
        inv_ok = f_dip <= 1e-8 * asymptote and abs(v[-1] - asymptote) <= 1e-6 * asymptote
        notes.append(
            f"I: local peak {v[local_max] / asymptote:.4f}, "
            f"dip {f_dip / asymptote:.2e} at t={t_dip:.4f}, tail {v[-1] / asymptote:.6f}"
        )
    else:
        notes.append("I: no interior local maximum found")
    ok = ok and inv_ok
    return ok, "; ".join(notes)


def _check_thermal_asymptote(rng, inject: bool):
    # beta*omega = ln 3 and three cold models, where the window outgrows 20/|lambda|
    worst = 0.0
    spectrum = Spectrum.qubit(1.0)
    for beta in (math.log(3.0), 15.0, 30.0, 400.0):
        bath = Bath(beta=beta, gamma=1.0)
        t_end = np.array([_default_t_max(spectrum, bath)])
        asymptote = thermal_qfi(spectrum, beta)
        for r in (0.0, 1.0):
            for a in (0.0, 0.1, 0.35, 0.8, 1.0):
                f_end = float(qfi_values(QubitInit(a=a, r=r), spectrum, bath, t_end)[0])
                worst = max(worst, abs(f_end - asymptote) / asymptote)
    passed = worst <= 1e-6
    return passed, f"worst |F(t_max) - F_inf| / F_inf = {worst:.3e} (tol 1e-6)"


def _check_partial_thermal_init(rng, inject: bool):
    worst = 0.0
    for _ in range(20):
        omega = float(rng.uniform(0.3, 3.0))
        beta = float(rng.uniform(0.2, 3.0)) / omega
        gamma = float(rng.uniform(0.2, 3.0))
        spectrum = Spectrum.qubit(omega)
        bath = Bath(beta=beta, gamma=gamma)
        model = _qubit_model(omega, beta)
        init = QubitInit(a=model.pi2)
        t = float(rng.uniform(0.0, 10.0 / abs(gamma * model.lam_hat)))
        _, drho = beta_derivative_qubit(init, spectrum, bath, t)
        dpi = thermal_population_derivative(spectrum, beta)
        expected = -np.expm1(model.lam_hat * (gamma * t)) * dpi
        worst = max(worst, float(np.max(np.abs(np.diag(drho).real - expected))))
    passed = worst <= 1e-10
    return passed, f"worst |partial - (1-e^(lam t)) d(pi)| = {worst:.3e} (tol 1e-10)"


def _check_gad_fixed_point(rng, inject: bool):
    worst = 0.0
    for n12 in (5.5, 9.5):
        for tau in (0.01, 0.05):
            channel = gad_params(n12, tau)
            fixed = gad_fixed_point(channel)
            mapped = gad_apply(channel, fixed)
            worst = max(worst, float(np.max(np.abs(mapped - fixed))))
    passed = worst <= 1e-12
    return passed, f"worst |E(rho*) - rho*| = {worst:.3e} (tol 1e-12)"


def _check_gad_master(rng, inject: bool):
    worst = 0.0
    rows = 0
    for n12 in (5.5, 9.5):
        for tau in (0.01, 0.02, 0.05):
            row = gad_master_comparison(n12, tau, omega12=5.0)
            worst = max(worst, row["rel_diff"])
            rows += 1
    passed = worst <= 0.05
    return passed, f"{rows} rows, worst excited-population gap {worst:.3e} rel (tol 5e-2)"


def _check_coherence_advantage(rng, inject: bool):
    spectrum, bath = _region_model()
    times = np.linspace(0.0, _default_t_max(spectrum, bath), 2048)
    ok = True
    notes = []
    for a in (0.0, 0.1, 0.35, 0.8):
        coherent = qfi_values(QubitInit(a=a, r=1.0), spectrum, bath, times)
        diff = coherent - qfi_values(QubitInit(a=a), spectrum, bath, times)
        if a == 0.0:
            ok = ok and float(np.max(np.abs(diff))) <= 1e-12
        else:
            ok = ok and float(np.min(diff)) >= -1e-12 and float(np.max(diff)) > 0.0
        notes.append(f"a={a:g}: max gain {float(np.max(diff)):.3e}")
    return ok, "; ".join(notes)


_CHECKS = (
    ("column-sums", _check_column_sums),
    ("detailed-balance", _check_detailed_balance),
    ("null-eigenvector", _check_null_eigenvector),
    ("null-eigenvalue-count", _check_null_eigenvalue_count),
    ("gershgorin-containment", _check_gershgorin),
    ("stationary-matches-gibbs", _check_stationary_gibbs),
    ("derivative-oracle", _check_derivative_oracle),
    ("decomposition-identity", _check_decomposition),
    ("zero-time-qfi", _check_zero_time_qfi),
    ("phase-invariance", _check_phase_invariance),
    ("region-phenotypes", _check_region_phenotypes),
    ("thermal-asymptote", _check_thermal_asymptote),
    ("partial-derivative-thermal-init", _check_partial_thermal_init),
    ("gad-fixed-point", _check_gad_fixed_point),
    ("gad-master-agreement", _check_gad_master),
    ("coherence-advantage", _check_coherence_advantage),
)

INJECTABLE_CHECKS = frozenset(
    {"column-sums", "detailed-balance", "null-eigenvalue-count", "decomposition-identity"}
)


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _CHECKS)


def run_checks(
    names=None, inject_fault: str | None = None, seed: int = 2026
) -> list[CheckResult]:
    """Run the named checks (all by default) and return one result per name.

    inject_fault corrupts the inputs of that single check so its row fails;
    it must name a selected check in INJECTABLE_CHECKS.
    """
    selected = check_names() if names is None else tuple(names)
    if not selected:
        raise DomainError("no checks selected")
    unknown = [n for n in selected if n not in check_names()]
    if unknown:
        raise DomainError(f"unknown checks: {', '.join(unknown)}")
    injectable = sorted(INJECTABLE_CHECKS.intersection(selected))
    if inject_fault is not None and inject_fault not in injectable:
        raise DomainError(
            f"cannot inject into {inject_fault!r}; injectable selected checks: "
            + (", ".join(injectable) or "none")
        )
    results = []
    for idx, (name, fn) in enumerate(_CHECKS):
        if name not in selected:
            continue
        rng = np.random.default_rng([seed, idx])
        try:
            passed, detail = fn(rng, inject=(name == inject_fault))
        except ModelIntegrityError as exc:
            passed, detail = False, str(exc)
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
