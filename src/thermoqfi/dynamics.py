"""Time evolution of the probe state.

Populations relax under the classical generator A_beta (decoupled from the
coherences), each coherence decays exponentially at its own rate while
rotating at the transition frequency, and the qubit case has a closed form.
Includes the generalized-amplitude-damping (GAD) channel used as the
finite-temperature comparison model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .spectrum import (
    MAX_GIBBS_BETA_OMEGA,
    MIN_BETA_OMEGA,
    Bath,
    Spectrum,
    _gibbs_underflow,
    _readonly,
    transition_matrix,
)

# Below this beta*omega the relaxation rate is formed as -gamma/tanh(beta*omega/2)
# rather than gamma/(2 pi2 - 1): the difference loses about log2(1/(beta*omega))
# bits there (6e-9 relative at 1e-8), tanh none. Above it the subtractive form
# loses at most a few ulps and is kept, so lam, and every window and trace
# formed from it, is unchanged across the conditioned range beta*omega >= 0.2.
TANH_BETA_OMEGA = 1e-2


@dataclass(frozen=True)
class QubitInit:
    """Initial qubit state: excited population a, coherence fraction r, phase phi.

    The implied coherence is rho12(0) = sqrt((1-a)a) * r * exp(i*phi), so r=1
    saturates the purity bound. For a in {0, 1} the coherence is identically
    zero and r is normalized to 0 to avoid a spurious degree of freedom.
    """

    a: float
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.a <= 1.0):
            raise DomainError("a must lie in [0, 1]")
        if not (0.0 <= self.r <= 1.0):
            raise DomainError("r must lie in [0, 1]")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise DomainError("phi must lie in [0, 2*pi)")
        if self.a in (0.0, 1.0) and self.r != 0.0:
            object.__setattr__(self, "r", 0.0)

    @property
    def rho12_0(self) -> complex:
        return math.sqrt((1.0 - self.a) * self.a) * self.r * cmath.exp(1j * self.phi)

    @property
    def rho0(self) -> np.ndarray:
        """The initial state [[1 - a, rho12(0)], [rho12(0)*, a]] as a read-only complex array."""
        c = self.rho12_0
        return _readonly(np.array([[1.0 - self.a, c], [c.conjugate(), self.a]]))

    @classmethod
    def from_theta(cls, theta: float, r: float = 0.0, phi: float = 0.0) -> "QubitInit":
        if not (0.0 <= theta <= math.pi):
            raise DomainError("theta must lie in [0, pi]")
        return cls(a=math.sin(theta / 2.0) ** 2, r=r, phi=phi)


def _state(rho) -> np.ndarray:
    """A caller's array-like state as a read-only complex array, checked once where it enters."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DomainError("state must be a nonempty square matrix")
    if not np.all(np.isfinite(m)):
        raise DomainError("state must be finite")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise DomainError("state must be Hermitian within 1e-12")
    if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
        raise DomainError("state must have unit trace within 1e-12")
    if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) < -1e-12:
        raise DomainError("state must be positive semidefinite within 1e-12")
    return _readonly(m)


def _uniformized(
    gen: np.ndarray, d_gen: np.ndarray, p0: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The populations p(t) = e^{A t} p0 and their derivative along A' = d_gen.

    Uniformization (Jensen 1953): with L = max_j |A_jj|, held fixed, P = I + A/L
    is entrywise nonnegative and e^{A t} = (e^{-x} e^{x P})^(2^k) with
    x = L t/2^k <= 1/4. The series F = e^{-x} sum_j x^j P^j/j! stops at j = 16
    (0.25^17/17! ~ 2e-25) and is squared k times. Every product is of
    nonnegative matrices, so each entry of F, however small, keeps its
    relative accuracy, and no population from a nonnegative p0 comes out
    negative. The derivative runs alongside in forward mode. In the series,
    the block step [[P, 0], [P', P]] with P' = A'/L takes the stacked pair
    [P^(j-1); d(P^(j-1))] to [P^j; P' P^(j-1) + P d(P^(j-1))]; its zero block
    keeps the signed derivative out of P^j. Each squaring takes
    dF <- dF F + F dF, and would double a rounding in the column sums, so
    after it F's columns are rescaled to sum to 1 and dF is moved by
    -F 1^T dF (the derivative of that rescaling) to sum to 0. L t may
    overflow while x does not, so x and k are formed from the exponents of L
    and t. At t = 0, x = 0 and F = I, so p0 comes back exactly and its
    derivative is 0.
    """
    rate = float(np.max(-np.diag(gen)))
    (m_rate, e_rate), (m_t, e_t) = math.frexp(rate), math.frexp(t)
    squarings = max(0, e_rate + e_t + 2)
    x = math.ldexp(m_rate * m_t, e_rate + e_t - squarings)
    n = len(gen)
    step = np.block([[gen, np.zeros_like(gen)], [d_gen, gen]]) / rate + np.eye(2 * n)
    term = series = np.eye(2 * n, n)
    for j in range(1, 17):
        term = x / j * (step @ term)
        series = series + term
    f, df = math.exp(-x) * series[:n], math.exp(-x) * series[n:]
    for _ in range(squarings):
        f, df = f @ f, df @ f + f @ df
        f /= f.sum(axis=0)
        df -= f * df.sum(axis=0)
    p, dp = f @ p0, df @ p0
    # a population near 1 keeps only absolute accuracy: its derivative is minus the others' sum
    largest = np.argmax(p)
    dp[largest] = 0.0
    dp[largest] = -math.fsum(dp)
    return p, dp


class _QubitModel(NamedTuple):
    """The closed-form qubit relaxation at fixed gap and temperature, in scaled time s = gamma t.

    pi2 = w/(1 + w) with w = e^{-beta omega} is the thermal excited population
    (the bits thermal_distribution gives), lam_hat = lambda/gamma = 1/(pi2 - pi1)
    = -1/tanh(beta omega/2) < 0 the relaxation eigenvalue per unit coupling and
    dpi2 = d pi2/d beta = -(1 - pi2) pi2 omega. The initial state enters each
    method separately, so one model serves every state of a scan; scaled
    times are floats or arrays.
    """

    omega: float
    pi2: float
    lam_hat: float
    dpi2: float

    def decay(self, s):
        """e^{lam_hat s}: the factor by which pi2 - p2 and |rho12|^2 shrink."""
        return np.exp(self.lam_hat * s)

    def p2(self, a, s):
        """Excited population p2 = pi2 - e^{lam_hat s} (pi2 - a), from p2(0) = a."""
        return self.pi2 - self.decay(s) * (self.pi2 - a)

    def envelope(self, c, s):
        """c e^{lam_hat s/2}: for c = |rho12(0)| this is |rho12|."""
        return c * np.exp(self.lam_hat * s / 2.0)


def _qubit_model(omega: float, beta) -> _QubitModel:
    """The qubit model; the one place where pi2, lam_hat and dpi2 are formed.

    Supports MIN_BETA_OMEGA <= beta*omega <= MAX_GIBBS_BETA_OMEGA and raises
    DomainError outside: below, both populations round to about 1/2; above,
    the Gibbs weight underflows to zero. beta may be an array (the MLE inverts
    many counts at once); the model's pi2, lam_hat and dpi2 are then arrays of
    the same shape, elementwise bitwise equal to the scalar models.

    The population gap 2 pi2 - 1 = -tanh(beta omega/2) cancels at high
    temperature, so below TANH_BETA_OMEGA it is taken from the tanh form.
    """
    x = beta * omega
    x_lo, x_hi = np.min(x), np.max(x)
    if x_lo < MIN_BETA_OMEGA:
        raise DomainError(
            f"beta*omega = {x_lo:g} is too small: both thermal populations round to 1/2 "
            "and the relaxation rate gamma/(pi2 - pi1) is undefined; the supported range "
            f"is {MIN_BETA_OMEGA:g} <= beta*omega <= {MAX_GIBBS_BETA_OMEGA:g}"
        )
    if x_hi > MAX_GIBBS_BETA_OMEGA:
        raise _gibbs_underflow(x_hi)
    w = np.exp(-x)
    pi2 = w / (1.0 + w)
    gap = np.where(x < TANH_BETA_OMEGA, -np.tanh(x / 2.0), 2.0 * pi2 - 1.0)
    lam_hat = 1.0 / gap
    dpi2 = -(1.0 - pi2) * pi2 * omega
    if isinstance(x, np.ndarray):
        return _QubitModel(omega, pi2, lam_hat, dpi2)
    return _QubitModel(omega, float(pi2), float(lam_hat), float(dpi2))


def _qubit_model_of(spectrum: Spectrum, bath: Bath) -> _QubitModel:
    if spectrum.n_levels != 2:
        raise DomainError("the closed-form qubit model requires a two-level spectrum")
    return _qubit_model(spectrum.gap(1, 2), bath.beta)


def qubit_relaxation_rate(spectrum: Spectrum, bath: Bath) -> float:
    """The qubit generator's decaying eigenvalue lambda = gamma lam_hat < 0, checked finite."""
    lam = float(bath.gamma) * _qubit_model_of(spectrum, bath).lam_hat  # inf on overflow, no warning
    if not math.isfinite(lam):
        raise DomainError(
            f"gamma = {bath.gamma:g} is too large: the relaxation rate gamma/(pi2 - pi1) "
            "overflows double precision"
        )
    return lam


def _default_t_max(spectrum: Spectrum, bath: Bath) -> float:
    """The default time window max(20, 14 + beta omega)/|lambda|.

    Twenty relaxation times up to beta omega = 6. Colder, F meets its
    asymptote only once pi2 - p2 is small against pi2 ~ e^{-beta omega}
    itself, so the window grows with beta omega: at its end the decay
    e^{lambda t} is e^{-14 - beta omega}, about e^{-14} pi2.
    """
    turns = max(20.0, 14.0 + bath.beta * spectrum.gap(1, 2))
    t_max = turns / abs(qubit_relaxation_rate(spectrum, bath))
    if not math.isfinite(t_max):
        raise DomainError(
            f"gamma = {bath.gamma:g} is too small: the default time window "
            "max(20, 14 + beta*omega)/|lambda| overflows double precision"
        )
    return t_max


def evolve_state_derivative(
    rho0, spectrum: Spectrum, bath: Bath, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The evolved N-level state rho(t) and its exact derivative d rho(t)/d beta at fixed rho0.

    rho0 may be any array-like state; it is checked once (_state). The time
    must be finite and nonnegative. Level j loses population at the rate
    loss_j = -A_jj = sum_k Gamma_kj, and each coherence decays at the mean loss
    of its two levels while it rotates at their gap (o is the elementwise
    product): rho(t) = rho0 o e^{-(loss_i + loss_j) t/2} o e^{i (E_j - E_i) t},
    its diagonal replaced by the populations p(t) = e^{A t} p0. A coherence
    that has decayed to 0 stays 0 whatever its angle (E_j - E_i) t; one that
    survives while its angle overflows double precision is a DomainError.

    A pair's rates g_ij = gamma (n+1) and g_ji = gamma n both move by
    gamma dn/d beta = -omega gamma n (n+1) = -omega g_ij g_ji/gamma: that is A' = dA/d beta.
    The populations and their derivative come from _uniformized, which forms
    e^{A t} from products of nonnegative matrices only, so every population
    keeps its relative accuracy, however cold the band; at t = 0 they are p0
    and 0 exactly. The coherences give d rho/d beta = -t (loss'_i + loss'_j)/2 o rho(t)
    with loss' = -diag(A'), and the diagonal is the populations' derivative.

    rho(t) is returned read-only and not checked again: it is a state, as
    rho(t) = (rho0 o C) + diag(p(t) - rho0_ii e^{-loss_i t}) with C = c c^dag,
    c_i = e^{-loss_i t/2 - i E_i t}, rank-1 positive semidefinite, and the added
    diagonal is >= 0 because p_i(t) >= rho0_ii e^{-loss_i t}; p(t) sums to one to
    rounding.
    """
    state = _state(rho0)
    if len(state) != spectrum.n_levels:
        raise DomainError("state size must match the spectrum")
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    if t < 0:
        raise DomainError("t must be nonnegative")
    gen = transition_matrix(spectrum, bath)
    g, energies = np.where(np.eye(len(gen), dtype=bool), 0.0, gen), np.asarray(spectrum.energies)
    with np.errstate(over="ignore"):
        d_gen = -np.abs(energies[:, None] - energies[None, :]) * g * g.T / bath.gamma
    if not np.all(np.isfinite(d_gen)):
        raise DomainError(
            f"gamma = {bath.gamma:g} is too large: the generator's beta-derivative "
            "|E_j - E_i| g_ij g_ji/gamma overflows double precision"
        )
    d_gen -= np.diag(d_gen.sum(axis=0))
    p, dp = _uniformized(gen, d_gen, np.diag(state).real, t)
    loss, dloss = -np.diag(gen), -np.diag(d_gen)
    with np.errstate(over="ignore"):  # a decay exponent or angle past the double range
        rho = state * np.exp(-(loss[:, None] + loss[None, :]) / 2.0 * t)
        angle = (energies[None, :] - energies[:, None]) * t
    turned = np.isfinite(angle)  # a coherence that has decayed to 0 needs no phase
    if not np.all(turned | (rho == 0)):
        gap = float(np.max(np.abs(energies[None, :] - energies[:, None])[~turned & (rho != 0)]))
        raise DomainError(
            f"the phase (E_j - E_i) t of a surviving coherence overflows double "
            f"precision at gap {gap:g} and t = {t:g}"
        )
    rho *= np.exp(1j * np.where(turned, angle, 0.0))
    drho = -(dloss[:, None] + dloss[None, :]) / 2.0 * (t * rho)  # t loss' may overflow, t rho not
    np.fill_diagonal(rho, p)
    np.fill_diagonal(drho, dp)
    return _readonly(rho), drho


def gad_params(n12: float, tau_tilde: float) -> tuple[float, float]:
    """The channel's (p1, p2) from the occupation number and dimensionless duration.

    Implements p1 = n12/(2*n12 - 1) verbatim; that weight leaves [0, 1] for
    n12 < 1, which is outside the parameterization's regime of use. p2 is tied
    to the duration by p2 = 1 - exp(-(1+n12)*tau_tilde). On the accepted
    inputs both lie in [0, 1].
    """
    if not n12 >= 1.0:
        raise DomainError("n12 must be at least 1 for the channel parameterization")
    if not math.isfinite(n12):
        raise DomainError("n12 must be finite")
    if not math.isfinite(2.0 * n12):
        raise DomainError(f"n12 = {n12:g} is too large: 2*n12 overflows double precision")
    if not tau_tilde >= 0:
        raise DomainError("tau_tilde must be nonnegative")
    p1 = n12 / (2.0 * n12 - 1.0)
    p2 = -math.expm1(-(1.0 + n12) * tau_tilde)
    return p1, p2


def _gad_excited(p1: float, p2: float, q: float) -> float:
    """The excited population after the channel, from the excited population q before.

    On a qubit, generalized amplitude damping with mixing weight p1 and
    transfer p2 is the map q' = (1-p2)*q + p2*(1-p1), rho12' = sqrt(1-p2)*rho12
    (Nielsen & Chuang, section 8.3.5): q relaxes toward the fixed point 1 - p1
    by the factor 1 - p2. This is the one place the channel acts; no caller
    needs rho12'.
    """
    return (1.0 - p2) * q + p2 * (1.0 - p1)


def beta_from_thermal_ratio(n12: float, omega12: float) -> float:
    """Invert the Bose occupation at gap omega12: beta = ln(1 + 1/n12)/omega12."""
    if not n12 > 0:
        raise DomainError("n12 must be positive")
    if not omega12 > 0:
        raise DomainError("omega12 must be positive")
    return math.log1p(1.0 / n12) / omega12


def gamma_from_tau_tilde(tau_tilde: float, omega12: float) -> float:
    """Dimensional coupling rate gamma = tau_tilde * omega12 / 2."""
    if not tau_tilde > 0:
        raise DomainError("tau_tilde must be positive")
    if not omega12 > 0:
        raise DomainError("omega12 must be positive")
    return tau_tilde * omega12 / 2.0


def gad_master_comparison(n12: float, tau_tilde: float, omega12: float) -> dict:
    """Populations after the channel vs the relaxation model at matched exponent.

    The channel at duration tau_tilde has relaxation exponent (1+n12)*tau_tilde;
    the matched master-equation time solves |lambda| t = (1+n12)*tau_tilde under
    the mapping gamma = tau_tilde*omega12/2. Returns both excited populations
    and their relative difference, starting from the ground state (a0 = 0).
    """
    p1, p2 = gad_params(n12, tau_tilde)
    p2_gad = _gad_excited(p1, p2, 0.0)

    beta = beta_from_thermal_ratio(n12, omega12)
    gamma = gamma_from_tau_tilde(tau_tilde, omega12)
    lam = qubit_relaxation_rate(Spectrum.qubit(omega12), Bath(beta=beta, gamma=gamma))
    t_compare = (1.0 + n12) * tau_tilde / abs(lam)
    p2_master = float(_qubit_model(omega12, beta).p2(0.0, gamma * t_compare))
    rel_diff = abs(p2_gad - p2_master) / max(abs(p2_master), 1e-300)
    return {
        "n12": n12,
        "tau_tilde": tau_tilde,
        "omega12": omega12,
        "a0": 0.0,
        "beta": beta,
        "gamma": gamma,
        "lambda": lam,
        "t_compare": t_compare,
        "p2_gad": p2_gad,
        "p2_master": p2_master,
        "rel_diff": rel_diff,
    }


def gad_stationary_diagnostic(n12: float) -> dict:
    """Expose the gap between the channel's fixed point and the thermal state.

    The channel parameterization p1 = n12/(2*n12 - 1) differs from the Gibbs
    ground population (n12+1)/(2*n12+1); both approach 1/2 for large n12. This
    reports both, without deciding which was intended.
    """
    p1, _ = gad_params(n12, 0.0)
    ground_thermal = (n12 + 1.0) / (2.0 * n12 + 1.0)
    excited_thermal = n12 / (2.0 * n12 + 1.0)
    excited_fixed = 1.0 - p1
    return {
        "n12": n12,
        "ground_fixed_point": p1,
        "ground_thermal": ground_thermal,
        "excited_fixed_point": excited_fixed,
        "excited_thermal": excited_thermal,
        "excited_rel_gap": abs(excited_fixed - excited_thermal) / excited_thermal,
    }
