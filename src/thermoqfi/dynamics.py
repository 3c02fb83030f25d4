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

from .errors import DomainError, ModelIntegrityError
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

# Eigenvector-matrix condition number beyond which the eigendecomposition
# propagator rejects the generator as defective or too ill-conditioned.
EIG_CONDITION_LIMIT = 1e12


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

    @classmethod
    def from_theta(cls, theta: float, r: float = 0.0, phi: float = 0.0) -> "QubitInit":
        if not (0.0 <= theta <= math.pi):
            raise DomainError("theta must lie in [0, pi]")
        return cls(a=math.sin(theta / 2.0) ** 2, r=r, phi=phi)


@dataclass(frozen=True)
class DensityMatrix:
    """N x N Hermitian, unit-trace, positive-semidefinite state."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.elements, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("state must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise DomainError("state must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise DomainError("state must be Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise DomainError("state must have unit trace within 1e-12")
        if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) < -1e-12:
            raise DomainError("state must be positive semidefinite within 1e-12")
        object.__setattr__(self, "elements", _readonly(m))

    @property
    def n_levels(self) -> int:
        return self.elements.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return np.diag(self.elements).real.copy()

    @property
    def rho22(self) -> float:
        if self.n_levels != 2:
            raise DomainError("rho22 is defined for qubits only")
        return float(self.elements[1, 1].real)

    @classmethod
    def from_populations(cls, p) -> "DensityMatrix":
        return cls(elements=np.diag(np.asarray(p, dtype=float)).astype(complex))

    @classmethod
    def from_qubit_init(cls, init: QubitInit) -> "DensityMatrix":
        c = init.rho12_0
        return cls(elements=np.array([[1.0 - init.a, c], [c.conjugate(), init.a]]))


def as_state(rho: DensityMatrix | np.ndarray) -> DensityMatrix:
    """Coerce an array-like to a validated DensityMatrix."""
    if isinstance(rho, DensityMatrix):
        return rho
    return DensityMatrix(elements=np.asarray(rho, dtype=complex))


def _eigendecompose(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a generator, its null eigenvalue set to exactly 0.

    Detailed-balance generators are similar to symmetric matrices and always
    diagonalize with a well-conditioned eigenvector matrix. A generator whose
    eigenvector matrix has condition number beyond EIG_CONDITION_LIMIT is
    defective or too close to it (such as an equal-rate decay cascade) and is
    rejected with DomainError. The columns sum to zero, so 0 is an eigenvalue;
    eig returns it as about +-eps ||A||, which e^{lam t} would turn into an
    overflow or a vanishing steady state once t exceeds about 700/(eps ||A||).
    """
    values, vectors = np.linalg.eig(mat)
    condition = np.linalg.cond(vectors)
    if not condition <= EIG_CONDITION_LIMIT:
        raise DomainError(
            "the generator is defective or too ill-conditioned to eigendecompose "
            f"(eigenvector condition number {condition:.3g} > {EIG_CONDITION_LIMIT:g}); "
            "detailed-balance generators from transition_matrix always diagonalize"
        )
    values[np.argmin(np.abs(values))] = 0.0
    return values, vectors


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
    batch = isinstance(x, np.ndarray)
    x_lo, x_hi = (x.min(), x.max()) if batch else (x, x)
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
    gap = 2.0 * pi2 - 1.0
    hot = x < TANH_BETA_OMEGA
    if batch:
        gap = np.where(hot, -np.tanh(x / 2.0), gap)
    elif hot:
        gap = -np.tanh(x / 2.0)
    lam_hat = 1.0 / gap
    dpi2 = -(1.0 - pi2) * pi2 * omega
    if batch:
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
    rho0: DensityMatrix | np.ndarray, spectrum: Spectrum, bath: Bath, t: float
) -> tuple[DensityMatrix, np.ndarray]:
    """The evolved N-level state rho(t) and its exact derivative d rho(t)/d beta at fixed rho0.

    One array pass over the generator A and its eigendecomposition A = V diag(l) V^-1
    (_eigendecompose rejects a defective one). The time must be finite and
    nonnegative. Level j loses population at the rate loss_j = -A_jj =
    sum_k Gamma_kj, and each coherence decays at the mean loss of its two
    levels while it rotates at their gap (o is the elementwise product):
    rho(t) = rho0 o e^{-(loss_i + loss_j) t/2} o e^{i (E_j - E_i) t}, its
    diagonal replaced by the populations p(t) = V e^{l t} V^-1 p0, clipped at 0
    and renormalized.

    A pair's rates g_ij = gamma (n+1) and g_ji = gamma n both move by
    gamma dn/d beta = -omega gamma n (n+1) = -omega g_ij g_ji/gamma: that is A' = dA/d beta.
    The populations take the Frechet derivative of e^{At} along A' in the
    generator's eigenbasis (Najfeld & Havel, Adv. Appl. Math. 16, 321 (1995)):
    V (Phi o V^-1 A' V) V^-1 p0 with Phi_ij = (e^{l_i t} - e^{l_j t})/(l_i - l_j),
    t e^{l_i t} on the diagonal, formed as e^{max(l_i, l_j) t} times an expm1
    ratio so that no factor overflows. The null eigenvalue's row of V^-1 A' V
    is 0 because 1^T A' = 0; it is zeroed exactly, since its rounding would
    otherwise grow like t. V^-1 p0 is solved once for p(t) and its derivative.
    The coherences give d rho/d beta = -t (loss'_i + loss'_j)/2 o rho(t) with
    loss' = -diag(A'), and the diagonal is the populations' derivative.
    """
    state = as_state(rho0)
    if state.n_levels != spectrum.n_levels:
        raise DomainError("state size must match the spectrum")
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    if t < 0:
        raise DomainError("t must be nonnegative")
    gen = transition_matrix(spectrum, bath)
    values, vectors = _eigendecompose(gen)
    p0 = state.populations
    c0 = np.linalg.solve(vectors, p0)
    p = p0
    if t > 0.0:
        p = (vectors @ (np.exp(values * t) * c0)).real
        if np.min(p) < -1e-10:
            raise ModelIntegrityError(f"propagated populations went negative: min {np.min(p):.3e}")
        p = np.clip(p, 0.0, None)
        p = p / math.fsum(p)
    g, energies = np.where(np.eye(len(gen), dtype=bool), 0.0, gen), np.asarray(spectrum.energies)
    with np.errstate(over="ignore"):
        d_gen = -np.abs(energies[:, None] - energies[None, :]) * g * g.T / bath.gamma
    if not np.all(np.isfinite(d_gen)):
        raise DomainError(
            f"gamma = {bath.gamma:g} is too large: the generator's beta-derivative "
            "|E_j - E_i| g_ij g_ji/gamma overflows double precision"
        )
    d_gen -= np.diag(d_gen.sum(axis=0))
    b = np.linalg.solve(vectors, d_gen @ vectors)
    b[values == 0.0] = 0.0
    diff = values[:, None] - values[None, :]
    flip = diff.real < 0.0  # order each pair so that its exponent difference decays
    gap = np.where(flip, -diff, diff)
    with np.errstate(over="ignore"):
        ratio = np.divide(-np.expm1(-gap * t), gap, out=np.full_like(gap, t), where=gap != 0)
        phi = np.exp(np.where(flip, values[None, :], values[:, None]) * t) * ratio
    dp = (vectors @ ((phi * b) @ c0)).real
    loss, dloss = -np.diag(gen), -np.diag(d_gen)
    rho = state.elements * np.exp(-(loss[:, None] + loss[None, :]) / 2.0 * t)
    rho *= np.exp(1j * (energies[None, :] - energies[:, None]) * t)
    drho = -t * (dloss[:, None] + dloss[None, :]) / 2.0 * rho
    np.fill_diagonal(rho, p)
    np.fill_diagonal(drho, dp)
    return DensityMatrix(elements=rho), drho


@dataclass(frozen=True)
class GadChannel:
    """Generalized amplitude damping with mixing weight p1 and transfer p2."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise DomainError("channel probabilities must lie in [0, 1]")


def gad_params(n12: float, tau_tilde: float) -> GadChannel:
    """Channel parameters from the occupation number and dimensionless duration.

    Implements p1 = n12/(2*n12 - 1) verbatim; that weight leaves [0, 1] for
    n12 < 1, which is outside the parameterization's regime of use. p2 is tied
    to the duration by p2 = 1 - exp(-(1+n12)*tau_tilde).
    """
    if not n12 >= 1.0:
        raise DomainError("n12 must be at least 1 for the channel parameterization")
    if tau_tilde < 0:
        raise DomainError("tau_tilde must be nonnegative")
    p1 = n12 / (2.0 * n12 - 1.0)
    p2 = -math.expm1(-(1.0 + n12) * tau_tilde)
    return GadChannel(p1=p1, p2=p2)


def gad_kraus_operators(ch: GadChannel) -> list[np.ndarray]:
    """The four Kraus operators; completeness sum(K^dag K) = 1 is asserted."""
    s1 = math.sqrt(ch.p1)
    s1c = math.sqrt(1.0 - ch.p1)
    s2 = math.sqrt(ch.p2)
    s2c = math.sqrt(1.0 - ch.p2)
    kraus = [
        s1 * np.array([[1.0, 0.0], [0.0, s2c]], dtype=complex),
        s1 * np.array([[0.0, s2], [0.0, 0.0]], dtype=complex),
        s1c * np.array([[s2c, 0.0], [0.0, 1.0]], dtype=complex),
        s1c * np.array([[0.0, 0.0], [s2, 0.0]], dtype=complex),
    ]
    completeness = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(completeness - np.eye(2))) > 1e-12:
        raise ModelIntegrityError("Kraus completeness sum(K^dag K) = 1 violated")
    return kraus


def gad_apply(ch: GadChannel, rho: DensityMatrix | np.ndarray) -> DensityMatrix:
    """Apply the channel: rho' = sum_k K_k rho K_k^dag."""
    state = as_state(rho)
    if state.n_levels != 2:
        raise DomainError("the damping channel acts on qubits")
    out = np.zeros((2, 2), dtype=complex)
    for k in gad_kraus_operators(ch):
        out += k @ state.elements @ k.conj().T
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(elements=out)


def gad_fixed_point(ch: GadChannel) -> np.ndarray:
    """The channel's stationary state diag(p1, 1-p1), invariant for any p2."""
    return np.diag([ch.p1, 1.0 - ch.p1]).astype(complex)


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
    ch = gad_params(n12, tau_tilde)
    rho0 = DensityMatrix.from_populations([1.0, 0.0])
    p2_gad = gad_apply(ch, rho0).rho22

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
    ch = gad_params(n12, 0.0)
    ground_thermal = (n12 + 1.0) / (2.0 * n12 + 1.0)
    excited_thermal = n12 / (2.0 * n12 + 1.0)
    excited_fixed = 1.0 - ch.p1
    return {
        "n12": n12,
        "ground_fixed_point": ch.p1,
        "ground_thermal": ground_thermal,
        "excited_fixed_point": excited_fixed,
        "excited_thermal": excited_thermal,
        "excited_rel_gap": abs(excited_fixed - excited_thermal) / excited_thermal,
    }
