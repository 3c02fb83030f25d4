"""Thermal model of an N-level probe coupled to a bosonic bath.

Energies, Bose occupation ratios, jump rates between energy eigenstates, the
population transition matrix A_beta, its stationary (Gibbs) distribution, and
spectral diagnostics: one null eigenvalue, N-1 decaying modes, Gershgorin
disc data, detailed balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelIntegrityError, NoStationaryStateError

# |eigenvalue| <= NULL_EIGENVALUE_RTOL * ||A||_2 counts as the null mode.
NULL_EIGENVALUE_RTOL = 1e-8

# Largest beta*omega at which exp(beta*omega) is finite in double precision
# (the true limit is about 709.78).
MAX_EXP_BETA_OMEGA = 709.0

# Largest beta*omega at which the Gibbs weight exp(-beta*omega) is still a
# positive double (it underflows to zero near 745.13).
MAX_GIBBS_BETA_OMEGA = 745.0

# Smallest beta*omega the qubit closed forms accept. Below about 4.5e-17 both
# Gibbs populations round to 1/2 and the relaxation rate gamma/(pi2 - pi1)
# divides by zero; this bound keeps a margin of digits in pi2 - pi1.
MIN_BETA_OMEGA = 2e-15


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Spectrum:
    """Ordered energy levels of the probe Hamiltonian (hbar = 1)."""

    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(e) for e in self.energies)
        if len(levels) < 2:
            raise DomainError("spectrum needs at least two levels")
        if not all(math.isfinite(e) for e in levels):
            raise DomainError("energies must be finite")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError("energies must be strictly increasing (degenerate gaps diverge)")
        object.__setattr__(self, "energies", levels)

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    def gap(self, i: int, j: int) -> float:
        """Energy gap omega_ij = eps_j - eps_i (positive for i < j); 1-based indices."""
        return self.energies[j - 1] - self.energies[i - 1]

    @classmethod
    def qubit(cls, omega12: float) -> "Spectrum":
        if omega12 <= 0:
            raise DomainError("qubit gap must be positive")
        return cls((0.0, omega12))


@dataclass(frozen=True)
class Bath:
    """Thermal reservoir: inverse temperature beta and coupling rate gamma."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DomainError("beta must be positive and finite")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError("gamma must be positive and finite")


@dataclass(frozen=True)
class RateMatrix:
    """Jump rates Gamma[i, j] from eigenstate j to eigenstate i, zero diagonal."""

    gamma_rates: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma_rates, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DomainError("rate matrix must be square")
        if np.any(np.diag(g) != 0.0):
            raise DomainError("rate matrix diagonal must be zero")
        off = g[~np.eye(g.shape[0], dtype=bool)]
        if np.any(off < 0) or not np.all(np.isfinite(off)):
            raise DomainError("rates must be finite and nonnegative")
        # decays beat excitations: Gamma_ij = gamma(n+1) > Gamma_ji = gamma*n for i < j
        n = g.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if not g[i, j] > g[j, i]:
                    raise DomainError(f"detailed-balance ordering violated at ({i + 1},{j + 1})")
        object.__setattr__(self, "gamma_rates", _readonly(g))

    @property
    def n_levels(self) -> int:
        return self.gamma_rates.shape[0]


@dataclass(frozen=True)
class TransitionMatrix:
    """Population generator A_beta: off-diagonal rates, columns summing to zero."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("transition matrix must be square")
        n = a.shape[0]
        off = a[~np.eye(n, dtype=bool)]
        if np.any(off <= 0):
            raise DomainError("off-diagonal entries must be strictly positive")
        # fsum-built diagonals land within 1e-14 for order-one rates; the bound is
        # scale-aware so large physically valid rates are not rejected by ulp alone.
        for j in range(n):
            residual = abs(math.fsum(a[:, j]))
            tol = max(1e-14, 8 * np.finfo(float).eps * float(np.sum(np.abs(a[:, j]))))
            if residual > tol:
                raise DomainError(f"column {j + 1} sums to {residual:.3e}, not zero")
        object.__setattr__(self, "a", _readonly(a))


@dataclass(frozen=True)
class ThermalDistribution:
    """Gibbs populations pi_k = exp(-beta*eps_k)/Z."""

    pi: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pi, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise DomainError("pi must be a vector of length >= 2")
        if np.any(p <= 0):
            raise DomainError("thermal populations must be strictly positive")
        if abs(math.fsum(p) - 1.0) > 1e-12:
            raise DomainError("thermal populations must sum to one")
        if np.any(np.diff(p) > 0):
            raise DomainError("thermal populations must be nonincreasing in energy")
        object.__setattr__(self, "pi", _readonly(p))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of A_beta plus the diagnostics backing the decay guarantee."""

    eigenvalues: np.ndarray        # sorted by descending real part
    null_count: int
    negative_count: int
    gershgorin_centers: np.ndarray  # diagonal entries a_jj
    gershgorin_radii: np.ndarray    # column radii R_j = sum_{i != j} |a_ij|


def thermal_ratio(beta: float, omega: float) -> float:
    """Bose occupation n = 1/(exp(beta*omega) - 1) of the mode at gap omega.

    Strictly positive and decreasing in beta*omega.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise DomainError("beta must be positive")
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError("omega must be positive")
    x = beta * omega
    if x > MAX_EXP_BETA_OMEGA:  # expm1 overflows; the occupation is far below subnormal
        return 0.0
    return 1.0 / math.expm1(x)


def _gibbs_underflow(beta_omega: float) -> DomainError:
    return DomainError(
        f"Gibbs weights underflow to zero at beta*omega = {beta_omega:g}; "
        f"the supported range is beta*omega <= {MAX_GIBBS_BETA_OMEGA:g}"
    )


def thermal_distribution(spectrum: Spectrum, beta: float) -> ThermalDistribution:
    """Gibbs distribution over the spectrum at inverse temperature beta.

    Energies are shifted by eps_1 before exponentiating so large energies cannot
    overflow; the populations are shift-invariant.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise DomainError("beta must be positive")
    eps = np.asarray(spectrum.energies, dtype=float)
    shifted = eps - eps[0]
    weights = np.exp(-beta * shifted)
    pi = weights / math.fsum(weights)
    if np.any(pi <= 0):
        # omega here is the top level's gap above the ground level
        raise _gibbs_underflow(beta * shifted[-1])
    return ThermalDistribution(pi=pi)


def rate_matrix(spectrum: Spectrum, bath: Bath) -> RateMatrix:
    """Jump rates between all level pairs: gamma(n+1) down, gamma*n up."""
    n = spectrum.n_levels
    g = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            occupation = thermal_ratio(bath.beta, spectrum.gap(i, j))
            g[i - 1, j - 1] = bath.gamma * (occupation + 1.0)   # decay j -> i
            g[j - 1, i - 1] = bath.gamma * occupation           # excitation i -> j
    return RateMatrix(gamma_rates=g)


def transition_matrix(rates: RateMatrix) -> TransitionMatrix:
    """Assemble A_beta: off-diagonal jump rates, diagonal -(column loss)."""
    g = rates.gamma_rates
    a = np.array(g, copy=True)
    for j in range(rates.n_levels):
        a[j, j] = -math.fsum(g[:, j])
    return TransitionMatrix(a=a)


def stationary_distribution(a: np.ndarray) -> ThermalDistribution:
    """Probability-normalized null vector of the generator array A_beta.

    Computed by eigendecomposition; the null space is one-dimensional for valid
    generators, so no tie-breaking is needed.
    """
    mat = np.asarray(a, dtype=float)
    eigenvalues, eigenvectors = np.linalg.eig(mat)
    norm = float(np.linalg.norm(mat, 2))
    idx = int(np.argmin(np.abs(eigenvalues)))
    if abs(eigenvalues[idx]) > NULL_EIGENVALUE_RTOL * norm:
        raise NoStationaryStateError(
            f"no stationary state: smallest |eigenvalue| {abs(eigenvalues[idx]):.3e} "
            f"exceeds {NULL_EIGENVALUE_RTOL:.0e} * ||A|| = {NULL_EIGENVALUE_RTOL * norm:.3e}"
        )
    vec = eigenvectors[:, idx]
    if np.max(np.abs(vec.imag)) > 1e-12 * np.max(np.abs(vec)):
        raise ModelIntegrityError("null eigenvector has a non-negligible imaginary part")
    vec = vec.real
    total = vec.sum()
    if total == 0.0:
        raise ModelIntegrityError("null eigenvector sums to zero; cannot normalize")
    pi = vec / total
    if np.any(pi <= 0):
        raise ModelIntegrityError("stationary vector is not strictly positive")
    pi = pi / math.fsum(pi)
    return ThermalDistribution(pi=pi)


def spectral_report(a: np.ndarray) -> SpectralReport:
    """Eigenvalues of the generator array A_beta with the decay-structure assertion.

    Asserts exactly one null eigenvalue (|lambda| <= 1e-8*||A||) and N-1
    eigenvalues with strictly negative real part; returns Gershgorin disc data
    (column discs: centers a_jj, radii R_j) for diagnostics.
    """
    mat = np.asarray(a, dtype=float)
    n = mat.shape[0]
    eigenvalues = np.linalg.eigvals(mat)
    norm = float(np.linalg.norm(mat, 2))
    tol = NULL_EIGENVALUE_RTOL * norm
    null_mask = np.abs(eigenvalues) <= tol
    null_count = int(np.count_nonzero(null_mask))
    negative_count = int(np.count_nonzero(eigenvalues[~null_mask].real < 0))
    if null_count != 1 or negative_count != n - 1:
        raise ModelIntegrityError(
            f"null-eigenvalue-count violation: {null_count} null, "
            f"{negative_count} decaying of {n} (expected 1 and {n - 1})"
        )
    order = np.argsort(-eigenvalues.real)
    centers = np.diag(mat).copy()
    radii = np.array([math.fsum(np.abs(mat[:, j])) - abs(mat[j, j]) for j in range(n)])
    return SpectralReport(
        eigenvalues=_readonly(eigenvalues[order]),
        null_count=null_count,
        negative_count=negative_count,
        gershgorin_centers=_readonly(centers),
        gershgorin_radii=_readonly(radii),
    )
