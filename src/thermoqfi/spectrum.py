"""Thermal model of an N-level probe coupled to a bosonic bath.

Energies, Bose occupation ratios, and as read-only arrays the jump rates
between energy eigenstates, the population transition matrix A_beta and the
Gibbs distribution (built, or found as A_beta's null vector); spectral
diagnostics: one null eigenvalue, N-1 decaying modes, Gershgorin disc data.
Each builder checks what it builds as it builds it.
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


def _gibbs(pi: np.ndarray) -> np.ndarray:
    """pi, read-only: at least two populations, summing to one, nonincreasing in energy."""
    if pi.size < 2:
        raise DomainError("pi must be a vector of length >= 2")
    if abs(math.fsum(pi) - 1.0) > 1e-12:
        raise DomainError("thermal populations must sum to one")
    if np.any(np.diff(pi) > 0):
        raise DomainError("thermal populations must be nonincreasing in energy")
    return _readonly(pi)


def thermal_distribution(spectrum: Spectrum, beta: float) -> np.ndarray:
    """Gibbs populations pi_k = exp(-beta*eps_k)/Z over the spectrum, as a read-only array.

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
    return _gibbs(pi)


def rate_matrix(spectrum: Spectrum, bath: Bath) -> np.ndarray:
    """Jump rates Gamma[i, j] from eigenstate j to i, read-only: gamma(n+1) down, gamma*n up."""
    n = spectrum.n_levels
    g = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            occupation = thermal_ratio(bath.beta, spectrum.gap(i, j))
            g[i - 1, j - 1] = bath.gamma * (occupation + 1.0)   # decay j -> i
            g[j - 1, i - 1] = bath.gamma * occupation           # excitation i -> j
    if not np.all(np.isfinite(g)):
        raise DomainError("rates must be finite and nonnegative")
    # decays beat excitations: Gamma_ij = gamma(n+1) > Gamma_ji = gamma*n for i < j
    rows, cols = np.nonzero(np.triu(~(g > g.T), 1))
    if rows.size:
        raise DomainError(f"detailed-balance ordering violated at ({rows[0] + 1},{cols[0] + 1})")
    return _readonly(g)


def transition_matrix(spectrum: Spectrum, bath: Bath) -> np.ndarray:
    """A_beta, read-only: strictly positive jump rates off the diagonal, -(column loss) on it."""
    g = rate_matrix(spectrum, bath)
    if np.any(g[~np.eye(len(g), dtype=bool)] <= 0):
        raise DomainError("off-diagonal entries must be strictly positive")
    a = np.array(g)
    np.fill_diagonal(a, [-math.fsum(g[:, j]) for j in range(len(g))])
    return _readonly(a)


def stationary_distribution(a: np.ndarray) -> np.ndarray:
    """Probability-normalized null vector of the generator array A_beta, read-only.

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
    return _gibbs(pi / math.fsum(pi))


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
