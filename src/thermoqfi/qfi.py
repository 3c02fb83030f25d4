"""Symmetric logarithmic derivatives and quantum Fisher information.

Implements the four QFI forms used for inverse-temperature estimation: the
thermal-state variance formula, the diagonal-state sum, the general
eigenbasis Lyapunov solver with the coherence decomposition
F = F_d + Tr[rho Ltilde^2], and the analytic qubit expressions built on the
closed-form beta-derivatives of the evolved state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import DensityMatrix, QubitInit, _qubit_model_of, _QubitModel, as_state
from .errors import DomainError, ModelIntegrityError
from .spectrum import Bath, Spectrum, _readonly, thermal_distribution

# Eigenvalue pairs of rho with p_m + p_n at or below this guard are outside
# the numerical support and contribute zero to the SLD.
EPS_GUARD = 1e-12


class _Terms(NamedTuple):
    """Per-time ingredients of the closed-form qubit QFI, SLD and derivative."""

    p2: np.ndarray      # excited population
    mod2: np.ndarray    # |rho12|^2
    alpha: np.ndarray   # coherence log-derivative: d rho12/d beta = alpha * rho12(t)
    delta: np.ndarray   # relaxation weight: d p2/d beta = dpi2 * delta
    g: np.ndarray       # d p2/d beta
    denom: np.ndarray   # D = (1 - p2) p2 - |rho12|^2
    total: np.ndarray   # the QFI; 0 where D is at or below EPS_GUARD (pure state)


def _qfi_kernel(m: _QubitModel, a, mod2_0, t) -> _Terms:
    """_qfi_terms, raising DomainError where the total overflows double precision."""
    terms = _qfi_terms(m, a, mod2_0, t)
    _check_finite(terms.total, t)
    return terms


def _qfi_terms(m: _QubitModel, a, mod2_0, t) -> _Terms:
    """Closed-form qubit QFI and its per-time terms, broadcast over states and times.

    a (initial excited population) and mod2_0 = |rho12(0)|^2 broadcast
    against the times t, e.g. shape (states, 1) against (n_times,). Every
    t-only factor (the exponentials, alpha) is formed on t alone before it
    meets a, so each element carries the same bits as a single-state call.
    Times must be finite and nonnegative. Times so late that the closed form
    overflows double precision give inf or nan; _qfi_kernel rejects those.

    delta = 1 - e^{lam t} + (2/gamma) t lam^2 e^{lam t} (pi2 - a); the 1/gamma
    comes from d lam/d beta = -(2 lam^2/gamma) dpi2 and makes the trace a
    function of gamma*t only. lam^2/gamma is formed as (lam/gamma) lam, which
    is of order gamma, so it neither underflows (gamma below about 1e-154)
    nor overflows (above about 1e154) where lam^2 alone would. The total is
    g^2/D + 4 m (alpha^2 (1-p2) p2 - alpha (1-2 p2) g - g^2)/D with m = |rho12|^2.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if np.any(t < 0):
        raise DomainError("times must be nonnegative")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        decay = m.decay(t)
        p2 = m.p2(a, t)
        mod2 = mod2_0 * decay
        alpha = -(m.lam / m.gamma * m.lam) * t * m.dpi2
        delta = -np.expm1(m.lam * t) + 2.0 * (m.lam / m.gamma * m.lam) * t * decay * (m.pi2 - a)
        g = m.dpi2 * delta
        denom = (1.0 - p2) * p2 - mod2
        total = (
            g**2 / denom
            + 4.0
            * mod2
            * (alpha**2 * (1.0 - p2) * p2 - alpha * (1.0 - 2.0 * p2) * g - g**2)
            / denom
        )
    total = np.where(denom <= EPS_GUARD, 0.0, total)
    return _Terms(p2, mod2, alpha, delta, g, denom, total)


def _qfi_slope(m: _QubitModel, a, mod2_0, t) -> np.ndarray:
    """Exact t-derivative of the kernel's total, broadcast like it; 0 where it clamps.

    With e = e^{lam t}: p2' = -lam e (pi2 - a), m' = lam m, alpha' = -lam^2 dpi2/gamma,
    delta' = -lam e + (2/gamma) lam^2 (pi2 - a) e (1 + lam t), D' = (1 - 2 p2) p2' - m'.
    Kept out of the kernel so that only a refinement, not a grid scan, pays for it.
    """
    k = _qfi_kernel(m, a, mod2_0, t)
    p2, mod2, alpha, g = k.p2, k.mod2, k.alpha, k.g
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        decay = m.decay(t)
        dp2 = -m.lam * decay * (m.pi2 - a)
        dmod2 = m.lam * mod2
        dalpha = -(m.lam / m.gamma * m.lam) * m.dpi2
        dg = -m.dpi2 * m.lam * (decay + 2.0 / m.gamma * (1.0 + m.lam * t) * dp2)
        w, v = 1.0 - 2.0 * p2, (1.0 - p2) * p2
        q = alpha**2 * v - alpha * w * g - g**2
        dq = (alpha * (2.0 * dalpha * v + alpha * w * dp2 + 2.0 * dp2 * g - w * dg)
              - dalpha * w * g - 2.0 * g * dg)
        dnum = 2.0 * g * dg + 4.0 * (dmod2 * q + mod2 * dq)
        slope = (dnum - k.total * (w * dp2 - dmod2)) / k.denom
    return np.where(k.denom <= EPS_GUARD, 0.0, slope)


def _check_finite(values, t) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"the closed form overflows double precision on times up to {np.max(t):g}; "
            "shorten the time window"
        )


def _qubit_point(init: QubitInit, spectrum: Spectrum, bath: Bath, t: float):
    """The kernel's terms (as floats) and rho12(t) of one state at one time."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    m = _qubit_model_of(spectrum, bath)
    terms = _qfi_kernel(m, init.a, abs(init.rho12_0) ** 2, t)
    return _Terms(*map(float, terms)), complex(m.rho12(init.rho12_0, t))


@dataclass(frozen=True)
class DerivativeBundle:
    """Partial beta-derivative of the evolved state at fixed initial state."""

    d_populations: np.ndarray
    d_coherence: complex
    alpha: float
    delta: float

    def __post_init__(self) -> None:
        dp = np.asarray(self.d_populations, dtype=float)
        if not np.all(np.isfinite(dp)):
            raise DomainError("population derivative must be finite")
        scale = 1.0 + float(np.max(np.abs(dp))) if dp.size else 1.0
        if abs(math.fsum(dp)) > 1e-12 * scale:
            raise DomainError("population derivative components must sum to zero")
        object.__setattr__(self, "d_populations", _readonly(dp))


@dataclass(frozen=True)
class SldMatrix:
    """Hermitian solution L of the Lyapunov equation d rho = (L rho + rho L)/2."""

    elements: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        m = np.asarray(self.elements, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("SLD must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise DomainError("SLD must be Hermitian")
        object.__setattr__(self, "elements", _readonly(m))

    @property
    def l11(self) -> float:
        return float(self.elements[0, 0].real)

    @property
    def l22(self) -> float:
        return float(self.elements[1, 1].real)

    @property
    def l12(self) -> complex:
        return complex(self.elements[0, 1])


@dataclass(frozen=True)
class QfiResult:
    """QFI split into its diagonal part and the coherence gain, with the SLD used."""

    total: float
    diagonal_part: float
    coherence_gain: float
    sld: SldMatrix
    pure_state: bool = False

    def __post_init__(self) -> None:
        for name in ("total", "diagonal_part", "coherence_gain"):
            if getattr(self, name) < -1e-12:
                raise ModelIntegrityError(f"{name} must be nonnegative (within -1e-12)")
        mismatch = abs(self.total - (self.diagonal_part + self.coherence_gain))
        if mismatch > 1e-9 * max(abs(self.total), 1e-12):
            raise ModelIntegrityError("QFI parts do not sum to the total")


def beta_derivative_qubit(
    init: QubitInit, spectrum: Spectrum, bath: Bath, t: float
) -> DerivativeBundle:
    """Closed-form partial derivative of the evolved qubit state w.r.t. beta.

    d p = dpi2 * delta * [-1, 1] with dpi2 = -(1-pi2) pi2 omega;
    d rho12 = alpha * rho12(t). Checked against the general-N derivative
    dynamics.evolve_state_derivative, which does not use this closed form.
    """
    terms, rho12 = _qubit_point(init, spectrum, bath, t)
    return DerivativeBundle(
        d_populations=np.array([-terms.g, terms.g]),
        d_coherence=terms.alpha * rho12,
        alpha=terms.alpha,
        delta=terms.delta,
    )


def thermal_population_derivative(spectrum: Spectrum, beta_tilde: float) -> np.ndarray:
    """Total derivative of the Gibbs populations: d pi_j = (<H> - eps_j) pi_j."""
    pi = thermal_distribution(spectrum, beta_tilde).pi
    eps = np.asarray(spectrum.energies, dtype=float)
    mean = math.fsum(eps * pi)
    return (mean - eps) * pi


def thermal_qfi(spectrum: Spectrum, beta_tilde: float) -> float:
    """QFI of the thermal state itself: the energy variance.

    F = sum_j (<H> - eps_j)^2 pi_j; for a qubit this is omega12^2 pi2 (1-pi2).
    """
    pi = thermal_distribution(spectrum, beta_tilde).pi
    eps = np.asarray(spectrum.energies, dtype=float)
    mean = math.fsum(eps * pi)
    return math.fsum((mean - eps) ** 2 * pi)


def diagonal_qfi(p, dp) -> float:
    """Classical Fisher information of the populations: sum dp_k^2 / p_k.

    Components with p_k at or below the support guard contribute nothing
    unless dp_k is significant there, in which case the information diverges
    and math.inf is returned (flag, not an exception).
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if p.shape != dp.shape or p.ndim != 1:
        raise DomainError("p and dp must be vectors of equal length")
    if np.any(p < -1e-12):
        raise DomainError("p must be nonnegative")
    if abs(math.fsum(p) - 1.0) > 1e-9:
        raise DomainError("p must sum to one")
    scale = 1.0 + float(np.max(np.abs(dp)))
    if abs(math.fsum(dp)) > 1e-8 * scale:
        raise DomainError("dp components must sum to zero")
    total = 0.0
    for pk, dpk in zip(p, dp):
        if pk > EPS_GUARD:
            total += dpk * dpk / pk
        elif abs(dpk) > EPS_GUARD:
            return math.inf
    return total


def _validate_drho(drho: np.ndarray) -> np.ndarray:
    d = np.asarray(drho, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("drho must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(d)))) if d.size else 1.0
    if np.max(np.abs(d - d.conj().T)) > 1e-12 * scale:
        raise DomainError("drho must be Hermitian")
    if abs(np.trace(d)) > 1e-8 * scale:
        raise DomainError("drho must be traceless")
    return d


def sld_general(rho: DensityMatrix | np.ndarray, drho) -> SldMatrix:
    """Solve the Lyapunov equation in the eigenbasis of rho.

    L_mn = 2 (drho)_mn / (p_m + p_n) over eigenvalue pairs inside the support;
    pairs with p_m + p_n <= EPS_GUARD are zeroed (support convention). The
    returned matrix carries its Lyapunov residual, which must stay below
    1e-9 (1 + ||drho||_F).
    """
    state = as_state(rho)
    d = _validate_drho(drho)
    if d.shape != state.elements.shape:
        raise DomainError("drho must match the state dimension")
    values, vectors = np.linalg.eigh(state.elements)
    d_eig = vectors.conj().T @ d @ vectors
    pair_sums = values[:, None] + values[None, :]
    supported = pair_sums > EPS_GUARD
    l_eig = np.where(supported, 2.0 * d_eig / np.where(supported, pair_sums, 1.0), 0.0)
    l = vectors @ l_eig @ vectors.conj().T
    l = (l + l.conj().T) / 2.0
    residual = float(np.linalg.norm(d - (l @ state.elements + state.elements @ l) / 2.0))
    tol = 1e-9 * (1.0 + float(np.linalg.norm(d)))
    if residual > tol:
        raise ModelIntegrityError(
            f"Lyapunov residual {residual:.3e} exceeds {tol:.3e}; "
            "drho is not supported on the state"
        )
    return SldMatrix(elements=l, residual=residual)


def qubit_sld(init: QubitInit, spectrum: Spectrum, bath: Bath, t: float) -> SldMatrix:
    """Qubit SLD: the eigenbasis Lyapunov solution (sld_general) on the closed forms.

    rho(t) and d rho/d beta = [[-g, alpha rho12], [alpha rho12*, g]] come from
    the closed-form kernel (g = d rho22/d beta). At t=0 nothing depends on
    beta yet, so d rho/d beta and L vanish, pure start or not.
    """
    return _sld(*_qubit_point(init, spectrum, bath, t))


def _sld(terms: _Terms, rho12: complex) -> SldMatrix:
    p2, alpha, g = terms.p2, terms.alpha, terms.g
    d_mat = np.array(
        [[-g, alpha * rho12], [alpha * rho12.conjugate(), g]], dtype=complex
    )
    rho = np.array([[1.0 - p2, rho12], [rho12.conjugate(), p2]], dtype=complex)
    return sld_general(rho, d_mat)


def qubit_qfi(init: QubitInit, spectrum: Spectrum, bath: Bath, t: float) -> QfiResult:
    """Analytic qubit QFI split into diagonal part and coherence gain.

    total = g^2/D + 4 m (alpha^2 (1-p2) p2 - alpha (1-2 p2) g - g^2)/D;
    diagonal_part = g^2/(p2 (1-p2)); the phase phi never enters (only |rho12|^2
    appears). At the pure-state point (t=0, r=1) D vanishes while the
    numerator vanishes faster; the continuous limit F=0 is returned flagged.
    The SLD is qubit_sld's: the eigenbasis Lyapunov solution on the
    closed-form rho(t) and d rho/d beta.
    """
    terms, rho12 = _qubit_point(init, spectrum, bath, t)
    sld = _sld(terms, rho12)
    if terms.denom <= EPS_GUARD:
        return QfiResult(
            total=0.0, diagonal_part=0.0, coherence_gain=0.0, sld=sld, pure_state=True
        )
    diagonal_part = terms.g**2 / ((1.0 - terms.p2) * terms.p2)
    return QfiResult(
        total=terms.total,
        diagonal_part=diagonal_part,
        coherence_gain=terms.total - diagonal_part,
        sld=sld,
    )


def qfi_values(init: QubitInit, spectrum: Spectrum, bath: Bath, times) -> np.ndarray:
    """Vectorized qubit QFI over a time grid (totals only, no SLD assembly).

    The single-state call of the shared kernel; NaN, infinite or negative
    times raise DomainError.
    """
    model = _qubit_model_of(spectrum, bath)
    return _qfi_kernel(model, init.a, abs(init.rho12_0) ** 2, times).total


def _trace_columns(model: _QubitModel, init: QubitInit, asymptote: float, t) -> dict:
    """The trace columns at the times t, unchecked: an overflowed cell is inf or nan."""
    terms = _qfi_terms(model, init.a, abs(init.rho12_0) ** 2, t)
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "t": t,
            "F": terms.total,
            "F_norm": terms.total / asymptote,
            "p2": terms.p2,
            "abs_rho12": model.envelope(np.abs(init.rho12_0), t),
            "dbeta_p2": terms.g,
            "alpha": terms.alpha,
            "delta": terms.delta,
        }


def trace_blocks(init: QubitInit, spectrum: Spectrum, bath: Bath, times, rows: int):
    """All per-time trace quantities on a grid, rows times at a time, as an iterator of dicts.

    Each dict is keyed by output column name; rows=len(times) gives the
    whole grid as one block. The kernel is elementwise, so the blocks carry
    the bits of one block on the whole grid. If any column overflows
    anywhere, this raises DomainError naming the grid's largest time before
    any block is handed out. The check computes each block and drops it; the
    iterator computes it again as it is consumed, so no array longer than
    rows is held besides times itself.
    """
    model = _qubit_model_of(spectrum, bath)
    t = np.asarray(times, dtype=float)
    asymptote = thermal_qfi(spectrum, bath.beta)
    blocks = [t[start : start + rows] for start in range(0, len(t), rows)]
    for block in blocks:
        for column in _trace_columns(model, init, asymptote, block).values():
            _check_finite(column, t)
    return (_trace_columns(model, init, asymptote, block) for block in blocks)


def qfi_decomposition(rho: DensityMatrix | np.ndarray, drho) -> QfiResult:
    """Decompose the QFI of (rho, drho) into diagonal information plus gain.

    Solves the full Lyapunov problem for L, the diagonal problem for L_d,
    forms Ltilde = L - L_d, and checks F = F_d + Tr[rho Ltilde^2] to 1e-9
    relative. The gain is nonnegative: {rho, Ltilde} is hollow, so the cross
    terms of the expansion vanish.
    """
    state = as_state(rho)
    sld = sld_general(state, drho)
    d = np.asarray(drho, dtype=complex)
    p = state.populations
    dp = np.diag(d).real
    total = float(np.trace(d @ sld.elements).real)
    diagonal_part = diagonal_qfi(p, dp)
    l_d = np.where(p > EPS_GUARD, dp / np.where(p > EPS_GUARD, p, 1.0), 0.0)
    l_tilde = sld.elements - np.diag(l_d)
    gain = float(np.trace(state.elements @ l_tilde @ l_tilde).real)
    if gain < -1e-12:
        raise ModelIntegrityError(f"coherence gain {gain:.3e} is negative beyond tolerance")
    mismatch = abs(total - (diagonal_part + gain))
    if mismatch > 1e-9 * max(abs(total), 1e-12):
        raise ModelIntegrityError(
            f"decomposition identity violated: |F - (F_d + gain)| = {mismatch:.3e}"
        )
    return QfiResult(
        total=total, diagonal_part=diagonal_part, coherence_gain=gain, sld=sld
    )
