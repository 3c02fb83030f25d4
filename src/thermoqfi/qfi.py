"""Symmetric logarithmic derivatives and quantum Fisher information.

Implements the QFI forms used for inverse-temperature estimation. The
general-N path has the thermal-state variance formula, the diagonal-state
sum and the eigenbasis Lyapunov solver with the coherence decomposition
F = F_d + Tr[rho Ltilde^2]. The qubit has one closed-form kernel,
_qfi_terms: the only producer of a qubit's Fisher information, which for a
diagonal start is also that of the population measurement. It returns
f = F/F_th from (beta omega, a, r, gamma t) alone; callers form F = F_th f. The
closed-form evolved qubit state and its beta-derivative feed the Lyapunov
solver for the qubit SLD.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import DensityMatrix, QubitInit, _qubit_model_of, _QubitModel, as_state
from .errors import DomainError, ModelIntegrityError
from .spectrum import Bath, Spectrum, thermal_distribution

# Eigenvalue pairs of rho with p_m + p_n at or below this guard are outside
# the numerical support of the general-N path (sld_general, diagonal_qfi,
# qfi_decomposition) and contribute zero there. The qubit closed form has no
# such guard: it clamps only where D <= 0 (_clamp).
EPS_GUARD = 1e-12


class _Terms(NamedTuple):
    """Per-time ingredients of the closed-form qubit QFI, SLD and derivative, free of dpi2."""

    p2: np.ndarray          # excited population
    mod2: np.ndarray        # |rho12|^2
    alpha_hat: np.ndarray   # d rho12/d beta = dpi2 * alpha_hat * rho12(t), alpha_hat = -lam_hat^2 s
    delta: np.ndarray       # relaxation weight: d p2/d beta = dpi2 * delta
    denom: np.ndarray       # D = (1 - p2) p2 - |rho12|^2, a sum of nonnegative terms (_start)
    decay: np.ndarray       # e = e^{lam_hat s}
    u: np.ndarray           # 1 - e, from expm1
    f: np.ndarray           # F/F_th; 0 only where D <= 0, at an exactly pure state


def _scaled_time(gamma: float, t) -> np.ndarray:
    """The kernel's time s = gamma t of finite, nonnegative times t; inf where gamma t overflows.

    At s = inf the kernel's f is nan, which _check_finite rejects naming t.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if np.any(t < 0):
        raise DomainError("times must be nonnegative")
    with np.errstate(over="ignore"):
        return gamma * t


def _start(m: _QubitModel, a, r):
    """|rho12(0)|^2 = r^2 a (1-a) and the weights (d0, d1, d2) of D = d0 e + d1 e u + d2 u^2.

    With e = e^{lam_hat s} and u = 1 - e, D = (1 - p2) p2 - |rho12|^2 equals
    a (1-a)(1-r)(1+r) e + ((a - pi2)^2 + pi2 (1-pi2)) e u + pi2 (1-pi2) u^2.
    No weight is negative, so D does not cancel at low temperature or near a
    pure state, and it is 0 only at s = 0 from a pure state (r = 1 or a in {0, 1}).
    """
    pop = a * (1.0 - a)
    thermal = m.pi2 * (1.0 - m.pi2)
    return pop * r * r, pop * (1.0 - r) * (1.0 + r), (a - m.pi2) ** 2 + thermal, thermal


def _clamp(denom, value):
    """value, set to 0 where D <= 0: only an exactly pure state, where f and df/ds tend to 0."""
    return np.where(denom <= 0.0, 0.0, value)


def _qfi_kernel(m: _QubitModel, gamma: float, a, r, t) -> _Terms:
    """_qfi_terms at s = gamma t, raising DomainError where f overflows double precision."""
    terms = _qfi_terms(m, a, r, _scaled_time(gamma, t))
    _check_finite(terms.f, t)
    return terms


def _qfi_terms(m: _QubitModel, a, r, s) -> _Terms:
    """Closed-form qubit QFI over the thermal QFI, and its per-time terms, broadcast.

    a (initial excited population) and r (coherence fraction, |rho12(0)|^2 =
    r^2 a (1-a)) broadcast against the scaled times s = gamma t, e.g. shape
    (states, 1) against (n_times,). Every s-only factor (the exponentials,
    alpha_hat) is formed on s alone before it meets a, so each element carries
    the same bits as a single-state call. An s so late that the closed form
    overflows double precision gives inf or nan, which _qfi_kernel and
    trace_blocks reject.

    The QFI depends on gamma only through s: d lam/d beta = -(2 lam^2/gamma) dpi2
    gives alpha_hat = -lam_hat^2 s and
    delta = 1 - e^{lam_hat s} + 2 lam_hat^2 s e^{lam_hat s} (pi2 - a). As dpi2^2 =
    F_th pi2 (1-pi2), F = F_th f with m = |rho12|^2, D summed as in _start and
    f = pi2 (1-pi2) [delta^2 + 4 m (alpha_hat^2 (1-p2) p2 - alpha_hat (1-2 p2) delta - delta^2)]/D,
    so no dpi2^2 ~ e^{-2 beta omega} is formed to underflow. At r = 0, F is
    (dpi2 delta)^2/((1-p2) p2), the Fisher information of the population measurement.
    """
    mod2_0, d0, d1, d2 = _start(m, a, r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        decay = m.decay(s)
        u = -np.expm1(m.lam_hat * s)
        p2 = m.pi2 - decay * (m.pi2 - a)
        mod2 = mod2_0 * decay
        alpha_hat = -(m.lam_hat * m.lam_hat) * s
        delta = u + 2.0 * (m.lam_hat * m.lam_hat) * s * decay * (m.pi2 - a)
        denom = d0 * decay + d1 * (decay * u) + d2 * (u * u)
        q = alpha_hat**2 * (1.0 - p2) * p2 - alpha_hat * (1.0 - 2.0 * p2) * delta - delta**2
        f = d2 * (delta**2 + 4.0 * mod2 * q) / denom
    return _Terms(p2, mod2, alpha_hat, delta, denom, decay, u, _clamp(denom, f))


def _qfi_slope(m: _QubitModel, a, r, s) -> np.ndarray:
    """Exact s-derivative of the kernel's f, broadcast like it; 0 where it clamps.

    It has the sign of dF/dt = gamma F_th df/ds. With e = e^{lam_hat s} and u = 1 - e:
    p2' = -lam_hat e (pi2 - a), m' = lam_hat m, alpha_hat' = -lam_hat^2,
    delta' = -lam_hat e + 2 lam_hat^2 (pi2 - a) e (1 + lam_hat s) and, from the
    terms of _start, D' = lam_hat (d0 e + d1 e (u - e) - 2 d2 e u).
    Kept out of the kernel so that only a refinement inside a checked grid pays for it.
    """
    k = _qfi_terms(m, a, r, s)
    p2, mod2, alpha, delta, decay, u = k.p2, k.mod2, k.alpha_hat, k.delta, k.decay, k.u
    _, d0, d1, d2 = _start(m, a, r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dp2 = -m.lam_hat * decay * (m.pi2 - a)
        dmod2 = m.lam_hat * mod2
        dalpha = -(m.lam_hat * m.lam_hat)
        ddelta = -m.lam_hat * (decay + 2.0 * (1.0 + m.lam_hat * s) * dp2)
        ddenom = m.lam_hat * (d0 * decay + d1 * (decay * (u - decay)) - 2.0 * d2 * (decay * u))
        w, v = 1.0 - 2.0 * p2, (1.0 - p2) * p2
        q = alpha**2 * v - alpha * w * delta - delta**2
        dq = (alpha * (2.0 * dalpha * v + alpha * w * dp2 + 2.0 * dp2 * delta - w * ddelta)
              - dalpha * w * delta - 2.0 * delta * ddelta)
        dnum = 2.0 * delta * ddelta + 4.0 * (dmod2 * q + mod2 * dq)
        slope = (d2 * dnum - k.f * ddenom) / k.denom
    return _clamp(k.denom, slope)


def _check_finite(values, t) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"the closed form overflows double precision on times up to {np.max(t):g}; "
            "shorten the time window"
        )


def _thermal_scale(asymptote: float, f) -> np.ndarray:
    """F = F_th f of a finite f, raising DomainError where the product overflows."""
    with np.errstate(over="ignore"):
        values = asymptote * f
    if not np.all(np.isfinite(values)):
        raise DomainError(
            "the closed form overflows double precision: the thermal QFI "
            f"F_th = {asymptote:g} set by the gap leaves F = F_th f outside the double range"
        )
    return values


def _qubit_point(init: QubitInit, spectrum: Spectrum, bath: Bath, t: float):
    """The model, the kernel's terms (as floats) and rho12(t) of one state at one time."""
    m = _qubit_model_of(spectrum, bath)
    terms = _qfi_kernel(m, bath.gamma, init.a, init.r, t)
    rho12 = m.envelope(init.rho12_0, bath.gamma * t) * np.exp(1j * m.omega * t)
    return m, _Terms(*map(float, terms)), complex(rho12)


@dataclass(frozen=True)
class QfiResult:
    """QFI split into the populations' part F_d and the coherence gain F - F_d."""

    total: float
    diagonal_part: float
    coherence_gain: float

    def __post_init__(self) -> None:
        for name in ("total", "diagonal_part", "coherence_gain"):
            if getattr(self, name) < -1e-12:
                raise ModelIntegrityError(f"{name} must be nonnegative (within -1e-12)")
        mismatch = abs(self.total - (self.diagonal_part + self.coherence_gain))
        if mismatch > 1e-9 * max(abs(self.total), 1e-12):
            raise ModelIntegrityError("QFI parts do not sum to the total")


def beta_derivative_qubit(
    init: QubitInit, spectrum: Spectrum, bath: Bath, t: float
) -> tuple[DensityMatrix, np.ndarray]:
    """The closed-form evolved qubit state rho(t) and its partial derivative d rho/d beta.

    d rho/d beta = [[-g, alpha rho12], [alpha rho12*, g]] with g = dpi2 * delta
    the derivative of rho22, alpha = alpha_hat * dpi2 and
    dpi2 = -(1-pi2) pi2 omega: the same pair that dynamics.evolve_state_derivative
    gives for any N without this closed form.
    """
    m, terms, rho12 = _qubit_point(init, spectrum, bath, t)
    p2, g, d12 = terms.p2, m.dpi2 * terms.delta, terms.alpha_hat * m.dpi2 * rho12
    rho = DensityMatrix(elements=np.array([[1.0 - p2, rho12], [rho12.conjugate(), p2]]))
    return rho, np.array([[-g, d12], [d12.conjugate(), g]], dtype=complex)


def thermal_population_derivative(spectrum: Spectrum, beta_tilde: float) -> np.ndarray:
    """Total derivative of the Gibbs populations: d pi_j = (<H> - eps_j) pi_j."""
    pi = thermal_distribution(spectrum, beta_tilde)
    eps = np.asarray(spectrum.energies, dtype=float)
    mean = math.fsum(eps * pi)
    return (mean - eps) * pi


def thermal_qfi(spectrum: Spectrum, beta_tilde: float) -> float:
    """QFI of the thermal state itself: the energy variance.

    F = sum_j (<H> - eps_j)^2 pi_j; for a qubit this is omega12^2 pi2 (1-pi2).
    F scales as the squared gap, so an extreme gap (or a Gibbs weight near
    underflow) takes it out of the double range; where it is not a positive
    normal double, DomainError is raised.
    """
    pi = thermal_distribution(spectrum, beta_tilde)
    eps = np.asarray(spectrum.energies, dtype=float)
    mean = math.fsum(eps * pi)
    with np.errstate(over="ignore"):
        value = math.fsum((mean - eps) ** 2 * pi)
    if not sys.float_info.min <= value < math.inf:
        raise DomainError(
            f"the thermal QFI sum_j (<H> - eps_j)^2 pi_j = {value:g} is not a positive "
            "normal double: the gap or the temperature is past the edge of double precision"
        )
    return value


def diagonal_qfi(p, dp) -> float:
    """Classical Fisher information of the populations: sum dp_k^2 / p_k.

    Components with p_k at or below the support guard contribute nothing
    unless dp_k is significant there, in which case the information diverges
    and math.inf is returned (flag, not an exception). Non-finite p or dp
    raise DomainError.
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if p.shape != dp.shape or p.ndim != 1:
        raise DomainError("p and dp must be vectors of equal length")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(dp))):
        raise DomainError("p and dp must be finite")
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
    if not np.all(np.isfinite(d)):
        raise DomainError("drho must be finite")
    scale = max(1.0, float(np.max(np.abs(d)))) if d.size else 1.0
    if np.max(np.abs(d - d.conj().T)) > 1e-12 * scale:
        raise DomainError("drho must be Hermitian")
    if abs(np.trace(d)) > 1e-8 * scale:
        raise DomainError("drho must be traceless")
    return d


def sld_general(rho: DensityMatrix | np.ndarray, drho) -> np.ndarray:
    """Solve the Lyapunov equation d rho = (L rho + rho L)/2 in the eigenbasis of rho.

    L_mn = 2 (drho)_mn / (p_m + p_n) over eigenvalue pairs inside the support;
    pairs with p_m + p_n <= EPS_GUARD are zeroed (support convention). L is
    returned Hermitian, and its Lyapunov residual must stay below
    1e-9 (1 + ||drho||_F), or ModelIntegrityError is raised.
    """
    state = as_state(rho)
    d = _validate_drho(drho)
    if d.shape != state.elements.shape:
        raise DomainError("drho must match the state dimension")
    values, vectors = np.linalg.eigh(state.elements)
    d_eig = vectors.conj().T @ d @ vectors
    pair_sums = values[:, None] + values[None, :]
    supported = pair_sums > EPS_GUARD
    # Both norms are taken on matrices scaled by the power of two that brings
    # the largest |drho| below 1, so that entries above about 1e154 cannot
    # square to inf and pass as inf <= inf. The scaling is exact, and a drho
    # with every entry below 1 is not scaled.
    scale = 2.0 ** -max(0, math.frexp(float(np.max(np.abs(d))))[1])
    # an overflowing solution leaves a nan residual: the check fails, with no warning first
    with np.errstate(over="ignore", invalid="ignore"):
        l_eig = np.where(supported, 2.0 * d_eig / np.where(supported, pair_sums, 1.0), 0.0)
        l = vectors @ l_eig @ vectors.conj().T
        l = (l + l.conj().T) / 2.0
        lyapunov = (l @ state.elements + state.elements @ l) / 2.0
        residual = float(np.linalg.norm((d - lyapunov) * scale))
        tol = 1e-9 * (scale + float(np.linalg.norm(d * scale)))
    if not residual <= tol:
        raise ModelIntegrityError(
            f"Lyapunov residual {residual / scale:.3e} exceeds {tol / scale:.3e}; "
            "drho is not supported on the state"
        )
    return l


def qfi_values(init: QubitInit, spectrum: Spectrum, bath: Bath, times) -> np.ndarray:
    """Vectorized qubit QFI over a time grid (totals only, no SLD assembly).

    The single-state call of the shared kernel, F = thermal_qfi * f. NaN, infinite or negative
    times, an F_th that is not a positive normal double and an overflowing F raise DomainError.
    """
    model = _qubit_model_of(spectrum, bath)
    asymptote = thermal_qfi(spectrum, bath.beta)
    return _thermal_scale(asymptote, _qfi_kernel(model, bath.gamma, init.a, init.r, times).f)


def _trace_columns(model: _QubitModel, gamma: float, init: QubitInit, asymptote: float, t) -> dict:
    """The trace columns at the times t, unchecked: an overflowed cell is inf or nan."""
    s = _scaled_time(gamma, t)
    terms = _qfi_terms(model, init.a, init.r, s)
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "t": t,
            "F": asymptote * terms.f,
            "F_norm": terms.f,
            "p2": terms.p2,
            "abs_rho12": model.envelope(np.abs(init.rho12_0), s),
            "dbeta_p2": model.dpi2 * terms.delta,
            "alpha": terms.alpha_hat * model.dpi2,
            "delta": terms.delta,
        }


def trace_blocks(init: QubitInit, spectrum: Spectrum, bath: Bath, times, rows: int):
    """All per-time trace quantities on a grid, rows times at a time, as an iterator of dicts.

    Each dict is keyed by output column name; rows=len(times) gives the
    whole grid as one block. The kernel is elementwise, so the blocks carry
    the bits of one block on the whole grid. If any column overflows
    anywhere, this raises DomainError before any block is handed out: naming
    the grid's largest time where the kernel overflows, or F_th where only
    F = F_th f does. The check computes each block and drops it; the
    iterator computes it again as it is consumed, so no array longer than
    rows is held besides times itself.
    """
    model = _qubit_model_of(spectrum, bath)
    t = np.asarray(times, dtype=float)
    asymptote = thermal_qfi(spectrum, bath.beta)
    blocks = [t[start : start + rows] for start in range(0, len(t), rows)]
    for block in blocks:
        columns = _trace_columns(model, bath.gamma, init, asymptote, block)
        del columns["F"]  # F_th f, checked by _thermal_scale once f is known finite
        for column in columns.values():
            _check_finite(column, t)
        _thermal_scale(asymptote, columns["F_norm"])
    return (_trace_columns(model, bath.gamma, init, asymptote, block) for block in blocks)


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
    total = float(np.trace(d @ sld).real)
    diagonal_part = diagonal_qfi(p, dp)
    l_d = np.where(p > EPS_GUARD, dp / np.where(p > EPS_GUARD, p, 1.0), 0.0)
    l_tilde = sld - np.diag(l_d)
    gain = float(np.trace(state.elements @ l_tilde @ l_tilde).real)
    if gain < -1e-12:
        raise ModelIntegrityError(f"coherence gain {gain:.3e} is negative beyond tolerance")
    mismatch = abs(total - (diagonal_part + gain))
    if mismatch > 1e-9 * max(abs(total), 1e-12):
        raise ModelIntegrityError(
            f"decomposition identity violated: |F - (F_d + gain)| = {mismatch:.3e}"
        )
    return QfiResult(total=total, diagonal_part=diagonal_part, coherence_gain=gain)
