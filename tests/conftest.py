"""Shared generators for randomized tests.

Parameter ranges are chosen so every sampled model is well conditioned:
beta*omega in [0.2, 3] keeps thermal ratios away from overflow, gamma of
order one keeps relaxation times of order one, and times are capped at ten
relaxation times, inside the transient (e^{lam t} >= e^{-10}). There the
state derivatives are of order one, so the 1e-12 tolerances against the
exact general-N derivative (dynamics.evolve_state_derivative) leave a margin
of some thousands of ulps.
"""

import math
import re

import mpmath
import numpy as np

from thermoqfi import Bath, QubitInit, Spectrum, beta_derivative_qubit, qubit_relaxation_rate

# The beta*omega range of the N-level rates, as the edge errors state it
RATE_RANGE = "the N-level rates support about 2.2e-16 <= beta*omega <= 709"


def exactly(message: str) -> str:
    """A match= pattern for the whole message and nothing else."""
    return f"^{re.escape(message)}$"


def qubit(omega12, beta, gamma, a, r=0.0, phi=0.0) -> tuple[QubitInit, Spectrum, Bath]:
    """The qubit thermometer (init, spectrum, bath) of these parameters."""
    return QubitInit(a=a, r=r, phi=phi), Spectrum.qubit(omega12), Bath(beta=beta, gamma=gamma)


def random_qubit(rng) -> tuple[QubitInit, Spectrum, Bath]:
    omega = float(rng.uniform(0.3, 3.0))
    beta = float(rng.uniform(0.2, 3.0)) / omega
    return qubit(
        omega12=omega,
        beta=beta,
        gamma=float(rng.uniform(0.2, 3.0)),
        a=float(rng.uniform(0.0, 1.0)),
        r=float(rng.uniform(0.0, 1.0)),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def random_time(rng, spectrum: Spectrum, bath: Bath, lo: float = 0.0) -> float:
    return float(rng.uniform(lo, 10.0 / abs(qubit_relaxation_rate(spectrum, bath))))


def closed_form_state(init: QubitInit, spectrum: Spectrum, bath: Bath, t: float) -> np.ndarray:
    """The closed-form qubit state rho(t): the p2 and rho12 that the QFI kernel uses."""
    return beta_derivative_qubit(init, spectrum, bath, t)[0]


def random_nlevel_model(rng, n_max: int = 8):
    n = int(rng.integers(2, n_max + 1))
    gaps = rng.uniform(0.3, 2.0, size=n - 1)
    spectrum = Spectrum(energies=tuple(np.concatenate([[0.0], np.cumsum(gaps)])))
    bath = Bath(beta=float(rng.uniform(0.2, 1.5)), gamma=float(rng.uniform(0.2, 3.0)))
    return spectrum, bath


def random_mixed_state(rng, n: int) -> np.ndarray:
    """Full-rank N-level state: 0.7 x random populations + 0.3 x a random pure state."""
    p = rng.uniform(0.2, 1.0, size=n)
    p /= p.sum()
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    mat = 0.7 * np.diag(p).astype(complex) + 0.3 * np.outer(psi, psi.conj())
    return (mat + mat.conj().T) / 2.0


def reference_qubit(a: float = 0.0, r: float = 0.0, phi: float = 0.0):
    """The worked example as (init, spectrum, bath): omega12 = 1, pi2 = 1/4, gamma = 1."""
    return qubit(omega12=1.0, beta=math.log(3.0), gamma=1.0, a=a, r=r, phi=phi)


def coherent_init(a: float, r: float = 1.0, phi: float = 0.0) -> QubitInit:
    return QubitInit(a=a, r=r, phi=phi)


def mp_qfi(omega, beta, gamma, a, r, t) -> float:
    """The qubit's QFI at time t, from its Bloch vector in mpmath.

    Nothing of the package is used: the Bloch vector (x, z) = (2 |rho12|, 1 - 2 p2)
    is built from pi2 = 1/(1 + e^{beta omega}) and lambda = gamma/(2 pi2 - 1),
    mp.diff takes its beta-derivative, and F = |r'|^2 + (r . r')^2/(1 - |r|^2).
    mp.diff needs at least 80 digits near a pure state (at 60 it was off by 8e-6
    at gamma t = 1e-12), and 1 - |r|^2 spends as many digits as it is small.
    Cold, 1 - |r|^2 is of order pi2 ~ e^{-beta omega}, which spends beta omega/ln 10
    (0.43 beta omega) digits, and the beta-derivative of p2 ~ pi2 spends as many
    again inside mp.diff's difference. So the working precision is
    120 + 0.9 beta omega digits: at a fixed 120 digits, 1 - |r|^2 rounds to 0 at
    beta omega = 400 and F is a ZeroDivisionError.
    """
    with mpmath.workdps(120 + math.ceil(0.9 * beta * omega)):
        omega, beta, gamma, a, r, t = map(mpmath.mpf, (omega, beta, gamma, a, r, t))

        def bloch(b):
            pi2 = 1 / (1 + mpmath.exp(b * omega))
            lam = gamma / (2 * pi2 - 1)
            p2 = pi2 + mpmath.exp(lam * t) * (a - pi2)
            return 2 * r * mpmath.sqrt(a * (1 - a)) * mpmath.exp(lam * t / 2), 1 - 2 * p2

        x, z = bloch(beta)
        dx = mpmath.diff(lambda b: bloch(b)[0], beta)
        dz = mpmath.diff(lambda b: bloch(b)[1], beta)
        return float(dx * dx + dz * dz + (x * dx + z * dz) ** 2 / (1 - x * x - z * z))
