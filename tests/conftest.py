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

import numpy as np

from thermoqfi import Bath, DensityMatrix, QubitInit, Scenario, Spectrum


def random_scenario(rng) -> Scenario:
    omega = float(rng.uniform(0.3, 3.0))
    beta = float(rng.uniform(0.2, 3.0)) / omega
    return Scenario.qubit(
        omega12=omega,
        beta=beta,
        gamma=float(rng.uniform(0.2, 3.0)),
        a=float(rng.uniform(0.0, 1.0)),
        r=float(rng.uniform(0.0, 1.0)),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def random_time(rng, scenario: Scenario, lo: float = 0.0) -> float:
    return float(rng.uniform(lo, 10.0 / abs(scenario.relaxation_rate)))


def random_nlevel_model(rng, n_max: int = 8):
    n = int(rng.integers(2, n_max + 1))
    gaps = rng.uniform(0.3, 2.0, size=n - 1)
    spectrum = Spectrum(energies=tuple(np.concatenate([[0.0], np.cumsum(gaps)])))
    bath = Bath(beta=float(rng.uniform(0.2, 1.5)), gamma=float(rng.uniform(0.2, 3.0)))
    return spectrum, bath


def random_mixed_state(rng, n: int) -> DensityMatrix:
    """Full-rank N-level state: 0.7 x random populations + 0.3 x a random pure state."""
    p = rng.uniform(0.2, 1.0, size=n)
    p /= p.sum()
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    mat = 0.7 * np.diag(p).astype(complex) + 0.3 * np.outer(psi, psi.conj())
    return DensityMatrix(elements=(mat + mat.conj().T) / 2.0)


def reference_scenario(a: float = 0.0, r: float = 0.0, phi: float = 0.0) -> Scenario:
    """omega12 = 1, pi2 = 1/4 (beta = ln 3), gamma = 1: the worked example."""
    return Scenario.qubit(omega12=1.0, beta=math.log(3.0), gamma=1.0, a=a, r=r, phi=phi)


def coherent_init(a: float, r: float = 1.0, phi: float = 0.0) -> QubitInit:
    return QubitInit(a=a, r=r, phi=phi)
