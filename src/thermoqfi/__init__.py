"""Quantum Fisher information thermometry for a dissipatively coupled qubit probe.

The package models an N-level probe thermalizing under a detailed-balance
generator, computes the symmetric logarithmic derivative and the quantum
Fisher information for inverse-temperature estimation in closed form for the
qubit, decomposes the QFI into its population part plus the coherence gain,
and checks Cramer-Rao saturation of the binomial population estimator by
Monte Carlo.

The namespace is lazy (PEP 562): `import thermoqfi` loads no submodule and no
numpy, and each public name imports its module on first use.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "dynamics": (
        "QubitInit", "beta_from_thermal_ratio", "evolve_state_derivative",
        "gad_master_comparison", "gad_params", "gad_stationary_diagnostic",
        "gamma_from_tau_tilde", "qubit_relaxation_rate",
    ),
    "errors": (
        "DomainError", "EstimatorUndefinedError", "ModelIntegrityError",
        "NoStationaryStateError",
    ),
    "metrology": (
        "CramerRaoReport", "OptimalTime", "RegionLabel", "StateRanking",
        "classify_region", "cramer_rao_report", "maximize_qfi_over_time",
        "optimize_initial_state",
    ),
    "qfi": (
        "QfiResult", "beta_derivative_qubit", "diagonal_qfi", "qfi_decomposition",
        "qfi_values", "sld_general", "thermal_population_derivative", "thermal_qfi",
    ),
    "spectrum": (
        "Bath", "SpectralReport", "Spectrum", "rate_matrix", "spectral_report",
        "stationary_distribution", "thermal_distribution", "thermal_ratio", "transition_matrix",
    ),
    "validate": ("CheckResult", "check_names", "run_checks"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # A resolved name is not cached here: the value always comes from its
    # module, so whatever rebinds it there (a tracer, a test's monkeypatch) is seen.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
