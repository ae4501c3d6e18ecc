"""Two-qubit EPR probabilities, Bell-CHSH checks in correlation and
probability form, and the complete family of joint quadruple distributions
reproducing three or four EPR experiments, cross-validated by an
independent linear-feasibility oracle."""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, by its module.  Each resolves on first access (PEP 562),
# so `import eprjoint` loads no submodule, and a caller loads only the
# modules whose names it reads.
_EXPORTS = {name: module for module, names in {
    "chsh": ("ChshReport", "chsh_probability_form"),
    "construction": ("ConstructionTrace", "FamilyParams", "Interval", "SweepResult",
                     "construct_3exp", "construct_4exp", "construct_trace",
                     "interval_p_aprime_bprime", "invert_params", "marginal_residuals"),
    "errors": ("ChshViolationError", "EprJointError", "InternalInvariantError",
               "ValidationError"),
    "experiments": ("ExperimentalProbs", "QuadDistribution", "frechet_bounds"),
    "oracle": ("FeasibilityResult", "MarginalSystem", "build_system", "solve_system"),
    "quantum": ("AnalyzerSettings", "DensityMatrix", "chsh_optimal_settings",
                "experimental_probs", "ket_state", "maximally_mixed", "singlet", "werner"),
    "sweep": ("sweep_grid",),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
