"""Two-qubit EPR probabilities, Bell-CHSH checks in correlation and
probability form, and the complete family of joint quadruple distributions
reproducing three or four EPR experiments, cross-validated by an
independent linear-feasibility oracle."""

import importlib
import types

from .chsh import (
    ChshReport,
    CVariant,
    c_function,
    chsh_probability_form,
)
from .construction import (
    ConstructionTrace,
    FamilyParams,
    Interval,
    SweepResult,
    construct_3exp,
    construct_4exp,
    construct_trace,
    interval_p_aprime_bprime,
    interval_p_dotdot,
    interval_p_plusplus,
    invert_params,
    marginal_residuals,
    step1_triples,
)
from .errors import (
    ChshViolationError,
    EprJointError,
    InternalInvariantError,
    ValidationError,
)
from .experiments import (
    ExperimentalProbs,
    QuadDistribution,
    correlations_of,
    frechet_bounds,
)
from .oracle import (
    FeasibilityResult,
    MarginalSystem,
    build_system,
    solve_system,
)

__version__ = "0.1.0"

# Names whose modules import numpy, loaded on first access (PEP 562), so
# `import eprjoint` and the scalar routes do not pay for numpy.
_LAZY = {
    **dict.fromkeys((
        "AnalyzerSettings",
        "DensityMatrix",
        "chsh_optimal_settings",
        "experimental_probs",
        "ket_state",
        "maximally_mixed",
        "singlet",
        "werner",
    ), "quantum"),
    "sweep_grid": "sweep",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# `from eprjoint import *` copies only the module's globals unless __all__
# names the lazy ones too.
__all__ = sorted([
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_LAZY))
