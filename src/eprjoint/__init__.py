"""Two-qubit EPR probabilities, Bell-CHSH checks in correlation and
probability form, and the complete family of joint quadruple distributions
reproducing three or four EPR experiments, cross-validated by an
independent linear-feasibility oracle."""

from .chsh import (
    ChshReport,
    CVariant,
    c_function,
    chsh_correlation_form,
    chsh_probability_form,
)
from .construction import (
    ConstructionTrace,
    FamilyParams,
    Interval,
    QuadDistribution,
    SweepResult,
    TripleProbs,
    construct_3exp,
    construct_4exp,
    construct_trace,
    interval_p_aprime_bprime,
    interval_p_dotdot,
    interval_p_plusplus,
    interval_p_pp_bb,
    invert_params,
    marginal_residuals,
    step1_triples,
    step2_quadruple,
    sweep_grid,
)
from .errors import (
    ChshViolationError,
    EprJointError,
    InputInconsistencyError,
    InternalInvariantError,
    UsageError,
    ValidationError,
)
from .experiments import (
    CorrelationSet,
    ExperimentalProbs,
    correlations_of,
    frechet_bounds,
)
from .oracle import (
    FeasibilityResult,
    MarginalSystem,
    build_system,
    feasible,
    solve_system,
)
from .quantum import (
    AnalyzerSettings,
    DensityMatrix,
    chsh_optimal_settings,
    experimental_probs,
    ket_state,
    maximally_mixed,
    singlet,
    werner,
)

__version__ = "0.1.0"
