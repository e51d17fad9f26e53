"""Sparse linear model selection: screening, ordering, greedy GIC selection,
identifiability diagnostics, non-asymptotic bound evaluators and a Monte
Carlo lab."""

from .bounds import (
    BoundInput,
    BoundResult,
    bound_input_from_design,
    bound_report,
    chi2_tail_sandwich,
    corollary_bounds,
    derived_screen_size,
    event_a_bound,
    exhaustive_lower_bound,
    theorem1_bounds,
    theorem2_bound,
)
from .design import (
    Dataset,
    LsFit,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    ls_fit,
    rss,
    span_basis,
    standardize,
)
from .errors import (
    DegenerateResidual,
    DegenerateSelection,
    DomainError,
    EnumerationTooLarge,
    KappaDegenerate,
    NotConverged,
    RankDeficient,
    ScreenTooLarge,
    SosSelectError,
    TooManyPredictors,
    ZeroNormColumn,
)
from .identify import (
    IdentifiabilityReport,
    KappaEstimate,
    TruthSpec,
    check_propositions,
    delta_identifiability,
    delta_pair,
    delta_scaled,
    delta_scaled_argmin,
    kappa,
    kappa_uniform,
    min_subset_eigen,
)
from .lasso import (
    EventAWitness,
    LassoFit,
    OracleCheckReport,
    PenaltyPair,
    ScreenResult,
    default_penalties,
    event_a,
    kkt_gap,
    screen,
    solve_lasso,
    verify_oracle_inequalities,
)
from .schemas import load_schema
from .selection import (
    ExhaustiveResult,
    GicPath,
    Ordering,
    SelectionOutcome,
    exhaustive_gic,
    gic_path,
    order_by_t,
    run_os,
    run_sos,
)
from .simlab import (
    ExperimentSummary,
    FPivotReport,
    ScenarioConfig,
    TrialRecord,
    f_pivot_check,
    generate_trial,
    persist,
    pivot_dimension,
    run_experiment,
)

__version__ = "0.1.0"
