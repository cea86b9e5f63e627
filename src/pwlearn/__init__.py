"""Online learning of smooth single-variable functions on [0, 1].

The package ships a piecewise-linear function core, an interpolation learner
with baselines, an adaptive lower-bound adversary on the dyadic schedule,
closed-form loss-bound calculators, and a seeded experiment harness with a
CLI front end.
"""

__version__ = "0.1.0"

from .errors import (
    AuditFailure,
    DegenerateInput,
    DivergenceError,
    DomainError,
    DuplicateConflict,
    Error,
    InequalityViolation,
    PreconditionError,
    SequenceError,
    UnknownKind,
)
from .pwl import (
    PiecewiseLinearFunction,
    derivative_norm,
    energy,
    energy_increment,
    evaluate,
    evaluate_many,
    from_points,
    function_from_json,
    function_to_json,
    integrate_energy_oracle,
    is_member,
    load_function,
)
from .learner import (
    LEARNER_KINDS,
    Learner,
    LinintLearner,
    LossAccount,
    NearestLearner,
    Trace,
    ZeroLearner,
    kl_invariants,
    make_learner,
    run_trials,
    write_trace_csv,
)
from .adversary import (
    AdversaryConfig,
    AdversaryState,
    EnergyAudit,
    MatchAudit,
    MatchResult,
    MatchTrace,
    StageSummary,
    audit_energy,
    dyadic_x,
    perturbation,
    run_match,
    stage_of,
)
from .bounds import (
    BoundReport,
    ProofInequalityReport,
    bound_report,
    check_proof_inequalities,
    kl_d_bound,
    lower_bound_closed_form,
    lower_bound_partial,
    upper_bound_linint,
)
from .harness import (
    MAX_STAGES,
    AuditReport,
    ExperimentConfig,
    SweepRow,
    parse_epsilon_grid,
    run_invariant_audit,
    run_sweep,
    sample_target,
)
