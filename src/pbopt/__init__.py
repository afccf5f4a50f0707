"""Pessimistic bilevel optimization via complementarity relaxation.

The package evaluates the relaxed pessimistic value function by inner
maximisation over the relaxed follower KKT set, minimises it over the
leader's feasible set along a decreasing relaxation schedule, and certifies
stationarity and qualification conditions at candidate solutions.
"""
from .benchlib import AnalyticOracle, get_problem, make_example1, make_example2, make_synthetic2d, oracle_grid, problem_names
from .kkt import (
    IndexSets,
    InfeasiblePointError,
    KktResidual,
    SlaterResult,
    check_slater,
    check_upper_regularity,
    classify_indices,
    kkt_residual,
)
from .maxmin import (
    BruteForceResult,
    GridSpec,
    InnerConfig,
    InnerInfeasibleError,
    InnerSolveResult,
    SampledSet,
    approximate_argmax_set,
    brute_force_psi_t,
    evaluate_psi_t,
    evaluate_psi_t_batch,
)
from .problem_model import (
    BilevelProblem,
    GradCheckReport,
    ProblemDims,
    TriplePoint,
    check_gradients_fd,
    lagrangian_grad,
    lagrangian_jacobians,
)
from .scholtes import (
    MinimizeResult,
    OuterConfig,
    OuterInfeasibleError,
    RelaxationParams,
    RunTrace,
    TraceRecord,
    minimize_psi_t,
    scholtes_solve,
)
from .setvalued import ExcessEntry, ExcessSeries, convergence_diagnostic, excess, hausdorff, sample_relaxed_set
from .stationarity import (
    BorderlineActivityWarning,
    Multipliers,
    PatternCapError,
    QualificationReport,
    RelaxedMultipliers,
    StationarityReport,
    check_cq1,
    check_qualification_Am,
    check_relaxed_stationarity,
    check_stationarity,
    recover_c_multipliers,
    recover_relaxed_multipliers,
)

__version__ = "0.1.0"
