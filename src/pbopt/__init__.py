"""Pessimistic bilevel optimization via complementarity relaxation.

The package evaluates the relaxed pessimistic value function by inner
maximisation over the relaxed follower KKT set, minimises it over the
leader's feasible set along a decreasing relaxation schedule, and certifies
stationarity and qualification conditions at candidate solutions.

Submodules, and the public names below, are loaded on first use (PEP 562),
so ``import pbopt`` loads no submodule and no scipy module.  Of the
submodules, only the certifier's (``kkt``, ``simplex``, ``stationarity``)
import scipy when loaded.
"""
import importlib

_SUBMODULES = (
    "benchlib", "cli", "kkt", "maxmin", "problem_model", "scholtes", "setvalued", "simplex", "stationarity",
)
# Public names by the submodule that defines them.
_EXPORTS = {
    "benchlib": (
        "AnalyticOracle", "get_problem", "make_example1", "make_example2", "make_synthetic2d", "oracle_grid",
        "problem_names",
    ),
    "kkt": (
        "IndexSets", "InfeasiblePointError", "KktResidual", "SlaterResult", "check_slater",
        "check_upper_regularity", "classify_indices", "kkt_residual",
    ),
    "maxmin": (
        "BruteForceResult", "GridSpec", "InnerConfig", "InnerInfeasibleError", "InnerSolveResult", "SampledSet",
        "approximate_argmax_set", "brute_force_psi_t", "evaluate_psi_t", "evaluate_psi_t_batch",
    ),
    "problem_model": (
        "BilevelProblem", "GradCheckReport", "ProblemDims", "TriplePoint", "check_gradients_fd",
        "lagrangian_grad", "lagrangian_jacobians",
    ),
    "scholtes": (
        "MinimizeResult", "OuterConfig", "OuterInfeasibleError", "RelaxationParams", "RunTrace", "TraceRecord",
        "minimize_psi_t", "scholtes_solve",
    ),
    "setvalued": (
        "ExcessEntry", "ExcessSeries", "convergence_diagnostic", "excess", "hausdorff", "sample_relaxed_set",
    ),
    "stationarity": (
        "BorderlineActivityWarning", "Multipliers", "PatternCapError", "QualificationReport",
        "RelaxedMultipliers", "StationarityReport", "check_cq1", "check_qualification_Am",
        "check_relaxed_stationarity", "check_stationarity", "recover_c_multipliers",
        "recover_relaxed_multipliers",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Names are looked up in their module on every access, not copied here, so
    # rebinding a module attribute rebinds the package name with it.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULES) | set(__all__))
