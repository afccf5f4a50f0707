"""Membership, residuals and active-set structure of the follower KKT system.

For a leader point x the follower's KKT conditions carve out a set of pairs
(y, u); its complementarity product constraint -u_i * g_i(x, y) <= t with
t > 0 is the relaxation driven to zero by the homotopy.  This module decides
membership, classifies active sets, and runs the two leader-side regularity
diagnostics (strict follower feasibility and the leader-gradient condition).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .problem_model import Array, BilevelProblem, TriplePoint, relaxation_level, relaxed_rows
from .simplex import cone_has_nonzero

# The certifier's tolerances: a value within EPS_ACT_DEFAULT of zero counts as
# active, and multiplier recovery and the qualification checks refuse a point
# violating by more than FEAS_TOL_DEFAULT.
EPS_ACT_DEFAULT = 1e-6
FEAS_TOL_DEFAULT = 1e-8
# The Slater probe: seeded Nelder-Mead starts drawn in y_box, and the margin
# max_i g_i(x, y) <= -SLATER_EPS_STRICT a strictly feasible y must clear.
SLATER_STARTS = 12
SLATER_SEED = 0
SLATER_EPS_STRICT = 1e-6


class InfeasiblePointError(ValueError):
    """Raised when an operation requires a KKT-feasible point and is given none."""


def largest(values) -> float:
    """max(0.0, *values) as numpy's max with initial=0.0 gives it (NaN when a value is NaN), over Python floats.

    The certifier's fields and rows are a handful of floats each, where numpy's reductions cost several times more.
    """
    top = 0.0
    for val in values:
        if val > top:
            top = val
        elif val != val:
            return math.nan
    return top


@dataclass(frozen=True)
class KktResidual:
    """Componentwise violation record for one (x, y, u) at relaxation level t.

    The record is read-only: its arrays cannot be written, and its largest
    violation (``violation``) is computed once, as it is built.  A field with
    a non-finite entry counts as infinitely violated.
    """

    stationarity: Array  # signed follower-stationarity vector
    dual_viol: Array  # max(0, -u)
    primal_viol: Array  # max(0, g)
    compl: float  # |u @ g|
    relax_viol: Array  # max(0, -u_i g_i - t)
    t: float
    g: Array  # the follower constraints g(x, y) the record was built from
    violation: float = field(init=False)

    def __post_init__(self) -> None:
        for name, val in vars(self).items():
            if isinstance(val, np.ndarray):
                view = val.view()  # the caller's array keeps its own flags
                view.flags.writeable = False
                object.__setattr__(self, name, view)
        object.__setattr__(self, "violation", max(self._field_maxima().values()))

    def _field_maxima(self) -> dict[str, float]:
        """Largest violation of each field, in a fixed order; inf for a field with a non-finite entry.

        The aggregate complementarity |u @ g| participates only at t = 0,
        where exact complementarity is part of the definition; for t > 0 a
        member may legitimately have a nonzero product.
        """
        names = ("stationarity", "dual_viol", "primal_viol", "relax_viol") + (("compl",) if self.t == 0.0 else ())
        # over Python floats: a record is built at every certifier set-up, and numpy's reductions on fields this small cost more
        maxima = {name: largest(map(abs, np.ravel(getattr(self, name)).tolist())) for name in names}
        return {name: top if top == top else math.inf for name, top in maxima.items()}

    def max_violation(self) -> float:
        """Largest violation of the membership system at this t."""
        return self.violation

    def is_feasible(self, tol: float = FEAS_TOL_DEFAULT) -> bool:
        return self.violation <= tol

    def worst_field(self) -> str:
        fields = self._field_maxima()
        return max(fields, key=fields.get)


def kkt_residual(problem: BilevelProblem, pt: TriplePoint, t: float = 0.0) -> KktResidual:
    """Residuals of the (relaxed) follower KKT system at pt; t = 0 is exact.

    Its stationarity, g and relaxation rows are the one-row block of ``problem_model.relaxed_rows`` at pt,
    as the inner solver reads them (through the problem's batch hooks when set).
    """
    t = relaxation_level(t)
    problem.check_point(pt)
    m, q = problem.dims.m, problem.dims.q
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite g makes w and u.g non-finite, which the record counts
        (g,), (r,) = relaxed_rows(problem, pt.x[None], np.concatenate([pt.y, pt.u])[None], t)
        compl = float(abs(pt.u @ g))
    return KktResidual(
        stationarity=r[:m],
        dual_viol=np.maximum(0.0, -pt.u),
        primal_viol=np.maximum(g, 0.0),
        compl=compl,
        relax_viol=np.maximum(r[m + q :], 0.0),
        t=t,
        g=g,
    )


@dataclass(frozen=True)
class IndexSets:
    """Active-set classification of a feasible point at margin EPS_ACT_DEFAULT.

    eta / theta / nu partition the follower constraints of an exactly
    complementary point (u_i ~ 0 & g_i < 0, both ~ 0, u_i > 0 & g_i ~ 0);
    i_G, i_u, i_g, i_ug are the active sets used by the relaxed optimality
    system.
    """

    eta: tuple[int, ...]
    theta: tuple[int, ...]
    nu: tuple[int, ...]
    i_G: tuple[int, ...]
    i_u: tuple[int, ...]
    i_g: tuple[int, ...]
    i_ug: tuple[int, ...]


def classify_indices(problem: BilevelProblem, pt: TriplePoint, t: float = 0.0) -> IndexSets:
    """Classify active sets at a point feasible for the level-t system.

    A value counts as zero within EPS_ACT_DEFAULT, and a point whose
    violation exceeds it is refused with InfeasiblePointError.
    """
    return classify_residual(pt, kkt_residual(problem, pt, t), leader_values(problem, pt.x))


def leader_values(problem: BilevelProblem, x: Array) -> Array:
    """The leader constraints G(x) as a float vector; empty when the problem has none."""
    return np.asarray(problem.eval_G(x), dtype=float) if problem.dims.p else np.zeros(0)


def classify_residual(pt: TriplePoint, res: KktResidual, G: Array) -> IndexSets:
    """:func:`classify_indices` at pt from its residual record res = kkt_residual(problem, pt, t) and G = G(x)."""
    t, eps_act = res.t, EPS_ACT_DEFAULT
    if not res.is_feasible(eps_act):
        raise InfeasiblePointError(
            f"point infeasible at t={t}: field '{res.worst_field()}' violates "
            f"by {res.max_violation():.3e} (> eps_act={eps_act:.1e})"
        )
    # over Python floats, which compare and round as numpy's float64 scalars do, at a fraction of their cost
    u, g = pt.u.tolist(), res.g.tolist()
    i_u = tuple(i for i, val in enumerate(u) if abs(val) <= eps_act)
    i_g = tuple(i for i, val in enumerate(g) if abs(val) <= eps_act)
    return IndexSets(  # u_i > eps with g_i < -eps occurs only at t > 0, and has no eta/theta/nu label
        eta=tuple(i for i in i_u if g[i] < -eps_act),
        theta=tuple(i for i in i_u if i in i_g),
        nu=tuple(i for i in i_g if u[i] > eps_act),
        i_G=tuple(i for i, val in enumerate(G.tolist()) if abs(val) <= eps_act),
        i_u=i_u, i_g=i_g,
        i_ug=tuple(i for i, (u_i, g_i) in enumerate(zip(u, g)) if abs(u_i * g_i + t) <= eps_act),
    )


@dataclass
class SlaterResult:
    """Outcome of the strict-feasibility search for the follower constraints.

    A failure is evidence, not proof, that no strictly feasible follower
    point exists: the search is a finite multistart descent.
    """

    found: bool
    y: Optional[Array]
    max_g: float


def check_slater(problem: BilevelProblem, x: Array) -> SlaterResult:
    """Search for y with g_i(x, y) <= -SLATER_EPS_STRICT for all i via multistart descent.

    SLATER_STARTS starts are drawn in the problem's ``y_box`` from seed
    SLATER_SEED, and each bounded Nelder-Mead descent stays in that box, so
    a witness lies in it.  A wrongly shaped or non-finite x is refused with
    ValueError.
    """
    x = problem.leader_point(x)
    m, q = problem.dims.m, problem.dims.q
    if q == 0:
        return SlaterResult(found=True, y=np.zeros(m), max_g=-np.inf)

    def worst(y: Array) -> float:
        g = np.asarray(problem.eval_g(x, y), dtype=float)
        if not np.all(np.isfinite(g)):
            return np.inf
        return float(np.max(g))

    rng = np.random.default_rng(SLATER_SEED)
    y0s = rng.uniform(problem.y_box[:, 0], problem.y_box[:, 1], size=(SLATER_STARTS, m))
    best_val = np.inf
    best_y = None
    for y0 in y0s:
        res = minimize(
            worst, y0, method="Nelder-Mead", bounds=problem.y_box,
            options={"maxiter": 200 * m, "xatol": 1e-9, "fatol": 1e-12},
        )
        val = worst(res.x)
        if val < best_val - 1e-12 or (
            abs(val - best_val) <= 1e-12
            and (best_y is None or tuple(res.x) < tuple(best_y))
        ):
            best_val = val
            best_y = res.x
    found = best_val <= -SLATER_EPS_STRICT
    return SlaterResult(found=found, y=best_y if found else None, max_g=best_val)


def check_upper_regularity(problem: BilevelProblem, x: Array) -> bool:
    """True iff only alpha = 0 solves jac_G(x)^T alpha = 0 with alpha >= 0 on I_G.

    That is, the cone {alpha : J_act^T alpha = 0, alpha >= 0} of the active
    leader gradients is {0}, decided by :func:`~pbopt.simplex.cone_has_nonzero`.
    I_G holds the leader constraints with |G_i(x)| <= EPS_ACT_DEFAULT.
    """
    x = problem.leader_point(x)
    p = problem.dims.p
    if p == 0:
        return True
    G = np.asarray(problem.eval_G(x), dtype=float)
    active = [i for i in range(p) if abs(G[i]) <= EPS_ACT_DEFAULT]
    if not active:
        return True
    J = np.asarray(problem.jac_G(x), dtype=float).reshape(p, problem.dims.n)
    k = len(active)
    return cone_has_nonzero(J[active].T, np.eye(k), k) is None
