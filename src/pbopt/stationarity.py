"""Multiplier recovery and certification for the min-max optimality systems.

Covers the C/M/S first-order systems of the exact problem, the optimality
system of the relaxed problem, the multiplier-set qualification conditions
used by the convergence theory, and the relaxed-problem qualification
condition.  Branch conditions over the biactive set are handled by exact
enumeration of sign patterns; each pattern is one linear feasibility
problem, and its least-norm multipliers (chosen for reproducibility) are one
least-distance solve.

The qualification conditions ask whether a polyhedral cone
{A_eq z = 0, A_ineq z >= 0} holds a nonzero ray, decided with one rank test
and at most one least-distance solve, or whether a ray of it moves a leader
row, one least-distance solve per signed row.

The enumeration is batched: patterns go in lexicographic order, in chunks
of 1, 2, 4, ... up to CHUNK_MAX.  The rows of every pattern's system are
stacked once per point (:func:`_pattern_rows`), each chunk picks its systems
from them by index, and systems of one shape are decided as one stack by
``simplex.least_norm_points`` and ``simplex.ConeRows``: one SVD rank test
and one least-distance set-up per stack.  The NNLS solves alone run one
pattern at a time, in order, so every answer, and the pattern it stops at,
is the one-pattern-at-a-time answer bit for bit.  A solve that stops at
scipy's NNLS iteration limit raises ``simplex.NnlsLimitError``: the question
is refused, never answered "no".

Calls in a row at one (problem, x, y, u, t) share one set-up (:func:`_setup`):
the residual record, the index sets and the derivative blocks are computed
once and handed out as read-only arrays.  A call sets up afresh when it gets
another problem object, when one of the problem's attributes is no longer
the object it was at the set-up (``problem.eval_g = ...`` or a
``dataclasses.replace`` copy), or when x, y, u or the relaxation level
differ in any bit.  Only the last point is kept.  The refusals of a point
(``feas_tol``, the classification, ``pattern_cap``) run on every call.
"""
from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kkt
from .kkt import IndexSets, InfeasiblePointError, KktResidual, classify_residual, kkt_residual
from .maxmin import EPS_LVL_DEFAULT, InnerConfig, evaluate_psi_t
from .problem_model import Array, BilevelProblem, TriplePoint, is_number, lagrangian_jacobians, relaxation_level
from .simplex import ConeRows, cone_has_nonzero, least_norm_point, least_norm_points

PATTERN_CAP_DEFAULT = 12  # largest biactive set enumerated; check_qualification_Am always uses it


class PatternCapError(RuntimeError):
    """The biactive set is too large for exact sign-pattern enumeration."""


class BorderlineActivityWarning(UserWarning):
    """Active-set classification margins are thin; verdicts may be tolerance-bound."""


# Multiplier status: "given" when built by the caller, "least_norm" when recovered.
@dataclass
class Multipliers:
    alpha: Array
    beta: Array
    gamma: Array
    status: str = "given"


@dataclass
class RelaxedMultipliers:
    alpha: Array
    beta: Array
    gamma: Array
    mu: Array
    delta: Array
    status: str = "given"


@dataclass
class StationarityReport:
    kind: str
    residual_inf: float
    multipliers: object
    sign_pattern: Optional[tuple]
    index_sets: IndexSets
    verdict: bool
    rows: dict = field(default_factory=dict)


@dataclass
class _SystemData:
    gFx: Array
    gFy: Array
    jacG: Array
    Lx: Array
    Ly: Array
    Jgx: Array
    Jgy: Array
    G: Array
    g: Array


def _frozen(a) -> Array:
    """A read-only view of a; the array it views keeps its own flags."""
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


class _Residual(KktResidual):
    """A KktResidual of read-only arrays whose largest violation is computed once."""

    def __init__(self, res: KktResidual) -> None:
        super().__init__(**{k: _frozen(v) if isinstance(v, np.ndarray) else v for k, v in vars(res).items()})
        self.violation = res.max_violation()

    def max_violation(self) -> float:
        return self.violation


def _system_data(problem: BilevelProblem, pt: TriplePoint, g: Array) -> _SystemData:
    """The derivative blocks at pt, read-only; g is g(x, y) there, as the residual record holds it."""
    d = problem.dims
    gFx, gFy = problem.grad_F(pt.x, pt.y)
    Lx, Ly, _ = lagrangian_jacobians(problem, pt)
    Jgx, Jgy = problem.jac_g(pt.x, pt.y) if d.q else (np.zeros((0, d.n)), np.zeros((0, d.m)))
    jacG = problem.jac_G(pt.x) if d.p else np.zeros((0, d.n))
    return _SystemData(*map(_frozen, (
        gFx,
        gFy,
        np.asarray(jacG, dtype=float).reshape(d.p, d.n),
        Lx,
        Ly,
        np.asarray(Jgx, dtype=float).reshape(d.q, d.n),
        np.asarray(Jgy, dtype=float).reshape(d.q, d.m),
        problem.eval_G(pt.x) if d.p else np.zeros(0),
        g,
    )))


# The last point set up: (key, residual, index sets and system data, or the
# classification's refusal message).  It is read and replaced as one tuple, so
# a concurrent caller never pairs one point's key with another point's data.
_last_setup: Optional[tuple] = None


def _point_key(problem: BilevelProblem, pt: TriplePoint, level: float) -> tuple:
    return problem, tuple(vars(problem).values()), np.concatenate([pt.x, pt.y, pt.u, [level]]).tobytes()


def _same_point(a: tuple, b: tuple) -> bool:
    """The same problem object with the same attribute objects, and the same bits of x, y, u and t."""
    return a[0] is b[0] and a[2] == b[2] and len(a[1]) == len(b[1]) and all(map(operator.is_, a[1], b[1]))


def _setup(
    problem: BilevelProblem,
    pt: TriplePoint,
    t: float,
    feas_tol: Optional[float],
    pattern_cap: Optional[int] = None,
) -> tuple[KktResidual, IndexSets, _SystemData]:
    """The level-t residual, index sets and system data at pt, from one residual evaluation.

    A point whose violation exceeds feas_tol (when given) is refused first,
    then one that exceeds kkt.EPS_ACT_DEFAULT, by the classification.  The
    point's data are kept for the next call at the same point (see
    _same_point), and the refusals run on every call.
    """
    global _last_setup
    problem.check_point(pt)
    key = _point_key(problem, pt, relaxation_level(t))
    entry = _last_setup
    if entry is None or not _same_point(entry[0], key):
        entry = _last_setup = (key, _Residual(kkt_residual(problem, pt, t)), None)
    _, res, point = entry
    if feas_tol is not None and not res.is_feasible(feas_tol):
        raise InfeasiblePointError(
            f"point not in the level-{t:g} follower KKT set: '{res.worst_field()}' violates by "
            f"{res.max_violation():.3e}"
        )
    if point is None:
        try:
            point = classify_residual(problem, pt, res), None
        except InfeasiblePointError as err:
            point = str(err)
        entry = _last_setup = (*entry[:2], point)
    if isinstance(point, str):
        raise InfeasiblePointError(point)
    idx, data = point
    if pattern_cap is not None and len(idx.theta) > pattern_cap:
        raise PatternCapError(
            f"biactive set size {len(idx.theta)} exceeds the enumeration cap {pattern_cap}"
        )
    if data is None:
        data = _system_data(problem, pt, res.g)
        _last_setup = (*entry[:2], (idx, data))
    return res, idx, data


def _scatter(size: int, index: tuple[int, ...], values: Array) -> Array:
    out = np.zeros(size)
    out[list(index)] = values
    return out


def _relaxed_system(data: _SystemData, idx: IndexSets, u: Array, homogeneous: bool):
    """(A_eq, b, A_ineq) of the relaxed optimality system.

    Columns [alpha_{I_G}, beta, gamma_{I_g}, mu_{I_u}, delta_{I_ug}]; rows: x, y
    and u gradients.  A_ineq is alpha, gamma, mu, delta >= 0.  The homogeneous
    twin has no alpha columns and b = 0.
    """
    n, m, q = data.gFx.size, data.gFy.size, data.g.size
    i_a = [] if homogeneous else list(idx.i_G)
    i_g, i_u, i_ug = list(idx.i_g), list(idx.i_u), list(idx.i_ug)
    beta = slice(len(i_a), len(i_a) + m)
    gamma = slice(beta.stop, beta.stop + len(i_g))
    mu = slice(gamma.stop, gamma.stop + len(i_u))
    x, y, w = slice(0, n), slice(n, n + m), slice(n + m, None)
    a_eq = np.zeros((n + m + q, mu.stop + len(i_ug)))
    a_eq[x, : beta.start] = data.jacG[i_a].T
    a_eq[x, beta], a_eq[y, beta], a_eq[w, beta] = -data.Lx.T, -data.Ly.T, -data.Jgy
    a_eq[x, gamma], a_eq[y, gamma] = -data.Jgx[i_g].T, -data.Jgy[i_g].T
    a_eq[w, mu] = np.eye(q)[:, i_u]
    u_ug = u[i_ug, None]
    a_eq[x, mu.stop :], a_eq[y, mu.stop :] = (u_ug * data.Jgx[i_ug]).T, (u_ug * data.Jgy[i_ug]).T
    a_eq[w, mu.stop :] = np.diag(data.g)[:, i_ug]
    b = np.zeros(len(a_eq)) if homogeneous else np.concatenate([-data.gFx, -data.gFy, np.zeros(q)])
    signed = [*range(beta.start), *range(beta.stop, a_eq.shape[1])]
    return a_eq, b, np.eye(a_eq.shape[1])[signed]


# Branches of one biactive index per (kind, qualification): (eq rows, ineq rows),
# each row a signed pick of the gamma_i unit row "g" or the d_i row "d".  M is
# {gamma<=0 & d<=0} | {gamma=0} | {d=0}; its qualification set flips the inequality branch.
_GE, _LE = ((), ("+g", "+d")), ((), ("-g", "-d"))
_G0, _D0 = (("+g",), ()), (("+d",), ())
_BRANCHES = {
    ("C", False): (_GE, _LE), ("C", True): (_GE, _LE),
    ("M", False): (_LE, _G0, _D0), ("M", True): (_GE, _G0, _D0),
    ("S", False): (_LE,), ("S", True): (_LE,),
}
_PICKS = ("+g", "-g", "+d", "-d")  # the order of each biactive index's branch rows in the pool
CHUNK_MAX = 256  # sign patterns per stacked batch; batches double up to it from one pattern


def _check_kind(kind: str) -> None:
    if kind not in ("S", "M", "C"):
        raise ValueError(f"unknown stationarity kind {kind!r}")


def _pattern_rows(kind: str, qualification: bool, data: _SystemData, idx: IndexSets):
    """(rows, rhs, patterns): the rows of every sign pattern's exact stationarity system.

    Columns [alpha_{I_G}, beta, gamma_{theta u nu}].  rows stacks, once per
    point: the rows every pattern has as equalities (leader gradient,
    follower gradient, d_i = 0 on nu) with right-hand sides rhs; the unit
    rows of alpha >= 0; and each biactive index's signed gamma_i unit row
    and d_i row, in the order of _PICKS.  The qualification system is the
    homogeneous twin: no alpha columns and rhs = 0.  patterns yields, in
    lexicographic order, each pattern's (eq, ineq) row indices: the base
    system with the pattern's branch rows appended in the order of the
    biactive set.
    """
    n, m = data.gFx.size, data.gFy.size
    i_a = [] if qualification else list(idx.i_G)
    nu, theta = list(idx.nu), list(idx.theta)
    free = sorted(set(theta) | set(nu))
    beta, gamma = slice(len(i_a), len(i_a) + m), slice(len(i_a) + m, None)
    n_eq = n + m + len(nu)
    at = n_eq + len(i_a)  # the first branch row
    rows = np.zeros((at + 4 * len(theta), gamma.start + len(free)))
    rows[:n, : beta.start] = data.jacG[i_a].T
    rows[:n, beta], rows[n : n + m, beta], rows[n + m : n_eq, beta] = data.Lx.T, data.Ly.T, data.Jgy[nu]
    rows[:n, gamma], rows[n : n + m, gamma] = data.Jgx[free].T, data.Jgy[free].T
    rows[n_eq:at, : beta.start] = np.eye(beta.start)
    for j, i in enumerate(theta):
        g, d = at + 4 * j, at + 4 * j + 2
        rows[g, gamma.start + free.index(i)], rows[d, beta] = 1.0, data.Jgy[i]
        rows[g + 1], rows[d + 1] = -rows[g], -rows[d]
    rhs = np.zeros(len(rows))
    if not qualification:
        rhs[:n], rhs[n : n + m] = -data.gFx, -data.gFy
    base_eq, base_ineq = list(range(n_eq)), list(range(n_eq, at))
    options = [
        [tuple(tuple(at + 4 * j + _PICKS.index(r) for r in picks) for picks in branch) for branch in _BRANCHES[kind, qualification]]
        for j in range(len(theta))
    ]
    patterns = (
        (base_eq + [i for eq, _ in pattern for i in eq], base_ineq + [i for _, ineq in pattern for i in ineq])
        for pattern in itertools.product(*options)
    )
    return rows, rhs, patterns


def _chunks(patterns):
    """The patterns in lists of 1, 2, 4, ... and then CHUNK_MAX, in order."""
    size = 1
    while chunk := list(itertools.islice(patterns, size)):
        yield chunk
        size = min(2 * size, CHUNK_MAX)


def recover_c_multipliers(
    problem: BilevelProblem,
    pt: TriplePoint,
    kind: str = "C",
    pattern_cap: int = PATTERN_CAP_DEFAULT,
) -> Optional[Multipliers]:
    """Least-norm multipliers for the kind-dependent exact stationarity system.

    A pattern_cap that is not a nonnegative integer is refused with
    ValueError.  A point whose exact KKT violation exceeds
    kkt.FEAS_TOL_DEFAULT is refused with InfeasiblePointError, and a
    biactive set larger than pattern_cap with PatternCapError.  Enumerates
    sign patterns over the biactive set in lexicographic order; each pattern is a least-distance
    problem, and the first feasible pattern's least-norm solution that
    passes its own check is returned: every multiplier row of
    :func:`check_stationarity` for kind (all but the graph rows and
    leader_feas, which the point alone sets) must be at most
    kkt.FEAS_TOL_DEFAULT.  The least-distance solve meets a pattern's rows
    only to simplex.ZERO_TOL times the norm of its solution, so a large
    solution can break its own branch condition; the enumeration then goes
    on.  None means no pattern gives such multipliers.  Patterns go in
    batches of 1, 2, 4, ... (up to CHUNK_MAX) through
    :func:`~pbopt.simplex.least_norm_points`, which picks each system's
    rows from one pool built per point and stacks everything but the NNLS
    solves; those run one pattern at a time, in order, and stop at the
    first pattern whose multipliers are returned, so the result is the
    sequential one.
    """
    _check_kind(kind)
    if not (is_number(pattern_cap, integral=True) and pattern_cap >= 0):
        raise ValueError(f"pattern_cap must be a nonnegative integer, got {pattern_cap!r}")
    _, idx, data = _setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT, pattern_cap)
    rows, rhs, patterns = _pattern_rows(kind, False, data, idx)
    d = problem.dims
    k = len(idx.i_G)
    free = sorted(set(idx.theta) | set(idx.nu))
    for chunk in _chunks(patterns):
        for z in least_norm_points(rows, rhs, chunk):
            if z is None:
                continue
            alpha = _scatter(d.p, idx.i_G, np.maximum(0.0, z[:k]))
            beta, gamma = z[k : k + d.m], _scatter(d.q, free, z[k + d.m :])
            own = _multiplier_rows(kind, idx, data, alpha, beta, gamma)
            if max(v for name, v in own.items() if name != "leader_feas") <= kkt.FEAS_TOL_DEFAULT:
                return Multipliers(alpha, beta, gamma, "least_norm")
    return None


def _theta_violation(kind: str, gamma_i: float, d_i: float) -> float:
    neg_branch = max(max(gamma_i, 0.0), max(d_i, 0.0))
    if kind == "S":
        return neg_branch
    if kind == "M":
        return min(neg_branch, abs(gamma_i), abs(d_i))
    return max(0.0, -gamma_i * d_i)  # C


def _graph_rows(
    problem: BilevelProblem,
    pt: TriplePoint,
    res: KktResidual,
    inner_cfg: Optional[InnerConfig],
    graph_check: bool,
) -> dict[str, float]:
    """Graph-membership rows: the level-t KKT violation of res and the inner-max value gap."""
    t = res.t
    rows = {"graph_feasibility": res.max_violation()}
    if graph_check:
        # Feasibility is kept well below the level slack so near-feasible points at
        # degenerate corners cannot inflate the reference value past the slack.
        cfg = inner_cfg or InnerConfig(starts=12, sweeps=4, feas_tol=1e-10)
        inner = evaluate_psi_t(problem, pt.x, t, cfg)
        fval = problem.eval_F(pt.x, pt.y)
        # an unsolved reference verifies nothing: NaN fails the verdict
        rows["graph_value"] = (
            np.nan if inner.status != "solved" else max(0.0, inner.value - EPS_LVL_DEFAULT - fval)
        )
    return rows


def _multiplier_blocks(mults, sizes: dict[str, int]) -> list[Array]:
    """The named blocks of mults as float vectors; a block of the wrong length or with a non-finite entry is refused."""
    blocks = []
    for name, size in sizes.items():
        v = np.asarray(getattr(mults, name), dtype=float)
        if v.size != size or not np.isfinite(v).all():
            raise ValueError(f"multiplier block {name} must be a finite vector of {size} entries")
        blocks.append(v.reshape(size))
    return blocks


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _report(kind: str, rows: dict, mults, branch, idx: IndexSets, tol: float) -> StationarityReport:
    # a max over -0.0 and the 0.0 floor can keep -0.0; adding 0.0 turns it into
    # +0.0 and leaves every other value as it is
    rows = {name: val + 0.0 for name, val in rows.items()}
    residual = float(np.max(list(rows.values())))  # a NaN row gives NaN, which fails the verdict
    return StationarityReport(kind, residual, mults, branch, idx, bool(residual <= tol), rows)


def _multiplier_rows(
    kind: str, idx: IndexSets, data: _SystemData, alpha: Array, beta: Array, gamma: Array
) -> dict[str, float]:
    """The rows of the kind-dependent exact stationarity system at (alpha, beta, gamma), graph rows aside."""
    res_x = data.gFx + data.jacG.T @ alpha + data.Lx.T @ beta + data.Jgx.T @ gamma
    res_y = data.gFy + data.Ly.T @ beta + data.Jgy.T @ gamma
    dvec = data.Jgy @ beta
    return {
        "leader_gradient": float(abs(res_x).max(initial=0.0)),
        "follower_gradient": float(abs(res_y).max(initial=0.0)),
        "alpha_sign": float((-alpha).max(initial=0.0)),
        "leader_feas": float(data.G.max(initial=0.0)),
        "alpha_compl": float(abs(alpha * data.G).max(initial=0.0)),
        "nu_gradient": float(abs(dvec[list(idx.nu)]).max(initial=0.0)),
        "eta_gamma": float(abs(gamma[list(idx.eta)]).max(initial=0.0)),
        "theta_condition": float(max((_theta_violation(kind, gamma[i], dvec[i]) for i in idx.theta), default=0.0)),
    }


def check_stationarity(
    problem: BilevelProblem,
    pt: TriplePoint,
    mults: Multipliers,
    kind: str = "C",
    tol: float = kkt.FEAS_TOL_DEFAULT,
    inner_cfg: Optional[InnerConfig] = None,
    graph_check: bool = True,
) -> StationarityReport:
    """Residuals of the kind-dependent stationarity system at (pt, mults).

    The verdict holds when every residual row is at most tol.  The
    graph-membership row is verified numerically: pt must lie in the
    exact follower KKT set and F must reach the inner max value within
    EPS_LVL_DEFAULT, the argmax slack of the inner solver, which supplies
    that value.  The index sets use the activity margin kkt.EPS_ACT_DEFAULT.
    A tol that is not finite and nonnegative, and a multiplier block that
    is not a finite vector of its length, are refused with ValueError.
    """
    _check_kind(kind)
    _check_tol(tol)
    res, idx, data = _setup(problem, pt, 0.0, None)
    d = problem.dims
    alpha, beta, gamma = _multiplier_blocks(mults, {"alpha": d.p, "beta": d.m, "gamma": d.q})

    rows = _graph_rows(problem, pt, res, inner_cfg, graph_check)
    rows.update(_multiplier_rows(kind, idx, data, alpha, beta, gamma))
    dvec = data.Jgy @ beta
    branch = tuple(
        "-" if gamma[i] <= 0 and dvec[i] <= 0 else "+" for i in idx.theta
    ) if idx.theta else None
    return _report(kind, rows, mults, branch, idx, tol)


def recover_relaxed_multipliers(problem: BilevelProblem, t: float, pt: TriplePoint) -> Optional[RelaxedMultipliers]:
    """Least-norm multipliers of the relaxed optimality system, or None.

    A point whose level-t KKT violation exceeds kkt.FEAS_TOL_DEFAULT is
    refused with InfeasiblePointError.  The complementarity conditions pin
    every multiplier outside its active set to zero, so one linear
    feasibility problem with sign constraints remains.
    """
    _, idx, data = _setup(problem, pt, t, kkt.FEAS_TOL_DEFAULT)
    a_eq, b, a_ineq = _relaxed_system(data, idx, pt.u, homogeneous=False)
    z, status = least_norm_point(a_eq, b, a_ineq)
    if z is None:
        return None
    d = problem.dims
    sizes = np.cumsum([len(idx.i_G), d.m, len(idx.i_g), len(idx.i_u)])
    alpha, beta, gamma, mu, delta = np.split(z, sizes)
    return RelaxedMultipliers(
        alpha=_scatter(d.p, idx.i_G, np.maximum(0.0, alpha)),
        beta=beta,
        gamma=_scatter(d.q, idx.i_g, np.maximum(0.0, gamma)),
        mu=_scatter(d.q, idx.i_u, np.maximum(0.0, mu)),
        delta=_scatter(d.q, idx.i_ug, np.maximum(0.0, delta)),
        status=status,
    )


def check_relaxed_stationarity(
    problem: BilevelProblem,
    t: float,
    pt: TriplePoint,
    rm: RelaxedMultipliers,
    tol: float = kkt.FEAS_TOL_DEFAULT,
    inner_cfg: Optional[InnerConfig] = None,
    graph_check: bool = True,
) -> StationarityReport:
    """Residuals of the relaxed optimality system at (pt, rm) for level t.

    The verdict holds when every residual row is at most tol.  The graph
    rows are those of :func:`check_stationarity` at level t, and tol and
    the multiplier blocks are refused as there.
    """
    _check_tol(tol)
    res, idx, data = _setup(problem, pt, t, None)  # refuses a point outside D_t before the inner solve
    d = problem.dims
    alpha, beta, gamma, mu, delta = _multiplier_blocks(rm, {"alpha": d.p, "beta": d.m, "gamma": d.q, "mu": d.q, "delta": d.q})

    rows = _graph_rows(problem, pt, res, inner_cfg, graph_check)
    coeff = gamma - delta * pt.u
    res_x = data.gFx + data.jacG.T @ alpha - data.Lx.T @ beta - data.Jgx.T @ coeff
    rows["leader_gradient"] = float(np.max(np.abs(res_x), initial=0.0))
    res_y = data.gFy - data.Ly.T @ beta - data.Jgy.T @ coeff
    rows["follower_gradient"] = float(np.max(np.abs(res_y), initial=0.0))
    res_u = -(data.Jgy @ beta) + mu + delta * data.g
    rows["multiplier_gradient"] = float(np.max(np.abs(res_u), initial=0.0))
    ug = pt.u * data.g
    # sign, feasibility and complementarity of each multiplier block
    for name, mult, slack in (
        ("alpha_block", alpha, data.G),
        ("gamma_block", gamma, data.g),
        ("mu_block", mu, -pt.u),
        ("delta_block", delta, -ug - t),
    ):
        rows[name] = float(max(
            np.max(-mult, initial=0.0),
            np.max(slack, initial=0.0),
            np.max(np.abs(mult * slack), initial=0.0),
        ))
    return _report("relaxed", rows, rm, None, idx, tol)


@dataclass
class QualificationReport:
    a1: bool
    a2: bool
    kind: str
    certificates: dict = field(default_factory=dict)
    patterns_checked: int = 0  # sign patterns visited before both verdicts were settled


def check_qualification_Am(problem: BilevelProblem, pt: TriplePoint, kind: str = "M") -> QualificationReport:
    """Decide the two multiplier-set qualification conditions at pt.

    A point whose exact KKT violation exceeds kkt.FEAS_TOL_DEFAULT is
    refused with InfeasiblePointError, as the multiplier recoveries refuse
    it, and a biactive set larger than PATTERN_CAP_DEFAULT with
    PatternCapError.  The first holds iff the full homogeneous multiplier
    set contains only zero; the second iff every element of the
    follower-only variant also annihilates the leader-derivative rows.  Both are decided per sign
    pattern, in lexicographic order.  The follower-only cone holds the full
    one, so when it is trivial (a rank test and at most one least-distance
    solve, as in :func:`~pbopt.simplex.cone_has_nonzero`) the pattern
    breaks neither condition.  Otherwise a1 asks the same of the full cone,
    and a2 looks for a follower-cone ray with w@z > 0, one least-distance
    solve per signed leader row w (:func:`~pbopt.simplex.cone_ray`).  The
    enumeration stops once both conditions have failed.

    Patterns go in batches of 1, 2, 4, ... (up to CHUNK_MAX).  The rows of
    every pattern are unit-scaled once per point in a
    :class:`~pbopt.simplex.ConeRows` pool, and the follower cones of a
    batch are decided as stacks of one shape: one SVD rank test and one
    least-distance set-up per stack.  Only the NNLS solves run one pattern
    at a time, in order, so the enumeration stops at the same pattern, with
    the same rays and the same refusals, as one pattern at a time would.
    """
    _check_kind(kind)
    _, idx, data = _setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT, PATTERN_CAP_DEFAULT)
    n = problem.dims.n
    rows, _, patterns = _pattern_rows(kind, True, data, idx)
    leader = [sign * row for row in rows[:n] if np.any(row) for sign in (1.0, -1.0)]
    pool = ConeRows(rows)
    a1 = a2 = True
    certs: dict[str, Array] = {}
    checked = 0
    # a1 asks the whole pattern cone; a2 the cone without the leader rows, which it must annihilate
    for chunk in _chunks(patterns):
        for (eq, ineq), follower in zip(chunk, pool.has_nonzero([(eq[n:], ineq) for eq, ineq in chunk])):
            checked += 1
            if follower is None:
                continue  # the follower cone holds the a1 cone, so this pattern breaks neither
            if a1:
                ray = next(pool.has_nonzero([(eq, ineq)]))
                if ray is not None:
                    a1 = False
                    certs["a1"] = ray
            if a2:
                ray = next((z for z in pool.rays([(eq[n:], ineq, w) for w in leader]) if z is not None), None)
                if ray is not None:
                    a2 = False
                    certs["a2"] = ray
            if not (a1 or a2):
                return QualificationReport(a1, a2, kind, certs, patterns_checked=checked)  # both settled
    return QualificationReport(a1, a2, kind, certs, patterns_checked=checked)


def check_cq1(problem: BilevelProblem, t: float, pt: TriplePoint) -> bool:
    """True iff the homogeneous relaxed multiplier system has only the zero solution.

    Complementarity pins each multiplier outside its active set to zero; the
    remaining sign-constrained homogeneous system is a polyhedral cone,
    decided by :func:`~pbopt.simplex.cone_has_nonzero` with a rank test
    and at most one least-distance solve.  A point whose level-t violation
    exceeds kkt.FEAS_TOL_DEFAULT is refused with InfeasiblePointError, as
    :func:`recover_relaxed_multipliers` refuses it.
    Borderline activity (values within a decade of EPS_ACT_DEFAULT) triggers
    a warning since the support decomposition is only clean away from the
    threshold.
    """
    eps_act = kkt.EPS_ACT_DEFAULT
    _, idx, data = _setup(problem, pt, t, kkt.FEAS_TOL_DEFAULT)
    margins = np.abs(np.concatenate([pt.u, data.g, pt.u * data.g + t]))
    border = margins[(margins > eps_act) & (margins < 10.0 * eps_act)]
    if border.size:
        warnings.warn(
            "activity margins within a decade of eps_act; verdict undecided at tolerance",
            BorderlineActivityWarning,
            stacklevel=2,
        )
    # the y and u rows, negated: the homogeneous twin of the relaxed recovery
    a_eq, _, a_ineq = _relaxed_system(data, idx, pt.u, homogeneous=True)
    return cone_has_nonzero(-a_eq[problem.dims.n :], a_ineq, a_eq.shape[1]) is None
