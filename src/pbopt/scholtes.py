"""Outer minimisation of the relaxed value function and the homotopy loop.

The leader objective psi(., t) is the value of a nonconvex inner max, hence
nonsmooth at its kinks.  A leader with n >= 2 variables is minimised by a
projected BFGS on the gradient that ``maxmin.psi_t_gradient`` reads off the
inner argmax's multipliers, confirmed by one poll round; a leader of one
variable, a refused gradient and a BFGS that cannot start fall back on the
derivative-free coordinate pattern search, with projection onto box-shaped
leader sets.  A BFGS line search solves its unit step alone, and its
shorter trials in a second call only when the unit step fails Armijo's
test.  The homotopy drives the relaxation level down a geometric
schedule, warm-starting each level from the previous minimiser and argmax
samples.

The level solves pay for their inner solves, not for their bookkeeping,
which runs once per poll point and per round: it is kept over Python
floats and array methods.  :func:`leader_violation` takes its max over
floats, :func:`_project_x` calls ``.clip``, a poll is compared with its
centre on the coordinate it moved, other point tests compare ``.tolist()``
or the bytes of the points, and each round's poll points are made once a
level (``_Level.polls``).  No numpy Python wrapper (``np.clip``,
``np.array_equal``) runs per point.  None of this changes the poll
arithmetic, an iterate or a count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .maxmin import InnerConfig, InnerSolveResult, SampledSet, evaluate_psi_t_batch, psi_t_gradient
from .problem_model import Array, BilevelProblem, config_or_default, is_finite_number, is_number

X_MEMBERSHIP_TOL = 1e-8
# First poll step of a level, as a fraction of the leader box diameter.
MESH_INIT_FRAC = 0.25
# Least decrease a poll point must make to replace the incumbent.
DECREASE_TOL = 1e-10
# Most poll rounds of one level.
MAX_ROUNDS = 400
# Weight of the leader-set violation added to psi beyond X_MEMBERSHIP_TOL.
INFEAS_PENALTY = 1e8
# The n >= 2 level solve's BFGS: trial lengths 1, 1/2, ... of one line
# search, Armijo's sufficient-decrease factor, and the least s.y of an update.
LINE_TRIALS = 8
ARMIJO_C1 = 1e-4
CURVATURE_MIN = 1e-12


class OuterInfeasibleError(RuntimeError):
    """Every polled leader point had an infeasible inner problem."""


@dataclass
class OuterConfig:
    """Pattern-search controls for one fixed relaxation level.

    The search stops once the poll step falls below ``mesh_tol``; every
    inner solve uses ``inner``.  The first step (MESH_INIT_FRAC of the
    leader box diameter), the decrease a poll must make (DECREASE_TOL), the
    round cap (MAX_ROUNDS) and the leader-infeasibility weight
    (INFEAS_PENALTY) are module constants.
    """

    mesh_tol: float = 1e-5
    inner: InnerConfig = field(default_factory=InnerConfig)

    def __post_init__(self) -> None:
        if not (is_finite_number(self.mesh_tol) and self.mesh_tol > 0):
            raise ValueError(f"mesh_tol must be finite and positive, got {self.mesh_tol!r}")
        if not isinstance(self.inner, InnerConfig):
            raise ValueError(f"inner must be an InnerConfig, got {self.inner!r}")


@dataclass
class RelaxationParams:
    """Homotopy schedule and termination controls."""

    t0: float = 1.0
    rho: float = 0.5
    t_min: float = 1e-6
    max_outer_iters: int = 60
    x_tol: float = 1e-9
    outer: OuterConfig = field(default_factory=OuterConfig)

    def __post_init__(self) -> None:
        if not (is_number(self.rho) and 0.0 < self.rho < 1.0):
            raise ValueError(f"reduction factor rho must lie in (0, 1), got {self.rho!r}")
        if not (is_finite_number(self.t0) and is_number(self.t_min) and self.t0 > self.t_min > 0.0):
            raise ValueError(f"need a finite t0 > t_min > 0, got t0={self.t0!r}, t_min={self.t_min!r}")
        if not (is_number(self.max_outer_iters, integral=True) and self.max_outer_iters >= 1):
            raise ValueError(f"max_outer_iters must be an integer of at least 1, got {self.max_outer_iters!r}")
        if not isinstance(self.outer, OuterConfig):
            raise ValueError(f"outer must be an OuterConfig, got {self.outer!r}")
        # a negative x_tol is allowed: it switches the stall stop off
        if not is_finite_number(self.x_tol):
            raise ValueError(f"x_tol must be finite, got {self.x_tol!r}")


@dataclass
class TraceRecord:
    k: int
    t: float
    x: Array
    psi: float
    argmax: SampledSet
    inner_status: str
    outer_evals: int
    final_mesh: float


@dataclass
class RunTrace:
    records: list[TraceRecord] = field(default_factory=list)
    terminal: str = ""
    unread_evals: int = 0  # summed MinimizeResult.unread of the levels
    inner_calls: int = 0  # summed MinimizeResult.calls of the levels

    def final(self) -> TraceRecord:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1]


@dataclass
class MinimizeResult:
    x: Array
    value: float
    evals: int  # inner solves the search read
    final_mesh: float
    inner: InnerSolveResult
    # inner solves made ahead that the search never read: the rest of a 1-D
    # forward walk, the halved round (at most 2n rows) of an n >= 2 round
    # that moved, or the trials of a backtracking line search past the one
    # it took; solving ahead changes no iterate
    unread: int
    flat: bool  # every poll read tied the centre within DECREASE_TOL, so x never moved
    calls: int = 0  # batched inner solves (evaluate_psi_t_batch calls) the search made


def _project_x(problem: BilevelProblem, x: Array) -> Array:
    if problem.x_box is not None:
        return x.clip(problem.x_box[:, 0], problem.x_box[:, 1])
    return x.copy()


def leader_violation(problem: BilevelProblem, x: Array) -> float:
    """Largest violation of the leader set at a leader point x: of its box and of G(x) <= 0 (0 inside); inf where G is not finite.

    The max runs over Python floats, so it may keep the other zero of 0.0
    and -0.0 than numpy's max would; the two compare equal.
    """
    viol = [0.0]
    if problem.x_box is not None:
        for xi, (lo, hi) in zip(x.tolist(), problem.x_box.tolist()):
            viol += (lo - xi, xi - hi)
    if problem.dims.p:
        viol += np.asarray(problem.eval_G(x), dtype=float).ravel().tolist()
    return max(viol) if all(map(math.isfinite, viol)) else math.inf


def _leader_penalty(problem: BilevelProblem, x: Array) -> float:
    viol = leader_violation(problem, x)
    return 0.0 if viol <= X_MEMBERSHIP_TOL else INFEAS_PENALTY * viol


class _Level:
    """The inner solves of one level's search at t, by the bytes of their leader points.

    ``solve`` solves the points not yet held in one batched call; each
    value is psi plus the leader-set penalty, inf when the solve is not
    "solved".  ``read`` marks the points a search looked at, so ``result``
    reports the solves read as ``evals`` and the rest as ``unread``.
    ``polls`` makes each poll round's points once a level: a 1-D walk makes
    the points of the rounds it solves ahead, and those rounds read them.
    """

    def __init__(self, problem: BilevelProblem, t: float, inner: InnerConfig) -> None:
        self.problem, self.t, self.inner = problem, t, inner
        self.cache: dict[bytes, tuple[float, InnerSolveResult]] = {}
        self.read: set[bytes] = set()
        self.calls = 0
        self.rounds: dict[tuple[bytes, float], list[Array]] = {}

    def polls(self, xc: Array, h: float) -> list[Array]:
        """:func:`_poll_points` at xc and h, the list made on the level's first request."""
        key = (xc.tobytes(), h)
        points = self.rounds.get(key)
        if points is None:
            points = self.rounds[key] = _poll_points(self.problem, xc, h)
        return points

    def solve(self, points: list[Array]) -> None:
        fresh = {}
        for xq in points:
            key = xq.tobytes()
            if key not in self.cache:
                fresh.setdefault(key, xq)
        if fresh:
            self.calls += 1
            results = evaluate_psi_t_batch(self.problem, np.array(list(fresh.values())), self.t, self.inner)
            for (key, xq), res in zip(fresh.items(), results):
                val = math.inf if res.status != "solved" else res.value + _leader_penalty(self.problem, xq)
                self.cache[key] = (val, res)

    def objective(self, xq: Array) -> tuple[float, InnerSolveResult]:
        key = xq.tobytes()
        self.read.add(key)
        return self.cache[key]

    def result(self, x: Array, value: float, inner: InnerSolveResult, final_mesh: float, flat: bool) -> MinimizeResult:
        return MinimizeResult(
            x=x, value=value, evals=len(self.read), final_mesh=final_mesh, inner=inner,
            unread=len(self.cache) - len(self.read), flat=flat, calls=self.calls,
        )


def _first_mesh(problem: BilevelProblem, cfg: OuterConfig) -> float:
    """MESH_INIT_FRAC of the leader box's widest side (of 4 without a box); mesh_tol for a one-point box."""
    diam = float(np.max(problem.x_box[:, 1] - problem.x_box[:, 0])) if problem.x_box is not None else 4.0
    return MESH_INIT_FRAC * diam if diam > 0 else cfg.mesh_tol


def _poll_points(problem: BilevelProblem, xc: Array, h: float) -> list[Array]:
    """xc +- h along each axis, projected onto the leader box; a point equal to xc is left out.

    xc is a point of the box, so the projection leaves every coordinate
    but the moved one as it is, and a poll equals xc exactly when its moved
    coordinate does (as floats: -0.0 equals 0.0).
    """
    center = xc.tolist()
    points = []
    for i in range(problem.dims.n):
        for sign in (1.0, -1.0):
            xp = xc.copy()
            xp[i] += sign * h
            xp = _project_x(problem, xp)
            if xp.item(i) != center[i]:
                points.append(xp)
    return points


def minimize_psi_t(
    problem: BilevelProblem,
    t: float,
    x_init: Array,
    cfg: Optional[OuterConfig] = None,
) -> MinimizeResult:
    """Coordinate pattern search on x -> psi(x, t) over the leader set.

    Returns a mesh-local minimiser: once the mesh is below mesh_tol no poll
    point improves the incumbent by more than DECREASE_TOL.

    Each round's new poll points are solved in one batched inner call, the
    first round's together with the starting point.  When n = 1, a round
    that needs a fresh point also solves the later rounds of a forward walk
    that repeats the last outcome: after a move it keeps moving by the mesh
    (each step's round has a backward poll, which rounding can leave an ulp
    off the previous incumbent) and halves the mesh from the box edge on;
    after a survived round, or on the box boundary (the round has one
    point), it halves the mesh.  The walk runs until the mesh falls below
    mesh_tol, and is solved only if it reaches the edge within L steps and
    MAX_ROUNDS rounds, L being the halving rounds left below the mesh.  So a
    level that starts and stays on the boundary costs one call, a walk to
    the edge one call after its first move, and an interior minimum leaves
    most of a walk unread.  An interior 1-D start solves its first round
    alone.  When n >= 2, a round that needs a fresh point also solves the
    2n polls of the round that follows when no poll improves: the same
    centre at half the mesh, added only while that mesh is >= mesh_tol.  A
    round that moves leaves those, at most 2n rows, unread.  Every batch row
    equals its lone solve, so what is solved ahead changes no iterate, only
    ``calls`` and ``unread``.  ``evals`` counts the solves the search reads,
    ``unread`` the rest, and ``calls`` the batched solves.  A search that read at least one poll, every one of them tied
    with the centre, reports ``flat``: it stayed put without evidence of a
    minimum.
    """
    cfg = config_or_default(cfg, OuterConfig)
    x = _project_x(problem, problem.leader_point(x_init, "x_init"))
    return _pattern_search(problem, x, cfg, _Level(problem, t, cfg.inner))


def _pattern_search(problem: BilevelProblem, x: Array, cfg: OuterConfig, level: _Level) -> MinimizeResult:
    """:func:`minimize_psi_t` from x, a point of the leader box, on the solves ``level`` holds already."""
    n = problem.dims.n
    cache = level.cache
    mesh = _first_mesh(problem, cfg)

    def poll_round(points: list[Array], r: int) -> list[Array]:
        """Round r's poll points, plus, when the round needs a fresh point,
        those solved ahead with it (see ``minimize_psi_t``).  When n >= 2
        they are the halved round's at x while its mesh is >= mesh_tol: at
        most 2n rows, which a move leaves unread.  When n = 1 they are the
        later rounds' of a forward walk from x, or none when a moving walk
        does not reach the box edge within L steps or before MAX_ROUNDS.
        Neither rule changes an iterate."""
        if all(xp.tobytes() in cache for xp in points):
            return points
        if n > 1:
            return points + level.polls(x, 0.5 * mesh) if 0.5 * mesh >= cfg.mesh_tol else points
        if heading is None and len(points) > 1:
            return points
        xc, h, step, ahead = x, mesh, heading if len(points) > 1 else 0.0, []
        steps_left = math.floor(math.log2(mesh) - math.log2(cfg.mesh_tol))
        for _ in range(r, MAX_ROUNDS):
            if h < cfg.mesh_tol:
                break
            ahead += level.polls(xc, h)
            if not step or (xf := _project_x(problem, xc + step * h)).tolist() == xc.tolist():
                step, h = 0.0, 0.5 * h
            elif steps_left == 0:
                return points
            else:
                xc, steps_left = xf, steps_left - 1
        return points if step else ahead

    heading = None  # sign of the move that reached x; 0.0 after a survived round, None at the start
    level.solve([x, *poll_round(level.polls(x, mesh), 0)] if mesh >= cfg.mesh_tol else [x])
    center_val, center_res = level.objective(x)
    tied = None  # every poll read so far tied the centre; None until one is read
    for r in range(MAX_ROUNDS):
        if mesh < cfg.mesh_tol:
            break
        points = level.polls(x, mesh)
        level.solve(poll_round(points, r))
        polls = [(level.objective(xp)[0], xp.tolist(), xp) for xp in points]
        if not math.isfinite(center_val) and all(not math.isfinite(v) for v, _, _ in polls):
            raise OuterInfeasibleError(
                f"inner problem infeasible at the incumbent and every poll point "
                f"(t={level.t}, mesh={mesh:.3g}, x={x})"
            )
        if polls:
            tied = tied is not False and all(abs(v - center_val) <= DECREASE_TOL for v, _, _ in polls)
        # Best poll wins; exact ties go to the lexicographically smallest point.
        polls.sort(key=lambda rec: (rec[0], rec[1]))
        if polls and polls[0][0] < center_val - DECREASE_TOL:
            heading = 1.0 if polls[0][2][0] > x[0] else -1.0
            x, center_val = polls[0][2], polls[0][0]
            center_res = cache[x.tobytes()][1]
        else:
            mesh *= 0.5
            heading = 0.0

    if not math.isfinite(center_val):
        raise OuterInfeasibleError(f"no inner-feasible leader point found at t={level.t}")
    return level.result(x, center_val, center_res, mesh, bool(tied))


def _gradient(problem: BilevelProblem, level: _Level, x: Array) -> Optional[Array]:
    """grad psi_t at a solved point of ``level`` (:func:`maxmin.psi_t_gradient`); None when unsolved or refused."""
    val, res = level.cache[x.tobytes()]
    if not math.isfinite(val):
        return None
    return psi_t_gradient(problem, x, level.t, res.argmax, level.inner).grad


def _bfgs(
    problem: BilevelProblem, cfg: OuterConfig, level: _Level, x: Array, grad: Array, hess: Array
) -> tuple[Array, Optional[Array], Array, bool]:
    """Projected BFGS on psi_t from x, a solved point of ``level`` with gradient grad.

    Each step holds fixed the coordinates at a bound whose gradient points
    out of the box and takes the Newton step B_ff p = -g on the others, B
    the BFGS Hessian estimate and B_ff its block on the free coordinates,
    as Bertsekas's projected Newton method does (SIAM J. Control Optim. 20,
    1982).  The block of the inverse estimate, which is not the inverse of
    B_ff, took 15-24 calls against 13-18 on the short synthetic2d runs,
    crawling along the box edge where the first coordinate is 1.  Its line
    search tries the LINE_TRIALS points x + 2**-k p, k = 0, 1, ...,
    projected onto the box, in that order, and takes the first whose step
    s passes Armijo's test on the penalised value, psi(x + s) <= psi(x) +
    ARMIJO_C1 * g.s with g.s < 0.  The unit trial is solved alone, and the
    other trials together in a second batched call only when it fails:
    the unit step passes on most line searches (all 495 of 40 two-level
    synthetic2d runs, all but 5 of 92-96 on the default schedule), and on
    synthetic2d a call of 8 rows costs about 1.7 times a lone row.  Every batch row
    equals its lone solve, so the split changes no iterate, only ``calls``
    and ``unread``.  B gets the BFGS update when s.y > CURVATURE_MIN (y the
    change of the gradient).  The search stops when |g.p| <= DECREASE_TOL,
    after a step shorter than mesh_tol (max-norm), when no trial passes, or
    at a point whose gradient is refused; after MAX_ROUNDS steps at the
    latest.

    Returns the last point, its gradient (None when refused), B, and
    whether the last line search found no decrease.
    """
    lo, hi = (problem.x_box[:, 0], problem.x_box[:, 1]) if problem.x_box is not None else (-np.inf, np.inf)
    val = level.cache[x.tobytes()][0]
    for _ in range(MAX_ROUNDS):
        free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
        p = np.zeros_like(x)
        p[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free]) if free.any() else 0.0
        if not abs(grad @ p) > DECREASE_TOL:
            break
        trials = [_project_x(problem, x + 0.5**k * p) for k in range(LINE_TRIALS)]
        center = x.tolist()
        trials = [xt for xt in trials if xt.tolist() != center]
        level.solve(trials[:1])
        for k, xt in enumerate(trials):
            if k == 1:
                level.solve(trials[1:])
            vt = level.objective(xt)[0]
            slope = grad @ (xt - x)
            if slope < 0.0 and vt <= val + ARMIJO_C1 * slope:
                break
        else:
            return x, grad, hess, True
        s, x, val = xt - x, xt, vt
        new = _gradient(problem, level, x)
        if new is None:
            return x, None, hess, False
        y, grad = new - grad, new
        sy = s @ y
        if sy > CURVATURE_MIN:
            hs = hess @ s
            hess = hess - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / sy
        if np.abs(s).max() < cfg.mesh_tol:
            break
    return x, grad, hess, False


def _gradient_level(
    problem: BilevelProblem, t: float, x_init: Array, cfg: OuterConfig, hess: Optional[Array]
) -> tuple[MinimizeResult, Optional[Array]]:
    """The level solve of a leader with n >= 2: projected BFGS (:func:`_bfgs`) and one confirming poll round.

    The start is solved alone.  When it is unsolved, or its gradient is
    refused or within DECREASE_TOL of zero (a plateau), the level is the
    pattern search (:func:`minimize_psi_t`) from the start.  B starts at
    |g| / (MESH_INIT_FRAC * diam) times the identity, so the first trial
    steps a quarter of the box like the first poll, and ``hess`` carries
    it from level to level.  BFGS runs from the start; a refused gradient
    at a later point, or a first line search without decrease, hands the
    level to the pattern search from where it stands.  Otherwise one poll
    round at the mesh where the pattern search's ladder ends (the first
    mesh halved while it is >= 2 mesh_tol) confirms the end point: when no
    poll improves it by more than DECREASE_TOL the level is done, and its
    final mesh is half that mesh, as after a survived round.  When a poll
    improves, the pattern search takes over from the best poll, at its own
    first mesh: a second BFGS pass from there ended 1 of the 28 levels it
    ran on synthetic2d and linear followers, and a search started at the
    confirming mesh crawls.  So a level
    ends at the confirmed BFGS end point or in one pattern search, from
    the start, the BFGS end point or the best poll.

    Every solve of the level shares one :class:`_Level`, so ``evals``
    counts the distinct points read, ``unread`` the rest, and the pattern
    search solves none of them again.  Returns the level's result and B.
    """
    x = start = _project_x(problem, problem.leader_point(x_init, "x_init"))
    level = _Level(problem, t, cfg.inner)
    mesh = _first_mesh(problem, cfg)
    level.solve([x])
    grad = _gradient(problem, level, x)
    if grad is not None and np.abs(grad).max() > DECREASE_TOL:
        if hess is None:
            hess = np.eye(len(x)) * (np.abs(grad).max() / mesh)
        x, grad, hess, stuck = _bfgs(problem, cfg, level, x, grad, hess)
        if grad is not None and not (stuck and x.tolist() == start.tolist()):
            while mesh >= 2.0 * cfg.mesh_tol:
                mesh *= 0.5
            val, res = level.cache[x.tobytes()]
            points = _poll_points(problem, x, mesh) if mesh >= cfg.mesh_tol else []
            level.solve(points)
            polls = sorted(((level.objective(xp)[0], xp.tolist(), xp) for xp in points), key=lambda rec: rec[:2])
            if not polls or polls[0][0] >= val - DECREASE_TOL:
                flat = bool(polls) and x.tolist() == start.tolist() and all(abs(v - val) <= DECREASE_TOL for v, _, _ in polls)
                return level.result(x, val, res, 0.5 * mesh, flat), hess
            x = polls[0][2]
    res = _pattern_search(problem, x, cfg, level)
    res.flat = res.flat and x.tolist() == start.tolist()
    return res, hess


def scholtes_solve(
    problem: BilevelProblem,
    params: Optional[RelaxationParams] = None,
    x0: Optional[Array] = None,
) -> RunTrace:
    """Geometric homotopy over the relaxation level with warm-started outer solves.

    A level is solved by :func:`minimize_psi_t` when n = 1 and by the
    gradient level solve (BFGS, then one confirming poll round) when n >= 2;
    the latter's Hessian estimate carries from level to level.
    Each level's inner solves start from the configured random starts plus
    at most max(1, starts) points of the previous level's argmax cloud,
    evenly spaced along its lexicographic order with both ends kept (the
    first alone when starts <= 1).  Stops when the next level drops below
    t_min, when the leader iterate stalls for two levels in a row, or at
    the iteration cap.  A flat level (``MinimizeResult.flat``) is no evidence
    of a stall: it neither counts toward the two nor breaks the row.  Inner
    infeasibility terminates the run with the partial trace preserved.
    """
    params = config_or_default(params, RelaxationParams, "params")
    if x0 is None:
        if problem.x_box is None:
            raise ValueError("x0 required for problems without a leader box")
        x0 = problem.x_box.mean(axis=1)
    x = _project_x(problem, problem.leader_point(x0, "x0"))

    trace = RunTrace()
    t = params.t0
    warm: tuple = ()
    small_steps = 0
    hess = None  # the n >= 2 level solve's Hessian estimate, carried from level to level
    for k in range(params.max_outer_iters):
        inner_cfg = replace(params.outer.inner, warm_starts=warm)
        cfg_k = replace(params.outer, inner=inner_cfg)
        try:
            if problem.dims.n == 1:
                step = minimize_psi_t(problem, t, x, cfg_k)
            else:
                step, hess = _gradient_level(problem, t, x, cfg_k, hess)
        except OuterInfeasibleError as err:
            trace.terminal = f"failure: {err}"
            return trace
        trace.unread_evals += step.unread
        trace.inner_calls += step.calls
        trace.records.append(
            TraceRecord(
                k=k,
                t=t,
                x=step.x,
                psi=step.value,
                argmax=step.inner.argmax,
                inner_status=step.inner.status,
                outer_evals=step.evals,
                final_mesh=step.final_mesh,
            )
        )
        move = step.x - x
        dx = math.sqrt(move.dot(move))  # np.linalg.norm(move), without its wrapper
        if dx > params.x_tol:
            small_steps = 0
        elif not step.flat:
            small_steps += 1
        x = step.x
        # Passing the whole cloud on would grow the start set by up to
        # `starts` per level, since nearly every polished start reaches the max.
        cloud = step.inner.argmax.points
        keep = max(1, params.outer.inner.starts)
        if len(cloud) > keep:
            cloud = cloud[np.linspace(0, len(cloud) - 1, keep).round().astype(int)]
        warm = tuple(cloud)
        if small_steps >= 2:
            trace.terminal = "x_converged"
            return trace
        t_next = params.rho * t
        if t_next < params.t_min:
            trace.terminal = "t_min_reached"
            return trace
        t = t_next
    trace.terminal = "max_outer_iters"
    return trace
