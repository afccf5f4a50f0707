"""Inner maximisation: the relaxed pessimistic value function and its argmax.

For fixed leader point x and relaxation level t >= 0 this evaluates

    psi(x, t) = max { F(x, y) : (y, u) in the level-t follower KKT set }

by a multistart feasible-direction ascent (gradient projection with
restoration) that stays on that set, from points first polished onto it by
the same Gauss-Newton restoration, and approximates the set of
near-maximisers.  The starts advance in lockstep, so every ascent or
polish step evaluates the problem once for the batch.
:func:`psi_t_gradient` reads the gradient of psi in x off the multipliers
of the argmax cloud.  A brute-force grid maximiser is provided as an
independent oracle for low-dimensional problems.

A lockstep stage works on a few small rows, so numpy's per-call overhead
costs more than its arithmetic.  The hot loop (the polish, the projection
and the ascent) therefore calls ufuncs, array methods and the solve
gufunc directly, never a numpy Python wrapper whose layer costs more than
the work: ``.clip`` for ``np.clip``, ``.mT`` for ``np.swapaxes``, strided
views for ``np.einsum`` diagonals, ``.nonzero()`` for ``np.flatnonzero``
and ``numpy.linalg._umath_linalg.solve`` for ``np.linalg.solve``.  That
kernel is the package's one private numpy name (see
:func:`_regularised_solve`), guarded by
``test_regularised_solve_equals_numpys_solve`` in ``tests/test_maxmin.py``.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .problem_model import (
    Array,
    BilevelProblem,
    DimensionError,
    TriplePoint,
    config_or_default,
    is_finite_number,
    is_number,
    lagrangian_jacobians_unchecked,
    problem_key,
    relaxation_level,
    relaxed_jacobian,
    relaxed_rows,
    relaxed_violations,
)

# Level slack of the argmax cloud: every feasible start within it of the best
# value joins the cloud.  The certifier's graph-value row uses it too.
EPS_LVL_DEFAULT = 1e-4
DEDUP_TOL = 1e-9
# Gauss-Newton iterations of one feasibility polish.
POLISH_MAXITER = 60
# GridSpec.tolerance: the grid-scaled feasibility tolerance of the grid samplers and oracles
GRID_TOL_FACTOR = 0.75
GRID_TOL_FLOOR = 1e-8
NEAR_FEAS_BAND = 1e-3
# Ascent: inequality rows within ACTIVE_TOL of zero are active, and a
# projected gradient within RANK_TOL * (1 + |grad F|) counts as zero.
ACTIVE_TOL = 1e-7
RANK_TOL = 1e-10
# Ascent: a row stops once its halved trial length falls below STEP_MIN.
STEP_MIN = 1e-9
# Grid points brute_force_psi_t and sample_relaxed_set test at once (GridSpec.chunks); about 2 MB per coordinate block
# at m + q = 4, where a whole 25^4 grid held about 31 MB.
GRID_CHUNK_ROWS = 65536
# psi_t_gradient: a cloud point counts as a KKT point of the inner max while
# its projected grad F is within GRAD_KKT_TOL * (1 + |grad F|), and the
# cloud's gradients must agree within GRAD_SPREAD_TOL * (1 + |grad_x F|).
# The cloud sits on D_t only to feas_tol, so an absolute 1e-6 spread refused
# every level of a default run below t = 5e-4.
GRAD_KKT_TOL = 1e-6
GRAD_SPREAD_TOL = 1e-3
# Leader rows whose inner-solve results the process keeps (see _solve_rows).
# A kept result of a built-in problem takes under 1 KB; the problem and
# attribute objects each entry keeps alive are not counted.
MEMO_ROWS = 2048


class InnerInfeasibleError(RuntimeError):
    """The relaxed follower KKT set appears empty at the queried (x, t)."""


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate (lo, hi, count) axes over the stacked (y, u) block.

    An axis with count 1 collapses to its lower endpoint.  An axis whose count
    is not a positive integer, or whose bounds are not finite with lo <= hi,
    is refused with ValueError.
    """

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        for lo, hi, n in self.axes:
            if not (is_number(n, integral=True) and n >= 1):
                raise ValueError(f"grid axis count must be a positive integer, got {n!r}")
            if not (is_finite_number(lo) and is_finite_number(hi) and lo <= hi):
                raise ValueError(f"grid axis bounds must be finite with lo <= hi, got ({lo!r}, {hi!r})")

    def check_width(self, k: int) -> None:
        """Refuse (ValueError) a grid without one axis per coordinate of a k-wide (y, u) block."""
        if len(self.axes) != k:
            raise ValueError(f"grid must cover all {k} follower coordinates")

    def arrays(self) -> list[Array]:
        return [np.array([lo]) if n == 1 else np.linspace(lo, hi, n) for lo, hi, n in self.axes]

    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    def rows(self, start: int, stop: int) -> Array:
        """Points start..stop-1 of :meth:`points`, built by index arithmetic."""
        index = np.unravel_index(np.arange(start, stop), self.shape())
        return np.stack([axis[i] for axis, i in zip(self.arrays(), index)], axis=-1)

    def points(self) -> Array:
        """Every grid point, the last axis varying fastest."""
        return self.rows(0, math.prod(self.shape()))

    def chunks(self):
        """The rows of :meth:`points` in order, in blocks of at most GRID_CHUNK_ROWS."""
        size = math.prod(self.shape())
        for start in range(0, size, GRID_CHUNK_ROWS):
            yield self.rows(start, min(start + GRID_CHUNK_ROWS, size))

    def max_step(self) -> float:
        return max(((hi - lo) / (n - 1) for lo, hi, n in self.axes if n > 1), default=0.0)

    def tolerance(self) -> float:
        """Feasibility tolerance of a grid point: GRID_TOL_FACTOR * max_step, floored at GRID_TOL_FLOOR."""
        return max(GRID_TOL_FACTOR * self.max_step(), GRID_TOL_FLOOR)


@dataclass
class SampledSet:
    """A finite point cloud in the (y, u) space with its generation record."""

    points: Array
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points.reshape(1, -1) if self.points.size else self.points.reshape(0, 0)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def dedup_points(pts: Array, tol: float = DEDUP_TOL) -> Array:
    """Lexicographically sorted points with near-duplicates (inf-norm tol) removed.

    Greedy in sorted order: a point is dropped when its inf-norm distance to
    a point kept before it is at most tol.  Only the pairs of
    :func:`_close_pairs` are compared.  A point with a NaN or infinite entry,
    or a tol that is not a finite number >= 0, is refused with ValueError.
    """
    if not (is_finite_number(tol) and tol >= 0.0):
        raise ValueError(f"dedup tolerance must be finite and nonnegative, got {tol!r}")
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[-1] if pts.ndim == 2 else 0)
    if not np.isfinite(pts).all():
        raise ValueError("dedup_points takes finite points only")
    P = pts[np.lexsort(pts.T[::-1])]
    j, i = _close_pairs(P, tol)
    # keep[i] = no kept j close before i, solved by fixed-point sweeps from the
    # rows no pair drops; the pairs point forward, so every sweep settles at
    # least one more row and the first repeated sweep is the greedy answer.
    keep = np.ones(len(P), dtype=bool)
    keep[i] = False
    while True:
        sweep = np.ones(len(P), dtype=bool)
        sweep[i[keep[j]]] = False
        if (sweep == keep).all():
            return P[keep]
        keep = sweep


def _close_pairs(P: Array, tol: float) -> tuple[Array, Array]:
    """The row pairs (j, i), j < i, of a sorted finite block whose inf-norm distance is at most tol.

    A row is compared only with the rows before it whose first coordinate
    lies within about 2 tol of its own, at most GRID_CHUNK_ROWS pairs at a
    time.
    """
    v, idx = P[:, 0], np.arange(len(P))
    # lower edges below v - 2 tol even after rounding, so no close row is missed
    count = idx - np.minimum(v.searchsorted(v - (2.0 * tol + 1e-15 * np.abs(v))), idx)
    ends = count.cumsum()
    # pair number g of row r (ends[r] - count[r] <= g < ends[r]) compares it with row g + shift[r]
    shift = idx - ends
    pairs_j, pairs_i = [], []
    a = 0
    while a < len(P):
        b = max(a + 1, int(ends.searchsorted(ends[a] - count[a] + GRID_CHUNK_ROWS, side="right")))
        ii = idx[a:b].repeat(count[a:b])
        jj = np.arange(ends[a] - count[a], ends[b - 1]) + shift[a:b].repeat(count[a:b])
        close = np.abs(P[jj] - P[ii]).max(axis=1) <= tol
        pairs_j.append(jj[close])
        pairs_i.append(ii[close])
        a = b
    return np.concatenate(pairs_j), np.concatenate(pairs_i)


@dataclass
class InnerConfig:
    """Starts and budgets of the multistart inner maximiser.

    ``starts`` seeded random starts (``seed``) run alongside the
    ``warm_starts`` (each a finite vector of m + q entries); together they
    must give at least one start.  A solve runs at most ``sweeps``
    polish-then-ascend rounds, each ascent at most ``local_maxiter``
    trials; a start whose ascent was still running after them runs the
    next round, and the solve stops once none was.  Follower multipliers
    are searched in [0, ``u_max``], the follower variables in the problem's
    ``y_box``, and a point counts as feasible when its largest violation is
    at most ``feas_tol``.  The polish budget (POLISH_MAXITER), the ascent's
    least trial length (STEP_MIN) and the argmax level slack
    (EPS_LVL_DEFAULT) are module constants.
    """

    starts: int = 32
    sweeps: int = 5
    u_max: float = 10.0
    feas_tol: float = 1e-8
    seed: int = 0
    local_maxiter: int = 120
    warm_starts: tuple = ()

    def __post_init__(self) -> None:
        for name, least in (("starts", 0), ("seed", 0), ("sweeps", 1), ("local_maxiter", 1)):
            val = getattr(self, name)
            if not (is_number(val, integral=True) and val >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {val!r}")
        if not isinstance(self.warm_starts, tuple):
            raise ValueError(f"warm_starts must be a tuple of vectors, got {self.warm_starts!r}")
        if self.starts + len(self.warm_starts) < 1:
            raise ValueError("the inner solver needs at least one random or warm start")
        for name in ("u_max", "feas_tol"):
            val = getattr(self, name)
            if not (is_finite_number(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, got {val!r}")


@dataclass
class InnerSolveResult:
    value: float
    argmax: SampledSet
    status: str  # "solved" | "infeasible" | "budget_exhausted" | "nonfinite"
    # polish iterations plus the ascent's evaluations (one per new direction,
    # one per trial, and the new iterates of its restoration polishes), summed
    # over the starts and over the rounds they ran (a start's skipped rounds
    # count nothing); a result the process already held (see evaluate_psi_t)
    # reports the cost of the solve that first made it
    evals: int
    rounds: int = 0  # rounds that ran a start of the leader point, at most sweeps


def follower_box(problem: BilevelProblem, cfg: InnerConfig) -> tuple[Array, Array]:
    """Lower and upper bounds of the stacked (y, u) block searched by the inner solver.

    The y part is the problem's ``y_box`` (decided, and checked, when the
    problem is built); each multiplier runs over [0, cfg.u_max].
    """
    yb, q = problem.y_box, problem.dims.q
    return np.concatenate([yb[:, 0], np.zeros(q)]), np.concatenate([yb[:, 1], np.full(q, cfg.u_max)])


def _take(X: Array, rows) -> Array:
    """The rows of a leader block that go with the given rows of Z; a (1, n) block goes with all."""
    return X if len(X) == 1 else X[rows]


# Relative Tikhonov weight of the normal equations of the polish and of the
# ascent's projection: tiny enough to leave well-conditioned systems alone,
# large enough that a rank-deficient one still gets the near-minimum-norm
# solution.
_POLISH_REG = 1e-14
# The least positive normal float, which the regularised diagonal adds.
_TINY = float(np.finfo(float).tiny)


def _regularised_solve(M: Array, rhs: Array, refine: bool = False) -> Array:
    """Solutions x of (M + _POLISH_REG * tr(M) * I) x = rhs for a stack of PSD matrices M.

    ``refine`` adds one refinement step against the unregularised M.  Rows
    with a non-finite entry get x = 0.

    The solves call the LAPACK gufunc under ``np.linalg.solve``
    (``numpy.linalg._umath_linalg.solve``, float64 in and out), the one
    private numpy name of the package, whose Python layer costs more than
    a small stack's solve.  That layer checks the shapes and types, which
    hold here, and raises LinAlgError on a singular matrix, which never
    reaches the kernel: a PSD M plus a diagonal shift of at least tiny is
    positive definite, and a row with a non-finite entry is replaced by
    the identity.  ``test_regularised_solve_equals_numpys_solve`` in
    ``tests/test_maxmin.py`` guards that the kernel still answers as
    ``np.linalg.solve`` does.
    """
    Mr = M.copy()
    d = Mr.shape[1]
    diag = Mr.reshape(len(Mr), d * d)[:, :: d + 1]  # a writable view of the diagonals
    # tiny keeps an all-zero M (whose rhs is zero too) nonsingular
    diag += _POLISH_REG * np.add.reduce(diag, axis=1, keepdims=True) + _TINY
    # rhs is a stack of (d, 1) columns, as numpy 2.0's solve broadcasting needs
    rhs = rhs[:, :, None]
    if not (np.isfinite(Mr).all() and np.isfinite(rhs).all()):
        ok = (np.isfinite(Mr).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2)))[:, None, None]
        M, Mr, rhs = np.where(ok, M, 0.0), np.where(ok, Mr, np.eye(d)), np.where(ok, rhs, 0.0)
    x = _umath_linalg.solve(Mr, rhs, signature="dd->d")
    if refine:
        x += _umath_linalg.solve(Mr, rhs - M @ x, signature="dd->d")
    return x[:, :, 0]


def polish_onto_relaxed_set(
    problem: BilevelProblem, x: Array, Z: Array, t: float, lo: Array, hi: Array, feas_tol: float
) -> tuple[Array, Array, Array]:
    """Drive every row of Z onto the level-t follower KKT set at its leader point.

    x is one leader point of shape (n,) or (1, n) for every row, or a block
    of shape (N, n) with one leader point per row of Z.  Active-set
    Gauss-Newton on the constraint violations inside the box [lo, hi] (the
    inner solver passes :func:`follower_box`; its rows leave u >= 0 to the
    box, so lo < 0 on a multiplier is refused), stopping per row once
    its largest violation is at most feas_tol, when a step no longer
    reduces the squared violation by more than (feas_tol / 10)**2, or after
    POLISH_MAXITER iterations.
    Each step solves the normal equations (J^T J + 1e-14 tr(J^T J) I) dz =
    -J^T v once, for all rows in one batched solve, so a rank-deficient J
    still gets the near-minimum-norm step.  The binding set is fixed: the
    coordinates at a bound whose steepest descent -J^T v points out of the
    box (Bertsekas's projected Newton rule) keep their row, column and rhs
    zeroed, so their step is 0.  The step is clipped to the box and halved
    until it lowers the squared violation.

    Returns the polished rows, their largest violations and their iteration
    counts: the iterates each row is checked at, the clipped input first.
    """
    m, q = problem.dims.m, problem.dims.q
    if not (np.asarray(lo, dtype=float)[m:] >= 0.0).all():
        raise ValueError("the multiplier part of the box must not reach below 0")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Z = np.array(Z, dtype=float).reshape(-1, m + q).clip(lo, hi)
    Z, viol, iters = _polish(problem, X, Z, *relaxed_violations(problem, X, Z, t), t, lo, hi, feas_tol)
    return Z, viol, iters + 1


def _polish(
    problem: BilevelProblem, X: Array, Z: Array, g: Array, v: Array, viol: Array, t: float, lo: Array, hi: Array, feas_tol: float
) -> tuple[Array, Array, Array]:
    """:func:`polish_onto_relaxed_set` from rows of Z inside [lo, hi] whose
    ``problem_model.relaxed_violations`` g, v and viol are already known.

    Z, g, v and viol are updated in place, so on return g and v are those
    of the returned points.  Each iteration makes one regularised solve,
    with the binding set fixed.  The iteration counts leave out the check
    at the given rows, so they count only new iterates.
    """
    m = problem.dims.m
    # g, v and viol always belong to the current Z: a step's line search has
    # already evaluated them at the point it accepts.
    iters = np.zeros(Z.shape[0], dtype=int)
    floor = (0.1 * feas_tol) ** 2  # least decrease of the squared violation a step must make
    todo = (viol > feas_tol).nonzero()[0]
    for k in range(POLISH_MAXITER):
        if not todo.size:
            break
        Xt, Zt, vt = _take(X, todo), Z[todo], v[todo]
        J = relaxed_jacobian(problem.lagrangian_jac_rows(Xt, Zt[:, :m], Zt[:, m:]), Zt[:, m:], g[todo])
        # rows of satisfied inequalities stay out of the least squares
        J[:, m:] *= (vt[:, m:] > 0.0)[:, :, None]
        JtJ = J.mT @ J
        rhs = -(J * vt[:, :, None]).sum(axis=1)  # -J^T v, steepest descent of |v|^2 / 2
        # The binding set of Bertsekas's projected Newton method: coordinates at
        # a bound whose steepest descent points out of the box.  They are fixed,
        # otherwise clipping can turn the step into an ascent direction; a fixed
        # coordinate's zeroed row, column and rhs give it the step 0 / reg = 0.
        bind = ((Zt <= lo + 1e-12) & (rhs < 0.0)) | ((Zt >= hi - 1e-12) & (rhs > 0.0))
        if bind.any():
            free = ~bind
            JtJ = np.where(free[:, :, None] & free[:, None, :], JtJ, 0.0)
            rhs = np.where(free, rhs, 0.0)
        dz = _regularised_solve(JtJ, rhs)
        base = (vt * vt).sum(axis=1)
        accepted = np.zeros(todo.size, dtype=bool)
        pending = np.arange(todo.size)
        step = 1.0
        for _ in range(10):
            cand = (Zt[pending] + step * dz[pending]).clip(lo, hi)
            gc, vc, violc = relaxed_violations(problem, _take(Xt, pending), cand, t)
            better = (vc * vc).sum(axis=1) < base[pending] - floor
            rows = todo[pending[better]]
            Z[rows], g[rows], v[rows] = cand[better], gc[better], vc[better]
            viol[rows] = violc[better]
            accepted[pending[better]] = True
            pending = pending[~better]
            if not pending.size:
                break
            step *= 0.5
        todo = todo[accepted]
        # with the check at the given rows, at most POLISH_MAXITER iterates
        if k + 1 < POLISH_MAXITER:
            iters[todo] += 1
        todo = todo[viol[todo] > feas_tol]
    return Z, viol, iters


def _project(A: Array, on: Array, grad: Array) -> tuple[Array, Array]:
    """grad projected onto the tangent space of the active rows of A, the fixed coordinates held.

    ``on`` marks the active rows, then the upper and the lower bounds that
    fix a coordinate.  With B the active rows with the fixed columns zeroed
    and g grad zeroed on the fixed coordinates, the row multipliers solve
    the normal equations B B^T lam = B g, regularised as the polish's are
    (:func:`_regularised_solve`), so a rank-deficient B gets the
    near-least-norm lam; one refinement step against the unregularised
    B B^T follows.  Returns d = g - B^T lam and lam (0 on inactive rows).
    """
    rows, k = A.shape[1:]
    act, fixed = on[:, :rows], on[:, rows : rows + k] | on[:, rows + k :]
    B = A * (act[:, :, None] & ~fixed[:, None, :])
    Bt = B.mT
    g = np.where(fixed, 0.0, grad)
    lam = _regularised_solve(B @ Bt, (B @ g[:, :, None])[:, :, 0], refine=True)
    return g - (Bt @ lam[:, :, None])[:, :, 0], lam


def _multipliers(A: Array, on: Array, lam: Array, grad: Array) -> Array:
    """Multipliers of the rows and bounds ``on`` (else 0): lam, then side (grad - A_act^T lam), side +1 upper and -1 lower."""
    res = grad - (A.mT @ lam[:, :, None])[:, :, 0]
    return np.where(on, np.concatenate([lam, res, -res], axis=1), 0.0)


def _active_rows(
    problem: BilevelProblem, X: Array, Z: Array, t: float, lo: Array, hi: Array, known: tuple[Array, Array]
) -> tuple[Array, Array, Array, Array]:
    """The Jacobian A of the signed rows in (y, u), grad F in (y, u), the gaps and the active set at every row of Z.

    ``known`` is the rows' g and L rows from the evaluation that put them
    on D_t; the signed rows are assembled from them
    (``problem_model.relaxed_rows``).  The gaps are the signed rows, then Z - hi
    and lo - Z; the L rows are always active, and every other row or bound
    whose gap is at least -ACTIVE_TOL.  A row whose rows, Jacobian or grad
    F has a non-finite entry gets all three zeroed, so it projects to 0.
    """
    m = problem.dims.m
    g, r = relaxed_rows(problem, X, Z, t, known)
    A = relaxed_jacobian(problem.lagrangian_jac_rows(X, Z[:, :m], Z[:, m:]), Z[:, m:], g)
    grad = np.zeros(Z.shape)
    grad[:, :m] = problem.grad_F_rows(X, Z[:, :m])
    if not (np.isfinite(A).all() and np.isfinite(r).all() and np.isfinite(grad).all()):
        bad = ~(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(r).all(axis=1) & np.isfinite(grad).all(axis=1))
        r[bad], A[bad], grad[bad] = 0.0, 0.0, 0.0
    gap = np.concatenate([r, Z - hi, lo - Z], axis=1)  # the signed rows, then the upper and lower bounds
    on = gap >= -ACTIVE_TOL
    on[:, :m] = True
    return A, grad, gap, on


def _directions(
    problem: BilevelProblem, X: Array, Z: Array, t: float, lo: Array, hi: Array, known: tuple[Array, Array]
) -> tuple[Array, Array, Array]:
    """Projected-gradient ascent directions at every row of Z.

    grad F is projected onto the active rows (:func:`_active_rows`: the L
    rows, and the inequality rows within ACTIVE_TOL of zero) with every
    coordinate within ACTIVE_TOL of a bound fixed (:func:`_project`); while
    it vanishes, the active row or bound with the most negative multiplier
    (computed only then) is freed.  ``known`` is the rows' g and L rows from
    the evaluation that put them on D_t (finite there), so no direction
    evaluates residuals of its own; a row with a non-finite entry gets d = 0.
    Returns whether each row has a direction (it is no KKT point, and its
    rows, Jacobian and grad F are finite), the direction d and the step
    cap: the length at which the step first crosses an inactive row or
    bound.  The box is bounded and d is 0 on every fixed coordinate, so
    the cap is finite unless d moves only coordinates toward bounds that
    were freed.
    """
    m = problem.dims.m
    A, grad, gap, on = _active_rows(problem, X, Z, t, lo, hi, known)
    small = RANK_TOL * (1.0 + np.abs(grad).max(axis=1, initial=0.0))
    d, lam = _project(A, on, grad)
    todo = np.arange(Z.shape[0])
    for _ in range(on.shape[1]):
        todo = todo[np.abs(d[todo]).max(axis=1, initial=0.0) <= small[todo]]
        if not todo.size:
            break
        mult = _multipliers(A[todo], on[todo], lam[todo], grad[todo])
        mult[:, :m] = 0.0  # the L rows are equalities
        neg = mult.min(axis=1) < 0.0
        todo = todo[neg]
        if not todo.size:
            break
        on[todo, mult[neg].argmin(axis=1)] = False
        d[todo], lam[todo] = _project(A[todo], on[todo], grad[todo])
    slope = np.concatenate([(A @ d[:, :, None])[:, :, 0], d, -d], axis=1)
    cross = (gap < -ACTIVE_TOL) & (slope > 0.0)
    cap = np.where(cross, -gap / np.where(cross, slope, 1.0), np.inf).min(axis=1, initial=np.inf)
    return np.abs(d).max(axis=1, initial=0.0) > small, d, cap


def _ascend(
    problem: BilevelProblem, X: Array, Z: Array, t: float, lo: Array, hi: Array, cfg: InnerConfig
) -> tuple[Array, Array, Array, Array, Array]:
    """Feasible-direction ascent of F from the starts Z in [lo, hi], each polished onto D_t first.

    The starts are evaluated once by ``problem_model.relaxed_violations`` and polished from
    that evaluation by :func:`_polish`, the restoration every trial off D_t
    gets.  Then gradient projection with restoration, all rows in lockstep,
    with Rosen's step rule: a new :func:`_directions` direction's first
    trial steps to its cap, the first inactive row or bound it crosses, and
    each rejected trial halves the length.  A trial is evaluated once; one
    off D_t by more than cfg.feas_tol is restored, and a restored point
    that is feasible with a higher F is accepted and gets a new direction.
    Each direction takes its g and L rows from the evaluation or polish
    that put its point on D_t, their one source.  A row stops at a KKT
    point, once its length falls below STEP_MIN, or after cfg.local_maxiter
    trials; a row left off D_t, or with a non-finite F, does not run.

    A row is settled unless it was still running after cfg.local_maxiter
    trials.  A row that stopped by itself has not moved since its last
    direction, so another ascent from its point would find that direction
    and cap again and repeat this one bit for bit (Rosen's stopping rule).

    Returns the points, their violations, their F values, the residual
    evaluations of each row (the check at the start, the new iterates of
    every polish, one per new direction and one per trial) and the settled
    mask.
    """
    m, q = problem.dims.m, problem.dims.q
    N = Z.shape[0]
    Z = Z.copy()  # the polish writes its rows in place
    g, v, viol = relaxed_violations(problem, X, Z, t)
    Z, viol, evals = _polish(problem, X, Z, g, v, viol, t, lo, hi, cfg.feas_tol)
    evals += 1  # the check at the start
    f = problem.F_rows(X, Z[:, :m])
    step, d = np.zeros(N), np.zeros((N, m + q))  # trial lengths and directions
    running = (viol <= cfg.feas_tol) & np.isfinite(f)
    fresh = running.nonzero()[0]
    known = g[fresh], v[fresh, :m]  # g and L rows at the fresh rows
    for _ in range(cfg.local_maxiter):
        if fresh.size:  # new directions at the rows that moved
            moving, d[fresh], step[fresh] = _directions(problem, _take(X, fresh), Z[fresh], t, lo, hi, known)
            evals[fresh] += 1
            running[fresh[~moving]] = False
        run = running.nonzero()[0]
        if not run.size:
            break
        Xr = _take(X, run)
        Zt = (Z[run] + step[run, None] * d[run]).clip(lo, hi)
        gt, vv, vt = relaxed_violations(problem, Xr, Zt, t)
        evals[run] += 1
        far = (vt > cfg.feas_tol).nonzero()[0]
        if far.size:
            # the polish updates gf and vf in place to those of the points it returns
            gf, vf = gt[far], vv[far]
            Zt[far], vt[far], iters = _polish(problem, _take(Xr, far), Zt[far], gf, vf, vt[far], t, lo, hi, cfg.feas_tol)
            gt[far], vv[far] = gf, vf
            evals[run[far]] += iters
        ft = problem.F_rows(Xr, Zt[:, :m])
        up = (vt <= cfg.feas_tol) & (ft > f[run])
        fresh, back = run[up], run[~up]
        known = gt[up], vv[up, :m]
        Z[fresh], viol[fresh], f[fresh] = Zt[up], vt[up], ft[up]
        step[back] *= 0.5
        running[back] = step[back] >= STEP_MIN
    return Z, viol, f, evals, ~running


def evaluate_psi_t(
    problem: BilevelProblem,
    x: Array,
    t: float,
    cfg: Optional[InnerConfig] = None,
) -> InnerSolveResult:
    """Best feasible leader objective over the level-t follower KKT set at x.

    Multistart feasible-direction ascent in at most cfg.sweeps rounds, each
    one :func:`_ascend` call: the starts and the off-set trials reach the
    set by one restoration, the polish of :func:`polish_onto_relaxed_set`.
    Only a start whose ascent ran out of cfg.local_maxiter trials runs the
    next round (:func:`_solve_batch`); any other would come out of every
    later round unchanged.  ``rounds`` counts the rounds that ran.  ``evals``
    counts the polish iterations plus the ascent's evaluations (see
    :class:`InnerSolveResult`).  The reported value comes only from points
    feasible within cfg.feas_tol with a finite F, and the argmax cloud
    collects every one within EPS_LVL_DEFAULT of the best value.  All
    starts advance together, so each evaluation covers the whole batch.

    Inputs already solved in this process return the earlier result, as a
    fresh copy: the same problem object with the same attribute objects,
    the same bits of x and t, and equal config fields, warm starts and
    follower box (:func:`_solve_rows`).  So the problem's callbacks must be
    pure functions of their arguments.  Reassigning an attribute, or
    building a changed problem with ``dataclasses.replace``, is detected;
    an in-place change to state that a callback closes over is not, as for
    the certifier's point record.  ``evals`` then reports the cost of the
    solve that first made the result.  At most MEMO_ROWS (2,048) results
    are kept, the least recently used evicted first.
    """
    x = problem.leader_point(x)
    return _solve_rows(problem, x[None], t, config_or_default(cfg, InnerConfig))[0]


def evaluate_psi_t_batch(
    problem: BilevelProblem,
    X: Array,
    t: float,
    cfg: Optional[InnerConfig] = None,
) -> list[InnerSolveResult]:
    """:func:`evaluate_psi_t` at every row of the (N, n) leader block X.

    Every row gets the same seeded and warm starts, and the starts of all
    rows advance together, so one evaluation covers many leader points.
    The ascent uses only row-independent linear algebra (stacked solves
    and matmuls, one matrix per row, and elementwise operations), a trial
    is polished only when its own evaluation finds it off the set, and the
    argmax clouds of different rows are never compared with each other, so
    each result is bit for bit the one a lone call at that row returns.
    Rows already solved in this process, in an earlier call or earlier in
    X, are not solved again (see :func:`evaluate_psi_t`); the others are
    solved in one batch.
    """
    X = problem.leader_block(X)
    return _solve_rows(problem, X, t, config_or_default(cfg, InnerConfig))


def _warm_block(cfg: InnerConfig, k: int) -> Array:
    """cfg.warm_starts as a (len, k) block; a start that is not a finite k-vector is refused."""
    warm = [np.asarray(w, dtype=float) for w in cfg.warm_starts]
    for w in warm:
        if w.shape != (k,) or not np.isfinite(w).all():
            raise ValueError(f"each warm start must be a finite vector of m + q = {k} entries")
    return np.reshape(warm, (len(warm), k))


# A solve's seeded starts depend only on the seed, the start count and the
# follower box, so each such block is drawn once; the box goes in as the
# bytes of its bounds, so boxes that differ in any bit get their own block.
@functools.lru_cache(maxsize=32)
def _seeded_starts(seed: int, starts: int, lo_bytes: bytes, hi_bytes: bytes) -> Array:
    """``starts`` uniform draws of ``default_rng(seed)`` in the box [lo, hi], as a read-only block."""
    lo, hi = np.frombuffer(lo_bytes), np.frombuffer(hi_bytes)
    block = np.random.default_rng(seed).uniform(lo, hi, size=(starts, lo.size))
    block.flags.writeable = False
    return block


class _Memo:
    """Inner-solve results by row key (:func:`_row_keys`), least recently used first.

    Each entry is (the objects whose ids its key names, result), so no id
    is reused while it lives (:func:`problem_model.problem_key`).
    ``hits`` counts the rows answered without a solve of their own, from
    an entry or from a like row earlier in the same call, and ``misses``
    the rows solved.
    """

    def __init__(self) -> None:
        self.rows: OrderedDict = OrderedDict()
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0


_memo = _Memo()
# the config fields a row key holds as they are; the warm starts go in as bytes
_KEY_FIELDS = tuple(f.name for f in dataclasses.fields(InnerConfig) if f.name != "warm_starts")


def _row_keys(ids: tuple, X: Array, t: float, cfg: InnerConfig, warm: Array, lo: Array, hi: Array) -> list[tuple]:
    """The memo key of each row of X: the problem's key ids (:func:`problem_model.problem_key`),
    the bits of t, every config field with the warm block's bytes, the
    follower box's bytes and the row's bytes."""
    settings = tuple(getattr(cfg, name) for name in _KEY_FIELDS)
    base = (ids, t.hex(), settings, warm.tobytes(), lo.tobytes(), hi.tobytes())
    return [base + (row.tobytes(),) for row in X]


def _fresh(res: InnerSolveResult) -> InnerSolveResult:
    """res with its own argmax points and meta, so no caller writes into a kept result."""
    return dataclasses.replace(res, argmax=SampledSet(res.argmax.points.copy(), dict(res.argmax.meta)))


def _solve_rows(problem: BilevelProblem, X: Array, t: float, cfg: InnerConfig) -> list[InnerSolveResult]:
    """The inner solves at the rows of X, each distinct row solved once per process.

    The inputs are checked on every call.  A row whose key (:func:`_row_keys`)
    the memo holds, or that repeats an earlier row of X, is answered from
    that result; the other distinct rows are solved in one batch
    (:func:`_solve_batch`) and kept, the least recently used entries
    evicted beyond MEMO_ROWS.  Every batch row equals its lone solve bit
    for bit, so a kept result is exactly what a fresh solve returns.  The
    solve runs outside the lock, and a solve that raises keeps nothing.
    """
    t = relaxation_level(t)
    lo, hi = follower_box(problem, cfg)
    warm = _warm_block(cfg, problem.dims.m + problem.dims.q)
    ids, held = problem_key(problem)
    keys = _row_keys(ids, X, t, cfg, warm, lo, hi)
    known: dict[tuple, InnerSolveResult] = {}
    with _memo.lock:
        for key in keys:
            entry = _memo.rows.get(key)
            if entry is not None:
                _memo.rows.move_to_end(key)
                known[key] = entry[1]
        todo = {key: r for r, key in enumerate(keys) if key not in known}
        _memo.hits += len(keys) - len(todo)
        _memo.misses += len(todo)
    if todo:
        rows = list(todo.values())
        solved = _solve_batch(problem, X if len(rows) == len(X) else X[rows], t, cfg, lo, hi, warm)
        with _memo.lock:
            for key, res in zip(todo, solved):
                known[key] = res
                _memo.rows[key] = (held, res)
                _memo.rows.move_to_end(key)
            while len(_memo.rows) > MEMO_ROWS:
                _memo.rows.popitem(last=False)
    return [_fresh(known[key]) for key in keys]


def _solve_batch(problem: BilevelProblem, X: Array, t: float, cfg: InnerConfig, lo: Array, hi: Array, warm: Array) -> list[InnerSolveResult]:
    """The inner solves at the rows of X, every start of every row in lockstep.

    t is a checked level, [lo, hi] the follower box and warm the warm
    block of cfg.  Each round is one :func:`_ascend` call on the live
    rows: all rows in the first round, then those whose ascent still ran
    when cfg.local_maxiter trials ran out (a start polish's POLISH_MAXITER
    budget is final).  Every operation is row-independent, so which rows
    run changes no row's result.  The results of all leader points are
    then built in one pass (:func:`_inner_results`).
    """
    rand = _seeded_starts(cfg.seed, cfg.starts, lo.tobytes(), hi.tobytes())
    Z0 = np.vstack([warm, rand]).clip(lo, hi)
    n_starts, Z = len(Z0), Z0
    if len(X) > 1:  # row r * n_starts + s is start s at leader point r
        Z = np.tile(Z0, (len(X), 1))
        X = np.repeat(X, n_starts, axis=0)
    evals = np.zeros(Z.shape[0], dtype=int)
    viol, fval = np.empty(Z.shape[0]), np.empty(Z.shape[0])
    rounds = np.zeros(len(Z) // n_starts, dtype=int)
    live = np.arange(Z.shape[0])
    # Overflow only turns rows non-finite, which the polish and the ascent
    # already handle and _inner_results reports; numpy's warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.sweeps):
            Z[live], viol[live], fval[live], ascent_evals, settled = _ascend(problem, _take(X, live), Z[live], t, lo, hi, cfg)
            evals[live] += ascent_evals
            # a mask, not np.unique, which loads numpy.ma on its first call
            rounds += np.bincount(live // n_starts, minlength=len(rounds)) > 0
            live = live[~settled]
            if not live.size:
                break
        return _inner_results(Z, viol, fval, evals, t, cfg, rounds)


def _inner_results(Z: Array, viol: Array, fval: Array, evals: Array, t: float, cfg: InnerConfig, rounds: Array) -> list[InnerSolveResult]:
    """The value, status and argmax cloud of every leader point from its polished starts.

    Leader point r owns rows r * S to (r + 1) * S - 1 of Z, viol, fval and
    evals, S = len(Z) // len(rounds).  A start counts only when it is on
    D_t within cfg.feas_tol with a finite F.  With none, the status is
    "nonfinite" when a start reached D_t with a non-finite F or every
    start's squared violation overflows (the verdict would be an artefact,
    not an empty set), "budget_exhausted" when one came within
    NEAR_FEAS_BAND, and "infeasible" otherwise.
    The clouds of all leader points are deduplicated in one
    :func:`dedup_points` call, each (feasible, so finite) point keyed by its
    leader point's index in the first coordinate, so only points of one
    leader point are compared.
    """
    R, k = len(rounds), Z.shape[1]
    viol, fval = viol.reshape(R, -1), fval.reshape(R, -1)
    on_set = viol <= cfg.feas_tol
    feas = on_set & np.isfinite(fval)
    solved = feas.any(axis=1)
    value = np.where(feas, fval, -np.inf).max(axis=1)
    value[~solved] = np.nan
    near = (viol <= NEAR_FEAS_BAND).any(axis=1)
    unsolved = np.where(near, 1, np.where(np.isfinite(viol * viol).any(axis=1), 2, 3))
    status = np.where(solved, 0, np.where(on_set.any(axis=1), 3, unsolved))
    row, start = (feas & (fval >= value[:, None] - EPS_LVL_DEFAULT)).nonzero()
    cloud = dedup_points(np.column_stack([row, Z.reshape(R, -1, k)[row, start]]), DEDUP_TOL)
    ends = cloud[:, 0].searchsorted(np.arange(R + 1))  # the cloud is sorted by its key
    cloud = cloud[:, 1:].copy()
    evals = evals.reshape(R, -1).sum(axis=1)
    meta = {"kind": "multistart", "seed": cfg.seed, "starts": cfg.starts, "t": float(t)}
    return [
        InnerSolveResult(
            value=float(value[r]),
            argmax=SampledSet(cloud[ends[r] : ends[r + 1]], dict(meta) if solved[r] else {"seed": cfg.seed}),
            status=("solved", "budget_exhausted", "infeasible", "nonfinite")[status[r]],
            evals=int(evals[r]),
            rounds=int(rounds[r]),
        )
        for r in range(R)
    ]


def approximate_argmax_set(
    problem: BilevelProblem,
    x: Array,
    t: float,
    cfg: Optional[InnerConfig] = None,
) -> SampledSet:
    """Sampled near-argmax set of the inner maximisation at (x, t); an unsolved solve raises.

    Status "nonfinite" raises ValueError, any other unsolved status InnerInfeasibleError.
    """
    res = evaluate_psi_t(problem, x, t, cfg)
    if res.status == "nonfinite":
        raise ValueError(f"inner problem nonfinite at x={x}, t={t}: every start overflows or has a non-finite F on D_t")
    if res.status != "solved":
        raise InnerInfeasibleError(f"inner problem {res.status} at x={x}, t={t}")
    return res.argmax


@dataclass
class PsiGradient:
    """∇_x psi_t at a leader point, or why it was refused (see :func:`psi_t_gradient`)."""

    grad: Optional[Array]  # None when refused
    refusal: str = ""  # the reason, when grad is None


def psi_t_gradient(
    problem: BilevelProblem,
    x: Array,
    t: float,
    argmax: SampledSet,
    cfg: Optional[InnerConfig] = None,
) -> PsiGradient:
    """∇_x psi_t at x from the multipliers of the inner max at the points of its argmax cloud.

    psi_t is the max of F over D_t(x), so where the maximiser's multipliers
    are unique its gradient is the x-derivative of the inner Lagrangian
    (Danskin).  At each cloud point (y, u) the active set is the ascent's
    (:func:`_active_rows`, with cfg's follower box), and the multipliers lam
    of the signed rows r = [L | g | -u*g - t] are :func:`_project`'s
    least-norm ones; the box bounds do not depend on x.  The point's
    gradient is grad_x F - (dr/dx)^T lam, where dr/dx stacks L_x
    (``problem_model.lagrangian_jacobians_unchecked``), J_gx and -u*J_gx.

    A cloud whose width is not m + q is a usage error (DimensionError).
    Refused, with the reason in ``refusal``: an empty cloud, a point whose
    violation of D_t(x) exceeds cfg.feas_tol, a point that is no KKT point
    of the inner max (the projected grad F, d, has |d| > GRAD_KKT_TOL *
    (1 + |grad_(y,u) F|), the max-norms throughout), a non-finite gradient,
    and a cloud whose gradients spread (largest minus least, per
    coordinate) by more than GRAD_SPREAD_TOL * (1 + |grad_x F|).  Otherwise
    the gradient is their mean.  At a kink, where the active set changes,
    the least-norm multipliers of the cloud's active set decide which value
    comes out, and every row or bound within ACTIVE_TOL of zero counts as
    active.  At example1's kink x = t (and up to a relative 1e-7 right of
    it, where y = t / x is within ACTIVE_TOL of 1) the maximiser y = 1 sits
    on its box bound, whose multiplier takes all of grad F, so the value is
    0, the left derivative; the right one is -1 / t.
    """
    cfg = config_or_default(cfg, InnerConfig)
    x = problem.leader_point(x)
    t = relaxation_level(t)
    Z = argmax.points
    if not len(Z):
        return PsiGradient(None, "the argmax cloud is empty")
    m, q = problem.dims.m, problem.dims.q
    if Z.shape[1] != m + q:
        raise DimensionError(f"argmax cloud has shape {Z.shape}, expected (N, {m + q})")
    lo, hi = follower_box(problem, cfg)
    X = x[None]
    with np.errstate(over="ignore", invalid="ignore"):
        g, v, viol = relaxed_violations(problem, X, Z, t)
    if not (viol <= cfg.feas_tol).all():
        return PsiGradient(None, f"an argmax point is off D_t by {viol.max():.3g} > feas_tol {cfg.feas_tol:.3g}")
    A, grad, _, on = _active_rows(problem, X, Z, t, lo, hi, (g, v[:, :m]))
    d, lam = _project(A, on, grad)
    kkt = np.abs(d).max(axis=1) / (1.0 + np.abs(grad).max(axis=1))
    if not (kkt <= GRAD_KKT_TOL).all():
        return PsiGradient(None, f"an argmax point is no KKT point of the inner max: relative |d| {kkt.max():.3g}")
    grads, fx = np.empty((len(Z), problem.dims.n)), np.empty((len(Z), problem.dims.n))
    for i, (z, lam_i) in enumerate(zip(Z, lam)):
        y, u = z[:m], z[m:]
        lx = lagrangian_jacobians_unchecked(problem, TriplePoint(x, y, u))[0]
        fx[i] = problem.grad_F(x, y)[0]
        grads[i] = fx[i] - lx.T @ lam_i[:m]
        if q:
            grads[i] -= problem.jac_g(x, y)[0].T @ (lam_i[m : m + q] - u * lam_i[m + q :])
    if not np.isfinite(grads).all():
        return PsiGradient(None, "a gradient of the argmax cloud is not finite")
    spread = float((grads.max(axis=0) - grads.min(axis=0)).max())
    tol = GRAD_SPREAD_TOL * (1.0 + float(np.abs(fx).max()))
    if spread > tol:
        return PsiGradient(None, f"the argmax cloud's gradients spread by {spread:.3g} > {tol:.3g}")
    return PsiGradient(grads.mean(axis=0))


def batch_feasibility(
    problem: BilevelProblem,
    x: Array,
    Z: Array,
    t: float,
    tau: float,
) -> Array:
    """Boolean mask of the rows (y, u) of Z within tolerance tau of D_t(x).

    x is one leader point for every row of Z, or an (N, n) block of them.  A row is kept when the violation of
    its signed rows (``problem_model.relaxed_violations``, inf for a row with a non-finite entry) is at most tau
    and u >= -tau.  A grid goes in :meth:`GridSpec.chunks` blocks: each builds an (N, m + 2q) block of rows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows is infinitely violated
        viol = relaxed_violations(problem, np.atleast_2d(np.asarray(x, dtype=float)), Z, t)[2]
    return (viol <= tau) & (Z[:, problem.dims.m :] >= -tau).all(axis=1)


@dataclass
class BruteForceResult:
    value: float  # -inf when no grid point is feasible
    feasible: bool
    argmax_point: Optional[Array]
    tol: float


def brute_force_psi_t(
    problem: BilevelProblem,
    x: Array,
    t: float,
    grid: GridSpec,
) -> BruteForceResult:
    """Independent grid oracle: max F over grid points near-feasible at level t.

    Feasibility is tested within the grid-scaled tolerance
    :meth:`GridSpec.tolerance`.  Restricted to m + q <= 4.
    """
    t = relaxation_level(t)
    x = problem.leader_point(x)
    m, q = problem.dims.m, problem.dims.q
    if m + q > 4:
        raise ValueError("brute force limited to m + q <= 4")
    grid.check_width(m + q)
    tau = grid.tolerance()
    best_F, best_z = None, None
    for Z in grid.chunks():
        Zf = Z[batch_feasibility(problem, x, Z, t, tau)]
        if not len(Zf):
            continue
        F = problem.F_rows(x[None], Zf[:, :m])
        i = int(np.argmax(F))
        # np.argmax over the whole grid: NaN wins, then the larger value, ties to the first index
        if best_F is None or (F[i] > best_F or np.isnan(F[i])) and not np.isnan(best_F):
            best_F, best_z = F[i], Zf[i]
    if best_F is None:
        return BruteForceResult(value=-np.inf, feasible=False, argmax_point=None, tol=tau)
    return BruteForceResult(value=float(best_F), feasible=True, argmax_point=best_z, tol=tau)


def __getattr__(name: str):
    # maxmin.minimize is scipy's, imported on first access so that loading this
    # module loads no scipy: the benchmark harness reads and rebinds it.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
