"""Smooth pessimistic bilevel problem data and derivative plumbing.

A problem bundles the leader objective F(x, y), follower objective f(x, y),
leader constraints G(x) <= 0 and follower constraints g(x, y) <= 0 together
with first derivatives and (analytic or finite-difference) second derivatives
of f and g with respect to the follower variables.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

FD_STEP = 1e-6
HESS_FIELDS = ("hess_f_yx", "hess_f_yy", "hess_g_yx", "hess_g_yy")
# Half-width of the follower box of a problem built without one.
Y_BOX_HALF_WIDTH = 10.0


def is_number(val, integral: bool = False) -> bool:
    """Whether val is a real number (with ``integral``, an integer); a bool is neither."""
    return isinstance(val, numbers.Integral if integral else numbers.Real) and not isinstance(val, bool)


def is_finite_number(val) -> bool:
    """Whether val is a real number (:func:`is_number`) whose float is finite; an int too large for a float is not."""
    try:
        return is_number(val) and math.isfinite(val)
    except OverflowError:
        return False


def config_or_default(cfg, cls, what: str = "cfg"):
    """cfg, or cls() when it is None; any other value that is not a cls is refused (ValueError)."""
    if cfg is None:
        return cls()
    if not isinstance(cfg, cls):
        raise ValueError(f"{what} must be None or of type {cls.__name__}, got {cfg!r}")
    return cfg


def relaxation_level(t) -> float:
    """t as a float; a relaxation level that is not a finite nonnegative number (:func:`is_finite_number`) is refused."""
    if not (is_finite_number(t) and t >= 0.0):
        raise ValueError(f"relaxation level t must be finite and nonnegative, got {t!r}")
    return float(t)


class DimensionError(ValueError):
    """A point or provider output does not match the problem dimensions."""


@dataclass(frozen=True)
class ProblemDims:
    """Sizes of the four variable/constraint blocks.

    n: leader variables, m: follower variables, p: leader constraints,
    q: follower constraints.  Each is an integer (:func:`is_number`); n and m
    must be positive, and p and q may be zero but not both.
    """

    n: int
    m: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if not all(is_number(size, integral=True) for size in (self.n, self.m, self.p, self.q)):
            raise DimensionError(f"sizes must be integers, got {self}")
        if self.n <= 0 or self.m <= 0:
            raise DimensionError("leader and follower dimensions must be positive")
        if self.p < 0 or self.q < 0:
            raise DimensionError("constraint counts must be nonnegative")
        if self.p == 0 and self.q == 0:
            raise DimensionError("at most one of p, q may be zero")


@dataclass(frozen=True)
class TriplePoint:
    """A candidate (x, y, u) with u the follower-constraint multipliers."""

    x: Array
    y: Array
    u: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))


@dataclass
class BilevelProblem:
    """Evaluator bundle for one pessimistic bilevel program.

    All callables must be pure and deterministic.  Evaluations outside the
    mathematical domain should return non-finite values instead of raising;
    callers treat non-finite as infeasible.  Build a changed problem with
    ``dataclasses.replace``: the inner solver's results and the certifier's
    record of its last point are kept under :func:`problem_key`, the
    problem object and its attribute objects, so data that a callable reads
    but that is changed in place (an array it closes over, say) goes unseen.

    ``y_box`` is the (m, 2) follower search box of the inner solver, the
    Slater probe and the oracle grids.  A problem built without one gets
    [-Y_BOX_HALF_WIDTH, Y_BOX_HALF_WIDTH] per coordinate.  ``x_box``, the
    optional (n, 2) leader box, and ``y_box`` are refused unless finite with
    lower <= upper.

    Second-derivative providers are optional, but only all four together
    count.  A problem missing any of them has all four ``hess_*`` fields set
    to None and ``hess_is_fd`` true (derived here, not a constructor
    argument); every Jacobian of the stationarity map is then a difference
    of ``lagrangian_rows`` (see ``lagrangian_jac_rows``), so it follows the
    evaluators the problem holds, also after ``dataclasses.replace``.

    Optional vectorised hooks evaluate an (N, m) block Y of follower points,
    and U an (N, q) block of multipliers, at a leader block X: either (N, n),
    one leader point per row, or (1, n), one leader point for every row, which
    the hook broadcasts against Y and U:

    - ``batch_F(X, Y) -> (N,)`` leader objective;
    - ``batch_g(X, Y) -> (N, q)`` follower constraints;
    - ``batch_lagrangian(X, Y, U) -> (N, m)`` follower-stationarity vectors;
    - ``batch_grad_F(X, Y) -> (N, m)`` leader-objective gradients in y;
    - ``batch_lagrangian_jac(X, Y, U) -> (N, m, m + q)`` the Jacobians
      [L_y | L_u] of the stationarity map, with L_u = J_gy^T.

    The ``*_rows`` methods take the same 2-D leader block, call a hook when
    it is set and otherwise loop over the rows with the per-point
    evaluators; there a leader block of neither 1 nor N rows is refused
    with DimensionError.  With finite-difference Hessians (``hess_is_fd``)
    ``batch_lagrangian_jac`` is ignored.
    """

    dims: ProblemDims
    eval_F: Callable[[Array, Array], float]
    eval_f: Callable[[Array, Array], float]
    eval_G: Callable[[Array], Array]
    eval_g: Callable[[Array, Array], Array]
    grad_F: Callable[[Array, Array], tuple[Array, Array]]
    grad_f: Callable[[Array, Array], tuple[Array, Array]]
    jac_G: Callable[[Array], Array]
    jac_g: Callable[[Array, Array], tuple[Array, Array]]
    hess_f_yx: Optional[Callable[[Array, Array], Array]] = None
    hess_f_yy: Optional[Callable[[Array, Array], Array]] = None
    hess_g_yx: Optional[Callable[[Array, Array], list[Array]]] = None
    hess_g_yy: Optional[Callable[[Array, Array], list[Array]]] = None
    x_box: Optional[Array] = None
    y_box: Optional[Array] = None  # filled in by __post_init__
    name: str = ""
    batch_F: Optional[Callable[[Array, Array], Array]] = None
    batch_g: Optional[Callable[[Array, Array], Array]] = None
    batch_lagrangian: Optional[Callable[[Array, Array, Array], Array]] = None
    batch_grad_F: Optional[Callable[[Array, Array], Array]] = None
    batch_lagrangian_jac: Optional[Callable[[Array, Array, Array], Array]] = None
    hess_is_fd: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.x_box is not None:
            self.x_box = _box(self.x_box, self.dims.n, "leader")
        if self.y_box is None:
            self.y_box = np.tile([-Y_BOX_HALF_WIDTH, Y_BOX_HALF_WIDTH], (self.dims.m, 1))
        self.y_box = _box(self.y_box, self.dims.m, "follower")
        self.hess_is_fd = any(getattr(self, h) is None for h in HESS_FIELDS)
        if self.hess_is_fd:
            for h in HESS_FIELDS:
                setattr(self, h, None)

    def F_rows(self, X: Array, Y: Array) -> Array:
        if self.batch_F is not None:
            return np.asarray(self.batch_F(X, Y), dtype=float)
        return _gather(self.eval_F, X, (Y,), ())

    def g_rows(self, X: Array, Y: Array) -> Array:
        if self.batch_g is not None:
            return np.asarray(self.batch_g(X, Y), dtype=float)
        return _gather(self.eval_g, X, (Y,), (self.dims.q,))

    def lagrangian_rows(self, X: Array, Y: Array, U: Array) -> Array:
        if self.batch_lagrangian is not None:
            return np.asarray(self.batch_lagrangian(X, Y, U), dtype=float)
        return _gather(self.lagrangian_point, X, (Y, U), (self.dims.m,))

    def grad_F_rows(self, X: Array, Y: Array) -> Array:
        if self.batch_grad_F is not None:
            return np.asarray(self.batch_grad_F(X, Y), dtype=float)
        return _gather(lambda x, y: self.grad_F(x, y)[1], X, (Y,), (self.dims.m,))

    def lagrangian_jac_rows(self, X: Array, Y: Array, U: Array) -> Array:
        """Stacked [L_y | L_u] of the follower-stationarity map, shape (N, m, m + q).

        With finite-difference Hessians this is ``_fd_stationarity_jac``.
        """
        d = self.dims
        if self.hess_is_fd:
            return self._fd_stationarity_jac(X, Y, U)
        if self.batch_lagrangian_jac is not None:
            return np.asarray(self.batch_lagrangian_jac(X, Y, U), dtype=float)
        return _gather(lambda x, y, u: np.concatenate(_lagrangian_yu(self, x, y, u), axis=1), X, (Y, U), (d.m, d.m + d.q))

    def _fd_stationarity_jac(self, X: Array, Y: Array, U: Array, x_steps: bool = False) -> Array:
        """[L_y | L_u], shape (N, m, m + q), or with ``x_steps`` [L_y | L_u | L_x], shape (N, m, m + q + n).

        The whole block comes from one ``lagrangian_rows`` call on stacked
        copies of (X, Y, U): central differences of step ``FD_STEP`` in y
        (and x), and unit steps in u, which are exact up to rounding because
        L is linear in u.  Each copy is a row of its own, so the x-steps do
        not change the other columns.
        """
        d = self.dims
        m, q, n_rows = d.m, d.q, Y.shape[0]
        nx = d.n if x_steps else 0
        k = 1 + 2 * m + q + 2 * nx
        Ys, Us = np.empty((k, n_rows, m)), np.empty((k, n_rows, q))
        Ys[:], Us[:] = Y, U
        for j in range(m):
            Ys[1 + j, :, j] += FD_STEP
            Ys[1 + m + j, :, j] -= FD_STEP
        for i in range(q):
            Us[1 + 2 * m + i, :, i] += 1.0
        if x_steps or len(X) > 1:  # a lone leader row without x-steps is broadcast by lagrangian_rows
            Xs = np.empty((k, n_rows, d.n))
            Xs[:] = X
            for j in range(nx):
                Xs[1 + 2 * m + q + j, :, j] += FD_STEP
                Xs[1 + 2 * m + q + nx + j, :, j] -= FD_STEP
            X = Xs.reshape(k * n_rows, d.n)
        L = self.lagrangian_rows(X, Ys.reshape(k * n_rows, m), Us.reshape(k * n_rows, q)).reshape(k, n_rows, m)
        central = lambda lo, width: ((L[lo : lo + width] - L[lo + width : lo + 2 * width]) / (2 * FD_STEP)).transpose(1, 2, 0)
        J = np.empty((n_rows, m, m + q + nx))
        J[:, :, :m] = central(1, m)
        J[:, :, m : m + q] = (L[1 + 2 * m : 1 + 2 * m + q] - L[0]).transpose(1, 2, 0)
        J[:, :, m + q :] = central(1 + 2 * m + q, nx)
        return J

    def lagrangian_point(self, x: Array, y: Array, u: Array) -> Array:
        """grad_y f + J_gy^T u at (x, y, u), which it does not check (see :func:`lagrangian_grad`)."""
        gy = self.grad_f(x, y)[1]
        if self.dims.q:
            gy = gy + self.jac_g(x, y)[1].T @ u
        return gy

    def leader_point(self, x, what: str = "leader point") -> Array:
        """x as a float vector of shape (n,); a wrong shape or a non-finite entry is refused."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dims.n,):
            raise DimensionError(f"{what} has shape {x.shape}, expected ({self.dims.n},)")
        if not np.isfinite(x).all():
            raise ValueError(f"{what} must be finite, got {x}")
        return x

    def leader_block(self, X) -> Array:
        """X as a float array of shape (N, n); a wrong shape or a non-finite entry is refused."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dims.n:
            raise DimensionError(f"leader block has shape {X.shape}, expected (N, {self.dims.n})")
        if not np.isfinite(X).all():
            raise ValueError("leader block must be finite")
        return X

    def check_point(self, pt: TriplePoint) -> None:
        """Refuse a point whose blocks do not match the dims (DimensionError) or hold a NaN or infinite entry (ValueError)."""
        d = self.dims
        if pt.x.shape != (d.n,) or pt.y.shape != (d.m,) or pt.u.shape != (d.q,):
            raise DimensionError(
                f"point shapes {pt.x.shape}/{pt.y.shape}/{pt.u.shape} do not match "
                f"dims (n={d.n}, m={d.m}, q={d.q})"
            )
        # math.isfinite over the floats: the certifier checks its point on every
        # call, and on blocks this small numpy's reductions cost several times more
        for name, block in (("x", pt.x), ("y", pt.y), ("u", pt.u)):
            if not all(map(math.isfinite, block.tolist())):
                raise ValueError(f"point block {name} must be finite, got {block.tolist()}")


def problem_key(problem: BilevelProblem) -> tuple[tuple, tuple]:
    """The key under which results computed for problem are kept, and the objects their holder must keep alive.

    Two problems are the same when they are one object whose attributes are
    the same objects: reassigning an attribute or a ``dataclasses.replace``
    copy makes another problem.  The key is the ids of the problem and of
    its attribute values; a holder of the key holds the returned objects
    too, so no id in it is reused while it lives.
    """
    held = (problem, *vars(problem).values())
    return tuple(map(id, held)), held


def _box(box, size: int, what: str) -> Array:
    """box as a float array of shape (size, 2); one that is not finite with lower <= upper is refused."""
    box = np.asarray(box, dtype=float).reshape(size, 2)
    if not (np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
        raise ValueError(f"{what} box must be finite with lower <= upper, got {box.tolist()}")
    return box


def _gather(fn, X: Array, blocks: tuple, shape: tuple) -> Array:
    """fn(x, *row) for every row of the (N, k) blocks, stacked into (N, *shape).

    x is the matching row of the leader block X, or its only row; a leader
    block with any other number of rows is refused with DimensionError.
    """
    n_rows = blocks[0].shape[0]
    if len(X) not in (1, n_rows):
        raise DimensionError(f"leader block has {len(X)} rows, expected 1 or {n_rows}")
    out = np.empty((n_rows,) + shape)
    xs = itertools.repeat(X[0]) if len(X) == 1 else X
    for i, (x, *row) in enumerate(zip(xs, *blocks)):
        out[i] = fn(x, *row)
    return out


def _lagrangian_yu(problem: BilevelProblem, x: Array, y: Array, u: Array, jac_gy: Optional[Array] = None) -> tuple[Array, Array]:
    d = problem.dims
    ly = np.array(problem.hess_f_yy(x, y), dtype=float).reshape(d.m, d.m)
    if not d.q:
        return ly, np.zeros((d.m, 0))
    gyy = problem.hess_g_yy(x, y)
    for i in range(d.q):
        ly = ly + u[i] * np.asarray(gyy[i], dtype=float)
    return ly, (problem.jac_g(x, y)[1] if jac_gy is None else jac_gy).T.copy()


def lagrangian_grad(problem: BilevelProblem, pt: TriplePoint) -> Array:
    """Follower-stationarity vector: grad_y f(x,y) + sum_i u_i grad_y g_i(x,y)."""
    problem.check_point(pt)
    return problem.lagrangian_point(pt.x, pt.y, pt.u)


def lagrangian_jacobians(
    problem: BilevelProblem, pt: TriplePoint
) -> tuple[Array, Array, Array]:
    """Jacobians of the follower-stationarity map with respect to x, y and u.

    With finite-difference Hessians they are one row of the stacked
    difference of ``lagrangian_jac_rows``, with the x-steps added; L_y and
    L_u are then the one-row ``lagrangian_jac_rows`` bit for bit.
    """
    problem.check_point(pt)
    return lagrangian_jacobians_unchecked(problem, pt)


def lagrangian_jacobians_unchecked(
    problem: BilevelProblem, pt: TriplePoint, jac_gy: Optional[Array] = None
) -> tuple[Array, Array, Array]:
    """:func:`lagrangian_jacobians` at a point the caller has checked (``BilevelProblem.check_point``).

    jac_gy is J_gy at pt when the caller holds it: with analytic Hessians L_u is then its transpose, and
    ``jac_g`` is not called again.
    """
    d = problem.dims
    if problem.hess_is_fd:
        J = problem._fd_stationarity_jac(pt.x[None], pt.y[None], pt.u[None], x_steps=True)[0]
        return J[:, d.m + d.q :], J[:, : d.m], J[:, d.m : d.m + d.q]
    lx = np.array(problem.hess_f_yx(pt.x, pt.y), dtype=float).reshape(d.m, d.n)
    if d.q:
        gyx = problem.hess_g_yx(pt.x, pt.y)
        for i in range(d.q):
            lx = lx + pt.u[i] * np.asarray(gyx[i], dtype=float)
    ly, lu = _lagrangian_yu(problem, pt.x, pt.y, pt.u, jac_gy)
    return lx, ly, lu


def relaxed_rows(problem: BilevelProblem, X: Array, Z: Array, t: float, known: Optional[tuple[Array, Array]] = None) -> tuple[Array, Array]:
    """g and the signed rows r = [L | g | w], w = -u*g - t, of the relaxed follower KKT set D_t at the rows (y, u) of Z.

    D_t (Scholtes' relaxation) is L = 0 with every other row <= 0 and u >= 0; X is the rows' leader block.  The rows
    are kept as evaluated, non-finite entries included (at u = 0 an infinite g makes numpy warn of the NaN it gives
    w, so callers that may meet one run under ``np.errstate``); ``known``, the rows' (g, L), is assembled instead.
    """
    m = problem.dims.m
    Y, U = Z[:, :m], Z[:, m:]
    g, L = known if known is not None else (problem.g_rows(X, Y), problem.lagrangian_rows(X, Y, U))
    return g, np.concatenate([L, g, -U * g - t], axis=1)


def relaxed_violations(problem: BilevelProblem, X: Array, Z: Array, t: float) -> tuple[Array, Array, Array]:
    """g, the violations v = [L | g+ | w+] of the signed rows (:func:`relaxed_rows`) and their max-norm, per row of Z.

    A row with a non-finite entry counts as infinitely violated: all of its v is inf.
    """
    m = problem.dims.m
    g, v = relaxed_rows(problem, X, Z, t)
    finite = np.isfinite(v)
    if not finite.all():  # the common all-finite case costs one reduction
        v[~finite.all(axis=1)] = np.inf
    np.maximum(v[:, m:], 0.0, out=v[:, m:])
    # the max over the rows of a C-ordered |v|^T: numpy's max along a short last axis is several times slower
    return g, v, np.abs(v.T, order="C").max(axis=0, initial=0.0)


def relaxed_jacobian(lag_jac: Array, U: Array, g: Array) -> Array:
    """The (N, m + 2q, m + q) Jacobian in (y, u) of the signed rows, from their [L_y | L_u] (``lagrangian_jac_rows``), U and g."""
    n_rows, m, k = lag_jac.shape  # k = m + q
    J = np.zeros((n_rows, 2 * k - m, k))
    J[:, :m] = lag_jac
    Jgy = J[:, :m, m:].mT  # L_u = J_gy^T
    J[:, m:k, :m] = Jgy
    J[:, k:, :m] = -U[:, :, None] * Jgy
    # dw/du = -diag(g): the entries (k + i, m + i), a strided view of the flat rows
    J.reshape(n_rows, (2 * k - m) * k)[:, k * k + m :: k + 1] = -g
    return J


def lq_problem(*, H, B, b, c, d, J_gy, J_gx, h, A_G, h_G, x_box=None, y_box=None, name: str = "") -> BilevelProblem:
    """The problem with linear-quadratic data, with its analytic Hessians and all five batch hooks.

    F = c.y + d.x, f = y.H y / 2 + y.(B x + b), g = J_gy y + J_gx x + h and
    G = A_G x + h_G, with H (m, m) symmetric, B (m, n), b and c (m,),
    d (n,), J_gy (q, m), J_gx (q, n), h (q,), A_G (p, n) and h_G (p,).  A
    shape that does not fit the others is refused with DimensionError, a
    non-finite entry or an H that is not exactly symmetric with ValueError.

    Sums are built in a fixed order: B x + b, then H y, then J_gy^T u one
    constraint at a time.  A block that is all zero (H, d, J_gx) is left
    out, and a zero entry of an offset (b, h, h_G) is stored as -0.0, which
    leaves every float it is added to as it is (a -0.0 stays -0.0), so a
    hook may skip an offset that is all zero.  A hook takes each product
    over the coordinates of a row on its own (``_row_products``), so a row
    rounds alike in every block, and F, g and grad_y f at one point are
    the hooks' one-row blocks.
    """
    names = ("H", "B", "b", "c", "d", "J_gy", "J_gx", "h", "A_G", "h_G")
    data = [np.array(val, dtype=float) for val in (H, B, b, c, d, J_gy, J_gx, h, A_G, h_G)]
    H, B, b, c, d, J_gy, J_gx, h, A_G, h_G = data
    m, n, q, p = c.size, d.size, h.size, h_G.size
    shapes = ((m, m), (m, n), (m,), (m,), (n,), (q, m), (q, n), (q,), (p, n), (p,))
    for key, val, shape in zip(names, data, shapes):
        if val.shape != shape:
            raise DimensionError(f"{key} has shape {val.shape}, expected {shape}")
    dims = ProblemDims(n=n, m=m, p=p, q=q)
    for key, val in zip(names, data):
        if not np.isfinite(val).all():
            raise ValueError(f"{key} must be finite, got {val.tolist()}")
        if key in ("b", "h", "h_G"):
            val[val == 0.0] = -0.0
        val.flags.writeable = False
    if not np.array_equal(H, H.T):
        raise ValueError(f"H must be symmetric, got {H.tolist()}")
    use_H, use_d, use_Jgx, use_b, use_h = H.any(), d.any(), J_gx.any(), b.any(), h.any()
    J_gy3, lag_jac = J_gy[:, None, :], np.hstack([H, J_gy.T])  # [L_y | L_u] at every point

    def batch_F(X, Y):
        return np.vecdot(Y, c) + np.vecdot(X, d) if use_d else np.vecdot(Y, c)

    def batch_g(X, Y):
        G = _row_products(Y, J_gy)
        if use_Jgx:
            G = G + _row_products(X, J_gx)
        return G + h if use_h else G

    def grad_f_y(X, Y):
        G = _row_products(X, B) + b if use_b else _row_products(X, B)
        return G + _row_products(Y, H) if use_H else G

    def batch_lagrangian(X, Y, U):
        # grad_y f, then u_i J_gy[i] for each i, summed in that order by one accumulate
        S = np.empty((1 + q, len(Y), m))
        S[0] = grad_f_y(X, Y)  # broadcasts a lone leader row
        np.multiply(U.T[:, :, None], J_gy3, out=S[1:])
        return np.add.accumulate(S, axis=0, out=S)[-1]

    return BilevelProblem(
        dims=dims,
        eval_F=lambda x, y: float(batch_F(x[None], y[None])[0]),
        eval_f=lambda x, y: float((0.5 * (y @ (H @ y)) if use_H else 0.0) + y @ (B @ x + b)),
        eval_G=lambda x: _row_products(x[None], A_G)[0] + h_G,
        eval_g=lambda x, y: batch_g(x[None], y[None])[0],
        grad_F=lambda x, y: (d, c),
        grad_f=lambda x, y: (B.T @ y, grad_f_y(x[None], y[None])[0]),
        jac_G=lambda x: A_G,
        jac_g=lambda x, y: (J_gx, J_gy),
        hess_f_yx=lambda x, y: B,
        hess_f_yy=lambda x, y: H,
        hess_g_yx=lambda x, y: [np.zeros((m, n))] * q,
        hess_g_yy=lambda x, y: [np.zeros((m, m))] * q,
        x_box=x_box,
        y_box=y_box,
        name=name,
        batch_F=batch_F,
        batch_g=batch_g,
        batch_lagrangian=batch_lagrangian,
        batch_grad_F=lambda X, Y: _tiled(c, len(Y)),
        batch_lagrangian_jac=lambda X, Y, U: _tiled(lag_jac, len(Y)),
    )


def _row_products(A: Array, M: Array) -> Array:
    """A @ M.T row by row, so that a row rounds alike in every block: a plain product for rows of one entry, else np.vecdot."""
    return A * M.T if M.shape[1] == 1 else np.vecdot(A[:, None], M)


def _tiled(block: Array, rows: int) -> Array:
    """rows copies of block, stacked."""
    out = np.empty((rows,) + block.shape)
    out[:] = block
    return out


@dataclass
class GradCheckReport:
    """Max relative error per derivative provider against central differences."""

    errors: dict[str, float]
    nonfinite: list[str]
    fd_fallback: bool

    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0


def _rel_err(a: Array, b: Array) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients_fd(problem: BilevelProblem, pt: TriplePoint) -> GradCheckReport:
    """Compare every registered analytic derivative to central differences of step FD_STEP at pt.

    Every registered batch hook is also compared, on the one-row block of pt,
    with the per-point evaluator it stands for, one row per hook: a hook
    shadows that evaluator in the inner solver, so a hook left stale by
    ``dataclasses.replace`` shows here.  ``batch_lagrangian_jac`` is skipped
    with finite-difference Hessians, where nothing calls it.  Non-finite
    evaluations are flagged in the report rather than raised.
    """
    problem.check_point(pt)
    d = problem.dims
    h = FD_STEP
    x, y = pt.x, pt.y
    errors: dict[str, float] = {}
    nonfinite: list[str] = []

    def central_vec(fun, base, idx_len, wrt_x):
        cols = []
        for j in range(idx_len):
            e = np.zeros(idx_len)
            e[j] = h
            if wrt_x:
                fp, fm = fun(base + e, y), fun(base - e, y)
            else:
                fp, fm = fun(x, base + e), fun(x, base - e)
            cols.append((np.asarray(fp, dtype=float) - np.asarray(fm, dtype=float)) / (2 * h))
        return np.stack(cols, axis=-1) if cols else np.zeros((0,))

    def record(tag, analytic, fd):
        vals = np.concatenate([np.ravel(analytic), np.ravel(fd)])
        if not np.all(np.isfinite(vals)):
            nonfinite.append(tag)
            return
        errors[tag] = _rel_err(analytic, fd)

    ax, ay = problem.grad_F(x, y)
    record("grad_F_x", ax, central_vec(problem.eval_F, x, d.n, wrt_x=True))
    record("grad_F_y", ay, central_vec(problem.eval_F, y, d.m, wrt_x=False))

    ax, ay = problem.grad_f(x, y)
    record("grad_f_x", ax, central_vec(problem.eval_f, x, d.n, wrt_x=True))
    record("grad_f_y", ay, central_vec(problem.eval_f, y, d.m, wrt_x=False))

    if d.p:
        record("jac_G", problem.jac_G(x), central_vec(lambda xx, _y: problem.eval_G(xx), x, d.n, wrt_x=True))
    if d.q:
        jx, jy = problem.jac_g(x, y)
        record("jac_g_x", jx, central_vec(problem.eval_g, x, d.n, wrt_x=True))
        record("jac_g_y", jy, central_vec(problem.eval_g, y, d.m, wrt_x=False))

    if not problem.hess_is_fd:
        gy = lambda xx, yy: problem.grad_f(xx, yy)[1]
        record("hess_f_yx", problem.hess_f_yx(x, y), central_vec(gy, x, d.n, wrt_x=True))
        record("hess_f_yy", problem.hess_f_yy(x, y), central_vec(gy, y, d.m, wrt_x=False))
        if d.q:
            ayx = np.stack(problem.hess_g_yx(x, y))
            ayy = np.stack(problem.hess_g_yy(x, y))
            jgy = lambda xx, yy: problem.jac_g(xx, yy)[1]
            record("hess_g_yx", ayx, central_vec(jgy, x, d.n, wrt_x=True))
            record("hess_g_yy", ayy, central_vec(jgy, y, d.m, wrt_x=False))

    X, Y, U = x[None], y[None], pt.u[None]
    if problem.batch_F is not None:
        record("batch_F", problem.batch_F(X, Y)[0], problem.eval_F(x, y))
    if problem.batch_g is not None:
        record("batch_g", problem.batch_g(X, Y)[0], problem.eval_g(x, y))
    if problem.batch_grad_F is not None:
        record("batch_grad_F", problem.batch_grad_F(X, Y)[0], problem.grad_F(x, y)[1])
    if problem.batch_lagrangian is not None:
        record("batch_lagrangian", problem.batch_lagrangian(X, Y, U)[0], problem.lagrangian_point(x, y, pt.u))
    if problem.batch_lagrangian_jac is not None and not problem.hess_is_fd:
        _, ly, lu = lagrangian_jacobians(problem, pt)
        record("batch_lagrangian_jac", problem.batch_lagrangian_jac(X, Y, U)[0], np.concatenate([ly, lu], axis=1))

    return GradCheckReport(errors=errors, nonfinite=nonfinite, fd_fallback=problem.hess_is_fd)
