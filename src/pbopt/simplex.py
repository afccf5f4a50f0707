"""Dense two-phase simplex and least-norm routines for desk-scale systems.

Everything here targets problems with at most a few hundred variables.  The
simplex uses Bland's rule throughout, so it cannot cycle and is fully
deterministic; all helpers built on top inherit that determinism.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

Array = np.ndarray

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
# cone_proved_trivial answers "trivial" only where the per-coordinate box LPs
# of cone_has_nonzero also find no ray.  Those LPs work to absolute
# tolerances (reduced rows below 1e-8 are dropped) and were seen to return
# points that violate a row when two inequality rows are antiparallel, so
# the proof leaves three kinds of cone to them: rows whose norms differ by
# more than ROW_RATIO, inequality rows with cosine below PARALLEL_COS - 1, and
# cones not proved trivial for every row moved by TRIVIAL_TOL * max(1,
# sigma_max).  The values are set by tests/test_cone_triviality.py and the
# sweep recorded in CHANGES.md.
TRIVIAL_TOL = 1e-6
PARALLEL_COS = 1e-6
ROW_RATIO = 1e-3
# least_norm_point's active-set steps are capped at this times (dim + inequality rows + 1)
PROJECTION_ITER_FACTOR = 50


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Array]
    objective: Optional[float]


def _pivot(T: Array, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 0.0:
            T[i] -= T[i, col] * T[row]


def _simplex_core(T: Array, basis: list[int], n_enter: int) -> str:
    """Run Bland-rule simplex on tableau T; only columns < n_enter may enter."""
    n_rows = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(n_enter):
            if T[-1, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = np.inf
        for i in range(n_rows):
            a = T[i, enter]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def _standard_form_solve(c: Array, A: Array, b: Array) -> LpResult:
    """min c@x  s.t.  A@x = b, x >= 0, via two-phase tableau simplex."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase I with artificial basis.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    status = _simplex_core(T, basis, n_enter=n)
    if status != "optimal":  # pragma: no cover - phase I is always bounded
        return LpResult("infeasible", None, None)
    if -T[-1, -1] > 1e-7:
        return LpResult("infeasible", None, None)

    # Drive remaining artificials out of the basis (or drop redundant rows).
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = -1
            for j in range(n):
                if abs(T[i, j]) > 1e-8:
                    piv = j
                    break
            if piv >= 0:
                _pivot(T, i, piv)
                basis[i] = piv
                keep.append(i)
            # else: redundant row, drop it below
        else:
            keep.append(i)
    if len(keep) < m:
        T = np.vstack([T[keep], T[-1:]])
        basis = [basis[i] for i in keep]
        m = len(keep)

    # Phase II cost row.
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if abs(c[basis[i]]) > 0.0:
            T[-1] -= c[basis[i]] * T[i]
    status = _simplex_core(T, basis, n_enter=n)
    if status != "optimal":
        return LpResult("unbounded", None, None)
    x = np.zeros(n)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    return LpResult("optimal", x, float(c @ x))


def solve_lp(
    c: Array,
    a_eq: Optional[Array],
    b_eq: Optional[Array],
    lb: Array,
    ub: Array,
) -> LpResult:
    """min c@x  s.t.  a_eq@x = b_eq and lb <= x <= ub (entries may be +-inf)."""
    c = np.asarray(c, dtype=float)
    n = c.size
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    A = np.asarray(a_eq, dtype=float).reshape(-1, n).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(ub - lb < -FEAS_TOL):
        return LpResult("infeasible", None, None)

    # Build standard-form columns: every variable becomes one or two
    # nonnegative columns plus an optional upper-bound row.
    cols: list[Array] = []
    costs: list[float] = []
    ub_rows: list[tuple[int, float]] = []  # (column index, residual upper bound)
    recover: list[tuple] = []  # per original var: ("shift", col, lo) etc.
    const = 0.0
    for j in range(n):
        lo, hi = lb[j], ub[j]
        col = A[:, j].copy()
        if np.isfinite(lo):
            b -= col * lo
            const += c[j] * lo
            idx = len(cols)
            cols.append(col)
            costs.append(c[j])
            recover.append(("shift", idx, lo))
            if np.isfinite(hi):
                ub_rows.append((idx, hi - lo))
        elif np.isfinite(hi):
            b -= col * hi
            const += c[j] * hi
            idx = len(cols)
            cols.append(-col)
            costs.append(-c[j])
            recover.append(("flip", idx, hi))
        else:
            idx = len(cols)
            cols.append(col)
            costs.append(c[j])
            cols.append(-col)
            costs.append(-c[j])
            recover.append(("split", idx, 0.0))

    n_std = len(cols)
    A_std = np.column_stack(cols) if cols else np.zeros((A.shape[0], 0))
    rows = [np.hstack([A_std, np.zeros((A_std.shape[0], len(ub_rows)))])]
    b_std = [b]
    for k, (idx, cap) in enumerate(ub_rows):
        row = np.zeros(n_std + len(ub_rows))
        row[idx] = 1.0
        row[n_std + k] = 1.0
        rows.append(row[None, :])
        b_std.append(np.array([cap]))
    A_full = np.vstack(rows)
    b_full = np.concatenate(b_std)
    c_full = np.concatenate([np.asarray(costs), np.zeros(len(ub_rows))])

    res = _standard_form_solve(c_full, A_full, b_full)
    if res.status != "optimal":
        return res
    z = res.x
    x = np.zeros(n)
    for j, (kind, idx, off) in enumerate(recover):
        if kind == "shift":
            x[j] = off + z[idx]
        elif kind == "flip":
            x[j] = off - z[idx]
        else:
            x[j] = z[idx] - z[idx + 1]
    return LpResult("optimal", x, float(c @ x) )


def linear_feasibility(
    a_eq: Optional[Array],
    b_eq: Optional[Array],
    a_ineq: Optional[Array] = None,
    dim: Optional[int] = None,
) -> Optional[Array]:
    """A point z with a_eq@z = b_eq and a_ineq@z >= 0, or None if none exists."""
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        dim = a_eq.shape[1]
    if dim is None:
        raise ValueError("dim required when a_eq is absent")
    n_ineq = 0
    blocks = []
    rhs = []
    if a_eq is not None and a_eq.shape[0]:
        blocks.append(a_eq)
        rhs.append(np.asarray(b_eq, dtype=float))
    if a_ineq is not None:
        a_ineq = np.atleast_2d(np.asarray(a_ineq, dtype=float))
        n_ineq = a_ineq.shape[0]
        if n_ineq:
            blocks.append(a_ineq)
            rhs.append(np.zeros(n_ineq))
    if not blocks:
        return np.zeros(dim)
    A = np.vstack([np.hstack([blk, np.zeros((blk.shape[0], n_ineq))]) for blk in blocks])
    # slack columns: a_ineq@z - s = 0
    row0 = 0 if a_eq is None or not a_eq.shape[0] else a_eq.shape[0]
    for k in range(n_ineq):
        A[row0 + k, dim + k] = -1.0
    b = np.concatenate(rhs)
    lb = np.concatenate([np.full(dim, -np.inf), np.zeros(n_ineq)])
    ub = np.full(dim + n_ineq, np.inf)
    res = solve_lp(np.zeros(dim + n_ineq), A, b, lb, ub)
    if res.status != "optimal":
        return None
    return res.x[:dim]


def least_norm_point(
    a_eq: Optional[Array],
    b_eq: Optional[Array],
    a_ineq: Optional[Array] = None,
    dim: Optional[int] = None,
    tol: float = 1e-9,
) -> tuple[Optional[Array], str]:
    """Minimum-norm z with a_eq@z = b_eq, a_ineq@z >= 0, and its status.

    Primal active-set method on the strictly convex projection problem,
    started from a simplex-feasible vertex.  Status "least_norm"; or
    "iteration_cap" when the steps ran out (PROJECTION_ITER_FACTOR times
    dim + inequality rows + 1), z then feasible but possibly not least-norm;
    or "infeasible" with z None.
    """
    z = linear_feasibility(a_eq, b_eq, a_ineq, dim=dim)
    if z is None:
        return None, "infeasible"
    dim = z.size
    if a_eq is None:
        A = np.zeros((0, dim))
        b = np.zeros(0)
    else:
        A = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b = np.atleast_1d(np.asarray(b_eq, dtype=float))
    C = (
        np.atleast_2d(np.asarray(a_ineq, dtype=float))
        if a_ineq is not None
        else np.zeros((0, dim))
    )
    n_ineq = C.shape[0]
    work = [i for i in range(n_ineq) if C[i] @ z <= tol]
    status = "iteration_cap"
    for _ in range(PROJECTION_ITER_FACTOR * (dim + n_ineq + 1)):
        M = np.vstack([A, C[work]]) if work else A
        d = np.concatenate([b, np.zeros(len(work))])
        if M.shape[0]:
            z_hat = np.linalg.lstsq(M, d, rcond=None)[0]
        else:
            z_hat = np.zeros(dim)
        p = z_hat - z
        if np.max(np.abs(p), initial=0.0) <= 1e-11:
            if not work:
                z, status = z_hat, "least_norm"
                break
            K = np.vstack([A, C[work]]).T
            lam = np.linalg.lstsq(K, z, rcond=None)[0]
            lam_ineq = lam[A.shape[0] :]
            if lam_ineq.size == 0 or np.min(lam_ineq) >= -tol:
                status = "least_norm"
                break
            drop = int(np.argmin(lam_ineq))
            work.pop(drop)
            continue
        # Largest step toward z_hat keeping the inactive constraints valid.
        step = 1.0
        block = -1
        for i in range(n_ineq):
            if i in work:
                continue
            cp = C[i] @ p
            if cp < -tol:
                ti = max(0.0, C[i] @ z) / (-cp)
                if ti < step - 1e-14:
                    step = ti
                    block = i
        z = z + step * p
        if block >= 0:
            work.append(block)
            work.sort()
    return z, status


def cone_max_linear(
    w: Array,
    a_eq: Optional[Array],
    a_ineq: Optional[Array],
    dim: int,
    radius: float = 1.0,
) -> tuple[float, Optional[Array]]:
    """max w@z over {a_eq@z = 0, a_ineq@z >= 0, -radius <= z <= radius}."""
    n_ineq = 0 if a_ineq is None else np.atleast_2d(a_ineq).shape[0]
    blocks = []
    rhs = []
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        if a_eq.shape[0]:
            blocks.append(np.hstack([a_eq, np.zeros((a_eq.shape[0], n_ineq))]))
            rhs.append(np.zeros(a_eq.shape[0]))
    if n_ineq:
        a_ineq = np.atleast_2d(np.asarray(a_ineq, dtype=float))
        blk = np.hstack([a_ineq, -np.eye(n_ineq)])
        blocks.append(blk)
        rhs.append(np.zeros(n_ineq))
    A = np.vstack(blocks) if blocks else None
    b = np.concatenate(rhs) if rhs else None
    lb = np.concatenate([np.full(dim, -radius), np.zeros(n_ineq)])
    ub = np.concatenate([np.full(dim, radius), np.full(n_ineq, np.inf)])
    c = np.concatenate([-np.asarray(w, dtype=float), np.zeros(n_ineq)])
    res = solve_lp(c, A, b, lb, ub)
    if res.status != "optimal":
        return -np.inf, None
    return float(-res.objective), res.x[:dim]


def cone_proved_trivial(a_eq: Optional[Array], a_ineq: Optional[Array], dim: int) -> bool:
    """True only when {a_eq@z = 0, a_ineq@z >= 0} is proved to be {0}.

    One-sided: False means "not proved", not "nontrivial".  By the theorem
    of the alternative (Stiemke; C. Davis, *Theory of positive linear
    dependence*, Amer. J. Math. 1954) the cone is {0} iff the stacked rows
    M = [a_eq; a_ineq] have rank dim and a_eq^T mu + a_ineq^T lam = 0 has a
    solution with mu free and lam >= 1.  The first is one SVD, the second
    one feasibility LP (none without inequality rows).

    Both are checked so that the verdict also holds for every cone whose
    rows are moved by at most delta = TRIVIAL_TOL * max(1, sigma_max(M))
    each: the rank needs s = sigma_min(M) - sqrt(rows) * delta > 0, and the
    LP's certificate w = (mu, lam) is accepted only when

        |M^T w|_2 + delta * |w|_1 < min(lam) * s.

    That bound is the whole proof: for z in a moved cone with rows M',
    s |z| <= |M'@z| <= |a_ineq'@z|_1 <= (M'^T w)@z / min(lam), and
    |M'^T w| <= |M^T w| + delta |w|_1 < min(lam) s, so z = 0.  Rows whose
    norms differ by more than ROW_RATIO and antiparallel inequality rows
    are not tried at all (see the constants).  Every other outcome (rank
    short, LP infeasible, certificate too weak) returns False.
    """
    if dim == 0:
        return True
    eq, ineq = (
        np.zeros((0, dim)) if a is None else np.asarray(a, dtype=float).reshape(-1, dim) for a in (a_eq, a_ineq)
    )
    if not (np.isfinite(eq).all() and np.isfinite(ineq).all()):
        return False
    eq, ineq = (rows[np.linalg.norm(rows, axis=1) > 0.0] for rows in (eq, ineq))  # zero rows do not change the cone
    M = np.vstack([eq, ineq])
    n_eq, n_ineq = len(eq), len(ineq)
    if len(M) < dim:
        return False
    norms = np.linalg.norm(M, axis=1)
    if not norms.min() > ROW_RATIO * norms.max():
        return False
    U = ineq / norms[n_eq:, None]
    if np.min(U @ U.T, initial=1.0) < PARALLEL_COS - 1.0:
        return False
    sv = np.linalg.svd(M, compute_uv=False)
    delta = TRIVIAL_TOL * max(1.0, sv[0])  # per-row perturbation the proof must survive
    margin = sv[-1] - np.sqrt(len(M)) * delta  # least sigma_min over the perturbed row blocks
    if not margin > 0.0:
        return False
    if not n_ineq:
        return True
    lb = np.concatenate([np.full(n_eq, -np.inf), np.ones(n_ineq)])
    res = solve_lp(np.zeros(len(M)), M.T, np.zeros(dim), lb, np.full(len(M), np.inf))
    if res.status != "optimal":
        return False
    w = res.x
    return bool(np.linalg.norm(M.T @ w) + delta * np.abs(w).sum() < np.min(w[n_eq:]) * margin)


def cone_has_nonzero(
    a_eq: Optional[Array],
    a_ineq: Optional[Array],
    dim: int,
    tol: float = 1e-7,
) -> Optional[Array]:
    """A nonzero ray of {a_eq@z = 0, a_ineq@z >= 0} if one exists, else None.

    :func:`cone_proved_trivial` first tries to settle the usual trivial case
    with one rank test and at most one LP.  Otherwise the cone is decided by
    maximising each +-coordinate over the cone intersected with the unit
    box, in order, and the first ray whose coordinate exceeds tol is
    returned: a polyhedral cone is nontrivial iff some coordinate can be
    made positive there.  Rays still come only from this loop, which the
    proof skips only on cones where tests/test_cone_triviality.py finds the
    two in agreement.
    """
    if cone_proved_trivial(a_eq, a_ineq, dim):
        return None
    for j in range(dim):
        for sign in (1.0, -1.0):
            w = np.zeros(dim)
            w[j] = sign
            val, z = cone_max_linear(w, a_eq, a_ineq, dim)
            if z is not None and val > tol:
                return z
    return None
