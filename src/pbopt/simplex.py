"""Least-distance decisions for the certifier's desk-scale linear systems.

Every question the certifier asks is one least-distance program

    min |z|_2  s.t.  a_eq @ z = b_eq,  a_ineq @ z >= h,

solved by :func:`least_distance` with one call of scipy's NNLS on its dual
(Lawson & Hanson, *Solving Least Squares Problems*, SIAM 1995, ch. 23):
least-norm multipliers are the h = 0 case, and a polyhedral cone holds a
nonzero ray iff its rows are rank deficient or one normalised LDP is
feasible.  Everything is deterministic.

:func:`solve_lp` and :func:`cone_max_linear` are thin wrappers over HiGHS
(``scipy.optimize.linprog``).  The package does not call them; they are
the independent reference the tests compare the decisions against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog, nnls

Array = np.ndarray

# Relative size below which a singular value, a row restricted to the
# equality null space, a residual or the gap between opposite rows counts
# as zero.
ZERO_TOL = 1e-8


class NnlsLimitError(RuntimeError):
    """scipy's NNLS stopped at its iteration limit: the question is left undecided."""


def _rows(a: Optional[Array], dim: int) -> Array:
    return np.zeros((0, dim)) if a is None else np.asarray(a, dtype=float).reshape(-1, dim)


def least_distance(a_eq: Array, b_eq: Array, a_ineq: Array, h: Array) -> Optional[Array]:
    """Least-norm z with a_eq@z = b_eq and a_ineq@z >= h, or None if there is none.

    The equality rows go first: z = z0 + N y with z0 their least-norm
    solution and N an orthonormal basis of their null space, both from one
    SVD, and inconsistent rows give None.  An inequality row that is
    numerically zero on N is dropped when it holds at z0 and gives None
    otherwise.  The rest is min |y| s.t. G y >= r on unit rows, whose dual
    min |[G^T; r^T] u - e_last| over u >= 0 is one NNLS: the system is
    infeasible iff that residual is zero, and otherwise y = G^T u / rho with
    rho = 1 - r@u.  A y that breaks a row by more than ZERO_TOL |y| counts
    as infeasible.  Raises :class:`NnlsLimitError` when NNLS stops at its
    iteration limit.
    """
    dim = a_eq.shape[1]
    z0, N = np.zeros(dim), np.eye(dim)
    if len(a_eq):
        u, s, vt = np.linalg.svd(a_eq)
        rank = int(np.sum(s > ZERO_TOL * s[0])) if s.size else 0
        z0 = vt[:rank].T @ ((u[:, :rank].T @ b_eq) / s[:rank])
        if np.linalg.norm(a_eq @ z0 - b_eq) > ZERO_TOL * (1.0 + np.linalg.norm(b_eq)):
            return None
        N = vt[rank:].T
    G, r = a_ineq @ N, h - a_ineq @ z0
    scale = np.linalg.norm(a_ineq, axis=1)
    live = np.linalg.norm(G, axis=1) > ZERO_TOL * scale
    if np.any(r[~live] > ZERO_TOL * (scale[~live] * (1.0 + np.linalg.norm(z0)) + np.abs(h[~live]))):
        return None
    G, r = G[live], r[live]
    norms = np.linalg.norm(G, axis=1)
    G, r = G / norms[:, None], r / norms  # unit rows condition the NNLS
    top = np.max(r, initial=0.0)
    if top <= 0.0:
        return z0  # y = 0 is feasible
    r = r / top
    try:
        w, _ = nnls(np.vstack([G.T, r]), np.eye(N.shape[1] + 1)[-1])
    except RuntimeError as err:
        raise NnlsLimitError(f"NNLS stopped at its iteration limit on a {G.shape} least-distance system") from err
    # At the optimum the residual (g, -rho) = (G^T u, r@u - 1) has |g|^2 = rho (r@u), so
    # y = g / rho = (r@u) g / |g|^2: rho itself would cancel to noise on a nearly infeasible system.
    g = G.T @ w
    if not np.linalg.norm(g) > ZERO_TOL * np.linalg.norm(w):
        return None  # u certifies infeasibility to round-off: G^T u = 0 and r@u = 1 up to ZERO_TOL |u|
    y = (r @ w) * g / (g @ g)
    if np.min(G @ y - r) < -ZERO_TOL * np.linalg.norm(y):
        return None
    return z0 + N @ y * top


def least_norm_point(
    a_eq: Array,
    b_eq: Array,
    a_ineq: Optional[Array] = None,
) -> tuple[Optional[Array], str]:
    """Minimum-norm z with a_eq@z = b_eq, a_ineq@z >= 0, and its status.

    The h = 0 case of :func:`least_distance`: status "least_norm", or
    "infeasible" with z None.
    """
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    a_ineq = _rows(a_ineq, a_eq.shape[1])
    z = least_distance(a_eq, np.atleast_1d(np.asarray(b_eq, dtype=float)), a_ineq, np.zeros(len(a_ineq)))
    return z, ("infeasible" if z is None else "least_norm")


def _cone_rows(a_eq: Optional[Array], a_ineq: Optional[Array], dim: int) -> tuple[Array, Array]:
    """The (equality, inequality) rows of a cone, scaled to unit norm and without zero rows.

    An inequality row and its opposite (to ZERO_TOL) become one equality
    row: the NNLS dual of a nearly opposite pair needs weights near 1 / gap.
    None of this changes the cone beyond ZERO_TOL.
    """
    blocks = []
    for a in (a_eq, a_ineq):
        rows = _rows(a, dim)
        norms = np.linalg.norm(rows, axis=1)
        blocks.append(rows[norms > 0.0] / norms[norms > 0.0, None])
    eq, ineq = blocks
    pair = np.triu(np.linalg.norm(ineq[:, None] + ineq[None], axis=2) <= ZERO_TOL, 1)
    return np.vstack([eq, ineq[pair.any(axis=1)]]), ineq[~(pair.any(axis=0) | pair.any(axis=1))]


def _ray(eq: Array, ineq: Array, lead: Array) -> Optional[Array]:
    """The least-norm z with eq@z = 0, ineq@z >= 0 and lead@z >= 1, scaled to a largest entry of 1."""
    h = np.zeros(len(ineq) + 1)
    h[-1] = 1.0
    z = least_distance(eq, np.zeros(len(eq)), np.vstack([ineq, lead]), h)
    return None if z is None else z / np.max(np.abs(z))


def cone_ray(a_eq: Optional[Array], a_ineq: Optional[Array], w: Array) -> Optional[Array]:
    """A ray z of {a_eq@z = 0, a_ineq@z >= 0} with w@z > 0, or None: one LDP with w@z >= |w|."""
    w = np.asarray(w, dtype=float)
    return _ray(*_cone_rows(a_eq, a_ineq, w.size), w / np.linalg.norm(w))


def cone_has_nonzero(a_eq: Optional[Array], a_ineq: Optional[Array], dim: int) -> Optional[Array]:
    """A nonzero ray of {a_eq@z = 0, a_ineq@z >= 0} if one exists, else None.

    A rank test and at most one LDP.  When the unit-scaled rows
    M = [a_eq; a_ineq] have rank below dim, the right singular vector of
    the smallest singular value is a lineality ray.  Otherwise M z != 0
    for every z != 0, so a ray has a_ineq@z >= 0 and not all zero, and the
    LDP with (sum of the unit inequality rows)@z >= 1 finds one or proves
    there is none.  Rays are scaled to a largest entry of 1.
    """
    if dim == 0:
        return None
    eq, ineq = _cone_rows(a_eq, a_ineq, dim)
    pad = np.zeros((max(0, dim - len(eq) - len(ineq)), dim))  # so that s holds all dim singular values
    _, s, vt = np.linalg.svd(np.vstack([eq, ineq, pad]))
    if s[-1] <= ZERO_TOL * s[0]:
        return vt[-1] / np.max(np.abs(vt[-1]))
    return _ray(eq, ineq, ineq.sum(axis=0)) if len(ineq) else None


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Array]
    objective: Optional[float]


_LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_lp(
    c: Array,
    a_eq: Optional[Array],
    b_eq: Optional[Array],
    lb: Array,
    ub: Array,
) -> LpResult:
    """min c@x  s.t.  a_eq@x = b_eq and lb <= x <= ub (entries may be +-inf), by HiGHS."""
    c = np.asarray(c, dtype=float)
    bounds = [(None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi) for lo, hi in zip(lb, ub)]
    if a_eq is not None:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, c.size)
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status not in _LINPROG_STATUS:
        raise RuntimeError(f"HiGHS did not settle the LP: {res.message}")
    if res.status:
        return LpResult(_LINPROG_STATUS[res.status], None, None)
    return LpResult("optimal", res.x, float(res.fun))


def cone_max_linear(
    w: Array,
    a_eq: Optional[Array],
    a_ineq: Optional[Array],
    dim: int,
    radius: float = 1.0,
) -> tuple[float, Optional[Array]]:
    """max w@z over {a_eq@z = 0, a_ineq@z >= 0, -radius <= z <= radius}, by HiGHS."""
    a_eq, a_ineq = _rows(a_eq, dim), _rows(a_ineq, dim)
    res = linprog(
        -np.asarray(w, dtype=float),
        A_ub=-a_ineq if len(a_ineq) else None,
        b_ub=np.zeros(len(a_ineq)) if len(a_ineq) else None,
        A_eq=a_eq if len(a_eq) else None,
        b_eq=np.zeros(len(a_eq)) if len(a_eq) else None,
        bounds=(-radius, radius),
        method="highs",
    )
    if res.status:
        return -np.inf, None
    return float(-res.fun), res.x
