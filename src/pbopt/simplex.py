"""Least-distance decisions for the certifier's desk-scale linear systems.

Every question the certifier asks is one least-distance program

    min |z|_2  s.t.  a_eq @ z = b_eq,  a_ineq @ z >= h,

solved with one call of scipy's NNLS on its dual (Lawson & Hanson, *Solving
Least Squares Problems*, SIAM 1995, ch. 23): least-norm multipliers are the
h = 0 case, and a polyhedral cone holds a nonzero ray iff its rows are rank
deficient or one normalised LDP is feasible.  Everything is deterministic.

The solver works on stacks of programs of one shape: the SVDs, null-space
projections, row scalings and masks run once per stack, and each program's
NNLS only when its answer is asked for (:func:`least_norm_points`,
:class:`ConeRows`).  :func:`least_distance`, :func:`least_norm_point`,
:func:`cone_has_nonzero` and :func:`cone_ray` are the one-system case.

:func:`solve_lp` and :func:`cone_max_linear` are thin wrappers over HiGHS
(``scipy.optimize.linprog``).  The package does not call them; they are
the independent reference the tests compare the decisions against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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
    iteration limit.  The one-system case of :func:`_least_distances`.
    """
    return next(_least_distances(a_eq[None], b_eq[None], a_ineq[None], h[None]))


def _least_distances(a_eq: Array, b_eq: Array, a_ineq: Array, h: Array) -> Iterator[Optional[Array]]:
    """:func:`least_distance` of every system of a stack, in order.

    a_eq is (B, r, dim), b_eq (B, r), a_ineq (B, k, dim) and h (B, k).  Up
    to NNLS, each system's work is done for the whole stack at once, when
    the first result is asked for: one stacked SVD of the equality rows, and
    the null-space projection, row scaling and live-row masks once per rank.
    The NNLS of a system runs only when its own result is asked for, so a
    caller that stops early never solves (nor fails on) a later system.
    """
    n_sys, n_eq, dim = a_eq.shape
    svd, ranks = None, [0] * n_sys
    if n_eq:
        svd = np.linalg.svd(a_eq, full_matrices=n_eq < dim)  # a full V holds the null space
        s = svd[1]
        if s.shape[1]:
            ranks = np.add.reduce(s > ZERO_TOL * s[:, :1], axis=1).tolist()
    fronts: dict = {}
    for i, rank in enumerate(ranks):
        if rank not in fronts:
            if ranks.count(rank) == n_sys:  # the usual case: no copies
                fronts[rank] = (range(n_sys), _ldp_front(a_eq, b_eq, a_ineq, h, svd, rank))
            else:
                same = [j for j, rk in enumerate(ranks) if rk == rank]
                parts = a_eq[same], b_eq[same], a_ineq[same], h[same], None if svd is None else [a[same] for a in svd]
                fronts[rank] = ({j: pos for pos, j in enumerate(same)}, _ldp_front(*parts, rank))
        slot, front = fronts[rank]
        yield _ldp_tail(front, slot[i])


def _row_norms(a: Array) -> Array:
    """np.linalg.norm(a, axis=-1) without its call overhead: the same sums."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _vector_norms(a: Array) -> Array:
    """np.linalg.norm of each row of a as of a lone vector: a dot product, not the sum of _row_norms."""
    return np.sqrt(np.vecdot(a, a))


def _ldp_front(a_eq, b_eq, a_ineq, h, svd, rank: int):
    """The stacked part of :func:`least_distance` for systems whose equality rows have one rank.

    Returns each system's infeasibility flag and, unless every system is
    infeasible, what :func:`_ldp_tail` needs.
    """
    n_sys, n_ineq, dim = a_ineq.shape
    z0, bad, G, r = np.zeros((n_sys, dim)), np.zeros(n_sys, dtype=bool), a_ineq, h
    N = [np.eye(dim)] * n_sys if svd is None else svd[2][:, rank:].swapaxes(1, 2)
    shifted = svd is not None and np.count_nonzero(b_eq)  # otherwise z0 = 0 solves the equality rows exactly
    if shifted:
        u, s, vt = svd
        coef = (u[:, :, :rank].swapaxes(1, 2) @ b_eq[:, :, None]) / s[:, :rank, None]
        z0 = (vt[:, :rank].swapaxes(1, 2) @ coef)[:, :, 0]
        bad = _vector_norms((a_eq @ z0[:, :, None])[:, :, 0] - b_eq) > ZERO_TOL * (1.0 + _vector_norms(b_eq))
        if bad.all():
            return bad.tolist(), None
    if not n_ineq:
        return bad.tolist(), (z0, None, None, None, None, [0.0] * n_sys)  # y = 0 is all there is
    if svd is not None:
        G = a_ineq @ N
    if shifted:
        r = h - (a_ineq @ z0[:, :, None])[:, :, 0]
    scale, norms = _row_norms(a_ineq), _row_norms(G)
    live = norms > ZERO_TOL * scale
    dead = ~live
    if dead.any():
        slack = ZERO_TOL * (scale * (1.0 + _vector_norms(z0))[:, None] + np.abs(h))
        bad = bad | (dead & (r > slack)).any(axis=1)
        norms = np.where(live, norms, 1.0)
    G, r = G / norms[:, :, None], r / norms  # unit rows condition the NNLS
    top = np.maximum.reduce(r, axis=1, where=live, initial=0.0)
    return bad.tolist(), (z0, N, G, r, live, top.tolist())


def _ldp_tail(front, j: int) -> Optional[Array]:
    """The NNLS and its checks for system j of a stacked front half."""
    bad, rest = front
    if bad[j]:
        return None
    z0, N, G, r, live, top = rest
    if top[j] <= 0.0:
        return z0[j].copy()  # y = 0 is feasible
    G, r = G[j, live[j]], r[j, live[j]] / top[j]
    e_last = np.zeros(G.shape[1] + 1)
    e_last[-1] = 1.0
    try:
        w, _ = nnls(np.vstack([G.T, r]), e_last)
    except RuntimeError as err:
        raise NnlsLimitError(f"NNLS stopped at its iteration limit on a {G.shape} least-distance system") from err
    # At the optimum the residual (g, -rho) = (G^T u, r@u - 1) has |g|^2 = rho (r@u), so
    # y = g / rho = (r@u) g / |g|^2: rho itself would cancel to noise on a nearly infeasible system.
    g = G.T @ w
    gg = g @ g
    if not math.sqrt(gg) > ZERO_TOL * math.sqrt(w @ w):
        return None  # u certifies infeasibility to round-off: G^T u = 0 and r@u = 1 up to ZERO_TOL |u|
    y = (r @ w) * g / gg
    if (G @ y - r).min() < -ZERO_TOL * math.sqrt(y @ y):
        return None
    return z0[j] + N[j] @ y * top[j]


def _in_order(keys: list, run: Callable[[list[int]], Iterator]) -> Iterator:
    """The result of every system in order, where the systems that share a key are one stack.

    ``run(positions)`` returns the results of the stack of the systems at
    those positions, lazily; a stack does no work before its first
    system's turn.
    """
    if len(set(keys)) == 1:
        return run(range(len(keys)))
    members: dict = {}
    for pos, key in enumerate(keys):
        members.setdefault(key, []).append(pos)
    stacks = {key: run(pos) for key, pos in members.items()}
    return (next(stacks[key]) for key in keys)


def _take(rows: Array, picks: list) -> Array:
    """The stack of the rows picked per system; every system picks as many."""
    return rows[np.array(picks, dtype=np.intp)]


def least_norm_points(rows: Array, rhs: Array, systems: Sequence[tuple[Sequence[int], Sequence[int]]]) -> Iterator[Optional[Array]]:
    """:func:`least_norm_point` of each system picked from one pool of rows, lazily and in order.

    System (eq, ineq) is rows[eq] @ z = rhs[eq] and rows[ineq] @ z >= 0.
    Systems with as many rows of each kind run as one stack of
    :func:`_least_distances`.
    """
    def run(pos):
        n_eq = len(systems[pos[0]][0])
        picks = np.array([[*systems[p][0], *systems[p][1]] for p in pos], dtype=np.intp)
        block = rows[picks]
        return _least_distances(block[:, :n_eq], rhs[picks[:, :n_eq]], block[:, n_eq:], np.zeros((len(pos), picks.shape[1] - n_eq)))

    return _in_order([(len(eq), len(ineq)) for eq, ineq in systems], run)


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


class ConeRows:
    """A pool of rows that a family of cones {eq@z = 0, ineq@z >= 0} picks from.

    Each cone is given as the pool indices of its equality and inequality
    rows.  The pool is scaled to unit rows and its antiparallel pairs are
    found once; per cone, zero rows are dropped and an inequality row and
    its opposite (to ZERO_TOL) become one equality row, since the NNLS dual
    of a nearly opposite pair needs weights near 1 / gap.  None of this
    changes a cone beyond ZERO_TOL.  Cones with as many rows of each kind
    are then decided as one stack, and results come lazily in the order of
    the cones asked about.
    """

    def __init__(self, rows: Array) -> None:
        rows = np.asarray(rows, dtype=float)
        norms = _row_norms(rows)
        nonzero = norms > 0.0
        self._zero = (~nonzero).tolist()
        self.unit = rows / np.where(nonzero, norms, 1.0)[:, None]

    @functools.cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """The opposite (to ZERO_TOL) nonzero rows (i, j), i < j; the norm test runs only on unit rows whose dot is below -0.5."""
        first, second = np.nonzero(self.unit @ self.unit.T < -0.5)
        anti = _row_norms(self.unit[first] + self.unit[second]) <= ZERO_TOL
        return [(i, j) for i, j in zip(first[anti].tolist(), second[anti].tolist()) if i < j]

    def _layout(self, eq: Sequence[int], ineq: Sequence[int]) -> tuple[list, list]:
        """The equality and inequality pool rows of one cone, cleaned as the class says."""
        zero = self._zero
        eq, ineq = [i for i in eq if not zero[i]], [i for i in ineq if not zero[i]]
        if len(ineq) > 1 and self.pairs:
            at = {row: pos for pos, row in enumerate(ineq)}
            first, paired = set(), set()
            for i, j in self.pairs:
                if i in at and j in at:
                    pair = sorted((at[i], at[j]))
                    first.add(pair[0])
                    paired.update(pair)
            if paired:
                eq += [ineq[pos] for pos in sorted(first)]
                ineq = [row for pos, row in enumerate(ineq) if pos not in paired]
        return eq, ineq

    def _stacks(self, cones, decide) -> Iterator[Optional[Array]]:
        """decide(eq, ineq, positions) on each stack of cleaned cones of one shape, read back in cone order."""
        layouts = [self._layout(eq, ineq) for eq, ineq in cones]

        def run(pos):
            return decide(_take(self.unit, [layouts[p][0] for p in pos]), _take(self.unit, [layouts[p][1] for p in pos]), pos)

        return _in_order([(len(eq), len(ineq)) for eq, ineq in layouts], run)

    def has_nonzero(self, cones: Sequence[tuple[Sequence[int], Sequence[int]]]) -> Iterator[Optional[Array]]:
        """:func:`cone_has_nonzero` of each (eq, ineq) cone, lazily and in order."""
        return self._stacks(cones, lambda eq, ineq, pos: _cone_decisions(eq, ineq))

    def rays(self, cones: Sequence[tuple[Sequence[int], Sequence[int], Array]]) -> Iterator[Optional[Array]]:
        """:func:`cone_ray` of each (eq, ineq, w) cone, w a vector, lazily and in order."""
        leads = [w / np.linalg.norm(w) for _, _, w in cones]
        return self._stacks([cone[:2] for cone in cones], lambda eq, ineq, pos: _rays(eq, ineq, np.array([leads[p] for p in pos])))


def _rays(eq: Array, ineq: Array, lead: Array) -> Iterator[Optional[Array]]:
    """Per system, the least-norm z with eq@z = 0, ineq@z >= 0 and lead@z >= 1, scaled to a largest entry of 1."""
    h = np.zeros((len(ineq), ineq.shape[1] + 1))
    h[:, -1] = 1.0
    for z in _least_distances(eq, np.zeros(eq.shape[:2]), np.concatenate([ineq, lead[:, None]], axis=1), h):
        yield None if z is None else z / np.max(np.abs(z))


def _cone_decisions(eq: Array, ineq: Array) -> Iterator[Optional[Array]]:
    """Per system of a stack of cleaned unit rows, a nonzero ray of its cone or None (see :func:`cone_has_nonzero`)."""
    n_sys, n_eq, dim = eq.shape
    k = ineq.shape[1]
    pad = np.zeros((n_sys, max(0, dim - n_eq - k), dim))  # so that s holds all dim singular values
    _, s, vt = np.linalg.svd(np.concatenate([eq, ineq, pad], axis=1), full_matrices=False)
    deficient = s[:, -1] <= ZERO_TOL * s[:, 0]
    flags = deficient.tolist()
    ldp = None
    for i in range(n_sys):
        if flags[i]:
            yield vt[i, -1] / np.max(np.abs(vt[i, -1]))
        elif not k:
            yield None
        else:
            if ldp is None:
                full = ~deficient
                ldp = _rays(eq[full], ineq[full], ineq[full].sum(axis=1))
            yield next(ldp)


def _one_cone(a_eq: Optional[Array], a_ineq: Optional[Array], dim: int) -> tuple[ConeRows, list, list]:
    """The pool of one cone's rows with its equality and inequality picks."""
    eq, ineq = _rows(a_eq, dim), _rows(a_ineq, dim)
    pool = ConeRows(np.vstack([eq, ineq]))
    return pool, list(range(len(eq))), list(range(len(eq), len(eq) + len(ineq)))


def cone_ray(a_eq: Optional[Array], a_ineq: Optional[Array], w: Array) -> Optional[Array]:
    """A ray z of {a_eq@z = 0, a_ineq@z >= 0} with w@z > 0, or None: one LDP with w@z >= |w|."""
    w = np.asarray(w, dtype=float)
    pool, eq, ineq = _one_cone(a_eq, a_ineq, w.size)
    return next(pool.rays([(eq, ineq, w)]))


def cone_has_nonzero(a_eq: Optional[Array], a_ineq: Optional[Array], dim: int) -> Optional[Array]:
    """A nonzero ray of {a_eq@z = 0, a_ineq@z >= 0} if one exists, else None.

    A rank test and at most one LDP.  When the unit-scaled rows
    M = [a_eq; a_ineq] have rank below dim, the right singular vector of
    the smallest singular value is a lineality ray.  Otherwise M z != 0
    for every z != 0, so a ray has a_ineq@z >= 0 and not all zero, and the
    LDP with (sum of the unit inequality rows)@z >= 1 finds one or proves
    there is none.  Rays are scaled to a largest entry of 1.  The one-cone
    case of :meth:`ConeRows.has_nonzero`.
    """
    if dim == 0:
        return None
    pool, eq, ineq = _one_cone(a_eq, a_ineq, dim)
    return next(pool.has_nonzero([(eq, ineq)]))


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
