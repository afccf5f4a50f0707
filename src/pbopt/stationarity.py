"""Multiplier recovery and certification for the min-max optimality systems.

Covers the C/M/S first-order systems of the exact problem, the optimality
system of the relaxed problem, the multiplier-set qualification conditions
used by the convergence theory, and the relaxed-problem qualification
condition.  Branch conditions over the biactive set are handled by exact
enumeration of sign patterns; each pattern is one linear feasibility
problem, and its least-norm multipliers (chosen for reproducibility) are one
least-distance solve.  The multiplier sets nest, S ⊂ M ⊂ C, and the three
recoveries try S's one pattern (gamma_i <= 0 and d_i <= 0 on every biactive
index) first, while the qualification tries gamma >= 0 first.  So M and C
return S's multipliers wherever those pass their check: where S's pass
both, the three recoveries give one answer.

The qualification conditions ask whether a polyhedral cone
{A_eq z = 0, A_ineq z >= 0} holds a nonzero ray, decided with one rank test
and at most one least-distance solve, or whether a ray of it moves a leader
row, one least-distance solve per signed row.

The enumeration is batched: patterns go in lexicographic order, in chunks
of 1, 2, 4, ... up to CHUNK_MAX.  The rows of every pattern's system are
stacked once per point (:func:`_pattern_pool`), each chunk picks its systems
from them by index, and systems of one shape are decided as one stack by
``simplex.least_norm_points`` and ``simplex.ConeRows``: one SVD rank test
and one least-distance set-up per stack.  The NNLS solves alone run one
pattern at a time, in order, so every answer, and the pattern it stops at,
is the one-pattern-at-a-time answer bit for bit.  A solve that stops at
scipy's NNLS iteration limit raises ``simplex.NnlsLimitError``: the question
is refused, never answered "no".  When the follower rows split into blocks
that share no column (:func:`_blocks`), both walks decide each block's
branch tuples once and then pass only the patterns those answers leave
open, picked by one enumerator (:func:`_walk`, :func:`_open_patterns`): the
qualification skips a pattern whose blocks are all trivial, a recovery one
with a block that has no solution.  A walk that needs solves for more than
PATTERN_BUDGET patterns raises PatternCapError; no other size is refused.

Calls in a row at one (problem, x, y, u, t) share one set-up (:func:`_setup`),
one record per point.  The set-up is one pass that calls each callback once
(the residual record, G(x), the index sets and the derivative blocks; only
an L row without a batch hook, or with difference Hessians, evaluates more).
The relaxed optimality system that the relaxed recovery, its check and CQ1
read, the follower blocks, the recovery pool that S, M and C pick from and
the qualification's pool (its homogeneous twin, cut from it), the
answers of the recovery systems solved there and the rows of each multiplier
triple checked there are kept on the record too, each made on first use (the
arrays handed out read-only).  A call sets up afresh when it gets another
problem (``problem_model.problem_key``: another object, or one of its
attributes is no longer the object it was at the set-up, as after
``problem.eval_g = ...``), or when x, y, u or the relaxation level differ
in any bit.  Only the last point is kept.  The refusals of a point
(``feas_tol`` and the classification) run on every call.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kkt
from .kkt import IndexSets, InfeasiblePointError, KktResidual, classify_residual, kkt_residual, largest, leader_values
from .maxmin import EPS_LVL_DEFAULT, InnerConfig, evaluate_psi_t
from .problem_model import (
    Array, BilevelProblem, TriplePoint, is_finite_number, lagrangian_jacobians_unchecked, problem_key, relaxation_level,
    relaxed_jacobian,
)
from .simplex import ConeRows, cone_has_nonzero, least_norm_point, least_norm_points

# Sign patterns one walk may decide by solves, its only limit; 3^8 of them took 0.3-1.8 s on one
# thread of a 2-core Xeon VM.  Patterns that a block screen settles without a solve of their own do
# not count, and neither do the block systems that settle them.
PATTERN_BUDGET = 3**8


class PatternCapError(RuntimeError):
    """A walk, recovery or qualification, that needs solves for more than PATTERN_BUDGET sign patterns."""


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


def _system_data(problem: BilevelProblem, pt: TriplePoint, g: Array, G: Array) -> _SystemData:
    """The derivative blocks at pt, read-only copies, each callback called once; g and G are g(x, y) and G(x) there.

    A block with a NaN or infinite entry is refused with InfeasiblePointError naming it.
    """
    d = problem.dims
    gFx, gFy = problem.grad_F(pt.x, pt.y)
    Jgx, Jgy = problem.jac_g(pt.x, pt.y) if d.q else (np.zeros((0, d.n)), np.zeros((0, d.m)))
    Lx, Ly, _ = lagrangian_jacobians_unchecked(problem, pt, Jgy)
    jacG = problem.jac_G(pt.x) if d.p else np.zeros((0, d.n))
    data = _SystemData(gFx, gFy, np.reshape(jacG, (d.p, d.n)), Lx, Ly, np.reshape(Jgx, (d.q, d.n)), np.reshape(Jgy, (d.q, d.m)), G, g)
    for name, block in vars(data).items():
        block = np.array(block, dtype=float)
        block.flags.writeable = False
        if not all(map(math.isfinite, block.ravel().tolist())):  # cheaper than numpy's reductions on blocks this small
            raise InfeasiblePointError(f"the block {name} at the point has a NaN or infinite entry")
        setattr(data, name, block)
    return data


@dataclass(eq=False)
class _Point:
    """The record of one point: its key and residual, and each later part once a call has needed it.

    idx and data are the index sets and the derivative blocks of the set-up's
    one pass, or both its refusal message; relaxed is the relaxed optimality
    system (:func:`_relaxed_full`); blocks are :func:`_blocks` of the follower
    rows, which both walks and every kind share; pool is the (rows, rhs,
    base) of :func:`_pattern_pool` that the S, M and C recoveries pick from
    (:func:`_recovery_pool`), and qualification the (rows, base) of its
    homogeneous twin with their unit-scaled ConeRows, which every kind of
    the qualification picks from (:func:`_qualification_pool`); answers
    maps the (eq, ineq) rows of each recovery system solved here to
    its least-norm point or None, so S's one system is solved once for the
    first pattern of M and of C; rows holds the kind-free rows of each
    multiplier triple checked here (:func:`_multiplier_rows`).  A part is
    filled in place on its own point's record, so a concurrent caller never
    pairs one point's key with another point's data.
    """

    key: tuple
    held: tuple  # the objects whose ids the key names (problem_model.problem_key)
    res: KktResidual
    idx: object = None
    data: object = None
    relaxed: Optional[tuple] = None
    blocks: Optional[list] = None
    pool: Optional[tuple] = None
    qualification: Optional[tuple] = None
    answers: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)


_last_point: Optional[_Point] = None  # the last point set up


def _setup(problem: BilevelProblem, pt: TriplePoint, t: float, feas_tol: Optional[float]) -> _Point:
    """The record of pt at level t, with its residual, index sets and system data, from one pass over the callbacks.

    A point whose violation exceeds feas_tol (when given) is refused first,
    then one that exceeds kkt.EPS_ACT_DEFAULT, by the classification, then
    one whose system data has a non-finite block (:func:`_system_data`).  The
    record is kept for the next call at the same point: the same problem
    (:func:`problem_model.problem_key`) and the same shapes and bits of x,
    y, u and the level.  The refusals run on every call.  The point is
    checked (``BilevelProblem.check_point``) once, by ``kkt_residual`` as
    its record is made; a later call with the same key has that checked
    point, and the Jacobians take it as checked.
    """
    global _last_point
    t = relaxation_level(t)
    ids, held = problem_key(problem)
    key = ids, pt.x.shape, pt.y.shape, pt.u.shape, pt.x.tobytes(), pt.y.tobytes(), pt.u.tobytes(), t.hex()
    point = _last_point
    if point is None or point.key != key:
        point = _last_point = _Point(key, held, kkt_residual(problem, pt, t))
    res = point.res
    if feas_tol is not None and not res.is_feasible(feas_tol):
        raise InfeasiblePointError(
            f"point not in the level-{t:g} follower KKT set: '{res.worst_field()}' violates by "
            f"{res.max_violation():.3e}"
        )
    if point.data is None:  # idx is set first, so a record with data has both
        G = leader_values(problem, pt.x)
        try:
            idx = classify_residual(pt, res, G)
            data = _system_data(problem, pt, res.g, G)
        except InfeasiblePointError as err:
            idx = data = str(err)
        point.idx, point.data = idx, data
    if isinstance(point.data, str):
        raise InfeasiblePointError(point.data)
    return point


def _scatter(size: int, index: tuple[int, ...], values: Array) -> Array:
    out = np.zeros(size)
    out[list(index)] = values
    return out


def _relaxed_full(data: _SystemData, u: Array) -> tuple[Array, Array]:
    """(A, b), read-only, of the relaxed optimality system A z = b over every multiplier z = [alpha, beta, gamma, mu, delta].

    Rows: x, y and u gradients.  The beta, gamma and delta columns are minus
    the transposed Jacobian of the signed rows r = [L | g | w] of D_t: x
    columns L_x, J_gx and -u*J_gx, then ``problem_model.relaxed_jacobian``.
    """
    n, m, q, p = data.gFx.size, data.gFy.size, data.g.size, data.G.size
    rows_yu = relaxed_jacobian(np.concatenate([data.Ly, data.Jgy.T], axis=1)[None], u[None], data.g[None])[0]
    minus = -np.concatenate([np.concatenate([data.Lx, data.Jgx, -u[:, None] * data.Jgx]), rows_yu], axis=1).T
    a = np.concatenate([
        np.concatenate([data.jacG.T, np.zeros((m + q, p))]),
        minus[:, : m + q],
        np.concatenate([np.zeros((n + m, q)), np.eye(q)]),
        minus[:, m + q :],
    ], axis=1)
    b = np.concatenate([-data.gFx, -data.gFy, np.zeros(q)])
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _relaxed_system(data: _SystemData, idx: IndexSets, u: Array, homogeneous: bool, full: Optional[tuple] = None):
    """(A_eq, b, A_ineq) of the relaxed optimality system on the multipliers that complementarity leaves free.

    Complementarity pins every multiplier outside its active set to zero, so
    A_eq is the columns [alpha_{I_G}, beta, gamma_{I_g}, mu_{I_u},
    delta_{I_ug}] of full = (A, b) (:func:`_relaxed_full`, built here when
    not given), and A_ineq is alpha, gamma, mu, delta >= 0.  The homogeneous
    twin has no alpha columns and b = 0.
    """
    a, b = _relaxed_full(data, u) if full is None else full
    p, m, q = data.G.size, data.gFy.size, data.g.size
    i_a = [] if homogeneous else list(idx.i_G)
    cols = [*i_a, *range(p, p + m), *(p + m + i for i in idx.i_g)]
    cols += [*(p + m + q + i for i in idx.i_u), *(p + m + 2 * q + i for i in idx.i_ug)]
    signed = [*range(len(i_a)), *range(len(i_a) + m, len(cols))]
    return a[:, cols], np.zeros(len(a)) if homogeneous else b, np.eye(len(cols))[signed]


def _relaxed(point: _Point, u: Array) -> tuple[Array, Array]:
    """The record's (A, b) of :func:`_relaxed_full`, built on first use."""
    if point.relaxed is None:
        point.relaxed = _relaxed_full(point.data, u)
    return point.relaxed


# Branches of one biactive index per (kind, qualification): (eq rows, ineq rows),
# each row a signed pick of the gamma_i unit row "g" or the d_i row "d".  M is
# {gamma<=0 & d<=0} | {gamma=0} | {d=0}; its qualification set flips the inequality branch.
# Every recovery tries gamma<=0 & d<=0 first, so S's one pattern is the first pattern of M and
# of C, and each returns S's multipliers wherever those pass its check; the qualification tables
# try gamma>=0 first.
_GE, _LE = ((), ("+g", "+d")), ((), ("-g", "-d"))
_G0, _D0 = (("+g",), ()), (("+d",), ())
_BRANCHES = {
    ("C", False): (_LE, _GE), ("C", True): (_GE, _LE),
    ("M", False): (_LE, _G0, _D0), ("M", True): (_GE, _G0, _D0),
    ("S", False): (_LE,), ("S", True): (_LE,),
}
_PICKS = ("+g", "-g", "+d", "-d")  # the order of each biactive index's branch rows in the pool
CHUNK_MAX = 256  # sign patterns per stacked batch; batches double up to it from one pattern
SPLIT_AFTER = 7  # patterns (three batches) a walk decides before it looks for blocks


def _check_kind(kind: str) -> None:
    if kind not in ("S", "M", "C"):
        raise ValueError(f"unknown stationarity kind {kind!r}")


def _pattern_pool(kind: str, qualification: bool, data: _SystemData, idx: IndexSets):
    """(rows, rhs, base, options): the rows every sign pattern's exact stationarity system picks from.

    Columns [alpha_{I_G}, beta, gamma_{theta u nu}].  rows stacks: the rows
    every pattern has as equalities (leader gradient, follower gradient,
    d_i = 0 on nu) with right-hand sides rhs; the unit rows of alpha >= 0;
    and each biactive index's signed gamma_i unit row and d_i row, in the
    order of _PICKS.  The qualification system is the homogeneous twin
    (:func:`_homogeneous`): no alpha columns or rows and rhs = 0.  base is
    the (eq, ineq) row indices every pattern has, and options[j] the (eq,
    ineq) row indices of each branch of the j-th biactive index.  The
    certifier builds each pool once per point (:func:`_recovery_pool`,
    :func:`_qualification_pool`).
    """
    pool = _pool_rows(data, idx)
    rows, rhs, base = _homogeneous(pool) if qualification else pool
    return rows, rhs, base, _options(kind, qualification, base, len(idx.theta))


def _pool_rows(data: _SystemData, idx: IndexSets) -> tuple:
    """The (rows, rhs, base) of the recovery pool of :func:`_pattern_pool`."""
    n, m = data.gFx.size, data.gFy.size
    i_a = list(idx.i_G)
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
    rhs[:n], rhs[n : n + m] = -data.gFx, -data.gFy
    return rows, rhs, (list(range(n_eq)), list(range(n_eq, at)))


def _homogeneous(pool: tuple) -> tuple:
    """The qualification's (rows, rhs, base) from a recovery pool: its alpha columns and alpha rows dropped, rhs 0.

    The alpha rows are the base inequalities, one unit row per alpha column,
    so the rows left hold the same entries as a pool built without alpha.
    """
    rows, _, (eq, ineq) = pool
    k, at = len(ineq), len(eq)
    rows = np.concatenate([rows[:at, k:], rows[at + k :, k:]])
    return rows, np.zeros(len(rows)), (eq, [])


def _recovery_pool(point: _Point) -> tuple:
    """The point's recovery pool (rows, rhs, base), built on first use."""
    if point.pool is None:
        point.pool = _pool_rows(point.data, point.idx)
        for block in point.pool[:2]:
            block.flags.writeable = False
    return point.pool


def _qualification_pool(point: _Point) -> tuple:
    """The point's qualification pool (rows, base, ConeRows of rows), taken from its recovery pool on first use."""
    if point.qualification is None:
        rows, _, base = _homogeneous(_recovery_pool(point))
        rows.flags.writeable = False
        point.qualification = rows, base, ConeRows(rows)
    return point.qualification


def _options(kind: str, qualification: bool, base, k: int) -> list:
    """options[j]: the (eq, ineq) pool rows of each branch of the j-th of k biactive indices, whose rows follow base."""
    at = len(base[0]) + len(base[1])
    offsets = [tuple(tuple(map(_PICKS.index, picks)) for picks in branch) for branch in _BRANCHES[kind, qualification]]
    return [[(tuple(map(at_j.__add__, eq)), tuple(map(at_j.__add__, ineq))) for eq, ineq in offsets] for at_j in range(at, at + 4 * k, 4)]


def _system(base, pattern) -> tuple[list, list]:
    """(eq, ineq) row indices of a pattern, a tuple of branches: base with the branches' rows appended in order."""
    base_eq, base_ineq = base
    return base_eq + [i for eq, _ in pattern for i in eq], base_ineq + [i for _, ineq in pattern for i in ineq]


def _chunks(patterns, size: int = 1, used: int = 0):
    """The patterns in lists of size, twice that, ... and then CHUNK_MAX, in order.

    The list that reaches PATTERN_BUDGET patterns, used of them before
    these, is cut there, and asking for more raises PatternCapError.
    """
    while chunk := list(itertools.islice(patterns, size)):
        used += len(chunk)
        if used > PATTERN_BUDGET:
            yield chunk[: len(chunk) - used + PATTERN_BUDGET]
            raise PatternCapError(f"the enumeration needs solves for more than {PATTERN_BUDGET} sign patterns")
        yield chunk
        size = min(2 * size, CHUNK_MAX)


def _blocks(rows: Array, n: int, k: int) -> list:
    """(columns, base rows, biactive positions) of each block of a pool with n leader rows and k biactive indices.

    The pool is the qualification's, or a recovery's past its alpha columns
    (its alpha rows are then zero and meet no block).  A block is a
    connected component of the columns under the follower rows (an index's
    four branch rows count as one row); the n leader rows stay out.  Empty
    when a column meets no follower row: its axis lies in every follower
    cone, so no split settles a pattern.
    """
    follower = rows[n:] != 0.0
    at = len(follower) - 4 * k
    touch = np.vstack([follower[:at], follower[at:].reshape(k, 4, -1).any(axis=1)])
    if not touch.any(axis=0).all():
        return []
    reach = touch.T @ touch  # boolean: columns that share a row, then their transitive closure
    while not np.array_equal(reach, closer := reach @ reach):
        reach = closer
    first = reach.argmax(axis=1)  # the first column of each column's block
    owner = np.where(touch.any(axis=1), first[touch.argmax(axis=1)], -1).tolist()
    blocks: dict = {}
    for col, b in enumerate(first.tolist()):
        blocks.setdefault(b, ([], [], []))[0].append(col)
    for row, b in enumerate(owner[:at]):
        if b >= 0:  # a zero row meets no block
            blocks[b][1].append(n + row)
    for j, b in enumerate(owner[at:]):  # a branch row is never zero
        blocks[b][2].append(j)
    return list(blocks.values())


def _block_tuples(rows: Array, blocks: list, options: list, decide) -> list:
    """Per block, the set of its biactive indices' branch digit tuples whose system decide answers.

    A block's system for a tuple is its base rows and the tuple's branch
    rows, on the block's own columns.  Blocks of one width share one pool,
    and decide(pool, systems) answers all of their systems (None for no),
    lazily and in order, so systems of one shape are one stack.
    """
    widths: dict = {}
    for b, (cols, _, _) in enumerate(blocks):
        widths.setdefault(len(cols), []).append(b)
    good = [None] * len(blocks)
    for width, group in widths.items():
        sub, systems = np.zeros((len(rows), width)), []
        for b in group:
            cols, base, thetas = blocks[b]
            tuples = [_system((base, []), branches) for branches in itertools.product(*(options[j] for j in thetas))]
            own = sorted({i for eq, ineq in tuples for i in eq + ineq})
            sub[own] = rows[np.ix_(own, cols)]
            systems += tuples
        found = (z is not None for z in decide(sub, systems))
        for b in group:  # compress takes one answer per tuple of b
            good[b] = set(itertools.compress(itertools.product(*(range(len(options[j])) for j in blocks[b][2])), found))
    return good


def _open_patterns(shape: tuple, blocks: list, good: list, start: int, need: int):
    """(position, digits) of each pattern from position start on with at least need good blocks, in order.

    good[b] is the set of block b's good digit tuples.  The digits are chosen
    depth first, with a count of the blocks whose digits so far still begin
    a good tuple; a digit after which that count falls below need ends its
    subtree.  The blocks share no biactive index, so the blocks counted can
    all be made good at once: every step off the start's own path leads to a
    pattern, and no array over the patterns is built.
    """
    owner = {j: (b, at + 1) for b, (_, _, thetas) in enumerate(blocks) for at, j in enumerate(thetas)}
    prefixes = [{t[:end] for t in tuples for end in range(len(t) + 1)} for tuples in good]
    low, rest = [], start
    for size in reversed(shape):
        rest, digit = divmod(rest, size)
        low.insert(0, digit)
    digits = [0] * len(shape)

    def descend(j: int, position: int, tight: bool, alive: int):
        if j == len(shape):
            yield position, tuple(digits)
            return
        b, end = owner[j]
        thetas = blocks[b][2][:end]
        was = tuple(digits[i] for i in thetas[:-1]) in prefixes[b]
        for digit in range(low[j] if tight else 0, shape[j]):
            digits[j] = digit
            left = alive - was + (was and tuple(digits[i] for i in thetas) in prefixes[b])
            if left >= need:
                yield from descend(j + 1, position * shape[j] + digit, tight and digit == low[j], left)

    alive = sum(map(bool, good))  # a block without biactive indices is good or not for every pattern
    return descend(0, 0, True, alive) if alive >= need else iter(())


def _walk(point: _Point, rows: Array, n: int, base, options: list, decide, every: bool):
    """Chunks of (position, (eq, ineq)): the sign patterns in lexicographic order up to the block screen, then those it leaves open.

    rows is the pool of the patterns' rows on the follower blocks' columns,
    with n leader rows first.  The walk looks for blocks only after its
    first SPLIT_AFTER patterns, and only when more patterns are left than
    singleton blocks would decide; it finds them (:func:`_blocks`) once per
    point, and every kind and both walks share them.  It goes on one by one
    up to its largest block's tuple count, when that is more, and screens
    only when more patterns are left than the screen decides: decide answers
    each block's branch tuples (:func:`_block_tuples`), and the walk goes on
    with the patterns from there whose every block is good (every), or one
    block (not every), in order (:func:`_open_patterns`).  A walk without
    blocks is the batched walk alone.  The budget counts the patterns
    handed out.
    """
    shape = tuple(map(len, options))
    total = math.prod(shape)
    patterns = enumerate(_system(base, pattern) for pattern in itertools.product(*options))
    yield from _chunks(itertools.islice(patterns, SPLIT_AFTER))
    # too few patterns for even singleton blocks to screen: no split
    split = len(shape) >= 2 and SPLIT_AFTER + len(shape) * shape[0] < total
    if split and point.blocks is None:
        point.blocks = _blocks(rows, n, len(shape))
    blocks = point.blocks if split else []
    tuples = [math.prod(shape[j] for j in thetas) for _, _, thetas in blocks]
    screen_at = max(SPLIT_AFTER, *tuples) if blocks else total
    if screen_at + sum(tuples) >= total:
        screen_at = total
    yield from _chunks(itertools.islice(patterns, max(0, screen_at - SPLIT_AFTER)), SPLIT_AFTER + 1, SPLIT_AFTER)
    if screen_at < total:
        good = _block_tuples(rows, blocks, options, decide)
        picked = _open_patterns(shape, blocks, good, screen_at, len(blocks) if every else 1)
        yield from _chunks(((at, _system(base, tuple(o[i] for o, i in zip(options, digits)))) for at, digits in picked), used=screen_at)


def recover_c_multipliers(problem: BilevelProblem, pt: TriplePoint, kind: str = "C") -> Optional[Multipliers]:
    """Least-norm multipliers for the kind-dependent exact stationarity system.

    A point whose exact KKT violation exceeds kkt.FEAS_TOL_DEFAULT is
    refused with InfeasiblePointError.  Enumerates sign patterns over the
    biactive set in lexicographic order, each kind's branches in the order
    of _BRANCHES: C, like S and M, tries gamma_i <= 0 and d_i <= 0 first
    (the qualification tables try gamma_i >= 0 first).  So S's one pattern
    is the first of M and of C, and M and C return S's multipliers bit for
    bit wherever those pass their check: where S's pass the M and the C
    check, the three recoveries return one answer.  Each pattern is a
    least-distance problem, and the first feasible pattern's least-norm
    solution that passes its own check is returned: every multiplier row of
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

    When the follower rows split into blocks that share no column
    (:func:`_blocks`), a pattern has no solution when one block's system
    (its follower rows with its indices' branch rows, on its own columns)
    has none.  So after the same first patterns and start rule as
    :func:`check_qualification_Am` (:func:`_walk`), the walk decides each
    block's branch tuples once, Σ_b 2^{k_b} systems for kind C, and solves
    in order only the patterns whose every block has a solution: the cost
    is exponential in the largest block, not in the biactive set, and the
    answer is the one above.  A block is decided at its own scale, so on
    badly scaled rows a pattern whose whole system passes only to ZERO_TOL
    times a large solution norm can be passed over.  A block decision that
    stops at the NNLS iteration limit refuses, and a walk that needs solves
    for more than PATTERN_BUDGET patterns is refused with PatternCapError;
    screened patterns do not count.  The systems solved at a point are kept on its
    record, so a kind takes the answers another kind solved there.
    """
    _check_kind(kind)
    point = _setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
    idx, data = point.idx, point.data
    rows, rhs, base = _recovery_pool(point)
    options = _options(kind, False, base, len(idx.theta))
    answers = point.answers
    d = problem.dims
    k = len(idx.i_G)
    free = sorted(set(idx.theta) | set(idx.nu))
    # the blocks are the qualification's: past the alpha columns, which only leader and alpha rows meet
    walk = _walk(point, rows[:, k:], d.n, base, options, lambda sub, systems: least_norm_points(sub, rhs, systems), True)
    for chunk in walk:
        keys = [(tuple(eq), tuple(ineq)) for _, (eq, ineq) in chunk]
        fresh = least_norm_points(rows, rhs, [system for key, (_, system) in zip(keys, chunk) if key not in answers])
        for key in keys:
            if key not in answers:
                answers[key] = next(fresh)
            z = answers[key]
            if z is None:
                continue
            alpha = _scatter(d.p, idx.i_G, np.maximum(0.0, z[:k]))
            beta, gamma = z[k : k + d.m].copy(), _scatter(d.q, free, z[k + d.m :])  # z stays on the record
            own, _ = _multiplier_rows(kind, point, alpha, beta, gamma)
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
        cfg = InnerConfig(starts=12, sweeps=4, feas_tol=1e-10) if inner_cfg is None else inner_cfg
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
        if v.size != size or not all(map(math.isfinite, v.ravel().tolist())):
            raise ValueError(f"multiplier block {name} must be a finite vector of {size} entries")
        blocks.append(v.reshape(size))
    return blocks


def _check_tol(tol: float) -> None:
    if not (is_finite_number(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _report(kind: str, rows: dict, mults, branch, idx: IndexSets, tol: float) -> StationarityReport:
    # a max over -0.0 and the 0.0 floor can keep -0.0; adding 0.0 turns it into
    # +0.0 and leaves every other value as it is
    rows = {name: val + 0.0 for name, val in rows.items()}
    residual = largest(rows.values())  # a NaN row gives NaN, which fails the verdict
    return StationarityReport(kind, residual, mults, branch, idx, bool(residual <= tol), rows)


def _multiplier_rows(kind: str, point: _Point, alpha: Array, beta: Array, gamma: Array) -> tuple[dict[str, float], list]:
    """The rows of the kind-dependent exact stationarity system at (alpha, beta, gamma), graph rows aside, and d = J_gy beta.

    Every row but the theta row is kind-free, computed once per multiplier triple and kept on the point's record.
    """
    key = alpha.tobytes(), beta.tobytes(), gamma.tobytes()
    if key not in point.rows:
        data, idx = point.data, point.idx
        res_x = data.gFx + data.jacG.T @ alpha + data.Lx.T @ beta + data.Jgx.T @ gamma
        res_y = data.gFy + data.Ly.T @ beta + data.Jgy.T @ gamma
        dvec, gamma = (data.Jgy @ beta).tolist(), gamma.tolist()
        point.rows[key] = {
            "leader_gradient": largest(map(abs, res_x.tolist())),
            "follower_gradient": largest(map(abs, res_y.tolist())),
            "alpha_sign": largest((-alpha).tolist()),
            "leader_feas": largest(data.G.tolist()),
            "alpha_compl": largest(map(abs, (alpha * data.G).tolist())),
            "nu_gradient": largest(abs(dvec[i]) for i in idx.nu),
            "eta_gamma": largest(abs(gamma[i]) for i in idx.eta),
        }, dvec, gamma
    rows, dvec, gamma = point.rows[key]
    theta = largest(_theta_violation(kind, gamma[i], dvec[i]) for i in point.idx.theta)
    return {**rows, "theta_condition": theta}, dvec


def check_stationarity(
    problem: BilevelProblem, pt: TriplePoint, mults: Multipliers, kind: str = "C", tol: float = kkt.FEAS_TOL_DEFAULT,
    inner_cfg: Optional[InnerConfig] = None, graph_check: bool = True,
) -> StationarityReport:
    """Residuals of the kind-dependent stationarity system at (pt, mults).

    The verdict holds when every residual row is at most tol.  The
    graph-membership row is verified numerically: pt must lie in the
    exact follower KKT set and F must reach the inner max value within
    EPS_LVL_DEFAULT, the argmax slack of the inner solver, which supplies
    that value.  The index sets use the activity margin kkt.EPS_ACT_DEFAULT.
    A tol that is not a finite nonnegative number (:func:`is_finite_number`),
    and a multiplier block that is not a finite vector of its length, are
    refused with ValueError.
    """
    _check_kind(kind)
    _check_tol(tol)
    point = _setup(problem, pt, 0.0, None)
    idx, d = point.idx, problem.dims
    alpha, beta, gamma = _multiplier_blocks(mults, {"alpha": d.p, "beta": d.m, "gamma": d.q})

    rows = _graph_rows(problem, pt, point.res, inner_cfg, graph_check)
    own, dvec = _multiplier_rows(kind, point, alpha, beta, gamma)
    rows.update(own)
    branch = tuple("-" if gamma[i] <= 0 and dvec[i] <= 0 else "+" for i in idx.theta) if idx.theta else None
    return _report(kind, rows, mults, branch, idx, tol)


def recover_relaxed_multipliers(problem: BilevelProblem, t: float, pt: TriplePoint) -> Optional[RelaxedMultipliers]:
    """Least-norm multipliers of the relaxed optimality system, or None.

    A point whose level-t KKT violation exceeds kkt.FEAS_TOL_DEFAULT is
    refused with InfeasiblePointError.  The complementarity conditions pin
    every multiplier outside its active set to zero, so one linear
    feasibility problem with sign constraints remains.
    """
    point = _setup(problem, pt, t, kkt.FEAS_TOL_DEFAULT)
    idx, d = point.idx, problem.dims
    a_eq, b, a_ineq = _relaxed_system(point.data, idx, pt.u, False, _relaxed(point, pt.u))
    z, status = least_norm_point(a_eq, b, a_ineq)
    if z is None:
        return None
    alpha, beta, gamma, mu, delta = np.split(z, np.cumsum([len(idx.i_G), d.m, len(idx.i_g), len(idx.i_u)]))
    signed = ((d.p, idx.i_G, alpha), (d.q, idx.i_g, gamma), (d.q, idx.i_u, mu), (d.q, idx.i_ug, delta))
    alpha, gamma, mu, delta = (_scatter(size, active, np.maximum(0.0, block)) for size, active, block in signed)
    return RelaxedMultipliers(alpha, beta, gamma, mu, delta, status)


def check_relaxed_stationarity(
    problem: BilevelProblem, t: float, pt: TriplePoint, rm: RelaxedMultipliers, tol: float = kkt.FEAS_TOL_DEFAULT,
    inner_cfg: Optional[InnerConfig] = None, graph_check: bool = True,
) -> StationarityReport:
    """Residuals of the relaxed optimality system at (pt, rm) for level t.

    The verdict holds when every residual row is at most tol.  The x, y and
    u gradient rows are A z - b of the record's system (:func:`_relaxed_full`)
    at the multipliers z = rm.  The graph rows are those of
    :func:`check_stationarity` at level t, and tol and the multiplier blocks
    are refused as there.
    """
    _check_tol(tol)
    point = _setup(problem, pt, t, None)  # refuses a point outside D_t before the inner solve
    data, d = point.data, problem.dims
    alpha, beta, gamma, mu, delta = _multiplier_blocks(rm, {"alpha": d.p, "beta": d.m, "gamma": d.q, "mu": d.q, "delta": d.q})

    rows = _graph_rows(problem, pt, point.res, inner_cfg, graph_check)
    a, b = _relaxed(point, pt.u)
    resid = np.abs(a @ np.concatenate([alpha, beta, gamma, mu, delta]) - b).tolist()  # the x, y and u gradient rows
    for name, at, end in (("leader_gradient", 0, d.n), ("follower_gradient", d.n, d.n + d.m), ("multiplier_gradient", d.n + d.m, None)):
        rows[name] = largest(resid[at:end])
    # sign, feasibility and complementarity of each multiplier block
    slacks = data.G, data.g, -pt.u, -(pt.u * data.g) - t
    for name, mult, slack in zip(("alpha_block", "gamma_block", "mu_block", "delta_block"), (alpha, gamma, mu, delta), slacks):
        rows[name] = largest([*(-mult).tolist(), *slack.tolist(), *map(abs, (mult * slack).tolist())])
    return _report("relaxed", rows, rm, None, point.idx, tol)


@dataclass
class QualificationReport:
    a1: bool
    a2: bool
    kind: str
    certificates: dict = field(default_factory=dict)
    # sign patterns passed in lexicographic order before both verdicts were settled (all of them,
    # 3^k for kind M, when one holds), whether decided one by one or settled by the block screen
    patterns_checked: int = 0


def check_qualification_Am(problem: BilevelProblem, pt: TriplePoint, kind: str = "M") -> QualificationReport:
    """Decide the two multiplier-set qualification conditions at pt.

    A point whose exact KKT violation exceeds kkt.FEAS_TOL_DEFAULT is
    refused with InfeasiblePointError, as the multiplier recoveries refuse
    it.  The first holds iff the full homogeneous multiplier
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
    the same rays, as one pattern at a time would.

    When the follower rows split into blocks that share no column
    (:func:`_blocks`), a pattern's follower cone is the product of its
    blocks' cones, so it is nontrivial when one block's cone is.  The
    blocks' branch tuples (Σ_b 3^{k_b} cones for kind M) then settle every
    pattern whose blocks are all trivial, which counts without a solve; the
    walk picks the others lazily, without an array over all patterns
    (:func:`_open_patterns`).  The walk looks for blocks only after its
    first SPLIT_AFTER patterns, so a walk that settles in them never
    splits.  It goes on one by one up to its largest block's tuple count,
    when that is more, and screens only when more patterns are left than
    the screen decides (:func:`_walk`, which the recoveries take too).  A
    system too small to split walks on without blocks, in the same batches.
    Answers stay bit for bit; a refusal comes from the solves this walk
    makes.  The biactive set's size is not refused as such: a walk that
    needs solves for more than PATTERN_BUDGET patterns is refused with
    PatternCapError.
    """
    _check_kind(kind)
    point = _setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
    n = problem.dims.n
    rows, base, pool = _qualification_pool(point)
    options = _options(kind, True, base, len(point.idx.theta))
    leader = [sign * row for row in rows[:n] if np.any(row) for sign in (1.0, -1.0)]
    a1 = a2 = True
    certs: dict[str, Array] = {}
    # a1 asks the whole pattern cone; a2 the cone without the leader rows, which it must annihilate
    for chunk in _walk(point, rows, n, base, options, lambda sub, cones: ConeRows(sub).has_nonzero(cones), False):
        for (at, (eq, ineq)), follower in zip(chunk, pool.has_nonzero([(eq[n:], ineq) for _, (eq, ineq) in chunk])):
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
                return QualificationReport(a1, a2, kind, certs, patterns_checked=at + 1)  # both settled
    return QualificationReport(a1, a2, kind, certs, patterns_checked=math.prod(map(len, options)))


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
    point = _setup(problem, pt, t, kkt.FEAS_TOL_DEFAULT)
    u, g = pt.u.tolist(), point.data.g.tolist()
    if any(eps_act < abs(val) < 10.0 * eps_act for val in [*u, *g, *(u_i * g_i + t for u_i, g_i in zip(u, g))]):
        message = "activity margins within a decade of eps_act; verdict undecided at tolerance"
        warnings.warn(message, BorderlineActivityWarning, stacklevel=2)
    # the y and u rows, negated: the homogeneous twin of the relaxed recovery
    a_eq, _, a_ineq = _relaxed_system(point.data, point.idx, pt.u, True, _relaxed(point, pt.u))
    return cone_has_nonzero(-a_eq[problem.dims.n :], a_ineq, a_eq.shape[1]) is None
