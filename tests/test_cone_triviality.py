"""Differential test of the least-distance cone decisions against HiGHS.

``simplex.cone_has_nonzero`` decides whether {a_eq z = 0, a_ineq z >= 0}
holds a nonzero ray by a rank test and at most one least-distance solve,
and ``simplex.cone_ray`` with a vector w whether some ray has w@z > 0.  The
reference is the per-coordinate loop that decided every cone before:
maximise each +-coordinate (or w) over the cone and the unit box with
HiGHS, and take a ray when the value exceeds RAY_TOL.  The 2*dim
coordinate maximisations of one cone run as one block-diagonal LP.  Cones
come from:

- the pinned certifier corpus: for every sign pattern the qualification
  check visits, the full and the follower-only cone with each signed leader
  row, and every CQ1 cone;
- generated cones with rows scaled by 1e-6 to 1e6: random blocks, positive
  spanning sets, nearly parallel rows, blocks rank-deficient by eps, and
  wedges eps away from a nontrivial cone;
- cones with exactly antiparallel inequality rows, as the certifier builds
  from duplicated constraints.

HiGHS holds rows to absolute tolerances near 1e-7, so the loop runs on
unit rows (the same cone) and a point it returns counts as a ray only when
it breaks no row by more than VERIFY_TOL, round-off.  A cone the loop
finds no such ray in is trivial only when even the rows relaxed by
SLACK_TOL admit no point with a coordinate of WIDE; otherwise it lies
within HiGHS's tolerance of both answers (a wedge thinner than about 1e-7,
a block that many digits short of full rank), and only the ray itself is
checked there.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from pbopt import kkt, simplex
from pbopt import stationarity as stn

from test_stationarity_pinned import KINDS, _cases, _pinned

RAY_TOL = 1e-7  # the loop's acceptance value on the unit box
VERIFY_TOL = 1e-12
SLACK_TOL = 1e-7
WIDE = 0.5
SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def unit_rows(rows, dim):
    """The rows scaled to unit norm, zero rows dropped: the same cone."""
    rows = np.zeros((0, dim)) if rows is None else np.asarray(rows, dtype=float).reshape(-1, dim)
    norms = np.linalg.norm(rows, axis=1)
    return rows[norms > 0.0] / norms[norms > 0.0, None]


def violation(z, eq, ineq) -> float:
    """The largest amount by which z, scaled to a largest entry of 1, breaks a unit row."""
    z = z / np.max(np.abs(z))
    return max(np.max(np.abs(eq @ z), initial=0.0), np.max(-(ineq @ z), initial=0.0))


def signed_units(dim, width):
    """The 2*dim objectives +-e_j, j < dim, as rows of length width."""
    return np.repeat(np.eye(width)[:dim], 2, axis=0) * np.tile([1.0, -1.0], dim)[:, None]


def max_each(W, eq, ineq, dim):
    """(values, points) of max w@z over {eq@z = 0, ineq@z >= 0, |z| <= 1} for every row w of W.

    One HiGHS LP over len(W) copies of z with block-diagonal rows: the
    copies share no variable or row, so each copy's part of an optimum is an
    optimum of its own LP.
    """
    k = len(W)
    block = lambda A: sparse.block_diag([A] * k, format="csr") if len(A) else None
    res = linprog(
        -W.ravel(),
        A_ub=None if block(ineq) is None else -block(ineq), b_ub=np.zeros(k * len(ineq)) if len(ineq) else None,
        A_eq=block(eq), b_eq=np.zeros(k * len(eq)) if len(eq) else None,
        bounds=(-1.0, 1.0), method="highs",
    )
    if res.status:
        return np.full(k, -np.inf), [None] * k
    Z = res.x.reshape(k, dim)
    return (W * Z).sum(axis=1), list(Z)


def reference(a_eq, a_ineq, dim) -> str:
    """"ray", "trivial" or "tolerance-bound", by the HiGHS loop, its 2*dim LPs stacked into one."""
    eq, ineq = unit_rows(a_eq, dim), unit_rows(a_ineq, dim)
    for val, z in zip(*max_each(signed_units(dim, dim), eq, ineq, dim)):
        if z is not None and val > RAY_TOL and violation(z, eq, ineq) <= VERIFY_TOL:
            return "ray"
    # the loop again over (z, s) with |eq@z| <= SLACK_TOL s and ineq@z >= -SLACK_TOL s, s <= 1
    relaxed = np.vstack([eq, -eq, ineq])
    relaxed = np.hstack([relaxed, np.full((len(relaxed), 1), SLACK_TOL)])
    best = max(max_each(signed_units(dim, dim + 1), np.zeros((0, dim + 1)), relaxed, dim + 1)[0])
    return "trivial" if best < WIDE else "tolerance-bound"


def check_decision(a_eq, a_ineq, dim) -> str:
    """cone_has_nonzero agrees with the reference, and a ray it returns lies in the cone."""
    got, want = simplex.cone_has_nonzero(a_eq, a_ineq, dim), reference(a_eq, a_ineq, dim)
    if want != "tolerance-bound":
        assert (got is not None) == (want == "ray"), (want, a_eq, a_ineq)
    if got is not None:
        assert_ray(got, a_eq, a_ineq, dim)
    return want


def assert_ray(ray, a_eq, a_ineq, dim, w=None):
    """ray is a point of the cone to HiGHS's own row tolerance, scaled to a largest entry of 1 (with w@ray > 0)."""
    assert np.max(np.abs(ray)) == pytest.approx(1.0)
    assert violation(ray, unit_rows(a_eq, dim), unit_rows(a_ineq, dim)) <= 1e-7
    if w is not None:
        assert w @ ray > 0.0


@lru_cache(maxsize=None)
def corpus() -> tuple:
    """((a_eq, a_ineq, dim), leader rows) of every distinct cone the certifier builds on the pinned corpus.

    The leader rows are the a2 rows of a follower-only cone and empty otherwise.
    """
    cones = {}

    def add(a_eq, a_ineq, dim, leader=np.zeros((0, 0))):
        key = (a_eq.shape, a_eq.tobytes(), None if a_ineq is None else a_ineq.tobytes(), leader.tobytes())
        cones.setdefault(key, ((a_eq, a_ineq, dim), leader))

    for label, (problem, t, pt) in sorted(_cases().items()):
        n = problem.dims.n
        if t == 0.0:
            point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
            idx, data = point.idx, point.data
            for kind in KINDS:
                visited = _pinned()[label][f"qual_{kind}"]["patterns_checked"]
                rows, _, base, options = stn._pattern_pool(kind, True, data, idx)
                for pattern in itertools.islice(itertools.product(*options), visited):
                    eq, ineq = stn._system(base, pattern)
                    a_pat, ineq = rows[eq], (rows[ineq] if ineq else None)
                    add(a_pat, ineq, rows.shape[1])
                    add(a_pat[n:], ineq, rows.shape[1], rows[:n])
        else:
            point = stn._setup(problem, pt, t, kkt.FEAS_TOL_DEFAULT)
            idx, data = point.idx, point.data
            a_eq, _, a_ineq = stn._relaxed_system(data, idx, pt.u, homogeneous=True)
            add(-a_eq[n:], a_ineq if len(a_ineq) else None, a_eq.shape[1])
    return tuple(cones.values())


def test_corpus_verdicts_match_the_loop():
    verdicts = [check_decision(*cone) for cone, _ in corpus()]
    # every corpus cone is far from HiGHS's tolerance, and both verdicts occur
    assert set(verdicts) == {"ray", "trivial"}


def test_corpus_leader_rows_match_the_loop():
    """The a2 decision: some ray of the follower cone moves a signed leader row."""
    moved = []
    for (a_eq, a_ineq, dim), leader in corpus():
        eq, ineq = unit_rows(a_eq, dim), unit_rows(a_ineq, dim)
        for w in (sign * row for row in leader if np.any(row) for sign in (1.0, -1.0)):
            got = simplex.cone_ray(a_eq, a_ineq, w)
            val, z = simplex.cone_max_linear(w, eq, ineq, dim)
            assert (got is not None) == (val > RAY_TOL and violation(z, eq, ineq) <= VERIFY_TOL)
            if got is not None:
                assert_ray(got, a_eq, a_ineq, dim, w)
            moved.append(got is not None)
    assert 0 < sum(moved) < len(moved)


@st.composite
def cones(draw):
    """(a_eq or None, a_ineq or None, dim) of one generated cone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "spanning", "parallel", "rank_eps", "wedge"]))
    dim = draw(st.integers(1, 5))
    n_eq = draw(st.integers(0, dim))
    n_ineq = draw(st.integers(0, 2 * dim + 1))
    eps = 10.0 ** draw(st.floats(-13.0, -2.0))
    E, C = rng.normal(size=(n_eq, dim)), rng.normal(size=(n_ineq, dim))
    if kind == "spanning":  # dim + 1 or more rows around the origin: trivial unless eq rows interfere
        C = rng.normal(size=(dim + 1 + n_ineq % dim, dim))
        C[-1] = -C[:-1].sum(axis=0) * rng.uniform(0.1, 2.0)
        E = E[: dim - 1]
    elif kind == "parallel" and n_eq + n_ineq >= 2:
        M = np.vstack([E, C])
        i, j = rng.choice(len(M), size=2, replace=False)
        M[j] = rng.choice([-1.0, 1.0]) * M[i] + eps * rng.normal(size=dim)
        E, C = M[:n_eq], M[n_eq:]
    elif kind == "rank_eps" and n_eq + n_ineq >= dim:
        u, s, vt = np.linalg.svd(np.vstack([E, C]), full_matrices=False)
        s[-1] = s[0] * eps
        M = (u * s) @ vt
        E, C = M[:n_eq], M[n_eq:]
    elif kind == "wedge":  # e1 +- delta e2 >= 0 and -e2 >= 0: trivial, eps from the ray e2
        dim = max(dim, 2)
        C = np.zeros((3, dim))
        C[0, :2], C[1, :2], C[2, 1] = (1.0, eps), (-1.0, eps), -1.0
        E = np.eye(dim)[2:]
        Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        E, C = E @ Q, C @ Q
    if draw(st.booleans()):
        scale = lambda A: A * 10.0 ** rng.uniform(-6.0, 6.0, size=(len(A), 1))
        E, C = scale(E), scale(C)
    return (E if len(E) else None), (C if len(C) else None), dim


@SETTINGS
@given(cones())
def test_generated_cones_never_proved_trivial_where_the_loop_finds_a_ray(cone):
    event(check_decision(*cone))


@pytest.mark.parametrize("seed", range(20))
def test_exactly_antiparallel_rows_match_the_loop(seed):
    # +-c pairs pin the cone to a subspace; the other rows decide what is left of it
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 4
    pairs = rng.normal(size=(1 + seed % 2, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(1 + seed % 2, 1))
    a_ineq = np.vstack([pairs, rng.normal(size=(1 + seed % 3, dim)), -pairs])
    a_eq = rng.normal(size=(1, dim)) if seed % 2 else None
    assert check_decision(a_eq, a_ineq, dim) != "tolerance-bound"
