"""Differential test of the one-sided cone triviality proof against the box-LP loop.

``simplex.cone_proved_trivial`` may only answer "trivial" where the
per-coordinate loop that decided every cone before it (maximise each
+-coordinate over the cone and the unit box, accept a ray when the value
exceeds RAY_TOL) finds no ray.  The reference below is that loop, kept here
unchanged.  Cones come from:

- the pinned certifier corpus: for every sign pattern the qualification
  check visits, the full and the follower-only cone, and every CQ1 cone;
- generated cones with rows scaled by 1e-6 to 1e6: random blocks, positive
  spanning sets, nearly parallel rows, blocks rank-deficient by eps, and
  wedges eps away from a nontrivial cone.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbopt import simplex
from pbopt import stationarity as stn

from test_stationarity_pinned import KINDS, _cases, _pinned

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_ray(a_eq, a_ineq, dim, tol=stn.RAY_TOL):
    for j in range(dim):
        for sign in (1.0, -1.0):
            w = np.zeros(dim)
            w[j] = sign
            val, z = simplex.cone_max_linear(w, a_eq, a_ineq, dim)
            if z is not None and val > tol:
                return z
    return None


@lru_cache(maxsize=None)
def corpus_cones() -> tuple:
    """(a_eq, a_ineq, dim) of every distinct cone the certifier builds on the pinned corpus."""
    cones = {}

    def add(a_eq, a_ineq, dim):
        key = (a_eq.shape, a_eq.tobytes(), None if a_ineq is None else a_ineq.tobytes())
        cones.setdefault(key, (a_eq, a_ineq, dim))

    eps = 1e-6  # the certifier's default eps_act
    for label, (problem, t, pt) in sorted(_cases().items()):
        n = problem.dims.n
        if t == 0.0:
            idx, data = stn._setup(problem, pt, 0.0, eps, eps, stn.PATTERN_CAP_DEFAULT)
            a_eq, _, a_ineq, theta_rows = stn._exact_system(data, idx, homogeneous=True)
            for kind in KINDS:
                visited = _pinned()[label][f"qual_{kind}"]["patterns_checked"]
                patterns = stn._pattern_systems(kind, True, a_eq, a_ineq, theta_rows)
                for a_pat, ineq in itertools.islice(patterns, visited):
                    add(a_pat, ineq, a_eq.shape[1])
                    add(a_pat[n:], ineq, a_eq.shape[1])
        else:
            idx, data = stn._setup(problem, pt, t, eps, eps)
            a_eq, _, a_ineq = stn._relaxed_system(data, idx, pt.u, homogeneous=True)
            add(-a_eq[n:], a_ineq if len(a_ineq) else None, a_eq.shape[1])
    return tuple(cones.values())


def test_corpus_verdicts_match_the_loop():
    cones = corpus_cones()
    fast = [simplex.cone_proved_trivial(*c) for c in cones]
    ref = [reference_ray(*c) is None for c in cones]
    assert not [i for i, (f, r) in enumerate(zip(fast, ref)) if f and not r]
    assert 0 < sum(fast) < len(cones)  # both verdicts occur
    # The proof settles every other trivial corpus cone, which is where the
    # certifier saves its LPs; the few it leaves have antiparallel inequality rows.
    for (_, a_ineq, _), f, r in zip(cones, fast, ref):
        if r and not f:
            unit = a_ineq / np.linalg.norm(a_ineq, axis=1, keepdims=True)
            assert np.min(unit @ unit.T) < simplex.PARALLEL_COS - 1.0


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
    want = reference_ray(*cone)
    if simplex.cone_proved_trivial(*cone):
        assert want is None
    got = simplex.cone_has_nonzero(*cone, tol=stn.RAY_TOL)
    assert (got is None) == (want is None)
    if want is not None:
        np.testing.assert_array_equal(got, want)
