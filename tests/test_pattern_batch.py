"""The stacked sign-pattern enumeration against the one-pattern-at-a-time loops.

``recover_c_multipliers`` and ``check_qualification_Am`` walk the sign
patterns over the biactive set in batches of 1, 2, 4, ... patterns: the rows
of every pattern are picked from one pool per point, and the rank tests and
least-distance set-ups of a batch run as stacks, so only the NNLS solves go
one pattern at a time.  The reference here is the assembly and the loop they
replaced: one system per pattern, assembled with ``np.vstack`` and decided
by the single-system functions of ``simplex``.  On the pinned certifier corpus and
on generated biactive families (k = 0..7, with and without duplicated rows,
with C-only data, where S has no multipliers and C answers late, and
families whose follower rows split into blocks, each also with rows scaled
by 1e-6..1e6) both must give the same verdicts, pattern counts and
certificate keys, and the same multipliers and rays bit for bit.
NNLS solves run in the same order and stop at the same pattern, so a solve
that stops at its iteration limit after that pattern changes nothing, and
one at or before it is still refused.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from pbopt import TriplePoint, cli, kkt, simplex
from pbopt import stationarity as stn

from test_cone_triviality import assert_ray
from test_stationarity_pinned import KINDS, _cases
from toys import biactive_family_data, make_linear_follower


def _exact_system(data, idx, homogeneous: bool):
    """(A_eq, b, A_ineq, theta_rows) of the exact stationarity system, assembled on its own.

    Columns [alpha_{I_G}, beta, gamma_{theta u nu}]; rows: leader gradient,
    follower gradient, d_i = 0 on nu.  A_ineq is alpha >= 0 and theta_rows the
    (gamma_i unit row, d_i row) pair of each biactive index.  The homogeneous
    twin has no alpha columns and b = 0.
    """
    n, m, q = data.gFx.size, data.gFy.size, data.g.size
    i_a = [] if homogeneous else list(idx.i_G)
    free = sorted(set(idx.theta) | set(idx.nu))
    beta = slice(len(i_a), len(i_a) + m)
    x, y, w = slice(0, n), slice(n, n + m), slice(n + m, None)
    a = np.zeros((n + m + q, beta.stop + len(free)))  # w: the d_i row of every constraint
    a[x, : beta.start] = data.jacG[i_a].T
    a[x, beta], a[y, beta], a[w, beta] = data.Lx.T, data.Ly.T, data.Jgy
    a[x, beta.stop :], a[y, beta.stop :] = data.Jgx[free].T, data.Jgy[free].T
    a_eq = a[[*range(n + m), *(n + m + i for i in idx.nu)]]
    b = np.zeros(len(a_eq)) if homogeneous else np.concatenate([-data.gFx, -data.gFy, np.zeros(len(idx.nu))])
    unit = np.eye(a.shape[1])
    theta_rows = [(unit[beta.stop + free.index(i)], a[n + m + i]) for i in idx.theta]
    return a_eq, b, unit[: beta.start], theta_rows


def _pattern_systems(kind, qualification, a_eq, a_ineq, theta_rows, patterns=None):
    """(A_eq, A_ineq or None) of every sign pattern, in order, or of the given ones: the base system with its branch rows appended."""
    picks = [{"+g": g, "-g": -g, "+d": d, "-d": -d} for g, d in theta_rows]
    if patterns is None:
        patterns = itertools.product(*[stn._BRANCHES[kind, qualification]] * len(theta_rows))
    for pattern in patterns:
        eq = [rows[r] for rows, (eqs, _) in zip(picks, pattern) for r in eqs]
        ineq = [rows[r] for rows, (_, ineqs) in zip(picks, pattern) for r in ineqs]
        ineq = np.vstack([a_ineq, *ineq]) if ineq else a_ineq
        yield (np.vstack([a_eq, *eq]) if eq else a_eq), (ineq if len(ineq) else None)


def reference_recover(problem, pt, kind, patterns=None):
    """recover_c_multipliers, one least_norm_point per pattern (of every pattern in order, or of the given ones).

    The first multipliers whose check_stationarity rows, graph and
    leader_feas rows aside, are at most kkt.FEAS_TOL_DEFAULT are returned.
    """
    point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
    idx, data = point.idx, point.data
    a_eq, b, a_ineq, theta_rows = _exact_system(data, idx, homogeneous=False)
    d = problem.dims
    for a_pat, ineq in _pattern_systems(kind, False, a_eq, a_ineq, theta_rows, patterns):
        z, status = simplex.least_norm_point(a_pat, np.concatenate([b, np.zeros(len(a_pat) - len(b))]), ineq)
        if z is not None:
            k = len(idx.i_G)
            free = sorted(set(idx.theta) | set(idx.nu))
            alpha = stn._scatter(d.p, idx.i_G, np.maximum(0.0, z[:k]))
            mults = stn.Multipliers(alpha, z[k : k + d.m], stn._scatter(d.q, free, z[k + d.m :]), status)
            rows = stn.check_stationarity(problem, pt, mults, kind=kind, graph_check=False).rows
            if max(v for name, v in rows.items() if name != "leader_feas") <= kkt.FEAS_TOL_DEFAULT:
                return mults
    return None


def reference_qualification(problem, pt, kind):
    """check_qualification_Am one pattern at a time: (a1, a2, certificates, patterns, cones).

    cones[name] is the (a_eq, a_ineq, w) cone the certificate ray was found in.
    """
    point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
    idx, data = point.idx, point.data
    a_eq, _, a_ineq, theta_rows = _exact_system(data, idx, homogeneous=True)
    n, dim = problem.dims.n, a_eq.shape[1]
    leader = [sign * row for row in a_eq[:n] if np.any(row) for sign in (1.0, -1.0)]
    a1 = a2 = True
    certs, cones = {}, {}
    for patterns, (a_pat, ineq) in enumerate(_pattern_systems(kind, True, a_eq, a_ineq, theta_rows), 1):
        if simplex.cone_has_nonzero(a_pat[n:], ineq, dim) is None:
            continue
        if a1:
            ray = simplex.cone_has_nonzero(a_pat, ineq, dim)
            if ray is not None:
                a1, certs["a1"], cones["a1"] = False, ray, (a_pat, ineq, None)
        if a2:
            for w in leader:
                ray = simplex.cone_ray(a_pat[n:], ineq, w)
                if ray is not None:
                    a2, certs["a2"], cones["a2"] = False, ray, (a_pat[n:], ineq, w)
                    break
        if not (a1 or a2):
            break
    return a1, a2, certs, patterns, cones


def _family(k: int, duplicate: bool, scaled: bool, seed: int, c_only: bool = False):
    rng = np.random.default_rng(seed)
    B, c, d, Jgy, Jgx = biactive_family_data(k, rng, duplicate=duplicate, c_only=c_only)
    if scaled:  # the same constraints, each row scaled by 1e-6..1e6
        s = 10.0 ** rng.uniform(-6.0, 6.0, size=(len(Jgy), 1))
        Jgy, Jgx = Jgy * s, Jgx * s
    problem = make_linear_follower(B, c, d, Jgy, Jgx, name=f"biactive{k}")
    return problem, TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))


# Edits of the five-singleton family (constraint i is -y_i <= 0) whose follower blocks the
# qualification screen meets in three ways:
#   late:   constraint 1 repeats constraint 0, so indices 0 and 1 are one block of 9 tuples, and the
#           walk screens after 9 patterns (more than SPLIT_AFTER); the block's cone is first nontrivial
#           at pattern 54 of 243, so the walk skips ahead to it, and a1 fails there while a2 holds;
#   leader: constraint 2 repeats constraint 0 with a leader term, so the rays of the block {0, 2}
#           (axes apart) move the leader row: a2 fails at pattern 18, and a1 holds (unscaled), so the
#           walk goes on;
#   flat:   y_4 has no curvature, so beta_4 and gamma_4 meet only through index 4's branch rows,
#           which join them into one block; its cone is nontrivial for two branches of three, so a2
#           fails at pattern 0 and the walk decides 162 of 243 patterns for a1, which holds;
#   free:   a sixth follower coordinate with no curvature is in no constraint, so its beta column
#           meets no follower row, and the walk does not screen.
# edit -> (the first pattern the screen leaves open, the blocks' biactive counts), None: no blocks
SPLITS = {"late": (54, [0, 1, 1, 1, 2]), "leader": (18, [0, 1, 1, 1, 2]), "flat": (0, [1] * 5), "free": None}


def _split_family(edit: str, scaled: bool, seed: int):
    rng = np.random.default_rng(seed)
    B, c, d, Jgy, Jgx = biactive_family_data(5, rng)
    H = None
    if edit == "late":
        Jgy[1] = Jgy[0]
    elif edit == "leader":
        Jgy[2], Jgx[2] = Jgy[0], rng.normal(size=1)
    elif edit == "flat":
        H = np.diag([1.0] * 4 + [0.0])
    else:
        B, c = np.vstack([B, rng.normal(size=(1, 1))]), np.append(c, -1.0)
        Jgy, H = np.hstack([Jgy, np.zeros((5, 1))]), np.diag([1.0] * 5 + [0.0])
    if scaled:  # the same constraints, each row scaled by 1e-6..1e6
        s = 10.0 ** rng.uniform(-6.0, 6.0, size=(len(Jgy), 1))
        Jgy, Jgx = Jgy * s, Jgx * s
    problem = make_linear_follower(B, c, d, Jgy, Jgx, H, name=f"split_{edit}")
    return problem, TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))


@lru_cache(maxsize=None)
def _corpus() -> dict:
    """label -> (problem, point): the pinned t = 0 points and the generated families."""
    corpus = {label: (problem, pt) for label, (problem, t, pt) in _cases().items() if t == 0.0}
    for k in range(8):
        for duplicate in (False, True) if k else (False,):
            # k = 7 without duplicates walks all 3^7 patterns one at a time in the reference: once is enough
            for scaled in (False, True) if k < 7 or duplicate else (False,):
                label = f"gen{k}{'_dup' if duplicate else ''}{'_scaled' if scaled else ''}"
                corpus[label] = _family(k, duplicate, scaled, seed=100 + 4 * k + 2 * duplicate + scaled)
    # C-only data: S has no multipliers, and C's answer is its last pattern, the only feasible one
    # without duplicated rows
    for k in range(1, 7):
        for duplicate in (False, True):
            for scaled in (False, True):
                label = f"gen{k}_c{'_dup' if duplicate else ''}{'_scaled' if scaled else ''}"
                corpus[label] = _family(k, duplicate, scaled, seed=300 + 4 * k + 2 * duplicate + scaled, c_only=True)
    for j, edit in enumerate(SPLITS):
        for scaled in (False, True):
            corpus[f"split_{edit}{'_scaled' if scaled else ''}"] = _split_family(edit, scaled, seed=200 + 2 * j + scaled)
    return corpus


def filtered_product(shape, blocks, good, need):
    """The open patterns by the dense form the enumerator replaced: the whole product, filtered by its good blocks."""
    return [
        (at, digits)
        for at, digits in enumerate(itertools.product(*map(range, shape)))
        if sum(tuple(digits[j] for j in thetas) in ok for (_, _, thetas), ok in zip(blocks, good)) >= need
    ]


@pytest.mark.parametrize("edit", sorted(SPLITS))
def test_split_families_meet_the_screen_as_described(edit):
    for scaled in (False, True):
        problem, pt = _corpus()[f"split_{edit}{'_scaled' if scaled else ''}"]
        point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
        idx, data = point.idx, point.data
        rows, _, _, options = stn._pattern_pool("M", True, data, idx)
        blocks = stn._blocks(rows, problem.dims.n, len(options))
        if SPLITS[edit] is None:
            assert blocks == []
            continue
        first_open, sizes = SPLITS[edit]
        assert sorted(len(thetas) for _, _, thetas in blocks) == sizes
        # a pattern's follower cone is nontrivial when one block's cone is
        good = stn._block_tuples(rows, blocks, options, lambda sub, cones: simplex.ConeRows(sub).has_nonzero(cones))
        shape = tuple(map(len, options))
        assert next(stn._open_patterns(shape, blocks, good, 0, 1))[0] == first_open
        assert list(stn._open_patterns(shape, blocks, good, 0, 1)) == filtered_product(shape, blocks, good, 1)


@pytest.mark.parametrize("edit", sorted(SPLITS))
def test_the_walk_hands_out_every_pattern_up_to_its_screen_and_then_the_open_ones(edit):
    # each once and in order: a screen that started over would hand out early open patterns twice
    problem, pt = _corpus()[f"split_{edit}"]
    point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
    rows, _, base, options = stn._pattern_pool("M", True, point.data, point.idx)
    decide = lambda sub, cones: simplex.ConeRows(sub).has_nonzero(cones)
    walked = [at for chunk in stn._walk(point, rows, problem.dims.n, base, options, decide, False) for at, _ in chunk]
    shape = tuple(map(len, options))
    if point.blocks:
        opened = [at for at, _ in filtered_product(shape, point.blocks, stn._block_tuples(rows, point.blocks, options, decide), 1)]
    else:
        opened = list(range(int(np.prod(shape))))
    screen = next((p for p, at in enumerate(walked) if p != at), len(walked))
    assert walked == list(range(screen)) + [at for at in opened if at >= screen]


# Points whose rows are scaled from 1.8e-5 to 4.5e5 and from 2.4e-5 to 4.7e3, where the M walk's
# block screen rules out the pattern at which the reference answers (multipliers of norm 2.7e5 and
# 4.9e6): one block, decided at its own scale, has no solution, while the whole pattern passes to
# ZERO_TOL times that norm (recover_c_multipliers' docstring).  The batched M walk returns None there.
# An open defect (CHANGES.md FOUND on rows scaled far apart, ROADMAP item 16).
M_PASSES_OVER = {"gen5_c_dup_scaled", "gen6_c_dup_scaled"}


def _corpus_params():
    reason = "the M walk's block screen rules out the reference's large-norm M answer on rows scaled far apart"
    xfail = pytest.mark.xfail(strict=True, reason=reason)
    return [pytest.param(label, marks=xfail) if label in M_PASSES_OVER else label for label in sorted(_corpus())]


@pytest.mark.parametrize("label", _corpus_params())
def test_batched_enumeration_matches_the_sequential_loops(label):
    problem, pt = _corpus()[label]
    for kind in KINDS:
        want, got = reference_recover(problem, pt, kind), stn.recover_c_multipliers(problem, pt, kind=kind)
        assert (got is None) == (want is None), kind
        if want is not None:
            assert got.status == want.status
            for name in ("alpha", "beta", "gamma"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=f"{kind}.{name}")
        a1, a2, certs, patterns, cones = reference_qualification(problem, pt, kind)
        rep = stn.check_qualification_Am(problem, pt, kind=kind)
        assert (rep.a1, rep.a2, rep.patterns_checked) == (a1, a2, patterns), kind
        assert sorted(rep.certificates) == sorted(certs)
        for name, ray in rep.certificates.items():
            np.testing.assert_array_equal(ray, certs[name], err_msg=f"{kind}.{name}")
            a_eq, a_ineq, w = cones[name]
            assert_ray(ray, a_eq, a_ineq, a_eq.shape[1], w)


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts the SVDs and NNLS solves made while the fixture is active."""
    calls = {"svd": 0, "nnls": 0}
    svd, solve = np.linalg.svd, simplex.nnls

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counted_nnls(*args, **kwargs):
        calls["nnls"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(simplex, "nnls", counted_nnls)
    return calls


@pytest.mark.parametrize("duplicate", [False, True])
def test_qualification_stacks_its_rank_tests_and_least_distance_set_ups(solver_calls, duplicate):
    problem = make_linear_follower(*biactive_family_data(5, np.random.default_rng(3), duplicate=duplicate))
    pt = TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))
    a1, a2, _, patterns, _ = reference_qualification(problem, pt, "M")
    sequential = dict(solver_calls)
    solver_calls.update(svd=0, nnls=0)
    rep = stn.check_qualification_Am(problem, pt, kind="M")
    assert (rep.a1, rep.a2, rep.patterns_checked) == (a1, a2, patterns)
    # the same NNLS solves, so never more than one per pattern the rank test leaves open
    assert solver_calls["nnls"] == sequential["nnls"]
    if not duplicate:  # all 243 patterns: one rank test each when one pattern goes at a time
        assert a1 and a2 and patterns == 243 and sequential["svd"] >= patterns
        point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
        idx, data = point.idx, point.data
        _, _, base, options = stn._pattern_pool("M", True, data, idx)
        systems = (stn._system(base, pattern) for pattern in itertools.product(*options))
        stacks = sum(len({(len(eq), len(ineq)) for eq, ineq in chunk}) for chunk in stn._chunks(systems))
        # per chunk and shape of system: one stacked rank test and at most one stacked least-distance SVD
        assert solver_calls["svd"] <= 2 * stacks < patterns / 4


@pytest.mark.parametrize("k", [10, 12])
def test_a_split_biactive_set_costs_its_blocks_not_its_patterns(solver_calls, k):
    problem = make_linear_follower(*biactive_family_data(k, np.random.default_rng(k)))
    pt = TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))
    rep = stn.check_qualification_Am(problem, pt, kind="M")
    assert (rep.a1, rep.a2, rep.patterns_checked) == (True, True, 3**k)
    # k singleton blocks: the walk decides its first SPLIT_AFTER patterns one by one, then the screen
    # decides the 3k tuples; each decided cone costs at most two SVDs and one NNLS
    decided = stn.SPLIT_AFTER + 3 * k
    assert solver_calls["svd"] <= 2 * decided and solver_calls["nnls"] <= decided


@pytest.mark.parametrize("k", [13, 40])
def test_a_qualification_over_many_biactive_indices_holds_no_pattern_array(solver_calls, k):
    # k singleton blocks whose cones are all trivial: the screen leaves no pattern open, so the answer
    # costs what the k = 10 and 12 walks cost, and its size is not refused
    problem = make_linear_follower(*biactive_family_data(k, np.random.default_rng(k)))
    tracemalloc.start()
    try:
        rep = stn.check_qualification_Am(problem, _zero(problem), kind="M")  # 3^40 patterns at k = 40
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.a1, rep.a2, rep.patterns_checked) == (True, True, 3**k)
    decided = stn.SPLIT_AFTER + 3 * k
    assert solver_calls["svd"] <= 2 * decided and solver_calls["nnls"] <= decided
    assert peak < 8 * 2**20


def _assert_same_multipliers(got, want, label=""):
    assert (got is None) == (want is None), label
    if want is not None:
        assert got.status == want.status
        for name in ("alpha", "beta", "gamma"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=f"{label}.{name}")


def _zero(problem):
    return TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))


def _last_c_pattern(k: int) -> list:
    """The last of C's 2^k recovery patterns, gamma_i >= 0 and d_i >= 0 on every biactive index, as reference_recover takes it."""
    return [(stn._BRANCHES["C", False][-1],) * k]


@pytest.mark.parametrize("k", [10, 12])
def test_a_split_recovery_costs_its_blocks_not_its_patterns(solver_calls, k):
    problem = make_linear_follower(*biactive_family_data(k, np.random.default_rng(k), c_only=True))
    pt = _zero(problem)
    want = reference_recover(problem, pt, "C", _last_c_pattern(k))
    assert want is not None and stn.recover_c_multipliers(problem, pt, kind="S") is None
    stn._last_point = None  # a fresh record: C solves every system itself
    solver_calls.update(svd=0, nnls=0)
    got = stn.recover_c_multipliers(problem, pt, kind="C")
    _assert_same_multipliers(got, want, "C")
    # 2^k patterns, and k singleton blocks of two branch tuples each; only the last pattern has every
    # block feasible: the walk's first SPLIT_AFTER patterns, the 2k block systems and that pattern,
    # each at most one NNLS
    blocks = stn._last_point.blocks
    assert sorted(len(thetas) for _, _, thetas in blocks) == [1] * k
    assert solver_calls["nnls"] <= stn.SPLIT_AFTER + sum(2 ** len(thetas) for _, _, thetas in blocks) + 3
    # one stacked SVD per batch: three batches of the first patterns, one of blocks, one left open
    assert solver_calls["svd"] <= 5


def test_a_recovery_over_40_biactive_indices_holds_no_pattern_array(solver_calls):
    problem = make_linear_follower(*biactive_family_data(40, np.random.default_rng(40), c_only=True))
    pt = _zero(problem)
    stn._last_point = None
    tracemalloc.start()
    try:
        got = stn.recover_c_multipliers(problem, pt, kind="C")  # 2^40 patterns, the answer at the last
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one byte per pattern would be a terabyte
    assert sorted(len(thetas) for _, _, thetas in stn._last_point.blocks) == [1] * 40
    assert solver_calls["nnls"] <= stn.SPLIT_AFTER + 2 * 40 + 3
    _assert_same_multipliers(got, reference_recover(problem, pt, "C", _last_c_pattern(40)), "C")


# corpus points where C walks far enough to split, and a few where it does not
C_SPLITS = ["gen2_c_dup", "gen3_c_dup", "gen4_c", "gen4_c_dup_scaled", "gen5_c_dup", "gen6_c_dup", "gen6_c_scaled", "split_flat_scaled"]
RECORD_LABELS = C_SPLITS + [
    "gen0", "gen2_c", "gen2_dup", "gen4", "gen5_dup", "gen5_dup_scaled", "gen7_dup", "split_flat", "split_late", "split_leader_scaled",
]


@pytest.mark.parametrize("label", RECORD_LABELS)
def test_each_recovery_is_the_reference_on_a_fresh_record_and_after_the_other_kinds(label):
    problem, pt = _corpus()[label]
    want = {kind: reference_recover(problem, pt, kind) for kind in KINDS}
    for kind in KINDS:
        stn._last_point = None
        _assert_same_multipliers(stn.recover_c_multipliers(problem, pt, kind=kind), want[kind], f"fresh {kind}")
        if kind == "C":
            assert bool(stn._last_point.blocks) == (label in C_SPLITS)
        stn._last_point = None
        for other in KINDS:
            if other != kind:
                stn.recover_c_multipliers(problem, pt, kind=other)
        _assert_same_multipliers(stn.recover_c_multipliers(problem, pt, kind=kind), want[kind], f"after {kind}")


@pytest.mark.parametrize("seed", range(6))
def test_open_patterns_are_the_product_filtered_by_block(seed):
    # blocks of interleaved biactive positions, including one without any, against the filtered product:
    # need = 1 is the qualification's screen, need = every block a recovery's
    rng = np.random.default_rng(seed)
    shape = (3,) * 6 if seed % 2 else (2,) * 7
    owner = rng.integers(0, 3, size=len(shape))
    blocks = [([], [], [j for j in range(len(shape)) if owner[j] == b]) for b in range(3)] + [([], [], [])]
    share = 0.3 if seed < 3 else 0.6
    good = [{t for t in itertools.product(*(range(shape[j]) for j in thetas)) if rng.uniform() < share} for _, _, thetas in blocks]
    starts = (0, 1, int(rng.integers(np.prod(shape))), int(np.prod(shape)) - 1)
    # a block without biactive indices is good for every pattern or for none
    for last in ({()}, set()):
        good[-1] = last
        for need in (1, 2, len(blocks)):
            every = filtered_product(shape, blocks, good, need)
            for start in starts:
                assert list(stn._open_patterns(shape, blocks, good, start, need)) == [p for p in every if p[0] >= start]
    assert list(stn._open_patterns(shape, blocks, good, 0, len(blocks))) == []  # the last block is never good


def test_blocks_are_found_once_per_point(monkeypatch):
    problem, pt = _corpus()["gen4_c"]
    problem = dataclasses.replace(problem)  # an object no earlier call has set up
    found = []
    blocks = stn._blocks
    monkeypatch.setattr(stn, "_blocks", lambda *args: found.append(1) or blocks(*args))
    want = stn.check_qualification_Am(problem, pt, kind="M")
    for kind in ("M", "C", "M"):  # the kinds share the point's blocks
        stn.check_qualification_Am(problem, pt, kind=kind)
    for kind in ("C", "M", "S"):  # and so do the recoveries; C splits its 16 patterns
        stn.recover_c_multipliers(problem, pt, kind=kind)
    assert len(found) == 1
    # at another object, the recovery finds the blocks and the qualification takes them
    fresh = dataclasses.replace(problem)
    stn.recover_c_multipliers(fresh, pt, kind="C")
    assert len(found) == 2 and stn._last_point.blocks
    rep = stn.check_qualification_Am(fresh, pt, kind="M")
    assert len(found) == 2
    # another problem is another point, and its blocks are its own
    other, _ = _corpus()["split_late"]
    stn.check_qualification_Am(other, TriplePoint(pt.x, np.zeros(other.dims.m), np.zeros(other.dims.q)), kind="M")
    assert len(found) == 3
    assert (rep.a1, rep.a2, rep.patterns_checked) == (want.a1, want.a2, want.patterns_checked)


def test_a_walk_beyond_the_pattern_budget_is_refused(monkeypatch, tmp_path, capsys):
    # a dense H couples every follower coordinate: one block, so every pattern needs its own solve;
    # with B = 0 the leader row reads d = 0, so no pattern has multipliers and the recovery walks all 27
    B, c, d, Jgy, Jgx = biactive_family_data(3, np.random.default_rng(5))
    problem = make_linear_follower(np.zeros_like(B), c, d, Jgy, Jgx, np.eye(3) + 0.5, name="dense3")
    pt = TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))
    point = stn._setup(problem, pt, 0.0, kkt.FEAS_TOL_DEFAULT)
    idx, data = point.idx, point.data
    rows, _, _, options = stn._pattern_pool("M", True, data, idx)
    assert len(stn._blocks(rows, problem.dims.n, len(options))) == 1
    monkeypatch.setattr(stn, "PATTERN_BUDGET", 27)
    assert stn.check_qualification_Am(problem, pt, kind="M").patterns_checked == 27
    assert stn.recover_c_multipliers(problem, pt, kind="M") is None
    monkeypatch.setattr(stn, "PATTERN_BUDGET", 26)
    with pytest.raises(stn.PatternCapError, match="more than 26 sign patterns"):
        stn.check_qualification_Am(problem, pt, kind="M")
    with pytest.raises(stn.PatternCapError, match="more than 26 sign patterns"):
        stn.recover_c_multipliers(problem, pt, kind="M")
    monkeypatch.setattr(cli, "get_problem", lambda name: (problem, None))
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.0], "y": [0.0] * 3, "u": [0.0] * 3}))
    assert cli.main(["check", "--problem", problem.name, "--point", str(point), "--kind", "M"]) == 3
    assert "more than 26 sign patterns" in json.loads(capsys.readouterr().out)["error"]


def _nnls_limit_from(monkeypatch, first: int, solve=simplex.nnls):
    """Make simplex.nnls stop at its iteration limit from its first-th call on."""
    calls = []

    def limited(*args, **kwargs):
        calls.append(1)
        if len(calls) >= first:
            raise RuntimeError("Maximum number of iterations reached.")
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "nnls", limited)
    return calls


def _solves(monkeypatch, run) -> int:
    """The NNLS solves run makes up to its stop point."""
    calls = _nnls_limit_from(monkeypatch, np.inf)
    run()
    return len(calls)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_nnls_limits_keep_their_place_in_the_order(monkeypatch, k):
    # C-only data: the C walk goes past its first pattern, and splits
    problem, pt = _family(k, duplicate=True, scaled=False, seed=7, c_only=True)

    def recover():
        stn._last_point = None  # a fresh record, so no answer is taken from an earlier call
        got = stn.recover_c_multipliers(problem, pt, kind="C").gamma.tolist()
        assert stn._last_point.blocks
        return got

    def qualify():
        rep = stn.check_qualification_Am(problem, pt, kind="M")
        return rep.a1, rep.a2, rep.patterns_checked, sorted(rep.certificates)

    def recover_sequentially():
        return reference_recover(problem, pt, "C").gamma.tolist()

    def qualify_sequentially():
        a1, a2, certs, patterns, _ = reference_qualification(problem, pt, "M")
        return a1, a2, patterns, sorted(certs)

    for batched, reference in ((recover, recover_sequentially), (qualify, qualify_sequentially)):
        want = reference()
        solves = _solves(monkeypatch, batched)
        # the qualification settles before it splits, so it solves what the loop solves; the recovery's
        # screen skips the patterns a block rules out, so it solves fewer once it splits
        sequential = _solves(monkeypatch, reference)
        assert 1 < solves <= sequential
        assert solves == sequential or batched is recover
        # a limit only on solves after the walk's stop point: the answer stands
        _nnls_limit_from(monkeypatch, solves + 1)
        assert batched() == want
        # a limit at the walk's last solve before its stop point, or at its first: refused
        for first in (solves, 1):
            _nnls_limit_from(monkeypatch, first)
            with pytest.raises(simplex.NnlsLimitError):
                batched()
        monkeypatch.undo()


def test_check_reports_a_limit_before_the_stop_point_as_exit_3(monkeypatch, tmp_path, capsys):
    problem, _ = _family(3, duplicate=True, scaled=False, seed=7, c_only=True)
    monkeypatch.setattr(cli, "get_problem", lambda name: (problem, None))
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.0], "y": [0.0] * problem.dims.m, "u": [0.0] * problem.dims.q}))
    argv = ["check", "--problem", problem.name, "--point", str(point), "--kind", "C"]
    pt = TriplePoint(np.zeros(problem.dims.n), np.zeros(problem.dims.m), np.zeros(problem.dims.q))

    def check() -> int:
        stn._last_point = None  # a fresh record, so the recovery solves again
        return cli.main(argv)

    stn._last_point = None
    solves = _solves(monkeypatch, lambda: stn.recover_c_multipliers(problem, pt, kind="C"))
    assert check() == 0
    answer = json.loads(capsys.readouterr().out)
    _nnls_limit_from(monkeypatch, solves + 1)
    assert check() == 0 and json.loads(capsys.readouterr().out) == answer
    _nnls_limit_from(monkeypatch, solves)
    assert check() == 3
    assert "iteration limit" in json.loads(capsys.readouterr().out)["error"]
