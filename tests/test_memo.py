"""The inner-solve memo under ``evaluate_psi_t`` and ``evaluate_psi_t_batch``.

A row already solved in the process returns the earlier result, so every
answer must be the one a fresh solve gives, bit for bit; any changed input
must miss; and no caller may write into a kept result.  Each test starts
from an empty memo (conftest installs one for every test); the
``empty_memo`` fixture installs another mid-test and returns it.  That
batch rows equal lone solves made in an empty memo is checked in
test_batched_search.py and test_maxmin.py.
"""
import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pbopt
from pbopt import InnerConfig, evaluate_psi_t, evaluate_psi_t_batch, maxmin

from toys import named_problem

CFG = InnerConfig(starts=6, sweeps=2, local_maxiter=60)
# the three built-ins and a toy without batch hooks
PROBLEMS = {name: named_problem(name) for name in ("example1", "example2", "synthetic2d", "quartic_toy")}


def assert_identical(got, want):
    assert (got.status, got.evals, got.rounds) == (want.status, want.evals, want.rounds)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.argmax.points.shape == want.argmax.points.shape
    assert got.argmax.points.tobytes() == want.argmax.points.tobytes()
    assert got.argmax.meta == want.argmax.meta


def flip(v: float) -> float:
    """v with the last bit of its mantissa flipped."""
    return float((np.array([v], dtype=float).view(np.int64) ^ 1).view(np.float64)[0])


def distinct(X) -> int:
    return len({row.tobytes() for row in np.asarray(X, dtype=float)})


@st.composite
def memo_draws(draw):
    """A problem, a leader block, t, an inner config with warm starts, the rows
    solved first and a row the block repeats."""
    problem = PROBLEMS[draw(st.sampled_from(sorted(PROBLEMS)))]
    n, k = problem.dims.n, problem.dims.m + problem.dims.q
    rows = draw(st.integers(1, 3))
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    lo, hi = problem.x_box[:, 0], problem.x_box[:, 1]
    X = lo + (hi - lo) * np.array(draw(st.lists(unit, min_size=rows, max_size=rows)))
    t = draw(st.sampled_from([0.0]) | st.floats(1e-3, 0.6))
    flo, fhi = maxmin.follower_box(problem, InnerConfig())
    warm = tuple(
        flo + (fhi - flo) * np.array(w)
        for w in draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), max_size=2))
    )
    cfg = InnerConfig(
        starts=draw(st.integers(1, 4)),
        sweeps=draw(st.integers(1, 3)),
        local_maxiter=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 3)),
        warm_starts=warm,
    )
    first = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    return problem, X, t, cfg, first, draw(st.integers(0, rows - 1))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draws=memo_draws())
def test_a_batch_of_hits_and_misses_equals_fresh_lone_solves(empty_memo, draws):
    problem, X, t, cfg, first, repeat = draws
    memo = empty_memo()
    if first.any():
        evaluate_psi_t_batch(problem, X[first], t, cfg)
    block = np.vstack([X, X[repeat : repeat + 1]])
    got = evaluate_psi_t_batch(problem, block, t, cfg)
    assert memo.misses == distinct(block)
    assert memo.hits + memo.misses == first.sum() + len(block)
    for x, res in zip(block, got):
        empty_memo()
        assert_identical(res, evaluate_psi_t(problem, x, t, cfg))


def test_a_repeated_row_is_solved_once_and_no_caller_writes_into_the_memo(empty_memo, monkeypatch, example2):
    memo = empty_memo()
    problem, _ = example2
    solved, solve_batch = [], maxmin._solve_batch

    def spy(problem, X, *rest):
        solved.append(X.copy())
        return solve_batch(problem, X, *rest)

    monkeypatch.setattr(maxmin, "_solve_batch", spy)
    a, b, c = evaluate_psi_t_batch(problem, [[-0.5], [0.5], [-0.5]], 0.1, CFG)
    assert len(solved) == 1
    np.testing.assert_array_equal(solved[0], [[-0.5], [0.5]])
    assert (memo.hits, memo.misses) == (1, 2)
    assert_identical(a, c)
    assert a.argmax.points is not c.argmax.points and a.argmax.meta is not c.argmax.meta
    assert len(a.argmax) > 0
    a.argmax.points[:] = 7.0
    a.argmax.meta["t"] = -1.0
    hit = evaluate_psi_t(problem, [-0.5], 0.1, CFG)
    assert len(solved) == 1 and memo.hits == 2
    assert_identical(hit, c)
    hit.argmax.points[:] = 7.0
    assert_identical(evaluate_psi_t(problem, [-0.5], 0.1, CFG), c)


def _changed(name: str, problem, x, t, cfg):
    """The inputs of the base solve with one thing changed (``same`` changes nothing)."""
    if name == "x":
        return problem, [flip(x[0])], t, cfg
    if name == "t":
        return problem, x, flip(t), cfg
    if name == "t_zero_sign":
        return problem, x, -t, cfg
    if name == "warm_starts":
        warm = cfg.warm_starts[0].copy()
        warm[1] = flip(warm[1])
        return problem, x, t, dataclasses.replace(cfg, warm_starts=(warm,))
    if name in ("starts", "sweeps", "seed", "local_maxiter"):
        return problem, x, t, dataclasses.replace(cfg, **{name: getattr(cfg, name) ^ 1})
    if name in ("u_max", "feas_tol"):
        return problem, x, t, dataclasses.replace(cfg, **{name: flip(getattr(cfg, name))})
    if name == "reassigned_attribute":
        batch_F = problem.batch_F
        problem.batch_F = lambda X, Y: batch_F(X, Y)
    elif name == "replace_copy":
        problem = dataclasses.replace(problem)
    elif name == "y_box_in_place":
        problem.y_box[0, 1] = flip(problem.y_box[0, 1])
    else:
        assert name == "same"
    return problem, x, t, cfg


CONFIG_FIELDS = [f.name for f in dataclasses.fields(InnerConfig)]


@pytest.mark.parametrize(
    "change", ["same", "x", "t", "t_zero_sign", *CONFIG_FIELDS, "reassigned_attribute", "replace_copy", "y_box_in_place"]
)
def test_one_changed_input_misses(empty_memo, change):
    memo = empty_memo()
    problem = pbopt.get_problem("example2")[0]  # its own instance: the test changes it
    x, t = [-0.5], 0.0 if change == "t_zero_sign" else 0.1
    cfg = dataclasses.replace(CFG, warm_starts=(np.full(problem.dims.m + problem.dims.q, 0.5),))
    base = evaluate_psi_t(problem, x, t, cfg)
    got = evaluate_psi_t(*_changed(change, problem, x, t, cfg))
    if change == "same":
        assert (memo.hits, memo.misses) == (1, 1)
        assert_identical(got, base)
    else:
        assert (memo.hits, memo.misses) == (0, 2)
        assert len(memo.rows) == 2


def test_a_solve_that_raises_keeps_nothing(empty_memo, monkeypatch, example1):
    memo = empty_memo()
    problem, _ = example1

    def boom(*args):
        raise RuntimeError("ascent failed")

    with monkeypatch.context() as patch:
        patch.setattr(maxmin, "_ascend", boom)
        with pytest.raises(RuntimeError, match="ascent failed"):
            evaluate_psi_t_batch(problem, [[0.3], [0.6]], 0.1, CFG)
    assert not memo.rows
    got = evaluate_psi_t(problem, [0.3], 0.1, CFG)
    assert len(memo.rows) == 1 and memo.hits == 0
    empty_memo()
    assert_identical(got, evaluate_psi_t(problem, [0.3], 0.1, CFG))


def test_the_bound_evicts_the_least_recently_used_rows(empty_memo, monkeypatch, example1):
    memo = empty_memo()
    problem, _ = example1
    monkeypatch.setattr(maxmin, "MEMO_ROWS", 3)
    kept = lambda: [np.frombuffer(key[-1])[0] for key in memo.rows]
    evaluate_psi_t_batch(problem, [[0.2], [0.4], [0.6]], 0.1, CFG)
    assert kept() == [0.2, 0.4, 0.6]
    evaluate_psi_t(problem, [0.2], 0.1, CFG)  # a hit makes 0.2 the most recently used
    assert kept() == [0.4, 0.6, 0.2]
    evaluate_psi_t(problem, [0.8], 0.1, CFG)
    assert kept() == [0.6, 0.2, 0.8]
    assert (memo.hits, memo.misses) == (1, 4)
    evaluate_psi_t(problem, [0.4], 0.1, CFG)  # evicted, so solved again
    assert (memo.hits, memo.misses) == (1, 5)
    assert kept() == [0.2, 0.8, 0.4]


def test_concurrent_callers_get_the_answers_of_fresh_solves(empty_memo, example1, example2):
    memo = empty_memo()
    cases = [(example1[0], 0.3), (example2[0], -0.4), (example2[0], 0.6)] * 3
    got = [None] * len(cases)

    def solve(i):
        problem, x = cases[i]
        got[i] = evaluate_psi_t(problem, [x], 0.1, CFG)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the calls interleave
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(memo.rows) == 3 and memo.hits + memo.misses == len(cases)
    for (problem, x), res in zip(cases, got):
        empty_memo()
        assert_identical(res, evaluate_psi_t(problem, [x], 0.1, CFG))
