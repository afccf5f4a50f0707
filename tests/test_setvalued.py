import math
from types import SimpleNamespace

import numpy as np
import pytest

import pbopt
from pbopt import GridSpec, SampledSet, brute_force_psi_t, convergence_diagnostic, excess, hausdorff, sample_relaxed_set


def test_excess_identity_and_singletons():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert excess(a, a) == 0.0
    assert excess(a, b) == pytest.approx(5.0)
    assert hausdorff(a, b) == pytest.approx(5.0)


def test_excess_empty_conventions():
    empty = np.zeros((0, 2))
    b = np.array([[1.0, 2.0]])
    assert excess(empty, b) == 0.0
    assert excess(b, empty) == math.inf
    assert hausdorff(b, empty) == math.inf


@pytest.mark.parametrize("dist", [excess, hausdorff])
def test_set_distances_refuse_clouds_of_different_widths(dist):
    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.5], [1.5]])
    for x, y in ((a, b), (b, a), (SampledSet(a), SampledSet(b))):
        with pytest.raises(ValueError, match="no distance"):
            dist(x, y)
    # an empty cloud keeps its conventions, whatever its width
    assert excess(np.zeros((0, 1)), a) == 0.0
    assert excess(a, np.zeros((0, 1))) == math.inf
    assert dist(np.zeros((0, 1)), np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("dist", [excess, hausdorff])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_set_distances_refuse_a_nonfinite_point(dist, value):
    good = np.array([[0.0, 0.0], [1.0, 1.0]])
    bad = np.array([[0.0, 0.0], [value, 1.0]])
    for x, y in ((bad, good), (good, bad), (np.zeros((0, 2)), bad), (bad, np.zeros((0, 2))), (SampledSet(bad), good)):
        with pytest.raises(ValueError, match="finite points only"):
            dist(x, y)


def test_excess_subset_is_zero():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(12, 3))
    a = b[3:7]
    assert excess(a, b) == 0.0
    assert hausdorff(a, b) == excess(b, a)


def test_hausdorff_metric_properties():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.normal(size=(rng.integers(1, 8), 2))
        b = rng.normal(size=(rng.integers(1, 8), 2))
        c = rng.normal(size=(rng.integers(1, 8), 2))
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        assert dab == dba  # symmetry
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, c) <= dab + hausdorff(b, c) + 1e-12
        # excess triangle-type bound
        assert excess(a, c) <= excess(a, b) + hausdorff(b, c) + 1e-12


def test_sample_example1_point_limit(example1):
    problem, _ = example1
    grid = GridSpec(((0.0, 1.0, 21), (0.0, 1.2, 25), (0.0, 1.2, 25)))
    s = sample_relaxed_set(problem, [0.5], 0.0, grid=grid)
    assert len(s) >= 1
    target = np.array([[0.0, 0.5, 0.0]])
    assert excess(s, target) <= 2.5 * grid.max_step()


def test_sample_monotone_inclusion_exact(example1):
    problem, _ = example1
    grid = GridSpec(((0.0, 1.0, 15), (0.0, 1.6, 19), (0.0, 1.6, 19)))
    small = sample_relaxed_set(problem, [0.4], 0.05, grid=grid)
    big = sample_relaxed_set(problem, [0.4], 0.2, grid=grid)
    assert len(small) <= len(big)
    assert excess(small, big) == 0.0  # exact: same grid candidates


def test_sample_example1_origin_fills_segment(example1):
    problem, _ = example1
    grid = GridSpec(((0.0, 1.0, 21), (0.0, 0.5, 11), (0.0, 0.5, 11)))
    s = sample_relaxed_set(problem, [0.0], 0.0, grid=grid)
    ys = np.unique(s.points[:, 0])
    assert ys.min() == 0.0
    assert ys.max() == 1.0
    assert len(ys) == 21  # the whole y-axis grid survives at u = 0
    assert np.max(np.abs(s.points[:, 1:])) <= 2 * grid.max_step()


def test_sample_multistart_mode(example1):
    # sampling is grid-only: the multistart mode and its keywords are refused
    problem, _ = example1
    grid = GridSpec(((0.0, 1.0, 3), (0.0, 1.0, 3), (0.0, 1.0, 3)))
    for kw in ({"method": "multistart"}, {"starts": 40}, {"seed": 3}, {"feas_tol": 1e-8}, {"tol_factor": 0.75}):
        with pytest.raises(TypeError):
            sample_relaxed_set(problem, [0.5], 0.1, grid=grid, **kw)


def test_sample_requires_grid_in_grid_mode(example1):
    problem, _ = example1
    with pytest.raises(TypeError):
        sample_relaxed_set(problem, [0.5], 0.1)


def test_sample_tolerance_is_the_brute_force_tolerance(example1):
    # one grid rule: tau = max(0.75 * max_step, 1e-8) for the sampler and the oracle
    problem, _ = example1
    for grid in (
        GridSpec(((0.0, 1.0, 21), (0.0, 1.2, 25), (0.0, 1.2, 25))),
        GridSpec(((0.0, 1.0, 15), (0.0, 0.0, 1), (0.0, 2.0, 9))),
        GridSpec(((0.0, 1e-9, 2), (0.0, 0.0, 1), (0.0, 0.0, 1))),
    ):
        tau = sample_relaxed_set(problem, [0.5], 0.1, grid).meta["tau"]
        assert tau == brute_force_psi_t(problem, [0.5], 0.1, grid).tol == max(0.75 * grid.max_step(), 1e-8)


def test_set_limit_diagnostic_shrinks(example1, example2):
    grid = GridSpec(((0.0, 1.0, 12), (0.0, 1.6, 18), (0.0, 1.6, 18)))
    for (problem, _), x in ((example1, 0.5), (example2, -0.5)):
        base = sample_relaxed_set(problem, [x], 0.0, grid=grid)
        ds = [
            hausdorff(sample_relaxed_set(problem, [x], t, grid=grid), base)
            for t in (0.4, 0.2, 0.1, 0.05)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))
        assert ds[-1] <= 2 * grid.max_step()


def test_convergence_diagnostic_formula(example1, light_cfg):
    problem, _ = example1
    params = pbopt.RelaxationParams(t0=0.5, rho=0.5, t_min=0.02, outer=pbopt.OuterConfig(inner=light_cfg))
    trace = pbopt.scholtes_solve(problem, params, [0.5])
    series = convergence_diagnostic(problem, trace, [1.0], light_cfg)
    assert len(series.entries) == len(trace.records)
    for entry, rec in zip(series.entries, trace.records):
        formula = rec.t / rec.x[0] + abs(rec.x[0] - 1.0)
        assert entry.excess == pytest.approx(formula, abs=1e-3)
    assert series.limit_estimate == series.entries[-1].excess


def test_convergence_diagnostic_flags_empty_argmax(example1, light_cfg):
    problem, _ = example1
    good = SampledSet(np.array([[0.1, 0.5, 0.0]]))
    records = [
        SimpleNamespace(k=0, t=0.2, x=np.array([0.5]), argmax=good),
        SimpleNamespace(k=1, t=0.1, x=np.array([0.5]), argmax=SampledSet(np.zeros((0, 3)))),
    ]
    series = convergence_diagnostic(problem, records, [1.0], light_cfg)
    assert not series.entries[0].flagged
    assert series.entries[1].flagged
    assert math.isnan(series.entries[1].excess)
    assert series.limit_estimate == series.entries[0].excess


def test_convergence_diagnostic_single_record_at_optimum(example2, light_cfg):
    problem, _ = example2
    sample = pbopt.approximate_argmax_set(problem, [-1.0], 1e-6, light_cfg)
    records = [SimpleNamespace(k=0, t=1e-6, x=np.array([-1.0]), argmax=sample)]
    series = convergence_diagnostic(problem, records, [-1.0], light_cfg)
    assert series.entries[0].excess <= 1e-3


def test_convergence_diagnostic_empty_trace(example1, light_cfg):
    problem, _ = example1
    with pytest.raises(ValueError):
        convergence_diagnostic(problem, [], [1.0], light_cfg)


def test_convergence_diagnostic_has_no_reference_keyword(example1, light_cfg):
    # the limit set is always the inner solver's argmax at x_bar, t = 0
    problem, _ = example1
    records = [SimpleNamespace(k=0, t=0.1, x=np.array([0.5]), argmax=SampledSet(np.array([[0.1, 0.5, 0.0]])))]
    with pytest.raises(TypeError, match="reference"):
        convergence_diagnostic(problem, records, [1.0], light_cfg, reference=SampledSet(np.array([[1.0, 0.0, 0.0]])))


@pytest.mark.parametrize("x, t", [([0.5], float("nan")), ([0.5], float("inf")), ([0.5], -0.1), ([0.5, 0.5], 0.1)])
def test_sample_relaxed_set_refuses_bad_input(example1, x, t):
    # a NaN level used to give an empty sample
    grid = GridSpec(((0.0, 1.0, 3), (0.0, 1.0, 3), (0.0, 1.0, 3)))
    with pytest.raises(ValueError):
        sample_relaxed_set(example1[0], x, t, grid=grid)
