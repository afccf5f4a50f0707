"""Cross-check of the built-in closed-form oracles against the brute-force grid maximiser.

Only the tests use it: it checks the oracles of :mod:`pbopt.benchlib`, not
the solver.
"""
from dataclasses import dataclass

import numpy as np

from pbopt.benchlib import get_problem, oracle_grid
from pbopt.maxmin import GridSpec, SampledSet, batch_feasibility, brute_force_psi_t
from pbopt.problem_model import Array, BilevelProblem
from pbopt.setvalued import excess


def complementarity_grid(x: float, t: float, res: int, y_res: int) -> GridSpec:
    """Crosscheck grid of the shared example1/example2 follower at (x, t).

    Complementarity guarantees an inner maximum with one of the two follower
    multipliers at zero, so that axis is pinned and the other resolved on a
    window around the stationarity band.
    """
    pad = 0.05
    if x >= 0.0:
        u1 = (max(0.0, x - pad), x + t + pad, res)
        return GridSpec(((0.0, 1.0, y_res), u1, (0.0, 0.0, 1)))
    u2 = (max(0.0, -x - pad), -x + t + pad, res)
    return GridSpec(((0.0, 1.0, y_res), (0.0, 0.0, 1), u2))


# problem name -> grid hint (x, t, res, y_res) -> GridSpec; other problems get the shared oracle grid
GRID_HINTS = {"example1": complementarity_grid, "example2": complementarity_grid}


def crosscheck_grid(problem: BilevelProblem, x: float, t: float, res: int = 400, y_res: int = 1000) -> GridSpec:
    """Value-oracle grid adapted to the follower structure of one benchmark.

    GRID_HINTS supplies the grid of the problem; a problem without a hint
    gets the shared oracle grid.  Window placement uses only the constraint
    structure; the maximised value still comes from the raw grid scan.
    """
    hint = GRID_HINTS.get(problem.name)
    if hint is None:
        return oracle_grid(problem, res=25)
    return hint(float(x), t, res, y_res)


@dataclass
class CrosscheckReport:
    max_value_gap: float
    max_argmax_excess: float
    entries: int


def oracle_crosscheck(
    example_id: str,
    x_values: Array,
    t_values: Array,
    grid_res: int = 400,
) -> CrosscheckReport:
    """Compare the closed-form oracle with the brute-force grid maximiser."""
    problem, oracle = get_problem(example_id)
    max_gap = 0.0
    max_excess = 0.0
    entries = 0
    for xv in np.atleast_1d(x_values):
        x = np.atleast_1d(np.asarray(xv, dtype=float))
        for t in np.atleast_1d(t_values):
            grid = crosscheck_grid(problem, float(x[0]), float(t), res=grid_res)
            bf = brute_force_psi_t(problem, x, float(t), grid)
            if not bf.feasible:
                continue
            entries += 1
            max_gap = max(max_gap, abs(oracle.psi_p_t(x, float(t)) - bf.value))
            sample = oracle.s_p_t(x, float(t))
            if len(sample):
                # Set-level check on a uniform grid: every oracle argmax point
                # must sit near the sampled near-optimal cloud.
                uni = oracle_grid(problem, res=48, u_cap=2.2)
                pts = uni.points()
                tau = uni.tolerance()
                mask = batch_feasibility(problem, x, pts, float(t), tau)
                if mask.any():
                    F = problem.F_rows(x[None], pts[mask][:, : problem.dims.m])
                    cloud = pts[mask][F >= bf.value - (2 * tau + 0.02)]
                    max_excess = max(max_excess, excess(sample, SampledSet(cloud)))
    return CrosscheckReport(max_value_gap=float(max_gap), max_argmax_excess=float(max_excess), entries=entries)
