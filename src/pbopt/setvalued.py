"""Point-cloud set metrics and set-convergence diagnostics.

The excess of A over B is sup_{a in A} dist(a, B) with the conventions
excess(empty, B) = 0 and excess(A, empty) = +inf for nonempty A; the
Hausdorff distance is the larger of the two excesses.  Two nonempty clouds
whose points have different lengths, and a point with a NaN or infinite
entry, have no distance and are refused with ValueError.  Diagnostics compare
sampled relaxed follower KKT sets and argmax sets along a homotopy run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .maxmin import GridSpec, InnerConfig, SampledSet, approximate_argmax_set, batch_feasibility, dedup_points
from .problem_model import Array, BilevelProblem, relaxation_level

INF = math.inf


def _points(s) -> Array:
    """The cloud s as an (N, k) block; a point with a NaN or infinite entry is refused."""
    a = s.points if isinstance(s, SampledSet) else np.asarray(s, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("set distances take finite points only")
    return a.reshape(0, 0) if a.size == 0 else np.atleast_2d(a)


def excess(a, b) -> float:
    """sup over a in A of the Euclidean distance from a to B.

    An inner-solver argmax cloud on a flat face (part of D_t where F is
    constant) holds wherever each start's ascent stopped on that face, so it
    moves with rounding: with psi bit-identical, points have moved by up to
    9.0e-3 between two versions of the solver.  An excess between the
    clouds of two solver versions can read such a move as a real change.
    Clouds the module docstring gives no distance are refused with
    ValueError.
    """
    A, B = _points(a), _points(b)
    if A.shape[0] == 0:
        return 0.0
    if B.shape[0] == 0:
        return INF
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points of {A.shape[1]} and of {B.shape[1]} entries have no distance")
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.min(axis=1)).max())


def hausdorff(a, b) -> float:
    """max(excess(A, B), excess(B, A))."""
    return max(excess(a, b), excess(b, a))


def sample_relaxed_set(problem: BilevelProblem, x: Array, t: float, grid: GridSpec) -> SampledSet:
    """Finite sample of the level-t follower KKT set at x on a grid.

    Keeps every grid point feasible within :meth:`GridSpec.tolerance`, the
    tolerance of the brute-force oracle; comparisons between levels must
    share one grid so inclusion relations are exact.  A grid that does not
    cover the m + q follower coordinates is refused with ValueError.  The
    grid is tested in the blocks of :meth:`GridSpec.chunks`, as the
    brute-force oracle tests it.
    """
    x, t = problem.leader_point(x), relaxation_level(t)
    grid.check_width(problem.dims.m + problem.dims.q)
    tau = grid.tolerance()
    return SampledSet(
        dedup_points(np.concatenate([Z[batch_feasibility(problem, x, Z, t, tau)] for Z in grid.chunks()])),
        meta={"kind": "grid", "t": float(t), "tau": tau, "axes": grid.axes},
    )


@dataclass
class ExcessEntry:
    k: int
    t: float
    x: Array
    excess: float
    flagged: bool = False


@dataclass
class ExcessSeries:
    """Per-iteration excess of argmax samples over the sampled limit argmax set."""

    entries: list[ExcessEntry] = field(default_factory=list)
    limit_estimate: float = float("nan")


def convergence_diagnostic(
    problem: BilevelProblem,
    trace,
    x_bar: Array,
    cfg: Optional[InnerConfig] = None,
) -> ExcessSeries:
    """Excess of each iterate's argmax sample over the sampled argmax set at x_bar.

    Conclusions hold at sampling resolution only: the limit set is itself a
    finite approximation produced by the inner solver at t = 0.
    """
    records = getattr(trace, "records", trace)
    if not records:
        raise ValueError("trace is empty")
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    ref = approximate_argmax_set(problem, x_bar, 0.0, cfg)
    series = ExcessSeries()
    for rec in records:
        sample = rec.argmax
        if sample is None or len(sample) == 0:
            series.entries.append(ExcessEntry(rec.k, rec.t, rec.x, float("nan"), flagged=True))
            continue
        series.entries.append(ExcessEntry(rec.k, rec.t, rec.x, excess(sample, ref)))
    clean = [e.excess for e in series.entries if not e.flagged]
    if clean:
        series.limit_estimate = clean[-1]
    return series
