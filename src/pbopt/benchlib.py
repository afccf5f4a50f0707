"""Built-in benchmark problems with closed-form value-function oracles.

``example1`` and ``example2`` are tiny one-dimensional pessimistic programs,
one family F = a*x + y (a = 0 and 1) over the shared follower min x*y on
[0, 1], whose relaxed value functions, argmax sets and follower KKT sets are
known in closed form; ``synthetic2d`` adds a 2-D leader / 2-D follower
instance whose follower separates per coordinate, so its oracle is
closed-form too.  Each problem is ``problem_model.lq_problem`` data, which
brings its evaluators, Hessians and batch hooks; only the oracles are
written out here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .maxmin import GridSpec, SampledSet, dedup_points
from .problem_model import Array, BilevelProblem, lq_problem

_ZERO_X = 1e-12


@dataclass
class AnalyticOracle:
    """Closed-form reference values for one benchmark problem."""

    psi_p: Callable[[float], float]
    psi_p_t: Callable[[float, float], float]
    s_p_t: Callable[..., SampledSet]
    d_set: Callable[..., SampledSet]
    known_optimum: Optional[tuple[Array, float]]


def _scalar(x) -> float:
    return float(np.atleast_1d(np.asarray(x, dtype=float))[0])


def u1_star(x: float, t: float) -> float:
    """Largest follower multiplier on the boundary of the level-t set."""
    return (2.0 * t + x + np.sqrt(4.0 * t * t + x * x)) / 2.0


def _interval(lo: float, hi: float, count: int) -> Array:
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, max(2, count))


def _d_set_nonneg_x(x: float, t: float, count: int) -> list[tuple[float, float]]:
    """(y, u1) samples of the level-t follower KKT set for 0 <= x <= 1."""
    pairs: list[tuple[float, float]] = []
    if t <= 0.0:
        if x <= _ZERO_X:
            for y in _interval(0.0, 1.0, count):
                pairs.append((y, 0.0))
        else:
            pairs.append((0.0, x))
        return pairs
    ustar = u1_star(x, t)
    if x <= _ZERO_X:
        for u1 in _interval(0.0, t, count):
            for y in _interval(0.0, 1.0, count):
                pairs.append((y, u1))
        for u1 in _interval(t, 2.0 * t, count):
            for y in _interval(max(0.0, 1.0 - t / u1), t / u1, count):
                pairs.append((y, u1))
    elif t < x:
        for u1 in _interval(x, t + x, count):
            for y in _interval(0.0, t / u1, count):
                pairs.append((y, u1))
        for u1 in _interval(t + x, ustar, count):
            for y in _interval(max(0.0, 1.0 - t / (u1 - x)), t / u1, count):
                pairs.append((y, u1))
    else:  # 0 < x <= t
        for u1 in _interval(x, t, count):
            for y in _interval(0.0, 1.0, count):
                pairs.append((y, u1))
        for u1 in _interval(t, t + x, count):
            for y in _interval(0.0, t / u1, count):
                pairs.append((y, u1))
        for u1 in _interval(t + x, ustar, count):
            for y in _interval(max(0.0, 1.0 - t / (u1 - x)), t / u1, count):
                pairs.append((y, u1))
    return pairs


def _d_set_negative_x(x: float, t: float, count: int) -> list[tuple[float, float]]:
    """(y, u1) samples of the level-t follower KKT set for -1 <= x < 0."""
    pairs: list[tuple[float, float]] = []
    if t <= 0.0:
        pairs.append((1.0, 0.0))
        return pairs
    ustar = u1_star(x, t)
    if x <= -t:
        for u1 in _interval(0.0, t, count):
            for y in _interval(max(0.0, 1.0 - t / (u1 - x)), 1.0, count):
                pairs.append((y, u1))
        for u1 in _interval(t, ustar, count):
            for y in _interval(max(0.0, 1.0 - t / (u1 - x)), t / u1, count):
                pairs.append((y, u1))
    else:  # -t <= x < 0
        for u1 in _interval(0.0, t + x, count):
            for y in _interval(0.0, 1.0, count):
                pairs.append((y, u1))
        for u1 in _interval(t + x, t, count):
            for y in _interval(max(0.0, 1.0 - t / (u1 - x)), 1.0, count):
                pairs.append((y, u1))
        for u1 in _interval(t, ustar, count):
            for y in _interval(max(0.0, 1.0 - t / (u1 - x)), t / u1, count):
                pairs.append((y, u1))
    return pairs


def _pack(pairs: list[tuple[float, float]], x: float, meta: dict) -> SampledSet:
    pts = np.array([[y, u1, u1 - x] for y, u1 in pairs]) if pairs else np.zeros((0, 3))
    return SampledSet(dedup_points(pts), meta)


def _make_shared_follower(name: str, a: int, lo: float, x_opt: float) -> tuple[BilevelProblem, AnalyticOracle]:
    """F = a*x + y (a = 0 or 1) on the leader box [lo, 1] over the follower min x*y on K = [0, 1].

    psi_t(x) = a*x + phi_t(x), where phi_t(x) = t/x for x >= t > 0 and 1
    otherwise; phi_0 is 1 for x <= _ZERO_X and 0 above.  The argmax and
    D_t sets do not depend on a.
    """
    problem = lq_problem(
        H=[[0.0]], B=[[1.0]], b=[0.0], c=[1.0], d=[float(a)],
        J_gy=[[-1.0], [1.0]], J_gx=[[0.0], [0.0]], h=[0.0, -1.0], A_G=[[-1.0], [1.0]], h_G=[lo, -1.0],
        x_box=[[lo, 1.0]], y_box=[[0.0, 1.0]], name=name,
    )

    def psi_p_t(x, t) -> float:
        xv = _scalar(x)
        if t <= 0.0:
            phi = 1.0 if xv <= _ZERO_X else 0.0
        else:
            phi = t / xv if t <= xv else 1.0
        return phi + xv if a else phi

    def s_p_t(x, t, count: int = 9) -> SampledSet:
        xv = _scalar(x)
        meta = {"kind": "oracle", "x": xv, "t": float(t)}
        if t <= 0.0:
            pairs = [(0.0, xv)] if xv > _ZERO_X else [(1.0, 0.0)]
        elif xv <= _ZERO_X:
            pairs = [(1.0, u1) for u1 in _interval(0.0, t, count)]
        elif t <= xv:
            pairs = [(t / xv, xv)]
        else:
            pairs = [(1.0, u1) for u1 in _interval(xv, t, count)]
        return _pack(pairs, xv if abs(xv) > _ZERO_X else 0.0, meta)

    def d_set(x, t, count: int = 15) -> SampledSet:
        xv = _scalar(x)
        pairs = (_d_set_negative_x if xv < -_ZERO_X else _d_set_nonneg_x)(xv, t, count)
        return _pack(pairs, xv, {"kind": "oracle", "x": xv, "t": float(t)})

    oracle = AnalyticOracle(
        psi_p=lambda x: psi_p_t(x, 0.0),
        psi_p_t=psi_p_t,
        s_p_t=s_p_t,
        d_set=d_set,
        known_optimum=(np.array([float(x_opt)]), 0.0),
    )
    return problem, oracle


def make_example1() -> tuple[BilevelProblem, AnalyticOracle]:
    """Leader minimises the worst follower response of max y with f = x*y on [0, 1]."""
    return _make_shared_follower("example1", 0, 0, 1)


def make_example2() -> tuple[BilevelProblem, AnalyticOracle]:
    """Variant with F = x + y on X = [-1, 1]; global optimum at x = -1."""
    return _make_shared_follower("example2", 1, -1, -1)


def make_synthetic2d() -> tuple[BilevelProblem, AnalyticOracle]:
    """2-D leader / 2-D follower instance with a closed-form oracle.

    Follower: min 0.5*|y|^2 + c(x)@y over y >= 0 with c(x) = (x1, x1 + x2).
    It separates per coordinate, with u = y + c: D_t(x) is the product of
    the segments y_i in [max(0, -c_i), min(y_hi, r_i)], r_i >= 0 the root of
    y_i (y_i + c_i) = t, and psi_t(x) is F at the upper corner.
    """
    lin = np.array([0.3, 0.1])
    problem = lq_problem(
        H=np.eye(2), B=[[1.0, 0.0], [1.0, 1.0]], b=[0.0, 0.0], c=[1.0, 1.0], d=lin,
        J_gy=-np.eye(2), J_gx=np.zeros((2, 2)), h=[0.0, 0.0],
        A_G=[[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], h_G=[-1.0] * 4,
        x_box=[[-1.0, 1.0], [-1.0, 1.0]], y_box=[[0.0, 2.5], [0.0, 2.5]], name="synthetic2d",
    )

    def c_of(x: Array) -> Array:
        return np.array([x[0], x[0] + x[1]])

    def segments(x, t) -> tuple[Array, Array, Array]:
        """c(x) and the per-coordinate ends (lower, upper) of the y-segments of D_t(x)."""
        c = c_of(np.atleast_1d(np.asarray(x, dtype=float)))
        root = (-c + np.sqrt(c * c + 4.0 * max(0.0, float(t)))) / 2.0
        return c, np.maximum(0.0, -c), np.minimum(problem.y_box[:, 1], root)

    def psi_p_t(x, t) -> float:
        return float(segments(x, t)[2].sum() + lin @ np.atleast_1d(np.asarray(x, dtype=float)))

    def psi_p(x) -> float:
        return psi_p_t(x, 0.0)

    def s_p_t(x, t, count: int = 0) -> SampledSet:
        c, _, hi = segments(x, t)
        return SampledSet(np.concatenate([hi, hi + c])[None], {"kind": "oracle", "t": float(t)})

    def d_set(x, t, count: int = 15) -> SampledSet:
        c, lo, hi = segments(x, t)
        Y = np.stack(np.meshgrid(*(_interval(a, b, count) for a, b in zip(lo, hi)), indexing="ij"), axis=-1).reshape(-1, 2)
        return SampledSet(dedup_points(np.hstack([Y, Y + c])), {"kind": "oracle", "t": float(t)})

    oracle = AnalyticOracle(
        psi_p=psi_p,
        psi_p_t=psi_p_t,
        s_p_t=s_p_t,
        d_set=d_set,
        known_optimum=(np.zeros(2), 0.0),
    )
    return problem, oracle


# name -> maker
_REGISTRY = {
    "example1": make_example1,
    "example2": make_example2,
    "synthetic2d": make_synthetic2d,
}


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


def get_problem(name: str) -> tuple[BilevelProblem, AnalyticOracle]:
    try:
        maker = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(problem_names())}") from None
    return maker()


def oracle_grid(problem: BilevelProblem, res: int = 60, u_cap: float = 3.5) -> GridSpec:
    """Shared grid over (y, u) used by grid oracles and set sampling.

    The y axes span the problem's ``y_box``, the multiplier axes [0, u_cap].
    """
    axes = [(float(lo), float(hi), res) for lo, hi in problem.y_box]
    return GridSpec(tuple(axes + [(0.0, u_cap, res)] * problem.dims.q))
