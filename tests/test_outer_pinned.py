"""Outer-layer outputs pinned at seeded runs.

The JSON fixture holds what ``scholtes_solve`` returned on example1 and
example2 from interior, boundary, plateau and seeded x0, on two-level
synthetic2d runs and on 3-D linear-follower runs whose BFGS level solve
hands over to the pattern search, and what ``minimize_psi_t`` returned at
a few fixed levels.  Every record's x, t and psi, and every result's value
and final mesh, are kept as float hex and must match bit for bit; so must
``outer_evals``, ``terminal``, ``inner_calls``, ``unread_evals`` and a
search's ``evals``, ``unread``, ``calls`` and ``flat``.  A change that only
makes the outer layer faster must pass unregenerated.  Regenerate the
fixture only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_outer_pinned.py --write
"""
from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import pbopt
from pbopt import InnerConfig, OuterConfig, RelaxationParams, minimize_psi_t, scholtes, scholtes_solve

from toys import biactive_family_data, make_linear_follower

FIXTURE = Path(__file__).parent / "data" / "outer_pinned.json"
# the acceptance inner config, and the lighter one of test_batched_search.py
LIGHT = InnerConfig(starts=10, sweeps=3, local_maxiter=80)
CFG = InnerConfig(starts=6, sweeps=2, local_maxiter=60)
FULL = (1.0, 0.5, 1e-4)  # t0, rho, t_min
TWO_LEVELS = (0.5, 0.5, 0.25)
SEEDED_DRAWS = 2  # seeded x0 per 1-D problem

# label -> (problem name, x0, schedule, inner config, mesh_tol)
RUNS = {
    "example1_interior": ("example1", [0.5], FULL, LIGHT, 1e-5),
    "example1_upper_edge": ("example1", [1.0], FULL, LIGHT, 1e-5),
    "example1_plateau": ("example1", [0.1], FULL, LIGHT, 1e-5),
    "example2_interior": ("example2", [0.3], FULL, LIGHT, 1e-5),
    "example2_lower_edge": ("example2", [-1.0], FULL, LIGHT, 1e-5),
    "example2_upper_edge": ("example2", [1.0], (0.5, 0.5, 1e-3), CFG, 1e-4),
    "example2_interior_7": ("example2", [7.0], TWO_LEVELS, LIGHT, 1e-5),
    "synthetic2d_interior": ("synthetic2d", [0.4, -0.2], TWO_LEVELS, LIGHT, 1e-5),
    "synthetic2d_corner": ("synthetic2d", [-0.8, 0.8], TWO_LEVELS, CFG, 1e-4),
    "synthetic2d_edge": ("synthetic2d", [1.0, 0.0], TWO_LEVELS, LIGHT, 1e-5),
    # these two hand a level over to the pattern search (see the test below)
    "linear3d_seed0": ("linear3d", 0, (0.2, 0.5, 1e-2), CFG, 1e-2),
    "linear3d_seed2": ("linear3d", 2, (0.2, 0.5, 1e-2), CFG, 1e-2),
}
RUNS.update(
    (f"{name}_seeded_{i}", (name, [float(x0)], FULL, LIGHT, 1e-5))
    for j, name in enumerate(("example1", "example2"))
    for i, x0 in enumerate(np.random.default_rng(4900 + j).uniform(-1.0, 1.0, SEEDED_DRAWS))
)

# label -> (problem name, x0, t, inner config, mesh_tol)
SEARCHES = {
    "example2_t0.5_upper_edge": ("example2", [1.0], 0.5, LIGHT, 1e-5),
    "example2_t0.5_interior": ("example2", [0.3], 0.5, LIGHT, 1e-5),
    "example1_t1_plateau": ("example1", [0.1], 1.0, LIGHT, 1e-5),
    "synthetic2d_t0.1": ("synthetic2d", [0.4, -0.2], 0.1, CFG, 1e-4),
}


@lru_cache(maxsize=None)
def _problem(name: str):
    if name == "linear3d":  # LEADER_3D of test_batched_search.py
        return make_linear_follower(*biactive_family_data(3, np.random.default_rng(3), n=3), name="linear3d")
    return pbopt.get_problem(name)[0]


def _x0(spec) -> np.ndarray:
    """A list is x0 itself; an integer seeds a uniform draw on [-1, 1]^3."""
    if isinstance(spec, int):
        return np.random.default_rng(spec).uniform(-1.0, 1.0, 3)
    return np.array(spec, dtype=float)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _run(label: str) -> dict:
    name, x0, (t0, rho, t_min), inner, mesh_tol = RUNS[label]
    params = RelaxationParams(t0=t0, rho=rho, t_min=t_min, outer=OuterConfig(inner=inner, mesh_tol=mesh_tol))
    trace = scholtes_solve(_problem(name), params, _x0(x0))
    return {
        "records": [
            {
                "x": _hex(rec.x),
                "t": float(rec.t).hex(),
                "psi": float(rec.psi).hex(),
                "outer_evals": rec.outer_evals,
                "final_mesh": float(rec.final_mesh).hex(),
            }
            for rec in trace.records
        ],
        "terminal": trace.terminal,
        "inner_calls": trace.inner_calls,
        "unread_evals": trace.unread_evals,
    }


def _search(label: str) -> dict:
    name, x0, t, inner, mesh_tol = SEARCHES[label]
    res = minimize_psi_t(_problem(name), t, _x0(x0), OuterConfig(inner=inner, mesh_tol=mesh_tol))
    return {
        "x": _hex(res.x),
        "value": float(res.value).hex(),
        "evals": res.evals,
        "final_mesh": float(res.final_mesh).hex(),
        "unread": res.unread,
        "calls": res.calls,
        "flat": res.flat,
    }


def _observe(label: str) -> dict:
    return _run(label) if label in RUNS else _search(label)


@lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_pinned()) == sorted([*RUNS, *SEARCHES])


@pytest.mark.parametrize("label", sorted([*RUNS, *SEARCHES]))
def test_pinned(label):
    assert _observe(label) == _pinned()[label]


@pytest.mark.parametrize("label", ["linear3d_seed0", "linear3d_seed2"])
def test_the_3d_runs_hand_a_level_to_the_pattern_search(monkeypatch, label):
    searches = []
    pattern_search = scholtes._pattern_search

    def spy(problem, x, cfg, level):
        searches.append(x.copy())
        return pattern_search(problem, x, cfg, level)

    monkeypatch.setattr(scholtes, "_pattern_search", spy)
    _run(label)
    assert searches


def test_the_fixture_holds_flat_moving_and_edge_results():
    """The fixture is not all one kind of answer: a flat search, one that moved, and runs that read and left rows unread."""
    pinned = _pinned()
    assert pinned["example1_t1_plateau"]["flat"]
    assert not pinned["example2_t0.5_interior"]["flat"]
    assert all(len(pinned[label]["records"]) >= 2 for label in RUNS)
    assert any(pinned[label]["unread_evals"] > 0 for label in RUNS)
    assert {pinned[label]["terminal"] for label in RUNS} >= {"x_converged", "t_min_reached"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {label: _observe(label) for label in sorted([*RUNS, *SEARCHES])}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE} with {pbopt.__file__}")
