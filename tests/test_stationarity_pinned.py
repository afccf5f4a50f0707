"""Certifier outputs pinned at fixed points.

The JSON fixture holds what the stationarity module returned on the S/M/C
implication corpus, the toy problems and a seeded biactive family: the
S/M/C recovery verdicts and least-norm multipliers, the multiplier-set
qualification verdicts with the number of sign patterns checked, and the
relaxed recovery and CQ1 verdicts at t > 0.  Verdicts must match exactly
and multipliers within MULT_TOL.  Regenerate the fixture only for an
intended change of behaviour:

    PYTHONPATH=src python tests/test_stationarity_pinned.py --write
"""
from __future__ import annotations

import json
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import pbopt
from pbopt import TriplePoint
from pbopt.stationarity import (
    check_cq1,
    check_qualification_Am,
    recover_c_multipliers,
    recover_relaxed_multipliers,
)

from toys import (
    make_biactive_family,
    make_biactive_toy,
    make_duplicated_g_toy,
    make_interior_toy,
    make_no_slater_toy,
    make_opposing_leader_toy,
    make_q0_toy,
)

FIXTURE = Path(__file__).parent / "data" / "stationarity_pinned.json"
MULT_TOL = 1e-12
KINDS = ("S", "M", "C")
RELAXED_TS = (0.1, 0.01)
FAMILY_K = (0, 1, 2, 3, 4)


@lru_cache(maxsize=None)
def _cases() -> dict:
    """label -> (problem, t, point); t = 0 points get the exact checks."""
    cases = {}
    p1, o1 = pbopt.get_problem("example1")
    p2, o2 = pbopt.get_problem("example2")
    p3, _ = pbopt.get_problem("synthetic2d")
    # the implication corpus of test_stationarity
    for j, x in enumerate(np.linspace(0.05, 1.0, 15)):
        z = o1.s_p_t(x, 0.0).points[0]
        cases[f"example1_x{j}"] = (p1, 0.0, TriplePoint([x], z[:1], z[1:]))
    cases["example2_opt"] = (p2, 0.0, TriplePoint([-1.0], [1.0], [0.0, 1.0]))
    cases["example1_mid"] = (p1, 0.0, TriplePoint([0.5], [0.0], [0.5, 0.0]))
    cases["biactive_toy"] = (make_biactive_toy(), 0.0, TriplePoint([0.0], [0.0], [0.0]))
    cases["q0_toy"] = (make_q0_toy(), 0.0, TriplePoint([-1.0], [-1.0], []))
    cases["synthetic_origin"] = (p3, 0.0, TriplePoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]))
    cases["synthetic_mid"] = (p3, 0.0, TriplePoint([0.5, 0.5], [0.0, 0.0], [0.5, 1.0]))
    # the remaining toys
    cases["opposing_leader_toy"] = (make_opposing_leader_toy(), 0.0, TriplePoint([1.0], [0.0], [0.0]))
    cases["no_slater_toy"] = (make_no_slater_toy(), 0.0, TriplePoint([0.5], [0.0], [0.0, 0.0]))
    cases["interior_toy"] = (make_interior_toy(), 0.0, TriplePoint([0.0], [0.0], [0.0]))
    cases["interior_toy_t0.2"] = (make_interior_toy(), 0.2, TriplePoint([0.0], [0.0], [0.0]))
    cases["duplicated_g_toy_t0.5"] = (make_duplicated_g_toy(), 0.5, TriplePoint([-1.0], [0.0], [0.5, 0.5]))
    cases["q0_toy_t0.1"] = (make_q0_toy(), 0.1, TriplePoint([-1.0], [-1.0], []))
    cases["example1_relaxed_min"] = (p1, 0.1, TriplePoint([1.0], [0.1], [1.0, 0.0]))
    # relaxed oracle points
    for t in RELAXED_TS:
        for j, x in enumerate(np.linspace(0.05, 1.0, 5)):
            z = o1.s_p_t(x, t).points[0]
            cases[f"example1_x{j}_t{t}"] = (p1, t, TriplePoint([x], z[:1], z[1:]))
        for j, x in enumerate(np.linspace(-1.0, 1.0, 5)):
            z = o2.s_p_t(x, t).points[0]
            cases[f"example2_x{j}_t{t}"] = (p2, t, TriplePoint([x], z[:1], z[1:]))
    # the biactive family, with duplicated-row variants
    rng = np.random.default_rng(20211026)
    for k in FAMILY_K:
        fam = make_biactive_family(k, rng)
        m = fam.dims.m
        cases[f"family{k}"] = (fam, 0.0, TriplePoint([0.0], np.zeros(m), np.zeros(k)))
        if not k:
            continue
        dup = make_biactive_family(k, rng, duplicate=True)
        cases[f"family{k}_dup"] = (dup, 0.0, TriplePoint([0.0], np.zeros(m), np.zeros(k + 2)))
        for t in RELAXED_TS:
            s = np.sqrt(t)
            cases[f"family{k}_t{t}"] = (fam, t, TriplePoint([0.0], np.full(k, s), np.full(k, s)))
            u = np.concatenate([np.full(k - 1, s), np.full(3, s / 3.0)])
            cases[f"family{k}_dup_t{t}"] = (dup, t, TriplePoint([0.0], np.full(k, s), u))
    return cases


def _mults(m) -> dict | None:
    if m is None:
        return None
    return {name: np.asarray(v, dtype=float).tolist() for name, v in vars(m).items() if name != "status"}


def _observe(label: str) -> dict:
    problem, t, pt = _cases()[label]
    if t == 0.0:
        out = {kind: _mults(recover_c_multipliers(problem, pt, kind=kind)) for kind in KINDS}
        for kind in KINDS:
            rep = check_qualification_Am(problem, pt, kind=kind)
            out[f"qual_{kind}"] = {
                "a1": rep.a1,
                "a2": rep.a2,
                "patterns_checked": rep.patterns_checked,
                "certificates": sorted(rep.certificates),
            }
        return out
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cq1 = check_cq1(problem, t, pt)
    return {
        "relaxed": _mults(recover_relaxed_multipliers(problem, t, pt)),
        "cq1": cq1,
        "cq1_warned": bool(caught),
    }


@lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_pinned()) == sorted(_cases())


@pytest.mark.parametrize("label", sorted(_cases()))
def test_pinned(label):
    want = _pinned()[label]
    got = _observe(label)
    assert sorted(got) == sorted(want)
    for key, w in want.items():
        g = got[key]
        if key in ("S", "M", "C", "relaxed"):
            assert (g is None) == (w is None), (key, g, w)
            if w is None:
                continue
            assert sorted(g) == sorted(w)
            for name in w:
                np.testing.assert_allclose(g[name], w[name], rtol=0.0, atol=MULT_TOL, err_msg=f"{key}.{name}")
        else:
            assert g == w, (key, g, w)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {label: _observe(label) for label in sorted(_cases())}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
