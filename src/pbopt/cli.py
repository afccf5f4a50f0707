"""Command-line front end: solve, eval, check, diagnose, gradcheck.

Traces are CSV (one row per homotopy level), reports and summaries are JSON;
every output file carries a schema string.  Exit codes: 0 success, 1 usage
error, 2 infeasibility, 3 checker refusal.  The certifier, which imports
scipy, is loaded only by ``check`` and ``solve --check``.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .benchlib import get_problem, problem_names
from .maxmin import (
    InnerConfig,
    InnerInfeasibleError,
    approximate_argmax_set,
    evaluate_psi_t,
    follower_box,
    polish_onto_relaxed_set,
    psi_t_gradient,
)
from .problem_model import TriplePoint, check_gradients_fd, relaxation_level
from .scholtes import X_MEMBERSHIP_TOL, OuterConfig, RelaxationParams, leader_violation, scholtes_solve
from .setvalued import convergence_diagnostic

TRACE_SCHEMA = "pbopt-trace-1"
SUMMARY_SCHEMA = "pbopt-summary-1"
REPORT_SCHEMA = "pbopt-report-1"
EXCESS_SCHEMA = "pbopt-excess-1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_REFUSED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as err:
        raise UsageError(f"cannot parse vector {text!r}: {err}") from None


@dataclass
class RunConfig:
    """Flat run configuration; file values are overridden by flags."""

    problem: Optional[str] = None
    t0: float = RelaxationParams.t0
    rho: float = RelaxationParams.rho
    tmin: float = RelaxationParams.t_min
    x0: Optional[str] = None
    seed: int = InnerConfig.seed
    max_outer: int = RelaxationParams.max_outer_iters
    x_tol: float = RelaxationParams.x_tol
    starts: int = InnerConfig.starts
    sweeps: int = InnerConfig.sweeps
    u_max: float = InnerConfig.u_max
    trace: Optional[str] = None
    summary: Optional[str] = None
    check: Optional[str] = None


_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg, path = RunConfig(), args.config
    known = {f.name for f in fields(RunConfig)}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config {path}: {err}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for f in fields(RunConfig):  # annotations are strings: "int", "float", "Optional[str]"
            val = data.get(f.name)
            if val is None and (f.name not in data or f.type.startswith("Optional")):
                continue
            base = f.type.removeprefix("Optional[").removesuffix("]")
            if isinstance(val, bool) or not isinstance(val, _CONFIG_TYPES[base]):
                raise UsageError(f"config key {f.name!r} must be of type {base}, got {val!r}")
        cfg = replace(cfg, **data)
    for name in known:
        val = getattr(args, name, None)
        if val is not None:
            cfg = replace(cfg, **{name: val})
    return cfg


def _inner_config(cfg: RunConfig) -> InnerConfig:
    return InnerConfig(starts=cfg.starts, sweeps=cfg.sweeps, u_max=cfg.u_max, seed=cfg.seed)


def _require_problem(cfg_problem: Optional[str]):
    if not cfg_problem:
        raise UsageError(f"--problem is required (one of: {', '.join(problem_names())})")
    try:
        return get_problem(cfg_problem)[0]
    except KeyError as err:
        raise UsageError(err.args[0]) from None  # str(KeyError) would quote the message


def cmd_solve(args: argparse.Namespace, cfg: RunConfig, problem) -> int:
    if cfg.check not in (None, "C", "M", "S"):
        raise UsageError(f"check must be one of C, M, S, got {cfg.check!r}")
    params = RelaxationParams(
        t0=cfg.t0,
        rho=cfg.rho,
        t_min=cfg.tmin,
        max_outer_iters=cfg.max_outer,
        x_tol=cfg.x_tol,
        outer=OuterConfig(inner=_inner_config(cfg)),
    )
    x0 = _parse_vector(cfg.x0) if cfg.x0 else None
    trace = scholtes_solve(problem, params, x0)

    trace_path = cfg.trace or f"{cfg.problem}_trace.csv"
    buf = io.StringIO()
    buf.write(f"# schema={TRACE_SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    n = problem.dims.n
    writer.writerow(["k", "t"] + [f"x{i}" for i in range(n)] + ["psi", "inner_status", "evals"])
    for rec in trace.records:
        writer.writerow(
            [rec.k, _fmt(rec.t)]
            + [_fmt(v) for v in rec.x]
            + [_fmt(rec.psi), rec.inner_status, rec.outer_evals]
        )
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())

    summary = {
        "schema": SUMMARY_SCHEMA,
        "problem": cfg.problem,
        "terminal": trace.terminal,
        "iterations": len(trace.records),
        "seed": cfg.seed,
        # inner solves the level solves made but never read: solved ahead by
        # the pattern search, or trials a line search did not reach
        "unread_evals": trace.unread_evals,
        # batched inner solves the level solves made, over all levels
        "inner_calls": trace.inner_calls,
    }
    if trace.records:
        final = trace.final()
        summary["final_x"] = [float(v) for v in final.x]
        summary["final_psi"] = float(final.psi)
        summary["final_t"] = float(final.t)
        summary["first_order_gap"], summary["gradient_refusal"] = _first_order_gap(problem, final, cfg)
        if cfg.check:
            summary["stationarity"] = _stationarity_summary(problem, final, cfg)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if cfg.summary:
        with open(cfg.summary, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if trace.terminal.startswith("failure"):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _first_order_gap(problem, final, cfg: RunConfig) -> tuple[Optional[float], Optional[str]]:
    """The max-norm of the box-projected grad psi_t at the final x, x - P(x - g), and None;
    or None and the reason ``maxmin.psi_t_gradient`` refused g."""
    res = psi_t_gradient(problem, final.x, final.t, final.argmax, _inner_config(cfg))
    if res.grad is None:
        return None, res.refusal
    step = final.x - res.grad
    if problem.x_box is not None:
        step = np.clip(step, problem.x_box[:, 0], problem.x_box[:, 1])
    return float(np.abs(final.x - step).max()), None


def _stationarity_summary(problem, final, cfg: RunConfig) -> dict:
    """The stationarity check of ``solve --check`` at the first argmax point of the last level.

    That point lies in the last level's set D_t, not in D_0, so it is first
    polished onto D_0 to a violation of EPS_ACT_DEFAULT**2, which puts the
    smaller factor of each product -u*g within the certifier's activity
    tolerance.  A point the polish leaves above that is not checked.
    """
    from .kkt import EPS_ACT_DEFAULT, InfeasiblePointError
    from .simplex import NnlsLimitError
    from .stationarity import PatternCapError, check_stationarity, recover_c_multipliers

    if len(final.argmax) == 0:
        return {"status": "no argmax sample"}
    tol = EPS_ACT_DEFAULT**2
    Z, viol, _ = polish_onto_relaxed_set(
        problem, final.x, final.argmax.points[:1], 0.0, *follower_box(problem, _inner_config(cfg)), tol
    )
    z, viol = Z[0], float(viol[0])
    if not viol <= tol:
        return {"status": f"not checked: the polish onto D_0 stops at a violation of {viol:.3e}", "polished_violation": viol}
    m = problem.dims.m
    pt = TriplePoint(final.x, z[:m], z[m:])
    try:
        mults = recover_c_multipliers(problem, pt, kind=cfg.check)
    except (PatternCapError, InfeasiblePointError, NnlsLimitError) as err:
        return {"status": f"not checked: {err}", "polished_violation": viol}
    if mults is None:
        return {"status": "infeasible", "kind": cfg.check, "polished_violation": viol}
    report = check_stationarity(problem, pt, mults, kind=cfg.check)
    return {
        "status": "checked",
        "kind": cfg.check,
        "verdict": bool(report.verdict),
        "residual_inf": float(report.residual_inf),
        "multipliers": mults.status,
        "polished_violation": viol,
    }


def cmd_eval(args: argparse.Namespace, cfg: RunConfig, problem) -> int:
    if args.x is None:
        raise UsageError("--x is required")
    x = problem.leader_point(_parse_vector(args.x), "--x")
    if args.t is None:
        raise UsageError("--t is required and must be nonnegative")
    res = evaluate_psi_t(problem, x, args.t, _inner_config(cfg))
    out = {
        "schema": REPORT_SCHEMA,
        "problem": cfg.problem,
        "t": float(args.t),
        "x": [float(v) for v in x],
        "leader_infeasible": leader_violation(problem, x) > X_MEMBERSHIP_TOL,
        "status": res.status,
        "value": None if res.status != "solved" else float(res.value),
        "evals": res.evals,
        "rounds": res.rounds,
        "argmax": [[float(v) for v in row] for row in res.argmax.points],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    if res.status == "nonfinite":  # overflow, or a non-finite F on D_t: bad input, not an empty set
        return EXIT_USAGE
    return EXIT_OK if res.status == "solved" else EXIT_INFEASIBLE


def _load_point(problem, path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        pt = TriplePoint(
            np.asarray(data["x"], dtype=float),
            np.asarray(data["y"], dtype=float),
            np.asarray(data["u"], dtype=float),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as err:
        raise UsageError(f"cannot parse point file {path}: {err}") from None
    problem.check_point(pt)
    return data, pt


def cmd_check(args: argparse.Namespace, cfg: RunConfig, problem) -> int:
    from .kkt import InfeasiblePointError
    from .simplex import NnlsLimitError
    from .stationarity import (
        Multipliers,
        PatternCapError,
        RelaxedMultipliers,
        check_relaxed_stationarity,
        check_stationarity,
        recover_c_multipliers,
        recover_relaxed_multipliers,
    )

    if not args.point:
        raise UsageError("--point FILE is required")
    data, pt = _load_point(problem, args.point)
    kind = args.kind
    t = relaxation_level(args.t if args.t is not None else data.get("t", 0.0))
    if kind == "relaxed":
        block = RelaxedMultipliers
        recover = functools.partial(recover_relaxed_multipliers, problem, t, pt)
        check = functools.partial(check_relaxed_stationarity, problem, t, pt)
    else:
        block = Multipliers
        recover = functools.partial(recover_c_multipliers, problem, pt, kind=kind)
        check = functools.partial(check_stationarity, problem, pt, kind=kind)
    try:
        if "multipliers" in data:
            md = data["multipliers"]
            mults = block(*(np.asarray(md[f.name], dtype=float) for f in fields(block) if f.name != "status"))
        else:
            mults = recover()
        if mults is None:
            report_dict = {"verdict": False, "status": "no feasible multipliers"}
        else:
            report_dict = _report_dict(check(mults))
            report_dict["multipliers"] = mults.status
    except (PatternCapError, NnlsLimitError) as err:
        print(json.dumps({"schema": REPORT_SCHEMA, "error": str(err)}, indent=2))
        return EXIT_REFUSED
    except InfeasiblePointError as err:
        print(json.dumps({"schema": REPORT_SCHEMA, "error": str(err)}, indent=2))
        return EXIT_INFEASIBLE
    except KeyError as err:
        raise UsageError(f"multiplier block missing field {err}") from None
    except TypeError as err:
        raise UsageError(f"malformed multiplier block: {err}") from None
    report_dict["schema"] = REPORT_SCHEMA
    report_dict["kind"] = kind
    print(json.dumps(report_dict, indent=2, sort_keys=True))
    return EXIT_OK


def _report_dict(rep) -> dict:
    worst = max(rep.rows, key=rep.rows.get) if rep.rows else None
    return {
        "verdict": bool(rep.verdict),
        "residual_inf": float(rep.residual_inf),
        "rows": {k: float(v) for k, v in rep.rows.items()},
        "worst_row": worst,
        "sign_pattern": list(rep.sign_pattern) if rep.sign_pattern else None,
    }


def _read_trace(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
    except OSError as err:
        raise UsageError(f"cannot read trace {path}: {err}") from None
    if not rows:
        raise UsageError(f"trace {path} is empty")
    return rows


def cmd_diagnose(args: argparse.Namespace, cfg: RunConfig, problem) -> int:
    if not args.trace_file:
        raise UsageError("--trace FILE is required")
    if args.x_bar is None:
        raise UsageError("--x-bar is required")
    x_bar = _parse_vector(args.x_bar)
    rows = _read_trace(args.trace_file)
    n = problem.dims.n
    inner_cfg = _inner_config(cfg)
    records = []
    try:
        for row in rows:
            try:
                k, t, x = int(row["k"]), float(row["t"]), np.array([float(row[f"x{i}"]) for i in range(n)])
            except (KeyError, TypeError, ValueError) as err:
                raise UsageError(f"malformed trace row {row}: {err!r}") from None
            sample = approximate_argmax_set(problem, x, t, inner_cfg)
            records.append(SimpleNamespace(k=k, t=t, x=x, argmax=sample))
        series = convergence_diagnostic(problem, records, x_bar, inner_cfg)
    except InnerInfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    out_path = args.out or "excess_series.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={EXCESS_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "t", "excess", "flagged"])
        for e in series.entries:
            writer.writerow([e.k, _fmt(e.t), _fmt(e.excess), int(e.flagged)])
    print(json.dumps({
        "schema": EXCESS_SCHEMA,
        "entries": len(series.entries),
        "limit_estimate": float(series.limit_estimate),
        "out": out_path,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace, cfg: RunConfig, problem) -> int:
    rng = np.random.default_rng(cfg.seed)
    d = problem.dims
    xb = problem.x_box if problem.x_box is not None else np.tile([-1.0, 1.0], (d.n, 1))
    yb = problem.y_box
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    worst: dict[str, float] = {}
    nonfinite: list[str] = []
    for _ in range(args.points):
        pt = TriplePoint(
            rng.uniform(xb[:, 0], xb[:, 1]),
            rng.uniform(yb[:, 0], yb[:, 1]),
            rng.uniform(0.0, 1.0, size=d.q),
        )
        rep = check_gradients_fd(problem, pt)
        for key, val in rep.errors.items():
            worst[key] = max(worst.get(key, 0.0), val)
        nonfinite.extend(rep.nonfinite)
    out = {
        "schema": REPORT_SCHEMA,
        "problem": cfg.problem,
        "points": args.points,
        "max_rel_errors": {k: float(v) for k, v in sorted(worst.items())},
        "nonfinite": sorted(set(nonfinite)),
        "max_overall": float(max(worst.values())) if worst else 0.0,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pbopt", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    # Each subcommand registers only the flags it reads; config-file keys stay shared.
    def add_common(p):
        p.add_argument("--problem", type=str, default=None)
        p.add_argument("--config", type=str, default=None)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None)

    def add_inner(p):
        add_seed(p)
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--sweeps", type=int, default=None)
        p.add_argument("--u-max", dest="u_max", type=float, default=None)

    p_solve = sub.add_parser("solve", help="run the relaxation homotopy")
    add_common(p_solve)
    add_inner(p_solve)
    p_solve.add_argument("--t0", type=float, default=None)
    p_solve.add_argument("--rho", type=float, default=None)
    p_solve.add_argument("--tmin", type=float, default=None)
    p_solve.add_argument("--x0", type=str, default=None)
    p_solve.add_argument("--max-outer", dest="max_outer", type=int, default=None)
    p_solve.add_argument("--x-tol", dest="x_tol", type=float, default=None)
    p_solve.add_argument("--trace", type=str, default=None)
    p_solve.add_argument("--summary", type=str, default=None)
    p_solve.add_argument("--check", type=str, choices=["C", "M", "S"], default=None)

    p_eval = sub.add_parser("eval", help="evaluate the relaxed value function")
    add_common(p_eval)
    add_inner(p_eval)
    p_eval.add_argument("--x", type=str, default=None)
    p_eval.add_argument("--t", type=float, default=None)

    p_check = sub.add_parser("check", help="stationarity / qualification report")
    add_common(p_check)
    p_check.add_argument("--point", type=str, default=None)
    p_check.add_argument("--kind", type=str, choices=["C", "M", "S", "relaxed"], default="C")
    p_check.add_argument("--t", type=float, default=None)

    p_diag = sub.add_parser("diagnose", help="excess series along a trace")
    add_common(p_diag)
    add_inner(p_diag)
    p_diag.add_argument("--trace", dest="trace_file", type=str, default=None)
    p_diag.add_argument("--x-bar", dest="x_bar", type=str, default=None)
    p_diag.add_argument("--out", type=str, default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference derivative audit")
    add_common(p_grad)
    add_seed(p_grad)
    p_grad.add_argument("--points", type=int, default=50)

    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "eval": cmd_eval,
    "check": cmd_check,
    "diagnose": cmd_diagnose,
    "gradcheck": cmd_gradcheck,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (solve, eval, check, diagnose, gradcheck)")
        cfg = _load_config(args)
        problem = _require_problem(cfg.problem)
        return _COMMANDS[args.command](args, cfg, problem)
    except (UsageError, ValueError, OSError) as err:  # ValueError: inputs refused by the library
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
