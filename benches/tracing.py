"""Span tracing of pbopt from outside the program.

In a traced run, wrappers replace the public names at pbopt's module
boundaries (every module binding of, say, ``evaluate_psi_t``) and the
evaluator fields of each problem instance. Each call records a span: name,
start, end, parent span and operation id. Spans stay in memory in flat
integer arrays and are written out once, at the end of the run. Counters
read from arguments and results are taken at the same boundaries.

A span's self time is its duration minus the durations of its direct
children; one thread runs everything, so children never overlap. Span
times are raw seconds: unlike the end-to-end figures they are not
normalised to the nominal host speed.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Public functions wrapped at every module that binds them, by layer.
FUNCTIONS = {
    "kkt": ("kkt_residual", "classify_indices", "check_upper_regularity"),
    "maxmin": ("evaluate_psi_t",),
    "scholtes": ("scholtes_solve", "minimize_psi_t"),
    "setvalued": ("convergence_diagnostic", "excess"),
    "stationarity": (
        "recover_c_multipliers",
        "check_stationarity",
        "check_qualification_Am",
        "recover_relaxed_multipliers",
        "check_relaxed_stationarity",
        "check_cq1",
    ),
    "simplex": ("least_norm_point", "cone_has_nonzero", "cone_max_linear", "solve_lp"),
}
CALLBACKS = (
    "eval_F", "eval_f", "eval_G", "eval_g", "grad_F", "grad_f", "jac_G", "jac_g",
    "hess_f_yx", "hess_f_yy", "hess_g_yx", "hess_g_yy", "batch_F", "batch_g", "batch_lagrangian",
)
CALLBACK_PREFIX = "problem_model."
FD_PREFIX = "problem_model.fd."
LBFGSB = "maxmin.lbfgsb"
OP_SPAN = "op"


class SpanLog:
    """In-memory span log; one row per call, parents referenced by row index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        cols = {"name_id": self.name_id, "start_ns": self.start, "end_ns": self.end, "parent": self.parent, "op": self.op}
        return {k: np.frombuffer(v, dtype=np.int64) if len(v) else np.zeros(0, np.int64) for k, v in cols.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds)."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.zeros(dur.size)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        busy = np.bincount(a["name_id"], weights=dur, minlength=len(self.names))
        own = np.bincount(a["name_id"], weights=self_ns, minlength=len(self.names))
        return {n: (int(calls[i]), busy[i] / 1e9, own[i] / 1e9) for i, n in enumerate(self.names)}


def _wrap(log: SpanLog, name: str, fn, after=None):
    nid = log.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        sid = log.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            log.finish(sid)
        if after is not None:
            after(log.counts, args, kwargs, out)
        return out

    return traced


def _arg(fn, name: str):
    """Reader of one argument of ``fn`` from a call's (args, kwargs)."""
    sig = inspect.signature(fn)
    pos = list(sig.parameters).index(name)
    default = sig.parameters[name].default

    def read(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return read


def _counters(pb) -> dict:
    """Counters taken from arguments and results at the wrapped boundaries."""
    cfg_of = _arg(pb.maxmin.evaluate_psi_t, "cfg")

    def psi(counts, args, kwargs, res):
        cfg = cfg_of(args, kwargs) or pb.maxmin.InnerConfig()
        counts["maxmin.evaluate_psi_t.starts"] += cfg.starts + len(cfg.warm_starts)
        counts["scholtes.warm_starts"] += len(cfg.warm_starts)
        counts["maxmin.evaluate_psi_t.evals"] += res.evals
        counts["maxmin.evaluate_psi_t.solved"] += res.status == "solved"
        counts["maxmin.argmax_points"] += len(res.argmax)

    def outer(counts, args, kwargs, res):
        counts["scholtes.minimize_psi_t.evals"] += res.evals

    def lbfgsb(counts, args, kwargs, res):
        counts[LBFGSB + ".nfev"] += int(res.nfev)

    def recover(counts, args, kwargs, res):
        counts["stationarity.recover_c_multipliers.recovered"] += res is not None

    def qual(counts, args, kwargs, res):
        counts["stationarity.check_qualification_Am.patterns"] += res.patterns_checked

    def lp(counts, args, kwargs, res):
        counts["simplex.solve_lp.optimal"] += res.status == "optimal"

    return {
        "maxmin.evaluate_psi_t": psi,
        "scholtes.minimize_psi_t": outer,
        LBFGSB: lbfgsb,
        "stationarity.recover_c_multipliers": recover,
        "stationarity.check_qualification_Am": qual,
        "simplex.solve_lp": lp,
    }


def rebind(fn, new) -> None:
    """Point every binding of ``fn`` in pbopt's loaded modules at ``new``."""
    for key, mod in list(sys.modules.items()):
        if key == "pbopt" or key.startswith("pbopt."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, new)


def install(log: SpanLog, pb, problems) -> None:
    """Wrap pbopt's public functions and the problems' evaluator fields.

    Every module of the package that binds a wrapped function gets the same
    wrapper, so calls from inside pbopt are traced as well as the
    benchmark's own. Call once per freshly imported package.
    """
    hooks = _counters(pb)
    for layer, names in FUNCTIONS.items():
        for fname in names:
            fn = getattr(getattr(pb, layer), fname)
            span = f"{layer}.{fname}"
            rebind(fn, _wrap(log, span, fn, hooks.get(span)))
    # scipy's L-BFGS-B entry as bound in maxmin only; kkt's Nelder-Mead use is not on these paths.
    pb.maxmin.minimize = _wrap(log, LBFGSB, pb.maxmin.minimize, hooks[LBFGSB])
    for problem in problems:
        for field in CALLBACKS:
            fn = getattr(problem, field)
            if fn is None:
                continue
            fd = problem.hess_is_fd and field.startswith("hess_")
            setattr(problem, field, _wrap(log, (FD_PREFIX if fd else CALLBACK_PREFIX) + field, fn))


def layer_metrics(log: SpanLog, stats: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit).

    ``stats`` holds figures the output checks took (psi_err_max, x_err_max).
    A ratio whose base is zero is reported as 0; its base is the ``.calls``
    metric next to it.
    """
    tot = log.totals()
    c = log.counts
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, *parts: str) -> None:
        calls, busy, own = tot.get(name, (0, 0.0, 0.0))
        fields = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (own, "s")}
        for p in parts:
            out[f"{name}.{p}"] = fields[p]

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    cb = [(n, v) for n, v in tot.items() if n.startswith(CALLBACK_PREFIX)]
    out["problem_model.callbacks"] = (sum(v[0] for _, v in cb), "count")
    out["problem_model.callback_s"] = (sum(v[1] for _, v in cb), "s")
    out["problem_model.fd_hessian_callbacks"] = (sum(v[0] for n, v in cb if n.startswith(FD_PREFIX)), "count")

    psi = "maxmin.evaluate_psi_t"
    span(psi, "calls", "busy_s", "self_s")
    out[psi + ".starts"] = (c[psi + ".starts"], "count")
    out[psi + ".evals"] = (c[psi + ".evals"], "count")
    out[psi + ".solved_frac"] = (ratio(c[psi + ".solved"], tot.get(psi, (0,))[0]), "fraction")
    out["maxmin.argmax_points"] = (c["maxmin.argmax_points"], "count")
    out["maxmin.psi_err_max"] = (stats.get("psi_err_max", 0.0), "abs")
    span(LBFGSB, "calls")
    out[LBFGSB + ".nfev"] = (c[LBFGSB + ".nfev"], "count")
    span(LBFGSB, "busy_s")

    span("scholtes.scholtes_solve", "calls", "busy_s")
    span("scholtes.minimize_psi_t", "calls", "busy_s", "self_s")
    levels = tot.get("scholtes.minimize_psi_t", (0,))[0]
    out["scholtes.psi_evals_per_level"] = (ratio(c["scholtes.minimize_psi_t.evals"], levels), "evals/level")
    out["scholtes.warm_starts"] = (c["scholtes.warm_starts"], "count")
    out["scholtes.x_err_max"] = (stats.get("x_err_max", 0.0), "abs")

    span("setvalued.convergence_diagnostic", "calls", "busy_s")
    span("setvalued.excess", "calls", "busy_s")

    for name in ("kkt.kkt_residual", "kkt.classify_indices", "kkt.check_upper_regularity"):
        span(name, "calls", "busy_s")

    rec = "stationarity.recover_c_multipliers"
    span(rec, "calls", "busy_s", "self_s")
    out[rec + ".recovered_frac"] = (ratio(c[rec + ".recovered"], tot.get(rec, (0,))[0]), "fraction")
    span("stationarity.check_stationarity", "calls", "busy_s")
    qual = "stationarity.check_qualification_Am"
    span(qual, "calls", "busy_s", "self_s")
    out[qual + ".patterns"] = (c[qual + ".patterns"], "count")
    for name in ("recover_relaxed_multipliers", "check_relaxed_stationarity", "check_cq1"):
        span("stationarity." + name, "calls", "busy_s")

    span("simplex.least_norm_point", "calls", "busy_s", "self_s")
    span("simplex.cone_has_nonzero", "calls", "busy_s")
    span("simplex.cone_max_linear", "calls", "busy_s")
    lp = "simplex.solve_lp"
    span(lp, "calls", "busy_s")
    out[lp + ".optimal_frac"] = (ratio(c[lp + ".optimal"], tot.get(lp, (0,))[0]), "fraction")
    return out

