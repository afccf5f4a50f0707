"""pbopt benchmark harness.

    python3 benches/run.py --workload psi-scan|homotopy|certify --seed N \
        --seconds S --trace 0|1 [--max-ops K]

Single process, single thread, closed loop with one caller: each operation
starts when the previous one returns. Workload inputs are drawn from
``--seed`` during set-up (see ``workloads.py``); the program under test is
imported from ``src/`` next to this directory.

``--trace 0`` runs a seed-determined list of whole cycles sized to take
about ``--seconds`` and reports the end-to-end metrics. Times are
normalised to a nominal host speed with a reference kernel timed between
operations (see ``reference.py``); the raw figures are printed in the
report. ``--trace 1`` runs a shorter list twice, untraced and then traced,
and reports the per-layer metrics plus the tracing overhead (normalised
traced minus untraced time); its counts repeat exactly for a given seed
and ``--seconds``. Output checks run after the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
environment record and the human-readable report, which also gives
op_ms_p95 (null unless ten samples lie beyond it) and ops_failed_frac.
Every operation whose output fails a check counts in ``failed``;
``correct`` is false when one fails without the signature of a known
defect (see ``workloads.py``) or when an operation ran no check.
``--max-ops`` caps the number of operations, for quick checks of the
harness itself.
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
# Nominal seconds per cycle (2-core Intel Xeon, normalised time); they size
# the operation lists without making the operation count depend on a
# measurement.
NOMINAL_CYCLE_S = {"psi-scan": 0.2, "homotopy": 40.0, "certify": 6.5}
TRACE_FRACTION = 1 / 3  # a traced run's list, as a share of an untraced one


def import_pbopt():
    """A fresh import of pbopt from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "pbopt" or m.startswith("pbopt.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pb = importlib.import_module("pbopt")
    if SRC.resolve() not in Path(pb.__file__).resolve().parents:
        raise SystemExit(f"pbopt was imported from {pb.__file__}, not from {SRC}")
    return pb


def set_up(workload: str, seed: int, cycles: int):
    """Import, problem construction, input generation and one untimed warm-up op.

    Returns (normalised seconds, raw seconds, workload).
    """
    before = reference.kernel_s()
    t0 = time.perf_counter()
    pb = import_pbopt()
    wl = workloads.build(workload, pb, seed, cycles)
    wl.warmup_op.run()
    raw = time.perf_counter() - t0
    return reference.normalise(raw, before, reference.kernel_s()), raw, wl


def install_probe(pb) -> reference.SpeedProbe:
    """A speed probe hooked into pbopt's innermost public entries."""
    probe = reference.SpeedProbe()
    pb.maxmin.minimize = probe.hook(pb.maxmin.minimize)
    tracing.rebind(pb.simplex.solve_lp, probe.hook(pb.simplex.solve_lp))
    return probe


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cycles_for(workload: str, seconds: float) -> int:
    """Cycles in a list meant to take ``seconds``; at least one."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def timed_ops(ops, probe, log=None):
    """Run ops back to back, timed between samples of the reference kernel.

    With ``log``, every op runs traced under a root span. Returns (outputs,
    raw seconds per op, normalised seconds per op).
    """
    root = log.intern(tracing.OP_SPAN) if log is not None else -1
    outputs, raw, norm = [], [], []
    probe.sample()
    for i, op in enumerate(ops):
        if log is None:
            out, r, n = probe.run(op.run)
        else:
            log.op_id = i
            out, r, n = probe.run(lambda: _traced_call(log, root, op))
        outputs.append(out)
        raw.append(r)
        norm.append(n)
    return outputs, raw, norm


def _traced_call(log, root: int, op):
    log.active = True
    sid = log.begin(root)
    try:
        return op.run()
    finally:
        log.finish(sid)
        log.active = False


def check_all(ops, outputs):
    """Output checks; returns (correct, failed, stats, report lines)."""
    failed, checks, unexplained = 0, 0, 0
    defects: dict[str, int] = {}
    stats: dict[str, float] = {}
    notes = []
    for op, out in zip(ops, outputs):
        res = op.check(out)
        checks += res.checks
        for k, v in res.stats.items():
            stats[k] = max(stats.get(k, 0.0), v)
        if res.checks == 0:
            unexplained += 1
            notes.append(f"{op.kind}: no check ran")
        if not res.ok:
            failed += 1
            if res.defect:
                defects[res.defect] = defects.get(res.defect, 0) + 1
            else:
                unexplained += 1
            notes.extend(f"{op.kind} [{res.defect or 'UNEXPLAINED'}] {n}" for n in res.notes)
    lines = [f"checks executed: {checks} over {len(ops)} ops; failed ops: {failed} "
             f"(known defects: {json.dumps(defects, sort_keys=True)}, unexplained: {unexplained})"]
    lines += [f"  {n}" for n in notes[:20]]
    return unexplained == 0, failed, stats, lines


def untraced(args, wl, setup_times):
    ops = wl.ops()[: args.max_ops]
    start = time.perf_counter()
    outputs, raw, norm = timed_ops(ops, install_probe(wl.pb))
    wall = time.perf_counter() - start
    correct, failed, _, lines = check_all(ops, outputs)
    n = len(ops)
    ms = sorted(x * 1e3 for x in norm)
    beyond = n - int(np.ceil(0.95 * n))
    p95 = float(np.percentile(ms, 95)) if beyond >= 10 else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup_times), "s"),
        "ops_per_s": (n / sum(norm), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}: {n} ops in {wall:.3f} s wall time, closed loop, 1 caller; "
          f"times at nominal host speed (host ran at {sum(norm) / sum(raw):.3f} of it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {unit}")
    print(f"  {'op_ms_p95':<16} {('%14.6g' % p95) if p95 is not None else '%14s' % 'null'} ms "
          f"({n} samples, {beyond} beyond p95; null below 10)")
    print(f"  {'ops_failed_frac':<16} {failed / n:>14.6g} fraction ({failed} of {n})")
    print(f"  raw: ops_per_s {n / sum(raw):.6g} ops/s, op_ms_p50 {statistics.median(raw) * 1e3:.6g} ms, "
          f"setup_s {statistics.median(r for _, r in setup_times):.6g} s")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s, _ in setup_times)}")
    by_kind: dict[str, list[float]] = {}
    for op, x in zip(ops, norm):
        by_kind.setdefault(op.kind, []).append(x * 1e3)
    for kind, xs in by_kind.items():
        print(f"  {kind:<24} {len(xs):>6} ops, median {statistics.median(xs):.4g} ms, max {max(xs):.4g} ms")
    for line in lines:
        print(line)
    return correct, n, failed, metrics


def traced(args, wl):
    ops = wl.ops()[: args.max_ops]
    probe = install_probe(wl.pb)
    probe.interior = False  # no kernel time inside spans, and both passes alike
    _, _, base = timed_ops(ops, probe)
    log = tracing.SpanLog()
    tracing.install(log, wl.pb, wl.problems)
    outputs, _, norm = timed_ops(ops, probe, log)
    correct, failed, stats, lines = check_all(ops, outputs)
    metrics = tracing.layer_metrics(log, stats)
    overhead = sum(norm) - sum(base)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / sum(base), "fraction")
    path = OUT / f"spans-{args.workload}.npz"
    log.write(path)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops traced; {len(log.start)} spans written to {path}")
    print(f"tracing overhead: {overhead:.3f} s at nominal host speed ({sum(norm):.3f} s traced vs {sum(base):.3f} s untraced)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for line in lines:
        print(line)
    return correct, len(ops), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=sys.maxsize)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.max_ops < 1:
        ap.error("--seconds and --max-ops must be positive")

    reps = 1 if args.trace else SETUP_REPS
    cycles = cycles_for(args.workload, args.seconds * (TRACE_FRACTION if args.trace else 1.0))
    setup_times = []
    for _ in range(reps):
        norm, raw, wl = set_up(args.workload, args.seed, cycles)
        setup_times.append((norm, raw))
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        correct, attempted, failed, metrics = traced(args, wl)
    else:
        correct, attempted, failed, metrics = untraced(args, wl, setup_times)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
