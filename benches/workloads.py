"""Seeded inputs, operations and output checks of the pbopt benchmark.

A workload is a list of cycles of operations. Every input is drawn from
the workload seed while the workload is set up, so the timed region holds
only calls into pbopt. Each operation has a ``run`` (timed)
and a ``check`` (untimed) that compares the output with an oracle and
returns an :class:`Outcome`; a failed check never raises.

Two known defects of the solver fail their checks on these draws and are
counted as failed operations. They carry a named signature so that the run
can tell them apart from a new, unexplained failure:

* ``corner``: at x -> 0+ the shared follower of example1/example2 makes the
  inner ascent miss the maximiser, so psi_t comes out low (for instance
  0.356 against the closed-form 0.414 at x = 0.0168, t = 0.00697).
* ``plateau``: example1 solves from x0 < 0.5 can stop with ``x_converged``
  at x0 with psi = 1, because psi_t is flat there for the first levels.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

# The acceptance suite's inner config: the one the repo's 1e-3 accuracy claim
# is verified with. workers is left at its default of 1.
SOLVE_CFG = {"starts": 10, "sweeps": 3, "local_maxiter": 80}
PSI_TOL = 1e-3
X_TOL = 1e-3
CERT_TOL = 1e-8
RAY_TOL = 1e-7
T_RANGE = (1e-3, 0.6)
CORNER_X = 0.05

WHY = {
    "psi-scan": "cold evaluate_psi_t on seeded (problem, x, t): inner solver and callbacks only, no outer layer or LPs",
    "homotopy": "full scholtes_solve runs with warm-started inner solves, diagnostic and C-certificate: the only outer-layer load",
    "certify": "stationarity and qualification certifier on oracle points and biactive families: LPs only, no inner solver",
}

WEAKER = {"S": ("S", "M", "C"), "M": ("M", "C"), "C": ("C",)}
HESS_FIELDS = ("hess_f_yx", "hess_f_yy", "hess_g_yx", "hess_g_yy")


@dataclass
class Outcome:
    """Result of one operation's output checks."""

    ok: bool
    defect: Optional[str] = None  # known-defect signature of a failed check
    checks: int = 0
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # per-layer figures taken from the outputs


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


class Workload:
    """One workload built against a freshly imported ``pbopt``."""

    def __init__(self, pb):
        self.pb = pb
        self.cycles: list[list[Op]] = []
        self.problems: list = []  # every problem instance the ops evaluate
        self.warmup_op: Optional[Op] = None

    def ops(self) -> list[Op]:
        return [op for cycle in self.cycles for op in cycle]


def build(name: str, pb, seed: int, cycles: int) -> Workload:
    """The workload with (at least) ``cycles`` cycles of inputs drawn from ``seed``."""
    makers = {"psi-scan": _psi_scan, "homotopy": _homotopy, "certify": _certify}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(makers)}")
    wl = Workload(pb)
    makers[name](wl, np.random.default_rng(seed), cycles)
    return wl


def _inner_cfg(pb):
    return pb.maxmin.InnerConfig(**SOLVE_CFG)


def _fd_copy(pb, problem, name: str):
    """The same problem rebuilt without second derivatives (FD-Hessian path)."""
    kw = {
        f.name: getattr(problem, f.name)
        for f in dataclasses.fields(problem)
        if f.name not in HESS_FIELDS + ("hess_is_fd", "name")
    }
    return pb.problem_model.BilevelProblem(name=name, **kw)


def _jittered_grid(rng, k: int) -> np.ndarray:
    """k*k points on [0, 1)^2, one uniform draw in each cell of a k x k grid, shuffled.

    A short run then covers the (x, t) square, corners included, as evenly
    as a long one, so runs with different seeds cost nearly the same.
    """
    cells = np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), axis=-1).reshape(-1, 2)
    return (cells[rng.permutation(k * k)] + rng.uniform(size=(k * k, 2))) / k


def _t_of(u: float) -> float:
    """Map u in [0, 1) onto T_RANGE so that uniform u gives log-uniform t."""
    return float(T_RANGE[0] * (T_RANGE[1] / T_RANGE[0]) ** u)


# --------------------------------------------------------------- psi-scan


def _psi_scan(wl: Workload, rng, cycles: int) -> None:
    """One cycle is one draw per problem; x and log t come from a jittered grid.

    The cycle count is rounded up to a square so that each problem's draws
    fill one grid. Marginally x is uniform on the leader box and t is
    log-uniform on T_RANGE.
    """
    pb = wl.pb
    p1, o1 = pb.benchlib.get_problem("example1")
    p2, o2 = pb.benchlib.get_problem("example2")
    p2fd = _fd_copy(pb, p2, "example2_fd")
    slots = [(p1, o1), (p2, o2), (p2fd, o2)]
    wl.problems = [p for p, _ in slots]
    cfg = _inner_cfg(pb)
    k = math.ceil(math.sqrt(cycles))
    draws = [_jittered_grid(rng, k) for _ in slots]
    for c in range(k * k):
        ops = []
        for (problem, oracle), uv in zip(slots, draws):
            lo, hi = problem.x_box[0]
            x = float(lo + (hi - lo) * uv[c, 0])
            t = _t_of(uv[c, 1])
            ops.append(_psi_op(pb, problem, oracle, x, t, cfg))
        wl.cycles.append(ops)
    wl.warmup_op = _psi_op(pb, p1, o1, 0.5, 0.1, cfg)


def _psi_op(pb, problem, oracle, x: float, t: float, cfg) -> Op:
    maxmin = pb.maxmin

    def run():
        return maxmin.evaluate_psi_t(problem, [x], t, cfg)

    def check(res) -> Outcome:
        ref = oracle.psi_p_t(x, t)
        err = abs(res.value - ref) if res.status == "solved" else math.inf
        out = Outcome(ok=err <= PSI_TOL, checks=1, stats={"psi_err_max": err} if math.isfinite(err) else {})
        if not out.ok:
            out.notes.append(f"{problem.name} x={x:.6g} t={t:.6g}: psi {res.value:.6g} vs {ref:.6g} ({res.status})")
            if res.status == "solved" and 0.0 < x < CORNER_X and t < x and res.value < ref:
                out.defect = "corner"
        return out

    return Op(f"psi:{problem.name}", run, check)


# --------------------------------------------------------------- homotopy

# One cycle. The median lands on an example2 solve, the cheapest kind and
# five of seven, so it is the middle of five like solves rather than a
# switch between kinds; example1 and synthetic2d carry the outer layer's
# harder cases into the throughput.
HOMOTOPY_CYCLE = ("example2", "example1", "example2", "example2", "synthetic2d", "example2", "example2")
FULL_SCHEDULE = (1.0, 0.5, 1e-4)  # t0, rho, t_min
SHORT_SCHEDULE = (0.5, 0.5, 0.25)  # synthetic2d: two levels


def _homotopy(wl: Workload, rng, cycles: int) -> None:
    pb = wl.pb
    probs = {name: pb.benchlib.get_problem(name) for name in ("example1", "example2", "synthetic2d")}
    wl.problems = [p for p, _ in probs.values()]
    grid = pb.benchlib.oracle_grid(probs["synthetic2d"][0], res=25)
    for _ in range(cycles):
        ops = []
        for name in HOMOTOPY_CYCLE:
            problem, oracle = probs[name]
            box = problem.x_box
            x0 = rng.uniform(box[:, 0], box[:, 1])
            sched = SHORT_SCHEDULE if name == "synthetic2d" else FULL_SCHEDULE
            ops.append(_solve_op(pb, problem, oracle, x0, _params(pb, sched), grid))
        wl.cycles.append(ops)
    # Warm-up: one coarse-mesh level of an example2 solve, with the same
    # diagnostic and certificate, so every code path has run once.
    p2, o2 = probs["example2"]
    coarse = _params(pb, (0.5, 0.5, 0.3), mesh_tol=0.1)
    wl.warmup_op = _solve_op(pb, p2, o2, np.array([0.5]), coarse, grid)


def _params(pb, sched, **outer):
    t0, rho, t_min = sched
    sc = pb.scholtes
    return sc.RelaxationParams(t0=t0, rho=rho, t_min=t_min, outer=sc.OuterConfig(inner=_inner_cfg(pb), **outer))


def _solve_op(pb, problem, oracle, x0, params, grid) -> Op:
    scholtes, setvalued = pb.scholtes, pb.setvalued
    cfg = params.outer.inner

    def run():
        trace = scholtes.scholtes_solve(problem, params, x0)
        if not trace.records:
            return trace, None, None
        final = trace.final()
        series = setvalued.convergence_diagnostic(problem, trace, final.x, cfg)
        return trace, series, _c_certificate(pb, problem, final)

    def check(out) -> Outcome:
        trace, series, cert = out
        res = Outcome(ok=True)
        if series is None or trace.terminal.startswith("failure"):
            res.ok = False
            res.notes.append(f"{problem.name} x0={x0}: {trace.terminal or 'empty trace'}")
            return res
        final = trace.final()
        res.checks += 1
        if len(series.entries) != len(trace.records):
            res.ok = False
            res.notes.append("diagnostic length differs from the trace")
        res.checks += 1
        if cert is not None and not cert:
            res.ok = False
            res.notes.append("recovered C-multipliers fail their own check")
        psi_err = 0.0
        if problem.name == "synthetic2d":
            bf = pb.maxmin.brute_force_psi_t(problem, final.x, final.t, grid)
            res.checks += 1
            psi_err = abs(final.psi - bf.value)
            if not psi_err <= bf.tol:
                res.ok = False
                res.notes.append(f"synthetic2d final psi {final.psi:.6g} vs grid {bf.value:.6g} (tol {bf.tol:.3g})")
            res.stats["psi_err_max"] = psi_err
            return res
        for rec in trace.records:
            res.checks += 1
            psi_err = max(psi_err, abs(rec.psi - oracle.psi_p_t(rec.x, rec.t)))
        res.stats["psi_err_max"] = psi_err
        if not psi_err <= PSI_TOL:
            res.ok = False
            res.notes.append(f"{problem.name} x0={x0}: level psi off the closed form by {psi_err:.3g}")
        x_err = float(np.max(np.abs(final.x - oracle.known_optimum[0])))
        res.stats["x_err_max"] = x_err
        res.checks += 1
        if not x_err <= X_TOL:
            res.notes.append(f"{problem.name} x0={x0}: final x {final.x} ({trace.terminal}), psi {final.psi:.6g}")
            plateau = (
                res.ok
                and problem.name == "example1"
                and trace.terminal == "x_converged"
                and float(x0[0]) < 0.5
                and np.array_equal(final.x, x0)
                and abs(final.psi - 1.0) <= PSI_TOL
            )
            res.ok = False
            if plateau:
                res.defect = "plateau"
        return res

    return Op(f"solve:{problem.name}", run, check)


def _c_certificate(pb, problem, final) -> Optional[bool]:
    """The C-certificate ``pbopt solve --check C`` attaches to a final point.

    Returns the verdict of the recovered multipliers' own check, or None when
    no multipliers were recovered or the point is not in the exact KKT set.
    """
    st = pb.stationarity
    if len(final.argmax) == 0:
        return None
    z = final.argmax.points[0]
    m = problem.dims.m
    pt = pb.problem_model.TriplePoint(final.x, z[:m], z[m:])
    try:
        mults = st.recover_c_multipliers(problem, pt, kind="C")
    except (st.PatternCapError, pb.kkt.InfeasiblePointError):
        return None
    if mults is None:
        return None
    return bool(st.check_stationarity(problem, pt, mults, kind="C").verdict)


# ---------------------------------------------------------------- certify

FAMILY_K = (0, 1, 2, 3, 4, 5)
ORACLE_XS = 5
SMALL_FAMILY_OPS = 7  # k = 0, 1, 2
FAMILY_N = 1


def _biactive_family(pb, k: int, rng, duplicate: bool = False):
    """A problem whose follower has k biactive constraints at x = 0.

    Follower: min 0.5|y|^2 - (B x).y  s.t.  -y_i <= 0 (i < k), y in R^max(k,1).
    At x = 0 the point y = 0, u = 0 is exactly complementary with every
    constraint biactive. Leader: F = c.y + d.x on the box [-1, 1], which is
    inactive at x = 0. c and d are drawn so that S-multipliers exist
    (gamma = beta* + c <= 0 and d_i = -beta*_i <= 0 for a beta* >= 0). The
    homogeneous multiplier systems force beta = 0, so both qualification
    conditions hold and every sign pattern is enumerated.

    With ``duplicate`` two more constraints repeat the last follower-gradient
    row: -y_{k-1} <= 0 exactly and -y_{k-1} + e.x <= 0 with a leader term.
    Each pair gives a nonzero ray with beta = 0; the exact pair breaks the
    first condition and the pair with a leader term the second, so both
    fail within the first few patterns and the LPs stop.
    """
    n = FAMILY_N
    m = max(k, 1)
    q = k + (2 if duplicate else 0)
    B = rng.normal(size=(m, n))
    beta = np.abs(rng.normal(size=m))
    c = -beta - np.abs(rng.normal(size=m))
    d = B.T @ beta
    e = rng.normal(size=n)
    Jgy = np.zeros((q, m))
    Jgx = np.zeros((q, n))
    for i in range(k):
        Jgy[i, i] = -1.0
    if duplicate:
        Jgy[k:, k - 1] = -1.0
        Jgx[k + 1] = e
    box = np.tile([-1.0, 1.0], (n, 1))
    zeros_q = [np.zeros((m, n))] * q
    zeros_qq = [np.zeros((m, m))] * q
    problem = pb.problem_model.BilevelProblem(
        dims=pb.problem_model.ProblemDims(n=n, m=m, p=2 * n, q=q),
        eval_F=lambda x, y: float(c @ y + d @ x),
        eval_f=lambda x, y: float(0.5 * (y @ y) - (B @ x) @ y),
        eval_G=lambda x: np.concatenate([-x - 1.0, x - 1.0]),
        eval_g=lambda x, y: Jgy @ y + Jgx @ x,
        grad_F=lambda x, y: (d.copy(), c.copy()),
        grad_f=lambda x, y: (-B.T @ y, y - B @ x),
        jac_G=lambda x: np.vstack([-np.eye(n), np.eye(n)]),
        jac_g=lambda x, y: (Jgx.copy(), Jgy.copy()),
        hess_f_yx=lambda x, y: -B,
        hess_f_yy=lambda x, y: np.eye(m),
        hess_g_yx=lambda x, y: zeros_q,
        hess_g_yy=lambda x, y: zeros_qq,
        x_box=box,
        y_box=np.tile([-2.0, 2.0], (m, 1)),
        name=f"biactive{k}{'_dup' if duplicate else ''}",
    )
    return problem


def _certify(wl: Workload, rng, cycles: int) -> None:
    pb = wl.pb
    TP = pb.problem_model.TriplePoint
    p1, o1 = pb.benchlib.get_problem("example1")
    p2, o2 = pb.benchlib.get_problem("example2")
    wl.problems = [p1, p2]
    for _ in range(cycles):
        oracle_ops, family_ops = [], []
        # Oracle points: seeded x's and each problem's optimum, at t = 0 and
        # t > 0. They are the cheap majority, so the median lands among them.
        for problem, oracle, lo in ((p1, o1, 0.0), (p2, o2, -1.0)):
            x_opt = float(oracle.known_optimum[0][0])
            for x in [*rng.uniform(lo, 1.0, size=ORACLE_XS), x_opt]:
                for t in (0.0, _t_of(rng.uniform())):
                    z = oracle.s_p_t(float(x), t).points[0]
                    pt = TP([float(x)], z[:1], z[1:])
                    oracle_ops.append(_certify_op(pb, problem.name, problem, pt, t, expect=None))
        for k in FAMILY_K:
            fam = _biactive_family(pb, k, rng)
            wl.problems.append(fam)
            zero = TP(np.zeros(FAMILY_N), np.zeros(fam.dims.m), np.zeros(k))
            family_ops.append(_certify_op(pb, "family", fam, zero, 0.0, expect=True))
            if k:
                t = _t_of(rng.uniform())
                s = np.full(k, math.sqrt(t))
                family_ops.append(_certify_op(pb, "family", fam, TP(np.zeros(FAMILY_N), s, s), t, expect=None))
                dup = _biactive_family(pb, k, rng, duplicate=True)
                wl.problems.append(dup)
                pt = TP(np.zeros(FAMILY_N), np.zeros(k), np.zeros(k + 2))
                family_ops.append(_certify_op(pb, "family_dup", dup, pt, 0.0, expect=False))
        # Small families (k <= 2) first, so a short prefix reaches every kind of check.
        wl.cycles.append(family_ops[:SMALL_FAMILY_OPS] + oracle_ops + family_ops[SMALL_FAMILY_OPS:])
    z = o1.s_p_t(0.5, 0.0).points[0]
    wl.warmup_op = _certify_op(pb, p1.name, p1, TP([0.5], z[:1], z[1:]), 0.0, expect=None)


def _certify_op(pb, label: str, problem, pt, t: float, expect: Optional[bool]) -> Op:
    """Certify one point; ``expect`` is the known qualification verdict, if any."""
    kkt, st = pb.kkt, pb.stationarity

    def run():
        out = {"regular": kkt.check_upper_regularity(problem, pt.x)}
        if t == 0.0:
            mults = {kind: st.recover_c_multipliers(problem, pt, kind=kind) for kind in ("S", "M", "C")}
            out["mults"] = mults
            out["verdicts"] = {
                (kind, w): st.check_stationarity(problem, pt, mm, kind=w, tol=CERT_TOL, graph_check=False).verdict
                for kind, mm in mults.items()
                if mm is not None
                for w in WEAKER[kind]
            }
            out["qual"] = st.check_qualification_Am(problem, pt)
        else:
            rm = st.recover_relaxed_multipliers(problem, t, pt)
            out["relaxed"] = rm
            if rm is not None:
                out["relaxed_ok"] = st.check_relaxed_stationarity(problem, t, pt, rm, tol=CERT_TOL, graph_check=False).verdict
            out["cq1"] = st.check_cq1(problem, t, pt)
        return out

    def check(out) -> Outcome:
        res = Outcome(ok=True)

        def expect_true(cond: bool, note: str) -> None:
            res.checks += 1
            if not cond:
                res.ok = False
                res.notes.append(f"{problem.name} t={t:.3g}: {note}")

        expect_true(out["regular"], "leader constraints not regular")
        if t == 0.0:
            feas = {kind: mm is not None for kind, mm in out["mults"].items()}
            expect_true(not feas["S"] or feas["M"], "S-multipliers found but no M-multipliers")
            expect_true(not feas["M"] or feas["C"], "M-multipliers found but no C-multipliers")
            for (kind, w), ok in out["verdicts"].items():
                expect_true(ok, f"{kind}-multipliers fail the {w} check at {CERT_TOL:g}")
            qual = out["qual"]
            if expect is not None:
                expect_true(qual.a1 == expect and qual.a2 == expect, f"qualification ({qual.a1}, {qual.a2}), expected {expect}")
            for name, ray in qual.certificates.items():
                expect_true(_ray_ok(pb, problem, pt, ray, name == "a2"), f"certificate ray {name} not in its cone")
        elif out["relaxed"] is not None:
            expect_true(out["relaxed_ok"], f"relaxed multipliers fail their own check at {CERT_TOL:g}")
        return res

    return Op(f"certify:{label}", run, check)


def _ray_ok(pb, problem, pt, ray, follower_only: bool) -> bool:
    """A qualification certificate is a nonzero ray of the M-cone of some pattern.

    Columns are [beta, gamma over theta u nu]. The cone asks the follower
    gradient rows (and for a1 the leader rows too) and d_i = (Jgy beta)_i on
    nu to vanish, and per biactive index one of gamma_i >= 0 & d_i >= 0,
    gamma_i = 0, d_i = 0. For a2 the ray must also move a leader row.
    """
    d = problem.dims
    idx = pb.kkt.classify_indices(problem, pt, 0.0)
    free = sorted(set(idx.theta) | set(idx.nu))
    Lx, Ly, _ = pb.problem_model.lagrangian_jacobians(problem, pt)
    Jgx, Jgy = (np.asarray(a, dtype=float).reshape(d.q, -1) for a in problem.jac_g(pt.x, pt.y))
    ray = np.asarray(ray, dtype=float)
    if ray.shape != (d.m + len(free),) or np.max(np.abs(ray)) <= RAY_TOL:
        return False
    beta, gam = ray[: d.m], np.zeros(d.q)
    gam[free] = ray[d.m :]
    dvec = Jgy @ beta
    x_rows = Lx.T @ beta + Jgx.T @ gam
    y_rows = Ly.T @ beta + Jgy.T @ gam
    tol = 1e-6  # on rows of a ray with entries in [-1, 1]
    if np.max(np.abs(y_rows), initial=0.0) > tol:
        return False
    if any(abs(dvec[i]) > tol for i in idx.nu):
        return False
    for i in idx.theta:
        if not ((gam[i] >= -tol and dvec[i] >= -tol) or abs(gam[i]) <= tol or abs(dvec[i]) <= tol):
            return False
    leader = np.max(np.abs(x_rows), initial=0.0)
    return leader > RAY_TOL if follower_only else leader <= tol
