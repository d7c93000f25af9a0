"""The three benchmark workloads: inputs, the pipeline they run, and their output checks.

Every workload runs the same pipeline through the public API, one caller and
each call waiting for the previous one (a closed loop):

    sweep -> dataset write/read -> fit_feedback -> validate -> mc_ebvp
          -> one batch Interpolant.eval -> closed-loop MPC trajectories

An untraced run repeats this pass, with the same inputs, for --seconds; a
traced run makes one pass.  The workload seed draws the MPC initial states
and noise, the Monte-Carlo error field, the batch points and the points the
checks re-solve.  The validation sample is drawn from VALIDATE_SEED for every
run, so `mae` and `validate_s` compare across runs instead of following the
sample.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from hjbsparse import characteristics, errors, grid as grid_mod, mpc
from hjbsparse.grid import NodeFamily, grid_size
from hjbsparse.problems import AttitudeProblem, example3_value, make_example1, make_example3

import speed

perf = time.perf_counter

SWEEP_TOL = 1e-8
MPC_HZ = 7.0
MPC_NOISE = 0.01
N_TRAJECTORIES = 3
N_NODE_CHECK = 50           # grid nodes the interp check evaluates
N_BATCH = 1000
N_MC_EVAL = 500
VALIDATE_SEED = 0
SETUPS_PER_PASS = 3         # set-ups timed (at least) before each pass, so they spread over the run
# A run repeats the whole pipeline, identical work each pass, for --seconds,
# and reports each timing as the median of all its samples in the run, at the
# reference speed (speed.py): the machine's speed drifts by up to ~1.7x over
# seconds to minutes (NOTES.md), and one sample per run would carry that
# drift whole.  A stage shorter than
# SHORT_S is timed again within its pass, once after each longer stage that
# follows it and then back to back, until it has SHORT_S of samples or
# REPEAT_MAX of them; only its first call counts towards the pass.
SHORT_S = 0.3
REPEAT_MAX = 30


@dataclass
class SmoothField(AttitudeProblem):
    """Example I's box and dynamics with horizon 0 and a smooth terminal cost.

    With a zero horizon, solve_point returns V = h(x) and lam = h_x(x) without a
    BVP solve, so `sweep` samples the closed-form field through the public API,
    `validate`'s oracle is the closed form itself, and the MPC loop steers
    Example I's rigid body with the interpolated costate of the field.  The
    terms couple each angle with its rate and all six axes through the
    Gaussian, so the sparse-grid interpolant is not exact.
    """

    name: str = "smooth-field"

    def h(self, x):
        v, w = x[:3], x[3:]
        s = w + np.sin(v)
        return float(np.sum(2.0 * (1.0 - np.cos(v)) + 0.5 * s * s) + 0.1 * math.exp(-float(x @ x)))

    def h_x(self, x):
        v, w = x[:3], x[3:]
        s = w + np.sin(v)
        g = 0.2 * math.exp(-float(x @ x))
        return np.concatenate([2.0 * np.sin(v) + s * np.cos(v) - g * v, s - g * w])


def make_smooth_field() -> SmoothField:
    base = make_example1()
    return SmoothField(params=replace(base.params, T=0.0), terminal=True, reachable=False)


@dataclass(frozen=True)
class Workload:
    name: str
    make_problem: Callable
    d: int
    q: int
    paper_q: int            # the paper's depth for this example (projected sweep cost)
    n_validate: int
    tight_tol: float
    mpc_steps: int
    n_resolve: int          # seeded grid points re-solved for the bit-identity check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ex3-q7", make_example3, 4, 7, 12, 40, 1e-7, 36, 2),
        Workload("ex1-q7", make_example1, 6, 7, 13, 6, 1e-8, 36, 2),
        Workload("interp-d6-q10", make_smooth_field, 6, 10, 13, 200, 1e-8, 8, 0),
    )
}

class Clock:
    """Wall time per pipeline stage, and the calibration kernel's time after each stage.

    An untraced clock repeats short stages (see SHORT_S).  A traced clock
    opens a span per stage instead and does not repeat, so the traced pass's
    counts do not depend on the machine's speed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.kernel_times: list[float] = []
        self.pass_s = 0.0           # first calls of the stages, summed
        self._short: dict = {}      # this pass's short stages: name -> [fn, samples, seconds]

    def stage(self, name, fn, repeat=True):
        """Run and time fn(); returns its result.  With repeat, a short stage is timed again later."""
        out = self._timed(name, fn)
        took = self.times[name][-1]
        self.pass_s += took
        if repeat and self.tracer is None and took < SHORT_S:
            self._short[name] = [fn, 1, took]
        elif took >= SHORT_S:
            self._repeat_short()
        self.kernel_times.append(speed.kernel_s())
        return out

    def end_pass(self):
        """Time the pass's short stages until each has its samples; returns the pass's stage time."""
        while self._repeat_short():
            pass
        self._short = {}
        pass_s, self.pass_s = self.pass_s, 0.0
        return pass_s

    def scale(self) -> float:
        """Measured times of this run, multiplied by this, are at the reference speed."""
        return speed.REF_KERNEL_S / float(np.median(self.kernel_times))

    def _repeat_short(self) -> bool:
        """One more sample of each short stage that still wants one; False when none did."""
        more = False
        for name, entry in self._short.items():
            fn, n, spent = entry
            if spent < SHORT_S and n < REPEAT_MAX:
                self._timed(name, fn)
                entry[1:] = [n + 1, spent + self.times[name][-1]]
                more = True
        return more

    def _timed(self, name, fn):
        with self.tracer.span(f"stage.{name}") if self.tracer else nullcontext():
            start = perf()
            out = fn()
            took = perf() - start
        self.times.setdefault(name, []).append(took)
        return out


class QueryLog:
    """Stands in for the feedback law inside mpc.simulate and timestamps each control call."""

    def __init__(self, law, trajectory: int):
        self.law = law
        self.trajectory = trajectory
        self.calls: list[tuple] = []   # (trajectory, step, start, end, x, u)

    def control(self, t, x):
        start = perf()
        u = self.law.control(t, x)
        self.calls.append((self.trajectory, len(self.calls), start, perf(), np.array(x, dtype=float), u))
        return u


@dataclass
class Inputs:
    mc_seed: int
    mpc_seeds: list[int]
    x0s: list[np.ndarray]
    batch_ref: np.ndarray
    check_ids: np.ndarray


def make_inputs(wl: Workload, problem, n_points: int, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    box = problem.state_box
    # MPC starts in the central half of the state box, well inside the domain.
    x0s = [box.center + 0.25 * box.width * rng.uniform(-1.0, 1.0, problem.n)
           for _ in range(N_TRAJECTORIES)]
    n_check = wl.n_resolve or N_NODE_CHECK
    return Inputs(
        mc_seed=int(rng.integers(2**31)),
        mpc_seeds=[int(s) for s in rng.integers(2**31, size=N_TRAJECTORIES)],
        x0s=x0s,
        batch_ref=rng.uniform(0.0, 1.0, size=(N_BATCH, wl.d)),
        check_ids=np.sort(rng.choice(n_points, size=n_check, replace=False)),
    )


def setup(wl: Workload, clock: Clock):
    """Problem construction and grid build, SETUPS_PER_PASS times or more; the last pair is used."""
    def build():
        problem = wl.make_problem()
        return problem, grid_mod.build_grid(NodeFamily.CGL, wl.d, wl.q, problem.domain)

    for _ in range(SETUPS_PER_PASS - 1):
        clock.stage("setup", build, repeat=False)
    out = clock.stage("setup", build)
    clock.end_pass()            # takes the set-up's repeats; set-up is not part of the pass
    return out


@dataclass
class Pass:
    """The outputs of one pass through the pipeline."""

    solution: object = None      # sweep, law and bodies are dropped after the first pass
    law: object = None
    report: object = None
    body: bytes = b""
    reread_body: bytes = b""
    body_sha256: str = ""
    n_points: int = 0
    n_sweep_failed: int = 0
    dataset_bytes: int = 0
    trajectories: list = field(default_factory=list)
    calls: list = field(default_factory=list)      # QueryLog.calls of every trajectory
    pipeline_s: float = 0.0                        # the pass's stages, first calls only


def run_pass(wl: Workload, problem, grid, inputs: Inputs, workers: int, out_dir, clock: Clock) -> Pass:
    run = Pass()
    # Short stages are timed again until the pass ends, so the dataset file stays until then.
    path = out_dir / f"{wl.name}-{os.getpid()}.jsonl"
    try:
        run.solution = clock.stage(
            "sweep", lambda: characteristics.sweep(problem, grid, tol=SWEEP_TOL, workers=workers))
        clock.stage("dataset.write", lambda: run.solution.save_jsonl(path, grid))
        raw = path.read_bytes()
        _, loaded, loaded_grid = clock.stage("dataset.read", lambda: characteristics.load_jsonl(path))
        run.dataset_bytes = len(raw)
        run.body = raw[raw.index(b"\n") + 1:]
        run.reread_body = "".join(line + "\n" for line in loaded.record_lines(loaded_grid)).encode()
        run.body_sha256 = hashlib.sha256(run.body).hexdigest()
        run.n_points, run.n_sweep_failed = len(run.solution.records), len(run.solution.failures)
        run.law = clock.stage("fit", lambda: characteristics.fit_feedback(problem, loaded_grid, loaded))
        run.report = clock.stage("validate", lambda: errors.validate(
            problem, run.law, wl.n_validate, wl.tight_tol, seed=VALIDATE_SEED, workers=workers))
        clock.stage("mc_ebvp", lambda: errors.mc_ebvp(NodeFamily.CGL, wl.d, wl.q, N_MC_EVAL,
                                                      seed=inputs.mc_seed))
        clock.stage("batch_eval", lambda: run.law.costate.eval(inputs.batch_ref))
        for k in range(N_TRAJECTORIES):
            log = QueryLog(run.law, k)
            config = mpc.MpcConfig(dt=1.0 / MPC_HZ, t_max=wl.mpc_steps / MPC_HZ,
                                   noise_fraction=MPC_NOISE, seed=inputs.mpc_seeds[k])
            # Not repeated: a second run would log its queries again.
            run.trajectories.append(clock.stage(
                "mpc", lambda: mpc.simulate(problem, log, inputs.x0s[k], config), repeat=False))
            run.calls.extend(log.calls)
        run.pipeline_s = clock.end_pass()
    finally:
        path.unlink(missing_ok=True)
    return run


def measure(wl: Workload, problem, grid, inputs: Inputs, workers: int, seconds: float,
            out_dir, clock: Clock) -> list[Pass]:
    """Pass after pass with the same inputs while the next pass should end within `seconds`; at least two.

    Later passes keep only what the checks and metrics read, so memory does
    not grow with the number of passes.
    """
    start = perf()
    passes = [run_pass(wl, problem, grid, inputs, workers, out_dir, clock)]
    took = [perf() - start]
    while len(passes) < 2 or perf() - start + float(np.median(took)) < seconds:
        begin = perf()
        problem, grid = setup(wl, clock)
        run = run_pass(wl, problem, grid, inputs, workers, out_dir, clock)
        run.solution = run.law = None
        run.body = run.reread_body = b""
        passes.append(run)
        took.append(perf() - begin)
    return passes


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _same_record(a, b) -> bool:
    return (np.float64(a.V).tobytes() == np.float64(b.V).tobytes()
            and np.asarray(a.lam, dtype=float).tobytes() == np.asarray(b.lam, dtype=float).tobytes()
            and a.status == b.status and a.residual == b.residual and a.mesh == b.mesh)


def check(wl: Workload, problem, grid, passes: list[Pass], inputs: Inputs) -> dict[str, bool]:
    """Named pass/fail results on the first pass, and every later pass against it; any False fails the run."""
    run = passes[0]
    out = {"dataset round trip reproduces the record body byte for byte": run.body == run.reread_body,
           "every MPC trajectory ends with status ok": all(
               t.status == "ok" for p in passes for t in p.trajectories)}
    if len(passes) > 1:
        out["every pass reproduces the first pass's record body and controls bit for bit"] = all(
            p.body_sha256 == run.body_sha256 and len(p.calls) == len(run.calls)
            and all(np.array_equal(a[5], b[5]) for a, b in zip(p.calls, run.calls))
            for p in passes[1:])

    # The single-point queries of the MPC loop against one batch evaluation.
    xs = np.stack([c[4] for c in run.calls])
    us = np.stack([c[5] for c in run.calls])
    ref = grid.domain.to_ref(np.stack([problem.grid_coords(0.0, x) for x in xs]))
    lam = np.asarray(run.law.costate.eval(ref))
    u_batch = np.asarray(problem.u_star(0.0, xs.T, lam.T)).T
    out["batch and single-point evaluation agree to 1e-12"] = bool(np.abs(u_batch - us).max() <= 1e-12)

    records = run.solution.records
    if wl.n_resolve:
        same = True
        for i in inputs.check_ids:
            p = grid.phys[i]
            t0, x0 = (float(p[0]), p[1:]) if problem.time_in_grid else (0.0, p)
            again = characteristics.solve_point(problem, t0, x0, SWEEP_TOL, point_id=int(i))
            same = same and _same_record(records[i], again)
        out[f"{wl.n_resolve} seeded grid points re-solve bit-identically"] = same
    if wl.make_problem is make_example3:
        ok = run.solution.ok_mask()
        out["sweep converges at >= 99% of the points"] = bool(ok.mean() >= 0.99)
        t, x1, x2, x3 = grid.phys[ok].T
        err = np.abs(run.solution.value_array()[ok] - example3_value(t, x1, x2, x3, T=problem.horizon))
        out["|V - closed form| <= 1e-6 at converged grid points"] = bool(err.max() <= 1e-6)
    elif wl.make_problem is make_example1:
        finite = all(np.isfinite(r.V) and np.all(np.isfinite(r.lam)) for r in records)
        out["every record is finite"] = finite
    else:
        ids = inputs.check_ids
        v = np.asarray(run.law.value.eval(grid.ref[ids]))
        lam = np.asarray(run.law.costate.eval(grid.ref[ids]))
        v_err = np.abs(v - run.solution.value_array()[ids]).max()
        lam_err = np.abs(lam - run.solution.costate_array()[ids]).max()
        out[f"interpolant reproduces the samples at {N_NODE_CHECK} seeded nodes to 1e-10"] = bool(
            max(v_err, lam_err) <= 1e-10)
    return out


def counts(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) over all passes: sweep points, oracle solves, queries and MPC trajectories."""
    attempted = failed = 0
    for run in passes:
        attempted += run.n_points + run.report.n_requested + len(run.calls) + len(run.trajectories)
        failed += (run.n_sweep_failed + run.report.n_oracle_failures
                   + sum(t.status != "ok" for t in run.trajectories))
    return attempted, failed


def paper_points(wl: Workload) -> int:
    return grid_size(NodeFamily.CGL, wl.d, wl.paper_q)


def query_times(passes: list[Pass]) -> tuple[list[float], list[float]]:
    """Every query's latency and MPC step's interval over all passes, in ms.

    A step is the interval from one control call to the next in the same
    trajectory (query + RK4 hold).
    """
    query, step = [], []
    for run in passes:
        for a, b in zip(run.calls, run.calls[1:] + [None]):
            query.append(1e3 * (a[3] - a[2]))
            if b is not None and b[0] == a[0]:
                step.append(1e3 * (b[2] - a[2]))
    return query, step


def end_to_end(wl: Workload, grid, passes: list[Pass], clock: Clock,
               scale: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, every timing multiplied by `scale`."""
    median = lambda name: scale * float(np.median(clock.times[name]))  # noqa: E731
    query_ms, step_ms = (scale * np.asarray(v) for v in query_times(passes))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (median("setup"), "s"),
        "pipeline_s": (scale * float(np.median([p.pipeline_s for p in passes])), "s"),
        "sweep_pts_per_s": (len(grid) / median("sweep"), "pt/s"),
        "fit_s": (median("fit"), "s"),
        "validate_s": (median("validate"), "s"),
        "query_ms_p50": (float(np.percentile(query_ms, 50)), "ms"),
        "query_ms_p90": (float(np.percentile(query_ms, 90)), "ms"),
        "mpc_step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "mpc_step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "batch_eval_pts_per_s": (N_BATCH / median("batch_eval"), "pt/s"),
        "mc_ebvp_s": (median("mc_ebvp"), "s"),
        "mae": (passes[0].report.mae, "1"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
