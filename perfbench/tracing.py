"""In-memory spans around the calls the benchmark makes into each hjbsparse module.

A traced pass patches module bindings (and the problem class's methods) from
the outside and restores them afterwards; nothing in the package knows about
the tracer.  Every span has a name, start, end, parent, process id, self time
(duration minus the time its children cover) and a trace id: one per point
solve, per feedback query (an MPC step) and per oracle solve.

The innermost calls (problem callbacks, sparse LU) run hundreds of thousands
of times per workload, so they are rolled up instead of stored: per span name
and enclosing stored span ("ctx") the tracer keeps call count, total time and
self time.

The sweep and validation pools run in forked workers, which inherit the
patched bindings.  Each worker returns its spans together with its chunk's
result, and the parent merges them, so the traced pass keeps the same worker
count as the untraced one.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from hjbsparse import bvp, characteristics, errors, grid, interp, mpc

perf = time.perf_counter
_MISSING = object()

# The tracer of the running traced pass.  Pool workers receive only pickled
# arguments and functions pickled by name, so the shipping wrappers below find
# the tracer (and the chunk functions they replace) through these globals,
# which forked workers inherit.
_ACTIVE: "Tracer | None" = None
_ORIGINAL_CHUNKS: dict = {}


class Tracer:
    def __init__(self):
        self.pid = self.root_pid = os.getpid()
        self.spans: list[tuple] = []   # (sid, parent, trace, name, start, end, self_s, info)
        self.rollup: dict = {}          # (name, ctx) -> [calls, total_s, self_s]
        self.overhead_s = 0.0           # time spent inside the tracer's own bookkeeping
        self._stack: list[list] = []    # open frames: [sid, name, ctx, trace, child_s]
        self._n = 0
        self._last_trace = None

    # -- recording ----------------------------------------------------------
    def _open(self, name, keep, trace):
        parent = self._stack[-1] if self._stack else None
        self._n += 1
        sid = (self.pid, self._n)
        if trace == "new":
            tid = self._last_trace = sid
        elif trace == "last":
            tid = self._last_trace
        else:
            tid = parent[3] if parent else None
        ctx = name if keep else (parent[2] if parent else None)
        frame = [sid, name, ctx, tid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end, keep, info):
        self._stack.pop()
        dur = end - start
        self_s = dur - frame[4]
        if self._stack:
            self._stack[-1][4] += dur
        if keep:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], parent, frame[3], frame[1], start, end, self_s, info))
        else:
            r = self.rollup.setdefault((frame[1], frame[2]), [0, 0.0, 0.0])
            r[0] += 1
            r[1] += dur
            r[2] += self_s

    def wrap(self, name, fn, *, keep=True, trace=None, info=None):
        """fn with a span around every call; info(result, args) is stored with kept spans."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf()
            frame = self._open(name, keep, trace)
            t1 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t2 = perf()
                self._close(frame, t1, t2, keep, None)
                self.overhead_s += (t1 - t0) + (perf() - t2)
                raise
            t2 = perf()
            self._close(frame, t1, t2, keep, info(out, args) if info and keep else None)
            self.overhead_s += (t1 - t0) + (perf() - t2)
            return out

        return traced

    @contextmanager
    def span(self, name):
        frame = self._open(name, True, None)
        start = perf()
        try:
            yield
        finally:
            self._close(frame, start, perf(), True, None)

    # -- pool workers -------------------------------------------------------
    def _enter_worker(self):
        """First call in a forked worker: drop what the parent had recorded."""
        self.pid = os.getpid()
        self.spans, self.rollup, self.overhead_s = [], {}, 0.0

    def _drain(self):
        out = (self.spans, self.rollup, self.overhead_s)
        self.spans, self.rollup, self.overhead_s = [], {}, 0.0
        return out

    def merge(self, shipped):
        spans, rollup, overhead = shipped
        self.spans.extend(spans)
        for key, (n, total, self_s) in rollup.items():
            r = self.rollup.setdefault(key, [0, 0.0, 0.0])
            r[0] += n
            r[1] += total
            r[2] += self_s
        self.overhead_s += overhead


def _ship_chunk(key, args):
    """Pool-side stand-in for a chunk function: run it and, in a worker, return its spans too."""
    tracer = _ACTIVE
    if os.getpid() == tracer.root_pid:      # workers=1: the package calls the chunk in-process
        return _ORIGINAL_CHUNKS[key](args)
    if tracer.pid != os.getpid():
        tracer._enter_worker()
    out = _ORIGINAL_CHUNKS[key](args)
    return out, tracer._drain()


class _HarvestingPool(ProcessPoolExecutor):
    """Process pool of the traced pass.  It forks, so that workers inherit the
    patched bindings, and merges the spans each worker returns with its chunk."""

    def __init__(self, max_workers=None, **_):
        super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"))

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        for out, shipped in super().map(fn, *iterables, timeout=timeout, chunksize=chunksize):
            _ACTIVE.merge(shipped)
            yield out


def _n_points(x):
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


@contextmanager
def traced_pass(tracer: Tracer, problem_cls):
    """Patch every layer boundary for the duration of the block, then restore."""
    global _ACTIVE
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def wrap(owner, attr, name, **kw):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    # grid
    for mod in (grid, characteristics, errors):
        wrap(mod, "build_grid", "grid.build_grid",
             info=lambda g, a: (len(g), len(g.cells)))
    # problems: class-level, so instances pickled to pool workers stay plain
    for meth in ("f", "L", "H_x", "u_star", "h", "h_x"):
        wrap(problem_cls, meth, f"problems.{meth}", keep=False)
    # bvp
    wrap(characteristics, "bvp_solve", "bvp.solve",
         info=lambda s, a: (s.newton_iterations, s.meshes_tried, s.n_nodes, s.status.value))
    wrap(bvp, "splu", "bvp.splu", keep=False)
    # characteristics
    wrap(characteristics, "sweep", "characteristics.sweep")
    wrap(characteristics, "solve_point", "characteristics.solve_point", trace="new",
         info=lambda r, a: (r.converged, r.mesh))
    wrap(characteristics.GridSolution, "save_jsonl", "characteristics.save_jsonl")
    wrap(characteristics, "load_jsonl", "characteristics.load_jsonl")
    wrap(characteristics, "fit_feedback", "characteristics.fit_feedback")
    wrap(characteristics.FeedbackLaw, "control", "characteristics.control", trace="new")
    # interp
    wrap(characteristics, "fit_hierarchical", "interp.fit_hierarchical")
    wrap(interp.Interpolant, "eval", "interp.eval",
         info=lambda out, a: (_n_points(a[1]), len(a[0].grid.cells)))
    # errors
    wrap(errors, "validate", "errors.validate")
    wrap(errors, "solve_point", "errors.oracle_solve", trace="new",
         info=lambda r, a: (r.converged, r.mesh))
    wrap(errors, "mc_ebvp", "errors.mc_ebvp")
    # mpc
    wrap(mpc, "simulate", "mpc.simulate")
    wrap(mpc, "_rk4_hold", "mpc.integrate", trace="last")
    # process pools
    for mod, chunk in ((characteristics, "_solve_chunk"), (errors, "_oracle_chunk")):
        key = f"{mod.__name__}.{chunk}"
        _ORIGINAL_CHUNKS[key] = getattr(mod, chunk)
        patch(mod, chunk, functools.partial(_ship_chunk, key))
        patch(mod, "ProcessPoolExecutor", _HarvestingPool)

    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = None
        _ORIGINAL_CHUNKS.clear()
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics.  facts: workers, grid_points, grid_cells, paper_points,
    dataset_bytes, diverged, attempted, failed, pipeline_s, eval_chunk."""
    by_name: dict[str, list] = {}
    names = {}
    for s in tracer.spans:
        by_name.setdefault(s[3], []).append(s)
        names[s[0]] = s[3]
    dur = lambda spans: [s[5] - s[4] for s in spans]  # noqa: E731

    def rolled(name, ctx=None):
        rows = [v for (n, c), v in tracer.rollup.items() if n == name and (ctx is None or c in ctx)]
        return [sum(r[i] for r in rows) for i in range(3)]

    builds = [s for s in by_name.get("grid.build_grid", []) if names.get(s[1]) == "stage.setup"]
    solves = by_name.get("bvp.solve", [])
    solve_s = sum(dur(solves))
    in_solve = sum(rolled(f"problems.{m}", ("bvp.solve",))[2]
                   for m in ("f", "L", "H_x", "u_star", "h", "h_x"))
    points = dur(by_name.get("characteristics.solve_point", []))
    sweep_wall = sum(dur(by_name.get("characteristics.sweep", [])))
    evals = by_name.get("interp.eval", [])
    oracles = by_name.get("errors.oracle_solve", [])
    controls = [s for s in by_name.get("characteristics.control", [])
                if names.get(s[1]) == "mpc.simulate"]
    integrate_s = sum(b[4] - a[4] - (a[5] - a[4])
                      for a, b in zip(controls, controls[1:]) if a[1] == b[1])
    splu = rolled("bvp.splu")
    return {
        "grid.build_s": (_pct(dur(builds), 90), "s"),
        "grid.points": (facts["grid_points"], "count"),
        "grid.cells": (facts["grid_cells"], "count"),
        "problems.f_calls": (rolled("problems.f")[0], "count"),
        "problems.H_x_calls": (rolled("problems.H_x")[0], "count"),
        "problems.H_x_self_s": (rolled("problems.H_x")[2], "s"),
        "problems.f_self_s": (rolled("problems.f")[2], "s"),
        "problems.share_of_solve": (in_solve / solve_s if solve_s else 0.0, "1"),
        "bvp.solve_calls": (len(solves), "count"),
        "bvp.newton_iterations": (sum(s[7][0] for s in solves), "count"),
        "bvp.meshes_tried": (sum(s[7][1] for s in solves), "count"),
        "bvp.mesh_nodes_p50": (_pct([s[7][2] for s in solves], 50), "count"),
        "bvp.mesh_nodes_p90": (_pct([s[7][2] for s in solves], 90), "count"),
        "bvp.mesh_nodes_max": (max((s[7][2] for s in solves), default=0), "count"),
        "bvp.splu_calls": (splu[0], "count"),
        "bvp.splu_s": (splu[1], "s"),
        "bvp.self_s": (sum(s[6] for s in solves), "s"),
        "bvp.point_s_p50": (_pct(points, 50), "s"),
        "bvp.point_s_p90": (_pct(points, 90), "s"),
        "sweep.wall_s": (sweep_wall, "s"),
        "sweep.serial_s": (sum(points), "s"),
        "sweep.parallel_efficiency": (sum(points) / (facts["workers"] * sweep_wall), "1"),
        "sweep.projected_paper_cpu_h": (float(np.mean(points)) * facts["paper_points"] / 3600.0, "h"),
        "dataset.write_s": (sum(dur(by_name.get("characteristics.save_jsonl", []))), "s"),
        "dataset.read_s": (sum(dur(by_name.get("characteristics.load_jsonl", []))), "s"),
        "dataset.bytes": (facts["dataset_bytes"], "B"),
        "interp.fit_s": (sum(dur(by_name.get("interp.fit_hierarchical", []))), "s"),
        "interp.eval_calls": (len(evals), "count"),
        "interp.eval_points": (sum(s[7][0] for s in evals), "count"),
        "interp.eval_s": (sum(dur(evals)), "s"),
        "interp.cell_visits": (sum(s[7][1] * -(-s[7][0] // facts["eval_chunk"]) for s in evals),
                               "count_computed"),
        "errors.oracle_solves": (len(oracles), "count"),
        "errors.oracle_failures": (sum(not s[7][0] for s in oracles), "count"),
        "errors.oracle_point_s_p50": (_pct(dur(oracles), 50), "s"),
        "errors.mc_ebvp_s": (sum(dur(by_name.get("errors.mc_ebvp", []))), "s"),
        "mpc.steps": (len(controls), "count"),
        "mpc.control_s": (sum(dur(controls)), "s"),
        "mpc.integrate_s": (integrate_s, "s"),
        "mpc.f_calls": (rolled("problems.f", ("mpc.integrate", "mpc.simulate"))[0], "count"),
        "mpc.diverged": (facts["diverged"], "count"),
        "failed_fraction": (facts["failed"] / facts["attempted"], "1"),
        "trace.pipeline_s": (facts["pipeline_s"], "s"),
        "trace.overhead_s": (tracer.overhead_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
