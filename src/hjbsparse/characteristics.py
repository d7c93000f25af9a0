"""Per-point characteristic BVPs, the causality-free sweep, and sweep datasets.

For a control problem with state dimension n the characteristic system couples
state and costate into a first-order system of size 2n:

    x' = f(s, x, u*),   lam' = -H_x(s, x, lam, u*)^T,

with boundary conditions x(t0) = x0 and lam(T) = h_x(x(T))^T, where
u* = u_star(s, x, lam) is substituted everywhere.  The value and costate at
(t0, x0) are V = h(x(T)) + integral of L(s, x, u*) over [t0, T], taken by the
collocation's own Lobatto quadrature (BvpSolution.integrate), and lam(t0).

Every grid point is solved independently from the same cold start (no
neighbor warm-starting), so re-solving any subset reproduces its records
bit-identically and the sweep result does not depend on the worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bvp import BvpProblem, BvpSolution, BvpStatus, solve as bvp_solve
from .exceptions import FitError, GridSpecError, InfeasibleTargetError, SweepError, TargetSolveError
from .grid import Box, NodeFamily, SparseGrid, build_grid
from .interp import Interpolant, fit_hierarchical
from .util import json_default

_DEGENERATE_HORIZON = 1e-13
_MAX_SWEEP_FAILURES = 0.01         # failed share of grid points that aborts a sweep
# record status of a point whose target (specialize) fails, by the error it raised
_TARGET_FAILURES = {InfeasibleTargetError: "InfeasibleTarget", TargetSolveError: "TargetSolve"}


class ControlProblem:
    """Base class for finite-horizon problems whose Hamiltonian has its argmin u* in closed form.

    Subclasses define f, L, h, h_x, u_star and H_x, the gradient in x of the
    Hamiltonian L + lam . f at fixed u, all in closed form: H_x is required, as
    f and L are.  Everything is vectorized over a trailing point axis
    (x: (n, P), u: (m, P), t scalar or (P,)).

    f and L also take one point without the axis: x of shape (n,) and u of
    shape (m,) give f of shape (n,) and L of shape (), equal to the column
    results [:, 0] and [0].  The MPC plant steps on these 1-D states.  Unpack
    rows (x1, x2, x3 = x) rather than slice them, so no (n,) - (n, 1)
    broadcast can turn a point into a matrix.

    h_x takes one point (n,) -> (n,) and columns (n, P) -> (n, P): the BVP's
    boundary Jacobian evaluates it on every perturbed copy of x(T) in one
    call.  A zero gradient is np.zeros_like(x), never a fixed-shape array.
    """

    name: str = "problem"
    n: int = 0
    m: int = 0
    horizon: float = 0.0
    domain: Box = None  # includes the time axis when time_in_grid
    time_in_grid: bool = False
    state_labels: tuple[str, ...] = ()
    control_labels: tuple[str, ...] = ()

    # -- problem data ------------------------------------------------------
    def f(self, t, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def L(self, t, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def h(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def h_x(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def u_star(self, t, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def H_x(self, t, x: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def specialize(self, t0: float, x0: np.ndarray) -> "ControlProblem":
        """Per-point frozen variant (e.g. a fixed target attitude) that a further
        specialize returns unchanged; default self."""
        return self

    # -- derived -----------------------------------------------------------
    @property
    def state_box(self) -> Box:
        """The state-space part of the domain (time axis stripped)."""
        if not self.time_in_grid:
            return self.domain
        return Box(self.domain.lower[1:], self.domain.upper[1:])

    def grid_coords(self, t0: float, x0: np.ndarray) -> np.ndarray:
        return np.concatenate([[t0], x0]) if self.time_in_grid else np.asarray(x0, dtype=float)

    def spec(self) -> dict:
        """JSON-ready {"id", "params"}; problems.problem_from_spec rebuilds the problem from it."""
        return {"id": self.name, "params": {}}


def _cols(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def assemble_bvp(problem: ControlProblem, t0: float, x0: np.ndarray, tol: float) -> BvpProblem:
    """Characteristic two-point BVP of dimension 2n at one grid point: y = (x, lam).

    Cold start: x(s) = x0, lam(s) = h_x(x0)^T on an 11-node uniform mesh.
    """
    x0 = np.asarray(x0, dtype=float)
    n = problem.n
    prob = problem.specialize(t0, x0)
    y_guess = np.concatenate([x0, prob.h_x(x0)])[:, None]

    def rhs(s, y):
        x, lam = y[:n], y[n:]
        u = prob.u_star(s, x, lam)
        return np.vstack([prob.f(s, x, u), -prob.H_x(s, x, lam, u)])

    def bc(ya, yb):
        # x0 against the leading axis, so that ya is one point (2n,) or columns (2n, P)
        return np.concatenate([(ya[:n].T - x0).T, yb[n:] - prob.h_x(yb[:n])])

    def guess(s):
        return np.repeat(y_guess, len(s), axis=1)

    return BvpProblem(ndim=2 * n, rhs=rhs, bc=bc, interval=(t0, problem.horizon), tol=tol, guess=guess)


_CONVERGED = BvpStatus.CONVERGED.value


@dataclass
class CharacteristicRecord:
    point_id: int
    V: float
    lam: np.ndarray
    status: str
    residual: float
    mesh: int
    newton: int = 0          # Newton iterations, summed over every solve of the point
    meshes: int = 0          # meshes tried, summed the same way
    cont: bool = False       # whether horizon continuation ran

    @property
    def converged(self) -> bool:
        return self.status == _CONVERGED


def _continuation_solve(prob: ControlProblem, t0: float, x0: np.ndarray, tol: float,
                        stages: int) -> tuple[BvpSolution, int, int]:
    """Backward horizon continuation: solve on [t_m, T] for shrinking t_m,
    warm-starting each stage from the previous solution (clipped-constant
    extension to the left); one stage is the direct solve at t0 from a cold
    start.  Uses nothing but this point's own data, so the causality-free
    contract is preserved.  Returns the last stage's solution and the Newton
    iterations and meshes tried summed over the stages."""
    T = prob.horizon
    prev: BvpSolution | None = None
    sol: BvpSolution | None = None
    newton = meshes = 0
    for k in range(1, stages + 1):
        tm = t0 if k == stages else T - (T - t0) * (k / stages)
        bp = assemble_bvp(prob, tm, x0, tol)
        if prev is not None:
            left = float(prev.mesh[0])
            pr = prev
            bp = replace(bp, guess=lambda s, pr=pr, left=left: pr.interpolate(np.clip(s, left, T)))
        sol = bvp_solve(bp)
        newton, meshes = newton + sol.newton_iterations, meshes + sol.meshes_tried
        if sol.status is not BvpStatus.CONVERGED:
            break
        prev = sol
    return sol, newton, meshes


def solve_point(problem: ControlProblem, t0: float, x0: np.ndarray, tol: float,
                point_id: int = 0) -> CharacteristicRecord:
    """Value and costate at one point; failures are reported, never fabricated.

    A point whose target attitude does not exist or is not unique gets a failed
    record with status "InfeasibleTarget" or "TargetSolve" and mesh 0.
    """
    x0 = np.asarray(x0, dtype=float)
    n = problem.n
    # specialize once: for Example II it solves for the target attitude
    try:
        prob = problem.specialize(t0, x0)
    except tuple(_TARGET_FAILURES) as exc:
        return CharacteristicRecord(point_id, float("nan"), np.full(n, np.nan), _TARGET_FAILURES[type(exc)],
                                    float("nan"), 0)
    if problem.horizon - t0 <= _DEGENERATE_HORIZON:
        return CharacteristicRecord(point_id, float(prob.h(x0)),
                                    np.asarray(prob.h_x(x0), dtype=float), BvpStatus.CONVERGED.value, 0.0, 0)
    newton = meshes = 0
    for stages in (1, 4):              # the direct solve, then continuation if it fails
        sol, stage_newton, stage_meshes = _continuation_solve(prob, t0, x0, tol, stages)
        newton, meshes = newton + stage_newton, meshes + stage_meshes
        if sol.status is BvpStatus.CONVERGED:
            break
    cont = stages > 1
    if sol.status is BvpStatus.CONVERGED:
        cost = sol.integrate(lambda s, y: prob.L(s, y[:n], prob.u_star(s, y[:n], y[n:])))
        V = float(prob.h(sol.y[:n, -1]) + cost)
        lam0 = sol.y[n:, 0].copy()
    else:
        V = float("nan")
        lam0 = np.full(n, np.nan)
    return CharacteristicRecord(point_id, V, lam0, sol.status.value, sol.est_residual, sol.n_nodes,
                                newton, meshes, cont)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def point_args(problem: ControlProblem, points) -> list[tuple[float, np.ndarray]]:
    """(t0, x0) of each physical grid-coordinate point; the inverse of ControlProblem.grid_coords."""
    if problem.time_in_grid:
        return [(float(p[0]), p[1:]) for p in points]
    return [(0.0, p) for p in points]


def _solve_chunk(args):
    problem, tol, items = args
    return [solve_point(problem, t0, x0, tol, point_id=pid) for pid, t0, x0 in items]


# The process's pool and its key (worker count, pool class): built by the first map_chunks
# call that needs workers and reused by every later call with the same key.  The lock is
# held for a whole map, so no thread drops the pool another one maps on.
_pool: tuple | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Start a forked child without its parent's pool, and with a lock no thread holds."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool() -> None:
    """Shut the process's pool down, cancelling its queued chunks, and forget it."""
    global _pool
    _, pool = _pool
    _pool = None
    pool.shutdown(cancel_futures=True)


def _executor(workers: int) -> ProcessPoolExecutor:
    """The process's pool of `workers` workers, rebuilt when the key changes or a worker has died.

    The class is read from the module binding at each call, so a pool built
    under a patched ProcessPoolExecutor is rebuilt once the binding changes back.
    A worker that died between maps is found by polling each one, before the
    pool's own thread may have seen it.
    """
    global _pool
    key = (workers, ProcessPoolExecutor)
    if _pool is not None and (_pool[0] != key or not all(p.is_alive() for p in _pool[1]._processes.values())):
        _drop_pool()
    if _pool is None:
        _pool = key, ProcessPoolExecutor(max_workers=workers)
    return _pool[1]


def map_chunks(chunk_fn, problem: ControlProblem, tol: float, items: list, workers: int) -> list:
    """chunk_fn((problem, tol, chunk)) over round-robin chunks of items on the process's pool
    (in-process for one worker or fewer than 4 items); one result per item, in item order.

    The workers are forked once per process and worker count, by the first map
    that needs them, and every later map with the same count reuses them; they
    exit with the interpreter.  They run the package as it was when they were
    forked, so a monkeypatch made after that point reaches only workers=1 runs.
    An exception that leaves the map shuts the pool down, its queued chunks
    cancelled, and the next map forks a fresh one; so does a worker that died
    between maps, and every map in a process that multiprocessing started.  A
    forked child starts without its parent's pool.  Maps from several threads
    take turns on the pool.
    """
    if workers <= 1 or len(items) < 4:
        return chunk_fn((problem, tol, items))
    nchunks = min(len(items), 4 * workers)
    out = [None] * len(items)
    with _pool_lock:
        pool = _executor(workers)
        try:
            parts = pool.map(chunk_fn, [(problem, tol, items[i::nchunks]) for i in range(nchunks)])
            for i, part in enumerate(parts):
                out[i::nchunks] = part
        except BaseException:
            _drop_pool()
            raise
        # multiprocessing joins a child's children at exit before the interpreter
        # would shut the pool down, so a process it started keeps none between maps
        if multiprocessing.parent_process() is not None:
            _drop_pool()
    return out


@dataclass
class GridSolution:
    header: dict
    records: list[CharacteristicRecord]

    @property
    def failures(self) -> list[int]:
        return [r.point_id for r in self.records if not r.converged]

    def value_array(self) -> np.ndarray:
        return np.array([r.V for r in self.records])

    def costate_array(self) -> np.ndarray:
        return np.stack([r.lam for r in self.records])

    def ok_mask(self) -> np.ndarray:
        return np.array([r.status == _CONVERGED for r in self.records])

    def record_lines(self, grid: SparseGrid) -> list[str]:
        """Deterministic JSON record lines (the dataset body)."""
        keys = _grid_keys(grid)
        return [json.dumps({**{key: column[r.point_id] for key, column in keys.items()},
                            **{key: write(getattr(r, name)) for key, (name, write, _) in _RECORD_KEYS.items()}},
                           separators=(",", ":"))
                for r in self.records]

    def save_jsonl(self, path, grid: SparseGrid) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.header, separators=(",", ":"), default=json_default) + "\n")
            for line in self.record_lines(grid):
                fh.write(line + "\n")


def _grid_keys(grid: SparseGrid) -> dict[str, list]:
    """The keys that place each record on the grid, by point: id, level and offset multi-indices, coordinates."""
    return {"id": list(range(len(grid))), "mi": grid.levels.tolist(), "off": grid.offsets.tolist(),
            "x": grid.phys.tolist()}


def _field(obj, key: str, convert):
    """convert(obj[key]); a missing key or a malformed value raises ValueError naming the key."""
    try:
        return convert(obj[key])
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {key!r}: {exc}") from None


def _float_or_null(v) -> float | None:
    return float(v) if np.isfinite(v) else None


def _nan_or_float(v) -> float:
    return np.nan if v is None else float(v)


def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


# record key after the grid keys -> (CharacteristicRecord field, JSON writer of the field, reader), in line order;
# a value that is not finite is written as null and read back as NaN
_RECORD_KEYS = {
    "V": ("V", _float_or_null, _nan_or_float),
    "lam": ("lam", lambda lam: [_float_or_null(v) for v in lam], lambda v: np.array([_nan_or_float(x) for x in v])),
    "status": ("status", str, str),
    "res": ("residual", _float_or_null, _nan_or_float),
    "mesh": ("mesh", int, int),
    "newton": ("newton", int, int),
    "meshes": ("meshes", int, int),
    "cont": ("cont", bool, _bool),
}


def _record(obj, k: int, grid_keys: dict[str, list]) -> CharacteristicRecord:
    """Record k, whose id and grid keys must be grid point k's, exactly."""
    if k >= len(grid_keys["id"]):
        raise ValueError(f"record past the grid's last point, id {len(grid_keys['id']) - 1}")
    for key, column in grid_keys.items():
        value = _field(obj, key, lambda v: v)
        if value != column[k]:
            raise ValueError(f"record {key} {value!r}, expected {column[k]}")
    return CharacteristicRecord(k, **{name: _field(obj, key, read) for key, (name, _, read) in _RECORD_KEYS.items()})


def _header_and_grid(header) -> tuple[dict, SparseGrid]:
    grid = build_grid(NodeFamily.parse(_field(header, "family", str)), _field(header, "d", int),
                      _field(header, "q", int), _field(header, "domain", Box.from_json))
    _field(header, "tolerance", float)           # validate's default oracle tolerance derives from it
    if not isinstance(header.get("problem"), dict):
        raise ValueError("the dataset was written before datasets carried their problem spec; "
                         "re-run `hjbsparse sweep` to regenerate it")
    return header, grid


def load_jsonl(path) -> tuple[dict, GridSolution, SparseGrid]:
    """Parse a sweep dataset; rebuilds the grid from the header.

    A line that is not JSON, or lacks a key or holds a malformed value, raises
    SweepError naming the file, the line and the key; so do a header without a
    problem spec or with grid parameters build_grid refuses, and a record that
    is not grid point k's (record k on line k+2).
    """
    def parse(lineno: int, line: str, build):
        try:
            return build(json.loads(line))
        except (GridSpecError, ValueError) as exc:
            raise SweepError(f"{path} line {lineno}: {exc}") from exc

    with open(path) as fh:
        header, grid = parse(1, fh.readline(), _header_and_grid)
        keys = _grid_keys(grid)
        records = [parse(k + 2, line, lambda obj, k=k: _record(obj, k, keys)) for k, line in enumerate(fh)]
    if len(records) != len(grid):
        raise SweepError(f"{path}: {len(records)} records for a {len(grid)}-point grid")
    return header, GridSolution(header=header, records=records), grid


def sweep(problem: ControlProblem, grid: SparseGrid, tol: float, workers: int) -> GridSolution:
    """Solve the characteristic BVP at every grid point, embarrassingly parallel.

    Results are keyed by point id, so the dataset body is identical for any
    worker count.  Raises SweepError if more than 1% of the points fail (its
    message gives the failures by status); individual failures otherwise
    land in the failure list.
    """
    if problem.domain.as_json() != grid.domain.as_json():
        raise SweepError("grid domain does not match problem domain")
    items = [(pid, t0, x0) for pid, (t0, x0) in enumerate(point_args(problem, grid.phys))]
    records = map_chunks(_solve_chunk, problem, tol, items, workers)

    failed = Counter(r.status for r in records if not r.converged)
    n_fail = sum(failed.values())
    if n_fail > _MAX_SWEEP_FAILURES * len(records):
        reasons = {status: f": {exc.__doc__}" for exc, status in _TARGET_FAILURES.items()}
        by_status = "; ".join(f"{status} {count}{reasons.get(status, '')}"
                              for status, count in sorted(failed.items()))
        raise SweepError(f"{n_fail}/{len(records)} grid points failed to solve ({by_status})")
    header = {
        "problem": problem.spec(),
        "family": grid.family.value,
        "d": grid.d,
        "q": grid.q,
        "domain": grid.domain.as_json(),
        "T": float(problem.horizon),
        "tolerance": float(tol),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return GridSolution(header=header, records=records)


# ---------------------------------------------------------------------------
# Interpolated feedback
# ---------------------------------------------------------------------------

@dataclass
class FeedbackLaw:
    """Value/costate interpolants over a swept grid, queried in physical coordinates."""

    problem: ControlProblem
    grid: SparseGrid
    value: Interpolant
    costate: Interpolant

    def _ref(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.grid.domain.to_ref(self.problem.grid_coords(t, np.asarray(x, dtype=float)))

    def costate_at(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.costate.eval(self._ref(t, x)))

    def value_at(self, t: float, x: np.ndarray) -> float:
        return float(self.value.eval(self._ref(t, x)))

    def control(self, t: float, x: np.ndarray) -> np.ndarray:
        lam = self.costate_at(t, x)
        u = self.problem.u_star(t, _cols(np.asarray(x, dtype=float)), _cols(lam))
        return np.asarray(u)[:, 0]


def fit_feedback(problem: ControlProblem, grid: SparseGrid, solution: GridSolution) -> FeedbackLaw:
    """Fit V and each costate component over the grid; failed points get no surplus.

    Refuses if any failed point sits at a coarse cell (|i| <= d+1), where a
    missing correction would poison the whole interpolant.
    """
    mask = solution.ok_mask()
    if not np.all(mask):
        bad_levels = grid.levels[~mask].sum(axis=1)
        if np.any(bad_levels <= grid.d + 1):
            ids = [int(i) for i in np.nonzero(~mask)[0] if grid.levels[i].sum() <= grid.d + 1]
            raise FitError(f"failed points at coarse levels |i| <= d+1: ids {ids}")
    # one fit of V and the costate side by side: the poles are found once
    both = fit_hierarchical(grid, np.column_stack([solution.value_array(), solution.costate_array()]),
                            mask=mask).surpluses
    return FeedbackLaw(problem=problem, grid=grid,
                       value=Interpolant(grid, np.ascontiguousarray(both[:, 0])),
                       costate=Interpolant(grid, np.ascontiguousarray(both[:, 1:])))

